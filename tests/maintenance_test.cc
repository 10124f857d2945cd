#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "src/maintenance/delta_evaluator.h"
#include "src/observability/trace.h"
#include "src/pattern/pattern_parser.h"
#include "src/util/rng.h"
#include "src/viewstore/extent_io.h"
#include "src/viewstore/view_catalog.h"
#include "src/workload/xmark.h"
#include "src/xml/builder.h"
#include "src/xml/update.h"

namespace svx {
namespace {

std::unique_ptr<Document> Doc(std::string_view s) {
  Result<std::unique_ptr<Document>> r = ParseTreeNotation(s);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

// ---------------------------------------------------------------------------
// Document updates: stable ORDPATHs
// ---------------------------------------------------------------------------

TEST(DocumentUpdate, InsertAppendsWithFreshOrdinal) {
  std::unique_ptr<Document> d = Doc("a(b=1 c=2)");
  std::unique_ptr<Document> sub = Doc("d(e=3)");
  Result<UpdateResult> r = InsertSubtree(*d, OrdPath::Root(), *sub);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const Document& nd = *r->doc;
  EXPECT_EQ(nd.size(), 5);
  EXPECT_EQ(r->delta.kind, DocumentDelta::Kind::kInsert);
  EXPECT_EQ(r->delta.region.ToString(), "1.3");
  EXPECT_EQ(r->delta.region_size, 2);
  // Surviving nodes keep their ids and values.
  NodeIndex b = nd.FindByOrdPath(OrdPath::FromString("1.1"));
  ASSERT_NE(b, kInvalidNode);
  EXPECT_EQ(nd.label(b), "b");
  EXPECT_EQ(nd.value(b), "1");
  // The inserted subtree is reachable under the region id.
  NodeIndex e = nd.FindByOrdPath(OrdPath::FromString("1.3.1"));
  ASSERT_NE(e, kInvalidNode);
  EXPECT_EQ(nd.label(e), "e");
  EXPECT_EQ(nd.value(e), "3");
  EXPECT_EQ(nd.parent(e), nd.FindByOrdPath(OrdPath::FromString("1.3")));
}

TEST(DocumentUpdate, DeleteKeepsSiblingOrdinals) {
  std::unique_ptr<Document> d = Doc("a(b=1 c=2 d=3)");
  Result<UpdateResult> r = DeleteSubtree(*d, OrdPath::FromString("1.2"));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const Document& nd = *r->doc;
  EXPECT_EQ(nd.size(), 3);
  EXPECT_EQ(r->delta.region_size, 1);
  // The surviving third child still answers to ordinal 3 (ordinal gap).
  NodeIndex dd = nd.FindByOrdPath(OrdPath::FromString("1.3"));
  ASSERT_NE(dd, kInvalidNode);
  EXPECT_EQ(nd.label(dd), "d");
  EXPECT_EQ(nd.FindByOrdPath(OrdPath::FromString("1.2")), kInvalidNode);
}

TEST(DocumentUpdate, InsertOrdinalIsMaxSurvivorPlusOne) {
  std::unique_ptr<Document> d = Doc("a(b c d)");
  // Deleting a middle sibling leaves max ordinal 3; the next insert takes 4.
  Result<UpdateResult> del = DeleteSubtree(*d, OrdPath::FromString("1.2"));
  ASSERT_TRUE(del.ok());
  Result<UpdateResult> ins =
      InsertSubtree(*del->doc, OrdPath::Root(), *Doc("x"));
  ASSERT_TRUE(ins.ok());
  EXPECT_EQ(ins->delta.region.ToString(), "1.4");
  NodeIndex x = ins->doc->FindByOrdPath(ins->delta.region);
  ASSERT_NE(x, kInvalidNode);
  EXPECT_EQ(ins->doc->label(x), "x");
}

TEST(DocumentUpdate, DeleteRootRejected) {
  std::unique_ptr<Document> d = Doc("a(b)");
  EXPECT_FALSE(DeleteSubtree(*d, OrdPath::Root()).ok());
  EXPECT_FALSE(DeleteSubtree(*d, OrdPath::FromString("1.7")).ok());
  EXPECT_FALSE(InsertSubtree(*d, OrdPath::FromString("1.7"), *Doc("x")).ok());
}

TEST(DocumentUpdate, InsertBeforeSiblingLandsInDocumentOrder) {
  std::unique_ptr<Document> d = Doc("a(b=1 c=2 d=3)");
  OrdPath before = OrdPath::FromString("1.2");  // before c
  Result<UpdateResult> r =
      InsertSubtree(*d, OrdPath::Root(), *Doc("x(y=9)"), &before);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const Document& nd = *r->doc;
  // The new root's id carets between b's subtree and c.
  EXPECT_EQ(r->delta.region.ToString(), "1.1.^.1");
  EXPECT_EQ(r->delta.region_size, 2);
  std::vector<std::string> labels;
  for (NodeIndex c : nd.children(nd.root())) labels.push_back(nd.label(c));
  EXPECT_EQ(labels, (std::vector<std::string>{"b", "x", "c", "d"}));
  // Every existing id is unchanged; the insert introduced no renumbering.
  for (const char* id : {"1.1", "1.2", "1.3"}) {
    EXPECT_NE(nd.FindByOrdPath(OrdPath::FromString(id)), kInvalidNode) << id;
  }
  NodeIndex x = nd.FindByOrdPath(r->delta.region);
  ASSERT_NE(x, kInvalidNode);
  EXPECT_EQ(nd.label(x), "x");
  EXPECT_EQ(nd.parent(x), nd.root());
  EXPECT_EQ(nd.depth(x), 2);
  NodeIndex y = nd.FindByOrdPath(r->delta.region.Child(1));
  ASSERT_NE(y, kInvalidNode);
  EXPECT_EQ(nd.label(y), "y");
  EXPECT_EQ(nd.parent(y), x);
}

TEST(DocumentUpdate, InsertBeforeFirstChildUsesLowCaret) {
  std::unique_ptr<Document> d = Doc("a(b=1 c=2)");
  OrdPath before = OrdPath::FromString("1.1");
  Result<UpdateResult> r =
      InsertSubtree(*d, OrdPath::Root(), *Doc("x"), &before);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->delta.region.ToString(), "1.0.1");
  const Document& nd = *r->doc;
  EXPECT_EQ(nd.label(nd.first_child(nd.root())), "x");
  EXPECT_EQ(nd.depth(nd.FindByOrdPath(r->delta.region)), 2);
}

TEST(DocumentUpdate, InsertBeforeRejectsNonChildren) {
  std::unique_ptr<Document> d = Doc("a(b(e=1) c)");
  OrdPath not_a_child = OrdPath::FromString("1.1.1");  // grandchild
  EXPECT_FALSE(
      InsertSubtree(*d, OrdPath::Root(), *Doc("x"), &not_a_child).ok());
  OrdPath absent = OrdPath::FromString("1.9");
  EXPECT_FALSE(InsertSubtree(*d, OrdPath::Root(), *Doc("x"), &absent).ok());
}

TEST(DocumentUpdate, RepeatedMidSiblingInsertsKeepOrderAndIds) {
  // Chains of careted inserts at the same slot: every insert lands exactly
  // where asked and never disturbs an existing id.
  std::unique_ptr<Document> d = Doc("a(b=0 e=9)");
  OrdPath before = OrdPath::FromString("1.2");  // always before e
  std::vector<OrdPath> inserted;
  for (int i = 0; i < 6; ++i) {
    Result<UpdateResult> r =
        InsertSubtree(*d, OrdPath::Root(), *Doc("m"), &before);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    inserted.push_back(r->delta.region);
    d = std::move(r->doc);
  }
  // Order: b, m m m m m m (in insertion order), e.
  std::vector<NodeIndex> kids = d->children(d->root());
  ASSERT_EQ(kids.size(), 8u);
  EXPECT_EQ(d->label(kids.front()), "b");
  EXPECT_EQ(d->label(kids.back()), "e");
  for (size_t i = 0; i < inserted.size(); ++i) {
    EXPECT_EQ(d->ord_path(kids[i + 1]), inserted[i]) << i;
    EXPECT_EQ(d->depth(kids[i + 1]), 2);
  }
}

// ---------------------------------------------------------------------------
// Maintenance vs rematerialization — targeted cases
// ---------------------------------------------------------------------------

std::string ColumnarBytes(const ColumnarExtent& extent) {
  std::string out;
  extent.AppendBytes(&out);
  return out;
}

/// Applies the delta through a catalog and checks every extent — decoded
/// and columnar — and its statistics are byte-identical to a fresh
/// materialization.
void ExpectMaintainedEqualsRemat(const ViewCatalog& catalog,
                                 const Document& new_doc) {
  for (const auto& v : catalog.views()) {
    ViewCatalog fresh;
    ASSERT_TRUE(fresh.Materialize(v->def, new_doc).ok());
    const StoredView* want = fresh.Find(v->def.name);
    ASSERT_NE(want, nullptr);
    EXPECT_EQ(SerializeExtent(v->extent()), SerializeExtent(want->extent()))
        << v->def.name << " extent diverged from rematerialization";
    EXPECT_EQ(ColumnarBytes(*v->columnar), ColumnarBytes(*want->columnar))
        << v->def.name << " folded chunks diverged from a fresh encoding";
    EXPECT_TRUE(v->stats == want->stats)
        << v->def.name << " stats diverged from rematerialization";
    EXPECT_EQ(v->extent_bytes, want->extent_bytes) << v->def.name;
  }
}

TEST(Maintenance, InsertEmitsOnlyNewTuples) {
  std::unique_ptr<Document> d = Doc("a(b=1 b=2)");
  ViewCatalog catalog;
  ASSERT_TRUE(
      catalog.Materialize({"V", MustParsePattern("a(/b{id,v})")}, *d).ok());
  Result<UpdateResult> r = InsertSubtree(*d, OrdPath::Root(), *Doc("b=3"));
  ASSERT_TRUE(r.ok());

  TableDelta td = ComputeViewDelta(MustParsePattern("a(/b{id,v})"), "V",
                                   catalog.Find("V")->extent(), r->delta);
  EXPECT_FALSE(td.full_rebuild);
  EXPECT_TRUE(td.deletes.empty());
  ASSERT_EQ(td.inserts.size(), 1u);

  MaintenanceStats ms;
  ASSERT_TRUE(catalog.ApplyUpdate(r->delta, &ms).ok());
  EXPECT_EQ(ms.tuples_inserted, 1);
  EXPECT_EQ(ms.views_rebuilt, 0);
  ExpectMaintainedEqualsRemat(catalog, *r->doc);
}

TEST(Maintenance, DeleteKeepsMultiplyJustifiedTuples) {
  // The label-only tuple ("b") is justified by two embeddings; deleting one
  // must not delete the tuple (set semantics).
  std::unique_ptr<Document> d = Doc("a(x(b=1) y(b=2))");
  ViewCatalog catalog;
  ASSERT_TRUE(
      catalog.Materialize({"L", MustParsePattern("a(//b{l})")}, *d).ok());
  ASSERT_EQ(catalog.Find("L")->extent().NumRows(), 1);

  Result<UpdateResult> r = DeleteSubtree(*d, OrdPath::FromString("1.2"));
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(catalog.ApplyUpdate(r->delta).ok());
  EXPECT_EQ(catalog.Find("L")->extent().NumRows(), 1);
  ExpectMaintainedEqualsRemat(catalog, *r->doc);

  // Deleting the second occurrence removes the tuple for good.
  std::unique_ptr<Document> d2 = std::move(r->doc);
  Result<UpdateResult> r2 = DeleteSubtree(*d2, OrdPath::FromString("1.1"));
  ASSERT_TRUE(r2.ok());
  ASSERT_TRUE(catalog.ApplyUpdate(r2->delta).ok());
  EXPECT_EQ(catalog.Find("L")->extent().NumRows(), 0);
  ExpectMaintainedEqualsRemat(catalog, *r2->doc);
}

TEST(Maintenance, OptionalEdgePaddingFlipsBothWays) {
  std::unique_ptr<Document> d = Doc("a(b=0(c=1))");
  Pattern p = MustParsePattern("a(/b{id}(?/c{v}))");
  ViewCatalog catalog;
  ASSERT_TRUE(catalog.Materialize({"O", p}, *d).ok());

  // Delete the only c: (1.1, '1') must become (1.1, ⊥).
  Result<UpdateResult> r = DeleteSubtree(*d, OrdPath::FromString("1.1.1"));
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(catalog.ApplyUpdate(r->delta).ok());
  ASSERT_EQ(catalog.Find("O")->extent().NumRows(), 1);
  EXPECT_TRUE(catalog.Find("O")->extent().row(0)[1].IsNull());
  ExpectMaintainedEqualsRemat(catalog, *r->doc);

  // Insert a c again: the padded tuple must flip back to a value.
  std::unique_ptr<Document> d2 = std::move(r->doc);
  Result<UpdateResult> r2 =
      InsertSubtree(*d2, OrdPath::FromString("1.1"), *Doc("c=9"));
  ASSERT_TRUE(r2.ok());
  ASSERT_TRUE(catalog.ApplyUpdate(r2->delta).ok());
  ASSERT_EQ(catalog.Find("O")->extent().NumRows(), 1);
  EXPECT_EQ(catalog.Find("O")->extent().row(0)[1].AsString(), "9");
  ExpectMaintainedEqualsRemat(catalog, *r2->doc);
}

TEST(Maintenance, NestedGroupsReaggregate) {
  std::unique_ptr<Document> d = Doc("a(b=0(c=1) b=9)");
  Pattern p = MustParsePattern("a(/b{id}(n/c{v}))");
  ViewCatalog catalog;
  ASSERT_TRUE(catalog.Materialize({"N", p}, *d).ok());

  Result<UpdateResult> r =
      InsertSubtree(*d, OrdPath::FromString("1.1"), *Doc("c=2"));
  ASSERT_TRUE(r.ok());
  MaintenanceStats ms;
  ASSERT_TRUE(catalog.ApplyUpdate(r->delta, &ms).ok());
  EXPECT_EQ(ms.views_rebuilt, 0);
  ExpectMaintainedEqualsRemat(catalog, *r->doc);
  // The affected b row's group now has two inner rows.
  const Table& t = catalog.Find("N")->extent();
  ASSERT_EQ(t.NumRows(), 2);
  bool saw_two = false;
  for (int64_t i = 0; i < t.NumRows(); ++i) {
    if (t.row(i)[1].AsTable().NumRows() == 2) saw_two = true;
  }
  EXPECT_TRUE(saw_two);
}

TEST(Maintenance, ContentReferencesRebindToNewDocument) {
  std::unique_ptr<Document> d = Doc("a(b(c=1) b(c=2))");
  Pattern p = MustParsePattern("a(/b{id,c})");
  ViewCatalog catalog;
  ASSERT_TRUE(catalog.Materialize({"C", p}, *d).ok());

  Result<UpdateResult> r = InsertSubtree(*d, OrdPath::Root(), *Doc("b(c=3)"));
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(catalog.ApplyUpdate(r->delta).ok());
  // Every surviving content cell now points into the new document.
  for (const Tuple& row : catalog.Find("C")->extent().rows()) {
    ASSERT_TRUE(row[1].IsContent());
    EXPECT_EQ(row[1].AsContent().doc, r->doc.get());
  }
  ExpectMaintainedEqualsRemat(catalog, *r->doc);
}

TEST(Maintenance, StoreBackedUpdatePersistsAndReloads) {
  namespace fs = std::filesystem;
  std::string dir = (fs::temp_directory_path() /
                     ("svx_maintenance_store_" + std::to_string(::getpid())))
                        .string();
  std::unique_ptr<Document> d = Doc("a(b=1 b=2)");
  ViewCatalog catalog(dir);
  ASSERT_TRUE(
      catalog.Materialize({"V", MustParsePattern("a(/b{id,v})")}, *d).ok());
  ASSERT_TRUE(catalog.Save().ok());

  Result<UpdateResult> r = InsertSubtree(*d, OrdPath::Root(), *Doc("b=3"));
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(catalog.ApplyUpdate(r->delta).ok());

  // The maintained extent is already on disk: a fresh catalog loads it.
  ViewCatalog reloaded(dir);
  ASSERT_TRUE(reloaded.Load(r->doc.get()).ok());
  ASSERT_EQ(reloaded.size(), 1);
  EXPECT_EQ(SerializeExtent(reloaded.Find("V")->extent()),
            SerializeExtent(catalog.Find("V")->extent()));
  EXPECT_TRUE(reloaded.Find("V")->stats == catalog.Find("V")->stats);
  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(Maintenance, NeverSavedCatalogPersistsEveryViewOnUpdate) {
  namespace fs = std::filesystem;
  std::string dir =
      (fs::temp_directory_path() /
       ("svx_maintenance_unsaved_" + std::to_string(::getpid())))
          .string();
  std::unique_ptr<Document> d = Doc("a(b=1 c=2)");
  ViewCatalog catalog(dir);
  ASSERT_TRUE(
      catalog.Materialize({"V1", MustParsePattern("a(/b{id,v})")}, *d).ok());
  ASSERT_TRUE(
      catalog.Materialize({"V2", MustParsePattern("a(/c{id,v})")}, *d).ok());
  // No Save(): the first ApplyUpdate must still produce a loadable store,
  // including the untouched view's files.
  Result<UpdateResult> r = InsertSubtree(*d, OrdPath::Root(), *Doc("b=3"));
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(catalog.ApplyUpdate(r->delta).ok());

  ViewCatalog reloaded(dir);
  Status s = reloaded.Load(r->doc.get());
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_EQ(reloaded.size(), 2);
  for (const char* name : {"V1", "V2"}) {
    EXPECT_EQ(SerializeExtent(reloaded.Find(name)->extent()),
              SerializeExtent(catalog.Find(name)->extent()))
        << name;
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(Maintenance, InvalidDeltaFallsBackToRebuild) {
  std::unique_ptr<Document> d = Doc("a(b=1)");
  std::unique_ptr<Document> d2 = Doc("a(b=1 b=2)");
  ViewCatalog catalog;
  Pattern p = MustParsePattern("a(/b{id,v})");
  ASSERT_TRUE(catalog.Materialize({"V", p}, *d).ok());

  DocumentDelta delta;  // invalid region → rematerialize over new_doc
  delta.old_doc = d.get();
  delta.new_doc = d2.get();
  TableDelta td = ComputeViewDelta(p, "V", catalog.Find("V")->extent(), delta);
  EXPECT_TRUE(td.full_rebuild);
  MaintenanceStats ms;
  ASSERT_TRUE(catalog.ApplyUpdate(delta, &ms).ok());
  EXPECT_EQ(ms.views_rebuilt, 1);
  EXPECT_EQ(catalog.Find("V")->extent().NumRows(), 2);
  ExpectMaintainedEqualsRemat(catalog, *d2);
}

TEST(Maintenance, MidSiblingInsertMaintainsInDocumentOrder) {
  // Regression: inserts used to append as the last child even when a
  // sibling position was requested; careted region ids must flow through
  // delta evaluation exactly like appended ones.
  std::unique_ptr<Document> doc = Doc("a(b(x=1) b(x=2) b(x=3))");
  ViewCatalog catalog;
  ASSERT_TRUE(
      catalog.Materialize({"V", MustParsePattern("a(/b{id}(/x{id,v}))")}, *doc)
          .ok());
  ASSERT_TRUE(
      catalog.Materialize({"N", MustParsePattern("a{id}(n//x{id,v})")}, *doc)
          .ok());
  OrdPath before = OrdPath::FromString("1.2");
  Result<UpdateResult> r =
      InsertSubtree(*doc, OrdPath::Root(), *Doc("b(x=9)"), &before);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  MaintenanceStats ms;
  ASSERT_TRUE(catalog.ApplyUpdate(r->delta, &ms).ok());
  EXPECT_GT(ms.tuples_inserted, 0);
  ExpectMaintainedEqualsRemat(catalog, *r->doc);

  // And deleting the careted subtree maintains cleanly too.
  Result<UpdateResult> del = DeleteSubtree(*r->doc, r->delta.region);
  ASSERT_TRUE(del.ok()) << del.status().ToString();
  ASSERT_TRUE(catalog.ApplyUpdate(del->delta).ok());
  ExpectMaintainedEqualsRemat(catalog, *del->doc);
}

// ---------------------------------------------------------------------------
// Randomized property: maintained extents == rematerialized extents
// ---------------------------------------------------------------------------

/// XMark-flavored subtree pool for random inserts.
const char* kInsertPool[] = {
    "item(name=gadget incategory=cat1)",
    "keyword=fresh",
    "name=widget",
    "item(name=tool description(text=sturdy keyword=steel) payment=cash)",
    "person(name=bob emailaddress=bob)",
    "listitem(text=lorem keyword=ipsum)",
    "annotation(description(text=fine))",
    "open_auction(initial=7 bidder(increase=2))",
};

/// One random update of `doc`: a subtree delete, or an insert of a pool
/// subtree (half the time careted before an existing child).
Result<UpdateResult> RandomUpdate(const Document& doc, Rng* rng) {
  if (doc.size() > 2 && rng->Bernoulli(0.45)) {
    // Delete a random non-root subtree.
    NodeIndex n = static_cast<NodeIndex>(
        rng->Uniform(1, static_cast<int64_t>(doc.size()) - 1));
    return DeleteSubtree(doc, doc.ord_path(n));
  }
  // Insert a pool subtree under a random node — half the time careted
  // before a random existing child instead of appended.
  NodeIndex n = static_cast<NodeIndex>(
      rng->Uniform(0, static_cast<int64_t>(doc.size()) - 1));
  std::unique_ptr<Document> sub = Doc(
      kInsertPool[static_cast<size_t>(rng->Uniform(
          0, static_cast<int64_t>(std::size(kInsertPool)) - 1))]);
  std::vector<NodeIndex> kids = doc.children(n);
  if (!kids.empty() && rng->Bernoulli(0.5)) {
    OrdPath before = doc.ord_path(kids[static_cast<size_t>(
        rng->Uniform(0, static_cast<int64_t>(kids.size()) - 1))]);
    return InsertSubtree(doc, doc.ord_path(n), *sub, &before);
  }
  return InsertSubtree(doc, doc.ord_path(n), *sub);
}

std::unique_ptr<Document> SmallXmark(uint64_t seed) {
  XmarkOptions opts;
  opts.scale = 0.2;
  opts.seed = seed;
  return GenerateXmark(opts);
}

/// View shapes covering every maintenance path: plain, optional, nested,
/// content and label-only tuples.
std::vector<ViewDef> PropertyViews() {
  return {
      {"plain", MustParsePattern("site(//item{id}(/name{id,v}))")},
      {"opt", MustParsePattern("site(//item{id}(?//keyword{v}))")},
      {"nest", MustParsePattern("site(//item{id}(n//keyword{id,v}))")},
      {"content", MustParsePattern("site(//person{id,c})")},
      {"labels", MustParsePattern("site(//description{id}(//keyword{l}))")},
  };
}

void RunRandomizedMaintenance(uint64_t seed, int ops, int* performed,
                              int64_t memory_budget_bytes = 0) {
  std::unique_ptr<Document> doc = SmallXmark(seed);
  std::vector<ViewDef> defs = PropertyViews();
  ViewCatalogOptions copts;
  copts.memory_budget_bytes = memory_budget_bytes;
  ViewCatalog catalog(copts);
  for (const ViewDef& def : defs) {
    ASSERT_TRUE(catalog.Materialize(def, *doc).ok());
  }

  Rng rng(seed);
  for (int op = 0; op < ops; ++op) {
    Result<UpdateResult> r = RandomUpdate(*doc, &rng);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_TRUE(catalog.ApplyUpdate(r->delta).ok());
    ExpectMaintainedEqualsRemat(catalog, *r->doc);
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "diverged at op " << op << " seed " << seed;
      return;
    }
    doc = std::move(r->doc);
    ++*performed;
  }
}

TEST(MaintenanceProperty, RandomSequencesMatchRematerialization) {
  int performed = 0;
  for (uint64_t seed : {7u, 21u, 99u}) {
    RunRandomizedMaintenance(seed, 40, &performed);
    if (::testing::Test::HasFailure()) break;
  }
  // The acceptance bar: at least 100 randomized insert/delete updates, each
  // checked byte-identical against full rematerialization.
  EXPECT_GE(performed, 100);
}

TEST(MaintenanceProperty, RandomSequencesSurviveEvictionUnderTinyBudget) {
  // Same property under a decoded-extent budget far below the working set:
  // every maintenance step finds some of its base extents evicted and must
  // re-decode them from the compressed columnar form mid-stream, and the
  // maintained results stay byte-identical to rematerialization.
  int performed = 0;
  RunRandomizedMaintenance(7, 40, &performed, /*memory_budget_bytes=*/2048);
  EXPECT_GE(performed, 40);
}

// ---------------------------------------------------------------------------
// Lazy decode and batching: work proportional to the delta
// ---------------------------------------------------------------------------

TEST(MaintenanceLazyDecode, DecodesOnlyViewsWithNonEmptyDiffs) {
  // Under a budget far below the working set every extent is evicted, so a
  // view the pass reads is a reload. Only views with a non-empty diff may
  // be read; the rest are shared or carried without decoding.
  std::unique_ptr<Document> doc = SmallXmark(11);
  std::vector<ViewDef> defs = PropertyViews();
  defs.push_back({"auctions", MustParsePattern("site(//open_auction{id})")});
  defs.push_back({"regions", MustParsePattern("site(/regions{id}(//item{l}))")});
  ViewCatalogOptions copts;
  copts.memory_budget_bytes = 2048;
  ViewCatalog catalog(copts);
  for (const ViewDef& def : defs) {
    ASSERT_TRUE(catalog.Materialize(def, *doc).ok());
  }
  const MemoryBudget& budget = *catalog.memory_budget();
  Rng rng(11);
  int lazy_updates = 0;     // some views had empty diffs
  int touching_updates = 0;  // some view had a non-empty diff
  for (int op = 0; op < 24; ++op) {
    Result<UpdateResult> r = RandomUpdate(*doc, &rng);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    int32_t k = 0;
    for (const ViewDef& def : defs) {
      ViewDiff diff = EvaluateViewDiff(def.pattern, def.name, r->delta);
      if (!diff.Empty() && !diff.full_rebuild) ++k;
    }
    const int64_t reloads_before = budget.reloads();
    MaintenanceStats ms;
    Trace trace("update");
    ASSERT_TRUE(catalog
                    .ApplyUpdateBatch({r->delta}, nullptr, nullptr, &ms,
                                      trace.root())
                    .ok());
    EXPECT_EQ(ms.views_decoded, k) << "op " << op;
    EXPECT_LE(budget.reloads() - reloads_before, k) << "op " << op;
    EXPECT_EQ(ms.views_rebuilt, 0);
    // The pass span carries one child per phase that ran.
    const TraceSpan* pass = trace.root()->FindChild("maintenance_pass");
    ASSERT_NE(pass, nullptr);
    EXPECT_NE(pass->FindChild("delta_eval"), nullptr);
    EXPECT_NE(pass->FindChild("publish"), nullptr);
    if (ms.views_touched > 0) {
      EXPECT_NE(pass->FindChild("decode"), nullptr);
      EXPECT_NE(pass->FindChild("fold_rows"), nullptr);
      EXPECT_NE(pass->FindChild("fold_columnar"), nullptr);
      EXPECT_NE(pass->FindChild("stats"), nullptr);
    }
    if (k < static_cast<int32_t>(defs.size())) ++lazy_updates;
    if (k > 0) ++touching_updates;
    ExpectMaintainedEqualsRemat(catalog, *r->doc);
    if (::testing::Test::HasFailure()) return;
    doc = std::move(r->doc);
  }
  EXPECT_GT(lazy_updates, 0);
  EXPECT_GT(touching_updates, 0);
}

TEST(MaintenanceLazyDecode, BatchEqualsOneByOne) {
  // One ApplyUpdateBatch of several deltas (extent read once, folded once)
  // must leave exactly the extents of applying the deltas one at a time.
  for (uint64_t seed : {3u, 8u, 13u}) {
    std::vector<std::unique_ptr<Document>> docs;
    docs.push_back(SmallXmark(seed));
    ViewCatalogOptions tiny;
    tiny.memory_budget_bytes = 2048;
    ViewCatalog batched(tiny);
    ViewCatalog stepped;
    for (const ViewDef& def : PropertyViews()) {
      ASSERT_TRUE(batched.Materialize(def, *docs.back()).ok());
      ASSERT_TRUE(stepped.Materialize(def, *docs.back()).ok());
    }
    Rng rng(seed);
    std::vector<DocumentDelta> deltas;
    for (int step = 0; step < 6; ++step) {
      Result<UpdateResult> r = RandomUpdate(*docs.back(), &rng);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ASSERT_TRUE(stepped.ApplyUpdate(r->delta).ok());
      deltas.push_back(r->delta);
      docs.push_back(std::move(r->doc));
    }
    MaintenanceStats ms;
    ASSERT_TRUE(batched.ApplyUpdateBatch(deltas, nullptr, nullptr, &ms).ok());
    EXPECT_EQ(ms.deltas_applied, 6);
    for (const auto& v : stepped.views()) {
      const StoredView* b = batched.Find(v->def.name);
      ASSERT_NE(b, nullptr);
      EXPECT_EQ(SerializeExtent(b->extent()), SerializeExtent(v->extent()))
          << v->def.name << " seed " << seed;
      EXPECT_EQ(ColumnarBytes(*b->columnar), ColumnarBytes(*v->columnar))
          << v->def.name << " seed " << seed;
      EXPECT_TRUE(b->stats == v->stats) << v->def.name << " seed " << seed;
      EXPECT_EQ(b->extent_bytes, v->extent_bytes) << v->def.name;
    }
    ExpectMaintainedEqualsRemat(batched, *docs.back());
  }
}

// ---------------------------------------------------------------------------
// Content references of views the update does not touch
// ---------------------------------------------------------------------------

TEST(Maintenance, DeleteOfReferencedNodeMatchesRematerialization) {
  std::unique_ptr<Document> d = Doc("a(b(c=1) b(c=2) d(e=3))");
  ViewCatalog catalog;
  ASSERT_TRUE(
      catalog.Materialize({"B", MustParsePattern("a(/b{id,c})")}, *d).ok());
  ASSERT_TRUE(
      catalog.Materialize({"E", MustParsePattern("a(//e{id,c})")}, *d).ok());
  const ColumnarExtentPtr e_before = catalog.Find("E")->columnar;

  // Deleting a referenced b removes its tuple; E references nothing under
  // the deleted subtree and carries its compressed extent unchanged.
  Result<UpdateResult> del = DeleteSubtree(*d, OrdPath::FromString("1.1"));
  ASSERT_TRUE(del.ok());
  MaintenanceStats ms;
  ASSERT_TRUE(catalog.ApplyUpdate(del->delta, &ms).ok());
  EXPECT_EQ(ms.views_touched, 1);
  EXPECT_EQ(ms.views_rebuilt, 0);
  EXPECT_EQ(ms.views_decoded, 1);
  EXPECT_EQ(catalog.Find("B")->extent().NumRows(), 1);
  EXPECT_EQ(catalog.Find("E")->columnar.get(), e_before.get());
  ExpectMaintainedEqualsRemat(catalog, *del->doc);

  // An insert removes nothing, so E carries again without any check.
  Result<UpdateResult> ins =
      InsertSubtree(*del->doc, OrdPath::Root(), *Doc("b(c=4)"));
  ASSERT_TRUE(ins.ok());
  ASSERT_TRUE(catalog.ApplyUpdate(ins->delta, &ms).ok());
  EXPECT_EQ(ms.views_shared, 1);
  EXPECT_EQ(catalog.Find("E")->columnar.get(), e_before.get());
  ExpectMaintainedEqualsRemat(catalog, *ins->doc);
}

TEST(Maintenance, StrandedContentReferenceFallsBackToRebuild) {
  // An extent registered through Add may hold a reference the pattern's
  // diff cannot see. When a delete removes the referenced node the view's
  // diff is empty, yet the reference lies under the deleted region: the
  // view must be rebuilt, never carried with a dangling reference.
  std::unique_ptr<Document> d = Doc("a(b(c=1) x(y=2))");
  Pattern p = MustParsePattern("a(/b{id,c})");
  Table extent = MaterializeView(p, "S", *d);
  const OrdPath y_id = OrdPath::FromString("1.2.1");
  const NodeIndex y = d->FindByOrdPath(y_id);
  ASSERT_NE(y, kInvalidNode);
  extent.AddRow({Value(y_id), Value(NodeRef{d.get(), y})});
  ViewCatalog catalog;
  ASSERT_TRUE(catalog.Add({"S", p}, std::move(extent)).ok());
  ASSERT_EQ(catalog.Find("S")->extent().NumRows(), 2);

  Result<UpdateResult> del = DeleteSubtree(*d, OrdPath::FromString("1.2"));
  ASSERT_TRUE(del.ok());
  EXPECT_TRUE(EvaluateViewDiff(p, "S", del->delta).Empty());
  MaintenanceStats ms;
  ASSERT_TRUE(catalog.ApplyUpdate(del->delta, &ms).ok());
  EXPECT_EQ(ms.views_rebuilt, 1);
  EXPECT_EQ(ms.views_decoded, 0);
  ExpectMaintainedEqualsRemat(catalog, *del->doc);
}

// ---------------------------------------------------------------------------
// Canonical order agrees with tuple-key equality
// ---------------------------------------------------------------------------

TEST(MaintenanceProperty, CanonicalOrderMatchesKeyEquality) {
  // Maintenance locates rows by binary search in CompareTuples order and
  // identifies tuples elsewhere (WAL, statistics) by EncodeTupleKey; the
  // two must agree on equality for every cell kind, including content
  // references bound to two different documents.
  std::unique_ptr<Document> d1 = Doc("a(b(c) d(e f))");
  std::unique_ptr<Document> d2 = Doc("a(b(c) d(e f))");
  auto nested = std::make_shared<Schema>();
  nested->Append({"g.id", ColumnKind::kId, nullptr});
  nested->Append({"g.v", ColumnKind::kValue, nullptr});
  Rng rng(77);
  auto cell = [&]() -> Value {
    static const char* kStrings[] = {"", "a", "ab", "b"};
    static const char* kIds[] = {"1.1", "1.1.1", "1.1.^.1", "1.0.1", "1.2"};
    switch (rng.Uniform(0, 4)) {
      case 0:
        return Value();
      case 1:
        return Value(std::string(kStrings[rng.Uniform(0, 3)]));
      case 2:
        return Value(OrdPath::FromString(kIds[rng.Uniform(0, 4)]));
      case 3: {
        const Document* doc = rng.Bernoulli(0.5) ? d1.get() : d2.get();
        return Value(NodeRef{
            doc, static_cast<NodeIndex>(rng.Uniform(0, doc->size() - 1))});
      }
      default: {
        auto t = std::make_shared<Table>(*nested);
        for (int64_t i = rng.Uniform(0, 2); i > 0; --i) {
          t->AddRow({Value(OrdPath::FromString(kIds[rng.Uniform(0, 1)])),
                     rng.Bernoulli(0.5) ? Value() : Value(std::string("a"))});
        }
        return Value(TablePtr(std::move(t)));
      }
    }
  };
  std::vector<Tuple> pool;
  for (int i = 0; i < 120; ++i) {
    Tuple t = {cell(), cell()};
    pool.push_back(t);
    // The same tuple with every content reference bound to the other
    // document: equal by both measures.
    Tuple other = t;
    for (Value& v : other) {
      if (v.IsContent()) {
        const Document* to = v.AsContent().doc == d1.get() ? d2.get()
                                                           : d1.get();
        v = Value(NodeRef{to, v.AsContent().node});
      }
    }
    pool.push_back(std::move(other));
  }
  int equal_pairs = 0;
  int cross_doc_equal = 0;
  for (const Tuple& a : pool) {
    for (const Tuple& b : pool) {
      const int ab = CompareTuples(a, b);
      const int ba = CompareTuples(b, a);
      const bool key_equal = EncodeTupleKey(a) == EncodeTupleKey(b);
      ASSERT_EQ(ab == 0, key_equal)
          << "order and key disagree on (" << a[0].ToString() << ", "
          << a[1].ToString() << ") vs (" << b[0].ToString() << ", "
          << b[1].ToString() << ")";
      ASSERT_EQ(ab < 0, ba > 0);
      if (key_equal) {
        ++equal_pairs;
        bool cross = false;
        for (size_t i = 0; i < a.size(); ++i) {
          cross = cross || (a[i].IsContent() &&
                            a[i].AsContent().doc != b[i].AsContent().doc);
        }
        if (cross) ++cross_doc_equal;
      }
    }
  }
  EXPECT_GT(equal_pairs, static_cast<int>(pool.size()));  // beyond a == a
  EXPECT_GT(cross_doc_equal, 0);
}

}  // namespace
}  // namespace svx
