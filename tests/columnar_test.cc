// Columnar extent representation: randomized round-trip determinism,
// row-major (v1) store back-compat, dictionary-driven statistics parity,
// column-selective decoding, memory-budget eviction/reload, epoch chunk
// sharing, and folding row deltas into chunks (Fold == Encode).
#include "src/algebra/columnar.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "src/algebra/executor.h"
#include "src/pattern/pattern_parser.h"
#include "src/rewriting/view.h"
#include "src/util/rng.h"
#include "src/viewstore/extent_io.h"
#include "src/viewstore/statistics.h"
#include "src/viewstore/view_catalog.h"
#include "src/workload/xmark.h"
#include "src/xml/builder.h"
#include "src/xml/update.h"

namespace svx {
namespace {

namespace fs = std::filesystem;

std::unique_ptr<Document> Doc(std::string_view s) {
  Result<std::unique_ptr<Document>> r = ParseTreeNotation(s);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

/// View shapes covering every chunk encoding: plain ids+values
/// (delta-coded ids, dictionary values), optional edges (⊥ cells), nested
/// tables, content references, and label columns.
std::vector<ViewDef> CoveringViews() {
  return {
      {"plain", MustParsePattern("site(//item{id}(/name{id,v}))")},
      {"opt", MustParsePattern("site(//item{id}(?//keyword{v}))")},
      {"nest", MustParsePattern("site(//item{id}(n//keyword{id,v}))")},
      {"content", MustParsePattern("site(//person{id,c})")},
      {"labels", MustParsePattern("site(//description{id}(//keyword{l}))")},
  };
}

std::unique_ptr<Document> RandomXmark(uint64_t seed) {
  XmarkOptions opts;
  opts.scale = 0.2;
  opts.seed = seed;
  return GenerateXmark(opts);
}

std::string TempDir(const std::string& tag) {
  fs::path dir = fs::temp_directory_path() /
                 ("svx_columnar_test_" + tag + "_" +
                  std::to_string(::getpid()));
  fs::remove_all(dir);
  return dir.string();
}

// ---------------------------------------------------------------------------
// Round-trip determinism and decode equality
// ---------------------------------------------------------------------------

TEST(Columnar, RandomizedRoundTripIsByteDeterministic) {
  for (uint64_t seed : {3u, 17u, 51u}) {
    std::unique_ptr<Document> doc = RandomXmark(seed);
    for (const ViewDef& def : CoveringViews()) {
      Table table = MaterializeView(def.pattern, def.name, *doc);
      table.SortRowsCanonical();

      // Encoding is deterministic: two independent encodes of the same
      // table serialize identically.
      ColumnarExtent a = ColumnarExtent::Encode(table);
      ColumnarExtent b = ColumnarExtent::Encode(table);
      const int64_t v1_bytes = ExtentByteSize(table);
      std::string bytes_a = SerializeColumnarExtent(a, v1_bytes);
      std::string bytes_b = SerializeColumnarExtent(b, v1_bytes);
      EXPECT_EQ(bytes_a, bytes_b) << def.name << " seed " << seed;
      EXPECT_EQ(static_cast<int64_t>(a.SerializedByteSize()),
                static_cast<int64_t>(b.SerializedByteSize()));

      // Parse -> re-serialize round-trips to the same bytes.
      Result<ColumnarLoad> load = DeserializeExtentColumnar(bytes_a, doc.get());
      ASSERT_TRUE(load.ok()) << load.status().ToString();
      EXPECT_EQ(load->uncompressed_bytes, v1_bytes);
      EXPECT_TRUE(*load->columnar == a) << def.name << " seed " << seed;
      EXPECT_EQ(SerializeColumnarExtent(*load->columnar, v1_bytes), bytes_a);

      // Decode reproduces the row-major table.
      Result<Table> decoded = load->columnar->Decode(doc.get());
      ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
      EXPECT_TRUE(decoded->EqualsIgnoringOrder(table))
          << def.name << " seed " << seed;
      EXPECT_EQ(SerializeExtent(*decoded), SerializeExtent(table))
          << def.name << " decode must preserve canonical row order";
    }
  }
}

TEST(Columnar, CompressedSmallerThanRowMajorOnRealExtents) {
  std::unique_ptr<Document> doc = RandomXmark(7);
  int64_t row_major = 0;
  int64_t compressed = 0;
  for (const ViewDef& def : CoveringViews()) {
    Table table = MaterializeView(def.pattern, def.name, *doc);
    table.SortRowsCanonical();
    row_major += ExtentByteSize(table);
    compressed += ColumnarExtent::Encode(table).SerializedByteSize();
  }
  EXPECT_LT(compressed * 2, row_major)
      << "columnar extents must be at least 2x smaller than row-major";
}

TEST(Columnar, SelectiveDecodeMatchesFullDecodeOnUsedColumns) {
  std::unique_ptr<Document> doc = RandomXmark(29);
  for (const ViewDef& def : CoveringViews()) {
    Table table = MaterializeView(def.pattern, def.name, *doc);
    table.SortRowsCanonical();
    ColumnarExtent extent = ColumnarExtent::Encode(table);
    const size_t ncols = table.schema().size();
    for (size_t keep = 0; keep < ncols; ++keep) {
      std::vector<bool> used(ncols, false);
      used[keep] = true;
      Result<Table> partial = extent.DecodeColumns(used, doc.get());
      ASSERT_TRUE(partial.ok()) << partial.status().ToString();
      ASSERT_EQ(partial->NumRows(), table.NumRows());
      for (int64_t r = 0; r < table.NumRows(); ++r) {
        std::string want;
        EncodeValue(table.row(r)[keep], &want);
        std::string got;
        EncodeValue(partial->row(r)[keep], &got);
        EXPECT_EQ(got, want) << def.name << " col " << keep << " row " << r;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// v-old (row-major) store back-compat
// ---------------------------------------------------------------------------

TEST(Columnar, RowMajorV1StoreStillLoads) {
  const std::string dir = TempDir("v1");
  std::unique_ptr<Document> doc = RandomXmark(11);
  ViewCatalog catalog(dir);
  for (const ViewDef& def : CoveringViews()) {
    ASSERT_TRUE(catalog.Materialize(def, *doc).ok());
  }
  ASSERT_TRUE(catalog.Save().ok());

  // Rewrite every extent file with the version-1 (row-major) bytes a
  // pre-columnar build would have produced. The manifest is untouched.
  for (const auto& v : catalog.views()) {
    fs::path extent_path;
    for (const auto& entry : fs::directory_iterator(dir)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind(v->def.name + ".", 0) == 0 &&
          entry.path().extension() == ".extent") {
        extent_path = entry.path();
      }
    }
    ASSERT_FALSE(extent_path.empty()) << v->def.name;
    Result<TablePtr> table = v->table();
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    std::ofstream out(extent_path, std::ios::binary | std::ios::trunc);
    out << SerializeExtent(**table);
  }

  ViewCatalog reloaded(dir);
  ASSERT_TRUE(reloaded.Load(doc.get()).ok());
  ASSERT_EQ(reloaded.size(), catalog.size());
  for (const auto& v : catalog.views()) {
    const StoredView* got = reloaded.Find(v->def.name);
    ASSERT_NE(got, nullptr) << v->def.name;
    EXPECT_EQ(SerializeExtent(got->extent()), SerializeExtent(v->extent()))
        << v->def.name;
    EXPECT_EQ(got->extent_bytes, v->extent_bytes) << v->def.name;
    // A v1 parse decoded the rows anyway, so they install resident.
    EXPECT_NE(got->TryResident(), nullptr) << v->def.name;
  }
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Statistics parity: dictionaries vs row rescans
// ---------------------------------------------------------------------------

TEST(Columnar, StatsFromDictionariesMatchRowScan) {
  for (uint64_t seed : {5u, 23u}) {
    std::unique_ptr<Document> doc = RandomXmark(seed);
    for (const ViewDef& def : CoveringViews()) {
      Table table = MaterializeView(def.pattern, def.name, *doc);
      table.SortRowsCanonical();
      ColumnarExtent extent = ColumnarExtent::Encode(table);
      ViewStats want = ComputeViewStats(table);
      ViewStats got = ComputeViewStats(extent, doc.get());
      EXPECT_TRUE(got == want) << def.name << " seed " << seed;
    }
  }
}

// ---------------------------------------------------------------------------
// Executor: columnar bindings match eager tables
// ---------------------------------------------------------------------------

TEST(Columnar, ColumnarScanMatchesEagerScan) {
  std::unique_ptr<Document> doc = RandomXmark(13);
  for (const ViewDef& def : CoveringViews()) {
    Table table = MaterializeView(def.pattern, def.name, *doc);
    table.SortRowsCanonical();
    ColumnarExtent extent = ColumnarExtent::Encode(table);

    Catalog eager;
    eager.Register(def.name, &table);
    Result<Table> want =
        Execute(*MakeViewScan(def.name, table.schema()), eager);
    ASSERT_TRUE(want.ok()) << want.status().ToString();

    // Cold columnar binding: no resident table, so the scan decodes from
    // the chunks and reports the decode through `loaded`.
    int loads = 0;
    Catalog cold;
    ColumnarSource src;
    src.extent = &extent;
    src.doc = doc.get();
    src.resident = []() { return TablePtr(); };
    src.loaded = [&loads](TablePtr, int64_t decode_us) {
      ++loads;
      EXPECT_GE(decode_us, 0);
    };
    cold.RegisterColumnar(def.name, std::move(src));
    Result<Table> got =
        Execute(*MakeViewScan(def.name, table.schema()), cold);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(got->EqualsIgnoringOrder(*want)) << def.name;
    EXPECT_EQ(loads, 1) << def.name;
  }
}

// ---------------------------------------------------------------------------
// Memory budget: eviction and lazy reload
// ---------------------------------------------------------------------------

TEST(Columnar, TinyBudgetEvictsAndReloadsWithoutChangingResults) {
  std::unique_ptr<Document> doc = RandomXmark(31);
  ViewCatalogOptions opts;
  opts.memory_budget_bytes = 2048;  // far below the working set
  ViewCatalog catalog(opts);
  std::vector<std::string> expected;
  int64_t working_set = 0;
  for (const ViewDef& def : CoveringViews()) {
    ASSERT_TRUE(catalog.Materialize(def, *doc).ok());
    Table fresh = MaterializeView(def.pattern, def.name, *doc);
    fresh.SortRowsCanonical();
    working_set += ExtentByteSize(fresh);
    expected.push_back(SerializeExtent(fresh));
  }
  const std::shared_ptr<MemoryBudget>& budget = catalog.memory_budget();
  EXPECT_GT(budget->evictions(), 0)
      << "materializing past the budget must evict";
  EXPECT_LT(budget->resident_bytes(), working_set)
      << "residency must track the budget, not the working set";

  // Sweep all views repeatedly: every pass re-decodes evicted extents and
  // every decode must reproduce the materialized bytes.
  for (int pass = 0; pass < 3; ++pass) {
    const auto& views = catalog.views();
    for (size_t i = 0; i < views.size(); ++i) {
      Result<TablePtr> t = views[i]->table();
      ASSERT_TRUE(t.ok()) << t.status().ToString();
      EXPECT_EQ(SerializeExtent(**t), expected[i])
          << views[i]->def.name << " pass " << pass;
    }
  }
  EXPECT_GT(budget->reloads(), 0) << "sweeps past the budget must reload";
}

TEST(Columnar, PinnedTableSurvivesEviction) {
  std::unique_ptr<Document> doc = RandomXmark(37);
  ViewCatalogOptions opts;
  opts.memory_budget_bytes = 1;  // evict everything not pinned
  ViewCatalog catalog(opts);
  std::vector<ViewDef> defs = CoveringViews();
  for (const ViewDef& def : defs) {
    ASSERT_TRUE(catalog.Materialize(def, *doc).ok());
  }
  // Pin one view's decoded table, then force evictions by sweeping the
  // rest; the pinned shared_ptr must stay valid and unchanged.
  Result<TablePtr> pinned = catalog.Find("plain")->table();
  ASSERT_TRUE(pinned.ok());
  std::string before = SerializeExtent(**pinned);
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& v : catalog.views()) {
      Result<TablePtr> t = v->table();
      ASSERT_TRUE(t.ok());
    }
  }
  EXPECT_EQ(SerializeExtent(**pinned), before);
}

// ---------------------------------------------------------------------------
// Epoch sharing: untouched views share the whole compressed extent
// ---------------------------------------------------------------------------

TEST(Columnar, UntouchedViewsShareColumnarAcrossEpochs) {
  std::shared_ptr<Document> d = Doc("a(b=1 b=2 c(x=3))");
  ViewCatalog catalog;
  ASSERT_TRUE(
      catalog.Materialize({"VB", MustParsePattern("a(/b{id,v})")}, *d).ok());
  ASSERT_TRUE(
      catalog.Materialize({"VX", MustParsePattern("a(//x{id,c})")}, *d).ok());
  const ColumnarExtentPtr vb_before = catalog.Find("VB")->columnar;
  const ColumnarExtentPtr vx_before = catalog.Find("VX")->columnar;

  // Insert another b: VB changes, VX (a content view of an untouched
  // subtree) carries its compressed extent — the same object — into the
  // new epoch.
  Result<UpdateResult> up = InsertSubtree(*d, OrdPath::Root(), *Doc("b=9"));
  ASSERT_TRUE(up.ok());
  ASSERT_TRUE(catalog.ApplyUpdate(up->delta).ok());

  EXPECT_EQ(catalog.Find("VX")->columnar.get(), vx_before.get())
      << "untouched content view must share the compressed extent object";
  EXPECT_NE(catalog.Find("VB")->columnar.get(), vb_before.get());
  EXPECT_EQ(catalog.Find("VB")->extent().NumRows(), 3);
  EXPECT_EQ(catalog.Find("VX")->extent().NumRows(), 1);
}

TEST(Columnar, MaintenanceSharesUnchangedChunksAcrossEpochs) {
  std::shared_ptr<Document> d = Doc("a(b(v=1) b(v=2))");
  ViewCatalog catalog;
  // Two columns: the b ids (unchanged by a value-subtree insert below an
  // existing b) and the v values.
  ASSERT_TRUE(catalog
                  .Materialize({"V", MustParsePattern("a(/b{id}(/v{v}))")},
                               *d)
                  .ok());
  const ColumnarExtentPtr before = catalog.Find("V")->columnar;
  ASSERT_EQ(before->num_columns(), 2);

  // Re-encoding an equal table against the previous epoch's extent must
  // reuse the previous chunk objects, not just produce equal bytes — that
  // pointer identity is what lets epochs share untouched columns.
  Table same = catalog.Find("V")->extent();
  ColumnarExtent shared = ColumnarExtent::EncodeSharing(same, *before);
  for (int32_t c = 0; c < shared.num_columns(); ++c) {
    EXPECT_EQ(shared.column(c).get(), before->column(c).get())
        << "identical column " << c << " must reuse the prior epoch's chunk";
  }
}

// ---------------------------------------------------------------------------
// Fold: splicing a row delta into chunks equals re-encoding the result
// ---------------------------------------------------------------------------

/// Random cells for a table exercising every encoding and every fold path.
class FoldCells {
 public:
  FoldCells(Rng* rng, const Document* doc) : rng_(*rng), doc_(*doc) {
    auto nested = std::make_shared<Schema>();
    nested->Append({"g.id", ColumnKind::kId, nullptr});
    nested->Append({"g.v", ColumnKind::kValue, nullptr});
    nested_ = nested;
    schema_.Append({"s", ColumnKind::kValue, nullptr});    // dictionary
    schema_.Append({"id", ColumnKind::kId, nullptr});      // ORDPATH
    schema_.Append({"c", ColumnKind::kContent, nullptr});  // content
    schema_.Append({"n", ColumnKind::kNested, nested_});   // nested
    schema_.Append({"mix", ColumnKind::kValue, nullptr});  // raw or flipping
    schema_.Append({"rare", ColumnKind::kValue, nullptr});  // mostly ⊥
  }

  const Schema& schema() const { return schema_; }

  Tuple Row() {
    Tuple row;
    row.push_back(Null(0.2) ? Value() : String());
    row.push_back(Null(0.2) ? Value() : Value(Id()));
    row.push_back(Null(0.2) ? Value() : Content());
    row.push_back(Null(0.25) ? Value() : Group());
    // Mostly strings, sometimes ids: a chunk may be dictionary or raw, and
    // a fold may flip it either way.
    if (Null(0.2)) {
      row.emplace_back();
    } else {
      row.push_back(rng_.Bernoulli(0.15) ? Value(Id()) : String());
    }
    row.push_back(Null(0.9) ? Value() : String());
    return row;
  }

 private:
  bool Null(double p) { return rng_.Bernoulli(p); }

  Value String() {
    static const char* kVocab[] = {"", "a", "ab", "b", "pen", "pencil", "z"};
    if (rng_.Bernoulli(0.2)) {
      // A string the dictionary has probably not seen yet.
      return Value("fresh" + std::to_string(rng_.Uniform(0, 999)));
    }
    return Value(std::string(kVocab[rng_.Uniform(0, 6)]));
  }

  /// Ids sharing long prefixes, some careted (inserted between siblings).
  OrdPath Id() {
    static const char* kIds[] = {"1",       "1.1",       "1.1.1",
                                 "1.1.2",   "1.1.^.1",   "1.1.^.1.3",
                                 "1.0.1",   "1.2.5.7.1", "1.2.5.7.2",
                                 "1.2.5.^.1", "1.3",     "1.3.1.1.1.1"};
    return OrdPath::FromString(kIds[rng_.Uniform(0, 11)]);
  }

  Value Content() {
    NodeIndex n = static_cast<NodeIndex>(
        rng_.Uniform(0, static_cast<int64_t>(doc_.size()) - 1));
    return Value(NodeRef{&doc_, n});
  }

  /// A group of 0-3 rows (an empty group is distinct from ⊥).
  Value Group() {
    auto t = std::make_shared<Table>(*nested_);
    int64_t rows = rng_.Uniform(0, 3);
    for (int64_t i = 0; i < rows; ++i) {
      t->AddRow({Value(Id()), Null(0.3) ? Value() : String()});
    }
    return Value(TablePtr(std::move(t)));
  }

  Rng& rng_;
  const Document& doc_;
  std::shared_ptr<const Schema> nested_;
  Schema schema_;
};

std::string ExtentBytes(const ColumnarExtent& e) {
  std::string out;
  e.AppendBytes(&out);
  return out;
}

TEST(ColumnarFold, RandomDeltasEqualReencoding) {
  std::unique_ptr<Document> doc = Doc("a(b(c d) e(f(g) h) i)");
  Rng rng(20240611);
  int folds = 0;
  int reencoded_columns = 0;  // columns whose encoding changed under a fold
  for (int iter = 0; iter < 400; ++iter) {
    FoldCells cells(&rng, doc.get());
    Table before(cells.schema());
    const int64_t n = rng.Uniform(0, 24);
    for (int64_t i = 0; i < n; ++i) before.AddRow(cells.Row());

    // Delete with a per-iteration rate, from none up to every row.
    static const double kDeleteRates[] = {0.0, 0.1, 0.4, 1.0};
    const double rate = kDeleteRates[rng.Uniform(0, 3)];
    std::vector<int64_t> deleted;
    std::vector<Tuple> survivors;
    for (int64_t i = 0; i < n; ++i) {
      if (rng.Bernoulli(rate)) {
        deleted.push_back(i);
      } else {
        survivors.push_back(before.row(i));
      }
    }
    // Inserts at random distinct output positions.
    const int64_t k = rng.Uniform(0, 5);
    const int64_t out_rows = static_cast<int64_t>(survivors.size()) + k;
    std::vector<int64_t> positions;
    while (static_cast<int64_t>(positions.size()) < k) {
      int64_t p = rng.Uniform(0, out_rows - 1);
      if (std::find(positions.begin(), positions.end(), p) ==
          positions.end()) {
        positions.push_back(p);
      }
    }
    std::sort(positions.begin(), positions.end());
    std::vector<Tuple> inserted;
    for (int64_t i = 0; i < k; ++i) inserted.push_back(cells.Row());
    Table after(cells.schema());
    std::vector<FoldInsert> inserts;
    size_t next_survivor = 0;
    size_t next_insert = 0;
    for (int64_t row = 0; row < out_rows; ++row) {
      if (next_insert < positions.size() &&
          positions[next_insert] == row) {
        after.AddRow(inserted[next_insert]);
        inserts.push_back({row, &inserted[next_insert]});
        ++next_insert;
      } else {
        after.AddRow(survivors[next_survivor++]);
      }
    }

    const ColumnarExtent prev = ColumnarExtent::Encode(before);
    const ColumnarExtent want = ColumnarExtent::Encode(after);
    Result<ColumnarExtent> got =
        ColumnarExtent::Fold(prev, deleted, inserts, doc.get());
    ASSERT_TRUE(got.ok()) << got.status().ToString() << " iter " << iter;
    ASSERT_EQ(ExtentBytes(*got), ExtentBytes(want))
        << "iter " << iter << ": fold diverged from Encode\n"
        << before.ToString() << "->\n"
        << after.ToString();
    EXPECT_TRUE(*got == want);
    EXPECT_EQ(got->has_content(), want.has_content()) << "iter " << iter;
    EXPECT_EQ(got->SerializedByteSize(), want.SerializedByteSize());
    for (int32_t c = 0; c < prev.num_columns(); ++c) {
      if (prev.column(c)->encoding != want.column(c)->encoding) {
        ++reencoded_columns;
      }
    }
    Result<Table> decoded = got->Decode(doc.get());
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(SerializeExtent(*decoded), SerializeExtent(after));
    ++folds;
  }
  EXPECT_EQ(folds, 400);
  // The generator must reach the re-encoding path, not only the splices.
  EXPECT_GT(reencoded_columns, 20);
}

TEST(ColumnarFold, DeletingEveryRowAndEmptyFolds) {
  std::unique_ptr<Document> doc = Doc("a(b c)");
  Rng rng(5);
  FoldCells cells(&rng, doc.get());
  Table before(cells.schema());
  for (int i = 0; i < 12; ++i) before.AddRow(cells.Row());
  const ColumnarExtent prev = ColumnarExtent::Encode(before);

  std::vector<int64_t> all(12);
  std::iota(all.begin(), all.end(), 0);
  Result<ColumnarExtent> empty = ColumnarExtent::Fold(prev, all, {}, nullptr);
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  EXPECT_EQ(ExtentBytes(*empty),
            ExtentBytes(ColumnarExtent::Encode(Table(cells.schema()))));
  EXPECT_EQ(empty->num_rows(), 0);

  // An empty delta shares every chunk object.
  Result<ColumnarExtent> same = ColumnarExtent::Fold(prev, {}, {}, nullptr);
  ASSERT_TRUE(same.ok());
  for (int32_t c = 0; c < prev.num_columns(); ++c) {
    EXPECT_EQ(same->column(c).get(), prev.column(c).get()) << c;
  }

  // Malformed row lists are rejected, not folded.
  EXPECT_FALSE(ColumnarExtent::Fold(prev, {3, 3}, {}, nullptr).ok());
  EXPECT_FALSE(ColumnarExtent::Fold(prev, {12}, {}, nullptr).ok());
  Tuple row = cells.Row();
  EXPECT_FALSE(
      ColumnarExtent::Fold(prev, {}, {{13, &row}}, doc.get()).ok());
}

TEST(ColumnarFold, UnchangedColumnsKeepTheirChunks) {
  // Replacing one row by another that differs only in its value column
  // leaves the id column's bytes as they were: the fold shares the chunk.
  std::unique_ptr<Document> doc = Doc("a(b c)");
  Schema schema;
  schema.Append({"id", ColumnKind::kId, nullptr});
  schema.Append({"v", ColumnKind::kValue, nullptr});
  Table before(schema);
  for (const char* id : {"1.1", "1.2", "1.3"}) {
    before.AddRow({Value(OrdPath::FromString(id)), Value(std::string("x"))});
  }
  const ColumnarExtent prev = ColumnarExtent::Encode(before);
  Tuple replacement = {Value(OrdPath::FromString("1.2")),
                       Value(std::string("y"))};
  Result<ColumnarExtent> got =
      ColumnarExtent::Fold(prev, {1}, {{1, &replacement}}, nullptr);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->column(0).get(), prev.column(0).get());
  EXPECT_NE(got->column(1).get(), prev.column(1).get());
  EXPECT_EQ(got->column(1)->dict, (std::vector<std::string>{"x", "y"}));
}

}  // namespace
}  // namespace svx
