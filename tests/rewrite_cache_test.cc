#include "src/viewstore/rewrite_cache.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/algebra/executor.h"
#include "src/observability/metrics.h"
#include "src/pattern/pattern_parser.h"
#include "src/summary/summary_builder.h"
#include "src/util/rng.h"
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

std::vector<std::string> Compacts(const std::vector<Rewriting>& rws) {
  std::vector<std::string> out;
  for (const Rewriting& r : rws) out.push_back(r.compact);
  return out;
}

class RewriteCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    doc_ = Doc("a(b=1 b=2 c=3)");
    summary_ = SummaryBuilder::Build(doc_.get());
    ASSERT_TRUE(
        catalog_.Materialize({"V", MustParsePattern("a(/b{id,v})")}, *doc_)
            .ok());
  }

  Rewriter MakeRewriter() {
    RewriterOptions opts;
    opts.memo = catalog_.containment_memo();
    Rewriter rw(*summary_, opts);
    for (const auto& v : catalog_.views()) rw.AddView(v->def);
    return rw;
  }

  std::vector<Rewriting> RewriteCached(Rewriter* rw, std::string_view q,
                                       RewriteStats* stats = nullptr) {
    Result<std::vector<Rewriting>> r = CachedRewrite(
        catalog_.rewrite_cache(), rw, MustParsePattern(q), stats);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).value();
  }

  std::unique_ptr<Document> doc_;
  std::unique_ptr<Summary> summary_;
  ViewCatalog catalog_;  // no store dir: in-memory only
};

TEST_F(RewriteCacheTest, HitServesIdenticalPlans) {
  Rewriter rw = MakeRewriter();
  RewriteStats cold;
  std::vector<Rewriting> first = RewriteCached(&rw, "a(/b{v})", &cold);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(cold.rewrite_cache_hits, 0u);
  EXPECT_EQ(catalog_.rewrite_cache()->misses(), 1u);

  RewriteStats warm;
  std::vector<Rewriting> second = RewriteCached(&rw, "a(/b{v})", &warm);
  EXPECT_EQ(warm.rewrite_cache_hits, 1u);
  EXPECT_EQ(catalog_.rewrite_cache()->hits(), 1u);
  EXPECT_EQ(Compacts(first), Compacts(second));
  // Served plans are clones: executing/mutating one call's plans must not
  // affect the cache (pointer inequality is enough here).
  ASSERT_FALSE(second.empty());
  EXPECT_NE(first[0].plan.get(), second[0].plan.get());
}

TEST_F(RewriteCacheTest, EmptyResultIsCachedToo) {
  Rewriter rw = MakeRewriter();
  // The view stores b columns only; a c query has no rewriting.
  std::vector<Rewriting> none = RewriteCached(&rw, "a(/c{v})");
  EXPECT_TRUE(none.empty());
  RewriteStats warm;
  std::vector<Rewriting> again = RewriteCached(&rw, "a(/c{v})", &warm);
  EXPECT_TRUE(again.empty());
  EXPECT_EQ(warm.rewrite_cache_hits, 1u);
}

TEST_F(RewriteCacheTest, ApplyUpdateInvalidates) {
  Rewriter rw = MakeRewriter();
  std::vector<Rewriting> cold = RewriteCached(&rw, "a(/b{v})");
  ASSERT_FALSE(cold.empty());
  EXPECT_EQ(catalog_.rewrite_cache()->size(), 1u);
  ASSERT_TRUE(catalog_.containment_memo()->size() > 0 ||
              catalog_.containment_memo()->misses() > 0);

  std::unique_ptr<Document> sub = Doc("b=9");
  Result<UpdateResult> up = InsertSubtree(*doc_, OrdPath::Root(), *sub);
  ASSERT_TRUE(up.ok()) << up.status().ToString();
  ASSERT_TRUE(catalog_.ApplyUpdate(up->delta).ok());

  // Cached plan dropped, memo cleared.
  EXPECT_EQ(catalog_.rewrite_cache()->size(), 0u);
  EXPECT_EQ(catalog_.containment_memo()->size(), 0u);

  // Re-rewriting matches a fresh rewriter's output over the new world.
  std::unique_ptr<Summary> new_summary = SummaryBuilder::Build(up->doc.get());
  Rewriter fresh(*new_summary);
  for (const auto& v : catalog_.views()) fresh.AddView(v->def);
  Result<std::vector<Rewriting>> expect =
      fresh.Rewrite(MustParsePattern("a(/b{v})"));
  ASSERT_TRUE(expect.ok());

  summary_ = std::move(new_summary);
  doc_ = std::move(up->doc);
  Rewriter rw2 = MakeRewriter();
  RewriteStats stats;
  std::vector<Rewriting> recomputed = RewriteCached(&rw2, "a(/b{v})", &stats);
  EXPECT_EQ(stats.rewrite_cache_hits, 0u) << "stale plan served after update";
  EXPECT_EQ(Compacts(recomputed), Compacts(*expect));
}

TEST_F(RewriteCacheTest, ViewAddAndDropInvalidate) {
  Rewriter rw = MakeRewriter();
  RewriteCached(&rw, "a(/b{v})");
  EXPECT_EQ(catalog_.rewrite_cache()->size(), 1u);

  // Add: a new view can enable new (cheaper) plans.
  ASSERT_TRUE(
      catalog_.Materialize({"W", MustParsePattern("a(/c{id,v})")}, *doc_)
          .ok());
  EXPECT_EQ(catalog_.rewrite_cache()->size(), 0u);

  Rewriter rw2 = MakeRewriter();
  RewriteCached(&rw2, "a(/c{v})");
  EXPECT_EQ(catalog_.rewrite_cache()->size(), 1u);

  // Drop: cached plans may reference the dropped view.
  ASSERT_TRUE(catalog_.Drop("W").ok());
  EXPECT_EQ(catalog_.rewrite_cache()->size(), 0u);
  EXPECT_EQ(catalog_.Find("W"), nullptr);
  EXPECT_FALSE(catalog_.Drop("W").ok());

  // After the drop, the c query has no rewriting again — and the fresh
  // (uncached) result reflects that.
  Rewriter rw3 = MakeRewriter();
  RewriteStats stats;
  std::vector<Rewriting> none = RewriteCached(&rw3, "a(/c{v})", &stats);
  EXPECT_EQ(stats.rewrite_cache_hits, 0u);
  EXPECT_TRUE(none.empty());
}

TEST_F(RewriteCacheTest, WarmHitReplaysSearchCounters) {
  Rewriter rw = MakeRewriter();
  RewriteStats cold;
  std::vector<Rewriting> first = RewriteCached(&rw, "a(/b{v})", &cold);
  ASSERT_FALSE(first.empty());
  ASSERT_GT(cold.candidates_built, 0u);

  RewriteStats warm;
  std::vector<Rewriting> second = RewriteCached(&rw, "a(/b{v})", &warm);
  ASSERT_EQ(warm.rewrite_cache_hits, 1u);
  ASSERT_FALSE(second.empty());
  // The hit replays the insert-time search counters instead of leaving the
  // caller's stats zeroed — dashboards see what the cached entry cost.
  EXPECT_EQ(warm.views_total, cold.views_total);
  EXPECT_EQ(warm.views_kept, cold.views_kept);
  EXPECT_EQ(warm.candidates_built, cold.candidates_built);
  EXPECT_EQ(warm.join_candidates, cold.join_candidates);
  EXPECT_EQ(warm.equivalence_tests, cold.equivalence_tests);
  EXPECT_EQ(warm.candidates_pruned, cold.candidates_pruned);
  EXPECT_EQ(warm.containment_memo_hits, cold.containment_memo_hits);
  EXPECT_EQ(warm.containment_memo_misses, cold.containment_memo_misses);
  EXPECT_EQ(warm.results, cold.results);
  EXPECT_EQ(warm.cheapest_cost, cold.cheapest_cost);
  EXPECT_EQ(warm.costliest_cost, cold.costliest_cost);
}

TEST(RewriteCacheUnit, EvictionClearsWhenFull) {
  RewriteCache cache;
  cache.max_entries = 2;
  std::vector<Rewriting> empty;
  cache.Insert("q1", empty);
  cache.Insert("q2", empty);
  EXPECT_EQ(cache.size(), 2u);
  cache.Insert("q3", empty);  // full: table dropped, then q3 inserted
  EXPECT_EQ(cache.size(), 1u);
  std::vector<Rewriting> out;
  EXPECT_TRUE(cache.Lookup("q3", &out));
  EXPECT_FALSE(cache.Lookup("q1", &out));
}

TEST(RewriteCacheUnit, EqualSizedViewSetsDoNotShareEntries) {
  // Two rewriters with one view each, equally named, over different paths:
  // the key names the view set, not just its size.
  std::unique_ptr<Document> doc = Doc("a(b=1 c=2)");
  std::unique_ptr<Summary> summary = SummaryBuilder::Build(doc.get());
  Rewriter over_b(*summary);
  over_b.AddView({"V", MustParsePattern("a(/b{id,v})")});
  Rewriter over_c(*summary);
  over_c.AddView({"V", MustParsePattern("a(/c{id,v})")});
  ASSERT_EQ(over_b.num_views(), over_c.num_views());
  EXPECT_NE(over_b.view_set_fingerprint(), over_c.view_set_fingerprint());

  RewriteCache cache;
  Pattern qb = MustParsePattern("a(/b{v})");
  Result<std::vector<Rewriting>> b_plans = CachedRewrite(&cache, &over_b, qb);
  ASSERT_TRUE(b_plans.ok());
  ASSERT_FALSE(b_plans->empty());
  // The c view cannot answer a b query: a shared entry would hand it V's
  // plan over the wrong extent.
  RewriteStats stats;
  Result<std::vector<Rewriting>> c_plans =
      CachedRewrite(&cache, &over_c, qb, &stats);
  ASSERT_TRUE(c_plans.ok());
  EXPECT_EQ(stats.rewrite_cache_hits, 0u);
  EXPECT_TRUE(c_plans->empty());
  // Both answers are cached side by side and each is served to its owner.
  EXPECT_EQ(cache.size(), 2u);
  RewriteStats again;
  Result<std::vector<Rewriting>> b_warm =
      CachedRewrite(&cache, &over_b, qb, &again);
  ASSERT_TRUE(b_warm.ok());
  EXPECT_EQ(again.rewrite_cache_hits, 1u);
  EXPECT_EQ(Compacts(*b_warm), Compacts(*b_plans));
}

// ---- Summary classes: rewrite state shared by epochs of equal summaries ----

/// A catalog bound to shared documents, updated through the summary-bound
/// ApplyUpdate overload — the serving path.
class SummaryClassTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Every b has one x and one y: both b edges are strong and one-to-one.
    doc_ = std::shared_ptr<Document>(Doc("a(b(x=1 y=2) b(x=3 y=4))"));
    ASSERT_TRUE(catalog_
                    .Materialize({"VX", MustParsePattern("a(/b{id}(/x{id,v}))")},
                                 *doc_)
                    .ok());
    ASSERT_TRUE(
        catalog_.Materialize({"VB", MustParsePattern("a(/b{id})")}, *doc_)
            .ok());
    ASSERT_TRUE(
        catalog_.Materialize({"VXV", MustParsePattern("a(//x{id,v})")}, *doc_)
            .ok());
    built_ = SummaryBuilder::Build(doc_.get());
    catalog_.BindDocument(doc_, built_);
  }

  /// Appends `subtree` under the root and publishes the new epoch.
  OrdPath Insert(std::string_view subtree) {
    Result<UpdateResult> up =
        InsertSubtree(*doc_, OrdPath::Root(), *Doc(subtree));
    EXPECT_TRUE(up.ok()) << up.status().ToString();
    OrdPath region = up->delta.region;
    Publish(std::move(up).value());
    return region;
  }

  void Delete(const OrdPath& target) {
    Result<UpdateResult> up = DeleteSubtree(*doc_, target);
    EXPECT_TRUE(up.ok()) << up.status().ToString();
    Publish(std::move(up).value());
  }

  void Publish(UpdateResult up) {
    std::shared_ptr<Document> next(std::move(up.doc));
    std::shared_ptr<Summary> summary(SummaryBuilder::Build(next.get()));
    ASSERT_TRUE(catalog_.ApplyUpdate(up.delta, next, summary).ok());
    doc_ = std::move(next);
    built_ = std::move(summary);
  }

  /// Serves `q` the way perfbench and bench_concurrent do: the epoch's
  /// memo, shared index and cost model, through the epoch's cache.
  std::vector<Rewriting> Serve(const CatalogSnapshot& snap, std::string_view q,
                               RewriteStats* stats = nullptr) {
    RewriterOptions opts;
    opts.memo = snap.containment_memo();
    opts.cost_model = &snap.cost_model();
    std::shared_ptr<const ViewIndex> index =
        snap.ViewIndexFor(*snap.summary(), opts.expansion);
    opts.shared_view_index = index.get();
    Rewriter rw(*snap.summary(), opts);
    for (const auto& v : snap.views()) rw.AddView(v->def);
    Result<std::vector<Rewriting>> r =
        CachedRewrite(snap.rewrite_cache(), &rw, MustParsePattern(q), stats);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? std::move(r).value() : std::vector<Rewriting>{};
  }

  /// An uncached rewrite of `q` against the current epoch `snap`, over the
  /// summary built from its document rather than the catalog's interned
  /// one: no memo, no shared index, no cache.
  std::vector<Rewriting> Fresh(const CatalogSnapshot& snap,
                               std::string_view q) {
    EXPECT_EQ(snap.document(), doc_.get()) << "not the current epoch";
    RewriterOptions opts;
    opts.cost_model = &snap.cost_model();
    Rewriter rw(*built_, opts);
    for (const auto& v : snap.views()) rw.AddView(v->def);
    Result<std::vector<Rewriting>> r = rw.Rewrite(MustParsePattern(q));
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? std::move(r).value() : std::vector<Rewriting>{};
  }

  /// Every plan of `rws`, executed on `snap`, equals direct evaluation.
  void ExpectPlansAnswer(const CatalogSnapshot& snap, std::string_view q,
                         const std::vector<Rewriting>& rws) {
    Table want = MaterializeView(MustParsePattern(q), "q", *snap.document());
    for (const Rewriting& r : rws) {
      Result<Table> got = Execute(*r.plan, snap.ExecutorCatalog());
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_TRUE(got->EqualsIgnoringOrder(want)) << q << " via " << r.compact;
    }
  }

  std::shared_ptr<Document> doc_;
  std::shared_ptr<Summary> built_;  // built from doc_, as published
  ViewCatalog catalog_;
};

constexpr std::string_view kQx = "a(/b{id}(/x{v}))";

TEST_F(SummaryClassTest, EqualSummaryKeepsCacheMemoAndIndex) {
  std::shared_ptr<const CatalogSnapshot> before = catalog_.Snapshot();
  RewriteStats cold;
  ASSERT_FALSE(Serve(*before, kQx, &cold).empty());
  EXPECT_EQ(cold.rewrite_cache_hits, 0u);
  std::shared_ptr<const ViewIndex> index =
      before->ViewIndexFor(*before->summary(), ExpansionOptions{});
  const int64_t reuses0 = metrics::SummaryClassReuses()->Value();

  Insert("b(x=5 y=6)");  // same paths, same edge flags
  std::shared_ptr<const CatalogSnapshot> after = catalog_.Snapshot();
  EXPECT_GT(after->epoch(), before->epoch());
  EXPECT_EQ(after->summary(), before->summary()) << "summary not interned";
  EXPECT_EQ(after->rewrite_cache(), before->rewrite_cache());
  EXPECT_EQ(after->containment_memo(), before->containment_memo());
  EXPECT_EQ(after->ViewIndexFor(*after->summary(), ExpansionOptions{}).get(),
            index.get());
  EXPECT_EQ(metrics::SummaryClassReuses()->Value(), reuses0 + 1);
  EXPECT_NE(catalog_.DebugMetrics().find("\"summary_class_reuses\": 1"),
            std::string::npos)
      << catalog_.DebugMetrics();

  RewriteStats warm;
  std::vector<Rewriting> hit = Serve(*after, kQx, &warm);
  EXPECT_EQ(warm.rewrite_cache_hits, 1u);
  EXPECT_EQ(Compacts(hit), Compacts(Fresh(*after, kQx)));
  ExpectPlansAnswer(*after, kQx, hit);
}

TEST_F(SummaryClassTest, FlippedStrongEdgeOrNewPathMisses) {
  std::shared_ptr<const CatalogSnapshot> s0 = catalog_.Snapshot();
  ASSERT_FALSE(Serve(*s0, kQx).empty());
  const int64_t new0 = metrics::RewriteCacheInvalidations(
                           metrics::InvalidationCause::kSummaryNew)
                           ->Value();
  const size_t invalidations0 = catalog_.rewrite_cache()->invalidations();

  // A b without y: the b/y edge is no longer strong nor one-to-one.
  OrdPath lone = Insert("b(x=7)");
  std::shared_ptr<const CatalogSnapshot> s1 = catalog_.Snapshot();
  ASSERT_FALSE(s1->summary()->StructurallyEquals(*s0->summary()));
  EXPECT_NE(s1->containment_memo(), s0->containment_memo());
  EXPECT_NE(s1->rewrite_cache(), s0->rewrite_cache());
  RewriteStats stats;
  std::vector<Rewriting> served = Serve(*s1, kQx, &stats);
  EXPECT_EQ(stats.rewrite_cache_hits, 0u);
  ExpectPlansAnswer(*s1, kQx, served);
  // The publish left a warm cache behind for a new class: one invalidation
  // by cause, and the cache's counter agrees.
  EXPECT_EQ(metrics::RewriteCacheInvalidations(
                metrics::InvalidationCause::kSummaryNew)
                ->Value(),
            new0 + 1);
  EXPECT_EQ(catalog_.rewrite_cache()->invalidations(), invalidations0 + 1);

  // Back to the first shape, then a new path (z) under b.
  Delete(lone);
  Insert("b(x=8 y=9 z=10)");
  std::shared_ptr<const CatalogSnapshot> s2 = catalog_.Snapshot();
  ASSERT_FALSE(s2->summary()->StructurallyEquals(*s0->summary()));
  EXPECT_NE(s2->containment_memo(), s0->containment_memo());
  EXPECT_NE(s2->containment_memo(), s1->containment_memo());
  RewriteStats stats2;
  std::vector<Rewriting> served2 = Serve(*s2, kQx, &stats2);
  EXPECT_EQ(stats2.rewrite_cache_hits, 0u);
  ExpectPlansAnswer(*s2, kQx, served2);
}

TEST_F(SummaryClassTest, ReturningToAnEarlierSummaryHitsAgain) {
  std::shared_ptr<const CatalogSnapshot> s0 = catalog_.Snapshot();
  ASSERT_FALSE(Serve(*s0, kQx).empty());
  OrdPath lone = Insert("b(x=7)");
  RewriteStats detour;
  Serve(*catalog_.Snapshot(), kQx, &detour);
  EXPECT_EQ(detour.rewrite_cache_hits, 0u);

  Delete(lone);
  std::shared_ptr<const CatalogSnapshot> back = catalog_.Snapshot();
  EXPECT_EQ(back->summary(), s0->summary());
  EXPECT_EQ(back->containment_memo(), s0->containment_memo());
  RewriteStats stats;
  std::vector<Rewriting> hit = Serve(*back, kQx, &stats);
  EXPECT_EQ(stats.rewrite_cache_hits, 1u);
  EXPECT_EQ(Compacts(hit), Compacts(Fresh(*back, kQx)));
  ExpectPlansAnswer(*back, kQx, hit);
  EXPECT_NE(catalog_.DebugMetrics().find("\"summary_classes\": 2"),
            std::string::npos)
      << catalog_.DebugMetrics();
}

TEST_F(SummaryClassTest, ViewSetMutationMissesInEveryClass) {
  constexpr std::string_view kQy = "a(/b{id}(/y{v}))";
  std::shared_ptr<const CatalogSnapshot> s0 = catalog_.Snapshot();
  ASSERT_FALSE(Serve(*s0, kQx).empty());
  OrdPath lone = Insert("b(x=7)");
  std::shared_ptr<const CatalogSnapshot> s1 = catalog_.Snapshot();
  Serve(*s1, kQx);
  EXPECT_TRUE(Serve(*s1, kQy).empty()) << "no view stores y yet";
  const int64_t view_set0 =
      metrics::RewriteCacheInvalidations(metrics::InvalidationCause::kViewSet)
          ->Value();

  // Add: a y view makes kQy answerable — in whichever class serves it.
  ASSERT_TRUE(
      catalog_.Materialize({"VY", MustParsePattern("a(/b{id}(/y{id,v}))")},
                           *doc_)
          .ok());
  EXPECT_EQ(metrics::RewriteCacheInvalidations(
                metrics::InvalidationCause::kViewSet)
                ->Value(),
            view_set0 + 1);
  std::shared_ptr<const CatalogSnapshot> s1_added = catalog_.Snapshot();
  EXPECT_EQ(s1_added->containment_memo(), s1->containment_memo())
      << "the memo depends on the summary only";
  EXPECT_NE(s1_added->rewrite_cache(), s1->rewrite_cache());
  EXPECT_GT(s1->rewrite_cache()->size(), 0u) << "old epoch keeps its cache";
  RewriteStats stats;
  ASSERT_FALSE(Serve(*s1_added, kQy, &stats).empty());
  EXPECT_EQ(stats.rewrite_cache_hits, 0u);
  Serve(*s1_added, kQx, &stats);
  EXPECT_EQ(stats.rewrite_cache_hits, 0u);

  // The other class was warm before the Add; it misses too.
  Delete(lone);
  std::shared_ptr<const CatalogSnapshot> s0_added = catalog_.Snapshot();
  EXPECT_EQ(s0_added->containment_memo(), s0->containment_memo());
  RewriteStats stats0;
  std::vector<Rewriting> y_plans = Serve(*s0_added, kQy, &stats0);
  EXPECT_EQ(stats0.rewrite_cache_hits, 0u);
  ExpectPlansAnswer(*s0_added, kQy, y_plans);
  Serve(*s0_added, kQx, &stats0);
  EXPECT_EQ(stats0.rewrite_cache_hits, 0u);

  // Drop: plans naming VY must never be served again, in any class.
  ASSERT_TRUE(catalog_.Drop("VY").ok());
  RewriteStats dropped;
  EXPECT_TRUE(Serve(*catalog_.Snapshot(), kQy, &dropped).empty());
  EXPECT_EQ(dropped.rewrite_cache_hits, 0u);
  Insert("b(x=11)");
  EXPECT_TRUE(catalog_.Snapshot()->summary()->StructurallyEquals(
      *s1->summary()));
  EXPECT_TRUE(Serve(*catalog_.Snapshot(), kQy, &dropped).empty());
  EXPECT_EQ(dropped.rewrite_cache_hits, 0u);
}

TEST_F(SummaryClassTest, HitIsRecostedWithTheServingCostModel) {
  // "a(/b{id})" has several equivalent rewritings (VB alone, VX projected,
  // ...); ranking them is statistics-dependent.
  constexpr std::string_view kQb = "a(/b{id})";
  std::shared_ptr<const CatalogSnapshot> s0 = catalog_.Snapshot();
  std::vector<Rewriting> cold = Serve(*s0, kQb);
  ASSERT_FALSE(cold.empty());

  // Same summary, many more rows: the statistics (and so the costs) move.
  for (int i = 0; i < 6; ++i) Insert("b(x=5 y=6)");
  std::shared_ptr<const CatalogSnapshot> s1 = catalog_.Snapshot();
  ASSERT_EQ(s1->rewrite_cache(), s0->rewrite_cache());
  RewriteStats stats;
  std::vector<Rewriting> hit = Serve(*s1, kQb, &stats);
  ASSERT_EQ(stats.rewrite_cache_hits, 1u);
  ASSERT_EQ(hit.size(), cold.size());
  bool moved = false;
  for (size_t i = 0; i < hit.size(); ++i) {
    EXPECT_EQ(hit[i].est_cost, s1->cost_model().EstimateCost(*hit[i].plan))
        << hit[i].compact;
    moved |= hit[i].est_cost != s0->cost_model().EstimateCost(*hit[i].plan);
    if (i > 0) {
      EXPECT_LE(hit[i - 1].est_cost, hit[i].est_cost) << "not re-sorted";
    }
  }
  EXPECT_TRUE(moved) << "statistics change did not move any cost";
  EXPECT_EQ(stats.cheapest_cost, hit.front().est_cost);
  EXPECT_EQ(stats.costliest_cost, hit.back().est_cost);
  EXPECT_EQ(Compacts(hit), Compacts(Fresh(*s1, kQb)));
  ExpectPlansAnswer(*s1, kQb, hit);
}

// The perfbench mixed-workload update shape over XMark: append an item as
// the last child of a random item's parent, delete it, insert one before a
// random item, delete it. The inserted item lacks most optional children,
// so the summary cycles between the original and one variant per region.
// Every query is served through the epoch's cache on every epoch and must
// agree with an uncached rewrite and with direct evaluation.
TEST(SummaryClassProperty, XmarkItemCycleServesCorrectPlansOnEveryEpoch) {
  XmarkOptions xo;
  xo.scale = 0.1;
  xo.seed = 7;
  std::shared_ptr<Document> doc(GenerateXmark(xo));
  ViewCatalog catalog;
  const char* kViews[][2] = {
      {"item_names", "site(//item{id}(/name{id,v}))"},
      {"item_payment", "site(//item{id}(/payment{v}))"},
      {"person_names", "site(//person{id}(/name{id,v}))"},
      {"person_emails", "site(//person{id}(/emailaddress{v}))"},
      {"item_keywords_nested", "site(//item{id}(n//keyword{id,v}))"},
  };
  for (const auto& [name, pattern] : kViews) {
    ASSERT_TRUE(catalog.Materialize({name, MustParsePattern(pattern)}, *doc)
                    .ok());
  }
  std::shared_ptr<Summary> built(SummaryBuilder::Build(doc.get()));
  catalog.BindDocument(doc, built);
  const char* kQueries[] = {
      "site(//item{id}(/name{v}))",
      "site(//item{id}(/payment{v}))",
      "site(//person{id}(/name{v} /emailaddress{v}))",
      "site(//item{id}(n//keyword{id,v}))",
      "site(//person{id}(?/emailaddress{v}))",
  };
  std::unique_ptr<Document> item =
      Doc("item(name=fresh description(text=t keyword=new) payment=cash)");
  Rng rng(2024);
  std::optional<OrdPath> fresh;
  size_t hits = 0;
  size_t answered = 0;
  size_t truncated = 0;
  for (int step = 0; step <= 40; ++step) {
    std::shared_ptr<const CatalogSnapshot> snap = catalog.Snapshot();
    for (const char* q : kQueries) {
      RewriterOptions opts;
      opts.max_results = 2;
      opts.memo = snap->containment_memo();
      opts.cost_model = &snap->cost_model();
      std::shared_ptr<const ViewIndex> index =
          snap->ViewIndexFor(*snap->summary(), opts.expansion);
      opts.shared_view_index = index.get();
      Rewriter served_rw(*snap->summary(), opts);
      // Uncached, over the summary built from this epoch's document.
      RewriterOptions plain;
      plain.max_results = 2;
      plain.cost_model = &snap->cost_model();
      Rewriter fresh_rw(*built, plain);
      for (const auto& v : snap->views()) {
        served_rw.AddView(v->def);
        fresh_rw.AddView(v->def);
      }
      Pattern p = MustParsePattern(q);
      RewriteStats stats;
      Result<std::vector<Rewriting>> served =
          CachedRewrite(snap->rewrite_cache(), &served_rw, p, &stats);
      RewriteStats fresh_stats;
      Result<std::vector<Rewriting>> uncached =
          fresh_rw.Rewrite(p, &fresh_stats);
      ASSERT_TRUE(served.ok() && uncached.ok()) << q;
      hits += stats.rewrite_cache_hits;
      truncated += fresh_stats.search_truncated ? 1 : 0;
      // A truncated search is never cached, in this class or any other.
      if (fresh_stats.search_truncated) {
        EXPECT_EQ(stats.rewrite_cache_hits, 0u) << q << " at step " << step;
      }
      ASSERT_EQ(served->empty(), uncached->empty())
          << q << " at step " << step;
      if (served->empty()) continue;
      ++answered;
      Table want = MaterializeView(p, "q", *snap->document());
      for (const std::vector<Rewriting>* rws : {&*served, &*uncached}) {
        Result<Table> got =
            Execute(*rws->front().plan, snap->ExecutorCatalog());
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        ASSERT_TRUE(got->EqualsIgnoringOrder(want))
            << q << " at step " << step << " via " << rws->front().compact
            << (rws == &*served ? " (served)" : " (uncached)");
      }
    }
    if (step == 40) break;
    // The next update, in the perfbench cycle shape.
    Result<UpdateResult> up = Status::Internal("unset");
    if (step % 2 == 1 && fresh.has_value()) {
      up = DeleteSubtree(*doc, *fresh);
      fresh.reset();
    } else {
      std::vector<NodeIndex> items;
      for (NodeIndex n = 0; n < doc->size(); ++n) {
        if (doc->label(n) == "item") items.push_back(n);
      }
      NodeIndex anchor = items[static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(items.size()) - 1))];
      const OrdPath before = doc->ord_path(anchor);
      up = InsertSubtree(*doc, doc->ord_path(doc->parent(anchor)), *item,
                         step % 4 == 2 ? &before : nullptr);
      if (up.ok()) fresh = up->delta.region;
    }
    ASSERT_TRUE(up.ok()) << up.status().ToString();
    std::shared_ptr<Document> next(std::move(up->doc));
    std::shared_ptr<Summary> summary(SummaryBuilder::Build(next.get()));
    ASSERT_TRUE(catalog.ApplyUpdate(up->delta, next, summary).ok());
    doc = std::move(next);
    built = std::move(summary);
  }
  EXPECT_GT(answered, 0u);
  EXPECT_GT(truncated, 0u) << "no truncated search exercised";
  // Every delete returns to an earlier summary class, whose entries serve.
  EXPECT_GT(hits, 0u);
}

}  // namespace
}  // namespace svx
