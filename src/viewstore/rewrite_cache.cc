#include "src/viewstore/rewrite_cache.h"

#include "src/observability/metrics.h"
#include "src/observability/trace.h"
#include "src/pattern/pattern_printer.h"
#include "src/util/strings.h"
#include "src/util/timer.h"
#include "src/viewstore/cost_model.h"

namespace svx {

namespace {

std::vector<Rewriting> CloneRewritings(const std::vector<Rewriting>& rws) {
  std::vector<Rewriting> out;
  out.reserve(rws.size());
  for (const Rewriting& r : rws) {
    out.push_back({r.plan->Clone(), r.compact, r.est_cost});
  }
  return out;
}

}  // namespace

std::string RewriteCache::KeyFor(const Pattern& q) {
  return PatternToString(q);
}

bool RewriteCache::Lookup(const std::string& key, std::vector<Rewriting>* out,
                          RewriteStats* stats) const {
  MutexLock lock(&mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    counters_->misses.fetch_add(1);
    metrics::RewriteCacheMisses()->Add(1);
    return false;
  }
  counters_->hits.fetch_add(1);
  metrics::RewriteCacheHits()->Add(1);
  *out = CloneRewritings(it->second.rewritings);
  if (stats != nullptr) {
    // Replay the search counters the entry cost when it was computed; the
    // caller overwrites the timing fields with the (warm) lookup time.
    const RewriteStats& s = it->second.stats;
    stats->views_total = s.views_total;
    stats->views_kept = s.views_kept;
    stats->candidates_built = s.candidates_built;
    stats->join_candidates = s.join_candidates;
    stats->equivalence_tests = s.equivalence_tests;
    stats->candidates_pruned = s.candidates_pruned;
    stats->containment_memo_hits = s.containment_memo_hits;
    stats->containment_memo_misses = s.containment_memo_misses;
    stats->results = s.results;
    stats->cheapest_cost = s.cheapest_cost;
    stats->costliest_cost = s.costliest_cost;
    stats->plans_generated = s.plans_generated;
    stats->plans_dominated = s.plans_dominated;
    stats->plans_retained = s.plans_retained;
    // Truncated searches are never cached (see CachedRewrite), so a hit is
    // always a complete search.
    stats->search_truncated = false;
  }
  return true;
}

void RewriteCache::Insert(const std::string& key,
                          const std::vector<Rewriting>& rewritings,
                          const RewriteStats* stats) {
  Entry entry;
  entry.rewritings = CloneRewritings(rewritings);
  if (stats != nullptr) entry.stats = *stats;
  MutexLock lock(&mu_);
  if (entries_.size() >= max_entries && entries_.find(key) == entries_.end()) {
    entries_.clear();
  }
  entries_[key] = std::move(entry);
}

size_t RewriteCache::size() const {
  MutexLock lock(&mu_);
  return entries_.size();
}

Result<std::vector<Rewriting>> CachedRewrite(RewriteCache* cache,
                                             Rewriter* rewriter,
                                             const Pattern& q,
                                             RewriteStats* stats) {
  if (cache == nullptr) return rewriter->Rewrite(q, stats);
  Timer timer;
  // The ranked list depends on the rewriter's configuration and view set,
  // not just the query — salt the key with every result-affecting option
  // and the view-set fingerprint, so rewriters with different
  // configurations or view sets sharing one cache do not serve each other
  // mismatched plans. The summary is not in the key: the catalog keeps one
  // cache per summary class. Statistics are not either: a hit is re-ranked
  // below.
  const RewriterOptions& o = rewriter->options();
  const ExpansionOptions& e = o.expansion;
  const ContainmentOptions& c = o.containment;
  // Plan choice depends on the effective cost constants, so the salt
  // carries the model's fingerprint (not just its presence) plus the
  // enumeration strategy.
  const uint64_t model_fp =
      o.cost_model != nullptr
          ? CostConstantsFingerprint(o.cost_model->constants,
                                     o.cost_model->default_rows)
          : 0;
  std::string key = StrFormat(
      "%s|r%zu.v%d.%llx.p%d.c%zu.pc%zu.a%zu.u%zu.up%zu.%d%d%d%d.m%llx.dp%d"
      "|e%zu.%zu.%d.%d.%d.%d|k%d.%d.%zu.%zu.%zu.%d",
      RewriteCache::KeyFor(q).c_str(), o.max_results, rewriter->num_views(),
      static_cast<unsigned long long>(  // NOLINT(runtime/int)
          rewriter->view_set_fingerprint()),
      o.max_plan_views, o.max_candidates, o.max_pieces, o.max_assignments,
      o.max_union_size, o.max_union_partials, o.prune_views ? 1 : 0,
      o.prune_same_pattern ? 1 : 0, o.stop_at_first ? 1 : 0,
      o.use_view_index ? 1 : 0,
      static_cast<unsigned long long>(model_fp),  // NOLINT(runtime/int)
      o.use_dp_enumeration ? 1 : 0,
      e.max_embeddings, e.max_pieces, e.max_strengthen_edges,
      e.unfold_content ? 1 : 0, e.add_virtual_ids ? 1 : 0,
      e.max_virtual_depth, c.use_one_to_one_relaxation ? 1 : 0,
      c.model.use_strong_edges ? 1 : 0, c.model.max_embeddings,
      c.model.max_trees, c.max_grid_points, c.model.max_optional_edges);
  std::vector<Rewriting> cached;
  bool hit;
  {
    ScopedSpan span(rewriter->options().trace, "cache-lookup");
    hit = cache->Lookup(key, &cached, stats);
    span.Attr("hit", hit ? "true" : "false");
  }
  if (hit) {
    // The entry may have been ranked under another epoch's statistics.
    const bool rerank = o.cost_model != nullptr && !cached.empty();
    if (rerank) RankByCost(*o.cost_model, &cached);
    if (stats != nullptr) {
      if (rerank) {
        stats->cheapest_cost = cached.front().est_cost;
        stats->costliest_cost = cached.back().est_cost;
      }
      stats->rewrite_cache_hits = 1;
      stats->results = cached.size();  // authoritative even for entries
                                       // inserted without stats
      stats->first_ms = timer.ElapsedMillis();
      stats->total_ms = timer.ElapsedMillis();
    }
    return cached;
  }
  RewriteStats local_stats;
  RewriteStats* effective = stats != nullptr ? stats : &local_stats;
  Result<std::vector<Rewriting>> fresh = rewriter->Rewrite(q, effective);
  // A time-budget-truncated search is load-dependent, and a budget-truncated
  // search (search_truncated: a candidate overflowed the merged-piece cap)
  // dropped plans it never examined; caching either would pin a transiently
  // inferior (possibly empty) plan list for as long as the cache lives.
  if (fresh.ok() && !effective->time_budget_hit &&
      !effective->search_truncated) {
    cache->Insert(key, *fresh, effective);
  }
  return fresh;
}

}  // namespace svx
