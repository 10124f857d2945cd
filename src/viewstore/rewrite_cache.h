// Catalog-level cache of rewrite results.
//
// Million-user traffic is dominated by repeat queries, and the set of
// equivalent rewritings is a pure function of (query, view set, summary,
// rewriter options): S-containment (paper §2.3/§4.1) consults only the
// summary and the view definitions. The ranked rewriting list can thus be
// cached under the query's canonical pattern text (salted by CachedRewrite
// with the rewriter's configuration and view-set fingerprint) and served in
// microseconds. Data and statistics only decide which equivalent plan ranks
// first, so a hit is re-ranked with the serving rewriter's cost model.
//
// Lifecycle: the ViewCatalog keeps one cache per summary class — every
// epoch whose summary is structurally equal shares it, including epochs
// that return to an earlier summary after intervening updates. A
// view-set mutation (Add / Materialize / Drop / Load) replaces every
// class's cache with a fresh one; an epoch published without a summary
// gets a fresh cache of its own. Old epochs keep the cache they were
// published with. The catalog's caches share one set of cumulative
// hit/miss/invalidation counters (Counters), so observability stays
// continuous whichever cache the current epoch serves.
//
// Thread-safe: an internal mutex guards the table, so concurrent readers
// share warm entries.
//
// Entries store plans by value; Lookup returns deep clones, so callers own
// their plans and cache entries stay immutable.
#ifndef SVX_VIEWSTORE_REWRITE_CACHE_H_
#define SVX_VIEWSTORE_REWRITE_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/pattern/pattern.h"
#include "src/rewriting/rewriter.h"
#include "src/util/mutex.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"

namespace svx {

class RewriteCache {
 public:
  /// Cumulative counters, shareable across caches (see file comment).
  struct Counters {
    std::atomic<size_t> hits{0};
    std::atomic<size_t> misses{0};
    /// Publishes whose successor epoch could not serve the predecessor's
    /// cached entries (counted by the catalog, by cause, in
    /// svx_rewrite_cache_invalidations_total).
    std::atomic<size_t> invalidations{0};
  };

  /// A cache with counters of its own.
  RewriteCache() : RewriteCache(std::make_shared<Counters>()) {}
  /// A cache reporting into `counters` (never null).
  explicit RewriteCache(std::shared_ptr<Counters> counters)
      : counters_(std::move(counters)) {}

  /// Cache key of a query pattern (its round-trippable text form).
  static std::string KeyFor(const Pattern& q);

  /// Returns true and fills `out` with cloned rewritings (ranked order
  /// preserved) when `key` is cached. An entry may hold zero rewritings —
  /// "no rewriting exists" is equally worth caching. With a non-null
  /// `stats`, the search counters recorded at insert time (candidates
  /// built/pruned, equivalence tests, memo hits/misses, ...) are copied
  /// into it, so a warm hit reports the work its entry originally cost
  /// instead of zeros; the timing fields are left to the caller.
  bool Lookup(const std::string& key, std::vector<Rewriting>* out,
              RewriteStats* stats = nullptr) const SVX_EXCLUDES(mu_);

  /// Caches `rewritings` (cloned) under `key`, replacing any previous
  /// entry, together with the search stats that produced them (replayed on
  /// hits — see Lookup). When the cache is full, the whole table is dropped
  /// first — a crude but constant-time eviction; `max_entries` is high
  /// enough that this only guards against unbounded ad-hoc query streams.
  void Insert(const std::string& key, const std::vector<Rewriting>& rewritings,
              const RewriteStats* stats = nullptr) SVX_EXCLUDES(mu_);

  size_t size() const SVX_EXCLUDES(mu_);
  size_t hits() const { return counters_->hits.load(); }
  size_t misses() const { return counters_->misses.load(); }
  size_t invalidations() const { return counters_->invalidations.load(); }

  /// Set before the cache is shared across threads.
  size_t max_entries = 4096;

 private:
  struct Entry {
    std::vector<Rewriting> rewritings;
    RewriteStats stats;  // the miss-time search counters
  };

  const std::shared_ptr<Counters> counters_;
  mutable Mutex mu_;
  std::unordered_map<std::string, Entry> entries_ SVX_GUARDED_BY(mu_);
};

/// Rewrites `q` through `cache`: serves a hit (setting
/// stats->rewrite_cache_hits and the timing fields), otherwise calls
/// rewriter->Rewrite(q, stats) and caches the ok() result unless the search
/// was truncated or ran out of time. A hit is re-ranked with the
/// rewriter's cost model (RankByCost), so its costs and order reflect the
/// serving epoch's statistics. With a null cache this is exactly
/// rewriter->Rewrite.
[[nodiscard]] Result<std::vector<Rewriting>> CachedRewrite(
    RewriteCache* cache, Rewriter* rewriter, const Pattern& q,
    RewriteStats* stats = nullptr);

}  // namespace svx

#endif  // SVX_VIEWSTORE_REWRITE_CACHE_H_
