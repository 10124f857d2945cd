// svx end-to-end benchmark driver: one single-client, closed-loop workload
// over an XMark document, served from a persistent ViewCatalog.
//
// Read path, per query: Snapshot() + ViewIndexFor → a per-query Rewriter
// over the epoch's views → CachedRewrite (the epoch's rewrite cache) →
// Execute of the cheapest plan. Update path: an item subtree insert or
// delete (xml) → SummaryBuilder rebuild → ViewCatalog::ApplyUpdate
// (maintenance, statistics, WAL append, epoch publish) → a Save()
// checkpoint every few updates.
//
// A run's operation sequence depends only on the workload, the seed and
// the nominal length (--seconds): queries come in shuffled rounds, so every
// query appears equally often, and updates are interleaved at a fixed
// ratio. Nothing is paced by a timer and no thread runs in the background.
// An untimed warm-up round precedes the timed loop. Every query result is
// compared (untimed) with direct MaterializeView evaluation on the
// document of the epoch it ran against; the update path is checked by
// rematerializing every view and by reopening the store, which replays the
// WAL, and comparing extents byte for byte.
//
// With --trace 1 the workload runs twice, from fresh set-ups: untraced (the
// tracing-overhead reference), then recording one span per layer call
// (span_log.h). The spans are written to --out and give per-layer times,
// self times and the unattributed remainder.
//
// Output: a human-readable report, then one line "RESULT {json}" with the
// correctness verdict, operation counts and every metric with its unit.
//
//   $ svx_perfbench --workload read-s10 --seed 1 --seconds 10 --trace 0
//         --store DIR [--out DIR]
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench/base_views.h"
#include "perfbench/span_log.h"
#include "src/algebra/executor.h"
#include "src/observability/metrics.h"
#include "src/pattern/pattern_parser.h"
#include "src/rewriting/rewriter.h"
#include "src/rewriting/view.h"
#include "src/summary/summary_builder.h"
#include "src/util/rng.h"
#include "src/util/strings.h"
#include "src/util/timer.h"
#include "src/viewstore/extent_io.h"
#include "src/viewstore/view_catalog.h"
#include "src/workload/xmark.h"
#include "src/workload/xmark_queries.h"
#include "src/xml/builder.h"
#include "src/xml/update.h"

namespace svx::perfbench {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct WorkloadSpec {
  const char* name;
  double scale;
  /// Decoded-extent memory budget in bytes; 0 = unlimited.
  int64_t budget_bytes;
  /// One update after every this many queries in the timed loop; 0 = the
  /// timed loop is read only.
  int queries_per_update;
  /// Read-only workloads: updates per round applied to a twin of the store
  /// (set up from the same seed, never queried), so the update path is
  /// measured at this scale, spread over the run, without touching the
  /// store the reads are served from.
  int twin_updates_per_round;
  /// A Save() checkpoint after every this many updates.
  int checkpoint_every;
  /// Query rounds per nominal second of --seconds (calibrated on a 4-vCPU
  /// x86-64 VM so the timed loop lasts about --seconds there).
  double rounds_per_second;
  /// Set-up repetitions; setup_s is their median. The first builds the
  /// served store; the others are spread over the timed loop.
  int setup_repeats;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"read-s10", 10, 0, 0, 2, 32, 4.0, 9},
    {"read-s300-budget", 300, 4 << 20, 0, 4, 16, 0.35, 3},
    {"mixed-s100", 100, 0, 4, 0, 8, 0.7, 3},
};

/// The structured views of bench_maintenance and bench_concurrent: the
/// optional, nested and content columns of the paper's view language.
constexpr const char* kStructuredViews[][2] = {
    {"item_names", "site(//item{id}(/name{id,v}))"},
    {"item_keywords_opt", "site(//item{id}(?//keyword{v}))"},
    {"item_keywords_nested", "site(//item{id}(n//keyword{id,v}))"},
    {"person_names", "site(//person{id}(/name{id,v}))"},
    {"person_content", "site(//person{id,c})"},
    {"auction_bidders", "site(//open_auction{id}(//bidder{id}(/increase{v})))"},
};

/// bench_concurrent's reader patterns, served by the structured views.
constexpr const char* kStructuredQueries[] = {
    "site(//item{id}(/name{v}))",
    "site(//item{id}(/name{id,v} ?//keyword{v}))",
    "site(//person{id}(/name{v}))",
    "site(//open_auction{id}(//bidder{id}(/increase{v})))",
    "site(//item{id}(n//keyword{id,v}))",
};

constexpr const char* kInsertedItem =
    "item(name=fresh description(text=t keyword=new) payment=cash)";

struct Query {
  std::string name;
  Pattern pattern;
};

std::vector<Query> BuildQueries() {
  std::vector<Query> out;
  for (int n = 1; n <= 20; ++n) {
    out.push_back({StrFormat("q%d", n), GetXmarkQueryPatternConjunctive(n)});
  }
  int s = 1;
  for (const char* text : kStructuredQueries) {
    out.push_back({StrFormat("s%d", s++), MustParsePattern(text)});
  }
  return out;
}

// ---------------------------------------------------------------------------
// Operation sequence (a function of the seed only)
// ---------------------------------------------------------------------------

struct Op {
  enum class Kind { kQuery, kUpdate, kTwinUpdate };
  Kind kind = Kind::kQuery;
  int query = -1;
};

std::vector<Op> BuildSequence(const WorkloadSpec& spec, uint64_t seed,
                              int rounds, int num_queries) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 1);
  std::vector<Op> ops;
  int since_update = 0;
  for (int r = 0; r < rounds; ++r) {
    std::vector<int> order(static_cast<size_t>(num_queries));
    for (int i = 0; i < num_queries; ++i) order[static_cast<size_t>(i)] = i;
    for (int i = num_queries - 1; i > 0; --i) {
      std::swap(order[static_cast<size_t>(i)],
                order[static_cast<size_t>(rng.Uniform(0, i))]);
    }
    for (int q : order) {
      ops.push_back({Op::Kind::kQuery, q});
      if (spec.queries_per_update > 0 &&
          ++since_update == spec.queries_per_update) {
        ops.push_back({Op::Kind::kUpdate, -1});
        since_update = 0;
      }
    }
    for (int u = 0; u < spec.twin_updates_per_round; ++u) {
      ops.push_back({Op::Kind::kTwinUpdate, -1});
    }
  }
  return ops;
}

uint64_t Fnv1a(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}
constexpr uint64_t kFnvBasis = 0xCBF29CE484222325ULL;

uint64_t SequenceFingerprint(const std::vector<Op>& ops) {
  uint64_t h = kFnvBasis;
  for (const Op& op : ops) {
    int v = op.kind == Op::Kind::kQuery ? op.query
                                        : -static_cast<int>(op.kind);
    h = Fnv1a(h, &v, sizeof(v));
  }
  return h;
}

uint64_t DocumentFingerprint(const Document& doc) {
  uint64_t h = kFnvBasis;
  for (NodeIndex n = 0; n < doc.size(); ++n) {
    const std::string& l = doc.label(n);
    h = Fnv1a(h, l.data(), l.size());
    NodeIndex p = doc.parent(n);
    h = Fnv1a(h, &p, sizeof(p));
  }
  return h;
}

/// One item-subtree update, chosen (untimed) before it is applied. The
/// kinds follow a fixed cycle: an item appended as the last child of a
/// random item's parent, that item deleted again, an item inserted before a random
/// item (a careted id), that item deleted again. So every run of a given
/// length applies the same mix of kinds, the document stays within one item
/// of its initial size, and every update moves the same small subtree: an
/// insert and a delete cost about the same, and the update latencies form
/// one class rather than classes whose boundary a percentile could sit on.
/// The seed picks the anchor items.
struct UpdatePick {
  bool remove = false;
  OrdPath target;  // deleted item, or the parent to insert under
  std::optional<OrdPath> before;
};

UpdatePick PickItemUpdate(const Document& doc, int64_t update_no,
                          std::optional<OrdPath>* fresh, Rng* rng) {
  UpdatePick pick;
  if (update_no % 2 == 1 && fresh->has_value()) {
    pick.remove = true;
    pick.target = **fresh;
    fresh->reset();
    return pick;
  }
  std::vector<NodeIndex> items;
  for (NodeIndex n = 0; n < doc.size(); ++n) {
    if (doc.label(n) == "item") items.push_back(n);
  }
  NodeIndex anchor = items[static_cast<size_t>(
      rng->Uniform(0, static_cast<int64_t>(items.size()) - 1))];
  pick.target = doc.ord_path(doc.parent(anchor));
  if (update_no % 4 == 2) pick.before = doc.ord_path(anchor);
  return pick;
}

// ---------------------------------------------------------------------------
// Result checking
// ---------------------------------------------------------------------------

/// Order-insensitive encoding of one cell: nested tables are encoded as the
/// sorted encodings of their rows, so equal row sets encode equally.
void EncodeCanonical(const Value& v, std::string* out) {
  if (!v.IsTable()) {
    EncodeValue(v, out);
    return;
  }
  std::vector<std::string> rows;
  for (const Tuple& t : v.AsTable().rows()) {
    std::string r;
    for (const Value& c : t) EncodeCanonical(c, &r);
    rows.push_back(std::move(r));
  }
  std::sort(rows.begin(), rows.end());
  out->push_back('[');
  for (const std::string& r : rows) {
    uint32_t n = static_cast<uint32_t>(r.size());
    out->append(reinterpret_cast<const char*>(&n), sizeof(n));
    out->append(r);
  }
  out->push_back(']');
}

/// Fingerprint of a table's row multiset: row count and a hash over the
/// sorted per-row hashes of the canonical row encodings.
struct RowSetFingerprint {
  int64_t rows = 0;
  uint64_t hash = 0;
  bool operator==(const RowSetFingerprint& o) const {
    return rows == o.rows && hash == o.hash;
  }
};

RowSetFingerprint Fingerprint(const Table& t) {
  std::vector<uint64_t> hashes;
  hashes.reserve(static_cast<size_t>(t.NumRows()));
  std::string buf;
  for (const Tuple& row : t.rows()) {
    buf.clear();
    for (const Value& c : row) EncodeCanonical(c, &buf);
    hashes.push_back(Fnv1a(kFnvBasis, buf.data(), buf.size()));
  }
  std::sort(hashes.begin(), hashes.end());
  return {t.NumRows(),
          Fnv1a(kFnvBasis, hashes.data(), hashes.size() * sizeof(uint64_t))};
}

// ---------------------------------------------------------------------------
// Statistics helpers
// ---------------------------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest sample with at least ten samples beyond it (the largest
/// sample when there are fewer than eleven).
double Tail(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v.size() > 10 ? v[v.size() - 11] : v.back();
}

/// The percentile Tail() reports for n samples.
double TailPercentile(size_t n) {
  return n > 10 ? 100.0 * static_cast<double>(n - 10) / static_cast<double>(n)
                : 100.0;
}

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

int64_t DirectoryBytes(const std::string& dir) {
  int64_t total = 0;
  std::error_code ec;
  for (const auto& e : fs::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) total += static_cast<int64_t>(e.file_size(ec));
  }
  return total;
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Read-path registry counters, read before and after the timed loop.
struct RegistryCounts {
  int64_t rows_scanned = 0;
  int64_t rows_emitted = 0;
  int64_t memo_hits = 0;
  int64_t memo_misses = 0;

  static RegistryCounts Read() {
    RegistryCounts c;
    c.rows_scanned = metrics::ExecutorRowsScanned()->Value();
    c.rows_emitted = metrics::ExecutorRowsEmitted()->Value();
    c.memo_hits = metrics::ContainmentMemoHits()->Value();
    c.memo_misses = metrics::ContainmentMemoMisses()->Value();
    return c;
  }
  RegistryCounts operator-(const RegistryCounts& o) const {
    return {rows_scanned - o.rows_scanned, rows_emitted - o.rows_emitted,
            memo_hits - o.memo_hits, memo_misses - o.memo_misses};
  }
};

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

struct Store {
  std::string dir;
  std::shared_ptr<Document> doc;
  std::shared_ptr<Summary> summary;
  std::unique_ptr<ViewCatalog> catalog;
  int64_t updates_applied = 0;  // selects the kind of the next update
  std::optional<OrdPath> fresh;  // the inserted item the next update deletes
  Rng update_rng{0};  // picks update anchors (input generation)
  int updates_since_checkpoint = 0;
};

ViewCatalogOptions CatalogOptions(const WorkloadSpec& spec,
                                  const std::string& dir) {
  ViewCatalogOptions o;
  o.dir = dir;
  o.enable_delta_log = true;
  o.memory_budget_bytes = spec.budget_bytes;
  return o;
}

/// Generate, summarize, materialize, save and reopen the store: the work
/// before the first query can be served. Records the phases as spans of
/// operation `op` and returns the elapsed seconds in *seconds.
Result<Store> SetUp(const WorkloadSpec& spec, uint64_t seed,
                    const std::string& dir, SpanLog* log, int64_t op,
                    double* seconds, std::string* failure) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  Store st;
  st.dir = dir;
  st.update_rng = Rng(seed * 0xD1B54A32D192ED03ULL + 7);
  Timer timer;
  int32_t root = log->Open("setup", -1, op);

  int32_t s = log->Open("workload.generate", root, op);
  XmarkOptions xo;
  xo.scale = spec.scale;
  xo.seed = seed;
  st.doc = std::shared_ptr<Document>(GenerateXmark(xo));
  log->Close(s);

  s = log->Open("summary.build", root, op);
  st.summary = std::shared_ptr<Summary>(SummaryBuilder::Build(st.doc.get()));
  log->Close(s);

  s = log->Open("viewstore.materialize", root, op);
  std::vector<ViewDef> defs = BuildBaseTagViews(*st.summary);
  for (const auto& v : kStructuredViews) {
    defs.push_back({v[0], MustParsePattern(v[1])});
  }
  ViewCatalog writer(CatalogOptions(spec, dir));
  for (const ViewDef& d : defs) {
    Status m = writer.Materialize(d, *st.doc);
    if (!m.ok()) return m;
  }
  log->Close(s);

  s = log->Open("viewstore.save", root, op);
  Status saved = writer.Save();
  if (!saved.ok()) return saved;
  log->Close(s);

  s = log->Open("viewstore.load", root, op);
  st.catalog = std::make_unique<ViewCatalog>(CatalogOptions(spec, dir));
  Status loaded = st.catalog->Load(st.doc, st.summary);
  if (!loaded.ok()) return loaded;
  log->Close(s);
  log->Close(root);
  *seconds = timer.ElapsedMillis() / 1000.0;

  // Untimed: the reopened store must hold exactly what was materialized.
  for (const auto& v : writer.views()) {
    const StoredView* r = st.catalog->Find(v->def.name);
    if (r == nullptr ||
        SerializeExtent(r->extent()) != SerializeExtent(v->extent())) {
      *failure = "reopened store differs from the materialized view " +
                 v->def.name;
    }
  }
  return st;
}

// ---------------------------------------------------------------------------
// The workload loop
// ---------------------------------------------------------------------------

/// Everything one pass over the operation sequence measured.
struct PassResult {
  std::vector<double> setup_s;
  std::vector<double> query_ms;
  std::vector<int> query_of_sample;  // query index of each query_ms sample
  std::vector<double> update_ms;
  int64_t queries = 0;
  int64_t updates = 0;       // all timed updates, the twin's included
  int64_t twin_updates = 0;
  int64_t unanswered = 0;
  int64_t errors = 0;
  int64_t wrong = 0;
  int64_t verified = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t cache_invalidations = 0;
  int64_t truncated = 0;
  int64_t time_budget = 0;
  int64_t plans_generated = 0;
  int64_t plans_dominated = 0;
  int64_t equivalence_tests = 0;
  int64_t candidates_pruned = 0;
  int64_t rows_returned = 0;
  int64_t views_touched = 0;
  int64_t views_rebuilt = 0;
  int64_t views_shared = 0;
  int64_t tuples_changed = 0;
  int64_t checkpoints = 0;
  int64_t checkpoint_bytes = 0;
  int64_t update_wal_bytes = 0;
  int64_t update_epochs = 0;
  RegistryCounts loop;  // registry deltas over the timed loop
  int64_t evictions = 0;  // the served store's budget, over the loop
  int64_t reloads = 0;
  double resident_mb = 0;
  double store_mb = 0;
  double loop_busy_ms = 0;    // sum of all timed-loop operation latencies
  double served_busy_ms = 0;  // the same over queries and loop updates
  // Wall time of the phases of a pass, timed or not, in seconds.
  double prepare_wall_s = 0;  // set-up, twin set-up and warm-up
  double loop_wall_s = 0;     // the timed loop, with the checks inside it
  double verify_wall_s = 0;   // result checks, inside and outside the loop
  double check_wall_s = 0;    // the store checks after the loop
  std::vector<std::string> failures;
  uint64_t sequence_fp = 0;
  uint64_t document_fp = 0;
  size_t sequence_len = 0;
};

class Runner {
 public:
  /// Stores live in directories under `root`.
  Runner(const WorkloadSpec& spec, uint64_t seed, const std::string& root,
         const std::vector<Query>& queries, SpanLog* log, PassResult* out)
      : spec_(spec),
        seed_(seed),
        root_(root),
        dir_(root + "/served"),
        queries_(queries),
        log_(log),
        out_(out),
        item_(MustParseTree(kInsertedItem)) {}

  /// Set-up, warm-up, the timed loop of `rounds` rounds, then the store
  /// checks. Returns false when the run stopped early; every reason is in
  /// the PassResult's failures.
  bool Run(int setup_repeats, int rounds) {
    Timer phase;
    if (!TimedSetUp(dir_, 0, &store_)) return false;
    out_->document_fp = DocumentFingerprint(*store_.doc);
    Store* writes = &store_;
    if (spec_.twin_updates_per_round > 0) {
      SpanLog quiet(false);
      double secs = 0;
      std::string failure;
      Result<Store> st =
          SetUp(spec_, seed_, root_ + "/twin", &quiet, 0, &secs, &failure);
      if (!st.ok()) return Fail("twin setup: " + st.status().ToString());
      if (!failure.empty()) return Fail(failure);
      twin_ = std::move(*st);
      writes = &twin_;
    }

    // Warm-up, untimed: one update (the first maintenance pass builds
    // per-view caches), then one round of queries.
    if (!DoUpdate(writes, -1, nullptr)) return false;
    for (int q = 0; q < static_cast<int>(queries_.size()); ++q) {
      if (!DoQuery(-1, q, nullptr)) return false;
    }

    std::vector<Op> ops = BuildSequence(spec_, seed_, rounds,
                                        static_cast<int>(queries_.size()));
    out_->sequence_fp = SequenceFingerprint(ops);
    out_->sequence_len = ops.size();
    out_->prepare_wall_s = phase.ElapsedMillis() / 1000.0;
    phase.Reset();
    RegistryCounts before = RegistryCounts::Read();
    const MemoryBudget& budget = *store_.catalog->memory_budget();
    const int64_t evictions0 = budget.evictions();
    const int64_t reloads0 = budget.reloads();
    const int64_t invalidations0 =
        static_cast<int64_t>(store_.catalog->rewrite_cache()->invalidations());
    // The other set-up repetitions run between operations at even spacing,
    // so that setup_s samples the machine at several points of the run
    // rather than in one burst. Their stores are discarded.
    int setups_done = 1;
    for (size_t i = 0; i < ops.size(); ++i) {
      if (setups_done < setup_repeats &&
          i * static_cast<size_t>(setup_repeats) >=
              ops.size() * static_cast<size_t>(setups_done)) {
        Store discarded;
        if (!TimedSetUp(root_ + "/setup", setups_done, &discarded)) {
          return false;
        }
        ++setups_done;
      }
      const int64_t id = static_cast<int64_t>(i);
      const Op& op = ops[i];
      bool ok = true;
      if (op.kind == Op::Kind::kQuery) {
        ok = DoQuery(id, op.query, &out_->query_ms);
      } else {
        ok = DoUpdate(op.kind == Op::Kind::kUpdate ? &store_ : &twin_, id,
                      &out_->update_ms);
      }
      if (!ok) return false;
      out_->loop_busy_ms += last_op_ms_;
      if (op.kind != Op::Kind::kTwinUpdate) {
        out_->served_busy_ms += last_op_ms_;
      } else {
        ++out_->twin_updates;
      }
    }
    out_->loop = RegistryCounts::Read() - before;
    out_->evictions = budget.evictions() - evictions0;
    out_->reloads = budget.reloads() - reloads0;
    out_->cache_invalidations =
        static_cast<int64_t>(store_.catalog->rewrite_cache()->invalidations()) -
        invalidations0;
    out_->updates = static_cast<int64_t>(out_->update_ms.size());
    out_->resident_mb =
        static_cast<double>(store_.catalog->memory_budget()->resident_bytes()) /
        (1024.0 * 1024.0);
    out_->store_mb = static_cast<double>(DirectoryBytes(dir_)) /
                     (1024.0 * 1024.0);
    out_->loop_wall_s = phase.ElapsedMillis() / 1000.0;
    phase.Reset();
    CheckStore(*writes);
    out_->check_wall_s = phase.ElapsedMillis() / 1000.0;
    return true;
  }

 private:
  static std::unique_ptr<Document> MustParseTree(const char* text) {
    Result<std::unique_ptr<Document>> r = ParseTreeNotation(text);
    if (!r.ok()) {
      std::fprintf(stderr, "bad tree: %s\n", r.status().ToString().c_str());
      std::abort();
    }
    return std::move(r).value();
  }

  /// One timed set-up into `dir` (repetition `rep`), recorded in setup_s.
  bool TimedSetUp(const std::string& dir, int rep, Store* out) {
    double secs = 0;
    std::string failure;
    Result<Store> st = SetUp(spec_, seed_, dir, log_, -1 - rep, &secs,
                             &failure);
    if (!st.ok()) return Fail("setup: " + st.status().ToString());
    if (!failure.empty()) return Fail(failure);
    out_->setup_s.push_back(secs);
    *out = std::move(*st);
    return true;
  }

  bool Fail(const std::string& why) {
    out_->failures.push_back(why);
    return false;
  }

  void NoteWrong(const std::string& why) {
    ++out_->wrong;
    if (out_->failures.size() < 20) out_->failures.push_back(why);
  }

  /// One query. `sink` receives the latency (null during warm-up, which
  /// also skips the counters). Returns false only on a fatal error.
  bool DoQuery(int64_t op, int q, std::vector<double>* sink) {
    last_op_ms_ = 0;
    const bool timed = sink != nullptr;
    Timer timer;
    int32_t root = timed ? log_->Open("query", -1, op) : -1;

    int32_t s = timed ? log_->Open("viewstore.snapshot", root, op) : -1;
    RewriterOptions opts;
    opts.max_results = 1;
    std::shared_ptr<const CatalogSnapshot> snap = store_.catalog->Snapshot();
    opts.cost_model = &snap->cost_model();
    opts.memo = snap->containment_memo();
    std::shared_ptr<const ViewIndex> index =
        snap->ViewIndexFor(*snap->summary(), opts.expansion);
    opts.shared_view_index = index.get();
    log_->Close(s);

    s = timed ? log_->Open("rewriting.setup", root, op) : -1;
    Rewriter rewriter(*snap->summary(), opts);
    for (const auto& v : snap->views()) rewriter.AddView(v->def);
    log_->Close(s);

    s = timed ? log_->Open("rewriting.search", root, op) : -1;
    RewriteStats stats;
    Result<std::vector<Rewriting>> rws = CachedRewrite(
        snap->rewrite_cache(), &rewriter, queries_[static_cast<size_t>(q)].pattern,
        &stats);
    const bool hit = stats.rewrite_cache_hits > 0;
    log_->Close(s, hit ? "viewstore.rewrite_cache.hit" : nullptr);

    std::optional<Result<Table>> rows;
    if (rws.ok() && !rws->empty()) {
      s = timed ? log_->Open("algebra.execute", root, op) : -1;
      rows.emplace(Execute(*rws->front().plan, snap->ExecutorCatalog()));
      log_->Close(s);
    }
    log_->Close(root);
    const double ms = timer.ElapsedMillis();
    last_op_ms_ = ms;

    // ---- untimed bookkeeping and checks ----
    const std::string& qname = queries_[static_cast<size_t>(q)].name;
    if (!rws.ok() || (rows.has_value() && !rows->ok())) {
      if (timed) ++out_->errors;
      out_->failures.push_back(
          qname + ": " +
          (!rws.ok() ? rws.status().ToString() : rows->status().ToString()));
      return timed;  // an error in the timed loop is counted, not fatal
    }
    if (timed) {
      sink->push_back(ms);
      out_->query_of_sample.push_back(q);
      ++out_->queries;
      if (hit) {
        ++out_->cache_hits;
      } else {
        ++out_->cache_misses;
        out_->truncated += stats.search_truncated ? 1 : 0;
        out_->time_budget += stats.time_budget_hit ? 1 : 0;
        out_->plans_generated += static_cast<int64_t>(stats.plans_generated);
        out_->plans_dominated += static_cast<int64_t>(stats.plans_dominated);
        out_->equivalence_tests +=
            static_cast<int64_t>(stats.equivalence_tests);
        out_->candidates_pruned +=
            static_cast<int64_t>(stats.candidates_pruned);
      }
      if (!rows.has_value()) ++out_->unanswered;
    }
    if (rows.has_value()) {
      if (timed) out_->rows_returned += (*rows)->NumRows();
      Verify(q, *snap, **rows);
    }
    return true;
  }

  /// Compares a query result with direct evaluation of the query on the
  /// document of the epoch it ran against.
  void Verify(int q, const CatalogSnapshot& snap, const Table& result) {
    Timer timer;
    const uint64_t key = snap.epoch() * 64 + static_cast<uint64_t>(q);
    Reference& ref = references_[key];
    if (!ref.computed) {
      ref.fp = Fingerprint(MaterializeView(
          queries_[static_cast<size_t>(q)].pattern, "Q", *snap.document()));
      ref.computed = true;
    }
    ++out_->verified;
    if (!(Fingerprint(result) == ref.fp)) {
      NoteWrong(StrFormat("%s on epoch %llu: %lld rows, expected %lld",
                          queries_[static_cast<size_t>(q)].name.c_str(),
                          static_cast<unsigned long long>(snap.epoch()),
                          static_cast<long long>(result.NumRows()),
                          static_cast<long long>(ref.fp.rows)));
    }
    out_->verify_wall_s += timer.ElapsedMillis() / 1000.0;
  }

  /// One update of `st`: xml update → summary rebuild → ApplyUpdate →
  /// checkpoint when due. Anchor choice is input generation and stays
  /// untimed.
  bool DoUpdate(Store* st, int64_t op, std::vector<double>* sink) {
    const bool timed = sink != nullptr;
    UpdatePick pick = PickItemUpdate(*st->doc, st->updates_applied++,
                                     &st->fresh, &st->update_rng);
    const int64_t wal0 = metrics::WalBytesWritten()->Value();
    const int64_t epochs0 = metrics::EpochPublishes()->Value();

    Timer timer;
    int32_t root = timed ? log_->Open("update", -1, op) : -1;
    int32_t s = timed ? log_->Open("xml.update", root, op) : -1;
    Result<UpdateResult> up =
        pick.remove ? DeleteSubtree(*st->doc, pick.target)
                    : InsertSubtree(*st->doc, pick.target, *item_,
                                    pick.before ? &*pick.before : nullptr);
    log_->Close(s);
    if (!up.ok()) return Fail("xml update: " + up.status().ToString());
    if (!pick.remove) st->fresh = up->delta.region;
    std::shared_ptr<Document> next_doc(std::move(up->doc));

    s = timed ? log_->Open("summary.rebuild", root, op) : -1;
    std::shared_ptr<Summary> next_summary(
        SummaryBuilder::Build(next_doc.get()));
    log_->Close(s);

    s = timed ? log_->Open("viewstore.apply_update", root, op) : -1;
    MaintenanceStats ms;
    Status applied =
        st->catalog->ApplyUpdate(up->delta, next_doc, next_summary, &ms);
    log_->Close(s);
    if (!applied.ok()) return Fail("apply update: " + applied.ToString());
    st->doc = std::move(next_doc);
    st->summary = std::move(next_summary);

    if (++st->updates_since_checkpoint == spec_.checkpoint_every) {
      st->updates_since_checkpoint = 0;
      const int64_t bytes0 = metrics::PersistBytesWritten()->Value();
      s = timed ? log_->Open("viewstore.checkpoint", root, op) : -1;
      Status saved = st->catalog->Save();
      log_->Close(s);
      if (!saved.ok()) return Fail("checkpoint: " + saved.ToString());
      if (timed) {
        ++out_->checkpoints;
        out_->checkpoint_bytes += metrics::PersistBytesWritten()->Value() - bytes0;
      }
    }
    log_->Close(root);
    const double ms_elapsed = timer.ElapsedMillis();
    last_op_ms_ = ms_elapsed;
    if (timed) {
      sink->push_back(ms_elapsed);
      out_->views_touched += ms.views_touched;
      out_->views_rebuilt += ms.views_rebuilt;
      out_->views_shared += ms.views_shared;
      out_->tuples_changed += ms.tuples_inserted + ms.tuples_deleted;
      out_->update_wal_bytes += metrics::WalBytesWritten()->Value() - wal0;
      out_->update_epochs += metrics::EpochPublishes()->Value() - epochs0;
    }
    return true;
  }

  /// Untimed checks of the update path: every maintained extent equals a
  /// fresh materialization over the final document, and reopening the
  /// store (replaying the WAL) reproduces every extent byte for byte.
  void CheckStore(const Store& st) {
    const ViewCatalog& live = *st.catalog;
    for (const auto& v : live.views()) {
      Table fresh = MaterializeView(v->def.pattern, v->def.name, *st.doc);
      fresh.SortRowsCanonical();
      if (SerializeExtent(fresh) != SerializeExtent(v->extent())) {
        NoteWrong("maintained extent differs from rematerialization: " +
                  v->def.name);
      }
    }
    ViewCatalog reopened(CatalogOptions(spec_, st.dir));
    Status loaded = reopened.Load(st.doc, st.summary);
    if (!loaded.ok()) {
      NoteWrong("reopen: " + loaded.ToString());
      return;
    }
    if (reopened.size() != live.size()) NoteWrong("reopen: view count differs");
    for (const auto& v : live.views()) {
      const StoredView* r = reopened.Find(v->def.name);
      if (r == nullptr ||
          SerializeExtent(r->extent()) != SerializeExtent(v->extent())) {
        NoteWrong("recovered extent differs from the live one: " +
                  v->def.name);
      }
    }
  }

  struct Reference {
    bool computed = false;
    RowSetFingerprint fp;
  };

  const WorkloadSpec& spec_;
  const uint64_t seed_;
  const std::string root_;
  const std::string dir_;
  const std::vector<Query>& queries_;
  SpanLog* const log_;
  PassResult* const out_;
  std::unique_ptr<Document> item_;
  Store store_;  // the store queries are served from
  Store twin_;   // read-only workloads: the store updates are applied to
  double last_op_ms_ = 0;
  std::unordered_map<uint64_t, Reference> references_;
};

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

class Report {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    metrics_.push_back({name, value, unit});
  }

  void Print() const {
    for (const Metric& m : metrics_) {
      std::printf("  %-42s %16.6f %s\n", m.name.c_str(), m.value, m.unit);
    }
  }

  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      out += StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                       i == 0 ? "" : ", ", m.name.c_str(),
                       std::isfinite(m.value) ? m.value : 0.0, m.unit);
    }
    return out + "}";
  }

 private:
  struct Metric {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Metric> metrics_;
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

void AddEndToEnd(const PassResult& p, Report* r) {
  r->Add("setup_s", Median(p.setup_s), "s");
  r->Add("query_p50_ms", Median(p.query_ms), "ms");
  r->Add("query_tail_ms", Tail(p.query_ms), "ms");
  r->Add("ops_per_s",
         Ratio(static_cast<double>(p.queries + p.updates - p.twin_updates),
               p.served_busy_ms / 1000.0),
         "1/s");
  r->Add("update_p50_ms", Median(p.update_ms), "ms");
  r->Add("update_tail_ms", Tail(p.update_ms), "ms");
  r->Add("answered_frac",
         1.0 - Ratio(static_cast<double>(p.unanswered),
                     static_cast<double>(p.queries)),
         "ratio");
  r->Add("peak_rss_mb", PeakRssMb(), "MB");
  r->Add("store_mb", p.store_mb, "MB");
}

void AddPerLayer(const PassResult& p, const SpanLog& log, Report* r) {
  std::map<std::string, std::vector<double>> ns;  // timed-loop spans by name
  std::map<std::string, std::vector<double>> setup_ns;
  for (const Span& s : log.spans()) {
    (s.op < 0 ? setup_ns : ns)[s.name].push_back(
        static_cast<double>(s.end_ns - s.start_ns));
  }
  auto setup_s = [&](const char* name) {
    return Median(setup_ns[name]) / 1e9;
  };
  auto p50 = [&](const char* name, double div) {
    return Median(ns[name]) / div;
  };
  auto total_ms = [&](const char* name) { return Sum(ns[name]) / 1e6; };
  const double misses = static_cast<double>(p.cache_misses);
  const double queries = static_cast<double>(p.queries);
  const double updates = static_cast<double>(p.updates);
  const double query_ms = total_ms("query");

  r->Add("workload.generate_s", setup_s("workload.generate"), "s");
  r->Add("summary.build_s", setup_s("summary.build"), "s");
  r->Add("viewstore.materialize_s", setup_s("viewstore.materialize"), "s");
  r->Add("viewstore.save_s", setup_s("viewstore.save"), "s");
  r->Add("viewstore.load_s", setup_s("viewstore.load"), "s");

  r->Add("viewstore.snapshot_p50_us", p50("viewstore.snapshot", 1e3), "us");
  r->Add("rewriting.setup_p50_us", p50("rewriting.setup", 1e3), "us");
  r->Add("viewstore.rewrite_cache.hit_p50_us",
         p50("viewstore.rewrite_cache.hit", 1e3), "us");
  r->Add("viewstore.rewrite_cache.hit_ratio",
         Ratio(static_cast<double>(p.cache_hits), queries), "ratio");
  r->Add("viewstore.rewrite_cache.invalidations",
         static_cast<double>(p.cache_invalidations), "count");

  r->Add("rewriting.miss_p50_ms", p50("rewriting.search", 1e6), "ms");
  r->Add("rewriting.miss_ms_total", total_ms("rewriting.search"), "ms");
  r->Add("rewriting.share", Ratio(total_ms("rewriting.search"), query_ms),
         "ratio");
  r->Add("rewriting.plans_generated",
         Ratio(static_cast<double>(p.plans_generated), misses), "count");
  r->Add("rewriting.plans_dominated",
         Ratio(static_cast<double>(p.plans_dominated), misses), "count");
  r->Add("rewriting.equivalence_tests",
         Ratio(static_cast<double>(p.equivalence_tests), misses), "count");
  r->Add("rewriting.candidates_pruned",
         Ratio(static_cast<double>(p.candidates_pruned), misses), "count");
  r->Add("rewriting.truncated_frac",
         Ratio(static_cast<double>(p.truncated), misses), "ratio");
  r->Add("rewriting.time_budget_frac",
         Ratio(static_cast<double>(p.time_budget), misses), "ratio");
  r->Add("containment.memo_hit_ratio",
         Ratio(static_cast<double>(p.loop.memo_hits),
               static_cast<double>(p.loop.memo_hits + p.loop.memo_misses)),
         "ratio");

  r->Add("algebra.execute_p50_ms", p50("algebra.execute", 1e6), "ms");
  r->Add("algebra.execute_ms_total", total_ms("algebra.execute"), "ms");
  r->Add("algebra.share", Ratio(total_ms("algebra.execute"), query_ms),
         "ratio");
  r->Add("algebra.rows_emitted", static_cast<double>(p.loop.rows_emitted),
         "count");
  r->Add("algebra.rows_scanned_per_row",
         Ratio(static_cast<double>(p.loop.rows_scanned),
               static_cast<double>(p.rows_returned)),
         "ratio");

  r->Add("viewstore.budget.evictions", static_cast<double>(p.evictions),
         "count");
  r->Add("viewstore.budget.reloads", static_cast<double>(p.reloads), "count");
  r->Add("viewstore.budget.resident_mb", p.resident_mb, "MB");

  r->Add("xml.update_p50_ms", p50("xml.update", 1e6), "ms");
  r->Add("summary.rebuild_p50_ms", p50("summary.rebuild", 1e6), "ms");
  r->Add("viewstore.apply_update_p50_ms", p50("viewstore.apply_update", 1e6),
         "ms");
  r->Add("maintenance.views_touched",
         Ratio(static_cast<double>(p.views_touched), updates), "count");
  r->Add("maintenance.views_rebuilt",
         Ratio(static_cast<double>(p.views_rebuilt), updates), "count");
  r->Add("maintenance.views_shared",
         Ratio(static_cast<double>(p.views_shared), updates), "count");
  r->Add("maintenance.tuples_changed",
         Ratio(static_cast<double>(p.tuples_changed), updates), "count");
  r->Add("viewstore.wal_bytes_per_update",
         Ratio(static_cast<double>(p.update_wal_bytes), updates), "B");
  r->Add("viewstore.epochs_published", static_cast<double>(p.update_epochs),
         "count");
  r->Add("viewstore.checkpoint_p50_ms", p50("viewstore.checkpoint", 1e6),
         "ms");
  r->Add("viewstore.checkpoint_bytes",
         Ratio(static_cast<double>(p.checkpoint_bytes),
               static_cast<double>(p.checkpoints)),
         "B");
}

/// Per-layer self time over the timed operations, and the remainder no
/// layer span covers; the rows add up to the operations' total time.
void PrintSelfTimes(const SpanLog& log) {
  for (const char* root : {"query", "update"}) {
    std::map<std::string, int64_t> self = log.SelfTimes(root);
    int64_t total = 0;
    for (const auto& [name, v] : self) total += v;
    if (total == 0) continue;
    std::printf("self time of %s operations (%.3f ms total):\n", root,
                static_cast<double>(total) / 1e6);
    for (const auto& [name, v] : self) {
      std::printf("  %-34s %12.3f ms %6.2f%%\n",
                  name == root ? "(unattributed remainder)" : name.c_str(),
                  static_cast<double>(v) / 1e6,
                  100.0 * static_cast<double>(v) / static_cast<double>(total));
    }
  }
}

void PrintCounts(const PassResult& p) {
  std::printf(
      "counts: sequence=%016llx ops=%zu document=%016llx queries=%lld "
      "updates=%lld unanswered=%lld errors=%lld "
      "wrong=%lld verified=%lld cache_hits=%lld cache_misses=%lld "
      "invalidations=%lld truncated=%lld plans_generated=%lld "
      "plans_dominated=%lld equivalence_tests=%lld rows_returned=%lld "
      "rows_emitted=%lld rows_scanned=%lld evictions=%lld reloads=%lld "
      "tuples_changed=%lld views_touched=%lld wal_bytes=%lld "
      "checkpoints=%lld checkpoint_bytes=%lld\n",
      static_cast<unsigned long long>(p.sequence_fp), p.sequence_len,
      static_cast<unsigned long long>(p.document_fp),
      static_cast<long long>(p.queries), static_cast<long long>(p.updates),
      static_cast<long long>(p.unanswered), static_cast<long long>(p.errors),
      static_cast<long long>(p.wrong), static_cast<long long>(p.verified),
      static_cast<long long>(p.cache_hits),
      static_cast<long long>(p.cache_misses),
      static_cast<long long>(p.cache_invalidations),
      static_cast<long long>(p.truncated),
      static_cast<long long>(p.plans_generated),
      static_cast<long long>(p.plans_dominated),
      static_cast<long long>(p.equivalence_tests),
      static_cast<long long>(p.rows_returned),
      static_cast<long long>(p.loop.rows_emitted),
      static_cast<long long>(p.loop.rows_scanned),
      static_cast<long long>(p.evictions),
      static_cast<long long>(p.reloads),
      static_cast<long long>(p.tuples_changed),
      static_cast<long long>(p.views_touched),
      static_cast<long long>(p.update_wal_bytes),
      static_cast<long long>(p.checkpoints),
      static_cast<long long>(p.checkpoint_bytes));
}

/// Per-query latency classes, and the queries around the samples the
/// median and the tail pick: a percentile that sits where one class ends
/// and the next begins would jump between them from run to run.
void PrintQueryClasses(const PassResult& p, const std::vector<Query>& queries) {
  std::vector<std::vector<double>> per(queries.size());
  for (size_t i = 0; i < p.query_ms.size(); ++i) {
    per[static_cast<size_t>(p.query_of_sample[i])].push_back(p.query_ms[i]);
  }
  std::printf("%-5s %6s %12s %12s %12s\n", "query", "runs", "min(ms)",
              "p50(ms)", "max(ms)");
  for (size_t q = 0; q < queries.size(); ++q) {
    if (per[q].empty()) continue;
    std::printf("%-5s %6zu %12.3f %12.3f %12.3f\n", queries[q].name.c_str(),
                per[q].size(), *std::min_element(per[q].begin(), per[q].end()),
                Median(per[q]),
                *std::max_element(per[q].begin(), per[q].end()));
  }
  std::vector<size_t> order(p.query_ms.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return p.query_ms[a] < p.query_ms[b];
  });
  const size_t n = order.size();
  if (n < 11) return;
  for (auto [label, at] : {std::pair<const char*, size_t>{"p50", (n - 1) / 2},
                           {"tail", n - 11}}) {
    std::printf("%s sample %zu of %zu, neighbours by rank:", label, at, n);
    for (size_t i = at >= 3 ? at - 3 : 0; i < std::min(n, at + 4); ++i) {
      std::printf(" %s%s", i == at ? "*" : "",
                  queries[static_cast<size_t>(p.query_of_sample[order[i]])]
                      .name.c_str());
    }
    std::printf("\n");
  }
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string store;
  std::string out;
};

int Usage() {
  std::fprintf(stderr,
               "usage: svx_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --store DIR [--out DIR]\n");
  return 2;
}

int Main(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      std::optional<int64_t> s = ParseInt64(v);
      if (!s.has_value() || *s < 0) return Usage();
      a.seed = static_cast<uint64_t>(*s);
    } else if (k == "--seconds") {
      std::optional<double> s = ParseDouble(v);
      if (!s.has_value() || *s <= 0) return Usage();
      a.seconds = *s;
    } else if (k == "--trace") {
      a.trace = std::strcmp(v, "1") == 0;
    } else if (k == "--store") {
      a.store = v;
    } else if (k == "--out") {
      a.out = v;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || a.store.empty()) return Usage();
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (a.workload == w.name) spec = &w;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
    return Usage();
  }
  metrics::RegisterStandardMetrics();
  const std::vector<Query> queries = BuildQueries();
  const int rounds = std::max(
      1, static_cast<int>(std::lround(a.seconds * spec->rounds_per_second)));
  std::printf("workload %s: scale %g, seed %llu, %d rounds of %zu queries, "
              "budget %lld B, trace %d\n",
              spec->name, spec->scale,
              static_cast<unsigned long long>(a.seed), rounds, queries.size(),
              static_cast<long long>(spec->budget_bytes), a.trace ? 1 : 0);

  // The untraced pass: end-to-end metrics (or, with --trace 1, the
  // reference the traced pass's overhead is measured against).
  PassResult plain;
  {
    SpanLog off(false);
    Runner runner(*spec, a.seed, a.store, queries, &off, &plain);
    runner.Run(spec->setup_repeats, rounds);
  }
  PassResult traced;
  SpanLog log(true);
  if (a.trace && plain.failures.empty()) {
    Runner runner(*spec, a.seed, a.store, queries, &log, &traced);
    runner.Run(spec->setup_repeats, rounds);
  }
  const PassResult& p = a.trace ? traced : plain;
  PrintQueryClasses(p, queries);
  PrintCounts(p);
  std::printf("wall: prepare %.2f s, loop %.2f s (operations %.2f s, result "
              "checks %.2f s), store checks %.2f s\n",
              p.prepare_wall_s, p.loop_wall_s, p.loop_busy_ms / 1000.0,
              p.verify_wall_s, p.check_wall_s);
  for (const std::string& f : plain.failures) {
    std::fprintf(stderr, "FAIL: %s\n", f.c_str());
  }
  for (const std::string& f : traced.failures) {
    std::fprintf(stderr, "FAIL (traced): %s\n", f.c_str());
  }

  const int64_t attempted = plain.queries + plain.updates + plain.errors +
                            traced.queries + traced.updates + traced.errors;
  const int64_t failed = plain.errors + plain.wrong + traced.errors +
                         traced.wrong;
  const bool correct = plain.failures.empty() && traced.failures.empty() &&
                       plain.queries > 0;

  Report report;
  if (!a.trace) {
    AddEndToEnd(p, &report);
  } else {
    AddPerLayer(p, log, &report);
    PrintSelfTimes(log);
    const double overhead =
        100.0 * (Ratio(traced.loop_busy_ms, plain.loop_busy_ms) - 1.0);
    std::printf("tracing overhead: traced loop %.3f ms vs untraced %.3f ms "
                "(%+.2f%%), %zu spans\n",
                traced.loop_busy_ms, plain.loop_busy_ms, overhead,
                log.spans().size());
    if (!a.out.empty()) {
      std::error_code ec;
      fs::create_directories(a.out, ec);
      std::string path = StrFormat("%s/spans-%s-seed%llu.jsonl", a.out.c_str(),
                                   spec->name,
                                   static_cast<unsigned long long>(a.seed));
      if (log.WriteJsonLines(path)) std::printf("wrote %s\n", path.c_str());
    }
  }
  std::printf("error_frac %.6f (%lld of %lld operations); unanswered_frac "
              "%.6f; query tail is p%.2f of %zu samples; update tail is "
              "p%.2f of %zu samples\n",
              Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
              static_cast<long long>(failed), static_cast<long long>(attempted),
              Ratio(static_cast<double>(p.unanswered),
                    static_cast<double>(p.queries)),
              TailPercentile(p.query_ms.size()), p.query_ms.size(),
              TailPercentile(p.update_ms.size()), p.update_ms.size());
  report.Print();
  std::printf("RESULT {\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed), report.Json().c_str());
  std::error_code ec;
  fs::remove_all(a.store, ec);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace svx::perfbench

int main(int argc, char** argv) { return svx::perfbench::Main(argc, argv); }
