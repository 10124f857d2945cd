#include "src/viewstore/view_catalog.h"

#include <algorithm>
#include <array>
#include <filesystem>
#include <map>
#include <numeric>
#include <optional>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "src/maintenance/delta_evaluator.h"
#include "src/pattern/pattern_parser.h"
#include "src/pattern/pattern_printer.h"
#include "src/util/check.h"
#include "src/util/fileio.h"
#include "src/util/json_writer.h"
#include "src/util/strings.h"
#include "src/util/timer.h"
#include "src/viewstore/extent_io.h"

namespace svx {

namespace {

namespace fs = std::filesystem;

constexpr std::string_view kManifestHeaderV1 = "svx-viewstore 1";
constexpr std::string_view kManifestHeaderV2 = "svx-viewstore 2";
constexpr std::string_view kManifestHeaderV3 = "svx-viewstore 3";

bool SafeName(const std::string& name) {
  if (name.empty() || name.size() > 128) return false;
  for (char c : name) {
    // '@' and '#' appear in attribute/text labels ("B3_@category") and are
    // plain filename characters on POSIX.
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == '-' || c == '.' ||
              c == '@' || c == '#';
    if (!ok) return false;
  }
  return name[0] != '.';
}

/// Writes `bytes` to `path` via a temp file + rename, so readers (and
/// crash recovery) never observe a half-written file.
Status WriteFileAtomic(const fs::path& path, std::string_view bytes) {
  fs::path tmp = path;
  tmp += ".tmp";
  SVX_RETURN_IF_ERROR(WriteFileBytes(tmp.string(), bytes));
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    return Status::Internal("cannot rename " + tmp.string() + ": " +
                            ec.message());
  }
  return Status::OK();
}

std::string ExtentFileName(const StoredView& v) {
  return StrFormat("%s.%llu.extent", v.def.name.c_str(),
                   static_cast<unsigned long long>(v.generation));
}

std::string StatsFileName(const StoredView& v) {
  return StrFormat("%s.%llu.stats", v.def.name.c_str(),
                   static_cast<unsigned long long>(v.generation));
}

/// Removes every *.extent / *.stats / *.tmp file under `dir` that `live`
/// does not reference (replaced generations, dropped views, interrupted
/// temps). Best-effort.
void SweepUnreferenced(const std::string& dir,
                       const std::unordered_set<std::string>& live) {
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    if (ec) break;
    if (!entry.is_regular_file()) continue;
    std::string name = entry.path().filename().string();
    std::string ext = entry.path().extension().string();
    if (ext != ".extent" && ext != ".stats" && ext != ".tmp") continue;
    if (live.count(name) != 0) continue;
    std::error_code remove_ec;
    fs::remove(entry.path(), remove_ec);
  }
}

std::unordered_set<std::string> LiveFileSet(
    const std::vector<std::shared_ptr<const StoredView>>& views) {
  std::unordered_set<std::string> live{"manifest.txt"};
  for (const auto& v : views) {
    live.insert(ExtentFileName(*v));
    live.insert(StatsFileName(*v));
  }
  return live;
}

/// The document any content reference in `table` points into (deep),
/// nullptr when content-free — what the columnar extent decodes against.
const Document* FindContentDoc(const Table& table) {
  for (const Tuple& row : table.rows()) {
    for (const Value& v : row) {
      if (v.IsContent()) return v.AsContent().doc;
      if (v.IsTable()) {
        const Document* d = FindContentDoc(v.AsTable());
        if (d != nullptr) return d;
      }
    }
  }
  return nullptr;
}

/// Installs `extent` as `sv`'s stored representation: encodes the columnar
/// truth (sharing chunks unchanged since `prev`, when given), installs the
/// decoded table resident against `budget`, and records the byte sizes.
/// `extent_bytes` is the row-major serialized size — callers either track
/// it incrementally or pass ExtentByteSize(extent).
void SetExtent(StoredView* sv, Table extent, int64_t extent_bytes,
               const ColumnarExtent* prev,
               const std::shared_ptr<MemoryBudget>& budget) {
  sv->extent_bytes = extent_bytes;
  sv->decode_doc = FindContentDoc(extent);
  auto columnar = std::make_shared<ColumnarExtent>(
      prev != nullptr ? ColumnarExtent::EncodeSharing(extent, *prev)
                      : ColumnarExtent::Encode(extent));
  sv->compressed_bytes = columnar->SerializedByteSize();
  sv->columnar = std::move(columnar);
  sv->residency = std::make_shared<ExtentResidency>(budget);
  sv->residency->SetCompressedBytes(sv->compressed_bytes);
  sv->InstallResident(std::make_shared<Table>(std::move(extent)));
}

/// Installs a folded extent as `sv`'s stored representation: `columnar` is
/// ColumnarExtent::Fold of the previous epoch's extent, `rows` its decoded
/// form (content bound to `doc`), installed resident against `budget`.
void InstallFolded(StoredView* sv, Table rows, ColumnarExtent columnar,
                   const Document* doc,
                   const std::shared_ptr<MemoryBudget>& budget) {
  sv->decode_doc = columnar.has_content() ? doc : nullptr;
  sv->compressed_bytes = columnar.SerializedByteSize();
  sv->columnar = std::make_shared<ColumnarExtent>(std::move(columnar));
  sv->residency = std::make_shared<ExtentResidency>(budget);
  sv->residency->SetCompressedBytes(sv->compressed_bytes);
  sv->InstallResident(std::make_shared<Table>(std::move(rows)));
}

/// Wall time of one maintenance pass split by phase, each summed over the
/// views and steps it ran for. Reported once per pass: one pass-span child
/// and one svx_maintenance_phase_us observation per phase that ran.
class PhaseTimes {
 public:
  using Phase = metrics::MaintenancePhase;

  /// Adds the scope's duration to `phase`.
  class Scope {
   public:
    Scope(PhaseTimes* times, Phase phase) : times_(times), phase_(phase) {}
    ~Scope() { times_->Add(phase_, clock_.ElapsedMicros()); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    PhaseTimes* const times_;
    const Phase phase_;
    Timer clock_;
  };

  Scope Time(Phase phase) { return Scope(this, phase); }

  void Add(Phase phase, double us) {
    us_[static_cast<size_t>(phase)] += us;
    ran_[static_cast<size_t>(phase)] = true;
  }

  void Report(TraceSpan* pass_span) const {
    for (int i = 0; i < metrics::kMaintenancePhases; ++i) {
      if (!ran_[static_cast<size_t>(i)]) continue;
      const auto phase = static_cast<Phase>(i);
      const auto us = static_cast<int64_t>(us_[static_cast<size_t>(i)]);
      metrics::MaintenancePhaseUs(phase)->Observe(us);
      if (pass_span != nullptr) {
        pass_span->AddTimedChild(metrics::MaintenancePhaseName(phase), us);
      }
    }
  }

 private:
  std::array<double, metrics::kMaintenancePhases> us_{};
  std::array<bool, metrics::kMaintenancePhases> ran_{};
};

/// One view's rows during a maintenance pass. The stored extent is read
/// only when a step's diff is non-empty (Read), shared with the resident
/// table until a step changes it (Own), and changed by splicing each
/// step's delta in canonical order (Apply). Every row remembers which row
/// of the pre-pass extent it is (-1 for inserted rows), which is all
/// ColumnarExtent::Fold needs to fold the pass into the stored chunks.
class WorkingRows {
 public:
  explicit WorkingRows(const StoredView& view) : view_(view) {}

  /// The current rows. The first call pins the resident table, or decodes
  /// the columnar extent privately (counted as a reload) — the previous
  /// epoch's residency is left as it was.
  Result<const Table*> Read() {
    if (owned_.has_value()) return &*owned_;
    if (pinned_ == nullptr) pinned_ = view_.TryResident();
    if (pinned_ != nullptr) return pinned_.get();
    Timer timer;
    Result<Table> decoded = view_.columnar->Decode(view_.decode_doc);
    if (!decoded.ok()) return decoded.status();
    view_.residency->budget()->NoteReload(
        static_cast<int64_t>(timer.ElapsedMicros()));
    owned_ = std::move(decoded).value();
    return &*owned_;
  }

  /// Makes the rows private (copying a pinned resident table) and starts
  /// tracking row origins. Requires Read() first.
  void Own() {
    if (!owned_.has_value()) {
      owned_ = *pinned_;
      pinned_ = nullptr;
    }
    if (!tracking_) {
      tracking_ = true;
      base_rows_ = owned_->NumRows();
      origin_.resize(static_cast<size_t>(base_rows_));
      std::iota(origin_.begin(), origin_.end(), 0);
    }
  }

  /// Splices `td` (resolved against the current rows) in: drops its
  /// delete_rows and moves each insert before its insert_rows entry, in one
  /// pass that keeps canonical order. Requires Own().
  void Apply(TableDelta td) {
    std::vector<Tuple>& rows = owned_->mutable_rows();
    const size_t n = rows.size();
    std::vector<Tuple> out;
    std::vector<int64_t> origin;
    out.reserve(n - td.delete_rows.size() + td.inserts.size());
    origin.reserve(out.capacity());
    size_t d = 0;
    size_t k = 0;
    for (size_t i = 0; i <= n; ++i) {
      while (k < td.inserts.size() &&
             td.insert_rows[k] == static_cast<int64_t>(i)) {
        out.push_back(std::move(td.inserts[k++]));
        origin.push_back(-1);
      }
      if (i == n) break;
      if (d < td.delete_rows.size() &&
          td.delete_rows[d] == static_cast<int64_t>(i)) {
        ++d;
        continue;
      }
      out.push_back(std::move(rows[i]));
      origin.push_back(origin_[i]);
    }
    rows = std::move(out);
    origin_ = std::move(origin);
  }

  /// The private rows. Requires Own().
  Table& table() { return *owned_; }

  /// The pass as ColumnarExtent::Fold input against the pre-pass extent:
  /// the pre-pass rows no longer present, and the inserted rows at their
  /// final positions (borrowing table()'s rows).
  void FoldInput(std::vector<int64_t>* deleted,
                 std::vector<FoldInsert>* inserts) const {
    int64_t next = 0;  // surviving origins ascend: rows keep their order
    for (size_t i = 0; i < origin_.size(); ++i) {
      const auto row = static_cast<int64_t>(i);
      if (origin_[i] < 0) {
        inserts->push_back({row, &owned_->row(row)});
        continue;
      }
      for (; next < origin_[i]; ++next) deleted->push_back(next);
      next = origin_[i] + 1;
    }
    for (; next < base_rows_; ++next) deleted->push_back(next);
  }

 private:
  const StoredView& view_;
  TablePtr pinned_;
  std::optional<Table> owned_;
  bool tracking_ = false;
  int64_t base_rows_ = 0;
  std::vector<int64_t> origin_;
};

}  // namespace

ViewCatalog::ViewCatalog() : ViewCatalog(std::string()) {}

ViewCatalog::ViewCatalog(std::string dir)
    : ViewCatalog([&] {
        ViewCatalogOptions o;
        o.dir = std::move(dir);
        return o;
      }()) {}

ViewCatalog::ViewCatalog(ViewCatalogOptions options)
    : dir_(std::move(options.dir)),
      enable_delta_log_(options.enable_delta_log && !dir_.empty()),
      budget_(options.memory_budget != nullptr
                  ? std::move(options.memory_budget)
                  : std::make_shared<MemoryBudget>(
                        options.memory_budget_bytes)) {
  if (!dir_.empty()) {
    // Best effort: a missing or stale profile just keeps the baked fit.
    LoadCostProfile((fs::path(dir_) / "cost_profile.txt").string(),
                    &cost_constants_);
  }
  // NOLINTNEXTLINE(modernize-make-shared): private ctor, friend-only access.
  auto initial = std::shared_ptr<CatalogSnapshot>(new CatalogSnapshot());
  initial->epoch_ = next_epoch_++;
  cache_counters_ = std::make_shared<RewriteCache::Counters>();
  initial->rewrite_cache_ = std::make_shared<RewriteCache>(cache_counters_);
  initial->memo_ = std::make_shared<ContainmentMemo>();
  initial->indexes_ = std::make_shared<ViewIndexTable>();
  snapshot_ = std::move(initial);
}

void ViewCatalog::SetExtentPartition(
    std::shared_ptr<const ExtentPartition> partition) {
  MutexLock lock(&writer_mu_);
  partition_ = std::move(partition);
}

void ViewCatalog::SetShardLabel(int shard) {
  shard_.store(shard, std::memory_order_relaxed);
  if (shard >= 0) {
    // Resolve the labeled handles once: the maintenance hot path only loads
    // these atomics, never touching the registry mutex.
    shard_passes_.store(
        metrics::ShardCounter("svx_maintenance_passes_total", shard,
                              "Maintenance passes applied to this shard."),
        std::memory_order_release);
    shard_deltas_.store(
        metrics::ShardCounter("svx_deltas_applied_total", shard,
                              "Document deltas folded into this shard."),
        std::memory_order_release);
    shard_epoch_age_.store(metrics::ShardEpochAgeUs(shard),
                           std::memory_order_release);
  } else {
    shard_passes_.store(nullptr, std::memory_order_release);
    shard_deltas_.store(nullptr, std::memory_order_release);
    shard_epoch_age_.store(nullptr, std::memory_order_release);
  }
}

ViewCatalog::SummaryClass* ViewCatalog::InternLocked(
    std::shared_ptr<const Summary> summary, bool* reused) {
  const uint64_t hash = summary->StructuralHash();
  auto it = std::find_if(
      classes_.begin(), classes_.end(), [&](const SummaryClass& c) {
        return c.hash == hash && (c.summary == summary ||
                                  c.summary->StructurallyEquals(*summary));
      });
  *reused = it != classes_.end();
  if (*reused) {
    std::rotate(classes_.begin(), it, it + 1);
  } else {
    if (classes_.size() >= kSummaryClasses) classes_.pop_back();
    SummaryClass c;
    c.hash = hash;
    c.summary = std::move(summary);
    c.memo = std::make_shared<ContainmentMemo>();
    c.cache = std::make_shared<RewriteCache>(cache_counters_);
    c.indexes = std::make_shared<ViewIndexTable>();
    classes_.insert(classes_.begin(), std::move(c));
  }
  summary_classes_.store(static_cast<int64_t>(classes_.size()),
                         std::memory_order_relaxed);
  return &classes_.front();
}

void ViewCatalog::PublishLocked(
    std::vector<std::shared_ptr<const StoredView>> views,
    std::shared_ptr<const Document> doc,
    std::shared_ptr<const Summary> summary, bool doc_changed,
    bool views_changed) {
  std::shared_ptr<const CatalogSnapshot> old = Current();
  // NOLINTNEXTLINE(modernize-make-shared): private ctor, friend-only access.
  auto snap = std::shared_ptr<CatalogSnapshot>(new CatalogSnapshot());
  snap->epoch_ = next_epoch_++;
  snap->views_ = std::move(views);
  // A document change rebinds (even to null: the caller owns lifetimes
  // then); view-set-only mutations keep serving the same document.
  snap->doc_ = doc_changed ? std::move(doc) : old->doc_;
  // Cached rewritings and view indexes are built from the view
  // definitions: after a view-set change every class starts over, while
  // epochs already published keep the cache and indexes they hold. The
  // memos depend on the summary alone and stay.
  if (views_changed) {
    for (SummaryClass& c : classes_) {
      c.cache = std::make_shared<RewriteCache>(cache_counters_);
      c.indexes = std::make_shared<ViewIndexTable>();
    }
  }
  const SummaryClass* cls = nullptr;
  bool reused = false;
  if (doc_changed && summary != nullptr) {
    cls = InternLocked(std::move(summary), &reused);
  } else if (!doc_changed && old->summary_ != nullptr) {
    for (const SummaryClass& c : classes_) {
      if (c.summary == old->summary_) cls = &c;
    }
  }
  if (cls != nullptr) {
    snap->summary_ = cls->summary;
    snap->memo_ = cls->memo;
    snap->rewrite_cache_ = cls->cache;
    snap->indexes_ = cls->indexes;
  } else {
    // No class: a document change without a summary, or a view-set
    // mutation of an epoch that has none (or whose class was evicted).
    snap->summary_ = doc_changed ? nullptr : old->summary_;
    snap->memo_ =
        doc_changed ? std::make_shared<ContainmentMemo>() : old->memo_;
    snap->rewrite_cache_ = std::make_shared<RewriteCache>(cache_counters_);
    snap->indexes_ = std::make_shared<ViewIndexTable>();
  }
  if (reused) {
    summary_class_reuses_.fetch_add(1, std::memory_order_relaxed);
    metrics::SummaryClassReuses()->Add(1);
  }
  // An invalidation is a publish that leaves the served cache cold while
  // the predecessor's was warm. Moving to a kept class is not one: its
  // cache is as warm as that class left it.
  if ((views_changed || !reused) && old->rewrite_cache_->size() > 0) {
    metrics::InvalidationCause cause = metrics::InvalidationCause::kSummaryNew;
    if (views_changed) {
      cause = metrics::InvalidationCause::kViewSet;
    } else if (cls == nullptr) {
      cause = metrics::InvalidationCause::kNoSummary;
    }
    cache_counters_->invalidations.fetch_add(1);
    metrics::RewriteCacheInvalidations(cause)->Add(1);
  }
  snap->cost_model_.constants = cost_constants_;
  for (const auto& v : snap->views_) {
    snap->cost_model_.AddViewStats(v->def.name, v->stats);
  }
  // The successor is complete; the exclusive side of the epoch lock is
  // held only for this swap. The displaced epoch is released outside the
  // lock — when the writer holds its last reference, retiring it tears
  // down extents (possibly a whole document), which must not block
  // readers.
  const uint64_t published_epoch = snap->epoch_;
  std::shared_ptr<const CatalogSnapshot> retired;
  {
    WriterMutexLock lock(&snapshot_mu_);
    retired = std::move(snapshot_);
    snapshot_ = std::move(snap);
  }
  metrics::EpochCurrent()->Set(static_cast<int64_t>(published_epoch));
  metrics::EpochPublishes()->Add(1);
}

void ViewCatalog::BindDocument(std::shared_ptr<const Document> doc,
                               std::shared_ptr<const Summary> summary) {
  MutexLock lock(&writer_mu_);
  PublishLocked(Current()->views(), std::move(doc), std::move(summary),
                /*doc_changed=*/true, /*views_changed=*/false);
}

Status ViewCatalog::Materialize(const ViewDef& def, const Document& doc) {
  return Add(def, MaterializeView(def.pattern, def.name, doc));
}

Status ViewCatalog::Add(ViewDef def, Table extent) {
  if (!SafeName(def.name)) {
    return Status::InvalidArgument("view name not storable: " + def.name);
  }
  // The extent format cannot represent rows without columns; reject them
  // here so Save()/Load() round-trips everything this catalog accepts.
  if (extent.schema().size() == 0 && extent.NumRows() > 0) {
    return Status::InvalidArgument(
        "zero-column extent with rows is not storable: " + def.name);
  }
  MutexLock lock(&writer_mu_);
  if (partition_ != nullptr) partition_->Filter(def, &extent);
  extent.SortRowsCanonical();
  std::vector<std::shared_ptr<const StoredView>> next = Current()->views();
  // A replaced view's columnar extent seeds chunk sharing: re-adding an
  // equal extent keeps every column chunk (and its bytes) shared.
  const ColumnarExtent* prev = nullptr;
  for (const auto& v : next) {
    if (v->def.name == def.name) prev = v->columnar.get();
  }
  auto stored = std::make_shared<StoredView>();
  stored->def = std::move(def);
  const int64_t bytes = ExtentByteSize(extent);
  SetExtent(stored.get(), std::move(extent), bytes, prev, budget_);
  // Statistics come off the compressed chunks (dictionaries carry the
  // distinct counts and length bounds), not a row rescan.
  stored->stats = ComputeViewStats(*stored->columnar, stored->decode_doc);

  bool replaced = false;
  for (auto& v : next) {
    if (v->def.name == stored->def.name) {
      v = std::move(stored);
      replaced = true;
      break;
    }
  }
  if (!replaced) next.push_back(std::move(stored));
  PublishLocked(std::move(next), nullptr, nullptr, /*doc_changed=*/false,
                /*views_changed=*/true);
  if (enable_delta_log_) {
    // A view-set mutation changes what WAL replay must resolve by name;
    // checkpoint immediately so no log record can ever reference a view
    // the persisted manifest does not know.
    std::shared_ptr<const CatalogSnapshot> cur = Current();
    return PersistLocked(cur->views(), cur->epoch());
  }
  return Status::OK();
}

Status ViewCatalog::Drop(const std::string& name) {
  MutexLock lock(&writer_mu_);
  std::vector<std::shared_ptr<const StoredView>> next = Current()->views();
  auto it = std::find_if(next.begin(), next.end(),
                         [&](const auto& v) { return v->def.name == name; });
  if (it == next.end()) return Status::NotFound("no such view: " + name);
  next.erase(it);
  PublishLocked(std::move(next), nullptr, nullptr, /*doc_changed=*/false,
                /*views_changed=*/true);
  if (enable_delta_log_) {
    std::shared_ptr<const CatalogSnapshot> cur = Current();
    return PersistLocked(cur->views(), cur->epoch());
  }
  return Status::OK();
}

Status ViewCatalog::Save() const {
  if (dir_.empty()) return Status::InvalidArgument("catalog has no store dir");
  MutexLock lock(&writer_mu_);
  std::shared_ptr<const CatalogSnapshot> cur = Current();
  return PersistLocked(cur->views(), cur->epoch());
}

Status ViewCatalog::EnsureWalLocked() const {
  if (wal_ != nullptr && wal_->generation() == wal_generation_) {
    return Status::OK();
  }
  Result<std::unique_ptr<DeltaLog>> log = DeltaLog::Open(dir_, wal_generation_);
  if (!log.ok()) return log.status();
  wal_ = std::move(log).value();
  return Status::OK();
}

Status ViewCatalog::PersistLocked(
    const std::vector<std::shared_ptr<const StoredView>>& views,
    uint64_t epoch) const {
  if (dir_.empty()) return Status::InvalidArgument("catalog has no store dir");
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    return Status::Internal("cannot create store dir " + dir_ + ": " +
                            ec.message());
  }
  // Never-reuse is a cross-process property: a fresh catalog saving into a
  // directory another instance populated (without Load()ing it) must not
  // re-mint generations already on disk — overwriting "<name>.<gen>.extent"
  // in place would reopen the crash window the generations close. Seed the
  // counter past everything present, once per catalog.
  if (!generation_seeded_) {
    uint64_t max_gen = 0;
    for (const fs::directory_entry& entry : fs::directory_iterator(dir_, ec)) {
      if (ec) break;
      if (!entry.is_regular_file()) continue;
      std::string ext = entry.path().extension().string();
      if (ext != ".extent" && ext != ".stats") continue;
      std::string stem = entry.path().stem().string();  // "<name>.<gen>"
      size_t dot = stem.rfind('.');
      if (dot == std::string::npos) continue;  // version-1 unsuffixed file
      std::optional<int64_t> gen = ParseInt64(stem.substr(dot + 1));
      if (gen && *gen > 0) {
        max_gen = std::max(max_gen, static_cast<uint64_t>(*gen));
      }
    }
    next_generation_ = std::max(next_generation_, max_gen + 1);
    generation_seeded_ = true;
  }
  // Extents and stats first, each under a generation-suffixed name that no
  // previous save ever used (plus a temp + rename per file), the manifest
  // last: a crash anywhere mid-save leaves the previous manifest
  // referencing only complete files of the previous generations — file
  // names are never reused, so versions cannot mix.
  // The v3 manifest records the epoch its extents capture; in delta-log
  // mode it also advances the WAL segment floor past the current segment,
  // making this save the checkpoint that retires every earlier record.
  const uint64_t new_floor = wal_generation_ + 1;
  std::string manifest(kManifestHeaderV3);
  manifest.push_back('\n');
  manifest += StrFormat("epoch %llu\n", static_cast<unsigned long long>(epoch));
  if (enable_delta_log_) {
    manifest +=
        StrFormat("wal %llu\n", static_cast<unsigned long long>(new_floor));
  }
  for (const auto& v : views) {
    if (v->generation == 0 ||
        !fs::exists(fs::path(dir_) / ExtentFileName(*v)) ||
        !fs::exists(fs::path(dir_) / StatsFileName(*v))) {
      v->generation = next_generation_++;
      std::string extent_bytes =
          SerializeColumnarExtent(*v->columnar, v->extent_bytes);
      std::string stats_bytes = ViewStatsToString(v->stats);
      SVX_RETURN_IF_ERROR(
          WriteFileAtomic(fs::path(dir_) / ExtentFileName(*v), extent_bytes));
      SVX_RETURN_IF_ERROR(
          WriteFileAtomic(fs::path(dir_) / StatsFileName(*v), stats_bytes));
      metrics::PersistBytesWritten()->Add(
          static_cast<int64_t>(extent_bytes.size() + stats_bytes.size()));
      metrics::PersistFilesWritten()->Add(2);
    }
    manifest += StrFormat("view %s %llu %s\n", v->def.name.c_str(),
                          static_cast<unsigned long long>(v->generation),
                          PatternToString(v->def.pattern).c_str());
  }
  SVX_RETURN_IF_ERROR(
      WriteFileAtomic(fs::path(dir_) / "manifest.txt", manifest));
  metrics::PersistBytesWritten()->Add(static_cast<int64_t>(manifest.size()));
  metrics::PersistFilesWritten()->Add(1);
  SweepUnreferenced(dir_, LiveFileSet(views));
  // Rotate and truncate the delta log: the manifest (already flipped) names
  // `new_floor`, so records in the old segments can never replay again —
  // close the old segment, open the fresh one, sweep the rest. A crash
  // between the flip and the fresh segment's creation is safe: replay from
  // a floor with no segments is empty, and the extents are complete.
  wal_generation_ = new_floor;
  wal_floor_ = new_floor;
  wal_depth_.store(0, std::memory_order_relaxed);
  if (enable_delta_log_) {
    wal_.reset();
    SVX_RETURN_IF_ERROR(EnsureWalLocked());
  }
  DeltaLog::SweepSegments(dir_, new_floor);
  return Status::OK();
}

Status ViewCatalog::ApplyUpdate(const DocumentDelta& delta,
                                MaintenanceStats* out_stats) {
  return ApplyUpdateBatchImpl({delta}, nullptr, nullptr, out_stats, nullptr);
}

Status ViewCatalog::ApplyUpdate(const DocumentDelta& delta,
                                std::shared_ptr<const Document> new_doc,
                                std::shared_ptr<const Summary> new_summary,
                                MaintenanceStats* out_stats) {
  if (new_doc == nullptr || new_doc.get() != delta.new_doc) {
    return Status::InvalidArgument(
        "shared document must be the delta's new_doc");
  }
  return ApplyUpdateBatchImpl({delta}, std::move(new_doc),
                              std::move(new_summary), out_stats, nullptr);
}

Status ViewCatalog::ApplyUpdateBatch(const std::vector<DocumentDelta>& deltas,
                                     std::shared_ptr<const Document> new_doc,
                                     std::shared_ptr<const Summary> new_summary,
                                     MaintenanceStats* out_stats,
                                     TraceSpan* span) {
  if (deltas.empty()) return Status::InvalidArgument("empty delta batch");
  if (new_doc != nullptr && new_doc.get() != deltas.back().new_doc) {
    return Status::InvalidArgument(
        "shared document must be the last delta's new_doc");
  }
  return ApplyUpdateBatchImpl(deltas, std::move(new_doc),
                              std::move(new_summary), out_stats, span);
}

Status ViewCatalog::ApplyUpdateBatchImpl(
    const std::vector<DocumentDelta>& deltas,
    std::shared_ptr<const Document> new_doc,
    std::shared_ptr<const Summary> new_summary, MaintenanceStats* out_stats,
    TraceSpan* span) {
  for (const DocumentDelta& delta : deltas) {
    if (delta.old_doc == nullptr || delta.new_doc == nullptr) {
      return Status::InvalidArgument("document delta without documents");
    }
  }
  const Document& final_doc = *deltas.back().new_doc;
  // Only deletes remove nodes, so only they can strand a stored content
  // reference: a reference survives the batch unless it lies in one of
  // these subtrees.
  std::vector<const OrdPath*> deleted_regions;
  for (const DocumentDelta& delta : deltas) {
    if (delta.kind == DocumentDelta::Kind::kDelete) {
      deleted_regions.push_back(&delta.region);
    }
  }
  Timer timer;
  ScopedSpan pass_span(span, "maintenance_pass");
  const int shard = shard_.load(std::memory_order_relaxed);
  if (shard >= 0) pass_span.Attr("shard", static_cast<int64_t>(shard));
  pass_span.Attr("deltas", static_cast<int64_t>(deltas.size()));
  MutexLock lock(&writer_mu_);
  std::shared_ptr<const CatalogSnapshot> cur = Current();
  MaintenanceStats ms;
  ms.deltas_applied = static_cast<int32_t>(deltas.size());
  PhaseTimes phases;
  using Phase = metrics::MaintenancePhase;
  // WAL eligibility: the whole pass logs as one record of net tuple changes
  // — unless any view rebuilds, which is not expressible as a tuple delta
  // and forces a full checkpoint instead.
  bool wal_eligible = enable_delta_log_;
  std::vector<WalViewDelta> wal_views;
  std::vector<std::shared_ptr<const StoredView>> next;
  next.reserve(cur->views().size());
  for (const std::shared_ptr<const StoredView>& v : cur->views()) {
    // The view's value-count cache, built from the pre-batch extent on
    // first use and folded step by step (writer-private, see StoredView).
    std::shared_ptr<ValueCountCache> cache = std::move(v->value_counts);
    // Copy-on-maintenance, lazily: readers of the current epoch keep the
    // pre-update extent. `rows` reads the stored rows only for a non-empty
    // diff; `nv` is the successor, created by the first step that changes
    // the extent.
    WorkingRows rows(*v);
    bool read = false;
    std::shared_ptr<StoredView> nv;
    auto ensure_successor = [&]() {
      if (nv != nullptr) return;
      nv = std::make_shared<StoredView>();
      nv->def = v->def;
      nv->extent_bytes = v->extent_bytes;
      nv->stats = v->stats;
    };
    bool rebuilt = false;
    Table rebuilt_extent;
    // Net tuple changes across the batch, keyed by stable tuple encoding —
    // a delete cancels a pending insert of the same row and vice versa, so
    // the WAL record captures only what replay must actually change.
    std::map<std::string, Tuple> net_inserts;
    std::set<std::string> net_deletes;
    auto rebuild = [&]() {
      ensure_successor();
      auto phase = phases.Time(Phase::kFoldRows);
      Table fresh = MaterializeView(v->def.pattern, v->def.name, final_doc);
      if (partition_ != nullptr) partition_->Filter(v->def, &fresh);
      fresh.SortRowsCanonical();
      rebuilt_extent = std::move(fresh);
      nv->extent_bytes = ExtentByteSize(rebuilt_extent);
      cache = nullptr;  // counts describe the discarded extent
      rebuilt = true;
      wal_eligible = false;
      ++ms.views_rebuilt;
      ++ms.views_touched;
    };
    for (const DocumentDelta& delta : deltas) {
      ViewDiff diff;
      {
        auto phase = phases.Time(Phase::kDeltaEval);
        diff = EvaluateViewDiff(v->def.pattern, v->def.name, delta);
      }
      if (diff.full_rebuild) {
        // Rebuilding from the batch's final document subsumes every
        // remaining step: stop folding.
        rebuild();
        break;
      }
      if (diff.Empty()) continue;  // content rebind happens once, at the end
      const Table* extent = nullptr;
      {
        auto phase = phases.Time(Phase::kDecode);
        Result<const Table*> current = rows.Read();
        if (!current.ok()) return current.status();
        extent = *current;
      }
      if (!read) {
        read = true;
        ++ms.views_decoded;
      }
      TableDelta td;
      {
        auto phase = phases.Time(Phase::kFoldRows);
        td = ResolveViewDiff(v->def.pattern, v->def.name, std::move(diff),
                             *extent, delta);
      }
      if (td.full_rebuild) {
        rebuild();
        break;
      }
      if (td.Empty()) continue;
      ensure_successor();
      {
        auto phase = phases.Time(Phase::kDecode);
        rows.Own();
        extent = &rows.table();
      }
      {
        auto phase = phases.Time(Phase::kStats);
        if (cache == nullptr) {
          // Must describe the pre-step extent: build before splicing.
          cache = std::make_shared<ValueCountCache>(BuildValueCounts(*extent));
        }
        nv->stats = RefreshViewStatsCached(nv->stats, extent->schema(),
                                           cache.get(), td.deletes,
                                           td.inserts);
      }
      // Byte sizes track per-tuple cell sizes (rows carry no per-row
      // header), so the recorded size stays exact without a full recount;
      // a deleted tuple equals its row, so it has the row's size.
      for (const Tuple& t : td.deletes) nv->extent_bytes -= TupleByteSize(t);
      for (const Tuple& t : td.inserts) nv->extent_bytes += TupleByteSize(t);
      ms.tuples_deleted += static_cast<int64_t>(td.deletes.size());
      ms.tuples_inserted += static_cast<int64_t>(td.inserts.size());
      if (wal_eligible) {
        for (const Tuple& t : td.deletes) {
          std::string key = EncodeTupleKey(t);
          if (net_inserts.erase(key) == 0) net_deletes.insert(std::move(key));
        }
        for (const Tuple& t : td.inserts) {
          std::string key = EncodeTupleKey(t);
          if (net_deletes.erase(key) == 0) {
            net_inserts.insert_or_assign(std::move(key), t);
          }
        }
      }
      // Splicing keeps canonical order: the next step resolves against it.
      auto phase = phases.Time(Phase::kFoldRows);
      rows.Apply(std::move(td));
    }
    if (!rebuilt && nv == nullptr) {
      if (!v->columnar->has_content()) {
        // Nothing in the extent references any document version in the
        // batch: the stored view — and its on-disk generation — carries
        // into the new epoch as-is, shared with readers of older epochs.
        v->value_counts = std::move(cache);
        next.push_back(v);
        ++ms.views_shared;
        continue;
      }
      // Untouched content view. Content references are stored as ORDPATHs
      // (document-independent), so the whole compressed extent — every
      // chunk, and its on-disk generation — carries across the document
      // change; only the decode document moves forward. A reference
      // survives unless a delete of the batch removed its subtree, which
      // an insert-only batch cannot do; a reference that did not survive
      // means the view cannot be patched incrementally: rebuild it.
      Status survives = Status::OK();
      if (!deleted_regions.empty()) {
        auto phase = phases.Time(Phase::kFoldRows);
        survives = v->columnar->ForEachContentId([&](const OrdPath& id) {
          for (const OrdPath* region : deleted_regions) {
            if (region->IsAncestorOrSelf(id)) {
              return Status::NotFound("content reference deleted: " +
                                      id.ToString());
            }
          }
          return Status::OK();
        });
      }
      if (survives.ok()) {
        auto carried = std::make_shared<StoredView>();
        carried->def = v->def;
        carried->stats = v->stats;
        carried->extent_bytes = v->extent_bytes;
        carried->compressed_bytes = v->compressed_bytes;
        carried->columnar = v->columnar;
        carried->decode_doc = &final_doc;
        carried->generation = v->generation;  // on-disk bytes unchanged
        carried->residency = std::make_shared<ExtentResidency>(budget_);
        carried->residency->SetCompressedBytes(carried->compressed_bytes);
        // Rebind the resident decoded copy if there is one (a pure ORDPATH
        // re-lookup); a cold view stays cold and the next access decodes
        // against the final document directly.
        if (TablePtr res = v->TryResident()) {
          auto phase = phases.Time(Phase::kFoldRows);
          Table copy = *res;
          bool rebound = true;
          for (Tuple& row : copy.mutable_rows()) {
            if (!RebindTupleContent(&row, final_doc).ok()) {
              rebound = false;
              break;
            }
          }
          if (rebound) {
            carried->InstallResident(std::make_shared<Table>(std::move(copy)));
          }
        }
        carried->value_counts = std::move(cache);
        next.push_back(std::move(carried));
        ++ms.views_shared;
        continue;
      }
      rebuild();
    }
    std::optional<ColumnarExtent> folded;
    if (!rebuilt) {
      // Tuple-changed view: fold the pass into the stored chunks.
      auto phase = phases.Time(Phase::kFoldColumnar);
      std::vector<int64_t> deleted;
      std::vector<FoldInsert> inserts;
      rows.FoldInput(&deleted, &inserts);
      Result<ColumnarExtent> f =
          ColumnarExtent::Fold(*v->columnar, deleted, inserts, v->decode_doc);
      if (!f.ok()) return f.status();
      folded = std::move(f).value();
    }
    if (!rebuilt && folded->has_content()) {
      // Rebind the surviving rows to the final document; a lost reference
      // forces a rebuild.
      auto phase = phases.Time(Phase::kFoldRows);
      bool rebound = true;
      for (Tuple& row : rows.table().mutable_rows()) {
        if (!RebindTupleContent(&row, final_doc).ok()) {
          rebound = false;
          break;
        }
      }
      if (!rebound) rebuild();
    }
    if (rebuilt) {
      // generation 0: persisted fresh. Chunk sharing with the old columnar
      // still applies — a rebuild often reproduces most columns unchanged.
      const int64_t bytes = nv->extent_bytes;
      {
        auto phase = phases.Time(Phase::kFoldColumnar);
        SetExtent(nv.get(), std::move(rebuilt_extent), bytes,
                  v->columnar.get(), budget_);
      }
      auto phase = phases.Time(Phase::kStats);
      nv->stats = ComputeViewStats(*nv->columnar, nv->decode_doc);
      next.push_back(std::move(nv));
      continue;
    }
    // Only tuple-changed views reach here (rebind-only content views were
    // carried above); generation stays 0 so the extent persists fresh.
    ++ms.views_touched;
    nv->value_counts = std::move(cache);
    if (wal_eligible && (!net_deletes.empty() || !net_inserts.empty())) {
      auto phase = phases.Time(Phase::kWalAppend);
      WalViewDelta wd;
      wd.view = v->def.name;
      wd.delete_keys.assign(net_deletes.begin(), net_deletes.end());
      Table inserts(v->columnar->schema());
      for (const auto& [key, row] : net_inserts) inserts.AddRow(row);
      wd.inserts_bytes = SerializeExtent(inserts);
      wal_views.push_back(std::move(wd));
    }
    {
      // The incremental byte accounting above keeps extent_bytes exact.
      auto phase = phases.Time(Phase::kFoldColumnar);
      InstallFolded(nv.get(), std::move(rows.table()), std::move(*folded),
                    &final_doc, budget_);
    }
    next.push_back(std::move(nv));
  }
  if (out_stats != nullptr) *out_stats = ms;
  // Delta evaluation is done; everything past this point — durability and
  // the publish swap — is time the new epoch exists but is not yet served.
  const int64_t maintained_us = static_cast<int64_t>(timer.ElapsedMicros());
  // The epoch PublishLocked will mint; recorded in the WAL before the swap
  // so replay can tell which records a persisted manifest already covers.
  const uint64_t publish_epoch = next_epoch_;
  pass_span.Attr("epoch", publish_epoch);
  pass_span.Attr("views_touched", static_cast<int64_t>(ms.views_touched));
  pass_span.Attr("views_rebuilt", static_cast<int64_t>(ms.views_rebuilt));
  pass_span.Attr("views_decoded", static_cast<int64_t>(ms.views_decoded));
  if (wal_eligible) {
    if (!wal_views.empty()) {
      auto phase = phases.Time(Phase::kWalAppend);
      SVX_RETURN_IF_ERROR(EnsureWalLocked());
      WalRecord record;
      record.epoch = publish_epoch;
      record.views = std::move(wal_views);
      SVX_RETURN_IF_ERROR(wal_->Append(record));
      wal_depth_.fetch_add(1, std::memory_order_relaxed);
    }
  } else if (!dir_.empty()) {
    // Per-pass extent persistence without a WAL, or the checkpoint a
    // rebuild forces in WAL mode.
    auto phase = phases.Time(Phase::kPersist);
    SVX_RETURN_IF_ERROR(PersistLocked(next, publish_epoch));
  }
  {
    auto phase = phases.Time(Phase::kPublish);
    PublishLocked(std::move(next), std::move(new_doc), std::move(new_summary),
                  /*doc_changed=*/true, /*views_changed=*/false);
  }
  phases.Report(pass_span.get());
  const int64_t total_us = static_cast<int64_t>(timer.ElapsedMicros());
  metrics::MaintenancePasses()->Add(1);
  metrics::MaintenanceViewsTouched()->Add(ms.views_touched);
  metrics::MaintenanceViewsRebuilt()->Add(ms.views_rebuilt);
  metrics::MaintenanceViewsShared()->Add(ms.views_shared);
  metrics::MaintenanceViewsDecoded()->Add(ms.views_decoded);
  metrics::MaintenanceTuplesInserted()->Add(ms.tuples_inserted);
  metrics::MaintenanceTuplesDeleted()->Add(ms.tuples_deleted);
  metrics::MaintenanceApplyLatencyUs()->Observe(total_us);
  metrics::EpochPublishLagUs()->Observe(total_us - maintained_us);
  metrics::DeltasApplied()->Add(static_cast<int64_t>(deltas.size()));
  if (deltas.size() > 1) {
    metrics::DeltasCoalesced()->Add(static_cast<int64_t>(deltas.size() - 1));
  }
  if (Counter* c = shard_passes_.load(std::memory_order_acquire)) c->Add(1);
  if (Counter* c = shard_deltas_.load(std::memory_order_acquire)) {
    c->Add(static_cast<int64_t>(deltas.size()));
  }
  return Status::OK();
}

Status ViewCatalog::Load(const Document* doc) {
  return LoadImpl(doc, nullptr, nullptr);
}

Status ViewCatalog::Load(std::shared_ptr<const Document> doc,
                         std::shared_ptr<const Summary> summary) {
  const Document* raw = doc.get();
  return LoadImpl(raw, std::move(doc), std::move(summary));
}

Status ViewCatalog::LoadImpl(const Document* doc,
                             std::shared_ptr<const Document> shared,
                             std::shared_ptr<const Summary> summary) {
  if (dir_.empty()) return Status::InvalidArgument("catalog has no store dir");
  Result<std::string> manifest =
      ReadFileBytes((fs::path(dir_) / "manifest.txt").string());
  if (!manifest.ok()) return manifest.status();

  MutexLock lock(&writer_mu_);
  std::vector<std::shared_ptr<const StoredView>> loaded;
  uint64_t max_generation = 0;
  uint64_t persisted_epoch = 0;  // epoch the manifest's extents capture
  uint64_t wal_floor = 0;        // first WAL segment generation to replay
  int version = 0;
  for (const std::string& raw : Split(*manifest, '\n')) {
    std::string_view line = Trim(raw);
    if (line.empty()) continue;
    if (version == 0) {
      if (line == kManifestHeaderV1) {
        version = 1;
      } else if (line == kManifestHeaderV2) {
        version = 2;
      } else if (line == kManifestHeaderV3) {
        version = 3;
      } else {
        return Status::ParseError("bad manifest header: " + raw);
      }
      continue;
    }
    if (version >= 3 && StartsWith(line, "epoch ")) {
      std::optional<int64_t> e = ParseInt64(line.substr(6));
      if (!e || *e < 0) {
        return Status::ParseError("bad epoch in manifest: " + raw);
      }
      persisted_epoch = static_cast<uint64_t>(*e);
      continue;
    }
    if (version >= 3 && StartsWith(line, "wal ")) {
      std::optional<int64_t> g = ParseInt64(line.substr(4));
      if (!g || *g <= 0) {
        return Status::ParseError("bad wal floor in manifest: " + raw);
      }
      wal_floor = static_cast<uint64_t>(*g);
      continue;
    }
    if (!StartsWith(line, "view ")) {
      return Status::ParseError("bad manifest line: " + raw);
    }
    std::string_view rest = line.substr(5);
    size_t space = rest.find(' ');
    if (space == std::string_view::npos) {
      return Status::ParseError("bad manifest line: " + raw);
    }
    auto stored = std::make_shared<StoredView>();
    stored->def.name = std::string(rest.substr(0, space));
    if (!SafeName(stored->def.name)) {
      return Status::ParseError("unsafe view name in manifest: " + raw);
    }
    rest = rest.substr(space + 1);
    if (version >= 2) {
      space = rest.find(' ');
      if (space == std::string_view::npos) {
        return Status::ParseError("bad manifest line: " + raw);
      }
      std::optional<int64_t> gen = ParseInt64(rest.substr(0, space));
      if (!gen || *gen <= 0) {
        return Status::ParseError("bad generation in manifest: " + raw);
      }
      stored->generation = static_cast<uint64_t>(*gen);
      max_generation = std::max(max_generation, stored->generation);
      rest = rest.substr(space + 1);
    }
    Result<Pattern> pattern = ParsePattern(rest);
    if (!pattern.ok()) return pattern.status();
    stored->def.pattern = std::move(*pattern);

    // Version-1 stores used unsuffixed file names (generation 0 here, so a
    // later Save migrates them to suffixed generations).
    fs::path extent_path =
        fs::path(dir_) / (version >= 2 ? ExtentFileName(*stored)
                                       : stored->def.name + ".extent");
    // A v2 (columnar) file loads without materializing rows — the extent
    // stays cold until something scans it; a v1 (row-major) file decoded
    // its rows during parsing, so they install resident for free.
    Result<ColumnarLoad> load = ReadExtentFileColumnar(extent_path.string(),
                                                       doc);
    if (!load.ok()) return load.status();
    stored->columnar = std::move(load->columnar);
    stored->extent_bytes = load->uncompressed_bytes;
    stored->compressed_bytes = stored->columnar->SerializedByteSize();
    if (stored->columnar->has_content()) {
      if (doc == nullptr) {
        return Status::InvalidArgument(
            "extent has content references but no document was supplied");
      }
      // Validate every reference off the chunks (a v1 load already did so
      // by decoding); a cold columnar extent must never fail its lazy
      // decode later.
      SVX_RETURN_IF_ERROR(
          stored->columnar->ForEachContentId([&](const OrdPath& id) {
            if (doc->FindByOrdPath(id) == kInvalidNode) {
              return Status::NotFound("content reference " + id.ToString() +
                                      " not in the document");
            }
            return Status::OK();
          }));
      stored->decode_doc = doc;
    }
    stored->residency = std::make_shared<ExtentResidency>(budget_);
    stored->residency->SetCompressedBytes(stored->compressed_bytes);
    if (load->decoded != nullptr) stored->InstallResident(load->decoded);

    fs::path stats_path =
        fs::path(dir_) / (version >= 2 ? StatsFileName(*stored)
                                       : stored->def.name + ".stats");
    Result<std::string> stats_text = ReadFileBytes(stats_path.string());
    if (!stats_text.ok()) return stats_text.status();
    Result<ViewStats> stats = ParseViewStats(*stats_text);
    if (!stats.ok()) return stats.status();
    stored->stats = std::move(*stats);

    loaded.push_back(std::move(stored));
  }
  if (version == 0) return Status::ParseError("empty manifest");
  next_generation_ = std::max(next_generation_, max_generation + 1);
  // Sweep generations an interrupted save (or a pre-crash manifest flip)
  // left behind — everything the manifest we just loaded does not name.
  // After the sweep the manifest's max generation is the directory's, so
  // the counter is fully seeded (a v1 store keeps the lazy directory scan
  // in PersistLocked, since it never swept suffixed orphans). The sweep
  // runs before WAL replay marks views dirty, while every generation still
  // names its live on-disk file.
  if (version >= 2) {
    SweepUnreferenced(dir_, LiveFileSet(loaded));
    generation_seeded_ = true;
  }
  // WAL recovery: replay every record past the persisted epoch from
  // segments at or above the manifest's floor, and sweep orphaned segments
  // a completed checkpoint retired. Replayed views drop to generation 0 so
  // the next checkpoint persists them fresh; until then the disk keeps the
  // old extents *and* the segments, so a crash mid-recovery just replays
  // again.
  uint64_t max_segment = 0;
  {
    std::error_code ec;
    for (const fs::directory_entry& entry : fs::directory_iterator(dir_, ec)) {
      if (ec) break;
      uint64_t gen = 0;
      if (entry.is_regular_file() &&
          DeltaLog::ParseSegmentFileName(entry.path().filename().string(),
                                         &gen)) {
        max_segment = std::max(max_segment, gen);
      }
    }
  }
  DeltaLog::SweepSegments(dir_, wal_floor);
  Result<std::vector<WalRecord>> records =
      DeltaLog::Replay(dir_, wal_floor, persisted_epoch);
  if (!records.ok()) return records.status();
  uint64_t max_epoch = persisted_epoch;
  if (!records->empty()) {
    std::unordered_map<std::string, StoredView*> by_name;
    for (const auto& v : loaded) {
      by_name[v->def.name] = const_cast<StoredView*>(v.get());
    }
    // Replay mutates rows, so each touched view decodes into a private
    // working table once, and re-encodes when every record is folded.
    std::map<StoredView*, Table> dirty;
    auto working_rows = [&](StoredView* sv) -> Result<Table*> {
      auto it = dirty.find(sv);
      if (it == dirty.end()) {
        Result<Table> decoded = sv->columnar->Decode(sv->decode_doc);
        if (!decoded.ok()) return decoded.status();
        it = dirty.emplace(sv, std::move(decoded).value()).first;
      }
      return &it->second;
    };
    for (const WalRecord& rec : *records) {
      max_epoch = std::max(max_epoch, rec.epoch);
      for (const WalViewDelta& wd : rec.views) {
        auto it = by_name.find(wd.view);
        if (it == by_name.end()) {
          // Checkpoints are forced on every view-set mutation, so a record
          // naming an unknown view means the store is corrupt.
          return Status::ParseError("WAL record references unknown view: " +
                                    wd.view);
        }
        Result<Table*> working = working_rows(it->second);
        if (!working.ok()) return working.status();
        if (!wd.delete_keys.empty()) {
          std::set<std::string> keys(wd.delete_keys.begin(),
                                     wd.delete_keys.end());
          std::vector<Tuple>& rows = (*working)->mutable_rows();
          size_t out = 0;
          for (size_t i = 0; i < rows.size(); ++i) {
            if (keys.count(EncodeTupleKey(rows[i])) != 0) continue;
            if (out != i) rows[out] = std::move(rows[i]);
            ++out;
          }
          rows.resize(out);
        }
        if (!wd.inserts_bytes.empty()) {
          Result<Table> inserts = DeserializeExtent(wd.inserts_bytes, doc);
          if (!inserts.ok()) return inserts.status();
          for (Tuple& row : inserts->mutable_rows()) {
            (*working)->mutable_rows().push_back(std::move(row));
          }
        }
      }
    }
    for (auto& [sv, table] : dirty) {
      table.SortRowsCanonical();
      sv->stats = ComputeViewStats(table);
      const int64_t bytes = ExtentByteSize(table);
      SetExtent(sv, std::move(table), bytes, sv->columnar.get(), budget_);
      sv->generation = 0;
    }
  }
  // Seed the WAL counters: appends continue into the newest segment on
  // disk; the epoch counter resumes past everything ever published so
  // future WAL records never collide with replayed ones.
  wal_floor_ = std::max<uint64_t>(wal_floor, 1);
  wal_generation_ = std::max(wal_floor_, max_segment);
  wal_depth_.store(static_cast<int64_t>(records->size()),
                   std::memory_order_relaxed);
  next_epoch_ = std::max(next_epoch_, max_epoch + 1);
  // Load replaces the view set wholesale.
  PublishLocked(std::move(loaded), std::move(shared), std::move(summary),
                /*doc_changed=*/true, /*views_changed=*/true);
  return Status::OK();
}

std::string ViewCatalog::DebugMetrics() const {
  std::shared_ptr<const CatalogSnapshot> snap = Snapshot();
  const int64_t age_us = snap->AgeMicros();
  // Refresh the point-in-time gauges so a registry render taken right after
  // this call describes this catalog's serving state.
  metrics::EpochCurrent()->Set(static_cast<int64_t>(snap->epoch()));
  metrics::EpochAgeUs()->Set(age_us);
  if (Gauge* g = shard_epoch_age_.load(std::memory_order_acquire)) {
    g->Set(age_us);
  }
  const RewriteCache* cache = snap->rewrite_cache();
  const int shard = shard_.load(std::memory_order_relaxed);
  JsonWriter w;
  w.BeginObject();
  if (shard >= 0) w.KV("shard", static_cast<int64_t>(shard));
  w.KV("epoch", static_cast<uint64_t>(snap->epoch()));
  w.KV("epoch_age_us", age_us);
  w.KV("wal_depth", wal_depth_.load(std::memory_order_relaxed));
  w.KV("epochs_live", metrics::EpochsLive()->Value());
  w.KV("views", static_cast<int64_t>(snap->size()));
  w.KV("total_bytes", snap->TotalBytes());
  w.KV("extent_compressed_bytes", snap->TotalCompressedBytes());
  w.KV("extent_resident_bytes", budget_->resident_bytes());
  w.KV("extent_evictions", budget_->evictions());
  w.KV("extent_reloads", budget_->reloads());
  w.KV("memory_budget_bytes", budget_->limit_bytes());
  w.KV("summary_classes", summary_classes_.load(std::memory_order_relaxed));
  w.KV("summary_class_reuses",
       summary_class_reuses_.load(std::memory_order_relaxed));
  w.Key("rewrite_cache");
  w.BeginObject();
  w.KV("entries", static_cast<uint64_t>(cache->size()));
  w.KV("hits", static_cast<uint64_t>(cache->hits()));
  w.KV("misses", static_cast<uint64_t>(cache->misses()));
  w.KV("invalidations", static_cast<uint64_t>(cache->invalidations()));
  w.EndObject();
  w.EndObject();
  return w.str();
}

}  // namespace svx
