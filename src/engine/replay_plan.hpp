// Partitioned redo apply plan: the one replay step of every recovery
// driver (instance recovery, media, block and point-in-time recovery,
// standby managed recovery).
//
// A driver scans the redo stream in LSN order and hands each record to
// feed(). The driver keeps only what differs between drivers: its sources,
// its stop rule, its per-record clock charge, where its barriers fall and
// what it does with an error feed() returns. feed() does the rest: it notes
// the record in the driver's RedoAnalysis, stages a page record here, and at
// a barrier drains the plan and applies the record serially. drain() groups
// the staged records into per-page runs and applies them chunk by chunk on
// the calling thread: each run's page is fetched and pinned in run order
// and its records apply in LSN order right away; the chunk's dirty marks
// and unpins follow once the whole chunk is through, so the pages of one
// chunk never evict each other.
//
// Runs that need engine machinery — page-format records, pages formatted by
// a NOLOGGING table (no format record exists) — are applied serially
// through the driver-supplied apply callback during the prepare step; every
// other run takes pure in-memory slot writes on its pinned, formatted page.
//
// Staging copies no LogRecord: each record becomes a small fixed entry,
// and an insert's or update's after image is appended to one byte arena
// the plan owns (never a view of the log, because a retained plan outlives
// the read that staged it). Only the serial path rebuilds a LogRecord, one
// entry at a time, in a single scratch record.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/flat_index.hpp"
#include "common/status.hpp"
#include "common/types.hpp"
#include "obs/observability.hpp"
#include "storage/storage_manager.hpp"
#include "wal/log_record.hpp"

namespace vdb::engine {

struct RedoAnalysis;

class RedoApplyPlan {
 public:
  struct Stats {
    /// Records applied, guard-skipped ones (change already on the page)
    /// included. The "replay records applied" counter counts the staged
    /// ones; feed()'s Stats also count its record when it applied at a
    /// barrier.
    std::uint64_t applied = 0;
  };

  /// Which unstaged records are serial barriers (drain, then apply); the
  /// rest are only noted. kDdl: DDL only (instance recovery, standby).
  /// kEveryUnstaged: transaction bookkeeping too, so media and point-in-time
  /// recovery drain about once per replayed transaction — a model choice:
  /// it sets fetch order, physical reads and simulated recovery time.
  enum class Barriers { kDdl, kEveryUnstaged };

  struct Hooks {
    storage::StorageManager* storage = nullptr;
    /// Full engine-level apply (Database::apply_record): used for format
    /// records and runs whose page the fast path cannot handle.
    std::function<Status(const wal::LogRecord&)> serial_apply;
    /// Statistics area; nullptr falls back to the process default.
    obs::Observability* obs = nullptr;
    /// Serial per-run charge, invoked once per drained run with the run's
    /// record count. The instance-recovery driver uses it to charge the
    /// apply share of the replay CPU at drain time (early-open restart
    /// modes pay it on demand / in the background instead of up front).
    std::function<void(std::uint64_t)> charge_apply;
  };

  explicit RedoApplyPlan(Hooks hooks) : hooks_(std::move(hooks)) {
    obs::MetricsRegistry& reg = obs::resolve(hooks_.obs)->registry();
    applied_counter_ = reg.counter("replay records applied");
    skipped_counter_ = reg.counter("replay records skipped");
    drains_counter_ = reg.counter("replay drains");
  }

  /// The one per-record replay step. Notes `rec` in `analysis` when one is
  /// given; stages a page record (DML, page format); applies a barrier
  /// record (see Barriers) through the serial apply after draining the
  /// plan. A skippable apply error goes down the skip path; any other
  /// error — of the drain or of the record's apply — is returned, and the
  /// caller decides whether to stop. The Stats count the records the drain
  /// applied plus `rec` when it applied at the barrier.
  Result<Stats> feed(const wal::LogRecord& rec, Barriers barriers,
                     RedoAnalysis* analysis = nullptr);

  /// Stages a page record as feed() does, for callers that build a plan
  /// by hand: a compact entry plus, for inserts and updates, a copy of its
  /// after image in the plan's byte arena. Nothing points into `rec`
  /// afterwards, so it may be parse_records' reused scratch record.
  void stage(const wal::LogRecord& rec);

  /// Records skipped over the plan's life, staged and barrier records
  /// alike: the one skip path, which also feeds the "replay records
  /// skipped" counter and reports the first kSkipReports on stderr.
  std::uint64_t skipped() const { return skipped_; }

  /// Applies every staged record and resets the plan. Entries, the image
  /// arena, runs, their item lists, the page index and the drain's scratch
  /// lists keep their capacity across cycles, so a warm plan stages and
  /// drains without allocating.
  Result<Stats> drain();

  // --- retained-run mode (early-open / on-demand restart) -----------------
  //
  // Instead of one big drain, the restart coordinator keeps the staged
  // plan alive across the database open and drains runs piecemeal: a
  // single page on a user fetch (drain_page), a batch per background
  // sweeper tick (drain_some). The plan fully resets only once the last
  // run has drained.

  /// Drains just the run for `pid` (no-op when none is pending).
  Result<Stats> drain_page(PageId pid);

  /// Drains up to `max_runs` pending runs in staging order.
  Result<Stats> drain_some(std::size_t max_runs);

  bool has_pending() const { return pending_runs_ > 0; }
  std::size_t pending_runs() const { return pending_runs_; }
  bool page_pending(PageId pid) const {
    return page_index_.find(pid) != FlatIndex<PageId>::kNone;
  }
  /// Pending pages in staging (first-touch LSN) order — deterministic.
  std::vector<PageId> pending_pages() const;

  /// commit_lsn watermark: the lowest LSN of any record still pending.
  /// Every record below it has been applied, so checkpoints taken while
  /// runs are pending must not advance the recovery position past it.
  /// kInvalidLsn when nothing is pending.
  Lsn low_water() const;

  /// Applies the pending run for `pid` to `copy` (LSN-guarded slot writes,
  /// format records skipped — an on-disk formatted image is already past
  /// its format LSN). No charges, counters, or dirty marks: this patches a
  /// scanned page image for analysis-informed rebuild while the physical
  /// apply stays deferred.
  void overlay_page(PageId pid, storage::Page* copy) const;

 private:
  /// True for apply errors a replay skips instead of failing on: the
  /// record touches a deleted, offline or corrupt file, which media
  /// recovery (whole-file or per-block) brings forward later.
  static bool skippable(ErrorCode code);
  /// True for record types the plan stages (DML + page format).
  static bool wants(wal::LogRecordType type);
  void skip(Lsn lsn, const Status& st);
  static constexpr std::uint64_t kSkipReports = 8;

  /// One staged record: what the apply needs and no more. A DML record
  /// keeps its row address and table; a format record its page (in
  /// `rid.page`), owner and slot size. Inserts and updates keep their after
  /// image as [image, image + image_len) of `arena_`.
  struct Entry {
    Lsn lsn = kInvalidLsn;
    std::size_t image = 0;
    RowId rid{};
    TableId owner{};
    std::uint32_t image_len = 0;
    std::uint16_t slot_size = 0;
    wal::LogRecordType type = wal::LogRecordType::kInsert;
  };

  struct Run {
    PageId page{PageId::invalid()};
    std::vector<std::uint32_t> items;  // indices into entries_, LSN order
    bool has_format = false;
    bool done = false;  // drained in retained-run mode
    // Filled by prepare_run/apply_run:
    storage::PageRef ref;
    Lsn first_applied = kInvalidLsn;
  };

  std::span<const std::uint8_t> image_of(const Entry& e) const {
    return {arena_.data() + e.image, e.image_len};
  }
  /// Applies `e` to a formatted page (LSN-guarded by the caller). False for
  /// a format entry, which only the serial path applies.
  bool apply_to(const Entry& e, storage::Page* page) const;
  /// Rebuilds `e` as a LogRecord in the one scratch record, for the serial
  /// path (format runs, NOLOGGING-formatted pages).
  const wal::LogRecord& as_record(const Entry& e);

  /// Pins `run`'s page in `run.ref` for apply_run. Format runs and pages a
  /// NOLOGGING table formatted apply through the engine here instead and
  /// hold no pin; runs on missing/offline files are skipped.
  Status prepare_run(Run& run, Stats* stats);
  Status apply_serially(Run& run, Stats* stats);
  void apply_run(Run& run) const;
  /// Shared drain engine: applies the runs listed in `selected` (chunked so
  /// pinned pages fit in the cache), marks them done, and fully resets once
  /// no run is left pending. A run whose prepare fails stays pending with
  /// every run after it, so a retried drain picks them up (the apply is
  /// LSN-guarded, hence idempotent). `selected` is a pooled scratch list the
  /// call hands back when it returns.
  Result<Stats> drain_runs(std::vector<std::uint32_t> selected);
  void reset();

  Hooks hooks_;
  /// Staged entries and the after images they point into. Both are
  /// cleared, not freed, when the plan resets.
  std::vector<Entry> entries_;
  std::vector<std::uint8_t> arena_;
  /// Runs in first-touch (LSN) order — deterministic. The first run_count_
  /// are live; the rest keep their item lists' capacity for reuse.
  std::vector<Run> runs_;
  std::size_t run_count_ = 0;
  std::size_t pending_runs_ = 0;  // staged runs not yet drained
  FlatIndex<PageId> page_index_;  // pending page -> its run
  /// Selected-runs list of a drain, pooled across drains. A drain
  /// re-entered from its own serial apply finds it taken and uses a fresh
  /// one.
  std::vector<std::uint32_t> selected_scratch_;
  wal::LogRecord scratch_record_;
  std::uint64_t skipped_ = 0;
  obs::Counter* applied_counter_ = nullptr;
  obs::Counter* skipped_counter_ = nullptr;
  obs::Counter* drains_counter_ = nullptr;
};

}  // namespace vdb::engine
