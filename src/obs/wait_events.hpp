// Oracle-style wait events (V$SYSTEM_EVENT analogue).
//
// A wait event is time a foreground or background process spent blocked on
// a specific resource, measured on the *simulated* clock: a WaitScope
// snapshots clock.now() at construction and charges the elapsed simulated
// time to its event at destruction. Because every service demand in the
// system advances the virtual clock, the scope captures exactly the
// modelled device/stall time of whatever it wraps — commit durability
// (log_file_sync), cache miss reads (db_file_sequential_read), checkpoint
// sweeps (checkpoint_wait), dirty-frame eviction (buffer_busy), and log
// switches blocked on the archiver (archive_stall).
//
// Accumulation is relaxed-atomic so the transaction coordinator's workers
// may report waits concurrently; scopes themselves are cheap enough for hot paths (two
// clock reads + three atomic adds on close, nothing when the elapsed time
// is zero).
#pragma once

#include <atomic>
#include <cstdint>

#include "common/types.hpp"
#include "sim/virtual_clock.hpp"

namespace vdb::obs {

enum class WaitEvent : std::uint8_t {
  kLogFileSync = 0,        // commit waiting on LGWR durability
  kDbFileSequentialRead,   // foreground cache-miss read
  kCheckpointWait,         // DBWR/CKPT sweep (full or incremental)
  kBufferBusy,             // eviction blocked writing a dirty frame
  kArchiveStall,           // log switch waiting on the archiver
  kRecoveryReadStall,      // fetch blocked on on-demand single-page redo
  kFailoverWait,           // fleet driver blocked on a shard failover
  kEnqLockWait,            // CC row-lock conflict wait (enq: TX analogue)
  kOccValidateFail,        // work discarded by an OCC validation failure
  kCount,
};
constexpr std::size_t kWaitEventCount =
    static_cast<std::size_t>(WaitEvent::kCount);

const char* to_string(WaitEvent e);

class WaitEventTable {
 public:
  void add_wait(WaitEvent e, SimDuration waited);

  std::uint64_t total_waits(WaitEvent e) const {
    return rows_[index(e)].waits.load(std::memory_order_relaxed);
  }
  SimDuration time_waited(WaitEvent e) const {
    return rows_[index(e)].time.load(std::memory_order_relaxed);
  }
  SimDuration max_wait(WaitEvent e) const {
    return rows_[index(e)].max.load(std::memory_order_relaxed);
  }

 private:
  static std::size_t index(WaitEvent e) { return static_cast<std::size_t>(e); }

  struct Row {
    std::atomic<std::uint64_t> waits{0};
    std::atomic<std::uint64_t> time{0};
    std::atomic<std::uint64_t> max{0};
  };
  Row rows_[kWaitEventCount];
};

/// RAII wait accounting on the simulated clock. Zero-length waits (the
/// wrapped operation advanced no simulated time) are not counted, matching
/// Oracle's convention that a satisfied-from-cache operation is not a wait.
class WaitScope {
 public:
  WaitScope(WaitEventTable* table, const sim::VirtualClock* clock,
            WaitEvent event)
      : table_(table), clock_(clock), event_(event),
        start_(clock != nullptr ? clock->now() : 0) {}
  ~WaitScope() {
    if (table_ == nullptr || clock_ == nullptr) return;
    const SimTime end = clock_->now();
    if (end > start_) table_->add_wait(event_, end - start_);
  }
  WaitScope(const WaitScope&) = delete;
  WaitScope& operator=(const WaitScope&) = delete;

 private:
  WaitEventTable* table_;
  const sim::VirtualClock* clock_;
  WaitEvent event_;
  SimTime start_;
};

}  // namespace vdb::obs
