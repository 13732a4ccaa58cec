// TPC-C driver system.
//
// The paper's remote terminal emulator, embedded in the simulation: it
// issues the standard transaction mix in a closed loop, timestamps every
// commit together with its commit LSN, and maintains the per-interval
// throughput series used for the performance figures. The commit log is
// the ground truth for the benchmark's lost-transaction measure: a
// committed transaction is lost iff recovery ended below its commit LSN —
// measured from the end-user's point of view, exactly as in the paper.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "obs/observability.hpp"
#include "sim/scheduler.hpp"
#include "tpcc/card_deck.hpp"
#include "tpcc/tpcc_txns.hpp"
#include "txn/coordinator.hpp"

namespace vdb::tpcc {

struct DriverConfig {
  std::uint64_t seed = 42;
  /// Throughput series bucket width.
  SimDuration report_interval = 30 * kSecond;
  /// Backoff before retrying a transaction rejected with kRecoveryRequired
  /// (M2 early-open restart rejects access to pages whose redo is still
  /// pending). The end-user keeps hammering; the background sweeper
  /// eventually drains the page and the retry goes through.
  SimDuration recovery_retry_backoff = 100 * kMillisecond;
  /// Terminal emulators running concurrently. 1 keeps the original serial
  /// closed loop (no coordinator, no concurrency control — byte-identical
  /// behaviour); >1 drives the engine through a TxnCoordinator with
  /// `cc_protocol` mediating row conflicts.
  unsigned workers = 1;
  txn::CcProtocol cc_protocol = txn::CcProtocol::k2pl;
};

struct CommitRecord {
  TxnType type;
  Lsn commit_lsn = 0;  // 0 for read-only transactions
  SimTime commit_time = 0;
  SimDuration response_time = 0;  // begin -> commit, end-user view
};

struct DriverStats {
  std::uint64_t committed = 0;
  std::array<std::uint64_t, kTxnTypes> committed_by_type{};
  std::uint64_t intentional_rollbacks = 0;
  std::uint64_t lock_retries = 0;
  std::uint64_t failed_attempts = 0;  // attempts refused by a down service
  /// Attempts bounced by the M2 early-open gate (kRecoveryRequired) and
  /// retried after recovery_retry_backoff.
  std::uint64_t recovery_retries = 0;
  /// Concurrent mode only: attempts aborted by the concurrency-control
  /// protocol (wait-die death, OCC validation failure, stale access-path
  /// race) and retried with fresh inputs.
  std::uint64_t cc_retries = 0;
};

class Driver {
 public:
  Driver(TpccDb* db, sim::Scheduler* scheduler, DriverConfig cfg);
  ~Driver();  // out of line: WorkerState is complete only in the .cpp

  /// Runs the standard mix until the virtual clock reaches `until`, firing
  /// due background events between transactions. Returns OK at the time
  /// limit; a service failure (media error, instance down, …) returns that
  /// error with the clock at the failure instant.
  Status run_until(SimTime until);

  const std::vector<CommitRecord>& commits() const { return commits_; }
  const DriverStats& stats() const { return stats_; }

  /// New-Order transactions committed per minute in [from, to).
  double tpmc(SimTime from, SimTime to) const;
  /// All transactions committed per minute in [from, to).
  double tpm_total(SimTime from, SimTime to) const;

  /// Committed-then-lost transactions: committed before `before`, with an
  /// effective commit LSN above what recovery salvaged.
  std::uint64_t count_lost(Lsn recovered_to, SimTime before) const;

  /// New-Order commits per report interval (throughput series).
  const std::vector<std::uint32_t>& series() const { return series_; }
  SimDuration series_interval() const { return cfg_.report_interval; }

  /// Response-time percentile for one transaction type (TPC-C clause 5.5
  /// reports the 90th). `q` in (0, 1]; returns 0 when no samples exist.
  SimDuration response_percentile(TxnType type, double q) const;
  SimDuration mean_response(TxnType type) const;

  unsigned workers() const { return coord_ ? coord_->workers() : 1; }

 private:
  struct WorkerState;

  Status run_serial(SimTime until);
  Status run_concurrent(SimTime until);

  TpccDb* db_;
  sim::Scheduler* scheduler_;
  DriverConfig cfg_;
  SimTime series_origin_;  // workload start: series buckets are relative
  TpccRandom random_;
  TpccTxns txns_;
  CardDeck deck_;
  std::vector<CommitRecord> commits_;
  std::vector<std::uint32_t> series_;
  DriverStats stats_;
  /// Per-type response-time histograms ("client response NewOrder", ...),
  /// re-resolved at every run_until() call: a crash-restart cycle swaps in
  /// a new Database incarnation, and with it possibly a new statistics
  /// area, so cached pointers must not outlive one call.
  std::array<obs::Histogram*, kTxnTypes> latency_hist_{};
  /// Concurrent mode (cfg_.workers > 1): the worker pool plus one
  /// terminal-emulator state per worker, persistent across run_until()
  /// calls so a crash-restart resumes each worker's input stream. The
  /// protocol counts into the statistics area of the database attached at
  /// construction, which the experiment harness keeps across incarnations.
  std::unique_ptr<txn::TxnCoordinator> coord_;
  std::vector<std::unique_ptr<WorkerState>> workers_;
};

}  // namespace vdb::tpcc
