// Transaction coordinator: N worker threads executing transactions
// concurrently against the engine, with pluggable concurrency control.
//
// Two layers live here:
//
//  - ConcurrencyControl: the plug-in contract the engine delegates row
//    conflict mediation to while a coordinator drives it. Two protocols
//    ship: strict two-phase locking with wait-die deadlock avoidance
//    (blocking waits, provably deadlock-free), and an OCC/TicToc-style
//    scheme (version-stamped reads validated at commit, writes locked
//    wait-die to keep in-place updates safe for logical undo).
//
//  - TxnCoordinator: the worker pool. Execution proceeds in *rounds*: the
//    round driver freezes the global virtual clock, every worker runs one
//    closed-loop transaction on a private per-thread timeline
//    (VirtualClock local sinks), and the driver then advances the global
//    clock by the round makespan — N workers model N processors sharing
//    the simulated devices.
//
// Thread-safety contract with the engine: every engine entry point a
// worker calls runs under the Database's coordinator latch, so redo
// staging into the flat pending arena, group commit, buffer cache and
// txn-manager state stay serialized; ConcurrencyControl::mediate is called
// *before* the latch is taken, so a blocked waiter never holds the latch
// its lock holder needs to commit and release.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "txn/lock_manager.hpp"

namespace vdb::obs {
class Observability;
}

namespace vdb::txn {

enum class CcProtocol : std::uint8_t {
  k2pl = 0,  // strict 2PL, wait-die
  kOcc,      // OCC: versioned reads, write locks, validate at commit
};

inline const char* to_string(CcProtocol p) {
  switch (p) {
    case CcProtocol::k2pl: return "2pl";
    case CcProtocol::kOcc: return "occ";
  }
  return "?";
}

inline bool parse_cc_protocol(const std::string& s, CcProtocol* out) {
  if (s == "2pl" || s == "2PL") *out = CcProtocol::k2pl;
  else if (s == "occ" || s == "OCC" || s == "tictoc") *out = CcProtocol::kOcc;
  else return false;
  return true;
}

enum class AccessMode : std::uint8_t { kRead, kWrite };

/// The engine-side plug-in contract. All hooks are thread-safe. `mediate`
/// may block (2PL waits); everything else returns promptly. validate() and
/// publish() are called by Database::commit under the coordinator latch —
/// validate before the commit record is appended (a failure turns the
/// commit into an error the worker rolls back), publish after the commit
/// is durable but before the latch is released, so no concurrent
/// validation can slip between a commit and its version bumps.
class ConcurrencyControl {
 public:
  virtual ~ConcurrencyControl() = default;

  virtual CcProtocol protocol() const = 0;

  /// Admission for one row access, called before the engine latch.
  /// `may_wait=false` (inserts pick their slot under the latch) converts a
  /// would-wait into a wait-die abort.
  virtual Status mediate(TxnId txn, const LockTarget& target, AccessMode mode,
                         bool may_wait) = 0;

  /// Commit-time validation (OCC read-set check; 2PL always passes).
  virtual Status validate(TxnId txn) = 0;

  /// Makes the committed transaction's writes visible to validators
  /// (bumps write-set versions). Must run under the engine latch.
  virtual void publish(TxnId txn) = 0;

  /// Transaction finished (committed or rolled back): release every
  /// resource it holds and wake waiters. Never blocks.
  virtual void end(TxnId txn, bool committed) = 0;

  /// Releases anything still held by transactions the calling worker
  /// thread started — the escape hatch when an instance failure aborts a
  /// transaction without reaching rollback (and therefore end()), which
  /// would otherwise strand lock waiters for the rest of the round.
  virtual void release_thread_residue() = 0;
};

/// A protocol instance reporting into `obs` (nullptr: the process-wide
/// default): the "cc txns begun/committed/aborted", "cc wait_die aborts",
/// "cc occ validate fails" and "cc lock waits" counters plus the
/// enq_lock_wait / occ_validate_fail wait events.
std::unique_ptr<ConcurrencyControl> make_concurrency_control(
    CcProtocol p, obs::Observability* obs);

/// Persistent worker pool with a round barrier. The round driver (the
/// TPC-C driver's concurrent loop) calls run_round(fn) repeatedly; each
/// call executes fn(worker_index) once on every worker concurrently and
/// returns when all have finished. Workers install/remove their own clock
/// sinks; the pool only provides the threads and the barrier.
class TxnCoordinator {
 public:
  struct Config {
    unsigned workers = 2;
    CcProtocol protocol = CcProtocol::k2pl;
    obs::Observability* obs = nullptr;
  };

  explicit TxnCoordinator(Config cfg);
  ~TxnCoordinator();
  TxnCoordinator(const TxnCoordinator&) = delete;
  TxnCoordinator& operator=(const TxnCoordinator&) = delete;

  ConcurrencyControl* cc() { return cc_.get(); }
  unsigned workers() const { return static_cast<unsigned>(threads_.size()); }

  /// One round: fn(k) runs concurrently for every worker k; blocks until
  /// all return. fn must not touch the global clock (install a sink).
  void run_round(const std::function<void(unsigned)>& fn);

 private:
  void worker_main(unsigned index);

  std::unique_ptr<ConcurrencyControl> cc_;
  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable round_start_;
  std::condition_variable round_done_;
  const std::function<void(unsigned)>* task_ = nullptr;
  std::uint64_t round_seq_ = 0;
  unsigned running_ = 0;
  bool stop_ = false;
};

}  // namespace vdb::txn
