#include "txn/coordinator.hpp"

#include <algorithm>

#include "obs/observability.hpp"
#include "sim/virtual_clock.hpp"

namespace vdb::txn {

namespace {

/// Shared machinery for both protocols: a blocking wait-die lock table
/// over LockTarget, per-transaction contexts, and the observability
/// wiring. Wait-die priorities are TxnIds (assigned monotonically under
/// the engine latch): smaller id = older transaction. A requester may wait
/// only if it is older than every conflicting holder; otherwise it dies
/// with kDeadlock. Every wait-for edge therefore points old -> young, so
/// the wait graph is acyclic and deadlock is impossible.
///
/// Virtual-time coupling: workers run on frozen-clock private timelines
/// (VirtualClock local sinks), so a real-thread block has no simulated
/// cost by itself. Instead the releaser stamps the lock entry with its
/// own sink offset at release, and a woken waiter raises its sink to that
/// offset — the lock became available at that instant of the round, and
/// the difference is charged to enq_lock_wait.
class CcBase : public ConcurrencyControl {
 public:
  explicit CcBase(obs::Observability* obs) {
    obs::Observability* o = obs::resolve(obs);
    waits_ = &o->waits();
    obs::MetricsRegistry& reg = o->registry();
    wait_die_aborts_ = reg.counter("cc wait_die aborts");
    occ_validate_fails_ = reg.counter("cc occ validate fails");
    lock_waits_ = reg.counter("cc lock waits");
    txns_begun_ = reg.counter("cc txns begun");
    txns_committed_ = reg.counter("cc txns committed");
    txns_aborted_ = reg.counter("cc txns aborted");
  }

  Status validate(TxnId) override { return Status::ok(); }
  void publish(TxnId) override {}

  void end(TxnId txn, bool committed) override {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = ctx_.find(txn);
    if (it == ctx_.end()) return;
    release_locked(it->second, committed);
    ctx_.erase(it);
    waiters_.notify_all();
  }

  void release_thread_residue() override {
    std::lock_guard<std::mutex> lk(mu_);
    const std::thread::id self = std::this_thread::get_id();
    bool released = false;
    for (auto it = ctx_.begin(); it != ctx_.end();) {
      if (it->second.owner != self) {
        ++it;
        continue;
      }
      release_locked(it->second, /*committed=*/false);
      it = ctx_.erase(it);
      released = true;
    }
    if (released) waiters_.notify_all();
  }

 protected:
  struct Entry {
    bool exclusive = false;
    std::vector<TxnId> holders;
    /// Sink offset of the most recent releaser this round; woken waiters
    /// raise their private timeline to it.
    SimDuration release_offset = 0;
  };

  struct Ctx {
    TxnId id{};
    std::thread::id owner;
    SimDuration begin_offset = 0;  // sink offset at first mediation
    std::vector<LockTarget> held;
    /// OCC read set: target -> version observed at first read.
    std::map<LockTarget, std::uint64_t> read_versions;
  };

  Ctx& ensure_ctx_locked(TxnId txn) {
    auto [it, inserted] = ctx_.try_emplace(txn);
    if (inserted) {
      it->second.id = txn;
      it->second.owner = std::this_thread::get_id();
      it->second.begin_offset = sim::VirtualClock::local_elapsed();
      txns_begun_->inc();
    }
    return it->second;
  }

  bool holds(const Ctx& ctx, const LockTarget& t) const {
    return std::find(ctx.held.begin(), ctx.held.end(), t) != ctx.held.end();
  }

  /// True if `txn` may take the lock now (including re-grant / upgrade by
  /// the sole holder).
  static bool can_grant(const Entry& e, TxnId txn, bool exclusive) {
    if (e.holders.empty()) return true;
    if (e.holders.size() == 1 && e.holders[0] == txn) return true;
    if (e.exclusive) return false;
    if (exclusive) return false;
    return true;  // shared with other shared holders
  }

  /// Wait-die: may wait only if strictly older than every conflicting
  /// holder (self never conflicts with itself).
  static bool older_than_all(const Entry& e, TxnId txn) {
    for (TxnId h : e.holders) {
      if (h != txn && h <= txn) return false;
    }
    return true;
  }

  /// Grants or wait-die-aborts one lock request. Returns kDeadlock when
  /// the requester must die. `mu_` must be held; may release it while
  /// blocked.
  Status acquire_locked(std::unique_lock<std::mutex>& lk, TxnId txn,
                        const LockTarget& target, bool exclusive,
                        bool may_wait) {
    bool blocked = false;
    const SimDuration entered_at = sim::VirtualClock::local_elapsed();
    for (;;) {
      Entry& e = table_[target];  // std::map: reference stable across waits
      if (can_grant(e, txn, exclusive)) {
        if (e.holders.empty()) {
          e.holders.push_back(txn);
          e.exclusive = exclusive;
        } else if (e.holders.size() == 1 && e.holders[0] == txn) {
          e.exclusive = e.exclusive || exclusive;
        } else if (std::find(e.holders.begin(), e.holders.end(), txn) ==
                   e.holders.end()) {
          // A repeat shared request by one of several holders is already
          // granted; listing it twice would leave {T, T} after the others
          // release, and T's upgrade would wait on itself.
          e.holders.push_back(txn);
        }
        Ctx& ctx = ensure_ctx_locked(txn);
        if (!holds(ctx, target)) ctx.held.push_back(target);
        if (blocked) {
          sim::VirtualClock::raise_local(e.release_offset);
          const SimDuration waited =
              sim::VirtualClock::local_elapsed() - entered_at;
          lock_waits_->inc();
          if (waited > 0) {
            waits_->add_wait(obs::WaitEvent::kEnqLockWait, waited);
          }
        }
        return Status::ok();
      }
      if (!may_wait || !older_than_all(e, txn)) {
        wait_die_aborts_->inc();
        return make_error(ErrorCode::kDeadlock,
                          "wait-die: conflicting lock held by an older or "
                          "non-waitable request");
      }
      blocked = true;
      waiters_.wait(lk);
    }
  }

  /// Releases everything `ctx` holds; `mu_` must be held. The releaser's
  /// sink offset is stamped on each entry for its waiters.
  void release_locked(Ctx& ctx, bool committed) {
    const SimDuration at = sim::VirtualClock::local_elapsed();
    for (const LockTarget& t : ctx.held) {
      auto it = table_.find(t);
      if (it == table_.end()) continue;
      auto& holders = it->second.holders;
      holders.erase(std::remove(holders.begin(), holders.end(), ctx.id),
                    holders.end());
      if (holders.empty()) it->second.exclusive = false;
      it->second.release_offset = at;
    }
    ctx.held.clear();
    (committed ? txns_committed_ : txns_aborted_)->inc();
  }

  void charge_occ_fail_locked(const Ctx& ctx) {
    occ_validate_fails_->inc();
    const SimDuration wasted =
        sim::VirtualClock::local_elapsed() - ctx.begin_offset;
    if (wasted > 0) waits_->add_wait(obs::WaitEvent::kOccValidateFail, wasted);
  }

  std::mutex mu_;
  std::condition_variable waiters_;
  std::map<LockTarget, Entry> table_;
  std::unordered_map<TxnId, Ctx> ctx_;

  obs::WaitEventTable* waits_ = nullptr;
  obs::Counter* wait_die_aborts_ = nullptr;
  obs::Counter* occ_validate_fails_ = nullptr;
  obs::Counter* lock_waits_ = nullptr;
  obs::Counter* txns_begun_ = nullptr;
  obs::Counter* txns_committed_ = nullptr;
  obs::Counter* txns_aborted_ = nullptr;
};

/// Strict 2PL: reads take shared locks, writes exclusive, all held to
/// transaction end; conflicts resolved wait-die.
class TwoPhaseLockingCc final : public CcBase {
 public:
  using CcBase::CcBase;
  CcProtocol protocol() const override { return CcProtocol::k2pl; }

  Status mediate(TxnId txn, const LockTarget& target, AccessMode mode,
                 bool may_wait) override {
    std::unique_lock<std::mutex> lk(mu_);
    ensure_ctx_locked(txn);
    return acquire_locked(lk, txn, target,
                          /*exclusive=*/mode == AccessMode::kWrite, may_wait);
  }
};

/// OCC (TicToc-flavoured): reads are lock-free but version-stamped and
/// re-validated at commit; writes take wait-die exclusive locks (updates
/// are in-place with logical undo, so uncommitted data must never be
/// overwritten or read). A read of a write-locked row waits for the
/// writer; a write to a row the transaction already read with a stale
/// version dies immediately (early validation) rather than doing work a
/// commit-time check is guaranteed to discard.
///
/// The version is a write-INTENT stamp, bumped when a write lock is first
/// granted — not at commit. The stamp is recorded here in mediate but the
/// row bytes are read later, under the engine latch, so a writer can
/// lock + update in place inside that window; if the stamp only moved at
/// commit, a reader that saw the dirty bytes of a writer that then
/// ABORTED would pass validation and commit data derived from rolled-back
/// state. Bumping at acquisition makes any reader whose stamp predates a
/// writer's lock tenure fail validation, committed or not — conservative
/// (a spurious abort when the read in fact happened before the writer's
/// bytes landed), but the retry loop absorbs that.
class OccCc final : public CcBase {
 public:
  using CcBase::CcBase;
  CcProtocol protocol() const override { return CcProtocol::kOcc; }

  Status mediate(TxnId txn, const LockTarget& target, AccessMode mode,
                 bool may_wait) override {
    std::unique_lock<std::mutex> lk(mu_);
    Ctx& ctx = ensure_ctx_locked(txn);
    if (mode == AccessMode::kRead) {
      if (holds(ctx, target)) return Status::ok();  // own write
      // Wait out (or die to) a concurrent writer: with in-place updates
      // the row's bytes are dirty until the writer resolves.
      bool blocked = false;
      const SimDuration entered_at = sim::VirtualClock::local_elapsed();
      for (;;) {
        Entry& e = table_[target];
        if (e.holders.empty() ||
            (e.holders.size() == 1 && e.holders[0] == txn)) {
          if (blocked) {
            sim::VirtualClock::raise_local(e.release_offset);
            const SimDuration waited =
                sim::VirtualClock::local_elapsed() - entered_at;
            lock_waits_->inc();
            if (waited > 0) {
              waits_->add_wait(obs::WaitEvent::kEnqLockWait, waited);
            }
          }
          break;
        }
        if (!may_wait || !older_than_all(e, txn)) {
          wait_die_aborts_->inc();
          return make_error(ErrorCode::kDeadlock,
                            "wait-die: row write-locked by an older writer");
        }
        blocked = true;
        waiters_.wait(lk);
      }
      ctx.read_versions.try_emplace(target, version_of(target));
      return Status::ok();
    }
    // Write: exclusive wait-die lock, held to end. Whether the txn held
    // it before matters below; the bool survives the wait (only the txn
    // itself could change its own holdings, and it is blocked here).
    const bool already_held = holds(ctx, target);
    VDB_RETURN_IF_ERROR(acquire_locked(lk, txn, target, /*exclusive=*/true,
                                       may_wait));
    // Early validation: writing a row this transaction read at a version
    // that has since moved is a guaranteed commit-time failure — die now,
    // before generating redo/undo for doomed work. Checked before the
    // txn's own intent bump so it never trips on itself.
    Ctx& c = ctx_.find(txn)->second;
    auto seen = c.read_versions.find(target);
    if (seen != c.read_versions.end() &&
        seen->second != version_of(target)) {
      charge_occ_fail_locked(c);
      return make_error(ErrorCode::kTxnAborted,
                        "occ: read version moved before write");
    }
    if (!already_held) versions_[target] += 1;
    return Status::ok();
  }

  Status validate(TxnId txn) override {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = ctx_.find(txn);
    if (it == ctx_.end()) return Status::ok();  // read-nothing transaction
    Ctx& ctx = it->second;
    for (const auto& [target, version] : ctx.read_versions) {
      // Targets this transaction write-locked are stable (only the lock
      // holder can publish); unlocked read-set entries must still be at
      // the observed version.
      if (holds(ctx, target)) continue;
      if (version_of(target) != version) {
        charge_occ_fail_locked(ctx);
        return make_error(ErrorCode::kTxnAborted,
                          "occ: validation failed (stale read set)");
      }
    }
    return Status::ok();
  }

  // publish() is the CcBase no-op: the write-intent stamp already moved
  // at lock acquisition, which is what readers validate against.

 private:
  std::uint64_t version_of(const LockTarget& t) const {
    auto it = versions_.find(t);
    return it == versions_.end() ? 0 : it->second;
  }

  std::map<LockTarget, std::uint64_t> versions_;
};

}  // namespace

std::unique_ptr<ConcurrencyControl> make_concurrency_control(
    CcProtocol p, obs::Observability* obs) {
  if (p == CcProtocol::kOcc) return std::make_unique<OccCc>(obs);
  return std::make_unique<TwoPhaseLockingCc>(obs);
}

TxnCoordinator::TxnCoordinator(Config cfg)
    : cc_(make_concurrency_control(cfg.protocol, cfg.obs)) {
  const unsigned n = std::max(1u, cfg.workers);
  threads_.reserve(n);
  for (unsigned k = 0; k < n; ++k) {
    threads_.emplace_back([this, k] { worker_main(k); });
  }
}

TxnCoordinator::~TxnCoordinator() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  round_start_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void TxnCoordinator::run_round(const std::function<void(unsigned)>& fn) {
  std::unique_lock<std::mutex> lk(mu_);
  task_ = &fn;
  round_seq_ += 1;
  running_ = workers();
  round_start_.notify_all();
  round_done_.wait(lk, [&] { return running_ == 0; });
  task_ = nullptr;
}

void TxnCoordinator::worker_main(unsigned index) {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(unsigned)>* task = nullptr;
    {
      std::unique_lock<std::mutex> lk(mu_);
      round_start_.wait(lk, [&] { return stop_ || round_seq_ != seen; });
      if (stop_) return;
      seen = round_seq_;
      task = task_;
    }
    (*task)(index);
    {
      std::lock_guard<std::mutex> lk(mu_);
      running_ -= 1;
      if (running_ == 0) round_done_.notify_one();
    }
  }
}

}  // namespace vdb::txn
