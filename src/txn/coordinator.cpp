#include "txn/coordinator.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <memory>

#include "common/flat_index.hpp"
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
/// The table holds an entry only while the row has a holder or a parked
/// waiter, and a transaction is listed in an entry's holders exactly when
/// the entry is in its context's `held` list. Entries live in a slab at
/// stable addresses (parked waiters keep their `Entry&`); a FlatIndex maps
/// each locked target to its slab slot, and drained slots go on a free
/// list with their holders' capacity. Contexts are slots of a short list
/// (one per running transaction: the workers plus whatever a failure
/// stranded), reused the same way. Once warm, mediating a row allocates
/// nothing.
///
/// Virtual-time coupling: workers run on frozen-clock private timelines
/// (VirtualClock local sinks), so a real-thread block has no simulated
/// cost by itself. Instead the releaser stamps the lock entry with its
/// own sink offset at release, and a woken waiter raises its sink to that
/// offset — the lock became available at that instant of the round, and
/// the difference is charged to enq_lock_wait.
class CcBase : public ConcurrencyControl {
 public:
  /// `obs` nullptr: count nothing.
  explicit CcBase(obs::Observability* obs) {
    if (obs == nullptr) return;
    waits_ = &obs->waits();
    obs::MetricsRegistry& reg = obs->registry();
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
    Ctx* ctx = find_ctx_locked(txn);
    if (ctx == nullptr) return;
    release_locked(*ctx, committed);
    waiters_.notify_all();
  }

  void release_thread_residue() override {
    std::lock_guard<std::mutex> lk(mu_);
    const std::thread::id self = std::this_thread::get_id();
    bool released = false;
    for (Ctx& ctx : contexts_) {
      if (ctx.active && ctx.owner == self) {
        release_locked(ctx, /*committed=*/false);
        released = true;
      }
    }
    if (released) waiters_.notify_all();
  }

  size_t locked_count() const override {
    std::lock_guard<std::mutex> lk(mu_);
    return index_.size();
  }

 protected:
  struct Entry {
    LockTarget target;
    bool exclusive = false;
    std::vector<TxnId> holders;
    /// Requests parked on this entry: it outlives its last holder while
    /// any remain, so a woken waiter still reads release_offset.
    std::uint32_t waiters = 0;
    /// Sink offset of the most recent releaser this round; woken waiters
    /// raise their private timeline to it.
    SimDuration release_offset = 0;
  };

  struct Ctx {
    bool active = false;
    TxnId id{};
    std::thread::id owner;
    SimDuration begin_offset = 0;  // sink offset at first mediation
    std::vector<std::uint32_t> held;  // slab slots of the entries it holds
    /// OCC read set: target -> version observed at first read.
    std::map<LockTarget, std::uint64_t> read_versions;
  };

  static constexpr std::uint32_t kNoEntry = FlatIndex<LockTarget>::kNone;

  static void bump(obs::Counter* c) {
    if (c != nullptr) c->inc();
  }

  static bool listed(const Entry& e, TxnId txn) {
    return std::find(e.holders.begin(), e.holders.end(), txn) !=
           e.holders.end();
  }

  Ctx* find_ctx_locked(TxnId txn) {
    if (last_ctx_ != nullptr && last_ctx_->active && last_ctx_->id == txn) {
      return last_ctx_;
    }
    for (Ctx& ctx : contexts_) {
      if (ctx.active && ctx.id == txn) return last_ctx_ = &ctx;
    }
    return nullptr;
  }

  /// The context of `txn`, begun in a free slot on its first mediation.
  Ctx& ensure_ctx_locked(TxnId txn) {
    if (Ctx* ctx = find_ctx_locked(txn)) return *ctx;
    Ctx* free_slot = nullptr;
    for (Ctx& ctx : contexts_) {
      if (!ctx.active) {
        free_slot = &ctx;
        break;
      }
    }
    Ctx& ctx = free_slot != nullptr ? *free_slot : contexts_.emplace_back();
    last_ctx_ = &ctx;
    ctx.active = true;
    ctx.id = txn;
    ctx.owner = std::this_thread::get_id();
    ctx.begin_offset = sim::VirtualClock::local_elapsed();
    bump(txns_begun_);
    return ctx;
  }

  Entry& entry_at(std::uint32_t slot) {
    return slab_[slot / kSlabChunk][slot % kSlabChunk];
  }
  const Entry& entry_at(std::uint32_t slot) const {
    return slab_[slot / kSlabChunk][slot % kSlabChunk];
  }

  /// Slab slot of the entry for `target`, taking a free slot when the row
  /// has none.
  std::uint32_t entry_locked(const LockTarget& target) {
    const std::uint32_t spare = free_entries_.empty()
                                    ? slab_size_
                                    : free_entries_.back();
    bool inserted = false;
    const std::uint32_t slot = index_.find_or_insert(target, spare, &inserted);
    if (!inserted) return slot;
    if (free_entries_.empty()) {
      if (slab_size_ % kSlabChunk == 0) {
        slab_.push_back(std::make_unique<Entry[]>(kSlabChunk));
      }
      slab_size_ += 1;
    } else {
      free_entries_.pop_back();
    }
    entry_at(slot).target = target;
    return slot;
  }

  /// Unmaps a drained entry (no holder, no waiter) and resets its slot for
  /// reuse: a reused entry must not inherit the last tenure's mode.
  void drop_entry_locked(std::uint32_t slot) {
    Entry& e = entry_at(slot);
    index_.erase(e.target);
    e.exclusive = false;
    e.holders.clear();
    e.waiters = 0;
    e.release_offset = 0;
    free_entries_.push_back(slot);
  }

  bool holds_locked(TxnId txn, const LockTarget& t) const {
    const std::uint32_t slot = index_.find(t);
    return slot != kNoEntry && listed(entry_at(slot), txn);
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

  /// Parks the caller on `e` until the next release anywhere.
  void park_locked(std::unique_lock<std::mutex>& lk, Entry& e) {
    e.waiters += 1;
    waiters_.wait(lk);
    e.waiters -= 1;
  }

  /// Charges a finished wait on `e` that began at `entered_at`.
  void charge_wait_locked(const Entry& e, SimDuration entered_at) {
    sim::VirtualClock::raise_local(e.release_offset);
    const SimDuration waited = sim::VirtualClock::local_elapsed() - entered_at;
    bump(lock_waits_);
    if (waits_ != nullptr && waited > 0) {
      waits_->add_wait(obs::WaitEvent::kEnqLockWait, waited);
    }
  }

  /// Grants or wait-die-aborts one lock request. Returns kDeadlock when
  /// the requester must die. `mu_` must be held; may release it while
  /// blocked.
  Status acquire_locked(std::unique_lock<std::mutex>& lk, Ctx& ctx,
                        const LockTarget& target, bool exclusive,
                        bool may_wait) {
    // A fresh entry is grantable at once, so a refusal never leaves an
    // empty one behind.
    const std::uint32_t slot = entry_locked(target);
    Entry& e = entry_at(slot);
    SimDuration entered_at = 0;
    bool blocked = false;
    while (!can_grant(e, ctx.id, exclusive)) {
      if (!may_wait || !older_than_all(e, ctx.id)) {
        bump(wait_die_aborts_);
        return make_error(ErrorCode::kDeadlock,
                          "wait-die: conflicting lock held by an older or "
                          "non-waitable request");
      }
      if (!blocked) entered_at = sim::VirtualClock::local_elapsed();
      blocked = true;
      park_locked(lk, e);
    }
    // A repeat shared request by one of several holders is already
    // granted; listing it twice would leave {T, T} after the others
    // release, and T's upgrade would wait on itself.
    if (!listed(e, ctx.id)) {
      e.holders.push_back(ctx.id);
      ctx.held.push_back(slot);
    }
    e.exclusive = e.exclusive || exclusive;
    if (blocked) charge_wait_locked(e, entered_at);
    return Status::ok();
  }

  /// Releases everything `ctx` holds and frees its slot; `mu_` must be
  /// held. The releaser's sink offset is stamped on each entry for its
  /// waiters; an entry with neither holders nor waiters left is dropped.
  void release_locked(Ctx& ctx, bool committed) {
    const SimDuration at = sim::VirtualClock::local_elapsed();
    for (const std::uint32_t slot : ctx.held) {
      Entry& e = entry_at(slot);
      e.holders.erase(std::find(e.holders.begin(), e.holders.end(), ctx.id));
      if (e.holders.empty()) {
        if (e.waiters == 0) {
          drop_entry_locked(slot);
          continue;
        }
        e.exclusive = false;
      }
      e.release_offset = at;
    }
    ctx.read_versions.clear();
    ctx.active = false;
    bump(committed ? txns_committed_ : txns_aborted_);
    // A bulk load's transaction locks thousands of rows, far more than any
    // interaction. Once the table drains after one, its storage goes back
    // to the allocator instead of staying reserved for the instance's life.
    if (ctx.held.size() > kBulkLocks) {
      ctx.held = {};
      if (index_.size() == 0) {
        slab_.clear();
        slab_size_ = 0;
        free_entries_ = {};
        index_ = {};
      }
    } else {
      ctx.held.clear();
    }
  }

  void charge_occ_fail_locked(const Ctx& ctx) {
    bump(occ_validate_fails_);
    const SimDuration wasted =
        sim::VirtualClock::local_elapsed() - ctx.begin_offset;
    if (waits_ != nullptr && wasted > 0) {
      waits_->add_wait(obs::WaitEvent::kOccValidateFail, wasted);
    }
  }

  mutable std::mutex mu_;
  std::condition_variable waiters_;
  /// A transaction holding more row locks than this is a bulk load's: a
  /// TPC-C interaction holds at most a few hundred (Stock-Level).
  static constexpr size_t kBulkLocks = 1024;
  /// Lock entries by slab slot, in chunks that never move, so a parked
  /// waiter's Entry& stays valid while the slab grows.
  static constexpr std::uint32_t kSlabChunk = 256;
  std::vector<std::unique_ptr<Entry[]>> slab_;
  std::uint32_t slab_size_ = 0;
  std::vector<std::uint32_t> free_entries_;
  FlatIndex<LockTarget> index_;  // locked target -> slab slot
  std::deque<Ctx> contexts_;
  Ctx* last_ctx_ = nullptr;  // the context found last (serial runs: the one)

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
    return acquire_locked(lk, ensure_ctx_locked(txn), target,
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
      if (holds_locked(txn, target)) return Status::ok();  // own write
      // Wait out (or die to) a concurrent writer: with in-place updates
      // the row's bytes are dirty until the writer resolves. Reads take
      // no lock, so the entry's holders are writers other than `txn`.
      const std::uint32_t slot = index_.find(target);
      if (slot != kNoEntry) {
        Entry& e = entry_at(slot);
        const SimDuration entered_at = sim::VirtualClock::local_elapsed();
        bool blocked = false;
        while (!e.holders.empty()) {
          if (!may_wait || !older_than_all(e, txn)) {
            bump(wait_die_aborts_);
            return make_error(ErrorCode::kDeadlock,
                              "wait-die: row write-locked by an older writer");
          }
          blocked = true;
          park_locked(lk, e);
        }
        if (blocked) charge_wait_locked(e, entered_at);
        if (e.waiters == 0) drop_entry_locked(slot);
      }
      ctx.read_versions.try_emplace(target, version_of(target));
      return Status::ok();
    }
    // Write: exclusive wait-die lock, held to end. Whether the txn held
    // it before matters below; the bool survives the wait (only the txn
    // itself could change its own holdings, and it is blocked here).
    const bool already_held = holds_locked(txn, target);
    VDB_RETURN_IF_ERROR(acquire_locked(lk, ctx, target, /*exclusive=*/true,
                                       may_wait));
    // Early validation: writing a row this transaction read at a version
    // that has since moved is a guaranteed commit-time failure — die now,
    // before generating redo/undo for doomed work. Checked before the
    // txn's own intent bump so it never trips on itself.
    auto seen = ctx.read_versions.find(target);
    if (seen != ctx.read_versions.end() &&
        seen->second != version_of(target)) {
      charge_occ_fail_locked(ctx);
      return make_error(ErrorCode::kTxnAborted,
                        "occ: read version moved before write");
    }
    if (!already_held) versions_[target] += 1;
    return Status::ok();
  }

  Status validate(TxnId txn) override {
    std::lock_guard<std::mutex> lk(mu_);
    Ctx* found = find_ctx_locked(txn);
    if (found == nullptr) return Status::ok();  // read-nothing transaction
    Ctx& ctx = *found;
    for (const auto& [target, version] : ctx.read_versions) {
      // Targets this transaction write-locked are stable (only the lock
      // holder can publish); unlocked read-set entries must still be at
      // the observed version.
      if (holds_locked(txn, target)) continue;
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
    : cc_(make_concurrency_control(cfg.protocol, obs::resolve(cfg.obs))) {
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
