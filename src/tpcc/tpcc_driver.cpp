#include "tpcc/tpcc_driver.hpp"

#include <algorithm>
#include <string>
#include <utility>

namespace vdb::tpcc {

/// One terminal emulator of the concurrent driver: a private input stream
/// (rng, card deck) and transaction runner, so worker k draws the same
/// inputs regardless of how the other workers' attempts interleave.
struct Driver::WorkerState {
  TpccRandom random;
  TpccTxns txns;
  CardDeck deck;

  WorkerState(TpccDb* db, std::uint64_t seed)
      : random(Rng{seed}, db->scale()), txns(db, &random),
        deck(random.rng()) {}
};

Driver::Driver(TpccDb* db, sim::Scheduler* scheduler, DriverConfig cfg)
    : db_(db), obs_(nullptr), scheduler_(scheduler), cfg_(cfg),
      series_origin_(scheduler->now()),
      random_(Rng{cfg.seed}, db->scale()), txns_(db, &random_),
      deck_(random_.rng()) {
  if (cfg_.workers > 1) {
    txn::TxnCoordinator::Config ccfg;
    ccfg.workers = cfg_.workers;
    ccfg.protocol = cfg_.cc_protocol;
    ccfg.obs = &db_->db().obs();
    coord_ = std::make_unique<txn::TxnCoordinator>(ccfg);
    for (unsigned k = 0; k < coord_->workers(); ++k) {
      workers_.push_back(std::make_unique<WorkerState>(
          db_, cfg_.seed ^ (0x9E3779B97F4A7C15ull * (k + 1))));
    }
  }
}

Driver::Driver(TxnRoute* route, const TpccScale& scale,
               sim::Scheduler* scheduler, obs::Observability* obs,
               DriverConfig cfg)
    : db_(nullptr), obs_(obs), scheduler_(scheduler), cfg_(cfg),
      series_origin_(scheduler->now()), random_(Rng{cfg.seed}, scale),
      txns_(route, &random_), deck_(random_.rng()) {
  VDB_CHECK_MSG(cfg_.workers <= 1,
                "concurrent rounds drive a single instance only");
}

Driver::~Driver() = default;

Status Driver::run_until(SimTime until) {
  obs::MetricsRegistry& registry =
      (obs_ != nullptr ? *obs_ : db_->db().obs()).registry();
  for (size_t k = 0; k < kTxnTypes; ++k) {
    latency_hist_[k] = registry.histogram(
        std::string("client response ") + to_string(static_cast<TxnType>(k)));
  }
  return coord_ ? run_concurrent(until) : run_serial(until);
}

Status Driver::run_serial(SimTime until) {
  sim::VirtualClock& clock = scheduler_->clock();
  while (clock.now() < until) {
    scheduler_->run_due();
    if (clock.now() >= until) break;

    const TxnType type = deck_.draw(random_.rng());
    const std::uint32_t w = random_.warehouse_id();
    const SimTime begin = clock.now();
    auto outcome = txns_.run(type, w);
    if (!outcome.is_ok()) {
      const ErrorCode code = outcome.code();
      if (code == ErrorCode::kDeadlock) continue;
      if (code == ErrorCode::kRecoveryRequired) {
        // M2 early-open restart rejected a pending page. Back off (firing
        // due background events — the restart sweeper among them — at
        // their exact instants) and try again.
        stats_.recovery_retries += 1;
        const SimTime resume_at =
            std::min(until, clock.now() + cfg_.recovery_retry_backoff);
        if (resume_at > clock.now()) scheduler_->run_until(resume_at);
        continue;
      }
      stats_.failed_attempts += 1;
      return outcome.status();
    }
    if (outcome.value().intentional_rollback) {
      stats_.intentional_rollbacks += 1;
      continue;
    }
    if (outcome.value().committed) {
      const TxnRoute& route = txns_.route();
      const auto branches = route.committed_branches();
      record_commit({type, route.home_shard(), outcome.value().commit_lsn,
                     clock.now(), clock.now() - begin,
                     {branches.begin(), branches.end()}});
    }
  }
  return Status::ok();
}

void Driver::record_commit(CommitRecord record) {
  const auto k = static_cast<size_t>(record.type);
  stats_.committed += 1;
  stats_.committed_by_type[k] += 1;
  if (!record.branches.empty()) stats_.cross_shard_committed += 1;
  latency_hist_[k]->record(record.response_time);
  if (record.type == TxnType::kNewOrder) {
    const size_t bucket = static_cast<size_t>(
        (record.commit_time - series_origin_) / cfg_.report_interval);
    if (series_.size() <= bucket) series_.resize(bucket + 1, 0);
    series_[bucket] += 1;
  }
  commits_.push_back(std::move(record));
}

Status Driver::run_concurrent(SimTime until) {
  sim::VirtualClock& clock = scheduler_->clock();
  engine::Database& db = db_->db();
  txn::ConcurrencyControl* cc = coord_->cc();
  db.set_concurrency_control(cc);
  struct Uninstall {
    engine::Database* db;
    ~Uninstall() { db->set_concurrency_control(nullptr); }
  } uninstall{&db};

  const unsigned n = coord_->workers();
  struct LocalCommit {
    TxnType type = TxnType::kNewOrder;
    Lsn lsn = 0;
    SimDuration offset = 0;    // worker-local commit instant
    SimDuration response = 0;  // begin -> commit on the worker timeline
    bool valid = false;
  };
  struct RoundResult {
    SimDuration sink = 0;  // worker-local elapsed time this round
    LocalCommit commit;
    std::uint64_t cc_retries = 0;
    std::uint64_t intentional_rollbacks = 0;
    std::uint64_t recovery_retries = 0;
    bool backoff = false;
    Status fatal = Status::ok();
  };
  std::vector<RoundResult> results(n);

  while (clock.now() < until) {
    scheduler_->run_due();
    if (clock.now() >= until) break;
    const SimTime round_start = clock.now();
    for (RoundResult& r : results) r = RoundResult{};

    // One round: every worker completes one interaction on a private
    // timeline (the global clock stays frozen); conflict losers retry with
    // fresh inputs inside the round, per the spec's "resubmit" behaviour.
    coord_->run_round([&](unsigned k) {
      RoundResult& r = results[k];
      WorkerState& ws = *workers_[k];
      sim::VirtualClock::install_local_sink(&r.sink);
      for (int attempt = 0; attempt < 64; ++attempt) {
        const TxnType type = ws.deck.draw(ws.random.rng());
        const std::uint32_t w = ws.random.warehouse_id();
        const SimDuration begin_offset = r.sink;
        auto outcome = ws.txns.run(type, w);
        if (!outcome.is_ok()) {
          const ErrorCode code = outcome.code();
          // kNotFound covers stale access-path races (e.g. two Delivery
          // transactions draining the same oldest NEW-ORDER entry).
          if (code == ErrorCode::kDeadlock || code == ErrorCode::kTxnAborted ||
              code == ErrorCode::kNotFound) {
            r.cc_retries += 1;
            continue;
          }
          if (code == ErrorCode::kRecoveryRequired) {
            r.recovery_retries += 1;
            r.backoff = true;
            break;
          }
          // Service failure. The transaction may have died before rollback
          // could reach the protocol's end() hook; drop whatever this
          // thread's transactions still hold so no peer waits forever.
          r.fatal = outcome.status();
          cc->release_thread_residue();
          break;
        }
        if (outcome.value().intentional_rollback) {
          r.intentional_rollbacks += 1;
          break;
        }
        if (outcome.value().committed) {
          r.commit = {type, outcome.value().commit_lsn, r.sink,
                      r.sink - begin_offset, true};
        }
        break;
      }
      sim::VirtualClock::remove_local_sink();
    });

    // The workers ran in parallel on private timelines; the shared clock
    // advances by the round makespan — N workers, N processors.
    SimDuration makespan = 0;
    for (const RoundResult& r : results) makespan = std::max(makespan, r.sink);
    clock.advance_to(round_start + makespan);

    // Merge commits in virtual-time order (ties by worker id) so the
    // commit log and throughput series stay deterministic.
    std::vector<unsigned> order;
    for (unsigned k = 0; k < n; ++k) {
      if (results[k].commit.valid) order.push_back(k);
    }
    std::sort(order.begin(), order.end(), [&](unsigned a, unsigned b) {
      if (results[a].commit.offset != results[b].commit.offset) {
        return results[a].commit.offset < results[b].commit.offset;
      }
      return a < b;
    });
    for (unsigned k : order) {
      const LocalCommit& c = results[k].commit;
      record_commit(
          {c.type, 0, c.lsn, round_start + c.offset, c.response, {}});
    }

    bool backoff = false;
    Status fatal = Status::ok();
    for (const RoundResult& r : results) {
      stats_.cc_retries += r.cc_retries;
      stats_.intentional_rollbacks += r.intentional_rollbacks;
      stats_.recovery_retries += r.recovery_retries;
      backoff = backoff || r.backoff;
      if (!r.fatal.is_ok()) {
        stats_.failed_attempts += 1;
        if (fatal.is_ok()) fatal = r.fatal;
      }
    }
    if (!fatal.is_ok()) return fatal;
    if (backoff) {
      const SimTime resume_at =
          std::min(until, clock.now() + cfg_.recovery_retry_backoff);
      if (resume_at > clock.now()) scheduler_->run_until(resume_at);
    }
  }
  return Status::ok();
}

double Driver::tpmc(SimTime from, SimTime to) const {
  if (to <= from) return 0;
  std::uint64_t count = 0;
  for (const CommitRecord& record : commits_) {
    if (record.type == TxnType::kNewOrder && record.commit_time >= from &&
        record.commit_time < to) {
      count += 1;
    }
  }
  return static_cast<double>(count) / to_seconds(to - from) * 60.0;
}

double Driver::tpm_total(SimTime from, SimTime to) const {
  if (to <= from) return 0;
  std::uint64_t count = 0;
  for (const CommitRecord& record : commits_) {
    if (record.commit_time >= from && record.commit_time < to) count += 1;
  }
  return static_cast<double>(count) / to_seconds(to - from) * 60.0;
}

SimDuration Driver::response_percentile(TxnType type, double q) const {
  std::vector<SimDuration> samples;
  for (const CommitRecord& record : commits_) {
    if (record.type == type) samples.push_back(record.response_time);
  }
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const size_t index = std::min(
      samples.size() - 1,
      static_cast<size_t>(q * static_cast<double>(samples.size())));
  return samples[index];
}

SimDuration Driver::mean_response(TxnType type) const {
  SimDuration total = 0;
  std::uint64_t count = 0;
  for (const CommitRecord& record : commits_) {
    if (record.type == type) {
      total += record.response_time;
      count += 1;
    }
  }
  return count == 0 ? 0 : total / count;
}

std::uint64_t Driver::count_lost(std::uint32_t shard, Lsn recovered_to,
                                 SimTime before) const {
  // Read-only work commits at LSN 0, never above recovered_to: nothing to
  // lose.
  auto above = [&](const TxnRoute::Branch& b) {
    return b.first == shard && b.second > recovered_to;
  };
  std::uint64_t lost = 0;
  for (const CommitRecord& record : commits_) {
    if (record.commit_time >= before) continue;
    const bool is_lost =
        record.branches.empty()
            ? above({record.shard, record.commit_lsn})
            : std::any_of(record.branches.begin(), record.branches.end(),
                          above);
    if (is_lost) lost += 1;
  }
  return lost;
}

}  // namespace vdb::tpcc
