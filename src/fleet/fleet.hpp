// A fleet of database shards: TPC-C warehouses partitioned across N
// independent instances, each with its own hosts, redo stream, and
// archive-shipped standby.
//
// Partitioning is a static multiplicative hash of the warehouse id, so
// routing never needs a directory and stays identical across restarts.
// Single-warehouse transactions run entirely on their home shard;
// cross-shard New-Order (remote stock) and Payment (remote customer) run
// under presumed-abort two-phase commit — the PREPARE and the
// coordinator's decision are ordinary redo records, so each branch's fate
// is reconstructible by instance recovery or standby activation alone.
//
// The fleet also owns the TwoPhaseRegistry: the benchmark's ground truth
// of every distributed transaction (participants, durable decision, the
// outcome each shard applied). The registry is measurement apparatus, not
// a recovery mechanism — recovery uses only what is in the redo streams.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "benchmark/testbed.hpp"
#include "common/status.hpp"
#include "engine/database.hpp"
#include "sim/network.hpp"
#include "sim/scheduler.hpp"
#include "sim/virtual_clock.hpp"
#include "standby/standby.hpp"
#include "tpcc/tpcc_db.hpp"
#include "tpcc/tpcc_random.hpp"

namespace vdb::fleet {

/// Each shard is one paper testbed sized by ExperimentOptions' defaults
/// (F40G3T10, two datafiles, 2048 cache frames), with a stand-by.
struct FleetConfig {
  std::uint32_t shards = 2;
  /// TPC-C scale for the whole fleet; scale.warehouses spread over shards.
  tpcc::TpccScale scale{};
  std::uint64_t seed = 12345;
};

/// One branch of a distributed transaction, as the benchmark observed it.
struct BranchRecord {
  std::uint32_t shard = 0;
  Lsn prepare_lsn = 0;
  Lsn end_lsn = 0;
  /// 'C' committed, 'A' aborted, 'L' wiped by unarchived-redo loss on
  /// standby promotion (the branch never became durable there), '?' not
  /// yet settled (in doubt).
  char outcome = '?';
};

struct GlobalTxn {
  std::uint64_t gtxn = 0;
  std::uint32_t coord = 0;
  /// Coordinator durably logged a decision (as the client-side saw it).
  bool decided = false;
  bool decision = false;
  /// Every branch outcome is known; nothing left for the orchestrator.
  bool finished = false;
  std::vector<BranchRecord> branches;

  BranchRecord* branch(std::uint32_t shard);
  bool settled() const;
};

/// Fleet-global record of two-phase transactions: who participated, what
/// was decided, what each shard applied. The atomicity audit — no gtxn may
/// commit on one shard and abort on another — reads this after every
/// experiment.
class TwoPhaseRegistry {
 public:
  GlobalTxn& open(std::uint32_t coord,
                  const std::vector<std::uint32_t>& shards);
  GlobalTxn* find(std::uint64_t gtxn);
  std::map<std::uint64_t, GlobalTxn>& txns() { return txns_; }
  const std::map<std::uint64_t, GlobalTxn>& txns() const { return txns_; }

  std::uint64_t cross_shard_txns() const { return next_gtxn_ - 1; }
  /// gtxns with both a committed and an aborted branch ('L' excluded).
  std::uint64_t atomicity_violations() const;

 private:
  std::uint64_t next_gtxn_ = 1;
  std::map<std::uint64_t, GlobalTxn> txns_;
};

/// One shard: a testbed (primary host and instance, stand-by fed over a
/// network link, statistics area that survives promotion) whose TPC-C
/// access paths are bound to whichever incarnation is active.
struct Shard : bench::Testbed {
  using Testbed::Testbed;

  std::uint32_t index = 0;
  std::vector<std::uint32_t> warehouses;
  bool promoted = false;
  /// After promotion: the activation watermark — primary commits above it
  /// were in the unarchived online group and are lost.
  Lsn recovered_to = 0;
  SimTime failed_at = 0;
};

class Fleet {
 public:
  explicit Fleet(FleetConfig cfg);

  /// Builds every shard's testbed over its warehouse subset.
  Status setup();

  /// Static partition map: multiplicative hash of the warehouse id.
  std::uint32_t shard_of(std::uint32_t warehouse) const;

  std::uint32_t size() const { return cfg_.shards; }
  Shard& shard(std::uint32_t i) { return *shards_[i]; }
  const Shard& shard(std::uint32_t i) const { return *shards_[i]; }

  /// The shard's serving instance: the promoted standby when failed over,
  /// else the original primary.
  engine::Database& active_db(std::uint32_t i) {
    return shards_[i]->serving_db();
  }
  tpcc::TpccDb& tdb(std::uint32_t i) { return *shards_[i]->tdb; }

  /// Kills a shard's serving instance (SHUTDOWN ABORT) — the fleet
  /// faultload's crash primitive.
  Status kill_shard(std::uint32_t i);

  /// Restarts a crashed (not failed-over) shard in place: a fresh
  /// incarnation on the primary host, instance recovery from its own redo.
  /// The standby keeps trailing the restarted primary's archives.
  Status restart_shard(std::uint32_t i);

  /// Activates the shard's standby and re-binds the access paths to it.
  /// The report's recovered_to is kept on the shard for lost accounting.
  Result<standby::ActivationReport> promote(std::uint32_t i);

  /// Every shard's serving instance is open.
  bool healthy() const;

  sim::VirtualClock& clock() { return clock_; }
  sim::Scheduler& scheduler() { return sched_; }
  /// Inter-shard message link (2PC round trips charge transfer time here).
  sim::NetworkLink& interconnect() { return interconnect_; }
  TwoPhaseRegistry& registry() { return registry_; }
  const FleetConfig& config() const { return cfg_; }
  const tpcc::TpccScale& scale() const { return cfg_.scale; }

 private:
  FleetConfig cfg_;
  sim::VirtualClock clock_;
  sim::Scheduler sched_;
  sim::NetworkLink interconnect_;
  TwoPhaseRegistry registry_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace vdb::fleet
