// Recovery-phase tracer (V$RECOVERY_PROGRESS analogue).
//
// Decomposes a recovery procedure — instance restart, media recovery,
// block recovery, point-in-time restore, stand-by activation — into
// timestamped phase spans on the simulated clock:
//
//   detection -> restore -> redo roll-forward -> undo -> open
//     -> on-demand redo (early-open restart modes) -> resume
//
// Spans TILE the traced interval: entering a phase closes the open span at
// the current instant and the next span begins exactly there, so the sum
// of all span durations equals end - start to the simulated tick. That
// invariant is what lets the benchmark assert that the per-phase breakdown
// adds up to the headline recovery time (the paper's end-user measure).
//
// The tracer is driven from the experiment thread only (each experiment
// owns its Observability); it is intentionally NOT thread-safe. Phase
// scopes are no-ops while no trace is active *unless* auto_start is left
// on, in which case the first phase entry opens an implicit trace — so
// plain engine tests still get a V$RECOVERY_PROGRESS row for free.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "sim/virtual_clock.hpp"

namespace vdb::obs {

enum class RecoveryPhase : std::uint8_t {
  kDetection = 0,  // failure surfaced -> operator starts the procedure
  kRestore,        // instance start / backup restore / mount
  kRedo,           // roll-forward through archived + online redo
  kUndo,           // loser-transaction rollback
  kOpen,           // checkpoint, object rebuild, open for service
  kOnDemand,       // post-open on-demand / background page redo (M2-M4)
  kResume,         // open -> first post-recovery commit (end-user view)
  kPromote,        // fleet failover: standby activation on the dead shard
  kReroute,        // fleet failover: driver re-attached to the new primary
  kResolveInDoubt, // fleet failover: in-doubt 2PC branches settled
  kCount,
};
constexpr std::size_t kRecoveryPhaseCount =
    static_cast<std::size_t>(RecoveryPhase::kCount);

const char* to_string(RecoveryPhase p);

struct PhaseSpan {
  RecoveryPhase phase = RecoveryPhase::kDetection;
  SimTime start = 0;
  SimTime end = 0;
  SimDuration duration() const { return end - start; }
};

struct RecoveryTrace {
  std::string label;
  SimTime start = 0;
  SimTime end = 0;
  bool finished = false;
  std::vector<PhaseSpan> spans;

  /// Total simulated time spent in one phase (spans aggregate).
  SimDuration phase_time(RecoveryPhase p) const;
  /// Sum over every span — equals end - start for a finished trace.
  SimDuration total() const;
  /// One (phase name, phase_time) row per phase, in phase order: an
  /// experiment's `recovery_phases`.
  std::vector<std::pair<std::string, SimDuration>> phase_rows() const;
};

class RecoveryTracer {
 public:
  /// Begins a new trace at `now`, finishing any unfinished predecessor.
  void start(std::string label, SimTime now);

  /// Enters `phase`: the open span (if any) is closed at `now`; the new
  /// span begins at the close point, so spans tile without gaps. With no
  /// trace active, auto-starts one labelled "recovery".
  void enter(RecoveryPhase phase, SimTime now);

  /// Closes the open span at `now` (no-op when nothing is open).
  void exit(SimTime now);

  /// Ends the trace: closes any open span and stamps the end time.
  void finish(SimTime now);

  bool active() const { return active_; }
  const RecoveryTrace* current() const {
    return active_ ? &current_ : nullptr;
  }
  /// Most recent trace first is at the back; bounded history.
  const std::vector<RecoveryTrace>& history() const { return history_; }
  /// The trace to report: the active one, else the most recent finished.
  const RecoveryTrace* latest() const;

 private:
  static constexpr std::size_t kMaxHistory = 16;

  void close_span(SimTime now);
  void archive_current();

  bool active_ = false;
  bool phase_open_ = false;
  RecoveryPhase open_phase_ = RecoveryPhase::kDetection;
  SimTime cursor_ = 0;  // where the next span begins
  RecoveryTrace current_;
  std::vector<RecoveryTrace> history_;
};

/// RAII phase entry. Destruction closes the span at the then-current
/// simulated instant; an inner scope that entered a different phase first
/// is handled gracefully (the outer destructor closes whatever is open).
class PhaseScope {
 public:
  PhaseScope(RecoveryTracer* tracer, const sim::VirtualClock* clock,
             RecoveryPhase phase)
      : tracer_(tracer), clock_(clock) {
    if (tracer_ != nullptr && clock_ != nullptr) {
      tracer_->enter(phase, clock_->now());
    }
  }
  ~PhaseScope() {
    if (tracer_ != nullptr && clock_ != nullptr) tracer_->exit(clock_->now());
  }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  RecoveryTracer* tracer_;
  const sim::VirtualClock* clock_;
};

}  // namespace vdb::obs
