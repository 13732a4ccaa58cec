#include "obs/recovery_trace.hpp"

#include <utility>

namespace vdb::obs {

const char* to_string(RecoveryPhase p) {
  switch (p) {
    case RecoveryPhase::kDetection: return "detection";
    case RecoveryPhase::kRestore: return "restore";
    case RecoveryPhase::kRedo: return "redo";
    case RecoveryPhase::kUndo: return "undo";
    case RecoveryPhase::kOpen: return "open";
    case RecoveryPhase::kOnDemand: return "on_demand";
    case RecoveryPhase::kResume: return "resume";
    case RecoveryPhase::kPromote: return "promote";
    case RecoveryPhase::kReroute: return "reroute";
    case RecoveryPhase::kResolveInDoubt: return "resolve_indoubt";
    case RecoveryPhase::kCount: break;
  }
  return "?";
}

SimDuration RecoveryTrace::phase_time(RecoveryPhase p) const {
  SimDuration total = 0;
  for (const PhaseSpan& span : spans) {
    if (span.phase == p) total += span.duration();
  }
  return total;
}

SimDuration RecoveryTrace::total() const {
  SimDuration total = 0;
  for (const PhaseSpan& span : spans) total += span.duration();
  return total;
}

std::vector<std::pair<std::string, SimDuration>> RecoveryTrace::phase_rows()
    const {
  std::vector<std::pair<std::string, SimDuration>> rows;
  for (size_t k = 0; k < kRecoveryPhaseCount; ++k) {
    const auto phase = static_cast<RecoveryPhase>(k);
    rows.emplace_back(to_string(phase), phase_time(phase));
  }
  return rows;
}

void RecoveryTracer::start(std::string label, SimTime now) {
  if (active_) finish(cursor_);
  current_ = RecoveryTrace{};
  current_.label = std::move(label);
  current_.start = now;
  cursor_ = now;
  phase_open_ = false;
  active_ = true;
}

void RecoveryTracer::close_span(SimTime now) {
  if (!phase_open_) return;
  if (now > cursor_) {
    current_.spans.push_back(PhaseSpan{open_phase_, cursor_, now});
    cursor_ = now;
  } else if (!current_.spans.empty() &&
             current_.spans.back().phase == open_phase_) {
    // Zero-length re-entry: nothing to record.
  }
  phase_open_ = false;
}

void RecoveryTracer::enter(RecoveryPhase phase, SimTime now) {
  if (!active_) start("recovery", now);
  close_span(now);
  open_phase_ = phase;
  phase_open_ = true;
}

void RecoveryTracer::exit(SimTime now) {
  if (!active_) return;
  close_span(now);
}

void RecoveryTracer::archive_current() {
  history_.push_back(current_);
  if (history_.size() > kMaxHistory) {
    history_.erase(history_.begin());
  }
}

void RecoveryTracer::finish(SimTime now) {
  if (!active_) return;
  // The harness finishes a trace retroactively at the first post-recovery
  // commit, but early-open restart modes keep recording on-demand spans
  // while the workload runs past that instant. Clamp everything to the
  // finish time so spans still tile [start, end] exactly.
  while (!current_.spans.empty() && current_.spans.back().start >= now) {
    current_.spans.pop_back();
  }
  if (!current_.spans.empty() && current_.spans.back().end > now) {
    current_.spans.back().end = now;
  }
  if (cursor_ > now) cursor_ = now;
  close_span(now);
  // Tail not attributed to any phase (clock advanced after the last span
  // closed): fold it into a resume span so spans keep tiling the trace.
  if (now > cursor_) {
    current_.spans.push_back(PhaseSpan{RecoveryPhase::kResume, cursor_, now});
    cursor_ = now;
  }
  current_.end = now;
  current_.finished = true;
  archive_current();
  active_ = false;
}

const RecoveryTrace* RecoveryTracer::latest() const {
  if (active_) return &current_;
  if (!history_.empty()) return &history_.back();
  return nullptr;
}

}  // namespace vdb::obs
