#include "wal/redo_log.hpp"

#include <algorithm>
#include <array>

#include "common/codec.hpp"

namespace vdb::wal {

namespace {
constexpr std::uint32_t kGroupMagic = 0x52444C47;  // "RDLG"
constexpr size_t kGroupHeaderSize = 20;            // magic + seq + start_lsn
}  // namespace

Result<LogFileHeader> parse_log_header(std::span<const std::uint8_t> image) {
  Decoder dec(image);
  if (image.size() < kGroupHeaderSize || dec.get_u32().value() != kGroupMagic) {
    return Status{ErrorCode::kCorruption, "bad log file header"};
  }
  // Braced initialisers evaluate left to right: seq, then start_lsn.
  return LogFileHeader{dec.get_u64().value(), dec.get_u64().value()};
}

Result<LogFileHeader> read_log_header(sim::SimFs& fs, const std::string& path) {
  std::array<std::uint8_t, kGroupHeaderSize> header;
  VDB_RETURN_IF_ERROR(fs.read(path, 0, header, sim::IoMode::kForeground));
  return parse_log_header(header);
}

Status parse_log_records(std::span<const std::uint8_t> image,
                         const std::function<bool(const LogRecord&)>& fn) {
  if (!parse_log_header(image).is_ok()) return Status::ok();
  return parse_records(image.subspan(kGroupHeaderSize), fn);
}

RedoLog::RedoLog(sim::SimFs* fs, RedoLogConfig cfg, Callbacks cb)
    : fs_(fs), cfg_(cfg), cb_(std::move(cb)) {
  VDB_CHECK_MSG(cfg_.groups >= 2, "Oracle requires at least two redo groups");
  groups_.resize(cfg_.groups);
  for (std::uint32_t i = 0; i < cfg_.groups; ++i) {
    groups_[i].index = i;
    groups_[i].archived = true;
  }
  set_observability(nullptr, nullptr);
}

void RedoLog::set_observability(obs::Observability* obs,
                                const sim::VirtualClock* clock) {
  obs::Observability* o = obs::resolve(obs);
  waits_ = &o->waits();
  obs_clock_ = clock;
  obs::MetricsRegistry& reg = o->registry();
  redo_bytes_counter_ = reg.counter("redo size bytes");
  redo_writes_counter_ = reg.counter("redo writes");
  log_switches_counter_ = reg.counter("log switches");
}

std::string RedoLog::member_path(std::uint32_t index,
                                 std::uint32_t member) const {
  const std::string& dir = member < cfg_.member_dirs.size()
                               ? cfg_.member_dirs[member]
                               : cfg_.dir;
  char buf[48];
  if (member == 0) {
    std::snprintf(buf, sizeof(buf), "/group_%02u.log", index);
  } else {
    std::snprintf(buf, sizeof(buf), "/group_%02u_m%u.log", index, member);
  }
  return dir + buf;
}

Result<std::string> RedoLog::intact_member(std::uint32_t index) const {
  for (std::uint32_t m = 0; m < std::max<std::uint32_t>(
                                    1, cfg_.members_per_group);
       ++m) {
    const std::string path = member_path(index, m);
    if (fs_->exists(path) && !fs_->is_corrupted(path)) return path;
  }
  return Status{ErrorCode::kMediaFailure,
                "all members of redo group " + std::to_string(index) +
                    " lost"};
}

Status RedoLog::for_each_member(
    std::uint32_t index,
    const std::function<Status(const std::string&)>& fn) {
  Status last = Status::ok();
  std::uint32_t succeeded = 0;
  for (std::uint32_t m = 0;
       m < std::max<std::uint32_t>(1, cfg_.members_per_group); ++m) {
    Status st = fn(member_path(index, m));
    if (st.is_ok()) {
      succeeded += 1;
    } else {
      last = st;
    }
  }
  if (succeeded == 0) return last;
  return Status::ok();
}

std::string RedoLog::archive_path(std::uint64_t seq) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "/arch_%08llu.log",
                static_cast<unsigned long long>(seq));
  return cfg_.archive_dir + buf;
}

Status RedoLog::write_group_header(std::uint32_t index) {
  std::vector<std::uint8_t> header;
  Encoder enc(&header);
  enc.put_u32(kGroupMagic);
  enc.put_u64(groups_[index].seq);
  enc.put_u64(groups_[index].start_lsn);
  return for_each_member(index, [&](const std::string& path) {
    return fs_->write(path, 0, header, sim::IoMode::kForeground,
                      /*sequential=*/true);
  });
}

Status RedoLog::create() {
  for (std::uint32_t i = 0; i < cfg_.groups; ++i) {
    VDB_RETURN_IF_ERROR(for_each_member(
        i, [&](const std::string& path) { return fs_->create(path); }));
  }
  current_ = 0;
  RedoGroup& g = groups_[0];
  g.seq = next_seq_++;
  g.start_lsn = next_lsn_;
  g.current = true;
  g.archived = false;
  VDB_RETURN_IF_ERROR(write_group_header(0));
  return Status::ok();
}

Status RedoLog::open_existing() {
  std::uint64_t max_seq = 0;
  for (std::uint32_t i = 0; i < cfg_.groups; ++i) {
    RedoGroup& g = groups_[i];
    g = RedoGroup{};
    g.index = i;
    g.archived = true;
    auto member = intact_member(i);
    if (!member.is_ok()) return member.status();
    auto bytes = fs_->read_all(member.value(), sim::IoMode::kForeground);
    if (!bytes.is_ok()) return bytes.status();
    const auto& data = bytes.value();
    auto header = parse_log_header(data);
    if (!header.is_ok()) continue;  // never used
    g.seq = header.value().seq;
    g.start_lsn = header.value().start_lsn;
    Lsn end = g.start_lsn;
    std::uint64_t charged = 0;
    // The sized parse overload reports each record's framed length, so the
    // charged-size reconstruction no longer re-encodes every record.
    VDB_RETURN_IF_ERROR(parse_records(
        std::span<const std::uint8_t>(data).subspan(kGroupHeaderSize),
        [&](const LogRecord& rec, std::uint64_t framed) {
          const std::uint64_t total = framed + cfg_.record_overhead;
          end = rec.lsn + total;
          charged += total;
          return true;
        }));
    g.end_lsn = end;
    g.charged_bytes = charged;
    if (g.seq > max_seq) {
      max_seq = g.seq;
      current_ = i;
    }
  }
  next_seq_ = max_seq + 1;
  for (auto& g : groups_) g.current = false;
  RedoGroup& cur = groups_[current_];
  cur.current = true;
  if (cur.seq != 0) {
    next_lsn_ = std::max<Lsn>(1, cur.end_lsn);
    cur.end_lsn = kInvalidLsn;  // reopened for writing
  }
  flushed_lsn_ = next_lsn_;
  return Status::ok();
}

Lsn RedoLog::append(LogRecord& rec) {
  rec.lsn = next_lsn_;
  Pending p;
  p.lsn = rec.lsn;
  p.offset = pending_buf_.size();
  const std::uint64_t framed = frame_record(rec, &pending_buf_);
  p.len = static_cast<std::uint32_t>(framed);
  p.charged = framed + cfg_.record_overhead;
  next_lsn_ += p.charged;
  pending_.push_back(p);
  return rec.lsn;
}

Status RedoLog::switch_group() {
  RedoGroup& old = groups_[current_];
  old.end_lsn = flushed_lsn_;
  old.current = false;
  old.archived = !cfg_.archive_mode;
  log_switches_counter_->inc();
  if (cb_.on_group_finalized) cb_.on_group_finalized(old);

  const std::uint32_t next = (current_ + 1) % cfg_.groups;
  RedoGroup& target = groups_[next];

  // Reuse rule 1: the checkpoint position must have advanced past the
  // target's contents, or those changes would become unrecoverable.
  if (target.seq != 0 && target.end_lsn != kInvalidLsn &&
      recovery_position_ < target.end_lsn) {
    if (cb_.force_checkpoint) cb_.force_checkpoint();
    if (recovery_position_ < target.end_lsn) {
      return make_error(ErrorCode::kInternal,
                        "log switch blocked: checkpoint did not advance");
    }
  }

  // Reuse rule 2: ARCHIVELOG databases must not overwrite an unarchived
  // group. Waiting for an in-flight archive copy stalls the whole instance
  // ("archival required").
  if (cfg_.archive_mode && target.seq != 0) {
    if (!target.archived) {
      return make_error(ErrorCode::kUnrecoverable,
                        "log switch blocked: group not archived");
    }
    if (fs_->clock().now() < target.archive_done_at) {
      obs::WaitScope stall(waits_, obs_clock_, obs::WaitEvent::kArchiveStall);
      fs_->clock().advance_to(target.archive_done_at);
    }
  }

  current_ = next;
  target.index = next;
  target.seq = next_seq_++;
  target.start_lsn = next_lsn_;  // refined when the first record lands
  target.end_lsn = kInvalidLsn;
  target.charged_bytes = 0;
  target.archived = false;
  target.archive_done_at = 0;
  target.current = true;
  VDB_RETURN_IF_ERROR(for_each_member(next, [&](const std::string& path) {
    if (!fs_->exists(path)) {
      // A deleted member is re-created at reuse, restoring redundancy —
      // Oracle similarly tolerates a lost member until the group cycles.
      VDB_RETURN_IF_ERROR(fs_->create(path));
    }
    return fs_->truncate(path, 0);
  }));
  return Status::ok();
}

Status RedoLog::force_switch() {
  VDB_RETURN_IF_ERROR(flush());
  return switch_group();
}

Status RedoLog::flush() {
  if (flushing_) return Status::ok();  // outer invocation drains the queue
  flushing_ = true;
  Status result = Status::ok();

  while (pending_head_ < pending_.size() && result.is_ok()) {
    // LGWR writes one contiguous batch per group visit: a single device
    // request per flush instead of one per record. Entries sit back-to-back
    // in the pending arena, so the batch is a borrowed span — zero copies.
    RedoGroup* g = &groups_[current_];
    if (g->charged_bytes == 0) {
      g->start_lsn = pending_[pending_head_].lsn;
      Status st = write_group_header(current_);
      if (!st.is_ok()) {
        result = st;
        break;
      }
    }

    const std::size_t batch_begin = pending_head_;
    std::uint64_t batch_charge = 0;
    Lsn batch_end = flushed_lsn_;
    while (pending_head_ < pending_.size()) {
      const Pending& rec = pending_[pending_head_];
      const bool fits = g->charged_bytes + batch_charge + rec.charged <=
                        cfg_.file_size_bytes;
      // An oversized record on a fresh group is written regardless (a file
      // must hold at least one record).
      const bool force = pending_head_ == batch_begin && g->charged_bytes == 0;
      if (!fits && !force) break;
      batch_charge += rec.charged;
      batch_end = rec.lsn + rec.charged;
      pending_head_ += 1;
    }

    if (pending_head_ > batch_begin) {
      const Pending& first = pending_[batch_begin];
      const Pending& last = pending_[pending_head_ - 1];
      const std::span<const std::uint8_t> batch(
          pending_buf_.data() + first.offset,
          (last.offset + last.len) - first.offset);
      Status st = for_each_member(current_, [&](const std::string& path) {
        return fs_->append(path, batch, sim::IoMode::kForeground,
                           batch_charge);
      });
      if (!st.is_ok()) {
        result = st;
        break;
      }
      g->charged_bytes += batch_charge;
      flushed_lsn_ = batch_end;
      redo_bytes_counter_->inc(batch_charge);
      redo_writes_counter_->inc();
    }

    if (pending_head_ < pending_.size()) {
      // Next record does not fit: log switch (may append checkpoint records
      // to pending_ through the callbacks; the loop drains them too).
      result = switch_group();
    }
  }
  flushing_ = false;
  if (pending_head_ == pending_.size()) {
    // Fully drained: compact the arena. clear() keeps capacity, so the
    // steady-state append→flush cycle never reallocates.
    pending_.clear();
    pending_buf_.clear();
    pending_head_ = 0;
  }
  return result;
}

Status RedoLog::flush_to(Lsn lsn) {
  if (flushed_lsn_ > lsn) return Status::ok();
  return flush();
}

Status RedoLog::commit_flush(Lsn commit_lsn) {
  // Already durable (an earlier batch carried it), or an outer flush is
  // mid-drain and will: the commit rides that flush for free.
  if (flushed_lsn_ > commit_lsn || flushing_) return Status::ok();
  return flush();
}

void RedoLog::discard_unflushed() {
  pending_.clear();
  pending_buf_.clear();
  pending_head_ = 0;
}

void RedoLog::note_recovery_position(Lsn lsn) {
  recovery_position_ = std::max(recovery_position_, lsn);
}

Status RedoLog::mark_archived(std::uint32_t index, SimTime done_at) {
  if (index >= groups_.size()) {
    return make_error(ErrorCode::kInvalidArgument, "no such redo group");
  }
  groups_[index].archived = true;
  groups_[index].archive_done_at = done_at;
  return Status::ok();
}

Lsn RedoLog::oldest_online_lsn() const {
  Lsn oldest = kInvalidLsn;
  for (const auto& g : groups_) {
    if (g.seq == 0) continue;
    oldest = std::min(oldest, g.start_lsn);
  }
  return oldest == kInvalidLsn ? next_lsn_ : oldest;
}

Status RedoLog::read_online(Lsn from,
                            const std::function<bool(const LogRecord&)>& fn) {
  std::vector<const RedoGroup*> ordered;
  for (const auto& g : groups_) {
    if (g.seq == 0) continue;
    ordered.push_back(&g);
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const RedoGroup* a, const RedoGroup* b) {
              return a->seq < b->seq;
            });
  for (const RedoGroup* g : ordered) {
    if (g->end_lsn != kInvalidLsn && g->end_lsn <= from) continue;
    auto member = intact_member(g->index);
    if (!member.is_ok()) return member.status();
    auto bytes = fs_->read_all(member.value(), sim::IoMode::kForeground);
    if (!bytes.is_ok()) return bytes.status();
    bool keep_going = true;
    VDB_RETURN_IF_ERROR(parse_log_records(
        bytes.value(), [&](const LogRecord& rec) {
          if (rec.lsn < from) return true;
          keep_going = fn(rec);
          return keep_going;
        }));
    if (!keep_going) break;
  }
  return Status::ok();
}

Status RedoLog::resetlogs(Lsn next_lsn) {
  VDB_CHECK_MSG(pending_head_ == pending_.size(),
                "resetlogs with buffered records");
  next_lsn_ = std::max(next_lsn_, next_lsn);
  flushed_lsn_ = next_lsn_;
  recovery_position_ = next_lsn_;
  for (std::uint32_t i = 0; i < cfg_.groups; ++i) {
    VDB_RETURN_IF_ERROR(for_each_member(i, [&](const std::string& path) {
      if (!fs_->exists(path)) {
        VDB_RETURN_IF_ERROR(fs_->create(path));
      }
      return fs_->truncate(path, 0);
    }));
    groups_[i] = RedoGroup{};
    groups_[i].index = i;
    groups_[i].archived = true;
  }
  current_ = 0;
  RedoGroup& g = groups_[0];
  g.seq = next_seq_++;
  g.start_lsn = next_lsn_;
  g.current = true;
  g.archived = false;
  return write_group_header(0);
}

std::uint64_t RedoLog::pending_bytes() const {
  std::uint64_t total = 0;
  for (std::size_t i = pending_head_; i < pending_.size(); ++i) {
    total += pending_[i].charged;
  }
  return total;
}

}  // namespace vdb::wal
