#include "engine/admin_shell.hpp"

#include <algorithm>
#include <cctype>
#include <sstream>
#include <vector>

namespace vdb::engine {

namespace {

std::string upper(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  return s;
}

std::vector<std::string> tokenize(const std::string& command) {
  std::istringstream in(command);
  std::vector<std::string> tokens;
  std::string token;
  while (in >> token) tokens.push_back(token);
  return tokens;
}

Status bad_syntax(const std::string& command) {
  return make_error(ErrorCode::kInvalidArgument,
                    "syntax error in: " + command);
}

Result<std::uint32_t> parse_u32(const std::string& token) {
  try {
    return static_cast<std::uint32_t>(std::stoul(token));
  } catch (...) {
    return Status{ErrorCode::kInvalidArgument, "not a number: " + token};
  }
}

Result<std::uint64_t> parse_u64(const std::string& token) {
  try {
    return static_cast<std::uint64_t>(std::stoull(token));
  } catch (...) {
    return Status{ErrorCode::kInvalidArgument, "not a number: " + token};
  }
}

}  // namespace

Result<std::string> AdminShell::execute(const std::string& command) {
  const auto tokens = tokenize(command);
  if (tokens.empty()) return std::string{};
  const std::string verb = upper(tokens[0]);

  if (verb == "SHUTDOWN") {
    if (tokens.size() > 1 && upper(tokens[1]) == "ABORT") {
      VDB_RETURN_IF_ERROR(db_->shutdown_abort());
      return std::string{"instance aborted"};
    }
    VDB_RETURN_IF_ERROR(db_->shutdown());
    return std::string{"instance shut down"};
  }

  if (verb == "CHECKPOINT") {
    VDB_RETURN_IF_ERROR(db_->checkpoint_now());
    return std::string{"checkpoint complete"};
  }

  if (verb == "CREATE" && tokens.size() >= 9 &&
      upper(tokens[1]) == "TABLE" && upper(tokens[3]) == "TABLESPACE" &&
      upper(tokens[5]) == "SLOTSIZE" && upper(tokens[7]) == "OWNER") {
    auto slot = parse_u32(tokens[6]);
    if (!slot.is_ok()) return slot.status();
    auto user = db_->cat().find_user(tokens[8]);
    if (!user.is_ok()) return user.status();
    auto table = db_->create_table(tokens[2], tokens[4],
                                   static_cast<std::uint16_t>(slot.value()),
                                   user.value()->id);
    if (!table.is_ok()) return table.status();
    return "table " + tokens[2] + " created";
  }

  if (verb == "DROP" && tokens.size() >= 3) {
    const std::string kind = upper(tokens[1]);
    if (kind == "TABLE") {
      VDB_RETURN_IF_ERROR(db_->drop_table(tokens[2]));
      return "table " + tokens[2] + " dropped";
    }
    if (kind == "TABLESPACE") {
      const bool including =
          tokens.size() >= 4 && upper(tokens[3]) == "INCLUDING";
      VDB_RETURN_IF_ERROR(db_->drop_tablespace(tokens[2], including));
      return "tablespace " + tokens[2] + " dropped";
    }
    return bad_syntax(command);
  }

  if (verb == "ALTER" && tokens.size() >= 3) {
    const std::string kind = upper(tokens[1]);
    if (kind == "TABLESPACE" && tokens.size() >= 4) {
      const std::string action = upper(tokens[3]);
      if (action == "ONLINE") {
        VDB_RETURN_IF_ERROR(db_->alter_tablespace_online(tokens[2]));
        return "tablespace " + tokens[2] + " online";
      }
      if (action == "OFFLINE") {
        VDB_RETURN_IF_ERROR(db_->alter_tablespace_offline(tokens[2]));
        return "tablespace " + tokens[2] + " offline";
      }
      if (action == "QUOTA" && tokens.size() >= 5) {
        auto blocks = parse_u32(tokens[4]);
        if (!blocks.is_ok()) return blocks.status();
        VDB_RETURN_IF_ERROR(
            db_->alter_tablespace_quota(tokens[2], blocks.value()));
        return "tablespace " + tokens[2] + " quota set";
      }
      return bad_syntax(command);
    }
    if (kind == "DATAFILE" && tokens.size() >= 4) {
      auto id = parse_u32(tokens[2]);
      if (!id.is_ok()) return id.status();
      const std::string action = upper(tokens[3]);
      if (action == "ONLINE") {
        VDB_RETURN_IF_ERROR(db_->alter_datafile_online(FileId{id.value()}));
        return "datafile " + tokens[2] + " online";
      }
      if (action == "OFFLINE") {
        VDB_RETURN_IF_ERROR(db_->alter_datafile_offline(FileId{id.value()}));
        return "datafile " + tokens[2] + " offline";
      }
      return bad_syntax(command);
    }
    if (kind == "DATABASE" && tokens.size() >= 6 &&
        upper(tokens[2]) == "SET" && upper(tokens[3]) == "RESTART" &&
        upper(tokens[4]) == "MODE") {
      RestartMode mode;
      std::string arg = tokens[5];
      std::transform(arg.begin(), arg.end(), arg.begin(),
                     [](unsigned char c) { return std::tolower(c); });
      if (!parse_restart_mode(arg, &mode)) {
        return make_error(ErrorCode::kInvalidArgument,
                          "unknown restart mode: " + tokens[5]);
      }
      db_->set_restart_mode(mode);
      return "restart mode set to " + std::string(to_string(mode)) +
             " (takes effect at next instance recovery)";
    }
    if (kind == "SYSTEM" && tokens.size() >= 5 && upper(tokens[2]) == "SET" &&
        upper(tokens[3]) == "CC") {
      txn::CcProtocol protocol;
      std::string arg = tokens[4];
      std::transform(arg.begin(), arg.end(), arg.begin(),
                     [](unsigned char c) { return std::tolower(c); });
      if (!txn::parse_cc_protocol(arg, &protocol)) {
        return make_error(ErrorCode::kInvalidArgument,
                          "unknown concurrency-control protocol: " + tokens[4]);
      }
      db_->set_cc_protocol(protocol);
      return "concurrency control set to " +
             std::string(txn::to_string(protocol)) +
             " (takes effect when a coordinator attaches)";
    }
    if (kind == "FLEET" && tokens.size() >= 4 &&
        upper(tokens[2]) == "FAILOVER") {
      if (!fleet_.failover) {
        return make_error(ErrorCode::kInvalidArgument,
                          "no fleet bound to this shell");
      }
      auto shard = parse_u32(tokens[3]);
      if (!shard.is_ok()) return shard.status();
      VDB_RETURN_IF_ERROR(fleet_.failover(shard.value()));
      return "shard " + tokens[3] + " failed over to its standby";
    }
    if (kind == "ROLLBACK" && tokens.size() >= 5 &&
        upper(tokens[2]) == "SEGMENT") {
      auto index = parse_u32(tokens[3]);
      if (!index.is_ok()) return index.status();
      const std::string action = upper(tokens[4]);
      if (action == "ONLINE") {
        VDB_RETURN_IF_ERROR(db_->alter_rollback_segment_online(index.value()));
        return std::string{"rollback segment online"};
      }
      if (action == "OFFLINE") {
        VDB_RETURN_IF_ERROR(
            db_->alter_rollback_segment_offline(index.value()));
        return std::string{"rollback segment offline"};
      }
      return bad_syntax(command);
    }
    return bad_syntax(command);
  }

  if (verb == "ARCHIVE" && tokens.size() >= 3 &&
      upper(tokens[1]) == "LOG" && upper(tokens[2]) == "LIST") {
    std::ostringstream out;
    out << "archive mode: "
        << (db_->config().redo.archive_mode ? "ARCHIVELOG" : "NOARCHIVELOG")
        << "\n";
    for (const auto& group : db_->redo().groups()) {
      out << "group " << group.index << " seq " << group.seq
          << (group.current ? " CURRENT" : group.archived ? " ARCHIVED"
                                                          : " PENDING")
          << "\n";
    }
    return out.str();
  }

  if (verb == "SHOW" && tokens.size() >= 2) {
    const std::string what = upper(tokens[1]);
    std::ostringstream out;
    if (what == "TABLES") {
      for (const auto* table : db_->cat().tables()) {
        out << table->name << " (id " << table->id.value << ", slot "
            << table->slot_size << ")\n";
      }
      return out.str();
    }
    if (what == "DATAFILES") {
      for (const auto& file : db_->storage().files()) {
        if (file.dropped) continue;
        out << file.id.value << " " << file.path << " " << file.blocks
            << " blocks " << storage::to_string(file.status) << "\n";
      }
      return out.str();
    }
    if (what == "RESTART" && tokens.size() >= 3 &&
        upper(tokens[2]) == "MODE") {
      out << "restart mode: " << to_string(db_->config().restart_mode);
      if (const RestartCoordinator* rc = db_->restart_coordinator()) {
        out << " (restart recovery pending: " << rc->pending_pages_count()
            << " pages)";
      }
      out << "\n";
      return out.str();
    }
    if (what == "CC") {
      out << "concurrency control: "
          << txn::to_string(db_->config().cc_protocol);
      if (const txn::ConcurrencyControl* cc = db_->concurrency_control()) {
        obs::MetricsRegistry& reg = db_->obs().registry();
        auto count = [&](const char* name) {
          return reg.counter(name)->value();
        };
        out << " (coordinator attached: " << txn::to_string(cc->protocol())
            << ")\n"
            << "txns begun=" << count("cc txns begun")
            << " committed=" << count("cc txns committed")
            << " aborted=" << count("cc txns aborted") << "\n"
            << "wait_die_aborts=" << count("cc wait_die aborts")
            << " occ_validate_fails=" << count("cc occ validate fails")
            << " lock_waits=" << count("cc lock waits");
      } else {
        out << " (no coordinator attached; serial execution)";
      }
      out << "\n";
      return out.str();
    }
    if (what == "FLEET") {
      if (!fleet_.show) {
        return make_error(ErrorCode::kInvalidArgument,
                          "no fleet bound to this shell");
      }
      return fleet_.show();
    }
    if (what == "TABLESPACES") {
      for (const auto& ts : db_->storage().tablespaces()) {
        if (ts.dropped) continue;
        out << ts.name << " " << storage::to_string(ts.status) << " ("
            << ts.files.size() << " files)\n";
      }
      return out.str();
    }
    return bad_syntax(command);
  }

  if (verb == "VERIFY") {
    // DBVERIFY analogue: checksum every block of every live datafile.
    std::ostringstream out;
    std::uint64_t total_bad = 0;
    for (const auto& file : db_->storage().files()) {
      if (file.dropped || file.status == storage::FileStatus::kMissing) {
        continue;
      }
      auto report = db_->storage().verify_file(file.id);
      if (!report.is_ok()) return report.status();
      out << file.path << ": " << report.value().blocks_scanned
          << " blocks scanned, " << report.value().bad.size() << " bad\n";
      for (const auto& bad : report.value().bad) {
        out << "  block " << bad.page.block << " offset " << bad.offset
            << ": " << bad.error.to_string() << "\n";
      }
      total_bad += report.value().bad.size();
    }
    out << "verify: " << total_bad << " corrupt block(s)";
    return out.str();
  }

  // V$ dynamic performance views over the instance's statistics area.
  // Accepts both the bare view name and "SELECT * FROM V$...".
  std::string view;
  if (verb.rfind("V$", 0) == 0) {
    view = verb;
  } else if (verb == "SELECT") {
    for (const auto& token : tokens) {
      const std::string t = upper(token);
      if (t.rfind("V$", 0) == 0) view = t;
    }
    if (view.empty()) return bad_syntax(command);
  }
  if (view == "V$SYSSTAT") {
    std::ostringstream out;
    obs::MetricsRegistry& reg = db_->obs().registry();
    reg.for_each_counter([&](const std::string& name, const obs::Counter& c) {
      out << name << "  " << c.value() << "\n";
    });
    reg.for_each_gauge([&](const std::string& name, const obs::Gauge& g) {
      out << name << "  " << g.value() << "\n";
    });
    reg.for_each_histogram(
        [&](const std::string& name, const obs::Histogram& h) {
          if (h.count() == 0) return;
          out << name << "  count=" << h.count() << " mean_us=" << h.mean()
              << " p90_us=" << h.percentile(0.90) << "\n";
        });
    return out.str();
  }
  if (view == "V$SYSTEM_EVENT") {
    std::ostringstream out;
    const obs::WaitEventTable& waits = db_->obs().waits();
    for (size_t k = 0; k < static_cast<size_t>(obs::WaitEvent::kCount); ++k) {
      const auto event = static_cast<obs::WaitEvent>(k);
      if (waits.total_waits(event) == 0) continue;
      out << obs::to_string(event) << "  waits=" << waits.total_waits(event)
          << " time_us=" << waits.time_waited(event)
          << " max_us=" << waits.max_wait(event) << "\n";
    }
    return out.str();
  }
  if (view == "V$RECOVERY_PROGRESS") {
    std::ostringstream out;
    const obs::RecoveryTracer& tracer = db_->obs().tracer();
    auto print = [&](const obs::RecoveryTrace& trace, bool in_progress) {
      out << trace.label << " start_us=" << trace.start;
      if (in_progress) {
        out << " IN PROGRESS\n";
      } else {
        out << " total_us=" << trace.total() << "\n";
      }
      for (const auto& span : trace.spans) {
        out << "  " << obs::to_string(span.phase) << "  "
            << span.duration() << " us\n";
      }
    };
    for (const auto& trace : tracer.history()) print(trace, false);
    if (tracer.active()) print(*tracer.current(), true);
    // Early-open restart progress: how much redo is still pending and
    // where the drained pages were recovered (foreground vs sweeper).
    if (const RestartCoordinator* rc = db_->restart_coordinator()) {
      out << "restart mode " << to_string(rc->mode())
          << "  pages pending=" << rc->pending_pages_count()
          << " recovered_on_demand=" << rc->recovered_on_demand()
          << " recovered_background=" << rc->recovered_background() << "\n";
    }
    // Fleet failover procedures are traced on the fleet's statistics area,
    // not the shard instance's — append them when a fleet is bound.
    if (fleet_.recovery_rows) out << fleet_.recovery_rows();
    if (out.str().empty()) return std::string{"no recovery recorded\n"};
    return out.str();
  }
  if (!view.empty()) return bad_syntax(command);

  if (verb == "HOST" && tokens.size() >= 3) {
    const std::string op = upper(tokens[1]);
    if (op == "RM") {
      VDB_RETURN_IF_ERROR(db_->host().fs().remove(tokens[2]));
      return "removed " + tokens[2];
    }
    if (op == "CORRUPT") {
      VDB_RETURN_IF_ERROR(db_->host().fs().corrupt(tokens[2]));
      return "corrupted " + tokens[2];
    }
    if (op == "FLIPBITS" && tokens.size() >= 5) {
      auto offset = parse_u64(tokens[3]);
      if (!offset.is_ok()) return offset.status();
      auto len = parse_u64(tokens[4]);
      if (!len.is_ok()) return len.status();
      std::uint64_t seed = 1;
      if (tokens.size() >= 6) {
        auto parsed = parse_u64(tokens[5]);
        if (!parsed.is_ok()) return parsed.status();
        seed = parsed.value();
      }
      VDB_RETURN_IF_ERROR(db_->host().fs().flip_bits(tokens[2], offset.value(),
                                                     len.value(), seed));
      return "flipped bits in " + tokens[2];
    }
    return bad_syntax(command);
  }

  return bad_syntax(command);
}

Result<std::string> AdminShell::run_script(const std::string& script) {
  std::istringstream in(script);
  std::string line;
  std::string output;
  while (std::getline(in, line)) {
    // Trim leading whitespace.
    const size_t start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos) continue;
    line = line.substr(start);
    if (line.empty() || line[0] == '#' || line.rfind("--", 0) == 0) continue;
    auto result = execute(line);
    if (!result.is_ok()) return result.status();
    if (!result.value().empty()) {
      output += result.value();
      if (output.back() != '\n') output += '\n';
    }
  }
  return output;
}

}  // namespace vdb::engine
