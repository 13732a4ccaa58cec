#include "wal/log_record.hpp"

#include <cstring>

namespace vdb::wal {

const char* to_string(LogRecordType t) {
  switch (t) {
    case LogRecordType::kInsert: return "INSERT";
    case LogRecordType::kUpdate: return "UPDATE";
    case LogRecordType::kDelete: return "DELETE";
    case LogRecordType::kFormatPage: return "FORMAT";
    case LogRecordType::kCommit: return "COMMIT";
    case LogRecordType::kAbort: return "ABORT";
    case LogRecordType::kCheckpoint: return "CHECKPOINT";
    case LogRecordType::kCreateTable: return "CREATE_TABLE";
    case LogRecordType::kDropTable: return "DROP_TABLE";
    case LogRecordType::kDropTablespace: return "DROP_TABLESPACE";
    case LogRecordType::kTxnPrepare: return "TXN_PREPARE";
    case LogRecordType::kCoordCommit: return "COORD_COMMIT";
    case LogRecordType::kCoordAbort: return "COORD_ABORT";
  }
  return "?";
}

bool is_ddl(LogRecordType t) {
  return t == LogRecordType::kCreateTable || t == LogRecordType::kDropTable ||
         t == LogRecordType::kDropTablespace;
}

namespace {

// Before/after images share most bytes on typical updates (a few numeric
// columns change). Encode the common prefix and suffix once; this keeps the
// redo stream — and therefore archive-log memory footprints across hundreds
// of simulated experiments — compact without losing full-image semantics.
void encode_dml(Encoder& enc, const DmlChange& dml) {
  // Fixed header + four length-prefixed blobs; the images bound the total.
  enc.reserve(46 + dml.before.size() + dml.after.size());
  enc.put_u32(dml.table.value);
  enc.put_u32(dml.rid.page.file.value);
  enc.put_u32(dml.rid.page.block);
  enc.put_u16(dml.rid.slot);

  const auto& b = dml.before;
  const auto& a = dml.after;
  size_t prefix = 0;
  const size_t max_common = std::min(b.size(), a.size());
  while (prefix < max_common && b[prefix] == a[prefix]) ++prefix;
  size_t suffix = 0;
  while (suffix < max_common - prefix &&
         b[b.size() - 1 - suffix] == a[a.size() - 1 - suffix]) {
    ++suffix;
  }
  enc.put_u32(static_cast<std::uint32_t>(b.size()));
  enc.put_u32(static_cast<std::uint32_t>(a.size()));
  enc.put_u32(static_cast<std::uint32_t>(prefix));
  enc.put_u32(static_cast<std::uint32_t>(suffix));
  enc.put_bytes({b.data(), prefix});  // == a[0, prefix)
  enc.put_bytes({b.data() + prefix, b.size() - prefix - suffix});
  enc.put_bytes({a.data() + prefix, a.size() - prefix - suffix});
  enc.put_bytes({b.data() + b.size() - suffix, suffix});  // == a tail
}

// Zero-copy decode: the prefix/mid/suffix pieces stay as views into the
// framed payload and are assembled straight into the caller's (reused)
// image vectors — clear() keeps capacity, so a warmed-up scratch record
// decodes with no heap traffic.
Status decode_dml(Decoder& dec, DmlChange* dml) {
  auto table = dec.get_u32();
  auto file = dec.get_u32();
  auto block = dec.get_u32();
  auto slot = dec.get_u16();
  auto before_len = dec.get_u32();
  auto after_len = dec.get_u32();
  auto prefix_len = dec.get_u32();
  auto suffix_len = dec.get_u32();
  if (!table.is_ok() || !file.is_ok() || !block.is_ok() || !slot.is_ok() ||
      !before_len.is_ok() || !after_len.is_ok() || !prefix_len.is_ok() ||
      !suffix_len.is_ok()) {
    return make_error(ErrorCode::kCorruption, "bad dml payload");
  }
  auto prefix = dec.get_view();
  if (!prefix.is_ok()) return prefix.status();
  auto mid_before = dec.get_view();
  if (!mid_before.is_ok()) return mid_before.status();
  auto mid_after = dec.get_view();
  if (!mid_after.is_ok()) return mid_after.status();
  auto suffix = dec.get_view();
  if (!suffix.is_ok()) return suffix.status();

  auto assemble = [&](std::span<const std::uint8_t> mid, std::uint32_t total,
                      std::vector<std::uint8_t>* out) -> Status {
    if (prefix.value().size() + mid.size() + suffix.value().size() != total) {
      return Status{ErrorCode::kCorruption, "dml image length mismatch"};
    }
    out->clear();
    out->reserve(total);
    out->insert(out->end(), prefix.value().begin(), prefix.value().end());
    out->insert(out->end(), mid.begin(), mid.end());
    out->insert(out->end(), suffix.value().begin(), suffix.value().end());
    return Status::ok();
  };
  VDB_RETURN_IF_ERROR(
      assemble(mid_before.value(), before_len.value(), &dml->before));
  VDB_RETURN_IF_ERROR(
      assemble(mid_after.value(), after_len.value(), &dml->after));

  dml->table = TableId{table.value()};
  dml->rid = RowId{PageId{FileId{file.value()}, block.value()}, slot.value()};
  return Status::ok();
}

}  // namespace

void LogRecord::encode(Encoder& enc) const {
  enc.put_u8(static_cast<std::uint8_t>(type));
  enc.put_u64(txn.value);
  enc.put_u64(lsn);
  enc.put_u8(is_clr ? 1 : 0);
  switch (type) {
    case LogRecordType::kInsert:
    case LogRecordType::kUpdate:
    case LogRecordType::kDelete:
      encode_dml(enc, dml);
      break;
    case LogRecordType::kFormatPage:
      enc.put_u32(page.file.value);
      enc.put_u32(page.block);
      enc.put_u32(format_owner.value);
      enc.put_u16(slot_size);
      break;
    case LogRecordType::kCommit:
    case LogRecordType::kAbort:
      break;
    case LogRecordType::kCreateTable:
      enc.put_string(name);
      enc.put_u32(table_id.value);
      enc.put_u32(tablespace_id.value);
      enc.put_u32(owner_user.value);
      enc.put_u16(ddl_slot_size);
      break;
    case LogRecordType::kDropTable:
      enc.put_string(name);
      enc.put_u32(table_id.value);
      break;
    case LogRecordType::kDropTablespace:
      enc.put_string(name);
      enc.put_u32(tablespace_id.value);
      break;
    case LogRecordType::kTxnPrepare:
      enc.put_u64(gtxn);
      enc.put_u32(coord_shard);
      break;
    case LogRecordType::kCoordCommit:
    case LogRecordType::kCoordAbort:
      enc.put_u64(gtxn);
      break;
    case LogRecordType::kCheckpoint:
      enc.put_u64(recovery_start_lsn);
      enc.put_u32(static_cast<std::uint32_t>(active_txns.size()));
      for (const auto& snap : active_txns) {
        enc.put_u64(snap.txn.value);
        enc.put_u8(snap.prepared ? 1 : 0);
        enc.put_u64(snap.gtxn);
        enc.put_u32(snap.coord_shard);
        enc.put_u32(static_cast<std::uint32_t>(snap.ops.size()));
        for (const auto& op : snap.ops) {
          enc.put_u64(op.lsn);
          enc.put_u8(static_cast<std::uint8_t>(op.op));
          encode_dml(enc, op.change);
        }
      }
      enc.put_u32(static_cast<std::uint32_t>(coord_decisions.size()));
      for (const auto& d : coord_decisions) {
        enc.put_u64(d.gtxn);
        enc.put_u8(d.commit ? 1 : 0);
      }
      break;
  }
}

Result<LogRecord> LogRecord::decode(Decoder& dec) {
  LogRecord rec;
  VDB_RETURN_IF_ERROR(decode_into(dec, &rec));
  return rec;
}

Status LogRecord::decode_into(Decoder& dec, LogRecord* out) {
  LogRecord& rec = *out;
  // Reset every field the upcoming type may not touch, keeping the heap
  // buffers' capacity so repeated decodes through one scratch record stop
  // allocating once warmed up.
  rec.dml.table = TableId{};
  rec.dml.rid = RowId{};
  rec.dml.before.clear();
  rec.dml.after.clear();
  rec.page = PageId::invalid();
  rec.format_owner = TableId{};
  rec.slot_size = 0;
  rec.name.clear();
  rec.table_id = TableId{};
  rec.tablespace_id = TablespaceId{};
  rec.owner_user = UserId{};
  rec.ddl_slot_size = 0;
  rec.gtxn = 0;
  rec.coord_shard = 0;
  rec.recovery_start_lsn = kInvalidLsn;
  rec.active_txns.clear();
  rec.coord_decisions.clear();

  auto type = dec.get_u8();
  auto txn = dec.get_u64();
  auto lsn = dec.get_u64();
  auto clr = dec.get_u8();
  if (!type.is_ok() || !txn.is_ok() || !lsn.is_ok() || !clr.is_ok()) {
    return make_error(ErrorCode::kCorruption, "bad record header");
  }
  rec.type = static_cast<LogRecordType>(type.value());
  rec.txn = TxnId{txn.value()};
  rec.lsn = lsn.value();
  rec.is_clr = clr.value() != 0;

  switch (rec.type) {
    case LogRecordType::kInsert:
    case LogRecordType::kUpdate:
    case LogRecordType::kDelete:
      VDB_RETURN_IF_ERROR(decode_dml(dec, &rec.dml));
      break;
    case LogRecordType::kFormatPage: {
      auto file = dec.get_u32();
      auto block = dec.get_u32();
      auto owner = dec.get_u32();
      auto slot_size = dec.get_u16();
      if (!file.is_ok() || !block.is_ok() || !owner.is_ok() ||
          !slot_size.is_ok()) {
        return make_error(ErrorCode::kCorruption, "bad format payload");
      }
      rec.page = PageId{FileId{file.value()}, block.value()};
      rec.format_owner = TableId{owner.value()};
      rec.slot_size = slot_size.value();
      break;
    }
    case LogRecordType::kCommit:
    case LogRecordType::kAbort:
      break;
    case LogRecordType::kCreateTable: {
      auto name = dec.get_string();
      if (!name.is_ok()) return name.status();
      auto table = dec.get_u32();
      auto ts = dec.get_u32();
      auto user = dec.get_u32();
      auto slot_size = dec.get_u16();
      if (!table.is_ok() || !ts.is_ok() || !user.is_ok() ||
          !slot_size.is_ok()) {
        return make_error(ErrorCode::kCorruption, "bad create-table payload");
      }
      rec.name = std::move(name).value();
      rec.table_id = TableId{table.value()};
      rec.tablespace_id = TablespaceId{ts.value()};
      rec.owner_user = UserId{user.value()};
      rec.ddl_slot_size = slot_size.value();
      break;
    }
    case LogRecordType::kDropTable: {
      auto name = dec.get_string();
      if (!name.is_ok()) return name.status();
      auto table = dec.get_u32();
      if (!table.is_ok()) return table.status();
      rec.name = std::move(name).value();
      rec.table_id = TableId{table.value()};
      break;
    }
    case LogRecordType::kDropTablespace: {
      auto name = dec.get_string();
      if (!name.is_ok()) return name.status();
      auto ts = dec.get_u32();
      if (!ts.is_ok()) return ts.status();
      rec.name = std::move(name).value();
      rec.tablespace_id = TablespaceId{ts.value()};
      break;
    }
    case LogRecordType::kTxnPrepare: {
      auto gtxn = dec.get_u64();
      auto coord = dec.get_u32();
      if (!gtxn.is_ok() || !coord.is_ok()) {
        return make_error(ErrorCode::kCorruption, "bad prepare payload");
      }
      rec.gtxn = gtxn.value();
      rec.coord_shard = coord.value();
      break;
    }
    case LogRecordType::kCoordCommit:
    case LogRecordType::kCoordAbort: {
      auto gtxn = dec.get_u64();
      if (!gtxn.is_ok()) return gtxn.status();
      rec.gtxn = gtxn.value();
      break;
    }
    case LogRecordType::kCheckpoint: {
      auto start = dec.get_u64();
      auto count = dec.get_u32();
      if (!start.is_ok() || !count.is_ok()) {
        return make_error(ErrorCode::kCorruption, "bad checkpoint payload");
      }
      rec.recovery_start_lsn = start.value();
      for (std::uint32_t i = 0; i < count.value(); ++i) {
        TxnSnapshot snap;
        auto txn_id = dec.get_u64();
        auto prepared = dec.get_u8();
        auto snap_gtxn = dec.get_u64();
        auto snap_coord = dec.get_u32();
        auto ops = dec.get_u32();
        if (!txn_id.is_ok() || !prepared.is_ok() || !snap_gtxn.is_ok() ||
            !snap_coord.is_ok() || !ops.is_ok()) {
          return make_error(ErrorCode::kCorruption, "bad txn snapshot");
        }
        snap.txn = TxnId{txn_id.value()};
        snap.prepared = prepared.value() != 0;
        snap.gtxn = snap_gtxn.value();
        snap.coord_shard = snap_coord.value();
        for (std::uint32_t j = 0; j < ops.value(); ++j) {
          UndoOp op;
          auto op_lsn = dec.get_u64();
          auto op_type = dec.get_u8();
          if (!op_lsn.is_ok() || !op_type.is_ok()) {
            return make_error(ErrorCode::kCorruption, "bad undo op");
          }
          op.lsn = op_lsn.value();
          op.op = static_cast<LogRecordType>(op_type.value());
          VDB_RETURN_IF_ERROR(decode_dml(dec, &op.change));
          snap.ops.push_back(std::move(op));
        }
        rec.active_txns.push_back(std::move(snap));
      }
      auto decisions = dec.get_u32();
      if (!decisions.is_ok()) {
        return make_error(ErrorCode::kCorruption, "bad decision table");
      }
      for (std::uint32_t i = 0; i < decisions.value(); ++i) {
        auto d_gtxn = dec.get_u64();
        auto d_commit = dec.get_u8();
        if (!d_gtxn.is_ok() || !d_commit.is_ok()) {
          return make_error(ErrorCode::kCorruption, "bad coord decision");
        }
        rec.coord_decisions.push_back(
            CoordDecision{d_gtxn.value(), d_commit.value() != 0});
      }
      break;
    }
    default:
      return make_error(ErrorCode::kCorruption, "unknown record type");
  }
  return Status::ok();
}

std::uint64_t LogRecord::serialized_size() const {
  std::vector<std::uint8_t> buf;
  Encoder enc(&buf);
  encode(enc);
  return buf.size() + 8;  // + framing
}

std::uint64_t frame_record(const LogRecord& rec,
                           std::vector<std::uint8_t>* out) {
  // Encode straight into the destination: reserve an 8-byte header slot,
  // let the payload land after it, then patch length + CRC back in. The
  // record never exists in a temporary buffer, so appending to a reusable
  // arena is allocation-free once the arena has grown to steady state.
  const std::uint64_t start = out->size();
  out->resize(start + 8);
  Encoder enc(out);
  rec.encode(enc);
  const std::uint64_t payload_len = out->size() - start - 8;
  const std::span<const std::uint8_t> payload(out->data() + start + 8,
                                              payload_len);
  const std::uint32_t len_le = static_cast<std::uint32_t>(payload_len);
  const std::uint32_t crc_le = crc32c(payload);
  std::memcpy(out->data() + start, &len_le, 4);
  std::memcpy(out->data() + start + 4, &crc_le, 4);
  return out->size() - start;
}

Status parse_records(
    std::span<const std::uint8_t> data,
    const std::function<bool(const LogRecord&, std::uint64_t)>& fn) {
  LogRecord scratch;  // reused across records; callback must not retain it
  size_t pos = 0;
  while (pos + 8 <= data.size()) {
    Decoder header(data.subspan(pos, 8));
    const std::uint32_t len = header.get_u32().value();
    const std::uint32_t crc = header.get_u32().value();
    if (pos + 8 + len > data.size()) break;  // torn tail
    auto payload = data.subspan(pos + 8, len);
    if (crc32c(payload) != crc) break;  // torn / corrupt tail
    Decoder dec(payload);
    VDB_RETURN_IF_ERROR(LogRecord::decode_into(dec, &scratch));
    if (!fn(scratch, 8 + static_cast<std::uint64_t>(len))) {
      return Status::ok();
    }
    pos += 8 + len;
  }
  return Status::ok();
}

Status parse_records(std::span<const std::uint8_t> data,
                     const std::function<bool(const LogRecord&)>& fn) {
  return parse_records(
      data, [&fn](const LogRecord& rec, std::uint64_t) { return fn(rec); });
}

}  // namespace vdb::wal
