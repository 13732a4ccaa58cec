#include "common/status.hpp"

namespace vdb {

const char* to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOk: return "OK";
    case ErrorCode::kNotFound: return "NotFound";
    case ErrorCode::kAlreadyExists: return "AlreadyExists";
    case ErrorCode::kInvalidArgument: return "InvalidArgument";
    case ErrorCode::kOutOfSpace: return "OutOfSpace";
    case ErrorCode::kOffline: return "Offline";
    case ErrorCode::kMediaFailure: return "MediaFailure";
    case ErrorCode::kDeadlock: return "Deadlock";
    case ErrorCode::kTxnAborted: return "TxnAborted";
    case ErrorCode::kNotOpen: return "NotOpen";
    case ErrorCode::kCorruption: return "Corruption";
    case ErrorCode::kTransientIo: return "TransientIo";
    case ErrorCode::kRecoveryRequired: return "RecoveryRequired";
    case ErrorCode::kUnrecoverable: return "Unrecoverable";
    case ErrorCode::kInternal: return "Internal";
  }
  return "Unknown";
}

std::string Status::to_string() const {
  if (is_ok()) return "OK";
  std::string out = vdb::to_string(code_);
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

void check_failed(const char* file, int line, const char* expr,
                  const std::string& extra) {
  std::fprintf(stderr, "VDB_CHECK failed at %s:%d: %s%s%s\n", file, line, expr,
               extra.empty() ? "" : " — ", extra.c_str());
  std::abort();
}

}  // namespace vdb
