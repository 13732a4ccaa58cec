// Status / Result: recoverable-error handling for database operations.
//
// Database operations fail for reasons the caller must handle (file missing,
// tablespace offline, lock conflict, media failure). Those paths return
// Status / Result<T>. Programming errors (violated preconditions) use
// VDB_CHECK which aborts.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <variant>

namespace vdb {

/// Machine-readable error category. Mirrors the classes of failure a real
/// DBMS surfaces to administrators and applications.
enum class ErrorCode {
  kOk = 0,
  kNotFound,          // object/file/row does not exist
  kAlreadyExists,     // duplicate object
  kInvalidArgument,   // malformed request
  kOutOfSpace,        // tablespace / rollback segment exhausted
  kOffline,           // tablespace or datafile offline
  kMediaFailure,      // datafile missing/corrupt at the storage layer
  kDeadlock,          // wait-die abort
  kTxnAborted,        // transaction was rolled back
  kNotOpen,           // instance not in OPEN state
  kCorruption,        // checksum mismatch / torn page
  kTransientIo,       // device I/O failed transiently (retryable)
  kRecoveryRequired,  // datafile needs media recovery before use
  kUnrecoverable,     // recovery impossible with available logs/backups
  kInternal,          // invariant violation detected at runtime
};

const char* to_string(ErrorCode code);

/// Value-semantic status word: either OK or (code, message).
class [[nodiscard]] Status {
 public:
  Status() = default;
  Status(ErrorCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status ok() { return Status{}; }

  bool is_ok() const { return code_ == ErrorCode::kOk; }
  explicit operator bool() const { return is_ok(); }

  ErrorCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "kMediaFailure: datafile 3 missing".
  std::string to_string() const;

 private:
  ErrorCode code_{ErrorCode::kOk};
  std::string message_;
};

inline Status make_error(ErrorCode code, std::string message) {
  return Status{code, std::move(message)};
}

/// Either a T or a Status explaining why there is no T.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : storage_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  Result(Status status) : storage_(std::move(status)) {}  // NOLINT

  bool is_ok() const { return std::holds_alternative<T>(storage_); }
  explicit operator bool() const { return is_ok(); }

  T& value() & { return std::get<T>(storage_); }
  const T& value() const& { return std::get<T>(storage_); }
  T&& value() && { return std::get<T>(std::move(storage_)); }

  /// OK status if a value is held, the stored error otherwise.
  Status status() const {
    if (is_ok()) return Status::ok();
    return std::get<Status>(storage_);
  }

  ErrorCode code() const {
    return is_ok() ? ErrorCode::kOk : std::get<Status>(storage_).code();
  }

 private:
  std::variant<T, Status> storage_;
};

[[noreturn]] void check_failed(const char* file, int line, const char* expr,
                               const std::string& extra);

}  // namespace vdb

/// Aborts on violated invariants (programming errors, not runtime errors).
#define VDB_CHECK(expr)                                        \
  do {                                                         \
    if (!(expr)) {                                             \
      ::vdb::check_failed(__FILE__, __LINE__, #expr, {});      \
    }                                                          \
  } while (0)

#define VDB_CHECK_MSG(expr, msg)                               \
  do {                                                         \
    if (!(expr)) {                                             \
      ::vdb::check_failed(__FILE__, __LINE__, #expr, (msg));   \
    }                                                          \
  } while (0)

/// Propagates a non-OK Status out of the current function.
#define VDB_RETURN_IF_ERROR(expr)          \
  do {                                     \
    ::vdb::Status _st = (expr);            \
    if (!_st.is_ok()) return _st;          \
  } while (0)

#define VDB_CONCAT_INNER(a, b) a##b
#define VDB_CONCAT(a, b) VDB_CONCAT_INNER(a, b)

#define VDB_ASSIGN_OR_RETURN_IMPL(tmp, lhs, expr) \
  auto tmp = (expr);                              \
  if (!tmp.is_ok()) return tmp.status();          \
  lhs = std::move(tmp).value()

/// Unwraps a Result into `lhs`, propagating its Status on error.
#define VDB_ASSIGN_OR_RETURN(lhs, expr) \
  VDB_ASSIGN_OR_RETURN_IMPL(VDB_CONCAT(_vdb_res_, __LINE__), lhs, expr)
