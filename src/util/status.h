// Status and StatusOr: the error model used across the mudb public API.
//
// mudb follows the Arrow/RocksDB convention of not throwing exceptions across
// library boundaries. Fallible operations return util::Status (or
// util::StatusOr<T> when they also produce a value). Programming errors
// (broken invariants) abort via MUDB_CHECK.

#ifndef MUDB_SRC_UTIL_STATUS_H_
#define MUDB_SRC_UTIL_STATUS_H_

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <ostream>
#include <string>
#include <utility>

namespace mudb::util {

/// Canonical error codes, a small subset of the absl/gRPC code space.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kOutOfRange = 3,
  kUnimplemented = 4,
  kInternal = 5,
  kFailedPrecondition = 6,
  kResourceExhausted = 7,
};

/// One past the largest StatusCode value. Lets tests iterate the enum so a
/// newly added code cannot silently print as "Unknown".
inline constexpr int kNumStatusCodes =
    static_cast<int>(StatusCode::kResourceExhausted) + 1;

/// Returns a stable human-readable name for a status code ("InvalidArgument").
const char* StatusCodeToString(StatusCode code);

/// The result of an operation that can fail. Cheap to copy when OK.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& status);

/// Either a value of type T or an error Status. Access to the value of a
/// non-OK StatusOr aborts the process, so callers must test ok() first (or
/// use the MUDB_ASSIGN_OR_RETURN macro).
template <typename T>
class StatusOr {
 public:
  /// Intentionally implicit, so functions can `return value;` or
  /// `return Status::...;` interchangeably.
  StatusOr(T value) : value_(std::move(value)) {}             // NOLINT
  StatusOr(Status status) : status_(std::move(status)) {}     // NOLINT

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    AbortIfNotOk();
    return *value_;
  }
  T& value() & {
    AbortIfNotOk();
    return *value_;
  }
  T&& value() && {
    AbortIfNotOk();
    return *std::move(value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  void AbortIfNotOk() const {
    if (!status_.ok()) {
      std::fprintf(stderr, "StatusOr::value() on error: %s\n",
                   status_.ToString().c_str());
      std::abort();
    }
  }

  Status status_;
  std::optional<T> value_;
};

}  // namespace mudb::util

/// Propagates a non-OK Status from an expression evaluating to Status.
#define MUDB_RETURN_IF_ERROR(expr)                        \
  do {                                                    \
    ::mudb::util::Status _mudb_status = (expr);           \
    if (!_mudb_status.ok()) return _mudb_status;          \
  } while (false)

#define MUDB_CONCAT_IMPL(a, b) a##b
#define MUDB_CONCAT(a, b) MUDB_CONCAT_IMPL(a, b)

/// Evaluates an expression yielding StatusOr<T>; on error returns the status,
/// otherwise assigns the value to `lhs` (which may include a declaration).
#define MUDB_ASSIGN_OR_RETURN(lhs, expr)                              \
  MUDB_ASSIGN_OR_RETURN_IMPL(MUDB_CONCAT(_mudb_statusor_, __LINE__), \
                             lhs, expr)

#define MUDB_ASSIGN_OR_RETURN_IMPL(var, lhs, expr) \
  auto var = (expr);                               \
  if (!var.ok()) return var.status();              \
  lhs = std::move(var).value()

/// Aborts the process with a message when `cond` is false. Used for internal
/// invariants that indicate programming errors, never for user input.
#define MUDB_CHECK(cond)                                                  \
  do {                                                                    \
    if (!(cond)) {                                                        \
      std::fprintf(stderr, "MUDB_CHECK failed at %s:%d: %s\n", __FILE__,  \
                   __LINE__, #cond);                                      \
      std::abort();                                                       \
    }                                                                     \
  } while (false)

#ifdef NDEBUG
#define MUDB_DCHECK(cond) \
  do {                    \
  } while (false)
#else
#define MUDB_DCHECK(cond) MUDB_CHECK(cond)
#endif

#endif  // MUDB_SRC_UTIL_STATUS_H_
