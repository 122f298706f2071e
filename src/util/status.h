// Status / Result error handling, following the RocksDB idiom: no exceptions
// cross public API boundaries; fallible operations return a Status (or a
// Result<T> carrying a value on success).

#ifndef STABLETEXT_UTIL_STATUS_H_
#define STABLETEXT_UTIL_STATUS_H_

#include <cassert>
#include <string>
#include <utility>
#include <variant>

namespace stabletext {

/// Error categories used across the library.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kIOError,
  kOutOfMemoryBudget,
  kCorruption,
  kNotSupported,
  kInternal,
  kDataLoss,
  /// A configured work or resource limit stopped the operation before it
  /// finished (for example a finder's probe budget). Added after
  /// kDataLoss so earlier codes keep their wire values.
  kResourceExhausted,
};

/// \brief Lightweight status object returned by fallible operations.
///
/// A default-constructed Status is OK. Error statuses carry a code and a
/// human-readable message. Copying is cheap for OK (empty message).
///
/// [[nodiscard]]: silently dropping a Status is how a failed fsync turns
/// into data loss — every call site must check, propagate, or explicitly
/// discard with a justifying comment and a (void) cast.
class [[nodiscard]] Status {
 public:
  Status() : code_(StatusCode::kOk) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status OutOfMemoryBudget(std::string msg) {
    return Status(StatusCode::kOutOfMemoryBudget, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status NotSupported(std::string msg) {
    return Status(StatusCode::kNotSupported, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status DataLoss(std::string msg) {
    return Status(StatusCode::kDataLoss, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  /// `code` with `msg`, for decoders of a serialized status; kOk drops
  /// the message. The caller checks `code` is a StatusCode value.
  static Status FromCode(StatusCode code, std::string msg) {
    return code == StatusCode::kOk ? Status() : Status(code, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Explicit, greppable discard for the few places that genuinely have
  /// nowhere to report (destructors). `Close().IgnoreError()` states the
  /// intent; a bare `Close()` is a compile error.
  void IgnoreError() const {}

  /// Renders "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  Status(StatusCode code, std::string msg)
      : code_(code), message_(std::move(msg)) {}

  StatusCode code_;
  std::string message_;
};

/// \brief Either a value of type T or an error Status.
///
/// Accessing value() on an error (or status() never) is a programming error
/// guarded by assert in debug builds.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : payload_(std::move(value)) {}  // NOLINT(implicit)
  Result(Status status) : payload_(std::move(status)) {  // NOLINT(implicit)
    assert(!std::get<Status>(payload_).ok() &&
           "Result must not be constructed from an OK status");
  }

  bool ok() const { return std::holds_alternative<T>(payload_); }

  const T& value() const& {
    assert(ok());
    return std::get<T>(payload_);
  }
  T& value() & {
    assert(ok());
    return std::get<T>(payload_);
  }
  T&& value() && {
    assert(ok());
    return std::get<T>(std::move(payload_));
  }

  /// Returns the error status, or OK when a value is present.
  Status status() const {
    if (ok()) return Status::OK();
    return std::get<Status>(payload_);
  }

  const T& value_or(const T& fallback) const {
    return ok() ? std::get<T>(payload_) : fallback;
  }

 private:
  std::variant<T, Status> payload_;
};

/// Propagates a non-OK status to the caller.
#define ST_RETURN_IF_ERROR(expr)           \
  do {                                     \
    ::stabletext::Status st_s_ = (expr);   \
    if (!st_s_.ok()) return st_s_;         \
  } while (0)

/// Assigns the value of a Result expression to lhs or propagates the error.
#define ST_ASSIGN_OR_RETURN(lhs, expr)          \
  auto st_r_##__LINE__ = (expr);                \
  if (!st_r_##__LINE__.ok()) {                  \
    return st_r_##__LINE__.status();            \
  }                                             \
  lhs = std::move(st_r_##__LINE__).value()

}  // namespace stabletext

#endif  // STABLETEXT_UTIL_STATUS_H_
