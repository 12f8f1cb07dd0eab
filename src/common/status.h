// Status / Result error handling for SecureBlox.
//
// SecureBlox does not throw exceptions across API boundaries. Fallible
// operations return `Status` (or `Result<T>` when they produce a value),
// following the convention of production database codebases.
#ifndef SECUREBLOX_COMMON_STATUS_H_
#define SECUREBLOX_COMMON_STATUS_H_

#include <cassert>
#include <memory>
#include <optional>
#include <string>
#include <utility>

namespace secureblox {

/// Broad classification of an error. Kept deliberately small; the message
/// carries the detail.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,   // caller passed something malformed
  kNotFound,          // lookup failed
  kAlreadyExists,     // duplicate definition
  kParseError,        // lexer/parser rejected input
  kTypeError,         // static type checking failed
  kCompileError,      // generics compilation / stratification failed
  kConstraintViolation,  // runtime integrity constraint failed
  kTransactionAborted,   // transaction rolled back
  kCryptoError,       // signature/MAC verification or key failure
  kIoError,           // transport / socket failure
  kInternal,          // invariant broken inside the library
  kUnimplemented,
};

/// Human-readable name of a status code (e.g. "TypeError").
const char* StatusCodeName(StatusCode code);

/// A success-or-error value. The message lives behind one pointer that is
/// null when the status is OK (or its message empty), so making, moving or
/// copying an OK Status — the executor returns one per step — touches no
/// string.
class Status {
 public:
  Status() = default;
  Status(StatusCode code, std::string message)
      : code_(code),
        message_(code == StatusCode::kOk || message.empty()
                     ? nullptr
                     : std::make_unique<std::string>(std::move(message))) {}
  Status(const Status& other) : code_(other.code_), message_(Clone(other)) {}
  Status& operator=(const Status& other) {
    if (this != &other) {
      code_ = other.code_;
      message_ = Clone(other);
    }
    return *this;
  }
  Status(Status&&) noexcept = default;
  Status& operator=(Status&&) noexcept = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string m) {
    return Status(StatusCode::kInvalidArgument, std::move(m));
  }
  static Status NotFound(std::string m) {
    return Status(StatusCode::kNotFound, std::move(m));
  }
  static Status AlreadyExists(std::string m) {
    return Status(StatusCode::kAlreadyExists, std::move(m));
  }
  static Status ParseError(std::string m) {
    return Status(StatusCode::kParseError, std::move(m));
  }
  static Status TypeError(std::string m) {
    return Status(StatusCode::kTypeError, std::move(m));
  }
  static Status CompileError(std::string m) {
    return Status(StatusCode::kCompileError, std::move(m));
  }
  static Status ConstraintViolation(std::string m) {
    return Status(StatusCode::kConstraintViolation, std::move(m));
  }
  static Status TransactionAborted(std::string m) {
    return Status(StatusCode::kTransactionAborted, std::move(m));
  }
  static Status CryptoError(std::string m) {
    return Status(StatusCode::kCryptoError, std::move(m));
  }
  static Status IoError(std::string m) {
    return Status(StatusCode::kIoError, std::move(m));
  }
  static Status Internal(std::string m) {
    return Status(StatusCode::kInternal, std::move(m));
  }
  static Status Unimplemented(std::string m) {
    return Status(StatusCode::kUnimplemented, std::move(m));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const {
    static const std::string kNoMessage;
    return message_ != nullptr ? *message_ : kNoMessage;
  }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message() == other.message();
  }

 private:
  static std::unique_ptr<std::string> Clone(const Status& s) {
    return s.message_ != nullptr ? std::make_unique<std::string>(*s.message_)
                                 : nullptr;
  }

  StatusCode code_ = StatusCode::kOk;
  std::unique_ptr<std::string> message_;
};

/// A value of type T or an error Status. Like absl::StatusOr / arrow::Result.
template <typename T>
class Result {
 public:
  // NOLINTNEXTLINE(google-explicit-constructor): by-design implicit, like
  // absl::StatusOr, so `return value;` and `return status;` both work.
  Result(T value) : value_(std::move(value)) {}
  // NOLINTNEXTLINE(google-explicit-constructor)
  Result(Status status) : status_(std::move(status)) {
    assert(!status_.ok() && "Result constructed from OK status without value");
  }

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  std::optional<T> value_;
  Status status_;  // OK iff value_ present
};

// Propagate a non-OK Status from an expression.
#define SB_RETURN_IF_ERROR(expr)                 \
  do {                                           \
    ::secureblox::Status _sb_st = (expr);        \
    if (!_sb_st.ok()) return _sb_st;             \
  } while (0)

// Evaluate a Result<T> expression; on error return its Status, otherwise
// bind the value to `lhs`.
#define SB_ASSIGN_OR_RETURN(lhs, expr)             \
  auto SB_CONCAT_(_sb_res_, __LINE__) = (expr);    \
  if (!SB_CONCAT_(_sb_res_, __LINE__).ok())        \
    return SB_CONCAT_(_sb_res_, __LINE__).status(); \
  lhs = std::move(SB_CONCAT_(_sb_res_, __LINE__)).value()

#define SB_CONCAT_INNER_(a, b) a##b
#define SB_CONCAT_(a, b) SB_CONCAT_INNER_(a, b)

}  // namespace secureblox

#endif  // SECUREBLOX_COMMON_STATUS_H_
