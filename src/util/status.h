#ifndef CHRONOQUEL_UTIL_STATUS_H_
#define CHRONOQUEL_UTIL_STATUS_H_

#include <optional>
#include <string>
#include <utility>

namespace tdb {

/// Machine-readable classification of an error.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kIOError,
  kCorruption,
  kNotSupported,
  kOutOfRange,
  kParseError,
  kBindError,
  kInternal,
};

/// Returns a short human-readable name for `code` ("Invalid argument", ...).
const char* StatusCodeName(StatusCode code);

/// Locates an error within a multi-statement script: which statement failed
/// (1-based, in script order) and where its text begins in the source.
/// Attached to a Status by Database::ExecuteScript so callers can map an
/// error back to the offending statement without re-parsing.
struct StatementContext {
  int statement_index = 0;   // 1-based position in the script
  size_t source_offset = 0;  // byte offset of the statement's first token

  bool operator==(const StatementContext& o) const {
    return statement_index == o.statement_index &&
           source_offset == o.source_offset;
  }
};

/// Result of an operation that can fail.  The library does not use
/// exceptions; every fallible operation returns a Status (or a Result<T>).
///
/// Typical use:
///   Status s = file.ReadPage(3, &page);
///   if (!s.ok()) return s;
///
/// Both Status and Result are [[nodiscard]]: a call whose outcome is dropped
/// does not compile quietly.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  static Status OK() { return Status(); }
  static Status Invalid(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status NotSupported(std::string msg) {
    return Status(StatusCode::kNotSupported, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status BindError(std::string msg) {
    return Status(StatusCode::kBindError, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Returns a copy of this status carrying `ctx`.  No-op on OK statuses;
  /// an already-attached context is preserved (the innermost statement that
  /// reported the error wins).
  Status WithStatementContext(const StatementContext& ctx) const {
    if (ok() || context_.has_value()) return *this;
    Status s = *this;
    s.context_ = ctx;
    return s;
  }

  /// The statement context, or nullptr when none was attached.
  const StatementContext* statement_context() const {
    return context_.has_value() ? &*context_ : nullptr;
  }

  /// "OK" or "<code name>: <message>", with the statement context rendered
  /// as a "(statement N, offset M)" suffix when present.
  std::string ToString() const;

 private:
  Status(StatusCode code, std::string msg)
      : code_(code), message_(std::move(msg)) {}

  StatusCode code_;
  std::string message_;
  std::optional<StatementContext> context_;
};

/// Either a value of type T or an error Status.  Analogous to
/// absl::StatusOr / arrow::Result.
template <typename T>
class [[nodiscard]] Result {
 public:
  /// Implicit construction from a value or an error keeps call sites terse:
  ///   Result<int> F() { return 42; }
  ///   Result<int> G() { return Status::Invalid("nope"); }
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)
  Result(Status status) : status_(std::move(status)) {}  // NOLINT

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  /// Requires ok().
  const T& value() const& { return *value_; }
  T& value() & { return *value_; }
  T&& value() && { return std::move(*value_); }

  const T& operator*() const& { return *value_; }
  T& operator*() & { return *value_; }
  const T* operator->() const { return &*value_; }
  T* operator->() { return &*value_; }

  /// Returns the value, or `fallback` if this holds an error.
  T value_or(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace tdb

/// Propagates a non-OK Status to the caller.
#define TDB_RETURN_NOT_OK(expr)                 \
  do {                                          \
    ::tdb::Status _st = (expr);                 \
    if (!_st.ok()) return _st;                  \
  } while (0)

#define TDB_CONCAT_IMPL(x, y) x##y
#define TDB_CONCAT(x, y) TDB_CONCAT_IMPL(x, y)

/// Evaluates a Result<T> expression; on error propagates the Status,
/// otherwise moves the value into `lhs` (which may be a declaration).
#define TDB_ASSIGN_OR_RETURN(lhs, rexpr)                       \
  TDB_ASSIGN_OR_RETURN_IMPL(TDB_CONCAT(_res_, __LINE__), lhs, rexpr)

#define TDB_ASSIGN_OR_RETURN_IMPL(tmp, lhs, rexpr) \
  auto tmp = (rexpr);                              \
  if (!tmp.ok()) return tmp.status();              \
  lhs = std::move(tmp).value();

#endif  // CHRONOQUEL_UTIL_STATUS_H_
