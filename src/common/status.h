// Minimal error-propagation types. Fallible operations across module
// boundaries return Status or Result<T>; exceptions are not used.
#ifndef SRC_COMMON_STATUS_H_
#define SRC_COMMON_STATUS_H_

#include <string>
#include <utility>
#include <variant>

#include "src/common/check.h"

namespace hovercraft {

enum class StatusCode {
  kOk,
  kInvalidArgument,
  kNotFound,
  kOutOfRange,
  kFailedPrecondition,
  kInternal,
};

const char* StatusCodeName(StatusCode code);

class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message) : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) { return a.code_ == b.code_; }

 private:
  StatusCode code_;
  std::string message_;
};

inline Status InvalidArgumentError(std::string msg) {
  return Status(StatusCode::kInvalidArgument, std::move(msg));
}
inline Status NotFoundError(std::string msg) {
  return Status(StatusCode::kNotFound, std::move(msg));
}
inline Status OutOfRangeError(std::string msg) {
  return Status(StatusCode::kOutOfRange, std::move(msg));
}
inline Status FailedPreconditionError(std::string msg) {
  return Status(StatusCode::kFailedPrecondition, std::move(msg));
}
inline Status InternalError(std::string msg) {
  return Status(StatusCode::kInternal, std::move(msg));
}

// Result<T> holds either a value or a non-OK Status.
template <typename T>
class Result {
 public:
  Result(T value) : repr_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  Result(Status status) : repr_(std::move(status)) {  // NOLINT(google-explicit-constructor)
    HC_CHECK(!std::get<Status>(repr_).ok());
  }

  bool ok() const { return std::holds_alternative<T>(repr_); }

  const T& value() const {
    HC_CHECK(ok());
    return std::get<T>(repr_);
  }
  T& value() {
    HC_CHECK(ok());
    return std::get<T>(repr_);
  }
  T TakeValue() {
    HC_CHECK(ok());
    return std::move(std::get<T>(repr_));
  }

  Status status() const {
    if (ok()) {
      return Status::Ok();
    }
    return std::get<Status>(repr_);
  }

 private:
  std::variant<T, Status> repr_;
};

}  // namespace hovercraft

#endif  // SRC_COMMON_STATUS_H_
