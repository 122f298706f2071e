#include "util/status.h"

namespace stabletext {

namespace {
const char* CodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kIOError:
      return "IOError";
    case StatusCode::kOutOfMemoryBudget:
      return "OutOfMemoryBudget";
    case StatusCode::kCorruption:
      return "Corruption";
    case StatusCode::kNotSupported:
      return "NotSupported";
    case StatusCode::kInternal:
      return "Internal";
    case StatusCode::kDataLoss:
      return "DataLoss";
    case StatusCode::kResourceExhausted:
      return "ResourceExhausted";
  }
  return "Unknown";
}
}  // namespace

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = CodeName(code_);
  out += ": ";
  out += message_;
  return out;
}

}  // namespace stabletext
