#include "common/status.h"

namespace secureblox {

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kAlreadyExists:
      return "AlreadyExists";
    case StatusCode::kParseError:
      return "ParseError";
    case StatusCode::kTypeError:
      return "TypeError";
    case StatusCode::kCompileError:
      return "CompileError";
    case StatusCode::kConstraintViolation:
      return "ConstraintViolation";
    case StatusCode::kTransactionAborted:
      return "TransactionAborted";
    case StatusCode::kCryptoError:
      return "CryptoError";
    case StatusCode::kIoError:
      return "IoError";
    case StatusCode::kInternal:
      return "Internal";
    case StatusCode::kUnimplemented:
      return "Unimplemented";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeName(code_);
  out += ": ";
  out += message();
  return out;
}

}  // namespace secureblox
