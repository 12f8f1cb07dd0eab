#include "datalog/value.h"

#include <functional>

#include "common/strings.h"

namespace secureblox::datalog {

const char* ValueKindName(ValueKind kind) {
  switch (kind) {
    case ValueKind::kBool:
      return "bool";
    case ValueKind::kInt:
      return "int";
    case ValueKind::kString:
      return "string";
    case ValueKind::kBlob:
      return "blob";
    case ValueKind::kEntity:
      return "entity";
  }
  return "?";
}

bool Value::operator<(const Value& o) const {
  if (kind_ != o.kind_) return kind_ < o.kind_;
  switch (kind_) {
    case ValueKind::kBool:
    case ValueKind::kInt:
      return num_ < o.num_;
    case ValueKind::kString:
    case ValueKind::kBlob:
      return str_ < o.str_;
    case ValueKind::kEntity:
      if (etype_ != o.etype_) return etype_ < o.etype_;
      return num_ < o.num_;
  }
  return false;
}

size_t Value::Hash() const {
  size_t h = static_cast<size_t>(kind_) * 0x9E3779B97F4A7C15ULL;
  switch (kind_) {
    case ValueKind::kBool:
    case ValueKind::kInt:
      h ^= std::hash<int64_t>{}(num_) + 0x9E3779B9 + (h << 6) + (h >> 2);
      break;
    case ValueKind::kString:
    case ValueKind::kBlob:
      h ^= std::hash<std::string>{}(str_) + 0x9E3779B9 + (h << 6) + (h >> 2);
      break;
    case ValueKind::kEntity:
      h ^= std::hash<int64_t>{}((static_cast<int64_t>(etype_) << 40) ^ num_) +
           0x9E3779B9 + (h << 6) + (h >> 2);
      break;
  }
  return h;
}

std::string Value::ToString() const {
  switch (kind_) {
    case ValueKind::kBool:
      return num_ ? "true" : "false";
    case ValueKind::kInt:
      return std::to_string(num_);
    case ValueKind::kString:
      return "\"" + str_ + "\"";
    case ValueKind::kBlob:
      return "0x" + ToHex(reinterpret_cast<const uint8_t*>(str_.data()),
                          str_.size());
    case ValueKind::kEntity:
      return StrCat(
          {"e", std::to_string(etype_), "#", std::to_string(num_)});
  }
  return "?";
}

}  // namespace secureblox::datalog
