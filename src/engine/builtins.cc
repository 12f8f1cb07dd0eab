#include "engine/builtins.h"

#include "common/bytes.h"
#include "crypto/sha1.h"

namespace secureblox::engine {

using datalog::BuiltinSignature;
using datalog::Value;
using datalog::ValueKind;

Status BuiltinRegistry::Register(const std::string& name,
                                 datalog::BuiltinSignature sig, BuiltinFn fn,
                                 bool thread_safe) {
  if (impls_.count(name)) {
    return Status::AlreadyExists("builtin '" + name + "' already registered");
  }
  impls_[name] = BuiltinImpl{std::move(sig), std::move(fn), thread_safe, name};
  return Status::OK();
}

void BuiltinRegistry::RegisterOrReplace(const std::string& name,
                                        datalog::BuiltinSignature sig,
                                        BuiltinFn fn, bool thread_safe) {
  impls_[name] = BuiltinImpl{std::move(sig), std::move(fn), thread_safe, name};
}

const BuiltinImpl* BuiltinRegistry::Find(const std::string& name) const {
  auto it = impls_.find(name);
  return it == impls_.end() ? nullptr : &it->second;
}

bool BuiltinRegistry::Contains(const std::string& name) const {
  return impls_.count(name) > 0;
}

datalog::BuiltinSignatureMap BuiltinRegistry::Signatures() const {
  datalog::BuiltinSignatureMap out;
  for (const auto& [name, impl] : impls_) out[name] = impl.sig;
  return out;
}

namespace {

// Canonical byte encoding of a value for hashing: kind tag + payload.
// Entities encode as type name + label so the encoding is identical on
// every node regardless of local intern order.
Result<Bytes> CanonicalBytes(EvalContext& ctx, const Value& v) {
  ByteWriter w;
  w.PutU8(static_cast<uint8_t>(v.kind()));
  switch (v.kind()) {
    case ValueKind::kBool:
      w.PutU8(v.AsBool() ? 1 : 0);
      break;
    case ValueKind::kInt:
      w.PutU64(static_cast<uint64_t>(v.AsInt()));
      break;
    case ValueKind::kString:
    case ValueKind::kBlob:
      w.PutLengthPrefixedString(v.BlobRef());
      break;
    case ValueKind::kEntity: {
      if (ctx.catalog == nullptr) {
        return Status::Internal("entity hashing requires a catalog");
      }
      SB_ASSIGN_OR_RETURN(std::string label, ctx.catalog->EntityLabel(v));
      w.PutLengthPrefixedString(ctx.catalog->decl(v.entity_type()).name);
      w.PutLengthPrefixedString(label);
      break;
    }
  }
  return w.Take();
}

}  // namespace

void RegisterCoreBuiltins(BuiltinRegistry* registry) {
  registry->RegisterOrReplace(
      "sha1", BuiltinSignature{{"any", "blob"}, 1},
      [](EvalContext& ctx, const std::vector<Value>& in,
         std::vector<Value>* out) -> Result<bool> {
        SB_ASSIGN_OR_RETURN(Bytes bytes, CanonicalBytes(ctx, in[0]));
        out->push_back(Value::MakeBlob(crypto::Sha1Digest(bytes)));
        return true;
      });

  registry->RegisterOrReplace(
      "sha1_bucket", BuiltinSignature{{"any", "int", "int"}, 2},
      [](EvalContext& ctx, const std::vector<Value>& in,
         std::vector<Value>* out) -> Result<bool> {
        if (in[1].AsInt() <= 0) {
          return Status::InvalidArgument("sha1_bucket modulus must be > 0");
        }
        SB_ASSIGN_OR_RETURN(Bytes bytes, CanonicalBytes(ctx, in[0]));
        Bytes digest = crypto::Sha1Digest(bytes);
        uint64_t h = 0;
        for (int i = 0; i < 8; ++i) h = (h << 8) | digest[i];
        out->push_back(
            Value::Int(static_cast<int64_t>(h % static_cast<uint64_t>(
                                                    in[1].AsInt()))));
        return true;
      });

  registry->RegisterOrReplace(
      "concat", BuiltinSignature{{"string", "string", "string"}, 2},
      [](EvalContext&, const std::vector<Value>& in,
         std::vector<Value>* out) -> Result<bool> {
        out->push_back(Value::Str(in[0].AsString() + in[1].AsString()));
        return true;
      });

  registry->RegisterOrReplace(
      "tostring", BuiltinSignature{{"any", "string"}, 1},
      [](EvalContext& ctx, const std::vector<Value>& in,
         std::vector<Value>* out) -> Result<bool> {
        if (ctx.catalog != nullptr) {
          out->push_back(Value::Str(ctx.catalog->ValueToString(in[0])));
        } else {
          out->push_back(Value::Str(in[0].ToString()));
        }
        return true;
      });
}

}  // namespace secureblox::engine
