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

void HashLengthPrefixed(const std::string& s, crypto::Sha1* sha) {
  // Unsigned LEB128 length, as ByteWriter::PutLengthPrefixedString writes.
  uint8_t prefix[10];
  size_t n = 0;
  uint64_t len = s.size();
  for (; len >= 0x80; len >>= 7) {
    prefix[n++] = static_cast<uint8_t>(len) | 0x80;
  }
  prefix[n++] = static_cast<uint8_t>(len);
  sha->Update(prefix, n);
  sha->Update(reinterpret_cast<const uint8_t*>(s.data()), s.size());
}

// Hash the canonical byte encoding of a value: kind tag + payload, fed to
// `sha` in pieces so no buffer is built. Entities encode as type name +
// label so the encoding is identical on every node regardless of local
// intern order.
Status HashCanonical(EvalContext& ctx, const Value& v, crypto::Sha1* sha) {
  const uint8_t kind = static_cast<uint8_t>(v.kind());
  sha->Update(&kind, 1);
  switch (v.kind()) {
    case ValueKind::kBool: {
      const uint8_t b = v.AsBool() ? 1 : 0;
      sha->Update(&b, 1);
      break;
    }
    case ValueKind::kInt: {
      // Big-endian, as ByteWriter::PutU64 writes.
      uint8_t be[8];
      uint64_t x = static_cast<uint64_t>(v.AsInt());
      for (int i = 7; i >= 0; --i, x >>= 8) be[i] = static_cast<uint8_t>(x);
      sha->Update(be, sizeof(be));
      break;
    }
    case ValueKind::kString:
    case ValueKind::kBlob:
      HashLengthPrefixed(v.BlobRef(), sha);
      break;
    case ValueKind::kEntity: {
      if (ctx.catalog == nullptr) {
        return Status::Internal("entity hashing requires a catalog");
      }
      SB_ASSIGN_OR_RETURN(std::string label, ctx.catalog->EntityLabel(v));
      HashLengthPrefixed(ctx.catalog->decl(v.entity_type()).name, sha);
      HashLengthPrefixed(label, sha);
      break;
    }
  }
  return Status::OK();
}

}  // namespace

void RegisterCoreBuiltins(BuiltinRegistry* registry) {
  registry->RegisterOrReplace(
      "sha1", BuiltinSignature{{"any", "blob"}, 1},
      [](EvalContext& ctx, const std::vector<Value>& in,
         std::vector<Value>* out) -> Result<bool> {
        crypto::Sha1 sha;
        SB_RETURN_IF_ERROR(HashCanonical(ctx, in[0], &sha));
        out->push_back(Value::MakeBlob(sha.Finish()));
        return true;
      });

  registry->RegisterOrReplace(
      "sha1_bucket", BuiltinSignature{{"any", "int", "int"}, 2},
      [](EvalContext& ctx, const std::vector<Value>& in,
         std::vector<Value>* out) -> Result<bool> {
        if (in[1].AsInt() <= 0) {
          return Status::InvalidArgument("sha1_bucket modulus must be > 0");
        }
        crypto::Sha1 sha;
        SB_RETURN_IF_ERROR(HashCanonical(ctx, in[0], &sha));
        uint8_t digest[crypto::Sha1::kDigestSize];
        sha.Finish(digest);
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
