// Builtin (user-defined) functions callable from rule bodies and constraint
// right-hand sides — the paper's mechanism for hooking cryptographic
// operators (`rsa_sign`, `hmac_verify`, `aesencrypt`, `sha1`, `serialize`)
// into query execution.
#ifndef SECUREBLOX_ENGINE_BUILTINS_H_
#define SECUREBLOX_ENGINE_BUILTINS_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "datalog/catalog.h"
#include "datalog/typecheck.h"
#include "datalog/value.h"

namespace secureblox::engine {

/// Execution context handed to builtin implementations. `user` points at
/// runtime-specific state (e.g. the node's key store / circuit table).
struct EvalContext {
  datalog::Catalog* catalog = nullptr;
  void* user = nullptr;
};

/// A builtin maps bound input values to output values.
/// Return value semantics:
///   - ok(true):  outputs produced (out has sig.arity - num_inputs values)
///   - ok(false): no result — the literal filters out this binding
///                (e.g. signature verification failed)
///   - error:     hard evaluation failure, aborts the transaction
using BuiltinFn = std::function<Result<bool>(
    EvalContext&, const std::vector<datalog::Value>&,
    std::vector<datalog::Value>*)>;

struct BuiltinImpl {
  datalog::BuiltinSignature sig;
  BuiltinFn fn;
  /// Safe to call from concurrent enumeration workers. False for builtins
  /// that mutate shared state (e.g. deserializers that intern entities in
  /// the catalog); rules using them enumerate inline on the coordinating
  /// thread, after the pool drains, against the round's snapshot.
  bool thread_safe = true;
  std::string name;  // the registry key, for error messages
};

/// Name-keyed registry. The signature view feeds the type checker; the
/// implementations feed the evaluator.
class BuiltinRegistry {
 public:
  Status Register(const std::string& name, datalog::BuiltinSignature sig,
                  BuiltinFn fn, bool thread_safe = true);
  /// Re-register or add (used for policy-generated per-predicate builtins).
  void RegisterOrReplace(const std::string& name,
                         datalog::BuiltinSignature sig, BuiltinFn fn,
                         bool thread_safe = true);

  const BuiltinImpl* Find(const std::string& name) const;
  bool Contains(const std::string& name) const;

  datalog::BuiltinSignatureMap Signatures() const;

 private:
  std::map<std::string, BuiltinImpl> impls_;
};

/// Register the arithmetic/string/hash builtins every workspace gets:
///   sha1(any) -> blob            SHA-1 digest of the serialized value
///   sha1_bucket(any, int) -> int hash of arg0 into [0, arg1)
///   concat(string, string) -> string
///   tostring(any) -> string
/// (Crypto/signing builtins are registered by the policy layer, per node.)
void RegisterCoreBuiltins(BuiltinRegistry* registry);

}  // namespace secureblox::engine

#endif  // SECUREBLOX_ENGINE_BUILTINS_H_
