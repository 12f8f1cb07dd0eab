// Predicate catalog: schema declarations, type predicates, the subtype
// lattice, and entity interning.
//
// LogicBlox-style typing: unary predicates act as types. Primitives (int,
// string, bool, blob) are built in; entity types (`principal(x) -> .`) hold
// interned entities identified by globally-unique string labels (LogicBlox
// "refmode"), so entity values can be shipped between nodes and re-interned.
#ifndef SECUREBLOX_DATALOG_CATALOG_H_
#define SECUREBLOX_DATALOG_CATALOG_H_

#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "datalog/value.h"

namespace secureblox::datalog {

/// Declaration of one predicate: name, argument types, functional-dependency
/// shape, and whether it is itself a type.
struct PredicateDecl {
  PredId id = kInvalidPred;
  std::string name;
  std::vector<PredId> arg_types;  // ids of type predicates
  bool functional = false;        // p[k1..kn] = v: last arg is the FD value
  bool is_type = false;           // unary predicate used as a type
  bool is_primitive = false;      // built-in int/string/bool/blob
  bool is_entity_type = false;    // declared via `t(x) -> .`
  ValueKind primitive_kind = ValueKind::kInt;  // valid when is_primitive

  size_t arity() const { return arg_types.size(); }
  size_t num_keys() const { return functional ? arity() - 1 : arity(); }
  bool is_singleton() const { return functional && arity() == 1; }
};

/// The schema registry shared by parser output analysis, the generics
/// compiler, and the evaluation engine.
class Catalog {
 public:
  Catalog();

  // -- declarations ---------------------------------------------------------

  /// Declare a regular predicate. Fails on duplicate names (unless the
  /// existing declaration is identical, which is treated as a no-op).
  Result<PredId> DeclarePredicate(const std::string& name,
                                  std::vector<PredId> arg_types,
                                  bool functional);

  /// Declare an entity type (`t(x) -> .`). Idempotent.
  Result<PredId> DeclareEntityType(const std::string& name);

  Result<PredId> Lookup(const std::string& name) const;
  bool IsDeclared(const std::string& name) const;
  /// Stable reference: declarations are never moved once registered.
  const PredicateDecl& decl(PredId id) const { return decls_[id]; }
  size_t num_predicates() const { return decls_.size(); }

  /// Transitive supertypes of an entity type (not including itself).
  std::vector<PredId> SupertypesOf(PredId type) const;

  PredId int_type() const { return int_type_; }
  PredId string_type() const { return string_type_; }
  PredId bool_type() const { return bool_type_; }
  PredId blob_type() const { return blob_type_; }

  // -- subtyping ------------------------------------------------------------

  /// Record `sub(x) -> super(x)` (both must be types).
  Status AddSubtype(PredId sub, PredId super);
  /// Reflexive-transitive subtype check.
  bool IsSubtype(PredId sub, PredId super) const;

  // -- entities -------------------------------------------------------------

  /// Intern (or find) the entity of `type` with the given label.
  Result<Value> InternEntity(PredId type, const std::string& label);
  /// Find an existing entity by label without creating it.
  Result<Value> FindEntity(PredId type, const std::string& label) const;
  /// Label of an interned entity.
  Result<std::string> EntityLabel(const Value& v) const;
  /// All labels interned for a type (iteration order = intern order).
  const std::vector<std::string>& EntityLabels(PredId type) const;

  /// Uniquifier embedded in anonymous entity labels
  /// (`<type>@<node_tag>#<digest>`, minted by Workspace::BindExistentials);
  /// set to the node name in distributed deployments so labels never
  /// collide across nodes.
  void SetNodeTag(std::string tag) { node_tag_ = std::move(tag); }
  const std::string& node_tag() const { return node_tag_; }

  // -- checks / debug -------------------------------------------------------

  /// Does a runtime value inhabit the given type (entity subtyping aware)?
  bool ValueMatchesType(const Value& v, PredId type) const;

  /// Human-readable value rendering with entity labels.
  std::string ValueToString(const Value& v) const;

 private:
  struct EntityTable {
    std::vector<std::string> labels;
    std::unordered_map<std::string, int64_t> by_label;
  };

  std::deque<PredicateDecl> decls_;  // deque: stable element addresses
  std::unordered_map<std::string, PredId> by_name_;
  std::unordered_map<PredId, std::vector<PredId>> supertypes_;
  std::unordered_map<PredId, EntityTable> entities_;
  PredId int_type_, string_type_, bool_type_, blob_type_;
  std::string node_tag_ = "local";
};

}  // namespace secureblox::datalog

#endif  // SECUREBLOX_DATALOG_CATALOG_H_
