#include "datalog/catalog.h"

namespace secureblox::datalog {

Catalog::Catalog() {
  auto add_primitive = [this](const std::string& name, ValueKind kind) {
    PredicateDecl d;
    d.id = static_cast<PredId>(decls_.size());
    d.name = name;
    d.is_type = true;
    d.is_primitive = true;
    d.primitive_kind = kind;
    d.arg_types = {d.id};  // self-typed unary
    by_name_[name] = d.id;
    decls_.push_back(std::move(d));
    return static_cast<PredId>(decls_.size() - 1);
  };
  int_type_ = add_primitive("int", ValueKind::kInt);
  string_type_ = add_primitive("string", ValueKind::kString);
  bool_type_ = add_primitive("bool", ValueKind::kBool);
  blob_type_ = add_primitive("blob", ValueKind::kBlob);
}

Result<PredId> Catalog::DeclarePredicate(const std::string& name,
                                         std::vector<PredId> arg_types,
                                         bool functional) {
  auto it = by_name_.find(name);
  if (it != by_name_.end()) {
    const PredicateDecl& existing = decls_[it->second];
    if (existing.arg_types == arg_types && existing.functional == functional &&
        !existing.is_type) {
      return existing.id;  // identical redeclaration is harmless
    }
    return Status::AlreadyExists("predicate '" + name +
                                 "' already declared with a different shape");
  }
  PredicateDecl d;
  d.id = static_cast<PredId>(decls_.size());
  d.name = name;
  d.arg_types = std::move(arg_types);
  d.functional = functional;
  by_name_[name] = d.id;
  decls_.push_back(std::move(d));
  return static_cast<PredId>(decls_.size() - 1);
}

Result<PredId> Catalog::DeclareEntityType(const std::string& name) {
  auto it = by_name_.find(name);
  if (it != by_name_.end()) {
    const PredicateDecl& existing = decls_[it->second];
    if (existing.is_entity_type) return existing.id;
    return Status::AlreadyExists("'" + name +
                                 "' already declared as a non-entity predicate");
  }
  PredicateDecl d;
  d.id = static_cast<PredId>(decls_.size());
  d.name = name;
  d.is_type = true;
  d.is_entity_type = true;
  d.arg_types = {d.id};
  by_name_[name] = d.id;
  decls_.push_back(std::move(d));
  entities_[d.id] = EntityTable{};
  return static_cast<PredId>(decls_.size() - 1);
}

Result<PredId> Catalog::Lookup(const std::string& name) const {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    return Status::NotFound("undeclared predicate '" + name + "'");
  }
  return it->second;
}

bool Catalog::IsDeclared(const std::string& name) const {
  return by_name_.count(name) > 0;
}

Status Catalog::AddSubtype(PredId sub, PredId super) {
  if (!decls_[sub].is_type || !decls_[super].is_type) {
    return Status::TypeError("subtype constraint between non-type predicates");
  }
  supertypes_[sub].push_back(super);
  return Status::OK();
}

bool Catalog::IsSubtype(PredId sub, PredId super) const {
  if (sub == super) return true;
  auto it = supertypes_.find(sub);
  if (it == supertypes_.end()) return false;
  for (PredId up : it->second) {
    if (IsSubtype(up, super)) return true;
  }
  return false;
}

std::vector<PredId> Catalog::SupertypesOf(PredId type) const {
  std::vector<PredId> out;
  auto it = supertypes_.find(type);
  if (it == supertypes_.end()) return out;
  for (PredId up : it->second) {
    out.push_back(up);
    for (PredId more : SupertypesOf(up)) out.push_back(more);
  }
  return out;
}

Result<Value> Catalog::InternEntity(PredId type, const std::string& label) {
  auto it = entities_.find(type);
  if (it == entities_.end()) {
    return Status::InvalidArgument("'" + decl(type).name +
                                   "' is not an entity type");
  }
  EntityTable& table = it->second;
  auto found = table.by_label.find(label);
  if (found != table.by_label.end()) {
    return Value::Entity(type, found->second);
  }
  int64_t id = static_cast<int64_t>(table.labels.size());
  table.labels.push_back(label);
  table.by_label[label] = id;
  return Value::Entity(type, id);
}

Result<Value> Catalog::FindEntity(PredId type, const std::string& label) const {
  auto it = entities_.find(type);
  if (it == entities_.end()) {
    return Status::InvalidArgument("'" + decl(type).name +
                                   "' is not an entity type");
  }
  auto found = it->second.by_label.find(label);
  if (found == it->second.by_label.end()) {
    return Status::NotFound("no entity '" + label + "' of type " +
                            decl(type).name);
  }
  return Value::Entity(type, found->second);
}

Result<std::string> Catalog::EntityLabel(const Value& v) const {
  if (!v.is_entity()) return Status::InvalidArgument("value is not an entity");
  auto it = entities_.find(v.entity_type());
  if (it == entities_.end() ||
      v.entity_id() >= static_cast<int64_t>(it->second.labels.size())) {
    return Status::NotFound("unknown entity");
  }
  return it->second.labels[static_cast<size_t>(v.entity_id())];
}

const std::vector<std::string>& Catalog::EntityLabels(PredId type) const {
  static const std::vector<std::string> kEmpty;
  auto it = entities_.find(type);
  return it == entities_.end() ? kEmpty : it->second.labels;
}

bool Catalog::ValueMatchesType(const Value& v, PredId type) const {
  const PredicateDecl& t = decls_[type];
  if (t.is_primitive) return v.kind() == t.primitive_kind;
  if (t.is_entity_type) {
    return v.is_entity() && IsSubtype(v.entity_type(), type);
  }
  return false;
}

std::string Catalog::ValueToString(const Value& v) const {
  if (!v.is_entity()) return v.ToString();
  auto label = EntityLabel(v);
  if (!label.ok()) return v.ToString();
  return decls_[v.entity_type()].name + ":" + label.value();
}

}  // namespace secureblox::datalog
