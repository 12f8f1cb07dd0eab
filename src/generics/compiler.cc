#include "generics/compiler.h"

#include <functional>
#include <set>

#include "common/strings.h"
#include "datalog/typecheck.h"

namespace secureblox::generics {

using datalog::Atom;
using datalog::Catalog;
using datalog::CmpOp;
using datalog::ConstraintDecl;
using datalog::GenericConstraint;
using datalog::GenericRule;
using datalog::Literal;
using datalog::PredRef;
using datalog::Program;
using datalog::Rule;
using datalog::Term;
using datalog::TermKind;
using datalog::TermPtr;
using datalog::Value;
using datalog::ValueKind;

namespace {

/// Variable binding at the meta level: variable name -> program element.
using Binding = std::map<std::string, std::string>;

class CompilerImpl {
 public:
  CompilerImpl(const Program& input,
               const BloxGenericsCompiler::Options& options)
      : input_(input), options_(options) {}

  Result<ExpansionResult> Run() {
    SB_RETURN_IF_ERROR(BuildObjectSchema());
    SB_RETURN_IF_ERROR(BuildMetaDb());
    SB_RETURN_IF_ERROR(EvaluateGenericRules());
    SB_RETURN_IF_ERROR(CheckGenericConstraints());

    ExpansionResult out;
    out.program.rules = input_.rules;
    out.program.constraints = input_.constraints;
    SB_RETURN_IF_ERROR(ExpandTemplates(&out.program));
    SB_RETURN_IF_ERROR(ResolveProgram(&out.program));
    out.generated_predicates = generated_;
    out.meta = meta_;
    return out;
  }

 private:
  // --- schema of the object program (arities / types for V*) --------------

  Status BuildObjectSchema() {
    Program schema_only;
    schema_only.constraints = input_.constraints;
    auto runtime = datalog::BuildSchema(schema_only, &catalog_);
    if (!runtime.ok()) return runtime.status();
    return Status::OK();
  }

  // --- meta database -------------------------------------------------------

  // Extract the element name of a meta-level term (quoted predicate or
  // string constant); empty for variables.
  static Result<std::string> MetaConst(const TermPtr& t) {
    if (t->kind == TermKind::kQuotedPred) return t->name;
    if (t->kind == TermKind::kConst &&
        t->constant.kind() == ValueKind::kString) {
      return t->constant.AsString();
    }
    return Status::CompileError("expected predicate reference in meta atom, "
                                "got " + t->ToString());
  }

  Status DeclareFromAtom(const Atom& a) {
    if (a.pred.parameterized() || a.pred.name_is_metavar) {
      return Status::CompileError(
          "generic-rule atoms cannot be parameterized: " + a.ToString());
    }
    return meta_.Declare(a.pred.name, a.arity(), a.functional);
  }

  Status BuildMetaDb() {
    // Built-in generic predicates.
    SB_RETURN_IF_ERROR(meta_.Declare("predicate", 1, false));
    SB_RETURN_IF_ERROR(meta_.Declare("rule", 1, false));
    SB_RETURN_IF_ERROR(meta_.Declare("ruleHead", 2, false));
    SB_RETURN_IF_ERROR(meta_.Declare("ruleBody", 2, false));

    for (size_t i = 0; i < catalog_.num_predicates(); ++i) {
      const auto& decl = catalog_.decl(static_cast<datalog::PredId>(i));
      if (decl.is_primitive || decl.is_entity_type) continue;
      auto st = meta_.Insert("predicate", {decl.name});
      if (!st.ok()) return st.status();
    }
    for (size_t i = 0; i < input_.rules.size(); ++i) {
      const Rule& r = input_.rules[i];
      std::string id = "rule$" + std::to_string(i);
      auto st = meta_.Insert("rule", {id});
      if (!st.ok()) return st.status();
      for (const Atom& h : r.heads) {
        auto st2 = meta_.Insert("ruleHead", {id, h.pred.name});
        if (!st2.ok()) return st2.status();
      }
      for (const Literal& lit : r.body) {
        if (lit.kind != Literal::Kind::kAtom) continue;
        auto st2 = meta_.Insert("ruleBody", {id, lit.atom.pred.name});
        if (!st2.ok()) return st2.status();
      }
    }

    // Implicitly declare user generic predicates from all generic clauses.
    for (const GenericRule& gr : input_.generic_rules) {
      for (const Atom& h : gr.head_atoms) SB_RETURN_IF_ERROR(DeclareFromAtom(h));
      for (const Literal& l : gr.body) {
        if (l.kind == Literal::Kind::kAtom) {
          SB_RETURN_IF_ERROR(DeclareFromAtom(l.atom));
        }
      }
    }
    for (const GenericConstraint& gc : input_.generic_constraints) {
      for (const auto* side : {&gc.lhs, &gc.rhs}) {
        for (const Literal& l : *side) {
          if (l.kind == Literal::Kind::kAtom) {
            SB_RETURN_IF_ERROR(DeclareFromAtom(l.atom));
          }
        }
      }
    }
    for (const Atom& fact : input_.meta_facts) {
      SB_RETURN_IF_ERROR(DeclareFromAtom(fact));
      MetaTuple tuple;
      for (const auto& arg : fact.args) {
        SB_ASSIGN_OR_RETURN(std::string v, MetaConst(arg));
        tuple.push_back(std::move(v));
      }
      auto st = meta_.Insert(fact.pred.name, std::move(tuple));
      if (!st.ok()) return st.status();
    }
    return Status::OK();
  }

  // --- meta-level body enumeration ----------------------------------------

  Status Enumerate(const std::vector<Literal>& body, size_t idx, Binding& b,
                   const std::function<Status(const Binding&)>& cb) const {
    if (idx == body.size()) return cb(b);
    const Literal& lit = body[idx];

    if (lit.kind == Literal::Kind::kCompare) {
      const auto& c = lit.cmp;
      auto value_of = [&](const TermPtr& t) -> Result<std::string> {
        if (t->kind == TermKind::kVar) {
          auto it = b.find(t->name);
          if (it == b.end()) {
            return Status::CompileError("unbound meta variable '" + t->name +
                                        "' in comparison");
          }
          return it->second;
        }
        return MetaConst(t);
      };
      SB_ASSIGN_OR_RETURN(std::string l, value_of(c.lhs));
      SB_ASSIGN_OR_RETURN(std::string r, value_of(c.rhs));
      bool pass;
      switch (c.op) {
        case CmpOp::kEq: pass = (l == r); break;
        case CmpOp::kNe: pass = (l != r); break;
        default:
          return Status::CompileError(
              "only = and != are supported in generic rule bodies");
      }
      if (!pass) return Status::OK();
      return Enumerate(body, idx + 1, b, cb);
    }

    const Atom& a = lit.atom;
    if (a.negated) {
      // Negation over fully bound meta atoms.
      MetaTuple probe;
      for (const auto& arg : a.args) {
        if (arg->kind == TermKind::kVar) {
          auto it = b.find(arg->name);
          if (it == b.end()) {
            return Status::CompileError(
                "negated meta atom uses unbound variable '" + arg->name + "'");
          }
          probe.push_back(it->second);
        } else {
          SB_ASSIGN_OR_RETURN(std::string v, MetaConst(arg));
          probe.push_back(std::move(v));
        }
      }
      for (const MetaTuple& t : meta_.Tuples(a.pred.name)) {
        if (t == probe) return Status::OK();  // exists: negation fails
      }
      return Enumerate(body, idx + 1, b, cb);
    }

    if (!meta_.IsDeclared(a.pred.name)) {
      return Status::CompileError("unknown generic predicate '" +
                                  a.pred.name + "'");
    }
    for (const MetaTuple& t : meta_.Tuples(a.pred.name)) {
      if (t.size() != a.arity()) continue;
      Binding saved = b;
      bool ok = true;
      for (size_t i = 0; i < t.size() && ok; ++i) {
        const TermPtr& arg = a.args[i];
        if (arg->kind == TermKind::kVar) {
          auto it = b.find(arg->name);
          if (it == b.end()) {
            b[arg->name] = t[i];
          } else if (it->second != t[i]) {
            ok = false;
          }
        } else {
          auto c = MetaConst(arg);
          if (!c.ok() || c.value() != t[i]) ok = false;
        }
      }
      if (ok) SB_RETURN_IF_ERROR(Enumerate(body, idx + 1, b, cb));
      b = std::move(saved);
    }
    return Status::OK();
  }

  // --- generic rule fixpoint ------------------------------------------------

  static std::string BindingKey(const Binding& b) {
    std::string key;
    for (const auto& [k, v] : b) key += k + "=" + v + ";";
    return key;
  }

  // Variables of a generic rule's heads+templates that must come from the
  // body (anything else is a head existential).
  static std::set<std::string> AtomVars(const Atom& a) {
    std::set<std::string> out;
    if (a.pred.name_is_metavar) out.insert(a.pred.name);
    if (a.pred.param != nullptr && a.pred.param->kind == TermKind::kVar) {
      out.insert(a.pred.param->name);
    }
    for (const auto& arg : a.args) {
      if (arg->kind == TermKind::kVar) out.insert(arg->name);
      if (arg->kind == TermKind::kVararg) out.insert("*" + arg->name);
    }
    return out;
  }

  Result<std::string> NameForExistential(const GenericRule& gr,
                                         const std::string& var,
                                         const Binding& b) const {
    // Prefer the functional head atom whose value is this variable:
    // says[T]=ST names ST as says$<T>.
    for (const Atom& h : gr.head_atoms) {
      if (!h.functional) continue;
      const TermPtr& value = h.args.back();
      if (value->kind != TermKind::kVar || value->name != var) continue;
      std::string name = h.pred.name;
      for (size_t i = 0; i + 1 < h.args.size(); ++i) {
        const TermPtr& key = h.args[i];
        if (key->kind == TermKind::kVar) {
          auto it = b.find(key->name);
          if (it == b.end()) break;
          name += "$" + it->second;
        } else {
          SB_ASSIGN_OR_RETURN(std::string c, MetaConst(key));
          name += "$" + c;
        }
      }
      return name;
    }
    return "gen$" + var + "$" + std::to_string(generated_.size());
  }

  Status EvaluateGenericRules() {
    for (int round = 0; round < options_.max_rounds; ++round) {
      bool changed = false;
      for (size_t gi = 0; gi < input_.generic_rules.size(); ++gi) {
        const GenericRule& gr = input_.generic_rules[gi];
        std::vector<Binding> bindings;
        Binding scratch;
        SB_RETURN_IF_ERROR(Enumerate(gr.body, 0, scratch,
                                     [&](const Binding& b) -> Status {
                                       bindings.push_back(b);
                                       return Status::OK();
                                     }));
        for (Binding& b : bindings) {
          std::string memo_key =
              std::to_string(gi) + "|" + BindingKey(b);
          bool first_time = processed_.insert(memo_key).second;

          // Head existentials: create fresh predicates (memoized with the
          // rest of the binding).
          if (first_time) {
            std::set<std::string> needed;
            for (const Atom& h : gr.head_atoms) {
              for (const auto& v : AtomVars(h)) needed.insert(v);
            }
            for (const std::string& var : needed) {
              if (var[0] == '*' || b.count(var)) continue;
              SB_ASSIGN_OR_RETURN(std::string name,
                                  NameForExistential(gr, var, b));
              if (catalog_.IsDeclared(name)) {
                return Status::CompileError(
                    "generated predicate '" + name +
                    "' collides with an existing declaration");
              }
              b[var] = name;
              generated_.push_back(name);
              if (generated_.size() > options_.max_generated) {
                return Status::CompileError(
                    "BloxGenerics expansion exceeded the generated-predicate "
                    "cap (non-terminating meta-program?)");
              }
              existential_names_.insert(name);
            }
            memo_bindings_[memo_key] = b;
          } else {
            b = memo_bindings_[memo_key];
          }

          // Derive head meta facts.
          for (const Atom& h : gr.head_atoms) {
            MetaTuple tuple;
            bool complete = true;
            for (const auto& arg : h.args) {
              if (arg->kind == TermKind::kVar) {
                auto it = b.find(arg->name);
                if (it == b.end()) {
                  complete = false;
                  break;
                }
                tuple.push_back(it->second);
              } else {
                SB_ASSIGN_OR_RETURN(std::string c, MetaConst(arg));
                tuple.push_back(std::move(c));
              }
            }
            if (!complete) {
              return Status::CompileError(
                  "generic rule head uses unbound variable: " + h.ToString());
            }
            SB_ASSIGN_OR_RETURN(bool fresh,
                                meta_.Insert(h.pred.name, std::move(tuple)));
            changed |= fresh;
          }

          if (first_time && !gr.templates.empty()) {
            instantiations_.push_back({gi, b});
            changed = true;
          }
        }
      }
      if (!changed) return Status::OK();
    }
    return Status::CompileError(
        "BloxGenerics evaluation did not reach a fixpoint within " +
        std::to_string(options_.max_rounds) +
        " rounds (compile-time limit, paper §4.1.1)");
  }

  // --- generic constraints ---------------------------------------------------

  Status CheckGenericConstraints() const {
    for (const GenericConstraint& gc : input_.generic_constraints) {
      Binding scratch;
      SB_RETURN_IF_ERROR(Enumerate(gc.lhs, 0, scratch,
                                   [&](const Binding& b) -> Status {
        Binding probe = b;
        bool found = false;
        Status st = Enumerate(gc.rhs, 0, probe, [&](const Binding&) -> Status {
          found = true;
          return Status(StatusCode::kInternal, "");  // stop at the first
        });
        if (!found && !st.ok()) return st;
        if (!found) {
          std::string binding;
          for (const auto& [k, v] : b) {
            if (!binding.empty()) binding += ", ";
            binding += k + "=" + v;
          }
          return Status::CompileError(
              "generic constraint violated (program rejected before code "
              "generation): " + LiteralsToText(gc.lhs) + " --> " +
              LiteralsToText(gc.rhs) + " [" + binding + "]");
        }
        return Status::OK();
      }));
    }
    return Status::OK();
  }

  static std::string LiteralsToText(const std::vector<Literal>& lits) {
    std::vector<std::string> parts;
    for (const auto& l : lits) parts.push_back(l.ToString());
    return Join(parts, ", ");
  }

  // --- template expansion -----------------------------------------------------

  // Arity used for V* expansion: the subject predicate of the generic rule
  // (first variable of the first body atom).
  Result<size_t> VarargArity(const GenericRule& gr, const Binding& b) const {
    for (const Literal& lit : gr.body) {
      if (lit.kind != Literal::Kind::kAtom) continue;
      for (const auto& arg : lit.atom.args) {
        if (arg->kind != TermKind::kVar) continue;
        auto it = b.find(arg->name);
        if (it == b.end()) continue;
        auto pred = catalog_.Lookup(it->second);
        if (pred.ok()) return catalog_.decl(pred.value()).arity();
        auto gen = generated_arity_.find(it->second);
        if (gen != generated_arity_.end()) return gen->second;
      }
    }
    return Status::CompileError(
        "cannot determine V* length: the generic rule's subject predicate "
        "has no known arity");
  }

  // Substituted copy of a term; varargs expand externally.
  static TermPtr SubstTerm(const TermPtr& t) { return t; }

  // Expand one atom under `binding`; varargs expand to `vararg_arity` fresh
  // variables Name$i. The result may be multiple literals when the atom is
  // `types[T](V*)`.
  Result<std::vector<Atom>> SubstAtom(const Atom& a, const Binding& binding,
                                      size_t vararg_arity) const {
    Atom out = a;
    // Predicate name metavariable.
    if (out.pred.name_is_metavar) {
      auto it = binding.find(out.pred.name);
      if (it == binding.end()) {
        return Status::CompileError("template metavariable '" +
                                    out.pred.name + "' is unbound");
      }
      out.pred.name = it->second;
      out.pred.name_is_metavar = false;
    }
    // Predicate parameter metavariable -> quoted concrete name.
    if (out.pred.param != nullptr &&
        out.pred.param->kind == TermKind::kVar) {
      auto it = binding.find(out.pred.param->name);
      if (it == binding.end()) {
        return Status::CompileError("template parameter variable '" +
                                    out.pred.param->name + "' is unbound");
      }
      out.pred.param = Term::QuotedPred(it->second);
    }

    // types[`t](V*) expands to the subject's type atoms.
    if (out.pred.name == "types" && out.pred.parameterized()) {
      const std::string& target = out.pred.param->name;
      auto pred = catalog_.Lookup(target);
      if (!pred.ok()) {
        return Status::CompileError("types[...] applied to predicate '" +
                                    target + "' with unknown schema");
      }
      if (out.args.size() != 1 || out.args[0]->kind != TermKind::kVararg) {
        return Status::CompileError("types[...] takes exactly one vararg");
      }
      const std::string& vname = out.args[0]->name;
      const auto& decl = catalog_.decl(pred.value());
      std::vector<Atom> expanded;
      for (size_t i = 0; i < decl.arity() && i < vararg_arity; ++i) {
        Atom t;
        t.pred.name = catalog_.decl(decl.arg_types[i]).name;
        t.args.push_back(Term::Var(vname + "$" + std::to_string(i)));
        t.loc = a.loc;
        expanded.push_back(std::move(t));
      }
      return expanded;
    }

    // Expand varargs in argument positions.
    std::vector<TermPtr> args;
    for (const auto& arg : out.args) {
      if (arg->kind == TermKind::kVararg) {
        for (size_t i = 0; i < vararg_arity; ++i) {
          args.push_back(Term::Var(arg->name + "$" + std::to_string(i)));
        }
      } else {
        args.push_back(SubstTerm(arg));
      }
    }
    out.args = std::move(args);
    return std::vector<Atom>{std::move(out)};
  }

  Result<std::vector<Literal>> SubstLiterals(const std::vector<Literal>& in,
                                             const Binding& binding,
                                             size_t vararg_arity) const {
    std::vector<Literal> out;
    for (const Literal& lit : in) {
      if (lit.kind == Literal::Kind::kCompare) {
        out.push_back(lit);
        continue;
      }
      SB_ASSIGN_OR_RETURN(std::vector<Atom> atoms,
                          SubstAtom(lit.atom, binding, vararg_arity));
      for (Atom& a : atoms) out.push_back(Literal::MakeAtom(std::move(a)));
    }
    return out;
  }

  Status ExpandTemplates(Program* out) {
    std::set<std::string> emitted;  // textual dedupe
    for (const auto& inst : instantiations_) {
      const GenericRule& gr = input_.generic_rules[inst.rule_idx];
      SB_ASSIGN_OR_RETURN(size_t vararg_arity, VarargArity(gr, inst.binding));

      // Record generated predicate arities for nested expansions: the
      // declaring constraint ST(P1,P2,V*) -> ... fixes ST's arity.
      for (const auto& tmpl : gr.templates) {
        for (const ConstraintDecl& c : tmpl.constraints) {
          for (const Literal& lit : c.lhs) {
            if (lit.kind != Literal::Kind::kAtom) continue;
            const Atom& a = lit.atom;
            if (!a.pred.name_is_metavar) continue;
            auto it = inst.binding.find(a.pred.name);
            if (it == inst.binding.end()) continue;
            size_t arity = 0;
            for (const auto& arg : a.args) {
              arity += (arg->kind == TermKind::kVararg) ? vararg_arity : 1;
            }
            generated_arity_[it->second] = arity;
          }
        }
      }

      for (const auto& tmpl : gr.templates) {
        for (const Rule& r : tmpl.rules) {
          Rule gen;
          gen.loc = r.loc;
          gen.agg = r.agg;
          for (const Atom& h : r.heads) {
            SB_ASSIGN_OR_RETURN(std::vector<Atom> atoms,
                                SubstAtom(h, inst.binding, vararg_arity));
            for (Atom& a : atoms) gen.heads.push_back(std::move(a));
          }
          SB_ASSIGN_OR_RETURN(gen.body,
                              SubstLiterals(r.body, inst.binding,
                                            vararg_arity));
          if (emitted.insert("R" + gen.ToString()).second) {
            out->rules.push_back(std::move(gen));
          }
        }
        for (const ConstraintDecl& c : tmpl.constraints) {
          ConstraintDecl gen;
          gen.loc = c.loc;
          SB_ASSIGN_OR_RETURN(gen.lhs,
                              SubstLiterals(c.lhs, inst.binding,
                                            vararg_arity));
          SB_ASSIGN_OR_RETURN(gen.rhs,
                              SubstLiterals(c.rhs, inst.binding,
                                            vararg_arity));
          if (emitted.insert("C" + gen.ToString()).second) {
            out->constraints.push_back(std::move(gen));
          }
        }
      }
    }
    return Status::OK();
  }

  // --- parameterized atom resolution -------------------------------------------

  Status ResolveAtom(Atom* a) const {
    if (a->pred.name_is_metavar) {
      return Status::Internal("unsubstituted metavariable predicate '" +
                              a->pred.name + "'");
    }
    if (!a->pred.parameterized()) return Status::OK();
    if (a->pred.param->kind != TermKind::kQuotedPred) {
      return Status::CompileError("unresolved parameter in atom " +
                                  a->ToString());
    }
    const std::string& param = a->pred.param->name;
    if (meta_.IsFunctional(a->pred.name)) {
      auto resolved = meta_.LookupValue(a->pred.name, {param});
      if (!resolved.ok()) {
        return Status::CompileError(
            "no instance of generic predicate " + a->pred.name + "[`" + param +
            "] — is `" + param + " exportable / covered by a generic rule?");
      }
      a->pred.name = resolved.value();
    } else {
      // Builtin-family mangling: serialize[`path] -> serialize$path.
      a->pred.name = a->pred.name + "$" + param;
    }
    a->pred.param = nullptr;
    return Status::OK();
  }

  Status ResolveProgram(Program* p) const {
    for (Rule& r : p->rules) {
      for (Atom& h : r.heads) SB_RETURN_IF_ERROR(ResolveAtom(&h));
      for (Literal& l : r.body) {
        if (l.kind == Literal::Kind::kAtom) {
          SB_RETURN_IF_ERROR(ResolveAtom(&l.atom));
        }
      }
    }
    for (ConstraintDecl& c : p->constraints) {
      for (auto* side : {&c.lhs, &c.rhs}) {
        for (Literal& l : *side) {
          if (l.kind == Literal::Kind::kAtom) {
            SB_RETURN_IF_ERROR(ResolveAtom(&l.atom));
          }
        }
      }
    }
    return Status::OK();
  }

  const Program& input_;
  BloxGenericsCompiler::Options options_;
  Catalog catalog_;
  MetaDb meta_;
  std::vector<std::string> generated_;
  std::set<std::string> existential_names_;
  std::map<std::string, size_t> generated_arity_;
  std::set<std::string> processed_;
  std::map<std::string, Binding> memo_bindings_;
  struct Instantiation {
    size_t rule_idx;
    Binding binding;
  };
  std::vector<Instantiation> instantiations_;
};

}  // namespace

Result<ExpansionResult> BloxGenericsCompiler::Compile(
    const Program& input) const {
  return CompilerImpl(input, options_).Run();
}

}  // namespace secureblox::generics
