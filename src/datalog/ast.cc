#include "datalog/ast.h"

#include "common/strings.h"

namespace secureblox::datalog {

TermPtr Term::Var(std::string n) {
  auto t = std::make_shared<Term>();
  t->kind = TermKind::kVar;
  t->name = std::move(n);
  return t;
}

TermPtr Term::Const(Value v) {
  auto t = std::make_shared<Term>();
  t->kind = TermKind::kConst;
  t->constant = std::move(v);
  return t;
}

TermPtr Term::QuotedPred(std::string n) {
  auto t = std::make_shared<Term>();
  t->kind = TermKind::kQuotedPred;
  t->name = std::move(n);
  return t;
}

TermPtr Term::Vararg(std::string n) {
  auto t = std::make_shared<Term>();
  t->kind = TermKind::kVararg;
  t->name = std::move(n);
  return t;
}

TermPtr Term::Arith(char op, TermPtr l, TermPtr r) {
  auto t = std::make_shared<Term>();
  t->kind = TermKind::kArith;
  t->op = op;
  t->lhs = std::move(l);
  t->rhs = std::move(r);
  return t;
}

std::string Term::ToString() const {
  switch (kind) {
    case TermKind::kVar:
      return name;
    case TermKind::kConst:
      return constant.ToString();
    case TermKind::kQuotedPred:
      return "`" + name;
    case TermKind::kVararg:
      return name + "*";
    case TermKind::kArith:
      return StrCat({"(", lhs->ToString(), " ", std::string_view(&op, 1), " ",
                     rhs->ToString(), ")"});
  }
  return "?";
}

std::string PredRef::ToString() const {
  if (!parameterized()) return name;
  return name + "[" + param->ToString() + "]";
}

bool Atom::HasVararg() const {
  for (const auto& a : args) {
    if (a->kind == TermKind::kVararg) return true;
  }
  return false;
}

std::string Atom::ToString() const {
  std::string out = negated ? "!" : "";
  out += pred.ToString();
  std::vector<std::string> parts;
  for (const auto& a : args) parts.push_back(a->ToString());
  if (functional) {
    std::string value = parts.back();
    parts.pop_back();
    out += StrCat({"[", Join(parts, ", "), "] = ", value});
  } else {
    out += StrCat({"(", Join(parts, ", "), ")"});
  }
  return out;
}

const char* CmpOpName(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return "=";
    case CmpOp::kNe:
      return "!=";
    case CmpOp::kLt:
      return "<";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kGt:
      return ">";
    case CmpOp::kGe:
      return ">=";
  }
  return "?";
}

std::string Comparison::ToString() const {
  return lhs->ToString() + " " + CmpOpName(op) + " " + rhs->ToString();
}

Literal Literal::MakeAtom(Atom a) {
  Literal l;
  l.kind = Kind::kAtom;
  l.atom = std::move(a);
  return l;
}

Literal Literal::MakeCompare(Comparison c) {
  Literal l;
  l.kind = Kind::kCompare;
  l.cmp = std::move(c);
  return l;
}

std::string Literal::ToString() const {
  return kind == Kind::kAtom ? atom.ToString() : cmp.ToString();
}

const char* AggFuncName(AggFunc f) {
  switch (f) {
    case AggFunc::kMin:
      return "min";
    case AggFunc::kMax:
      return "max";
    case AggFunc::kCount:
      return "count";
    case AggFunc::kSum:
      return "sum";
  }
  return "?";
}

namespace {
std::string LiteralsToString(const std::vector<Literal>& lits) {
  std::vector<std::string> parts;
  for (const auto& l : lits) parts.push_back(l.ToString());
  return Join(parts, ", ");
}
}  // namespace

std::string Rule::ToString() const {
  std::vector<std::string> head_parts;
  for (const auto& h : heads) head_parts.push_back(h.ToString());
  std::string out = Join(head_parts, ", ");
  if (IsFact()) return out + ".";
  out += " <- ";
  if (agg.has_value()) {
    out += "agg<< " + std::string(agg->result_var) + " = " +
           AggFuncName(agg->func) + "(" + agg->input_var + ") >> ";
  }
  out += LiteralsToString(body) + ".";
  return out;
}

std::string ConstraintDecl::ToString() const {
  return LiteralsToString(lhs) + " -> " + LiteralsToString(rhs) + ".";
}

void Program::Merge(Program other) {
  auto append = [](auto& dst, auto& src) {
    dst.insert(dst.end(), std::make_move_iterator(src.begin()),
               std::make_move_iterator(src.end()));
  };
  append(rules, other.rules);
  append(constraints, other.constraints);
  append(generic_rules, other.generic_rules);
  append(generic_constraints, other.generic_constraints);
  append(meta_facts, other.meta_facts);
}

std::string Program::ToString() const {
  std::string out;
  for (const auto& c : constraints) out += c.ToString() + "\n";
  for (const auto& r : rules) out += r.ToString() + "\n";
  for (const auto& m : meta_facts) out += m.ToString() + ".\n";
  for (const auto& gr : generic_rules) {
    std::vector<std::string> head_parts;
    for (const auto& h : gr.head_atoms) head_parts.push_back(h.ToString());
    out += Join(head_parts, ", ");
    for (const auto& t : gr.templates) {
      out += head_parts.empty() ? "`{\n" : ", `{\n";
      for (const auto& c : t.constraints) out += "  " + c.ToString() + "\n";
      for (const auto& r : t.rules) out += "  " + r.ToString() + "\n";
      out += "}";
    }
    out += " <-- ";
    std::vector<std::string> body_parts;
    for (const auto& b : gr.body) body_parts.push_back(b.ToString());
    out += Join(body_parts, ", ") + ".\n";
  }
  for (const auto& gc : generic_constraints) {
    out += LiteralsToString(gc.lhs) + " --> " + LiteralsToString(gc.rhs) +
           ".\n";
  }
  return out;
}

}  // namespace secureblox::datalog
