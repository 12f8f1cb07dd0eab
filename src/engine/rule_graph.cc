#include "engine/rule_graph.h"

#include <algorithm>
#include <map>
#include <set>

namespace secureblox::engine {

using datalog::PredId;

std::vector<PredId> HeadPreds(const CompiledRule& rule) {
  std::vector<PredId> out;
  if (rule.agg.has_value()) {
    out.push_back(rule.agg->head_pred);
  } else {
    for (const auto& h : rule.heads) out.push_back(h.pred);
  }
  return out;
}

namespace {

// (pred, negated) pairs read by a rule body.
std::vector<std::pair<PredId, bool>> BodyPreds(const CompiledRule& r) {
  std::vector<std::pair<PredId, bool>> out;
  for (const Step& s : r.steps) {
    if (s.kind == Step::Kind::kScan || s.kind == Step::Kind::kLookup) {
      out.emplace_back(s.pred, false);
    } else if (s.kind == Step::Kind::kNegCheck) {
      out.emplace_back(s.pred, true);
    }
  }
  return out;
}

// Tarjan SCC over dense node indices — predicate ids (stratification) or
// rule indices (rule groups). Components are emitted consumers-first
// (reverse topological order of the condensation).
class Scc {
 public:
  explicit Scc(const std::vector<std::vector<size_t>>& edges)
      : edges_(edges), index_(edges.size(), -1), low_(edges.size(), 0),
        comp_(edges.size(), -1), on_stack_(edges.size(), false) {
    for (size_t n = 0; n < edges.size(); ++n) {
      if (index_[n] < 0) Visit(n);
    }
  }

  int ComponentOf(size_t n) const { return comp_[n]; }
  int num_components() const { return num_comps_; }

 private:
  void Visit(size_t n) {
    index_[n] = low_[n] = counter_++;
    stack_.push_back(n);
    on_stack_[n] = true;
    for (size_t m : edges_[n]) {
      if (index_[m] < 0) {
        Visit(m);
        low_[n] = std::min(low_[n], low_[m]);
      } else if (on_stack_[m]) {
        low_[n] = std::min(low_[n], index_[m]);
      }
    }
    if (low_[n] == index_[n]) {
      while (true) {
        size_t m = stack_.back();
        stack_.pop_back();
        on_stack_[m] = false;
        comp_[m] = num_comps_;
        if (m == n) break;
      }
      ++num_comps_;
    }
  }

  const std::vector<std::vector<size_t>>& edges_;
  std::vector<int> index_, low_, comp_;
  std::vector<bool> on_stack_;
  std::vector<size_t> stack_;
  int counter_ = 0;
  int num_comps_ = 0;
};

}  // namespace

Result<std::vector<int>> Stratify(const std::vector<CompiledRule*>& rules,
                                  const datalog::Catalog& catalog,
                                  std::vector<bool>* lattice_flags,
                                  bool allow_unstratified_negation) {
  // Dependency edges head -> body pred, indexed by predicate id, with
  // negation/aggregation marked.
  std::vector<std::vector<size_t>> edges(catalog.num_predicates());
  struct MarkedEdge {
    PredId from, to;
    const CompiledRule* rule;
  };
  std::vector<MarkedEdge> negative_edges;

  for (const CompiledRule* r : rules) {
    for (PredId h : HeadPreds(*r)) {
      for (const auto& [b, negated] : BodyPreds(*r)) {
        edges[h].push_back(b);
        if (negated || r->agg.has_value()) {
          negative_edges.push_back({h, b, r});
        }
      }
    }
  }
  for (std::vector<size_t>& tos : edges) {
    std::sort(tos.begin(), tos.end());
    tos.erase(std::unique(tos.begin(), tos.end()), tos.end());
  }

  Scc scc(edges);

  // Longest-path levels over the condensation: positive edges weight 0,
  // negative/aggregate edges weight 1. Iterate to fixpoint (few preds).
  std::vector<int> level(scc.num_components(), 0);
  bool changed = true;
  int guard = 0;
  while (changed) {
    changed = false;
    if (++guard > scc.num_components() + 2) break;  // cycles handled below
    for (size_t from = 0; from < edges.size(); ++from) {
      int cf = scc.ComponentOf(from);
      for (size_t to : edges[from]) {
        int ct = scc.ComponentOf(to);
        if (cf == ct) continue;
        if (level[cf] < level[ct]) {
          level[cf] = level[ct];
          changed = true;
        }
      }
    }
    for (const auto& e : negative_edges) {
      int cf = scc.ComponentOf(e.from);
      int ct = scc.ComponentOf(e.to);
      if (cf == ct) continue;  // recursive: validated below
      if (level[cf] < level[ct] + 1) {
        level[cf] = level[ct] + 1;
        changed = true;
      }
    }
  }

  // Validate negation / aggregation.
  lattice_flags->assign(rules.size(), false);
  for (size_t i = 0; i < rules.size(); ++i) {
    const CompiledRule& r = *rules[i];
    for (const Step& s : r.steps) {
      if (s.kind != Step::Kind::kNegCheck) continue;
      for (PredId h : HeadPreds(r)) {
        if (scc.ComponentOf(h) == scc.ComponentOf(s.pred) &&
            !allow_unstratified_negation) {
          return Status::CompileError(
              "unstratified negation through predicate '" +
              catalog.decl(s.pred).name + "' in rule: " + r.source.ToString());
        }
      }
    }
    if (r.agg.has_value()) {
      bool recursive = false;
      for (const auto& [b, negated] : BodyPreds(r)) {
        (void)negated;
        if (scc.ComponentOf(r.agg->head_pred) == scc.ComponentOf(b)) {
          recursive = true;
        }
      }
      if (recursive) {
        if (r.agg->func != datalog::AggFunc::kMin &&
            r.agg->func != datalog::AggFunc::kMax) {
          return Status::CompileError(
              "recursive aggregation must be min or max (lattice mode): " +
              r.source.ToString());
        }
        (*lattice_flags)[i] = true;
      }
    }
  }

  std::vector<int> strata(rules.size(), 0);
  for (size_t i = 0; i < rules.size(); ++i) {
    int s = 0;
    for (PredId h : HeadPreds(*rules[i])) {
      s = std::max(s, level[scc.ComponentOf(h)]);
    }
    strata[i] = s;
  }
  return strata;
}

Result<RuleGraph> RuleGraph::Build(const std::vector<CompiledRule*>& rules,
                                   const datalog::Catalog& catalog,
                                   bool allow_unstratified_negation) {
  RuleGraph g;
  SB_ASSIGN_OR_RETURN(g.strata_,
                      Stratify(rules, catalog, &g.lattice_flags_,
                               allow_unstratified_negation));
  g.max_stratum_ = 0;
  for (int s : g.strata_) g.max_stratum_ = std::max(g.max_stratum_, s);

  // Predicate -> consuming rules (scan/lookup occurrences drive re-firing;
  // negation probes never do — they read completed lower strata, or
  // derivation-time state in declarative-networking mode).
  for (size_t i = 0; i < rules.size(); ++i) {
    std::set<PredId> seen;
    for (PredId p : rules[i]->scan_preds) {
      if (seen.insert(p).second) g.consumers_[p].push_back(i);
    }
    for (const Step& s : rules[i]->steps) {
      if (s.kind == Step::Kind::kNegCheck) g.negated_preds_.insert(s.pred);
    }
  }

  // Rule dependency edges within a stratum: r1 feeds r2 when a head
  // predicate of r1 has a scan occurrence in r2.
  std::vector<std::vector<size_t>> feeds(rules.size());
  for (size_t i = 0; i < rules.size(); ++i) {
    std::set<size_t> outs;
    for (PredId h : HeadPreds(*rules[i])) {
      auto it = g.consumers_.find(h);
      if (it == g.consumers_.end()) continue;
      for (size_t j : it->second) {
        if (j != i && g.strata_[j] == g.strata_[i]) outs.insert(j);
      }
      // Self-loop: a rule reading its own head is recursive even as a
      // singleton SCC.
      if (std::find(it->second.begin(), it->second.end(), i) !=
          it->second.end()) {
        outs.insert(i);
      }
    }
    feeds[i].assign(outs.begin(), outs.end());
  }

  Scc scc(feeds);
  // Tarjan emits components consumers-first; flip ids so ascending group id
  // is a producers-first topological order.
  int num = scc.num_components();
  g.group_of_rule_.resize(rules.size());
  g.groups_.assign(num, {});
  for (size_t i = 0; i < rules.size(); ++i) {
    int id = num - 1 - scc.ComponentOf(i);
    g.group_of_rule_[i] = id;
    g.groups_[id].rules.push_back(i);
  }
  for (int id = 0; id < num; ++id) {
    RuleGroup& grp = g.groups_[id];
    grp.id = id;
    grp.stratum = g.strata_[grp.rules.front()];
    std::sort(grp.rules.begin(), grp.rules.end());
  }
  // Successors + recursion flags from the rule-level edges.
  std::vector<std::set<int>> succ(num);
  for (size_t i = 0; i < rules.size(); ++i) {
    for (size_t j : feeds[i]) {
      int gi = g.group_of_rule_[i], gj = g.group_of_rule_[j];
      if (gi == gj) {
        g.groups_[gi].recursive = true;
      } else {
        succ[gi].insert(gj);
      }
    }
  }
  for (int id = 0; id < num; ++id) {
    g.groups_[id].successors.assign(succ[id].begin(), succ[id].end());
  }

  g.groups_by_stratum_.assign(g.max_stratum_ + 1, {});
  for (int id = 0; id < num; ++id) {
    g.groups_by_stratum_[g.groups_[id].stratum].push_back(id);
  }

  // Delta-routing and rederivation indexes.
  for (const auto& [pred, rule_ids] : g.consumers_) {
    std::set<int> gs;
    for (size_t r : rule_ids) gs.insert(g.group_of_rule_[r]);
    g.consumer_groups_[pred].assign(gs.begin(), gs.end());
  }
  {
    std::map<PredId, std::set<int>> neg_groups;
    for (size_t i = 0; i < rules.size(); ++i) {
      for (const Step& s : rules[i]->steps) {
        if (s.kind == Step::Kind::kNegCheck) {
          neg_groups[s.pred].insert(g.group_of_rule_[i]);
        }
      }
    }
    for (const auto& [pred, gs] : neg_groups) {
      g.negator_groups_[pred].assign(gs.begin(), gs.end());
    }
  }
  for (size_t i = 0; i < rules.size(); ++i) {
    std::set<PredId> seen;
    for (PredId h : HeadPreds(*rules[i])) {
      if (seen.insert(h).second) g.producers_[h].push_back(i);
    }
  }
  return g;
}

const std::vector<size_t>& RuleGraph::consumers_of(PredId pred) const {
  static const std::vector<size_t> kEmpty;
  auto it = consumers_.find(pred);
  return it == consumers_.end() ? kEmpty : it->second;
}

const std::vector<int>& RuleGraph::consumer_groups_of(PredId pred) const {
  static const std::vector<int> kEmpty;
  auto it = consumer_groups_.find(pred);
  return it == consumer_groups_.end() ? kEmpty : it->second;
}

const std::vector<int>& RuleGraph::negator_groups_of(PredId pred) const {
  static const std::vector<int> kEmpty;
  auto it = negator_groups_.find(pred);
  return it == negator_groups_.end() ? kEmpty : it->second;
}

const std::vector<size_t>& RuleGraph::producers_of(PredId pred) const {
  static const std::vector<size_t> kEmpty;
  auto it = producers_.find(pred);
  return it == producers_.end() ? kEmpty : it->second;
}

// -- query front end: adornment / slice analysis ---------------------------

std::string AdornmentString(Adornment a, size_t arity) {
  std::string out;
  out.reserve(arity);
  for (size_t i = 0; i < arity; ++i) {
    out.push_back((a >> i) & 1 ? 'b' : 'f');
  }
  return out;
}

namespace {

// Variables appearing anywhere in a term (arith descends).
void CollectTermVars(const datalog::TermPtr& t,
                     std::unordered_set<std::string>* out) {
  if (t == nullptr) return;
  if (t->kind == datalog::TermKind::kVar) out->insert(t->name);
  if (t->kind == datalog::TermKind::kArith) {
    CollectTermVars(t->lhs, out);
    CollectTermVars(t->rhs, out);
  }
}

}  // namespace

Result<DeferredRuleIndex> DeferredRuleIndex::Build(
    const std::vector<datalog::Rule>& rules, const datalog::Catalog& catalog,
    const datalog::BuiltinSignatureMap& builtins) {
  DeferredRuleIndex index;
  index.num_rules_ = rules.size();
  for (const auto& [name, sig] : builtins) index.builtin_names_.insert(name);

  // Pass 1: producers, dependency edges, negated-predicate set, and the
  // seeds of the full-materialization set.
  std::unordered_set<PredId> negated;
  for (size_t r = 0; r < rules.size(); ++r) {
    const datalog::Rule& rule = rules[r];
    std::unordered_set<std::string> body_vars;
    std::vector<PredId> body_preds;
    for (const datalog::Literal& lit : rule.body) {
      if (lit.kind == datalog::Literal::Kind::kCompare) {
        CollectTermVars(lit.cmp.lhs, &body_vars);
        CollectTermVars(lit.cmp.rhs, &body_vars);
        continue;
      }
      for (const auto& arg : lit.atom.args) CollectTermVars(arg, &body_vars);
      if (index.builtin_names_.count(lit.atom.pred.name)) continue;
      SB_ASSIGN_OR_RETURN(PredId pid, catalog.Lookup(lit.atom.pred.name));
      body_preds.push_back(pid);
      if (lit.atom.negated) negated.insert(pid);
    }

    // Aggregate rules need complete input groups; multi-head rules derive
    // every head per body match, so restricting one head starves the
    // others; head existentials create entities whose labels depend on the
    // producing rule's identity. All three install unguarded.
    bool unadornable = rule.agg.has_value() || rule.heads.size() > 1;
    for (const datalog::Atom& head : rule.heads) {
      for (const auto& arg : head.args) {
        if (arg->kind == datalog::TermKind::kVar &&
            !body_vars.count(arg->name)) {
          unadornable = true;  // head existential
        }
      }
    }
    for (const datalog::Atom& head : rule.heads) {
      SB_ASSIGN_OR_RETURN(PredId hid, catalog.Lookup(head.pred.name));
      index.producers_[hid].push_back(r);
      auto& deps = index.deps_[hid];
      for (PredId p : body_preds) {
        if (std::find(deps.begin(), deps.end(), p) == deps.end()) {
          deps.push_back(p);
        }
      }
      if (unadornable) index.full_.insert(hid);
    }
  }
  for (PredId p : negated) {
    if (index.IsIdb(p)) index.negated_idb_.insert(p);
  }

  // Pass 2: close the full set downward — an unguarded rule reads its body
  // predicates in full, so they must be complete too.
  std::vector<PredId> work(index.full_.begin(), index.full_.end());
  while (!work.empty()) {
    PredId p = work.back();
    work.pop_back();
    auto it = index.deps_.find(p);
    if (it == index.deps_.end()) continue;
    for (PredId q : it->second) {
      if (index.IsIdb(q) && index.full_.insert(q).second) work.push_back(q);
    }
  }
  return index;
}

const std::vector<size_t>& DeferredRuleIndex::ProducersOf(PredId pred) const {
  static const std::vector<size_t> kEmpty;
  auto it = producers_.find(pred);
  return it == producers_.end() ? kEmpty : it->second;
}

std::vector<PredId> DeferredRuleIndex::SliceClosure(PredId pred) const {
  std::unordered_set<PredId> seen{pred};
  std::vector<PredId> work{pred};
  while (!work.empty()) {
    PredId p = work.back();
    work.pop_back();
    auto it = deps_.find(p);
    if (it == deps_.end()) continue;
    for (PredId q : it->second) {
      if (seen.insert(q).second) work.push_back(q);
    }
  }
  std::vector<PredId> out(seen.begin(), seen.end());
  std::sort(out.begin(), out.end());
  return out;
}

bool DeferredRuleIndex::SliceHasNegatedIdb(PredId pred) const {
  if (negated_idb_.empty()) return false;
  for (PredId p : SliceClosure(pred)) {
    if (negated_idb_.count(p)) return true;
  }
  return false;
}

std::vector<size_t> DeferredRuleIndex::SliceRules(PredId pred) const {
  std::set<size_t> out;
  for (PredId p : SliceClosure(pred)) {
    for (size_t r : ProducersOf(p)) out.insert(r);
  }
  return std::vector<size_t>(out.begin(), out.end());
}

}  // namespace secureblox::engine
