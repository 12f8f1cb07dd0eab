#include "engine/planner.h"

#include <algorithm>
#include <cstdio>

#include "engine/kernels.h"

namespace secureblox::engine {

namespace {

const char* KindName(Step::Kind k) {
  switch (k) {
    case Step::Kind::kScan:      return "scan";
    case Step::Kind::kLookup:    return "lookup";
    case Step::Kind::kNegCheck:  return "neg";
    case Step::Kind::kCompare:   return "cmp";
    case Step::Kind::kAssign:    return "assign";
    case Step::Kind::kBuiltin:   return "builtin";
    case Step::Kind::kTypeCheck: return "typecheck";
  }
  return "?";
}

const char* ProbeName(Step::Probe p) {
  switch (p) {
    case Step::Probe::kScanAll:    return "scan-all";
    case Step::Probe::kShardProbe: return "shard";
    case Step::Probe::kFanout:     return "fanout";
  }
  return "?";
}

const char* SourceName(EstimateSource s) {
  switch (s) {
    case EstimateSource::kSize: return "size";
    case EstimateSource::kDict: return "dict";
    case EstimateSource::kStat: return "stat";
  }
  return "?";
}

/// Does planned step `p` run exactly like compiled step `c`: same kind,
/// argument kinds and probe strategy? Build only asks this of a step
/// placed at its compiled position, so everything else is copied as is.
bool SameStep(const Step& p, const Step& c) {
  if (p.kind != c.kind || p.probe != c.probe ||
      p.probe_mask != c.probe_mask || p.args.size() != c.args.size()) {
    return false;
  }
  for (size_t i = 0; i < p.args.size(); ++i) {
    if (p.args[i].kind != c.args[i].kind ||
        p.args[i].same_col != c.args[i].same_col) {
      return false;
    }
  }
  return true;
}

}  // namespace

struct ExecPlanner::ExplainRow {
  size_t source = 0;  // compiled step index
  double est = 0.0;   // estimated matches (<0 = the delta)
  /// Which statistic priced the position (kSize for filter/Δ/lookup
  /// positions whose cost is fixed, kDict/kStat for scans) and the
  /// distinct count behind it (-1 when none was consulted).
  EstimateSource src = EstimateSource::kSize;
  int64_t distinct = -1;
};

double ExecPlanner::EstimateBound(const Step& step,
                                  const std::vector<bool>& bound,
                                  EstimateSource* src,
                                  int64_t* distinct) const {
  *src = EstimateSource::kSize;
  *distinct = -1;
  Relation* rel = store_.GetRelation(step.pred);
  if (rel == nullptr) return 0.0;
  uint32_t mask = 0;
  for (size_t i = 0; i < step.args.size() && i < 32; ++i) {
    const ArgPat& p = step.args[i];
    if (p.kind == ArgPat::Kind::kConst ||
        (p.kind != ArgPat::Kind::kWild && bound[p.slot])) {
      mask |= 1u << i;
    }
  }
  if (mask == 0) return static_cast<double>(rel->size());
  const datalog::PredicateDecl& decl = rel->decl();
  if (decl.functional && decl.arity() >= 2) {
    const uint32_t key_mask = (1u << (decl.arity() - 1)) - 1;
    if ((mask & key_mask) == key_mask) return 1.0;  // FD: at most one row
  }
  rel->EnsureKeyStat(mask);
  *src = rel->EstimateSourceFor(mask);
  if (auto d = rel->DistinctKeys(mask)) {
    *distinct = static_cast<int64_t>(*d);
  }
  return rel->EstimateMatches(mask);
}

VariantPlan ExecPlanner::Build(const std::vector<Step>& base,
                               size_t num_slots, int occ,
                               std::vector<ExplainRow>* explain) const {
  VariantPlan plan;
  std::vector<bool> bound(num_slots, false);
  // Each scan candidate's latest estimate: a placed scan's is the one it
  // won its position with.
  std::vector<ExplainRow> scans(base.size());
  auto estimate = [&](size_t i, const std::vector<bool>& b) {
    ExplainRow& row = scans[i];
    row.est = EstimateBound(base[i], b, &row.src, &row.distinct);
    return row.est;
  };
  std::vector<BodyPlacement> placed;
  if (!OrderBody(base, occ, estimate, &bound, &plan.steps, &placed)) {
    return {};
  }
  bool in_order = true;  // every position holds its compiled step
  for (size_t k = 0; k < placed.size(); ++k) {
    in_order = in_order && placed[k].source == k;
    if (explain == nullptr) continue;
    // The delta is sized per round and not estimable here; filter, lookup
    // and builtin positions have a fixed cost.
    ExplainRow row;
    row.est = placed[k].cls < 0 ? -1.0 : 1.0;
    if (placed[k].cls == kScanClass) row = scans[placed[k].source];
    row.source = placed[k].source;
    explain->push_back(row);
  }

  ComputeProbeInfo(catalog_, &plan.steps);
  for (Step& s : plan.steps) {
    if (s.kind != Step::Kind::kScan || s.probe == Step::Probe::kScanAll) {
      continue;
    }
    // A probe expected to keep a quarter or more of the relation saves
    // little filtering over a linear pass, and the pass runs through the
    // SIMD filter kernels on contiguous code vectors (engine/kernels.h)
    // with no bucket indirection and no index to maintain. Only a real
    // statistic (dictionary live count or tracked mask stat) may make that
    // call — a bare-size default would send every untracked mask down the
    // scan path. Index buckets enumerate slots ascending, exactly the
    // scan's order, so the choice never changes the fixpoint.
    Relation* rel = store_.GetRelation(s.pred);
    if (rel != nullptr &&
        rel->EstimateSourceFor(s.probe_mask) != EstimateSource::kSize &&
        rel->EstimateMatches(s.probe_mask) * 4 >=
            static_cast<double>(rel->size())) {
      s.probe = Step::Probe::kScanAll;
    }
  }
  for (const Step& s : base) {
    if (s.pred == datalog::kInvalidPred) continue;
    bool seen = false;
    for (const auto& [pred, rows] : plan.stat_rows) {
      if (pred == s.pred) { seen = true; break; }
    }
    if (seen) continue;
    Relation* rel = store_.GetRelation(s.pred);
    plan.stat_rows.emplace_back(s.pred,
                                rel != nullptr ? rel->size() : 0);
  }
  // The compiled order, unchanged: run the compiled steps themselves.
  if (in_order && std::equal(plan.steps.begin(), plan.steps.end(),
                             base.begin(), SameStep)) {
    plan.steps = {};
  }
  return plan;
}

bool ExecPlanner::Stale(const VariantPlan& plan) const {
  for (const auto& [pred, rows] : plan.stat_rows) {
    Relation* rel = store_.GetRelation(pred);
    const size_t now = rel != nullptr ? rel->size() : 0;
    const size_t hi = std::max(now, rows);
    const size_t lo = std::min(now, rows);
    // Replan on a >2x grow/shrink; the +8 floor keeps tiny relations from
    // thrashing the cache on every insert.
    if (hi + 8 > 2 * (lo + 8)) return true;
  }
  return false;
}

const std::vector<Step>& ExecPlanner::PlanFor(const CompiledRule& rule,
                                              int occ) {
  return PlanSlot(rule, static_cast<size_t>(occ + 1), rule.steps, occ);
}

const std::vector<Step>& ExecPlanner::PlanForFlip(const CompiledRule& rule,
                                                  size_t neg) {
  return PlanSlot(rule, rule.num_scan_occurrences + 1 + neg,
                  rule.flip_steps[neg], rule.flip_occurrence());
}

const std::vector<Step>& ExecPlanner::PlanForHead(const CompiledRule& rule,
                                                  size_t head) {
  std::vector<std::vector<Step>>& bases = rule.plan_cache->head_steps;
  if (bases.empty()) {
    // Built once for every head: plans point into these vectors.
    for (size_t j = 0; j < rule.heads.size(); ++j) {
      bases.push_back(HeadBoundSteps(catalog_, rule, j));
    }
  }
  return PlanSlot(rule,
                  rule.num_scan_occurrences + 1 + rule.flip_steps.size() + head,
                  bases[head], rule.head_occurrence());
}

const std::vector<Step>& ExecPlanner::PlanSlot(const CompiledRule& rule,
                                               size_t slot,
                                               const std::vector<Step>& base,
                                               int occ) {
  RulePlanCache& cache = *rule.plan_cache;
  if (cache.variants.empty()) {
    // Sized exactly once: executing code holds interior pointers into the
    // slots, so the vector must never reallocate after this.
    cache.variants.resize(static_cast<size_t>(rule.num_scan_occurrences) +
                          1 + rule.flip_steps.size() + rule.heads.size());
  }
  std::optional<VariantPlan>& vp = cache.variants[slot];
  if (!vp.has_value() || Stale(*vp)) {
    const uint64_t builds = vp.has_value() ? vp->builds : 0;
    std::vector<ExplainRow> rows;
    VariantPlan fresh =
        Build(base, rule.num_slots, occ, options_.explain ? &rows : nullptr);
    fresh.builds = builds + 1;
    vp.emplace(std::move(fresh));
    ++plans_built_;
    if (options_.explain) {
      const std::string dump = Describe(
          rule, occ, vp->builds, vp->steps.empty() ? base : vp->steps, rows);
      fwrite(dump.data(), 1, dump.size(), stderr);
    }
  }
  return vp->steps.empty() ? base : vp->steps;
}

std::string ExecPlanner::Explain(const CompiledRule& rule, int occ) {
  PlanFor(rule, occ);  // cached and current, for its build count
  std::vector<ExplainRow> rows;
  const VariantPlan plan = Build(rule.steps, rule.num_slots, occ, &rows);
  return Describe(rule, occ, rule.plan_cache->variants[occ + 1]->builds,
                  plan.steps.empty() ? rule.steps : plan.steps, rows);
}

std::string ExecPlanner::Describe(const CompiledRule& rule, int occ,
                                  uint64_t builds,
                                  const std::vector<Step>& steps,
                                  const std::vector<ExplainRow>& rows) const {
  std::string out = "[plan] rule#" + std::to_string(rule.id) + " variant=";
  if (occ < 0) {
    out += "full";
  } else if (occ == rule.head_occurrence()) {
    out += "head";
  } else if (occ == rule.flip_occurrence()) {
    out += "flip";
  } else {
    out += "d" + std::to_string(occ);
  }
  out += " builds=" + std::to_string(builds);
  // The kernel instruction set scans will run with (engine/kernels.h) —
  // a throughput property only; it never changes the plan or the result.
  out += " simd=";
  out += SimdModeName(DetectSimdMode());
  out += "\n";
  for (size_t i = 0; i < steps.size(); ++i) {
    const Step& s = steps[i];
    out += "  " + std::to_string(i) + ": ";
    out += KindName(s.kind);
    if (s.pred != datalog::kInvalidPred) {
      out += " " + catalog_.decl(s.pred).name;
    }
    if (s.occurrence >= 0) {
      out += " (occ " + std::to_string(s.occurrence) + ")";
    }
    out += " est=";
    if (i >= rows.size()) {
      out += "?";
    } else if (rows[i].est < 0) {
      out += "delta";
    } else {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.3g", rows[i].est);
      out += buf;
    }
    const bool probes =
        s.kind == Step::Kind::kScan || s.kind == Step::Kind::kNegCheck;
    // Estimate provenance: which statistic priced this position (exact
    // dictionary distinct count, hashed mask stat, or bare size) and the
    // distinct count it consulted. Only meaningful on estimated scans.
    if (probes && i < rows.size() && rows[i].est >= 0) {
      out += " via=";
      out += SourceName(rows[i].src);
      if (rows[i].distinct >= 0) {
        out += " distinct=" + std::to_string(rows[i].distinct);
      }
    }
    if (probes) {
      char buf[32];
      std::snprintf(buf, sizeof buf, " probe=%s mask=0x%x",
                    ProbeName(s.probe), s.probe_mask);
      out += buf;
    }
    if (i < rows.size()) {
      out += " src=" + std::to_string(rows[i].source);
    }
    out += "\n";
  }
  return out;
}

}  // namespace secureblox::engine
