#!/usr/bin/env python3
"""Summarize and compare sbbench result sets.

  compare.py summarize DIR
      Reads DIR/<workload>.jsonl and DIR/<workload>.trace.jsonl (one full
      result per run, as `run.sh --record` writes them) and writes
      DIR/summary.json: median, quartiles and spread of every metric.
      Prints each end-to-end spread next to its BENCHMARK.json bound.

  compare.py compare PARENT CHANGE
      PARENT and CHANGE are result files or directories of untraced runs,
      one set per commit, run in alternating pairs (pair i: one run of
      each side with the same seed, the side that goes first alternating
      with i). For every workload and end-to-end metric it prints both
      medians and quartiles, the change's wins over its pairs, and:
        gain        the change wins at least 9 of 10 pairs (ties count for
                    neither) and its median beats the parent's by more than
                    the parent's own quartile distance;
        refused     it would be a gain, but the change's runs fail more
                    operations than the parent's;
        regression  the change's median is worse than the parent's by more
                    than the metric's bound;
        unresolved  the parent's spread is wider than the bound, and not
                    every change run beats every parent run;
        same        otherwise.
      Each workload's row also gives the failed operations of each side.
      Exits 1 when any pairing regresses or any change run is incorrect.

Spread is the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median.
"""
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(HERE, "..", "BENCHMARK.json")


def load_runs(path):
    """Full-result JSON objects from a .jsonl file or every one in a dir."""
    files = [path]
    if os.path.isdir(path):
        files = sorted(os.path.join(path, f) for f in os.listdir(path)
                       if f.endswith(".jsonl"))
    runs = []
    for name in files:
        with open(name) as f:
            runs.extend(json.loads(line) for line in f if line.strip())
    return runs


def bench_spec():
    try:
        with open(BENCHMARK_JSON) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return {}
    return {m["name"]: m for m in spec.get("end_to_end", [])}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def metric_values(runs, section):
    by_name = {}
    for run in runs:
        for name, m in run.get(section, {}).items():
            by_name.setdefault(name, []).append(m["value"])
    return by_name


def group(runs):
    groups = {}
    for run in runs:
        key = run["workload"] + (".trace" if run["trace"] else "")
        groups.setdefault(key, []).append(run)
    return groups


def summarize(directory):
    spec = bench_spec()
    summary = {}
    for key, runs in sorted(group(load_runs(directory)).items()):
        section = "per_layer" if runs[0]["trace"] else "end_to_end"
        metrics = {}
        for sec in (section, "extra"):
            units = {n: m["unit"] for n, m in runs[0].get(sec, {}).items()}
            for name, values in metric_values(runs, sec).items():
                q1, q2, q3 = quartiles(values)
                metrics[name] = {"unit": units[name], "median": q2, "q1": q1,
                                 "q3": q3, "spread": spread(values)}
        summary[key] = {
            "runs": len(runs),
            "seeds": [r["seed"] for r in runs],
            "correct": all(r["correct"] for r in runs),
            "provenance": runs[0]["provenance"],
            "metrics": metrics,
        }
        if not runs[0]["trace"]:
            print(f"{key}: {len(runs)} runs, correct="
                  f"{summary[key]['correct']}")
            for name in runs[0]["end_to_end"]:
                m = metrics[name]
                bound = spec.get(name, {}).get("bound")
                note = f"  bound {bound}  spread/bound {m['spread'] / bound:.2f}" \
                    if bound else ""
                print(f"  {name:12s} median {m['median']:.6g} {m['unit']:3s}"
                      f" spread {m['spread']:.4f}{note}")
    with open(os.path.join(directory, "summary.json"), "w") as f:
        json.dump(summary, f, indent=1, sort_keys=True)
        f.write("\n")


def verdict(parent, change, better, bound, fails_more):
    """Verdict for one metric from the paired runs of both sides.

    `fails_more`: the change's runs failed more operations than the
    parent's, so a gain does not count."""
    wins = sum(1 for p, c in zip(parent, change)
               if (c < p if better == "lower" else c > p))
    q1, med_p, q3 = quartiles(parent)
    _, med_c, _ = quartiles(change)
    sign = 1 if better == "lower" else -1
    worse_by = sign * (med_c - med_p) / med_p if med_p else 0.0
    all_better = (max(change) < min(parent) if better == "lower"
                  else min(change) > max(parent))
    if worse_by > bound:
        return wins, "regression"
    if (q3 - q1) / med_p > bound and not all_better:
        return wins, "unresolved"
    if wins >= 0.9 * min(len(parent), len(change)) and \
            sign * (med_p - med_c) > q3 - q1:
        return wins, "refused" if fails_more else "gain"
    return wins, "same"


def compare(parent_path, change_path):
    spec = bench_spec()
    parent = group(r for r in load_runs(parent_path) if not r["trace"])
    change = group(r for r in load_runs(change_path) if not r["trace"])
    regressed = False
    incorrect = False
    print(f"{'workload':16s} {'metric':12s} {'parent med [q1,q3]':30s} "
          f"{'change med [q1,q3]':30s} wins  verdict")
    for workload in sorted(set(parent) & set(change)):
        p_runs = sorted(parent[workload], key=lambda r: r["seed"])
        c_runs = sorted(change[workload], key=lambda r: r["seed"])
        pairs = min(len(p_runs), len(c_runs))
        p_failed = sum(r["failed"] for r in p_runs[:pairs])
        c_failed = sum(r["failed"] for r in c_runs[:pairs])
        wrong = [r["seed"] for r in c_runs if not r["correct"]]
        incorrect |= bool(wrong)
        print(f"{workload:16s} failed ops: parent {p_failed}, change "
              f"{c_failed}" + (f"; incorrect change runs, seeds {wrong}"
                               if wrong else ""))
        for name, m in spec.items():
            pv = [r["end_to_end"][name]["value"] for r in p_runs[:pairs]]
            cv = [r["end_to_end"][name]["value"] for r in c_runs[:pairs]]
            wins, result = verdict(pv, cv, m["better"], m["bound"],
                                   c_failed > p_failed)
            regressed |= result == "regression"
            print(f"{workload:16s} {name:12s} {summary_text(pv):30s} "
                  f"{summary_text(cv):30s} {wins:2d}/{pairs}  {result}")
    return 1 if regressed or incorrect else 0


def summary_text(values):
    q1, q2, q3 = quartiles(values)
    return f"{q2:.5g} [{q1:.5g},{q3:.5g}]"


def main(argv):
    if len(argv) == 3 and argv[1] == "summarize":
        summarize(argv[2])
        return 0
    if len(argv) == 4 and argv[1] == "compare":
        return compare(argv[2], argv[3])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
