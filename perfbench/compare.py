"""Repeat benchmark runs, measure their spread, and compare two commits.

    python3 perfbench/compare.py runs --workload planted-train --seeds 0:10 --out DIR
    python3 perfbench/compare.py spread DIR
    python3 perfbench/compare.py pairs --parent CHECKOUT --change CHECKOUT \\
        --workload planted-train --pairs 10 --out DIR
    python3 perfbench/compare.py compare DIR/parent DIR/change

`runs` runs one checkout's benchmark once per seed, one process at a time,
and keeps each result file. `spread` prints, per workload and end-to-end
metric, the interquartile distance as a share of the median next to the
metric's bound, and checks that traced runs of one seed repeat every count
exactly. `pairs` runs a parent and a change checkout on the same seeds,
alternating which side runs first. `compare` applies the paired rule:
a gain needs the change to win at least nine tenths of the pairs and the
medians to differ by more than the parent's interquartile distance; a
regression is a median worse than the parent's by more than the bound;
a metric whose spread exceeds its bound is unresolved.
"""
from __future__ import annotations

import argparse
import glob
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC_PATH = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
RUN_TIMEOUT_S = 900
# Per-layer figures that are counts: a traced run of one seed must repeat them exactly.
COUNT_UNITS = ("count/epoch", "count/pass", "B-comp/epoch", "B/pass", "ratio")


def load_spec(path=SPEC_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _seeds(text: str) -> list:
    lo, _, hi = text.partition(":")
    return list(range(int(lo), int(hi))) if hi else [int(lo)]


def run_once(checkout: str, workload: str, seed: int, seconds: float, trace: int,
             dest: str) -> dict:
    """Run one benchmark process in `checkout` and copy its result file to `dest`."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    name = f"result-{workload}-s{seed}-t{trace}.json"
    os.makedirs(dest, exist_ok=True)
    target = os.path.join(dest, name)
    shutil.copyfile(os.path.join(checkout, ".perfbench_out", name), target)
    with open(target, encoding="utf-8") as fh:
        return json.load(fh)


def load_results(directory: str, trace: int | None = None) -> list:
    out = []
    for path in sorted(glob.glob(os.path.join(directory, "result-*.json"))):
        with open(path, encoding="utf-8") as fh:
            result = json.load(fh)
        if trace is None or result["trace"] == trace:
            out.append(result)
    return out


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread_rows(results: list, spec: dict) -> list:
    """(workload, metric, n, median, spread, bound) for every end-to-end metric."""
    rows = []
    for workload in sorted({r["workload"] for r in results}):
        mine = [r for r in results if r["workload"] == workload]
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in mine]
            values = [v for v in values if v is not None]
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            rows.append((workload, metric["name"], len(values), med,
                         (q3 - q1) / abs(med) if med else math.inf, metric["bound"]))
    return rows


def count_mismatches(results: list) -> list:
    """Count figures that differ between traced runs of one workload and seed."""
    problems = []
    groups: dict = {}
    for r in results:
        groups.setdefault((r["workload"], r["seed"]), []).append(r)
    for (workload, seed), runs in sorted(groups.items()):
        first = runs[0]["metrics"]
        for other in runs[1:]:
            for name, m in first.items():
                if m["unit"] in COUNT_UNITS and other["metrics"][name]["value"] != m["value"]:
                    problems.append(f"{workload} seed {seed}: {name} "
                                    f"{m['value']} != {other['metrics'][name]['value']}")
    return problems


def cmd_runs(args) -> int:
    for workload in args.workload:
        for seed in _seeds(args.seeds):
            for rep in range(args.repeat):
                dest = os.path.join(args.out, f"rep{rep}") if args.repeat > 1 else args.out
                result = run_once(args.checkout, workload, seed, args.seconds, args.trace, dest)
                print(f"{workload} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}", flush=True)
    return 0


def cmd_spread(args) -> int:
    spec = load_spec()
    results = [r for d in args.dirs for r in load_results(d)]
    status = 0
    print(f"{'workload':<15} {'metric':<20} {'n':>3} {'median':>14} {'spread':>8} "
          f"{'bound':>6}  verdict")
    for workload, name, n, med, spread, bound in spread_rows(
            [r for r in results if r["trace"] == 0], spec):
        verdict = "steady" if spread < bound / 3 else "within bound" if spread <= bound \
            else "TOO WIDE"
        if spread > bound and name != "setup_s":
            status = 1
        print(f"{workload:<15} {name:<20} {n:>3} {med:>14.6g} {spread:>8.4f} {bound:>6.3f}  "
              f"{verdict}")
    failed = [(r["workload"], r["seed"], r["failed"]) for r in results if r["failed"]]
    for workload, seed, count in failed:
        print(f"FAILED OPERATIONS: {workload} seed {seed}: {count}")
        status = 1
    mismatches = count_mismatches([r for r in results if r["trace"] == 1])
    for line in mismatches:
        print(f"COUNT DIFFERS: {line}")
    traced = [r for r in results if r["trace"] == 1]
    if traced:
        print(f"traced runs: {len(traced)}, count mismatches: {len(mismatches)}")
    return 1 if mismatches else status


def compare_rows(parent: list, change: list, spec: dict) -> list:
    """One verdict per workload and end-to-end metric under the paired rule."""
    rows = []
    for workload in sorted({r["workload"] for r in parent}):
        p_runs = {r["seed"]: r for r in parent if r["workload"] == workload}
        c_runs = {r["seed"]: r for r in change if r["workload"] == workload}
        seeds = sorted(set(p_runs) & set(c_runs))
        if not seeds:
            continue
        p_failed = sum(p_runs[s]["failed"] for s in seeds)
        c_failed = sum(c_runs[s]["failed"] for s in seeds)
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = 1.0 if metric["better"] == "higher" else -1.0
            pv = [p_runs[s]["metrics"][name]["value"] for s in seeds]
            cv = [c_runs[s]["metrics"][name]["value"] for s in seeds]
            rows.append(dict(workload=workload, metric=name, pairs=len(seeds),
                             **paired_verdict(pv, cv, sign, bound, c_failed > p_failed)))
    return rows


def paired_verdict(pv: list, cv: list, sign: float, bound: float,
                   more_failures: bool = False) -> dict:
    """Paired rule for one metric; `sign` is +1 when higher is better."""
    wins = sum(1 for p, c in zip(pv, cv) if sign * (c - p) > 0)
    p1, pm, p3 = quartiles(pv)
    c1, cm, c3 = quartiles(cv)
    worse_by = -sign * (cm - pm) / abs(pm) if pm else 0.0
    spread = max((p3 - p1) / abs(pm) if pm else 0.0, (c3 - c1) / abs(cm) if cm else 0.0)
    all_better = all(sign * (c - p) > 0 for c in cv for p in pv)
    if (wins >= math.ceil(0.9 * len(pv)) and sign * (cm - pm) > 0
            and abs(cm - pm) > (p3 - p1) and not more_failures):
        verdict = "gain"
    elif spread > bound and not all_better:
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "REGRESSION"
    else:
        verdict = "within bound"
    return dict(parent=(p1, pm, p3), change=(c1, cm, c3), wins=wins,
                worse_by=worse_by, spread=spread, verdict=verdict)


def cmd_compare(args) -> int:
    spec = load_spec()
    rows = compare_rows(load_results(args.parent, 0), load_results(args.change, 0), spec)
    print(f"{'workload':<15} {'metric':<20} {'pairs':>5} {'parent median [q1,q3]':>32} "
          f"{'change median [q1,q3]':>32} {'wins':>5} {'worse by':>9}  verdict")
    for r in rows:
        p, c = r["parent"], r["change"]
        print(f"{r['workload']:<15} {r['metric']:<20} {r['pairs']:>5} "
              f"{p[1]:>12.6g} [{p[0]:.4g},{p[2]:.4g}] {c[1]:>12.6g} [{c[0]:.4g},{c[2]:.4g}] "
              f"{r['wins']:>5} {r['worse_by']:>9.4f}  {r['verdict']}")
    return 1 if any(r["verdict"] == "REGRESSION" for r in rows) else 0


def cmd_pairs(args) -> int:
    sides = {"parent": args.parent, "change": args.change}
    for i in range(args.pairs):
        seed = args.seed0 + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(sides[side], args.workload, seed, args.seconds, 0,
                              os.path.join(args.out, side))
            print(f"pair {i} {side} seed {seed}: correct={result['correct']}", flush=True)
    return cmd_compare(argparse.Namespace(parent=os.path.join(args.out, "parent"),
                                          change=os.path.join(args.out, "change")))


def main(argv=None) -> int:
    spec_seconds = load_spec()["run_seconds"] if os.path.isfile(SPEC_PATH) else 36
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("runs")
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--seeds", default="0:10", help="A:B for seeds A..B-1, or one seed")
    p.add_argument("--repeat", type=int, default=1, help="runs per seed")
    p.add_argument("--seconds", type=float, default=spec_seconds)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--checkout", default=os.path.dirname(HERE))
    p.add_argument("--out", required=True)
    p = sub.add_parser("spread")
    p.add_argument("dirs", nargs="+")
    p = sub.add_parser("pairs")
    p.add_argument("--parent", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed0", type=int, default=100)
    p.add_argument("--seconds", type=float, default=spec_seconds)
    p.add_argument("--out", required=True)
    p = sub.add_parser("compare")
    p.add_argument("parent")
    p.add_argument("change")
    args = parser.parse_args(argv)
    handler = {"runs": cmd_runs, "spread": cmd_spread, "pairs": cmd_pairs,
               "compare": cmd_compare}[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
