"""One benchmark run: repeat a workload's pass for the time given, then
reduce the timed operations to the end-to-end metrics, or, in a traced
run, the spans to the per-layer metrics.

The end-to-end metrics are measured with tracing off. Only a one-line
timestamp at the top of each epoch is installed (see `EpochClock`). A
traced run runs its first pass untraced as the reference for the tracing
overhead, then traces the rest.
"""
from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import sys
from time import perf_counter

import numpy as np

import tracer as tracing
from workloads import (MIN_PASSES, TAIL_MIN_EPOCHS, WARMUP_EPOCHS, WORKLOADS,
                       EpochClock, PassAborted, Session)

# name -> unit; the order and units match `end_to_end` in BENCHMARK.json
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "train_s": "s",
    "epoch_ms": "ms",
    "train_edges_per_s": "edges/s",
    "evaluate_s": "s",
    "peak_rss_mb": "MB",
    "best_val_ndcg": "ndcg",
}


def run(name: str, seed: int, seconds: float, traced: bool, out_dir: str) -> dict:
    workload = WORKLOADS[name]
    workdir = os.path.join(out_dir, "work", f"{name}-s{seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    session = Session(seed, workdir)
    clock = EpochClock(session)
    patcher = tracing.Patcher()
    tracer = tracing.Tracer() if traced else None
    pass_seconds = []
    try:
        clock.install(patcher)
        start = perf_counter()
        while True:
            if tracer is not None and session.pass_no == 1:
                tracer.install()
                session.tracer = tracer
            if tracer is not None:
                tracer.run_id = session.pass_no
            t0 = perf_counter()
            try:
                workload.run_pass(session, clock)
            except PassAborted:
                break
            pass_seconds.append(perf_counter() - t0)
            session.pass_no += 1
            # stop unless the next pass would end within half a pass of the budget
            projected = perf_counter() - start + 0.5 * statistics.median(pass_seconds)
            if session.pass_no >= MIN_PASSES and projected > seconds:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
        patcher.restore()

    complete = len(pass_seconds)
    failures = [f"pass {op.pass_no} {op.name}: {p}" for op in session.ops for p in op.problems]
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
        "correct": not failures and complete >= MIN_PASSES,
        "attempted": len(session.ops),
        "failed": sum(1 for op in session.ops if op.problems),
        "passes": complete,
        "failures": failures,
        "environment": environment(seed),
    }
    if traced:
        layers = tracing.layer_metrics(tracer, complete - 1)
        layers.update(_overhead(session))
        result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        tracing.write_spans(tracer, os.path.join(out_dir, f"spans-{name}-s{seed}.tsv"))
    else:
        result["metrics"], result["extra"] = end_to_end(session, complete)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"result-{name}-s{seed}-t{int(traced)}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return result


def _median(values):
    return statistics.median(values) if values else None


def _epochs(trains) -> list:
    return [s for call in trains for s in call.epoch_seconds[WARMUP_EPOCHS:]]


def end_to_end(session: Session, complete: int):
    """End-to-end metrics over the complete passes, plus the tail figure."""
    passes = range(complete)
    ops = session.ops
    trains = [c for c in session.trains if c.pass_no < complete]
    run_s = [sum(op.seconds for op in ops if op.pass_no == p and not op.repeat)
             for p in passes]
    train_s = [sum(c.seconds for c in trains if c.pass_no == p) for p in passes]
    epochs_by_pass = [_epochs([c for c in trains if c.pass_no == p]) for p in passes]
    work = session.plan_edges * session.layers
    rates = [work * sum(len(c.epoch_seconds) for c in trains if c.pass_no == p) / t
             for p, t in zip(passes, train_s) if t > 0]
    epochs = [s for pass_epochs in epochs_by_pass for s in pass_epochs]
    first = [c.best_val_ndcg for c in trains if c.pass_no == 0]
    values = {
        "setup_s": _median([op.seconds for op in ops if op.name == "setup"]),
        "run_s": _median(run_s),
        "train_s": _median(train_s),
        "epoch_ms": _median(epochs) * 1e3 if epochs else None,
        "train_edges_per_s": _median(rates),
        "evaluate_s": _median([op.seconds for op in ops
                               if op.name in ("evaluate", "cli.eval") and op.pass_no < complete]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "best_val_ndcg": float(np.mean(first)) if first else None,
    }
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}
    # per-pass figures show drift within a run
    extra = {"epoch_samples": len(epochs), "passes": complete,
             "setups": sum(op.name == "setup" for op in ops),
             "pass_run_s": run_s, "pass_train_s": train_s,
             "pass_epoch_ms": [_median(e) * 1e3 for e in epochs_by_pass if e]}
    if len(epochs) >= TAIL_MIN_EPOCHS:
        # the highest percentile with at least ten epochs beyond it
        ordered = sorted(epochs)
        extra["epoch_ms_tail"] = ordered[-11] * 1e3
        extra["epoch_ms_tail_percentile"] = 100.0 * (len(ordered) - 10) / len(ordered)
    return metrics, extra


def _overhead(session: Session) -> dict:
    untraced = _median(_epochs([c for c in session.trains if c.pass_no == 0]))
    traced = _median(_epochs([c for c in session.trains if c.pass_no >= 1]))
    if untraced is None or traced is None:
        untraced = traced = 0.0
    return {"trace.epoch_ms_untraced": (untraced * 1e3, "ms"),
            "trace.epoch_ms_traced": (traced * 1e3, "ms"),
            "trace.overhead_ms": ((traced - untraced) * 1e3, "ms")}


def _read_first(path, prefix) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit(root) -> str:
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    """Where and on what a result was measured."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_text = "unknown"
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return {
        "numpy": np.__version__,
        "blas": blas_text,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu": _read_first("/proc/cpuinfo", "model name"),
        "memory_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "git_commit": _git_commit(root),
        "seed": seed,
    }


def print_result(result: dict) -> None:
    print(f"# {result['workload']} seed {result['seed']} "
          f"{'traced' if result['trace'] else 'untraced'}: {result['passes']} passes, "
          f"{result['attempted']} operations, {result['failed']} failed")
    for name, m in result["metrics"].items():
        value = m["value"]
        text = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<36} {text:>14} {m['unit']}")
    extra = result.get("extra", {})
    if "epoch_ms_tail" in extra:
        print(f"  {'epoch_ms_tail':<36} {extra['epoch_ms_tail']:>14.6g} ms "
              f"(p{extra['epoch_ms_tail_percentile']:.1f} of {extra['epoch_samples']} epochs)")
    elif extra:
        print(f"  {'epoch_ms_tail':<36} {'omitted':>14} "
              f"(only {extra['epoch_samples']} epochs; needs {TAIL_MIN_EPOCHS})")
    print(f"  {'failed_ops':<36} {result['failed']:>14} of {result['attempted']}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    print("# environment " + json.dumps(result["environment"], sort_keys=True))
    sys.stdout.flush()
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
