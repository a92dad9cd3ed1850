"""Run one duograph benchmark workload and print its metrics.

    python3 perfbench/run.py --workload planted-train --seed 0 --seconds 36 --trace 0

Run from the root of a checkout; duograph is imported from its `src/`.
With `--trace 0` the last output line is a JSON object holding every
end-to-end metric of BENCHMARK.json; with `--trace 1` it holds every
per-layer metric instead. Lines before it give a readable table and the
environment stamp. The full result, stamp included, is also written to
`.perfbench_out/result-<workload>-s<seed>-t<trace>.json`, and a traced
run writes its spans next to it.
"""
from __future__ import annotations

import argparse
import os
import sys

BLAS_THREADS = 1  # pinned before numpy loads; never above nproc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


def _pin_environment() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(min(BLAS_THREADS, os.cpu_count() or 1))
    # the ablate command's process pool stays off: one process per workload
    os.environ.pop("DHAN_THREADS", None)


def _import_package() -> None:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "duograph", "__init__.py")):
        raise SystemExit(f"error: no duograph sources under {src}; run from a full checkout")
    sys.path.insert(0, src)
    import duograph
    if not os.path.abspath(duograph.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: imported duograph from {duograph.__file__}, not {src}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    _pin_environment()
    _import_package()
    import bench
    if args.workload not in bench.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(bench.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2
    result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), OUT_DIR)
    bench.print_result(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
