"""Print the SHA-256 of every artifact the duograph CLI writes at a tiny size.

Runs `generate`, then `train`, `eval`, `export-attn` and `export-emb` on
the generated dataset for every variant and ordering, and, for every
ordering, once more with `extra_inter_residual` and once with
`literal_temperature` at temperature 2.0 (two paths that read the stage
row), then `ablate` once, in a temporary directory. It also runs
`generate` for the acceptance gate's dataset (`ACCEPT_SYNTH` in
tests/test_acceptance.py, 600 / 300) and for 3000 / 1500 papers and
authors, both at seed 0, so the bytes of the gate's data and of a
scale-sized dataset are pinned too. On that
dataset it runs one epoch of `train`, then `export-attn` and `export-emb`,
at d=64, where the edge reduction splits its degree groups into several
pieces and the embedding table is at its widest. It prints
one `<sha256>  <artifact>` line per file. Two source trees that print
the same lines write the same bytes:

    python scripts/artifact_digest.py --src src > after.txt
    python scripts/artifact_digest.py --src ../parent/src > before.txt
    diff before.txt after.txt

Some bytes depend on the BLAS thread count, so the script sets
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS to 1 before
numpy loads, unless the environment already sets them: two trees digested
in different shells compare under one thread, and an explicit
`OPENBLAS_NUM_THREADS=2 python scripts/artifact_digest.py ...` still
digests under two.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

for _threads in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_threads, "1")  # before duograph imports numpy

SYNTH = {"n_papers": 40, "n_authors": 20, "n_venues": 2, "n_fields_l1": 2, "n_fields_l2": 3,
         "feature_dim": 6, "name_group_size": 3, "ad_distractors": 3, "seed": 5}
MODEL = {"hidden_dim": 6, "num_layers": 2, "epochs": 3, "seed": 5}
SCALE_SYNTH = {"n_papers": 3000, "n_authors": 1500, "seed": 0}
SCALE_MODEL = {"hidden_dim": 64, "num_layers": 2, "epochs": 1, "seed": 5}
TESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tests")


def _digests(directory: str) -> list[str]:
    lines = []
    for root, _, files in sorted(os.walk(directory)):
        for name in sorted(files):
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                lines.append(f"{hashlib.sha256(fh.read()).hexdigest()}  {path}")
    return lines


def _write_config(path: str, payload: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory that holds the duograph package")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    from duograph.cli import main as cli
    from duograph.model import ORDERINGS, VARIANTS
    sys.path.insert(1, os.path.abspath(TESTS))
    from test_acceptance import ACCEPT_SYNTH

    def run(*cli_args):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli(list(cli_args))
        if code != 0:
            raise SystemExit(f"duograph {' '.join(cli_args)} exited with {code}")

    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # artifacts name the dataset by this relative path
        run("generate", "--config", _write_config("synth.json", {"synth": SYNTH}),
            "--out", "data")
        runs = []

        def pipeline(name, model, *flags):
            config = _write_config(f"{name}.json", {"data": "data", "model": model})
            out = os.path.join("runs", name)
            for command in ("train", "eval", "export-attn", "export-emb"):
                run(command, "--config", config, "--out", out, *flags)
            runs.append(out)

        for variant in VARIANTS:
            for ordering in ORDERINGS:
                pipeline(f"{variant}-{ordering}", MODEL,
                         "--variant", variant, "--ordering", ordering)
        for ordering in ORDERINGS:
            pipeline(f"extra-residual-{ordering}", dict(MODEL, extra_inter_residual=True),
                     "--ordering", ordering)
            pipeline(f"literal-temperature-{ordering}",
                     dict(MODEL, literal_temperature=True, temperature=2.0),
                     "--ordering", ordering)
        run("ablate", "--config", _write_config(
            "ablate.json", {"synth": SYNTH, "model": MODEL, "seeds": [0, 1]}), "--out", "ablate")
        for name, synth in (("accept", ACCEPT_SYNTH), ("scale", SCALE_SYNTH)):
            run("generate", "--config", _write_config(f"{name}.json", {"synth": synth}),
                "--out", f"{name}-data")
        scale = _write_config("scale-model.json", {"data": "scale-data", "model": SCALE_MODEL})
        for command in ("train", "export-attn", "export-emb"):
            run(command, "--config", scale, "--out", os.path.join("runs", "scale-d64"))
        for directory in ("data", *runs, "ablate", "accept-data", "scale-data",
                          os.path.join("runs", "scale-d64")):
            print("\n".join(_digests(directory)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
