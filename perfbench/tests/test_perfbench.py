"""Tests of the benchmark itself, on workloads small enough to run in seconds.

    python3 -m pytest -q perfbench/tests
"""
import importlib
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
for path in (os.path.join(ROOT, "src"), BENCH_DIR):
    if path not in sys.path:
        sys.path.insert(0, path)

import bench  # noqa: E402
import compare  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

TINY_SYNTH = dict(n_papers=40, n_authors=20, n_venues=2, n_fields_l1=2, n_fields_l2=3,
                  feature_dim=6, ad_distractors=3)
TINY_MODEL = dict(input_dim=6, hidden_dim=4, num_layers=2, dropout=0.0)


def tiny_sweep():
    sweep = workloads.SweepWorkload()
    sweep.synth, sweep.model, sweep.epochs = TINY_SYNTH, dict(TINY_MODEL), 2
    sweep.model.pop("input_dim")
    return sweep


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setitem(bench.WORKLOADS, "tiny-train", workloads.TrainWorkload(
        "tiny-train", TINY_SYNTH, TINY_MODEL, 3, 2))
    monkeypatch.setitem(bench.WORKLOADS, "tiny-sweep", tiny_sweep())


def _package_state():
    """Every attribute of every duograph module and of the classes the tracer patches."""
    owners = [m for name, m in sorted(sys.modules.items())
              if name == "duograph" or name.startswith("duograph.")]
    from duograph.graph import BiGraph
    from duograph.optim import AdamW
    from duograph.params import ParamSet
    from duograph.tensor import Tape, Tensor
    owners += [BiGraph, AdamW, ParamSet, Tape, Tensor]
    return {(repr(o), attr): value for o in owners for attr, value in vars(o).items()}


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        ("parent", 0.0, 10.0, -1, 0, False),
        ("a", 1.0, 3.0, 0, 0, False),
        ("b", 2.0, 4.0, 0, 0, False),       # overlaps a: [1, 4] counts once
        ("late", 9.0, 12.0, 0, 0, False),   # sticks out: only [9, 10] counts
        ("grandchild", 1.5, 2.5, 1, 0, False),
    ]
    selfs = tracing.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 3.0 - 1.0)
    assert selfs[1] == pytest.approx(2.0 - 1.0)
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[4] == pytest.approx(1.0)


@pytest.mark.parametrize("name", ["tiny-train", "tiny-sweep"])
def test_traced_run_removes_every_wrapper(tiny, tmp_path, name):
    before = _package_state()
    result = bench.run(name, 0, 0.0, True, str(tmp_path))
    after = _package_state()
    assert result["correct"], result["failures"]
    assert set(before) == set(after)
    changed = [key for key in before if before[key] is not after[key]]
    assert changed == []
    metrics = result["metrics"]
    assert metrics["tensor.tape_records"]["value"] > 0
    assert metrics["ops.matmul.calls"]["value"] > 0
    assert os.path.isfile(tmp_path / f"spans-{name}-s0.tsv")


def test_traced_counts_repeat_exactly(tiny, tmp_path):
    first = bench.run("tiny-sweep", 3, 0.0, True, str(tmp_path / "a"))
    second = bench.run("tiny-sweep", 3, 0.0, True, str(tmp_path / "b"))
    assert compare.count_mismatches([first, second]) == []
    assert first["metrics"]["cli.bytes_written"]["value"] > 0


def test_one_seed_gives_byte_identical_inputs(tmp_path):
    digests = [workloads.input_digest(*workloads.setup_generated(
        TINY_SYNTH, TINY_MODEL, 2, seed)[:2]) for seed in (5, 5, 6)]
    assert digests[0] == digests[1] != digests[2]

    cli = importlib.import_module("duograph.cli")
    config = tmp_path / "generate.json"
    config.write_text(json.dumps({"synth": dict(TINY_SYNTH, seed=5)}))
    for out in ("one", "two"):
        assert cli.main(["generate", "--config", str(config), "--out", str(tmp_path / out)]) == 0
    names = sorted(os.listdir(tmp_path / "one"))
    assert names == sorted(os.listdir(tmp_path / "two")) and len(names) == 7
    for fname in names:
        assert (tmp_path / "one" / fname).read_bytes() == (tmp_path / "two" / fname).read_bytes()


def test_failed_ops_counts_an_injected_failing_check(monkeypatch, tmp_path):
    monkeypatch.setitem(bench.WORKLOADS, "tiny-floor", workloads.TrainWorkload(
        "tiny-floor", TINY_SYNTH, TINY_MODEL, 3, 1, acc_floor=1.01))
    result = bench.run("tiny-floor", 0, 0.0, False, str(tmp_path))
    assert not result["correct"]
    assert result["failed"] == result["passes"] >= 2     # one evaluate per pass
    assert all("below 1.01" in f for f in result["failures"])


def test_failed_ops_counts_an_operation_that_raises(tiny, monkeypatch, tmp_path):
    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(workloads.train_mod, "evaluate", broken)
    result = bench.run("tiny-train", 0, 0.0, False, str(tmp_path))
    assert not result["correct"]
    assert result["failed"] == 1
    assert result["attempted"] == 4                   # 2 set-ups, train, the failing evaluate
    assert "RuntimeError: injected" in result["failures"][0]


def test_benchmark_json_names_what_the_runs_print(tiny, tmp_path):
    spec = compare.load_spec()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END.items())
    untraced = bench.run("tiny-train", 0, 0.0, False, str(tmp_path))
    assert list(untraced["metrics"]) == list(bench.END_TO_END)
    traced = bench.run("tiny-train", 0, 0.0, True, str(tmp_path))
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (k, v["unit"]) for k, v in traced["metrics"].items()]


def test_benchmark_json_lists_the_workloads_the_runner_knows():
    spec = compare.load_spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_planted_workload_mirrors_the_acceptance_dataset():
    sys.path.insert(0, os.path.join(ROOT, "tests"))
    try:
        acceptance = importlib.import_module("test_acceptance")
    finally:
        sys.path.remove(os.path.join(ROOT, "tests"))
    frozen = dict(acceptance.ACCEPT_SYNTH)
    frozen.pop("seed")
    assert workloads.PLANTED_SYNTH == frozen
    assert workloads.PLANTED_MODEL == acceptance.ACCEPT_MODEL


def test_paired_rule():
    parent = [100.0 + i for i in range(10)]
    faster = [p - 20.0 for p in parent]
    assert compare.paired_verdict(parent, faster, -1.0, 0.1)["verdict"] == "gain"
    assert compare.paired_verdict(parent, parent, -1.0, 0.1)["verdict"] == "within bound"
    slower = [p * 1.3 for p in parent]
    assert compare.paired_verdict(parent, slower, -1.0, 0.1)["verdict"] == "REGRESSION"
    noisy = [50.0, 150.0] * 5
    assert compare.paired_verdict(noisy, noisy, -1.0, 0.1)["verdict"] == "unresolved"
    # eight wins of ten is not a gain, however large the difference
    mixed = faster[:8] + parent[8:]
    assert compare.paired_verdict(parent, mixed, -1.0, 0.5)["verdict"] != "gain"
