"""The package names that perfbench's tracer patches and its workloads read.

`perfbench/tracer.py` looks every traced function and method up by name
when it installs, and `perfbench/workloads.py` reads a few graph
attributes. A change that deletes or renames one of them fails here
instead of breaking `perfbench/run.py --trace 1`; a change that stops
calling one fails the reach test, instead of its per-layer metric reading
0. The test only reads `perfbench/`.
"""
import importlib
import importlib.util
import inspect
import json
import os
import sys

import pytest

from duograph import cli, model
from duograph.graph import BiGraph
from duograph.params import build_params
from duograph.rand import rng_for
from duograph.synth import SynthConfig, generate
from duograph.tensor import Tape, Tensor, backward
from duograph.train import _total_loss

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(ROOT, "perfbench", "tracer.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _load_tracer()

# nothing in the package calls these: `cluster_eval` runs `kmeans_lockstep`,
# and the reports compute MRR with `mrr_rows`
UNREACHED = {"metrics.kmeans", "metrics.mrr"}


@pytest.mark.parametrize("module, attr, label", TRACER.FUNCTIONS)
def test_traced_function_resolves(module, attr, label):
    assert callable(getattr(importlib.import_module(module), attr, None)), label


@pytest.mark.parametrize("module, cls, attr, label", TRACER.METHODS)
def test_traced_method_resolves(module, cls, attr, label):
    owner = getattr(importlib.import_module(module), cls, None)
    assert callable(getattr(owner, attr, None)), label


@pytest.mark.parametrize("owner, attr, arity", [
    (BiGraph, "message_plan", 3),   # traced_plan(graph, name, target_type)
    (Tape, "record", 4),            # traced_record(tape, out, inputs, backward_fn)
    (Tensor, "accumulate_grad", 2),  # counted(tensor, g)
    (model, "forward", None),
])
def test_wrapped_hook_keeps_its_signature(owner, attr, arity):
    fn = getattr(owner, attr, None)
    assert callable(fn)
    if arity is not None:
        assert len(inspect.signature(fn).parameters) == arity


def test_install_then_uninstall_restores_every_name():
    modules = {name: dict(vars(m)) for name, m in sys.modules.items()
               if name == "duograph" or name.startswith("duograph.")}
    hooks = [(BiGraph, "message_plan"), (Tape, "record"), (Tensor, "accumulate_grad")]
    before = [vars(owner)[attr] for owner, attr in hooks]
    tracer = TRACER.Tracer()
    try:
        tracer.install()
        assert vars(BiGraph)["message_plan"] is not before[0]
    finally:
        tracer.uninstall()
    assert [vars(owner)[attr] for owner, attr in hooks] == before
    for name, saved in modules.items():
        current = vars(sys.modules[name])
        assert all(current[attr] is value for attr, value in saved.items()), name


def test_workload_reads_resolve(tiny_graph):
    for name in tiny_graph.relation_names():
        adj = tiny_graph.csr(name)
        assert adj.offsets.size == adj.n_rows + 1 and adj.cols.size == adj.offsets[-1]
        spec = tiny_graph.spec(name)
        for target in {spec.src_type, spec.dst_type}:
            assert tiny_graph.message_plan(name, target).n_edges >= 0


def test_traced_tape_keeps_parameter_gradients():
    # `--trace 1` hands every record a timing closure through the tracer's
    # `Tape.record` wrapper and counts `accumulate_grad` calls; the
    # parameter gradients must come out byte for byte as without it
    graph, tasks = generate(SynthConfig(n_papers=30, n_authors=15, n_venues=2, n_fields_l1=2,
                                        n_fields_l2=2, feature_dim=4, seed=3))
    config = model.ModelConfig(input_dim=4, hidden_dim=4, num_layers=2, dropout=0.2, seed=3)

    def gradients():
        ps = build_params(graph, config, tasks)
        with Tape() as tape:
            embs, _ = model.forward(graph, config, ps, training=True, rng=rng_for(3, "dropout"))
            loss = _total_loss(tasks, embs, ps, config, "train", neg_rng=rng_for(3, "neg"))
        backward(tape, loss)
        return {name: t.grad.tobytes() for name, t in ps.named}

    want = gradients()
    tracer = TRACER.Tracer()
    try:
        tracer.install()
        got = gradients()
    finally:
        tracer.uninstall()
    counts = tracer.counts_pass
    assert got == want
    assert any(g != bytes(len(g)) for g in got.values())
    # only leaves go through accumulate_grad, fewer than there are records
    assert 0 < counts["tensor.accumulate_grad_calls"] < counts["tensor.tape_records"]


def test_every_traced_name_is_reached(tmp_path, monkeypatch):
    # one small CLI pass, from generate through both exports, must open a
    # span under every traced label
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "data": "data", "synth": {"n_papers": 40, "n_authors": 20, "seed": 0},
        "model": {"hidden_dim": 4, "num_layers": 2, "epochs": 2, "seed": 0}}))
    tracer = TRACER.Tracer()
    try:
        tracer.install()
        for command, out in (("generate", "data"), ("train", "run"), ("eval", "run"),
                             ("export-attn", "run"), ("export-emb", "run")):
            assert cli.main([command, "--config", str(config), "--out", out]) == 0, command
    finally:
        tracer.uninstall()
    labels = {entry[-1] for entry in TRACER.FUNCTIONS + TRACER.METHODS}
    missing = labels - {span[0] for span in tracer.spans}
    assert UNREACHED <= labels
    assert missing <= UNREACHED, sorted(missing - UNREACHED)
