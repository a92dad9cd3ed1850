"""Spans and counts around the public functions of every duograph module.

The tracer is installed only for the traced passes of a `--trace 1` run.
It replaces each public function where its callers look it up (a name
imported with `from .x import f` is patched in the importing module too),
wraps the methods on their classes, and reaches backward closures through
`Tape.record`. Spans live in memory as tuples and are written out once,
after the run. `Patcher.restore` puts every original object back.
"""
from __future__ import annotations

import contextlib
import functools
import os
import sys
import weakref
from collections import Counter
from time import perf_counter

import numpy as np

# The ops the per-layer report names one by one; every other public op is
# summed into `ops.other`.
NAMED_OPS = ("gather_rows", "scatter_rows", "concat_cols", "matmul", "segment_softmax",
             "weighted_sum_rows", "layer_norm", "leaky_relu", "masked_softmax_rows",
             "slice_cols", "mul", "add")

# (module, function, span name); the span name doubles as the metric stem.
FUNCTIONS = (
    ("duograph.tensor", "backward", "tensor.backward"),
    ("duograph.tensor", "save_tensors", "tensor.save_tensors"),  # also counts bytes
    ("duograph.tensor", "load_tensors", "tensor.load_tensors"),
    ("duograph.graph", "load_graph_tsv", "graph.load_graph_tsv"),
    ("duograph.graph", "save_graph_tsv", "graph.save_graph_tsv"),
    ("duograph.synth", "generate", "synth.generate"),
    ("duograph.synth", "export_dataset", "synth.export_dataset"),
    ("duograph.synth", "import_dataset", "synth.import_dataset"),
    ("duograph.params", "build_params", "params.build_params"),
    ("duograph.intra", "node_aggregate", "intra.node_aggregate"),
    ("duograph.intra", "attend_over_plan", "intra.attend_over_plan"),
    ("duograph.intra", "relation_fuse", "intra.relation_fuse"),
    ("duograph.inter", "node_aggregate", "inter.node_aggregate"),
    ("duograph.inter", "weighted_residual", "inter.weighted_residual"),
    ("duograph.model", "task_loss", "model.task_loss"),
    ("duograph.model", "ranking_scores", "model.ranking_scores"),
    ("duograph.model", "classification_scores", "model.classification_scores"),
    ("duograph.train", "train", "train.train"),
    ("duograph.metrics", "ndcg", "metrics.ndcg"),
    ("duograph.metrics", "mrr", "metrics.mrr"),
    ("duograph.metrics", "cluster_eval", "metrics.cluster_eval"),
    ("duograph.metrics", "kmeans", "metrics.kmeans"),
)

# (module, class, method, span name)
METHODS = (
    ("duograph.params", "ParamSet", "snapshot", "params.snapshot"),
    ("duograph.optim", "AdamW", "step", "optim.step"),
)

CLI_COMMANDS = ("generate", "ablate", "train", "eval", "export-attn", "export-emb")

TRAIN_SPAN = "train.train"
EPOCH_SPAN = "optim.step"  # one optimizer step per epoch


class Patcher:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "duograph" or name.startswith("duograph."))]


def _array_bytes(values) -> int:
    """Bytes of the tensors and index arrays among `values`."""
    from duograph.tensor import Tensor
    return sum(v.data.nbytes if isinstance(v, Tensor) else v.nbytes
               for v in values if isinstance(v, (Tensor, np.ndarray)))


class Tracer:
    """Span and count recorder for one traced stretch of a run.

    A span is (name, start, end, parent index, run id, inside training).
    `counts_epoch` holds counts made inside a `train` call, `counts_pass`
    counts made anywhere.
    """

    def __init__(self):
        self.spans: list = []
        self.counts_epoch: Counter = Counter()
        self.counts_pass: Counter = Counter()
        self.run_id = 0
        self._stack: list[int] = []
        self._names: list[str] = []
        self._train_depth = 0
        self._plan_keys: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._patcher = Patcher()

    # span bookkeeping

    def _open(self, name: str) -> tuple[int, float]:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent, self.run_id, self._train_depth > 0))
        self._stack.append(idx)
        self._names.append(name)
        if name == TRAIN_SPAN:
            self._train_depth += 1
        return idx, perf_counter()

    def _close(self, idx: int, start: float) -> None:
        end = perf_counter()
        name, _, _, parent, run, in_train = self.spans[idx]
        self.spans[idx] = (name, start, end, parent, run, in_train)
        self._stack.pop()
        self._names.pop()
        if name == TRAIN_SPAN:
            self._train_depth -= 1

    def count(self, key: str, amount=1) -> None:
        self.counts_pass[key] += amount
        if self._train_depth > 0:
            self.counts_epoch[key] += amount

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        idx, start = self._open(name)
        try:
            yield
        finally:
            self._close(idx, start)

    def wrap(self, fn, name, after=None):
        """`fn` inside a span; `name` is a string or a function of the arguments."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            idx, start = tracer._open(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx, start)
            if after is not None:
                after(label, args, result)
            return result

        return traced

    # installation

    def install(self) -> None:
        import duograph.ops as ops
        from duograph.graph import BiGraph
        from duograph.tensor import Tape, Tensor

        replacements = {}

        def replace(fn, name, after=None):
            replacements[id(fn)] = (fn, self.wrap(fn, name, after))

        for modname, attr, label in FUNCTIONS:
            after = self._after_save if label == "tensor.save_tensors" else None
            replace(getattr(sys.modules[modname], attr), label, after)
        replace(sys.modules["duograph.model"].forward, _forward_label)
        for attr in _public_ops(ops):
            replace(getattr(ops, attr), f"ops.{attr}", self._after_op)
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patcher.set(module, attr, hit[1])

        for modname, clsname, attr, label in METHODS:
            cls = getattr(sys.modules[modname], clsname)
            self._patcher.set(cls, attr, self.wrap(getattr(cls, attr), label))
        self._patcher.set(BiGraph, "message_plan", self._wrap_message_plan(BiGraph.message_plan))
        self._patcher.set(Tape, "record", self._wrap_record(Tape.record))
        self._patcher.set(Tensor, "accumulate_grad", self._wrap_accumulate(Tensor.accumulate_grad))

    def uninstall(self) -> None:
        self._patcher.restore()

    # special wrappers

    def _after_op(self, label, args, result) -> None:
        if label[4:] in NAMED_OPS:
            self.count(f"{label}.bytes", _array_bytes(args) + _array_bytes((result,)))

    def _after_save(self, label, args, result) -> None:
        self.count("tensor.checkpoint_bytes", os.path.getsize(args[0]))

    def _wrap_accumulate(self, accumulate_grad):
        tracer = self

        @functools.wraps(accumulate_grad)
        def counted(tensor, g):
            tracer.count("tensor.accumulate_grad_calls")
            return accumulate_grad(tensor, g)

        return counted

    def _wrap_record(self, record):
        tracer = self

        @functools.wraps(record)
        def traced_record(tape, out, inputs, backward_fn):
            tracer.count("tensor.tape_records")
            label = (tracer._names[-1] if tracer._names else "ops.unknown") + ".bwd"

            def timed_backward(g):
                idx, start = tracer._open(label)
                try:
                    return backward_fn(g)
                finally:
                    tracer._close(idx, start)

            return record(tape, out, inputs, timed_backward)

        return traced_record

    def _wrap_message_plan(self, message_plan):
        """Plan lookups; the first lookup of a key on a graph is the build."""
        tracer = self

        @functools.wraps(message_plan)
        def traced_plan(graph, name, target_type):
            keys = tracer._plan_keys.setdefault(graph, set())
            hit = (name, target_type) in keys
            idx, start = tracer._open("graph.message_plan")
            try:
                plan = message_plan(graph, name, target_type)
            finally:
                tracer._close(idx, start)
            tracer.count("graph.message_plan_calls")
            if hit:
                tracer.count("graph.plan_cache_hits")
            else:
                keys.add((name, target_type))
                tracer.count("graph.plan_build_s", perf_counter() - start)
                tracer.count("graph.plan_edges", plan.n_edges)
            return plan

        return traced_plan


def _forward_label(args, kwargs) -> str:
    return "model.forward_train" if kwargs.get("training") else "model.forward_eval"


def _public_ops(ops) -> list[str]:
    return sorted(name for name, value in vars(ops).items()
                  if callable(value) and not name.startswith("_") and name != "constant"
                  and getattr(value, "__module__", None) == ops.__name__
                  and not isinstance(value, type))


# arithmetic over spans

def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children may overlap one another or stick out of their parent; only
    the union of their intervals, clipped to the parent, is subtracted.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        parent = span[3]
        if parent >= 0:
            children.setdefault(parent, []).append((span[1], span[2]))
    out = []
    for idx, span in enumerate(spans):
        start, end = span[1], span[2]
        covered, cursor = 0.0, start
        for c0, c1 in sorted(children.get(idx, ())):
            c0, c1 = max(c0, cursor), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                cursor = c1
        out.append((end - start) - covered)
    return out


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-layer figures from a finished trace, as {name: (value, unit)}.

    Figures scoped "epoch" cover only work inside `train` calls and are
    divided by the traced epochs; figures scoped "pass" cover the whole
    traced passes and are divided by their number. Byte figures are
    computed from array shapes, not measured.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    ms_epoch, ms_pass, calls_epoch, calls_pass = Counter(), Counter(), Counter(), Counter()
    train_self = 0.0
    for span, own in zip(spans, selfs):
        name, start, end, _, _, in_train = span
        ms_pass[name] += (end - start) * 1e3
        calls_pass[name] += 1
        if in_train:
            ms_epoch[name] += (end - start) * 1e3
            calls_epoch[name] += 1
        if name == TRAIN_SPAN:
            train_self += own * 1e3
    epochs = max(calls_epoch[EPOCH_SPAN], 1)
    passes = max(passes, 1)
    ce, cp = tracer.counts_epoch, tracer.counts_pass
    out = {}

    def put(name, value, unit):
        out[name] = (float(value), unit)

    other_fwd = sum(v for k, v in ms_epoch.items()
                    if k.startswith("ops.") and not k.endswith(".bwd") and k[4:] not in NAMED_OPS)
    other_bwd = sum(v for k, v in ms_epoch.items()
                    if k.startswith("ops.") and k.endswith(".bwd") and k[4:-4] not in NAMED_OPS)
    for op in NAMED_OPS:
        put(f"ops.{op}.fwd_ms", ms_epoch[f"ops.{op}"] / epochs, "ms/epoch")
        put(f"ops.{op}.bwd_ms", ms_epoch[f"ops.{op}.bwd"] / epochs, "ms/epoch")
        put(f"ops.{op}.calls", calls_epoch[f"ops.{op}"] / epochs, "count/epoch")
        put(f"ops.{op}.bytes", ce[f"ops.{op}.bytes"] / epochs, "B-comp/epoch")
    put("ops.other.fwd_ms", other_fwd / epochs, "ms/epoch")
    put("ops.other.bwd_ms", other_bwd / epochs, "ms/epoch")

    put("tensor.backward_ms", ms_epoch["tensor.backward"] / epochs, "ms/epoch")
    put("tensor.tape_records", ce["tensor.tape_records"] / epochs, "count/epoch")
    put("tensor.accumulate_grad_calls", ce["tensor.accumulate_grad_calls"] / epochs, "count/epoch")
    put("tensor.save_tensors_ms", ms_pass["tensor.save_tensors"] / passes, "ms/pass")
    put("tensor.load_tensors_ms", ms_pass["tensor.load_tensors"] / passes, "ms/pass")
    put("tensor.checkpoint_bytes", cp["tensor.checkpoint_bytes"] / passes, "B/pass")

    plan_calls = cp["graph.message_plan_calls"]
    put("graph.message_plan_calls", plan_calls / passes, "count/pass")
    put("graph.plan_cache_hit_ratio",
        cp["graph.plan_cache_hits"] / plan_calls if plan_calls else 0.0, "ratio")
    put("graph.plan_build_ms", cp["graph.plan_build_s"] * 1e3 / passes, "ms/pass")
    put("graph.plan_edges", cp["graph.plan_edges"] / passes, "count/pass")
    put("graph.load_graph_tsv_ms", ms_pass["graph.load_graph_tsv"] / passes, "ms/pass")
    put("graph.save_graph_tsv_ms", ms_pass["graph.save_graph_tsv"] / passes, "ms/pass")

    for fn in ("generate", "export_dataset", "import_dataset"):
        put(f"synth.{fn}_ms", ms_pass[f"synth.{fn}"] / passes, "ms/pass")

    put("params.build_params_ms", ms_pass["params.build_params"] / passes, "ms/pass")
    put("params.snapshot_calls", calls_pass["params.snapshot"] / passes, "count/pass")
    put("params.snapshot_ms", ms_pass["params.snapshot"] / passes, "ms/pass")

    for name in ("intra.node_aggregate", "intra.attend_over_plan", "intra.relation_fuse",
                 "inter.node_aggregate", "inter.weighted_residual", "model.forward_train",
                 "model.forward_eval", "model.task_loss", "model.ranking_scores",
                 "model.classification_scores", "optim.step"):
        put(f"{name}_ms", ms_epoch[name] / epochs, "ms/epoch")
    put("train.self_ms", train_self / epochs, "ms/epoch")

    put("metrics.ndcg_calls", calls_pass["metrics.ndcg"] / passes, "count/pass")
    put("metrics.ndcg_ms", ms_pass["metrics.ndcg"] / passes, "ms/pass")
    put("metrics.mrr_ms", ms_pass["metrics.mrr"] / passes, "ms/pass")
    put("metrics.cluster_eval_ms", ms_pass["metrics.cluster_eval"] / passes, "ms/pass")
    put("metrics.kmeans_calls", calls_pass["metrics.kmeans"] / passes, "count/pass")

    for cmd in CLI_COMMANDS:
        put(f"cli.{cmd}_s", ms_pass[f"cli.{cmd}"] / 1e3 / passes, "s/pass")
    put("cli.bytes_written", cp["cli.bytes_written"] / passes, "B/pass")
    return out


def write_spans(tracer: Tracer, path) -> None:
    """One tab-separated line per span: index, parent, run, in_train, name, start, end."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index\tparent\trun\tin_train\tname\tstart_s\tend_s\n")
        for idx, (name, start, end, parent, run, in_train) in enumerate(tracer.spans):
            fh.write(f"{idx}\t{parent}\t{run}\t{int(in_train)}\t{name}\t{start:.9f}\t{end:.9f}\n")
