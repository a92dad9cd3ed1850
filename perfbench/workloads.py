"""The benchmark's workloads, the checks on their outputs, and the timing
of their operations.

A run repeats one workload's *pass* (set-up, training, evaluation, or the
CLI pipeline) on one seed. Every timed call is an operation; it fails when
it raises or when its output check finds a problem, and each failure is
counted. Because every pass uses the same seed, later passes must repeat
the first pass's inputs, training logs, selected parameters and artifacts
byte for byte.
"""
from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from duograph import ModelConfig, SynthConfig

# Modules, not names: calls go through module attributes, so a traced run's
# wrappers are seen. (`duograph.train` the attribute is the train function.)
cli_mod = importlib.import_module("duograph.cli")
model_mod = importlib.import_module("duograph.model")
params_mod = importlib.import_module("duograph.params")
synth_mod = importlib.import_module("duograph.synth")
train_mod = importlib.import_module("duograph.train")

# The frozen acceptance dataset: the knobs of ACCEPT_SYNTH and ACCEPT_MODEL
# in tests/test_acceptance.py, with the seed left to the workload.
PLANTED_SYNTH = dict(noise=2.0, venue_scale=2.0, field_scale=0.5, p_same_field=0.15,
                     p_cite_within_field=0.0, max_cites=3, train_year_max=5, val_year_max=7)
PLANTED_MODEL = dict(input_dim=16, hidden_dim=16, num_layers=2, dropout=0.0, lr_max=5e-3)
PLANTED_EPOCHS = 40
# The seed code's test venue accuracy after PLANTED_EPOCHS is 0.90 to 1.0 over
# seeds 0-19 (4 venues, so chance is 0.25); the floor leaves room for other seeds.
PLANTED_ACC_FLOOR = 0.80

SCALE_SYNTH = dict(n_papers=3000, n_authors=1500)
SCALE_MODEL = dict(input_dim=16, hidden_dim=64, num_layers=2)
SCALE_EPOCHS = 2

SWEEP_SYNTH = dict(n_papers=1200, n_authors=600)
SWEEP_MODEL = dict(hidden_dim=32, num_layers=2)
SWEEP_EPOCHS = 3

WARMUP_EPOCHS = 1   # leading epochs of every train call left out of epoch_ms
MIN_PASSES = 2      # the second pass checks that the first one repeats
TAIL_MIN_EPOCHS = 100


class PassAborted(Exception):
    """An operation raised; the rest of the pass cannot run."""


@dataclass
class Op:
    pass_no: int
    name: str
    seconds: float
    problems: list
    repeat: bool = False   # an extra sample of a short operation; not part of run_s


@dataclass
class TrainCall:
    pass_no: int
    seconds: float
    epoch_seconds: list
    best_val_ndcg: float


@dataclass
class Session:
    """Timed operations of one run, its train calls, and the first pass's digests."""

    seed: int
    workdir: str
    tracer: object = None
    pass_no: int = 0
    ops: list = field(default_factory=list)
    trains: list = field(default_factory=list)
    first: dict = field(default_factory=dict)
    plan_edges: int = 0
    layers: int = 0

    def timed(self, name: str, fn, check=None, repeat=False):
        """Run one operation; record its time and any problem its check finds."""
        span = self.tracer.span(name) if self.tracer is not None else contextlib.nullcontext()
        start = perf_counter()
        try:
            with span:
                result = fn()
        except Exception as exc:
            self.ops.append(Op(self.pass_no, name, perf_counter() - start,
                               [f"{type(exc).__name__}: {exc}"], repeat))
            raise PassAborted(name) from exc
        seconds = perf_counter() - start
        try:
            problems = check(result) if check is not None else []
        except Exception as exc:   # a malformed output the check did not foresee
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        self.ops.append(Op(self.pass_no, name, seconds, problems, repeat))
        return result

    def same_as_first(self, key: str, digest: str) -> list:
        """Problems if `digest` differs from the first pass's digest for `key`."""
        first = self.first.setdefault(key, digest)
        return [] if first == digest else [f"{key} differs from the first pass"]


class EpochClock:
    """Marks each epoch start and each train call, at negligible cost.

    `cosine_lr` is called once at the top of every epoch, so a timestamp
    taken there splits a train call into epochs without any tracing.
    """

    def __init__(self, session: Session):
        self.session = session
        self._marks: list[float] = []
        self._cosine_lr = train_mod.cosine_lr

    def install(self, patcher) -> None:
        patcher.set(train_mod, "cosine_lr", self._lr)
        patcher.set(cli_mod, "train", self.train)

    def _lr(self, *args):
        self._marks.append(perf_counter())
        return self._cosine_lr(*args)

    def train(self, *args, **kwargs):
        self._marks = []
        start = perf_counter()
        ps, result = train_mod.train(*args, **kwargs)   # looked up per call: may be traced
        end = perf_counter()
        bounds = self._marks + [end]
        self.session.trains.append(TrainCall(
            self.session.pass_no, end - start,
            [b - a for a, b in zip(bounds, bounds[1:])], result.best_val_ndcg))
        return ps, result


# input and output digests

def _sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def input_digest(graph, tasks) -> str:
    """Digest of everything a workload feeds the model: features, edges, tasks."""
    parts = []
    for t in sorted(graph.features):
        parts += [int(t), graph.features[t].tobytes()]
    for name in graph.relation_names():
        adj = graph.csr(name)
        parts += [name, adj.offsets.tobytes(), adj.cols.tobytes()]
    for task in tasks:
        parts += [task.name, task.kind.value, int(task.target_type), task.n_classes,
                  sorted(task.labels.items())]
        parts += [(inst.query, inst.candidates.tobytes(), inst.true_index)
                  for inst in task.instances]
        parts += [(s, task.split_ids(s).tobytes()) for s in sorted(task.splits)]
    return _sha(*parts)


def params_digest(ps) -> str:
    return _sha(*[p for name, t in ps.named for p in (name, t.data.tobytes())])


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def plan_edges(graph) -> int:
    """Message-plan edges one forward pass attends over (both directions of cross relations)."""
    total = 0
    for name in graph.relation_names():
        spec = graph.spec(name)
        targets = [spec.src_type] if spec.is_intra else [spec.src_type, spec.dst_type]
        total += sum(graph.message_plan(name, t).n_edges for t in targets)
    return total


# checks

def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def check_log(session: Session, result, ps) -> list:
    problems = [f"epoch {e['epoch']}: non-finite {k}" for e in result.log
                for k in ("train_loss", "val_loss", "val_ndcg") if not _finite(e[k])]
    problems += session.same_as_first("train log", _sha(json.dumps(result.log, sort_keys=True)))
    problems += session.same_as_first("selected parameters", params_digest(ps))
    return problems


def check_report(session: Session, report, acc_floor=None) -> list:
    problems = []
    for task, values in report.items():
        for key, value in values.items():
            if value is not None and not _finite(value):
                problems.append(f"{task}.{key} is {value}")
    if acc_floor is not None and not report["pv"]["acc"] >= acc_floor:
        problems.append(f"test venue accuracy {report['pv']['acc']} below {acc_floor}")
    problems += session.same_as_first("evaluation report",
                                      _sha(json.dumps(report, sort_keys=True)))
    return problems


def _check_tsv(path) -> list:
    with open(path, encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split("\t") for line in fh]
    if len(rows) < 2:
        return [f"{os.path.basename(path)} has no data rows"]
    width = len(rows[0])
    bad = sum(1 for r in rows if len(r) != width)
    return [f"{os.path.basename(path)}: {bad} rows with the wrong width"] if bad else []


def _check_checkpoint(path) -> list:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        payload = fh.read()
    values = sum(rows * cols for _, (rows, cols) in header["tensors"])
    if len(payload) != 8 * values:
        return [f"checkpoint payload holds {len(payload)} bytes, header says {8 * values}"]
    if not np.isfinite(np.frombuffer(payload, dtype="<f8")).all():
        return ["checkpoint holds non-finite values"]
    return []


def _check_jsonl(path) -> list:
    with open(path, encoding="utf-8") as fh:
        entries = [json.loads(line) for line in fh if line.strip()]
    if not entries:
        return ["train_log.jsonl is empty"]
    return [f"{os.path.basename(path)}: non-finite {k} at epoch {e['epoch']}"
            for e in entries for k in ("train_loss", "val_loss") if not _finite(e[k])]


def _check_json(path) -> list:
    with open(path, encoding="utf-8") as fh:
        json.load(fh)
    return []


def check_artifacts(session: Session, directory: str, label: str, names, same=(),
                    count_bytes=True) -> list:
    """Every artifact exists and parses; the ones in `same` match the first pass."""
    problems = []
    for name in names:
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            problems.append(f"missing {label}/{name}")
            continue
        try:
            if name.endswith(".tsv"):
                problems += _check_tsv(path)
            elif name.endswith(".jsonl"):
                problems += _check_jsonl(path)
            elif name.endswith(".json"):
                problems += _check_json(path)
            elif name.endswith(".bin"):
                problems += _check_checkpoint(path)
        except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
            problems.append(f"{label}/{name} does not parse: {exc}")
            continue
        if session.tracer is not None and count_bytes:
            session.tracer.count("cli.bytes_written", os.path.getsize(path))
        if name in same:
            problems += session.same_as_first(f"{label}/{name}", file_digest(path))
    return problems


# set-up

def setup_generated(synth: dict, model: dict, epochs: int, seed: int):
    """Generate the dataset, build the parameters, run the plan-building forward."""
    graph, tasks = synth_mod.generate(SynthConfig(seed=seed, **synth))
    config = ModelConfig(seed=seed, epochs=epochs, **model)
    ps = params_mod.build_params(graph, config, tasks)
    model_mod.forward(graph, config, ps, training=False)
    return graph, tasks, config, ps


def setup_imported(directory: str, model: dict, epochs: int, seed: int):
    """The set-up every CLI command repeats: import, parameters, first forward."""
    graph, tasks = synth_mod.import_dataset(directory)
    config = ModelConfig(input_dim=graph.feature_dim, seed=seed, epochs=epochs, **model)
    ps = params_mod.build_params(graph, config, tasks)
    model_mod.forward(graph, config, ps, training=False)
    return graph, tasks, config, ps


def _check_setup(session: Session, state) -> list:
    graph, tasks, _, _ = state
    if not session.plan_edges:
        session.plan_edges = plan_edges(graph)
    return session.same_as_first("workload inputs", input_digest(graph, tasks))


# workloads

def _samples(session: Session, wanted: int) -> int:
    """Traced passes run each operation once, so per-pass figures mean one pass."""
    return wanted if session.tracer is None else 1


class TrainWorkload:
    """Generate, train, evaluate: `planted-train` and `scale-train`.

    Set-up and evaluation are short next to training, so an untraced pass
    times them `short_repeats` times; the extra samples steady their medians.
    """

    def __init__(self, name, synth, model, epochs, short_repeats, acc_floor=None):
        self.name, self.synth, self.model = name, synth, model
        self.epochs, self.short_repeats, self.acc_floor = epochs, short_repeats, acc_floor

    def setup(self, session: Session, repeat=False):
        state = session.timed(
            "setup", lambda: setup_generated(self.synth, self.model, self.epochs, session.seed),
            lambda s: _check_setup(session, s), repeat)
        session.layers = state[2].num_layers
        return state

    def run_pass(self, session: Session, clock: EpochClock) -> None:
        for k in range(_samples(session, self.short_repeats)):
            graph, tasks, config, ps = self.setup(session, repeat=k > 0)
        ps, result = session.timed(
            "train", lambda: clock.train(graph, tasks, config, ps),
            lambda r: check_log(session, r[1], r[0]))
        for k in range(_samples(session, self.short_repeats)):
            session.timed(
                "evaluate", lambda: train_mod.evaluate(graph, tasks, ps, config),
                lambda rep: check_report(session, rep, self.acc_floor), k > 0)


class SweepWorkload:
    """The CLI pipeline, in-process through `duograph.cli.main`."""

    name = "variant-sweep"
    synth, model, epochs = SWEEP_SYNTH, SWEEP_MODEL, SWEEP_EPOCHS
    per_step = 2   # set-ups before, and `eval` samples after, each longer step of a pass

    def _dir(self, session: Session, sub: str = "") -> str:
        return os.path.join(session.workdir, f"pass{session.pass_no}", sub)

    def setup(self, session: Session, repeat=False):
        data = self._dir(session, "data")
        state = session.timed(
            "setup", lambda: setup_imported(data, self.model, self.epochs, session.seed),
            lambda s: _check_setup(session, s), repeat)
        session.layers = state[2].num_layers
        return state

    def _cli(self, session: Session, argv, sub: str, artifacts, same=(), repeat=False) -> None:
        out = self._dir(session, sub)

        def call():
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                code = cli_mod.main(argv + ["--out", out])
            return code, err.getvalue()

        def check(result):
            code, err = result
            if code != 0:
                return [f"exit code {code}: {err.strip()}"]
            return check_artifacts(session, out, sub, artifacts, same, not repeat)

        session.timed(f"cli.{argv[0]}", call, check, repeat)

    def _train(self, session: Session, run_cfg: str, ordering: str) -> None:
        self._cli(session, ["train", "--config", run_cfg, "--ordering", ordering], ordering,
                  ("checkpoint.bin", "train_log.jsonl", "resolved_config.json"),
                  ("checkpoint.bin", "train_log.jsonl"))

    def _on_parallel(self, session: Session, run_cfg: str, command: str, files,
                     repeat=False) -> None:
        self._cli(session, [command, "--config", run_cfg, "--ordering", "parallel"],
                  "parallel", files, files, repeat)

    def run_pass(self, session: Session, clock: EpochClock) -> None:
        base = self._dir(session)
        os.makedirs(base, exist_ok=True)
        gen_cfg = os.path.join(base, "generate.json")
        run_cfg = os.path.join(base, "run.json")
        with open(gen_cfg, "w", encoding="utf-8") as fh:
            json.dump({"synth": dict(self.synth, seed=session.seed)}, fh)
        with open(run_cfg, "w", encoding="utf-8") as fh:
            json.dump({"data": self._dir(session, "data"), "seeds": [session.seed],
                       "model": dict(self.model, epochs=self.epochs, seed=session.seed)}, fh)

        dataset = ("nodes.tsv", "edges.tsv", "relations.tsv", "tasks.tsv", "labels.tsv",
                   "splits.tsv", "synth_config.json")
        self._cli(session, ["generate", "--config", gen_cfg], "data", dataset, dataset)

        def exports():
            self._on_parallel(session, run_cfg, "export-attn",
                              ("attn_intra.tsv", "attn_inter.tsv", "fusion.json"))
            self._on_parallel(session, run_cfg, "export-emb",
                              ("embeddings.tsv", "embeddings_pca.tsv"))

        steps = [lambda: self._train(session, run_cfg, "parallel"),
                 lambda: self._cli(session, ["ablate", "--config", run_cfg], "ablate",
                                   ("ablation.json", "ablation.tsv"), ("ablation.json",)),
                 lambda: self._train(session, run_cfg, "inverted"),
                 exports]
        # The machine's speed drifts over seconds, so the short samples are
        # spread over the pass: set-ups before and `eval`s of the parallel
        # checkpoint after each of the longer steps. A traced pass times each once.
        for k, step in enumerate(steps):
            n = self.per_step if session.tracer is None else int(k == 0)
            for j in range(n):
                self.setup(session, repeat=k + j > 0)
            step()
            for j in range(n):
                self._on_parallel(session, run_cfg, "eval", ("eval_report.json",), k + j > 0)


WORKLOADS = {
    "planted-train": TrainWorkload("planted-train", PLANTED_SYNTH, PLANTED_MODEL,
                                   PLANTED_EPOCHS, 3, PLANTED_ACC_FLOOR),
    "scale-train": TrainWorkload("scale-train", SCALE_SYNTH, SCALE_MODEL, SCALE_EPOCHS, 2),
    "variant-sweep": SweepWorkload(),
}
