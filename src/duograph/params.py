"""Parameter schema and construction for every model variant.

Parameters live in one float64 vector, as named tensor views whose order
is fixed by the graph schema and config, so checkpoints, the optimizer,
and gradient checks all see the same layout. Names double as the
checkpoint header keys.

`STAGES` is the stage table: one row per encoder (`intra`, `inter`, and
the `unified` stage of the no-dual variant), each node-level attention
over one relation block per node class, relation-level fusion, then a
weighted residual. `cross` marks the cross-class encoder, the one row
that maps both classes into a common space (`common_map`), creates its
attention relation by relation, scores fusion by `inter_score` without
graph-level weights, weighs its residual by `res_weight_inter` (twice
under `extra_inter_residual`), and may find no relation to read.
`build_params` creates and `model.forward` reads parameters through the
same rows and naming functions, so every name is spelled once.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigShapeMismatch, NoRelations
from .graph import BiGraph, NodeType
from .rand import rng_for
from .tensor import Tensor

TYPES = (NodeType.A, NodeType.B)


@dataclass(frozen=True)
class Stage:
    """One row of the stage table."""

    label: str                 # stage name on attention and fusion records
    attn: str                  # attention parameter stem under layer{l}, from {rel} and {t}
    reads: Callable[[BiGraph, NodeType], list[str]]  # relations a target type fuses, in order
    residual: str              # residual normalization stem
    cross: bool                # the cross-class encoder (see the module docstring)

    def relations(self, graph: BiGraph, t: NodeType) -> list[str]:
        """`reads`; none raises NoRelations, except in the cross stage (zero pre-residual)."""
        rels = self.reads(graph, t)
        if not rels and not self.cross:
            raise NoRelations(f"node class {t.label} has no relations for the {self.label} stage")
        return rels

    def attn_names(self, layer: int, rel: str, t: NodeType) -> tuple[str, str, str]:
        stem = f"layer{layer}." + self.attn.format(rel=rel, t=t.label)
        return f"{stem}.attn", f"{stem}.gain", f"{stem}.bias"

    def fusion_names(self, layer: int, t: NodeType, variant: str) -> tuple:
        """(score, global logits, mix gate) names; None where the variant has none."""
        score = None if variant == "no-hier" else layer_param(
            layer, t, "inter_score" if self.cross else "local_score")
        if not self.cross and variant in ("full", "no-dual"):
            return score, layer_param(layer, t, "global_logits"), layer_param(layer, t, "mix_logit")
        return score, None, None

    def residual_names(self, layer: int, t: NodeType) -> tuple[str, str]:
        return (layer_param(layer, t, f"{self.residual}.gain"),
                layer_param(layer, t, f"{self.residual}.bias"))


STAGES = {stage.label: stage for stage in (
    Stage("intra", "intra.{rel}", lambda g, t: g.intra_relations(t), "res_intra", cross=False),
    Stage("inter", "inter.{rel}.to_{t}", lambda g, t: g.inter_relations(), "res_inter",
          cross=True),
    Stage("unified", "uni.{rel}.to_{t}", lambda g, t: g.intra_relations(t) + g.inter_relations(),
          "res", cross=False),
)}


def layer_param(layer: int, t: NodeType, key: str) -> str:
    """Name of a per-layer, per-node-class parameter (proj, common_map, merge)."""
    return f"layer{layer}.{t.label}.{key}"


def input_proj(t: NodeType) -> str:
    """Name of the projection used when the model has no layers."""
    return f"proj.{t.label}"


def task_param(task, key: str) -> str:
    """Name of a task head parameter (weight, query or cand)."""
    return f"head.{task.name}.{key}"


def _by_name(named: list, repeated: str) -> dict:
    """`dict(named)`; a name given twice raises ConfigShapeMismatch(`repeated`)."""
    twice = [name for name, count in Counter(n for n, _ in named).items() if count > 1]
    if twice:
        raise ConfigShapeMismatch(repeated.format(twice[0]))
    return dict(named)


class ParamSet:
    """Named parameter tensors whose `data` are views into one float64 `vector`, tensor k
    at `vector[offsets[k]:offsets[k + 1]]`; write `data` in place, never rebind it."""

    def __init__(self, named_arrays):
        self.named = [(name, Tensor(data, requires_grad=True)) for name, data in named_arrays]
        self._index = _by_name(self.named, "parameter {!r} created twice")
        self.vector = np.concatenate([np.zeros(0)] + [t.data.ravel() for _, t in self.named])
        self.offsets = np.cumsum([0] + [t.data.size for _, t in self.named])
        for (_, t), start in zip(self.named, self.offsets):
            t.data = self.vector[start:start + t.data.size].reshape(t.data.shape)

    def get(self, name: str) -> Tensor:
        return self._index[name]

    def grads(self) -> np.ndarray:
        """Every tensor's gradient, laid out as `vector`."""
        return np.concatenate([np.zeros(0)] + [t.grad.ravel() for _, t in self.named])

    def zero_grad(self) -> None:
        for _, t in self.named:
            t.zero_grad()

    def snapshot(self) -> np.ndarray:
        return self.vector.copy()

    def load(self, named_arrays) -> None:
        """Copy checkpoint arrays into the vector once every name and shape matches."""
        arrays = _by_name(list(named_arrays), "checkpoint holds parameter {!r} twice")
        if arrays.keys() != self._index.keys():
            missing, extra = self._index.keys() - arrays.keys(), arrays.keys() - self._index.keys()
            raise ConfigShapeMismatch(
                f"checkpoint names disagree (missing {sorted(missing)}, extra {sorted(extra)})")
        for name, t in self.named:
            arr = np.asarray(arrays[name], dtype=np.float64)
            if arr.shape != t.data.shape:
                raise ConfigShapeMismatch(
                    f"parameter {name!r}: checkpoint shape {arr.shape} != {t.data.shape}")
        self.vector[...] = np.hstack([np.zeros(0)] + [np.ravel(arrays[n]) for n in self._index])


def _glorot(rng, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def _attn_vec(rng, width: int) -> np.ndarray:
    limit = 1.0 / np.sqrt(width)
    return rng.uniform(-limit, limit, size=(width, 1))


def build_params(graph: BiGraph, config, tasks=()) -> ParamSet:
    """Create and initialize every tensor the configured variant reads."""
    d_in = config.input_dim
    if graph.feature_dim != d_in:
        raise ConfigShapeMismatch(
            f"config input_dim {d_in} != graph feature dim {graph.feature_dim}")
    d = config.hidden_dim
    rng = rng_for(config.seed, "init")
    named = []  # (name, initial value) in draw order

    if config.num_layers == 0:
        named += [(input_proj(t), _glorot(rng, d_in, d)) for t in TYPES]
    stages = ("unified",) if config.variant == "no-dual" else ("intra", "inter")
    for layer in range(config.num_layers):
        width = d_in if layer == 0 else d
        named += [(layer_param(layer, t, "proj"), _glorot(rng, width, d)) for t in TYPES]
        for kind in stages:
            _add_stage(named, rng, graph, STAGES[kind], layer, d, config.variant)
        if config.ordering == "parallel" and config.variant != "no-dual":
            named += [(layer_param(layer, t, "merge"), _glorot(rng, 2 * d, d)) for t in TYPES]
    _add_heads(named, rng, d, tasks)
    return ParamSet(named)


def _add_stage(named: list, rng, graph: BiGraph, stage: Stage, layer: int, d: int,
               variant: str) -> None:
    """One stage's parameters, in the draw order checkpoints were written with."""
    def add_attention(rel, t):
        values = (_attn_vec(rng, 2 * d), np.ones((1, d)), np.zeros((1, d)))
        named.extend(zip(stage.attn_names(layer, rel, t), values))

    if stage.cross:  # common-space maps, then attention sets relation by relation
        named += [(layer_param(layer, t, "common_map"), _glorot(rng, d, d)) for t in TYPES]
        for rel in stage.relations(graph, TYPES[0]):  # one list serves both classes
            for t in TYPES:
                add_attention(rel, t)
    for t in TYPES:
        rels = stage.relations(graph, t)
        if not stage.cross:
            for rel in rels:
                add_attention(rel, t)
        score, global_logits, mix = stage.fusion_names(layer, t, variant)
        if score is not None:
            named.append((score, _attn_vec(rng, 2 * d)))
        if global_logits is not None:
            named += [(global_logits, np.zeros((1, len(rels)))), (mix, np.zeros((1, 1)))]
        named.extend(zip(stage.residual_names(layer, t), (np.ones((1, d)), np.zeros((1, d)))))


def _add_heads(named: list, rng, d: int, tasks) -> None:
    from .model import TaskKind
    for task in tasks:
        if task.kind is TaskKind.LINK_RANKING:
            named += [(task_param(task, key), _glorot(rng, d, d)) for key in ("query", "cand")]
        else:
            named.append((task_param(task, "weight"), _glorot(rng, d, task.n_classes)))
