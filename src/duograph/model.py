"""Model assembly: configuration, task declarations, the layered forward
pass in its variants and stage orderings, and the task losses.

A layer projects both node classes, then runs the within-class and the
cross-class stage in the order `ordering` sets; each stage is one pass of
`_stage` over a row of the stage table `params.STAGES`. Variants prune
parts of that pipeline: `no-dual` runs the single `unified` stage,
`no-hier` replaces learned relation weights with uniform averaging,
`no-global` drops the graph-level weight share.
"""
from __future__ import annotations

from dataclasses import dataclass, field, asdict
from enum import Enum

import numpy as np

from . import inter, intra, ops
from .errors import ConfigShapeMismatch, NoLabeledNodes, NodeOutOfRange, check_fields
from .graph import BiGraph, NodeType
from .intra import AttentionRecord, FusionRecord
from .params import (STAGES, TYPES, ParamSet, Stage, input_proj, layer_param,
                     task_param)
from .tensor import Tensor

VARIANTS = ("full", "no-dual", "no-hier", "no-global")
ORDERINGS = ("standard", "inverted", "parallel")


@dataclass
class ModelConfig:
    input_dim: int
    hidden_dim: int = 128
    num_layers: int = 2
    dropout: float = 0.1
    temperature: float = 1.0
    res_weight: float = 0.5
    res_weight_inter: float = 0.5
    slope: float = 0.2
    lr_max: float = 0.01
    lr_min: float = 1e-4
    weight_decay: float = 1e-4
    epochs: int = 200
    num_negatives: int = 4
    variant: str = "full"
    ordering: str = "standard"
    extra_inter_residual: bool = False
    literal_temperature: bool = False
    seed: int = 0

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        check_fields(self, ConfigShapeMismatch)
        checks = [
            (self.input_dim >= 1, "input_dim must be >= 1"),
            (self.hidden_dim >= 2, "hidden_dim must be >= 2"),
            (self.num_layers >= 0, "num_layers must be >= 0"),
            (0.0 <= self.dropout < 1.0, "dropout must lie in [0, 1)"),
            (self.temperature > 0.0, "temperature must be positive"),
            (0.0 <= self.res_weight <= 1.0, "res_weight must lie in [0, 1]"),
            (0.0 <= self.res_weight_inter <= 1.0, "res_weight_inter must lie in [0, 1]"),
            (0.0 < self.slope < 1.0, "slope must lie in (0, 1)"),
            (self.lr_max > 0 and self.lr_min >= 0, "learning rates must be positive"),
            (self.epochs >= 1, "epochs must be >= 1"),
            (self.num_negatives >= 1, "num_negatives must be >= 1"),
            (self.variant in VARIANTS, f"variant must be one of {VARIANTS}"),
            (self.ordering in ORDERINGS, f"ordering must be one of {ORDERINGS}"),
            (self.seed >= 0, "seed must be a non-negative integer"),
        ]
        for ok, msg in checks:
            if not ok:
                raise ConfigShapeMismatch(msg)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ConfigShapeMismatch(f"unknown config keys: {sorted(unknown)}")
        if "input_dim" not in data:
            raise ConfigShapeMismatch("config has no input_dim")
        return cls(**data)


class TaskKind(Enum):
    SINGLE_LABEL = "single_label"
    MULTI_LABEL = "multi_label"
    LINK_RANKING = "link_ranking"


@dataclass
class RankInstance:
    """One retrieval query: rank `candidates`, of which one is correct."""

    query: int
    candidates: np.ndarray
    true_index: int

    @staticmethod
    def make(query: int, true_id: int, distractors) -> "RankInstance":
        ids = np.append(np.int64(true_id), np.asarray(distractors, dtype=np.int64))
        return rank_instances([query], ids, [ids.size])[0]

    @property
    def true_id(self) -> int:
        return int(self.candidates[self.true_index])


def rank_instances(queries, ids, sizes) -> list[RankInstance]:
    """One RankInstance per row: row r is query `queries[r]` with the next
    `sizes[r]` entries of `ids`, its true id first.

    A row's candidates are its distinct ids in ascending order. One lexsort
    over (row, id) orders every row at once and drops adjacent repeats.
    """
    ids, sizes = np.asarray(ids, dtype=np.int64), np.asarray(sizes, dtype=np.int64)
    row = np.repeat(np.arange(sizes.size), sizes)
    order = np.lexsort((ids, row))
    ids_sorted, row_sorted = ids[order], row[order]
    fresh = np.ones(ids.size, dtype=bool)
    fresh[1:] = (ids_sorted[1:] != ids_sorted[:-1]) | (row_sorted[1:] != row_sorted[:-1])
    cands, cand_row = ids_sorted[fresh], row_sorted[fresh]
    true_ids = ids[np.cumsum(sizes) - sizes]
    true_index = np.bincount(cand_row[cands < true_ids[cand_row]], minlength=sizes.size)
    ends = np.cumsum(np.bincount(cand_row, minlength=sizes.size)).tolist()
    return [RankInstance(query=q, candidates=cands[lo:hi], true_index=t) for q, lo, hi, t in zip(
        np.asarray(queries, dtype=np.int64).tolist(), [0, *ends[:-1]], ends, true_index.tolist())]


@dataclass
class TaskSpec:
    """A prediction task bound to one node class.

    Classification tasks label nodes (one or several classes per node);
    ranking tasks hold retrieval instances. Splits map split name to node
    ids (classification) or instance indices (ranking).
    """

    name: str
    kind: TaskKind
    target_type: NodeType
    n_classes: int = 0
    labels: dict = field(default_factory=dict)
    instances: list = field(default_factory=list)
    splits: dict = field(default_factory=dict)

    def split_ids(self, split: str) -> np.ndarray:
        return np.asarray(self.splits.get(split, np.empty(0, dtype=np.int64)), dtype=np.int64)

    def label_matrix(self, ids, n_nodes: int) -> np.ndarray:
        """0/1 class rows of `ids`, each a labelled node below `n_nodes`."""
        out = np.zeros((len(ids), self.n_classes))
        for row, node in enumerate(map(int, ids)):
            at = f"task {self.name!r}: node {node}"
            if not 0 <= node < n_nodes:
                raise NodeOutOfRange(f"{at} outside [0, {n_nodes})")
            if not self.labels.get(node):
                raise NoLabeledNodes(f"{at} has no labels")
            for c in self.labels[node]:
                if not 0 <= c < self.n_classes:
                    raise ConfigShapeMismatch(f"{at} has class {c} outside [0, {self.n_classes})")
                out[row, c] = 1.0
        return out

    def candidate_matrix(self, idxs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Queries, candidate rows padded with -1 to the longest list, and the
        true-candidate mask of ranking instances."""
        insts = [self.instances[int(i)] for i in idxs]
        lengths = np.array([inst.candidates.size for inst in insts])
        cands = np.full((len(insts), lengths.max()), -1, dtype=np.int64)
        cands[np.arange(cands.shape[1]) < lengths[:, None]] = np.concatenate(
            [inst.candidates for inst in insts])
        true_ids = np.array([inst.true_id for inst in insts], dtype=np.int64)
        queries = np.array([inst.query for inst in insts], dtype=np.int64)
        return queries, cands, cands == true_ids[:, None]


@dataclass
class ForwardRecords:
    attention: list = field(default_factory=list)
    fusion: list = field(default_factory=list)


def _stage(stage: Stage, graph: BiGraph, inputs: dict, ps: ParamSet, layer: int,
           config: ModelConfig, records: ForwardRecords | None) -> dict:
    """One stage for both node classes: attend over the relation block, fuse, residual."""
    sources = inputs
    if stage.cross:
        sources = {t: ops.matmul(inputs[t], ps.get(layer_param(layer, t, "common_map")))
                   for t in TYPES}
    out = {}
    for t in TYPES:
        rels = stage.relations(graph, t)
        if rels:
            attns, gains, biases = zip(*([ps.get(n) for n in stage.attn_names(layer, rel, t)]
                                         for rel in rels))
            if all(graph.spec(rel).is_intra for rel in rels):
                reps, alpha, block = intra.node_aggregate(sources[t], graph, rels, t, attns,
                                                          gains, biases, config.slope)
            else:
                reps, alpha, block = inter.node_aggregate(sources[t], sources[t.other], graph,
                                                          rels, t, attns, gains, biases,
                                                          config.slope)
            score, glb, mix = (None if n is None else ps.get(n)
                               for n in stage.fusion_names(layer, t, config.variant))
            fused, local_np, global_row, mix_val, coeff, mask = intra.relation_fuse(
                inputs[t], reps, block.mask, score, glb, mix)
            if records is not None:
                plans = [graph.message_plan(rel, t) for rel in rels]
                records.attention.extend(AttentionRecord(
                    layer=layer, relation=rel, target_type=t, stage=stage.label,
                    edge_targets=plan.edge_targets, sources=plan.sources, offsets=plan.offsets,
                    alpha=alpha.data[run, 0].copy())
                    for rel, plan, run in zip(rels, plans, block.edge_runs)
                    if plan.n_edges)
                records.fusion.append(FusionRecord(
                    layer=layer, target_type=t, stage=stage.label, relations=rels, mask=mask,
                    local=local_np, global_row=global_row, mix=mix_val, coeff=coeff))
        else:  # no relation declared: the stage contributes a zero pre-residual
            fused = ops.constant(np.zeros(inputs[t].shape))
        gain, bias = (ps.get(n) for n in stage.residual_names(layer, t))
        weight = config.res_weight_inter if stage.cross else config.res_weight
        out[t] = inter.weighted_residual(fused, inputs[t], weight, gain, bias, config.slope)
        if config.extra_inter_residual and stage.cross:
            # second pass through the same residual, reusing its tensors
            out[t] = inter.weighted_residual(out[t], inputs[t], weight, gain, bias, config.slope)
    return out


def forward(graph: BiGraph, config: ModelConfig, ps: ParamSet, *,
            training: bool = False, rng=None, collect: bool = False):
    """Embeddings for both node classes; optionally the attention records.

    Dropout applies to each layer's input only when `training` is true,
    drawing masks from `rng`.
    """
    if graph.feature_dim != config.input_dim:
        raise ConfigShapeMismatch(
            f"graph features have dim {graph.feature_dim}, config says {config.input_dim}")
    if training and config.dropout > 0.0 and rng is None:
        raise ConfigShapeMismatch("training forward with dropout needs an rng")
    records = ForwardRecords() if collect else None
    current = {t: ops.constant(graph.features[t]) for t in TYPES}
    if config.num_layers == 0:
        return {t: ops.matmul(current[t], ps.get(input_proj(t))) for t in TYPES}, records

    def run(kind, layer, inputs):
        return _stage(STAGES[kind], graph, inputs, ps, layer, config, records)

    for layer in range(config.num_layers):
        if training and config.dropout > 0.0:
            current = {t: ops.dropout(current[t], config.dropout, rng) for t in TYPES}
        projected = {t: ops.matmul(current[t], ps.get(layer_param(layer, t, "proj")))
                     for t in TYPES}
        if config.variant == "no-dual":
            current = run("unified", layer, projected)
        elif config.ordering == "standard":
            current = run("inter", layer, run("intra", layer, projected))
        elif config.ordering == "inverted":
            current = run("intra", layer, run("inter", layer, projected))
        else:  # parallel
            z, v = run("intra", layer, projected), run("inter", layer, projected)
            current = {t: ops.matmul(ops.concat_cols(z[t], v[t]),
                                     ps.get(layer_param(layer, t, "merge")))
                       for t in TYPES}
    return current, records


# task losses

def task_loss(task: TaskSpec, embs: dict, ps: ParamSet, config: ModelConfig,
              split: str = "train", rng=None, labels: np.ndarray | None = None) -> Tensor:
    """Scalar loss for one task on one split.

    A classification task reads `labels`, its `label_matrix` of the split's
    ids, when the caller already holds it.
    """
    if task.kind is TaskKind.LINK_RANKING:
        return _ranking_loss(task, embs, ps, config, split, rng)
    ids = task.split_ids(split)
    if ids.size == 0:
        raise NoLabeledNodes(f"task {task.name!r} has no labeled nodes in split {split!r}")
    m, emb = ids.size, embs[task.target_type]
    y = ops.constant(task.label_matrix(ids, emb.shape[0]) if labels is None else labels)
    logits = ops.matmul(ops.gather_rows(emb, ids), ps.get(task_param(task, "weight")))
    if task.kind is TaskKind.SINGLE_LABEL:
        return _softmax_xent(logits, y, config)
    # multi-label: per-class binary cross-entropy via the softplus identity
    temp = config.temperature
    z = logits if config.literal_temperature else ops.scalar_mul(logits, 1.0 / temp)
    per_entry = ops.add(ops.softplus(z), ops.scalar_mul(ops.mul(y, z), -1.0))
    denom = m * task.n_classes
    loss = ops.scalar_mul(ops.sum_all(per_entry), 1.0 / denom)
    if config.literal_temperature:
        loss = ops.add(loss, ops.constant(y.data.sum() * np.log(temp) / denom))
    return loss


def _ranking_loss(task: TaskSpec, embs: dict, ps: ParamSet, config: ModelConfig,
                  split: str, rng) -> Tensor:
    idxs = task.split_ids(split)
    if idxs.size == 0:
        raise NoLabeledNodes(f"task {task.name!r} has no instances in split {split!r}")
    if rng is None:
        raise NoLabeledNodes(f"ranking loss for task {task.name!r} needs an rng for negatives")
    cand_type = task.target_type.other
    n_cand = embs[cand_type].shape[0]
    if n_cand < 2:
        raise NoLabeledNodes(f"task {task.name!r} needs at least 2 {cand_type.label} nodes "
                             f"to sample negatives, found {n_cand}")
    queries, cands, relevant = task.candidate_matrix(idxs)
    m, k = queries.size, config.num_negatives
    cols = np.zeros((m, 1 + k), dtype=np.int64)
    cols[:, 0] = cands[np.arange(m), relevant.argmax(axis=1)]
    cols[:, 1:] = _draw_negatives(rng, n_cand, np.repeat(cols[:, 0], k)).reshape(m, k)
    q = ops.matmul(ops.gather_rows(embs[task.target_type], queries),
                   ps.get(task_param(task, "query")))
    c = ops.matmul(ops.gather_rows(embs[cand_type], cols.reshape(-1)),
                   ps.get(task_param(task, "cand")))
    q_rep = ops.gather_rows(q, np.repeat(np.arange(m), 1 + k))
    dots = ops.row_sum(ops.mul(q_rep, c))
    scores = ops.reshape(dots, m, 1 + k)
    first = np.zeros((m, 1 + k))
    first[:, 0] = 1.0
    return _softmax_xent(scores, ops.constant(first), config)


def _draw_negatives(rng, n_cand: int, owners: np.ndarray) -> np.ndarray:
    """One draw from [0, n_cand) per slot, redrawn while it equals the slot's
    `owners` entry.

    Consumes `rng` exactly as one scalar `rng.integers(n_cand)` call per draw,
    slot after slot, would: a batch covers every open slot, its draws fill
    slots up to the first reject, and the draws after a reject move on to
    the next slots; a second batch redraws only as many as were rejected.
    """
    out = np.empty(owners.size, dtype=np.int64)
    filled = 0
    while filled < owners.size:
        draws = rng.integers(n_cand, size=owners.size - filled)
        while draws.size:
            hit = draws == owners[filled:filled + draws.size]
            keep = int(hit.argmax()) if hit.any() else draws.size
            out[filled:filled + keep] = draws[:keep]
            filled += keep
            draws = draws[keep + 1:]
    return out


def _softmax_xent(logits: Tensor, y: Tensor, config: ModelConfig) -> Tensor:
    """Mean softmax cross-entropy of logit rows against target rows `y`.

    `literal_temperature` leaves the logits unscaled and adds log(T) instead.
    """
    literal = config.literal_temperature
    z = logits if literal else ops.scalar_mul(logits, 1.0 / config.temperature)
    p = ops.masked_softmax_rows(z, np.ones(z.shape, dtype=bool))
    loss = ops.scalar_mul(ops.sum_all(ops.mul(ops.log(p), y)), -1.0 / logits.shape[0])
    return ops.add(loss, ops.constant(np.log(config.temperature))) if literal else loss


# eval-side scoring (plain numpy on detached embeddings)

def classification_scores(task: TaskSpec, emb_data: np.ndarray, ps: ParamSet,
                          ids: np.ndarray) -> np.ndarray:
    w = ps.get(task_param(task, "weight")).data
    return emb_data[ids] @ w


def ranking_scores(task: TaskSpec, emb_q: np.ndarray, emb_c: np.ndarray,
                   ps: ParamSet, idxs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """[m, C] scores of each instance's candidates and the true-candidate mask.

    Rows keep candidate order; pad cells score `-inf` and are never relevant.
    These batched products equal the per-instance `(emb_c[cands] @ wc) @
    (emb_q[q] @ wq)` bit for bit; a plain `emb_q[queries] @ wq` does not.
    """
    wq = ps.get(task_param(task, "query")).data
    wc = ps.get(task_param(task, "cand")).data
    queries, cands, relevant = task.candidate_matrix(idxs)
    q = np.matmul(emb_q[queries][:, None, :], wq)[:, 0, :]
    c = np.matmul(emb_c[cands], wc)
    scores = np.matmul(c, q[:, :, None])[:, :, 0]
    scores[cands < 0] = -np.inf
    return scores, relevant


def task_scores(task: TaskSpec, embs_data: dict, ps: ParamSet,
                ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """[m, C] scores and boolean relevance mask: classes for classification,
    each instance's candidates for ranking. Every metric reads these rows."""
    emb = embs_data[task.target_type]
    if task.kind is TaskKind.LINK_RANKING:
        return ranking_scores(task, emb, embs_data[task.target_type.other], ps, ids)
    relevant = task.label_matrix(ids, emb.shape[0]) > 0
    return classification_scores(task, emb, ps, ids), relevant
