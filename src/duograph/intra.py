"""Within-class encoder: per-relation neighbor attention, then a
global-local weighting that fuses the per-relation summaries.

Per relation, each node scores its neighbors (self included), softmaxes
the scores over the neighborhood, and aggregates neighbor projections
through a per-relation normalization. An edge j -> i scores
leaky(a . [h_i || h_j]), computed as a[:d] . h_i + a[d:] . h_j: two [n,1]
node columns, one scalar of each gathered per edge (`ops.edge_scores`),
so no [E,2d] concat is ever built. The fusion step weights relations
by a convex mix of graph-level softmax weights and per-node softmax
scores; the mix factor is a learned sigmoid gate.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ops
from .errors import NoRelations, RelationClassMismatch
from .graph import BiGraph, MessagePlan, NodeType
from .tensor import Tensor


@dataclass
class AttentionRecord:
    """Per-edge attention weights for one (layer, relation, target side)."""

    layer: int
    relation: str
    target_type: NodeType
    stage: str
    edge_targets: np.ndarray
    sources: np.ndarray
    offsets: np.ndarray
    alpha: np.ndarray


@dataclass
class FusionRecord:
    """Relation-level weights for one (layer, node type, stage)."""

    layer: int
    target_type: NodeType
    stage: str
    relations: list[str]
    mask: np.ndarray
    local: np.ndarray
    global_row: np.ndarray | None
    mix: float | None
    coeff: np.ndarray


def attend_over_plan(target_feats: Tensor, source_feats: Tensor, plan: MessagePlan,
                     attn: Tensor, gain: Tensor, bias: Tensor, slope: float):
    """Edge attention + normalized aggregation for one message plan.

    Returns the aggregated rows for plan.targets (in plan order) and the
    per-edge attention column.
    """
    scores = ops.leaky_relu(ops.edge_scores(target_feats, source_feats, attn,
                                            plan.edge_targets, plan.sources), slope)
    src = ops.gather_rows(source_feats, plan.sources)
    alpha = ops.segment_softmax(scores, plan.offsets)
    agg = ops.weighted_sum_rows(alpha, src, plan.offsets)
    out = ops.leaky_relu(ops.layer_norm(agg, gain, bias), slope)
    return out, alpha


def node_aggregate(h: Tensor, graph: BiGraph, relation: str, node_type: NodeType,
                   attn: Tensor, gain: Tensor, bias: Tensor, slope: float):
    """Within-class attention over one relation; covers every node via self-loops."""
    spec = graph.spec(relation)
    if not spec.is_intra or spec.src_type is not node_type:
        raise RelationClassMismatch(
            f"relation {relation!r} is not a within-{node_type.label} relation")
    plan = graph.message_plan(relation, node_type)
    out, alpha = attend_over_plan(h, h, plan, attn, gain, bias, slope)
    return out, alpha, plan


def relation_fuse(base: Tensor, reps: list[Tensor], masks: list[np.ndarray],
                  score_vec: Tensor | None, global_logits: Tensor | None,
                  mix_logit: Tensor | None, mean_fusion: bool = False):
    """Fuse per-relation summaries into one row per node.

    `masks[k]` flags the nodes relation k actually reached; weights are
    renormalized over the reaching relations per node, and a node reached
    by none gets the zero row. With every mask true this reduces to plain
    softmax weighting. Returns (fused, local, global_row, mix, coeff, mask).
    """
    if not reps:
        raise NoRelations("fusion needs at least one relation summary")
    n = base.shape[0]
    mask = np.column_stack([np.asarray(m, dtype=bool) for m in masks])
    if mean_fusion:
        counts = mask.sum(axis=1, keepdims=True)
        coeff_np = np.divide(mask.astype(np.float64), counts,
                             out=np.zeros(mask.shape), where=counts > 0)
        coeff = ops.constant(coeff_np)
        local_np, global_row, mix_val = coeff_np, None, None
    else:
        cols = [ops.matmul(ops.concat_cols(base, rep), score_vec) for rep in reps]
        scores = cols[0]
        for c in cols[1:]:
            scores = ops.concat_cols(scores, c)
        local = ops.masked_softmax_rows(scores, mask)
        if global_logits is not None:
            tiled = ops.mul(ops.constant(np.ones((n, 1))), global_logits)
            glob = ops.masked_softmax_rows(tiled, mask)
            mix = ops.sigmoid(mix_logit)
            inv_mix = ops.add(ops.constant(np.ones((1, 1))), ops.scalar_mul(mix, -1.0))
            coeff = ops.add(ops.mul(mix, glob), ops.mul(inv_mix, local))
            gl = global_logits.data[0]
            e = np.exp(gl - gl.max())
            global_row = e / e.sum()
            mix_val = float(mix.data[0, 0])
        else:
            coeff = local
            global_row, mix_val = None, None
        local_np = local.data
    fused = None
    for k, rep in enumerate(reps):
        term = ops.mul(ops.slice_cols(coeff, k, k + 1), rep)
        fused = term if fused is None else ops.add(fused, term)
    return fused, local_np, global_row, mix_val, coeff.data, mask
