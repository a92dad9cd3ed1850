"""Within-class encoder: attention over all relations of a node class as
one relation block, then HAN's semantic-level fusion of the K summaries.

Block row k*n + i is node i under relation k (`graph.BlockPlan`). An
edge j -> i of relation k scores leaky(a_k[:d] . h_i + a_k[d:] . h_j):
h is scored against all K vectors at once and gathered per edge
(`ops.edge_scores`), so no [E,2d] concat is built. The scores are
softmaxed per (node, relation) segment; the weighted sum reads its
source rows itself, batched over the block's degree groups
(`ops.weighted_sum_rows`), and one layer norm applies each relation's
gain and bias to its run of rows, then the leaky activation in place.
Fusion scores the K runs with one `edge_scores` call, weights them by a
learned sigmoid mix of graph-level softmax weights and per-node masked
softmax scores, and sums them with one `ops.combine_blocks`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ops
from .errors import NoRelations, RelationClassMismatch
from .graph import BiGraph, BlockPlan, NodeType
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


def attend_over_plan(target_feats: Tensor, values: Tensor, block: BlockPlan,
                     attns, gains, biases, slope: float):
    """Edge attention + normalized aggregation over one relation block.

    Returns the [K*n, d] block (zero rows for the nodes a relation does
    not reach) and the per-edge attention column, or None when the block
    has no edge at all.
    """
    n_rows = block.mask.size
    if block.n_edges == 0:
        return ops.constant(np.zeros((n_rows, values.shape[1]))), None
    scores = ops.leaky_relu(ops.edge_scores(target_feats, values, attns, block.target_index,
                                            block.source_index), slope)
    alpha = ops.segment_softmax(scores, block.offsets)
    agg = ops.weighted_sum_rows(alpha, values, block.layout)
    out = ops.layer_norm(agg, gains, biases, block.row_runs, slope=slope)
    if not block.covers_all:
        out = ops.scatter_rows(out, block.rows, n_rows)
    return out, alpha


def node_aggregate(h: Tensor, graph: BiGraph, relations, node_type: NodeType,
                   attns, gains, biases, slope: float):
    """Within-class attention over a block of relations; self-loops reach every node.

    Returns (block rows, alpha, block plan).
    """
    for rel in relations:
        spec = graph.spec(rel)
        if not spec.is_intra or spec.src_type is not node_type:
            raise RelationClassMismatch(
                f"relation {rel!r} is not a within-{node_type.label} relation")
    block = graph.block_plan(relations, node_type)
    out, alpha = attend_over_plan(h, h, block, attns, gains, biases, slope)
    return out, alpha, block


def relation_fuse(base: Tensor, reps: Tensor, mask, score_vec: Tensor | None,
                  global_logits: Tensor | None, mix_logit: Tensor | None):
    """Fuse the K runs of a [K*n, d] relation block into one row per node.

    `mask[:, k]` flags the nodes relation k actually reached; weights are
    renormalized over the reaching relations per node, and a node reached
    by none gets the zero row. With every mask true this reduces to plain
    softmax weighting; with no `score_vec` every reaching relation scores
    0, so the weights are the plain mean. Returns (fused, local,
    global_row, mix, coeff, mask).
    """
    mask = np.asarray(mask, dtype=bool)
    n, n_k = mask.shape
    if n_k == 0:
        raise NoRelations("fusion needs at least one relation summary")
    if score_vec is None:
        local = ops.masked_softmax_rows(ops.constant(np.zeros(mask.shape)), mask)
    else:
        # node i's score for relation k: [base_i || reps[k*n + i]] @ score_vec
        rows = np.arange(n)[:, None] + n * np.arange(n_k)
        scores = ops.reshape(ops.edge_scores(base, reps, score_vec, np.repeat(np.arange(n), n_k),
                                             rows.ravel()), n, n_k)
        local = ops.masked_softmax_rows(scores, mask)
    coeff, global_row, mix_val = local, None, None
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
    return ops.combine_blocks(coeff, reps), local.data, global_row, mix_val, coeff.data, mask
