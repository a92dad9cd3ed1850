"""Cross-class encoder: attention over the other node class, relation
weighting restricted to relations that actually reach a node, and the
weighted residual connection used after each stage.

Both classes are first mapped into a shared space by per-class square
matrices; each cross relation is processed in both directions with its
own attention vector and normalization per direction. The cross
relations toward one class run as one relation block (`graph.BlockPlan`,
see `intra`), whose rows stay zero for nodes a relation does not reach.
The unified stage of the no-dual variant puts the within-class relations
in the same block: its values are the target rows stacked over the other
class's rows.
"""
from __future__ import annotations

from . import ops
from .errors import RelationClassMismatch, ShapeMismatch
from .graph import BiGraph, NodeType
from .intra import attend_over_plan
from .tensor import Tensor


def node_aggregate(mapped_target: Tensor, mapped_source: Tensor, graph: BiGraph,
                   relations, target_type: NodeType, attns, gains, biases, slope: float):
    """Attention toward `target_type` over a block holding cross relations.

    Within-class relations of `target_type` may share the block; the values
    are then `mapped_target` stacked over `mapped_source`. Returns (block
    rows, alpha, block plan); `block.mask` flags the nodes each relation reached.
    """
    if all(graph.spec(rel).is_intra for rel in relations):
        raise RelationClassMismatch(f"relations {list(relations)!r} hold no cross-class relation")
    block = graph.block_plan(relations, target_type)
    values = ops.concat_rows(mapped_target, mapped_source) if block.stacked else mapped_source
    out, alpha = attend_over_plan(mapped_target, values, block, attns, gains, biases, slope)
    return out, alpha, block


def weighted_residual(new: Tensor, old: Tensor, weight: float,
                      gain: Tensor, bias: Tensor, slope: float) -> Tensor:
    """Norm(weight * act(new) + (1 - weight) * old)."""
    if not 0.0 <= weight <= 1.0:
        raise ShapeMismatch(f"residual weight must lie in [0, 1], got {weight}")
    return ops.layer_norm(ops.residual_mix(new, old, weight, slope), gain, bias)
