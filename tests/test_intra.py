"""Within-class encoder oracles.

The expected values are scalar arithmetic written out by hand: pick an
attention vector that reads one known coordinate, so the softmax inputs
and every downstream number are closed-form.
"""
import numpy as np
import pytest

from duograph import ops
from duograph.errors import NoRelations, RelationClassMismatch
from duograph.graph import NodeType, RelationClass, RelationSpec, build_graph
from duograph.intra import attend_over_plan, node_aggregate, relation_fuse
from duograph.rand import rng_for
from duograph.tensor import Tape, Tensor

LN3 = float(np.log(3.0))


def _tensor(rows):
    return ops.constant(np.array(rows, dtype=np.float64))


def _pair_graph(h_a):
    """Two authors joined by a symmetric colleague edge; one inert paper."""
    specs = [RelationSpec("colleague", RelationClass.INTRA_A,
                          NodeType.A, NodeType.A, symmetric=True)]
    feats = {NodeType.A: np.asarray(h_a, dtype=np.float64),
             NodeType.B: np.zeros((1, 2))}
    return build_graph({NodeType.A: 2, NodeType.B: 1}, feats, specs,
                       [("colleague", 0, 1)])


def _norm_leaky(vec, slope=0.2):
    # row layer_norm with unit gain, zero bias, then the leaky activation
    v = np.asarray(vec, dtype=np.float64)
    x = (v - v.mean()) / np.sqrt(v.var() + 1e-5)
    return np.where(x >= 0, x, slope * x)


class TestNodeAggregate:
    # attn [0,0,1,0] scores each edge by the source's first coordinate;
    # both segments see sources [0, 1] (self-loop spliced in sorted order)
    def test_hand_chain(self):
        graph = _pair_graph([[0.0, 4.0], [LN3, 0.0]])
        h = ops.constant(graph.features[NodeType.A])
        attn = _tensor([[0.0], [0.0], [1.0], [0.0]])
        gain, bias = _tensor([[1.0, 1.0]]), _tensor([[0.0, 0.0]])
        out, alpha, plan = node_aggregate(h, graph, "colleague", NodeType.A,
                                          attn, gain, bias, slope=0.2)
        assert plan.covers_all
        # scores [0, ln 3] per segment -> alpha [1/4, 3/4]
        np.testing.assert_allclose(alpha.data.reshape(-1),
                                   [0.25, 0.75, 0.25, 0.75], atol=1e-15)
        agg = np.array([0.75 * LN3, 0.25 * 4.0])
        expect = _norm_leaky(agg)
        np.testing.assert_allclose(out.data, np.vstack([expect, expect]), atol=1e-14)

    def test_single_source_weight_is_one(self):
        # isolated node: its segment holds only the self-loop
        specs = [RelationSpec("colleague", RelationClass.INTRA_A,
                              NodeType.A, NodeType.A, symmetric=True)]
        feats = {NodeType.A: np.array([[2.0, -3.0]]), NodeType.B: np.zeros((1, 2))}
        graph = build_graph({NodeType.A: 1, NodeType.B: 1}, feats, specs, [])
        rng = rng_for(0, "w")
        attn = ops.constant(rng.normal(size=(4, 1)))
        gain, bias = _tensor([[1.0, 1.0]]), _tensor([[0.0, 0.0]])
        out, alpha, _ = node_aggregate(ops.constant(feats[NodeType.A]), graph,
                                       "colleague", NodeType.A, attn, gain, bias, 0.2)
        assert alpha.data.reshape(-1).tolist() == [1.0]
        np.testing.assert_allclose(out.data[0], _norm_leaky([2.0, -3.0]), atol=1e-14)

    def test_alpha_sums_per_segment(self):
        rng = rng_for(3, "agg")
        h = ops.constant(rng.normal(size=(5, 3)))
        specs = [RelationSpec("r", RelationClass.INTRA_A, NodeType.A, NodeType.A,
                              symmetric=True)]
        feats = {NodeType.A: h.data, NodeType.B: np.zeros((1, 3))}
        edges = [("r", 0, 1), ("r", 0, 2), ("r", 3, 4), ("r", 1, 2)]
        graph = build_graph({NodeType.A: 5, NodeType.B: 1}, feats, specs, edges)
        attn = ops.constant(rng.normal(size=(6, 1)))
        gain, bias = ops.constant(np.ones((1, 3))), ops.constant(np.zeros((1, 3)))
        _, alpha, plan = node_aggregate(h, graph, "r", NodeType.A,
                                        attn, gain, bias, 0.2)
        sums = np.add.reduceat(alpha.data.reshape(-1), plan.offsets[:-1])
        np.testing.assert_allclose(sums, np.ones(5), atol=1e-12)

    def test_no_per_edge_concat_or_target_gather(self):
        # edges are scored from two node-level columns: the tape must hold no
        # [E, 2d] concat and exactly one [E, d] gather (the sources, for the sum)
        rng = rng_for(4, "guard")
        d = 3
        specs = [RelationSpec("r", RelationClass.INTRA_A, NodeType.A, NodeType.A,
                              symmetric=True)]
        feats = {NodeType.A: rng.normal(size=(6, d)), NodeType.B: np.zeros((1, d))}
        edges = [("r", 0, 1), ("r", 0, 2), ("r", 3, 4), ("r", 1, 2), ("r", 5, 0)]
        graph = build_graph({NodeType.A: 6, NodeType.B: 1}, feats, specs, edges)
        plan = graph.message_plan("r", NodeType.A)
        h = Tensor(feats[NodeType.A], requires_grad=True)
        attn = Tensor(rng.normal(size=(2 * d, 1)), requires_grad=True)
        gain, bias = Tensor(np.ones((1, d))), Tensor(np.zeros((1, d)))
        with Tape() as tape:
            attend_over_plan(h, h, plan, attn, gain, bias, 0.2)
        shapes = [out.shape for out, _, _ in tape._records]
        assert plan.n_edges > 6
        assert (plan.n_edges, 2 * d) not in shapes
        assert shapes.count((plan.n_edges, d)) == 1

    def test_rejects_cross_relation(self):
        specs = [RelationSpec("wrote", RelationClass.INTER, NodeType.A, NodeType.B)]
        feats = {NodeType.A: np.zeros((2, 2)), NodeType.B: np.zeros((2, 2))}
        graph = build_graph({NodeType.A: 2, NodeType.B: 2}, feats, specs,
                            [("wrote", 0, 0)])
        t = _tensor([[0.0, 0.0]])
        with pytest.raises(RelationClassMismatch):
            node_aggregate(t, graph, "wrote", NodeType.A,
                           _tensor([[0.0]] * 4), t, t, 0.2)

    def test_rejects_wrong_side(self):
        graph = _pair_graph([[0.0, 0.0], [0.0, 0.0]])
        t = _tensor([[0.0, 0.0]])
        with pytest.raises(RelationClassMismatch):
            node_aggregate(t, graph, "colleague", NodeType.B,
                           _tensor([[0.0]] * 4), t, t, 0.2)


class TestRelationFuse:
    # score_vec [0,0,1,0] reads each relation summary's first coordinate
    SCORE = [[0.0], [0.0], [1.0], [0.0]]

    def test_hand_chain_with_global(self):
        base = _tensor([[5.0, 5.0]])
        reps = [_tensor([[0.0, 2.0]]), _tensor([[LN3, 7.0]])]
        masks = [np.array([True]), np.array([True])]
        glob = _tensor([[0.0, np.log(4.0)]])  # softmax -> [0.2, 0.8]
        mix = _tensor([[0.0]])                # sigmoid -> 0.5
        fused, local, grow, mval, coeff, mask = relation_fuse(
            base, reps, masks, _tensor(self.SCORE), glob, mix)
        np.testing.assert_allclose(local[0], [0.25, 0.75], atol=1e-15)
        np.testing.assert_allclose(grow, [0.2, 0.8], atol=1e-15)
        assert mval == 0.5
        np.testing.assert_allclose(coeff[0], [0.225, 0.775], atol=1e-15)
        np.testing.assert_allclose(
            fused.data[0], [0.775 * LN3, 0.225 * 2.0 + 0.775 * 7.0], atol=1e-14)
        assert mask.all()

    def test_local_only(self):
        base = _tensor([[1.0, 1.0]])
        reps = [_tensor([[0.0, 1.0]]), _tensor([[LN3, 3.0]])]
        masks = [np.array([True]), np.array([True])]
        fused, local, grow, mval, coeff, _ = relation_fuse(
            base, reps, masks, _tensor(self.SCORE), None, None)
        assert grow is None and mval is None
        np.testing.assert_allclose(coeff[0], [0.25, 0.75], atol=1e-15)
        np.testing.assert_allclose(fused.data[0],
                                   [0.75 * LN3, 0.25 + 2.25], atol=1e-14)

    def test_mask_renormalizes(self):
        base = _tensor([[0.0, 0.0]])
        reps = [_tensor([[3.0, 4.0]]), _tensor([[9.0, 9.0]])]
        masks = [np.array([True]), np.array([False])]
        glob = _tensor([[0.0, 100.0]])  # would pick relation 1 if unmasked
        fused, _, _, _, coeff, _ = relation_fuse(
            base, reps, masks, _tensor(self.SCORE), glob, _tensor([[0.0]]))
        np.testing.assert_allclose(coeff[0], [1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(fused.data[0], [3.0, 4.0], atol=1e-15)

    def test_unreached_node_gets_zero_row(self):
        base = _tensor([[0.0, 0.0], [0.0, 0.0]])
        reps = [_tensor([[1.0, 2.0], [3.0, 4.0]])]
        masks = [np.array([True, False])]
        fused, _, _, _, coeff, _ = relation_fuse(
            base, reps, masks, _tensor(self.SCORE), None, None)
        np.testing.assert_allclose(coeff, [[1.0], [0.0]], atol=1e-15)
        np.testing.assert_allclose(fused.data, [[1.0, 2.0], [0.0, 0.0]], atol=1e-15)

    def test_mean_fusion_ignores_scores(self):
        base = _tensor([[0.0, 0.0], [0.0, 0.0]])
        reps = [_tensor([[2.0, 0.0], [4.0, 0.0]]),
                _tensor([[0.0, 6.0], [8.0, 0.0]])]
        masks = [np.array([True, True]), np.array([True, False])]
        fused, local, grow, mval, coeff, _ = relation_fuse(
            base, reps, masks, None, None, None, mean_fusion=True)
        assert grow is None and mval is None
        np.testing.assert_allclose(coeff, [[0.5, 0.5], [1.0, 0.0]], atol=1e-15)
        np.testing.assert_allclose(fused.data, [[1.0, 3.0], [4.0, 0.0]], atol=1e-15)

    def test_coefficients_sum_to_one_or_zero(self):
        rng = rng_for(7, "fuse")
        n, k, d = 6, 3, 4
        base = ops.constant(rng.normal(size=(n, d)))
        reps = [ops.constant(rng.normal(size=(n, d))) for _ in range(k)]
        masks = [rng.random(n) < 0.7 for _ in range(k)]
        score = ops.constant(rng.normal(size=(2 * d, 1)))
        glob = ops.constant(rng.normal(size=(1, k)))
        mix = ops.constant(rng.normal(size=(1, 1)))
        _, _, _, _, coeff, mask = relation_fuse(base, reps, masks, score, glob, mix)
        any_rel = mask.any(axis=1)
        np.testing.assert_allclose(coeff.sum(axis=1)[any_rel],
                                   np.ones(any_rel.sum()), atol=1e-12)
        np.testing.assert_allclose(coeff.sum(axis=1)[~any_rel], 0.0, atol=0.0)

    def test_full_participation_matches_plain_softmax_weights(self):
        # with every mask true, the global side must be softmax(logits) bitwise
        rng = rng_for(9, "fuse2")
        n, k, d = 5, 4, 3
        base = ops.constant(rng.normal(size=(n, d)))
        reps = [ops.constant(rng.normal(size=(n, d))) for _ in range(k)]
        masks = [np.ones(n, dtype=bool) for _ in range(k)]
        glob = ops.constant(rng.normal(size=(1, k)))
        # mix logit large -> coefficient is the global row everywhere
        mix = ops.constant(np.array([[60.0]]))
        _, _, grow, _, coeff, _ = relation_fuse(
            base, reps, masks, ops.constant(rng.normal(size=(2 * d, 1))), glob, mix)
        e = np.exp(glob.data[0] - glob.data[0].max())
        np.testing.assert_allclose(grow, e / e.sum(), atol=0.0)
        np.testing.assert_allclose(coeff, np.tile(grow, (n, 1)), atol=1e-15)

    def test_empty_relation_list_raises(self):
        with pytest.raises(NoRelations):
            relation_fuse(_tensor([[0.0, 0.0]]), [], [], None, None, None,
                          mean_fusion=True)
