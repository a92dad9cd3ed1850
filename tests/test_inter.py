"""Cross-class encoder oracles: hand-computed attention toward each side,
coverage flags for unreached nodes, and the weighted residual."""
import numpy as np
import pytest

from duograph import inter, intra, ops
from duograph.errors import RelationClassMismatch, ShapeMismatch
from duograph.graph import NodeType, RelationClass, RelationSpec, build_graph
from duograph.inter import node_aggregate, weighted_residual
from duograph.tensor import Tape, Tensor, backward

LN3 = float(np.log(3.0))


def _tensor(rows):
    return ops.constant(np.array(rows, dtype=np.float64))


def _norm_leaky(vec, slope=0.2):
    v = np.asarray(vec, dtype=np.float64)
    x = (v - v.mean()) / np.sqrt(v.var() + 1e-5)
    return np.where(x >= 0, x, slope * x)


def _cross_graph(edges):
    specs = [RelationSpec("wrote", RelationClass.INTER, NodeType.A, NodeType.B)]
    feats = {NodeType.A: np.zeros((2, 2)), NodeType.B: np.zeros((2, 2))}
    return build_graph({NodeType.A: 2, NodeType.B: 2}, feats, specs, edges)


UNIT_GAIN = [[1.0, 1.0]]
ZERO_BIAS = [[0.0, 0.0]]


class TestCrossAggregate:
    def test_hand_chain_toward_papers(self):
        # paper 0 hears from authors 0 and 1; paper 1 hears nothing
        graph = _cross_graph([("wrote", 0, 0), ("wrote", 1, 0)])
        mapped_b = _tensor([[0.0, 4.0], [9.0, 9.0]])
        mapped_a = _tensor([[0.0, 4.0], [LN3, 0.0]])
        attn = _tensor([[0.0], [0.0], [1.0], [0.0]])  # score = source's first coord
        rows, alpha, block = node_aggregate(
            mapped_b, mapped_a, graph, ["wrote"], NodeType.B,
            [attn], [_tensor(UNIT_GAIN)], [_tensor(ZERO_BIAS)], 0.2)
        assert not block.covers_all
        assert block.mask[:, 0].tolist() == [True, False]
        np.testing.assert_allclose(alpha.data.reshape(-1), [0.25, 0.75], atol=1e-15)
        expect = _norm_leaky([0.75 * LN3, 0.25 * 4.0])
        np.testing.assert_allclose(rows.data[0], expect, atol=1e-14)
        np.testing.assert_allclose(rows.data[1], [0.0, 0.0], atol=0.0)

    def test_hand_chain_toward_authors(self):
        # same relation read the other way: author 1 hears from both papers
        graph = _cross_graph([("wrote", 1, 0), ("wrote", 1, 1)])
        mapped_a = _tensor([[7.0, 7.0], [0.0, 4.0]])
        mapped_b = _tensor([[0.0, 4.0], [LN3, 0.0]])
        attn = _tensor([[0.0], [0.0], [1.0], [0.0]])
        rows, alpha, block = node_aggregate(
            mapped_a, mapped_b, graph, ["wrote"], NodeType.A,
            [attn], [_tensor(UNIT_GAIN)], [_tensor(ZERO_BIAS)], 0.2)
        assert block.mask[:, 0].tolist() == [False, True]
        np.testing.assert_allclose(alpha.data.reshape(-1), [0.25, 0.75], atol=1e-15)
        expect = _norm_leaky([0.75 * LN3, 0.25 * 4.0])
        np.testing.assert_allclose(rows.data[1], expect, atol=1e-14)
        np.testing.assert_allclose(rows.data[0], [0.0, 0.0], atol=0.0)

    def test_full_coverage_skips_scatter(self):
        graph = _cross_graph([("wrote", 0, 0), ("wrote", 0, 1)])
        mapped_b = _tensor([[1.0, 2.0], [3.0, 4.0]])
        mapped_a = _tensor([[5.0, 6.0], [0.0, 0.0]])
        attn = _tensor([[0.0]] * 4)
        rows, alpha, block = node_aggregate(
            mapped_b, mapped_a, graph, ["wrote"], NodeType.B,
            [attn], [_tensor(UNIT_GAIN)], [_tensor(ZERO_BIAS)], 0.2)
        assert block.covers_all and block.mask.all()
        # each paper has the single author 0: normalized copy of its row
        np.testing.assert_allclose(alpha.data.reshape(-1), [1.0, 1.0], atol=0.0)
        np.testing.assert_allclose(rows.data[0], _norm_leaky([5.0, 6.0]), atol=1e-14)

    def test_zero_edges(self):
        graph = _cross_graph([])
        mapped = _tensor([[1.0, 1.0], [1.0, 1.0]])
        rows, alpha, block = node_aggregate(
            mapped, mapped, graph, ["wrote"], NodeType.B,
            [_tensor([[0.0]] * 4)], [_tensor(UNIT_GAIN)], [_tensor(ZERO_BIAS)], 0.2)
        assert block.n_edges == 0 and alpha is None
        assert not block.mask.any()
        np.testing.assert_allclose(rows.data, np.zeros((2, 2)), atol=0.0)

    def test_rejects_within_class_relation(self):
        specs = [RelationSpec("colleague", RelationClass.INTRA_A,
                              NodeType.A, NodeType.A, symmetric=True)]
        feats = {NodeType.A: np.zeros((2, 2)), NodeType.B: np.zeros((1, 2))}
        graph = build_graph({NodeType.A: 2, NodeType.B: 1}, feats, specs,
                            [("colleague", 0, 1)])
        t = _tensor([[0.0, 0.0]])
        with pytest.raises(RelationClassMismatch):
            node_aggregate(t, t, graph, ["colleague"], NodeType.A,
                           [_tensor([[0.0]] * 4)], [t], [t], 0.2)


class TestWeightedResidual:
    def test_hand_value_half(self):
        # 0.5*leaky([2,0]) + 0.5*[0,2] = [1,1]; norm of a constant row is 0
        got = weighted_residual(_tensor([[2.0, 0.0]]), _tensor([[0.0, 2.0]]), 0.5,
                                _tensor(UNIT_GAIN), _tensor(ZERO_BIAS), 0.2)
        np.testing.assert_allclose(got.data, [[0.0, 0.0]], atol=0.0)

    def test_weight_one_keeps_new_only(self):
        new, old = _tensor([[4.0, -2.0]]), _tensor([[100.0, 100.0]])
        got = weighted_residual(new, old, 1.0,
                                _tensor(UNIT_GAIN), _tensor(ZERO_BIAS), 0.2)
        np.testing.assert_allclose(got.data[0], _norm_leaky_free([4.0, -0.4]),
                                   atol=1e-14)

    def test_weight_zero_keeps_old_only(self):
        new, old = _tensor([[100.0, 100.0]]), _tensor([[3.0, 1.0]])
        got = weighted_residual(new, old, 0.0,
                                _tensor(UNIT_GAIN), _tensor(ZERO_BIAS), 0.2)
        np.testing.assert_allclose(got.data[0], _norm_leaky_free([3.0, 1.0]),
                                   atol=1e-14)

    def test_gain_and_bias_apply(self):
        got = weighted_residual(_tensor([[2.0, 0.0]]), _tensor([[2.0, 0.0]]), 0.5,
                                _tensor([[3.0, 3.0]]), _tensor([[1.0, -1.0]]), 0.2)
        base = _norm_leaky_free([2.0, 0.0])
        np.testing.assert_allclose(got.data[0], 3.0 * base + [1.0, -1.0], atol=1e-14)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            weighted_residual(_tensor([[1.0, 1.0]]), _tensor([[1.0, 1.0, 1.0]]),
                              0.5, _tensor(UNIT_GAIN), _tensor(ZERO_BIAS), 0.2)

    def test_weight_out_of_range(self):
        t = _tensor([[1.0, 1.0]])
        with pytest.raises(ShapeMismatch):
            weighted_residual(t, t, 1.5, _tensor(UNIT_GAIN), _tensor(ZERO_BIAS), 0.2)


def _norm_leaky_free(vec):
    # plain layer_norm (no activation afterwards), unit gain, zero bias
    v = np.asarray(vec, dtype=np.float64)
    return (v - v.mean()) / np.sqrt(v.var() + 1e-5)


def _block_graph():
    """Within-A, and cross relations that leave targets unreached; x1 has no edge."""
    rng = np.random.default_rng(4)
    specs = [RelationSpec("r0", RelationClass.INTRA_A, NodeType.A, NodeType.A, symmetric=True),
             RelationSpec("r1", RelationClass.INTRA_A, NodeType.A, NodeType.A),
             RelationSpec("x0", RelationClass.INTER, NodeType.A, NodeType.B),
             RelationSpec("x1", RelationClass.INTER, NodeType.A, NodeType.B),
             RelationSpec("x2", RelationClass.INTER, NodeType.B, NodeType.A)]
    edges = [("r0", 0, 1), ("r0", 2, 3), ("r0", 4, 1), ("r1", 5, 6), ("r1", 6, 0),
             ("r1", 1, 0), ("r1", 3, 0), ("x0", 0, 0), ("x0", 1, 0), ("x0", 2, 3),
             ("x0", 6, 5), ("x2", 0, 2), ("x2", 3, 2), ("x2", 5, 4), ("x2", 1, 6)]
    feats = {NodeType.A: np.zeros((7, 4)), NodeType.B: np.zeros((6, 4))}
    return build_graph({NodeType.A: 7, NodeType.B: 6}, feats, specs, edges), rng


def _per_relation(graph, rels, t, h, attns, gains, biases):
    """The block's rows computed one relation at a time with single-relation ops."""
    n, d = graph.n_nodes(t), h[t].shape[1]
    reps = []
    for rel, attn, gain, bias in zip(rels, attns, gains, biases):
        plan = graph.message_plan(rel, t)
        if plan.n_edges == 0:
            reps.append(ops.constant(np.zeros((n, d))))
            continue
        src = h[t] if graph.spec(rel).is_intra else h[t.other]
        scores = ops.leaky_relu(ops.edge_scores(h[t], src, attn, plan.edge_targets,
                                                plan.sources), 0.2)
        alpha = ops.segment_softmax(scores, plan.offsets)
        layout = ops.degree_layout(plan.offsets, plan.sources)
        agg = ops.weighted_sum_rows(alpha, src, layout)
        rep = ops.leaky_relu(ops.layer_norm(agg, gain, bias), 0.2)
        reps.append(rep if plan.covers_all else ops.scatter_rows(rep, plan.rows, n))
    return reps


class TestRelationBlock:
    @pytest.mark.parametrize("case", ["within A", "cross to B", "cross to A", "unified A"])
    def test_block_equals_one_pass_per_relation(self, case):
        graph, rng = _block_graph()
        t = NodeType.B if case == "cross to B" else NodeType.A
        rels = {"within A": ["r0", "r1"], "unified A": ["r0", "r1", "x0", "x1", "x2"]}.get(
            case, ["x0", "x1", "x2"])
        h = {s: Tensor(rng.standard_normal((graph.n_nodes(s), 4)), requires_grad=True)
             for s in (NodeType.A, NodeType.B)}
        attns = [Tensor(rng.standard_normal((8, 1)), requires_grad=True) for _ in rels]
        gains = [Tensor(rng.uniform(0.5, 1.5, (1, 4)), requires_grad=True) for _ in rels]
        biases = [Tensor(rng.uniform(-0.5, 0.5, (1, 4)), requires_grad=True) for _ in rels]
        leaves = [*h.values(), *attns, *gains, *biases]
        g = rng.standard_normal((len(rels) * graph.n_nodes(t), 4))

        with Tape() as tape:
            if case == "within A":
                block_rows, alpha, block = intra.node_aggregate(
                    h[t], graph, rels, t, attns, gains, biases, 0.2)
            else:
                block_rows, alpha, block = inter.node_aggregate(
                    h[t], h[t.other], graph, rels, t, attns, gains, biases, 0.2)
            loss = ops.sum_all(ops.mul(block_rows, ops.constant(g)))
        backward(tape, loss)
        block_grads = [leaf.grad for leaf in leaves]
        for leaf in leaves:
            leaf.zero_grad()

        with Tape() as tape:
            reps = _per_relation(graph, rels, t, h, attns, gains, biases)
            n = graph.n_nodes(t)
            loss = ops.constant(np.zeros((1, 1)))
            for k, rep in enumerate(reps):
                loss = ops.add(loss, ops.sum_all(ops.mul(rep, ops.constant(g[k * n:(k + 1) * n]))))
        backward(tape, loss)

        assert block.stacked == (case == "unified A")
        if case != "within A":
            assert not block.covers_all and not block.mask[:, rels.index("x1")].any()
        np.testing.assert_allclose(block_rows.data, np.vstack([r.data for r in reps]),
                                   rtol=0.0, atol=1e-12)
        for k, rel in enumerate(rels):
            plan = graph.message_plan(rel, t)
            assert block.mask[:, k].tolist() == np.isin(np.arange(n), plan.rows).tolist()
            assert alpha.data[block.edge_runs[k]].shape == (plan.n_edges, 1)
        for got, leaf in zip(block_grads, leaves):
            np.testing.assert_allclose(got, leaf.grad, rtol=0.0, atol=1e-12)
