import json
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from duograph import inter, ops
from duograph.errors import (EmptySegment, IoFailure, NonScalarLoss, ShapeMismatch,
                             TapeConsumed)
from duograph.graph import NodeType, RelationClass, RelationSpec, build_graph
from duograph.tensor import Tape, Tensor, backward, load_tensors, save_tensors

import reference
from fd import fd_gradient, rel_err

RNG = np.random.default_rng(20240817)


def _param(shape, low=-2.0, high=2.0):
    return Tensor(RNG.uniform(low, high, size=shape), requires_grad=True)


def _scalar_through(fn, *tensors):
    """Run fn under a fresh tape, reduce to scalar via sum, return loss value."""
    with Tape() as tape:
        out = fn(*tensors)
        loss = ops.sum_all(out) if out.shape != (1, 1) else out
    return tape, loss


def check_op_gradient(fn, tensors, tol=1e-4):
    tape, loss = _scalar_through(fn, *tensors)
    backward(tape, loss)
    for t in tensors:
        if not t.requires_grad:
            continue
        numeric = fd_gradient(lambda: _scalar_through(fn, *tensors)[1].data[0, 0], t)
        assert rel_err(t.grad, numeric) < tol


class TestTapeMechanics:
    def test_backward_replays_in_reverse_and_accumulates(self):
        x = Tensor([[1.0, 2.0]], requires_grad=True)
        with Tape() as tape:
            y = ops.add(x, x)
            loss = ops.sum_all(y)
        backward(tape, loss)
        np.testing.assert_allclose(x.grad, [[2.0, 2.0]])

    def test_non_scalar_loss_rejected(self):
        x = Tensor([[1.0, 2.0]], requires_grad=True)
        with Tape() as tape:
            y = ops.add(x, x)
        with pytest.raises(NonScalarLoss):
            backward(tape, y)

    def test_tape_is_one_shot(self):
        x = Tensor([[3.0]], requires_grad=True)
        with Tape() as tape:
            loss = ops.scalar_mul(x, 2.0)
        backward(tape, loss)
        with pytest.raises(TapeConsumed):
            backward(tape, loss)

    def test_unreachable_parameter_keeps_zero_grad(self):
        x = Tensor([[1.0]], requires_grad=True)
        unused = Tensor([[5.0]], requires_grad=True)
        with Tape() as tape:
            loss = ops.scalar_mul(x, 3.0)
        backward(tape, loss)
        np.testing.assert_array_equal(unused.grad, [[0.0]])

    def test_no_tape_means_no_tracking(self):
        x = Tensor([[1.0]], requires_grad=True)
        y = ops.scalar_mul(x, 2.0)
        assert not y.requires_grad

    def test_first_gradient_is_copied_and_zero_signs_cleared(self):
        x = Tensor([[1.0, 2.0]], requires_grad=True)
        g = np.array([[-0.0, 3.0]])
        x.accumulate_grad(g)
        g[0, 1] = 99.0
        assert x.grad.tolist() == [[0.0, 3.0]]
        assert not np.signbit(x.grad).any()

    def test_unread_forward_array_is_freed_while_the_tape_lives(self):
        # leaky_relu saves a bool mask, not its input, and the tape keeps
        # only output shapes, so nothing holds the layer_norm output once
        # the caller drops it
        def run(drop):
            x = Tensor(np.linspace(-2.0, 3.0, 12).reshape(3, 4), requires_grad=True)
            gain = Tensor([[1.5, -0.5, 1.0, 2.0]], requires_grad=True)
            bias = Tensor([[-0.5, 0.25, 0.0, 1.0]], requires_grad=True)
            with Tape() as tape:
                normed = ops.layer_norm(x, gain, bias)
                array = weakref.ref(normed.data)
                act = ops.leaky_relu(normed)
                if drop:
                    del normed
                loss = ops.sum_all(act)
            freed = array() is None
            backward(tape, loss)
            return freed, [t.grad.tobytes() for t in (x, gain, bias)]

        (freed, grads), (kept, want) = run(drop=True), run(drop=False)
        assert freed and not kept
        assert grads == want

    def test_output_of_another_tape_is_a_leaf(self):
        x = Tensor([[1.0, -2.0]], requires_grad=True)
        with Tape() as first:
            y = ops.scalar_mul(x, 3.0)
        with Tape() as second:
            loss = ops.sum_all(ops.mul(y, y))
        assert first.slot(y) == 0 and second.slot(y) is None
        backward(second, loss)
        np.testing.assert_array_equal(y.grad, 2.0 * y.data)
        np.testing.assert_array_equal(x.grad, [[0.0, 0.0]])

    def test_kept_output_does_not_keep_its_tape(self):
        x = Tensor([[1.0]], requires_grad=True)
        with Tape() as tape:
            y = ops.scalar_mul(x, 2.0)
        dropped = weakref.ref(tape)
        del tape
        assert dropped() is None and y.requires_grad

    def test_scalars_are_1x1(self):
        t = Tensor(3.5)
        assert t.shape == (1, 1)
        row = Tensor([1.0, 2.0, 3.0])
        assert row.shape == (1, 3)


class TestPrimitiveGradients:
    """Every primitive's backward agrees with central differences."""

    def test_matmul(self):
        # dL/dW of sum(X @ W) has the column-sum-of-X structure; FD confirms
        x = _param((4, 3))
        w = _param((3, 5))
        check_op_gradient(ops.matmul, [x, w])

    def test_matmul_shape_check(self):
        with pytest.raises(ShapeMismatch):
            ops.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_add_same_shape(self):
        check_op_gradient(ops.add, [_param((3, 4)), _param((3, 4))])

    def test_add_scalar_broadcast(self):
        check_op_gradient(ops.add, [_param((3, 4)), _param((1, 1))])

    def test_mul_same_shape(self):
        check_op_gradient(ops.mul, [_param((3, 4)), _param((3, 4))])

    def test_mul_column_broadcast(self):
        check_op_gradient(ops.mul, [_param((5, 3)), _param((5, 1))])

    def test_mul_outer_broadcast(self):
        check_op_gradient(ops.mul, [_param((4, 1)), _param((1, 3))])

    def test_scalar_mul(self):
        check_op_gradient(lambda x: ops.scalar_mul(x, -1.7), [_param((2, 3))])

    def test_gather_rows_with_repeats(self):
        x = _param((5, 3))
        idx = np.array([0, 2, 2, 4, 1, 2])
        check_op_gradient(lambda t: ops.gather_rows(t, idx), [x])

    def test_gather_rows_backward_matches_add_at_bitwise(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((7, 3)), requires_grad=True)
        idx = rng.integers(0, 7, size=40)
        g = rng.standard_normal((40, 3)) * 10.0 ** rng.integers(-8, 8, size=(40, 1))
        with Tape() as tape:
            loss = ops.sum_all(ops.mul(ops.gather_rows(x, idx), ops.constant(g)))
        backward(tape, loss)
        expected = np.zeros((7, 3))
        np.add.at(expected, idx, g)
        assert x.grad.tobytes() == (expected + 0.0).tobytes()

    # edge_scores: targets and sources repeat, and row 3 of h_t gets no edge
    TARGETS = np.array([0, 2, 2, 4, 1, 0, 2])
    SOURCES = np.array([3, 0, 1, 3, 3, 2, 0])

    def test_edge_scores(self):
        # random per-edge weights, so each edge's gradient share must be right
        w = ops.constant(RNG.uniform(-2.0, 2.0, size=(7, 1)))
        check_op_gradient(
            lambda ht, hs, a: ops.mul(ops.edge_scores(ht, hs, a, self.TARGETS, self.SOURCES), w),
            [_param((5, 3)), _param((4, 3)), _param((6, 1))])

    def test_edge_scores_shared_input_accumulates_both_parts(self):
        # within-class attention scores an edge from one tensor on both sides
        w = ops.constant(RNG.uniform(-2.0, 2.0, size=(7, 1)))
        check_op_gradient(
            lambda h, a: ops.mul(ops.edge_scores(h, h, a, self.TARGETS, self.SOURCES), w),
            [_param((5, 3)), _param((6, 1))])

    def test_edge_scores_match_concat_matmul(self):
        rng = np.random.default_rng(9)
        h_t = Tensor(rng.standard_normal((30, 16)), requires_grad=True)
        h_s = Tensor(rng.standard_normal((20, 16)), requires_grad=True)
        attn = Tensor(rng.standard_normal((32, 1)), requires_grad=True)
        tgt, src = rng.integers(0, 30, size=400), rng.integers(0, 20, size=400)
        split = ops.edge_scores(h_t, h_s, attn, tgt, src)
        joint = ops.matmul(ops.concat_cols(ops.gather_rows(h_t, tgt),
                                           ops.gather_rows(h_s, src)), attn)
        assert split.shape == (400, 1)
        np.testing.assert_allclose(split.data, joint.data, rtol=0.0, atol=1e-12)

    def test_edge_scores_k_vectors(self):
        # three attention vectors; flat indices address the [n,3] score matrices
        w = ops.constant(RNG.uniform(-2.0, 2.0, size=(7, 1)))
        tgt, src = self.TARGETS * 3 + np.arange(7) % 3, self.SOURCES * 3 + np.arange(7) % 3
        check_op_gradient(
            lambda ht, hs, a0, a1, a2: ops.mul(ops.edge_scores(ht, hs, [a0, a1, a2], tgt, src), w),
            [_param((5, 3)), _param((4, 3)), _param((6, 1)), _param((6, 1)), _param((6, 1))])

    def test_edge_scores_k_vectors_match_one_call_per_vector(self):
        rng = np.random.default_rng(10)
        h_t, h_s = Tensor(rng.standard_normal((30, 8))), Tensor(rng.standard_normal((20, 8)))
        attns = [Tensor(rng.standard_normal((16, 1))) for _ in range(4)]
        k = rng.integers(0, 4, size=300)
        tgt, src = rng.integers(0, 30, size=300), rng.integers(0, 20, size=300)
        block = ops.edge_scores(h_t, h_s, attns, tgt * 4 + k, src * 4 + k)
        for j, attn in enumerate(attns):
            one = ops.edge_scores(h_t, h_s, attn, tgt[k == j], src[k == j])
            np.testing.assert_allclose(block.data[k == j], one.data, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("case", ["target high", "source negative", "lengths",
                                      "attn rows", "attn cols", "source width"])
    def test_edge_scores_shape_checks(self, case):
        h_t, h_s, attn = np.ones((5, 3)), np.ones((4, 3)), np.ones((6, 1))
        tgt, src = np.array([0, 4]), np.array([3, 0])
        if case == "target high":
            tgt = np.array([0, 5])
        elif case == "source negative":
            src = np.array([-1, 0])
        elif case == "lengths":
            src = np.array([3, 0, 1])
        elif case == "attn rows":
            attn = np.ones((7, 1))
        elif case == "attn cols":
            attn = np.ones((6, 2))
        else:
            h_s = np.ones((4, 2))
        with pytest.raises(ShapeMismatch):
            ops.edge_scores(Tensor(h_t), Tensor(h_s), Tensor(attn), tgt, src)

    def test_scatter_rows(self):
        x = _param((3, 2))
        idx = np.array([4, 0, 2])
        check_op_gradient(lambda t: ops.scatter_rows(t, idx, 6), [x])

    def test_scatter_rejects_duplicate_targets(self):
        with pytest.raises(ShapeMismatch):
            ops.scatter_rows(Tensor(np.ones((2, 2))), np.array([1, 1]), 4)

    @pytest.mark.parametrize("idx", [[0, 3, 0], [5, 1, 2, 5], [2, 0, 1, 0, 2], [0] * 4])
    def test_scatter_rejects_any_repeated_destination(self, idx):
        with pytest.raises(ShapeMismatch, match="unique"):
            ops.scatter_rows(Tensor(np.ones((len(idx), 2))), np.array(idx), 6)

    def test_scatter_of_no_rows_is_zeros(self):
        out = ops.scatter_rows(Tensor(np.ones((0, 2))), np.array([], dtype=np.int64), 3)
        np.testing.assert_array_equal(out.data, np.zeros((3, 2)))

    def test_concat_cols(self):
        check_op_gradient(ops.concat_cols, [_param((3, 2)), _param((3, 4))])

    def test_concat_rows(self):
        check_op_gradient(ops.concat_rows, [_param((2, 3)), _param((4, 3))])

    def test_combine_blocks(self):
        w = ops.constant(RNG.uniform(-1, 1, (4, 3)))
        check_op_gradient(lambda c, b: ops.mul(ops.combine_blocks(c, b), w),
                          [_param((4, 3)), _param((12, 3))])

    def test_combine_blocks_matches_mul_add_chain_bitwise(self):
        rng = np.random.default_rng(8)
        n, k, d = 6, 4, 5
        coeff = Tensor(rng.standard_normal((n, k)), requires_grad=True)
        block = Tensor(rng.standard_normal((k * n, d)), requires_grad=True)
        g = rng.standard_normal((n, d))
        with Tape() as tape:
            loss = ops.sum_all(ops.mul(ops.combine_blocks(coeff, block), ops.constant(g)))
        backward(tape, loss)
        runs = [block.data[j * n:(j + 1) * n] for j in range(k)]
        fused = coeff.data[:, :1] * runs[0]
        for j in range(1, k):
            fused = fused + coeff.data[:, j:j + 1] * runs[j]
        assert np.array_equal(ops.combine_blocks(coeff, block).data, fused)
        assert np.array_equal(coeff.grad, np.column_stack([(g * r).sum(axis=1) for r in runs]))
        assert np.array_equal(block.grad, np.vstack([g * coeff.data[:, j:j + 1]
                                                     for j in range(k)]))

    def test_combine_blocks_shape_check(self):
        with pytest.raises(ShapeMismatch):
            ops.combine_blocks(Tensor(np.ones((3, 2))), Tensor(np.ones((5, 4))))

    def test_reshape(self):
        check_op_gradient(lambda t: ops.mul(ops.reshape(t, 2, 6), ops.constant(np.arange(12.0).reshape(2, 6))),
                          [_param((4, 3))])

    def test_leaky_relu(self):
        x = Tensor(np.array([[-1.5, -0.3, 0.4], [1.2, -0.8, 0.9]]), requires_grad=True)
        check_op_gradient(lambda t: ops.leaky_relu(t, 0.2), [x])

    def test_leaky_relu_values_and_kink(self):
        x = Tensor([[-2.0, 0.0, 3.0]], requires_grad=True)
        with Tape() as tape:
            y = ops.leaky_relu(x, 0.2)
            loss = ops.sum_all(y)
        np.testing.assert_allclose(y.data, [[-0.4, 0.0, 3.0]])
        backward(tape, loss)
        # derivative at exactly 0 is defined as 1
        np.testing.assert_allclose(x.grad, [[0.2, 1.0, 1.0]])

    def test_sigmoid(self):
        check_op_gradient(ops.sigmoid, [_param((3, 3))])

    def test_sigmoid_extreme_values_stable(self):
        y = ops.sigmoid(Tensor([[-1e9, 1e9, 0.0]]))
        np.testing.assert_allclose(y.data, [[0.0, 1.0, 0.5]])

    def test_softplus(self):
        check_op_gradient(ops.softplus, [_param((3, 3))])

    def test_softplus_matches_log1p_exp(self):
        x = np.array([[-3.0, 0.0, 2.5]])
        np.testing.assert_allclose(ops.softplus(Tensor(x)).data, np.log1p(np.exp(x)))

    def test_log(self):
        check_op_gradient(ops.log, [_param((3, 2), low=0.1, high=2.0)])

    def test_row_sum(self):
        check_op_gradient(lambda t: ops.mul(ops.row_sum(t), ops.constant([[1.0], [2.0], [3.0]])),
                          [_param((3, 4))])

    def test_sum_all(self):
        check_op_gradient(ops.sum_all, [_param((3, 4))])

    def test_segment_softmax(self):
        x = _param((7, 1))
        off = np.array([0, 3, 4, 7])
        coeff = ops.constant(RNG.uniform(-1, 1, size=(7, 1)))
        check_op_gradient(lambda t: ops.mul(ops.segment_softmax(t, off), coeff), [x])

    def test_segment_softmax_two_entries(self):
        # closed form: scores [0, ln 3] in one segment -> [1/4, 3/4]
        y = ops.segment_softmax(Tensor([[0.0], [np.log(3.0)]]), np.array([0, 2]))
        np.testing.assert_allclose(y.data, [[0.25], [0.75]], rtol=0, atol=1e-15)

    def test_segment_softmax_sums_to_one(self):
        x = Tensor(RNG.uniform(-30, 30, size=(11, 1)))
        off = np.array([0, 2, 5, 6, 11])
        y = ops.segment_softmax(x, off)
        sums = np.add.reduceat(y.data[:, 0], off[:-1])
        np.testing.assert_allclose(sums, 1.0, atol=1e-9)

    def test_segment_softmax_rejects_empty_segment(self):
        with pytest.raises(EmptySegment):
            ops.segment_softmax(Tensor(np.ones((3, 1))), np.array([0, 1, 1, 3]))

    def test_weighted_sum_rows(self):
        # sources 1 and 3 repeat; source 2 is read by no edge
        w = _param((7, 1))
        v = _param((5, 3))
        off = np.array([0, 2, 3, 7])
        sources = np.array([1, 3, 0, 3, 1, 4, 1])
        layout = ops.degree_layout(off, sources)
        check_op_gradient(lambda a, b: ops.weighted_sum_rows(a, b, layout), [w, v])
        assert v.grad[2].tolist() == [0.0, 0.0, 0.0]

    def test_layer_norm(self):
        x = _param((4, 5))
        gain = _param((1, 5), low=0.5, high=1.5)
        bias = _param((1, 5), low=-0.5, high=0.5)
        check_op_gradient(ops.layer_norm, [x, gain, bias])

    def test_layer_norm_unit_row(self):
        # row [1, -1]: mean 0, population var 1, so output is x/sqrt(1+eps)
        x = Tensor([[1.0, -1.0]])
        gain = Tensor(np.ones((1, 2)))
        bias = Tensor(np.zeros((1, 2)))
        y = ops.layer_norm(x, gain, bias)
        expected = np.array([[1.0, -1.0]]) / np.sqrt(1.0 + 1e-5)
        np.testing.assert_allclose(y.data, expected, rtol=0, atol=1e-15)
        np.testing.assert_allclose(y.data, [[1.0, -1.0]], atol=1e-4)

    def test_layer_norm_matches_mean_var_bitwise(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((9, 16)) * 10.0 ** rng.integers(-3, 4, size=(9, 1))
        gain = Tensor(rng.uniform(0.5, 1.5, size=(1, 16)))
        bias = Tensor(rng.uniform(-0.5, 0.5, size=(1, 16)))
        y = ops.layer_norm(Tensor(x), gain, bias)
        xhat = (x - x.mean(axis=1, keepdims=True)) * (
            1.0 / np.sqrt(x.var(axis=1, keepdims=True) + 1e-5))
        assert y.data.tobytes() == (xhat * gain.data + bias.data).tobytes()

    def test_layer_norm_runs(self):
        # three gain/bias pairs over row runs of 2, 0 and 3 rows
        runs = (slice(0, 2), slice(2, 2), slice(2, 5))
        check_op_gradient(
            lambda x, g0, g1, g2, b0, b1, b2: ops.layer_norm(x, [g0, g1, g2], [b0, b1, b2], runs),
            [_param((5, 4))] + [_param((1, 4), low=0.5, high=1.5) for _ in range(3)]
            + [_param((1, 4), low=-0.5, high=0.5) for _ in range(3)])

    @pytest.mark.parametrize("sizes", [(9,), (3, 0, 4, 2)])
    def test_layer_norm_matches_separate_norms_bitwise(self, sizes):
        # the in-place op against the plain formula applied to each run apart
        rng = np.random.default_rng(len(sizes))
        n, d = sum(sizes), 16
        x = Tensor(rng.standard_normal((n, d)) * 10.0 ** rng.integers(-3, 4, size=(n, 1)),
                   requires_grad=True)
        gains = [Tensor(rng.uniform(0.5, 1.5, (1, d)), requires_grad=True) for _ in sizes]
        biases = [Tensor(rng.uniform(-0.5, 0.5, (1, d)), requires_grad=True) for _ in sizes]
        g = rng.standard_normal((n, d))
        ends = np.cumsum(sizes)
        runs = [slice(int(e - s), int(e)) for s, e in zip(sizes, ends)]
        with Tape() as tape:
            y = ops.layer_norm(x, gains, biases, runs)
            loss = ops.sum_all(ops.mul(y, ops.constant(g)))
        backward(tape, loss)
        want = [_layer_norm_formula(x.data[r], gn.data, bs.data, g[r])
                for r, gn, bs in zip(runs, gains, biases)]
        assert np.array_equal(y.data, np.vstack([w[0] for w in want]))
        assert np.array_equal(x.grad, np.vstack([w[1] for w in want]))
        for (_, _, gg, gb), gn, bs in zip(want, gains, biases):
            assert np.array_equal(gn.grad, gg) and np.array_equal(bs.grad, gb)

    def test_layer_norm_with_slope(self):
        check_op_gradient(lambda x, g, b: ops.layer_norm(x, g, b, slope=0.2),
                          [_param((4, 5)), _param((1, 5), low=0.5, high=1.5),
                           _param((1, 5), low=-0.5, high=0.5)])

    def test_layer_norm_runs_with_slope(self):
        runs = (slice(0, 2), slice(2, 2), slice(2, 5))
        check_op_gradient(
            lambda x, g0, g1, g2, b0, b1, b2: ops.layer_norm(x, [g0, g1, g2], [b0, b1, b2],
                                                             runs, slope=0.3),
            [_param((5, 4))] + [_param((1, 4), low=0.5, high=1.5) for _ in range(3)]
            + [_param((1, 4), low=-0.5, high=0.5) for _ in range(3)])

    def test_residual_mix(self):
        check_op_gradient(lambda new, old: ops.residual_mix(new, old, 0.7, 0.2),
                          [_param((4, 3)), _param((4, 3))])

    @pytest.mark.parametrize("slope", [0.0, 1.0, -0.2])
    def test_fused_primitives_check_the_slope(self, slope):
        x, gain, bias = Tensor(np.ones((2, 3))), Tensor(np.ones((1, 3))), Tensor(np.ones((1, 3)))
        with pytest.raises(ShapeMismatch):
            ops.layer_norm(x, gain, bias, slope=slope)
        with pytest.raises(ShapeMismatch):
            ops.residual_mix(x, x, 0.5, slope)

    def test_residual_mix_shape_check(self):
        with pytest.raises(ShapeMismatch):
            ops.residual_mix(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 3))), 0.5, 0.2)

    @pytest.mark.parametrize("runs", [(slice(0, 2), slice(3, 5)), (slice(0, 4),),
                                      (slice(0, 2), slice(2, 6))])
    def test_layer_norm_runs_must_cover_rows(self, runs):
        pairs = [Tensor(np.ones((1, 3))) for _ in runs]
        with pytest.raises(ShapeMismatch):
            ops.layer_norm(Tensor(np.ones((5, 3))), pairs, pairs, runs)

    def test_softmax_rows(self):
        # the all-true mask is the plain row softmax of the cross-entropy
        x = _param((4, 5))
        coeff = ops.constant(RNG.uniform(-1, 1, (4, 5)))
        every = np.ones((4, 5), dtype=bool)
        check_op_gradient(lambda t: ops.mul(ops.masked_softmax_rows(t, every), coeff), [x])

    def test_softmax_rows_shift_invariant(self):
        x = RNG.uniform(-2, 2, size=(3, 4))
        every = np.ones(x.shape, dtype=bool)
        a = ops.masked_softmax_rows(Tensor(x), every).data
        b = ops.masked_softmax_rows(Tensor(x + 100.0), every).data
        np.testing.assert_allclose(a, b, atol=1e-12)
        e = np.exp(x - x.max(axis=1, keepdims=True))
        np.testing.assert_allclose(a, e / e.sum(axis=1, keepdims=True), atol=1e-15)

    def test_masked_softmax_rows(self):
        x = _param((4, 3))
        mask = np.array([[True, False, True],
                         [True, True, True],
                         [False, False, True],
                         [True, True, False]])
        coeff = ops.constant(RNG.uniform(-1, 1, (4, 3)))
        check_op_gradient(lambda t: ops.mul(ops.masked_softmax_rows(t, mask), coeff), [x])

    def test_masked_softmax_dead_row_is_zero(self):
        x = Tensor(RNG.uniform(-2, 2, (2, 3)))
        mask = np.array([[False, False, False], [True, False, True]])
        y = ops.masked_softmax_rows(x, mask)
        np.testing.assert_array_equal(y.data[0], 0.0)
        assert y.data[1, 1] == 0.0
        np.testing.assert_allclose(y.data[1].sum(), 1.0, atol=1e-12)

    def test_dropout_train_scaling_and_grad(self):
        x = Tensor(np.ones((200, 10)), requires_grad=True)
        rng = np.random.default_rng(7)
        with Tape() as tape:
            y = ops.dropout(x, 0.4, rng)
            loss = ops.sum_all(y)
        kept = y.data != 0
        np.testing.assert_allclose(y.data[kept], 1.0 / 0.6)
        assert abs(kept.mean() - 0.6) < 0.05
        backward(tape, loss)
        np.testing.assert_allclose(x.grad[kept], 1.0 / 0.6)
        np.testing.assert_array_equal(x.grad[~kept], 0.0)

    def test_dropout_rate_zero_identity(self):
        x = Tensor(np.ones((3, 3)), requires_grad=True)
        assert ops.dropout(x, 0.0, np.random.default_rng(0)) is x

    def test_dropout_seeded_determinism(self):
        x = Tensor(np.ones((50, 4)))
        a = ops.dropout(x, 0.3, np.random.default_rng(11)).data
        b = ops.dropout(x, 0.3, np.random.default_rng(11)).data
        np.testing.assert_array_equal(a, b)


def _weighted_sum_oracle(w, h, sources, offsets, g):
    """The gather-then-reduceat aggregation and its gradients, in plain numpy."""
    seg_len = np.diff(offsets)
    rows = h[sources]
    out = np.add.reduceat(w * rows, offsets[:-1], axis=0)
    g_rows = np.repeat(g, seg_len, axis=0)
    gh = np.zeros_like(h)
    np.add.at(gh, sources, g_rows * w)
    return out, (g_rows * rows).sum(axis=1, keepdims=True), gh


def _kernels(offsets, sources):
    """The package's and the reference's edge reduction over one edge list, as fn(w, h)."""
    layout = ops.degree_layout(offsets, sources)
    return (lambda w, h: ops.weighted_sum_rows(w, h, layout),
            lambda w, h: reference.weighted_sum_rows(w, h, offsets, sources))


def _run_weighted_sum(fn, offsets, sources, n_sources, d=4, seed=0):
    """Random weights, values and output gradient; fn's output and both gradients."""
    rng = np.random.default_rng(seed)
    w = Tensor(rng.uniform(-1.0, 1.0, size=(sources.size, 1)), requires_grad=True)
    h = Tensor(rng.standard_normal((n_sources, d)), requires_grad=True)
    g = rng.standard_normal((offsets.size - 1, d))
    with Tape() as tape:
        out = fn(w, h)
        loss = ops.sum_all(ops.mul(out, ops.constant(g)))
    backward(tape, loss)
    return (w.data, h.data, g), (out.data, w.grad, h.grad)


def _check_against_oracle(offsets, sources, n_sources, d=4, seed=0):
    (w, h, g), results = _run_weighted_sum(_kernels(offsets, sources)[0], offsets, sources,
                                           n_sources, d, seed)
    for got, want in zip(results, _weighted_sum_oracle(w, h, sources, offsets, g)):
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


def _layer_norm_formula(x, gd, bd, g, eps=1e-5):
    # layer_norm as written before it reused buffers: output, then the
    # x, gain and bias gradients for output gradient g
    d = x.shape[1]
    centered = x - x.sum(axis=1, keepdims=True) / d
    var = (centered * centered).sum(axis=1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    gy = g * gd
    m1 = gy.sum(axis=1, keepdims=True) / d
    m2 = (gy * xhat).sum(axis=1, keepdims=True) / d
    return (xhat * gd + bd, (gy - m1 - xhat * m2) * inv,
            (g * xhat).sum(axis=0, keepdims=True), g.sum(axis=0, keepdims=True))


def _segments(lengths, n_sources, rng):
    lengths = np.asarray(lengths, dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    return offsets, rng.integers(0, n_sources, size=int(offsets[-1]))


def _cross_plan_with_dropped_targets():
    # papers 1 and 4 are written by nobody, so the plan toward B drops them
    specs = [RelationSpec("wrote", RelationClass.INTER, NodeType.A, NodeType.B)]
    feats = {NodeType.A: np.zeros((4, 3)), NodeType.B: np.zeros((5, 3))}
    edges = [("wrote", 0, 0), ("wrote", 1, 0), ("wrote", 3, 0), ("wrote", 2, 2),
             ("wrote", 2, 3), ("wrote", 0, 3)]
    graph = build_graph({NodeType.A: 4, NodeType.B: 5}, feats, specs, edges)
    d = 3
    ones, zeros = ops.constant(np.ones((1, d))), ops.constant(np.zeros((1, d)))
    _, _, block = inter.node_aggregate(
        ops.constant(graph.features[NodeType.B]), ops.constant(graph.features[NodeType.A]),
        graph, ["wrote"], NodeType.B, [ops.constant(np.ones((2 * d, 1)))], [ones], [zeros], 0.2)
    assert not block.covers_all
    assert block.mask[:, 0].tolist() == [True, False, True, True, False]
    return block.offsets, block.sources, 4


class TestWeightedSumRows:
    @pytest.mark.parametrize("case", ["hub target", "one-edge segments",
                                      "many degrees", "cross plan"])
    def test_matches_gather_reduceat(self, case):
        rng = np.random.default_rng(11)
        if case == "hub target":
            offsets, sources = _segments([2, 1, 60, 3, 1], 9, rng)
        elif case == "one-edge segments":
            offsets, sources = _segments(np.ones(12), 5, rng)
        elif case == "many degrees":
            offsets, sources = _segments(rng.permutation(np.arange(1, 31).repeat(2)), 40, rng)
        else:
            offsets, sources, n_sources = _cross_plan_with_dropped_targets()
            _check_against_oracle(offsets, sources, n_sources)
            return
        _check_against_oracle(offsets, sources, int(sources.max()) + 3)

    @pytest.mark.parametrize("case", ["10k one-edge segments", "k=3 group of 3000 segments",
                                      "hub segment over a piece"])
    def test_pieces_match_unchunked_kernel_bitwise(self, case):
        # a piece holds PIECE_EDGES = 2048 edges at every d
        rng = np.random.default_rng(17)
        if case == "10k one-edge segments":
            # every source is read 5 times, so the source side is one k=5 group
            offsets = np.arange(10_001)
            sources = rng.permutation(np.arange(10_000) % 2000)
        elif case == "k=3 group of 3000 segments":
            # every source is read 3 times, so the source side is one k=3 group too
            offsets = np.arange(0, 9001, 3)
            sources = rng.permutation(np.arange(9000) % 3000)
        else:
            offsets, sources = _segments([2, *[3] * 1000, 9000, 1, 5], 5, rng)
            sources[3002:12_002] = 0  # node 0 is a source hub as well
        layout = ops.degree_layout(offsets, sources)
        # a group of several ids spans several pieces on both sides, except the
        # hub case's few sources; there one id on each side is wider than a
        # piece, so the buffer must grow
        hub = case.startswith("hub")
        sides = (layout.target_pieces, layout.source_pieces)
        assert [max(Counter(k for *_, k in pieces).values()) > 1 for pieces in sides] == [
            True, not hub]
        assert [pieces[-1][3] > ops.PIECE_EDGES for pieces in sides] == [hub, hub]
        assert (layout.widest > ops.PIECE_EDGES) == hub
        n_sources = int(sources.max()) + 1
        kernel, unchunked = _kernels(offsets, sources)
        for d in (16, 32, 64):
            _, want = _run_weighted_sum(unchunked, offsets, sources, n_sources, d)
            _, got = _run_weighted_sum(kernel, offsets, sources, n_sources, d)
            for g, w in zip(got, want):
                assert g.shape == w.shape and g.tobytes() == w.tobytes()

    def test_two_calls_on_one_tape_match_reference_bitwise(self):
        # Two reductions read one values tensor and meet in concat_cols. The
        # first has a 20000-edge hub, so its buffers take 10 MB at d=64; a
        # recorded call must hold neither its forward's buffer nor one shared
        # between calls.
        rng = np.random.default_rng(23)
        d, n_sources = 64, 500
        plans = []
        for hub in (20_000, 3):
            lengths = np.concatenate([np.full(150, 20), [hub], rng.integers(1, 9, size=49)])
            offsets, sources = _segments(lengths, n_sources, rng)
            plans.append((sources.size, _kernels(offsets, sources)))

        def run(which):
            r = np.random.default_rng(29)
            h = Tensor(r.standard_normal((n_sources, d)), requires_grad=True)
            ws = [Tensor(r.uniform(-1.0, 1.0, size=(n, 1)), requires_grad=True)
                  for n, _ in plans]
            g = r.standard_normal((200, 2 * d))
            started = not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                with Tape() as tape:
                    a, b = (kernels[which](w, h) for w, (_, kernels) in zip(ws, plans))
                    held = tracemalloc.get_traced_memory()[0] - base - a.data.nbytes - b.data.nbytes
                    loss = ops.sum_all(ops.mul(ops.concat_cols(a, b), ops.constant(g)))
                closures = [tape._records[tape.slot(t)][2] for t in (a, b)]
                backward(tape, loss)
            finally:
                if started:
                    tracemalloc.stop()
            # concat_cols's backward hands each call a column view of g, which
            # accumulate_grad copies; the closures must also take the views as is
            direct = [x for bw, cols in zip(closures, (g[:, :d], g[:, d:])) for x in bw(cols)]
            return [a.data, b.data, ws[0].grad, ws[1].grad, h.grad, *direct], held

        got, held = run(0)
        want, _ = run(1)
        for x, y in zip(got, want):
            assert x.shape == y.shape and x.tobytes() == y.tobytes()
        # what each closure keeps: no per-edge array, since the layout holds
        # every index the backward reads (one int64 per edge is 211 kB here)
        n_edges = sum(n for n, _ in plans)
        assert 20_000 < n_edges < 30_000
        assert held < 16 << 10

    def test_forward_and_backward_peak_stays_below_half_the_source_rows(self):
        # about 100k edges at d=32: the [E, d] block of gathered rows would be
        # 25.6 MB, and the 80k edges of the k=20 group alone 20 MB
        rng = np.random.default_rng(5)
        d = 32
        lengths = np.where(rng.random(5000) < 0.8, 20, rng.integers(1, 40, size=5000))
        offsets, sources = _segments(lengths, 5000, rng)
        w = Tensor(rng.uniform(-1.0, 1.0, size=(sources.size, 1)), requires_grad=True)
        h = Tensor(rng.standard_normal((5000, d)), requires_grad=True)
        layout = ops.degree_layout(offsets, sources)
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            with Tape() as tape:
                out = ops.weighted_sum_rows(w, h, layout)
                loss = ops.sum_all(out)
            backward(tape, loss)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        assert 90_000 < sources.size < 110_000
        assert peak < sources.size * d * 8 / 2

    def test_layout_groups_cover_every_edge_once(self):
        offsets = np.array([0, 3, 4, 7, 9])
        sources = np.array([2, 0, 2, 1, 2, 0, 4, 0, 2])
        layout = ops.degree_layout(offsets, sources)
        assert sorted(layout.target_perm.tolist()) == list(range(9))
        assert sorted(layout.source_perm.tolist()) == list(range(9))
        assert [(ids.tolist(), run, n, k) for ids, run, n, k in layout.target_pieces] == [
            ([1], slice(0, 1), 1, 1), ([3], slice(1, 3), 1, 2), ([0, 2], slice(3, 9), 2, 3)]
        assert [(ids.tolist(), run, n, k) for ids, run, n, k in layout.source_pieces] == [
            ([1, 4], slice(0, 2), 2, 1), ([0], slice(2, 5), 1, 3), ([2], slice(5, 9), 1, 4)]
        assert layout.target_sources.tolist() == [1, 0, 2, 2, 0, 2, 2, 0, 4]
        assert (layout.n_values, layout.widest) == (5, 6)
        # node 2's edges in source order (stable), and their segments
        assert layout.source_perm[-4:].tolist() == [0, 2, 4, 8]
        assert layout.source_segments[-4:].tolist() == [0, 0, 2, 3]

    def test_pieces_split_groups_at_piece_edges_between_whole_ids(self):
        # 5000 one-edge segments, 1000 of three edges and one of 3000; each
        # source is read once, so the source side is one k=1 group
        offsets = np.concatenate([[0], np.cumsum([1] * 5000 + [3] * 1000 + [3000])])
        layout = ops.degree_layout(offsets, np.arange(offsets[-1]))
        assert [(n, k) for _, _, n, k in layout.target_pieces] == [
            (2048, 1), (2048, 1), (904, 1), (682, 3), (318, 3), (1, 3000)]
        assert [n for _, _, n, _ in layout.source_pieces] == [2048] * 5 + [760]
        for pieces in (layout.target_pieces, layout.source_pieces):
            runs = [run for _, run, _, _ in pieces]
            assert [r.start for r in runs] == [0, *(r.stop for r in runs[:-1])]
            assert runs[-1].stop == 11_000
        assert layout.widest == 3000

    @pytest.mark.parametrize("case", ["weights wide", "weights short", "weights row",
                                      "source high", "source negative"])
    def test_shape_checks(self, case):
        # a source past the values' rows fails in the kernel, a negative one
        # already in degree_layout
        offsets, sources = np.array([0, 2, 3]), np.array([0, 2, 1])
        w, h = np.ones((3, 1)), np.ones((3, 2))
        if case == "weights wide":
            w = np.ones((3, 2))
        elif case == "weights short":
            w = np.ones((2, 1))
        elif case == "weights row":
            w = np.ones((1, 3))
        elif case == "source high":
            sources = np.array([0, 3, 1])
        else:
            sources = np.array([0, -1, 1])
        with pytest.raises(ShapeMismatch):
            ops.weighted_sum_rows(Tensor(w), Tensor(h), ops.degree_layout(offsets, sources))

    def test_layout_of_ids_past_16_bits(self):
        # ids of 2**16 and up take the general stable sort; an order-keeping
        # renaming of the ids leaves the source order and groups as they were
        offsets = np.array([0, 3, 4, 7, 9])
        sources = np.array([2, 0, 2, 1, 2, 0, 4, 0, 2])
        renamed = np.array([0, 1, 1 << 16, 0, 70000])
        small = ops.degree_layout(offsets, sources)
        big = ops.degree_layout(offsets, renamed[sources])
        assert big.source_perm.tolist() == small.source_perm.tolist()
        assert [(ids.tolist(), run, n, k) for ids, run, n, k in big.source_pieces] == [
            (renamed[ids].tolist(), run, n, k) for ids, run, n, k in small.source_pieces]

    def test_layout_rejects_empty_segment(self):
        with pytest.raises(EmptySegment):
            ops.degree_layout(np.array([0, 2, 2, 3]), np.array([0, 1, 0]))

    def test_layout_rejects_negative_source(self):
        with pytest.raises(ShapeMismatch):
            ops.degree_layout(np.array([0, 2, 3]), np.array([0, -1, 0]))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(1, 6), st.integers(1, 6),
           st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=30),
           st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=30))
    def test_random_graph_plans_match_oracle(self, n_a, n_b, intra_pairs, cross_pairs):
        specs = [RelationSpec("peer", RelationClass.INTRA_A, NodeType.A, NodeType.A),
                 RelationSpec("link", RelationClass.INTER, NodeType.A, NodeType.B)]
        edges = [("peer", s % n_a, t % n_a) for s, t in intra_pairs]
        edges += [("link", s % n_a, t % n_b) for s, t in cross_pairs]
        feats = {NodeType.A: np.zeros((n_a, 2)), NodeType.B: np.zeros((n_b, 2))}
        graph = build_graph({NodeType.A: n_a, NodeType.B: n_b}, feats, specs, edges)
        sizes = {NodeType.A: n_a, NodeType.B: n_b}
        for name, target, source in (("peer", NodeType.A, NodeType.A),
                                     ("link", NodeType.A, NodeType.B),
                                     ("link", NodeType.B, NodeType.A)):
            plan = graph.message_plan(name, target)
            if plan.n_edges:
                _check_against_oracle(plan.offsets, plan.sources, sizes[source])


def _value_and_grads(fn, tensors, g):
    """Bytes of fn(*tensors) and of each tensor's gradient of sum(fn(*tensors) * g)."""
    for t in tensors:
        t.zero_grad()
    with Tape() as tape:
        y = fn(*tensors)
        loss = ops.sum_all(ops.mul(y, ops.constant(g)))
    backward(tape, loss)
    return y.data.tobytes(), [t.grad.tobytes() for t in tensors]


def _each_frozen(tensors):
    """Yield once with every tensor requiring grad, then once with each one frozen in turn."""
    for frozen in (None, *tensors):
        for t in tensors:
            t.requires_grad = t is not frozen
        yield


class TestFusedPrimitives:
    """`layer_norm(..., slope=...)` and `residual_mix` against the op chains
    they replaced (tests/reference.py), bit for bit in value and gradients."""

    @pytest.mark.parametrize("sizes", [None, (7,), (3, 0, 4, 2)])
    def test_layer_norm_with_slope_matches_norm_then_leaky_relu(self, sizes):
        rng = np.random.default_rng(40)
        k = 1 if sizes is None else len(sizes)
        n, d = (7 if sizes is None else sum(sizes)), 6
        x = Tensor(rng.standard_normal((n, d)) * 10.0 ** rng.integers(-3, 4, size=(n, 1)))
        gains = [Tensor(rng.uniform(-1.5, 1.5, (1, d))) for _ in range(k)]
        biases = [Tensor(rng.uniform(-0.5, 0.5, (1, d))) for _ in range(k)]
        for gn, bs in zip(gains, biases):
            gn.data[0, 0], bs.data[0, 0] = 0.0, 0.0    # outputs of exactly +0.0: the kink
            gn.data[0, 1], bs.data[0, 1] = 0.0, -0.0   # and of -0.0 where xhat < 0
        g = rng.standard_normal((n, d))
        g[0, :2] = (0.0, -0.0)
        if sizes is None:
            runs, gain, bias = None, gains[0], biases[0]
        else:
            ends = np.cumsum(sizes)
            runs = [slice(int(e - s), int(e)) for s, e in zip(sizes, ends)]
            gain, bias = gains, biases
        tensors = [x, *gains, *biases]
        for _ in _each_frozen(tensors):
            fused = _value_and_grads(
                lambda *_: ops.layer_norm(x, gain, bias, runs, slope=0.2), tensors, g)
            chain = _value_and_grads(
                lambda *_: reference.leaky_layer_norm(x, gain, bias, runs, slope=0.2), tensors, g)
            assert fused == chain

    @pytest.mark.parametrize("weight", [0.0, 0.35, 1.0])
    def test_residual_mix_matches_the_four_op_chain(self, weight):
        rng = np.random.default_rng(41)
        new = Tensor(rng.standard_normal((5, 4)))
        old = Tensor(rng.standard_normal((5, 4)))
        new.data[0] = (0.0, -0.0, 1e-300, -1e-300)
        g = rng.standard_normal((5, 4))
        g[1, :2] = (0.0, -0.0)
        for _ in _each_frozen([new, old]):
            fused = _value_and_grads(lambda a, b: ops.residual_mix(a, b, weight, 0.2),
                                     [new, old], g)
            chain = _value_and_grads(lambda a, b: reference.residual_mix(a, b, weight, 0.2),
                                     [new, old], g)
            assert fused == chain

    def test_residual_mix_records_one_op(self):
        new, old = _param((3, 2)), _param((3, 2))
        with Tape() as tape:
            ops.residual_mix(new, old, 0.5, 0.2)
        assert len(tape) == 1


def _spied(tape) -> dict:
    """Wrap every closure on `tape`; the walk then fills {slot: (g, copy of g, outputs)}."""
    seen = {}

    def spy(k, fn):
        def wrapped(g):
            outs = fn(g)
            seen[k] = (g, g.copy(), outs)
            return outs
        return wrapped

    tape._records[:] = [(shape, refs, spy(k, fn))
                        for k, (shape, refs, fn) in enumerate(tape._records)]
    return seen


def _one_array_twice(x: Tensor, y: Tensor) -> Tensor:
    """x + y, whose closure returns one fresh array as both inputs' gradient."""
    def bw(g):
        both = g * 1.0
        return both, both

    return ops._result(x.data + y.data, (x, y), bw)


class TestGradientHandoff:
    """A fresh array a closure returns becomes its slot's first gradient as it
    is; `g`, views of `g` and an array returned twice are still copied."""

    def test_fresh_array_reaches_the_next_closure_uncopied(self):
        x = _param((3, 2))
        with Tape() as tape:
            a = ops.scalar_mul(x, 3.0)   # slot 0
            b = ops.scalar_mul(a, 2.0)   # slot 1
            loss = ops.sum_all(b)        # slot 2
        seen = _spied(tape)
        backward(tape, loss)
        assert seen[1][0] is seen[2][2][0]
        assert seen[0][0] is seen[1][2][0]
        # a leaf still copies what it is handed
        assert not np.may_share_memory(x.grad, seen[0][2][0])
        assert x.grad.tolist() == np.full((3, 2), 6.0).tolist()

    def test_kept_gradient_keeps_zero_signs_until_a_leaf_clears_them(self):
        x = _param((1, 3))
        with Tape() as tape:
            s = ops.scalar_mul(x, 1.0)
            loss = ops.sum_all(ops.mul(s, ops.constant([[-0.0, 2.0, 0.0]])))
        seen = _spied(tape)
        backward(tape, loss)
        assert np.signbit(seen[0][0][0, 0])   # the slot kept mul's -0.0
        assert x.grad.tolist() == [[0.0, 2.0, 0.0]] and not np.signbit(x.grad).any()

    @pytest.mark.parametrize("op, fold", [
        (lambda s: ops.add(s, s), lambda g: g + g),
        (lambda s: ops.concat_rows(s, s), lambda g: g[:3] + g[3:]),
    ], ids=["add", "concat_rows"])
    def test_g_and_its_views_are_copied_and_summed(self, op, fold):
        x = _param((3, 2))
        up = RNG.standard_normal((6, 2))
        with Tape() as tape:
            s = ops.scalar_mul(x, 1.0)   # slot 0
            y = op(s)                    # slot 1
            loss = ops.sum_all(ops.mul(y, ops.constant(up[:y.shape[0]])))
        seen = _spied(tape)
        backward(tape, loss)
        (g_s, _, _), (g_y, g_y_then, _) = seen[0], seen[1]
        assert not np.may_share_memory(g_s, g_y)
        assert g_y.tobytes() == g_y_then.tobytes()   # the walk never added into g
        assert g_s.tobytes() == fold(g_y).tobytes()

    @pytest.mark.parametrize("leaf_first", [True, False])
    def test_one_array_for_a_leaf_and_a_slot_is_copied(self, leaf_first):
        x, p = _param((2, 3)), _param((2, 3))
        up = RNG.standard_normal((2, 3))
        grads = []
        for walk in (reference.backward, backward):
            x.zero_grad()
            p.zero_grad()
            with Tape() as tape:
                s = ops.scalar_mul(x, 1.0)                         # slot 0
                t = ops.scalar_mul(s, 5.0)                         # slot 1
                y = _one_array_twice(p, s) if leaf_first else _one_array_twice(s, p)
                loss = ops.add(ops.sum_all(ops.mul(y, ops.constant(up))), ops.sum_all(t))
            seen = _spied(tape)
            walk(tape, loss)
            both = seen[2][2][0]
            assert seen[0][0] is not both
            assert both.tobytes() == seen[2][1].tobytes()    # nothing added into it
            grads.append((x.grad.tobytes(), p.grad.tobytes()))
        assert grads[0] == grads[1]
        assert p.grad.tobytes() == up.tobytes()

    def test_one_array_for_two_slots_is_copied(self):
        x = _param((2, 3))
        up = RNG.standard_normal((2, 3))
        grads = []
        for walk in (reference.backward, backward):
            x.zero_grad()
            with Tape() as tape:
                s1 = ops.scalar_mul(x, 1.0)                        # slot 0
                s2 = ops.scalar_mul(x, 2.0)                        # slot 1
                t = ops.scalar_mul(s1, 5.0)                        # slot 2
                y = _one_array_twice(s1, s2)                       # slot 3
                loss = ops.add(ops.sum_all(ops.mul(y, ops.constant(up))), ops.sum_all(t))
            seen = _spied(tape)
            walk(tape, loss)
            # s1's second gradient (from t) must not reach s2 through a shared array
            assert seen[1][0].tobytes() == up.tobytes()
            assert seen[0][0].tobytes() == (up + 5.0).tobytes()
            grads.append(x.grad.tobytes())
        assert grads[0] == grads[1]


class TestLinearBackwardStructure:
    def test_grad_w_is_xt_g(self):
        # for loss = sum(X @ W), dL/dW = X^T @ ones
        x = np.array([[1.0, 2.0], [3.0, -1.0], [0.5, 0.0]])
        w = Tensor(np.ones((2, 4)), requires_grad=True)
        with Tape() as tape:
            out = ops.matmul(ops.constant(x), w)
            loss = ops.sum_all(out)
        backward(tape, loss)
        expected = x.T @ np.ones((3, 4))
        np.testing.assert_allclose(w.grad, expected)


class TestCheckpointIo:
    def test_round_trip(self, tmp_path):
        named = [("alpha", Tensor(RNG.normal(size=(3, 4)))),
                 ("beta", Tensor(RNG.normal(size=(1, 1)))),
                 ("gamma", Tensor(RNG.normal(size=(5, 2))))]
        path = tmp_path / "ckpt.bin"
        save_tensors(path, named)
        loaded = load_tensors(path)
        assert [n for n, _ in loaded] == ["alpha", "beta", "gamma"]
        for (_, t), (_, arr) in zip(named, loaded):
            np.testing.assert_array_equal(t.data, arr)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload_rejected(self, tmp_path, bad):
        weights = RNG.normal(size=(2, 3))
        weights[1, 2] = bad
        path = tmp_path / "ckpt.bin"
        save_tensors(path, [("fine", Tensor(np.ones((1, 2)))), ("layer0.w", Tensor(weights))])
        with pytest.raises(IoFailure, match=r"ckpt\.bin tensor 'layer0\.w' holds NaN"):
            load_tensors(path)

    @pytest.mark.parametrize("tensors, entry", [
        ([["w", [2]]], r"tensor entry 0 \['w', \[2\]\]"),
        ([["w", "ab"]], r"tensor entry 0 \['w', 'ab'\]"),
        ([["w", [1, 1]], ["b", [True, 1]]], r"tensor entry 1 \['b', \[True, 1\]\]"),
        ([["w", [1, -1]]], "tensor entry 0"),
        ([["w", [1.0, 1]]], "tensor entry 0"),
        ([[3, [1, 1]]], "tensor entry 0"),
        ([["w", [1, 1], "extra"]], "tensor entry 0"),
        ({"w": [1, 1]}, "tensors must be a list"),
    ])
    def test_malformed_header_entry_raises_io_failure(self, tmp_path, tensors, entry):
        path = tmp_path / "ckpt.bin"
        path.write_bytes(json.dumps({"tensors": tensors}).encode() + b"\n"
                         + np.ones(2, dtype="<f8").tobytes())
        with pytest.raises(IoFailure, match=f"malformed checkpoint header in .*ckpt\\.bin: {entry}"):
            load_tensors(path)

    def test_save_is_deterministic(self, tmp_path):
        named = [("w", Tensor(RNG.normal(size=(4, 4))))]
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_tensors(p1, named)
        save_tensors(p2, named)
        assert p1.read_bytes() == p2.read_bytes()
