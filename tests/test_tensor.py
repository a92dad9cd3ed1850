import numpy as np
import pytest

from duograph import ops
from duograph.errors import (EmptySegment, NonScalarLoss, ShapeMismatch, TapeConsumed)
from duograph.tensor import Tape, Tensor, backward, load_tensors, save_tensors

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

    def test_scatter_rows(self):
        x = _param((3, 2))
        idx = np.array([4, 0, 2])
        check_op_gradient(lambda t: ops.scatter_rows(t, idx, 6), [x])

    def test_scatter_rejects_duplicate_targets(self):
        with pytest.raises(ShapeMismatch):
            ops.scatter_rows(Tensor(np.ones((2, 2))), np.array([1, 1]), 4)

    def test_concat_cols(self):
        check_op_gradient(ops.concat_cols, [_param((3, 2)), _param((3, 4))])

    def test_concat_rows(self):
        check_op_gradient(ops.concat_rows, [_param((2, 3)), _param((4, 3))])

    def test_slice_cols(self):
        check_op_gradient(lambda t: ops.slice_cols(t, 1, 3), [_param((4, 5))])

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
        w = _param((6, 1))
        v = _param((6, 3))
        off = np.array([0, 2, 3, 6])
        check_op_gradient(lambda a, b: ops.weighted_sum_rows(a, b, off), [w, v])

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

    def test_softmax_rows(self):
        x = _param((4, 5))
        coeff = ops.constant(RNG.uniform(-1, 1, (4, 5)))
        check_op_gradient(lambda t: ops.mul(ops.softmax_rows(t), coeff), [x])

    def test_softmax_rows_shift_invariant(self):
        x = RNG.uniform(-2, 2, size=(3, 4))
        a = ops.softmax_rows(Tensor(x)).data
        b = ops.softmax_rows(Tensor(x + 100.0)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

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

    def test_save_is_deterministic(self, tmp_path):
        named = [("w", Tensor(RNG.normal(size=(4, 4))))]
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_tensors(p1, named)
        save_tensors(p2, named)
        assert p1.read_bytes() == p2.read_bytes()
