import math

import numpy as np
import pytest

import reference
from duograph.errors import StepOutOfRange
from duograph.model import ModelConfig
from duograph.optim import AdamW, cosine_lr
from duograph.params import ParamSet, build_params
from duograph.rand import rng_for
from duograph.synth import SynthConfig, generate
from duograph.tensor import Tensor
from test_acceptance import ACCEPT_MODEL, ACCEPT_SYNTH


def _single(value):
    """A one-parameter set and its tensor."""
    ps = ParamSet([("p", np.array(value, dtype=np.float64))])
    return ps, ps.get("p")


class TestAdamW:
    def test_first_step_unit_gradient(self):
        # hand math: m=0.1, v=0.001, mhat=1, vhat=1 -> update lr/(1+eps)
        ps, p = _single([[1.0]])
        opt = AdamW(ps.vector, weight_decay=0.0)
        p.accumulate_grad(np.array([[1.0]]))
        opt.step(0.1, ps.grads())
        expected = 1.0 - 0.1 * 1.0 / (1.0 + 1e-8)
        np.testing.assert_allclose(p.data, [[expected]], rtol=0, atol=1e-15)

    def test_decay_is_decoupled(self):
        # zero gradient, wd=0.1, lr=0.1: parameter shrinks by exactly 1%
        ps, p = _single([[2.0, -4.0]])
        opt = AdamW(ps.vector, weight_decay=0.1)
        opt.step(0.1, ps.grads())
        np.testing.assert_allclose(p.data, [[2.0 * 0.99, -4.0 * 0.99]], rtol=0, atol=1e-15)

    def test_zero_grad_zero_decay_is_identity(self):
        ps, p = _single([[3.0]])
        opt = AdamW(ps.vector, weight_decay=0.0)
        opt.step(0.5, ps.grads())
        np.testing.assert_array_equal(p.data, [[3.0]])

    def test_two_steps_match_reference_recurrence(self):
        # independent recurrence in plain floats
        g1, g2 = 0.3, -0.7
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        theta = 0.5
        m = v = 0.0
        for t, g in ((1, g1), (2, g2)):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            theta -= lr * (m / (1 - b1 ** t)) / (math.sqrt(v / (1 - b2 ** t)) + eps)

        ps, p = _single([[0.5]])
        opt = AdamW(ps.vector, weight_decay=0.0)
        p.accumulate_grad(np.array([[g1]]))
        opt.step(lr, ps.grads())
        ps.zero_grad()
        p.accumulate_grad(np.array([[g2]]))
        opt.step(lr, ps.grads())
        np.testing.assert_allclose(p.data, [[theta]], rtol=1e-14)

    def test_zero_grad_clears_accumulation(self):
        ps, p = _single([[1.0]])
        p.accumulate_grad(np.array([[2.0]]))
        ps.zero_grad()
        np.testing.assert_array_equal(p.grad, [[0.0]])
        np.testing.assert_array_equal(ps.grads(), [0.0])

    def test_matches_per_tensor_oracle_at_gate_size(self):
        # the vector update equals the per-tensor one bit for bit, step after
        # step, with weight decay on; a third of the tensors get no gradient
        graph, tasks = generate(SynthConfig(**ACCEPT_SYNTH))
        ps = build_params(graph, ModelConfig(seed=0, **ACCEPT_MODEL), tasks)
        twins = [(name, Tensor(t.data.copy(), requires_grad=True)) for name, t in ps.named]
        opt = AdamW(ps.vector, weight_decay=0.01)
        oracle = reference.AdamW(twins, weight_decay=0.01)
        rng = rng_for(0, "adamw-oracle")
        for step, lr in enumerate((0.01, 0.005, 0.02, 1e-3, 0.01, 1e-4)):
            ps.zero_grad()
            for k, ((_, t), (_, twin)) in enumerate(zip(ps.named, twins)):
                twin.zero_grad()
                if (k + step) % 3:
                    g = rng.standard_normal(t.shape) * 10.0 ** rng.integers(-6, 3)
                    t.accumulate_grad(g)
                    twin.accumulate_grad(g)
            opt.step(lr, ps.grads())
            oracle.step(lr)
            for (name, t), (_, twin) in zip(ps.named, twins):
                assert t.data.tobytes() == twin.data.tobytes(), (step, name)
        assert len(ps.named) == 111 and opt.step_count == 6


class TestCosineSchedule:
    def test_endpoints(self):
        assert cosine_lr(0, 100, 0.1, 0.001) == pytest.approx(0.1, abs=0)
        assert cosine_lr(100, 100, 0.1, 0.001) == pytest.approx(0.001, abs=1e-18)

    def test_midpoint_is_mean(self):
        mid = cosine_lr(50, 100, 0.1, 0.001)
        assert mid == pytest.approx((0.1 + 0.001) / 2, rel=1e-12)

    def test_monotone_decreasing(self):
        vals = [cosine_lr(s, 40, 1.0, 0.0) for s in range(41)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_step_bounds(self):
        with pytest.raises(StepOutOfRange):
            cosine_lr(-1, 10, 0.1, 0.0)
        with pytest.raises(StepOutOfRange):
            cosine_lr(11, 10, 0.1, 0.0)
        with pytest.raises(StepOutOfRange):
            cosine_lr(0, 0, 0.1, 0.0)
