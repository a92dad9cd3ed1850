"""Finite-difference check of backward() on a tiny problem, through the
training loss (`train._total_loss`) of a dropout-free forward."""
from __future__ import annotations

from .model import ModelConfig, forward
from .params import build_params
from .rand import rng_for
from .synth import SynthConfig, generate
from .tensor import Tape, backward
from .train import _total_loss


def builtin_gradcheck_problem(seed: int):
    """Tiny fixed-size problem (20 nodes) exercising every head kind."""
    synth = SynthConfig(n_papers=12, n_authors=8, n_venues=2, n_fields_l1=2,
                        n_fields_l2=3, feature_dim=5, min_authors=1, max_authors=3,
                        name_group_size=2, ad_distractors=3, seed=seed)
    graph, tasks = generate(synth)
    config = ModelConfig(input_dim=5, hidden_dim=4, num_layers=2, dropout=0.0,
                         seed=seed)
    return graph, tasks, config


def gradcheck(seed: int, entries_per_tensor: int = 4, h: float = 1e-5):
    """Compare backward() against central differences on the builtin problem.

    Samples a few entries from every parameter tensor. Returns
    (max relative error, entries checked, tensor count).
    """
    graph, tasks, config = builtin_gradcheck_problem(seed)
    ps = build_params(graph, config, tasks)

    def loss_value():
        embs, _ = forward(graph, config, ps, training=False)
        return _total_loss(tasks, embs, ps, config, "train", rng_for(seed, "negatives", 0))

    with Tape() as tape:
        loss = loss_value()
        backward(tape, loss)
    analytic, vec = ps.grads(), ps.vector

    pick_rng = rng_for(seed, "gradcheck")
    worst, checked = 0.0, 0
    for start, end in zip(ps.offsets, ps.offsets[1:]):
        idx = pick_rng.choice(end - start, size=min(entries_per_tensor, end - start), replace=False)
        for j in sorted(start + int(i) for i in idx):
            orig = vec[j]
            vec[j] = orig + h
            up = float(loss_value().data[0, 0])
            vec[j] = orig - h
            down = float(loss_value().data[0, 0])
            vec[j] = orig
            fd = (up - down) / (2.0 * h)
            an = float(analytic[j])
            scale = max(abs(an), abs(fd), 1e-6)
            worst = max(worst, abs(an - fd) / scale)
            checked += 1
    return worst, checked, len(ps.named)
