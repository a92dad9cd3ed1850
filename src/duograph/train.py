"""Full-batch training with cosine annealing and checkpoint selection.

After every epoch the model is evaluated on the validation split; the
retained parameters are those of the epoch with the best validation
ranking quality, with lower validation loss breaking exact ties.
"""
from __future__ import annotations

import json
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from . import ops
from .errors import DivergedLoss, NoLabeledNodes
from .graph import BiGraph, write_lines
from .metrics import cluster_eval, mrr_rows, ndcg_rows
from .model import ModelConfig, TaskKind, forward, task_loss, task_scores
from .optim import AdamW, cosine_lr
from .params import ParamSet, build_params
from .rand import rng_for
from .tensor import Tape, backward


@dataclass
class TrainResult:
    log: list = field(default_factory=list)
    best_epoch: int = -1
    best_val_ndcg: float = -1.0
    best_val_loss: float = float("inf")
    best_params: np.ndarray | None = None  # the best epoch's `ParamSet.vector`


def _mean_val_ndcg(tasks, ps: ParamSet, embs_data: dict, split: str) -> float:
    vals = []
    for task in tasks:
        ids = task.split_ids(split)
        if ids.size:
            vals.append(np.mean(ndcg_rows(*task_scores(task, embs_data, ps, ids))))
    if not vals:
        raise NoLabeledNodes(f"no task has instances in split {split!r}")
    return float(np.mean(vals))


def _label_matrices(graph: BiGraph, tasks, split) -> list:
    """Each classification task's `label_matrix` on `split`, None for a ranking
    task; aligned with `tasks`."""
    return [None if task.kind is TaskKind.LINK_RANKING else task.label_matrix(
        task.split_ids(split), graph.n_nodes(task.target_type)) for task in tasks]


def _total_loss(tasks, embs, ps, config, split, neg_rng, labels=None):
    total = None
    for task, y in zip(tasks, labels or [None] * len(tasks)):
        if task.split_ids(split).size == 0:
            continue
        loss = task_loss(task, embs, ps, config, split=split, rng=neg_rng, labels=y)
        total = loss if total is None else ops.add(total, loss)
    if total is None:
        raise NoLabeledNodes(f"no task has data in split {split!r}")
    return total


def train(graph: BiGraph, tasks, config: ModelConfig, ps: ParamSet | None = None):
    """Train on the `train` split; returns (params, TrainResult).

    The returned ParamSet holds the selected (best-validation) weights.
    """
    if ps is None:
        ps = build_params(graph, config, tasks)
    opt = AdamW(ps.vector, weight_decay=config.weight_decay)
    result = TrainResult()
    # Without dropout the training forward equals the evaluation forward of
    # the same weights, so each epoch's evaluation forward is recorded and
    # reused by the next epoch's step: one forward per parameter state.
    reuse = config.dropout == 0.0
    tape, embs = Tape(), None
    train_labels, val_labels = (_label_matrices(graph, tasks, s) for s in ("train", "val"))
    for epoch in range(config.epochs):
        lr = cosine_lr(epoch, config.epochs, config.lr_max, config.lr_min)
        drop_rng = rng_for(config.seed, "dropout", epoch)
        neg_rng = rng_for(config.seed, "negatives", epoch)
        ps.zero_grad()
        with tape:
            if embs is None:
                embs, _ = forward(graph, config, ps, training=True, rng=drop_rng)
            loss = _total_loss(tasks, embs, ps, config, "train", neg_rng, train_labels)
        embs = None  # the loss's closures saved what the backward reads
        train_loss = float(loss.data[0, 0])
        if not np.isfinite(train_loss):
            raise DivergedLoss(f"train loss became {train_loss} at epoch {epoch + 1}")
        backward(tape, loss)
        tape = Tape()
        grads = ps.grads()
        if not np.isfinite(grads).all():  # name the owner of the first bad entry
            k = np.searchsorted(ps.offsets, np.argmin(np.isfinite(grads)), side="right") - 1
            raise DivergedLoss(f"gradient of {ps.named[k][0]!r} became non-finite "
                               f"at epoch {epoch + 1}")
        opt.step(lr, grads)

        with tape if reuse else nullcontext():
            val_embs, _ = forward(graph, config, ps, training=False)
        embs = val_embs if reuse else None
        val_neg_rng = rng_for(config.seed, "val-negatives")
        val_loss = float(_total_loss(tasks, val_embs, ps, config, "val", val_neg_rng,
                                     val_labels).data[0, 0])
        embs_data = {t: val_embs[t].data for t in val_embs}
        val_ndcg = _mean_val_ndcg(tasks, ps, embs_data, "val")
        result.log.append({"epoch": epoch + 1, "train_loss": train_loss,
                           "val_ndcg": val_ndcg, "val_loss": val_loss, "lr": lr})
        better = (val_ndcg > result.best_val_ndcg
                  or (val_ndcg == result.best_val_ndcg and val_loss < result.best_val_loss))
        if better:
            result.best_epoch = epoch + 1
            result.best_val_ndcg = val_ndcg
            result.best_val_loss = val_loss
            result.best_params = ps.snapshot()
        # only reuse reads this forward again (through `embs`); otherwise
        # its arrays would stay alive through the next epoch's step
        del val_embs, embs_data
    ps.vector[...] = result.best_params
    return ps, result


def write_log(path, log: list) -> None:
    """One JSON object per line: epoch, train_loss, val_ndcg, val_loss, lr."""
    write_lines(path, [json.dumps(entry, sort_keys=True) for entry in log])


def evaluate(graph: BiGraph, tasks, ps: ParamSet, config: ModelConfig,
             split: str = "test", cluster_repeats: int = 10) -> dict:
    """Per-task ranking/accuracy metrics plus clustering quality.

    Clustering runs k-means on the embeddings of the first single-label
    task's node class against its labels, over all labeled nodes.
    """
    embs, _ = forward(graph, config, ps, training=False)
    embs_data = {t: embs[t].data for t in embs}
    report = {}
    for task in tasks:
        ids = task.split_ids(split)
        if ids.size == 0:
            report[task.name] = {"ndcg": None, "mrr": None, "acc": None}
            continue
        scores, relevant = task_scores(task, embs_data, ps, ids)
        rr = mrr_rows(scores, relevant)
        report[task.name] = {"ndcg": float(np.mean(ndcg_rows(scores, relevant))),
                             "mrr": float(np.mean(rr)),
                             "acc": float(np.mean(rr == 1.0))}  # hit@1
    single = next((t for t in tasks if t.kind is TaskKind.SINGLE_LABEL), None)
    if single is not None:
        nodes = np.array(sorted(single.labels), dtype=np.int64)
        emb = embs_data[single.target_type]
        lowest = single.label_matrix(nodes, emb.shape[0]).argmax(axis=1)  # each node's lowest class
        res = cluster_eval(emb[nodes], lowest, single.n_classes,
                           repeats=cluster_repeats, seed=config.seed)
        report["clustering"] = {"nmi_mean": res.nmi_mean, "nmi_std": res.nmi_std,
                                "ari_mean": res.ari_mean, "ari_std": res.ari_std}
    return report
