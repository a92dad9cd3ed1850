"""Training loop: determinism, log schema, checkpoint selection, and the
evaluation report shape."""
import importlib
import json
from dataclasses import replace

import numpy as np
import pytest

from duograph import ops
from duograph.errors import ConfigShapeMismatch, DivergedLoss, NoLabeledNodes, NodeOutOfRange
from duograph.metrics import accuracy, cluster_eval, mrr, ndcg, ranked_order
from duograph.model import ModelConfig, RankInstance, TaskKind, forward
from duograph.optim import AdamW, cosine_lr
from duograph.params import build_params
from duograph.rand import rng_for
from duograph.synth import SynthConfig, generate
from duograph.tensor import Tape, backward, load_tensors, save_tensors
from duograph.train import TrainResult, _total_loss, evaluate, train, write_log

# the package re-exports the function train, which shadows the module name
train_mod = importlib.import_module("duograph.train")


def _problem(seed=13):
    synth = SynthConfig(n_papers=24, n_authors=12, n_venues=2, n_fields_l1=2,
                        n_fields_l2=3, feature_dim=5, name_group_size=3,
                        ad_distractors=3, seed=seed)
    graph, tasks = generate(synth)
    config = ModelConfig(input_dim=5, hidden_dim=4, num_layers=1, dropout=0.1,
                         epochs=4, lr_max=5e-3, seed=seed)
    return graph, tasks, config


class TestTrainLoop:
    def test_bitwise_determinism(self):
        graph, tasks, config = _problem()
        ps1, res1 = train(graph, tasks, config)
        ps2, res2 = train(graph, tasks, config)
        assert res1.log == res2.log
        for (name, a), (_, b) in zip(ps1.named, ps2.named):
            assert np.array_equal(a.data, b.data), name

    def test_reused_forward_matches_a_fresh_forward_per_step(self):
        # without dropout, train() records each epoch's evaluation forward and
        # reuses it for the next step; a fresh forward per step must agree
        graph, tasks, config = _problem()
        config = replace(config, dropout=0.0)
        _, result = train(graph, tasks, config)
        ps = build_params(graph, config, tasks)
        opt = AdamW(ps.vector, weight_decay=config.weight_decay)
        for epoch, entry in enumerate(result.log):
            ps.zero_grad()
            with Tape() as tape:
                embs, _ = forward(graph, config, ps, training=True,
                                  rng=rng_for(config.seed, "dropout", epoch))
                loss = _total_loss(tasks, embs, ps, config, "train",
                                   rng_for(config.seed, "negatives", epoch))
            assert float(loss.data[0, 0]) == entry["train_loss"]
            backward(tape, loss)
            opt.step(entry["lr"], ps.grads())
            embs, _ = forward(graph, config, ps)
            val = _total_loss(tasks, embs, ps, config, "val",
                              rng_for(config.seed, "val-negatives"))
            assert float(val.data[0, 0]) == entry["val_loss"]

    @pytest.mark.parametrize("dropout, forwards_per_epoch", [(0.0, 1), (0.1, 2)])
    def test_forwards_per_epoch(self, monkeypatch, dropout, forwards_per_epoch):
        graph, tasks, config = _problem()
        config = replace(config, dropout=dropout)
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs.get("training"))
            return forward(*args, **kwargs)

        monkeypatch.setattr(train_mod, "forward", counted)
        train(graph, tasks, config)
        extra = 1 if dropout == 0.0 else 0  # the first epoch's training forward
        assert len(calls) == forwards_per_epoch * config.epochs + extra

    def test_log_schema(self):
        graph, tasks, config = _problem()
        _, result = train(graph, tasks, config)
        assert len(result.log) == config.epochs
        for i, entry in enumerate(result.log):
            assert set(entry) == {"epoch", "train_loss", "val_ndcg", "val_loss", "lr"}
            assert entry["epoch"] == i + 1
            assert entry["lr"] == cosine_lr(i, config.epochs,
                                            config.lr_max, config.lr_min)

    def test_best_checkpoint_selection(self):
        graph, tasks, config = _problem()
        _, result = train(graph, tasks, config)
        best = max(e["val_ndcg"] for e in result.log)
        assert result.best_val_ndcg == best
        ties = [e for e in result.log if e["val_ndcg"] == best]
        assert result.best_val_loss == min(e["val_loss"] for e in ties)
        chosen = [e for e in ties if e["val_loss"] == result.best_val_loss]
        assert result.best_epoch in [e["epoch"] for e in chosen]

    def test_returned_params_are_best_snapshot(self):
        graph, tasks, config = _problem()
        ps, result = train(graph, tasks, config)
        assert result.best_params is not ps.vector
        for (name, t), start in zip(ps.named, ps.offsets):
            data = result.best_params[start:start + t.data.size].reshape(t.shape)
            assert np.array_equal(t.data, data), name

    def test_resume_from_given_params(self):
        graph, tasks, config = _problem()
        ps = build_params(graph, config, tasks)
        first = {n: t.data.copy() for n, t in ps.named}
        out_ps, _ = train(graph, tasks, config, ps=ps)
        assert out_ps is ps
        assert any(not np.array_equal(first[n], t.data) for n, t in ps.named)

    def test_diverged_loss_raises(self):
        graph, tasks, config = _problem()
        bad = ModelConfig(**{**config.to_dict(), "lr_max": 1e12, "lr_min": 1e12,
                             "epochs": 30})
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(DivergedLoss):
                train(graph, tasks, bad)

    def test_non_finite_gradient_names_first_parameter(self, monkeypatch):
        # the loss stays finite while both feature projections get an inf
        # gradient; the error names the earlier one in ParamSet order, and
        # no optimizer step is taken
        graph, tasks, config = _problem()
        ps = build_params(graph, config, tasks)
        before = ps.snapshot()
        poisoned = (ps.get("layer0.B.proj"), ps.get("layer0.A.proj"))
        real_matmul = ops.matmul

        def matmul(x, w):
            if not any(w is p for p in poisoned):
                return real_matmul(x, w)
            return ops._result(x.data @ w.data, (x, w),
                               lambda g: (None, np.full(w.shape, np.inf)))

        monkeypatch.setattr(ops, "matmul", matmul)
        with pytest.raises(DivergedLoss, match=r"'layer0\.A\.proj' became non-finite at epoch 1$"):
            train(graph, tasks, config, ps=ps)
        assert np.array_equal(before, ps.snapshot())

    @pytest.mark.parametrize("entry", ["first", "middle", "last"])
    def test_non_finite_gradient_names_the_owner_of_the_first_bad_entry(self, monkeypatch,
                                                                         entry):
        # one bad entry inside `layer0.B.proj` (neither the first tensor nor
        # the last), and a later tensor wholly NaN: the error names the owner of
        # the first bad entry of the whole gradient vector
        graph, tasks, config = _problem()
        ps = build_params(graph, config, tasks)
        poisoned = ps.get("layer0.B.proj")
        later = ps.get("head.pv.weight")
        names = [n for n, _ in ps.named]
        assert 0 < names.index("layer0.B.proj") < names.index("head.pv.weight")
        flat = {"first": 0, "middle": poisoned.data.size // 2, "last": poisoned.data.size - 1}
        real_matmul = ops.matmul

        def matmul(x, w):
            if w is not poisoned and w is not later:
                return real_matmul(x, w)
            xd, wd = x.data, w.data

            def bw(g):
                gw = xd.T @ g
                if w is later:
                    gw[:] = np.nan
                else:
                    gw.reshape(-1)[flat[entry]] = np.inf
                return g @ wd.T, gw

            return ops._result(xd @ wd, (x, w), bw)

        monkeypatch.setattr(ops, "matmul", matmul)
        with pytest.raises(DivergedLoss, match=r"'layer0\.B\.proj' became non-finite at epoch 1$"):
            train(graph, tasks, config, ps=ps)

    def test_parameters_stay_views_of_the_vector(self, tmp_path):
        # after build_params, after a checkpoint load, and after train
        graph, tasks, config = _problem()

        def assert_views(ps):
            for name, t in ps.named:
                assert np.shares_memory(t.data, ps.vector), name

        ps = build_params(graph, config, tasks)
        assert_views(ps)
        trained, _ = train(graph, tasks, config)
        assert_views(trained)
        path = str(tmp_path / "ckpt.bin")
        save_tensors(path, trained.named)
        ps.load(load_tensors(path))
        assert_views(ps)
        assert np.array_equal(ps.vector, trained.vector)
        vector = ps.vector
        train(graph, tasks, config, ps=ps)
        assert ps.vector is vector
        assert_views(ps)

    def test_checkpoint_naming_a_parameter_twice_is_rejected(self, tmp_path):
        graph, tasks, config = _problem()
        ps = build_params(graph, config, tasks)
        first, t0 = ps.named[0]
        path = str(tmp_path / "ckpt.bin")
        save_tensors(path, [(first, t0), (first, t0), *ps.named[1:]])
        before = ps.snapshot()
        with pytest.raises(ConfigShapeMismatch,
                           match=f"checkpoint holds parameter '{first}' twice$"):
            ps.load(load_tensors(path))
        assert np.array_equal(before, ps.vector)

    def test_checkpoint_with_a_wrong_shape_loads_nothing(self):
        # a later tensor's shape fails: the earlier ones keep their values too
        graph, tasks, config = _problem()
        ps = build_params(graph, config, tasks)
        named = [(n, np.ones_like(t.data)) for n, t in ps.named]
        last, data = named[-1]
        named[-1] = (last, np.ones((data.shape[0] + 1, data.shape[1])))
        before = ps.snapshot()
        with pytest.raises(ConfigShapeMismatch, match=f"parameter '{last}': checkpoint shape"):
            ps.load(named)
        assert np.array_equal(before, ps.vector)

    def test_write_log_round_trips(self, tmp_path):
        graph, tasks, config = _problem()
        _, result = train(graph, tasks, config)
        path = tmp_path / "log.jsonl"
        write_log(str(path), result.log)
        lines = path.read_text().strip().split("\n")
        assert [json.loads(line) for line in lines] == result.log

    def test_write_log_of_no_epochs_is_empty(self, tmp_path):
        path = tmp_path / "log.jsonl"
        write_log(str(path), [])
        assert path.read_bytes() == b""


class TestEvaluate:
    def test_report_shape(self):
        graph, tasks, config = _problem()
        ps, _ = train(graph, tasks, config)
        report = evaluate(graph, tasks, ps, config, cluster_repeats=3)
        assert set(report) == {"pv", "pf_l1", "pf_l2", "ad", "clustering"}
        for name in ("pv", "pf_l1", "pf_l2", "ad"):
            assert set(report[name]) == {"ndcg", "mrr", "acc"}
            for v in report[name].values():
                assert v is None or 0.0 <= v <= 1.0
        assert set(report["clustering"]) == {"nmi_mean", "nmi_std",
                                             "ari_mean", "ari_std"}

    def test_empty_split_reports_none(self):
        graph, tasks, config = _problem()
        ps = build_params(graph, config, tasks)
        for task in tasks:
            task.splits = {k: v for k, v in task.splits.items() if k != "test"}
        report = evaluate(graph, tasks, ps, config, cluster_repeats=2)
        for name in ("pv", "pf_l1", "pf_l2", "ad"):
            assert report[name] == {"ndcg": None, "mrr": None, "acc": None}
        assert report["clustering"]["nmi_mean"] is not None

    def test_clustering_uses_all_labeled_nodes(self):
        # clustering quality must not change when the test split shrinks
        graph, tasks, config = _problem()
        ps = build_params(graph, config, tasks)
        full = evaluate(graph, tasks, ps, config, cluster_repeats=2)
        for task in tasks:
            task.splits["test"] = task.splits["test"][:1]
        small = evaluate(graph, tasks, ps, config, cluster_repeats=2)
        assert full["clustering"] == small["clustering"]

    def test_equals_mean_of_per_row_oracles_with_padded_candidates(self):
        # ranking instances of differing lengths are padded in one score
        # matrix; each task's report must equal the mean of the per-row
        # metrics computed on each instance's own list
        graph, tasks, config = _problem()
        ad = next(t for t in tasks if t.kind is TaskKind.LINK_RANKING)
        shortened = []
        for k, inst in enumerate(ad.instances):
            others = [int(c) for c in inst.candidates if c != inst.true_id]
            keep = others[:1 + k % len(others)]
            shortened.append(RankInstance.make(inst.query, inst.true_id, keep))
        ad.instances = shortened
        test = ad.split_ids("test")
        assert len({ad.instances[i].candidates.size for i in test}) > 1
        ps, _ = train(graph, tasks, config)
        report = evaluate(graph, tasks, ps, config, cluster_repeats=1)

        embs, _ = forward(graph, config, ps, training=False)
        for task in tasks:
            emb = embs[task.target_type].data
            rows = []  # (scores, relevance, label set of the top-ranked candidate's row)
            for i in task.split_ids("test"):
                if task.kind is TaskKind.LINK_RANKING:
                    inst = task.instances[int(i)]
                    qv = emb[inst.query] @ ps.get("head.ad.query").data
                    cv = embs[task.target_type.other].data[inst.candidates] @ ps.get("head.ad.cand").data
                    rel = np.arange(inst.candidates.size) == inst.true_index
                    rows.append((cv @ qv, rel, {inst.true_index}))
                else:
                    scores = emb[int(i)] @ ps.get(f"head.{task.name}.weight").data
                    labels = task.labels[int(i)]
                    rows.append((scores, np.isin(np.arange(task.n_classes), labels), set(labels)))
            expected = {
                "ndcg": float(np.mean([ndcg(s, r) for s, r, _ in rows])),
                "mrr": float(np.mean([mrr(s, r) for s, r, _ in rows])),
                "acc": accuracy([ranked_order(s)[0] for s, _, _ in rows], [l for _, _, l in rows]),
            }
            assert report[task.name] == expected, task.name


class TestBadLabels:
    """A classification label that does not fit its task or graph raises a
    typed error naming the task and the node, through `train`."""

    @staticmethod
    def _problem():
        graph, tasks = generate(SynthConfig(n_papers=40, n_authors=20, seed=0))
        config = ModelConfig(input_dim=graph.feature_dim, hidden_dim=4, num_layers=1,
                             epochs=2, seed=0)
        pv = next(t for t in tasks if t.name == "pv")
        return graph, tasks, config, pv, int(pv.split_ids("train")[3])

    def test_split_node_without_labels(self):
        graph, tasks, config, pv, node = self._problem()
        del pv.labels[node]
        with pytest.raises(NoLabeledNodes, match=f"^task 'pv': node {node} has no labels$"):
            train(graph, tasks, config)

    @pytest.mark.parametrize("node", [40, -1])
    def test_node_outside_the_graph(self, node):
        graph, tasks, config, pv, _ = self._problem()
        pv.labels[node] = (0,)
        pv.splits["val"] = np.append(pv.split_ids("val"), node)
        with pytest.raises(NodeOutOfRange, match=rf"^task 'pv': node {node} outside \[0, 40\)$"):
            train(graph, tasks, config)

    @pytest.mark.parametrize("too_high", [True, False])
    def test_label_outside_the_classes(self, too_high):
        graph, tasks, config, pv, node = self._problem()
        n = pv.n_classes
        label = n if too_high else -1
        pv.labels[node] = (0, label)
        with pytest.raises(ConfigShapeMismatch,
                           match=rf"^task 'pv': node {node} has class {label} outside \[0, {n}\)$"):
            train(graph, tasks, config)

    def test_evaluate_checks_the_labels_it_scores(self):
        graph, tasks, config, pv, _ = self._problem()
        ps, _ = train(graph, tasks, config)
        node = int(pv.split_ids("test")[0])
        del pv.labels[node]
        with pytest.raises(NoLabeledNodes, match=f"^task 'pv': node {node} has no labels$"):
            evaluate(graph, tasks, ps, config)

    @pytest.mark.parametrize("node", [40, -1])
    def test_clustering_checks_labelled_nodes_outside_every_split(self, node):
        # training reads only split nodes; the clustering reads every labelled node
        graph, tasks, config, pv, _ = self._problem()
        pv.labels[node] = (0,)
        ps, _ = train(graph, tasks, config)
        with pytest.raises(NodeOutOfRange, match=rf"^task 'pv': node {node} outside \[0, 40\)$"):
            evaluate(graph, tasks, ps, config, cluster_repeats=1)

    def test_empty_label_set_counts_as_no_labels(self):
        graph, tasks, config, pv, node = self._problem()
        pv.labels[node] = ()
        with pytest.raises(NoLabeledNodes, match=f"^task 'pv': node {node} has no labels$"):
            train(graph, tasks, config)

    def test_clustering_scores_each_nodes_lowest_class(self):
        graph, tasks, config, pv, _ = self._problem()
        ps = build_params(graph, config, tasks)
        report = evaluate(graph, tasks, ps, config, cluster_repeats=2)
        nodes = sorted(pv.labels)
        emb = forward(graph, config, ps)[0][pv.target_type].data[nodes]
        res = cluster_eval(emb, np.array([min(pv.labels[n]) for n in nodes]), pv.n_classes,
                           repeats=2, seed=config.seed)
        assert report["clustering"] == {"nmi_mean": res.nmi_mean, "nmi_std": res.nmi_std,
                                        "ari_mean": res.ari_mean, "ari_std": res.ari_std}
