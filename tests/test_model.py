"""Model-level behavior: variant relationships, loss oracles, dropout
determinism, and an end-to-end finite-difference check through a full
training loss."""
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from duograph import ops
from duograph.errors import ConfigShapeMismatch, Error, NoLabeledNodes
from duograph.graph import NodeType
from duograph.model import (ORDERINGS, VARIANTS, ModelConfig, RankInstance, TaskKind, TaskSpec,
                            _draw_negatives, classification_scores, forward, ranking_scores,
                            task_loss, task_scores)
from duograph.params import ParamSet, build_params
from duograph.rand import rng_for
from duograph.synth import SynthConfig, generate
from duograph.tensor import Tape, Tensor, backward

import reference
from conftest import random_bigraph
from test_acceptance import ACCEPT_MODEL, ACCEPT_SYNTH


def _config(**overrides):
    base = dict(input_dim=2, hidden_dim=4, num_layers=2, dropout=0.0, seed=1)
    base.update(overrides)
    return ModelConfig(**base)


def _tiny_problem():
    synth = SynthConfig(n_papers=8, n_authors=6, n_venues=2, n_fields_l1=2,
                        n_fields_l2=2, feature_dim=4, min_authors=1, max_authors=2,
                        name_group_size=2, ad_distractors=2, seed=5)
    graph, tasks = generate(synth)
    config = ModelConfig(input_dim=4, hidden_dim=3, num_layers=2, dropout=0.0, seed=5)
    return graph, tasks, config


class TestForwardVariants:
    def test_all_variants_and_orderings_finite(self):
        self._check_all_variants_and_orderings(random_bigraph(rng_for(0, "g"), dim=3))

    def test_all_variants_and_orderings_finite_without_cross_relations(self):
        # without cross relations the no-dual block holds within-class relations only
        self._check_all_variants_and_orderings(
            random_bigraph(rng_for(0, "g"), dim=3, n_inter=0))

    @staticmethod
    def _check_all_variants_and_orderings(graph):
        for variant in ("full", "no-dual", "no-hier", "no-global"):
            for ordering in ("standard", "inverted", "parallel"):
                config = _config(input_dim=3, variant=variant, ordering=ordering)
                ps = build_params(graph, config, [])
                embs, _ = forward(graph, config, ps)
                for t in (NodeType.A, NodeType.B):
                    assert embs[t].data.shape == (graph.n_nodes(t), 4)
                    assert np.isfinite(embs[t].data).all()

    def test_noglobal_is_full_with_mix_forced_off(self):
        # sigmoid(-1e9) underflows to exactly 0, so the fused coefficients
        # collapse to the per-node weights and the variants must agree
        graph = random_bigraph(rng_for(1, "g"), dim=3)
        full_cfg = _config(input_dim=3, variant="full")
        ps = build_params(graph, full_cfg, [])
        for layer in range(full_cfg.num_layers):
            for label in ("A", "B"):
                ps.get(f"layer{layer}.{label}.mix_logit").data[:] = -1e9
        full_embs, _ = forward(graph, full_cfg, ps)
        ng_embs, _ = forward(graph, replace(full_cfg, variant="no-global"), ps)
        for t in (NodeType.A, NodeType.B):
            np.testing.assert_allclose(full_embs[t].data, ng_embs[t].data,
                                       rtol=0.0, atol=1e-12)

    def test_zero_layers_is_projection(self, tiny_graph):
        config = _config(num_layers=0)
        ps = build_params(tiny_graph, config, [])
        embs, _ = forward(tiny_graph, config, ps)
        for t in (NodeType.A, NodeType.B):
            expect = tiny_graph.features[t] @ ps.get(f"proj.{t.label}").data
            np.testing.assert_allclose(embs[t].data, expect, atol=0.0)

    def test_input_dim_mismatch(self, tiny_graph):
        config = _config(input_dim=5)
        ps = build_params(random_bigraph(rng_for(2, "g"), dim=5), config, [])
        with pytest.raises(ConfigShapeMismatch):
            forward(tiny_graph, config, ps)

    def test_variants_differ(self):
        graph = random_bigraph(rng_for(3, "g"), dim=3)
        full_cfg = _config(input_dim=3, variant="full")
        ps = build_params(graph, full_cfg, [])
        full_embs, _ = forward(graph, full_cfg, ps)
        hier_embs, _ = forward(graph, replace(full_cfg, variant="no-hier"), ps)
        diff = np.abs(full_embs[NodeType.B].data - hier_embs[NodeType.B].data).max()
        assert diff > 1e-6


# what json.load can hand a config field, NaN, ±inf and ints past float range included
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from([float("nan"), float("inf"), -float("inf"), 10 ** 400, -10 ** 400]),
    lambda kids: st.lists(kids, max_size=2) | st.dictionaries(st.text(max_size=2), kids,
                                                                max_size=2),
    max_leaves=4)


@st.composite
def _config_dicts(draw):
    """A model or generator config's dict: valid fields with a few replaced,
    dropped or added."""
    cls = draw(st.sampled_from([ModelConfig, SynthConfig]))
    names = sorted(cls.__dataclass_fields__)
    fields = {"input_dim": 3} if cls is ModelConfig else {}
    for name in draw(st.lists(st.sampled_from(names + ["unknown"]), max_size=3, unique=True)):
        fields[name] = draw(_JSON)
    for name in draw(st.lists(st.sampled_from(names), max_size=1)):
        fields.pop(name, None)
    return cls, fields


class TestConfigFieldTypes:
    @pytest.mark.parametrize("field, value", [
        ("epochs", "3"), ("hidden_dim", 4.5), ("epochs", 2.5), ("seed", True),
        ("temperature", float("inf")), ("dropout", float("nan")), ("variant", 3),
        ("extra_inter_residual", 1), pytest.param("lr_max", 10 ** 400, id="lr_max-10**400")])
    def test_wrong_type_raises_naming_the_field(self, field, value):
        with pytest.raises(ConfigShapeMismatch, match=f"^{field} must be"):
            _config(**{field: value})

    def test_ints_are_accepted_for_float_fields(self):
        assert _config(dropout=0, temperature=2).temperature == 2

    @settings(max_examples=300, deadline=1000, derandomize=True)
    @given(_config_dicts())
    def test_any_json_fields_return_or_raise_a_package_error(self, case):
        cls, fields = case
        try:
            assert isinstance(cls.from_dict(fields), cls)
        except Error:
            pass


class TestOpBudget:
    def test_gate_size_forward_records_at_most_170_ops(self):
        # one relation block per (stage, node class) instead of one pipeline per relation
        graph, tasks = generate(SynthConfig(**ACCEPT_SYNTH))
        config = ModelConfig(seed=0, **ACCEPT_MODEL)
        ps = build_params(graph, config, tasks)
        with Tape() as tape:
            forward(graph, config, ps)
        assert len(tape) <= 170


def _gate_size_tape(ps, graph, tasks, config):
    from duograph.train import _total_loss
    with Tape() as tape:
        embs, _ = forward(graph, config, ps, training=True, rng=rng_for(0, "dropout"))
        loss = _total_loss(tasks, embs, ps, config, "train", neg_rng=rng_for(0, "neg"))
    return tape, loss


def _watched(fn, spent, alive):
    """`fn`, noting a weak reference to each gradient it is handed, and
    how many gradients handed to earlier closures are still alive."""
    def watched(g):
        alive.append(sum(ref() is not None for ref in spent))
        spent.append(weakref.ref(g))
        return fn(g)
    return watched


class TestBackwardWalk:
    def test_spent_gradients_are_freed_and_parameter_gradients_unchanged(self):
        self._check_walk("full", "standard")

    @pytest.mark.parametrize("variant, ordering", [
        (v, o) for v in VARIANTS for o in ORDERINGS if (v, o) != ("full", "standard")])
    def test_every_variant_and_ordering(self, variant, ordering):
        # every stage's closures, the fused norm-activation and residual
        # primitives included, hand the walk arrays it may keep uncopied
        self._check_walk(variant, ordering)

    @staticmethod
    def _check_walk(variant, ordering):
        graph, tasks = generate(SynthConfig(**ACCEPT_SYNTH))
        config = ModelConfig(seed=0, variant=variant, ordering=ordering, **ACCEPT_MODEL)
        ps = build_params(graph, config, tasks)
        grads, held, peak, live = [], [], [], []
        for walk in (reference.backward, backward):
            ps.zero_grad()
            tape, loss = _gate_size_tape(ps, graph, tasks, config)
            n_records = len(tape)
            closures = [weakref.ref(fn) for _, _, fn in tape._records]
            spent, alive = [], []
            tape._records[:] = [(shape, refs, _watched(fn, spent, alive))
                                for shape, refs, fn in tape._records]
            kept = walk(tape, loss)
            assert len(tape) == n_records
            grads.append({name: t.grad for name, t in ps.named})
            held.append(sum(ref() is not None for ref in spent))
            peak.append(max(alive))
            live.append(sum(ref() is not None for ref in closures))
            del kept
        old, new = grads
        assert held[0] > 0 and held[1] == 0
        # the walk lets go of each gradient once its closure has run
        assert peak[0] == held[0] - 1 and peak[1] <= 1
        assert live[0] == n_records and live[1] == 0
        assert any(g.any() for g in new.values())
        for name in old:
            assert new[name].tobytes() == old[name].tobytes(), name

    def test_no_closure_holds_a_tensor(self):
        # a closure keeps the flags and arrays it reads, so a tensor it
        # would otherwise hold (and that tensor's array) can be freed
        graph, tasks = generate(SynthConfig(**ACCEPT_SYNTH))
        config = ModelConfig(seed=0, **ACCEPT_MODEL)
        ps = build_params(graph, config, tasks)
        tape, _ = _gate_size_tape(ps, graph, tasks, config)

        def tensors(value):
            if isinstance(value, (tuple, list)):
                return [t for v in value for t in tensors(v)]
            return [value] if isinstance(value, Tensor) else []

        held = [(fn.__qualname__, name) for _, _, fn in tape._records
                for name, cell in zip(fn.__code__.co_freevars, fn.__closure__ or ())
                if tensors(cell.cell_contents)]
        assert len(tape) > 150
        assert held == []


class TestDropout:
    def test_same_stream_same_output(self, tiny_graph):
        config = _config(dropout=0.4)
        ps = build_params(tiny_graph, config, [])
        a, _ = forward(tiny_graph, config, ps, training=True, rng=rng_for(9, "d"))
        b, _ = forward(tiny_graph, config, ps, training=True, rng=rng_for(9, "d"))
        for t in (NodeType.A, NodeType.B):
            np.testing.assert_array_equal(a[t].data, b[t].data)

    def test_different_stream_differs(self, tiny_graph):
        config = _config(dropout=0.4)
        ps = build_params(tiny_graph, config, [])
        a, _ = forward(tiny_graph, config, ps, training=True, rng=rng_for(9, "d"))
        b, _ = forward(tiny_graph, config, ps, training=True, rng=rng_for(10, "d"))
        assert any(not np.array_equal(a[t].data, b[t].data)
                   for t in (NodeType.A, NodeType.B))

    def test_eval_ignores_dropout(self, tiny_graph):
        config = _config(dropout=0.4)
        ps = build_params(tiny_graph, config, [])
        a, _ = forward(tiny_graph, config, ps, training=False)
        b, _ = forward(tiny_graph, config, ps, training=False)
        for t in (NodeType.A, NodeType.B):
            np.testing.assert_array_equal(a[t].data, b[t].data)

    def test_training_requires_rng(self, tiny_graph):
        config = _config(dropout=0.4)
        ps = build_params(tiny_graph, config, [])
        with pytest.raises(ConfigShapeMismatch):
            forward(tiny_graph, config, ps, training=True)


class TestRecords:
    def test_collect_returns_per_relation_attention(self, tiny_graph):
        config = _config(num_layers=2)
        ps = build_params(tiny_graph, config, [])
        _, records = forward(tiny_graph, config, ps, collect=True)
        # 3 relations: colleague (A), cite (B), wrote (both directions)
        per_layer = [r for r in records.attention if r.layer == 0]
        assert {(r.relation, r.target_type.label, r.stage) for r in per_layer} == {
            ("colleague", "A", "intra"), ("cite", "B", "intra"),
            ("wrote", "A", "inter"), ("wrote", "B", "inter")}
        for rec in records.attention:
            sums = np.add.reduceat(rec.alpha, rec.offsets[:-1])
            np.testing.assert_allclose(sums, 1.0, atol=1e-12)
        stages = {(r.layer, r.target_type.label, r.stage) for r in records.fusion}
        assert ("intra" in {s for _, _, s in stages}
                and "inter" in {s for _, _, s in stages})

    def test_records_slice_each_relation_from_its_block(self):
        # two within-class relations per class and two cross relations per block
        graph = random_bigraph(rng_for(2, "g"), dim=3, extra_intra=1, n_inter=2)
        config = _config(input_dim=3, num_layers=1)
        _, records = forward(graph, config, build_params(graph, config, []), collect=True)
        assert len({r.relation for r in records.attention}) > 2
        for rec in records.attention:
            assert rec.alpha.size == rec.sources.size == rec.offsets[-1]
            np.testing.assert_allclose(np.add.reduceat(rec.alpha, rec.offsets[:-1]), 1.0,
                                       atol=1e-12)

    def test_no_collect_returns_none(self, tiny_graph):
        config = _config()
        ps = build_params(tiny_graph, config, [])
        _, records = forward(tiny_graph, config, ps)
        assert records is None


def _zero_embs(n_a, n_b, d):
    return {NodeType.A: ops.constant(np.zeros((n_a, d))),
            NodeType.B: ops.constant(np.zeros((n_b, d)))}


def _single_label_task(n_classes=3):
    return TaskSpec(name="pv", kind=TaskKind.SINGLE_LABEL, target_type=NodeType.B,
                    n_classes=n_classes,
                    labels={0: (0,), 1: (1,), 2: (2,), 3: (0,)},
                    splits={"train": np.arange(4)})


class TestLossOracles:
    def test_single_label_uniform_is_log_c(self):
        # zero embeddings and zero head weights give uniform probabilities
        task = _single_label_task()
        config = _config(hidden_dim=4)
        ps = ParamSet([("head.pv.weight", np.zeros((4, 3)))])
        loss = task_loss(task, _zero_embs(2, 4, 4), ps, config)
        assert loss.data[0, 0] == pytest.approx(np.log(3.0), abs=1e-15)

    def test_single_label_hand_logits(self):
        # emb rows one-hot, identity head: logit row = one-hot of node id
        task = TaskSpec(name="pv", kind=TaskKind.SINGLE_LABEL, target_type=NodeType.B,
                        n_classes=2, labels={0: (0,), 1: (0,)},
                        splits={"train": np.arange(2)})
        ps = ParamSet([("head.pv.weight", np.eye(2))])
        embs = {NodeType.B: ops.constant(np.eye(2))}
        loss = task_loss(task, embs, ps, _config(hidden_dim=2))
        # rows [1,0] and [0,1], both labeled 0:
        # CE = -ln(e/(e+1)) and -ln(1/(1+e))
        expect = 0.5 * ((np.log(1 + np.e) - 1) + np.log(1 + np.e))
        assert loss.data[0, 0] == pytest.approx(expect, abs=1e-14)

    def test_temperature_divides_logits(self):
        task = TaskSpec(name="pv", kind=TaskKind.SINGLE_LABEL, target_type=NodeType.B,
                        n_classes=2, labels={0: (0,)}, splits={"train": np.arange(1)})
        ps = ParamSet([("head.pv.weight", np.eye(2))])
        embs = {NodeType.B: ops.constant(np.array([[2.0, 0.0]]))}
        loss = task_loss(task, embs, ps, _config(hidden_dim=2, temperature=2.0))
        # logits [2,0] scaled by 1/2 -> [1,0]; CE = ln(1+e) - 1
        assert loss.data[0, 0] == pytest.approx(np.log(1 + np.e) - 1, abs=1e-14)

    def test_literal_temperature_adds_log_constant(self):
        task = _single_label_task()
        ps = ParamSet([("head.pv.weight", np.zeros((4, 3)))])
        base = _config(hidden_dim=4, temperature=2.0)
        lit = _config(hidden_dim=4, temperature=2.0, literal_temperature=True)
        plain = task_loss(task, _zero_embs(2, 4, 4), ps, base).data[0, 0]
        literal = task_loss(task, _zero_embs(2, 4, 4), ps, lit).data[0, 0]
        assert plain == pytest.approx(np.log(3.0), abs=1e-15)
        assert literal == pytest.approx(np.log(3.0) + np.log(2.0), abs=1e-15)

    def test_multi_label_zero_logits_is_log_two(self):
        task = TaskSpec(name="pf", kind=TaskKind.MULTI_LABEL, target_type=NodeType.B,
                        n_classes=3, labels={0: (0, 2), 1: (1,)},
                        splits={"train": np.arange(2)})
        ps = ParamSet([("head.pf.weight", np.zeros((4, 3)))])
        loss = task_loss(task, _zero_embs(2, 4, 4), ps, _config(hidden_dim=4))
        assert loss.data[0, 0] == pytest.approx(np.log(2.0), abs=1e-15)

    def test_multi_label_hand_value(self):
        # single node, logits [1, -1, 0], labels {0}
        # entries: softplus(1)-1, softplus(-1), softplus(0)
        task = TaskSpec(name="pf", kind=TaskKind.MULTI_LABEL, target_type=NodeType.B,
                        n_classes=3, labels={0: (0,)}, splits={"train": np.arange(1)})
        ps = ParamSet([("head.pf.weight", np.eye(3))])
        embs = {NodeType.B: ops.constant(np.array([[1.0, -1.0, 0.0]]))}
        loss = task_loss(task, embs, ps, _config(hidden_dim=3))
        expect = (np.log1p(np.e) - 1 + np.log1p(np.exp(-1)) + np.log(2.0)) / 3.0
        assert loss.data[0, 0] == pytest.approx(expect, abs=1e-14)

    def test_ranking_uniform_is_log_candidates(self):
        inst = [RankInstance.make(0, 1, [0, 2]), RankInstance.make(1, 3, [0, 1])]
        task = TaskSpec(name="ad", kind=TaskKind.LINK_RANKING, target_type=NodeType.A,
                        instances=inst, splits={"train": np.arange(2)})
        config = _config(hidden_dim=4, num_negatives=4)
        ps = ParamSet([("head.ad.query", np.zeros((4, 4))), ("head.ad.cand", np.zeros((4, 4)))])
        loss = task_loss(task, _zero_embs(2, 5, 4), ps, config, rng=rng_for(0, "n"))
        assert loss.data[0, 0] == pytest.approx(np.log(5.0), abs=1e-14)

    def test_ranking_needs_rng(self):
        inst = [RankInstance.make(0, 1, [0])]
        task = TaskSpec(name="ad", kind=TaskKind.LINK_RANKING, target_type=NodeType.A,
                        instances=inst, splits={"train": np.arange(1)})
        ps = ParamSet([("head.ad.query", np.zeros((4, 4))), ("head.ad.cand", np.zeros((4, 4)))])
        with pytest.raises(NoLabeledNodes):
            task_loss(task, _zero_embs(1, 2, 4), ps, _config(hidden_dim=4))

    def test_empty_split_raises(self):
        task = _single_label_task()
        ps = ParamSet([("head.pv.weight", np.zeros((4, 3)))])
        with pytest.raises(NoLabeledNodes):
            task_loss(task, _zero_embs(2, 4, 4), ps, _config(hidden_dim=4), split="test")

    def test_negatives_never_equal_true_id(self):
        # candidate pool of 2: the only legal negative differs from the true id
        inst = [RankInstance.make(0, 1, [0])]
        task = TaskSpec(name="ad", kind=TaskKind.LINK_RANKING, target_type=NodeType.A,
                        instances=inst, splits={"train": np.arange(1)})
        config = _config(hidden_dim=2, num_negatives=6)
        ps = ParamSet([("head.ad.query", np.eye(2)), ("head.ad.cand", np.eye(2))])
        embs = {NodeType.A: ops.constant(np.array([[1.0, 0.0]])),
                NodeType.B: ops.constant(np.array([[0.0, 5.0], [3.0, 0.0]]))}
        loss = task_loss(task, embs, ps, config, rng=rng_for(1, "n"))
        # negatives must all be candidate 0: score(true)=3, score(neg)=0
        expect = -np.log(np.exp(3.0) / (np.exp(3.0) + 6 * np.exp(0.0)))
        assert loss.data[0, 0] == pytest.approx(expect, abs=1e-12)

    def test_single_candidate_node_raises(self):
        # with one candidate node every draw equals the true id: no negative exists
        inst = [RankInstance.make(0, 0, [])]
        task = TaskSpec(name="ad", kind=TaskKind.LINK_RANKING, target_type=NodeType.A,
                        instances=inst, splits={"train": np.arange(1)})
        ps = ParamSet([("head.ad.query", np.zeros((4, 4))), ("head.ad.cand", np.zeros((4, 4)))])
        with pytest.raises(NoLabeledNodes, match="at least 2 B nodes"):
            task_loss(task, _zero_embs(1, 1, 4), ps, _config(hidden_dim=4), rng=rng_for(0, "n"))


def _negatives_loop(rng, n_cand, true_ids, k):
    """The per-draw sampler `_draw_negatives` replaced: one scalar call per draw."""
    cols = np.zeros((len(true_ids), k), dtype=np.int64)
    for row, true_id in enumerate(true_ids):
        for j in range(k):
            neg = int(rng.integers(n_cand))
            while neg == true_id:
                neg = int(rng.integers(n_cand))
            cols[row, j] = neg
    return cols


class TestDrawNegatives:
    @pytest.mark.parametrize("n_cand, m, k", [(2, 1, 1), (2, 40, 6), (3, 25, 4),
                                              (300, 120, 4), (5, 1, 30)])
    @pytest.mark.parametrize("seed", range(3))
    def test_equals_scalar_draws_and_leaves_the_same_stream(self, n_cand, m, k, seed):
        true_ids = rng_for(seed, "true").integers(n_cand, size=m)
        loop_rng, batch_rng = rng_for(seed, "negs"), rng_for(seed, "negs")
        want = _negatives_loop(loop_rng, n_cand, true_ids, k)
        got = _draw_negatives(batch_rng, n_cand, np.repeat(true_ids, k)).reshape(m, k)
        assert np.array_equal(got, want)
        assert batch_rng.integers(2**62) == loop_rng.integers(2**62)


class TestEvalScores:
    def test_classification_scores_identity(self):
        ps = ParamSet([("head.pv.weight", np.eye(3))])
        task = TaskSpec(name="pv", kind=TaskKind.SINGLE_LABEL, target_type=NodeType.B,
                        n_classes=3, labels={}, splits={})
        emb = np.arange(12.0).reshape(4, 3)
        got = classification_scores(task, emb, ps, np.array([2, 0]))
        np.testing.assert_allclose(got, emb[[2, 0]], atol=0.0)

    def test_ranking_scores_candidate_order(self):
        ps = ParamSet([("head.ad.query", np.eye(2)), ("head.ad.cand", np.eye(2))])
        inst = RankInstance.make(0, 3, [1, 2])
        task = TaskSpec(name="ad", kind=TaskKind.LINK_RANKING, target_type=NodeType.A,
                        instances=[inst], splits={"test": np.arange(1)})
        emb_q = np.array([[1.0, 0.0]])
        emb_c = np.vstack([np.zeros((1, 2)),
                           [[4.0, 9.0], [5.0, 9.0], [6.0, 9.0]]])
        scores, relevant = ranking_scores(task, emb_q, emb_c, ps, np.array([0]))
        np.testing.assert_allclose(scores, [[4.0, 5.0, 6.0]], atol=0.0)
        true_index, = np.nonzero(relevant[0])[0]
        assert true_index == 2 and inst.candidates[true_index] == 3


    def test_ranking_scores_pad_shorter_lists(self):
        # two instances of 3 and 2 candidates: the shorter row ends in a -inf
        # pad that is never relevant; real cells equal the per-instance scores
        rng = rng_for(2, "pads")
        ps = ParamSet([("head.ad.query", rng.standard_normal((3, 3))),
                       ("head.ad.cand", rng.standard_normal((3, 3)))])
        insts = [RankInstance.make(1, 4, [0, 2]), RankInstance.make(0, 1, [3])]
        task = TaskSpec(name="ad", kind=TaskKind.LINK_RANKING, target_type=NodeType.A,
                        instances=insts)
        emb_q, emb_c = rng.standard_normal((2, 3)), rng.standard_normal((5, 3))
        scores, relevant = ranking_scores(task, emb_q, emb_c, ps, np.array([0, 1]))
        assert scores.shape == relevant.shape == (2, 3)
        for row, inst in enumerate(insts):
            n = inst.candidates.size
            expected = ((emb_c[inst.candidates] @ ps.get("head.ad.cand").data)
                        @ (emb_q[inst.query] @ ps.get("head.ad.query").data))
            assert scores[row, :n].tolist() == expected.tolist()
            assert relevant[row].tolist() == [j == inst.true_index for j in range(3)]
        assert scores[1, 2] == -np.inf

    def test_task_scores_classification_relevance_is_label_set(self):
        ps = ParamSet([("head.pf.weight", np.eye(3))])
        task = TaskSpec(name="pf", kind=TaskKind.MULTI_LABEL, target_type=NodeType.B,
                        n_classes=3, labels={0: (0, 2), 1: (1,)})
        emb = np.arange(6.0).reshape(2, 3)
        scores, relevant = task_scores(task, {NodeType.B: emb}, ps, np.array([1, 0]))
        assert scores.tolist() == emb[[1, 0]].tolist()
        assert relevant.tolist() == [[False, True, False], [True, False, True]]


class TestEndToEndGradient:
    def test_fd_matches_backward_through_training_loss(self):
        from duograph.train import _total_loss
        graph, tasks, config = _tiny_problem()
        ps = build_params(graph, config, tasks)

        def train_loss():
            embs, _ = forward(graph, config, ps, training=False)
            return _total_loss(tasks, embs, ps, config, "train", neg_rng=rng_for(0, "neg"))

        def loss_value() -> float:
            return float(train_loss().data[0, 0])

        with Tape() as tape:
            loss = train_loss()
            backward(tape, loss)

        picked = ["layer0.A.proj", "layer1.intra.colleague.attn",
                  "layer0.B.common_map", "layer1.B.mix_logit",
                  "layer0.A.global_logits", "head.pv.weight",
                  "head.ad.query", "layer1.A.res_inter.gain"]
        h = 1e-5
        for name in picked:
            tensor = ps.get(name)
            grad = tensor.grad
            flat = tensor.data.reshape(-1)
            idx = rng_for(2, "pick", name).choice(flat.size,
                                                  size=min(3, flat.size),
                                                  replace=False)
            for j in idx:
                orig = flat[j]
                flat[j] = orig + h
                up = loss_value()
                flat[j] = orig - h
                down = loss_value()
                flat[j] = orig
                fd = (up - down) / (2 * h)
                an = grad.reshape(-1)[j]
                denom = max(abs(an), abs(fd), 1e-6)
                assert abs(an - fd) / denom < 1e-3, (name, j, an, fd)
