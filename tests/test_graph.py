import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from duograph.errors import (DanglingNode, DimensionMismatch, DirectionInvalid,
                             NodeOutOfRange, ParseError, TypeMismatch, UnknownRelation)
from duograph.graph import (BiGraph, NodeType, RelationClass, RelationSpec, _checked_parts,
                            build_graph, graph_from_columns,
                            load_graph_tsv, mean_neighbor_features, save_graph_tsv,
                            write_lines)
from duograph.rand import rng_for

import reference
from conftest import random_bigraph


def _spec(name, klass, sym=False):
    types = {
        RelationClass.INTRA_A: (NodeType.A, NodeType.A),
        RelationClass.INTRA_B: (NodeType.B, NodeType.B),
        RelationClass.INTER: (NodeType.A, NodeType.B),
    }[klass]
    return RelationSpec(name, klass, *types, symmetric=sym)


def _first_edge_error(relations, sizes, edges):
    """Per-edge oracle: (type, message) a loop over `edges` in order raises first."""
    spec_map = {spec.name: spec for spec in relations}
    for name, src, dst in edges:
        spec = spec_map.get(name)
        if spec is None:
            return UnknownRelation, f"edge references undeclared relation {name!r}"
        for end, node, t in (("src", src, spec.src_type), ("dst", dst, spec.dst_type)):
            if not 0 <= node < sizes[t]:
                return DanglingNode, (f"edge {name!r}({src}, {dst}): "
                                      f"{end} outside [0, {sizes[t]})")
    return None


class TestBuild:
    def test_counts_and_dims(self, tiny_graph):
        assert tiny_graph.n_nodes(NodeType.A) == 2
        assert tiny_graph.n_nodes(NodeType.B) == 2
        assert tiny_graph.feature_dim == 2

    def test_duplicate_edges_collapse(self):
        # oracle: the deduplicated edge set {(a0,p0)} has degree 1
        feats = {NodeType.A: np.zeros((1, 2)), NodeType.B: np.zeros((1, 2))}
        rel = _spec("wrote", RelationClass.INTER)
        g = build_graph({NodeType.A: 1, NodeType.B: 1}, feats, [rel],
                        [("wrote", 0, 0), ("wrote", 0, 0), ("wrote", 0, 0)])
        assert g.degree("wrote", 0) == 1

    def test_symmetric_relation_stores_both_directions(self):
        # oracle: enumerating {(0,1)} symmetrized gives {(0,1),(1,0)}
        feats = {NodeType.A: np.zeros((2, 2)), NodeType.B: np.zeros((1, 2))}
        rel = _spec("colleague", RelationClass.INTRA_A, sym=True)
        g = build_graph({NodeType.A: 2, NodeType.B: 1}, feats, [rel], [("colleague", 0, 1)])
        np.testing.assert_array_equal(g.neighbors("colleague", 1), [0])
        np.testing.assert_array_equal(g.neighbors("colleague", 0), [1])

    def test_neighbors_sorted(self):
        feats = {NodeType.A: np.zeros((4, 2)), NodeType.B: np.zeros((1, 2))}
        rel = _spec("r", RelationClass.INTRA_A)
        g = build_graph({NodeType.A: 4, NodeType.B: 1}, feats, [rel],
                        [("r", 0, 3), ("r", 0, 1), ("r", 0, 2)])
        np.testing.assert_array_equal(g.neighbors("r", 0), [1, 2, 3])

    def test_directed_relation_not_symmetrized(self, tiny_graph):
        np.testing.assert_array_equal(tiny_graph.neighbors("cite", 0), [1])
        np.testing.assert_array_equal(tiny_graph.neighbors("cite", 1), [])

    def test_reverse_adjacency_flips_inter_edges(self, tiny_graph):
        # wrote: a0->p0, a1->p0, a1->p1
        np.testing.assert_array_equal(tiny_graph.neighbors("wrote", 0, reverse=True), [0, 1])
        np.testing.assert_array_equal(tiny_graph.neighbors("wrote", 1, reverse=True), [1])

    def test_reverse_is_involution_on_membership(self):
        rng = np.random.default_rng(5)
        g = random_bigraph(rng)
        for name in g.inter_relations():
            spec = g.spec(name)
            for u in range(g.n_nodes(spec.src_type)):
                for v in g.neighbors(name, u):
                    assert u in g.neighbors(name, int(v), reverse=True)

    def test_dangling_edge_rejected(self):
        feats = {NodeType.A: np.zeros((2, 2)), NodeType.B: np.zeros((2, 2))}
        rel = _spec("wrote", RelationClass.INTER)
        with pytest.raises(DanglingNode):
            build_graph({NodeType.A: 2, NodeType.B: 2}, feats, [rel], [("wrote", 0, 5)])

    def test_unknown_relation_rejected(self):
        feats = {NodeType.A: np.zeros((2, 2)), NodeType.B: np.zeros((2, 2))}
        with pytest.raises(UnknownRelation):
            build_graph({NodeType.A: 2, NodeType.B: 2}, feats, [], [("ghost", 0, 0)])

    @pytest.mark.parametrize("kind", ["relation", "src", "dst"])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_first_bad_edge_matches_per_edge_oracle(self, kind, where):
        rng = np.random.default_rng(11)
        sizes = {NodeType.A: 5, NodeType.B: 4}
        rels = [_spec("r", RelationClass.INTRA_A, sym=True), _spec("c", RelationClass.INTRA_B),
                _spec("w", RelationClass.INTER)]
        edges = []
        for _ in range(40):
            spec = rels[int(rng.integers(3))]
            edges.append((spec.name, int(rng.integers(sizes[spec.src_type])),
                          int(rng.integers(sizes[spec.dst_type]))))
        bad = {"relation": ("ghost", 0, 0), "src": ("w", -1, 0), "dst": ("c", 3, 4)}
        at = {"first": 0, "middle": 20, "last": len(edges)}[where]
        edges.insert(at, bad[kind])
        # later edges of every kind must not win over the first bad one
        if where != "last":
            edges[at + 1:at + 1] = [bad[k] for k in ("dst", "src", "relation") if k != kind]
        expected = _first_edge_error(rels, sizes, edges)
        assert expected is not None and expected[0] is (
            UnknownRelation if kind == "relation" else DanglingNode)
        feats = {NodeType.A: np.zeros((5, 2)), NodeType.B: np.zeros((4, 2))}
        with pytest.raises(expected[0]) as info:
            build_graph(sizes, feats, rels, (e for e in edges))
        assert str(info.value) == expected[1]

    @pytest.mark.parametrize("edge, message", [
        (("w", 1.7, 0), "edge 'w'(1.7, 0): src is not an integer"),
        (("w", "1", 0), "edge 'w'('1', 0): src is not an integer"),
        (("w", True, 0), "edge 'w'(True, 0): src is not an integer"),
        (("w", 0, np.bool_(True)), "edge 'w'(0, np.True_): dst is not an integer"),
        (("w", "x", 0), "edge 'w'('x', 0): src is not an integer"),
        (("w", None, 0), "edge 'w'(None, 0): src is not an integer"),
        (("w", 1), "edge ('w', 1) is not a (relation_name, src, dst) triple"),
        (("w", 0, 1, 1), "edge ('w', 0, 1, 1) is not a (relation_name, src, dst) triple"),
        (None, "edge None is not a (relation_name, src, dst) triple"),
    ])
    def test_malformed_edge_raises_type_mismatch_naming_it(self, edge, message):
        feats = {NodeType.A: np.zeros((2, 2)), NodeType.B: np.zeros((2, 2))}
        rel = _spec("w", RelationClass.INTER)
        edges = [("w", 0, 0), ("w", np.int32(1), np.int64(1)), edge, ("w", 0, 5)]
        with pytest.raises(TypeMismatch) as info:
            build_graph({NodeType.A: 2, NodeType.B: 2}, feats, [rel], edges)
        assert str(info.value) == message
        # an earlier bad edge of another kind still wins
        with pytest.raises(DanglingNode, match=r"'w'\(0, 5\): dst outside"):
            build_graph({NodeType.A: 2, NodeType.B: 2}, feats, [rel], edges[::-1])

    def test_id_past_int64_is_out_of_range(self):
        feats = {NodeType.A: np.zeros((2, 2)), NodeType.B: np.zeros((2, 2))}
        rel = _spec("w", RelationClass.INTER)
        with pytest.raises(DanglingNode, match=rf"'w'\(0, {2**70}\): dst outside \[0, 2\)"):
            build_graph({NodeType.A: 2, NodeType.B: 2}, feats, [rel], [("w", 0, 2**70)])

    def test_src_range_checked_before_dst(self):
        feats = {NodeType.A: np.zeros((2, 2)), NodeType.B: np.zeros((2, 2))}
        rel = _spec("wrote", RelationClass.INTER)
        edges = [("wrote", 0, 0), ("wrote", 2, -1)]
        expected = _first_edge_error([rel], {NodeType.A: 2, NodeType.B: 2}, edges)
        with pytest.raises(DanglingNode) as info:
            build_graph({NodeType.A: 2, NodeType.B: 2}, feats, [rel], edges)
        assert str(info.value) == expected[1]
        assert "src outside" in expected[1]

    def test_feature_shape_mismatch_rejected(self):
        feats = {NodeType.A: np.zeros((3, 2)), NodeType.B: np.zeros((2, 2))}
        with pytest.raises(DimensionMismatch):
            build_graph({NodeType.A: 2, NodeType.B: 2}, feats, [], [])

    def test_feature_dim_must_agree_across_types(self):
        feats = {NodeType.A: np.zeros((2, 3)), NodeType.B: np.zeros((2, 2))}
        with pytest.raises(DimensionMismatch):
            build_graph({NodeType.A: 2, NodeType.B: 2}, feats, [], [])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, bad):
        feats = {NodeType.A: np.zeros((2, 2)), NodeType.B: np.zeros((2, 2))}
        feats[NodeType.B][1, 0] = bad
        with pytest.raises(DimensionMismatch, match=r"features\[B\]"):
            build_graph({NodeType.A: 2, NodeType.B: 2}, feats, [], [])

    def test_relation_class_typing_enforced(self):
        with pytest.raises(TypeMismatch):
            RelationSpec("bad", RelationClass.INTRA_A, NodeType.A, NodeType.B)
        with pytest.raises(TypeMismatch):
            RelationSpec("bad", RelationClass.INTER, NodeType.A, NodeType.A)
        with pytest.raises(TypeMismatch):
            RelationSpec("bad", RelationClass.INTER, NodeType.A, NodeType.B, symmetric=True)

    def test_node_out_of_range_on_lookup(self, tiny_graph):
        with pytest.raises(NodeOutOfRange):
            tiny_graph.neighbors("colleague", 9)

    def test_build_insensitive_to_edge_order(self):
        rng = np.random.default_rng(3)
        feats = {NodeType.A: rng.normal(size=(5, 2)), NodeType.B: rng.normal(size=(4, 2))}
        rels = [_spec("r", RelationClass.INTRA_A, sym=True), _spec("w", RelationClass.INTER)]
        edges = [("r", 0, 1), ("r", 2, 3), ("w", 0, 0), ("w", 4, 3), ("r", 1, 4)]
        g1 = build_graph({NodeType.A: 5, NodeType.B: 4}, feats, rels, edges)
        g2 = build_graph({NodeType.A: 5, NodeType.B: 4}, feats, rels, edges[::-1])
        for name in ("r", "w"):
            for i in range(5 if name == "r" else 5):
                np.testing.assert_array_equal(g1.neighbors(name, i), g2.neighbors(name, i))


class TestMessagePlans:
    def test_intra_plan_includes_self_loops(self, tiny_graph):
        plan = tiny_graph.message_plan("colleague", NodeType.A)
        assert plan.covers_all
        # node 0 row: stored neighbor 1 plus self-loop 0
        np.testing.assert_array_equal(plan.sources[plan.offsets[0]:plan.offsets[1]], [0, 1])

    def test_intra_plan_no_duplicate_self_loop(self):
        feats = {NodeType.A: np.zeros((2, 2)), NodeType.B: np.zeros((1, 2))}
        rel = _spec("r", RelationClass.INTRA_A)
        g = build_graph({NodeType.A: 2, NodeType.B: 1}, feats, [rel], [("r", 0, 0)])
        plan = g.message_plan("r", NodeType.A)
        np.testing.assert_array_equal(plan.sources[plan.offsets[0]:plan.offsets[1]], [0])

    def test_self_loop_plan_matches_per_row_oracle(self):
        # per row: the stored row when it holds the node itself, else the row
        # with the node spliced in, in sorted order
        rng = rng_for(21, "self-loop-plan")
        stored_loops = 0
        for _ in range(40):
            graph = random_bigraph(rng, n_a=int(rng.integers(1, 9)),
                                   n_b=int(rng.integers(1, 9)), extra_intra=1)
            for t in (NodeType.A, NodeType.B):
                for name in graph.intra_relations(t):
                    adj, n = graph.csr(name), graph.n_nodes(t)
                    rows = []
                    for i in range(n):
                        row = adj.row(i)
                        stored_loops += int(i in row)
                        rows.append(row if i in row else np.sort(np.append(row, i)))
                    plan = graph.message_plan(name, t)
                    sizes = [r.size for r in rows]
                    assert plan.sources.tolist() == np.concatenate(rows).tolist()
                    assert plan.offsets.tolist() == np.cumsum([0] + sizes).tolist()
                    assert plan.edge_targets.tolist() == np.repeat(np.arange(n), sizes).tolist()
                    assert plan.rows.tolist() == list(range(n)) and plan.covers_all
        assert stored_loops > 0

    def test_inter_plan_drops_isolated_targets(self, tiny_graph):
        # toward A: a0 wrote p0; a1 wrote p0, p1 -- both live
        plan_a = tiny_graph.message_plan("wrote", NodeType.A)
        np.testing.assert_array_equal(plan_a.rows, [0, 1])
        # toward B with only a0->p0 edge removed leaves p1 with one writer
        plan_b = tiny_graph.message_plan("wrote", NodeType.B)
        np.testing.assert_array_equal(plan_b.rows, [0, 1])
        np.testing.assert_array_equal(plan_b.sources[plan_b.offsets[0]:plan_b.offsets[1]], [0, 1])

    def test_inter_plan_isolated_target_absent(self):
        feats = {NodeType.A: np.zeros((2, 2)), NodeType.B: np.zeros((3, 2))}
        rel = _spec("w", RelationClass.INTER)
        g = build_graph({NodeType.A: 2, NodeType.B: 3}, feats, [rel], [("w", 0, 2)])
        plan = g.message_plan("w", NodeType.B)
        np.testing.assert_array_equal(plan.rows, [2])
        assert not plan.covers_all

    def test_block_stacks_plans_relation_by_relation(self, tiny_graph):
        # toward B: cite (within B, self-loops) then wrote (cross, from A)
        block = tiny_graph.block_plan(["cite", "wrote"], NodeType.B)
        assert tiny_graph.block_plan(("cite", "wrote"), NodeType.B) is block
        cite, wrote = (tiny_graph.message_plan(r, NodeType.B) for r in ("cite", "wrote"))
        assert block.stacked
        assert block.rows.tolist() == [0, 1, 2, 3]
        assert block.edge_runs == (slice(0, cite.n_edges), slice(cite.n_edges, block.n_edges))
        assert block.row_runs == (slice(0, 2), slice(2, 4))
        # cross sources follow the 2 B rows in the stacked values
        assert block.sources.tolist() == cite.sources.tolist() + (wrote.sources + 2).tolist()
        assert block.offsets.tolist() == [0, 2, 3, 5, 6]
        k = np.repeat([0, 1], [cite.n_edges, wrote.n_edges])
        edge_targets = np.concatenate([cite.edge_targets, wrote.edge_targets])
        assert block.target_index.tolist() == (edge_targets * 2 + k).tolist()
        assert block.source_index.tolist() == (block.sources * 2 + k).tolist()
        assert block.mask.all() and block.covers_all
        assert block.edge_targets.tolist() == edge_targets.tolist()

    def test_block_runs_equal_the_relation_plans(self):
        graph = random_bigraph(rng_for(5, "block-runs"), n_a=7, n_b=6, extra_intra=1)
        for t in (NodeType.A, NodeType.B):
            rels = graph.intra_relations(t) + graph.inter_relations()
            block, n = graph.block_plan(rels, t), graph.n_nodes(t)
            for k, rel in enumerate(rels):
                plan = graph.message_plan(rel, t)
                edges, segs = block.edge_runs[k], block.row_runs[k]
                shift = n if block.stacked and not graph.spec(rel).is_intra else 0
                assert block.sources[edges].tolist() == (plan.sources + shift).tolist()
                assert block.edge_targets[edges].tolist() == plan.edge_targets.tolist()
                assert (block.rows[segs] - k * n).tolist() == plan.rows.tolist()
                sizes = np.diff(block.offsets)[segs]
                assert sizes.tolist() == np.diff(plan.offsets).tolist()
                assert block.mask[:, k].tolist() == plan.mask[:, 0].tolist()

    def test_one_relation_block_is_the_message_plan(self, tiny_graph):
        for rel, t in (("colleague", NodeType.A), ("wrote", NodeType.A), ("wrote", NodeType.B)):
            plan = tiny_graph.message_plan(rel, t)
            assert tiny_graph.block_plan([rel], t) is plan
            assert plan.target_index is plan.edge_targets
            assert plan.source_index is plan.sources
            assert plan.mask.shape == (tiny_graph.n_nodes(t), 1)

    def test_block_of_cross_relations_reads_the_other_class(self, tiny_graph):
        block = tiny_graph.block_plan(["wrote"], NodeType.A)
        assert not block.stacked
        assert block.sources.tolist() == tiny_graph.message_plan("wrote", NodeType.A).sources.tolist()

    def test_wrong_direction_rejected(self, tiny_graph):
        with pytest.raises(DirectionInvalid):
            tiny_graph.message_plan("colleague", NodeType.B)

    def test_plan_cached(self, tiny_graph):
        assert tiny_graph.message_plan("cite", NodeType.B) is tiny_graph.message_plan("cite", NodeType.B)


def _assert_same_array(new, old, what):
    assert (new.dtype, new.shape) == (old.dtype, old.shape), what
    assert new.tobytes() == old.tobytes(), what


def assert_same_graph(new: BiGraph, old: BiGraph) -> None:
    """Features, both CSR directions and every message plan, byte for byte;
    `old` is a `reference` graph, whose plans `reference.build_plan` builds."""
    assert new.counts == old.counts and new.relations == old.relations
    for t in NodeType:
        _assert_same_array(new.features[t], old.features[t], f"features[{t.label}]")
    for name in old.relation_names():
        for reverse in (False, True):
            a, b = new.csr(name, reverse), old.csr(name, reverse)
            assert (a.n_rows, a.n_cols) == (b.n_rows, b.n_cols)
            _assert_same_array(a.offsets, b.offsets, f"{name} offsets, reverse={reverse}")
            _assert_same_array(a.cols, b.cols, f"{name} cols, reverse={reverse}")
        spec = old.spec(name)
        for t in {spec.src_type, spec.dst_type}:
            p, q = new.message_plan(name, t), reference.build_plan(old, spec, t)
            assert (p.stacked, p.edge_runs, p.row_runs) == (q.stacked, q.edge_runs, q.row_runs)
            for field in ("rows", "offsets", "sources", "target_index", "source_index", "mask"):
                _assert_same_array(getattr(p, field), getattr(q, field), f"{name}->{t.label} {field}")


# class sizes on both sides of 2**16, so reverse CSRs take both branches of
# ops._stable_order: 16-bit radix keys, and int64 keys past 65535
_SIZES = st.sampled_from([1, 3, 40, 65537])
_ORACLE_RELATIONS = [
    RelationSpec("peer", RelationClass.INTRA_A, NodeType.A, NodeType.A, symmetric=True),
    RelationSpec("idle", RelationClass.INTRA_A, NodeType.A, NodeType.A),   # never given edges
    RelationSpec("cites", RelationClass.INTRA_B, NodeType.B, NodeType.B),
    RelationSpec("near", RelationClass.INTRA_B, NodeType.B, NodeType.B, symmetric=True),
    RelationSpec("wrote", RelationClass.INTER, NodeType.A, NodeType.B),
    RelationSpec("read_by", RelationClass.INTER, NodeType.B, NodeType.A),
]


def _ids(n):
    """Ids near both ends of [0, n): edges repeat and self-loops are common."""
    return st.one_of(st.integers(0, min(n, 8) - 1), st.integers(max(0, n - 8), n - 1))


@st.composite
def _edge_lists(draw):
    sizes = {NodeType.A: draw(_SIZES), NodeType.B: draw(_SIZES)}
    edges = []
    for spec in _ORACLE_RELATIONS:
        if spec.name == "idle":
            continue
        pairs = st.tuples(_ids(sizes[spec.src_type]), _ids(sizes[spec.dst_type]))
        edges += [(spec.name, s, d) for s, d in draw(st.lists(pairs, max_size=60))]
    return sizes, draw(st.permutations(edges))


class TestSetUpMatchesOracle:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(_edge_lists())
    def test_random_edge_lists(self, drawn):
        sizes, edges = drawn
        feats = {t: np.zeros((n, 1)) for t, n in sizes.items()}
        old = reference.build_graph(sizes, feats, _ORACLE_RELATIONS, edges)
        assert_same_graph(build_graph(sizes, feats, _ORACLE_RELATIONS, edges), old)
        spec_map = _checked_parts(sizes, feats, _ORACLE_RELATIONS)[2]
        columns = reference._validated_edges(spec_map, sizes, edges)
        assert_same_graph(graph_from_columns(sizes, feats, _ORACLE_RELATIONS, *columns), old)

    def test_column_path_rejects_a_dangling_edge(self):
        sizes = {NodeType.A: 2, NodeType.B: 3}
        feats = {t: np.zeros((n, 1)) for t, n in sizes.items()}
        codes, src, dst = (np.array(c) for c in ([0, 4, 4], [1, 0, 1], [0, 2, 3]))
        with pytest.raises(DanglingNode, match=r"'wrote'\(1, 3\): dst outside \[0, 3\)"):
            graph_from_columns(sizes, feats, _ORACLE_RELATIONS, codes, src, dst)

    @pytest.mark.parametrize("code", [-1, 6, 2**40])
    def test_column_path_rejects_a_relation_code_past_the_list(self, code):
        # the first bad edge is named, even with a dangling one after it
        sizes = {NodeType.A: 2, NodeType.B: 3}
        feats = {t: np.zeros((n, 1)) for t, n in sizes.items()}
        codes, src, dst = (np.array(c) for c in ([0, code, 4], [1, 0, 1], [0, 1, 3]))
        with pytest.raises(UnknownRelation,
                           match=rf"edge 1 \(0, 1\) has relation code {code}, outside \[0, 6\)"):
            graph_from_columns(sizes, feats, _ORACLE_RELATIONS, codes, src, dst)


class TestMeanNeighborFeatures:
    def test_average_over_papers(self, tiny_graph):
        feats, isolated = mean_neighbor_features(tiny_graph, ["wrote"], NodeType.A)
        papers = tiny_graph.features[NodeType.B]
        np.testing.assert_allclose(feats[0], papers[0])
        np.testing.assert_allclose(feats[1], (papers[0] + papers[1]) / 2)
        assert not isolated.any()

    def test_isolated_author_zero_and_flagged(self):
        feats = {NodeType.A: np.zeros((2, 2)), NodeType.B: np.array([[3.0, 1.0]])}
        rel = _spec("w", RelationClass.INTER)
        g = build_graph({NodeType.A: 2, NodeType.B: 1}, feats, [rel], [("w", 0, 0)])
        out, isolated = mean_neighbor_features(g, ["w"], NodeType.A)
        np.testing.assert_array_equal(out[1], [0.0, 0.0])
        np.testing.assert_array_equal(isolated, [False, True])

    def test_intra_relation_rejected(self, tiny_graph):
        with pytest.raises(TypeMismatch):
            mean_neighbor_features(tiny_graph, ["colleague"], NodeType.A)

    def test_two_relations_match_per_relation_add_at(self):
        rng = rng_for(8, "mean-neighbors")
        for _ in range(10):
            graph = random_bigraph(rng, n_a=int(rng.integers(2, 9)), n_b=int(rng.integers(2, 9)))
            rels = graph.inter_relations()
            assert len(rels) >= 2
            n = graph.n_nodes(NodeType.A)
            total, deg = np.zeros((n, graph.feature_dim)), np.zeros(n)
            for rel in rels:
                plan = graph.message_plan(rel, NodeType.A)
                np.add.at(total, plan.edge_targets, graph.features[NodeType.B][plan.sources])
                np.add.at(deg, plan.edge_targets, 1.0)
            want = np.divide(total, deg[:, None], out=np.zeros_like(total),
                             where=deg[:, None] > 0)
            got, isolated = mean_neighbor_features(graph, rels, NodeType.A)
            assert np.array_equal(got, want)
            assert isolated.tolist() == (deg == 0).tolist()

    def test_no_relations_mark_every_node_isolated(self, tiny_graph):
        out, isolated = mean_neighbor_features(tiny_graph, [], NodeType.A)
        assert isolated.all() and not out.any()
        assert out.shape == (tiny_graph.n_nodes(NodeType.A), tiny_graph.feature_dim)

    def test_with_features_returns_new_graph(self, tiny_graph):
        new_feats = np.ones((2, 2))
        g2 = tiny_graph.with_features(NodeType.A, new_feats)
        assert g2 is not tiny_graph
        np.testing.assert_array_equal(g2.features[NodeType.A], 1.0)
        np.testing.assert_array_equal(tiny_graph.features[NodeType.A][0], [1.0, 0.0])


class TestGraphTsv:
    def test_write_lines_terminates_every_line(self, tmp_path):
        write_lines(tmp_path / "two.txt", ["a", "b\tc"])
        write_lines(tmp_path / "none.txt", [])
        assert (tmp_path / "two.txt").read_bytes() == b"a\nb\tc\n"
        assert (tmp_path / "none.txt").read_bytes() == b""

    def test_round_trip_structure(self, tmp_path, tiny_graph):
        save_graph_tsv(tiny_graph, tmp_path)
        g2 = load_graph_tsv(tmp_path)
        assert g2.counts == tiny_graph.counts
        assert set(g2.relations) == set(tiny_graph.relations)
        for name in tiny_graph.relation_names():
            spec = tiny_graph.spec(name)
            assert g2.spec(name) == spec
            for i in range(tiny_graph.n_nodes(spec.src_type)):
                np.testing.assert_array_equal(g2.neighbors(name, i), tiny_graph.neighbors(name, i))

    def test_round_trip_many_random_graphs(self, tmp_path):
        rng = np.random.default_rng(42)
        for trial in range(10):
            g = random_bigraph(rng)
            d = tmp_path / f"g{trial}"
            save_graph_tsv(g, d)
            g2 = load_graph_tsv(d)
            for name in g.relation_names():
                spec = g.spec(name)
                for i in range(g.n_nodes(spec.src_type)):
                    np.testing.assert_array_equal(g2.neighbors(name, i), g.neighbors(name, i))

    def test_features_serialized_at_nine_significant_digits(self, tmp_path):
        feats = {NodeType.A: np.array([[1.0 / 3.0, 2.0 / 7.0]]),
                 NodeType.B: np.array([[1e-12, 123456789.123]])}
        g = build_graph({NodeType.A: 1, NodeType.B: 1}, feats, [], [])
        save_graph_tsv(g, tmp_path)
        g2 = load_graph_tsv(tmp_path)
        np.testing.assert_allclose(g2.features[NodeType.A], feats[NodeType.A], rtol=1e-8)
        body = (tmp_path / "nodes.tsv").read_text().splitlines()[1]
        assert "0.333333333" in body

    def test_export_deterministic_bytes(self, tmp_path):
        rng = np.random.default_rng(9)
        g = random_bigraph(rng)
        save_graph_tsv(g, tmp_path / "x")
        save_graph_tsv(g, tmp_path / "y")
        for f in ("nodes.tsv", "edges.tsv", "relations.tsv"):
            assert (tmp_path / "x" / f).read_bytes() == (tmp_path / "y" / f).read_bytes()

    def test_malformed_rows_raise_parse_error_with_line(self, tmp_path, tiny_graph):
        save_graph_tsv(tiny_graph, tmp_path)
        edges = tmp_path / "edges.tsv"
        lines = edges.read_text().splitlines()
        lines.insert(2, "cite\tnot_an_int\t1")
        edges.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as exc:
            load_graph_tsv(tmp_path)
        assert exc.value.line == 3

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_feature_names_file_and_line(self, tmp_path, tiny_graph, cell):
        save_graph_tsv(tiny_graph, tmp_path)
        nodes = tmp_path / "nodes.tsv"
        lines = nodes.read_text().splitlines()
        assert lines[2].startswith("1\tA\t")
        lines[2] = "\t".join(lines[2].split("\t")[:2] + ["0", cell])
        lines[3] = "\t".join(lines[3].split("\t")[:2] + ["nan", "0"])  # a later line
        nodes.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as exc:
            load_graph_tsv(tmp_path)
        value = "inf" if cell == "1e400" else cell
        assert (exc.value.path, exc.value.line) == (str(nodes), 3)
        assert str(exc.value).endswith(f": feat_1: {value} is not finite")

    def test_non_dense_ids_rejected(self, tmp_path, tiny_graph):
        save_graph_tsv(tiny_graph, tmp_path)
        nodes = tmp_path / "nodes.tsv"
        text = nodes.read_text().replace("1\tA", "5\tA")
        nodes.write_text(text)
        with pytest.raises(ParseError):
            load_graph_tsv(tmp_path)
