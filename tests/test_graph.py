import numpy as np
import pytest

from duograph.errors import (DanglingNode, DimensionMismatch, DirectionInvalid,
                             NodeOutOfRange, ParseError, TypeMismatch, UnknownRelation)
from duograph.graph import (BiGraph, NodeType, RelationClass, RelationSpec, build_graph,
                            load_graph_tsv, mean_neighbor_features, save_graph_tsv,
                            write_lines)
from duograph.rand import rng_for

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
                    assert plan.targets.tolist() == list(range(n)) and plan.covers_all
        assert stored_loops > 0

    def test_inter_plan_drops_isolated_targets(self, tiny_graph):
        # toward A: a0 wrote p0; a1 wrote p0, p1 -- both live
        plan_a = tiny_graph.message_plan("wrote", NodeType.A)
        np.testing.assert_array_equal(plan_a.targets, [0, 1])
        # toward B with only a0->p0 edge removed leaves p1 with one writer
        plan_b = tiny_graph.message_plan("wrote", NodeType.B)
        np.testing.assert_array_equal(plan_b.targets, [0, 1])
        np.testing.assert_array_equal(plan_b.sources[plan_b.offsets[0]:plan_b.offsets[1]], [0, 1])

    def test_inter_plan_isolated_target_absent(self):
        feats = {NodeType.A: np.zeros((2, 2)), NodeType.B: np.zeros((3, 2))}
        rel = _spec("w", RelationClass.INTER)
        g = build_graph({NodeType.A: 2, NodeType.B: 3}, feats, [rel], [("w", 0, 2)])
        plan = g.message_plan("w", NodeType.B)
        np.testing.assert_array_equal(plan.targets, [2])
        assert not plan.covers_all

    def test_wrong_direction_rejected(self, tiny_graph):
        with pytest.raises(DirectionInvalid):
            tiny_graph._build_plan(tiny_graph.spec("colleague"), NodeType.B, False)

    def test_plan_cached(self, tiny_graph):
        assert tiny_graph.message_plan("cite", NodeType.B) is tiny_graph.message_plan("cite", NodeType.B)


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

    def test_non_finite_feature_rejected(self, tmp_path, tiny_graph):
        save_graph_tsv(tiny_graph, tmp_path)
        nodes = tmp_path / "nodes.tsv"
        lines = nodes.read_text().splitlines()
        assert lines[1].startswith("0\tA\t")
        lines[1] = "\t".join(lines[1].split("\t")[:2] + ["nan", "0"])
        nodes.write_text("\n".join(lines) + "\n")
        with pytest.raises(DimensionMismatch, match=r"features\[A\]"):
            load_graph_tsv(tmp_path)

    def test_non_dense_ids_rejected(self, tmp_path, tiny_graph):
        save_graph_tsv(tiny_graph, tmp_path)
        nodes = tmp_path / "nodes.tsv"
        text = nodes.read_text().replace("1\tA", "5\tA")
        nodes.write_text(text)
        with pytest.raises(ParseError):
            load_graph_tsv(tmp_path)
