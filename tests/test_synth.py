"""Generator properties: determinism, planted structure, interchange
round-trips, and config validation."""
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from duograph.errors import InfeasibleConfig, ParseError
from duograph.graph import NodeType
from duograph.model import TaskKind
from duograph.synth import SynthConfig, export_dataset, generate, import_dataset

import reference
from test_graph import assert_same_graph


def _small(**overrides):
    base = dict(n_papers=30, n_authors=15, n_venues=3, n_fields_l1=2,
                n_fields_l2=4, feature_dim=5, name_group_size=3,
                ad_distractors=4, seed=11)
    base.update(overrides)
    return SynthConfig(**base)


def _dir_bytes(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


class TestGenerate:
    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            graph, tasks = generate(_small())
            export_dataset(graph, tasks, str(d))
        assert _dir_bytes(a) == _dir_bytes(b)

    def test_shapes_and_tasks(self):
        cfg = _small()
        graph, tasks = generate(cfg)
        assert graph.n_nodes(NodeType.A) == cfg.n_authors
        assert graph.n_nodes(NodeType.B) == cfg.n_papers
        assert graph.feature_dim == cfg.feature_dim
        names = [t.name for t in tasks]
        assert names == ["pv", "pf_l1", "pf_l2", "ad"]
        kinds = {t.name: t.kind for t in tasks}
        assert kinds["pv"] is TaskKind.SINGLE_LABEL
        assert kinds["pf_l1"] is TaskKind.MULTI_LABEL
        assert kinds["ad"] is TaskKind.LINK_RANKING

    def test_every_paper_labeled_once_for_venue(self):
        cfg = _small()
        _, tasks = generate(cfg)
        pv = tasks[0]
        assert set(pv.labels) == set(range(cfg.n_papers))
        assert all(len(v) == 1 and 0 <= v[0] < cfg.n_venues
                   for v in pv.labels.values())
        ids = np.concatenate([pv.split_ids(s) for s in ("train", "val", "test")])
        assert sorted(ids.tolist()) == list(range(cfg.n_papers))

    def test_fine_labels_refine_coarse(self):
        cfg = _small()
        _, tasks = generate(cfg)
        coarse, fine = tasks[1], tasks[2]
        parent = np.arange(cfg.n_fields_l2) % cfg.n_fields_l1
        for node, fl in fine.labels.items():
            assert coarse.labels[node] == tuple(sorted({int(parent[f]) for f in fl}))

    def test_ad_instances_well_formed(self):
        cfg = _small()
        graph, tasks = generate(cfg)
        ad = tasks[3]
        assert ad.instances, "expected at least one ranking instance"
        queries = [inst.query for inst in ad.instances]
        assert queries == sorted(queries)
        wrote = {a: set(graph.neighbors("lead_author_of", a))
                 | set(graph.neighbors("support_author_of", a))
                 for a in range(cfg.n_authors)}
        for inst in ad.instances:
            assert inst.candidates.size >= cfg.ad_distractors + 1
            assert inst.true_id in inst.candidates
            assert np.unique(inst.candidates).size == inst.candidates.size
            assert inst.true_id in wrote[inst.query]

    def test_same_venue_clique_at_probability_one(self):
        cfg = _small(p_same_venue=1.0, seed=4)
        graph, tasks = generate(cfg)
        venue = {n: lab[0] for n, lab in tasks[0].labels.items()}
        for paper in range(cfg.n_papers):
            peers = {q for q in range(cfg.n_papers)
                     if q != paper and venue[q] == venue[paper]}
            got = set(graph.neighbors("same_venue", paper))
            assert got == peers

    def test_venue_signal_concentrates_features(self):
        cfg = _small(noise=0.05, venue_scale=4.0, field_scale=0.2, seed=8)
        graph, tasks = generate(cfg)
        feats = graph.features[NodeType.B]
        venue = np.array([tasks[0].labels[i][0] for i in range(cfg.n_papers)])
        centroids = np.vstack([feats[venue == v].mean(axis=0)
                               for v in range(cfg.n_venues)])
        dists = np.linalg.norm(feats[:, None, :] - centroids[None], axis=2)
        assert (np.argmin(dists, axis=1) == venue).mean() > 0.95

    def test_author_features_average_their_papers(self):
        cfg = _small(seed=2)
        graph, _ = generate(cfg)
        feats_a = graph.features[NodeType.A]
        feats_b = graph.features[NodeType.B]
        for a in range(cfg.n_authors):
            papers = sorted(set(graph.neighbors("lead_author_of", a))
                            | set(graph.neighbors("support_author_of", a)))
            if papers:
                np.testing.assert_allclose(feats_a[a], feats_b[papers].mean(axis=0),
                                           atol=1e-12)
            else:
                np.testing.assert_allclose(feats_a[a], 0.0, atol=0.0)

    def test_year_splits_ordered(self):
        cfg = _small()
        _, tasks = generate(cfg)
        pv = tasks[0]
        train = set(pv.split_ids("train").tolist())
        val = set(pv.split_ids("val").tolist())
        test = set(pv.split_ids("test").tolist())
        assert not (train & val) and not (train & test) and not (val & test)


def _assert_same_tasks(new, old):
    assert len(new) == len(old)
    for a, b in zip(new, old):
        assert (a.name, a.kind, a.target_type, a.n_classes) == \
               (b.name, b.kind, b.target_type, b.n_classes)
        assert a.labels == b.labels
        assert [(i.query, i.true_index, i.candidates.tobytes()) for i in a.instances] == \
               [(i.query, i.true_index, i.candidates.tobytes()) for i in b.instances]
        assert a.splits.keys() == b.splits.keys()
        for split in a.splits:
            assert a.splits[split].dtype == b.splits[split].dtype
            assert a.splits[split].tobytes() == b.splits[split].tobytes()


_P = st.sampled_from([0.0, 0.3, 1.0])


@st.composite
def _synth_fields(draw):
    """Small generator configs, a few of them infeasible."""
    n_papers, n_authors = draw(st.integers(1, 24)), draw(st.integers(1, 10))
    n_fields_l2 = draw(st.integers(1, 5))
    return dict(n_papers=n_papers, n_authors=n_authors, n_venues=draw(st.integers(1, 4)),
                n_fields_l1=draw(st.integers(1, n_fields_l2)), n_fields_l2=n_fields_l2,
                feature_dim=draw(st.integers(2, 4)), min_authors=draw(st.integers(1, 2)),
                max_authors=draw(st.integers(1, 4)), p_community_author=draw(_P),
                p_colleague=draw(_P), p_same_venue=draw(_P), p_same_field=draw(_P),
                max_cites=draw(st.integers(0, 3)), p_cite_within_field=draw(_P),
                name_group_size=draw(st.integers(2, 4)),
                ad_distractors=draw(st.integers(1, max(1, n_papers - 1))),
                seed=draw(st.integers(0, 1 << 20)))


class TestMatchesTuplePathOracle:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_synth_fields())
    def test_small_configs(self, fields):
        outcomes = []
        for gen in (generate, reference.generate):
            try:
                outcomes.append(gen(SynthConfig(**fields)))
            except InfeasibleConfig as exc:
                outcomes.append(str(exc))
        new, old = outcomes
        if isinstance(old, str):
            assert new == old
            return
        assert_same_graph(new[0], old[0])
        _assert_same_tasks(new[1], old[1])

    def test_scale_config(self):
        # the generator's scale: 3000 papers, about 140k edge draws
        cfg = SynthConfig(n_papers=3000, n_authors=1500, seed=3)
        new, old = generate(cfg), reference.generate(cfg)
        assert_same_graph(new[0], old[0])
        _assert_same_tasks(new[1], old[1])


class TestConfigValidation:
    def test_more_venues_than_papers(self):
        with pytest.raises(InfeasibleConfig):
            _small(n_venues=31)

    def test_author_bounds(self):
        with pytest.raises(InfeasibleConfig):
            _small(min_authors=3, max_authors=2)

    def test_year_thresholds(self):
        with pytest.raises(InfeasibleConfig):
            _small(train_year_max=7, val_year_max=7)

    def test_bad_probability(self):
        with pytest.raises(InfeasibleConfig):
            _small(p_colleague=1.5)

    def test_distractors_need_other_papers(self):
        # the default 9 distractors cannot be drawn from 8 papers minus the true one
        with pytest.raises(InfeasibleConfig):
            _small(n_papers=8, ad_distractors=9)
        with pytest.raises(InfeasibleConfig):
            _small(n_papers=8, ad_distractors=8)

    def test_distractors_may_use_every_other_paper(self):
        _, tasks = generate(_small(n_papers=8, ad_distractors=7))
        ad = tasks[3]
        assert ad.instances
        assert all(inst.candidates.tolist() == list(range(8)) for inst in ad.instances)

    def test_coarse_exceeds_fine(self):
        with pytest.raises(InfeasibleConfig):
            _small(n_fields_l1=5, n_fields_l2=4)

    @pytest.mark.parametrize("field, value", [
        ("n_papers", 40.5), ("seed", True), ("noise", float("nan")), ("p_colleague", "0.1")])
    def test_wrong_type_raises_naming_the_field(self, field, value):
        with pytest.raises(InfeasibleConfig, match=f"^{field} must be"):
            _small(**{field: value})

    def test_unknown_key_rejected(self):
        with pytest.raises(InfeasibleConfig):
            SynthConfig.from_dict({"n_paper": 10})

    def test_dict_round_trip(self):
        cfg = _small(seed=99)
        assert SynthConfig.from_dict(cfg.to_dict()) == cfg


def _edit(directory, name, match, replace):
    """Swap the first data row of an interchange file whose cells `match` for
    the rows `replace` makes of them; returns the file name and the row's line."""
    path = directory / name
    lines = path.read_text().splitlines()
    k = next(k for k, line in enumerate(lines) if k and match(line.split("\t")))
    lines[k:k + 1] = ["\t".join(cells) for cells in replace(lines[k].split("\t"))]
    path.write_text("\n".join(lines) + "\n")
    return name, k + 1


def _of(task):
    return lambda cells: cells[1] == task


def _duplicate(directory, name, match):
    """Repeat a row right after itself; the repeat is at fault."""
    name, line = _edit(directory, name, match, lambda c: [c, c])
    return name, line + 1


def _unlabel_first_split_node(directory, task):
    """Delete the label row of the first split node of `task`; the split row is at fault."""
    name, line = _edit(directory, "splits.tsv", _of(task), lambda c: [c])
    node = (directory / name).read_text().splitlines()[line - 1].split("\t")[0]
    _edit(directory, "labels.tsv", lambda c: c[:2] == [node, task], lambda c: [])
    return name, line


# each edit of an exported 40/20 dataset and the (file, line) it must be reported at
TASK_FILE_EDITS = {
    "class id past n_classes": lambda d: _edit(d, "labels.tsv", _of("pv"),
                                               lambda c: [[*c[:2], "3"]]),
    "class id -1": lambda d: _edit(d, "labels.tsv", _of("pv"), lambda c: [[*c[:2], "-1"]]),
    "candidate past the paper count": lambda d: _edit(d, "labels.tsv", _of("ad"),
                                                      lambda c: [[*c[:2], c[2] + ",40"]]),
    "node past its class": lambda d: _edit(d, "labels.tsv", _of("pv"),
                                           lambda c: [["40", *c[1:]]]),
    "duplicated label row": lambda d: _duplicate(d, "labels.tsv", _of("pv")),
    "no classes": lambda d: _edit(d, "tasks.tsv", lambda c: c[0] == "pv",
                                  lambda c: [[*c[:3], "0"]]),
    "split node without a label row": lambda d: _unlabel_first_split_node(d, "pv"),
    "split query without an instance": lambda d: _unlabel_first_split_node(d, "ad"),
}


def _first_row(name, replace):
    return lambda d: _edit(d, name, lambda c: True, lambda c: [replace(c)])


def _set(j, value):
    def edit(cells):
        cells = list(cells)
        cells[j] = value
        return cells
    return edit


def _node(label, node_id, replace):
    return lambda d: _edit(d, "nodes.tsv", lambda c: c[:2] == [node_id, label],
                           lambda c: [replace(c)])


def _malformed_rows():
    """Rows that break each of the six files' formats, by file."""
    edits = {}
    for name in ("nodes.tsv", "edges.tsv", "relations.tsv", "tasks.tsv", "labels.tsv",
                 "splits.tsv"):
        edits[f"{name}: truncated row"] = _first_row(name, lambda c: c[:-1])
        edits[f"{name}: extra cell"] = _first_row(name, lambda c: [*c, "0"])
    for name, column in (("nodes.tsv", 0), ("nodes.tsv", 2), ("nodes.tsv", -1),
                         ("edges.tsv", 1), ("edges.tsv", 2), ("tasks.tsv", 3),
                         ("labels.tsv", 0), ("labels.tsv", 2), ("splits.tsv", 0)):
        edits[f"{name}: column {column} not a number"] = _first_row(name, _set(column, "x1"))
    edits.update({
        "nodes.tsv: unknown type": _first_row("nodes.tsv", _set(1, "C")),
        "nodes.tsv: duplicate id": _node("A", "1", _set(0, "0")),
        "nodes.tsv: id gap": _node("B", "7", _set(0, "40")),
        "edges.tsv: undeclared relation": _first_row("edges.tsv", _set(0, "cites")),
        "edges.tsv: src past its class": _first_row("edges.tsv", _set(1, "40")),
        "relations.tsv: duplicate name": lambda d: _edit(
            d, "relations.tsv", lambda c: c[0] == "cited_by", lambda c: [_set(0, "cite")(c)]),
        "relations.tsv: symmetric True": _first_row("relations.tsv", _set(4, "True")),
        "relations.tsv: symmetric yes": _first_row("relations.tsv", _set(4, "yes")),
        "relations.tsv: unknown class": _first_row("relations.tsv", _set(1, "intra_c")),
        "relations.tsv: class clashes with types": _first_row("relations.tsv", _set(2, "A")),
        "tasks.tsv: duplicate name": lambda d: _edit(
            d, "tasks.tsv", lambda c: c[0] == "pf_l1", lambda c: [_set(0, "pv")(c)]),
        "tasks.tsv: unknown kind": _first_row("tasks.tsv", _set(1, "regression")),
        "labels.tsv: empty label list": _first_row("labels.tsv", _set(2, "")),
        "labels.tsv: trailing empty pieces": _first_row("labels.tsv", _set(2, "1,,")),
        "labels.tsv: leading empty piece": _first_row("labels.tsv", _set(2, ",1")),
        "labels.tsv: inner empty piece": _first_row("labels.tsv", _set(2, "1,,2")),
        "splits.tsv: unknown split": _first_row("splits.tsv", _set(2, "holdout")),
        "splits.tsv: duplicate row": lambda d: _duplicate(d, "splits.tsv", _of("pv")),
    })
    return edits


MALFORMED_ROWS = _malformed_rows()


class TestInterchange:
    def test_export_import_export_is_identity(self, tmp_path):
        graph, tasks = generate(_small())
        first, second = tmp_path / "one", tmp_path / "two"
        export_dataset(graph, tasks, str(first))
        g2, t2 = import_dataset(str(first))
        export_dataset(g2, t2, str(second))
        assert _dir_bytes(first) == {k: v for k, v in _dir_bytes(second).items()
                                     if k in _dir_bytes(first)}

    def test_import_preserves_task_content(self, tmp_path):
        graph, tasks = generate(_small())
        export_dataset(graph, tasks, str(tmp_path))
        _, t2 = import_dataset(str(tmp_path))
        by_name = {t.name: t for t in t2}
        for task in tasks:
            got = by_name[task.name]
            assert got.kind is task.kind
            assert got.n_classes == task.n_classes
            assert got.target_type is task.target_type
            if task.kind is TaskKind.LINK_RANKING:
                for a, b in zip(task.instances, got.instances):
                    assert a.query == b.query and a.true_id == b.true_id
                    assert np.array_equal(a.candidates, b.candidates)
            else:
                assert got.labels == task.labels
            for s in ("train", "val", "test"):
                assert np.array_equal(np.sort(task.split_ids(s)),
                                      np.sort(got.split_ids(s))), (task.name, s)

    def test_unknown_task_in_labels_rejected(self, tmp_path):
        graph, tasks = generate(_small())
        export_dataset(graph, tasks, str(tmp_path))
        path = tmp_path / "labels.tsv"
        path.write_text(path.read_text() + "0\tmystery\t1\n")
        with pytest.raises(ParseError):
            import_dataset(str(tmp_path))

    @pytest.mark.parametrize("edit", sorted(TASK_FILE_EDITS))
    def test_task_file_that_disagrees_with_graph_names_file_and_line(self, tmp_path, edit):
        graph, tasks = generate(_small(n_papers=40, n_authors=20))
        export_dataset(graph, tasks, str(tmp_path))
        name, line = TASK_FILE_EDITS[edit](tmp_path)
        with pytest.raises(ParseError) as err:
            import_dataset(str(tmp_path))
        assert (os.path.basename(err.value.path), err.value.line) == (name, line)

    @pytest.mark.parametrize("edit", sorted(MALFORMED_ROWS))
    def test_malformed_row_names_file_and_line(self, tmp_path, edit):
        graph, tasks = generate(_small(n_papers=40, n_authors=20))
        export_dataset(graph, tasks, str(tmp_path))
        name, line = MALFORMED_ROWS[edit](tmp_path)
        with pytest.raises(ParseError) as err:
            import_dataset(str(tmp_path))
        assert (os.path.basename(err.value.path), err.value.line) == (name, line)

    def test_crlf_line_endings_read_like_lf(self, tmp_path):
        graph, tasks = generate(_small())
        first, crlf, second = tmp_path / "one", tmp_path / "crlf", tmp_path / "two"
        export_dataset(graph, tasks, str(first))
        crlf.mkdir()
        for name, data in _dir_bytes(first).items():
            (crlf / name).write_bytes(data.replace(b"\n", b"\r\n"))
        export_dataset(*import_dataset(str(crlf)), str(second))
        assert _dir_bytes(second) == _dir_bytes(first)

    def test_query_with_only_its_true_candidate_round_trips(self, tmp_path):
        graph, tasks = generate(_small())
        first, second = tmp_path / "one", tmp_path / "two"
        export_dataset(graph, tasks, str(first))
        path = first / "labels.tsv"
        lines = path.read_text().splitlines()
        k = next(k for k, line in enumerate(lines) if line.split("\t")[1] == "ad")
        query, _, cell = lines[k].split("\t")
        lines[k] = f"{query}\tad\t{cell.split(',')[0]}"
        path.write_text("\n".join(lines) + "\n")
        export_dataset(*import_dataset(str(first)), str(second))
        assert (second / "labels.tsv").read_text().splitlines()[k] == lines[k]
        _, back = import_dataset(str(second))
        inst = next(i for i in back[-1].instances if i.query == int(query))
        assert inst.candidates.tolist() == [inst.true_id]

    def test_bad_split_name_rejected(self, tmp_path):
        graph, tasks = generate(_small())
        export_dataset(graph, tasks, str(tmp_path))
        path = tmp_path / "splits.tsv"
        path.write_text(path.read_text() + "0\tpv\tholdout\n")
        with pytest.raises(ParseError):
            import_dataset(str(tmp_path))
