"""Every TSV the package writes, byte for byte against the hand-formatted
writers that `graph.write_table` replaced (`reference`), and write_table
against read_table."""
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from duograph import cli
from duograph.errors import IoFailure
from duograph.graph import NodeType, build_graph, read_table, write_table
from duograph.model import forward
from duograph.synth import SynthConfig, export_dataset, generate, import_dataset

import reference

SYNTH = {"n_papers": 28, "n_authors": 14, "n_venues": 2, "n_fields_l1": 2, "n_fields_l2": 3,
         "feature_dim": 5, "name_group_size": 3, "ad_distractors": 3, "seed": 3}
MODEL = {"hidden_dim": 4, "num_layers": 2, "epochs": 2, "seed": 3}
DATASET = ("nodes.tsv", "edges.tsv", "relations.tsv", "tasks.tsv", "labels.tsv", "splits.tsv")
ATTENTION = ("attn_intra.tsv", "attn_inter.tsv")
EMBEDDINGS = ("embeddings.tsv", "embeddings_pca.tsv")


def _assert_same_files(new, old, names):
    for name in names:
        with open(os.path.join(new, name), "rb") as a, open(os.path.join(old, name), "rb") as b:
            assert a.read() == b.read(), name


def _edit(path, keep):
    """Keep the lines of a TSV whose cells `keep` accepts (the header always)."""
    header, *rows = path.read_text().splitlines()
    path.write_text("\n".join([header] + [r for r in rows if keep(r.split("\t"))]) + "\n")


@pytest.fixture
def data(tmp_path):
    path = tmp_path / "synth.json"
    path.write_text(json.dumps({"synth": SYNTH}))
    out = tmp_path / "data"
    assert cli.main(["generate", "--config", str(path), "--out", str(out)]) == 0
    return out


def _config(tmp_path, data, **extra):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"data": str(data), "model": MODEL, **extra}))
    return str(path)


class TestDatasetTables:
    @pytest.mark.parametrize("synth", [SynthConfig(**SYNTH), SynthConfig()])
    def test_generated_dataset_matches_oracle(self, tmp_path, synth):
        graph, tasks = generate(synth)
        export_dataset(graph, tasks, tmp_path / "new")
        reference.export_dataset(graph, tasks, tmp_path / "old")
        _assert_same_files(tmp_path / "new", tmp_path / "old", DATASET)

    def test_imported_dataset_matches_oracle(self, tmp_path, data):
        graph, tasks = import_dataset(data)
        export_dataset(graph, tasks, tmp_path / "new")
        reference.export_dataset(graph, tasks, tmp_path / "old")
        _assert_same_files(tmp_path / "new", tmp_path / "old", DATASET)
        _assert_same_files(tmp_path / "new", data, DATASET)

    def test_unsorted_splits_match_oracle(self, tmp_path):
        graph, tasks = generate(SynthConfig(**SYNTH))
        rng = np.random.default_rng(0)
        for task in tasks:
            task.splits = {split: rng.permutation(ids) for split, ids in task.splits.items()}
        export_dataset(graph, tasks, tmp_path / "new")
        reference.export_dataset(graph, tasks, tmp_path / "old")
        _assert_same_files(tmp_path / "new", tmp_path / "old", DATASET)

    def test_graph_without_relations_or_tasks_is_headers_only(self, tmp_path):
        feats = {NodeType.A: np.array([[0.5]]), NodeType.B: np.array([[-1.25], [3.0]])}
        graph = build_graph({NodeType.A: 1, NodeType.B: 2}, feats, [], [])
        export_dataset(graph, [], tmp_path / "new")
        reference.export_dataset(graph, [], tmp_path / "old")
        _assert_same_files(tmp_path / "new", tmp_path / "old", DATASET)
        assert (tmp_path / "new" / "edges.tsv").read_bytes() == b"relation_name\tsrc\tdst\n"
        assert (tmp_path / "new" / "splits.tsv").read_bytes() == b"node\ttask\tsplit\n"


def _oracle_exports(tmp_path, config_path, flags):
    """What export-attn and export-emb wrote before write_table, under tmp_path/old."""
    cfg = cli._load_config(config_path)
    args = cli._build_parser().parse_args(["export-attn", "--out", str(tmp_path / "run"), *flags])
    graph, tasks, config, ps = cli._trained_model(cfg, args)
    embs, records = forward(graph, config, ps, training=False, collect=True)
    old = tmp_path / "old"
    old.mkdir()
    reference.attention_tables(graph, records, old)
    values = {t: embs[t].data for t in NodeType}
    reference.write_node_table(old / "embeddings.tsv", "emb", values)
    proj = cli._pca_2d(np.vstack([values[NodeType.A], values[NodeType.B]]))
    n_a = graph.n_nodes(NodeType.A)
    reference.write_node_table(old / "embeddings_pca.tsv", "pc",
                               {NodeType.A: proj[:n_a], NodeType.B: proj[n_a:]})
    return old


class TestCliTables:
    @pytest.mark.parametrize("flags", [[], ["--variant", "no-dual"], ["--ordering", "parallel"],
                                       ["--variant", "no-hier", "--ordering", "inverted"]])
    def test_exports_match_oracle(self, tmp_path, data, flags):
        config = _config(tmp_path, data)
        out = str(tmp_path / "run")
        for command in ("train", "export-attn", "export-emb"):
            assert cli.main([command, "--config", config, "--out", out, *flags]) == 0
        old = _oracle_exports(tmp_path, config, flags)
        _assert_same_files(out, old, ATTENTION + EMBEDDINGS)
        with open(os.path.join(out, "attn_inter.tsv")) as fh:
            assert len(fh.read().splitlines()) > 1

    def test_no_cross_relation_leaves_attn_inter_headers_only(self, tmp_path, data):
        cross = {"lead_author_of", "support_author_of"}
        _edit(data / "relations.tsv", lambda cells: cells[1] != "inter")
        _edit(data / "edges.tsv", lambda cells: cells[0] not in cross)
        config = _config(tmp_path, data)
        out = str(tmp_path / "run")
        for command in ("train", "export-attn"):
            assert cli.main([command, "--config", config, "--out", out]) == 0
        old = _oracle_exports(tmp_path, config, [])
        _assert_same_files(out, old, ATTENTION)
        with open(os.path.join(out, "attn_inter.tsv"), "rb") as fh:
            assert fh.read() == b"layer\trelation\tdirection\ttarget\tsource\talpha\n"

    def test_ablation_matches_oracle_with_na_cells(self, tmp_path, data):
        _edit(data / "splits.tsv", lambda cells: cells[1:] != ["pv", "test"])
        out = tmp_path / "ab"
        assert cli.main(["ablate", "--config", _config(tmp_path, data, seeds=[0, 1]),
                         "--out", str(out)]) == 0
        rows = json.loads((out / "ablation.json").read_text())["rows"]
        _, tasks = import_dataset(data)
        (tmp_path / "old").mkdir()
        reference.ablation_table(tasks, rows, tmp_path / "old")
        _assert_same_files(out, tmp_path / "old", ["ablation.tsv"])
        header, *lines = (out / "ablation.tsv").read_text().splitlines()
        pv = header.split("\t").index("pv_acc")
        assert len(lines) == 8 and all(line.split("\t")[pv] == "NA" for line in lines)
        assert all("NA" not in line.split("\t")[pv + 1:] for line in lines)


_CELL = st.text(st.characters(blacklist_categories=("Cs", "Cc")), max_size=6)


class TestWriteTable:
    def test_zero_rows_is_the_header_alone(self, tmp_path):
        write_table(tmp_path / "t.tsv", ("a", "b"), [[], []], ("%d", "%s"))
        assert (tmp_path / "t.tsv").read_bytes() == b"a\tb\n"

    def test_columns_of_unequal_length_raise(self, tmp_path):
        with pytest.raises(ValueError):
            write_table(tmp_path / "t.tsv", ("a", "b"), [[1, 2], [3]], ("%d", "%d"))

    def test_unwritable_path_raises_io_failure(self, tmp_path):
        with pytest.raises(IoFailure, match="cannot write"):
            write_table(tmp_path, ("a",), [[1]], ("%d",))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.lists(_CELL.filter(bool), min_size=3, max_size=3, unique=True),
           st.lists(st.tuples(st.integers(-2**62, 2**62),
                              st.floats(allow_nan=False, allow_infinity=False), _CELL),
                    max_size=6))
    def test_round_trip_through_read_table(self, tmp_path_factory, header, rows):
        path = tmp_path_factory.mktemp("table") / "t.tsv"
        ints, floats, texts = (list(column) for column in zip(*rows)) if rows else ([], [], [])
        write_table(path, header, [ints, floats, texts], ("%d", "%.9g", "%s"))
        table = read_table(path, dict(zip(header, (int, float, str))))
        assert len(table) == len(rows)
        assert table.columns[0].tolist() == ints
        assert table.columns[1].tolist() == [float("%.9g" % x) for x in floats]
        assert table.columns[2] == texts
