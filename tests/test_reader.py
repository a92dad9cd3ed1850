"""The dataset reader against the one it replaced (`reference.import_dataset`):
equal graphs and tasks on whole exports, and equal data or the same
ParseError for every one-cell or one-line edit of a small export. Also the
batched ranking builder against the per-query `reference.rank_instance`."""
import os
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from duograph import graph as graph_module
from duograph.errors import DimensionMismatch, ParseError
from duograph.graph import NodeType, read_table
from duograph.model import RankInstance, rank_instances
from duograph.synth import SynthConfig, export_dataset, generate, import_dataset

import reference
from test_acceptance import ACCEPT_SYNTH
from test_graph import _assert_same_array

DATASET = ("nodes.tsv", "edges.tsv", "relations.tsv", "tasks.tsv", "labels.tsv", "splits.tsv")
SMALL = dict(n_papers=40, n_authors=20, n_venues=3, n_fields_l1=2, n_fields_l2=4,
             feature_dim=5, name_group_size=3, ad_distractors=4, seed=11)


def assert_same_dataset(new, old) -> None:
    """Graph features and both CSR directions, and every task's labels,
    instances and splits, byte for byte."""
    (g, tasks), (h, old_tasks) = new, old
    assert g.counts == h.counts and g.relations == h.relations
    for t in NodeType:
        _assert_same_array(g.features[t], h.features[t], f"features[{t.label}]")
    for name in h.relation_names():
        for reverse in (False, True):
            a, b = g.csr(name, reverse), h.csr(name, reverse)
            _assert_same_array(a.offsets, b.offsets, f"{name} offsets")
            _assert_same_array(a.cols, b.cols, f"{name} cols")
    assert len(tasks) == len(old_tasks)
    for task, old_task in zip(tasks, old_tasks):
        assert (task.name, task.kind, task.target_type, task.n_classes) == (
            old_task.name, old_task.kind, old_task.target_type, old_task.n_classes)
        assert list(task.labels.items()) == list(old_task.labels.items()), task.name
        assert len(task.instances) == len(old_task.instances), task.name
        for inst, old_inst in zip(task.instances, old_task.instances):
            assert (inst.query, inst.true_index) == (old_inst.query, old_inst.true_index)
            _assert_same_array(inst.candidates, old_inst.candidates, f"{task.name} {inst.query}")
        assert list(task.splits) == list(old_task.splits), task.name
        for split, ids in old_task.splits.items():
            _assert_same_array(task.splits[split], ids, f"{task.name} {split}")


def _no_cross_relation(directory) -> None:
    for name, keep in (("relations.tsv", lambda cells: cells[1] != "inter"),
                       ("edges.tsv", lambda cells: cells[0] not in
                        {"lead_author_of", "support_author_of"})):
        path = os.path.join(directory, name)
        with open(path) as fh:
            header, *rows = fh.read().splitlines()
        with open(path, "w") as fh:
            fh.write("\n".join([header] + [r for r in rows if keep(r.split("\t"))]) + "\n")


class TestExportsMatchOracle:
    @pytest.mark.parametrize("synth, edit", [
        (ACCEPT_SYNTH, None), (dict(n_papers=1200, n_authors=600, seed=0), None),
        (SMALL, _no_cross_relation)], ids=["accept-600", "1200", "no-cross-relation"])
    def test_same_graph_and_tasks(self, tmp_path, synth, edit):
        export_dataset(*generate(SynthConfig(**synth)), tmp_path)
        if edit is not None:
            edit(tmp_path)
        assert_same_dataset(import_dataset(tmp_path), reference.import_dataset(tmp_path))

    def test_clean_export_never_takes_the_checked_path(self, tmp_path, monkeypatch):
        export_dataset(*generate(SynthConfig(**SMALL)), tmp_path)
        old = reference.import_dataset(tmp_path)

        def checked(*args):
            raise AssertionError("the checked path read a clean table")
        monkeypatch.setattr(graph_module, "_checked_columns", checked)
        assert_same_dataset(import_dataset(tmp_path), old)


@pytest.fixture(scope="module")
def small_export(tmp_path_factory):
    directory = tmp_path_factory.mktemp("small")
    export_dataset(*generate(SynthConfig(**SMALL)), directory)
    return {name: (directory / name).read_text() for name in DATASET}


# cells the two readers must read alike: integer spellings np.loadtxt rejects
# and int() accepts, names a fixed-width field would cut or encode, cells a
# bulk parser may treat as special, and label lists with empty pieces,
# repeated ids, or the true id among the distractors
PITFALL_CELLS = [" 5", "5 ", "+5", "05", "5_0", "٥", "-0", "1.0", "9223372036854775808",
                 "", " ", "#", "# 1", "\"1\"", "nan", "inf", "-inf", "1e400", "1_0.5",
                 "0x1p3", "verylongrelationname_x", "support_author_ofx", "cité", "cite", "日",
                 "1,,2", ",1", "1,", "1,1", "3,0,3", "1\r2", "x\x00", "\xa05", "cite\x00"]
# (file, task of the row or None for the middle row, column) for every column kind
TARGETS = [("nodes.tsv", None, 0), ("nodes.tsv", None, 1), ("nodes.tsv", None, 3),
           ("edges.tsv", None, 0), ("edges.tsv", None, 1), ("edges.tsv", None, 2),
           ("relations.tsv", None, 0), ("relations.tsv", None, 1), ("relations.tsv", None, 4),
           ("tasks.tsv", "pf_l2", 0), ("tasks.tsv", "pf_l2", 3),
           ("labels.tsv", "pv", 0), ("labels.tsv", "pv", 1), ("labels.tsv", "pf_l2", 2),
           ("labels.tsv", "ad", 2), ("splits.tsv", "ad", 0), ("splits.tsv", "pv", 2)]
CELL_EDITS = {
    "prefix a space": lambda c: " " + c,
    "prefix +": lambda c: "+" + c,
    "prefix 0": lambda c: "0" + c,
    "append _0": lambda c: c + "_0",
    "arabic digits": lambda c: c.translate({ord(d): 0x660 + int(d) for d in "0123456789"}),
    "append ,<first id>": lambda c: c + "," + c.split(",")[0],
    "first id last": lambda c: ",".join(c.split(",")[1:] + c.split(",")[:1]),
    "append a letter": lambda c: c + "x",
    "empty": lambda c: "",
}
# on labels.tsv, "delete" leaves a split row with no label row and "repeat"
# repeats a label row
LINE_EDITS = {
    "delete": lambda lines, k: lines[:k] + lines[k + 1:],
    "repeat": lambda lines, k: lines[:k + 1] + lines[k:],
    "blank line before": lambda lines, k: lines[:k] + [""] + lines[k:],
    "space line before": lambda lines, k: lines[:k] + [" "] + lines[k:],
    "missing tab": lambda lines, k: lines[:k] + [lines[k].replace("\t", "", 1)] + lines[k + 1:],
    "extra tab": lambda lines, k: lines[:k] + [lines[k] + "\t0"] + lines[k + 1:],
    "empty last cell": lambda lines, k: lines[:k] + [lines[k] + "\t"] + lines[k + 1:],
    "swap with next": lambda lines, k: lines[:k] + lines[k + 1:k + 2] + [lines[k]] + lines[k + 2:],
    "crlf ending": lambda lines, k: lines[:k] + [lines[k] + "\r"] + lines[k + 1:],
    "comment line before": lambda lines, k: lines[:k] + ["# a comment"] + lines[k:],
}


def _row(text, task) -> int:
    """The middle line of `text`, or the first row of `task` (its name in cell 0 or 1)."""
    lines = text.split("\n")[:-1]
    if task is None:
        return len(lines) // 2
    return next(k for k, line in enumerate(lines) if k and task in line.split("\t")[:2])


def _write_edited(export, directory, file, edit) -> None:
    """The export under `directory`, with `edit` applied to the lines of `file`."""
    directory.mkdir(exist_ok=True)
    for name, text in export.items():
        lines = text.split("\n")[:-1]
        if name == file:
            lines = edit(lines)
        with open(directory / name, "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(lines) + "\n")


def _set_cell(k, j, change):
    def edit(lines):
        cells = lines[k].split("\t")
        cells[j % len(cells)] = change(cells[j % len(cells)])
        return lines[:k] + ["\t".join(cells)] + lines[k + 1:]
    return edit


def _outcome(read, directory):
    try:
        return "read", read(directory)
    except ParseError as exc:
        return "ParseError", (os.path.basename(exc.path), exc.line, str(exc))
    except DimensionMismatch as exc:
        return "DimensionMismatch", str(exc)


def assert_same_outcome(directory) -> None:
    """Both readers return equal data or raise the same ParseError, except
    that a non-finite feature cell is now a ParseError naming its line."""
    new, old = _outcome(import_dataset, directory), _outcome(reference.import_dataset, directory)
    if old[0] == "DimensionMismatch":
        assert new[0] == "ParseError" and new[1][0] == "nodes.tsv", (new, old)
        assert new[1][2].endswith(" is not finite"), new
    elif old[0] == "read":
        assert new[0] == "read", new
        assert_same_dataset(new[1], old[1])
    else:
        assert new == old


class TestEditedExportsMatchOracle:
    @pytest.mark.parametrize("cell", PITFALL_CELLS)
    def test_pitfall_cell_in_every_column_kind(self, tmp_path, small_export, cell):
        for i, (file, task, column) in enumerate(TARGETS):
            k = _row(small_export[file], task)
            _write_edited(small_export, tmp_path / str(i), file,
                          _set_cell(k, column, lambda _: cell))
            assert_same_outcome(tmp_path / str(i))

    @pytest.mark.parametrize("edit", sorted(LINE_EDITS))
    def test_line_edit_in_every_file(self, tmp_path, small_export, edit):
        for i, (file, task) in enumerate([(f, None) for f in DATASET] + [("labels.tsv", "ad")]):
            k = _row(small_export[file], task)
            _write_edited(small_export, tmp_path / str(i), file,
                          lambda lines: LINE_EDITS[edit](lines, k))
            assert_same_outcome(tmp_path / str(i))

    @pytest.mark.parametrize("file", DATASET)
    def test_blank_line_before_a_later_fault(self, tmp_path, small_export, file):
        """A skipped blank line shifts the line that a later fault is reported at."""
        def edit(lines):
            if file == "edges.tsv":  # a repeated edge is no fault, a dangling one is
                lines = lines[:-1] + [lines[-1].rsplit("\t", 1)[0] + "\t99999"]
            else:
                lines = LINE_EDITS["repeat"](lines, len(lines) - 1)
            return LINE_EDITS["blank line before"](lines, len(lines) // 2)
        _write_edited(small_export, tmp_path, file, edit)
        assert _outcome(import_dataset, tmp_path)[0] == "ParseError"
        assert_same_outcome(tmp_path)

    @settings(max_examples=200, deadline=5000, derandomize=True)
    @given(st.sampled_from(DATASET), st.integers(0, 10_000), st.integers(0, 20),
           st.sampled_from(sorted(CELL_EDITS) + sorted(LINE_EDITS)))
    def test_one_random_edit(self, tmp_path_factory, small_export, file, line, column, edit):
        k = line % small_export[file].count("\n")
        directory = tmp_path_factory.mktemp("edit")
        _write_edited(small_export, directory, file, _set_cell(k, column, CELL_EDITS[edit])
                      if edit in CELL_EDITS else lambda lines: LINE_EDITS[edit](lines, k))
        assert_same_outcome(directory)


class TestRankInstances:
    @settings(max_examples=100, deadline=5000, derandomize=True)
    @given(st.lists(st.lists(st.integers(0, 12), min_size=1, max_size=8), max_size=12))
    def test_matches_one_query_at_a_time(self, rows):
        """Rows with repeated ids, and true ids that recur among the distractors."""
        queries = list(range(100, 100 + len(rows)))
        ids = [i for row in rows for i in row]
        batch = rank_instances(queries, ids, [len(row) for row in rows])
        assert len(batch) == len(rows)
        for query, row, inst in zip(queries, rows, batch):
            old = reference.rank_instance(query, row[0], row[1:])
            for one in (inst, RankInstance.make(query, row[0], row[1:])):
                assert (one.query, one.true_index, one.true_id) == (old.query, old.true_index,
                                                                    row[0])
                _assert_same_array(one.candidates, old.candidates, f"query {query}")

    def test_true_id_among_distractors_and_repeats(self):
        inst = RankInstance.make(7, 5, [9, 5, 1, 9, 1])
        assert inst.candidates.tolist() == [1, 5, 9] and inst.true_index == 1


class TestTableWithoutRows:
    def test_blank_lines_alone_read_as_no_rows_without_a_warning(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("a\tb\n\n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = read_table(path, {"a": int, "b": list})
        ids, sizes = table.columns[1]
        assert len(table) == 0 and table.columns[0].size == ids.size == sizes.size == 0

    def test_a_space_line_alone_is_a_short_row(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("a\tb\n\n \n")
        with pytest.raises(ParseError, match=r"t\.tsv:3: expected 2 columns, got 1"):
            read_table(path, {"a": int, "b": list})
