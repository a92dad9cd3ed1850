"""Command-line behavior: artifacts, idempotency, exit codes."""
import json
import os
import re

import numpy as np
import pytest

from duograph.cli import _check_fingerprint, main
from duograph.errors import ConfigShapeMismatch
from duograph.tensor import Tensor, load_meta, load_tensors, save_tensors

CONFIG = {
    "synth": {"n_papers": 28, "n_authors": 14, "n_venues": 2, "n_fields_l1": 2,
              "n_fields_l2": 3, "feature_dim": 5, "name_group_size": 3,
              "ad_distractors": 3, "seed": 3},
    "model": {"input_dim": 5, "hidden_dim": 4, "num_layers": 1, "epochs": 3,
              "lr_max": 5e-3, "seed": 3},
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(CONFIG))
    return str(path)


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestGenerateCommand:
    def test_writes_dataset(self, tmp_path, config_path, capsys):
        out = str(tmp_path / "data")
        assert main(["generate", "--config", config_path, "--out", out]) == 0
        for name in ("nodes.tsv", "edges.tsv", "relations.tsv",
                     "tasks.tsv", "labels.tsv", "splits.tsv"):
            assert os.path.exists(os.path.join(out, name)), name

    def test_idempotent(self, tmp_path, config_path):
        out = str(tmp_path / "data")
        main(["generate", "--config", config_path, "--out", out])
        before = {n: _read(os.path.join(out, n)) for n in os.listdir(out)}
        main(["generate", "--config", config_path, "--out", out])
        after = {n: _read(os.path.join(out, n)) for n in os.listdir(out)}
        assert before == after

    def test_seed_flag_changes_dataset(self, tmp_path, config_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        main(["generate", "--config", config_path, "--out", a])
        main(["generate", "--config", config_path, "--out", b, "--seed", "99"])
        assert _read(os.path.join(a, "edges.tsv")) != _read(os.path.join(b, "edges.tsv"))


class TestTrainEval:
    def test_train_then_eval_report_keys(self, tmp_path, config_path):
        out = str(tmp_path / "run")
        assert main(["train", "--config", config_path, "--out", out]) == 0
        for name in ("checkpoint.bin", "train_log.jsonl", "resolved_config.json"):
            assert os.path.exists(os.path.join(out, name)), name
        assert main(["eval", "--config", config_path, "--out", out]) == 0
        report = json.loads(_read(os.path.join(out, "eval_report.json")))
        assert set(report) == {"pv", "pf_l1", "pf_l2", "ad", "clustering"}

    def test_train_idempotent(self, tmp_path, config_path):
        out = str(tmp_path / "run")
        main(["train", "--config", config_path, "--out", out])
        first = _read(os.path.join(out, "checkpoint.bin"))
        first_log = _read(os.path.join(out, "train_log.jsonl"))
        main(["train", "--config", config_path, "--out", out])
        assert _read(os.path.join(out, "checkpoint.bin")) == first
        assert _read(os.path.join(out, "train_log.jsonl")) == first_log

    def test_train_on_exported_dataset(self, tmp_path, config_path):
        data = str(tmp_path / "data")
        main(["generate", "--config", config_path, "--out", data])
        cfg = dict(CONFIG)
        cfg["data"] = data
        path = tmp_path / "with_data.json"
        path.write_text(json.dumps(cfg))
        out = str(tmp_path / "run")
        assert main(["train", "--config", str(path), "--out", out]) == 0

    def test_variant_flag_respected(self, tmp_path, config_path):
        out = str(tmp_path / "run")
        main(["train", "--config", config_path, "--out", out,
              "--variant", "no-hier"])
        resolved = json.loads(_read(os.path.join(out, "resolved_config.json")))
        assert resolved["model"]["variant"] == "no-hier"

    def test_log_line_schema(self, tmp_path, config_path):
        out = str(tmp_path / "run")
        main(["train", "--config", config_path, "--out", out])
        lines = _read(os.path.join(out, "train_log.jsonl")).decode().strip().split("\n")
        assert len(lines) == CONFIG["model"]["epochs"]
        for line in lines:
            entry = json.loads(line)
            assert set(entry) == {"epoch", "train_loss", "val_ndcg",
                                  "val_loss", "lr"}


class TestAblate:
    def test_all_variants_all_seeds(self, tmp_path, config_path):
        cfg = dict(CONFIG)
        cfg["seeds"] = [0, 1]
        cfg["model"] = dict(cfg["model"], epochs=2)
        path = tmp_path / "ab.json"
        path.write_text(json.dumps(cfg))
        out = str(tmp_path / "ab")
        assert main(["ablate", "--config", str(path), "--out", out]) == 0
        table = json.loads(_read(os.path.join(out, "ablation.json")))
        cells = {(r["variant"], r["seed"]) for r in table["rows"]}
        assert cells == {(v, s) for v in ("full", "no-dual", "no-hier", "no-global")
                         for s in (0, 1)}
        tsv = _read(os.path.join(out, "ablation.tsv")).decode().strip().split("\n")
        assert len(tsv) == 1 + 8
        assert tsv[0].split("\t") == ["variant", "seed", "pv_acc", "pf_l1_acc", "pf_l2_acc",
                                      "ad_ndcg", "ad_mrr", "nmi_mean", "ari_mean"]

    def test_columns_follow_the_task_list(self, tmp_path, config_path):
        # an imported dataset whose tasks carry other names
        data = str(tmp_path / "data")
        assert main(["generate", "--config", config_path, "--out", data]) == 0
        renames = {"pv": "venue", "pf_l1": "topic", "pf_l2": "subtopic", "ad": "author"}
        for name, column in (("tasks.tsv", 0), ("labels.tsv", 1), ("splits.tsv", 1)):
            path = os.path.join(data, name)
            rows = [line.split("\t") for line in _read(path).decode().splitlines()]
            for row in rows[1:]:
                row[column] = renames[row[column]]
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("".join("\t".join(row) + "\n" for row in rows))
        path = tmp_path / "ab.json"
        path.write_text(json.dumps({"data": data, "model": dict(CONFIG["model"], epochs=1),
                                    "seeds": [0]}))
        out = str(tmp_path / "ab")
        assert main(["ablate", "--config", str(path), "--out", out]) == 0
        tsv = [line.split("\t") for line in
               _read(os.path.join(out, "ablation.tsv")).decode().strip().split("\n")]
        assert tsv[0] == ["variant", "seed", "venue_acc", "topic_acc", "subtopic_acc",
                          "author_ndcg", "author_mrr", "nmi_mean", "ari_mean"]
        assert len(tsv) == 1 + 4 and all("NA" not in row for row in tsv[1:])
        rows = json.loads(_read(os.path.join(out, "ablation.json")))["rows"]
        assert all(set(row) == {"variant", "seed", "report"} for row in rows)

    def _ablate(self, tmp_path, name, model, *flags):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(dict(CONFIG, model=dict(CONFIG["model"], epochs=2, **model),
                                        seeds=[0])))
        out = str(tmp_path / name)
        assert main(["ablate", "--config", str(path), "--out", out, *flags]) == 0
        return json.loads(_read(os.path.join(out, "ablation.json")))["rows"]

    def test_ordering_flag_equals_config_ordering(self, tmp_path):
        flagged = self._ablate(tmp_path, "flag", {}, "--ordering", "inverted")
        configured = self._ablate(tmp_path, "cfg", {"ordering": "inverted"})
        standard = self._ablate(tmp_path, "std", {})
        assert flagged == configured
        assert flagged != standard

    def test_literal_temperature_flag_equals_config_field(self, tmp_path):
        flagged = self._ablate(tmp_path, "flag", {"temperature": 2.0},
                               "--compat-literal-temperature")
        configured = self._ablate(tmp_path, "cfg", {"temperature": 2.0,
                                                    "literal_temperature": True})
        assert flagged == configured

    def test_variant_flag_is_an_error(self, tmp_path, config_path, capsys):
        out = str(tmp_path / "ab")
        assert main(["ablate", "--config", config_path, "--out", out,
                     "--variant", "no-hier"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: InfeasibleConfig: ") and err.count("\n") == 1
        assert not os.path.exists(out)


class TestGradcheck:
    def test_passes_and_exits_zero(self, capsys):
        assert main(["gradcheck", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "max rel err" in out and "PASS" in out


class TestExports:
    def test_export_attn(self, tmp_path, config_path):
        out = str(tmp_path / "run")
        main(["train", "--config", config_path, "--out", out])
        assert main(["export-attn", "--config", config_path, "--out", out]) == 0
        intra = _read(os.path.join(out, "attn_intra.tsv")).decode().strip().split("\n")
        assert intra[0] == "layer\trelation\ttarget\tsource\talpha"
        assert len(intra) > 1
        inter = _read(os.path.join(out, "attn_inter.tsv")).decode().strip().split("\n")
        assert inter[0] == "layer\trelation\tdirection\ttarget\tsource\talpha"
        fusion = json.loads(_read(os.path.join(out, "fusion.json")))
        assert fusion and all("mean_coefficients" in f for f in fusion)
        # attention weights per (layer, relation, direction, target) sum to 1
        sums = {}
        for line in intra[1:]:
            layer, rel, tgt, _, alpha = line.split("\t")
            sums.setdefault((layer, rel, tgt), 0.0)
            sums[(layer, rel, tgt)] += float(alpha)
        assert all(abs(v - 1.0) < 1e-6 for v in sums.values())

    def test_export_attn_no_dual_routes_cross_relations(self, tmp_path, config_path):
        out = str(tmp_path / "run")
        args = ["--config", config_path, "--out", out, "--variant", "no-dual"]
        assert main(["train"] + args) == 0
        assert main(["export-attn"] + args) == 0
        intra = _read(os.path.join(out, "attn_intra.tsv")).decode().strip().split("\n")
        inter = _read(os.path.join(out, "attn_inter.tsv")).decode().strip().split("\n")
        cross = {"lead_author_of", "support_author_of"}
        assert not {line.split("\t")[1] for line in intra[1:]} & cross
        assert {tuple(line.split("\t")[1:3]) for line in inter[1:]} == {
            (rel, f"to_{t}") for rel in cross for t in "AB"}
        # the weights of each (layer, relation, direction, target) sum to 1
        sums = {}
        for line in inter[1:]:
            layer, rel, direction, tgt, _, alpha = line.split("\t")
            key = (layer, rel, direction, tgt)
            sums[key] = sums.get(key, 0.0) + float(alpha)
        assert sums and all(abs(v - 1.0) < 1e-6 for v in sums.values())

    def test_export_emb_and_pca(self, tmp_path, config_path):
        out = str(tmp_path / "run")
        main(["train", "--config", config_path, "--out", out])
        assert main(["export-emb", "--config", config_path, "--out", out]) == 0
        emb = _read(os.path.join(out, "embeddings.tsv")).decode().strip().split("\n")
        n_nodes = CONFIG["synth"]["n_papers"] + CONFIG["synth"]["n_authors"]
        assert len(emb) == 1 + n_nodes
        assert emb[0].split("\t")[:2] == ["node_id", "type"]
        pca = _read(os.path.join(out, "embeddings_pca.tsv")).decode().strip().split("\n")
        assert pca[0] == "node_id\ttype\tpc_0\tpc_1"
        assert len(pca) == 1 + n_nodes

    def test_export_idempotent(self, tmp_path, config_path):
        out = str(tmp_path / "run")
        main(["train", "--config", config_path, "--out", out])
        main(["export-emb", "--config", config_path, "--out", out])
        first = _read(os.path.join(out, "embeddings_pca.tsv"))
        main(["export-emb", "--config", config_path, "--out", out])
        assert _read(os.path.join(out, "embeddings_pca.tsv")) == first


def _rename_relation(src_dir, dst_dir, old, new):
    os.makedirs(dst_dir)
    for name in os.listdir(src_dir):
        lines = _read(os.path.join(src_dir, name)).decode("utf-8").split("\n")
        if name in ("relations.tsv", "edges.tsv"):
            lines = [new + line[len(old):] if line.split("\t")[0] == old else line
                     for line in lines]
        with open(os.path.join(dst_dir, name), "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines))


class TestCheckpointFingerprint:
    def _train(self, tmp_path, config_path, *flags):
        out = str(tmp_path / "run")
        assert main(["train", "--config", config_path, "--out", out, *flags]) == 0
        return out

    def test_header_holds_variant_ordering_and_schema(self, tmp_path, config_path):
        out = self._train(tmp_path, config_path, "--ordering", "inverted")
        with open(os.path.join(out, "checkpoint.bin"), "rb") as fh:
            meta = json.loads(fh.readline())["meta"]
        assert meta["variant"] == "full" and meta["ordering"] == "inverted"
        assert ["lead_author_of", "inter", "A", "B"] in meta["relations"]
        assert [r[0] for r in meta["relations"]] == sorted(r[0] for r in meta["relations"])

    def test_other_variant_is_rejected(self, tmp_path, config_path, capsys):
        out = self._train(tmp_path, config_path, "--variant", "no-hier")
        assert main(["eval", "--config", config_path, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigShapeMismatch: ")
        assert "saved for variant 'no-hier', this run has 'full'" in err

    def test_same_parameters_other_ordering_is_rejected(self, tmp_path, config_path, capsys):
        # standard and inverted read the same parameter names and shapes
        out = self._train(tmp_path, config_path, "--ordering", "inverted")
        assert main(["eval", "--config", config_path, "--out", out]) == 1
        assert "saved for ordering 'inverted', this run has 'standard'" in capsys.readouterr().err
        assert main(["eval", "--config", config_path, "--out", out,
                     "--ordering", "inverted"]) == 0

    def test_dataset_with_renamed_relation_is_rejected(self, tmp_path, config_path, capsys):
        data = str(tmp_path / "data")
        main(["generate", "--config", config_path, "--out", data])
        renamed = str(tmp_path / "renamed")
        _rename_relation(data, renamed, "lead_author_of", "first_author_of")
        run_cfg = tmp_path / "run.json"
        run_cfg.write_text(json.dumps({"data": data, "model": CONFIG["model"]}))
        out = self._train(tmp_path, str(run_cfg))
        other_cfg = tmp_path / "other.json"
        other_cfg.write_text(json.dumps({"data": renamed, "model": CONFIG["model"],
                                         "checkpoint": os.path.join(out, "checkpoint.bin")}))
        assert main(["eval", "--config", str(other_cfg), "--out", str(tmp_path / "e")]) == 1
        err = capsys.readouterr().err
        assert "saved for relation 5 ['lead_author_of', 'inter', 'A', 'B'], " \
               "this run has ['first_author_of', 'inter', 'A', 'B']" in err

    @pytest.mark.parametrize("saved, message", [
        ({"variant": "full"}, "has no 'ordering' in its fingerprint"),
        ({"variant": "full", "ordering": "standard", "relations": [["cite", "intra_b", "B", "B"]]},
         "saved for relation 1 None, this run has ['wrote', 'inter', 'A', 'B']"),
    ])
    def test_first_differing_field_is_named(self, saved, message):
        expected = {"variant": "full", "ordering": "standard",
                    "relations": [["cite", "intra_b", "B", "B"], ["wrote", "inter", "A", "B"]]}
        with pytest.raises(ConfigShapeMismatch, match=re.escape(message)):
            _check_fingerprint("ckpt.bin", saved, expected)

    def test_checkpoint_without_fingerprint_is_rejected(self, tmp_path, config_path, capsys):
        out = self._train(tmp_path, config_path)
        path = os.path.join(out, "checkpoint.bin")
        header, payload = _read(path).split(b"\n", 1)
        bare = json.loads(header)
        del bare["meta"]
        with open(path, "wb") as fh:
            fh.write(json.dumps(bare).encode("utf-8") + b"\n" + payload)
        assert main(["eval", "--config", config_path, "--out", out]) == 1
        assert "has no 'variant' in its fingerprint" in capsys.readouterr().err

    def test_parameter_named_twice_is_one_line(self, tmp_path, config_path, capsys):
        # the checkpoint repeats its first tensor under its name, header and payload
        out = self._train(tmp_path, config_path)
        path = os.path.join(out, "checkpoint.bin")
        named, meta = load_tensors(path), load_meta(path)
        save_tensors(path, [(n, Tensor(a)) for n, a in [named[0], *named]], meta=meta)
        capsys.readouterr()
        assert main(["eval", "--config", config_path, "--out", out]) == 1
        assert capsys.readouterr().err == ("error: ConfigShapeMismatch: checkpoint holds "
                                           f"parameter {named[0][0]!r} twice\n")

    @pytest.mark.parametrize("entry", [["w", [2]], ["w", "ab"], ["w", [True, 1]]])
    def test_malformed_tensor_entry_is_one_line(self, tmp_path, config_path, capsys, entry):
        out = self._train(tmp_path, config_path)
        path = os.path.join(out, "checkpoint.bin")
        header, payload = _read(path).split(b"\n", 1)
        bad = json.loads(header)
        bad["tensors"][1] = entry
        with open(path, "wb") as fh:
            fh.write(json.dumps(bad).encode("utf-8") + b"\n" + payload)
        capsys.readouterr()
        assert main(["eval", "--config", config_path, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: IoFailure: malformed checkpoint header in {path}: "
                              f"tensor entry 1 {entry!r}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("meta", [5, {"variant": "full", "ordering": "standard",
                                          "relations": 5}])
    def test_malformed_fingerprint_is_one_line(self, tmp_path, config_path, capsys, meta):
        out = self._train(tmp_path, config_path)
        path = os.path.join(out, "checkpoint.bin")
        header, payload = _read(path).split(b"\n", 1)
        bad = json.loads(header)
        bad["meta"] = meta
        with open(path, "wb") as fh:
            fh.write(json.dumps(bad).encode("utf-8") + b"\n" + payload)
        capsys.readouterr()
        assert main(["eval", "--config", config_path, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: IoFailure: malformed checkpoint header in {path}: "
                              f"meta {meta!r} is not an object whose relations are a list")
        assert err.count("\n") == 1


class TestExitCodes:
    def test_unknown_flag_is_two(self, capsys):
        assert main(["train", "--gpu"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_command_is_two(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_config_is_one(self, tmp_path, capsys):
        code = main(["eval", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "\n" not in err.strip()

    def test_bad_model_field_is_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"synth": CONFIG["synth"],
                                    "model": {"hidden_dim": -3}}))
        assert main(["train", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_wrong_field_type_is_one_line(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"synth": CONFIG["synth"],
                                    "model": {**CONFIG["model"], "hidden_dim": "8"}}))
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err == "error: ConfigShapeMismatch: hidden_dim must be an integer, got '8'\n"

    def test_label_past_n_classes_is_one_line(self, tmp_path, config_path, capsys):
        data = str(tmp_path / "data")
        assert main(["generate", "--config", config_path, "--out", data]) == 0
        labels = tmp_path / "data" / "labels.tsv"
        lines = labels.read_text().splitlines()
        k = next(k for k, line in enumerate(lines) if line.split("\t")[1] == "pv")
        lines[k] = lines[k].rsplit("\t", 1)[0] + "\t2"  # pv has 2 classes
        labels.write_text("\n".join(lines) + "\n")
        path = tmp_path / "data.json"
        path.write_text(json.dumps({"data": data, "model": CONFIG["model"]}))
        capsys.readouterr()
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: ParseError: {labels}:{k + 1}: "
                       "task 'pv': class 2 outside [0, 2)\n")

    @pytest.mark.parametrize("command, flags, named", [
        ("generate", ["--variant", "no-hier", "--ordering", "parallel",
                      "--compat-literal-temperature"],
         "--variant, --ordering, --compat-literal-temperature"),
        ("gradcheck", ["--config", "missing.json"], "--config"),
        ("gradcheck", ["--variant", "no-dual", "--ordering", "inverted"], "--variant, --ordering"),
        ("gradcheck", ["--out", "out", "--compat-literal-temperature"],
         "--out, --compat-literal-temperature"),
    ])
    def test_unread_flag_is_one_line(self, tmp_path, monkeypatch, capsys, command, flags, named):
        # rejected before the config is read, and nothing is written
        monkeypatch.chdir(tmp_path)
        assert main([command, *flags]) == 1
        assert capsys.readouterr().err == (
            f"error: InfeasibleConfig: {command} does not read {named}\n")
        assert os.listdir(tmp_path) == []

    def test_missing_checkpoint_is_one(self, tmp_path, config_path):
        assert main(["eval", "--config", config_path,
                     "--out", str(tmp_path / "empty")]) == 1
