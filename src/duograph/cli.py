"""Command-line front end.

Seven subcommands cover the working loop: generate a planted dataset,
train, evaluate, run the variant comparison, check gradients against
finite differences, and export attention weights or embeddings for
outside tooling. All artifacts are deterministic for a fixed seed and
config, so re-running a command overwrites byte-identical files.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .errors import ConfigShapeMismatch, Error, InfeasibleConfig, IoFailure
from .graph import (FLOAT_FMT, BiGraph, NodeType, concat_column, write_lines, write_node_table,
                    write_table)
from .gradcheck import gradcheck
from .model import VARIANTS, ORDERINGS, ModelConfig, TaskKind, forward
from .params import build_params
from .synth import SynthConfig, export_dataset, generate, import_dataset
from .tensor import load_meta, load_tensors, save_tensors
from .train import evaluate, train, write_log

COMMANDS = ("generate", "train", "eval", "ablate", "gradcheck",
            "export-attn", "export-emb")

GRADCHECK_TOL = 1e-3

# the flags a command never reads; giving one is an error, not a silent no-op
UNREAD_FLAGS = {
    "generate": ("variant", "ordering", "compat_literal_temperature"),
    "ablate": ("variant",),  # it runs every variant
    "gradcheck": ("config", "out", "variant", "ordering", "compat_literal_temperature"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="duograph")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None)
        p.add_argument("--out", default=None)  # "." for commands that read it
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--variant", choices=VARIANTS, default=None)
        p.add_argument("--ordering", choices=ORDERINGS, default=None)
        p.add_argument("--compat-literal-temperature", action="store_true")
    return parser


def _load_config(path) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise IoFailure(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise IoFailure(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise InfeasibleConfig("config root must be a JSON object")
    return cfg


def _synth_config(cfg: dict, args) -> SynthConfig:
    fields = dict(cfg.get("synth", {}))
    if args.seed is not None:
        fields["seed"] = args.seed
    return SynthConfig.from_dict(fields)


def _resolve_dataset(cfg: dict, args):
    """Dataset comes from cfg["data"] when present, else the generator."""
    data_dir = cfg.get("data")
    if data_dir:
        return import_dataset(data_dir), None
    synth = _synth_config(cfg, args)
    return generate(synth), synth


def _model_config(cfg: dict, args, graph: BiGraph) -> ModelConfig:
    fields = dict(cfg.get("model", {}))
    fields.setdefault("input_dim", graph.feature_dim)
    if args.seed is not None:
        fields["seed"] = args.seed
    if args.variant is not None:
        fields["variant"] = args.variant
    if args.ordering is not None:
        fields["ordering"] = args.ordering
    if args.compat_literal_temperature:
        fields["literal_temperature"] = True
    return ModelConfig.from_dict(fields)


def _write_json(path, payload) -> None:
    write_lines(path, [json.dumps(payload, indent=2, sort_keys=True)])


def _fingerprint(graph: BiGraph, config: ModelConfig) -> dict:
    """What a checkpoint must match beyond its parameter names and shapes."""
    specs = [graph.spec(name) for name in graph.relation_names()]
    return {"variant": config.variant, "ordering": config.ordering,
            "relations": [[s.name, s.klass.value, s.src_type.label, s.dst_type.label]
                          for s in specs]}


def _check_fingerprint(path, saved, expected: dict) -> None:
    saved = {} if saved is None else saved
    if not isinstance(saved, dict) or not isinstance(saved.get("relations", []), list):
        raise IoFailure(f"malformed checkpoint header in {path}: meta {saved!r} is not an "
                        "object whose relations are a list")
    for key, want in expected.items():
        if key not in saved:
            raise ConfigShapeMismatch(f"checkpoint {path} has no {key!r} in its fingerprint")
        got = saved[key]
        if got == want:
            continue
        if key == "relations":
            k = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                     min(len(got), len(want)))
            got = got[k] if k < len(got) else None
            want = want[k] if k < len(want) else None
            key = f"relation {k}"
        raise ConfigShapeMismatch(
            f"checkpoint {path} was saved for {key} {got!r}, this run has {want!r}")


def _trained_model(cfg: dict, args):
    """(graph, tasks, config, params) of a checkpoint whose fingerprint matches the run."""
    (graph, tasks), _ = _resolve_dataset(cfg, args)
    config = _model_config(cfg, args, graph)
    path = cfg.get("checkpoint") or os.path.join(args.out, "checkpoint.bin")
    _check_fingerprint(path, load_meta(path), _fingerprint(graph, config))
    ps = build_params(graph, config, tasks)
    ps.load(load_tensors(path))
    return graph, tasks, config, ps


def _cmd_generate(cfg, args) -> int:
    synth = _synth_config(cfg, args)
    graph, tasks = generate(synth)
    os.makedirs(args.out, exist_ok=True)
    export_dataset(graph, tasks, args.out)
    _write_json(os.path.join(args.out, "synth_config.json"), synth.to_dict())
    print(f"dataset written to {args.out}")
    return 0


def _cmd_train(cfg, args) -> int:
    (graph, tasks), synth = _resolve_dataset(cfg, args)
    config = _model_config(cfg, args, graph)
    ps, result = train(graph, tasks, config)
    os.makedirs(args.out, exist_ok=True)
    save_tensors(os.path.join(args.out, "checkpoint.bin"),
                 ps.named, meta=_fingerprint(graph, config))
    write_log(os.path.join(args.out, "train_log.jsonl"), result.log)
    resolved = {"model": config.to_dict(),
                "synth": synth.to_dict() if synth is not None else None,
                "data": cfg.get("data")}
    _write_json(os.path.join(args.out, "resolved_config.json"), resolved)
    print(f"best epoch {result.best_epoch}: "
          f"val ndcg {FLOAT_FMT % result.best_val_ndcg}, "
          f"val loss {FLOAT_FMT % result.best_val_loss}")
    return 0


def _cmd_eval(cfg, args) -> int:
    graph, tasks, config, ps = _trained_model(cfg, args)
    report = evaluate(graph, tasks, ps, config)
    os.makedirs(args.out, exist_ok=True)
    _write_json(os.path.join(args.out, "eval_report.json"), report)
    print(json.dumps(report, sort_keys=True))
    return 0


def _cmd_ablate(cfg, args) -> int:
    """Train and evaluate every variant for every seed of `seeds` on one dataset:
    the cell seeds steer only model randomness."""
    seeds = cfg.get("seeds")
    if seeds is None:
        seeds = [args.seed if args.seed is not None else 0]
    if not seeds or not all(isinstance(s, int) and s >= 0 for s in seeds):
        raise InfeasibleConfig("seeds must be a non-empty list of non-negative ints")
    (graph, tasks), _ = _resolve_dataset(cfg, args)
    base = _model_config(cfg, args, graph)
    rows = []
    for seed in seeds:
        for variant in VARIANTS:
            config = replace(base, seed=seed, variant=variant)
            ps, _ = train(graph, tasks, config)
            rows.append({"variant": variant, "seed": seed,
                         "report": evaluate(graph, tasks, ps, config)})

    os.makedirs(args.out, exist_ok=True)
    _write_json(os.path.join(args.out, "ablation.json"),
                {"seeds": list(seeds), "variants": list(VARIANTS), "rows": rows})
    columns = [(f"{task.name}_{m}", task.name, m) for task in tasks
               for m in (("ndcg", "mrr") if task.kind is TaskKind.LINK_RANKING else ("acc",))]
    columns += [(key, "clustering", key) for key in ("nmi_mean", "ari_mean")]
    values = [[row["report"].get(entry, {}).get(key) for row in rows] for _, entry, key in columns]
    write_table(os.path.join(args.out, "ablation.tsv"),
                ["variant", "seed", *(header for header, _, _ in columns)],
                [[row["variant"] for row in rows], [row["seed"] for row in rows],
                 *(["NA" if v is None else FLOAT_FMT % v for v in column] for column in values)],
                ["%s"] * (2 + len(columns)))
    print(f"ablation table written to {args.out} "
          f"({len(rows)} cells, {len(seeds)} seeds x {len(VARIANTS)} variants)")
    return 0


def _cmd_gradcheck(cfg, args) -> int:
    seed = args.seed if args.seed is not None else 0
    worst, checked, tensors = gradcheck(seed)
    ok = worst < GRADCHECK_TOL
    print(f"max rel err {FLOAT_FMT % worst} over {checked} entries in "
          f"{tensors} tensors ({'PASS' if ok else 'FAIL'}, tol {GRADCHECK_TOL:g})")
    return 0 if ok else 1


def _cmd_export_attn(cfg, args) -> int:
    graph, tasks, config, ps = _trained_model(cfg, args)
    _, records = forward(graph, config, ps, training=False, collect=True)
    os.makedirs(args.out, exist_ok=True)

    for cross, name in ((False, "attn_intra.tsv"), (True, "attn_inter.tsv")):
        # the relation picks the file: no-dual records carry stage "unified"
        recs = [rec for rec in records.attention if graph.spec(rec.relation).is_intra is not cross]
        keys = 2 + cross  # layer, relation, and a direction for cross edges only
        per_edge = np.repeat(np.array([(rec.layer, rec.relation, f"to_{rec.target_type.label}")
                                       for rec in recs], dtype=object).reshape(-1, 3),
                             [rec.sources.size for rec in recs], axis=0)
        write_table(os.path.join(args.out, name),
                    [*("layer", "relation", "direction")[:keys], "target", "source", "alpha"],
                    [*per_edge.T[:keys].tolist(),
                     concat_column([rec.edge_targets for rec in recs]),
                     concat_column([rec.sources for rec in recs]),
                     concat_column([rec.alpha.reshape(-1) for rec in recs])],
                    [*("%d", "%s", "%s")[:keys], "%d", "%d", FLOAT_FMT])

    fusion = []
    for rec in records.fusion:
        entry = {"layer": rec.layer, "target_type": rec.target_type.label,
                 "stage": rec.stage, "relations": list(rec.relations),
                 "mix": rec.mix,
                 "global_weights": None if rec.global_row is None
                 else [float(v) for v in rec.global_row],
                 "mean_coefficients": {rel: float(rec.coeff[:, k].mean())
                                       for k, rel in enumerate(rec.relations)},
                 "participation": {rel: float(rec.mask[:, k].mean())
                                   for k, rel in enumerate(rec.relations)}}
        fusion.append(entry)
    _write_json(os.path.join(args.out, "fusion.json"), fusion)
    print(f"attention exports written to {args.out}")
    return 0


def _pca_2d(matrix: np.ndarray) -> np.ndarray:
    centered = matrix - matrix.mean(axis=0, keepdims=True)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    comps = vt[:2]
    for r in range(comps.shape[0]):
        lead = np.argmax(np.abs(comps[r]))
        if comps[r, lead] < 0:
            comps[r] = -comps[r]
    return centered @ comps.T


def _cmd_export_emb(cfg, args) -> int:
    graph, tasks, config, ps = _trained_model(cfg, args)
    embs, _ = forward(graph, config, ps, training=False)
    os.makedirs(args.out, exist_ok=True)

    values = {t: embs[t].data for t in NodeType}
    write_node_table(os.path.join(args.out, "embeddings.tsv"), "emb", values)
    proj = _pca_2d(np.vstack([values[NodeType.A], values[NodeType.B]]))
    n_a = graph.n_nodes(NodeType.A)
    write_node_table(os.path.join(args.out, "embeddings_pca.tsv"), "pc",
                     {NodeType.A: proj[:n_a], NodeType.B: proj[n_a:]})
    print(f"embedding exports written to {args.out}")
    return 0


_HANDLERS = {
    "generate": _cmd_generate,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "ablate": _cmd_ablate,
    "gradcheck": _cmd_gradcheck,
    "export-attn": _cmd_export_attn,
    "export-emb": _cmd_export_emb,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        unread = [f"--{flag.replace('_', '-')}" for flag in UNREAD_FLAGS.get(args.command, ())
                  if getattr(args, flag) not in (None, False)]
        if unread:
            raise InfeasibleConfig(f"{args.command} does not read {', '.join(unread)}")
        if args.seed is not None and args.seed < 0:
            raise InfeasibleConfig("seed must be non-negative")
        args.out = "." if args.out is None else args.out
        cfg = _load_config(args.config)
        return _HANDLERS[args.command](cfg, args)
    except Error as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
