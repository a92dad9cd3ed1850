"""Planted-structure dataset generator and dataset interchange files.

The generator builds an authorship world: papers carry venue and topic
prototypes in their features, authors inherit the mean of their papers'
features, and the relation schema mirrors a scholarly graph (colleague
and co-authorship relations between authors; citation, shared-venue and
shared-topic relations between papers; two authorship relations across
the classes). Four tasks come out of it: venue prediction (single
label), coarse and fine topic prediction (multi label), and an author
disambiguation ranking task built from name groups.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, asdict
from itertools import combinations

import numpy as np

from .errors import InfeasibleConfig, check_fields
from .graph import (BiGraph, NodeType, RelationClass, RelationSpec, Table, graph_from_columns,
                    load_graph_tsv, mean_neighbor_features, read_table, save_graph_tsv,
                    write_table)
from .model import TaskKind, TaskSpec, rank_instances
from .rand import rng_for

SPLITS = ("train", "val", "test")


@dataclass
class SynthConfig:
    n_papers: int = 600
    n_authors: int = 300
    n_venues: int = 4
    n_fields_l1: int = 3
    n_fields_l2: int = 6
    feature_dim: int = 16
    venue_scale: float = 3.0
    field_scale: float = 1.5
    noise: float = 0.8
    min_authors: int = 1
    max_authors: int = 4
    p_community_author: float = 0.8
    p_colleague: float = 0.1
    p_same_venue: float = 0.05
    p_same_field: float = 0.05
    max_cites: int = 3
    p_cite_within_field: float = 0.5
    name_group_size: int = 5
    ad_distractors: int = 9
    year_span: int = 10
    train_year_max: int = 6
    val_year_max: int = 7
    seed: int = 0

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        check_fields(self, InfeasibleConfig)
        checks = [
            (self.n_papers >= 1 and self.n_authors >= 1, "need at least one node per class"),
            (1 <= self.n_venues <= self.n_papers, "more venues than papers"),
            (1 <= self.n_fields_l1 <= self.n_fields_l2, "coarse fields exceed fine fields"),
            (self.n_fields_l2 <= self.n_papers, "more fields than papers"),
            (self.feature_dim >= 2, "feature_dim must be >= 2"),
            (1 <= self.min_authors <= self.max_authors, "author count bounds invalid"),
            (self.max_authors <= self.n_authors, "papers need more authors than exist"),
            (all(0.0 <= p <= 1.0 for p in (self.p_community_author, self.p_colleague,
                                           self.p_same_venue, self.p_same_field,
                                           self.p_cite_within_field)), "probabilities must lie in [0, 1]"),
            (self.max_cites >= 0, "max_cites must be >= 0"),
            (self.name_group_size >= 2, "name groups need at least 2 members"),
            (self.ad_distractors >= 1, "need at least one distractor"),
            (self.ad_distractors < self.n_papers, "more distractors than other papers"),
            (0 < self.year_span, "year_span must be positive"),
            (0 <= self.train_year_max < self.val_year_max < self.year_span,
             "year thresholds must satisfy 0 <= train < val < span"),
            (self.seed >= 0, "seed must be non-negative"),
        ]
        for ok, msg in checks:
            if not ok:
                raise InfeasibleConfig(msg)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SynthConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise InfeasibleConfig(f"unknown generator config keys: {sorted(unknown)}")
        return cls(**data)


RELATIONS = [
    RelationSpec("colleague", RelationClass.INTRA_A, NodeType.A, NodeType.A, symmetric=True),
    RelationSpec("co_first", RelationClass.INTRA_A, NodeType.A, NodeType.A, symmetric=True),
    RelationSpec("co_support", RelationClass.INTRA_A, NodeType.A, NodeType.A, symmetric=True),
    RelationSpec("cite", RelationClass.INTRA_B, NodeType.B, NodeType.B),
    RelationSpec("cited_by", RelationClass.INTRA_B, NodeType.B, NodeType.B),
    RelationSpec("same_venue", RelationClass.INTRA_B, NodeType.B, NodeType.B, symmetric=True),
    RelationSpec("same_field", RelationClass.INTRA_B, NodeType.B, NodeType.B, symmetric=True),
    RelationSpec("lead_author_of", RelationClass.INTER, NodeType.A, NodeType.B),
    RelationSpec("support_author_of", RelationClass.INTER, NodeType.A, NodeType.B),
]


def _pairs_within(ids: np.ndarray, p: float, rng) -> np.ndarray:
    """The [2, k] src and dst rows of the pairs of `ids`, each kept with probability p."""
    if ids.size < 2 or p <= 0.0:
        return np.empty((2, 0), dtype=np.int64)
    iu, ju = np.triu_indices(ids.size, k=1)
    keep = rng.random(iu.size) < p
    return np.stack([ids[iu[keep]], ids[ju[keep]]])


def generate(config: SynthConfig):
    """Build (graph, tasks) with planted venue/topic/authorship structure."""
    cfg = config
    rng_world = rng_for(cfg.seed, "world")
    n_p, n_a = cfg.n_papers, cfg.n_authors

    parent = np.arange(cfg.n_fields_l2) % cfg.n_fields_l1
    venue = rng_world.integers(cfg.n_venues, size=n_p)
    year = rng_world.integers(cfg.year_span, size=n_p)
    primary = rng_world.integers(cfg.n_fields_l2, size=n_p)
    fields = []
    for i in range(n_p):
        fs = {int(primary[i])}
        if cfg.n_fields_l2 > 1 and rng_world.random() < 0.4:
            extra = int(rng_world.integers(cfg.n_fields_l2 - 1))
            if extra >= primary[i]:
                extra += 1
            fs.add(extra)
        fields.append(tuple(sorted(fs)))

    rng_feat = rng_for(cfg.seed, "features")
    venue_proto = rng_feat.normal(size=(cfg.n_venues, cfg.feature_dim)) * cfg.venue_scale
    field_proto = rng_feat.normal(size=(cfg.n_fields_l2, cfg.feature_dim)) * cfg.field_scale
    # np.mean of a paper's field prototypes: x / 1 is x, and (x + y) / 2
    first, last = (np.array([fs[j] for fs in fields]) for j in (0, -1))
    topic = np.where((first != last)[:, None],
                     (field_proto[first] + field_proto[last]) / 2, field_proto[first])
    paper_feats = venue_proto[venue] + topic
    paper_feats += rng_feat.normal(size=paper_feats.shape) * cfg.noise

    # authorship: communities track venues
    rng_auth = rng_for(cfg.seed, "authors")
    community = rng_auth.integers(cfg.n_venues, size=n_a)
    by_comm = [np.nonzero(community == c)[0] for c in range(cfg.n_venues)]
    edges: dict[str, list] = {spec.name: [] for spec in RELATIONS}  # (src, dst) per edge
    papers_of: list[list[int]] = [[] for _ in range(n_a)]
    for i in range(n_p):
        count = int(rng_auth.integers(cfg.min_authors, cfg.max_authors + 1))
        chosen: list[int] = []
        pool = by_comm[venue[i]]
        for _ in range(count):
            if pool.size and rng_auth.random() < cfg.p_community_author:
                cand = int(pool[rng_auth.integers(pool.size)])
            else:
                cand = int(rng_auth.integers(n_a))
            if cand not in chosen:
                chosen.append(cand)
        leads, supports = chosen[:2], chosen[2:]
        edges["lead_author_of"] += [(a, i) for a in leads]
        edges["support_author_of"] += [(a, i) for a in supports]
        edges["co_first"] += combinations(leads, 2)
        edges["co_support"] += combinations(supports, 2)
        for a in chosen:
            papers_of[a].append(i)

    rng_intra = rng_for(cfg.seed, "intra")
    by_venue = [np.nonzero(venue == v)[0] for v in range(cfg.n_venues)]
    by_field = [np.nonzero(primary == f)[0] for f in range(cfg.n_fields_l2)]
    columns = {name: np.concatenate([_pairs_within(ids, p, rng_intra) for ids in groups], axis=1)
               for name, groups, p in (("colleague", by_comm, cfg.p_colleague),
                                       ("same_venue", by_venue, cfg.p_same_venue),
                                       ("same_field", by_field, cfg.p_same_field))}
    for i in range(n_p):
        n_cites = int(rng_intra.integers(0, cfg.max_cites + 1))
        for _ in range(n_cites):
            if rng_intra.random() < cfg.p_cite_within_field and by_field[primary[i]].size > 1:
                pool = by_field[primary[i]]
            else:
                pool = None
            j = int(pool[rng_intra.integers(pool.size)]) if pool is not None \
                else int(rng_intra.integers(n_p))
            if j != i:
                edges["cite"].append((i, j))
                edges["cited_by"].append((j, i))

    blocks = [columns[s.name] if s.name in columns
              else np.array(edges[s.name], dtype=np.int64).reshape(-1, 2).T for s in RELATIONS]
    codes = np.repeat(np.arange(len(RELATIONS)), [b.shape[1] for b in blocks])
    src, dst = np.concatenate(blocks, axis=1)
    features = {NodeType.A: np.zeros((n_a, cfg.feature_dim)), NodeType.B: paper_feats}
    sizes = {NodeType.A: n_a, NodeType.B: n_p}
    graph = graph_from_columns(sizes, features, RELATIONS, codes, src, dst)
    author_feats, _ = mean_neighbor_features(
        graph, ["lead_author_of", "support_author_of"], NodeType.A)
    graph = graph.with_features(NodeType.A, author_feats)

    tasks = _build_tasks(cfg, venue, fields, parent, year, papers_of)
    return graph, tasks


def _year_splits(cfg: SynthConfig, years: np.ndarray) -> dict:
    """The indices of `years` in each split: train up to train_year_max, then val up to
    val_year_max, then test."""
    split = (years > cfg.train_year_max).astype(np.int64) + (years > cfg.val_year_max)
    return {s: np.flatnonzero(split == j) for j, s in enumerate(SPLITS)}


def _build_tasks(cfg: SynthConfig, venue, fields, parent, year, papers_of) -> list[TaskSpec]:
    pv = TaskSpec(name="pv", kind=TaskKind.SINGLE_LABEL, target_type=NodeType.B,
                  n_classes=cfg.n_venues,
                  labels={i: (v,) for i, v in enumerate(venue.tolist())},
                  splits=_year_splits(cfg, year))
    pf_l1 = TaskSpec(name="pf_l1", kind=TaskKind.MULTI_LABEL, target_type=NodeType.B,
                     n_classes=cfg.n_fields_l1,
                     labels={i: tuple(sorted({int(parent[f]) for f in fs}))
                             for i, fs in enumerate(fields)},
                     splits=_year_splits(cfg, year))
    pf_l2 = TaskSpec(name="pf_l2", kind=TaskKind.MULTI_LABEL, target_type=NodeType.B,
                     n_classes=cfg.n_fields_l2,
                     labels=dict(enumerate(fields)),
                     splits=_year_splits(cfg, year))

    rng_ad = rng_for(cfg.seed, "disambiguation")
    order = rng_ad.permutation(cfg.n_authors)
    group_of = np.zeros(cfg.n_authors, dtype=np.int64)
    for pos, author in enumerate(order):
        group_of[author] = pos // cfg.name_group_size
    groups: dict[int, list[int]] = {}
    for a in range(cfg.n_authors):
        groups.setdefault(int(group_of[a]), []).append(a)
    queries, ids, sizes = [], [], []  # each query's row of ids, its true paper first
    for a in range(cfg.n_authors):
        own = papers_of[a]
        if not own:
            continue
        true_paper = int(own[rng_ad.integers(len(own))])
        distractors: set[int] = set()
        for other in groups[int(group_of[a])]:
            if other == a or not papers_of[other]:
                continue
            distractors.add(int(papers_of[other][rng_ad.integers(len(papers_of[other]))]))
        distractors.discard(true_paper)  # a group peer may share the true paper
        while len(distractors) < cfg.ad_distractors:
            cand = int(rng_ad.integers(cfg.n_papers))
            if cand != true_paper:
                distractors.add(cand)
        queries.append(a)
        ids += [true_paper, *distractors]
        sizes.append(1 + len(distractors))
    instances = rank_instances(queries, ids, sizes)
    true_papers = np.array([inst.true_id for inst in instances], dtype=np.int64)
    ad = TaskSpec(name="ad", kind=TaskKind.LINK_RANKING, target_type=NodeType.A,
                  instances=instances, splits=_year_splits(cfg, year[true_papers]))
    return [pv, pf_l1, pf_l2, ad]


# dataset interchange: graph TSVs + tasks.tsv + labels.tsv + splits.tsv

_TASK_COLUMNS = ("name", "kind", "target_type", "n_classes")
_LABEL_COLUMNS = ("node", "task", "labels")
_SPLIT_COLUMNS = ("node", "task", "split")


def export_dataset(graph: BiGraph, tasks, directory) -> None:
    save_graph_tsv(graph, directory)
    write_table(os.path.join(directory, "tasks.tsv"), _TASK_COLUMNS, zip(*[
        (t.name, t.kind.value, t.target_type.label, t.n_classes) for t in tasks]), ["%s"] * 4)

    rows = []
    for task in tasks:
        if task.kind is TaskKind.LINK_RANKING:  # a query's cell lists its true candidate first
            cells = [(inst.query, [inst.true_id, *inst.candidates[inst.candidates != inst.true_id]])
                     for inst in task.instances]
        else:
            cells = [(node, task.labels[node]) for node in sorted(task.labels)]
        rows += [(node, task.name, ",".join(map(str, ids))) for node, ids in cells]
    write_table(os.path.join(directory, "labels.tsv"), _LABEL_COLUMNS, zip(*rows), ["%s"] * 3)

    rows = []
    for task in tasks:
        for split in SPLITS:
            ids = task.split_ids(split)
            if task.kind is TaskKind.LINK_RANKING:
                ids = np.array([task.instances[i].query for i in ids], dtype=np.int64)
            rows += [(node, task.name, split) for node in np.sort(ids).tolist()]
    write_table(os.path.join(directory, "splits.tsv"), _SPLIT_COLUMNS, zip(*rows), ["%s"] * 3)


def import_dataset(directory):
    """Read a dataset written by export_dataset; returns (graph, tasks).

    Every id in the task files must fit the graph and the task: a
    ParseError names the file and line of the first one that does not.
    """
    graph = load_graph_tsv(directory)
    kinds, labels = list(TaskKind), tuple(t.label for t in NodeType)
    table = read_table(os.path.join(directory, "tasks.tsv"), dict(zip(_TASK_COLUMNS, (
        str, tuple(k.value for k in kinds), labels, int))))
    task_names, kind, target, n_classes = table.columns
    table.reject_repeats(lambda k: f"task {task_names[k]!r} declared twice", task_names)
    ranking = kind == kinds.index(TaskKind.LINK_RANKING)
    table.reject(~ranking & (n_classes < 1),
                 lambda k: f"task {task_names[k]!r} needs at least one class")
    tasks = [TaskSpec(name=name, kind=kinds[k], target_type=NodeType(t), n_classes=n)
             for name, k, t, n in zip(task_names, kind.tolist(), target.tolist(),
                                      n_classes.tolist())]

    # labels.tsv: one row per labelled node or ranking query
    table = read_table(os.path.join(directory, "labels.tsv"),
                       dict(zip(_LABEL_COLUMNS, (int, tuple(task_names), list))))
    nodes, owner, (ids, sizes) = table.columns
    row_of = np.repeat(np.arange(len(table)), sizes)
    id_table = Table(table.path, ("labels",), [ids], table.lines[row_of])
    table.reject_repeats(lambda k: f"task {task_names[owner[k]]!r}: node {nodes[k]} "
                                   "has a second label row", owner, nodes)
    n_target = np.array([graph.n_nodes(t.target_type) for t in tasks], dtype=np.int64)[owner]
    table.reject((nodes < 0) | (nodes >= n_target),
                 lambda k: f"task {task_names[owner[k]]!r}: "
                           f"{tasks[owner[k]].target_type.label} node {nodes[k]} "
                           f"outside [0, {n_target[k]})")
    cap = np.array([graph.n_nodes(t.target_type.other) if r else t.n_classes
                    for t, r in zip(tasks, ranking)], dtype=np.int64)[owner[row_of]]
    id_table.reject((ids < 0) | (ids >= cap),
                    lambda k: f"task {task_names[owner[row_of[k]]]!r}: "
                              f"{'candidate' if ranking[owner[row_of[k]]] else 'class'} "
                              f"{ids[k]} outside [0, {cap[k]})")
    ends = np.cumsum(sizes)
    values = ids[np.lexsort((ids, row_of))].tolist()  # each row's ids in ascending order
    for k, task in enumerate(tasks):
        mine = owner == k
        if ranking[k]:  # instances in query order
            instances = rank_instances(nodes[mine], ids[mine[row_of]], sizes[mine])
            task.instances = [instances[i] for i in np.argsort(nodes[mine], kind="stable")]
        else:
            task.labels = {node: tuple(values[end - size:end]) for node, end, size in zip(
                nodes[mine].tolist(), ends[mine].tolist(), sizes[mine].tolist())}

    # splits.tsv: one row per split member; a ranking member names its query
    table = read_table(os.path.join(directory, "splits.tsv"),
                       dict(zip(_SPLIT_COLUMNS, (int, tuple(task_names), SPLITS))))
    members, member_of, split_of = table.columns
    labelled = np.zeros(len(table), dtype=bool)
    for k in range(len(tasks)):
        mine = member_of == k
        labelled[mine] = np.isin(members[mine], nodes[owner == k])
    table.reject(~labelled, lambda k: f"task {task_names[member_of[k]]!r}: "
                                      f"{SPLITS[split_of[k]]} node {members[k]} "
                                      "has no row in labels.tsv")
    table.reject_repeats(lambda k: f"task {task_names[member_of[k]]!r}: node {members[k]} "
                                   "has a second split row", member_of, members)
    for k, task in enumerate(tasks):
        split_ids = {s: np.sort(members[(member_of == k) & (split_of == j)])
                     for j, s in enumerate(SPLITS)}
        if ranking[k]:
            queries = np.array([inst.query for inst in task.instances], dtype=np.int64)
            split_ids = {s: np.searchsorted(queries, q) for s, q in split_ids.items()}
        task.splits = split_ids
    return graph, tasks
