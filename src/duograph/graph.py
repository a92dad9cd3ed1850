"""Immutable store for two-type multi-relational graphs.

Nodes come in two classes (A and B) with dense 0-based ids per class.
Every relation is declared up front with its class: within-A, within-B,
or across the two. Edges are deduplicated, symmetrized when the relation
says so, and kept in per-relation CSR form sorted by (src, dst).
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from itertools import repeat

import numpy as np

from .errors import (DanglingNode, DimensionMismatch, DirectionInvalid, IoFailure,
                     NodeOutOfRange, ParseError, TypeMismatch, UnknownRelation)


class NodeType(IntEnum):
    A = 0
    B = 1

    @property
    def label(self) -> str:
        return "A" if self is NodeType.A else "B"

    @staticmethod
    def from_label(text: str) -> "NodeType":
        if text == "A":
            return NodeType.A
        if text == "B":
            return NodeType.B
        raise ValueError(f"unknown node type {text!r}")

    @property
    def other(self) -> "NodeType":
        return NodeType.B if self is NodeType.A else NodeType.A


class RelationClass(Enum):
    INTRA_A = "intra_a"
    INTRA_B = "intra_b"
    INTER = "inter"


@dataclass(frozen=True)
class RelationSpec:
    """Declaration of one edge set: name, class, endpoint types, symmetry."""

    name: str
    klass: RelationClass
    src_type: NodeType
    dst_type: NodeType
    symmetric: bool = False

    def __post_init__(self):
        if self.klass is RelationClass.INTRA_A:
            ok = self.src_type is NodeType.A and self.dst_type is NodeType.A
        elif self.klass is RelationClass.INTRA_B:
            ok = self.src_type is NodeType.B and self.dst_type is NodeType.B
        else:
            ok = self.src_type is not self.dst_type
        if not ok:
            raise TypeMismatch(
                f"relation {self.name!r}: endpoint types {self.src_type.label}->"
                f"{self.dst_type.label} clash with class {self.klass.value}")
        if self.symmetric and self.src_type is not self.dst_type:
            raise TypeMismatch(f"relation {self.name!r}: only same-type relations can be symmetric")

    @property
    def is_intra(self) -> bool:
        return self.klass is not RelationClass.INTER


@dataclass(frozen=True)
class CsrAdjacency:
    """Sorted-neighbor CSR: row i holds cols[offsets[i]:offsets[i+1]]."""

    offsets: np.ndarray
    cols: np.ndarray
    n_rows: int
    n_cols: int

    def row(self, i: int) -> np.ndarray:
        return self.cols[self.offsets[i]:self.offsets[i + 1]]

    @property
    def n_edges(self) -> int:
        return int(self.cols.size)


@dataclass(frozen=True)
class MessagePlan:
    """Edge layout for attention toward one side of a relation.

    Rows with no sources are dropped: `targets` lists only nodes that
    receive at least one message, `offsets` segments `sources` by target,
    and `edge_targets` repeats the target id once per incoming edge.
    """

    targets: np.ndarray
    offsets: np.ndarray
    sources: np.ndarray
    edge_targets: np.ndarray
    n_targets_total: int

    @property
    def n_edges(self) -> int:
        return int(self.sources.size)

    @property
    def covers_all(self) -> bool:
        return self.targets.size == self.n_targets_total


def _csr_from_pairs(src: np.ndarray, dst: np.ndarray, n_rows: int, n_cols: int) -> CsrAdjacency:
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    counts = np.bincount(src, minlength=n_rows)
    offsets = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return CsrAdjacency(offsets=offsets, cols=dst, n_rows=n_rows, n_cols=n_cols)


class BiGraph:
    """Two node classes, per-relation CSR adjacency, per-class features."""

    def __init__(self, counts: dict[NodeType, int], features: dict[NodeType, np.ndarray],
                 relations: dict[str, RelationSpec], csr: dict[str, CsrAdjacency],
                 csr_rev: dict[str, CsrAdjacency]):
        self.counts = dict(counts)
        self.features = {t: np.asarray(f, dtype=np.float64) for t, f in features.items()}
        self.relations = dict(relations)
        self._csr = csr
        self._csr_rev = csr_rev
        self._plans: dict[tuple[str, NodeType, bool], MessagePlan] = {}

    # introspection

    @property
    def feature_dim(self) -> int:
        return self.features[NodeType.A].shape[1]

    def n_nodes(self, node_type: NodeType) -> int:
        return self.counts[node_type]

    def relation_names(self, klass: RelationClass | None = None) -> list[str]:
        names = [n for n, s in self.relations.items() if klass is None or s.klass is klass]
        return sorted(names)

    def intra_relations(self, node_type: NodeType) -> list[str]:
        klass = RelationClass.INTRA_A if node_type is NodeType.A else RelationClass.INTRA_B
        return self.relation_names(klass)

    def inter_relations(self) -> list[str]:
        return self.relation_names(RelationClass.INTER)

    def spec(self, name: str) -> RelationSpec:
        try:
            return self.relations[name]
        except KeyError:
            raise UnknownRelation(f"relation {name!r} was never declared") from None

    def csr(self, name: str, reverse: bool = False) -> CsrAdjacency:
        self.spec(name)
        return (self._csr_rev if reverse else self._csr)[name]

    def neighbors(self, name: str, node: int, reverse: bool = False) -> np.ndarray:
        """Stored neighbors of `node` under the relation, sorted by id."""
        spec = self.spec(name)
        side = spec.dst_type if reverse else spec.src_type
        if not 0 <= node < self.counts[side]:
            raise NodeOutOfRange(f"node {node} outside [0, {self.counts[side]}) for type {side.label}")
        return self.csr(name, reverse).row(node).copy()

    def degree(self, name: str, node: int, reverse: bool = False) -> int:
        return int(self.neighbors(name, node, reverse).size)

    # attention-side views

    def message_plan(self, name: str, target_type: NodeType) -> MessagePlan:
        """Edge layout for messages flowing into `target_type` nodes.

        Within-class relations include a self-loop on every node, so each
        node always receives its own signal. Cross-class relations carry
        only stored edges; nodes with none are absent from the plan.
        """
        spec = self.spec(name)
        with_loops = spec.is_intra
        key = (name, target_type, with_loops)
        plan = self._plans.get(key)
        if plan is None:
            plan = self._build_plan(spec, target_type, with_loops)
            self._plans[key] = plan
        return plan

    def _build_plan(self, spec: RelationSpec, target_type: NodeType, with_loops: bool) -> MessagePlan:
        if target_type is spec.src_type:
            adj = self._csr[spec.name]
        elif target_type is spec.dst_type:
            adj = self._csr_rev[spec.name]
        else:
            raise DirectionInvalid(
                f"relation {spec.name!r} has no {target_type.label} endpoint")
        n_t = self.counts[target_type]
        offsets, cols = adj.offsets, adj.cols
        if with_loops:
            # add a self-loop to each row unless one is already stored; the
            # flat row * n_t + col keys sort by row, then by source
            rows = np.repeat(np.arange(n_t, dtype=np.int64), np.diff(offsets))
            diag = np.arange(n_t, dtype=np.int64) * (n_t + 1)
            keys = np.unique(np.concatenate([rows * n_t + cols, diag]))
            edge_targets, new_cols = np.divmod(keys, n_t)
            new_offsets = np.zeros(n_t + 1, dtype=np.int64)
            np.cumsum(np.bincount(edge_targets, minlength=n_t), out=new_offsets[1:])
            return MessagePlan(targets=np.arange(n_t, dtype=np.int64), offsets=new_offsets,
                               sources=new_cols, edge_targets=edge_targets, n_targets_total=n_t)
        counts = np.diff(offsets)
        live = np.nonzero(counts > 0)[0]
        live_counts = counts[live]
        live_offsets = np.zeros(live.size + 1, dtype=np.int64)
        np.cumsum(live_counts, out=live_offsets[1:])
        sources = cols.copy()
        edge_targets = np.repeat(live, live_counts)
        return MessagePlan(targets=live.astype(np.int64), offsets=live_offsets,
                           sources=sources, edge_targets=edge_targets, n_targets_total=n_t)

    def with_features(self, node_type: NodeType, feats: np.ndarray) -> "BiGraph":
        """New graph sharing all adjacency, with one feature matrix replaced."""
        feats = np.asarray(feats, dtype=np.float64)
        if feats.shape != self.features[node_type].shape:
            raise DimensionMismatch(
                f"replacement features {feats.shape} != {self.features[node_type].shape}")
        features = dict(self.features)
        features[node_type] = feats
        return BiGraph(self.counts, features, self.relations, self._csr, self._csr_rev)


def _check_edge(spec_map: dict, sizes: dict, edge) -> None:
    """Raise what is wrong with one (relation_name, src_id, dst_id) edge, if anything."""
    rel_name, src, dst = edge
    spec = spec_map.get(rel_name)
    if spec is None:
        raise UnknownRelation(f"edge references undeclared relation {rel_name!r}")
    src, dst = int(src), int(dst)
    if not 0 <= src < sizes[spec.src_type]:
        raise DanglingNode(
            f"edge {rel_name!r}({src}, {dst}): src outside [0, {sizes[spec.src_type]})")
    if not 0 <= dst < sizes[spec.dst_type]:
        raise DanglingNode(
            f"edge {rel_name!r}({src}, {dst}): dst outside [0, {sizes[spec.dst_type]})")


def _validated_edges(spec_map: dict, sizes: dict, edges):
    """Relation codes (declaration order) and int64 src, dst columns of `edges`.

    All edges are checked at once; the first invalid one in iteration
    order raises exactly what `_check_edge` raises for it.
    """
    edges = list(edges)
    if not edges:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    code_of = {name: k for k, name in enumerate(spec_map)}
    try:
        names, srcs, dsts = zip(*edges, strict=True)
        codes = np.fromiter(map(code_of.get, names, repeat(-1)), dtype=np.int64,
                            count=len(edges))
        src = np.array(list(map(int, srcs)))
        dst = np.array(list(map(int, dsts)))
    except (TypeError, ValueError):
        # a malformed edge: replay the per-edge checks so the first bad edge raises
        for edge in edges:
            _check_edge(spec_map, sizes, edge)
        raise
    # an undeclared relation (code -1) reads the trailing 0: no id fits [0, 0)
    specs = list(spec_map.values())
    src_cap = np.array([sizes[s.src_type] for s in specs] + [0])[codes]
    dst_cap = np.array([sizes[s.dst_type] for s in specs] + [0])[codes]
    bad = ~((src >= 0) & (src < src_cap) & (dst >= 0) & (dst < dst_cap))
    if bad.any():
        _check_edge(spec_map, sizes, edges[int(np.argmax(bad))])
    return codes, src.astype(np.int64), dst.astype(np.int64)


def build_graph(counts: dict[NodeType, int], features: dict[NodeType, np.ndarray],
                relations: list[RelationSpec], edges) -> BiGraph:
    """Validate, deduplicate, symmetrize, and freeze a graph.

    `edges` is an iterable of (relation_name, src_id, dst_id). Duplicate
    edges collapse to one; symmetric relations store both directions.
    """
    n_a = int(counts[NodeType.A])
    n_b = int(counts[NodeType.B])
    if n_a <= 0 or n_b <= 0:
        raise DimensionMismatch("both node classes need at least one node")
    spec_map: dict[str, RelationSpec] = {}
    for spec in relations:
        if spec.name in spec_map:
            raise TypeMismatch(f"relation {spec.name!r} declared twice")
        spec_map[spec.name] = spec

    feat = {}
    dim = None
    for t in (NodeType.A, NodeType.B):
        f = np.asarray(features[t], dtype=np.float64)
        if f.ndim != 2 or f.shape[0] != counts[t]:
            raise DimensionMismatch(
                f"features[{t.label}] shape {f.shape} does not match {counts[t]} nodes")
        if not np.isfinite(f).all():
            raise DimensionMismatch(f"features[{t.label}] contain NaN or infinite values")
        if dim is None:
            dim = f.shape[1]
        elif f.shape[1] != dim:
            raise DimensionMismatch("both node classes must share one feature dimension")
        feat[t] = f
    if dim == 0:
        raise DimensionMismatch("feature dimension must be positive")

    sizes = {NodeType.A: n_a, NodeType.B: n_b}
    codes, all_src, all_dst = _validated_edges(spec_map, sizes, edges)

    csr: dict[str, CsrAdjacency] = {}
    csr_rev: dict[str, CsrAdjacency] = {}
    for k, (name, spec) in enumerate(spec_map.items()):
        mine = codes == k
        src, dst = all_src[mine], all_dst[mine]
        if spec.symmetric:
            src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
        flat = np.unique(src * np.int64(sizes[spec.dst_type]) + dst)
        src = flat // sizes[spec.dst_type]
        dst = flat % sizes[spec.dst_type]
        csr[name] = _csr_from_pairs(src, dst, sizes[spec.src_type], sizes[spec.dst_type])
        csr_rev[name] = _csr_from_pairs(dst, src, sizes[spec.dst_type], sizes[spec.src_type])

    return BiGraph({NodeType.A: n_a, NodeType.B: n_b}, feat, spec_map, csr, csr_rev)


def mean_neighbor_features(graph: BiGraph, relation_names: list[str],
                           target_type: NodeType = NodeType.A) -> tuple[np.ndarray, np.ndarray]:
    """Average cross-class neighbor features onto `target_type` nodes.

    Returns (features, isolated) where isolated flags nodes with no
    neighbor under any listed relation; their feature row is zero.
    """
    n = graph.n_nodes(target_type)
    dim = graph.feature_dim
    total = np.zeros((n, dim))
    deg = np.zeros(n)
    source_feats = graph.features[target_type.other]
    for name in relation_names:
        spec = graph.spec(name)
        if spec.is_intra:
            raise TypeMismatch(f"relation {name!r} is not cross-class")
        plan = graph.message_plan(name, target_type)
        if plan.n_edges == 0:
            continue
        np.add.at(total, plan.edge_targets, source_feats[plan.sources])
        np.add.at(deg, plan.edge_targets, 1.0)
    isolated = deg == 0
    out = np.divide(total, deg[:, None], out=np.zeros_like(total), where=deg[:, None] > 0)
    return out, isolated


# TSV interchange: nodes.tsv, edges.tsv, relations.tsv

_FLOAT_FMT = "%.9g"


def format_float(x: float) -> str:
    return _FLOAT_FMT % x


def save_graph_tsv(graph: BiGraph, directory) -> None:
    """Write nodes.tsv, edges.tsv, relations.tsv under `directory`."""
    os.makedirs(directory, exist_ok=True)
    dim = graph.feature_dim
    header = "node_id\ttype\t" + "\t".join(f"feat_{j}" for j in range(dim))
    lines = [header]
    for t in (NodeType.A, NodeType.B):
        feats = graph.features[t]
        for i in range(graph.n_nodes(t)):
            vals = "\t".join(format_float(v) for v in feats[i])
            lines.append(f"{i}\t{t.label}\t{vals}")
    write_lines(os.path.join(directory, "nodes.tsv"), lines)

    lines = ["relation_name\tsrc\tdst"]
    for name in graph.relation_names():
        adj = graph.csr(name)
        for src in range(adj.n_rows):
            for dst in adj.row(src):
                lines.append(f"{name}\t{src}\t{dst}")
    write_lines(os.path.join(directory, "edges.tsv"), lines)

    lines = ["name\tklass\tsrc_type\tdst_type\tsymmetric"]
    for name in graph.relation_names():
        s = graph.spec(name)
        lines.append(f"{name}\t{s.klass.value}\t{s.src_type.label}\t{s.dst_type.label}"
                     f"\t{'true' if s.symmetric else 'false'}")
    write_lines(os.path.join(directory, "relations.tsv"), lines)


def write_lines(path, lines: list[str]) -> None:
    """Write UTF-8 text, each line newline-terminated (no lines: empty file)."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n" if lines else "")
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def _read_rows(path, expected_cols: int | None, header: str):
    if not os.path.exists(path):
        raise IoFailure(f"missing interchange file {path}")
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
        if not first.startswith(header.split("\t")[0]):
            raise ParseError(path, 1, f"expected header starting with {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if expected_cols is not None and len(parts) != expected_cols:
                raise ParseError(path, lineno, f"expected {expected_cols} columns, got {len(parts)}")
            yield lineno, parts


def load_graph_tsv(directory) -> BiGraph:
    """Read a graph written by save_graph_tsv."""
    rel_path = os.path.join(directory, "relations.tsv")
    relations = []
    for lineno, parts in _read_rows(rel_path, 5, "name\tklass\tsrc_type\tdst_type\tsymmetric"):
        name, klass, src_t, dst_t, sym = parts
        try:
            spec = RelationSpec(name=name, klass=RelationClass(klass),
                                src_type=NodeType.from_label(src_t),
                                dst_type=NodeType.from_label(dst_t),
                                symmetric=sym == "true")
        except (ValueError, TypeMismatch) as exc:
            raise ParseError(rel_path, lineno, str(exc)) from exc
        relations.append(spec)

    node_path = os.path.join(directory, "nodes.tsv")
    feats: dict[NodeType, list[tuple[int, np.ndarray]]] = {NodeType.A: [], NodeType.B: []}
    dim = None
    for lineno, parts in _read_rows(node_path, None, "node_id\ttype"):
        if len(parts) < 3:
            raise ParseError(node_path, lineno, "node row needs id, type, and features")
        if dim is None:
            dim = len(parts) - 2
        elif len(parts) - 2 != dim:
            raise ParseError(node_path, lineno, f"expected {dim} feature columns")
        try:
            node_id = int(parts[0])
            node_type = NodeType.from_label(parts[1])
            row = np.array([float(v) for v in parts[2:]])
        except ValueError as exc:
            raise ParseError(node_path, lineno, str(exc)) from exc
        feats[node_type].append((node_id, row))

    counts = {}
    features = {}
    for t in (NodeType.A, NodeType.B):
        rows = feats[t]
        if not rows:
            raise ParseError(node_path, 1, f"no nodes of type {t.label}")
        ids = sorted(i for i, _ in rows)
        if ids != list(range(len(rows))):
            raise ParseError(node_path, 1, f"type {t.label} ids are not dense 0-based")
        mat = np.zeros((len(rows), dim))
        for i, row in rows:
            mat[i] = row
        counts[t] = len(rows)
        features[t] = mat

    edge_path = os.path.join(directory, "edges.tsv")
    edges = []
    for lineno, parts in _read_rows(edge_path, 3, "relation_name\tsrc\tdst"):
        try:
            edges.append((parts[0], int(parts[1]), int(parts[2])))
        except ValueError as exc:
            raise ParseError(edge_path, lineno, str(exc)) from exc

    return build_graph(counts, features, relations, edges)
