"""Immutable store for two-type multi-relational graphs.

Nodes come in two classes (A and B) with dense 0-based ids per class.
Every relation is declared up front with its class: within-A, within-B,
or across the two. Edges are deduplicated, symmetrized when the relation
says so, and kept in per-relation CSR form sorted by (src, dst).
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from enum import Enum, IntEnum
from functools import cached_property
from itertools import chain, compress, repeat
from operator import itemgetter, length_hint

import numpy as np

from . import ops
from .errors import (DanglingNode, DimensionMismatch, DirectionInvalid, Error,
                     IoFailure, NodeOutOfRange, NoRelations, ParseError, TypeMismatch,
                     UnknownRelation)


class NodeType(IntEnum):
    A = 0
    B = 1

    @property
    def label(self) -> str:
        return "A" if self is NodeType.A else "B"

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
class BlockPlan:
    """The edges of K relations toward one node class, stacked.

    Block row k*n + i is node i under relation k (n target nodes); K = 1
    is one relation's message plan. Segments are the reached block rows
    `rows`: `offsets` segments `sources` by row, so a node with no
    incoming edge has no segment, and the edges and segments of relation
    k form the runs `edge_runs[k]` and `row_runs[k]`. Sources index the
    value rows: the target class for within-class relations, the other
    class for cross-class ones, or, when `stacked` (a block mixing both),
    the target rows over the other class's rows, with cross sources
    offset by n. `target_index` and `source_index` are each edge's flat
    index into the row-major [n,K] target and [n_v,K] source score
    matrices, and `mask` is the [n,K] table of the nodes each relation
    reaches.
    """

    stacked: bool
    rows: np.ndarray
    offsets: np.ndarray
    sources: np.ndarray
    target_index: np.ndarray
    source_index: np.ndarray
    edge_runs: tuple
    row_runs: tuple
    mask: np.ndarray

    @property
    def n_edges(self) -> int:
        return int(self.sources.size)

    @property
    def covers_all(self) -> bool:
        return self.rows.size == self.mask.size

    @property
    def edge_targets(self) -> np.ndarray:
        """The target node of each edge."""
        n_k = self.mask.shape[1]
        return self.target_index if n_k == 1 else self.target_index // n_k

    @cached_property
    def layout(self) -> ops.DegreeLayout:
        """Built on first use, then kept with the block."""
        return ops.degree_layout(self.offsets, self.sources)


def _runs(sizes) -> tuple:
    ends = np.cumsum(sizes).tolist()
    return tuple(slice(lo, hi) for lo, hi in zip([0, *ends[:-1]], ends))


def _relation_plan(edge_targets: np.ndarray, sources: np.ndarray, n: int) -> BlockPlan:
    """One relation's block of target-sorted edges: its flat score indices are node ids."""
    counts = np.bincount(edge_targets, minlength=n)
    rows = np.flatnonzero(counts)
    offsets = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(counts[rows], out=offsets[1:])
    mask = (counts > 0).reshape(n, 1)
    mask.flags.writeable = False  # fusion records share it across forwards
    return BlockPlan(stacked=False, rows=rows, offsets=offsets, sources=sources,
                     target_index=edge_targets, source_index=sources,
                     edge_runs=_runs([sources.size]), row_runs=_runs([rows.size]), mask=mask)


def _stack_plans(plans: list, within: list, n: int) -> BlockPlan:
    """One block of the one-relation `plans` toward n nodes, relation by relation."""
    if len(plans) == 1:
        return plans[0]
    n_k = len(plans)
    stacked = any(within) and not all(within)
    mask = np.concatenate([p.mask for p in plans], axis=1)
    mask.flags.writeable = False
    edge_k = np.repeat(np.arange(n_k), [p.n_edges for p in plans])
    sources = np.concatenate([p.sources + (n if stacked and not w else 0)
                              for p, w in zip(plans, within)])
    seg_sizes = np.concatenate([np.diff(p.offsets) for p in plans])
    offsets = np.zeros(seg_sizes.size + 1, dtype=np.int64)
    np.cumsum(seg_sizes, out=offsets[1:])
    edge_targets = np.concatenate([p.target_index for p in plans])
    return BlockPlan(
        stacked=stacked, rows=np.concatenate([k * n + p.rows for k, p in enumerate(plans)]),
        offsets=offsets, sources=sources,
        target_index=edge_targets * n_k + edge_k, source_index=sources * n_k + edge_k,
        edge_runs=_runs([p.n_edges for p in plans]),
        row_runs=_runs([p.rows.size for p in plans]), mask=mask)


def _unique(keys: np.ndarray) -> np.ndarray:
    """np.unique(keys) of 1-D integer keys, by one sort and a mask of repeats.

    numpy 2.x's np.unique hashes integer keys before it sorts them: at 300k
    int64 keys that took 195 ms against 4 ms for this (numpy 2.4.6, 2 vCPUs).
    """
    keys = np.sort(keys)
    fresh = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
    return keys[fresh]


def _csr(rows: np.ndarray, cols: np.ndarray, n_rows: int, n_cols: int) -> CsrAdjacency:
    """The CSR of (row, col) pairs already sorted by row, then by col."""
    offsets = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=offsets[1:])
    return CsrAdjacency(offsets=offsets, cols=cols, n_rows=n_rows, n_cols=n_cols)


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
        self._blocks: dict[tuple[tuple, NodeType], BlockPlan] = {}

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

    def message_plan(self, name: str, target_type: NodeType) -> BlockPlan:
        """The one-relation block of messages flowing into `target_type` nodes.

        Within-class relations include a self-loop on every node, so each
        node always receives its own signal. Cross-class relations carry
        only stored edges; nodes with none are absent from the plan.
        """
        key = ((name,), target_type)
        plan = self._blocks.get(key)
        if plan is None:
            plan = self._blocks[key] = self._build_plan(self.spec(name), target_type)
        return plan

    def block_plan(self, relations, target_type: NodeType) -> BlockPlan:
        """The message plans of `relations` toward `target_type`, stacked in order."""
        key = (tuple(relations), target_type)
        block = self._blocks.get(key)
        if block is None:
            if not key[0]:
                raise NoRelations(f"a block toward {target_type.label} needs a relation")
            plans = [self.message_plan(rel, target_type) for rel in key[0]]
            within = [self.spec(rel).is_intra for rel in key[0]]
            block = self._blocks[key] = _stack_plans(plans, within, self.counts[target_type])
        return block

    def _build_plan(self, spec: RelationSpec, target_type: NodeType) -> BlockPlan:
        if target_type is spec.src_type:
            adj = self._csr[spec.name]
        elif target_type is spec.dst_type:
            adj = self._csr_rev[spec.name]
        else:
            raise DirectionInvalid(
                f"relation {spec.name!r} has no {target_type.label} endpoint")
        n_t = self.counts[target_type]
        edge_targets = np.repeat(np.arange(n_t, dtype=np.int64), np.diff(adj.offsets))
        sources = adj.cols
        if spec.is_intra:
            # add a self-loop to each row unless one is already stored; the
            # flat row * n_t + col keys sort by row, then by source
            diag = np.arange(n_t, dtype=np.int64) * (n_t + 1)
            keys = _unique(np.concatenate([edge_targets * n_t + sources, diag]))
            edge_targets, sources = np.divmod(keys, n_t)
        return _relation_plan(edge_targets, sources, n_t)

    def with_features(self, node_type: NodeType, feats: np.ndarray) -> "BiGraph":
        """New graph sharing all adjacency, with one feature matrix replaced."""
        feats = np.asarray(feats, dtype=np.float64)
        if feats.shape != self.features[node_type].shape:
            raise DimensionMismatch(
                f"replacement features {feats.shape} != {self.features[node_type].shape}")
        features = dict(self.features)
        features[node_type] = feats
        return BiGraph(self.counts, features, self.relations, self._csr, self._csr_rev)


def _is_id(value) -> bool:
    """Whether `value` is an integer; bools are not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _edge_error(spec_map: dict, sizes: dict, edge) -> Error | None:
    """What is wrong with one (relation_name, src_id, dst_id) edge, if anything."""
    if not isinstance(edge, (tuple, list)) or len(edge) != 3:
        return TypeMismatch(f"edge {edge!r} is not a (relation_name, src, dst) triple")
    rel_name, src, dst = edge
    spec = spec_map.get(rel_name) if isinstance(rel_name, str) else None
    if spec is None:
        return UnknownRelation(f"edge references undeclared relation {rel_name!r}")
    for end, node in (("src", src), ("dst", dst)):
        if not _is_id(node):
            return TypeMismatch(f"edge {rel_name!r}({src!r}, {dst!r}): {end} is not an integer")
    if not 0 <= src < sizes[spec.src_type]:
        return DanglingNode(
            f"edge {rel_name!r}({src}, {dst}): src outside [0, {sizes[spec.src_type]})")
    if not 0 <= dst < sizes[spec.dst_type]:
        return DanglingNode(
            f"edge {rel_name!r}({src}, {dst}): dst outside [0, {sizes[spec.dst_type]})")
    return None


def _bad_edges(spec_map: dict, sizes: dict, codes, src, dst) -> np.ndarray:
    """Which edges `_edge_error` rejects, from their relation code and id columns."""
    # an undeclared relation (code -1) reads the trailing 0: no id fits [0, 0)
    specs = list(spec_map.values())
    src_cap = np.array([sizes[s.src_type] for s in specs] + [0])[codes]
    dst_cap = np.array([sizes[s.dst_type] for s in specs] + [0])[codes]
    return ~((src >= 0) & (src < src_cap) & (dst >= 0) & (dst < dst_cap))


def _id_column(values) -> np.ndarray:
    """`values` as int64 ids, -1 where one is not an integer or does not fit int64."""
    if all(issubclass(t, (int, np.integer)) and t is not bool for t in set(map(type, values))):
        try:
            return np.array(values, dtype=np.int64)
        except OverflowError:
            pass
    return np.fromiter((v if _is_id(v) and -2**63 <= v < 2**63 else -1 for v in values),
                       dtype=np.int64, count=len(values))


def _edge_columns(spec_map: dict, sizes: dict, edges) -> tuple:
    """Relation codes (declaration order) and int64 src, dst columns of `edges`.

    The tuples become columns once, and the columns are checked at once;
    the first bad edge in iteration order raises what `_edge_error`
    returns for it.
    """
    edges = list(edges)
    shaped = np.fromiter(map(length_hint, edges, repeat(-1)), dtype=np.int64,
                         count=len(edges)) == 3
    if not all(issubclass(t, (tuple, list)) for t in set(map(type, edges))):
        shaped &= np.fromiter(map(isinstance, edges, repeat((tuple, list))), dtype=bool,
                              count=len(edges))
    n = len(edges) if shaped.all() else int(np.argmin(shaped))  # the edges before a misshapen one
    names, src, dst = (list(map(itemgetter(j), edges[:n])) for j in range(3))
    if not all(issubclass(t, str) for t in set(map(type, names))):
        names = [name if isinstance(name, str) else None for name in names]
    code_of = {name: k for k, name in enumerate(spec_map)}
    codes = np.fromiter(map(code_of.get, names, repeat(-1)), dtype=np.int64, count=n)
    src, dst = _id_column(src), _id_column(dst)
    bad = _bad_edges(spec_map, sizes, codes, src, dst)
    if bad.any() or n < len(edges):
        raise _edge_error(spec_map, sizes, edges[int(np.argmax(bad)) if bad.any() else n])
    return codes, src, dst


def _checked_parts(counts: dict, features: dict, relations) -> tuple[dict, dict, dict]:
    """Node counts, float64 features and the relation table, each validated."""
    sizes = {t: int(counts[t]) for t in NodeType}
    if min(sizes.values()) <= 0:
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
    return sizes, feat, spec_map


def _frozen_graph(sizes: dict, feat: dict, spec_map: dict, codes, all_src, all_dst) -> BiGraph:
    """The graph of valid edge columns: deduplicated, symmetrized, in CSR form."""
    csr: dict[str, CsrAdjacency] = {}
    csr_rev: dict[str, CsrAdjacency] = {}
    for k, (name, spec) in enumerate(spec_map.items()):
        mine = codes == k
        src, dst = all_src[mine], all_dst[mine]
        if spec.symmetric:
            src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
        n_src, n_dst = sizes[spec.src_type], sizes[spec.dst_type]
        # the unique keys order the pairs by (src, dst), so a stable sort by
        # dst orders them by (dst, src)
        src, dst = np.divmod(_unique(src * np.int64(n_dst) + dst), n_dst)
        order = ops._stable_order(dst)
        csr[name] = _csr(src, dst, n_src, n_dst)
        csr_rev[name] = _csr(dst[order], src[order], n_dst, n_src)
    return BiGraph(sizes, feat, spec_map, csr, csr_rev)


def build_graph(counts: dict[NodeType, int], features: dict[NodeType, np.ndarray],
                relations: list[RelationSpec], edges) -> BiGraph:
    """Validate, deduplicate, symmetrize, and freeze a graph.

    `edges` is an iterable of (relation_name, src_id, dst_id). Duplicate
    edges collapse to one; symmetric relations store both directions.
    """
    sizes, feat, spec_map = _checked_parts(counts, features, relations)
    return _frozen_graph(sizes, feat, spec_map, *_edge_columns(spec_map, sizes, edges))


def graph_from_columns(counts: dict[NodeType, int], features: dict[NodeType, np.ndarray],
                       relations: list[RelationSpec], codes, src, dst) -> BiGraph:
    """`build_graph` of edges given as int64 columns: the index of each
    edge's relation in `relations`, its src id and its dst id."""
    sizes, feat, spec_map = _checked_parts(counts, features, relations)
    known = (codes >= 0) & (codes < len(relations))
    bad = _bad_edges(spec_map, sizes, np.where(known, codes, -1), src, dst)
    if bad.any():
        k = int(np.argmax(bad))
        if not known[k]:
            raise UnknownRelation(f"edge {k} ({src[k]}, {dst[k]}) has relation code {codes[k]}, "
                                  f"outside [0, {len(relations)})")
        raise _edge_error(spec_map, sizes, (relations[codes[k]].name, src[k], dst[k]))
    return _frozen_graph(sizes, feat, spec_map, codes, src, dst)


def mean_neighbor_features(graph: BiGraph, relation_names: list[str],
                           target_type: NodeType = NodeType.A) -> tuple[np.ndarray, np.ndarray]:
    """Average cross-class neighbor features onto `target_type` nodes.

    Returns (features, isolated) where isolated flags nodes with no
    neighbor under any listed relation; their feature row is zero.
    """
    n = graph.n_nodes(target_type)
    total = np.zeros((n, graph.feature_dim))
    deg = np.zeros(n)
    for name in relation_names:
        if graph.spec(name).is_intra:
            raise TypeMismatch(f"relation {name!r} is not cross-class")
    if relation_names:
        # one add.at over the block's edges, relation by relation: the
        # same additions in the same order as one add.at per relation
        block = graph.block_plan(relation_names, target_type)
        targets = block.edge_targets
        np.add.at(total, targets, graph.features[target_type.other][block.sources])
        np.add.at(deg, targets, 1.0)
    isolated = deg == 0
    out = np.divide(total, deg[:, None], out=np.zeros_like(total), where=deg[:, None] > 0)
    return out, isolated


# TSV interchange: nodes.tsv, edges.tsv, relations.tsv

FLOAT_FMT = "%.9g"
_NODE_COLUMNS = ("node_id", "type")
_EDGE_COLUMNS = ("relation_name", "src", "dst")
_RELATION_COLUMNS = ("name", "klass", "src_type", "dst_type", "symmetric")


def write_lines(path, lines: list[str]) -> None:
    """Write UTF-8 text, each line newline-terminated (no lines: empty file)."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n" if lines else "")
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def write_table(path, header, columns, formats) -> None:
    """The `header` row, then row i from entry i of each column j, printed by `formats[j]`."""
    row = "\t".join(formats)
    write_lines(path, ["\t".join(header), *map(row.__mod__, zip(*columns, strict=True))])


def concat_column(parts) -> list:
    """Array pieces end to end as one table column; no pieces give an empty column."""
    return np.concatenate(parts).tolist() if parts else []


def write_node_table(path, column: str, values: dict[NodeType, np.ndarray]) -> None:
    """One row per node, A before B: its id, its class, then its `column`_j values."""
    table, sizes = np.vstack([values[t] for t in NodeType]), [len(values[t]) for t in NodeType]
    write_table(path, [*_NODE_COLUMNS, *(f"{column}_{j}" for j in range(table.shape[1]))],
                [concat_column([np.arange(n) for n in sizes]),
                 np.repeat([t.label for t in NodeType], sizes).tolist(), *table.T.tolist()],
                ["%d", "%s", *[FLOAT_FMT] * table.shape[1]])


@dataclass(frozen=True)
class Table:
    """The data rows of one TSV file, column by column.

    `columns[j]` holds the cells under `header[j]`, parsed as `read_table`
    says, and `lines[k]` is the file line of row k, which every ParseError
    about the row names.
    """

    path: str
    header: tuple
    columns: list
    lines: np.ndarray

    def __len__(self) -> int:
        return int(self.lines.size)

    def fail(self, k: int, message: str) -> ParseError:
        return ParseError(self.path, int(self.lines[k]), message)

    def reject(self, bad: np.ndarray, message) -> None:
        """Raise at the first row `bad` flags; `message(k)` describes row k."""
        if bad.any():
            k = int(np.argmax(bad))
            raise self.fail(k, message(k))

    def reject_repeats(self, message, *keys) -> None:
        """Raise at the first row whose `keys` columns equal an earlier row's."""
        keys = [np.asarray(key) for key in keys]
        order = np.lexsort(keys[::-1])  # stable: a key's rows stay in file order
        later, earlier = order[1:], order[:-1]
        repeat = np.zeros(len(self), dtype=bool)
        repeat[later[np.logical_and.reduce([key[later] == key[earlier] for key in keys])]] = True
        self.reject(repeat, message)


def _codes(cells: np.ndarray, names: tuple):
    """The index in `names` of each string cell; None if a cell is not among them."""
    if not names:
        return None if cells.size else np.empty(0, dtype=np.int64)
    vocab = np.array(names, dtype=cells.dtype)
    order = np.argsort(vocab, kind="stable")
    at = np.searchsorted(vocab[order], cells).clip(max=len(names) - 1)
    return order[at] if (vocab[order][at] == cells).all() else None


def _name_field(names: tuple) -> str:
    """The loadtxt field of a column of `names`: one wider than the longest,
    so that a cell cut off at its width matches none, and read as bytes
    when every name is ASCII, as a Latin-1 cell that is not cannot match."""
    return f"{'S' if all(map(str.isascii, names)) else 'U'}{max(map(len, names), default=0) + 1}"


def _id_lists(cells: np.ndarray):
    """The ids of comma-separated cells of at most 18 ASCII digits each, end
    to end, and the ids per cell; None if a cell holds anything else."""
    comma = ord(",")
    if not cells.size:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    chars = np.ascontiguousarray(cells).view(np.uint32).reshape(cells.size, -1)
    flat = np.hstack([chars, np.full((cells.size, 1), comma, dtype=np.uint32)]).ravel()
    flat = flat[flat != 0]  # drop the padding: each cell now ends in a comma
    ends = np.flatnonzero(flat == comma)
    starts = np.concatenate([[0], ends[:-1] + 1])
    digits = flat.astype(np.int64) - ord("0")
    digits[ends] = 0
    if not (0 < ends - starts).all() or (ends - starts > 18).any() or \
            ((digits < 0) | (digits > 9)).any():
        return None
    place = np.repeat(ends, ends - starts + 1) - np.arange(flat.size) - 1  # a comma's is -1
    return np.add.reduceat(digits * 10 ** place.clip(0), starts), (chars == comma).sum(axis=1) + 1


def _bulk_columns(path: str, body: str, kinds: list, extra: int):
    """The columns and the [rows, extra] float block of the rows of the TSV
    at `path`, whose text after the header is `body`, parsed by one
    np.loadtxt; None wherever it fails or might read a cell otherwise than
    the checked path."""
    if "\x00" in body:
        return None  # loadtxt would cut a NUL off the end of a string cell
    wide = 1  # a free string cell fits in its line
    if str in kinds or list in kinds:
        raw = np.frombuffer(body.encode(), dtype=np.uint8)
        wide = int(np.diff(np.flatnonzero(raw == ord("\n")), prepend=-1, append=raw.size).max())
    fields = [(f"c{j}", {int: "i8", float: "f8", str: f"U{wide}", list: f"U{wide}"}.get(kind)
               or _name_field(kind)) for j, kind in enumerate(kinds)]
    if extra:
        fields.append(("extra", "f8", (extra,)))
    try:
        # given a path, not a file, loadtxt reads in blocks instead of by line; it
        # warns on a body of blank lines, which the row count below sends on
        rows = (np.zeros(0, dtype=fields) if not body or body.isspace() else
                np.loadtxt(path, dtype=fields, delimiter="\t", comments=None, skiprows=1,
                           encoding="utf-8", ndmin=1))
    except ValueError:
        return None
    if rows.size != body.count("\n") + (bool(body) and not body.endswith("\n")):
        return None  # loadtxt skipped a blank line, which shifts the line numbers
    columns = []
    for j, kind in enumerate(kinds):
        cells = rows[f"c{j}"]
        if kind is str:
            cells = cells.tolist()
        elif kind is list:
            cells = _id_lists(cells)
        elif isinstance(kind, tuple):
            cells = _codes(cells, kind)
        if cells is None:
            return None
        columns.append(cells)
    return columns, rows["extra"] if extra else np.empty((rows.size, 0))


def _checked_column(rows: Table, name: str, kind, cells: list):
    """The string cells of one column of `rows` parsed as `kind`; the first bad cell raises."""
    if kind is str:
        return cells
    if isinstance(kind, tuple):
        index = {label: k for k, label in enumerate(kind)}
        codes = np.fromiter(map(index.get, cells, repeat(-1)), dtype=np.int64, count=len(cells))
        rows.reject(codes < 0, lambda k: f"{name} {cells[k]!r} is not one of {', '.join(kind)}")
        return codes
    if kind is list:
        pieces = [cell.split(",") if cell else [] for cell in cells]
        sizes = np.fromiter(map(len, pieces), dtype=np.int64, count=len(cells))
        rows.reject(sizes == 0, lambda k: "empty label list")
        rows.reject(np.array(["" in row for row in pieces], dtype=bool),
                    lambda k: f"empty piece in label list {cells[k]!r}")
        row_of = np.repeat(np.arange(len(cells)), sizes)
        ids = Table(rows.path, rows.header, [], rows.lines[row_of])
        return _checked_column(ids, name, int, list(chain.from_iterable(pieces))), sizes
    dtype = np.int64 if kind is int else np.float64
    try:
        return np.array(cells, dtype=dtype)
    except (ValueError, OverflowError):
        for k, cell in enumerate(cells):
            try:
                np.array([cell], dtype=dtype)
            except (ValueError, OverflowError) as exc:
                raise rows.fail(k, f"{name}: {exc}") from exc
        raise


def _checked_columns(path, body: str, header: tuple, kinds: list):
    """The columns, float block and file lines of the rows in `body`, read
    row by row: the first row with a wrong cell count, else the first bad
    cell of the first column that has one, raises."""
    rows = body.split("\n")
    filled = np.fromiter(map(bool, rows), dtype=bool, count=len(rows))
    rows = list(compress(rows, filled))
    table = Table(str(path), header, [], np.flatnonzero(filled) + 2)
    n = len(header)
    widths = np.fromiter(map(str.count, rows, repeat("\t")), dtype=np.int64, count=len(rows)) + 1
    table.reject(widths != n, lambda k: f"expected {n} columns, got {widths[k]}")
    cells = "\t".join(rows).split("\t") if rows else []
    columns = [_checked_column(table, header[j], kind, cells[j::n])
               for j, kind in enumerate(kinds)]
    block = np.empty((len(rows), n - len(kinds)))
    for j in range(len(kinds), n):
        block[:, j - len(kinds)] = _checked_column(table, header[j], float, cells[j::n])
    return columns, block, table.lines


def read_table(path, columns: dict, extra: bool = False) -> Table:
    """Read a TSV whose header row is the names of `columns`, followed by
    any number of further float columns when `extra`. Every data row needs
    one cell per header column; blank lines are skipped.

    `columns` maps each name to how its cells parse: `int` and `float` into
    an int64 and a float64 array, `str` into a list of the cells, a tuple
    of names into each cell's index among them, and `list` into the pair
    (the ids of every row's comma-separated cell, end to end; the ids per
    row). With `extra`, a last column holds the further columns as one
    [rows, k] float64 block.

    One np.loadtxt parses the whole table. Only when it fails, or leaves a
    doubt, does the checked path read the table again row by row, and it
    raises a ParseError naming the first bad line.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise IoFailure(f"missing interchange file {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    names, kinds = tuple(columns), list(columns.values())
    first, _, body = text.partition("\n")
    header = tuple(first.split("\t"))
    if header[:len(names)] != names or (len(header) > len(names) and not extra):
        expected = "\t".join(names) + ("\t..." if extra else "")
        raise ParseError(path, 1, f"expected header {expected!r}")
    parsed = _bulk_columns(os.fspath(path), body, kinds, len(header) - len(names))
    if parsed is None:
        columns, block, lines = _checked_columns(path, body, header, kinds)
    else:
        (columns, block), lines = parsed, np.arange(2, len(parsed[1]) + 2)
    return Table(str(path), header, columns + [block] if extra else columns, lines)


def save_graph_tsv(graph: BiGraph, directory) -> None:
    """Write nodes.tsv, edges.tsv, relations.tsv under `directory`."""
    os.makedirs(directory, exist_ok=True)
    write_node_table(os.path.join(directory, "nodes.tsv"), "feat", graph.features)

    names = graph.relation_names()
    adjs = [graph.csr(name) for name in names]
    write_table(os.path.join(directory, "edges.tsv"), _EDGE_COLUMNS,
                [np.repeat(np.array(names, dtype=object), [adj.cols.size for adj in adjs]).tolist(),
                 concat_column([np.repeat(np.arange(adj.n_rows), np.diff(adj.offsets))
                                for adj in adjs]),
                 concat_column([adj.cols for adj in adjs])], ("%s", "%d", "%d"))
    write_table(os.path.join(directory, "relations.tsv"), _RELATION_COLUMNS, zip(*[
        (s.name, s.klass.value, s.src_type.label, s.dst_type.label,
         "true" if s.symmetric else "false") for s in map(graph.spec, names)]), ["%s"] * 5)


def load_graph_tsv(directory) -> BiGraph:
    """Read a graph written by save_graph_tsv."""
    klasses, labels = list(RelationClass), tuple(t.label for t in NodeType)
    table = read_table(os.path.join(directory, "relations.tsv"), dict(zip(_RELATION_COLUMNS, (
        str, tuple(c.value for c in klasses), labels, labels, ("false", "true")))))
    names = table.columns[0]
    table.reject_repeats(lambda k: f"relation {names[k]!r} declared twice", names)
    relations = []
    for k, (name, klass, src_t, dst_t, sym) in enumerate(zip(
            names, *(column.tolist() for column in table.columns[1:]))):
        try:
            relations.append(RelationSpec(name, klasses[klass], NodeType(src_t),
                                          NodeType(dst_t), bool(sym)))
        except TypeMismatch as exc:
            raise table.fail(k, str(exc)) from exc

    nodes = read_table(os.path.join(directory, "nodes.tsv"),
                       dict(zip(_NODE_COLUMNS, (int, labels))), extra=True)
    ids, types, values = nodes.columns
    counts = np.bincount(types, minlength=2)
    if not counts.all():
        raise ParseError(nodes.path, 1, f"no nodes of type {labels[int(np.argmin(counts))]}")
    nodes.reject_repeats(lambda k: f"{labels[types[k]]} node {ids[k]} has a second row",
                         types, ids)
    nodes.reject((ids < 0) | (ids >= counts[types]),
                 lambda k: f"{labels[types[k]]} node {ids[k]} outside [0, {counts[types[k]]}):"
                           " ids of a type must be dense and 0-based")
    finite = np.isfinite(values)
    first = np.argmin(finite, axis=1)  # a row's first non-finite feature
    nodes.reject(~finite.all(axis=1), lambda k: f"{nodes.header[2 + first[k]]}: "
                                                f"{values[k, first[k]]} is not finite")
    values = values[np.lexsort((ids, types))]  # the A rows by id, then the B rows
    features = {NodeType.A: values[:counts[0]], NodeType.B: values[counts[0]:]}
    sizes, feat, spec_map = _checked_parts(
        {t: int(counts[t]) for t in NodeType}, features, relations)
    edges = read_table(os.path.join(directory, "edges.tsv"),
                       dict(zip(_EDGE_COLUMNS, (tuple(names), int, int))))
    codes, src, dst = edges.columns
    edges.reject(_bad_edges(spec_map, sizes, codes, src, dst), lambda k: str(_edge_error(
        spec_map, sizes, (names[codes[k]], src[k], dst[k]))))
    return _frozen_graph(sizes, feat, spec_map, codes, src, dst)
