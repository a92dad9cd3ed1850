"""Dense masked-attention reference model, and the k-means oracle.

An independent re-implementation of the forward pass using full [n, m]
adjacency matrices and masked row softmaxes in plain numpy. It shares no
aggregation code with the package (no CSR rows, no segment ops, no
autodiff), reads the same parameter names, and exists purely as an
oracle for equivalence testing.

`kmeans` is the package's k-means as it was before its assignment step
used a matrix product: every round sums all `[n, k, d]` squared
differences. `metrics.kmeans` must match it bit for bit.

`weighted_sum_rows` is the edge reduction as it was before it streamed
its degree groups in pieces: it gathers the whole [E, d] block of source
rows once and keeps it for the backward. `backward` is the tape walk as
it was before it dropped spent gradients and spent records, and before
it kept a closure's fresh arrays uncopied. The package's versions must
match both bit for bit.

`leaky_layer_norm` and `residual_mix` are the op chains that
`ops.layer_norm(..., slope=...)` and `ops.residual_mix` replaced: a
layer norm then a `leaky_relu`, and `leaky_relu`, two `scalar_mul` and
an `add`. The fused primitives must match them bit for bit, in value
and in every gradient.

`frozen_graph`, `build_plan`, `build_graph` and `generate` are graph
set-up as it was before it sorted instead of hashing: `np.unique` on the
edge keys, a lexsort for each CSR direction, and a generator that hands
`build_graph` one (relation, src, dst) tuple per edge and averages each
paper's field prototypes with `np.mean`. The package's graphs, plans and
generated datasets must match them bit for bit.

`write_node_table`, `save_graph_tsv`, `export_dataset`,
`attention_tables` and `ablation_table` are the TSV writers as they were
before `graph.write_table`: one hand-formatted line per row, and one
`format_float` call per attention weight. Every TSV the package writes
must match them byte for byte.

`read_table`, `load_graph_tsv` and `import_dataset` are the dataset
reader as it was before it parsed each table in one np.loadtxt: one
Python string per cell, numbers parsed by `np.array` over those strings,
and one `rank_instance` (a hashing `np.unique`) per ranking query.
`_validated_edges` is `build_graph`'s tuple path as it was before it
checked the columns for types: `zip`, `map(int, ...)` and a per-edge
replay of the checks on a malformed edge.

`AdamW` is the optimizer as it was before parameters shared one vector:
per-parameter moment dicts and ten numpy calls per tensor, reading each
tensor's `grad`. `optim.AdamW` must match it bit for bit.
"""
import os
from dataclasses import dataclass
from itertools import chain, compress, repeat

import numpy as np

from duograph import ops, synth
from duograph.errors import (DegenerateData, DirectionInvalid, IoFailure, NonScalarLoss,
                             ParseError, ShapeMismatch, TapeConsumed, TypeMismatch)
from duograph.graph import (_EDGE_COLUMNS, _NODE_COLUMNS, _RELATION_COLUMNS, BiGraph,
                            CsrAdjacency, NodeType, RelationClass, RelationSpec, _bad_edges,
                            _checked_parts, _edge_error, _frozen_graph, _relation_plan,
                            mean_neighbor_features, write_lines)
from duograph.model import ModelConfig, RankInstance, TaskKind, TaskSpec
from duograph.params import ParamSet
from duograph.rand import rng_for

TYPES = (NodeType.A, NodeType.B)


def _leaky(x, slope):
    return np.where(x >= 0, x, slope * x)


def _ln(x, gain, bias, eps=1e-5):
    mean = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    return gain * (x - mean) / np.sqrt(var + eps) + bias


def _masked_softmax(scores, mask):
    neg = np.where(mask, scores, -np.inf)
    row_max = neg.max(axis=1, keepdims=True)
    row_max = np.where(np.isfinite(row_max), row_max, 0.0)
    e = np.where(mask, np.exp(neg - row_max), 0.0)
    denom = e.sum(axis=1, keepdims=True)
    return np.divide(e, denom, out=np.zeros_like(e), where=denom > 0)


def _dense_adj(graph: BiGraph, relation: str, target_type: NodeType,
               self_loops: bool) -> np.ndarray:
    spec = graph.spec(relation)
    if target_type is spec.src_type:
        source_type, reverse = spec.dst_type, False
    else:
        source_type, reverse = spec.src_type, True
    n_t, n_s = graph.n_nodes(target_type), graph.n_nodes(source_type)
    m = np.zeros((n_t, n_s), dtype=bool)
    for i in range(n_t):
        m[i, graph.neighbors(relation, i, reverse=reverse)] = True
    if self_loops:
        np.fill_diagonal(m, True)
    return m


def _attend(h_t, h_s, mask, attn, gain, bias, slope):
    d = h_t.shape[1]
    scores = _leaky((h_t @ attn[:d]).reshape(-1, 1)
                    + (h_s @ attn[d:]).reshape(1, -1), slope)
    alpha = _masked_softmax(scores, mask)
    out = _leaky(_ln(alpha @ h_s, gain, bias), slope)
    reached = mask.any(axis=1)
    out[~reached] = 0.0
    return out, reached


def _fuse(base, reps, masks, score_vec, global_logits, mix_logit, mean_fusion):
    mask = np.column_stack(masks)
    if mean_fusion:
        counts = mask.sum(axis=1, keepdims=True)
        coeff = np.divide(mask.astype(float), counts,
                          out=np.zeros(mask.shape), where=counts > 0)
    else:
        scores = np.column_stack([(np.hstack([base, rep]) @ score_vec).reshape(-1)
                                  for rep in reps])
        local = _masked_softmax(scores, mask)
        if global_logits is not None:
            glob = _masked_softmax(np.tile(global_logits, (base.shape[0], 1)), mask)
            mix = 1.0 / (1.0 + np.exp(-mix_logit[0, 0]))
            coeff = mix * glob + (1.0 - mix) * local
        else:
            coeff = local
    fused = np.zeros_like(base)
    for k, rep in enumerate(reps):
        fused += coeff[:, k:k + 1] * rep
    return fused


def _residual(new, old, weight, gain, bias, slope):
    return _ln(weight * _leaky(new, slope) + (1.0 - weight) * old, gain, bias)


def _p(ps: ParamSet, name: str) -> np.ndarray:
    return ps.get(name).data


def _intra(graph, inputs, ps, layer, config):
    out = {}
    for t in TYPES:
        rels = graph.intra_relations(t)
        reps, masks = [], []
        n = graph.n_nodes(t)
        for rel in rels:
            stem = f"layer{layer}.intra.{rel}"
            adj = _dense_adj(graph, rel, t, self_loops=True)
            rep, _ = _attend(inputs[t], inputs[t], adj, _p(ps, f"{stem}.attn"),
                             _p(ps, f"{stem}.gain"), _p(ps, f"{stem}.bias"),
                             config.slope)
            reps.append(rep)
            masks.append(np.ones(n, dtype=bool))
        mean_fusion = config.variant == "no-hier"
        use_global = config.variant == "full"
        fused = _fuse(inputs[t], reps, masks,
                      None if mean_fusion else _p(ps, f"layer{layer}.{t.label}.local_score"),
                      _p(ps, f"layer{layer}.{t.label}.global_logits") if use_global else None,
                      _p(ps, f"layer{layer}.{t.label}.mix_logit") if use_global else None,
                      mean_fusion)
        out[t] = _residual(fused, inputs[t], config.res_weight,
                           _p(ps, f"layer{layer}.{t.label}.res_intra.gain"),
                           _p(ps, f"layer{layer}.{t.label}.res_intra.bias"),
                           config.slope)
    return out


def _inter(graph, inputs, ps, layer, config):
    rels = graph.inter_relations()
    mapped = {t: inputs[t] @ _p(ps, f"layer{layer}.{t.label}.common_map")
              for t in TYPES}
    out = {}
    for t in TYPES:
        reps, masks = [], []
        for rel in rels:
            stem = f"layer{layer}.inter.{rel}.to_{t.label}"
            adj = _dense_adj(graph, rel, t, self_loops=False)
            rep, reached = _attend(mapped[t], mapped[t.other], adj,
                                   _p(ps, f"{stem}.attn"), _p(ps, f"{stem}.gain"),
                                   _p(ps, f"{stem}.bias"), config.slope)
            reps.append(rep)
            masks.append(reached)
        if reps:
            mean_fusion = config.variant == "no-hier"
            fused = _fuse(inputs[t], reps, masks,
                          None if mean_fusion
                          else _p(ps, f"layer{layer}.{t.label}.inter_score"),
                          None, None, mean_fusion)
        else:
            fused = np.zeros(inputs[t].shape)
        gain = _p(ps, f"layer{layer}.{t.label}.res_inter.gain")
        bias = _p(ps, f"layer{layer}.{t.label}.res_inter.bias")
        res = _residual(fused, inputs[t], config.res_weight_inter, gain, bias,
                        config.slope)
        if config.extra_inter_residual:
            res = _residual(res, inputs[t], config.res_weight_inter, gain, bias,
                            config.slope)
        out[t] = res
    return out


def _unified(graph, inputs, ps, layer, config):
    out = {}
    for t in TYPES:
        reps, masks = [], []
        n = graph.n_nodes(t)
        for rel in graph.intra_relations(t):
            stem = f"layer{layer}.uni.{rel}.to_{t.label}"
            adj = _dense_adj(graph, rel, t, self_loops=True)
            rep, _ = _attend(inputs[t], inputs[t], adj, _p(ps, f"{stem}.attn"),
                             _p(ps, f"{stem}.gain"), _p(ps, f"{stem}.bias"),
                             config.slope)
            reps.append(rep)
            masks.append(np.ones(n, dtype=bool))
        for rel in graph.inter_relations():
            stem = f"layer{layer}.uni.{rel}.to_{t.label}"
            adj = _dense_adj(graph, rel, t, self_loops=False)
            rep, reached = _attend(inputs[t], inputs[t.other], adj,
                                   _p(ps, f"{stem}.attn"), _p(ps, f"{stem}.gain"),
                                   _p(ps, f"{stem}.bias"), config.slope)
            reps.append(rep)
            masks.append(reached)
        fused = _fuse(inputs[t], reps, masks,
                      _p(ps, f"layer{layer}.{t.label}.local_score"),
                      _p(ps, f"layer{layer}.{t.label}.global_logits"),
                      _p(ps, f"layer{layer}.{t.label}.mix_logit"), False)
        out[t] = _residual(fused, inputs[t], config.res_weight,
                           _p(ps, f"layer{layer}.{t.label}.res.gain"),
                           _p(ps, f"layer{layer}.{t.label}.res.bias"), config.slope)
    return out


def dense_forward(graph: BiGraph, config: ModelConfig, ps: ParamSet) -> dict:
    """Eval-mode forward; mirrors the package semantics exactly."""
    current = {t: graph.features[t] for t in TYPES}
    if config.num_layers == 0:
        return {t: current[t] @ _p(ps, f"proj.{t.label}") for t in TYPES}
    for layer in range(config.num_layers):
        projected = {t: current[t] @ _p(ps, f"layer{layer}.{t.label}.proj")
                     for t in TYPES}
        if config.variant == "no-dual":
            current = _unified(graph, projected, ps, layer, config)
        elif config.ordering == "standard":
            current = _inter(graph, _intra(graph, projected, ps, layer, config),
                             ps, layer, config)
        elif config.ordering == "inverted":
            current = _intra(graph, _inter(graph, projected, ps, layer, config),
                             ps, layer, config)
        else:
            z = _intra(graph, projected, ps, layer, config)
            v = _inter(graph, projected, ps, layer, config)
            current = {t: np.hstack([z[t], v[t]])
                       @ _p(ps, f"layer{layer}.{t.label}.merge") for t in TYPES}
    return current


def kmeans(points: np.ndarray, k: int, rng: np.random.Generator,
           max_iter: int = 300):
    """Greedy k-means++ seeding plus Lloyd iterations.

    Stops when assignments are stable or after `max_iter` rounds. An
    emptied cluster is re-seeded with the point farthest from its center.
    Returns (centers, assignments, inertia).
    """
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    if np.unique(pts, axis=0).shape[0] < k:
        raise DegenerateData(f"need at least {k} distinct points")
    centers = np.empty((k, pts.shape[1]))
    centers[0] = pts[int(rng.integers(n))]
    d2 = np.sum((pts - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        probs = d2 / d2.sum() if d2.sum() > 0 else np.full(n, 1.0 / n)
        centers[j] = pts[int(rng.choice(n, p=probs))]
        d2 = np.minimum(d2, np.sum((pts - centers[j]) ** 2, axis=1))
    assign = np.full(n, -1, dtype=np.int64)
    for _ in range(max_iter):
        dists = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_assign = dists.argmin(axis=1)
        for j in range(k):
            members = new_assign == j
            if members.any():
                centers[j] = pts[members].mean(axis=0)
            else:
                far = int(dists[np.arange(n), new_assign].argmax())
                centers[j] = pts[far]
                new_assign[far] = j
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
    inertia = float(((pts - centers[assign]) ** 2).sum())
    return centers, assign, inertia


def _group_runs(groups):
    """(ids, run slice, n_k, k) for each whole degree group, in layout order."""
    start = 0
    for k, ids in groups:
        stop = start + ids.size * k
        yield ids, slice(start, stop), ids.size, k
        start = stop


def weighted_sum_rows(weights, values, sources, layout):
    """Per segment s: sum of weights[e] * values[sources[e]] over its edges e."""
    n_edges, d = layout.n_edges, values.shape[1]
    if weights.shape != (n_edges, 1):
        raise ShapeMismatch(f"weights {weights.shape} vs {n_edges} edges")
    src = ops._row_index(sources, values.shape[0], "weighted_sum_rows sources")
    if src.size != n_edges:
        raise ShapeMismatch(f"weighted_sum_rows {src.size} sources vs {n_edges} edges")
    w = weights.data[:, 0]
    w_t = w[layout.target_perm]
    rows = np.take(values.data, src[layout.target_perm], axis=0)
    out = np.empty((layout.n_segments, d))
    for segs, run, n, k in _group_runs(layout.target_groups):
        out[segs] = np.matmul(w_t[run].reshape(n, 1, k), rows[run].reshape(n, k, d))[:, 0, :]

    def bw(g):
        gw = gv = None
        if weights.requires_grad:
            gw_t = np.empty(n_edges)
            for segs, run, n, k in _group_runs(layout.target_groups):
                gw_t[run] = np.matmul(rows[run].reshape(n, k, d), g[segs][:, :, None]).ravel()
            gw = np.empty((n_edges, 1))
            gw[layout.target_perm, 0] = gw_t
        if values.requires_grad:
            gv = np.zeros(values.shape)
            w_s = w[layout.source_perm]
            for nodes, run, n, k in _group_runs(layout.source_groups):
                g_rows = np.take(g, layout.source_segments[run], axis=0).reshape(n, k, d)
                gv[nodes] = np.matmul(w_s[run].reshape(n, 1, k), g_rows)[:, 0, :]
        return gw, gv

    return ops._result(out, (weights, values), bw)


def leaky_layer_norm(x, gain, bias, runs=None, slope=0.2):
    """leaky_relu(layer_norm(x, gain, bias, runs), slope) as two records."""
    return ops.leaky_relu(ops.layer_norm(x, gain, bias, runs), slope)


def residual_mix(new, old, weight, slope):
    """weight * leaky_relu(new, slope) + (1 - weight) * old as four records."""
    return ops.add(ops.scalar_mul(ops.leaky_relu(new, slope), weight),
                   ops.scalar_mul(old, 1.0 - weight))


def backward(tape, loss) -> list:
    """Accumulate d(loss)/d(input) into every leaf tensor's grad, freeing nothing.

    `loss` must be 1x1. Walks the (shape, input references, closure)
    records in reverse and keeps every record and every slot's gradient,
    each slot's a zeros array plus its gradients in arrival order. Returns
    the slot gradients, None where the walk sent none. Tensors never
    visited keep a zero gradient.
    """
    if loss.data.shape != (1, 1):
        raise NonScalarLoss(f"loss has shape {loss.data.shape}, expected (1, 1)")
    if tape._consumed:
        raise TapeConsumed("backward was already run on this tape")
    tape._consumed = True
    grads = [None] * len(tape._records)
    top = tape.slot(loss)
    if top is None:
        loss.accumulate_grad(np.ones((1, 1)))
    else:
        grads[top] = np.ones((1, 1))
    for k in reversed(range(len(grads))):
        if grads[k] is None:
            continue
        _, refs, backward_fn = tape._records[k]
        for ref, grad in zip(refs, backward_fn(grads[k])):
            if ref is None or grad is None:
                continue
            if isinstance(ref, int):
                shape = tape._records[ref][0]
                if grad.shape != shape:
                    raise ShapeMismatch(f"gradient shape {grad.shape} != value shape {shape}")
                held = np.zeros(shape) if grads[ref] is None else grads[ref]
                grads[ref] = held + grad
            else:
                ref.accumulate_grad(grad)
    return grads


def _csr_from_pairs(src, dst, n_rows, n_cols) -> CsrAdjacency:
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    counts = np.bincount(src, minlength=n_rows)
    offsets = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return CsrAdjacency(offsets=offsets, cols=dst, n_rows=n_rows, n_cols=n_cols)


def build_plan(graph: BiGraph, spec, target_type: NodeType):
    """One relation's message plan toward `target_type`, self-loops spliced in by np.unique."""
    if target_type is spec.src_type:
        adj = graph.csr(spec.name)
    elif target_type is spec.dst_type:
        adj = graph.csr(spec.name, reverse=True)
    else:
        raise DirectionInvalid(f"relation {spec.name!r} has no {target_type.label} endpoint")
    n_t = graph.counts[target_type]
    edge_targets = np.repeat(np.arange(n_t, dtype=np.int64), np.diff(adj.offsets))
    sources = adj.cols
    if spec.is_intra:
        diag = np.arange(n_t, dtype=np.int64) * (n_t + 1)
        keys = np.unique(np.concatenate([edge_targets * n_t + sources, diag]))
        edge_targets, sources = np.divmod(keys, n_t)
    return _relation_plan(edge_targets, sources, n_t)


class _OldPlanGraph(BiGraph):
    def _build_plan(self, spec, target_type):
        return build_plan(self, spec, target_type)


def frozen_graph(sizes, feat, spec_map, codes, all_src, all_dst) -> BiGraph:
    """The graph of valid edge columns, whose message plans `build_plan` builds."""
    csr, csr_rev = {}, {}
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
    return _OldPlanGraph(sizes, feat, spec_map, csr, csr_rev)


def _validated_edges(spec_map: dict, sizes: dict, edges):
    """Relation codes (declaration order) and int64 src, dst columns of `edges`.

    All edges are checked at once; the first invalid one in iteration
    order raises exactly what `_edge_error` returns for it.
    """
    edges = list(edges)
    code_of = {name: k for k, name in enumerate(spec_map)}
    try:
        names, srcs, dsts = zip(*edges, strict=True) if edges else ((), (), ())
        codes = np.fromiter(map(code_of.get, names, repeat(-1)), dtype=np.int64,
                            count=len(edges))
        src = np.array(list(map(int, srcs)))
        dst = np.array(list(map(int, dsts)))
    except (TypeError, ValueError):
        # a malformed edge: replay the per-edge checks so the first bad edge raises
        for edge in edges:
            error = _edge_error(spec_map, sizes, edge)
            if error is not None:
                raise error
        raise
    bad = _bad_edges(spec_map, sizes, codes, src, dst)
    if bad.any():
        raise _edge_error(spec_map, sizes, edges[int(np.argmax(bad))])
    return codes, src.astype(np.int64), dst.astype(np.int64)


def build_graph(counts, features, relations, edges) -> BiGraph:
    sizes, feat, spec_map = _checked_parts(counts, features, relations)
    return frozen_graph(sizes, feat, spec_map, *_validated_edges(spec_map, sizes, edges))


def _pairs_within(ids, p, rng) -> list:
    if ids.size < 2 or p <= 0.0:
        return []
    iu, ju = np.triu_indices(ids.size, k=1)
    keep = rng.random(iu.size) < p
    return list(zip(ids[iu[keep]], ids[ju[keep]]))


def generate(config):
    """(graph, tasks) of `config`, built from one edge tuple at a time."""
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
    paper_feats = np.empty((n_p, cfg.feature_dim))
    for i in range(n_p):
        topic = np.mean([field_proto[f] for f in fields[i]], axis=0)
        paper_feats[i] = venue_proto[venue[i]] + topic
    paper_feats += rng_feat.normal(size=paper_feats.shape) * cfg.noise

    rng_auth = rng_for(cfg.seed, "authors")
    community = rng_auth.integers(cfg.n_venues, size=n_a)
    by_comm = [np.nonzero(community == c)[0] for c in range(cfg.n_venues)]
    edges = []
    papers_of = [[] for _ in range(n_a)]
    for i in range(n_p):
        count = int(rng_auth.integers(cfg.min_authors, cfg.max_authors + 1))
        chosen = []
        pool = by_comm[venue[i]]
        for _ in range(count):
            if pool.size and rng_auth.random() < cfg.p_community_author:
                cand = int(pool[rng_auth.integers(pool.size)])
            else:
                cand = int(rng_auth.integers(n_a))
            if cand not in chosen:
                chosen.append(cand)
        leads, supports = chosen[:2], chosen[2:]
        for a in leads:
            edges.append(("lead_author_of", a, i))
            papers_of[a].append(i)
        for a in supports:
            edges.append(("support_author_of", a, i))
            papers_of[a].append(i)
        for x in range(len(leads)):
            for z in range(x + 1, len(leads)):
                edges.append(("co_first", leads[x], leads[z]))
        for x in range(len(supports)):
            for z in range(x + 1, len(supports)):
                edges.append(("co_support", supports[x], supports[z]))

    rng_intra = rng_for(cfg.seed, "intra")
    for c in range(cfg.n_venues):
        edges.extend(("colleague", u, v)
                     for u, v in _pairs_within(by_comm[c], cfg.p_colleague, rng_intra))
    for v in range(cfg.n_venues):
        ids = np.nonzero(venue == v)[0]
        edges.extend(("same_venue", a, b)
                     for a, b in _pairs_within(ids, cfg.p_same_venue, rng_intra))
    for f in range(cfg.n_fields_l2):
        ids = np.nonzero(primary == f)[0]
        edges.extend(("same_field", a, b)
                     for a, b in _pairs_within(ids, cfg.p_same_field, rng_intra))
    by_field = [np.nonzero(primary == f)[0] for f in range(cfg.n_fields_l2)]
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
                edges.append(("cite", i, j))
                edges.append(("cited_by", j, i))

    features = {NodeType.A: np.zeros((n_a, cfg.feature_dim)), NodeType.B: paper_feats}
    graph = build_graph({NodeType.A: n_a, NodeType.B: n_p}, features, synth.RELATIONS, edges)
    author_feats, _ = mean_neighbor_features(
        graph, ["lead_author_of", "support_author_of"], NodeType.A)
    graph = _OldPlanGraph(graph.counts, {NodeType.A: author_feats, NodeType.B: paper_feats},
                          graph.relations, graph._csr, graph._csr_rev)
    return graph, synth._build_tasks(cfg, venue, fields, parent, year, papers_of)


_FLOAT_FMT = "%.9g"


def format_float(x: float) -> str:
    return _FLOAT_FMT % x


def write_node_table(path, column: str, values: dict[NodeType, np.ndarray]) -> None:
    """One row per node, A before B: its id, its class, then its `column`_j values."""
    dim = values[NodeType.A].shape[1]
    lines = ["\t".join([*_NODE_COLUMNS, *(f"{column}_{j}" for j in range(dim))])]
    row = "%d\t%s" + ("\t" + _FLOAT_FMT) * dim
    for t in (NodeType.A, NodeType.B):
        lines += [row % (i, t.label, *vals) for i, vals in enumerate(values[t].tolist())]
    write_lines(path, lines)


def save_graph_tsv(graph: BiGraph, directory) -> None:
    """Write nodes.tsv, edges.tsv, relations.tsv under `directory`."""
    os.makedirs(directory, exist_ok=True)
    write_node_table(os.path.join(directory, "nodes.tsv"), "feat", graph.features)

    lines = ["\t".join(_EDGE_COLUMNS)]
    for name in graph.relation_names():
        adj = graph.csr(name)
        src = np.repeat(np.arange(adj.n_rows), np.diff(adj.offsets))
        lines += [f"{name}\t{s}\t{d}" for s, d in zip(src.tolist(), adj.cols.tolist())]
    write_lines(os.path.join(directory, "edges.tsv"), lines)

    lines = ["\t".join(_RELATION_COLUMNS)]
    for name in graph.relation_names():
        s = graph.spec(name)
        lines.append(f"{name}\t{s.klass.value}\t{s.src_type.label}\t{s.dst_type.label}"
                     f"\t{'true' if s.symmetric else 'false'}")
    write_lines(os.path.join(directory, "relations.tsv"), lines)


def export_dataset(graph: BiGraph, tasks, directory) -> None:
    save_graph_tsv(graph, directory)
    lines = ["\t".join(synth._TASK_COLUMNS)]
    for task in tasks:
        lines.append(f"{task.name}\t{task.kind.value}\t{task.target_type.label}\t{task.n_classes}")
    write_lines(os.path.join(directory, "tasks.tsv"), lines)

    lines = ["\t".join(synth._LABEL_COLUMNS)]
    for task in tasks:
        if task.kind is TaskKind.LINK_RANKING:
            for inst in task.instances:
                rest = ",".join(str(c) for c in inst.candidates if c != inst.true_id)
                lines.append(f"{inst.query}\t{task.name}\t{inst.true_id},{rest}")
        else:
            for node in sorted(task.labels):
                lab = ",".join(str(c) for c in task.labels[node])
                lines.append(f"{node}\t{task.name}\t{lab}")
    write_lines(os.path.join(directory, "labels.tsv"), lines)

    lines = ["\t".join(synth._SPLIT_COLUMNS)]
    for task in tasks:
        for split in synth.SPLITS:
            ids = task.split_ids(split)
            if task.kind is TaskKind.LINK_RANKING:
                ids = np.array([task.instances[i].query for i in ids], dtype=np.int64)
            for node in sorted(int(i) for i in ids):
                lines.append(f"{node}\t{task.name}\t{split}")
    write_lines(os.path.join(directory, "splits.tsv"), lines)


def attention_tables(graph: BiGraph, records, out) -> None:
    """attn_intra.tsv and attn_inter.tsv of `duograph export-attn`."""
    intra_lines = ["layer\trelation\ttarget\tsource\talpha"]
    inter_lines = ["layer\trelation\tdirection\ttarget\tsource\talpha"]
    for rec in records.attention:
        cross = not graph.spec(rec.relation).is_intra  # no-dual records carry stage "unified"
        alpha = rec.alpha.reshape(-1)
        for e in range(rec.sources.size):
            tgt, src = int(rec.edge_targets[e]), int(rec.sources[e])
            val = format_float(alpha[e])
            if cross:
                inter_lines.append(f"{rec.layer}\t{rec.relation}\tto_{rec.target_type.label}"
                                   f"\t{tgt}\t{src}\t{val}")
            else:
                intra_lines.append(f"{rec.layer}\t{rec.relation}\t{tgt}\t{src}\t{val}")
    write_lines(os.path.join(out, "attn_intra.tsv"), intra_lines)
    write_lines(os.path.join(out, "attn_inter.tsv"), inter_lines)


def ablation_table(tasks, rows, out) -> None:
    """ablation.tsv of `duograph ablate`, from the rows of its ablation.json."""
    columns = [(f"{task.name}_{m}", task.name, m) for task in tasks
               for m in (("ndcg", "mrr") if task.kind is TaskKind.LINK_RANKING else ("acc",))]
    columns += [(key, "clustering", key) for key in ("nmi_mean", "ari_mean")]
    lines = ["\t".join(["variant", "seed"] + [header for header, _, _ in columns])]
    for row in rows:
        values = [row["report"].get(entry, {}).get(key) for _, entry, key in columns]
        lines.append("\t".join([row["variant"], str(row["seed"])] +
                                ["NA" if v is None else format_float(v) for v in values]))
    write_lines(os.path.join(out, "ablation.tsv"), lines)


@dataclass(frozen=True)
class Table:
    """The data rows of one TSV file, column by column.

    `columns[j]` holds the cells under `header[j]`, and `lines[k]` is the
    file line of row k, which every ParseError about the row names.
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

    def numbers(self, j: int, dtype=np.int64) -> np.ndarray:
        """Column j parsed as `dtype`; the first cell that is not a number fails."""
        cells = self.columns[j]
        try:
            return np.array(cells, dtype=dtype)
        except (ValueError, OverflowError):
            for k, cell in enumerate(cells):
                try:
                    np.array([cell], dtype=dtype)
                except (ValueError, OverflowError) as exc:
                    raise self.fail(k, f"{self.header[j]}: {exc}") from exc
            raise

    def codes(self, j: int, names) -> np.ndarray:
        """Column j as indices into `names`; the first cell not among them fails."""
        index = {name: k for k, name in enumerate(names)}
        cells = self.columns[j]
        codes = np.fromiter(map(index.get, cells, repeat(-1)), dtype=np.int64, count=len(self))
        self.reject(codes < 0, lambda k: f"{self.header[j]} {cells[k]!r} is not one of "
                                         f"{', '.join(index)}")
        return codes


def read_table(path, names: tuple, extra: bool = False) -> Table:
    """Read a TSV whose header row is `names`, followed by any number of
    further columns when `extra`. Every data row needs one cell per header
    column; blank lines are skipped.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise IoFailure(f"missing interchange file {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    first, *body = text.split("\n")
    header = tuple(first.split("\t"))
    if header[:len(names)] != names or (len(header) > len(names) and not extra):
        expected = "\t".join(names) + ("\t..." if extra else "")
        raise ParseError(path, 1, f"expected header {expected!r}")
    filled = np.fromiter(map(bool, body), dtype=bool, count=len(body))
    rows = list(compress(body, filled))
    lines = np.flatnonzero(filled) + 2
    n = len(header)
    widths = np.fromiter(map(str.count, rows, repeat("\t")), dtype=np.int64, count=len(rows)) + 1
    if (widths != n).any():
        k = int(np.argmax(widths != n))
        raise ParseError(path, int(lines[k]), f"expected {n} columns, got {widths[k]}")
    cells = "\t".join(rows).split("\t") if rows else []
    return Table(str(path), header, [cells[j::n] for j in range(n)], lines)


def rank_instance(query, true_id, distractors) -> RankInstance:
    cands = np.unique(np.append(np.asarray(distractors, dtype=np.int64), true_id))
    return RankInstance(query=int(query), candidates=cands,
                        true_index=int(np.searchsorted(cands, true_id)))


def load_graph_tsv(directory) -> BiGraph:
    """Read a graph written by save_graph_tsv."""
    table = read_table(os.path.join(directory, "relations.tsv"), _RELATION_COLUMNS)
    table.reject_repeats(lambda k: f"relation {table.columns[0][k]!r} declared twice",
                         table.columns[0])
    klasses, labels = list(RelationClass), [t.label for t in NodeType]
    relations = []
    for k, (name, klass, src_t, dst_t, sym) in enumerate(zip(
            table.columns[0], table.codes(1, [c.value for c in klasses]).tolist(),
            table.codes(2, labels).tolist(), table.codes(3, labels).tolist(),
            table.codes(4, ("false", "true")).tolist())):
        try:
            relations.append(RelationSpec(name, klasses[klass], NodeType(src_t),
                                          NodeType(dst_t), bool(sym)))
        except TypeMismatch as exc:
            raise table.fail(k, str(exc)) from exc

    nodes = read_table(os.path.join(directory, "nodes.tsv"), _NODE_COLUMNS, extra=True)
    ids, types = nodes.numbers(0), nodes.codes(1, labels)
    counts = np.bincount(types, minlength=2)
    if not counts.all():
        raise ParseError(nodes.path, 1, f"no nodes of type {labels[int(np.argmin(counts))]}")
    nodes.reject_repeats(lambda k: f"{labels[types[k]]} node {ids[k]} has a second row",
                         types, ids)
    nodes.reject((ids < 0) | (ids >= counts[types]),
                 lambda k: f"{labels[types[k]]} node {ids[k]} outside [0, {counts[types[k]]}):"
                           " ids of a type must be dense and 0-based")
    values = np.empty((len(nodes), len(nodes.header) - 2))
    for j in range(values.shape[1]):
        values[:, j] = nodes.numbers(j + 2, np.float64)
    values = values[np.lexsort((ids, types))]  # the A rows by id, then the B rows
    features = {NodeType.A: values[:counts[0]], NodeType.B: values[counts[0]:]}
    sizes, feat, spec_map = _checked_parts(
        {t: int(counts[t]) for t in NodeType}, features, relations)
    edges = read_table(os.path.join(directory, "edges.tsv"), _EDGE_COLUMNS)
    codes, src, dst = edges.codes(0, spec_map), edges.numbers(1), edges.numbers(2)
    edges.reject(_bad_edges(spec_map, sizes, codes, src, dst), lambda k: str(_edge_error(
        spec_map, sizes, (edges.columns[0][k], src[k], dst[k]))))
    return _frozen_graph(sizes, feat, spec_map, codes, src, dst)


def import_dataset(directory):
    """Read a dataset written by export_dataset; returns (graph, tasks).

    Every id in the task files must fit the graph and the task: a
    ParseError names the file and line of the first one that does not.
    """
    graph = load_graph_tsv(directory)
    table = read_table(os.path.join(directory, "tasks.tsv"), synth._TASK_COLUMNS)
    task_names = table.columns[0]
    table.reject_repeats(lambda k: f"task {task_names[k]!r} declared twice", task_names)
    kinds = list(TaskKind)
    kind = table.codes(1, [k.value for k in kinds])
    target, n_classes = table.codes(2, [t.label for t in NodeType]), table.numbers(3)
    ranking = kind == kinds.index(TaskKind.LINK_RANKING)
    table.reject(~ranking & (n_classes < 1),
                 lambda k: f"task {task_names[k]!r} needs at least one class")
    tasks = [TaskSpec(name=name, kind=kinds[k], target_type=NodeType(t), n_classes=n)
             for name, k, t, n in zip(task_names, kind.tolist(), target.tolist(),
                                      n_classes.tolist())]

    # labels.tsv: one row per labelled node or ranking query
    table = read_table(os.path.join(directory, "labels.tsv"), synth._LABEL_COLUMNS)
    owner, nodes = table.codes(1, task_names), table.numbers(0)
    cells = [cell.split(",") if cell else [] for cell in table.columns[2]]
    sizes = np.fromiter(map(len, cells), dtype=np.int64, count=len(table))
    table.reject(sizes == 0, lambda k: "empty label list")
    table.reject(np.array(["" in row for row in cells], dtype=bool),
                 lambda k: f"empty piece in label list {table.columns[2][k]!r}")
    row_of = np.repeat(np.arange(len(table)), sizes)
    id_table = Table(table.path, ("labels",), [list(chain.from_iterable(cells))],
                     table.lines[row_of])
    ids = id_table.numbers(0)
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
    values, ends = ids.tolist(), np.cumsum(sizes).tolist()
    for k, node, end, size in zip(owner.tolist(), nodes.tolist(), ends, sizes.tolist()):
        row = values[end - size:end]
        if ranking[k]:
            tasks[k].instances.append(rank_instance(node, row[0], row[1:]))
        else:
            tasks[k].labels[node] = tuple(sorted(row))
    for task in tasks:
        task.instances.sort(key=lambda inst: inst.query)

    # splits.tsv: one row per split member; a ranking member names its query
    table = read_table(os.path.join(directory, "splits.tsv"), synth._SPLIT_COLUMNS)
    member_of, split_of = table.codes(1, task_names), table.codes(2, synth.SPLITS)
    members = table.numbers(0)
    labelled = np.zeros(len(table), dtype=bool)
    for k in range(len(tasks)):
        mine = member_of == k
        labelled[mine] = np.isin(members[mine], nodes[owner == k])
    table.reject(~labelled, lambda k: f"task {task_names[member_of[k]]!r}: "
                                      f"{synth.SPLITS[split_of[k]]} node {members[k]} "
                                      "has no row in labels.tsv")
    table.reject_repeats(lambda k: f"task {task_names[member_of[k]]!r}: node {members[k]} "
                                   "has a second split row", member_of, members)
    for k, task in enumerate(tasks):
        split_ids = {s: np.sort(members[(member_of == k) & (split_of == j)])
                     for j, s in enumerate(synth.SPLITS)}
        if ranking[k]:
            queries = np.array([inst.query for inst in task.instances], dtype=np.int64)
            split_ids = {s: np.searchsorted(queries, q) for s, q in split_ids.items()}
        task.splits = split_ids
    return graph, tasks


class AdamW:
    """Per-tensor AdamW over `(name, Tensor)` pairs; `step(lr)` reads each `grad`."""

    def __init__(self, params, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.0):
        self.params = list(params)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self._m = {name: np.zeros_like(t.data) for name, t in self.params}
        self._v = {name: np.zeros_like(t.data) for name, t in self.params}

    def step(self, lr: float) -> None:
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for name, p in self.params:
            if self.weight_decay:
                p.data -= lr * self.weight_decay * p.data
            g = p.grad
            m = self._m[name]
            v = self._v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
