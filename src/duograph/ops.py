"""Differentiable primitives over 2-D tensors.

Each primitive computes its value with numpy, then (when a tape is active
and any input requires grad) records a closure that maps the output
gradient to input gradients. Backward closures are plain numpy and are
never themselves recorded.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptySegment, ShapeMismatch
from .tensor import Array, Tape, Tensor


def _result(data: Array, inputs: tuple, backward_fn) -> Tensor:
    tape = Tape.current()
    needs = tape is not None and any(
        isinstance(t, Tensor) and t.requires_grad for t in inputs
    )
    out = Tensor._wrap(data, needs)
    if needs:
        tape.record(out, inputs, backward_fn)
    return out


def _unbroadcast(g: Array, shape: tuple[int, int]) -> Array:
    # fold a broadcast gradient back onto the operand's shape
    if g.shape == shape:
        return g
    if shape[0] == 1 and g.shape[0] != 1:
        g = g.sum(axis=0, keepdims=True)
    if shape[1] == 1 and g.shape[1] != 1:
        g = g.sum(axis=1, keepdims=True)
    if g.shape != shape:
        raise ShapeMismatch(f"cannot reduce gradient {g.shape} to {shape}")
    return g


def _broadcastable(a: tuple[int, int], b: tuple[int, int]) -> bool:
    return all(x == y or x == 1 or y == 1 for x, y in zip(a, b))


def matmul(x: Tensor, w: Tensor) -> Tensor:
    """Matrix product [n,k] @ [k,m] -> [n,m]."""
    if x.shape[1] != w.shape[0]:
        raise ShapeMismatch(f"matmul {x.shape} @ {w.shape}")
    need_x, need_w = x.requires_grad, w.requires_grad
    xd, wd = x.data, w.data

    def bw(g: Array):
        gx = g @ wd.T if need_x else None
        gw = xd.T @ g if need_w else None
        return gx, gw

    return _result(xd @ wd, (x, w), bw)


def add(x: Tensor, y: Tensor) -> Tensor:
    """Elementwise sum; row, column, and scalar broadcasts allowed."""
    if not _broadcastable(x.shape, y.shape):
        raise ShapeMismatch(f"add {x.shape} + {y.shape}")
    xs, ys = x.shape, y.shape

    def bw(g: Array):
        return _unbroadcast(g, xs), _unbroadcast(g, ys)

    return _result(x.data + y.data, (x, y), bw)


def mul(x: Tensor, y: Tensor) -> Tensor:
    """Elementwise product; row, column, and scalar broadcasts allowed."""
    if not _broadcastable(x.shape, y.shape):
        raise ShapeMismatch(f"mul {x.shape} * {y.shape}")
    need_x, need_y = x.requires_grad, y.requires_grad
    xd, yd = x.data, y.data

    def bw(g: Array):
        gx = _unbroadcast(g * yd, xd.shape) if need_x else None
        gy = _unbroadcast(g * xd, yd.shape) if need_y else None
        return gx, gy

    return _result(xd * yd, (x, y), bw)


def scalar_mul(x: Tensor, c: float) -> Tensor:
    c = float(c)

    def bw(g: Array):
        return (g * c,)

    return _result(x.data * c, (x,), bw)


def _row_index(index, n_rows: int, what: str) -> Array:
    idx = np.asarray(index, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeMismatch(f"{what} must be 1-D")
    if idx.size and (idx.min() < 0 or idx.max() >= n_rows):
        raise ShapeMismatch(f"{what} out of range for {n_rows} rows")
    return idx


def gather_rows(x: Tensor, index) -> Tensor:
    """Select rows by integer index (repeats allowed)."""
    idx = _row_index(index, x.shape[0], "gather_rows index")
    n_rows, n_cols = x.shape

    def bw(g: Array):
        # bincount adds in index order, exactly as np.add.at would, but
        # without add.at's per-row dispatch
        flat = (idx[:, None] * n_cols + np.arange(n_cols)).ravel()
        gx = np.bincount(flat, weights=g.ravel(), minlength=n_rows * n_cols)
        return (gx.reshape(n_rows, n_cols),)

    return _result(np.take(x.data, idx, axis=0), (x,), bw)


def edge_scores(h_t: Tensor, h_s: Tensor, attn, targets, sources) -> Tensor:
    """GAT-split edge scores: (h_t @ attn[:d])[targets] + (h_s @ attn[d:])[sources].

    Equals [h_t[targets] || h_s[sources]] @ attn as an [E,1] column, but
    scores two node-level columns instead of building the [E,2d] concat.
    `attn` may also be a sequence of K [2d,1] vectors: h_t and h_s are then
    scored against all K at once, into row-major [n_t,K] and [n_s,K]
    matrices, and `targets` and `sources` are flat indices into those.
    """
    attns = (attn,) if isinstance(attn, Tensor) else tuple(attn)
    d, n_k = h_t.shape[1], len(attns)
    if h_s.shape[1] != d or n_k == 0 or any(a.shape != (2 * d, 1) for a in attns):
        raise ShapeMismatch(f"edge_scores {h_t.shape}, {h_s.shape} with "
                            f"attn {[a.shape for a in attns]}")
    t_idx = _row_index(targets, h_t.shape[0] * n_k, "edge_scores targets")
    s_idx = _row_index(sources, h_s.shape[0] * n_k, "edge_scores sources")
    if t_idx.size != s_idx.size:
        raise ShapeMismatch(f"edge_scores {t_idx.size} targets vs {s_idx.size} sources")
    need_t, need_s = h_t.requires_grad, h_s.requires_grad
    need_a = any(a.requires_grad for a in attns)
    td, sd = h_t.data, h_s.data
    a = attns[0].data if n_k == 1 else np.concatenate([a.data for a in attns], axis=1)
    a_t, a_s = a[:d], a[d:]
    out = (td @ a_t).reshape(-1, 1)[t_idx] + (sd @ a_s).reshape(-1, 1)[s_idx]

    def bw(g: Array):
        col = g[:, 0]
        g_t = np.bincount(t_idx, weights=col, minlength=td.shape[0] * n_k).reshape(-1, n_k)
        g_s = np.bincount(s_idx, weights=col, minlength=sd.shape[0] * n_k).reshape(-1, n_k)
        gt = g_t @ a_t.T if need_t else None
        gs = g_s @ a_s.T if need_s else None
        if not need_a:
            return (gt, gs, *(None,) * n_k)
        ga = np.concatenate((td.T @ g_t, sd.T @ g_s))
        return (gt, gs, *(ga[:, k:k + 1] for k in range(n_k)))

    return _result(out, (h_t, h_s, *attns), bw)


def scatter_rows(x: Tensor, index, n_rows: int) -> Tensor:
    """Place row i of x at position index[i] of an all-zero [n_rows, d] matrix."""
    idx = np.asarray(index, dtype=np.int64)
    if idx.ndim != 1 or idx.size != x.shape[0]:
        raise ShapeMismatch("scatter_rows needs one destination per row")
    if idx.size and (idx.min() < 0 or idx.max() >= n_rows):
        raise ShapeMismatch(f"scatter_rows destination out of range for {n_rows} rows")
    if idx.size and np.bincount(idx).max() > 1:
        raise ShapeMismatch("scatter_rows destinations must be unique")
    data = np.zeros((n_rows, x.shape[1]))
    data[idx] = x.data

    def bw(g: Array):
        return (g[idx],)

    return _result(data, (x,), bw)


def concat_cols(x: Tensor, y: Tensor) -> Tensor:
    """[n,a] || [n,b] -> [n,a+b]."""
    if x.shape[0] != y.shape[0]:
        raise ShapeMismatch(f"concat_cols rows {x.shape[0]} != {y.shape[0]}")
    split = x.shape[1]

    def bw(g: Array):
        return g[:, :split], g[:, split:]

    return _result(np.concatenate((x.data, y.data), axis=1), (x, y), bw)


def concat_rows(x: Tensor, y: Tensor) -> Tensor:
    """Stack vertically: [a,d] over [b,d] -> [a+b,d]."""
    if x.shape[1] != y.shape[1]:
        raise ShapeMismatch(f"concat_rows cols {x.shape[1]} != {y.shape[1]}")
    split = x.shape[0]

    def bw(g: Array):
        return g[:split], g[split:]

    return _result(np.concatenate((x.data, y.data), axis=0), (x, y), bw)


def reshape(x: Tensor, rows: int, cols: int) -> Tensor:
    if rows * cols != x.shape[0] * x.shape[1]:
        raise ShapeMismatch(f"reshape {x.shape} -> ({rows}, {cols})")
    old = x.shape

    def bw(g: Array):
        return (g.reshape(old),)

    return _result(x.data.reshape(rows, cols).copy(), (x,), bw)


def leaky_relu(x: Tensor, slope: float = 0.2) -> Tensor:
    """max(x, slope*x); the derivative at exactly 0 is defined as 1."""
    _check_slope(slope)
    keep = x.data >= 0.0  # a bool per entry, so the closure does not hold x

    def bw(g: Array):
        return (g * np.maximum(keep, slope),)

    return _result(np.maximum(x.data, slope * x.data), (x,), bw)


def _logistic(xd: Array) -> Array:
    """1 / (1 + exp(-x)) without overflow: exp(x) / (1 + exp(x)) where x < 0."""
    pos = xd >= 0
    val = np.empty_like(xd)
    val[pos] = 1.0 / (1.0 + np.exp(-xd[pos]))
    ex = np.exp(xd[~pos])
    val[~pos] = ex / (1.0 + ex)
    return val


def sigmoid(x: Tensor) -> Tensor:
    val = _logistic(x.data)

    def bw(g: Array):
        return (g * val * (1.0 - val),)

    return _result(val, (x,), bw)


def softplus(x: Tensor) -> Tensor:
    """log(1 + exp(x)), computed stably."""
    xd = x.data

    def bw(g: Array):
        return (g * _logistic(xd),)

    return _result(np.logaddexp(0.0, xd), (x,), bw)


def log(x: Tensor) -> Tensor:
    val = np.log(x.data)
    xd = x.data

    def bw(g: Array):
        return (g / xd,)

    return _result(val, (x,), bw)


def row_sum(x: Tensor) -> Tensor:
    """[n,d] -> [n,1]."""
    n_cols = x.shape[1]

    def bw(g: Array):
        return (np.repeat(g, n_cols, axis=1),)

    return _result(x.data.sum(axis=1, keepdims=True), (x,), bw)


def sum_all(x: Tensor) -> Tensor:
    """[n,d] -> scalar (1,1)."""
    shape = x.shape

    def bw(g: Array):
        return (np.full(shape, g[0, 0]),)

    return _result(np.array([[x.data.sum()]]), (x,), bw)


def _check_offsets(offsets: Array, total: int) -> None:
    if offsets.ndim != 1 or offsets.size < 2:
        raise ShapeMismatch("offsets must be 1-D with at least two entries")
    if offsets[0] != 0 or offsets[-1] != total:
        raise ShapeMismatch(f"offsets must span [0, {total}]")
    if np.any(np.diff(offsets) <= 0):
        raise EmptySegment("every segment must be non-empty")


def segment_softmax(scores: Tensor, offsets) -> Tensor:
    """Softmax within each contiguous segment of a [m,1] score column.

    `offsets` has k+1 entries partitioning [0, m); segments must be
    non-empty. The max of each segment is subtracted before exp.
    """
    off = np.asarray(offsets, dtype=np.int64)
    if scores.shape[1] != 1:
        raise ShapeMismatch(f"segment_softmax expects a column, got {scores.shape}")
    _check_offsets(off, scores.shape[0])
    starts = off[:-1]
    seg_len = np.diff(off)
    col = scores.data[:, 0]
    seg_max = np.maximum.reduceat(col, starts)
    e = np.exp(col - np.repeat(seg_max, seg_len))
    seg_sum = np.add.reduceat(e, starts)
    y = (e / np.repeat(seg_sum, seg_len)).reshape(-1, 1)

    def bw(g: Array):
        gy = g[:, 0] * y[:, 0]
        dot = np.add.reduceat(gy, starts)
        gx = y[:, 0] * (g[:, 0] - np.repeat(dot, seg_len))
        return (gx.reshape(-1, 1),)

    return _result(y, (scores,), bw)


@dataclass(frozen=True)
class DegreeLayout:
    """The edges of a segmented edge list, grouped by degree both ways.

    `target_perm` lists the edges group by group: the segments with k
    edges, in segment order, fill one run of n_k * k entries, so the run
    reshapes to the [n_k, k] edge positions of those segments.
    `target_groups` holds (k, segment ids) for each run. `source_perm`
    and `source_groups` do the same for the edges leaving each source
    node, taken in a stable source-sorted order, and `source_segments`
    is the segment of each edge in `source_perm` order.
    """

    n_edges: int
    n_segments: int
    target_perm: Array
    target_groups: tuple
    source_perm: Array
    source_groups: tuple
    source_segments: Array


def _stable_order(keys: Array) -> Array:
    """np.argsort(keys, kind="stable") of non-negative integer keys."""
    if keys.size and keys.max() < 1 << 16:
        keys = keys.astype(np.uint16)  # numpy radix-sorts 16-bit keys, ~10x faster
    return np.argsort(keys, kind="stable")


def _degree_groups(ids: Array, lengths: Array, edges: Array):
    """Group `ids` by edge count; `edges` holds the edges of ids[0], ids[1], ... in turn.

    Returns the edges reordered group by group (a stable sort, so each
    id's edges stay together and in order) and ((k, ids with k edges), ...).
    """
    order = _stable_order(lengths)
    lens = lengths[order]
    starts = (np.cumsum(lengths) - lengths)[order]   # where each id's edges begin in `edges`
    run_starts = np.cumsum(lens) - lens              # where they begin in the result
    perm = edges[np.repeat(starts - run_starts, lens) + np.arange(edges.size)]
    bounds = [0, *(np.flatnonzero(np.diff(lens)) + 1).tolist(), lens.size]
    sorted_ids = ids[order]
    return perm, tuple((int(lens[lo]), sorted_ids[lo:hi])
                       for lo, hi in zip(bounds[:-1], bounds[1:]))


def degree_layout(offsets, sources) -> DegreeLayout:
    """Degree groups of the edges that `offsets` segments; see `weighted_sum_rows`."""
    off = np.asarray(offsets, dtype=np.int64)
    src = np.asarray(sources, dtype=np.int64)
    if src.ndim != 1 or (src.size and src.min() < 0):
        raise ShapeMismatch("degree_layout sources must be 1-D and non-negative")
    _check_offsets(off, src.size)
    seg_len = np.diff(off)
    target_perm, target_groups = _degree_groups(np.arange(seg_len.size), seg_len,
                                                np.arange(src.size))
    out_degree = np.bincount(src)
    nodes = np.flatnonzero(out_degree)
    source_perm, source_groups = _degree_groups(nodes, out_degree[nodes], _stable_order(src))
    edge_segments = np.repeat(np.arange(seg_len.size), seg_len)
    return DegreeLayout(n_edges=src.size, n_segments=seg_len.size,
                        target_perm=target_perm, target_groups=target_groups,
                        source_perm=source_perm, source_groups=source_groups,
                        source_segments=edge_segments[source_perm])


# Bytes of gathered rows per piece of a degree group (2048 edges at d=64):
# a pass gathers every piece into one buffer that stays in a core's L2.
PIECE_BYTES = 1 << 20


def _pieces(groups, edges):
    """(ids, run slice, n, k) for each piece of each degree group, in layout order.

    A piece holds n ids with k edges each, at most `edges` edges unless one
    id alone has more. Splitting a group between whole ids keeps every id's
    batched matmul as it was.
    """
    start = 0
    for k, ids in groups:
        step = max(1, edges // k)
        for lo in range(0, ids.size, step):
            piece = ids[lo:lo + step]
            stop = start + piece.size * k
            yield piece, slice(start, stop), piece.size, k
            start = stop


def _take(table: Array, idx: Array, buf: Array, n: int, k: int) -> Array:
    """table[idx] as [n, k, d] in the front of `buf`; callers check idx."""
    d = table.shape[1]
    rows = buf[:idx.size * d].reshape(idx.size, d)
    np.take(table, idx, axis=0, mode="clip", out=rows)  # "raise" copies via a temporary
    return rows.reshape(n, k, d)


def weighted_sum_rows(weights: Tensor, values: Tensor, sources,
                      layout: DegreeLayout) -> Tensor:
    """Per segment s: sum of weights[e] * values[sources[e]] over its edges e.

    Returns [n_segments, d]. The source gather is fused into the sum.
    `layout` is `degree_layout(offsets, sources)`; each piece of a group of
    segments with k edges (see `_pieces`) gathers its source rows into one
    buffer that the pass reuses and sums them in one batched [1,k] @ [k,d]
    matmul, so no [E,d] block of rows is ever built or kept. The backward,
    with its own buffer, gathers each piece's rows again and takes each
    edge's weight gradient as a batched dot of its segment's output
    gradient with its row. It takes the values gradient as batched matmuls
    over pieces of the groups of source nodes with equal out-degree (values
    no edge reads get 0).
    """
    n_edges, d = layout.n_edges, values.shape[1]
    if weights.shape != (n_edges, 1):
        raise ShapeMismatch(f"weights {weights.shape} vs {n_edges} edges")
    src = _row_index(sources, values.shape[0], "weighted_sum_rows sources")
    if src.size != n_edges:
        raise ShapeMismatch(f"weighted_sum_rows {src.size} sources vs {n_edges} edges")
    need_w, need_v = weights.requires_grad, values.requires_grad
    vd = values.data
    w = weights.data[:, 0]
    w_t = w[layout.target_perm]
    src_t = src[layout.target_perm]
    edges = max(1, PIECE_BYTES // (8 * max(d, 1)))
    hub = max((k for k, _ in layout.target_groups + layout.source_groups), default=0)
    buf_size = min(max(edges, hub), n_edges) * d  # room for the widest piece
    out = np.empty((layout.n_segments, d))
    buf = np.empty(buf_size)  # last, so its free leaves no heap hole under live arrays
    for segs, run, n, k in _pieces(layout.target_groups, edges):
        rows = _take(vd, src_t[run], buf, n, k)
        out[segs] = np.matmul(w_t[run].reshape(n, 1, k), rows)[:, 0, :]

    def bw(g: Array):
        gw = np.empty((n_edges, 1)) if need_w else None
        gv = np.zeros(vd.shape) if need_v else None
        buf = np.empty(buf_size)  # the forward's was freed on return
        if gw is not None:
            for segs, run, n, k in _pieces(layout.target_groups, edges):
                rows = _take(vd, src_t[run], buf, n, k)
                gw[layout.target_perm[run], 0] = np.matmul(rows, g[segs][:, :, None]).ravel()
        if gv is not None:
            for nodes, run, n, k in _pieces(layout.source_groups, edges):
                g_rows = _take(g, layout.source_segments[run], buf, n, k)
                w_s = w[layout.source_perm[run]].reshape(n, 1, k)
                gv[nodes] = np.matmul(w_s, g_rows)[:, 0, :]
        return gw, gv

    return _result(out, (weights, values), bw)


def _check_slope(slope: float) -> None:
    if not 0.0 < slope < 1.0:
        raise ShapeMismatch(f"leaky_relu slope must lie in (0, 1), got {slope}")


def layer_norm(x: Tensor, gain, bias, runs=None, eps: float = 1e-5,
               slope: float | None = None) -> Tensor:
    """Row-wise standardization (population variance) with affine output.

    `gain` and `bias` are (1, d) tensors, or K of each with `runs` the K
    row slices, in order and covering x, that each pair applies to. With
    a `slope`, the output is activated in place as `leaky_relu` would
    activate it, and the backward folds the slope into `g` as
    `leaky_relu`'s backward would: the same bytes, without keeping the
    norm's output alive beside the activation's.
    """
    n, d = x.shape
    if d < 2:
        raise ShapeMismatch("layer_norm needs at least 2 columns")
    if slope is not None:
        _check_slope(slope)
    gains = (gain,) if isinstance(gain, Tensor) else tuple(gain)
    biases = (bias,) if isinstance(bias, Tensor) else tuple(bias)
    runs = (slice(0, n),) if runs is None else tuple(runs)
    if not len(gains) == len(biases) == len(runs) or any(
            t.shape != (1, d) for t in gains + biases):
        raise ShapeMismatch(f"layer_norm needs one (1, {d}) gain and bias per run")
    if [r.start for r in runs] != [0, *(r.stop for r in runs[:-1])] or runs[-1].stop != n:
        raise ShapeMismatch(f"layer_norm runs must cover the {n} rows in order")
    need_x = x.requires_grad
    gain_data = [gn.data for gn in gains]
    need_gain = [gn.requires_grad for gn in gains]
    need_bias = [bs.requires_grad for bs in biases]
    xd = x.data
    # sum / d is what ndarray.mean and .var compute, minus their overhead;
    # xhat holds the centered rows until it is scaled in place
    xhat = xd - xd.sum(axis=1, keepdims=True) / d
    out = np.multiply(xhat, xhat)
    inv = 1.0 / np.sqrt(out.sum(axis=1, keepdims=True) / d + eps)
    xhat *= inv
    for run, gd, bs in zip(runs, gain_data, biases):
        np.multiply(xhat[run], gd, out=out[run])
        out[run] += bs.data
    keep = None if slope is None else out >= 0.0
    if keep is not None:
        np.maximum(out, slope * out, out=out)  # leaky_relu, in place

    def bw(g: Array):
        if keep is not None:
            g = g * np.maximum(keep, slope)  # leaky_relu's backward
        scratch = np.empty_like(g)
        gy = np.empty_like(g) if need_x else None
        g_gain, g_bias = [], []
        for run, gd, ng, nb in zip(runs, gain_data, need_gain, need_bias):
            g_bias.append(g[run].sum(axis=0, keepdims=True) if nb else None)
            if ng:
                np.multiply(g[run], xhat[run], out=scratch[run])
                g_gain.append(scratch[run].sum(axis=0, keepdims=True))
            else:
                g_gain.append(None)
            if gy is not None:
                np.multiply(g[run], gd, out=gy[run])
        if gy is not None:  # gx = (gy - m1 - xhat * m2) * inv
            m1 = gy.sum(axis=1, keepdims=True) / d
            np.multiply(gy, xhat, out=scratch)
            m2 = scratch.sum(axis=1, keepdims=True) / d
            gy -= m1
            np.multiply(xhat, m2, out=scratch)
            gy -= scratch
            gy *= inv
        return (gy, *g_gain, *g_bias)

    return _result(out, (x, *gains, *biases), bw)


def combine_blocks(coeff: Tensor, blocks: Tensor) -> Tensor:
    """Sum over k of coeff[:, k] times the k-th [n,d] run of a [K*n, d] block.

    Adds the K weighted runs in order, as a chain of mul and add would.
    """
    n, n_k = coeff.shape
    if blocks.shape[0] != n * n_k or n_k == 0:
        raise ShapeMismatch(f"combine_blocks {coeff.shape} weights over {blocks.shape} rows")
    need_c, need_b = coeff.requires_grad, blocks.requires_grad
    cd, bd = coeff.data, blocks.data
    runs = [slice(k * n, (k + 1) * n) for k in range(n_k)]
    out = cd[:, :1] * bd[runs[0]]
    term = np.empty_like(out)
    for k in range(1, n_k):
        np.multiply(cd[:, k:k + 1], bd[runs[k]], out=term)
        out += term

    def bw(g: Array):
        gc = gb = None
        if need_c:
            gc = np.empty((n, n_k))
            term = np.empty_like(g)
            for k, run in enumerate(runs):
                gc[:, k] = np.multiply(g, bd[run], out=term).sum(axis=1)
        if need_b:
            gb = np.empty_like(bd)
            for k, run in enumerate(runs):
                np.multiply(g, cd[:, k:k + 1], out=gb[run])
        return gc, gb

    return _result(out, (coeff, blocks), bw)


def residual_mix(new: Tensor, old: Tensor, weight: float, slope: float) -> Tensor:
    """weight * leaky_relu(new, slope) + (1 - weight) * old.

    The same float operations, in the same order, as that chain of
    leaky_relu, two scalar_mul and add, as one record that keeps one bool
    mask instead of three intermediate arrays.
    """
    if new.shape != old.shape:
        raise ShapeMismatch(f"residual_mix {new.shape} vs {old.shape}")
    _check_slope(slope)
    w, w_old = float(weight), float(1.0 - weight)
    nd = new.data
    keep = nd >= 0.0
    out = np.maximum(nd, slope * nd)
    out *= w
    out += old.data * w_old

    def bw(g: Array):
        return (g * w) * np.maximum(keep, slope), g * w_old

    return _result(out, (new, old), bw)


def masked_softmax_rows(x: Tensor, mask) -> Tensor:
    """Row softmax restricted to mask-true entries.

    Masked-out entries get exactly 0. Rows whose mask is entirely false
    yield an all-zero row (callers use this for nodes with no incident
    relations) rather than an error.
    """
    m = np.asarray(mask, dtype=bool)
    if m.shape != x.shape:
        raise ShapeMismatch(f"mask {m.shape} vs scores {x.shape}")
    xd = x.data
    row_max = np.where(m, xd, -np.inf).max(axis=1, keepdims=True)
    safe_max = np.where(np.isfinite(row_max), row_max, 0.0)
    e = np.where(m, np.exp(np.where(m, xd - safe_max, 0.0)), 0.0)
    denom = e.sum(axis=1, keepdims=True)
    y = np.divide(e, denom, out=np.zeros_like(e), where=denom > 0)

    def bw(g: Array):
        dot = (g * y).sum(axis=1, keepdims=True)
        return (y * (g - dot),)

    return _result(y, (x,), bw)


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted-scaling dropout; identity when rate == 0."""
    if not 0.0 <= rate < 1.0:
        raise ShapeMismatch(f"dropout rate must lie in [0, 1), got {rate}")
    if rate == 0.0:
        return x
    keep = rng.random(x.shape) >= rate
    scale = 1.0 / (1.0 - rate)
    factor = keep * scale

    def bw(g: Array):
        return (g * factor,)

    return _result(x.data * factor, (x,), bw)


def constant(data) -> Tensor:
    """Untracked tensor for labels, masks, and other fixed coefficients."""
    return Tensor(data, requires_grad=False)
