"""Differentiable primitives over 2-D tensors.

Each primitive computes its value with numpy, then (when a tape is active
and any input requires grad) records a closure that maps the output
gradient to input gradients. Backward closures are plain numpy and are
never themselves recorded.
"""
from __future__ import annotations

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
    xd, wd = x.data, w.data

    def bw(g: Array):
        gx = g @ wd.T if x.requires_grad else None
        gw = xd.T @ g if w.requires_grad else None
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
    xd, yd = x.data, y.data

    def bw(g: Array):
        gx = _unbroadcast(g * yd, xd.shape) if x.requires_grad else None
        gy = _unbroadcast(g * xd, yd.shape) if y.requires_grad else None
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


def edge_scores(h_t: Tensor, h_s: Tensor, attn: Tensor, targets, sources) -> Tensor:
    """GAT-split edge scores: (h_t @ attn[:d])[targets] + (h_s @ attn[d:])[sources].

    Equals [h_t[targets] || h_s[sources]] @ attn as an [E,1] column, but
    scores two node-level columns instead of building the [E,2d] concat.
    """
    d = h_t.shape[1]
    if h_s.shape[1] != d or attn.shape != (2 * d, 1):
        raise ShapeMismatch(f"edge_scores {h_t.shape}, {h_s.shape} with attn {attn.shape}")
    t_idx = _row_index(targets, h_t.shape[0], "edge_scores targets")
    s_idx = _row_index(sources, h_s.shape[0], "edge_scores sources")
    if t_idx.size != s_idx.size:
        raise ShapeMismatch(f"edge_scores {t_idx.size} targets vs {s_idx.size} sources")
    td, sd = h_t.data, h_s.data
    a_t, a_s = attn.data[:d], attn.data[d:]

    def bw(g: Array):
        col = g[:, 0]
        g_t = np.bincount(t_idx, weights=col, minlength=td.shape[0]).reshape(-1, 1)
        g_s = np.bincount(s_idx, weights=col, minlength=sd.shape[0]).reshape(-1, 1)
        gt = g_t @ a_t.T if h_t.requires_grad else None
        gs = g_s @ a_s.T if h_s.requires_grad else None
        ga = np.concatenate((td.T @ g_t, sd.T @ g_s)) if attn.requires_grad else None
        return gt, gs, ga

    return _result((td @ a_t)[t_idx] + (sd @ a_s)[s_idx], (h_t, h_s, attn), bw)


def scatter_rows(x: Tensor, index, n_rows: int) -> Tensor:
    """Place row i of x at position index[i] of an all-zero [n_rows, d] matrix."""
    idx = np.asarray(index, dtype=np.int64)
    if idx.ndim != 1 or idx.size != x.shape[0]:
        raise ShapeMismatch("scatter_rows needs one destination per row")
    if idx.size and (idx.min() < 0 or idx.max() >= n_rows):
        raise ShapeMismatch(f"scatter_rows destination out of range for {n_rows} rows")
    if idx.size != np.unique(idx).size:
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


def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    if not (0 <= start < stop <= x.shape[1]):
        raise ShapeMismatch(f"slice_cols [{start}:{stop}] of {x.shape}")
    n_rows, n_cols = x.shape

    def bw(g: Array):
        gx = np.zeros((n_rows, n_cols))
        gx[:, start:stop] = g
        return (gx,)

    return _result(x.data[:, start:stop].copy(), (x,), bw)


def reshape(x: Tensor, rows: int, cols: int) -> Tensor:
    if rows * cols != x.shape[0] * x.shape[1]:
        raise ShapeMismatch(f"reshape {x.shape} -> ({rows}, {cols})")
    old = x.shape

    def bw(g: Array):
        return (g.reshape(old),)

    return _result(x.data.reshape(rows, cols).copy(), (x,), bw)


def leaky_relu(x: Tensor, slope: float = 0.2) -> Tensor:
    """max(x, slope*x); the derivative at exactly 0 is defined as 1."""
    if not 0.0 < slope < 1.0:
        raise ShapeMismatch(f"leaky_relu slope must lie in (0, 1), got {slope}")
    keep = x.data >= 0.0

    def bw(g: Array):
        return (g * np.where(keep, 1.0, slope),)

    return _result(np.where(keep, x.data, slope * x.data), (x,), bw)


def sigmoid(x: Tensor) -> Tensor:
    xd = x.data
    pos = xd >= 0
    val = np.empty_like(xd)
    val[pos] = 1.0 / (1.0 + np.exp(-xd[pos]))
    ex = np.exp(xd[~pos])
    val[~pos] = ex / (1.0 + ex)

    def bw(g: Array):
        return (g * val * (1.0 - val),)

    return _result(val, (x,), bw)


def softplus(x: Tensor) -> Tensor:
    """log(1 + exp(x)), computed stably."""
    val = np.logaddexp(0.0, x.data)
    xd = x.data

    def bw(g: Array):
        pos = xd >= 0
        sig = np.empty_like(xd)
        sig[pos] = 1.0 / (1.0 + np.exp(-xd[pos]))
        ex = np.exp(xd[~pos])
        sig[~pos] = ex / (1.0 + ex)
        return (g * sig,)

    return _result(val, (x,), bw)


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


def weighted_sum_rows(weights: Tensor, values: Tensor, offsets) -> Tensor:
    """Per segment s: sum_i weights[i] * values[i] over rows i in s -> [k,d]."""
    off = np.asarray(offsets, dtype=np.int64)
    if weights.shape != (values.shape[0], 1):
        raise ShapeMismatch(f"weights {weights.shape} vs values {values.shape}")
    _check_offsets(off, values.shape[0])
    starts = off[:-1]
    seg_len = np.diff(off)
    wd, vd = weights.data, values.data
    out = np.add.reduceat(wd * vd, starts, axis=0)

    def bw(g: Array):
        g_rows = np.repeat(g, seg_len, axis=0)
        gw = (g_rows * vd).sum(axis=1, keepdims=True) if weights.requires_grad else None
        gv = g_rows * wd if values.requires_grad else None
        return gw, gv

    return _result(out, (weights, values), bw)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Row-wise standardization (population variance) with affine output."""
    n, d = x.shape
    if d < 2:
        raise ShapeMismatch("layer_norm needs at least 2 columns")
    if gain.shape != (1, d) or bias.shape != (1, d):
        raise ShapeMismatch(f"gain/bias must be (1, {d})")
    # sum / d is what ndarray.mean and .var compute, minus their overhead
    centered = x.data - x.data.sum(axis=1, keepdims=True) / d
    var = (centered * centered).sum(axis=1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    gd = gain.data

    def bw(g: Array):
        gy = g * gd
        gb = g.sum(axis=0, keepdims=True) if bias.requires_grad else None
        gg = (g * xhat).sum(axis=0, keepdims=True) if gain.requires_grad else None
        if x.requires_grad:
            m1 = gy.sum(axis=1, keepdims=True) / d
            m2 = (gy * xhat).sum(axis=1, keepdims=True) / d
            gx = (gy - m1 - xhat * m2) * inv
        else:
            gx = None
        return gx, gg, gb

    return _result(xhat * gd + bias.data, (x, gain, bias), bw)


def softmax_rows(x: Tensor) -> Tensor:
    xd = x.data
    e = np.exp(xd - xd.max(axis=1, keepdims=True))
    y = e / e.sum(axis=1, keepdims=True)

    def bw(g: Array):
        dot = (g * y).sum(axis=1, keepdims=True)
        return (y * (g - dot),)

    return _result(y, (x,), bw)


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
