"""Dense 2-D float64 tensors with tape-based reverse-mode differentiation.

The tape records every primitive application while active; `backward`
replays the records in exact reverse order and accumulates gradients
additively. A record keeps its output's shape, not the output: a forward
array stays alive only while the caller holds its tensor or a backward
closure saved it. A tape is one-shot: replaying it twice is an error.

A backward closure returns, for each input, None, a fresh array, its `g`,
or a view of `g`; never an array its forward saved. A fresh float64
array of the input's shape that no other returned array overlaps becomes
the input slot's gradient as it is, and later gradients of that slot are
added into it in place, so an array the closure still reads would be
corrupted. Anything else is copied first.
"""
from __future__ import annotations

import json

import numpy as np

from .errors import IoFailure, NonScalarLoss, ShapeMismatch, TapeConsumed

Array = np.ndarray


def _as_matrix(data) -> Array:
    arr = np.array(data, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    elif arr.ndim != 2:
        raise ShapeMismatch(f"tensors are 2-D, got ndim={arr.ndim}")
    return arr


def _owned(grad: Array, g: Array, outs: tuple, shape: tuple[int, int]) -> bool:
    """Whether a closure's `grad` may become a slot's first gradient uncopied.

    It must be a writable float64 array of the slot's shape that shares no
    memory with the closure's `g` or with another array the closure
    returned (an array returned for two inputs overlaps itself twice).
    """
    return (grad.dtype == np.float64 and grad.shape == shape and grad.flags.writeable
            and not np.may_share_memory(grad, g)
            and sum(o is not None and np.may_share_memory(o, grad) for o in outs) == 1)


def _sum_into(held: Array | None, g: Array, shape: tuple[int, int]) -> Array:
    """`held + g`, reusing `held`; the first gradient is a fresh zeros + g."""
    if g.shape != shape:
        raise ShapeMismatch(f"gradient shape {g.shape} != value shape {shape}")
    if held is None:
        # a fresh array equal to zeros + g, -0.0 entries included
        return g + 0.0
    held += g
    return held


class Tensor:
    """A 2-D float64 value; scalars are stored as shape (1, 1).

    `_slot` is None, or (token, index) once a tape records the tensor as
    the output of its index-th record; the token is the tape's, not the
    tape, so a kept output does not keep a dropped tape's records.
    """

    __slots__ = ("data", "requires_grad", "_grad", "_slot")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_matrix(data)
        self.requires_grad = requires_grad
        self._grad = None
        self._slot = None

    @classmethod
    def _wrap(cls, data: Array, requires_grad: bool) -> "Tensor":
        # op-result fast path: `data` is a fresh 2-D float64 array (parameters' are vector views)
        out = cls.__new__(cls)
        out.data = data
        out.requires_grad = requires_grad
        out._grad = None
        out._slot = None
        return out

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    @property
    def grad(self) -> Array:
        """Accumulated gradient; zero until backward reaches this tensor.

        `backward` leaves a gradient only on leaf tensors. A recorded
        output's gradient lives in the walk's slot list, never here, so
        it reads zero.
        """
        if self._grad is None:
            return np.zeros_like(self.data)
        return self._grad

    def accumulate_grad(self, g: Array) -> None:
        self._grad = _sum_into(self._grad, g, self.data.shape)

    def zero_grad(self) -> None:
        self._grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Records primitive applications for one forward pass.

    Each record is (output shape, input references, backward closure). An
    input this tape recorded is referenced by its slot, the index of its
    record; a leaf that requires grad (a parameter, or an output of
    another tape) by the tensor itself; any other input by None. Outputs
    are not held, so a forward array no closure saved is freed as soon as
    the caller drops its tensor.
    """

    _stack: list["Tape"] = []

    def __init__(self):
        self._records: list[tuple[tuple[int, int], tuple, object] | None] = []
        self._token = object()
        self._consumed = False

    def __enter__(self) -> "Tape":
        Tape._stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = Tape._stack.pop()
        if popped is not self:
            raise RuntimeError("tape stack corrupted")

    @staticmethod
    def current() -> "Tape | None":
        return Tape._stack[-1] if Tape._stack else None

    def slot(self, t: Tensor) -> int | None:
        """The index of the record whose output `t` is, or None if this tape did not record it."""
        link = t._slot
        return link[1] if link is not None and link[0] is self._token else None

    def _ref(self, t: Tensor) -> "int | Tensor | None":
        slot = self.slot(t)
        if slot is not None:
            return slot
        return t if t.requires_grad else None

    def record(self, out: Tensor, inputs: tuple, backward_fn) -> None:
        refs = tuple(self._ref(t) for t in inputs)
        out._slot = (self._token, len(self._records))
        self._records.append((out.data.shape, refs, backward_fn))

    def __len__(self) -> int:
        return len(self._records)


def backward(tape: Tape, loss: Tensor) -> None:
    """Accumulate d(loss)/d(input) into every leaf tensor's grad.

    `loss` must be 1x1. Gradients of recorded outputs live in a list
    indexed by slot, summed as `Tensor.accumulate_grad` sums, except that a
    fresh array a closure returns becomes its slot's first gradient without
    a copy (see the module docstring for what a closure may return); only
    leaves get theirs through `accumulate_grad`, which still copies, so a
    leaf's gradient never holds -0.0 or an array a closure returned. The
    walk drops each record from the tape, with
    its closure and the forward arrays the closure saved (`len(tape)`
    still counts them), and each slot's gradient once the closure has
    read it, so afterwards only leaf tensors hold a gradient. Tensors
    never visited keep a zero gradient.
    """
    if loss.data.shape != (1, 1):
        raise NonScalarLoss(f"loss has shape {loss.data.shape}, expected (1, 1)")
    if tape._consumed:
        raise TapeConsumed("backward was already run on this tape")
    tape._consumed = True
    records = tape._records
    grads: list[Array | None] = [None] * len(records)
    top = tape.slot(loss)
    if top is None:
        loss.accumulate_grad(np.ones((1, 1)))
    else:
        grads[top] = np.ones((1, 1))
    for k in reversed(range(len(records))):
        (_, refs, backward_fn), records[k] = records[k], None
        g, grads[k] = grads[k], None
        if g is None:
            continue
        outs = backward_fn(g)
        for ref, grad in zip(refs, outs):
            if ref is None or grad is None:
                continue
            if type(ref) is int:
                shape, held = records[ref][0], grads[ref]
                if held is None and _owned(grad, g, outs, shape):
                    grads[ref] = grad
                else:
                    grads[ref] = _sum_into(held, grad, shape)
            else:
                ref.accumulate_grad(grad)


# checkpoint interchange: one JSON header line, then little-endian float64
# payload holding every tensor flattened in header order. The header may
# also carry a `meta` object that the payload does not depend on.

def save_tensors(path, named: list[tuple[str, Tensor]], meta: dict | None = None) -> None:
    header = {"tensors": [[name, list(t.data.shape)] for name, t in named]}
    if meta is not None:
        header["meta"] = meta
    try:
        with open(path, "wb") as fh:
            fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
            fh.write(b"\n")
            for _, t in named:
                fh.write(np.ascontiguousarray(t.data, dtype="<f8").tobytes())
    except OSError as exc:
        raise IoFailure(f"cannot write checkpoint {path}: {exc}") from exc


def _read_checkpoint(path, payload: bool) -> tuple[dict, bytes]:
    try:
        with open(path, "rb") as fh:
            header_line = fh.readline()
            data = fh.read() if payload else b""
    except OSError as exc:
        raise IoFailure(f"cannot read checkpoint {path}: {exc}") from exc
    try:
        header = json.loads(header_line.decode("utf-8"))
        header["tensors"]  # every header lists its tensors
    except (ValueError, KeyError, TypeError) as exc:
        raise IoFailure(f"malformed checkpoint header in {path}: {exc}") from exc
    return header, data


def load_meta(path) -> dict | None:
    """The header's `meta` object, or None for a checkpoint saved without one."""
    return _read_checkpoint(path, payload=False)[0].get("meta")


def _header_entries(path, entries) -> list[tuple[str, int, int]]:
    """(name, rows, cols) of each `[name, [rows, cols]]` entry of a header's tensor list."""
    if not isinstance(entries, list):
        raise IoFailure(f"malformed checkpoint header in {path}: tensors must be a list")
    out = []
    for i, entry in enumerate(entries):
        if not (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)
                and isinstance(entry[1], list) and len(entry[1]) == 2
                and all(type(n) is int and n >= 0 for n in entry[1])):  # no bools
            raise IoFailure(f"malformed checkpoint header in {path}: tensor entry {i} "
                            f"{entry!r} is not [name, [rows, cols]]")
        out.append((entry[0], *entry[1]))
    return out


def load_tensors(path) -> list[tuple[str, Array]]:
    header, payload = _read_checkpoint(path, payload=True)
    entries = _header_entries(path, header["tensors"])
    flat = np.frombuffer(payload, dtype="<f8")
    out = []
    offset = 0
    for name, rows, cols in entries:
        size = rows * cols
        if offset + size > flat.size:
            raise IoFailure(f"checkpoint {path} truncated at tensor {name!r}")
        values = flat[offset:offset + size]
        if not np.isfinite(values).all():
            raise IoFailure(f"checkpoint {path} tensor {name!r} holds NaN or infinite values")
        out.append((name, values.reshape(rows, cols).astype(np.float64)))
        offset += size
    if offset != flat.size:
        raise IoFailure(f"checkpoint {path} has {flat.size - offset} trailing values")
    return out
