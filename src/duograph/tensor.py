"""Dense 2-D float64 tensors with tape-based reverse-mode differentiation.

The tape records every primitive application while active; `backward`
replays the records in exact reverse order and accumulates gradients
additively. A tape is one-shot: replaying it twice is an error.
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


class Tensor:
    """A 2-D float64 value; scalars are stored as shape (1, 1)."""

    __slots__ = ("data", "requires_grad", "_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_matrix(data)
        self.requires_grad = requires_grad
        self._grad = None

    @classmethod
    def _wrap(cls, data: Array, requires_grad: bool) -> "Tensor":
        # internal fast path: `data` is already a fresh 2-D float64 array
        out = cls.__new__(cls)
        out.data = data
        out.requires_grad = requires_grad
        out._grad = None
        return out

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    @property
    def grad(self) -> Array:
        """Accumulated gradient; zero until backward reaches this tensor.

        `backward` leaves a gradient only on leaf tensors; a recorded
        output's gradient is gone once its closure has consumed it.
        """
        if self._grad is None:
            return np.zeros_like(self.data)
        return self._grad

    def accumulate_grad(self, g: Array) -> None:
        if g.shape != self.data.shape:
            raise ShapeMismatch(f"gradient shape {g.shape} != value shape {self.data.shape}")
        if self._grad is None:
            # a fresh array equal to zeros + g, -0.0 entries included
            self._grad = g + 0.0
        else:
            self._grad += g

    def zero_grad(self) -> None:
        self._grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Records primitive applications for one forward pass."""

    _stack: list["Tape"] = []

    def __init__(self):
        self._records: list[tuple[Tensor, tuple, object] | None] = []
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

    def record(self, out: Tensor, inputs: tuple, backward_fn) -> None:
        self._records.append((out, inputs, backward_fn))

    def __len__(self) -> int:
        return len(self._records)


def backward(tape: Tape, loss: Tensor) -> None:
    """Accumulate d(loss)/d(input) into every leaf tensor's grad.

    `loss` must be 1x1. The walk drops each record from the tape, with its
    closure and the forward arrays the closure saved (`len(tape)` still
    counts them), and each recorded output's gradient once the closure has
    read it, so afterwards only leaf tensors (parameters and other inputs
    no record produced) hold a gradient. Tensors never visited keep a zero
    gradient.
    """
    if loss.data.shape != (1, 1):
        raise NonScalarLoss(f"loss has shape {loss.data.shape}, expected (1, 1)")
    if tape._consumed:
        raise TapeConsumed("backward was already run on this tape")
    tape._consumed = True
    loss.accumulate_grad(np.ones((1, 1)))
    for k in reversed(range(len(tape))):
        (out, inputs, backward_fn), tape._records[k] = tape._records[k], None
        g, out._grad = out._grad, None
        if g is None:
            continue
        for tensor, grad in zip(inputs, backward_fn(g)):
            if tensor is None or grad is None:
                continue
            if tensor.requires_grad:
                tensor.accumulate_grad(grad)


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


def load_tensors(path) -> list[tuple[str, Array]]:
    header, payload = _read_checkpoint(path, payload=True)
    entries = header["tensors"]
    flat = np.frombuffer(payload, dtype="<f8")
    out = []
    offset = 0
    for name, shape in entries:
        rows, cols = int(shape[0]), int(shape[1])
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
