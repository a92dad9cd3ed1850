"""Exception types shared across the package.

Every contract violation raises one of these instead of a bare assert so
callers can distinguish bad input from bugs. `check_fields` is the field
type check that the model and generator configs share.
"""
import math
from dataclasses import fields
from numbers import Integral, Real


class Error(Exception):
    """Base class for all duograph errors."""


# graph construction / lookup

class TypeMismatch(Error):
    """Edge endpoint's node type disagrees with the relation declaration."""


class DanglingNode(Error):
    """Edge references a node id outside the declared count."""


class DimensionMismatch(Error):
    """Feature matrices disagree with declared node counts or dimension."""


class UnknownRelation(Error):
    """Relation name was never declared."""


class NodeOutOfRange(Error):
    """Node id is outside [0, n) for its type."""


# tensor engine

class ShapeMismatch(Error):
    """Operands have incompatible shapes for the requested primitive."""


class EmptySegment(Error):
    """A segment or mask row contains no elements where one is required."""


class NonScalarLoss(Error):
    """backward() was called on a tensor that is not 1x1."""


class TapeConsumed(Error):
    """backward() was called twice on the same tape."""


class StepOutOfRange(Error):
    """Schedule step lies outside [0, total]."""


# encoders

class RelationClassMismatch(Error):
    """Relation passed to an encoder stage of the wrong class."""


class NoRelations(Error):
    """Fusion over an empty relation list."""


class DirectionInvalid(Error):
    """Requested target type is not an endpoint of the relation."""


# model / training

class ConfigShapeMismatch(Error):
    """Config disagrees with graph feature dimension or parameter shapes."""


class NoLabeledNodes(Error):
    """A loss was requested for a task with an empty split."""


class DivergedLoss(Error):
    """Training loss became non-finite."""


# metrics

class NoRelevant(Error):
    """Ranking metric asked for an instance with no relevant item."""


class EmptySet(Error):
    """Metric over an empty collection."""


class DegenerateData(Error):
    """Clustering input has fewer distinct points than clusters."""


# synthetic data / io

class InfeasibleConfig(Error):
    """Generator config cannot be satisfied (e.g. more classes than nodes)."""


class IoFailure(Error):
    """File could not be read or written."""


class ParseError(Error):
    """Malformed interchange file; message carries path and line number."""

    def __init__(self, path, line, message):
        super().__init__(f"{path}:{line}: {message}")
        self.path = str(path)
        self.line = line


def check_fields(config, error: type) -> None:
    """Raise `error` naming the first dataclass field whose value has the wrong type.

    int fields take integers but not bools, float fields take finite real
    numbers, and str and bool fields take exactly those types.
    """
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type == "int":
            ok, want = isinstance(value, Integral) and not isinstance(value, bool), "an integer"
        elif f.type == "float":
            ok = (isinstance(value, Real) and not isinstance(value, bool)
                  and math.isfinite(value))
            want = "a finite number"
        else:
            ok, want = isinstance(value, {"str": str, "bool": bool}[f.type]), f"a {f.type}"
        if not ok:
            raise error(f"{f.name} must be {want}, got {value!r}")
