"""Exception hierarchy shared across the package.

Two broad families: :class:`ValidationError` for inputs that violate a
declared contract (rejected, never repaired) and :class:`NumericalError`
for failures arising during a computation (an aliased sampled path, Newton
divergence, violated invariants that signal a bug upstream).  ``convert``
turns a malformed value from a spec or JSON file into a ValidationError;
the CLI and the JSON loaders share it, and ``period_count`` checks a period
or power count, or a dimension n.
"""

import math
import numbers


class QmlabError(Exception):
    """Base class for all package errors."""


class ValidationError(QmlabError, ValueError):
    """Input violates a declared precondition or schema."""


def convert(key: str, value, kind: type, source: str = "spec"):
    """``kind(value)`` for field ``key`` of ``source``, raising ValidationError on failure.

    A lossy conversion fails too: a float with a fractional part for an int.
    So does a float that is not finite (NaN or +-inf, also from a string).
    For list, dict, str and bool it is a type check that returns ``value``
    (a tuple passes as a list): ``list("148")`` and ``bool("no")`` would
    misread it.
    """
    try:
        if kind in (list, dict, str, bool):
            if not isinstance(value, (list, tuple) if kind is list else kind):
                raise TypeError(f"not a {kind.__name__}")
            return value
        out = kind(value)
        if kind is int and isinstance(value, float) and out != value:
            raise ValueError("fractional part")
        if kind is float and not math.isfinite(out):
            raise ValueError("not finite")
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(
            f"{source} field {key!r} is not a valid {kind.__name__}: {value!r}") from exc
    return out


def period_count(p, name: str = "p"):
    """p, if it is an integer >= 1 (a whole number of periods, or Sp(2n)'s n); else ValidationError."""
    if isinstance(p, bool) or not isinstance(p, numbers.Integral) or p < 1:
        raise ValidationError(f"{name} must be an integer >= 1, got {p!r}")
    return p


class NumericalError(QmlabError, RuntimeError):
    """A computation failed or produced an inconsistent result."""


class RefinePathError(NumericalError):
    """A sampled circle path aliases (a step of >= 0.5 turns).

    Carries the offending step index so the caller can subdivide.
    """

    def __init__(self, index: int, message: str | None = None):
        self.index = index
        super().__init__(message or f"step {index} moves by >= 0.5 turns; refine the path")


class IntegrationError(NumericalError):
    """Flow integration failed (e.g. Newton divergence in an implicit step)."""

    def __init__(self, step: int, message: str | None = None):
        self.step = step
        super().__init__(message or f"integrator failed at step {step}")


class InvariantError(NumericalError):
    """A structural invariant that should hold by construction was violated."""


class DegenerateSaddleError(ValidationError):
    """A vertex is not PL-Morse after tie-breaking (e.g. a monkey saddle)."""

    def __init__(self, vertex: int, message: str | None = None):
        self.vertex = vertex
        super().__init__(message or f"vertex {vertex} is a degenerate (non-simple) critical point")
