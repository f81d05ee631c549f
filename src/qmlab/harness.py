"""Generic quasi-morphism machinery: homogenization and defect estimation.

A quasi-morphism is a real function phi on a group whose defect
``sup |phi(xy) - phi(x) - phi(y)|`` is finite; its homogenization
``lim phi(x^p)/p`` is the unique homogeneous quasi-morphism at bounded
distance.  The harness works on opaque element handles owned by the
evaluator: it never inspects group elements itself, so the same code
serves matrix paths, flows and isotopies.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from .errors import NumericalError, ValidationError, period_count

Handle = Any


class QmEvaluator(ABC):
    """Evaluate a candidate quasi-morphism on opaque group elements.

    Subclasses provide the group operations.  ``evaluate(identity)`` must
    be 0.  ``power`` defaults to repeated composition; override it when a
    cheaper concatenation exists.  ``error_bound(p)`` may return a
    deterministic bound on ``|phi_h(x) - phi(x^p)/p|`` when one is known
    (e.g. 2n/p for the symplectic winding), else None ("unknown").
    """

    @property
    @abstractmethod
    def identity(self) -> Handle: ...

    @abstractmethod
    def evaluate(self, x: Handle) -> float: ...

    @abstractmethod
    def compose(self, x: Handle, y: Handle) -> Handle:
        """Return a handle for the product x*y."""

    def power(self, x: Handle, p: int) -> Handle:
        period_count(p)
        out = x
        for _ in range(p - 1):
            out = self.compose(out, x)
        return out

    def inverse(self, x: Handle) -> Handle:
        raise NotImplementedError("this evaluator does not expose inverses")

    def error_bound(self, p: int) -> float | None:
        return None


@dataclass(frozen=True)
class HomogenizationResult:
    """Samples of phi(x^p)/p along a power schedule.

    ``error_bound`` is None when the evaluator has no deterministic bound.
    ``value`` always equals the quotient at the last scheduled power.
    """

    value: float
    p_used: int
    error_bound: float | None
    samples: list[tuple[int, float]] = field(default_factory=list)


@dataclass(frozen=True)
class DefectEstimate:
    """Empirical lower bound for the defect, from sampled pairs."""

    max_observed: float
    n_pairs: int
    seed: int


def homogenize(ev: QmEvaluator, x: Handle, p_schedule: Sequence[int]) -> HomogenizationResult:
    """Evaluate phi(x^p)/p along ``p_schedule`` (strictly increasing, >= 1).

    Evaluator failures propagate wrapped with the offending power attached.
    """
    schedule = [period_count(p, "p_schedule") for p in p_schedule]
    if not schedule:
        raise ValidationError("p_schedule must be nonempty")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValidationError("p_schedule must be strictly increasing positive integers")

    samples: list[tuple[int, float]] = []
    for p in schedule:
        try:
            quotient = ev.evaluate(ev.power(x, p)) / p
        except (ValidationError, NumericalError) as exc:
            raise type(exc)(f"evaluator failed at power p={p}: {exc}") from exc
        samples.append((p, float(quotient)))
    p_last, value = samples[-1]
    return HomogenizationResult(value=value, p_used=p_last,
                                error_bound=ev.error_bound(p_last), samples=samples)


def homogenize_until(ev: QmEvaluator, x: Handle, *, p_max: int = 4096,
                     abs_bound: float | None = None,
                     quotient_tol: float | None = None) -> HomogenizationResult:
    """Power-doubling homogenization from p = 1 with a caller-supplied stop rule.

    Stops once the evaluator's deterministic bound drops below
    ``abs_bound`` or successive quotients differ by less than
    ``quotient_tol``, whichever comes first; always stops at ``p_max``.
    Deterministic bounds exist only for some evaluators, so at least one
    stop criterion must be supplied.
    """
    if abs_bound is None and quotient_tol is None:
        raise ValidationError("supply abs_bound and/or quotient_tol as a stop rule")
    samples: list[tuple[int, float]] = []
    p = 1
    prev = None
    while True:
        result = homogenize(ev, x, [p])
        samples.append(result.samples[0])
        bound = ev.error_bound(p)
        if abs_bound is not None and bound is not None and bound <= abs_bound:
            break
        if quotient_tol is not None and prev is not None and abs(result.value - prev) < quotient_tol:
            break
        if 2 * p > p_max:
            break
        prev = result.value
        p *= 2
    p_last, value = samples[-1]
    return HomogenizationResult(value=value, p_used=p_last,
                                error_bound=ev.error_bound(p_last), samples=samples)


def estimate_defect(ev: QmEvaluator, sampler: Callable[[np.random.Generator], Handle],
                    n_pairs: int, seed: int) -> DefectEstimate:
    """Max of |phi(xy) - phi(x) - phi(y)| over ``n_pairs`` sampled pairs.

    ``sampler(rng)`` must produce composable handles.  The estimate is a
    lower bound for the true defect and is deterministic given the seed.
    """
    if n_pairs < 1:
        raise ValidationError("n_pairs must be positive")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_pairs):
        x = sampler(rng)
        y = sampler(rng)
        gap = abs(ev.evaluate(ev.compose(x, y)) - ev.evaluate(x) - ev.evaluate(y))
        worst = max(worst, float(gap))
    return DefectEstimate(max_observed=worst, n_pairs=n_pairs, seed=seed)
