"""Hamiltonian dynamics on a symplectic ball.

The flow of a compactly supported (possibly time-dependent) Hamiltonian is
integrated with the implicit midpoint rule; tangent maps come from the
differentiated scheme (a Cayley transform of the linearized field), which
keeps long Jacobian products symplectic to machine precision.  On top of
the integrator live the invariants: the Calabi homomorphism, Birkhoff
averages, the winding quasi-morphism integral tau over the ball, and the
ball-restriction combination tau + s * Calabi.

Conventions: the sign of the Hamiltonian field is pinned to X_H = J0 grad H
for the standard form dx ^ dy (CCW rotation for increasing radial
profiles); 2-d scenarios may carry a radial density rho, in which case
X_H = J0 grad H / rho.

A new field kind implements ``value``, ``jet(pts, t, order)``, which
returns the gradient and, for order 2, the Hessian from one pass over the
points (``grad`` and ``hess`` are views of the jet), and ``separate(pts)``,
its split H = sum_k a_k(t) h_k into spatial values and time factors with
exact integrals, from which ``calabi`` integrates each term in one pass.
Each Newton iterate of the midpoint step evaluates one jet: the velocity,
and the linearization with it (order 2) whenever something may read that,
which is every iterate when tangents are transported.  A tangent-free step
evaluates the velocity alone from the iterate at which the step before
converged, and the linearization at the same midpoint only where an
iterate does not converge (``FlowMap._step``); the gradient's bits do not
depend on the order, so no output does.  Newton stops each row on its
own residual and starts it from a rotation forecast of its own velocity
history (``FlowMap.evolve``), so a row's trajectory does not depend on the
rest of its batch.  The midpoint rule keeps every quadratic first
integral, so under a rotation-invariant field each step multiplies a
row's complex coordinates, and its velocity, by the same factor, and the
forecast starts Newton on the converged point.  The jet builds its
(N, d, d) Hessian batch-last, in (d, d, N) memory (``_batch_last``, or
``_batched`` of an entry-major array), one whole entry per op, for C- and
F-ordered points alike: the midpoint loop keeps points, velocities, Newton
matrices and tangents in that layout, so each of its elementwise ops is one
long inner loop.

A kind may also override ``frozen(pts)``, a conservative mask of the rows
where the gradient and the Hessian are exactly zero at every t (the
default flags |z| >= support_radius).  ``FlowMap.evolve`` computes the
mask once and integrates only the other rows: a flagged row must give an
exactly zero jet, and no row's jet may depend on the rest of the batch,
so that skipping rows changes no output bit.
"""

from __future__ import annotations

import functools
import math
import numbers
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.polynomial import Polynomial
from numpy.polynomial.legendre import leggauss

from .errors import (IntegrationError, NumericalError, ValidationError, convert,
                     period_count)
from .symplectic import (SpPath, _det2_from_complex, _turn_steps, check_symplectic,
                         standard_j)

NEWTON_TOL = 1e-15       # per-row Newton stop, relative to 1 + max |x_row|
NEWTON_MAX_ITER = 30
TOL_FLOW = 1e-6          # symplecticity drift cap on accepted Jacobian paths
# Per-step det^2 turn cap during online winding: a check that dt is small enough,
# stricter than the half-turn contract of symplectic.winding and phi_lag.
ALIAS_GUARD = 0.4
TIME_MEMO_SIZE = 4096    # a(t) values a SeparableField keeps; a period at dt = 1e-3 takes 1000


# --------------------------------------------------------------------------
# point batches
# --------------------------------------------------------------------------


def _sq_norms(pts: np.ndarray) -> np.ndarray:
    """Squared euclidean norms of a point batch (hand-rolled in 2-d)."""
    if pts.shape[1] == 2:
        return pts[:, 0] * pts[:, 0] + pts[:, 1] * pts[:, 1]
    return np.sum(pts ** 2, axis=1)


# Batch-last layout.  A batch of n vectors, matrices or tangent frames has
# the public shape (n, *shape) but lives in (*shape, n) memory: the batch
# axis has the smallest stride, so entry [:, i, j] is one contiguous run of
# n values and an elementwise op on whole entries is one long inner loop
# (a C-ordered (n, 2, 2) batch runs n loops of 2-4 values instead).
# ``_entries`` and ``_batched`` are the two views of that memory.
_TO_ENTRIES = {2: (1, 0), 3: (1, 2, 0)}
_TO_BATCHED = {2: (1, 0), 3: (2, 0, 1)}


def _entries(x: np.ndarray) -> np.ndarray:
    """The (*shape, n) entry-major view of an (n, *shape) batch."""
    return x.transpose(_TO_ENTRIES[x.ndim])


def _batched(entries: np.ndarray) -> np.ndarray:
    """The (n, *shape) batch view of (*shape, n) entry-major memory."""
    return entries.transpose(_TO_BATCHED[entries.ndim])


def _batch_last(n: int, shape: tuple) -> np.ndarray:
    """An uninitialized (n, *shape) batch on (*shape, n) memory, to be filled entry by entry."""
    return _batched(np.empty((*shape, n)))


# --------------------------------------------------------------------------
# time profiles
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TimeProfile:
    """a(t) = poly(t) + sum a_k cos(2 pi k t) + sum b_k sin(2 pi k t)."""

    poly: tuple = (1.0,)
    cos: tuple = ()
    sin: tuple = ()

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        for j, c in enumerate(self.poly):
            out = out + c * t ** j
        for amp, k in self.cos:
            out = out + amp * np.cos(2.0 * np.pi * k * t)
        for amp, k in self.sin:
            out = out + amp * np.sin(2.0 * np.pi * k * t)
        return out if out.shape else float(out)

    def integral(self) -> float:
        """The exact integral over [0, 1]: a cos or sin term of integer k != 0 integrates to 0."""
        return float(sum(c / (j + 1) for j, c in enumerate(self.poly))
                     + sum(amp for amp, k in self.cos if k == 0))

    def to_json(self):
        return {"poly": list(self.poly), "cos": [list(p) for p in self.cos],
                "sin": [list(p) for p in self.sin]}

    @classmethod
    def from_json(cls, data):
        """The profile of a ``time`` object; a malformed one raises ValidationError."""
        if data is None:
            return cls()
        source = "time profile"
        if not isinstance(data, dict):
            raise ValidationError(f"{source} must be an object, got {data!r}")

        def entries(key, default):
            return convert(key, data.get(key, default), list, source)

        def pair(key, p):
            if not isinstance(p, (list, tuple)) or len(p) != 2:
                raise ValidationError(f"{source} field {key!r} takes [amplitude, k] pairs: {p!r}")
            return convert(key, p[0], float, source), convert(key, p[1], int, source)

        return cls(poly=tuple(convert("poly", c, float, source) for c in entries("poly", (1.0,))),
                   cos=tuple(pair("cos", p) for p in entries("cos", ())),
                   sin=tuple(pair("sin", p) for p in entries("sin", ())))


# --------------------------------------------------------------------------
# symplectic forms on the ball
# --------------------------------------------------------------------------

class SymplecticForm(ABC):
    """nu = rho(|z|) dx ^ dy (rho = 1 in the standard case, 2-d only otherwise)."""

    kind = "standard"

    @abstractmethod
    def rho(self, pts: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def rho_jet(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(rho, grad rho) at the points, from one pass."""

    @abstractmethod
    def primitive_coefficient(self, r: np.ndarray) -> np.ndarray:
        """a(r) with lambda = a(r) (x dy - y dx) a primitive of nu."""

    @abstractmethod
    def ball_measure(self, radius: float, dim: int) -> float: ...

    @abstractmethod
    def sample_ball(self, radius: float, dim: int, n: int,
                    rng: np.random.Generator) -> np.ndarray: ...

    def sample_ball_stratified(self, radius: float, dim: int, n: int,
                               rng: np.random.Generator) -> np.ndarray:
        """Equal-measure radial strata with uniform angles (2-d, unbiased).

        One point per stratum: for rotation-symmetric integrands this
        removes almost all Monte Carlo variance while staying unbiased and
        deterministic per seed.
        """
        if dim != 2:
            raise ValidationError("stratified sampling is 2-dimensional")
        return self._polar_sample((np.arange(n) + rng.random(n)) / n, radius, rng)

    def _polar_sample(self, q: np.ndarray, radius: float, rng: np.random.Generator) -> np.ndarray:
        """2-d points at measure quantiles q of the ball, with uniform angles drawn from rng."""
        r = self._radius_quantile(q, radius)
        ang = rng.uniform(0.0, 2.0 * np.pi, q.shape[0])
        return np.stack([r * np.cos(ang), r * np.sin(ang)], axis=1)

    def _radius_quantile(self, q: np.ndarray, radius: float) -> np.ndarray:
        raise NotImplementedError


class StandardForm(SymplecticForm):
    kind = "standard"

    def rho(self, pts):
        return np.ones(pts.shape[0])

    def rho_jet(self, pts):
        return self.rho(pts), np.zeros_like(pts)

    def primitive_coefficient(self, r):
        return np.full_like(np.asarray(r, dtype=float), 0.5)

    def ball_measure(self, radius, dim):
        n = dim // 2
        return math.pi ** n * radius ** (2 * n) / math.factorial(n)

    def sample_ball(self, radius, dim, n, rng):
        dirs = rng.standard_normal((n, dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        radii = radius * rng.random(n) ** (1.0 / dim)
        return dirs * radii[:, None]

    def _radius_quantile(self, q, radius):
        return radius * np.sqrt(q)


class HyperbolicForm(SymplecticForm):
    """The Poincare-disk area form over 2 pi: rho = (2/pi)(1-r^2)^{-2} on |z| < 1.

    This normalization makes the total form-area of a genus-g hyperbolic
    surface equal to 2g-2; its radial primitive is
    lambda = (x dy - y dx) / (pi (1 - r^2)), which is also minus the
    Levi-Civita connection form over 2 pi.
    """

    kind = "hyperbolic"

    def rho(self, pts):
        r2 = _sq_norms(pts)
        return (2.0 / np.pi) / (1.0 - r2) ** 2

    def rho_jet(self, pts):
        gap = 1.0 - _sq_norms(pts)
        return (2.0 / np.pi) / gap ** 2, (8.0 / np.pi) * pts / gap[:, None] ** 3

    def primitive_coefficient(self, r):
        r = np.asarray(r, dtype=float)
        return 1.0 / (np.pi * (1.0 - r ** 2))

    def cumulative(self, r):
        """Measure of the disk of euclidean radius r: 2 r^2 / (1 - r^2)."""
        return 2.0 * r ** 2 / (1.0 - r ** 2)

    def radius_of_measure(self, m):
        """Euclidean radius of the centred disk of measure m (inverse of ``cumulative``)."""
        return np.sqrt(m / (2.0 + m))

    def ball_measure(self, radius, dim):
        if dim != 2:
            raise ValidationError("the hyperbolic form is 2-dimensional")
        return float(self.cumulative(radius))

    def sample_ball(self, radius, dim, n, rng):
        if dim != 2:
            raise ValidationError("the hyperbolic form is 2-dimensional")
        return self._polar_sample(rng.random(n), radius, rng)

    def _radius_quantile(self, q, radius):
        return self.radius_of_measure(q * self.cumulative(radius))


def form_from_json(data) -> SymplecticForm:
    data = convert("form", {} if data is None else data, dict, "scenario JSON")
    kind = data.get("kind", "standard")
    if kind == "standard":
        return StandardForm()
    if kind == "hyperbolic":
        return HyperbolicForm()
    raise ValidationError(f"unknown form kind {kind!r}")


def form_to_json(form: SymplecticForm) -> dict:
    return {"kind": form.kind}


# --------------------------------------------------------------------------
# Hamiltonian fields
# --------------------------------------------------------------------------

class HamiltonianField(ABC):
    """A time-dependent scalar field with analytic gradient and Hessian.

    All evaluations are vectorized over points (N, dim).  The field and its
    gradient vanish identically for |z| >= support_radius.  A field kind
    implements ``value``, ``jet`` and ``separate``; ``grad`` and ``hess`` are
    views of the jet, so each kind keeps its derivative formulas in one place.
    """

    dim: int
    support_radius: float

    @abstractmethod
    def value(self, pts: np.ndarray, t: float) -> np.ndarray: ...

    @abstractmethod
    def jet(self, pts: np.ndarray, t: float, order: int = 1):
        """(grad, hess) of H(., t) from one pass; hess is None for order 1."""

    def grad(self, pts: np.ndarray, t: float) -> np.ndarray:
        return self.jet(pts, t, 1)[0]

    def hess(self, pts: np.ndarray, t: float) -> np.ndarray:
        return self.jet(pts, t, 2)[1]

    def frozen(self, pts: np.ndarray) -> np.ndarray:
        """Rows where the gradient and Hessian are exactly zero at every t (conservative)."""
        return _sq_norms(pts) >= self.support_radius ** 2

    @abstractmethod
    def separate(self, pts: np.ndarray) -> list:
        """H = sum_k a_k(t) h_k as [(a_k, h_k(pts)), ...]; a_k(ts) and exact a_k.integral()."""

    @abstractmethod
    def to_json(self) -> dict: ...


# The concrete field classes rebind ``grad`` and ``hess`` in their own
# namespace: perfbench/tracing.py wraps value, grad and hess class by class.


class SeparableField(HamiltonianField):
    """H(z, t) = amplitude(t) * spatial(z)."""

    def __init__(self, time: TimeProfile | None = None):
        self.time = time if time is not None else TimeProfile()
        self._time_memo = (None, {})  # (profile, {t: a(t)})

    @abstractmethod
    def spatial_value(self, pts): ...

    @abstractmethod
    def spatial_jet(self, pts, order: int = 1):
        """(grad, hess) of the spatial factor; hess is None for order 1."""

    def _time_factor(self, t) -> float:
        """a(t), memoized per t: a period's steps revisit the same steps_per_period t_mids.

        The memo belongs to the profile it was filled from, so a replaced
        ``time`` starts a new one, and it is emptied when it reaches
        TIME_MEMO_SIZE entries.
        """
        profile, memo = self._time_memo
        if profile is not self.time:
            profile, memo = self.time, {}
            self._time_memo = (profile, memo)
        amp = memo.get(t)
        if amp is None:
            if len(memo) >= TIME_MEMO_SIZE:
                memo.clear()
            amp = memo[t] = float(profile(t))
        return amp

    def value(self, pts, t):
        amp = self._time_factor(t)
        spatial = self.spatial_value(pts)
        return spatial if amp == 1.0 else amp * spatial

    def jet(self, pts, t, order=1):
        """The spatial jet times a(t).

        At a(t) = 1.0, every autonomous field's, the spatial arrays are
        returned as they are: the product would be exact (``value`` alike).
        """
        amp = self._time_factor(t)
        # batch-last points, so that the Hessian's entries are built contiguous
        g, hs = self.spatial_jet(pts if order < 2 else np.asfortranarray(pts), order)
        if amp == 1.0:
            return g, hs
        return amp * g, None if hs is None else amp * hs

    grad = HamiltonianField.grad
    hess = HamiltonianField.hess

    def separate(self, pts):
        return [(self.time, self.spatial_value(pts))]


def _radius(name: str, r) -> float:
    """``r`` as a float if r > 0 and r^4 is finite and nonzero (the jets divide by r^2 and r^4)."""
    r = float(r)
    if not (r > 0.0 and 0.0 < r ** 4 < math.inf):
        raise ValidationError(f"{name} must be positive, with a nonzero finite 4th power: {r!r}")
    return r


def _horner(coef: tuple, x):
    """sum_k coef[k] x^k, bit for bit numpy's ``polyval(coef[::-1], x)``.

    ``polyval`` starts from 0 * x + coef[-1], which is coef[-1] exactly at a
    finite x, so starting from coef[-2] + coef[-1] x rounds as it does with
    two ops fewer; a constant keeps its 0 * x, which gives the array shape.
    """
    if len(coef) == 1:
        return coef[0] + 0.0 * x
    acc = coef[-2] + coef[-1] * x
    for c in coef[-3::-1]:
        acc = c + acc * x
    return acc


class RadialField(SeparableField):
    """H = a(t) h(r^2), h a polynomial vanishing to second order at the support edge."""

    def __init__(self, profile, support_radius: float, bump_power: int = 3,
                 time: TimeProfile | None = None, dim: int = 2):
        super().__init__(time)
        if bump_power < 3:
            raise ValidationError("bump_power >= 3 is required for a C^2 cutoff")
        self.dim = dim
        self.support_radius = _radius("support_radius", support_radius)
        self.profile = tuple(float(c) for c in profile)
        self.bump_power = int(bump_power)
        s0 = self.support_radius ** 2
        cutoff = Polynomial([1.0, -1.0 / s0]) ** self.bump_power
        h = Polynomial(list(self.profile)) * cutoff
        dh = h.deriv()
        # coefficients in s = r^2 of h, 2 h' and 4 h'', evaluated by _horner: grad H = 2 h' z
        # and the Hessian takes 4 h'' z z^T; a power-of-two scale is exact, so the folded
        # factors round as the products of the unscaled polynomials did
        self._h = tuple(h.coef)
        self._dh2 = tuple(2.0 * dh.coef)
        self._d2h4 = tuple(4.0 * dh.deriv().coef)

    def spatial_value(self, pts):
        s = _sq_norms(pts)
        return np.where(s < self.support_radius ** 2, _horner(self._h, s), 0.0)

    def spatial_jet(self, pts, order=1):
        s = _sq_norms(pts)
        inside = s < self.support_radius ** 2
        c1 = np.where(inside, _horner(self._dh2, s), 0.0)
        grad = c1[:, None] * pts
        if order < 2:
            return grad, None
        c2 = np.where(inside, _horner(self._d2h4, s), 0.0)
        x = pts.T
        hess = (c2 * x)[:, None] * x[None]  # entry [i, j] = (c2 x_i) x_j
        for i in range(self.dim):
            hess[i, i] += c1
        return grad, _batched(hess)

    def angular_velocity(self, r, t=0.0, form: SymplecticForm | None = None):
        """Omega(r) = 2 a(t) h'(r^2) / rho(r): the exact rotation rate (2-d)."""
        r = np.asarray(r, dtype=float)
        s = r ** 2
        omega = (np.where(s < self.support_radius ** 2, _horner(self._dh2, s), 0.0)
                 * float(self.time(t)))
        if form is not None and form.kind != "standard":
            pts = np.stack([r, np.zeros_like(r)], axis=-1).reshape(-1, 2)
            omega = omega / form.rho(pts).reshape(np.shape(r))
        return omega

    def to_json(self):
        return {"kind": "radial", "profile": list(self.profile),
                "support_radius": self.support_radius,
                "bump_power": self.bump_power, "time": self.time.to_json(),
                "dim": self.dim}


def _bump(q, order: int) -> list:
    """[value, d/dq, d2/dq2][:order + 1] of exp(1 - 1/(1-q)) on q < 1, extended by 0."""
    q = np.asarray(q, dtype=float)
    safe = np.minimum(q, 1.0 - 1e-12)
    inside = q < 1.0 - 1e-12
    inv = 1.0 / (1.0 - safe)
    val = np.where(inside, np.exp(1.0 - inv), 0.0)
    out = [val]
    if order >= 1:
        out.append(np.where(inside, -val * inv ** 2, 0.0))
    if order >= 2:
        out.append(np.where(inside, val * inv ** 4 - 2.0 * val * inv ** 3, 0.0))
    return out


class BumpField(SeparableField):
    """A smooth bump of given amplitude supported on a ball around ``center``."""

    def __init__(self, amplitude: float, center, radius: float,
                 time: TimeProfile | None = None):
        super().__init__(time)
        self.amplitude = float(amplitude)
        self.center = np.asarray(center, dtype=float)
        self.radius = _radius("radius", radius)
        self.dim = self.center.shape[0]
        self.support_radius = float(np.linalg.norm(self.center) + self.radius)

    def _q(self, pts):
        d = pts - self.center
        return _sq_norms(d) / self.radius ** 2, d

    def spatial_value(self, pts):
        q, _ = self._q(pts)
        return self.amplitude * _bump(q, 0)[0]

    def frozen(self, pts):
        return self._q(pts)[0] >= 1.0

    def spatial_jet(self, pts, order=1):
        q, d = self._q(pts)
        _, d1, *d2 = _bump(q, order)
        grad = self.amplitude * d1[:, None] * (2.0 / self.radius ** 2) * d
        if order < 2:
            return grad, None
        hess = d.T[:, None] * d.T[None]
        hess *= d2[0] * (4.0 / self.radius ** 4)
        d1 = d1 * (2.0 / self.radius ** 2)
        for i in range(self.dim):
            hess[i, i] += d1
        hess *= self.amplitude
        return grad, _batched(hess)

    def to_json(self):
        return {"kind": "bump", "amplitude": self.amplitude,
                "center": self.center.tolist(), "radius": self.radius,
                "time": self.time.to_json()}


class PolyBumpField(SeparableField):
    """A polynomial f times the radial cutoff b = _bump(|z|^2 / R^2), R the support radius."""

    def __init__(self, monomials, support_radius: float,
                 time: TimeProfile | None = None, dim: int = 2):
        super().__init__(time)
        self.dim = dim
        self.support_radius = _radius("support_radius", support_radius)
        self.monomials = [(tuple(int(e) for e in exps), float(c)) for exps, c in monomials]
        for exps, _ in self.monomials:
            if len(exps) != dim:
                raise ValidationError("monomial exponent length must equal dim")
            if min(exps, default=0) < 0:
                raise ValidationError(f"monomial exponents must be >= 0, got {list(exps)}")
        self._degree = [max((e[axis] for e, _ in self.monomials), default=0)
                        for axis in range(dim)]
        unit = np.eye(dim, dtype=int)
        self._value_terms = self._derivative_terms(np.zeros(dim, dtype=int))
        self._grad_terms = [self._derivative_terms(unit[i]) for i in range(dim)]
        self._hess_terms = {(i, j): self._derivative_terms(unit[i] + unit[j])
                            for i in range(dim) for j in range(i, dim)}

    def _derivative_terms(self, dx) -> list:
        """The d^dx derivative as [(c, ((factor, axis, power), ...)), ...].

        A term evaluates to c * prod(factor * x_axis^power) multiplied out
        left to right; monomials that the derivative kills and factors that
        are exactly 1 (factor 1, power 0) are dropped at construction.
        """
        terms = []
        for exps, c in self.monomials:
            if any(d > e for d, e in zip(dx, exps)):
                continue
            ops = tuple((math.perm(e, int(d)), axis, e - int(d))
                        for axis, (e, d) in enumerate(zip(exps, dx)))
            terms.append((c, tuple(op for op in ops if op[0] != 1 or op[2] != 0)))
        return terms

    def _inner_jet(self, pts, order):
        """[f, grad f, hess f][:order + 1] at a batch of points."""
        n, d = pts.shape
        powers = [[1.0] + [pts[:, axis] ** k for k in range(1, self._degree[axis] + 1)]
                  for axis in range(d)]

        def poly(terms, out):
            """Sum the terms into ``out`` (one entry of a batch-last buffer)."""
            out[...] = 0.0
            for c, ops in terms:
                term = c
                for factor, axis, k in ops:
                    term = term * factor * powers[axis][k]
                out += term
            return out

        out = [poly(self._value_terms, np.empty(n))]
        if order >= 1:
            grad = _batch_last(n, (d,))
            for i, terms in enumerate(self._grad_terms):
                poly(terms, grad[:, i])
            out.append(grad)
        if order >= 2:
            hess = _batch_last(n, (d, d))
            for (i, j), terms in self._hess_terms.items():
                hess[:, j, i] = poly(terms, hess[:, i, j])
            out.append(hess)
        return out

    def _cut(self, pts, order):
        q = _sq_norms(pts) / self.support_radius ** 2
        return _bump(q, order), pts * (2.0 / self.support_radius ** 2)

    def spatial_value(self, pts):
        (b,), _ = self._cut(pts, 0)
        return self._inner_jet(pts, 0)[0] * b

    def spatial_jet(self, pts, order=1):
        (b, db, *d2b), dq = self._cut(pts, order)
        f, gf, *hf = self._inner_jet(pts, order)
        grad = gf * b[:, None] + f[:, None] * db[:, None] * dq
        if order < 2:
            return grad, None
        # hess f b + (grad f dq^T + dq grad f^T) db + f (d2b dq dq^T + db (2 / R^2) I)
        hess = _entries(hf[0]) * b
        cross = gf.T[:, None] * dq.T[None]
        cross *= db
        hess += cross
        hess += cross.transpose(1, 0, 2)
        outer = dq.T[:, None] * dq.T[None]
        outer *= d2b[0]
        db = db * (2.0 / self.support_radius ** 2)
        for i in range(self.dim):
            outer[i, i] += db
        outer *= f
        hess += outer
        return grad, _batched(hess)

    def to_json(self):
        return {"kind": "poly", "monomials": [[list(e), c] for e, c in self.monomials],
                "support_radius": self.support_radius, "time": self.time.to_json(),
                "dim": self.dim}


class SumField(HamiltonianField):
    """Pointwise sum (e.g. two disjointly supported Hamiltonians)."""

    def __init__(self, parts):
        self.parts = list(parts)
        if not self.parts:
            raise ValidationError("SumField needs at least one part")
        dims = {p.dim for p in self.parts}
        if len(dims) != 1:
            raise ValidationError("summands have mismatched dimensions")
        self.dim = dims.pop()
        self.support_radius = max(p.support_radius for p in self.parts)

    def value(self, pts, t):
        return sum(p.value(pts, t) for p in self.parts)

    def jet(self, pts, t, order=1):
        jets = [p.jet(pts, t, order) for p in self.parts]
        return (sum(g for g, _ in jets),
                None if order < 2 else sum(hs for _, hs in jets))

    grad = HamiltonianField.grad
    hess = HamiltonianField.hess

    def frozen(self, pts):
        return np.logical_and.reduce([p.frozen(pts) for p in self.parts])

    def separate(self, pts):
        return [term for p in self.parts for term in p.separate(pts)]

    def to_json(self):
        return {"kind": "sum", "parts": [p.to_json() for p in self.parts]}


@dataclass(frozen=True)
class _HalfFactor:
    """2 a(2 (t mod 1) - half) on half 0 ([0, 1/2)) or 1 of ``ConcatField._piece``, else 0."""

    a: object
    half: int

    def __call__(self, t):
        u = np.asarray(t, dtype=float) % 1.0
        out = np.where((u >= 0.5) == bool(self.half), 2.0 * self.a(2.0 * u - self.half), 0.0)
        return out if out.shape else float(out)

    def integral(self) -> float:
        return self.a.integral()  # the rescaling keeps the part's integral


class ConcatField(HamiltonianField):
    """Time concatenation: run ``first`` on [0, 1/2] and ``second`` on [1/2, 1].

    The time-1 map is second_1 o first_1 and the Calabi integrals add.
    """

    def __init__(self, first, second):
        if first.dim != second.dim:
            raise ValidationError("concatenated fields have mismatched dimensions")
        self.first, self.second = first, second
        self.dim = first.dim
        self.support_radius = max(first.support_radius, second.support_radius)

    def _piece(self, t):
        t = float(t) % 1.0
        if t < 0.5:
            return self.first, 2.0 * t
        return self.second, 2.0 * t - 1.0

    def value(self, pts, t):
        f, s = self._piece(t)
        return 2.0 * f.value(pts, s)

    def jet(self, pts, t, order=1):
        f, s = self._piece(t)
        g, hs = f.jet(pts, s, order)
        return 2.0 * g, None if hs is None else 2.0 * hs

    grad = HamiltonianField.grad
    hess = HamiltonianField.hess

    def frozen(self, pts):
        return self.first.frozen(pts) & self.second.frozen(pts)

    def separate(self, pts):
        return [(_HalfFactor(a, half), h)
                for half, part in enumerate((self.first, self.second))
                for a, h in part.separate(pts)]

    def to_json(self):
        return {"kind": "concat", "parts": [self.first.to_json(), self.second.to_json()]}


class ConjugatedField(HamiltonianField):
    """H o g^{-1} for a fixed linear symplectic g: generates g f g^{-1}."""

    def __init__(self, base: HamiltonianField, g: np.ndarray):
        g = np.asarray(g, dtype=float)
        if g.shape != (base.dim, base.dim):
            raise ValidationError(f"g must be {base.dim} x {base.dim}, got shape {g.shape}")
        check_symplectic(g)
        self.base = base
        self.g = g
        self.g_inv = np.linalg.inv(g)
        self.dim = base.dim
        self.support_radius = float(np.linalg.norm(g, 2) * base.support_radius)

    def _pull_back(self, pts):
        """g^{-1} x for each row x, as a stack of one-row products.

        A plain ``pts @ g_inv.T`` takes another BLAS kernel for one row
        than for a batch, and the two round differently; a stacked product
        rounds each row alike in any batch (so does the gradient's below).
        The rows come out batch-last.
        """
        out = _batch_last(len(pts), (1, self.dim))
        return np.matmul(pts[:, None, :], self.g_inv.T, out=out)[:, 0]

    def _push_forward(self, grad):
        """The gradient of H o g^{-1} from the base's gradient at the pulled-back points."""
        out = _batch_last(len(grad), (1, self.dim))
        return np.matmul(grad[:, None, :], self.g_inv, out=out)[:, 0]

    def value(self, pts, t):
        return self.base.value(self._pull_back(pts), t)

    def jet(self, pts, t, order=1):
        g, hs = self.base.jet(self._pull_back(pts), t, order)
        if hs is not None:
            hs = np.einsum("ki,nkl,lj->nij", self.g_inv, hs, self.g_inv,
                           out=_batch_last(len(hs), (self.dim, self.dim)))
        return self._push_forward(g), hs

    grad = HamiltonianField.grad
    hess = HamiltonianField.hess

    def frozen(self, pts):
        return self.base.frozen(self._pull_back(pts))

    def separate(self, pts):
        return self.base.separate(self._pull_back(pts))

    def to_json(self):
        return {"kind": "conjugated", "g": self.g.tolist(), "base": self.base.to_json()}


def field_from_json(data: dict, support_radius: float | None = None) -> HamiltonianField:
    def integer(key, default):
        return convert(key, data.get(key, default), int, "Hamiltonian JSON")

    def finite(key, default=None):
        """Field ``key`` as a float array; a NaN or infinite entry raises ValidationError."""
        value = data[key] if default is None else data.get(key, default)
        out = np.asarray(value, dtype=float)
        if not np.isfinite(out).all():
            raise ValidationError(f"Hamiltonian JSON field {key!r} is not finite: {value!r}")
        return out

    try:
        kind = data["kind"]
        time = TimeProfile.from_json(data.get("time"))
        if kind == "radial":
            return RadialField(finite("profile"), finite("support_radius", support_radius),
                               integer("bump_power", 3), time, integer("dim", 2))
        if kind == "bump":
            return BumpField(finite("amplitude"), finite("center"), finite("radius"), time)
        if kind == "poly":
            monomials = [([convert("monomials", e, int, "Hamiltonian JSON") for e in exps],
                          convert("monomials", c, float, "Hamiltonian JSON"))
                         for exps, c in data["monomials"]]
            return PolyBumpField(monomials, finite("support_radius", support_radius),
                                 time, integer("dim", 2))
        if kind == "sum":
            return SumField([field_from_json(p, support_radius) for p in data["parts"]])
        if kind == "concat":
            a, b = (field_from_json(p, support_radius) for p in data["parts"])
            return ConcatField(a, b)
        if kind == "conjugated":
            return ConjugatedField(field_from_json(data["base"], support_radius), finite("g"))
    except KeyError as exc:
        raise ValidationError(f"malformed Hamiltonian JSON: missing {exc}") from exc
    except ValidationError:
        raise
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed Hamiltonian JSON: {exc}") from exc
    raise ValidationError(f"unknown Hamiltonian kind {data.get('kind')!r}")


# --------------------------------------------------------------------------
# scenarios
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class HamiltonianScenario:
    """A compactly supported Hamiltonian on a ball plus integration parameters."""

    field: HamiltonianField
    ball_radius: float
    support_radius: float
    dt: float = 1e-3
    form: SymplecticForm = field(default_factory=StandardForm)

    def __post_init__(self):
        if self.dim % 2 or self.dim < 2:
            raise ValidationError("dimension must be even and >= 2")
        if not 0.0 < self.support_radius < self.ball_radius:
            raise ValidationError("need 0 < support_radius < ball_radius")
        if self.field.support_radius > self.support_radius * (1.0 + 1e-12):
            raise ValidationError("field support exceeds the declared support radius")
        if self.form.kind != "standard" and self.dim != 2:
            raise ValidationError("density forms are 2-dimensional")
        if self.form.kind == "hyperbolic" and self.ball_radius >= 1.0:
            raise ValidationError("the hyperbolic form lives on |z| < 1")
        if not 0.0 < self.dt <= 0.25:
            raise ValidationError("dt must lie in (0, 0.25]")
        # compact support probe: H and grad H vanish at the support ring
        ang = np.linspace(0.0, 2.0 * np.pi, 17)[:-1]
        ring = np.zeros((16, self.dim))
        ring[:, 0] = self.support_radius * np.cos(ang)
        ring[:, 1] = self.support_radius * np.sin(ang)
        for t in (0.0, 0.37, 0.81):
            if (np.max(np.abs(self.field.value(ring, t))) > 1e-10
                    or np.max(np.abs(self.field.grad(ring, t))) > 1e-10):
                raise ValidationError("field does not vanish at the support radius")

    @property
    def dim(self) -> int:
        return self.field.dim


def scenario_to_json(sc: HamiltonianScenario) -> dict:
    return {"dim": sc.dim, "form": form_to_json(sc.form),
            "ball_radius": sc.ball_radius, "support_radius": sc.support_radius,
            "dt": sc.dt, "H": sc.field.to_json()}


def scenario_from_json(data: dict) -> HamiltonianScenario:
    if not isinstance(data, dict):
        raise ValidationError(f"scenario JSON must be an object, got {type(data).__name__}")
    try:
        h = data["H"]
        ball_radius = convert("ball_radius", data["ball_radius"], float, "scenario JSON")
        support_radius = convert("support_radius", data["support_radius"], float,
                                 "scenario JSON")
        dt = convert("dt", data.get("dt", 1e-3), float, "scenario JSON")
    except KeyError as exc:
        raise ValidationError(f"malformed scenario JSON: missing {exc}") from exc
    fld = field_from_json(h, data.get("support_radius"))
    if "dim" in data and convert("dim", data["dim"], int, "scenario JSON") != fld.dim:
        raise ValidationError(f"scenario JSON has dim {data['dim']!r}, but its H has dim {fld.dim}")
    return HamiltonianScenario(field=fld, ball_radius=ball_radius, support_radius=support_radius,
                               dt=dt, form=form_from_json(data.get("form")))


def concat_scenarios(first: HamiltonianScenario, second: HamiltonianScenario) -> HamiltonianScenario:
    """The isotopy of ``first`` followed by ``second`` (time-1 map second_1 o first_1)."""
    if first.form.kind != second.form.kind or first.dim != second.dim:
        raise ValidationError("scenarios are not composable")
    return HamiltonianScenario(field=ConcatField(first.field, second.field),
                               ball_radius=min(first.ball_radius, second.ball_radius),
                               support_radius=max(first.support_radius, second.support_radius),
                               dt=min(first.dt, second.dt), form=first.form)


def sum_scenarios(a: HamiltonianScenario, b: HamiltonianScenario) -> HamiltonianScenario:
    if a.form.kind != b.form.kind or a.dim != b.dim:
        raise ValidationError("scenarios are not summable")
    return HamiltonianScenario(field=SumField([a.field, b.field]),
                               ball_radius=min(a.ball_radius, b.ball_radius),
                               support_radius=max(a.support_radius, b.support_radius),
                               dt=min(a.dt, b.dt), form=a.form)


def conjugate_scenario(sc: HamiltonianScenario, g: np.ndarray) -> HamiltonianScenario:
    fld = ConjugatedField(sc.field, g)
    if fld.support_radius >= sc.ball_radius:
        raise ValidationError("conjugated support leaves the ball")
    return replace(sc, field=fld, support_radius=max(sc.support_radius, fld.support_radius))


# --------------------------------------------------------------------------
# the integrator
# --------------------------------------------------------------------------

def _solve_batch(mats: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Batched linear solve on entry-major arrays: mats (d, d, n), rhs (d, n) or (d, k, n).

    Closed form for the dominant 2x2 case, one whole entry per op; ``det``
    broadcasts over the k columns of a (2, k, n) right-hand side, so every
    row is solved by the same elementwise ops whatever the batch.
    """
    if mats.shape[0] == 2:
        a, b = mats[0, 0], mats[0, 1]
        c, d = mats[1, 0], mats[1, 1]
        det = a * d - b * c
        out = np.empty(rhs.shape)
        out[0] = (d * rhs[0] - b * rhs[1]) / det
        out[1] = (-c * rhs[0] + a * rhs[1]) / det
        return out
    if rhs.ndim == 2:
        return np.ascontiguousarray(np.linalg.solve(_batched(mats), rhs.T[..., None])[..., 0].T)
    return np.ascontiguousarray(_entries(np.linalg.solve(_batched(mats), _batched(rhs))))


def _apply_j(x: np.ndarray) -> np.ndarray:
    """J0 = [[0, -I], [I, 0]] applied to the leading axis of entry-major vectors or matrices."""
    n = x.shape[0] // 2
    out = np.empty(x.shape)
    np.negative(x[n:], out=out[:n])
    out[n:] = x[:n]
    return out


class _VelocityHistory:
    """A period's converged midpoint velocities of the live rows, as complex coordinates.

    With m = d / 2 and J0 multiplication by i, a velocity v (d, n) is
    c = v[:m] + i v[m:] (m, n).  The history keeps the last four, c_4 ...
    c_1 oldest first, and the last three ratios q_k = c_k / c_{k-1}; the
    ratio of a pushed velocity is taken by the next ``guess``, under the
    same error state as the forecast (one block per step).
    """

    def __init__(self, m: int):
        self.m = m
        self.velocities = deque(maxlen=4)
        self.ratios = deque(maxlen=3)
        self._unread = False  # the last pushed velocity has no ratio yet

    def clear(self):
        self.velocities.clear()
        self.ratios.clear()
        self._unread = False

    def push(self, vel: np.ndarray):
        c = vel[:self.m].astype(complex)
        c.imag = vel[self.m:]
        self.velocities.append(c)
        self._unread = len(self.velocities) > 1

    def guess(self, x: np.ndarray, h: float):
        """Newton's start x + h c_1 Q, with Q = 3 q_1 - 3 q_2 + q_3; None before four velocities.

        Each coordinate of each row extrapolates its own ratios.  Where Q
        is not finite (a zero velocity), |Q - 1| >= 1 or |Q - q_1| >
        |q_1 - 1|, the coordinate takes the cubic 4 c_1 - 6 c_2 + 4 c_3 -
        c_4 instead.
        """
        cs, qs = self.velocities, self.ratios
        if len(cs) < 2:
            return None
        with np.errstate(all="ignore"):
            if self._unread:
                qs.append(cs[-1] / cs[-2])
                self._unread = False
            if len(qs) < 3:
                return None
            q3, q2, q1 = qs
            forecast = q1 - q2
            forecast *= 3.0
            forecast += q3
            ok = np.abs(forecast - 1.0) < 1.0
            # a jump in the field breaks the ratios' trend: the extrapolation may move
            # the last ratio by no more than that ratio turns in a step
            ok &= np.abs(forecast - q1) <= np.abs(q1 - 1.0)
            c4, c3, c2, c1 = cs
            g = c1 * forecast
        if not ok.all():
            g = np.where(ok, g, 4.0 * (c1 + c3) - 6.0 * c2 - c4)
        guess = np.concatenate((g.real, g.imag))
        guess *= h
        guess += x
        return guess


class FlowMap:
    """Implicit-midpoint evolution of a scenario, vectorized over points.

    Holds the scenario and per-run integrator diagnostics; evaluation maps
    a batch of points forward through any number of periods (the
    Hamiltonian is 1-periodic in time by convention).  A period runs over
    t in [0, span), in about span / dt equal steps; ``span`` below 1 is a
    fractional leg of the flow.

    Inside the loop every array is entry-major (batch last): points and
    velocities (d, n), linearizations and Newton matrices (d, d, n),
    tangents (d, k, n).
    """

    def __init__(self, sc: HamiltonianScenario, span: float = 1.0):
        self.sc = sc
        self.steps_per_period = max(1, round(span / sc.dt))
        self.h = span / self.steps_per_period
        # the midpoint time of each step of a period, as ``evolve`` passes it to the hook
        self.t_mids = tuple(j * self.h + 0.5 * self.h for j in range(self.steps_per_period))
        self._eye = np.eye(sc.dim)[:, :, None]  # broadcasts over the batch axis
        self.max_newton_iters = 0
        self._standard = sc.form.kind == "standard"

    def _field_jet(self, x, t, order):
        """X_H = J0 grad H / rho at entry-major points x (d, n), and for order 2 DX_H (else None).

        One field jet serves both, so the density form's rho and grad rho
        are evaluated once per call.
        """
        pts = x.T
        g, m = self.sc.field.jet(pts, t, order)
        vel, lin = g.T, None if m is None else _entries(m)
        if not self._standard:
            if lin is None:
                rho = self.sc.form.rho(pts)
            else:
                rho, grad_rho = self.sc.form.rho_jet(pts)
                lin = lin / rho - vel[:, None] * grad_rho.T[None] / rho ** 2
            vel = vel / rho
        return _apply_j(vel), None if lin is None else _apply_j(lin)

    def _step(self, x, guess, t_mid, tol, linearize, solves):
        """One midpoint step of entry-major points x (d, n).

        Returns the new points, the midpoint velocity, DX_H there (None
        when only the velocity was evaluated) and the number of Newton
        solves.

        Newton starts from ``guess``, or from the jet predictor x + h X_H(x)
        when it is None.  Each row stops on its own residual, below its own
        ``tol`` (n,): a converged row keeps its iterate while the others
        move, and its jet is re-evaluated at that same midpoint, so a row's
        bits depend only on its own iterates, whatever the batch.

        An iterate evaluates the linearization with the velocity (an order-2
        jet) when something may read it: its own Newton solve, or, with
        ``linearize``, the Cayley tangent step at the converged iterate.
        Without ``linearize``, iterate k is forecast to converge, and takes
        the velocity alone, when k >= ``solves``: the number of Newton
        solves of the step before.  If it does not converge after all, the
        linearization at the same midpoint follows before the solve.  The
        forecast chooses only the jet's order, and the gradient's bits do
        not depend on it, so neither do the iterates.
        """
        h = self.h
        w = x + h * self._field_jet(x, t_mid, 1)[0] if guess is None else guess
        for it in range(NEWTON_MAX_ITER):
            mid = 0.5 * (x + w)
            vel, a_mid = self._field_jet(mid, t_mid, 2 if linearize or it < solves else 1)
            resid = w - x - h * vel
            err = np.abs(resid).max(axis=0) / tol
            if err.max() < 1.0:
                self.max_newton_iters = max(self.max_newton_iters, it)
                return w, vel, a_mid, it
            if a_mid is None:
                a_mid = self._field_jet(mid, t_mid, 2)[1]
            w = np.where(err < 1.0, w, w - _solve_batch(self._eye - (0.5 * h) * a_mid, resid))
        raise IntegrationError(-1, "Newton iteration for the midpoint step did not converge")

    def evolve(self, pts, periods: int = 1, tangent=None, step_hook=None):
        """Advance a batch through whole periods; optionally transport tangents.

        ``step_hook(step_index, t_mid, mid_pts, mid_vel, new_pts, tangent)``
        runs after every accepted step; ``mid_vel`` is the converged
        midpoint velocity of that step.  The hook's arrays and the returned
        points (n, d) and tangents (n, d, k) are batch-last views.  A
        tangent is an (n, d, k) batch or one (d, k) frame for every row,
        and the Cayley step moves each of the k columns on its own.
        ``tau_ball`` moves the d x d/2 frame of R^n and ``jacobian_path``
        the full d x d tangent; a column's bits do not depend on k (the
        2-d closed form is elementwise, and a test checks the 4-d solve).

        Newton stops each row at NEWTON_TOL (1 + max |x_row|), from the
        row's start point x_row.  Within a period, a step starts Newton
        from a rotation forecast of the row's last four converged midpoint
        velocities (``_VelocityHistory``).  Per complex coordinate
        c = v[:m] + i v[m:] (J0 is multiplication by i), it extrapolates
        the ratios q_k = c_k / c_{k-1} to Q = 3 q_1 - 3 q_2 + q_3 and starts
        from x + h c_1 Q, with c_1 the latest.  The midpoint rule keeps
        |z|^2 under a radial field (it keeps every quadratic first
        integral), so each step rotates z by a constant factor lambda(|z|),
        every ratio is lambda, and the forecast is the converged point up
        to rounding.  Where Q is not finite (a zero velocity), |Q - 1| >= 1,
        or the extrapolation moves q_1 by more than |q_1 - 1| (a jump in the
        field), the coordinate takes the cubic x + h (4 c_1 - 6 c_2 + 4 c_3
        - c_4).  The first four steps of a period start from the jet
        predictor.  So every output row depends only on its own start
        point, not on the rest of the batch, and ``evolve(pts, p)`` equals
        p calls of ``evolve(pts, 1)`` bit for bit.

        With a tangent, every Newton iterate evaluates the field's Hessian,
        and the Cayley step reads the converged one; without, a step skips
        it from the iterate at which the step before converged (``_step``),
        read across period boundaries, and the run's first step from its
        second iterate.  Points and hook arguments are the same bits either
        way.

        Only the rows that the field's ``frozen`` mask leaves are stepped.
        A frozen row keeps its point (mid = new = start), has velocity 0
        and an identity Cayley factor.  Stepped, it would converge at its
        first iterate with a residual of exactly 0, and no other row reads
        it, so no output depends on the mask.
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if np.any(np.linalg.norm(pts, axis=1) > self.sc.ball_radius * (1 + 1e-12)):
            raise ValidationError("initial points must lie in the ball")
        n = len(pts)
        frozen = self.sc.field.frozen(pts)
        cur = np.array(pts.T)  # (d, n), a fresh copy
        if tangent is not None:
            tangent = np.array(_entries(np.broadcast_to(tangent, (n,) + np.shape(tangent)[-2:])))
        live = np.flatnonzero(~frozen) if frozen.any() else None

        def rows(a):
            """The live columns of an entry-major array (``a`` itself when all rows are live)."""
            return a if live is None else a.take(live, axis=-1)

        def merge(full, part):
            """A copy of ``full`` with its live columns set to ``part``."""
            out = full.copy()
            out[..., live] = part
            return out

        zeros = np.zeros_like(cur)  # the frozen rows' velocity, copied by ``merge``

        stepped = not frozen.all()
        total = periods * self.steps_per_period
        h, solves = self.h, 1  # the Newton solves of the last stepped step
        history = _VelocityHistory(self.sc.dim // 2)
        for step in range(total):
            j = step % self.steps_per_period
            t_mid = self.t_mids[j]
            if not stepped:
                new, vel = cur.copy(), np.zeros_like(cur)
            else:
                if j == 0:
                    history.clear()
                x = rows(cur)
                tol = NEWTON_TOL * (1.0 + np.abs(x).max(axis=0))
                guess = history.guess(x, h)
                try:
                    new, vel, a_mid, solves = self._step(
                        x, guess, t_mid, tol, tangent is not None, solves)
                except IntegrationError as exc:
                    raise IntegrationError(
                        step, f"integrator failed at step {step}: {exc}") from exc
                history.push(vel)
                if tangent is not None:
                    moved = self._cayley(a_mid, rows(tangent))
                    tangent = moved if live is None else merge(tangent, moved)
                if live is not None:
                    new, vel = merge(cur, new), merge(zeros, vel)
            if step_hook is not None:
                step_hook(step, t_mid, (0.5 * (cur + new)).T, vel.T, new.T,
                          None if tangent is None else _batched(tangent))
            cur = new
        return (cur.T, _batched(tangent)) if tangent is not None else cur.T

    def _cayley(self, a_mid, tangent):
        """(I - h/2 A)^{-1} (I + h/2 A) tangent: the tangent map of one midpoint step, applied.

        With B = h/2 A, (I - B)^{-1} (I + B) = 2 (I - B)^{-1} - I, so the
        step is one linear solve against the tangent and two in-place ops.
        """
        out = _solve_batch(self._eye - (0.5 * self.h) * a_mid, tangent)
        out *= 2.0
        out -= tangent
        return out


def integrate_flow(sc: HamiltonianScenario, x0, t: float):
    """The flow map f_t(x0) for t >= 0 (t need not be a whole period)."""
    x0 = np.asarray(x0, dtype=float)
    if np.linalg.norm(x0) > sc.ball_radius:
        raise ValidationError("x0 outside the ball")
    if t < 0:
        raise ValidationError("t must be nonnegative")
    if t == 0:
        return x0.copy()
    whole = int(np.floor(t + 1e-12))
    frac = t - whole
    pts = np.atleast_2d(x0).copy()
    if whole:
        pts = FlowMap(sc).evolve(pts, periods=whole)
    if frac > 1e-12:
        pts = FlowMap(sc, span=frac).evolve(pts, periods=1)
    return pts[0]


class _WindingTracker:
    """Accumulates the det^2 phase of a transported Lagrangian frame, with an alias guard.

    It reads a batch of (N, 2n, k) frames, k >= n, and only their first n
    columns: the image M R^n of R^n under each row's tangent map M.
    ``tau_ball`` transports exactly that 2n x n frame; a full tangent
    (k = 2n) gives the same bits.  The complex n x n matrix X + iY is
    written into one batch-last buffer per step, from the frame's
    entry-major memory, and read by symplectic's det^2 kernel.

    Steps are read on the principal branch, as in ``symplectic.winding``,
    whose contract is that each step turns det^2 by less than half a turn.
    The guard is stricter: a step of ALIAS_GUARD (0.4 turn) or more, or a
    step that is not finite, raises NumericalError naming the step.  It
    checks that dt is small enough, with a margin below the half turn where
    the principal branch stops being trustworthy.
    """

    def __init__(self, n: int, frame0: np.ndarray):
        self.n = n
        self._buf = np.empty((n, n, frame0.shape[0]), dtype=complex)  # entry-major X + iY
        self.prev = self._det2(frame0)
        self.turns = np.zeros(frame0.shape[0])

    def _det2(self, frame: np.ndarray) -> np.ndarray:
        n, cols = self.n, _entries(frame)
        np.copyto(self._buf.real, cols[:n, :n])
        np.copyto(self._buf.imag, cols[n:, :n])
        return _det2_from_complex(_batched(self._buf))

    def update(self, frame: np.ndarray, step: int):
        cur = self._det2(frame)
        turn = _turn_steps(self.prev, cur)
        if not (np.abs(turn).max() < ALIAS_GUARD):  # a NaN turn fails too
            raise NumericalError(
                f"det^2 phase moved >= {ALIAS_GUARD} turns, or by a non-finite amount, "
                f"at step {step}: decrease dt")
        self.turns += turn
        self.prev = cur


def jacobian_path(sc: HamiltonianScenario, x0, p: int, sample_stride: int | None = None) -> SpPath:
    """The tangent path t -> Df_t(x0) over p concatenated periods, as an SpPath.

    For density forms the frames are rescaled to the unimodular
    representative (hamflow owns this repair; symplinalg would reject raw
    density Jacobians).  Symplecticity drift beyond TOL_FLOW raises.
    """
    period_count(p)
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    engine = FlowMap(sc)
    stride = sample_stride or max(1, engine.steps_per_period // 64)
    n = sc.dim // 2
    samples = [np.eye(sc.dim)]
    times = [0.0]

    def hook(step, t_mid, mid, vel, new, tangent):
        if (step + 1) % stride == 0 or step + 1 == p * engine.steps_per_period:
            mat = tangent[0].copy()
            if sc.form.kind != "standard":
                mat /= np.sqrt(np.linalg.det(mat))
            samples.append(mat)
            times.append((step + 1) * engine.h / p)

    engine.evolve(x0, periods=p, tangent=np.eye(sc.dim)[None], step_hook=hook)
    j = standard_j(n)
    for mat in (samples[len(samples) // 2], samples[-1]):
        drift = np.linalg.norm(mat.T @ j @ mat - j)
        if drift > TOL_FLOW * max(1.0, np.linalg.norm(mat) ** 2):
            raise NumericalError(f"symplecticity drift {drift:.2e} exceeds {TOL_FLOW}: decrease dt")
    return SpPath(np.asarray(times), np.stack(samples))


# --------------------------------------------------------------------------
# invariants
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureRule:
    """Tensor quadrature over the ball (polar in 2-d, cube product otherwise).

    The default angular resolution is sized so that fields supported away
    from the origin (whose sharp features cut across the polar grid) still
    integrate to well below 1e-6.  ``radius`` None means the scenario's
    support radius; node counts are integers >= 1.  Time integrals are exact.
    """

    radius: float | None = None
    n_r: int = 192
    n_angle: int = 256
    n_axis: int = 16

    def __post_init__(self):
        for key in ("n_r", "n_angle", "n_axis"):
            period_count(getattr(self, key), f"quadrature {key}")
        r = self.radius
        if r is not None and not (isinstance(r, numbers.Real) and math.isfinite(r) and r > 0):
            raise ValidationError(f"quadrature radius must be finite and > 0, got {r!r}")

    def domain_radius(self, sc: HamiltonianScenario) -> float:
        """The radius of the ball the rule covers for ``sc``."""
        return self.radius if self.radius is not None else sc.support_radius

    def used_by(self, sc: HamiltonianScenario) -> dict:
        """The radius and the node counts that ``calabi(sc)`` applies with this rule."""
        counts = ("n_r", "n_angle") if sc.dim == 2 else ("n_axis",)
        return {"radius": self.domain_radius(sc), **{k: getattr(self, k) for k in counts}}


@functools.lru_cache(maxsize=None)
def _unit_gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on [0, 1], read-only (leggauss is costly)."""
    xs, ws = leggauss(n)
    nodes, weights = 0.5 * (xs + 1.0), 0.5 * ws
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _ball_nodes(dim: int, rule: QuadratureRule, radius: float):
    """Nodes and euclidean (Lebesgue) weights of the rule on the ball of ``radius``.

    The polar nodes are outer products of the radii with the cosines and
    sines of the n_angle angles, written straight into the node array: the
    trigonometry runs once per angle, not once per node.
    """
    if dim == 2:
        u, wu = _unit_gauss_legendre(rule.n_r)
        r = radius * u
        wr = radius * wu
        ang = 2.0 * np.pi * np.arange(rule.n_angle) / rule.n_angle
        pts = np.empty((rule.n_r, rule.n_angle, 2))
        np.multiply.outer(r, np.cos(ang), out=pts[..., 0])
        np.multiply.outer(r, np.sin(ang), out=pts[..., 1])
        pts = pts.reshape(-1, 2)
        w = np.repeat(wr * r, rule.n_angle) * (2.0 * np.pi / rule.n_angle)
    else:
        u, wu = _unit_gauss_legendre(rule.n_axis)
        side = 2.0 * radius  # the cube [-radius, radius]^dim
        grids = np.meshgrid(*[side * u - radius] * dim, indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=1)
        w = functools.reduce(np.multiply.outer, [side * wu] * dim).ravel()
        keep = np.linalg.norm(pts, axis=1) <= radius
        pts, w = pts[keep], w[keep]
    return pts, w


def _calabi_terms(sc: HamiltonianScenario, *, quadrature: QuadratureRule | None = None) -> list:
    """[(a_k, S_k), ...]: S_k = -n sum_nodes w rho h_k, -n times the integral of h_k (dim = 2n).

    For any primitive lambda of the form and compactly supported h, Stokes
    turns the integral of lambda(X_h) rho into this one, so no gradient and
    no primitive enter.
    """
    rule = quadrature or QuadratureRule()
    radius = rule.domain_radius(sc)
    if radius < sc.support_radius:
        raise ValidationError("quadrature domain smaller than the support")
    if radius > sc.ball_radius:
        raise ValidationError("quadrature domain exceeds the ball")
    pts, w = _ball_nodes(sc.dim, rule, radius)
    w = -(sc.dim // 2) * w * sc.form.rho(pts)
    # np.sum's order is fixed; a BLAS dot (w @ h) splits the sum by the thread count
    return [(a, float(np.sum(w * h))) for a, h in sc.field.separate(pts)]


def calabi(sc: HamiltonianScenario, *, quadrature: QuadratureRule | None = None) -> float:
    """The Calabi value -n * (integral of H rho over ball and time) = sum_k int a_k * S_k.

    It equals the integral of lambda(X_H) rho for every primitive lambda of the form.
    """
    return sum(a.integral() * s for a, s in _calabi_terms(sc, quadrature=quadrature))


@dataclass(frozen=True)
class BirkhoffResult:
    value: float
    oscillation: float
    n_iterations: int


def birkhoff_average(sc: HamiltonianScenario, phi, x, n_iterations: int) -> BirkhoffResult:
    """Partial Birkhoff average of phi along the orbit of the time-1 map.

    No convergence claim; the last-quarter oscillation of the running
    average is returned as a diagnostic.
    """
    period_count(n_iterations, "n_iterations")
    engine = FlowMap(sc)
    pts = np.atleast_2d(np.asarray(x, dtype=float)).copy()
    samples = [float(phi(pts[0]))]

    def hook(step, t_mid, mid, vel, new, tangent):
        if (step + 1) % engine.steps_per_period == 0:
            samples.append(float(phi(new[0])))

    # one evolve reaches every period end that is read: phi at x and at its
    # first n_iterations - 1 images
    engine.evolve(pts, periods=n_iterations - 1, step_hook=hook)
    running = []
    total = 0.0
    for k, sample in enumerate(samples):
        total += sample
        running.append(total / (k + 1))
    value = running[-1]
    tail = running[-max(1, n_iterations // 4):]
    osc = max(abs(v - value) for v in tail)
    return BirkhoffResult(value=value, oscillation=osc, n_iterations=n_iterations)


@dataclass(frozen=True)
class TauResult:
    value: float
    std_error: float
    deterministic_error: float
    p: int
    n_samples: int
    seed: int


def tau_ball(sc: HamiltonianScenario, p: int, n_samples: int, seed: int) -> TauResult:
    """Monte Carlo estimate of the winding quasi-morphism integral over the ball.

    Per-point integrand: the det^2 winding of the p-period tangent path
    divided by p, which brackets (1/p) Phi(Df^p) within 2n/p; the measure
    factor is the form volume of the support ball (points outside the
    support contribute zero).  The winding reads only the image Df_t R^n,
    so the flow transports the 2n x n frame of R^n, not the full tangent
    (``jacobian_path`` does that); the turns are the same bits.
    """
    period_count(p)
    if n_samples < 2:
        raise ValidationError("need n_samples >= 2")
    rng = np.random.default_rng(seed)
    pts = sc.form.sample_ball(sc.support_radius, sc.dim, n_samples, rng)
    engine = FlowMap(sc)
    n = sc.dim // 2
    frame = np.eye(sc.dim)[:, :n]
    tracker = _WindingTracker(n, np.broadcast_to(frame, (n_samples, sc.dim, n)))

    def hook(step, t_mid, mid, vel, new, tan):
        tracker.update(tan, step)

    engine.evolve(pts, periods=p, tangent=frame, step_hook=hook)
    vol = sc.form.ball_measure(sc.support_radius, sc.dim)
    vals = tracker.turns / p
    value = float(np.mean(vals)) * vol
    std_error = float(np.std(vals, ddof=1) / np.sqrt(n_samples)) * vol
    return TauResult(value=value, std_error=std_error,
                     deterministic_error=(2.0 * n / p) * vol,
                     p=p, n_samples=n_samples, seed=seed)


@dataclass(frozen=True)
class SRestrictionResult:
    value: float
    tau: TauResult
    calabi: float
    s: float


def s_restriction_value(sc: HamiltonianScenario, s: float, p: int, n_samples: int,
                        seed: int, quadrature: QuadratureRule | None = None) -> SRestrictionResult:
    """The ball restriction of the global quasi-morphism: tau + s * Calabi."""
    if s == 0.0:
        raise ValidationError("s must be nonzero")
    tau = tau_ball(sc, p, n_samples, seed)
    cal = calabi(sc, quadrature=quadrature)
    return SRestrictionResult(value=tau.value + s * cal, tau=tau, calabi=cal, s=s)
