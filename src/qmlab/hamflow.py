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

A new field kind implements ``value`` and ``jet(pts, t, order)``, which
returns the gradient and, for order 2, the Hessian from one pass over the
points; ``grad`` and ``hess`` are views of the jet.  Each Newton iterate
of the midpoint step evaluates one jet, which gives the velocity and the
linearization together.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.polynomial import Polynomial
from scipy.interpolate import RectBivariateSpline

from .errors import IntegrationError, NumericalError, ValidationError
from .symplectic import SpPath, standard_j

NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 30
TOL_FLOW = 1e-6          # symplecticity drift cap on accepted Jacobian paths
ALIAS_GUARD = 0.4        # per-step det^2 phase cap (turns) during online winding


# --------------------------------------------------------------------------
# time profiles
# --------------------------------------------------------------------------


def _sq_norms(pts: np.ndarray) -> np.ndarray:
    """Squared euclidean norms of a point batch (hand-rolled in 2-d)."""
    if pts.shape[1] == 2:
        return pts[:, 0] * pts[:, 0] + pts[:, 1] * pts[:, 1]
    return np.sum(pts ** 2, axis=1)

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

    def to_json(self):
        return {"poly": list(self.poly), "cos": [list(p) for p in self.cos],
                "sin": [list(p) for p in self.sin]}

    @classmethod
    def from_json(cls, data):
        if data is None:
            return cls()
        return cls(poly=tuple(data.get("poly", (1.0,))),
                   cos=tuple(tuple(p) for p in data.get("cos", ())),
                   sin=tuple(tuple(p) for p in data.get("sin", ())))


# --------------------------------------------------------------------------
# symplectic forms on the ball
# --------------------------------------------------------------------------

class SymplecticForm(ABC):
    """nu = rho(|z|) dx ^ dy (rho = 1 in the standard case, 2-d only otherwise)."""

    kind = "standard"

    @abstractmethod
    def rho(self, pts: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def grad_rho(self, pts: np.ndarray) -> np.ndarray: ...

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
        q = (np.arange(n) + rng.random(n)) / n
        r = self._radius_quantile(q, radius)
        ang = rng.uniform(0.0, 2.0 * np.pi, n)
        return np.stack([r * np.cos(ang), r * np.sin(ang)], axis=1)

    def _radius_quantile(self, q: np.ndarray, radius: float) -> np.ndarray:
        raise NotImplementedError


class StandardForm(SymplecticForm):
    kind = "standard"

    def rho(self, pts):
        return np.ones(pts.shape[0])

    def grad_rho(self, pts):
        return np.zeros_like(pts)

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

    def grad_rho(self, pts):
        r2 = _sq_norms(pts)
        return (8.0 / np.pi) * pts / (1.0 - r2)[:, None] ** 3

    def primitive_coefficient(self, r):
        r = np.asarray(r, dtype=float)
        return 1.0 / (np.pi * (1.0 - r ** 2))

    def cumulative(self, r):
        """Measure of the disk of euclidean radius r: 2 r^2 / (1 - r^2)."""
        return 2.0 * r ** 2 / (1.0 - r ** 2)

    def ball_measure(self, radius, dim):
        if dim != 2:
            raise ValidationError("the hyperbolic form is 2-dimensional")
        return float(self.cumulative(radius))

    def sample_ball(self, radius, dim, n, rng):
        if dim != 2:
            raise ValidationError("the hyperbolic form is 2-dimensional")
        target = rng.random(n) * self.cumulative(radius)
        r2 = target / (2.0 + target)
        r = np.sqrt(r2)
        ang = rng.uniform(0.0, 2.0 * np.pi, n)
        return np.stack([r * np.cos(ang), r * np.sin(ang)], axis=1)

    def _radius_quantile(self, q, radius):
        target = q * self.cumulative(radius)
        return np.sqrt(target / (2.0 + target))


def form_from_json(data) -> SymplecticForm:
    kind = (data or {"kind": "standard"}).get("kind", "standard")
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
    implements ``value`` and ``jet``; ``grad`` and ``hess`` are views of the
    jet, so each kind keeps its derivative formulas in one place.
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

    @abstractmethod
    def space_integral(self, form: SymplecticForm, t: float) -> float:
        """Integral of H(., t) against the form over the support."""

    @abstractmethod
    def to_json(self) -> dict: ...


# The concrete field classes rebind ``grad`` and ``hess`` in their own
# namespace: perfbench/tracing.py wraps value, grad and hess class by class.


class SeparableField(HamiltonianField):
    """H(z, t) = amplitude(t) * spatial(z); spatial integral cached per form."""

    def __init__(self, time: TimeProfile | None = None):
        self.time = time if time is not None else TimeProfile()
        self._spatial_cache: dict[str, float] = {}

    @abstractmethod
    def spatial_value(self, pts): ...

    @abstractmethod
    def spatial_jet(self, pts, order: int = 1):
        """(grad, hess) of the spatial factor; hess is None for order 1."""

    def value(self, pts, t):
        return float(self.time(t)) * self.spatial_value(pts)

    def jet(self, pts, t, order=1):
        amp = float(self.time(t))
        g, hs = self.spatial_jet(pts, order)
        return amp * g, None if hs is None else amp * hs

    grad = HamiltonianField.grad
    hess = HamiltonianField.hess

    def space_integral(self, form, t):
        key = form.kind
        if key not in self._spatial_cache:
            if self.dim != 2:
                raise ValidationError("space_integral implemented for 2-d fields")
            pts, w = _ball_nodes(form, 2, QuadratureRule(n_r=160, n_angle=128),
                                 self.support_radius)
            self._spatial_cache[key] = float(np.sum(w * self.spatial_value(pts)))
        return float(self.time(t)) * self._spatial_cache[key]


def _horner(coef: tuple, x):
    """sum_k coef[k] x^k in the operation order of numpy's ``polyval``."""
    acc = coef[-1] + 0.0 * x
    for c in coef[-2::-1]:
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
        self.support_radius = float(support_radius)
        self.profile = tuple(float(c) for c in profile)
        self.bump_power = int(bump_power)
        s0 = self.support_radius ** 2
        cutoff = Polynomial([1.0, -1.0 / s0]) ** self.bump_power
        h = Polynomial(list(self.profile)) * cutoff
        dh = h.deriv()
        # coefficients of h, h' and h'' in s = r^2, evaluated by _horner
        self._h, self._dh, self._d2h = (tuple(p.coef) for p in (h, dh, dh.deriv()))

    def spatial_value(self, pts):
        s = _sq_norms(pts)
        return np.where(s < self.support_radius ** 2, _horner(self._h, s), 0.0)

    def spatial_jet(self, pts, order=1):
        s = _sq_norms(pts)
        inside = s < self.support_radius ** 2
        c1 = np.where(inside, 2.0 * _horner(self._dh, s), 0.0)
        grad = c1[:, None] * pts
        if order < 2:
            return grad, None
        c2 = np.where(inside, 4.0 * _horner(self._d2h, s), 0.0)
        hess = (c2[:, None] * pts)[:, :, None] * pts[:, None, :]
        for i in range(self.dim):
            hess[:, i, i] += c1
        return grad, hess

    def angular_velocity(self, r, t=0.0, form: SymplecticForm | None = None):
        """Omega(r) = 2 a(t) h'(r^2) / rho(r): the exact rotation rate (2-d)."""
        r = np.asarray(r, dtype=float)
        s = r ** 2
        omega = (np.where(s < self.support_radius ** 2, 2.0 * _horner(self._dh, s), 0.0)
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
        self.radius = float(radius)
        self.dim = self.center.shape[0]
        self.support_radius = float(np.linalg.norm(self.center) + self.radius)

    def _q(self, pts):
        d = pts - self.center
        return _sq_norms(d) / self.radius ** 2, d

    def spatial_value(self, pts):
        q, _ = self._q(pts)
        return self.amplitude * _bump(q, 0)[0]

    def spatial_jet(self, pts, order=1):
        q, d = self._q(pts)
        _, d1, *d2 = _bump(q, order)
        grad = self.amplitude * d1[:, None] * (2.0 / self.radius ** 2) * d
        if order < 2:
            return grad, None
        outer = d[:, :, None] * d[:, None, :]
        return grad, self.amplitude * (d2[0][:, None, None] * (4.0 / self.radius ** 4) * outer
                                       + d1[:, None, None] * (2.0 / self.radius ** 2)
                                       * np.eye(self.dim))

    def to_json(self):
        return {"kind": "bump", "amplitude": self.amplitude,
                "center": self.center.tolist(), "radius": self.radius,
                "time": self.time.to_json()}


class _CutoffField(SeparableField):
    """An inner function f times the radial cutoff b = _bump(|z|^2 / R^2), R the support radius."""

    @abstractmethod
    def _inner_jet(self, pts, order: int) -> list:
        """[f, grad f, hess f][:order + 1] at a batch of points."""

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
        outer = dq[:, :, None] * dq[:, None, :]
        cross = gf[:, :, None] * dq[:, None, :]
        eye = np.eye(self.dim)
        return grad, (hf[0] * b[:, None, None]
                      + cross * db[:, None, None] + np.swapaxes(cross, 1, 2) * db[:, None, None]
                      + f[:, None, None] * (d2b[0][:, None, None] * outer
                                            + db[:, None, None] * eye
                                            * (2.0 / self.support_radius ** 2)))


class PolyBumpField(_CutoffField):
    """A polynomial times a radial smooth cutoff enforcing exact compact support."""

    def __init__(self, monomials, support_radius: float,
                 time: TimeProfile | None = None, dim: int = 2):
        super().__init__(time)
        self.dim = dim
        self.support_radius = float(support_radius)
        self.monomials = [(tuple(int(e) for e in exps), float(c)) for exps, c in monomials]
        for exps, _ in self.monomials:
            if len(exps) != dim:
                raise ValidationError("monomial exponent length must equal dim")
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
        n, d = pts.shape
        powers = [[1.0] + [pts[:, axis] ** k for k in range(1, self._degree[axis] + 1)]
                  for axis in range(d)]

        def poly(terms):
            out = np.zeros(n)
            for c, ops in terms:
                term = c
                for factor, axis, k in ops:
                    term = term * factor * powers[axis][k]
                out += term
            return out

        out = [poly(self._value_terms)]
        if order >= 1:
            out.append(np.stack([poly(terms) for terms in self._grad_terms], axis=1))
        if order >= 2:
            hess = np.empty((n, d, d))
            for (i, j), terms in self._hess_terms.items():
                hess[:, i, j] = hess[:, j, i] = poly(terms)
            out.append(hess)
        return out

    def to_json(self):
        return {"kind": "poly", "monomials": [[list(e), c] for e, c in self.monomials],
                "support_radius": self.support_radius, "time": self.time.to_json(),
                "dim": self.dim}


class GridField(_CutoffField):
    """Grid samples interpolated by a C^2 bicubic spline, times a smooth cutoff."""

    def __init__(self, x0: float, x1: float, values, support_radius: float,
                 time: TimeProfile | None = None):
        super().__init__(time)
        self.dim = 2
        self.x0, self.x1 = float(x0), float(x1)
        self.values = np.asarray(values, dtype=float)
        self.support_radius = float(support_radius)
        axis = np.linspace(self.x0, self.x1, self.values.shape[0])
        ays = np.linspace(self.x0, self.x1, self.values.shape[1])
        self._spline = RectBivariateSpline(axis, ays, self.values, kx=3, ky=3)

    def _inner_jet(self, pts, order):
        x = np.clip(pts[:, 0], self.x0, self.x1)
        y = np.clip(pts[:, 1], self.x0, self.x1)
        ev = lambda dx, dy: self._spline.ev(x, y, dx=dx, dy=dy)
        out = [ev(0, 0)]
        if order >= 1:
            out.append(np.stack([ev(1, 0), ev(0, 1)], axis=1))
        if order >= 2:
            hess = np.empty((pts.shape[0], 2, 2))
            hess[:, 0, 0] = ev(2, 0)
            hess[:, 0, 1] = hess[:, 1, 0] = ev(1, 1)
            hess[:, 1, 1] = ev(0, 2)
            out.append(hess)
        return out

    def to_json(self):
        return {"kind": "grid", "x0": self.x0, "x1": self.x1,
                "values": self.values.tolist(),
                "support_radius": self.support_radius, "time": self.time.to_json()}


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

    def space_integral(self, form, t):
        return sum(p.space_integral(form, t) for p in self.parts)

    def to_json(self):
        return {"kind": "sum", "parts": [p.to_json() for p in self.parts]}


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

    def space_integral(self, form, t):
        f, s = self._piece(t)
        return 2.0 * f.space_integral(form, s)

    def to_json(self):
        return {"kind": "concat", "parts": [self.first.to_json(), self.second.to_json()]}


class ConjugatedField(HamiltonianField):
    """H o g^{-1} for a fixed linear symplectic g: generates g f g^{-1}."""

    def __init__(self, base: HamiltonianField, g: np.ndarray):
        g = np.asarray(g, dtype=float)
        self.base = base
        self.g = g
        self.g_inv = np.linalg.inv(g)
        self.dim = base.dim
        self.support_radius = float(np.linalg.norm(g, 2) * base.support_radius)

    def value(self, pts, t):
        return self.base.value(pts @ self.g_inv.T, t)

    def jet(self, pts, t, order=1):
        g, hs = self.base.jet(pts @ self.g_inv.T, t, order)
        if hs is not None:
            hs = np.einsum("ki,nkl,lj->nij", self.g_inv, hs, self.g_inv)
        return g @ self.g_inv, hs

    grad = HamiltonianField.grad
    hess = HamiltonianField.hess

    def space_integral(self, form, t):
        if form.kind != "standard":
            raise ValidationError("conjugation only preserves the standard form")
        return self.base.space_integral(form, t)

    def to_json(self):
        return {"kind": "conjugated", "g": self.g.tolist(), "base": self.base.to_json()}


def field_from_json(data: dict, support_radius: float | None = None) -> HamiltonianField:
    try:
        kind = data["kind"]
        time = TimeProfile.from_json(data.get("time"))
        if kind == "radial":
            return RadialField(data["profile"],
                               data.get("support_radius", support_radius),
                               data.get("bump_power", 3), time, data.get("dim", 2))
        if kind == "bump":
            return BumpField(data["amplitude"], data["center"], data["radius"], time)
        if kind == "poly":
            return PolyBumpField(data["monomials"],
                                 data.get("support_radius", support_radius),
                                 time, data.get("dim", 2))
        if kind == "grid":
            return GridField(data["x0"], data["x1"], data["values"],
                             data.get("support_radius", support_radius), time)
        if kind == "sum":
            return SumField([field_from_json(p, support_radius) for p in data["parts"]])
        if kind == "concat":
            a, b = (field_from_json(p, support_radius) for p in data["parts"])
            return ConcatField(a, b)
        if kind == "conjugated":
            return ConjugatedField(field_from_json(data["base"], support_radius),
                                   np.asarray(data["g"], dtype=float))
    except KeyError as exc:
        raise ValidationError(f"malformed Hamiltonian JSON: missing {exc}") from exc
    raise ValidationError(f"unknown Hamiltonian kind {data.get('kind')!r}")


# --------------------------------------------------------------------------
# primitives of the form
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PrimitiveOneForm:
    """lambda = a(r) (x dy - y dx) + d(shift), a primitive of the form.

    The optional shift is a polynomial function (exact one-forms change
    nothing in the Calabi integral: that is the primitive-independence
    property under test).
    """

    form: SymplecticForm
    shift: PolyBumpField | None = None

    def evaluate(self, pts: np.ndarray, vecs: np.ndarray) -> np.ndarray:
        n = pts.shape[1] // 2
        j = standard_j(n)
        r = np.linalg.norm(pts, axis=1)
        base = self.form.primitive_coefficient(r) * np.sum(pts * (vecs @ j), axis=1)
        if self.shift is not None:
            base = base + np.sum(self.shift.spatial_jet(pts)[0] * vecs, axis=1)
        return base


def validate_primitive(prim: PrimitiveOneForm, dim: int, rng: np.random.Generator,
                       n_points: int = 64, radius: float = 0.8, tol: float = 1e-8) -> float:
    """Finite-difference check that d(lambda) equals the form; returns the worst error."""
    form = prim.form
    pts = form.sample_ball(radius, dim, n_points, rng)
    h = 1e-5
    worst = 0.0
    j = standard_j(dim // 2)
    for i in range(dim):
        for k in range(i + 1, dim):
            ei = np.zeros(dim)
            ek = np.zeros(dim)
            ei[i] = 1.0
            ek[k] = 1.0
            lam_k = lambda q: prim.evaluate(q, np.broadcast_to(ek, q.shape).copy())
            lam_i = lambda q: prim.evaluate(q, np.broadcast_to(ei, q.shape).copy())
            d_ik = ((lam_k(pts + h * ei) - lam_k(pts - h * ei))
                    - (lam_i(pts + h * ek) - lam_i(pts - h * ek))) / (2.0 * h)
            nu_ik = form.rho(pts) * j.T[i, k]
            worst = max(worst, float(np.max(np.abs(d_ik - nu_ik))))
    if worst > tol:
        raise ValidationError(f"d(lambda) != nu: finite-difference error {worst:.3e}")
    return worst


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

    def primitive(self, shift: PolyBumpField | None = None) -> PrimitiveOneForm:
        return PrimitiveOneForm(self.form, shift)


def scenario_to_json(sc: HamiltonianScenario) -> dict:
    return {"dim": sc.dim, "form": form_to_json(sc.form),
            "ball_radius": sc.ball_radius, "support_radius": sc.support_radius,
            "dt": sc.dt, "H": sc.field.to_json()}


def scenario_from_json(data: dict) -> HamiltonianScenario:
    try:
        fld = field_from_json(data["H"], data.get("support_radius"))
        return HamiltonianScenario(field=fld,
                                   ball_radius=float(data["ball_radius"]),
                                   support_radius=float(data["support_radius"]),
                                   dt=float(data.get("dt", 1e-3)),
                                   form=form_from_json(data.get("form")))
    except KeyError as exc:
        raise ValidationError(f"malformed scenario JSON: missing {exc}") from exc


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
    """Batched linear solve; closed form for the dominant 2x2 case."""
    if mats.shape[-1] == 2:
        a, b = mats[..., 0, 0], mats[..., 0, 1]
        c, d = mats[..., 1, 0], mats[..., 1, 1]
        det = a * d - b * c
        if rhs.ndim == mats.ndim - 1:
            x = (d * rhs[..., 0] - b * rhs[..., 1]) / det
            y = (-c * rhs[..., 0] + a * rhs[..., 1]) / det
            return np.stack([x, y], axis=-1)
        inv = np.empty_like(mats)
        inv[..., 0, 0] = d
        inv[..., 0, 1] = -b
        inv[..., 1, 0] = -c
        inv[..., 1, 1] = a
        return inv @ rhs / det[..., None, None]
    if rhs.ndim == mats.ndim - 1:
        return np.linalg.solve(mats, rhs[..., None])[..., 0]
    return np.linalg.solve(mats, rhs)


class FlowMap:
    """Implicit-midpoint evolution of a scenario, vectorized over points.

    Holds the scenario and per-run integrator diagnostics; evaluation maps
    a batch of points forward through any number of unit periods (the
    Hamiltonian is 1-periodic in time by convention).
    """

    def __init__(self, sc: HamiltonianScenario):
        self.sc = sc
        self.steps_per_period = max(1, round(1.0 / sc.dt))
        self.h = 1.0 / self.steps_per_period
        self._j = standard_j(sc.dim // 2)
        self.max_newton_iters = 0
        self._standard = sc.form.kind == "standard"
        # the converged midpoint state of the last accepted step, for hooks
        self.last_mid_velocity: np.ndarray | None = None

    def _apply_j(self, x: np.ndarray) -> np.ndarray:
        """J0 applied along axis 1 of a batch of vectors or matrices; hand-rolled in 2-d."""
        if x.shape[1] == 2:
            out = np.empty_like(x)
            out[:, 0] = -x[:, 1]
            out[:, 1] = x[:, 0]
            return out
        return np.einsum("ij,nj...->ni...", self._j, x)

    def _field_jet(self, pts, t, order):
        """X_H = J0 grad H / rho and, for order 2, its linearization DX_H (else None).

        One field jet serves both, so the density form's rho and grad rho
        are evaluated once per call.
        """
        g, m = self.sc.field.jet(pts, t, order)
        if not self._standard:
            rho = self.sc.form.rho(pts)
            if m is not None:
                m = (m / rho[:, None, None]
                     - g[:, :, None] * self.sc.form.grad_rho(pts)[:, None, :]
                     / (rho ** 2)[:, None, None])
            g = g / rho[:, None]
        return self._apply_j(g), None if m is None else self._apply_j(m)

    def vector_field(self, pts, t):
        return self._field_jet(pts, t, 1)[0]

    def _step(self, pts, t0):
        """One midpoint step: the new points and DX_H at the converged midpoint.

        Every Newton iterate evaluates the velocity and its linearization
        together; the converged iterate's linearization is the one the
        Cayley tangent step needs.
        """
        h = self.h
        t_mid = t0 + 0.5 * h
        w = pts + h * self.vector_field(pts, t_mid)
        eye = np.eye(self.sc.dim)
        for it in range(NEWTON_MAX_ITER):
            vel, a_mid = self._field_jet(0.5 * (pts + w), t_mid, 2)
            resid = w - pts - h * vel
            err = np.max(np.abs(resid))
            if err < NEWTON_TOL * (1.0 + np.max(np.abs(pts))):
                self.max_newton_iters = max(self.max_newton_iters, it)
                break
            w = w - _solve_batch(eye - (0.5 * h) * a_mid, resid)
        else:
            raise IntegrationError(-1, "Newton iteration for the midpoint step did not converge")
        self.last_mid_velocity = vel
        return w, a_mid

    def evolve(self, pts, periods: int = 1, tangent=None, step_hook=None):
        """Advance a batch through whole periods; optionally transport tangents.

        ``step_hook(step_index, t_mid, mid_pts, new_pts, tangent)`` runs
        after every accepted step; hooks may read ``last_mid_velocity`` for
        the converged midpoint velocity of that step.
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=float)).copy()
        if np.any(np.linalg.norm(pts, axis=1) > self.sc.ball_radius * (1 + 1e-12)):
            raise ValidationError("initial points must lie in the ball")
        eye = np.eye(self.sc.dim)
        total = periods * self.steps_per_period
        for step in range(total):
            t0 = (step % self.steps_per_period) * self.h
            try:
                new, a_mid = self._step(pts, t0)
            except IntegrationError as exc:
                raise IntegrationError(step, f"integrator failed at step {step}: {exc}") from exc
            if tangent is not None:
                cay = _solve_batch(eye - (0.5 * self.h) * a_mid,
                                   eye + (0.5 * self.h) * a_mid)
                tangent = cay @ tangent
            if step_hook is not None:
                step_hook(step, t0 + 0.5 * self.h, 0.5 * (pts + new), new, tangent)
            pts = new
        return (pts, tangent) if tangent is not None else pts


def integrate_flow(sc: HamiltonianScenario, x0, t: float):
    """The flow map f_t(x0) for t >= 0 (t need not be a whole period)."""
    x0 = np.asarray(x0, dtype=float)
    if np.linalg.norm(x0) > sc.ball_radius:
        raise ValidationError("x0 outside the ball")
    if t < 0:
        raise ValidationError("t must be nonnegative")
    if t == 0:
        return x0.copy()
    engine = FlowMap(sc)
    whole = int(np.floor(t + 1e-12))
    frac = t - whole
    pts = np.atleast_2d(x0).copy()
    if whole:
        pts = engine.evolve(pts, periods=whole)
    if frac > 1e-12:
        # the fractional leg runs as one period of length frac, in about frac / dt steps
        engine.steps_per_period = max(1, round(frac / sc.dt))
        engine.h = frac / engine.steps_per_period
        pts = engine.evolve(pts, periods=1)
    return pts[0]


def _det2_first_columns(tangent: np.ndarray, n: int) -> np.ndarray:
    """(det / |det|)^2 of the complexified first n columns of each tangent."""
    if n == 1:
        d = tangent[:, 0, 0] + 1j * tangent[:, 1, 0]
    else:
        d = np.linalg.det(tangent[:, :n, :n] + 1j * tangent[:, n:, :n])
    return (d / np.abs(d)) ** 2


class _WindingTracker:
    """Accumulates det^2 phase along tangent transport, with an alias guard."""

    def __init__(self, n: int, tangent0: np.ndarray):
        self.n = n
        self.prev = _det2_first_columns(tangent0, n)
        self.turns = np.zeros(tangent0.shape[0])

    def update(self, tangent: np.ndarray):
        cur = _det2_first_columns(tangent, self.n)
        step = np.angle(cur / self.prev) / (2.0 * np.pi)
        if np.max(np.abs(step)) >= ALIAS_GUARD:
            raise NumericalError(
                "det^2 phase moved >= 0.4 turns in one step: decrease dt")
        self.turns += step
        self.prev = cur


def jacobian_path(sc: HamiltonianScenario, x0, p: int, sample_stride: int | None = None) -> SpPath:
    """The tangent path t -> Df_t(x0) over p concatenated periods, as an SpPath.

    For density forms the frames are rescaled to the unimodular
    representative (hamflow owns this repair; symplinalg would reject raw
    density Jacobians).  Symplecticity drift beyond TOL_FLOW raises.
    """
    if p < 1:
        raise ValidationError("p must be >= 1")
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    engine = FlowMap(sc)
    stride = sample_stride or max(1, engine.steps_per_period // 64)
    n = sc.dim // 2
    samples = [np.eye(sc.dim)]
    times = [0.0]
    rho0 = sc.form.rho(x0)[0]

    def hook(step, t_mid, mid, new, tangent):
        if (step + 1) % stride == 0 or step + 1 == p * engine.steps_per_period:
            mat = tangent[0].copy()
            if sc.form.kind != "standard":
                mat *= np.sqrt(rho0 / sc.form.rho(np.atleast_2d(new))[0])
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
    integrate to well below 1e-6.
    """

    radius: float | None = None
    n_r: int = 192
    n_angle: int = 256
    n_t: int = 24
    n_axis: int = 16


def _ball_nodes(form: SymplecticForm, dim: int, rule: QuadratureRule, radius: float):
    from numpy.polynomial.legendre import leggauss
    if dim == 2:
        xs, ws = leggauss(rule.n_r)
        r = 0.5 * radius * (xs + 1.0)
        wr = 0.5 * radius * ws
        ang = 2.0 * np.pi * np.arange(rule.n_angle) / rule.n_angle
        rr, aa = np.meshgrid(r, ang, indexing="ij")
        pts = np.stack([(rr * np.cos(aa)).ravel(), (rr * np.sin(aa)).ravel()], axis=1)
        w = np.repeat(wr * r, rule.n_angle) * (2.0 * np.pi / rule.n_angle)
        return pts, w * form.rho(pts)
    xs, ws = leggauss(rule.n_axis)
    axes = [0.5 * radius * (xs + 1.0) * 2.0 - radius for _ in range(dim)]
    wts = [radius * ws for _ in range(dim)]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    w = np.ones(pts.shape[0])
    for axis in range(dim):
        w = w * np.repeat(np.tile(wts[axis], int(np.prod([rule.n_axis] * axis))),
                          int(np.prod([rule.n_axis] * (dim - axis - 1))))
    keep = np.linalg.norm(pts, axis=1) <= radius
    return pts[keep], (w * form.rho(pts))[keep]


def calabi(sc: HamiltonianScenario, primitive: PrimitiveOneForm | None = None,
           quadrature: QuadratureRule | None = None) -> float:
    """The Calabi value: the double integral of lambda(Z_t) over ball and time."""
    rule = quadrature or QuadratureRule()
    radius = rule.radius if rule.radius is not None else sc.support_radius
    if radius < sc.support_radius:
        raise ValidationError("quadrature domain smaller than the support")
    if radius > sc.ball_radius:
        raise ValidationError("quadrature domain exceeds the ball")
    prim = primitive or sc.primitive()
    pts, w = _ball_nodes(sc.form, sc.dim, rule, radius)
    from numpy.polynomial.legendre import leggauss
    ts, wt = leggauss(rule.n_t)
    ts = 0.5 * (ts + 1.0)
    wt = 0.5 * wt
    rho = sc.form.rho(pts)
    j = standard_j(sc.dim // 2)
    total = 0.0
    for t, w_t in zip(ts, wt):
        z = (sc.field.grad(pts, float(t)) @ j.T) / rho[:, None]
        total += w_t * float(np.sum(w * prim.evaluate(pts, z)))
    return total


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
    if n_iterations < 1:
        raise ValidationError("n_iterations must be positive")
    engine = FlowMap(sc)
    pts = np.atleast_2d(np.asarray(x, dtype=float)).copy()
    running = []
    total = 0.0
    for k in range(n_iterations):
        total += float(phi(pts[0]))
        running.append(total / (k + 1))
        pts = engine.evolve(pts, periods=1)
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
    support contribute zero).
    """
    if p < 1 or n_samples < 2:
        raise ValidationError("need p >= 1 and n_samples >= 2")
    rng = np.random.default_rng(seed)
    pts = sc.form.sample_ball(sc.support_radius, sc.dim, n_samples, rng)
    engine = FlowMap(sc)
    n = sc.dim // 2
    tangent = np.broadcast_to(np.eye(sc.dim), (n_samples, sc.dim, sc.dim)).copy()
    tracker = _WindingTracker(n, tangent)

    def hook(step, t_mid, mid, new, tan):
        tracker.update(tan)

    engine.evolve(pts, periods=p, tangent=tangent, step_hook=hook)
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
