"""Poincare-disk geometry and the boundary-winding construction of the
surface quasi-morphism, restricted to disk-supported Hamiltonian isotopies.

The disk (curvature -1, metric 4|dz|^2/(1-|z|^2)^2) is a chart of the
universal cover of a genus-g surface.  A Hamiltonian isotopy supported in
a small disk U lifts to the unit tangent bundle: along each trajectory the
direction angle parallel-transports and additionally rotates by minus the
mean-zero Hamiltonian (in turns).  Pushing the moving direction to the
circle at infinity and counting boundary turns yields the integer index
whose fiber infimum defines the angle function (the boundary angle is
psi + 2 arg(1 + z exp(-i psi)), which never wraps: Re(1 + z exp(-i psi))
>= 1 - |z| > 0); the homogenized integral of the angle over the surface is
the invariant that restricts to the Calabi value on disk-supported maps.
The mean-zero constant c(t) = -(integral of H_t over U) / (2g-2) comes from
``calabi``'s per-term sums, which are minus the integrals of the terms h_k.

Normalization (frozen): the fiber coordinate is measured in turns, the
contact form is the Levi-Civita angular form over 2 pi, and the surface
form is the hyperbolic area over 2 pi, so a genus-g surface has total area
2g-2 and the chart primitive is (x dy - y dx)/(pi (1 - r^2)).  That form,
with its measure <-> radius map, is ``hamflow.HyperbolicForm``; the
Gauss-Legendre rule of the integrals here is ``hamflow``'s as well.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (NumericalError, RefinePathError, ValidationError, convert,
                     period_count)
from .hamflow import (FlowMap, HamiltonianScenario, HyperbolicForm, _calabi_terms, _sq_norms,
                      _unit_gauss_legendre, scenario_from_json, scenario_to_json)

DISK_EDGE = 1.0 - 1e-12
LIFT_GUARD = 0.5  # turns; a circle-path step at or past this aliases
GEODESIC_NODES = 32  # Gauss-Legendre nodes of a geodesic line integral


def _as_complex(z) -> complex:
    z = complex(z)
    if abs(z) >= DISK_EDGE:
        raise ValidationError(f"point {z} is not strictly inside the disk")
    return z


@dataclass(frozen=True)
class UnitDirection:
    """A base point in the open disk plus a direction angle in the chart frame."""

    base: complex
    angle: float

    def __post_init__(self):
        object.__setattr__(self, "base", _as_complex(self.base))
        object.__setattr__(self, "angle", float(self.angle))


@dataclass(frozen=True)
class CirclePath:
    """A continuously lifted path of circle angles, in turn units."""

    lifted_angles: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.lifted_angles, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise ValidationError("lifted_angles must be a nonempty 1-d array")
        bad = np.nonzero(np.abs(np.diff(arr)) >= LIFT_GUARD)[0]
        if bad.size:
            raise RefinePathError(int(bad[0]))
        object.__setattr__(self, "lifted_angles", arr)


def circle_index(path: CirclePath) -> int:
    """The integer part (floor) of the lifted endpoint difference."""
    arr = path.lifted_angles
    return int(np.floor(arr[-1] - arr[0]))


def concat_circle_paths(a: CirclePath, b: CirclePath) -> CirclePath:
    """Concatenation, re-lifting b by an integer so it starts where a ends."""
    offset = a.lifted_angles[-1] - b.lifted_angles[0]
    if abs(offset - np.round(offset)) > 1e-9:
        raise ValidationError("paths do not concatenate: endpoints differ on the circle")
    return CirclePath(np.concatenate([a.lifted_angles,
                                      b.lifted_angles[1:] + np.round(offset)]))


def _mobius(a, w):
    """The disk automorphism w -> (w + a) / (1 + conj(a) w), which sends 0 to a."""
    return (w + a) / (1.0 + np.conj(a) * w)


def geodesic_endpoint(v: UnitDirection) -> float:
    """Boundary angle (radians, lifted continuously from v.angle) of the geodesic ray from v."""
    return float(_endpoint_angles(np.array([v.base]), np.array([[v.angle]]))[0, 0])


def _endpoint_angles(z: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Lifted boundary angles of the geodesic rays at z complex (N,) in directions psi (N, k).

    The ray ends at _mobius(z, exp(i psi)) = exp(i psi) u / conj(u) with
    u = 1 + z exp(-i psi).  Re u >= 1 - |z| > 0 keeps arg u in (-pi/2, pi/2),
    so psi + 2 arg u is continuous in (z, psi): the lift, which never wraps.
    """
    # exp(..) * z: numpy evaluates a large z * exp(..) in place as exp(..) * z, and
    # FMA complex products are not bitwise commutative, so only this order is size-free
    return psi + 2.0 * np.angle(1.0 + np.exp(-1j * psi) * z[:, None])


def parallel_transport_rate(z: complex, zdot: complex) -> float:
    """Chart-frame rotation rate (radians per time) of a parallel frame."""
    z, zdot = complex(z), complex(zdot)
    return float(transport_rate_points(np.array([[z.real, z.imag]]),
                                       np.array([[zdot.real, zdot.imag]]))[0])


def transport_rate_points(pts: np.ndarray, vel: np.ndarray) -> np.ndarray:
    """Chart-frame rotation rates of parallel frames at real (N, 2) points and velocities.

    For the conformal hyperbolic metric the Levi-Civita transport of a
    vector along a velocity zdot rotates its chart angle at
    -2 Im(conj(z) zdot) / (1 - |z|^2); the rate vanishes at the origin and
    its loop integral is minus the enclosed hyperbolic area (Gauss-Bonnet
    with curvature -1).
    """
    imag_part = pts[:, 0] * vel[:, 1] - pts[:, 1] * vel[:, 0]
    return -2.0 * imag_part / (1.0 - _sq_norms(pts))


@dataclass(frozen=True)
class DiskIsotopy:
    """A Hamiltonian scenario read inside a hyperbolic disk U of a closed surface.

    The scenario must carry the hyperbolic form; U is the chart disk of
    form-area ``disk_area`` around the origin, embedded in a genus-g
    surface of total area 2g-2.  Outside U the isotopy is trivial and the
    mean-zero correction constant acts alone.
    """

    scenario: HamiltonianScenario
    genus: int
    disk_area: float

    def __post_init__(self):
        if self.genus < 2:
            raise ValidationError("the ambient surface needs genus >= 2")
        if not isinstance(self.scenario.form, HyperbolicForm):
            raise ValidationError("disk isotopies require the hyperbolic form")
        total = 2.0 * self.genus - 2.0
        if not 0.0 < self.disk_area < total:
            raise ValidationError("need 0 < disk_area < 2g-2")
        if self.scenario.support_radius >= self.chart_radius:
            raise ValidationError("support must lie strictly inside the disk U")
        if self.scenario.ball_radius < self.chart_radius:
            raise ValidationError("scenario ball must cover the disk U")

    @property
    def chart_radius(self) -> float:
        """Euclidean radius of U: area = 2 r^2 / (1 - r^2)."""
        return float(self.scenario.form.radius_of_measure(self.disk_area))

    @property
    def total_area(self) -> float:
        return 2.0 * self.genus - 2.0

    @functools.cached_property
    def _terms(self) -> list:
        """[(a_k, S_k), ...] of ``calabi``'s split, S_k = -(integral of h_k rho over U), once."""
        return _calabi_terms(self.scenario)

    def mean_zero_constant(self, t: float) -> float:
        """c(t) = -(integral of H_t over U) / (2g-2) = sum_k a_k(t) S_k / (2g-2)."""
        return sum(a(t) * s for a, s in self._terms) / self.total_area

    def mean_constant_integral(self) -> float:
        """Time integral of c over one period: calabi(scenario) / (2g-2)."""
        return sum(a.integral() * s for a, s in self._terms) / self.total_area


def isotopy_to_json(iso: DiskIsotopy) -> dict:
    return {"scenario": scenario_to_json(iso.scenario),
            "genus": iso.genus, "disk_area": iso.disk_area}


def isotopy_from_json(data: dict) -> DiskIsotopy:
    if not isinstance(data, dict):
        raise ValidationError(f"DiskIsotopy JSON must be an object, got {type(data).__name__}")
    try:
        genus = convert("genus", data["genus"], int, "DiskIsotopy JSON")
        disk_area = convert("disk_area", data["disk_area"], float, "DiskIsotopy JSON")
        scenario = data["scenario"]
    except KeyError as exc:
        raise ValidationError(f"malformed DiskIsotopy JSON: missing {exc}") from exc
    return DiskIsotopy(scenario=scenario_from_json(scenario), genus=genus, disk_area=disk_area)


# --------------------------------------------------------------------------
# the contact lift
# --------------------------------------------------------------------------

def _chart_point(iso: DiskIsotopy, x) -> complex:
    """A start point (complex, real scalar or (x, y) pair) strictly inside U."""
    z = complex(x) if np.isscalar(x) else complex(x[0], x[1])
    if abs(z) >= iso.chart_radius:
        raise ValidationError("x must lie inside the disk U")
    return z


def _fiber_range(z0: np.ndarray, z1: np.ndarray, dpsi: np.ndarray) -> tuple[np.ndarray, ...]:
    """(lo, hi), (N,) each: min and max over the fiber of the boundary turns D, z0 -> z1.

    With w = exp(i psi), a = z0 and b = z1 exp(-i dpsi), D = dpsi/2pi + arg((w + b)/(w + a))/pi
    (both factors 1 + z/w have positive real part).  The unit circle goes to the circle of
    centre c = 1 - (b - a) conj(a)/(1 - |a|^2) and radius |b - a|/(1 - |a|^2), which leaves
    out 0, the image of -b (the disk goes outside): arg ranges over arg c -+ arcsin(radius/|c|).
    """
    b = z1 * np.exp(-1j * dpsi)
    scale = 1.0 - np.abs(z0) ** 2
    centre = 1.0 - (b - z0) * np.conj(z0) / scale
    half = np.arcsin(np.abs(b - z0) / scale / np.abs(centre)) / np.pi
    mid = dpsi / (2.0 * np.pi) + np.angle(centre) / np.pi
    return mid - half, mid + half


class _LiftState:
    """The fiber evolution of a batch over p periods: start and end points ``z0``, ``z1``.

    The fiber-angle increment ``dpsi`` does not depend on the direction, so one
    per point fixes the boundary turns at every fiber angle (``_fiber_range``).
    ``max_radius`` is the largest |z| of the start and every step's points;
    the hook tracks the largest |z|^2 and one square root follows the run
    (the root is monotone and correctly rounded, so it is the largest norm).
    """

    def __init__(self, iso: DiskIsotopy, pts: np.ndarray, p: int, keep_trace: bool = False):
        self.iso = iso
        self.engine = FlowMap(iso.scenario)
        # c(t) at each step of a period, once: the hook reads it by step
        self.c_mids = [iso.mean_zero_constant(t) for t in self.engine.t_mids]
        self.dpsi = np.zeros(pts.shape[0])
        self._max_sq = float(np.max(_sq_norms(pts)))
        # (t, points, fiber increment) at every step
        self.trace = [(0.0, pts.copy(), self.dpsi.copy())] if keep_trace else None
        out = self.engine.evolve(pts, periods=p, step_hook=self.hook)
        self.max_radius = math.sqrt(self._max_sq)
        if self.max_radius >= iso.chart_radius * (1.0 + 1e-9):
            raise NumericalError("a trajectory left the disk U (support violation)")
        self.z0 = pts[:, 0] + 1j * pts[:, 1]
        self.z1 = out[:, 0] + 1j * out[:, 1]

    def hook(self, step: int, t_mid: float, mid: np.ndarray, vel: np.ndarray,
             new: np.ndarray, tangent):
        h = self.engine.h
        rate = transport_rate_points(mid, vel)
        h_tilde = (self.iso.scenario.field.value(mid, t_mid)
                   + self.c_mids[step % self.engine.steps_per_period])
        self.dpsi += h * (rate - 2.0 * np.pi * h_tilde)
        self._max_sq = max(self._max_sq, float(_sq_norms(new).max()))
        if self.trace is not None:
            self.trace.append(((step + 1) * h, new.copy(), self.dpsi.copy()))


def _boundary_indices(iso: DiskIsotopy, pts: np.ndarray, p: int) -> tuple[np.ndarray, ...]:
    """floor(min D) and floor(max D) over the fiber, (N,) each, for the lift over p periods."""
    state = _LiftState(iso, pts, p)
    lo, hi = _fiber_range(state.z0, state.z1, state.dpsi)
    return np.floor(lo), np.floor(hi)


def theta_lift(iso: DiskIsotopy, v: UnitDirection, p: int) -> tuple[list, CirclePath]:
    """Lift the isotopy through the direction bundle along the orbit of v.

    Returns the sampled direction path [(t, point, chart angle), ...] and
    the continuously lifted boundary path at infinity over p periods.
    """
    period_count(p)
    z = _chart_point(iso, v.base)
    state = _LiftState(iso, np.array([[z.real, z.imag]]), p, keep_trace=True)
    path = [(t, complex(pt[0, 0], pt[0, 1]), v.angle + float(d[0])) for t, pt, d in state.trace]
    _, zs, psis = map(np.array, zip(*path))
    return path, CirclePath(_endpoint_angles(zs, psis[:, None])[:, 0] / (2.0 * np.pi))


def angle_estimate(iso: DiskIsotopy, x, p: int, fiber_samples=None) -> float:
    """-min over the fiber of the boundary index of the lift at x, -floor(min D), exactly.

    Outside the support (but inside U) the trajectory is fixed and the value is the
    analytic p * integral of c.  ``fiber_samples`` is ignored (perfbench passes it).
    """
    period_count(p)
    z = _chart_point(iso, x)
    if abs(z) >= iso.scenario.support_radius:
        return p * iso.mean_constant_integral()
    lo, _ = _boundary_indices(iso, np.array([[z.real, z.imag]]), p)
    return float(-lo[0])


@dataclass(frozen=True)
class CalSResult:
    value: float
    std_error: float
    p: int
    n_points: int
    seed: int


def cal_s_estimate(iso: DiskIsotopy, p: int, n_points: int, seed: int = 0) -> CalSResult:
    """Monte Carlo estimate of the homogenized angle integral over the surface.

    Points are drawn form-uniformly on U (stratified in equal-measure
    radial shells: unbiased, and for rotation-symmetric scenarios nearly
    noise-free); trajectories inside the support are lifted in one batch,
    points of U outside the support contribute the analytic constant, and
    the complement of U adds the exact term c * (2g - 2 - area(U)).  By
    the disk case of the restriction theorem the value converges to the
    Calabi invariant of the isotopy.  The reported std_error uses the
    i.i.d. formula and is conservative for the stratified draw.
    """
    period_count(p)
    if n_points < 2:
        raise ValidationError("need n_points >= 2")
    rng = np.random.default_rng(seed)
    form = iso.scenario.form
    pts = form.sample_ball_stratified(iso.chart_radius, 2, n_points, rng)
    r = np.linalg.norm(pts, axis=1)
    inside = r < iso.scenario.support_radius
    c_bar = iso.mean_constant_integral()
    vals = np.full(n_points, c_bar)
    if np.any(inside):
        lo, _ = _boundary_indices(iso, pts[inside], p)
        vals[inside] = -lo / p
    value = float(np.mean(vals)) * iso.disk_area + c_bar * (iso.total_area - iso.disk_area)
    std_error = float(np.std(vals, ddof=1) / np.sqrt(n_points)) * iso.disk_area
    return CalSResult(value=value, std_error=std_error, p=p, n_points=n_points, seed=seed)


def fiber_index_spread(iso: DiskIsotopy, x, p: int) -> int:
    """max - min of the boundary index over the fiber, exactly (paper bound: <= 2)."""
    period_count(p)
    z = _chart_point(iso, x)
    lo, hi = _boundary_indices(iso, np.array([[z.real, z.imag]]), p)
    return int(hi[0] - lo[0])


# --------------------------------------------------------------------------
# geodesic-integral quasi-morphisms
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class OneForm:
    """eta = a(x, y) dx + b(x, y) dy with polynomial coefficients."""

    a_monomials: tuple
    b_monomials: tuple

    @staticmethod
    def _eval(monomials, x, y):
        out = np.zeros_like(x)
        for i, j, c in monomials:
            out = out + c * x ** i * y ** j
        return out

    def coefficients(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x, y = pts[..., 0], pts[..., 1]
        return (self._eval(self.a_monomials, x, y),
                self._eval(self.b_monomials, x, y))

    @classmethod
    def from_json(cls, data: dict) -> "OneForm":
        if not isinstance(data, dict) or data.get("kind", "poly") != "poly":
            raise ValidationError("a one-form must be a JSON object of kind 'poly'")
        return cls(*(_monomials_from_json(key, data.get(key, [])) for key in ("a", "b")))

    def to_json(self) -> dict:
        return {"kind": "poly", "a": [list(m) for m in self.a_monomials],
                "b": [list(m) for m in self.b_monomials]}


def _monomials_from_json(key: str, entries) -> tuple:
    """One-form field ``key``: a list of [i, j, c] monomials with exponents i, j >= 0."""
    if not (isinstance(entries, (list, tuple))
            and all(isinstance(m, (list, tuple)) and len(m) == 3 for m in entries)):
        raise ValidationError(f"one-form field {key!r} must be a list of [i, j, c] monomials")
    out = tuple((convert(key, i, int, "one-form JSON"), convert(key, j, int, "one-form JSON"),
                 convert(key, c, float, "one-form JSON")) for i, j, c in entries)
    if any(i < 0 or j < 0 for i, j, _ in out):
        raise ValidationError(f"one-form field {key!r} has a negative exponent")
    return out


def hyperbolic_distance(z0: complex, z1: complex) -> float:
    """Distance in the curvature -1 metric."""
    return float(2.0 * np.arctanh(abs(_mobius(-z0, z1))))


def geodesic_line_integral(eta: OneForm, z0: complex, z1: complex) -> float:
    """Integral of eta along the hyperbolic geodesic from z0 to z1."""
    return float(_geodesic_line_integrals(eta, [z0], [z1])[0])


def _geodesic_line_integrals(eta: OneForm, z0, z1) -> np.ndarray:
    """Integrals of eta along the hyperbolic geodesics from z0[i] to z1[i], (N,).

    Each geodesic is the Mobius image of a radial segment, so each integral
    is a single Gauss-Legendre sum over a closed-form parametrization; the
    sums of all rows are one batched pass, and a row's value does not
    depend on the others.  A row's two scalars, the image w1 of z1 and
    1 - |z0|^2, stay in the scalar arithmetic the one-point integral has
    always used: numpy's array loops round a complex product (FMA) and a
    complex modulus differently, which would move the integrals by ulps.
    """
    rows = [(complex(a), complex(b)) for a, b in zip(z0, z1)]
    w1 = np.array([_mobius(-a, b) for a, b in rows])
    scale = np.array([1.0 - abs(a) ** 2 for a, _ in rows])
    z0 = np.array([a for a, _ in rows])[:, None]
    ts, ws = _unit_gauss_legendre(GEODESIC_NODES)
    tw = ts * w1[:, None]
    curve = _mobius(z0, tw)
    dcurve = (w1 * scale)[:, None] / (1.0 + np.conj(z0) * tw) ** 2
    a, b = eta.coefficients(np.stack([curve.real, curve.imag], axis=-1))
    integrand = a * dcurve.real + b * dcurve.imag
    return np.where(np.abs(w1) < 1e-15, 0.0, np.sum(ws * integrand, axis=-1))


def gg_u(eta: OneForm, iso: DiskIsotopy, x, p: int) -> float:
    """Line integral of eta along the hyperbolic geodesic from x to f^p(x).

    For disk-supported isotopies both endpoints stay in one lifted chart.
    """
    period_count(p)
    z0 = _chart_point(iso, x)
    engine = FlowMap(iso.scenario)
    out = engine.evolve(np.array([[z0.real, z0.imag]]), periods=p)
    return geodesic_line_integral(eta, z0, complex(out[0, 0], out[0, 1]))


@dataclass(frozen=True)
class GgResult:
    value: float
    max_abs_u: float
    p: int
    n_points: int
    seed: int


def gg_quasimorphism_estimate(eta: OneForm, iso: DiskIsotopy, p: int,
                              n_points: int, seed: int = 0,
                              checkpoints: tuple[int, ...] = ()) -> GgResult | list[GgResult]:
    """Estimate of the homogenized geodesic quasi-morphism (zero on disk maps).

    Averages the geodesic integrals over the support (points outside are
    fixed and give 0), multiplies by the form measure, and divides by p;
    the uniform bound |u| <= |eta| * diam makes the limit vanish.  The
    whole batch is evolved in one pass; with ``checkpoints`` (sorted
    powers <= p) a result is reported at every checkpoint and at p.
    """
    period_count(p)
    if n_points < 1:
        raise ValidationError("need n_points >= 1")
    marks = sorted({period_count(m, "checkpoints") for m in checkpoints} | {p})
    if marks[-1] > p:
        raise ValidationError("checkpoints must lie in [1, p]")
    rng = np.random.default_rng(seed)
    form = iso.scenario.form
    pts = form.sample_ball(iso.scenario.support_radius, 2, n_points, rng)
    z0 = pts[:, 0] + 1j * pts[:, 1]
    engine = FlowMap(iso.scenario)
    measure = form.ball_measure(iso.scenario.support_radius, 2)
    results = []
    cur = pts
    done = 0
    for mark in marks:
        cur = engine.evolve(cur, periods=mark - done)
        done = mark
        vals = _geodesic_line_integrals(eta, z0, [complex(x, y) for x, y in cur.tolist()])
        results.append(GgResult(value=float(np.mean(vals)) * measure / mark,
                                max_abs_u=float(np.max(np.abs(vals))),
                                p=mark, n_points=n_points, seed=seed))
    return results if checkpoints else results[-1]
