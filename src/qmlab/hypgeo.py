"""Poincare-disk geometry and the boundary-winding construction of the
surface quasi-morphism, restricted to disk-supported Hamiltonian isotopies.

The disk (curvature -1, metric 4|dz|^2/(1-|z|^2)^2) is a chart of the
universal cover of a genus-g surface.  A Hamiltonian isotopy supported in
a small disk U lifts to the unit tangent bundle: along each trajectory the
direction angle parallel-transports and additionally rotates by minus the
mean-zero Hamiltonian (in turns).  Pushing the moving direction to the
circle at infinity and counting boundary turns yields the integer index
whose fiber infimum defines the angle function; the homogenized integral
of the angle over the surface is the invariant that restricts to the
Calabi value on disk-supported maps.

Normalization (frozen): the fiber coordinate is measured in turns, the
contact form is the Levi-Civita angular form over 2 pi, and the surface
form is the hyperbolic area over 2 pi, so a genus-g surface has total area
2g-2 and the chart primitive is (x dy - y dx)/(pi (1 - r^2)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import NumericalError, RefinePathError, ValidationError
from .hamflow import (FlowMap, HamiltonianScenario, HyperbolicForm,
                      scenario_from_json, scenario_to_json)

DISK_EDGE = 1.0 - 1e-12
LIFT_GUARD = 0.5  # turns; a boundary-lift step at or past this aliases


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
        if arr.size > 1:
            steps = np.abs(np.diff(arr))
            bad = np.nonzero(steps >= LIFT_GUARD)[0]
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


def geodesic_endpoint(v: UnitDirection) -> float:
    """Boundary angle (radians mod 2 pi) of the geodesic ray from v.

    Closed form: the Mobius map sending the base to 0 preserves direction
    angles at the base point, so the ray hits exp(i angle) and pulls back.
    """
    z0 = v.base
    w = np.exp(1j * v.angle)
    end = (w + z0) / (1.0 + np.conj(z0) * w)
    return float(np.angle(end))


def _endpoint_angles(z: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Vectorized geodesic_endpoint: z complex (N,), psi (N, k) -> angles (N, k)."""
    w = np.exp(1j * psi)
    zc = z[:, None]
    end = (w + zc) / (1.0 + np.conj(zc) * w)
    return np.angle(end)


def parallel_transport_rate(z: complex, zdot: complex) -> float:
    """Chart-frame rotation rate (radians per time) of a parallel frame.

    For the conformal hyperbolic metric the Levi-Civita transport of a
    vector along a velocity zdot rotates its chart angle at
    -2 Im(conj(z) zdot) / (1 - |z|^2); the rate vanishes at the origin and
    its loop integral is minus the enclosed hyperbolic area (Gauss-Bonnet
    with curvature -1).
    """
    z = complex(z)
    return float(-2.0 * np.imag(np.conj(z) * zdot) / (1.0 - abs(z) ** 2))


def transport_rate_points(pts: np.ndarray, vel: np.ndarray) -> np.ndarray:
    """Batched parallel_transport_rate on real (N, 2) arrays."""
    imag_part = pts[:, 0] * vel[:, 1] - pts[:, 1] * vel[:, 0]
    r2 = np.sum(pts ** 2, axis=1)
    return -2.0 * imag_part / (1.0 - r2)


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
        return float(np.sqrt(self.disk_area / (2.0 + self.disk_area)))

    @property
    def total_area(self) -> float:
        return 2.0 * self.genus - 2.0

    def mean_zero_constant(self, t: float) -> float:
        """c(t) = -(integral of H_t over U) / (2g-2)."""
        return -self.scenario.field.space_integral(self.scenario.form, t) / self.total_area

    def mean_constant_integral(self) -> float:
        """Time integral of c over one period."""
        ts, wt = leggauss(32)
        ts = 0.5 * (ts + 1.0)
        return float(sum(0.5 * w * self.mean_zero_constant(float(t)) for t, w in zip(ts, wt)))


def isotopy_to_json(iso: DiskIsotopy) -> dict:
    return {"scenario": scenario_to_json(iso.scenario),
            "genus": iso.genus, "disk_area": iso.disk_area}


def isotopy_from_json(data: dict) -> DiskIsotopy:
    try:
        return DiskIsotopy(scenario=scenario_from_json(data["scenario"]),
                           genus=int(data["genus"]),
                           disk_area=float(data["disk_area"]))
    except KeyError as exc:
        raise ValidationError(f"malformed DiskIsotopy JSON: missing {exc}") from exc


# --------------------------------------------------------------------------
# the contact lift
# --------------------------------------------------------------------------

def _chart_point(iso: DiskIsotopy, x) -> complex:
    """A start point (complex, real scalar or (x, y) pair) strictly inside U."""
    z = complex(x) if np.isscalar(x) else complex(x[0], x[1])
    if abs(z) >= iso.chart_radius:
        raise ValidationError("x must lie inside the disk U")
    return z


class _LiftState:
    """The fiber evolution and boundary lift of a batch over p periods.

    The fiber rate does not depend on the direction itself, so one angle
    increment serves every fiber offset; boundary lifts are tracked per
    offset with the aliasing guard.  Construction runs the whole lift:
    afterwards ``eta - eta_start`` holds the lifted boundary turns.
    """

    def __init__(self, iso: DiskIsotopy, pts: np.ndarray, psi0: np.ndarray, p: int,
                 lift_stride: int, keep_trace: bool = False):
        self.iso = iso
        self.engine = FlowMap(iso.scenario)
        self.psi0 = psi0  # (N, k)
        self.dpsi = np.zeros(pts.shape[0])
        self.stride = lift_stride
        # (N, k) lifted boundary angles, turns
        self.eta_start = _endpoint_angles(pts[:, 0] + 1j * pts[:, 1], psi0) / (2.0 * np.pi)
        self.eta = self.eta_start
        self.max_step = 0.0
        self.max_radius = float(np.max(np.linalg.norm(pts, axis=1)))
        # (t, points, chart angles, lifted boundary angles) at every lift
        self.trace = [(0.0, pts.copy(), psi0, self.eta)] if keep_trace else None
        out = self.engine.evolve(pts, periods=p, step_hook=self.hook)
        total = p * self.engine.steps_per_period
        if total % lift_stride:
            self._lift(out, total * self.engine.h)
        if self.max_radius >= iso.chart_radius * (1.0 + 1e-9):
            raise NumericalError("a trajectory left the disk U (support violation)")

    def hook(self, step: int, t_mid: float, mid: np.ndarray, new: np.ndarray, tangent):
        h = self.engine.h
        vel = self.engine.last_mid_velocity  # converged midpoint velocity of this step
        rate = transport_rate_points(mid, vel)
        h_tilde = self.iso.scenario.field.value(mid, t_mid) + self.iso.mean_zero_constant(t_mid)
        self.dpsi += h * (rate - 2.0 * np.pi * h_tilde)
        if (step + 1) % self.stride == 0:
            self._lift(new, (step + 1) * h)

    def _lift(self, pts: np.ndarray, t: float):
        self.max_radius = max(self.max_radius, float(np.max(np.linalg.norm(pts, axis=1))))
        psi = self.psi0 + self.dpsi[:, None]
        ang = _endpoint_angles(pts[:, 0] + 1j * pts[:, 1], psi) / (2.0 * np.pi)
        step = ang - (self.eta - np.round(self.eta - ang))
        worst = float(np.max(np.abs(step)))
        self.max_step = max(self.max_step, worst)
        if worst >= LIFT_GUARD:
            raise NumericalError(
                f"boundary lift moved {worst:.3f} turns between samples: decrease dt or lift_stride")
        self.eta = self.eta + step
        if self.trace is not None:
            self.trace.append((t, pts.copy(), psi, self.eta))


def _boundary_indices(iso: DiskIsotopy, pts: np.ndarray, p: int, fiber_samples: int,
                      lift_stride: int) -> np.ndarray:
    """floor(eta - eta_start) over p periods, (N, k), at k equally spaced fiber angles."""
    psi0 = np.broadcast_to(2.0 * np.pi * np.arange(fiber_samples) / fiber_samples,
                           (pts.shape[0], fiber_samples))
    state = _LiftState(iso, pts, psi0, p, lift_stride)
    return np.floor(state.eta - state.eta_start)


def theta_lift(iso: DiskIsotopy, v: UnitDirection, p: int,
               lift_stride: int = 2) -> tuple[list, CirclePath]:
    """Lift the isotopy through the direction bundle along the orbit of v.

    Returns the sampled direction path [(t, point, chart angle), ...] and
    the continuously lifted boundary path at infinity over p periods.
    """
    if p < 1:
        raise ValidationError("p must be >= 1")
    z = _chart_point(iso, v.base)
    pts = np.array([[z.real, z.imag]])
    state = _LiftState(iso, pts, np.array([[v.angle]]), p, lift_stride, keep_trace=True)
    path = [(t, complex(pt[0, 0], pt[0, 1]), float(psi[0, 0])) for t, pt, psi, _ in state.trace]
    return path, CirclePath(np.array([eta[0, 0] for *_, eta in state.trace]))


def angle_estimate(iso: DiskIsotopy, x, p: int, fiber_samples: int = 8,
                   lift_stride: int = 2) -> float:
    """-min over fiber directions of the boundary index of the lift at x.

    Outside the support (but inside U) the trajectory is fixed and the
    value is the exact analytic contribution p * integral of c.
    """
    z = _chart_point(iso, x)
    if abs(z) >= iso.scenario.support_radius:
        return p * iso.mean_constant_integral()
    indices = _boundary_indices(iso, np.array([[z.real, z.imag]]), p, fiber_samples, lift_stride)
    return float(-np.min(indices))


@dataclass(frozen=True)
class CalSResult:
    value: float
    std_error: float
    p: int
    n_points: int
    fiber_samples: int
    seed: int


def cal_s_estimate(iso: DiskIsotopy, p: int, n_points: int, fiber_samples: int = 8,
                   seed: int = 0, lift_stride: int = 2) -> CalSResult:
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
    if p < 1 or n_points < 2:
        raise ValidationError("need p >= 1 and n_points >= 2")
    rng = np.random.default_rng(seed)
    form = iso.scenario.form
    pts = form.sample_ball_stratified(iso.chart_radius, 2, n_points, rng)
    r = np.linalg.norm(pts, axis=1)
    inside = r < iso.scenario.support_radius
    c_bar = iso.mean_constant_integral()
    vals = np.full(n_points, c_bar)
    if np.any(inside):
        indices = _boundary_indices(iso, pts[inside], p, fiber_samples, lift_stride)
        vals[inside] = -np.min(indices, axis=1) / p
    value = float(np.mean(vals)) * iso.disk_area + c_bar * (iso.total_area - iso.disk_area)
    std_error = float(np.std(vals, ddof=1) / np.sqrt(n_points)) * iso.disk_area
    return CalSResult(value=value, std_error=std_error, p=p, n_points=n_points,
                      fiber_samples=fiber_samples, seed=seed)


def fiber_index_spread(iso: DiskIsotopy, x, p: int, fiber_samples: int = 8,
                       lift_stride: int = 2) -> int:
    """max - min of the boundary index over fiber directions (paper bound: <= 2)."""
    z = _chart_point(iso, x)
    indices = _boundary_indices(iso, np.array([[z.real, z.imag]]), p, fiber_samples, lift_stride)
    return int(np.ptp(indices))


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
        if data.get("kind", "poly") != "poly":
            raise ValidationError("only polynomial one-forms are supported")
        return cls(a_monomials=tuple(tuple(m) for m in data.get("a", ())),
                   b_monomials=tuple(tuple(m) for m in data.get("b", ())))

    def to_json(self) -> dict:
        return {"kind": "poly", "a": [list(m) for m in self.a_monomials],
                "b": [list(m) for m in self.b_monomials]}


def hyperbolic_distance(z0: complex, z1: complex) -> float:
    """Distance in the curvature -1 metric."""
    num = abs(z1 - z0)
    den = abs(1.0 - np.conj(z0) * z1)
    return float(2.0 * np.arctanh(num / den))


def geodesic_line_integral(eta: OneForm, z0: complex, z1: complex,
                           quad_nodes: int = 32) -> float:
    """Integral of eta along the hyperbolic geodesic from z0 to z1.

    The geodesic is the Mobius image of a radial segment, so the integral
    is a single Gauss-Legendre sum over a closed-form parametrization.
    """
    w1 = (z1 - z0) / (1.0 - np.conj(z0) * z1)
    if abs(w1) < 1e-15:
        return 0.0
    ts, ws = leggauss(quad_nodes)
    ts = 0.5 * (ts + 1.0)
    ws = 0.5 * ws
    tw = ts * w1
    curve = (tw + z0) / (1.0 + np.conj(z0) * tw)
    dcurve = w1 * (1.0 - abs(z0) ** 2) / (1.0 + np.conj(z0) * tw) ** 2
    pts = np.stack([curve.real, curve.imag], axis=1)
    a, b = eta.coefficients(pts)
    integrand = a * dcurve.real + b * dcurve.imag
    return float(np.sum(ws * integrand))


def gg_u(eta: OneForm, iso: DiskIsotopy, x, p: int, quad_nodes: int = 32) -> float:
    """Line integral of eta along the hyperbolic geodesic from x to f^p(x).

    For disk-supported isotopies both endpoints stay in one lifted chart.
    """
    z0 = _chart_point(iso, x)
    engine = FlowMap(iso.scenario)
    out = engine.evolve(np.array([[z0.real, z0.imag]]), periods=p)
    return geodesic_line_integral(eta, z0, complex(out[0, 0], out[0, 1]), quad_nodes)


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
    if p < 1 or n_points < 1:
        raise ValidationError("need p >= 1 and n_points >= 1")
    marks = sorted(set(checkpoints) | {p})
    if any(m < 1 or m > p for m in marks):
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
        vals = np.array([geodesic_line_integral(eta, z0[i], complex(cur[i, 0], cur[i, 1]))
                         for i in range(n_points)])
        results.append(GgResult(value=float(np.mean(vals)) * measure / mark,
                                max_abs_u=float(np.max(np.abs(vals))),
                                p=mark, n_points=n_points, seed=seed))
    return results if checkpoints else results[-1]
