"""Linear symplectic algebra: Lagrangian frames, det² winding, and the
quasi-morphism on the universal cover of the symplectic group.

Conventions (fixed once, used by every module and file format):

* coordinates are ordered ``(x_1..x_n, y_1..y_n)``;
* ``J0`` is the block matrix ``[[0, -I], [I, 0]]`` (multiplication by i
  under ``z = x + iy``);
* the symplectic form is ``omega(u, v) = u^T J0^T v``, so that the
  Hermitian pairing ``<u, v> = omega(u, J0 v) - i omega(u, v)`` has
  positive-definite real part ``u^T v``;
* the reference Lagrangian is ``R^n`` (the first n coordinate vectors).

Under ``z = x + iy`` a Lagrangian frame ``Q`` (2n x n, full rank,
isotropic) becomes a complex matrix ``A`` with ``A* A`` real, and the
square of the determinant of any Hermitian-orthonormalization of ``A`` is
``det(A)^2 / |det(A)|^2``: that unit complex number depends only on the
subspace and realizes the classical ``det^2`` map to the circle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RefinePathError, ValidationError, convert, period_count
from .harness import QmEvaluator

SP_TOL = 1e-8           # Frobenius tolerance on M^T J0 M - J0; reject beyond, never repair
LAGRANGIAN_TOL = 1e-8   # relative tolerance on the isotropy condition
RANK_RTOL = 1e-8        # singular-value ratio used by the transversality test
# random_sp_path: exponential segments, generator size, samples per segment
SP_PATH_SEGMENTS, SP_PATH_MAGNITUDE, SP_PATH_SAMPLES = 3, 0.8, 24


def standard_j(n: int) -> np.ndarray:
    """The standard complex structure J0 = [[0, -I], [I, 0]] on R^{2n}."""
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = -np.eye(n)
    j[n:, :n] = np.eye(n)
    return j


def check_symplectic(mat: np.ndarray, tol: float = SP_TOL) -> None:
    """Reject matrices that are not symplectic within ``tol`` (Frobenius).

    The residual ||M^T J M - J|| is compared against tol * max(1, ||M||^2):
    the quadratic scale factor keeps the test meaningful for large-norm
    elements (float arithmetic cannot do better), while matching the
    absolute tolerance on well-conditioned input.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] % 2:
        raise ValidationError(f"expected a 2n x 2n matrix, got shape {mat.shape}")
    j = standard_j(mat.shape[0] // 2)
    defect = np.linalg.norm(mat.T @ j @ mat - j)
    scale = max(1.0, float(np.linalg.norm(mat)) ** 2)
    if not np.isfinite(defect) or defect > tol * scale:
        raise ValidationError(f"matrix is not symplectic: residual {defect:.3e} > {tol:.1e} * {scale:.1e}")


def symplectic_inverse(mat: np.ndarray) -> np.ndarray:
    """Inverse via M^{-1} = J0^T M^T J0 (exact for symplectic input)."""
    j = standard_j(mat.shape[-1] // 2)
    return j.T @ np.swapaxes(mat, -1, -2) @ j


@dataclass(frozen=True)
class LagrangianFrame:
    """A rank-n real 2n x n frame spanning a Lagrangian subspace."""

    columns: np.ndarray

    def __post_init__(self):
        cols = np.asarray(self.columns, dtype=float)
        if cols.ndim != 2 or cols.shape[0] != 2 * cols.shape[1]:
            raise ValidationError(f"expected a 2n x n frame, got shape {cols.shape}")
        if not np.isfinite(cols).all():
            raise ValidationError("frame entries must be finite")
        object.__setattr__(self, "columns", cols)
        n = cols.shape[1]
        svals = np.linalg.svd(cols, compute_uv=False)
        if svals[-1] <= RANK_RTOL * svals[0] or svals[0] == 0.0:
            raise ValidationError("frame is rank deficient")
        residual = np.linalg.norm(cols.T @ standard_j(n).T @ cols)
        if residual > LAGRANGIAN_TOL * max(1.0, svals[0] ** 2):
            raise ValidationError(f"frame is not Lagrangian: |Q^T J Q| = {residual:.3e}")

    @property
    def n(self) -> int:
        return self.columns.shape[1]

    def as_complex(self) -> np.ndarray:
        n = self.n
        return self.columns[:n] + 1j * self.columns[n:]


def coordinate_lagrangian(n: int) -> LagrangianFrame:
    """The reference Lagrangian R^n (first n coordinate vectors)."""
    return LagrangianFrame(np.vstack([np.eye(n), np.zeros((n, n))]))


def _det2_from_complex(a: np.ndarray) -> np.ndarray:
    """det^2 of the unitary orthonormalization, batched over leading axes (n = 1 skips LAPACK)."""
    d = a[..., 0, 0] if a.shape[-1] == 1 else np.linalg.det(a)
    mod = np.abs(d)
    if np.any(mod == 0.0):
        raise ValidationError("degenerate frame encountered in det^2")
    return (d / mod) ** 2


def lagrangian_det2(l0: LagrangianFrame, l1: LagrangianFrame) -> complex:
    """The unit complex number det^2_{L0}(L1).

    Equals det(U1)^2 * conj(det(U0))^2 for unitary orthonormalizations of
    the two frames; basis independent, and satisfies the cocycle relation
    det^2_{L0}L2 = det^2_{L0}L1 * det^2_{L1}L2.
    """
    if l0.n != l1.n:
        raise ValidationError("frames have mismatched n")
    return complex(_det2_from_complex(l1.as_complex()) *
                   np.conj(_det2_from_complex(l0.as_complex())))


def _turn_steps(prev, cur):
    """Principal-branch phase steps prev -> cur of unit complex values, in turns."""
    return np.angle(cur / prev) / (2.0 * np.pi)


@dataclass(frozen=True)
class WindingValue:
    """Accumulated principal-branch phase variation, in turn units."""

    turns: float
    step_count: int
    max_step_phase: float


def winding(circle_values) -> WindingValue:
    """Total argument variation of a sampled circle path, in turns.

    Accumulates principal-branch phase differences, which lie in
    [-1/2, 1/2]: every step must turn by less than half a turn.  An exact
    half turn raises :class:`RefinePathError` carrying its index; a larger
    step aliases silently.
    """
    values = np.asarray(circle_values, dtype=complex)
    if values.ndim != 1 or values.size < 2:
        raise ValidationError("winding needs a 1-d list of at least 2 values")
    steps = _turn_steps(values[:-1], values[1:])
    bad = np.nonzero(np.abs(steps) >= 0.5)[0]
    if bad.size:
        raise RefinePathError(int(bad[0]))
    return WindingValue(turns=float(steps.sum()), step_count=int(steps.size),
                        max_step_phase=float(np.max(np.abs(steps))))


@dataclass(frozen=True)
class SpPath:
    """A sampled path in Sp(2n, R) starting at the identity.

    Represents an element of the universal cover.  Its samples must be
    dense enough that det^2 turns by less than half a turn per step, the
    contract of :func:`phi_lag`.
    """

    times: np.ndarray
    matrices: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        mats = np.asarray(self.matrices, dtype=float)
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2] or mats.shape[1] % 2:
            raise ValidationError(f"expected (k, 2n, 2n) matrices, got {mats.shape}")
        if times.shape != (mats.shape[0],) or times.size < 1:
            raise ValidationError("times must match the number of samples")
        if not (np.isfinite(times).all() and np.isfinite(mats).all()):
            raise ValidationError("times and matrices must be finite")
        if np.any(np.diff(times) < 0):
            raise ValidationError("times must be nondecreasing")
        if np.linalg.norm(mats[0] - np.eye(mats.shape[1])) > SP_TOL:
            raise ValidationError("path must start at the identity")
        for idx in (0, mats.shape[0] - 1):
            check_symplectic(mats[idx])
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "matrices", mats)

    @property
    def n(self) -> int:
        return self.matrices.shape[1] // 2

    @property
    def endpoint(self) -> np.ndarray:
        return self.matrices[-1]


def identity_path(n: int, samples: int = 2) -> SpPath:
    times = np.linspace(0.0, 1.0, samples)
    mats = np.broadcast_to(np.eye(2 * n), (samples, 2 * n, 2 * n)).copy()
    return SpPath(times, mats)


def rotation_path(theta: float, samples: int = 65) -> SpPath:
    """n=1 path t -> rotation by t*theta (CCW for theta > 0)."""
    t = np.linspace(0.0, 1.0, samples)
    a = theta * t
    mats = np.empty((samples, 2, 2))
    mats[:, 0, 0] = np.cos(a)
    mats[:, 0, 1] = -np.sin(a)
    mats[:, 1, 0] = np.sin(a)
    mats[:, 1, 1] = np.cos(a)
    return SpPath(t, mats)


def full_rotation_loop(samples: int = 129) -> SpPath:
    """The fundamental loop T generating pi_1(Sp(2, R))."""
    return rotation_path(2.0 * np.pi, samples)


def concat_power(path: SpPath, p: int) -> SpPath:
    """The p-fold concatenation t -> gamma_t * gamma(1)^k on segment k."""
    period_count(p)
    if p == 1:
        return path
    mats = path.matrices
    end = path.endpoint
    k = mats.shape[0]
    pieces = [mats]
    power = np.eye(end.shape[0])
    for seg in range(1, p):
        power = power @ end
        pieces.append(mats[1:] @ power)
    times = [path.times]
    for seg in range(1, p):
        times.append(path.times[1:] + seg)
    all_times = np.concatenate(times) / p
    return SpPath(all_times, np.concatenate(pieces, axis=0))


def path_compose(x: SpPath, y: SpPath) -> SpPath:
    """The product [x]*[y], realized as x followed by x(1)*y_t."""
    if x.n != y.n:
        raise ValidationError("paths have mismatched dimension")
    mats = np.concatenate([x.matrices, x.endpoint @ y.matrices[1:]], axis=0)
    times = np.concatenate([x.times, 1.0 + y.times[1:]]) / 2.0
    return SpPath(times, mats)


def path_inverse(path: SpPath) -> SpPath:
    """The inverse [x]^{-1}, realized by pointwise matrix inverse."""
    return SpPath(path.times, symplectic_inverse(path.matrices))


def _det2_values(mats: np.ndarray, frame: LagrangianFrame) -> np.ndarray:
    n = frame.n
    moved = mats @ frame.columns
    return _det2_from_complex(moved[:, :n, :] + 1j * moved[:, n:, :])


def phi_lag(path: SpPath, l0: LagrangianFrame | None = None) -> float:
    """Winding (in turns) of t -> det^2_{L0}(gamma_t L0) along the path.

    The :func:`winding` of the sampled det^2 values, with its contract:
    each step must turn det^2 by less than half a turn, an exact half turn
    raises :class:`RefinePathError`, and a coarser path aliases silently
    (``full_rotation_loop(4)`` reads -1, not 2).  One sample reads 0.
    """
    if l0 is None:
        l0 = coordinate_lagrangian(path.n)
    if l0.n != path.n:
        raise ValidationError("frame dimension does not match the path")
    if path.matrices.shape[0] == 1:
        return 0.0
    return winding(_det2_values(path.matrices, l0)).turns


def phi_homog(path: SpPath, p: int, l0: LagrangianFrame | None = None) -> tuple[float, float]:
    """phi_{L0}([gamma]^p)/p with its deterministic bracket radius 2n/p.

    The returned pair (value, bound) satisfies |Phi([gamma]) - value| <= bound.
    """
    period_count(p)
    value = phi_lag(concat_power(path, p), l0) / p
    return value, 2.0 * path.n / p


def transversality_winding_check(lag_path, w: LagrangianFrame) -> tuple[bool, float]:
    """Check transversality to ``w`` along a Lagrangian path and its winding.

    Returns ``(all_transverse, |Delta|)``.  When every sample is
    transverse, the winding magnitude is bounded by n.
    """
    frames = list(lag_path)
    if len(frames) < 2:
        raise ValidationError("need at least 2 frames")
    n = w.n
    all_transverse = True
    for fr in frames:
        stacked = np.hstack([fr.columns, w.columns])
        svals = np.linalg.svd(stacked, compute_uv=False)
        if svals[-1] <= RANK_RTOL * svals[0]:
            all_transverse = False
            break
    vals = np.array([_det2_from_complex(fr.as_complex()) for fr in frames])
    turns = winding(vals).turns
    return all_transverse, abs(float(turns))


def random_lagrangian(n: int, rng: np.random.Generator) -> LagrangianFrame:
    """Haar-ish random Lagrangian via the unitary orbit of R^n."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return LagrangianFrame(np.vstack([q.real, q.imag]))


def _expm_taylor(a: np.ndarray) -> np.ndarray:
    """exp(a) as its Taylor sum to order 18, with no scaling and squaring.

    Valid for ||a||_2 <= 1 only: the remainder is then below 2/19! < 1e-16,
    so the sum is exact to rounding.  Larger arguments would need scaling
    and squaring.
    """
    out = term = np.eye(a.shape[0])
    for k in range(1, 19):
        term = term @ a / k
        out = out + term
    return out


def random_sp_path(n: int, rng: np.random.Generator) -> SpPath:
    """A smooth random path: piecewise exponentials of Hamiltonian matrices.

    Segment samples are running products of one step exp(gen / SP_PATH_SAMPLES),
    whose argument had 2-norm at most 0.16 over 2000 seeded paths for each
    of n = 1 and 2, well inside the Taylor sum's bound of 1.
    """
    j = standard_j(n)
    mats = [np.eye(2 * n)]
    for _ in range(SP_PATH_SEGMENTS):
        s = rng.standard_normal((2 * n, 2 * n))
        gen = j @ (s + s.T) * (SP_PATH_MAGNITUDE / (2 * n))
        step = _expm_taylor(gen / SP_PATH_SAMPLES)
        for _ in range(SP_PATH_SAMPLES):
            mats.append(mats[-1] @ step)
    times = np.linspace(0.0, 1.0, len(mats))
    return SpPath(times, np.stack(mats))


class PhiEvaluator(QmEvaluator):
    """phi_{L0} on the universal cover of Sp(2n, R), for the harness.

    Elements are :class:`SpPath` handles; the deterministic bound 2n/p
    comes with homogenization.
    """

    def __init__(self, n: int, l0: LagrangianFrame | None = None):
        self.n = n
        self.l0 = l0 if l0 is not None else coordinate_lagrangian(n)

    @property
    def identity(self) -> SpPath:
        return identity_path(self.n)

    def evaluate(self, x: SpPath) -> float:
        return phi_lag(x, self.l0)

    def compose(self, x: SpPath, y: SpPath) -> SpPath:
        return path_compose(x, y)

    def power(self, x: SpPath, p: int) -> SpPath:
        return concat_power(x, p)

    def inverse(self, x: SpPath) -> SpPath:
        return path_inverse(x)

    def error_bound(self, p: int) -> float:
        return 2.0 * self.n / p


def path_to_json(path: SpPath) -> dict:
    return {"n": path.n,
            "times": path.times.tolist(),
            "matrices": [m.reshape(-1).tolist() for m in path.matrices]}


def path_from_json(data: dict) -> SpPath:
    try:
        n = convert("n", data["n"], int, "SpPath JSON")
        times = np.asarray(data["times"], dtype=float)
        mats = np.asarray([np.asarray(row, dtype=float).reshape(2 * n, 2 * n)
                           for row in data["matrices"]])
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise ValidationError(f"malformed SpPath JSON: {exc}") from exc
    return SpPath(times, mats)


def frame_to_json(frame: LagrangianFrame) -> dict:
    return {"n": frame.n, "columns": frame.columns.reshape(-1).tolist()}


def frame_from_json(data: dict) -> LagrangianFrame:
    try:
        n = convert("n", data["n"], int, "LagrangianFrame JSON")
        cols = np.asarray(data["columns"], dtype=float).reshape(2 * n, n)
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise ValidationError(f"malformed LagrangianFrame JSON: {exc}") from exc
    return LagrangianFrame(cols)
