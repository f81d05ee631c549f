"""Independent reference values for the benchmark's output checks.

Radial scenarios are rebuilt here from their closed forms: a RadialField
with profile [c] and support radius R has h(s) = c (1 - s/R^2)^3 and angular
velocity Omega(r) = 2 h'(r^2) / rho(r).  The 2-d tau and Calabi values come
from the test suite's 1-d quadratures (``tests/_oracles.py``) applied to
that Omega; this module keeps only the oracles that have no counterpart
there.  No check goes through the code path it checks.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
from scipy.integrate import quad

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from _oracles import radial_calabi_oracle, radial_tau_oracle  # noqa: E402,F401


def radial_h(c: float, support: float, s):
    """h(s) = c (1 - s/R^2)^3 on s < R^2."""
    return c * (1.0 - s / support ** 2) ** 3


def radial_dh(c: float, support: float, s):
    """h'(s) = -3c/R^2 (1 - s/R^2)^2."""
    return -3.0 * c / support ** 2 * (1.0 - s / support ** 2) ** 2


def hyperbolic_rho(r):
    """Density of the Poincare-disk area form over 2 pi."""
    return (2.0 / math.pi) / (1.0 - r * r) ** 2


def hyperbolic_prim_a(r):
    """Radial coefficient a(r) of the hyperbolic primitive, lambda = a(r) (x dy - y dx)."""
    return 1.0 / (math.pi * (1.0 - r * r))


# (rho, a) in the form radial_calabi_oracle takes for a non-standard density
HYPERBOLIC_DENSITY = (hyperbolic_rho, hyperbolic_prim_a)


def omega_standard(c: float, support: float):
    """Omega(r) = 2 h'(r^2) of a radial field under the standard form."""
    return lambda r: 2.0 * radial_dh(c, support, r * r)


def omega_hyperbolic(c: float, support: float):
    """Omega(r) = 2 h'(r^2) / rho(r) of a radial field under the hyperbolic form."""
    return lambda r: 2.0 * radial_dh(c, support, r * r) / hyperbolic_rho(r)


def tau_radial_4d(c: float, support: float) -> float:
    """Integral over the 4-ball of 2 Omega/pi (det^2 sees both complex planes turn)."""
    omega = omega_standard(c, support)
    return quad(lambda r: (2.0 * omega(r) / math.pi) * 2.0 * math.pi ** 2 * r ** 3,
                0.0, support, limit=200)[0]


def mean_zero_constant(c: float, support: float, genus: int) -> float:
    """-(integral of H against the hyperbolic form) / (2g - 2), autonomous radial H."""
    integral = quad(lambda r: radial_h(c, support, r * r) * hyperbolic_rho(r) * 2.0 * math.pi * r,
                    0.0, support, limit=200)[0]
    return -integral / (2.0 * genus - 2.0)


def angle_rate(c: float, support: float, genus: int, r: float) -> float:
    """Long-run angle per period at radius r: lambda(Z) + H + c on the orbit circle."""
    omega = omega_hyperbolic(c, support)(r)
    return (hyperbolic_prim_a(r) * omega * r * r + radial_h(c, support, r * r)
            + mean_zero_constant(c, support, genus))


def winding_rate_2d(c: float, support: float, r: float) -> float:
    """det^2 turns per period of the tangent path of a radial twist: Omega(r)/pi."""
    return omega_standard(c, support)(r) / math.pi


def gg_u_bound(a_monomials, b_monomials, support: float) -> float:
    """sup |eta| over the support disk times twice its hyperbolic diameter bound.

    The sup is taken on a polar grid fine enough for the low-degree
    polynomial coefficients used here; the factor 2 d(0, R) bounds the
    euclidean length of any geodesic chord of the disk with room to spare.
    """
    r, a = np.meshgrid(np.linspace(0.0, support, 201),
                       np.linspace(0.0, 2.0 * math.pi, 721), indexing="ij")
    x, y = r * np.cos(a), r * np.sin(a)
    ca = sum(c * x ** i * y ** j for i, j, c in a_monomials)
    cb = sum(c * x ** i * y ** j for i, j, c in b_monomials)
    sup = float(np.max(np.hypot(ca, cb)))
    return sup * 2.0 * (2.0 * math.atanh(support))
