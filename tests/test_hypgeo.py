"""Hyperbolic geometry tests: disk ops, lifts, angle estimates, Cal_S, GG forms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

from qmlab.errors import RefinePathError, ValidationError
from qmlab.hamflow import (BumpField, HamiltonianScenario, HyperbolicForm,
                           RadialField, calabi, concat_scenarios, integrate_flow)
from qmlab.hypgeo import (CirclePath, DiskIsotopy, OneForm, UnitDirection,
                          angle_estimate, cal_s_estimate, circle_index,
                          concat_circle_paths, fiber_index_spread,
                          geodesic_endpoint, gg_quasimorphism_estimate, gg_u,
                          hyperbolic_distance, isotopy_from_json,
                          isotopy_to_json, parallel_transport_rate, theta_lift,
                          transport_rate_points)

GENUS = 2


def disk_area_of(r):
    return 2.0 * r * r / (1.0 - r * r)


def radial_iso(amplitude=1.2, r_supp=0.45, r_disk=0.55, dt=0.002, time=None):
    f = RadialField([amplitude], support_radius=r_supp, time=time)
    sc = HamiltonianScenario(field=f, ball_radius=r_disk + 0.02, support_radius=r_supp,
                             dt=dt, form=HyperbolicForm())
    return DiskIsotopy(scenario=sc, genus=GENUS, disk_area=disk_area_of(r_disk))


def zero_iso():
    return radial_iso(amplitude=0.0, dt=0.01)


# ---------------------------------------------------------------- circle paths

def test_circle_index_basics():
    assert circle_index(CirclePath(np.array([0.2, 0.2, 0.2]))) == 0
    k = np.linspace(0.0, 1.0, 33)
    assert circle_index(CirclePath(k)) == 1
    assert circle_index(CirclePath(-k - 0.3)) == -1


def test_circle_path_guard():
    with pytest.raises(RefinePathError):
        CirclePath(np.array([0.0, 0.6]))


@given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
@settings(max_examples=60, deadline=None)
def test_circle_index_concatenation_defect(da, db):
    steps_a = np.linspace(0.0, da, max(3, int(abs(da) / 0.3) + 2))
    steps_b = np.linspace(0.0, db, max(3, int(abs(db) / 0.3) + 2)) + steps_a[-1]
    a = CirclePath(steps_a)
    b = CirclePath(steps_b)
    ab = concat_circle_paths(a, b)
    assert abs(circle_index(ab) - circle_index(a) - circle_index(b)) <= 2


# ---------------------------------------------------------------- geodesics

def test_geodesic_endpoint_from_center():
    for ang in (0.0, 1.0, -2.2):
        end = geodesic_endpoint(UnitDirection(0.0, ang))
        assert np.angle(np.exp(1j * (end - ang))) == pytest.approx(0.0, abs=1e-12)


def test_geodesic_endpoint_real_axis():
    assert geodesic_endpoint(UnitDirection(0.5 + 0j, 0.0)) == pytest.approx(0.0, abs=1e-12)
    assert abs(geodesic_endpoint(UnitDirection(0.5 + 0j, np.pi))) == pytest.approx(np.pi, abs=1e-12)


def test_geodesic_endpoint_mobius_equivariance():
    rng = np.random.default_rng(4)
    for _ in range(20):
        z0 = 0.6 * (rng.random() * np.exp(2j * np.pi * rng.random()))
        ang = rng.uniform(0, 2 * np.pi)
        # disk automorphism g(w) = e^{i phi} (w + a)/(1 + conj(a) w)
        a = 0.5 * rng.random() * np.exp(2j * np.pi * rng.random())
        phi = rng.uniform(0, 2 * np.pi)
        g = lambda w: np.exp(1j * phi) * (w + a) / (1.0 + np.conj(a) * w)
        end = np.exp(1j * geodesic_endpoint(UnitDirection(z0, ang)))
        # push the direction: dg at z0 rotates chart angles by arg(g'(z0))
        gprime = np.exp(1j * phi) * (1.0 - abs(a) ** 2) / (1.0 + np.conj(a) * z0) ** 2
        moved = UnitDirection(g(z0), ang + np.angle(gprime))
        lhs = np.exp(1j * geodesic_endpoint(moved))
        assert abs(lhs - g(end)) < 1e-10


def test_disk_point_validation():
    with pytest.raises(ValidationError):
        UnitDirection(1.0 + 0j, 0.0)
    with pytest.raises(ValidationError):
        geodesic_endpoint(UnitDirection(0.9999999999999, 0.0))


# ---------------------------------------------------------------- transport

def test_transport_rate_zero_at_center():
    assert parallel_transport_rate(0.0, 1.0 + 1.0j) == 0.0


def test_transport_batch_matches_scalar():
    rng = np.random.default_rng(1)
    pts = 0.7 * rng.standard_normal((10, 2)) * 0.5
    vel = rng.standard_normal((10, 2))
    batch = transport_rate_points(pts, vel)
    for i in range(10):
        scalar = parallel_transport_rate(complex(pts[i, 0], pts[i, 1]),
                                         complex(vel[i, 0], vel[i, 1]))
        assert batch[i] == pytest.approx(scalar, rel=1e-12)


def test_holonomy_circle_is_minus_area():
    # loop of euclidean radius a around 0: hyperbolic area 4 pi a^2/(1-a^2)
    for a in (0.05, 0.3, 0.6):
        ts = np.linspace(0.0, 2 * np.pi, 4001)
        z = a * np.exp(1j * ts)
        zdot = 1j * z
        rates = np.array([parallel_transport_rate(zz, zd) for zz, zd in zip(z, zdot)])
        holonomy = np.trapezoid(rates, ts)
        area = 4 * np.pi * a ** 2 / (1 - a ** 2)
        assert holonomy == pytest.approx(-area, rel=1e-6)


def test_holonomy_tiny_circle_linear_in_area():
    a = 0.01
    ts = np.linspace(0.0, 2 * np.pi, 2001)
    z = a * np.exp(1j * ts)
    rates = np.array([parallel_transport_rate(zz, 1j * zz) for zz, _ in zip(z, ts)])
    holonomy = np.trapezoid(rates, ts)
    area = 4 * np.pi * a ** 2 / (1 - a ** 2)
    assert holonomy == pytest.approx(-area, abs=area ** 2)


def _geodesic_arc(z0, z1, nodes=96):
    """Sample points and velocities along the geodesic from z0 to z1 (GL nodes)."""
    w1 = (z1 - z0) / (1.0 - np.conj(z0) * z1)
    ts, ws = leggauss(nodes)
    ts = 0.5 * (ts + 1.0)
    ws = 0.5 * ws
    tw = ts * w1
    curve = (tw + z0) / (1.0 + np.conj(z0) * tw)
    dcurve = w1 * (1.0 - abs(z0) ** 2) / (1.0 + np.conj(z0) * tw) ** 2
    return curve, dcurve, ws


def _interior_angle(at, b, c):
    """Angle at vertex ``at`` of the geodesic triangle (at, b, c)."""
    tb = (b - at) / (1.0 - np.conj(at) * b)
    tc = (c - at) / (1.0 - np.conj(at) * c)
    ang = abs(np.angle(tb / tc))
    return min(ang, 2 * np.pi - ang)


def test_holonomy_geodesic_triangle_gauss_bonnet():
    # transport around a geodesic triangle rotates by -(pi - angle sum) = -area
    rng = np.random.default_rng(8)
    for _ in range(5):
        verts = [0.75 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
                 for _ in range(3)]
        signed = np.imag(np.conj(verts[1] - verts[0]) * (verts[2] - verts[0]))
        if signed < 0:  # orient counterclockwise
            verts[1], verts[2] = verts[2], verts[1]
        total = 0.0
        for i in range(3):
            curve, dcurve, ws = _geodesic_arc(verts[i], verts[(i + 1) % 3], nodes=256)
            rates = np.array([parallel_transport_rate(zz, zd)
                              for zz, zd in zip(curve, dcurve)])
            total += float(np.sum(ws * rates))
        area = np.pi - sum(_interior_angle(verts[i], verts[(i + 1) % 3], verts[(i + 2) % 3])
                           for i in range(3))
        assert area > 0
        assert total == pytest.approx(-area, abs=1e-6)


def test_connection_form_matches_primitive():
    # omega_conn(Z)/2pi == -lambda_hyp(Z): the two fiber-rate routes agree
    form = HyperbolicForm()
    rng = np.random.default_rng(5)
    pts = form.sample_ball(0.8, 2, 50, rng)
    vel = rng.standard_normal((50, 2))
    conn = transport_rate_points(pts, vel) / (2.0 * np.pi)
    r = np.linalg.norm(pts, axis=1)
    lam = form.primitive_coefficient(r) * (pts[:, 0] * vel[:, 1] - pts[:, 1] * vel[:, 0])
    assert np.allclose(conn, -lam, atol=1e-12)


# ---------------------------------------------------------------- lifts

def test_theta_lift_zero_hamiltonian_is_constant():
    iso = zero_iso()
    path, boundary = theta_lift(iso, UnitDirection(0.2 + 0.1j, 0.7), p=2)
    assert circle_index(boundary) == 0
    assert boundary.lifted_angles.max() - boundary.lifted_angles.min() < 1e-9
    assert all(abs(z - (0.2 + 0.1j)) < 1e-12 for _, z, _ in path)


def test_theta_lift_center_fixed_point_rate():
    # at the origin the transport vanishes: fiber rate is exactly -Htilde(0)
    iso = radial_iso(amplitude=0.9, dt=0.005)
    p = 3
    path, boundary = theta_lift(iso, UnitDirection(0.0 + 0.0j, 0.3), p=p, lift_stride=1)
    h0 = float(iso.scenario.field.value(np.zeros((1, 2)), 0.0)[0])
    c = iso.mean_zero_constant(0.0)
    expected_turns = -(h0 + c) * p
    psi_total = (path[-1][2] - path[0][2]) / (2 * np.pi)
    assert psi_total == pytest.approx(expected_turns, abs=1e-9)
    # at the center the boundary path is the fiber rotation itself
    drift = boundary.lifted_angles[-1] - boundary.lifted_angles[0]
    assert drift == pytest.approx(expected_turns, abs=1e-9)
    assert circle_index(boundary) == int(np.floor(expected_turns))


def test_fiber_comparison_bound():
    iso = radial_iso(amplitude=1.4, dt=0.002)
    rng = np.random.default_rng(3)
    for _ in range(4):
        r = 0.4 * np.sqrt(rng.random())
        ang = rng.uniform(0, 2 * np.pi)
        x = (r * np.cos(ang), r * np.sin(ang))
        assert fiber_index_spread(iso, x, p=4, fiber_samples=8) <= 2


def test_trajectory_leaving_disk_raises():
    f = RadialField([1.0], support_radius=0.45)
    sc = HamiltonianScenario(field=f, ball_radius=0.9, support_radius=0.45,
                             dt=0.01, form=HyperbolicForm())
    iso = DiskIsotopy(scenario=sc, genus=2, disk_area=disk_area_of(0.46))
    # a start point inside the ball but outside U is a support violation
    for estimate in (angle_estimate, fiber_index_spread):
        with pytest.raises(ValidationError):
            estimate(iso, (0.7, 0.0), p=1)
    with pytest.raises(ValidationError):
        theta_lift(iso, UnitDirection(0.7 + 0.0j, 0.0), p=1)


# ---------------------------------------------------------------- angle

def test_angle_zero_hamiltonian():
    assert angle_estimate(zero_iso(), (0.1, 0.2), p=4) == 0.0


def test_angle_outside_support_is_analytic():
    time = None
    iso = radial_iso(amplitude=1.1, r_supp=0.3, r_disk=0.5, dt=0.01)
    c_bar = iso.mean_constant_integral()
    for p in (1, 8, 64):
        assert angle_estimate(iso, (0.42, 0.1), p=p) == pytest.approx(p * c_bar, rel=1e-12)


def test_angle_defect_bound():
    # |angle(x, fg) - angle(x, g) - angle(g(x), f)| <= 8
    g_iso = radial_iso(amplitude=1.0, dt=0.004)
    f_field = BumpField(0.8, [0.1, 0.05], 0.3)
    f_sc = HamiltonianScenario(field=f_field, ball_radius=0.57,
                               support_radius=f_field.support_radius + 1e-9,
                               dt=0.004, form=HyperbolicForm())
    f_iso = DiskIsotopy(scenario=f_sc, genus=GENUS, disk_area=disk_area_of(0.55))
    fg_sc = concat_scenarios(g_iso.scenario, f_sc)
    fg_iso = DiskIsotopy(scenario=fg_sc, genus=GENUS, disk_area=disk_area_of(0.55))
    rng = np.random.default_rng(12)
    for _ in range(4):
        r = 0.4 * np.sqrt(rng.random())
        ang = rng.uniform(0, 2 * np.pi)
        x = (r * np.cos(ang), r * np.sin(ang))
        gx = integrate_flow(g_iso.scenario, np.array(x), 1.0)
        lhs = angle_estimate(fg_iso, x, p=1)
        a_g = angle_estimate(radial_iso(amplitude=1.0, dt=0.004, r_disk=0.55), x, p=1)
        a_f = angle_estimate(f_iso, (gx[0], gx[1]), p=1)
        assert abs(lhs - a_g - a_f) <= 8.0


def test_angle_prop21_periodic_orbit():
    # angle/p approaches the time average of lambda(Z) + Htilde on the orbit
    iso = radial_iso(amplitude=1.2, dt=0.002)
    sc = iso.scenario
    r = 0.3
    lam = float(sc.form.primitive_coefficient(np.array([r]))[0])
    omega = float(sc.field.angular_velocity(r, form=sc.form))
    h = float(sc.field.spatial_value(np.array([[r, 0.0]]))[0])
    integrand = lam * omega * r ** 2 + h + iso.mean_zero_constant(0.0)
    p = 48
    val = angle_estimate(iso, (r, 0.0), p=p) / p
    assert val == pytest.approx(integrand, abs=3.0 / p)


def test_angle_is_min_theta_lift_index():
    f = BumpField(0.8, [0.1, 0.05], 0.3)
    sc = HamiltonianScenario(field=f, ball_radius=0.57, support_radius=f.support_radius + 1e-9,
                             dt=0.004, form=HyperbolicForm())
    iso = DiskIsotopy(scenario=sc, genus=GENUS, disk_area=disk_area_of(0.55))
    x = 0.15 - 0.05j
    indices = [circle_index(theta_lift(iso, UnitDirection(x, 2.0 * np.pi * k / 8), p=2)[1])
               for k in range(8)]
    assert min(indices) == -angle_estimate(iso, x, p=2, fiber_samples=8)


# ---------------------------------------------------------------- cal_s

def test_cal_s_zero_hamiltonian():
    out = cal_s_estimate(zero_iso(), p=2, n_points=32, seed=0)
    assert out.value == pytest.approx(0.0, abs=1e-12)
    assert out.std_error == pytest.approx(0.0, abs=1e-12)


def test_cal_s_matches_calabi_radial():
    iso = radial_iso(amplitude=2.0, r_supp=0.6, r_disk=0.65, dt=0.002)
    cal = calabi(iso.scenario)
    est = cal_s_estimate(iso, p=48, n_points=300, fiber_samples=8, seed=7)
    assert abs(est.value - cal) < 0.05 * abs(cal) + 3 * est.std_error


def test_cal_s_homogeneity_in_p():
    iso = radial_iso(amplitude=1.5, dt=0.004)
    a = cal_s_estimate(iso, p=16, n_points=150, seed=3)
    b = cal_s_estimate(iso, p=32, n_points=150, seed=3)
    combined = 3 * (a.std_error + b.std_error) + iso.disk_area * (1.0 / 16 + 1.0 / 32) * 2.5
    assert abs(a.value - b.value) <= combined


def test_cal_s_deterministic_per_seed():
    iso = radial_iso(amplitude=1.0, dt=0.01)
    a = cal_s_estimate(iso, p=4, n_points=60, seed=5)
    b = cal_s_estimate(iso, p=4, n_points=60, seed=5)
    assert a.value == b.value and a.std_error == b.std_error


def test_isotopy_validation_and_json():
    with pytest.raises(ValidationError):
        radial_iso(r_supp=0.6, r_disk=0.55)  # support outside U
    f = RadialField([0.5], support_radius=0.3)
    sc = HamiltonianScenario(field=f, ball_radius=0.6, support_radius=0.3,
                             dt=0.01, form=HyperbolicForm())
    with pytest.raises(ValidationError):
        DiskIsotopy(scenario=sc, genus=1, disk_area=0.5)
    with pytest.raises(ValidationError):
        DiskIsotopy(scenario=sc, genus=2, disk_area=2.5)  # exceeds 2g-2
    iso = DiskIsotopy(scenario=sc, genus=2, disk_area=0.5)
    back = isotopy_from_json(isotopy_to_json(iso))
    assert back.genus == 2 and back.disk_area == 0.5
    assert back.chart_radius == pytest.approx(iso.chart_radius)


def test_mean_zero_constant_sign():
    iso = radial_iso(amplitude=1.0, dt=0.01)
    # positive H integrates positively, so c is negative
    assert iso.mean_zero_constant(0.0) < 0
    tot = iso.scenario.field.space_integral(iso.scenario.form, 0.0)
    assert iso.mean_zero_constant(0.0) == pytest.approx(-tot / 2.0)


# ---------------------------------------------------------------- gg forms

def test_gg_u_identity_map_is_zero():
    eta = OneForm(a_monomials=((0, 0, 1.0),), b_monomials=((1, 0, 0.5),))
    assert gg_u(eta, zero_iso(), (0.2, 0.1), p=4) == 0.0


@pytest.mark.slow
def test_gg_u_boundedness_uniform_in_p():
    iso = radial_iso(amplitude=1.3, dt=0.004)
    eta = OneForm(a_monomials=((0, 0, 0.8), (1, 1, -0.4)),
                  b_monomials=((0, 0, -0.3), (2, 0, 0.6)))
    # sup|eta| over the closure of the support and the hyperbolic diameter
    rng = np.random.default_rng(2)
    pts = iso.scenario.form.sample_ball(iso.scenario.support_radius, 2, 400, rng)
    a, b = eta.coefficients(pts)
    eta_sup = float(np.max(np.hypot(a, b)))
    diam = 2 * hyperbolic_distance(0.0, iso.scenario.support_radius + 0j)
    bound = eta_sup * diam
    for x in ((0.3, 0.1), (0.15, -0.2)):
        vals = [abs(gg_u(eta, iso, x, p)) for p in (1, 4, 16, 64, 128)]
        assert max(vals) <= bound


def test_gg_phi_estimate_vanishes():
    iso = radial_iso(amplitude=1.3, dt=0.01)
    eta = OneForm(a_monomials=((0, 0, 1.0),), b_monomials=((0, 1, 0.7),))
    out = gg_quasimorphism_estimate(eta, iso, p=64, n_points=40, seed=1)
    assert abs(out.value) < 2e-2
    assert out.max_abs_u < 10.0


def test_gg_u_straight_segment_against_quadrature():
    # zero Hamiltonian composed with a manual endpoint: integrate eta on a diameter
    eta = OneForm(a_monomials=((0, 0, 1.0),), b_monomials=())
    iso = zero_iso()
    # geodesic through 0 along the real axis: integral of dx = euclidean length
    val = gg_u(eta, iso, (0.0, 0.0), p=1)
    assert val == 0.0


def test_one_form_json_roundtrip():
    eta = OneForm(a_monomials=((1, 0, 2.0),), b_monomials=((0, 2, -1.0),))
    back = OneForm.from_json(eta.to_json())
    assert back == eta
    with pytest.raises(ValidationError):
        OneForm.from_json({"kind": "smooth"})
