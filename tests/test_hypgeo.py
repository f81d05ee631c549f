"""Hyperbolic geometry tests: disk ops, lifts, angle estimates, Cal_S, GG forms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

from _oracles import sampled_fiber_range
from qmlab.errors import NumericalError, RefinePathError, ValidationError
from qmlab.hamflow import (BumpField, ConcatField, ConjugatedField, FlowMap,
                           HamiltonianScenario, HyperbolicForm, RadialField, SumField,
                           TimeProfile, calabi, concat_scenarios, integrate_flow)
from qmlab.hypgeo import (CirclePath, DiskIsotopy, OneForm, UnitDirection, _LiftState,
                          _endpoint_angles, _fiber_range, _geodesic_line_integrals, _mobius,
                          angle_estimate, cal_s_estimate, circle_index, concat_circle_paths,
                          fiber_index_spread, geodesic_endpoint, geodesic_line_integral,
                          gg_quasimorphism_estimate, gg_u,
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


def test_geodesic_endpoint_is_the_batched_kernel():
    rng = np.random.default_rng(12)
    n = 20_000
    z = 0.99 * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
    psi = rng.uniform(-np.pi, 3 * np.pi, n)
    batch = _endpoint_angles(z, psi[:, None])[:, 0]
    scalar = np.array([geodesic_endpoint(UnitDirection(zi, a)) for zi, a in zip(z, psi)])
    assert np.array_equal(scalar, batch)
    # the closed-form lift is the Mobius image's angle, mod 2 pi
    wrapped = np.angle(_mobius(z, np.exp(1j * psi)))
    assert np.max(np.abs(np.angle(np.exp(1j * (batch - wrapped))))) < 1e-12


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
        assert batch[i] == scalar


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
    path, boundary = theta_lift(iso, UnitDirection(0.0 + 0.0j, 0.3), p=p)
    h0 = float(iso.scenario.field.value(np.zeros((1, 2)), 0.0)[0])
    c = iso.mean_zero_constant(0.0)
    expected_turns = -(h0 + c) * p
    psi_total = (path[-1][2] - path[0][2]) / (2 * np.pi)
    assert psi_total == pytest.approx(expected_turns, abs=1e-9)
    # at the center the boundary path is the fiber rotation itself
    drift = boundary.lifted_angles[-1] - boundary.lifted_angles[0]
    assert drift == pytest.approx(expected_turns, abs=1e-9)
    assert circle_index(boundary) == int(np.floor(expected_turns))


def test_theta_lift_is_the_unwrapped_mobius_angle():
    # off the centre of the bump the boundary angle winds about eight turns
    f = BumpField(5.0, [0.12, 0.0], 0.34)
    sc = HamiltonianScenario(field=f, ball_radius=0.58, support_radius=f.support_radius + 1e-9,
                             dt=0.002, form=HyperbolicForm())
    iso = DiskIsotopy(scenario=sc, genus=GENUS, disk_area=disk_area_of(0.52))
    path, boundary = theta_lift(iso, UnitDirection(0.2 + 0.05j, 0.3), p=2)
    z = np.array([zz for _, zz, _ in path])
    psi = np.array([a for *_, a in path])
    unwrapped = np.unwrap(np.angle(_mobius(z, np.exp(1j * psi))))
    offset = 2.0 * np.pi * boundary.lifted_angles - unwrapped
    assert abs(boundary.lifted_angles[-1] - boundary.lifted_angles[0]) > 5.0
    k = np.round(offset[0] / (2.0 * np.pi))
    assert np.max(np.abs(offset - 2.0 * np.pi * k)) < 1e-12


_ETA = OneForm(a_monomials=((0, 0, 1.0),), b_monomials=((1, 0, 0.5),))


@pytest.mark.parametrize("call", [
    lambda iso: angle_estimate(iso, (0.1, 0.0), p=0),
    lambda iso: angle_estimate(iso, (0.1, 0.0), p=-2),
    lambda iso: angle_estimate(iso, (0.5, 0.0), p=0),
    lambda iso: fiber_index_spread(iso, (0.1, 0.0), p=0),
    lambda iso: gg_u(_ETA, iso, (0.1, 0.0), p=-1),
    lambda iso: gg_quasimorphism_estimate(_ETA, iso, p=4, n_points=4, checkpoints=(2.5,)),
    lambda iso: theta_lift(iso, UnitDirection(0.1 + 0.0j, 0.0), p=1.5),
    lambda iso: cal_s_estimate(iso, p=2.5, n_points=4),
], ids=["angle_p0", "angle_p_negative", "angle_outside_support_p0", "spread_p0",
        "gg_u_p_negative", "gg_checkpoint_fractional", "theta_lift_p_fractional",
        "cal_s_p_fractional"])
def test_period_counts_must_be_integers_at_least_one(call):
    with pytest.raises(ValidationError):
        call(zero_iso())


def test_fiber_comparison_bound():
    iso = radial_iso(amplitude=1.4, dt=0.002)
    rng = np.random.default_rng(3)
    for _ in range(4):
        r = 0.4 * np.sqrt(rng.random())
        ang = rng.uniform(0, 2 * np.pi)
        x = (r * np.cos(ang), r * np.sin(ang))
        assert fiber_index_spread(iso, x, p=4) <= 2


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


def test_lift_max_radius_is_the_largest_traced_norm():
    f = BumpField(0.8, [0.1, 0.05], 0.3)
    sc = HamiltonianScenario(field=f, ball_radius=0.57, support_radius=f.support_radius + 1e-9,
                             dt=0.004, form=HyperbolicForm())
    iso = DiskIsotopy(scenario=sc, genus=GENUS, disk_area=disk_area_of(0.55))
    pts = sc.form.sample_ball(f.support_radius, 2, 12, np.random.default_rng(8))
    state = _LiftState(iso, pts, 2, keep_trace=True)
    norms = [np.linalg.norm(pt, axis=1).max() for _, pt, _ in state.trace]
    assert len(norms) == 2 * state.engine.steps_per_period + 1
    assert state.max_radius.hex() == float(max(norms)).hex()


def test_lift_raises_when_a_trajectory_leaves_the_disk():
    """A row that starts inside U and circles the bump out of it fails the support check.

    U is shrunk after DiskIsotopy's validation, which would refuse a support outside U.
    """
    f = BumpField(0.8, [0.2, 0.0], 0.3)
    sc = HamiltonianScenario(field=f, ball_radius=0.57, support_radius=f.support_radius + 1e-9,
                             dt=0.004, form=HyperbolicForm())
    iso = DiskIsotopy(scenario=sc, genus=GENUS, disk_area=disk_area_of(0.55))
    start = np.array([[0.05, 0.0]])
    assert _LiftState(iso, start, 1).max_radius > 0.3
    object.__setattr__(iso, "disk_area", disk_area_of(0.3))
    with pytest.raises(NumericalError, match="left the disk U"):
        _LiftState(iso, start, 1)


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
    paths = [theta_lift(iso, UnitDirection(x, 2.0 * np.pi * k / 8), p=2)[1] for k in range(8)]
    state = _LiftState(iso, np.array([[x.real, x.imag]]), 2)
    lo, hi = _fiber_range(state.z0, state.z1, state.dpsi)
    for path in paths:
        turns = path.lifted_angles[-1] - path.lifted_angles[0]
        assert lo[0] - 1e-12 <= turns <= hi[0] + 1e-12
    assert min(circle_index(path) for path in paths) >= -angle_estimate(iso, x, p=2)


# ---------------------------------------------------------------- the fiber range

@pytest.fixture(scope="module")
def lifted_points():
    """(z0, z1, dpsi) of 600 support points lifted over 4 periods: an off-centre bump and a
    time-dependent radial field, plus 400 random rows (|z| < 0.9, |dpsi| < 30)."""
    rows = []
    for kind in ("bump", "radial_t"):
        f = _mean_zero_fields()[kind]
        sc = HamiltonianScenario(field=f, ball_radius=0.57, dt=0.004, form=HyperbolicForm(),
                                 support_radius=f.support_radius + 1e-9)
        iso = DiskIsotopy(scenario=sc, genus=GENUS, disk_area=disk_area_of(0.55))
        pts = sc.form.sample_ball(f.support_radius, 2, 300, np.random.default_rng(4))
        state = _LiftState(iso, pts, 4)
        rows.append((state.z0, state.z1, state.dpsi))
    rng = np.random.default_rng(21)
    z0, z1 = (0.9 * np.sqrt(rng.random(400)) * np.exp(2j * np.pi * rng.random(400))
              for _ in range(2))
    rows.append((z0, z1, rng.uniform(-30.0, 30.0, 400)))
    return tuple(np.concatenate(col) for col in zip(*rows))


def test_fiber_range_is_the_refined_sampled_extremum(lifted_points):
    lo, hi = _fiber_range(*lifted_points)
    ref_lo, ref_hi = sampled_fiber_range(*lifted_points, 64, refine=5)
    assert np.max(np.abs(lo - ref_lo)) < 1e-12
    assert np.max(np.abs(hi - ref_hi)) < 1e-12


def test_exact_index_is_at_most_the_sampled_index(lifted_points):
    exact = np.floor(_fiber_range(*lifted_points)[0])
    sampled = {k: np.floor(sampled_fiber_range(*lifted_points, k)[0]) for k in (1, 8, 64)}
    assert all(np.all(exact <= index) for index in sampled.values())
    assert np.any(exact < sampled[1])


def test_exact_index_is_the_dense_sampled_index(lifted_points):
    lo = _fiber_range(*lifted_points)[0]
    dense = sampled_fiber_range(*lifted_points, 4096)[0]
    # a 4096-sample minimum sits at most ~1e-6 above min D, so it can cross an integer only
    # where min D lies just below one
    near = np.abs(lo - np.round(lo)) < 1e-9
    assert np.count_nonzero(near) <= 2
    assert np.array_equal(np.floor(lo)[~near], np.floor(dense)[~near])


def test_fiber_range_degenerate_points():
    rng = np.random.default_rng(8)
    z = 0.9 * np.sqrt(rng.random(50)) * np.exp(2j * np.pi * rng.random(50))
    dpsi = rng.uniform(-30.0, 30.0, 50)
    zero = np.zeros(50, dtype=complex)
    for z0, z1 in ((zero, z), (z, zero)):
        lo, hi = _fiber_range(z0, z1, dpsi)
        ref_lo, ref_hi = sampled_fiber_range(z0, z1, dpsi, 64, refine=5)
        assert np.max(np.abs(lo - ref_lo)) < 1e-12 and np.max(np.abs(hi - ref_hi)) < 1e-12
        # one end at the centre: D = dpsi/2pi + arg(1 + z/w)/pi -+, so dpsi/2pi -+ arcsin|z|/pi
        assert np.allclose(hi - lo, 2.0 * np.arcsin(np.abs(z)) / np.pi, rtol=0.0, atol=1e-14)
    # a = b, z1 = z0 exp(i dpsi): D is the constant dpsi/2pi
    for bound in _fiber_range(z, z * np.exp(1j * dpsi), dpsi):
        assert np.max(np.abs(bound - dpsi / (2.0 * np.pi))) < 1e-14


# ---------------------------------------------------------------- cal_s

def test_cal_s_zero_hamiltonian():
    out = cal_s_estimate(zero_iso(), p=2, n_points=32, seed=0)
    assert out.value == pytest.approx(0.0, abs=1e-12)
    assert out.std_error == pytest.approx(0.0, abs=1e-12)


def test_cal_s_matches_calabi_radial():
    iso = radial_iso(amplitude=2.0, r_supp=0.6, r_disk=0.65, dt=0.002)
    cal = calabi(iso.scenario)
    est = cal_s_estimate(iso, p=48, n_points=300, seed=7)
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


def _mean_zero_fields():
    """Fields of every kind supported in the disk of radius 0.55, most of them time-dependent."""
    bump = BumpField(0.8, [0.1, 0.05], 0.3)
    return {
        "radial_t": RadialField([1.2, -0.4], support_radius=0.45,
                                time=TimeProfile(poly=(1.0, 0.4), cos=((0.3, 1),))),
        "bump": BumpField(5.0, [0.12, 0.0], 0.34),
        "sum": SumField([BumpField(0.8, [0.2, 0.05], 0.2),
                         BumpField(0.5, [-0.15, -0.1], 0.25, time=TimeProfile(sin=((0.5, 1),)))]),
        "concat": ConcatField(RadialField([1.0], support_radius=0.4,
                                          time=TimeProfile(poly=(0.3, 1.0))),
                              BumpField(0.5, [0.1, 0.1], 0.3,
                                        time=TimeProfile(poly=(0.2, 1.0), cos=((0.7, 2),)))),
        "conjugated": ConjugatedField(bump, np.array([[1.2, 0.3], [0.0, 1.0 / 1.2]])),
    }


@pytest.mark.parametrize("kind", list(_mean_zero_fields()))
def test_mean_zero_constant_is_minus_the_mean_of_h(kind):
    # c(t) = -(integral of H_t rho over U) / (2g - 2), here by a polar rule of its own on U
    f = _mean_zero_fields()[kind]
    sc = HamiltonianScenario(field=f, ball_radius=0.57, support_radius=f.support_radius + 1e-9,
                             dt=0.01, form=HyperbolicForm())
    iso = DiskIsotopy(scenario=sc, genus=GENUS, disk_area=disk_area_of(0.55))
    x, wx = leggauss(600)
    r, wr = 0.275 * (x + 1.0), 0.275 * wx
    ang = 2.0 * np.pi * np.arange(512) / 512
    pts = np.stack([np.outer(r, np.cos(ang)).ravel(), np.outer(r, np.sin(ang)).ravel()], axis=1)
    w = np.repeat(wr * r, ang.size) * (2.0 * np.pi / ang.size) * sc.form.rho(pts)
    for t in (0.0, 0.2, 0.45, 0.5, 0.8):
        expect = -float(w @ f.value(pts, t)) / iso.total_area
        assert iso.mean_zero_constant(t) == pytest.approx(expect, rel=1e-9)
    assert iso.mean_constant_integral() == calabi(sc) / iso.total_area


def test_lift_reads_c_from_one_table_per_period(monkeypatch):
    """c(t) is evaluated once per step of a period; the fiber increment equals a per-step hook's."""
    iso = radial_iso(dt=0.02, time=TimeProfile(poly=(1.0,), sin=((0.5, 1),)))
    pts = np.array([[0.2, 0.1], [-0.3, 0.05], [0.0, 0.4]])
    c = iso.mean_zero_constant
    calls = []
    monkeypatch.setattr(DiskIsotopy, "mean_zero_constant", lambda self, t: calls.append(t) or c(t))
    state = _LiftState(iso, pts, 3)
    engine = FlowMap(iso.scenario)
    assert calls == list(engine.t_mids) and len(calls) == 50
    dpsi = np.zeros(3)

    def hook(step, t_mid, mid, vel, new, tangent):
        h_tilde = iso.scenario.field.value(mid, t_mid) + c(t_mid)
        dpsi[:] += engine.h * (transport_rate_points(mid, vel) - 2.0 * np.pi * h_tilde)

    engine.evolve(pts, periods=3, step_hook=hook)
    assert np.array_equal(state.dpsi, dpsi)


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


_GG_ETA = OneForm(a_monomials=((0, 0, 0.8), (1, 1, -0.4)),
                  b_monomials=((0, 0, -0.3), (2, 0, 0.6)))


def test_geodesic_integrals_are_one_point_integrals_per_row():
    """The batched sum equals one-point calls bit for bit, and a zero-length row is 0."""
    rng = np.random.default_rng(53)
    z0 = rng.uniform(-0.6, 0.6, 300) + 1j * rng.uniform(-0.6, 0.6, 300)
    z1 = z0 + 0.3 * (rng.uniform(-1, 1, 300) + 1j * rng.uniform(-1, 1, 300))
    z1[:2] = z0[:2]
    z1[2] = z0[2] + 1e-17
    batch = _geodesic_line_integrals(_GG_ETA, z0, z1)
    assert batch.shape == (300,) and not batch[:3].any() and np.all(batch[3:] != 0.0)
    for i in range(300):
        assert batch[i] == geodesic_line_integral(_GG_ETA, z0[i], z1[i])


def test_geodesic_integral_through_the_centre_is_the_segment_integral():
    """A geodesic from 0 is a euclidean segment: the polynomial integral along it, exactly."""
    ts, ws = leggauss(8)
    ts, ws = 0.5 * (ts + 1.0), 0.5 * ws
    for z1 in (0.5 + 0.2j, -0.3 + 0.6j, 0.0 - 0.7j):
        pts = np.stack([ts * z1.real, ts * z1.imag], axis=1)
        a, b = _GG_ETA.coefficients(pts)
        expect = float(np.sum(ws * (a * z1.real + b * z1.imag)))
        assert geodesic_line_integral(_GG_ETA, 0j, z1) == pytest.approx(expect, abs=1e-14)


def test_gg_estimate_is_the_mean_of_one_point_integrals():
    iso = radial_iso(amplitude=1.3, dt=0.01)
    form, support = iso.scenario.form, iso.scenario.support_radius
    out = gg_quasimorphism_estimate(_GG_ETA, iso, p=2, n_points=12, seed=3)
    pts = form.sample_ball(support, 2, 12, np.random.default_rng(3))
    end = FlowMap(iso.scenario).evolve(pts, periods=2)
    vals = np.array([geodesic_line_integral(_GG_ETA, complex(*x), complex(*y))
                     for x, y in zip(pts, end)])
    assert out.max_abs_u == float(np.max(np.abs(vals)))
    assert out.value == float(np.mean(vals)) * form.ball_measure(support, 2) / 2


def test_one_form_json_roundtrip():
    eta = OneForm(a_monomials=((1, 0, 2.0),), b_monomials=((0, 2, -1.0),))
    back = OneForm.from_json(eta.to_json())
    assert back == eta
    with pytest.raises(ValidationError):
        OneForm.from_json({"kind": "smooth"})
