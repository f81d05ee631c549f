"""Hamiltonian flow tests: integrator, Calabi, Birkhoff, tau, Theorem-3 value."""

import numpy as np
import pytest

from _oracles import radial_calabi_oracle, radial_tau_oracle
from qmlab.errors import ValidationError
from qmlab.hamflow import (BumpField, ConcatField, ConjugatedField, FlowMap, GridField,
                           HamiltonianScenario, HyperbolicForm, PolyBumpField,
                           PrimitiveOneForm, QuadratureRule, RadialField,
                           StandardForm, SumField, TimeProfile, birkhoff_average,
                           calabi, concat_scenarios, conjugate_scenario,
                           field_from_json, integrate_flow, jacobian_path,
                           s_restriction_value, scenario_from_json,
                           scenario_to_json, sum_scenarios, tau_ball,
                           validate_primitive)
from qmlab.symplectic import check_symplectic, phi_lag, standard_j


def radial_scenario(amplitude=0.8, dt=0.01, r_supp=1.0, ball=1.2, form=None, time=None):
    f = RadialField([amplitude], support_radius=r_supp, time=time)
    return HamiltonianScenario(field=f, ball_radius=ball, support_radius=r_supp,
                               dt=dt, form=form or StandardForm())


def bump_scenario(amplitude, center, radius, ball=1.2, dt=0.01):
    f = BumpField(amplitude, center, radius)
    return HamiltonianScenario(field=f, ball_radius=ball,
                               support_radius=f.support_radius + 1e-9, dt=dt)


# ---------------------------------------------------------------- integrator

def test_zero_hamiltonian_fixes_everything():
    sc = radial_scenario(0.0)
    x = np.array([0.3, -0.4])
    assert np.allclose(integrate_flow(sc, x, 1.0), x)


def test_point_outside_support_is_fixed():
    sc = bump_scenario(1.0, [0.3, 0.0], 0.3)
    x = np.array([-0.8, 0.2])
    assert np.allclose(integrate_flow(sc, x, 1.0), x, atol=1e-14)


def test_radial_orbit_matches_closed_form():
    sc = radial_scenario(0.8, dt=0.002)
    for r in (0.3, 0.6, 0.9):
        x0 = np.array([r, 0.0])
        t = 0.7
        x1 = integrate_flow(sc, x0, t)
        omega = sc.field.angular_velocity(r)
        expect = r * np.array([np.cos(omega * t), np.sin(omega * t)])
        assert abs(np.linalg.norm(x1) - r) < 1e-12
        assert np.linalg.norm(x1 - expect) < 5e-6


def test_energy_conservation_autonomous():
    sc = radial_scenario(0.3, dt=5e-4)
    f = sc.field
    for x0 in (np.array([0.4, 0.1]), np.array([0.0, 0.7])):
        h0 = f.value(np.atleast_2d(x0), 0.0)[0]
        for t in (0.25, 0.5, 1.0):
            ht = f.value(np.atleast_2d(integrate_flow(sc, x0, t)), 0.0)[0]
            assert abs(ht - h0) < 1e-8


def test_fractional_leg_at_largest_dt():
    # a leg of 0.3 at dt = 0.25 takes one step of 0.3 > dt: it must not
    # re-validate the scenario with that step as its dt
    sc = radial_scenario(0.8, dt=0.25)
    x = np.array([0.5, 0.2])
    for t in (0.3, 1.3):
        y = integrate_flow(sc, x, t)
        assert abs(y @ y - x @ x) < 1e-12


def test_inverse_flow_roundtrip():
    fwd = radial_scenario(0.6, dt=0.002)
    bwd = radial_scenario(-0.6, dt=0.002)
    x = np.array([0.5, 0.2])
    back = integrate_flow(bwd, integrate_flow(fwd, x, 1.0), 1.0)
    assert np.linalg.norm(back - x) < 1e-9


def test_volume_preservation_monte_carlo():
    # P(f(X) in box) must match P(X in box) for X uniform on the ball
    sc = bump_scenario(1.2, [0.2, 0.1], 0.5, dt=0.005)
    rng = np.random.default_rng(7)
    n = 20000
    pts = sc.form.sample_ball(sc.support_radius, 2, n, rng)
    engine = FlowMap(sc)
    image = engine.evolve(pts, periods=1)
    box = lambda q: (np.abs(q[:, 0] - 0.2) < 0.25) & (np.abs(q[:, 1] - 0.1) < 0.25)
    p_ref = box(pts).mean()
    p_img = box(image).mean()
    assert abs(p_img - p_ref) < 4.0 * np.sqrt(p_ref * (1 - p_ref) / n) + 1e-3


def test_flow_4d_conserves_radius_and_runs_tau():
    # |z|^2 is a quadratic invariant of a radial flow, which the midpoint rule keeps exactly
    sc = HamiltonianScenario(field=RadialField([0.8], support_radius=1.0, dim=4),
                             ball_radius=1.2, support_radius=1.0, dt=0.01)
    x = sc.form.sample_ball(1.0, 4, 16, np.random.default_rng(5))
    out = FlowMap(sc).evolve(x, periods=3)
    assert np.max(np.abs(np.sum(out ** 2, axis=1) - np.sum(x ** 2, axis=1))) < 1e-12
    res = tau_ball(sc, p=1, n_samples=16, seed=0)
    assert np.isfinite(res.value) and np.isfinite(res.std_error)


def test_newton_failure_reports_step():
    # absurdly large dt on a strong field drives the midpoint solve to fail
    f = RadialField([40.0], support_radius=1.0)
    sc = HamiltonianScenario(field=f, ball_radius=1.2, support_radius=1.0, dt=0.25)
    with pytest.raises(Exception) as err:
        integrate_flow(sc, np.array([0.7, 0.0]), 1.0)
    assert "step" in str(err.value)


def test_scenario_validation():
    with pytest.raises(ValidationError):
        HamiltonianScenario(field=RadialField([1.0], 1.0), ball_radius=0.9,
                            support_radius=1.0)  # support >= ball
    with pytest.raises(ValidationError):
        radial_scenario(form=HyperbolicForm(), r_supp=1.0, ball=1.2)  # |z|<1 violated by ball
    # non-vanishing field at the support ring
    class Bad(RadialField):
        def spatial_value(self, pts):  # pragma: no cover - constructed to fail
            return np.ones(pts.shape[0])
    with pytest.raises(ValidationError):
        HamiltonianScenario(field=Bad([1.0], 1.0), ball_radius=1.2, support_radius=1.0)


# ---------------------------------------------------------------- jacobian paths

def test_jacobian_identity_for_zero_field():
    sc = radial_scenario(0.0)
    path = jacobian_path(sc, np.array([0.2, 0.2]), 2)
    assert np.allclose(path.matrices, np.eye(2), atol=1e-14)


def test_jacobian_linear_field_is_rotation():
    # H = (a/2) r^2 smoothly cut far beyond the orbit: Df_t = rotation by a t
    a = 0.9
    f = RadialField([a / 2.0], support_radius=3.0, bump_power=3)
    sc = HamiltonianScenario(field=f, ball_radius=3.5, support_radius=3.0, dt=0.001)
    # near the origin the cutoff is flat: h(s) ~ (a/2)(1 - s/9)^3 ~ a/2 - ...
    # use the exact angular velocity at r ~ 0 instead of the nominal a
    path = jacobian_path(sc, np.array([1e-8, 0.0]), 1, sample_stride=10)
    omega = float(sc.field.angular_velocity(0.0))
    rot = np.array([[np.cos(omega), -np.sin(omega)], [np.sin(omega), np.cos(omega)]])
    assert np.allclose(path.endpoint, rot, atol=1e-8)


def test_jacobian_symplectic_and_unit_det():
    sc = radial_scenario(0.8, dt=0.005)
    path = jacobian_path(sc, np.array([0.5, 0.3]), 3)
    check_symplectic(path.endpoint, tol=1e-6)
    for mat in path.matrices[:: max(1, len(path.matrices) // 7)]:
        assert abs(np.linalg.det(mat) - 1.0) < 1e-8


def test_jacobian_chain_rule():
    # gentle fields keep the O(dt^2) truncation below the 1e-6 target
    dt = 2.5e-4
    g = RadialField([0.5], support_radius=1.0)
    g_sc = HamiltonianScenario(field=g, ball_radius=1.2, support_radius=1.0, dt=dt)
    fb = BumpField(-0.3, [0.15, 0.05], 0.8)
    f_sc = HamiltonianScenario(field=fb, ball_radius=1.2,
                               support_radius=fb.support_radius + 1e-9, dt=dt)
    both = concat_scenarios(g_sc, f_sc)
    x = np.array([0.2, -0.05])
    dgf = jacobian_path(both, x, 1).endpoint
    gx = integrate_flow(g_sc, x, 1.0)
    df = jacobian_path(f_sc, gx, 1).endpoint
    dg = jacobian_path(g_sc, x, 1).endpoint
    assert np.linalg.norm(dg - np.eye(2)) > 1.0  # the factors are genuinely nontrivial
    assert np.linalg.norm(dgf - df @ dg) < 1e-6


def test_jacobian_density_form_unimodular():
    f = RadialField([0.5], support_radius=0.6)
    sc = HamiltonianScenario(field=f, ball_radius=0.9, support_radius=0.6,
                             dt=0.005, form=HyperbolicForm())
    path = jacobian_path(sc, np.array([0.3, 0.0]), 2)
    check_symplectic(path.endpoint, tol=1e-6)


# ---------------------------------------------------------------- calabi

def test_calabi_zero_field():
    assert calabi(radial_scenario(0.0)) == 0.0


def test_calabi_radial_matches_1d_oracle():
    sc = radial_scenario(1.0)
    oracle = radial_calabi_oracle(lambda r: sc.field.angular_velocity(r), 1.0)
    assert calabi(sc) == pytest.approx(oracle, abs=1e-4)


def test_calabi_time_dependent_scales_by_time_integral():
    time = TimeProfile(poly=(0.5, 1.0))  # a(t) = 0.5 + t, integral 1.0
    sc_t = radial_scenario(1.0, time=time)
    sc_0 = radial_scenario(1.0)
    # int_0^1 a dt = 1, so the values agree
    assert calabi(sc_t) == pytest.approx(calabi(sc_0), rel=1e-10)


def test_calabi_additive_on_disjoint_supports():
    a = bump_scenario(0.9, [0.45, 0.0], 0.3)
    b = bump_scenario(-0.6, [-0.45, 0.0], 0.3)
    both = concat_scenarios(a, b)
    assert calabi(both) == pytest.approx(calabi(a) + calabi(b), abs=1e-6)
    srs = sum_scenarios(a, b)
    assert calabi(srs) == pytest.approx(calabi(a) + calabi(b), abs=1e-10)


def test_calabi_negates_under_time_reversal():
    sc = radial_scenario(0.7)
    rev = radial_scenario(-0.7)
    assert calabi(rev) == pytest.approx(-calabi(sc), rel=1e-12)


def test_calabi_primitive_independence():
    sc = bump_scenario(1.1, [0.2, 0.15], 0.45)
    base = calabi(sc)
    shift = PolyBumpField([[(2, 1), 0.7], [(0, 1), -0.3], [(1, 0), 0.2]],
                          support_radius=sc.ball_radius - 1e-6)
    shifted = calabi(sc, primitive=sc.primitive(shift=shift))
    assert shifted == pytest.approx(base, abs=1e-6)


def test_calabi_quadrature_domain_validation():
    sc = radial_scenario(0.5)
    with pytest.raises(ValidationError):
        calabi(sc, quadrature=QuadratureRule(radius=0.5))


def test_primitive_exterior_derivative_check():
    rng = np.random.default_rng(3)
    validate_primitive(PrimitiveOneForm(StandardForm()), 2, rng)
    validate_primitive(PrimitiveOneForm(StandardForm()), 4, rng, radius=0.5)
    validate_primitive(PrimitiveOneForm(HyperbolicForm()), 2, rng, radius=0.7)
    shift = PolyBumpField([[(2, 1), 0.4]], support_radius=2.0)
    validate_primitive(PrimitiveOneForm(StandardForm(), shift=shift), 2, rng)


def test_hyperbolic_primitive_matches_connection_normalization():
    # a(r) = 1/(pi (1-r^2)) realizes d(lambda) = rho dx dy for the disk form
    form = HyperbolicForm()
    r = np.array([0.0, 0.3, 0.8])
    assert np.allclose(form.primitive_coefficient(r), 1.0 / (np.pi * (1 - r ** 2)))


def test_calabi_radial_hyperbolic_oracle():
    f = RadialField([0.9], support_radius=0.6)
    sc = HamiltonianScenario(field=f, ball_radius=0.9, support_radius=0.6,
                             dt=0.01, form=HyperbolicForm())
    form = sc.form
    oracle = radial_calabi_oracle(
        lambda r: f.angular_velocity(r, form=form), 0.6,
        density=(lambda r: form.rho(np.array([[r, 0.0]]))[0],
                 lambda r: form.primitive_coefficient(r)))
    assert calabi(sc) == pytest.approx(oracle, abs=1e-6)


# ---------------------------------------------------------------- birkhoff

def test_birkhoff_constant_and_fixed_point():
    sc = radial_scenario(0.5)
    out = birkhoff_average(sc, lambda x: 3.25, np.array([0.4, 0.0]), 50)
    assert out.value == pytest.approx(3.25)
    fixed = birkhoff_average(sc, lambda x: x[0] ** 2, np.array([0.0, 0.0]), 10)
    assert fixed.value == pytest.approx(0.0, abs=1e-20)


@pytest.mark.slow
def test_birkhoff_equidistribution_on_irrational_circle():
    sc = radial_scenario(0.8, dt=0.005)
    x0 = np.array([0.5, 0.0])
    n = 600
    out = birkhoff_average(sc, lambda x: np.cos(np.arctan2(x[1], x[0])), x0, n)
    assert abs(out.value) < 3.0 / (n * abs(np.sin(sc.field.angular_velocity(0.5) / 2)))
    assert out.oscillation < 0.05


# ---------------------------------------------------------------- tau

def test_tau_zero_field():
    out = tau_ball(radial_scenario(0.0), p=2, n_samples=16, seed=0)
    assert out.value == 0.0 and out.std_error == 0.0


def test_tau_radial_twist_matches_oracle():
    sc = radial_scenario(0.8, dt=0.01)
    out = tau_ball(sc, p=64, n_samples=600, seed=5)
    oracle = radial_tau_oracle(lambda r: sc.field.angular_velocity(r), 1.0)
    assert abs(out.value - oracle) <= 3.0 * out.std_error + out.deterministic_error


def test_tau_deterministic_per_seed():
    sc = radial_scenario(0.5, dt=0.02)
    a = tau_ball(sc, p=8, n_samples=64, seed=11)
    b = tau_ball(sc, p=8, n_samples=64, seed=11)
    assert a.value == b.value and a.std_error == b.std_error


def test_tau_homogeneity_in_power():
    # tau(f^k) = k tau(f): compare k*value at p with value of k-fold concat
    sc = radial_scenario(0.6, dt=0.01)
    k = 2
    base = tau_ball(sc, p=32, n_samples=300, seed=3)
    doubled = concat_scenarios(sc, sc)
    dval = tau_ball(doubled, p=32, n_samples=300, seed=3)
    tol = 3.0 * (k * base.std_error + dval.std_error) + (k * base.deterministic_error
                                                         + dval.deterministic_error)
    assert abs(dval.value - k * base.value) <= tol


def test_tau_conjugation_invariance():
    sc = radial_scenario(0.7, dt=0.01, r_supp=0.6, ball=1.4)
    shear = np.array([[1.0, 0.35], [0.0, 1.0]])
    conj = conjugate_scenario(sc, shear)
    a = tau_ball(sc, p=48, n_samples=400, seed=9)
    b = tau_ball(conj, p=48, n_samples=400, seed=9)
    tol = 3.0 * (a.std_error + b.std_error) + a.deterministic_error + b.deterministic_error
    assert abs(a.value - b.value) <= tol


def test_tau_integrand_matches_phi_lag_route():
    # the online winding equals phi_lag of the sampled jacobian path
    sc = radial_scenario(0.8, dt=0.01)
    x = np.array([0.45, 0.2])
    p = 8
    path = jacobian_path(sc, x, p, sample_stride=1)
    via_path = phi_lag(path) / p
    engine = FlowMap(sc)
    from qmlab.hamflow import _WindingTracker
    tangent = np.eye(2)[None].copy()
    tracker = _WindingTracker(1, tangent)
    engine.evolve(np.atleast_2d(x), periods=p, tangent=tangent,
                  step_hook=lambda s, t, m, nw, tan: tracker.update(tan))
    assert via_path == pytest.approx(tracker.turns[0] / p, abs=1e-9)


def test_det2_n1_fast_path_matches_det(monkeypatch):
    from qmlab.hamflow import _det2_first_columns
    rng = np.random.default_rng(17)
    tan = rng.standard_normal((500, 2, 2))
    det = np.linalg.det(tan)
    tan[det < 0, :, 0] *= -1.0
    tan /= np.sqrt(np.abs(det))[:, None, None]  # random 2x2 symplectic tangents
    d = np.linalg.det(tan[:, :1, :1] + 1j * tan[:, 1:, :1])
    via_det = (d / np.abs(d)) ** 2
    assert np.max(np.abs(_det2_first_columns(tan, 1) - via_det)) <= 8 * np.finfo(float).eps
    calls = []
    real_det = np.linalg.det
    monkeypatch.setattr(np.linalg, "det", lambda a: calls.append(a.shape) or real_det(a))
    _det2_first_columns(tan, 1)
    assert calls == []
    tan4 = np.broadcast_to(np.eye(4), (3, 4, 4))
    assert np.allclose(_det2_first_columns(tan4, 2), 1.0)
    assert calls == [(3, 2, 2)]


# ---------------------------------------------------------------- theorem 3

def test_s_restriction_is_tau_plus_s_calabi():
    sc = radial_scenario(0.6, dt=0.02)
    out = s_restriction_value(sc, s=1.0, p=8, n_samples=64, seed=2)
    assert out.value == pytest.approx(out.tau.value + out.calabi, rel=1e-12)
    zero = s_restriction_value(radial_scenario(0.0, dt=0.02), s=3.0, p=2,
                               n_samples=8, seed=0)
    assert zero.value == 0.0
    with pytest.raises(ValidationError):
        s_restriction_value(sc, s=0.0, p=2, n_samples=8, seed=0)


def test_s_restriction_linearity_in_s():
    sc = radial_scenario(0.6, dt=0.02)
    o1 = s_restriction_value(sc, s=1.0, p=8, n_samples=64, seed=2)
    o2 = s_restriction_value(sc, s=-2.0, p=8, n_samples=64, seed=2)
    assert o2.value - o1.value == pytest.approx(-3.0 * o1.calabi, abs=1e-9)


# ---------------------------------------------------------------- fields & json

def test_grid_field_reproduces_smooth_data():
    xs = np.linspace(-1.1, 1.1, 41)
    vals = np.exp(-4 * (xs[:, None] ** 2 + xs[None, :] ** 2))
    f = GridField(-1.1, 1.1, vals, support_radius=1.0)
    sc = HamiltonianScenario(field=f, ball_radius=1.3, support_radius=1.0, dt=0.01)
    x = integrate_flow(sc, np.array([0.3, 0.0]), 1.0)
    assert np.isfinite(x).all()
    # gradient consistency by finite differences
    pts = np.array([[0.25, 0.1], [0.5, -0.3]])
    h = 1e-6
    for axis in range(2):
        e = np.zeros(2)
        e[axis] = h
        fd = (f.value(pts + e, 0.0) - f.value(pts - e, 0.0)) / (2 * h)
        assert np.allclose(fd, f.grad(pts, 0.0)[:, axis], atol=1e-5)


_GRID_X = np.linspace(-1.1, 1.1, 41)
_JET_CASES = {
    # field, points, finite-difference step, gradient and Hessian tolerances
    "poly": (PolyBumpField([[(2, 0), 1.0], [(1, 1), -0.5], [(0, 3), 0.2]], support_radius=0.9),
             [[0.2, 0.3], [-0.4, 0.1], [0.6, -0.5]], 1e-6, 1e-8, 1e-6),
    "bump": (BumpField(1.3, [0.2, -0.1], 0.5),
             [[0.25, 0.0], [0.4, -0.2], [0.1, 0.05]], 1e-7, 1e-6, 1e-6),
    "radial": (RadialField([1.0, -0.5, 0.3], support_radius=0.8,
                           time=TimeProfile(poly=(1.0, 0.2), cos=((0.3, 1),))),
               [[0.2, 0.3], [-0.5, 0.4], [0.0, 0.7]], 1e-6, 1e-8, 1e-6),
    "radial_4d": (RadialField([1.0, 0.4], support_radius=0.8, dim=4),
                  [[0.2, 0.3, -0.1, 0.1], [-0.3, 0.1, 0.4, -0.2]], 1e-6, 1e-8, 1e-6),
    "grid": (GridField(-1.1, 1.1, np.exp(-4 * (_GRID_X[:, None] ** 2 + _GRID_X[None, :] ** 2)),
                       support_radius=1.0),
             [[0.25, 0.1], [0.5, -0.3], [-0.6, 0.45]], 1e-6, 1e-8, 1e-6),
    "sum": (SumField([BumpField(0.9, [0.45, 0.0], 0.3), BumpField(-0.6, [-0.45, 0.0], 0.3)]),
            [[0.5, 0.1], [-0.4, -0.1], [0.0, 0.2]], 1e-6, 1e-8, 1e-6),
    "concat": (ConcatField(RadialField([1.0], support_radius=0.7),
                           BumpField(0.5, [0.1, 0.1], 0.4)),
               [[0.2, 0.3], [0.3, -0.1], [-0.2, 0.25]], 1e-6, 1e-8, 1e-6),
    "conjugated": (ConjugatedField(RadialField([1.0, 0.5], support_radius=0.5),
                                   np.array([[1.2, 0.3], [0.0, 1.0 / 1.2]])),
                   [[0.2, 0.1], [-0.3, 0.2], [0.4, -0.1]], 1e-6, 1e-8, 1e-6),
}


@pytest.mark.parametrize("kind", list(_JET_CASES))
def test_jet_matches_finite_differences(kind):
    f, pts, h, tol_grad, tol_hess = _JET_CASES[kind]
    pts = np.asarray(pts)
    for t in (0.3, 0.7):  # both halves of a concatenation
        grad, hess = f.jet(pts, t, 2)
        grad1, none = f.jet(pts, t, 1)
        assert none is None and np.array_equal(grad1, grad)
        assert np.array_equal(f.grad(pts, t), grad) and np.array_equal(f.hess(pts, t), hess)
        for axis in range(f.dim):
            e = np.zeros(f.dim)
            e[axis] = h
            fd = (f.value(pts + e, t) - f.value(pts - e, t)) / (2 * h)
            assert np.allclose(fd, grad[:, axis], atol=tol_grad)
            fd2 = (f.jet(pts + e, t, 1)[0] - f.jet(pts - e, t, 1)[0]) / (2 * h)
            assert np.allclose(fd2, hess[:, :, axis], atol=tol_hess)


def test_scenario_json_roundtrip():
    time = TimeProfile(poly=(1.0,), cos=((0.3, 1),))
    sc = radial_scenario(0.8, time=time)
    back = scenario_from_json(scenario_to_json(sc))
    assert back.dim == 2 and back.dt == sc.dt
    pts = np.array([[0.3, 0.2]])
    assert back.field.value(pts, 0.3) == pytest.approx(sc.field.value(pts, 0.3))
    # sum/concat/bump kinds
    a = bump_scenario(0.9, [0.45, 0.0], 0.3)
    b = bump_scenario(-0.6, [-0.45, 0.0], 0.3)
    js = scenario_to_json(concat_scenarios(a, b))
    back2 = scenario_from_json(js)
    assert back2.field.value(pts, 0.2) == pytest.approx(
        concat_scenarios(a, b).field.value(pts, 0.2))
    with pytest.raises(ValidationError):
        field_from_json({"kind": "nope"})
