"""Hamiltonian flow tests: integrator, Calabi, Birkhoff, tau, Theorem-3 value."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from _oracles import (lambda_form_calabi, newton_reference_evolve, radial_calabi_4d_oracle,
                      radial_calabi_oracle, radial_tau_oracle)
import qmlab
from qmlab import hamflow
from qmlab.errors import ValidationError
from qmlab.hamflow import (BumpField, ConcatField, ConjugatedField, FlowMap,
                           HamiltonianScenario, HyperbolicForm, PolyBumpField,
                           QuadratureRule, RadialField, StandardForm, SumField,
                           TimeProfile, birkhoff_average, calabi, concat_scenarios,
                           conjugate_scenario, field_from_json, integrate_flow,
                           jacobian_path, s_restriction_value, scenario_from_json,
                           scenario_to_json, sum_scenarios, tau_ball)
from qmlab.symplectic import check_symplectic, phi_lag, standard_j


def radial_scenario(amplitude=0.8, dt=0.01, r_supp=1.0, ball=1.2, form=None, time=None):
    f = RadialField([amplitude], support_radius=r_supp, time=time)
    return HamiltonianScenario(field=f, ball_radius=ball, support_radius=r_supp,
                               dt=dt, form=form or StandardForm())


def bump_scenario(amplitude, center, radius, ball=1.2, dt=0.01, time=None):
    f = BumpField(amplitude, center, radius, time=time)
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


def test_calabi_additive_under_time_dependent_concatenation():
    # a(t) = 1 + sin(2 pi t) / 2 on the bump and a(t) = 2t on the radial twist
    a = bump_scenario(0.9, [0.3, 0.1], 0.4, time=TimeProfile(sin=((0.5, 1),)))
    b = radial_scenario(0.8, time=TimeProfile(poly=(0.0, 2.0)))
    rule = QuadratureRule(radius=1.0)  # one spatial rule for the parts and the concatenation
    assert (calabi(concat_scenarios(a, b), quadrature=rule)
            == pytest.approx(calabi(a, quadrature=rule) + calabi(b, quadrature=rule), rel=1e-13))


def test_calabi_negates_under_time_reversal():
    sc = radial_scenario(0.7)
    rev = radial_scenario(-0.7)
    assert calabi(rev) == pytest.approx(-calabi(sc), rel=1e-12)


def test_calabi_primitive_independence():
    # calabi's -(integral of H rho) against the integral of lambda(X_H) rho, with and without d(shift)
    sc = bump_scenario(1.1, [0.2, 0.15], 0.45)
    base = calabi(sc)
    shift = PolyBumpField([[(2, 1), 0.7], [(0, 1), -0.3], [(1, 0), 0.2]],
                          support_radius=sc.ball_radius - 1e-6)
    assert lambda_form_calabi(sc) == pytest.approx(base, abs=1e-6)
    assert lambda_form_calabi(sc, shift=shift) == pytest.approx(base, abs=1e-6)


def test_calabi_quadrature_domain_validation():
    sc = radial_scenario(0.5)
    with pytest.raises(ValidationError):
        calabi(sc, quadrature=QuadratureRule(radius=0.5))


def test_primitive_exterior_derivative_check():
    # d(lambda) = rho dx ^ dy by finite differences, lambda = a(r) (x dy - y dx) (+ d(shift))
    rng = np.random.default_rng(3)
    shift = PolyBumpField([[(2, 1), 0.4]], support_radius=2.0)
    h = 1e-5
    for form, dim, radius, exact in ((StandardForm(), 2, 0.8, None), (StandardForm(), 4, 0.5, None),
                                     (HyperbolicForm(), 2, 0.7, None), (StandardForm(), 2, 0.8, shift)):
        j = standard_j(dim // 2)
        pts = form.sample_ball(radius, dim, 64, rng)

        def lam(x):
            cov = form.primitive_coefficient(np.linalg.norm(x, axis=1))[:, None] * (x @ j.T)
            return cov if exact is None else cov + exact.spatial_jet(x)[0]

        diffs = [lam(pts + h * e) - lam(pts - h * e) for e in np.eye(dim)]
        for i in range(dim):
            for k in range(i + 1, dim):
                d_ik = (diffs[i][:, k] - diffs[k][:, i]) / (2.0 * h)
                assert np.max(np.abs(d_ik - form.rho(pts) * j.T[i, k])) <= 1e-8


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


def _calabi_per_time_node(sc):
    """The Calabi quadrature one time node at a time: -n times the integral of H_t rho (dim 2n).

    The time rule is 24-node Gauss-Legendre on each half of [0, 1]: a
    concatenation switches parts at t = 1/2, and on each half every time
    profile here is a polynomial or a low-frequency trigonometric term, which
    the rule integrates to rounding.
    """
    from qmlab.hamflow import _ball_nodes, _unit_gauss_legendre
    pts, w = _ball_nodes(sc.dim, QuadratureRule(), sc.support_radius)
    w = w * sc.form.rho(pts)
    u, w_u = _unit_gauss_legendre(24)
    total = 0.0
    for t, w_t in zip(np.concatenate([0.5 * u, 0.5 + 0.5 * u]), np.tile(0.5 * w_u, 2)):
        total += w_t * float(w @ sc.field.value(pts, float(t)))
    return -(sc.dim // 2) * total


def _calabi_cases():
    """Scenarios of every field kind, with time profiles that the split rule has to respect."""
    fields = {
        "radial_t": RadialField([1.0, -0.5, 0.3], support_radius=0.8,
                                time=TimeProfile(poly=(1.0, 0.2), cos=((0.3, 1),))),
        "bump": BumpField(1.1, [0.2, 0.15], 0.45),
        "poly": PolyBumpField([[(2, 1), 0.7], [(1, 0), -0.4], [(0, 2), 0.5]],
                              support_radius=1.0),
        "radial_4d": RadialField([0.8], support_radius=1.0, dim=4),
    }
    fields["sum"] = SumField([BumpField(0.9, [0.45, 0.0], 0.3),
                              BumpField(-0.6, [-0.45, 0.0], 0.3,
                                        time=TimeProfile(sin=((1.0, 1),)))])
    fields["concat"] = ConcatField(RadialField([1.0], support_radius=0.7,
                                               time=TimeProfile(poly=(0.3, 1.0))),
                                   BumpField(0.5, [0.1, 0.1], 0.4,
                                             time=TimeProfile(poly=(0.2, 1.0),
                                                              cos=((0.7, 2),))))
    fields["conjugated"] = ConjugatedField(fields["concat"],
                                           np.array([[1.2, 0.3], [0.0, 1.0 / 1.2]]))
    cases = {kind: HamiltonianScenario(field=f, ball_radius=1.2,
                                       support_radius=f.support_radius + 1e-9, dt=0.01)
             for kind, f in fields.items()}
    hyp_bump = BumpField(1.0, [0.2, 0.1], 0.3)
    cases["bump_hyperbolic"] = HamiltonianScenario(
        field=hyp_bump, ball_radius=0.9, support_radius=hyp_bump.support_radius + 1e-9,
        dt=0.01, form=HyperbolicForm())
    return cases


@pytest.mark.parametrize("kind", list(_calabi_cases()))
def test_calabi_matches_per_time_node_quadrature(kind):
    """One spatial pass per term and exact time integrals give the per-time-node value."""
    sc = _calabi_cases()[kind]
    value = calabi(sc)
    assert type(value) is float
    assert value == pytest.approx(_calabi_per_time_node(sc), rel=1e-14, abs=0.0)


def test_calabi_makes_one_spatial_pass_per_term(monkeypatch):
    calls = {}
    sc = _calabi_cases()["conjugated"]  # conjugated concat of a radial field and a bump
    for leaf in (sc.field.base.first, sc.field.base.second):
        def counted(pts, leaf=leaf, real=leaf.spatial_value):
            calls[leaf] = calls.get(leaf, 0) + 1
            return real(pts)

        def no_gradient(pts, order=1):
            raise AssertionError("calabi evaluated a gradient")
        monkeypatch.setattr(leaf, "spatial_value", counted)
        monkeypatch.setattr(leaf, "spatial_jet", no_gradient)
    calabi(sc)
    assert list(calls.values()) == [1, 1]


def test_calabi_conjugation_invariance():
    # H o g^{-1} integrates like H for symplectic g; its support edge cuts across the polar rule
    cases = _calabi_cases()
    assert calabi(cases["conjugated"]) == pytest.approx(calabi(cases["concat"]), rel=1e-9)


def test_calabi_4d_radial_closed_form():
    sc = _calabi_cases()["radial_4d"]  # RadialField([0.8], support_radius=1.0, dim=4)
    assert calabi(sc) == pytest.approx(radial_calabi_4d_oracle(0.8, 1.0), abs=5e-5)


def test_calabi_does_not_depend_on_the_blas_thread_count():
    """The node sums run in numpy's fixed order: one and two BLAS threads give the same bits."""
    code = ("from qmlab.hamflow import HamiltonianScenario, RadialField, calabi\n"
            "f = RadialField([0.8], support_radius=1.0)\n"
            "print(repr(calabi(HamiltonianScenario(field=f, ball_radius=1.2, support_radius=1.0,"
            " dt=0.01))))")
    src = str(Path(qmlab.__file__).resolve().parents[1])
    values = [subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                                                  PYTHONPATH=src)).stdout
              for threads in ("1", "2")]
    assert values[0] == values[1]
    assert float(values[0]) == pytest.approx(-0.8 * np.pi / 4, abs=1e-4)


@pytest.mark.parametrize("bad", [{"n_r": -4}, {"n_angle": 0}, {"n_axis": 2.0},
                                 {"n_r": True}, {"radius": float("nan")},
                                 {"radius": float("inf")}, {"radius": 0.0}, {"radius": "1"}],
                         ids=lambda bad: "-".join(f"{k}={v!r}" for k, v in bad.items()))
def test_quadrature_rule_rejects_bad_values(bad):
    with pytest.raises(ValidationError):
        QuadratureRule(**bad)


# ---------------------------------------------------------------- birkhoff

def test_birkhoff_constant_and_fixed_point():
    sc = radial_scenario(0.5)
    out = birkhoff_average(sc, lambda x: 3.25, np.array([0.4, 0.0]), 50)
    assert out.value == pytest.approx(3.25)
    fixed = birkhoff_average(sc, lambda x: x[0] ** 2, np.array([0.0, 0.0]), 10)
    assert fixed.value == pytest.approx(0.0, abs=1e-20)


@pytest.mark.parametrize("n_iterations", [1, 2, 7])
def test_birkhoff_matches_per_period_loop(n_iterations):
    """One evolve with a period-end hook gives the per-period loop's value, bit for bit."""
    sc = bump_scenario(1.1, [0.2, 0.1], 0.5, dt=0.02,
                       time=TimeProfile(poly=(1.0,), sin=((0.4, 1),)))
    phi = lambda x: float(np.sin(3.0 * x[0]) + x[1] ** 2)
    x = np.array([0.35, 0.05])
    engine = FlowMap(sc)
    pts, running, total = x[None], [], 0.0
    for k in range(n_iterations):
        total += phi(pts[0])
        running.append(total / (k + 1))
        pts = engine.evolve(pts, periods=1)
    out = birkhoff_average(sc, phi, x, n_iterations)
    tail = running[-max(1, n_iterations // 4):]
    assert out.value == running[-1]
    assert out.oscillation == max(abs(v - running[-1]) for v in tail)
    assert out.n_iterations == n_iterations


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
                  step_hook=lambda s, t, m, v, nw, tan: tracker.update(tan))
    assert via_path == pytest.approx(tracker.turns[0] / p, abs=1e-9)


def test_det2_n1_fast_path_matches_det(monkeypatch):
    from qmlab.symplectic import _det2_from_complex, full_rotation_loop
    rng = np.random.default_rng(17)
    tan = rng.standard_normal((500, 2, 2))
    det = np.linalg.det(tan)
    tan[det < 0, :, 0] *= -1.0
    tan /= np.sqrt(np.abs(det))[:, None, None]  # random 2x2 symplectic tangents
    a = tan[:, :1, :1] + 1j * tan[:, 1:, :1]
    d = np.linalg.det(a)
    via_det = (d / np.abs(d)) ** 2
    assert np.max(np.abs(_det2_from_complex(a) - via_det)) <= 8 * np.finfo(float).eps
    calls = []
    real_det = np.linalg.det
    monkeypatch.setattr(np.linalg, "det", lambda a: calls.append(a.shape) or real_det(a))
    _det2_from_complex(a)
    assert phi_lag(full_rotation_loop(33)) == pytest.approx(2.0, abs=1e-12)
    assert calls == []
    tan4 = np.broadcast_to(np.eye(4), (3, 4, 4))
    assert np.allclose(_det2_from_complex(tan4[:, :2, :2] + 1j * tan4[:, 2:, :2]), 1.0)
    assert calls == [(3, 2, 2)]


def test_unit_gauss_legendre_is_cached_and_read_only():
    from qmlab.hamflow import _unit_gauss_legendre
    nodes, weights = _unit_gauss_legendre(8)
    assert _unit_gauss_legendre(8)[0] is nodes
    assert np.all((nodes > 0.0) & (nodes < 1.0))
    assert weights.sum() == pytest.approx(1.0, abs=1e-15)
    for arr in (nodes, weights):
        with pytest.raises(ValueError):
            arr[0] = 0.5


def test_ball_nodes_match_the_meshgrid_construction():
    """The polar nodes from outer products are the (radius, angle) meshgrid's, bit for bit."""
    from qmlab.hamflow import _ball_nodes, _unit_gauss_legendre
    for rule in (QuadratureRule(n_r=8, n_angle=12), QuadratureRule()):
        u, wu = _unit_gauss_legendre(rule.n_r)
        r, wr = 0.7 * u, 0.7 * wu
        ang = 2.0 * np.pi * np.arange(rule.n_angle) / rule.n_angle
        rr, aa = np.meshgrid(r, ang, indexing="ij")
        nodes = np.stack([(rr * np.cos(aa)).ravel(), (rr * np.sin(aa)).ravel()], axis=1)
        weights = np.repeat(wr * r, rule.n_angle) * (2.0 * np.pi / rule.n_angle)
        pts, w = _ball_nodes(2, rule, 0.7)
        assert pts.tobytes() == nodes.tobytes() and w.tobytes() == weights.tobytes()
    for dim, rule in ((2, QuadratureRule(n_r=8, n_angle=12)), (4, QuadratureRule(n_axis=6))):
        pts, weights = _ball_nodes(dim, rule, 0.7)
        assert len(pts) == len(weights)
        assert np.all(np.linalg.norm(pts, axis=1) <= 0.7)


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


@pytest.mark.parametrize("length", range(1, 7))
def test_horner_is_polyval_bit_for_bit(length):
    from qmlab.hamflow import _horner
    rng = np.random.default_rng(length)
    coef = tuple(rng.standard_normal(length))
    x = np.concatenate([[0.0, -0.0, 1.0, -1.0, 0.5, -2.5], rng.uniform(-3.0, 3.0, 200)])
    assert _horner(coef, x).tobytes() == np.polyval(coef[::-1], x).tobytes()


def test_time_factor_is_the_profile_value_memoized_per_t():
    profile = TimeProfile(poly=(1.0, 0.2, -0.1), cos=((0.3, 1),), sin=((-0.2, 2),))
    f = RadialField([1.0], support_radius=0.8, time=profile)
    ts = [0.0, 0.005, 0.3, 1.0 / 3.0, 0.7, 0.995]
    for _ in range(2):  # the second pass reads the memo
        for t in ts:
            assert f._time_factor(t).hex() == float(profile(t)).hex()
    assert len(f._time_memo[1]) == len(ts)


def test_time_factor_follows_a_replaced_profile():
    f = RadialField([1.0], support_radius=0.8, time=TimeProfile(poly=(1.0, 0.5)))
    pts = np.array([[0.3, 0.2]])
    spatial = f.spatial_jet(pts, 1)[0]
    assert np.array_equal(f.jet(pts, 0.4, 1)[0], 1.2 * spatial)
    f.time = TimeProfile(poly=(2.0,))
    assert f._time_factor(0.4) == 2.0
    assert np.array_equal(f.jet(pts, 0.4, 1)[0], 2.0 * spatial)


def test_time_memo_stays_bounded(monkeypatch):
    """A period of 10,000 steps asks for more distinct t_mids than the memo keeps.

    The flow does not depend on the memo: a memo of one entry gives the same bits.
    """
    def flow():
        f = RadialField([1.0, -0.5], support_radius=0.8, time=TimeProfile(poly=(1.0, 0.3)))
        sc = HamiltonianScenario(field=f, ball_radius=1.0, support_radius=0.8, dt=1e-4)
        return f, integrate_flow(sc, [0.3, 0.2], 1.37)

    f, x1 = flow()
    assert 0 < len(f._time_memo[1]) <= hamflow.TIME_MEMO_SIZE
    monkeypatch.setattr(hamflow, "TIME_MEMO_SIZE", 1)
    g, x2 = flow()
    assert len(g._time_memo[1]) == 1 and np.array_equal(x1, x2)


_FROZEN_CASES = {kind: case[0] for kind, case in _JET_CASES.items()}
# parts whose supports overlap only in part, so that both parts' masks matter
_FROZEN_CASES["concat"] = ConcatField(BumpField(0.8, [0.4, 0.0], 0.3),
                                      RadialField([1.0], support_radius=0.5))


@pytest.mark.parametrize("kind", list(_FROZEN_CASES))
def test_frozen_mask_is_exact(kind):
    f = _FROZEN_CASES[kind]
    pts = np.random.default_rng(5).uniform(-1.3, 1.3, (2000, f.dim))
    mask = f.frozen(pts)
    assert mask.dtype == bool and mask.shape == (2000,) and not mask.all() and mask.any()
    for t in (0.0, 0.3, 0.7):
        grad, hess = f.jet(pts, t, 2)
        assert not grad[mask].any() and not hess[mask].any()


@pytest.mark.parametrize("kind", list(_JET_CASES))
def test_jet_rows_do_not_depend_on_the_batch(kind):
    """The jet of each one-row slice equals its row of the whole batch, bit for bit."""
    f = _JET_CASES[kind][0]
    pts = np.random.default_rng(6).uniform(-1.0, 1.0, (2000, f.dim))
    for t in (0.3, 0.7):
        grad, hess = f.jet(pts, t, 2)
        for i in range(2000):
            row_grad, row_hess = f.jet(pts[i:i + 1], t, 2)
            assert np.array_equal(row_grad[0], grad[i]) and np.array_equal(row_hess[0], hess[i])


@pytest.mark.parametrize("kind", list(_JET_CASES))
def test_jet_layout(kind):
    """C- and F-ordered points give the same jet bits, and the Hessian is batch-last."""
    f = _JET_CASES[kind][0]
    pts = np.random.default_rng(7).uniform(-1.0, 1.0, (50, f.dim))
    for t in (0.3, 0.7):
        grad, hess = f.jet(pts, t, 2)
        grad_f, hess_f = f.jet(np.asfortranarray(pts), t, 2)
        assert np.array_equal(grad, grad_f) and np.array_equal(hess, hess_f)
        for h in (hess, hess_f):
            assert h.shape == (50, f.dim, f.dim) and h.strides[0] == h.itemsize == min(h.strides)


def _recorded_evolve(sc, pts, tangent):
    """evolve over two periods, keeping every hook argument."""
    engine = FlowMap(sc)
    steps = []

    def hook(step, t_mid, mid, vel, new, tan):
        steps.append((mid.copy(), vel.copy(), new.copy(), None if tan is None else tan.copy()))

    out = engine.evolve(pts, periods=2, tangent=tangent, step_hook=hook)
    return out if tangent is not None else (out,), steps, engine.max_newton_iters


@pytest.mark.parametrize("case", ["bump_hyperbolic", "sum_tangents", "conjugated_tangents",
                                  "all_frozen"])
def test_frozen_rows_do_not_change_results(case, monkeypatch):
    rng = np.random.default_rng(17)
    if case == "bump_hyperbolic":
        f = BumpField(1.0, [0.2, 0.1], 0.3)
        sc = HamiltonianScenario(field=f, ball_radius=0.9, support_radius=f.support_radius + 1e-9,
                                 dt=0.01, form=HyperbolicForm())
        pts, tangent = HyperbolicForm().sample_ball(0.6, 2, 64, rng), None
    else:
        f = SumField([BumpField(0.9, [0.45, 0.0], 0.3), BumpField(-0.6, [-0.45, 0.0], 0.3)])
        if case == "conjugated_tangents":
            f = ConjugatedField(f, np.array([[1.2, 0.3], [0.0, 1.0 / 1.2]]))
        sc = HamiltonianScenario(field=f, ball_radius=1.2, support_radius=f.support_radius + 1e-9,
                                 dt=0.01)
        pts = StandardForm().sample_ball(1.0, 2, 64, rng)
        if case == "all_frozen":
            pts = pts[f.frozen(pts)]
        tangent = np.broadcast_to(np.eye(2), (len(pts), 2, 2)).copy()
    share = f.frozen(pts).mean()
    assert share == 1.0 if case == "all_frozen" else 0.0 < share < 1.0
    runs = [_recorded_evolve(sc, pts, tangent)]
    monkeypatch.setattr(f, "frozen", lambda x: np.zeros(len(x), dtype=bool))
    runs.append(_recorded_evolve(sc, pts, tangent))
    (out, steps, iters), (ref_out, ref_steps, ref_iters) = runs
    assert iters == ref_iters and len(steps) == len(ref_steps) == 200
    for a, b in zip(out, ref_out):
        assert np.array_equal(a, b)
    for step, ref_step in zip(steps, ref_steps):
        for a, b in zip(step, ref_step):
            assert (a is None and b is None) or np.array_equal(a, b)


def _assert_tangent_free_run_is_the_tangent_run(sc, pts):
    """Points, hook arguments and Newton counts of two periods without and with a tangent agree."""
    tangent = np.broadcast_to(np.eye(sc.dim), (len(pts), sc.dim, sc.dim)).copy()
    (out,), steps, iters = _recorded_evolve(sc, pts, None)
    (ref_out, _), ref_steps, ref_iters = _recorded_evolve(sc, pts, tangent)
    assert iters == ref_iters and len(steps) == len(ref_steps) == 2 * FlowMap(sc).steps_per_period
    assert np.array_equal(out, ref_out)
    for step, ref_step in zip(steps, ref_steps):
        assert step[3] is None
        for a, b in zip(step[:3], ref_step[:3]):
            assert np.array_equal(a, b)


# every field kind under the standard form, and the 2-d ones whose support fits
# the hyperbolic chart (|z| < 1) under that form as well
_FORM_CASES = [(kind, form) for kind in _JET_CASES for form in (StandardForm(), HyperbolicForm())
               if form.kind == "standard"
               or (_JET_CASES[kind][0].dim == 2 and _JET_CASES[kind][0].support_radius <= 0.9)]


@pytest.mark.parametrize("kind, form", _FORM_CASES,
                         ids=[f"{kind}-{form.kind}" for kind, form in _FORM_CASES])
def test_tangent_free_evolve_matches_tangent_evolve(kind, form):
    """Points, hook arguments and Newton counts do not depend on tangent transport, bit for bit.

    Only a tangent-free step may skip the converged iterate's Hessian, so
    this pins that skipping it changes no iterate.  Some rows are frozen.
    """
    f = _JET_CASES[kind][0]
    ball = 0.95 if form.kind == "hyperbolic" else f.support_radius + 0.2
    sc = HamiltonianScenario(field=f, ball_radius=ball, support_radius=f.support_radius + 1e-9,
                             dt=0.02, form=form)
    pts = form.sample_ball(0.97 * sc.ball_radius, sc.dim, 24, np.random.default_rng(43))
    assert 0.0 < sc.field.frozen(pts).mean() < 1.0
    _assert_tangent_free_run_is_the_tangent_run(sc, pts)


def _step_jets(sc, pts, tangent, periods=1):
    """evolve over whole periods, returning each step's field jets and its Newton solves.

    A step's jets are [(order, points), ...] in call order; its Newton
    solves count the ``_solve_batch`` calls with one right-hand side per row
    (the Cayley step's (d, k, n) solve is not one).
    """
    engine = FlowMap(sc)
    jets, solves, steps = [], [], []
    field_jet, solve_batch = engine._field_jet, hamflow._solve_batch

    def recorded(x, t, order):
        jets.append((order, x.copy()))
        return field_jet(x, t, order)

    def counted(mats, rhs):
        if rhs.ndim == 2:
            solves.append(rhs.shape)
        return solve_batch(mats, rhs)

    def hook(*args):
        steps.append((list(jets), len(solves)))
        jets.clear()
        solves.clear()

    engine._field_jet = recorded
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hamflow, "_solve_batch", counted)
        engine.evolve(pts, periods=periods, tangent=tangent, step_hook=hook)
    return steps


@pytest.mark.parametrize("form", [StandardForm(), HyperbolicForm()], ids=lambda f: f.kind)
@pytest.mark.parametrize("n", [1, 200])
def test_tangent_free_radial_step_skips_the_last_hessian(form, n):
    """A radial step makes one order-2 jet fewer without tangents than with them.

    The first four steps of a period start from the jet predictor (order 1)
    and forecast their converged iterate by Newton's rate.  The others
    start from the velocity history's rotation forecast, which a radial
    field makes exact: Newton converges at the first iterate and makes no
    solve.  The tangent run evaluates that iterate with the Hessian, for
    the Cayley step.  Without tangents it takes the velocity alone once the
    history step before converged there, so from the second history step
    of the run on, across the period boundary: the first period keeps one
    order-2 history jet, the second none.
    """
    sc = radial_scenario(dt=0.01, r_supp=0.8, ball=0.9, form=form)
    pts = form.sample_ball(0.75, 2, n, np.random.default_rng(47))
    free = _step_jets(sc, pts, None, periods=2)
    with_tangent = _step_jets(sc, pts, np.eye(2), periods=2)
    assert len(free) == len(with_tangent) == 200
    history_jets = {(period, order): 0 for period in (0, 1) for order in (1, 2)}
    for step, ((jets, solves), (ref, ref_solves)) in enumerate(zip(free, with_tangent)):
        orders = [order for order, _ in jets]
        if step % 100 < 4:
            iterates = len(ref) - 1
            assert iterates >= 2 and solves == ref_solves == iterates - 1
            assert [order for order, _ in ref] == [1] + [2] * iterates
            assert orders == [1] + [2] * (iterates - 1) + [1]
        else:
            assert solves == ref_solves == 0 and [order for order, _ in ref] == [2]
            assert len(orders) == 1
            history_jets[step // 100, orders[0]] += 1
        for (_, x), (_, ref_x) in zip(jets, ref):
            assert np.array_equal(x, ref_x)
    assert history_jets == {(0, 1): 95, (0, 2): 1, (1, 1): 96, (1, 2): 0}


def test_mispredicted_last_iterate_falls_back_to_the_hessian():
    """An order-1 iterate that does not converge takes the Hessian at the same midpoint.

    A history step's first iterate takes the velocity alone exactly when
    the history step before converged at its first iterate.  One row of the
    radial-then-bump concatenation mispredicts both ways: at t = 1/2 the
    field changes, so the first step after the change misses at its first
    iterate; and on some step the rate carried over forecasts convergence
    after the first solve, and it takes a second.  The outputs still equal
    the tangent run's, bit for bit.
    """
    f = _JET_CASES["concat"][0]
    sc = HamiltonianScenario(field=f, ball_radius=f.support_radius + 0.2,
                             support_radius=f.support_radius + 1e-9, dt=0.01)
    pts = StandardForm().sample_ball(0.97 * sc.ball_radius, 2, 1, np.random.default_rng(59))
    fallbacks = {"first": 0, "later": 0}
    first_one = False
    for step, (jets, solves) in enumerate(_step_jets(sc, pts, None)):
        # a predictor step's first jet is the predictor; then come the iterates, each of
        # one jet, or of an order-1 jet and the fallback at its midpoint
        iterates = jets[1:] if step < 4 else jets
        assert step < 4 or iterates[0][0] == (1 if first_one else 2)
        k = midpoints = 0
        while k < len(iterates):
            order, x = iterates[k]
            if order == 1 and k < len(iterates) - 1:
                next_order, next_x = iterates[k + 1]
                assert next_order == 2 and np.array_equal(x, next_x)
                fallbacks["first" if midpoints == 0 else "later"] += 1
                k += 1
            k += 1
            midpoints += 1
        assert solves == midpoints - 1
        if step >= 4:
            first_one = solves == 0
    assert fallbacks["first"] >= 1 and fallbacks["later"] >= 1
    _assert_tangent_free_run_is_the_tangent_run(sc, pts)


def _recorded_steps(sc, pts, periods=1):
    """evolve with warnings as errors, keeping each step's (x, Newton start, tol, t_mid, result).

    The Newton start is None on a jet-predictor step; the result is what
    ``FlowMap._step`` returned.
    """
    engine = FlowMap(sc)
    records = []
    step = engine._step

    def recorded(x, guess, t_mid, tol, *args):
        out = step(x, guess, t_mid, tol, *args)
        records.append((x, guess, tol, t_mid, out))
        return out

    engine._step = recorded
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = engine.evolve(pts, periods=periods)
    return engine, out, records


def _radial_4d_scenario():
    f = _JET_CASES["radial_4d"][0]
    return HamiltonianScenario(field=f, ball_radius=f.support_radius + 0.2,
                               support_radius=f.support_radius + 1e-9, dt=0.01)


_ROTATION_CASES = {
    # a rotation-invariant scenario and rows whose velocity has a zero coordinate
    "standard": (radial_scenario(dt=0.01, r_supp=0.8, ball=0.9), [[0.0, 0.0]]),
    "hyperbolic": (radial_scenario(dt=0.01, r_supp=0.8, ball=0.9, form=HyperbolicForm()),
                   [[0.0, 0.0]]),
    "radial_4d": (_radial_4d_scenario(), [[0.0, 0.0, 0.0, 0.0], [0.3, 0.0, -0.2, 0.0]]),
}


@pytest.mark.parametrize("case", list(_ROTATION_CASES))
def test_rotation_forecast_is_exact_on_rotation_invariant_fields(case):
    """Every history guess of every live row is within its Newton stop of the converged point.

    The midpoint rule keeps |z|^2 of a radial field, so each step rotates
    a row's complex coordinates by a constant factor and the velocity
    ratio forecast is exact.  A zero velocity coordinate (the origin, or a
    4-d row with one complex coordinate 0) has the ratio 0/0 and takes the
    cubic, which is 0 there too; no warning is raised.
    """
    sc, zero_rows = _ROTATION_CASES[case]
    pts = np.concatenate([zero_rows, sc.form.sample_ball(0.97 * sc.support_radius, sc.dim, 30,
                                                          np.random.default_rng(71))])
    assert not sc.field.frozen(pts).any()
    engine, out, records = _recorded_steps(sc, pts, periods=2)
    assert np.array_equal(out[0], pts[0])
    history = [r for r in records if r[1] is not None]
    assert len(history) == 2 * (engine.steps_per_period - 4)
    for x, guess, tol, t_mid, (w, _, _, _, solves) in history:
        vel = engine._field_jet(0.5 * (x + guess), t_mid, 1)[0]
        assert (np.abs(guess - x - engine.h * vel).max(axis=0) < tol).all()
        assert solves == 0 and np.array_equal(w, guess)


def test_rotation_forecast_takes_the_cubic_where_a_velocity_jumps_from_zero():
    """A row outside the first part's support has velocity 0 until t = 1/2, then rotates.

    While its history holds a zero velocity, a ratio is 0/0 or c/0 and the
    guess is the cubic extrapolation of the velocities; the run completes
    without a warning.
    """
    f = ConcatField(BumpField(0.8, [0.4, 0.0], 0.3), RadialField([1.0], support_radius=0.5))
    sc = HamiltonianScenario(field=f, ball_radius=1.2, support_radius=f.support_radius + 1e-9,
                             dt=0.01)
    pts = np.array([[-0.2, 0.1]])
    assert f.first.frozen(pts).all() and not f.frozen(pts).any()
    engine, out, records = _recorded_steps(sc, pts)
    vels = [out_step[1] for *_, out_step in records]
    jump = next(k for k, v in enumerate(vels) if v.any())
    assert jump == engine.steps_per_period // 2 and not np.any(vels[:jump])
    for k in range(jump, jump + 4):
        x, guess = records[k][:2]
        v4, v3, v2, v1 = vels[k - 4:k]
        cubic = x + engine.h * (4.0 * (v1 + v3) - 6.0 * v2 - v4)
        assert np.allclose(guess, cubic, rtol=0.0, atol=1e-15)
    assert np.isfinite(out).all() and np.linalg.norm(out) > 0.0


@pytest.mark.parametrize("tangent", [False, True], ids=["points", "tangents"])
@pytest.mark.parametrize("kind, form", _FORM_CASES,
                         ids=[f"{kind}-{form.kind}" for kind, form in _FORM_CASES])
def test_evolve_rows_do_not_depend_on_the_batch(kind, form, tangent):
    """Each row evolved alone equals its row of the batch: points, tangents, hook arguments.

    Every row stops Newton on its own residual and extrapolates its own
    velocity history, so no output bit of a row depends on the other rows.
    Some rows are frozen.
    """
    f = _JET_CASES[kind][0]
    ball = 0.95 if form.kind == "hyperbolic" else f.support_radius + 0.2
    sc = HamiltonianScenario(field=f, ball_radius=ball, support_radius=f.support_radius + 1e-9,
                             dt=0.02, form=form)
    radius = min(0.97 * sc.ball_radius, 1.2 * f.support_radius)  # some rows live, some frozen
    pts = form.sample_ball(radius, sc.dim, 24, np.random.default_rng(53))
    assert 0.0 < sc.field.frozen(pts).mean() <= 0.85
    frames = np.broadcast_to(np.eye(sc.dim), (len(pts), sc.dim, sc.dim)) if tangent else None
    out, steps, _ = _recorded_evolve(sc, pts, frames)
    for i in range(len(pts)):
        row_out, row_steps, _ = _recorded_evolve(sc, pts[i:i + 1],
                                                 None if frames is None else frames[i:i + 1])
        for a, b in zip(out, row_out):
            assert np.array_equal(a[i:i + 1], b)
        for step, row_step in zip(steps, row_steps):
            for a, b in zip(step, row_step):
                assert (a is None and b is None) or np.array_equal(a[i:i + 1], b)


def test_whole_periods_equal_one_period_calls():
    """evolve over three periods equals three one-period calls on one engine, bit for bit.

    The velocity history restarts with each period, so a period's steps do
    not depend on the periods before it beyond their end points.
    """
    sc = bump_scenario(1.0, [0.2, 0.1], 0.5, dt=0.02)
    pts = StandardForm().sample_ball(0.7, 2, 40, np.random.default_rng(59))
    frames = np.broadcast_to(np.eye(2), (40, 2, 2))

    def hook_into(steps):
        return lambda step, t_mid, *args: steps.append(
            (step % 50, t_mid) + tuple(a.copy() for a in args))

    whole = []
    out, tan = FlowMap(sc).evolve(pts, periods=3, tangent=frames, step_hook=hook_into(whole))
    engine, parts = FlowMap(sc), []
    cur, cur_tan = pts, frames
    for _ in range(3):
        cur, cur_tan = engine.evolve(cur, tangent=cur_tan, step_hook=hook_into(parts))
    assert np.array_equal(out, cur) and np.array_equal(tan, cur_tan)
    assert len(whole) == len(parts) == 150
    for step, part in zip(whole, parts):
        assert step[:2] == part[:2]
        for a, b in zip(step[2:], part[2:]):
            assert np.array_equal(a, b)


def _hyperbolic_scenario(f, ball, dt):
    return HamiltonianScenario(field=f, ball_radius=ball, support_radius=f.support_radius + 1e-9,
                               dt=dt, form=HyperbolicForm())


_REFERENCE_CASES = {
    # scenario, periods
    "twist": (radial_scenario(0.8, dt=0.01), 4),
    "bump": (bump_scenario(1.0, [0.2, 0.1], 0.5, dt=0.01), 4),
    "hyperbolic_radial": (_hyperbolic_scenario(RadialField([1.3], support_radius=0.45), 0.57,
                                               0.004), 2),
    "hyperbolic_bump": (_hyperbolic_scenario(BumpField(5.0, [0.12, 0.0], 0.34), 0.58, 0.002), 1),
}


@pytest.mark.parametrize("case", list(_REFERENCE_CASES))
def test_one_row_runs_match_the_newton_reference(case):
    """A row evolved alone is within 1e-10 of the midpoint flow solved by 8 fixed Newton iterates."""
    sc, periods = _REFERENCE_CASES[case]
    pts = sc.form.sample_ball(0.97 * sc.support_radius, 2, 64, np.random.default_rng(61))
    pts = pts[~sc.field.frozen(pts)][:8]  # live rows only: a frozen row is exact
    assert len(pts) == 8
    ref = newton_reference_evolve(sc, pts, periods)
    for i in range(len(pts)):
        alone = FlowMap(sc).evolve(pts[i:i + 1], periods=periods)
        assert np.abs(alone[0] - ref[i]).max() <= 1e-10


def test_tangent_stack_with_frozen_rows():
    """Any (n, d, k) or (d, k) tangent is transported, also when some rows are frozen."""
    rng = np.random.default_rng(23)
    f = BumpField(0.9, [0.45, 0.0], 0.3)
    sc = HamiltonianScenario(field=f, ball_radius=1.2, support_radius=f.support_radius + 1e-9,
                             dt=0.01)
    pts = StandardForm().sample_ball(1.0, 2, 16, rng)
    assert 0.0 < f.frozen(pts).mean() < 1.0
    cols = rng.normal(size=(16, 2, 3))
    _, jac = FlowMap(sc).evolve(pts, tangent=np.broadcast_to(np.eye(2), (16, 2, 2)).copy())
    _, moved = FlowMap(sc).evolve(pts, tangent=cols)
    assert moved.shape == (16, 2, 3) and np.allclose(moved, jac @ cols, rtol=0, atol=1e-12)
    _, shared = FlowMap(sc).evolve(pts, tangent=cols[0])
    assert shared.shape == (16, 2, 3) and np.allclose(shared, jac @ cols[0], rtol=0, atol=1e-12)
    still = pts[f.frozen(pts)]
    _, kept = FlowMap(sc).evolve(still, tangent=cols[:len(still)])
    assert np.array_equal(kept, cols[:len(still)]) and kept.flags.writeable
    assert not np.shares_memory(kept, cols)


@pytest.mark.parametrize("dim", [2, 4])
def test_solve_batch_matches_linalg_solve(dim):
    """The entry-major solve, (d, n) and (d, k, n) right-hand sides, within a few ulps."""
    from qmlab.hamflow import _batched, _entries, _solve_batch
    rng = np.random.default_rng(31)
    mats = np.eye(dim)[:, :, None] + 0.3 * rng.standard_normal((dim, dim, 300))
    cond = np.linalg.cond(_batched(mats))
    for rhs in (rng.standard_normal((dim, 300)), rng.standard_normal((dim, 3, 300))):
        cols = rhs[:, None] if rhs.ndim == 2 else rhs  # (d, k, n)
        ref = _entries(np.linalg.solve(_batched(mats), _batched(cols)))
        got = _solve_batch(mats, rhs)
        assert got.shape == rhs.shape
        bound = 4 * np.finfo(float).eps * cond * np.abs(ref).max(axis=0)
        assert np.all(np.abs(got.reshape(cols.shape) - ref) <= bound)


def _cayley_inputs(dim, n, rng):
    """A FlowMap with h = 0.2 and entry-major A = J0 S (S symmetric), tangents (d, d, n)."""
    f = RadialField([0.8], support_radius=1.0, dim=dim)
    engine = FlowMap(HamiltonianScenario(field=f, ball_radius=1.2, support_radius=1.0, dt=0.2))
    s = rng.standard_normal((n, dim, dim))
    a_mid = np.moveaxis(standard_j(dim // 2) @ (s + s.transpose(0, 2, 1)), 0, -1).copy()
    tangent = np.moveaxis(rng.standard_normal((n, dim, dim)), 0, -1).copy()
    return engine, a_mid, tangent


@pytest.mark.parametrize("dim", [2, 4])
def test_cayley_step_is_symplectic(dim):
    """One Cayley step of A = J0 S maps the identity frame into Sp(2n): T^T J0 T = J0."""
    engine, a_mid, _ = _cayley_inputs(dim, 200, np.random.default_rng(37))
    eye = np.broadcast_to(np.eye(dim)[:, :, None], a_mid.shape).copy()
    t = np.moveaxis(engine._cayley(a_mid, eye), -1, 0)
    j = standard_j(dim // 2)
    assert np.abs(t.transpose(0, 2, 1) @ j @ t - j).max() <= 1e-13


@pytest.mark.parametrize("dim", [2, 4])
def test_cayley_rows_do_not_depend_on_the_batch(dim):
    """The Cayley step of a batch equals the step of each row alone, bit for bit."""
    engine, a_mid, tangent = _cayley_inputs(dim, 50, np.random.default_rng(41))
    batch = engine._cayley(a_mid, tangent)
    for i in range(50):
        alone = engine._cayley(a_mid[..., i:i + 1].copy(), tangent[..., i:i + 1].copy())
        assert np.array_equal(batch[..., i:i + 1], alone)


@pytest.mark.parametrize("case", ["radial_all_live", "sum_some_frozen"])
def test_evolve_layout(case):
    """C- and F-ordered inputs give equal outputs and hook arguments, all of them batch-last."""
    rng = np.random.default_rng(29)
    if case == "radial_all_live":
        sc, radius = radial_scenario(dt=0.02), 0.9
    else:
        f = SumField([BumpField(0.9, [0.45, 0.0], 0.3), BumpField(-0.6, [-0.45, 0.0], 0.3)])
        sc = HamiltonianScenario(field=f, ball_radius=1.2,
                                 support_radius=f.support_radius + 1e-9, dt=0.02)
        radius = 1.0
    pts = StandardForm().sample_ball(radius, 2, 40, rng)
    assert sc.field.frozen(pts).any() == (case == "sum_some_frozen")
    tangent = rng.normal(size=(40, 2, 3))
    batch_last = np.moveaxis(np.moveaxis(tangent, 0, -1).copy(), -1, 0)
    (out, tan), steps, iters = _recorded_evolve(sc, pts, tangent)
    (out_f, tan_f), steps_f, iters_f = _recorded_evolve(sc, np.asfortranarray(pts), batch_last)
    assert iters == iters_f and len(steps) == len(steps_f) == 100
    assert np.array_equal(out, out_f) and np.array_equal(tan, tan_f)
    for step, step_f in zip(steps, steps_f):
        for a, b in zip(step, step_f):
            assert np.array_equal(a, b)
    engine = FlowMap(sc)
    arrays = []
    engine.evolve(pts, tangent=tangent, step_hook=lambda s, t, *args: arrays.extend(args))
    for a in arrays + list(engine.evolve(pts, tangent=tangent)):
        assert a.strides[0] == a.itemsize == min(a.strides)


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
    # every field kind survives a round trip through JSON text bit for bit
    for kind, (f, kind_pts, *_) in _JET_CASES.items():
        sc = HamiltonianScenario(field=f, ball_radius=f.support_radius + 0.2,
                                 support_radius=f.support_radius + 1e-9, dt=0.01)
        js = json.loads(json.dumps(scenario_to_json(sc)))
        back = scenario_from_json(js)
        assert type(back.field) is type(f) and scenario_to_json(back) == js, kind
        kind_pts = np.asarray(kind_pts)
        for t in (0.3, 0.7):
            assert np.array_equal(back.field.value(kind_pts, t), f.value(kind_pts, t)), kind
            for got, want in zip(back.field.jet(kind_pts, t, 2), f.jet(kind_pts, t, 2)):
                assert np.array_equal(got, want), kind
    for kind in ("nope", "grid"):
        with pytest.raises(ValidationError, match="unknown Hamiltonian kind"):
            field_from_json({"kind": kind})
