"""Harness tests: homogenization, defect estimation, and their contracts."""

import numpy as np
import pytest

from qmlab.errors import ValidationError
from qmlab.hamflow import (HamiltonianScenario, RadialField, birkhoff_average, jacobian_path,
                           tau_ball)
from qmlab.harness import (DefectEstimate, QmEvaluator, estimate_defect,
                           homogenize, homogenize_until)
from qmlab.symplectic import (PhiEvaluator, concat_power, full_rotation_loop, phi_homog,
                              random_sp_path)


class CircleLiftEvaluator(QmEvaluator):
    """Lifts of circle maps, phi(F) = F(0): homogenizes to the translation number."""

    @property
    def identity(self):
        return lambda x: x

    def evaluate(self, f):
        return float(f(0.0))

    def compose(self, f, g):
        return lambda x, f=f, g=g: f(g(x))


def translation(c):
    return lambda x: x + c


def noisy_lift(c, eps):
    # commutes with integer translations; rotation number c for small eps
    return lambda x: x + c + eps * np.sin(2 * np.pi * x)


def orbit_average_oracle(f, n=4000):
    """Brute-force translation number: lim F^N(0)/N."""
    x = 0.0
    for _ in range(n):
        x = f(x)
    return x / n


def test_homogenize_identity_is_zero():
    ev = CircleLiftEvaluator()
    res = homogenize(ev, ev.identity, [1, 2, 4])
    assert res.value == 0.0
    assert all(q == 0.0 for _, q in res.samples)
    assert res.error_bound is None


def test_homogenize_translation_number():
    ev = CircleLiftEvaluator()
    x = translation(0.3)
    res = homogenize(ev, x, [1, 10, 100])
    assert res.value == pytest.approx(0.3, abs=1e-12)
    assert res.p_used == 100


def test_homogenize_converges_to_orbit_average():
    ev = CircleLiftEvaluator()
    f = noisy_lift(0.3, 0.05)
    oracle = orbit_average_oracle(f)
    res = homogenize(ev, f, [1, 64, 512])
    assert res.value == pytest.approx(oracle, abs=2e-3)


def test_homogenize_schedule_validation():
    ev = CircleLiftEvaluator()
    with pytest.raises(ValidationError):
        homogenize(ev, ev.identity, [])
    with pytest.raises(ValidationError):
        homogenize(ev, ev.identity, [2, 2])
    with pytest.raises(ValidationError):
        homogenize(ev, ev.identity, [0, 1])


def test_homogenize_until_stop_rules():
    ev = CircleLiftEvaluator()
    res = homogenize_until(ev, noisy_lift(0.4, 0.03), quotient_tol=1e-4, p_max=2048)
    assert res.value == pytest.approx(0.4, abs=5e-3)
    sp_ev = PhiEvaluator(1)
    res = homogenize_until(sp_ev, full_rotation_loop(), abs_bound=0.05)
    assert res.error_bound is not None and res.error_bound <= 0.05
    assert res.value == pytest.approx(2.0, abs=1e-9)
    with pytest.raises(ValidationError):
        homogenize_until(ev, translation(0.1))


def test_phi_evaluator_full_rotation_loop():
    ev = PhiEvaluator(1)
    res = homogenize(ev, full_rotation_loop(), [1, 8])
    assert res.value == pytest.approx(2.0, abs=1e-9)
    assert res.error_bound == pytest.approx(2.0 / 8)


def test_defect_zero_for_homomorphism():
    ev = CircleLiftEvaluator()
    est = estimate_defect(ev, lambda rng: translation(rng.uniform(-2, 2)), 50, seed=7)
    assert est.max_observed <= 1e-12
    assert est.n_pairs == 50


def test_defect_phi_lag_bounded_by_2n():
    ev = PhiEvaluator(1)
    est = estimate_defect(ev, lambda rng: random_sp_path(1, rng), 200, seed=11)
    assert isinstance(est, DefectEstimate)
    assert est.max_observed <= 2.0 + 1e-9


def test_defect_deterministic_per_seed():
    ev = PhiEvaluator(1)
    a = estimate_defect(ev, lambda rng: random_sp_path(1, rng), 20, seed=3)
    b = estimate_defect(ev, lambda rng: random_sp_path(1, rng), 20, seed=3)
    assert a.max_observed == b.max_observed


def test_fekete_consistency_of_quotients():
    # |phi(x^p)/p - phi(x^2p)/2p| <= 2 * defect / p for the sampled family
    ev = PhiEvaluator(1)
    rng = np.random.default_rng(5)
    defect = estimate_defect(ev, lambda r: random_sp_path(1, r), 100, seed=5).max_observed
    for _ in range(10):
        x = random_sp_path(1, rng)
        for p in (1, 2, 4):
            qa = ev.evaluate(ev.power(x, p)) / p
            qb = ev.evaluate(ev.power(x, 2 * p)) / (2 * p)
            assert abs(qa - qb) <= 2.0 * max(defect, 2.0) / p + 1e-9


def test_phi_minus_homogenized_within_defect_scale():
    # |phi - phi_h| <= defect; the sup defect of phi_{L0} in Sp(2) is 2n = 2
    ev = PhiEvaluator(1)
    rng = np.random.default_rng(9)
    for _ in range(10):
        x = random_sp_path(1, rng)
        raw = ev.evaluate(x)
        hom = ev.evaluate(ev.power(x, 64)) / 64
        assert abs(raw - hom) <= 2.0 + 1e-6


def test_homogeneity_on_inverses():
    ev = PhiEvaluator(1)
    rng = np.random.default_rng(13)
    for _ in range(5):
        x = random_sp_path(1, rng)
        hx, _ = ev.evaluate(ev.power(x, 32)) / 32, None
        hinv = ev.evaluate(ev.power(ev.inverse(x), 32)) / 32
        assert hinv == pytest.approx(-hx, abs=2 * (2.0 / 32) + 1e-9)


def _twist():
    return HamiltonianScenario(field=RadialField([0.8], support_radius=1.0), ball_radius=1.2,
                               support_radius=1.0, dt=0.05)


@pytest.mark.parametrize("call", [
    lambda: tau_ball(_twist(), p=2.5, n_samples=4, seed=1),
    lambda: tau_ball(_twist(), p=True, n_samples=4, seed=1),
    lambda: jacobian_path(_twist(), (0.3, 0.0), p=1.5),
    lambda: birkhoff_average(_twist(), lambda x: x[0], (0.3, 0.0), n_iterations=2.5),
    lambda: concat_power(full_rotation_loop(), 2.5),
    lambda: phi_homog(full_rotation_loop(), 2.5),
    lambda: CircleLiftEvaluator().power(translation(0.3), 2.5),
    lambda: homogenize(CircleLiftEvaluator(), translation(0.3), [1, 2.5]),
], ids=["tau_p_fractional", "tau_p_bool", "jacobian_p_fractional",
        "birkhoff_iterations_fractional", "concat_power_fractional", "phi_homog_fractional",
        "evaluator_power_fractional", "homogenize_schedule_fractional"])
def test_period_counts_must_be_integers_at_least_one(call):
    with pytest.raises(ValidationError):
        call()
