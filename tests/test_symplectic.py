"""Symplectic module tests: det^2, winding, phi_{L0}, brackets, transversality."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from qmlab.errors import RefinePathError, ValidationError
from qmlab.symplectic import (SP_PATH_MAGNITUDE, SP_PATH_SAMPLES, SP_PATH_SEGMENTS,
                              LagrangianFrame, SpPath, check_symplectic,
                              concat_power, coordinate_lagrangian,
                              frame_from_json, frame_to_json,
                              full_rotation_loop, identity_path,
                              lagrangian_det2, path_compose, path_from_json,
                              path_inverse, path_to_json, phi_homog, phi_lag,
                              random_lagrangian, random_sp_path,
                              rotation_path, standard_j,
                              transversality_winding_check, winding)


def rot2(a):
    return np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])


# ---------------------------------------------------------------- validation

def test_check_symplectic_accepts_rotation_rejects_generic():
    check_symplectic(rot2(0.7))
    with pytest.raises(ValidationError):
        check_symplectic(np.array([[1.0, 0.1], [0.0, 1.1]]))
    with pytest.raises(ValidationError):
        check_symplectic(np.ones((3, 3)))


def test_lagrangian_frame_validation():
    coordinate_lagrangian(2)
    with pytest.raises(ValidationError):
        LagrangianFrame(np.zeros((4, 2)))
    # span(e1, e3) in R^4 is not isotropic: omega(e1, J0-partner) != 0
    cols = np.zeros((4, 2))
    cols[0, 0] = 1.0
    cols[2, 1] = 1.0
    with pytest.raises(ValidationError):
        LagrangianFrame(cols)


def test_sp_path_validation():
    with pytest.raises(ValidationError):
        SpPath(np.array([0.0, 1.0]), np.stack([rot2(0.3), rot2(0.5)]))  # not starting at Id
    p = rotation_path(1.0, 9)
    assert p.n == 1
    assert np.allclose(p.endpoint, rot2(1.0))


def _expm_sp_path(n, rng):
    """random_sp_path's draws, each sample exponentiated directly by scipy's expm."""
    j = standard_j(n)
    mats = [np.eye(2 * n)]
    for _ in range(SP_PATH_SEGMENTS):
        s = rng.standard_normal((2 * n, 2 * n))
        gen = j @ (s + s.T) * (SP_PATH_MAGNITUDE / (2 * n))
        base = mats[-1]
        mats += [base @ expm(gen * k / SP_PATH_SAMPLES) for k in range(1, SP_PATH_SAMPLES + 1)]
    return np.stack(mats)


def test_random_sp_path_samples_are_symplectic_and_match_expm():
    for n in (1, 2):
        for seed in range(50):
            path = random_sp_path(n, np.random.default_rng(seed))
            for mat in path.matrices:
                check_symplectic(mat)
            ref = _expm_sp_path(n, np.random.default_rng(seed))
            assert path.matrices.shape == ref.shape
            assert np.max(np.abs(path.matrices - ref)) <= 1e-12 * np.max(np.abs(ref))


# ---------------------------------------------------------------- det^2

def test_det2_identity_case():
    l = coordinate_lagrangian(3)
    assert lagrangian_det2(l, l) == pytest.approx(1.0 + 0.0j)


@pytest.mark.parametrize("theta", [0.3, 1.1, 2.0, -0.8])
def test_det2_rotated_line(theta):
    # n=1: L0 = span(e1), L1 = span(cos t e1 + sin t e2) -> e^{2 i t}
    l0 = coordinate_lagrangian(1)
    l1 = LagrangianFrame(np.array([[np.cos(theta)], [np.sin(theta)]]))
    assert lagrangian_det2(l0, l1) == pytest.approx(np.exp(2j * theta), abs=1e-12)


def test_det2_frame_independence():
    rng = np.random.default_rng(2)
    for n in (1, 2, 3):
        frame = random_lagrangian(n, rng)
        basis_change = rng.standard_normal((n, n)) + np.eye(n) * n
        other = LagrangianFrame(frame.columns @ basis_change)
        ref = random_lagrangian(n, rng)
        a = lagrangian_det2(ref, frame)
        b = lagrangian_det2(ref, other)
        assert a == pytest.approx(b, abs=1e-10)


def test_det2_cocycle_identity():
    rng = np.random.default_rng(4)
    for n in (1, 2, 4):
        for _ in range(50):
            l0, l1, l2 = (random_lagrangian(n, rng) for _ in range(3))
            lhs = lagrangian_det2(l0, l2)
            rhs = lagrangian_det2(l0, l1) * lagrangian_det2(l1, l2)
            assert abs(lhs - rhs) < 1e-9


# ---------------------------------------------------------------- winding

def test_winding_constant_and_full_loop():
    assert winding(np.ones(8)).turns == 0.0
    k = np.arange(65)
    vals = np.exp(2j * np.pi * k / 64)
    w = winding(vals)
    assert w.turns == pytest.approx(1.0, abs=1e-12)
    assert w.step_count == 64
    assert w.max_step_phase < 0.5


def test_winding_guard_on_half_turn_jump():
    # I -> J0 turns e1 by a quarter turn, so det^2 by exactly half a turn: phi_lag
    # shares winding's guard
    quarter = SpPath(np.array([0.0, 1.0]), np.stack([np.eye(2), standard_j(1)]))
    for call in (lambda: winding([1.0 + 0j, -1.0 + 0j]), lambda: phi_lag(quarter)):
        with pytest.raises(RefinePathError) as err:
            call()
        assert err.value.index == 0


@given(st.lists(st.floats(-0.49, 0.49), min_size=1, max_size=40))
@settings(max_examples=50, deadline=None)
def test_winding_recovers_step_sums(steps):
    phases = np.concatenate([[0.0], np.cumsum(steps)])
    vals = np.exp(2j * np.pi * phases)
    assert winding(vals).turns == pytest.approx(sum(steps), abs=1e-7)


# ---------------------------------------------------------------- phi_lag

def test_phi_lag_constant_identity_path():
    assert phi_lag(identity_path(1)) == pytest.approx(0.0, abs=1e-12)
    assert phi_lag(identity_path(1, samples=1)) == 0.0


@pytest.mark.parametrize("theta", [0.5, np.pi / 3, 2.0, -1.3])
def test_phi_lag_rotation_is_theta_over_pi(theta):
    path = rotation_path(theta, 65)
    assert phi_lag(path) == pytest.approx(theta / np.pi, abs=1e-10)


def test_phi_lag_hyperbolic_path_fixing_l0():
    # diag(e^t, e^-t) fixes span(e1); det^2 constant
    t = np.linspace(0.0, 1.0, 33)
    mats = np.zeros((33, 2, 2))
    mats[:, 0, 0] = np.exp(t)
    mats[:, 1, 1] = np.exp(-t)
    path = SpPath(t, mats)
    assert phi_lag(path) == pytest.approx(0.0, abs=1e-9)


def test_phi_lag_double_loop_by_step_size():
    # det^2 winds twice: 8 steps of a quarter turn keep the half-turn contract and
    # read 2; 3 steps of 2/3 turn break it and alias silently, each read as -1/3
    assert phi_lag(full_rotation_loop(9)) == pytest.approx(2.0, abs=1e-8)
    assert phi_lag(full_rotation_loop(4)) == pytest.approx(-1.0, abs=1e-12)


def test_phi_lag_l0_dependence_bounded_by_2n():
    rng = np.random.default_rng(8)
    for n in (1, 2):
        for _ in range(20):
            path = random_sp_path(n, rng)
            a = phi_lag(path, random_lagrangian(n, rng))
            b = phi_lag(path, random_lagrangian(n, rng))
            assert abs(a - b) <= 2 * n + 1e-9


# ---------------------------------------------------------------- powers

def test_concat_power_shapes_and_endpoint():
    path = rotation_path(0.7, 3)
    sq = concat_power(path, 2)
    assert sq.matrices.shape[0] == 5
    assert np.allclose(sq.endpoint, rot2(1.4), atol=1e-12)
    assert concat_power(path, 1) is path


def test_concat_power_rotation_loop_winding():
    tripled = concat_power(full_rotation_loop(65), 3)
    assert np.allclose(tripled.endpoint, np.eye(2), atol=1e-12)
    assert phi_lag(tripled) == pytest.approx(6.0, abs=1e-9)


def test_phi_homog_bracket_and_loop():
    loop = full_rotation_loop(129)
    for p in (1, 4, 64):
        value, bound = phi_homog(loop, p)
        assert value == pytest.approx(2.0, abs=1e-9)
        assert bound == pytest.approx(2.0 / p)
    theta = np.pi / 3
    value, bound = phi_homog(rotation_path(theta, 65), 64)
    assert bound == pytest.approx(2.0 / 64)
    assert abs(value - theta / np.pi) <= 1e-9


def test_phi_homog_brackets_overlap_between_p_and_2p():
    rng = np.random.default_rng(21)
    for n in (1, 2):
        for _ in range(10):
            path = random_sp_path(n, rng)
            v1, b1 = phi_homog(path, 8)
            v2, b2 = phi_homog(path, 16)
            assert abs(v1 - v2) <= b1 + b2 + 1e-9


def test_phi_invariance_under_symplectic_conjugation():
    # change of compatible complex structure = conjugation of the whole path
    rng = np.random.default_rng(31)
    p = 64
    for _ in range(5):
        path = random_sp_path(1, rng)
        s = rng.standard_normal((2, 2))
        g = np.asarray(np.linalg.qr(s)[0])
        if np.linalg.det(g) < 0:
            g = g[:, ::-1].copy()
        shear = np.array([[1.0, 0.6], [0.0, 1.0]])
        c = g @ shear
        conj = SpPath(path.times, c @ path.matrices @ np.linalg.inv(c))
        va, ba = phi_homog(path, p)
        vb, bb = phi_homog(conj, p)
        assert abs(va - vb) <= ba + bb + 1e-9
    # pinned at the loop: exact agreement
    loop = full_rotation_loop(129)
    shear = np.array([[1.0, 0.9], [0.0, 1.0]])
    conj = SpPath(loop.times, shear @ loop.matrices @ np.linalg.inv(shear))
    assert phi_homog(conj, 16)[0] == pytest.approx(2.0, abs=2 * (2.0 / 16))


def test_path_compose_inverse_and_defect_identity():
    rng = np.random.default_rng(17)
    x = random_sp_path(1, rng)
    y = random_sp_path(1, rng)
    xy = path_compose(x, y)
    assert np.allclose(xy.endpoint, x.endpoint @ y.endpoint, atol=1e-10)
    inv = path_inverse(x)
    assert np.allclose(inv.endpoint, np.linalg.inv(x.endpoint), atol=1e-8)
    defect = abs(phi_lag(xy) - phi_lag(x) - phi_lag(y))
    assert defect <= 2.0 + 1e-9


# ---------------------------------------------------------------- Prop 3.1

def graph_frame(w_frame: LagrangianFrame, f_sym: np.ndarray) -> LagrangianFrame:
    """The Lagrangian graph {f(x) + Jx : x in W}; transverse to W by construction."""
    j = standard_j(w_frame.n)
    return LagrangianFrame(w_frame.columns @ f_sym + j @ w_frame.columns)


def test_transversality_bound_tan_sweep():
    # n=1 graphs (lambda + i): sweeping lambda over all of R winds < 1 turn
    w = coordinate_lagrangian(1)
    lams = np.tan(np.linspace(-0.498 * np.pi, 0.498 * np.pi, 4001))
    frames = [graph_frame(w, np.array([[lam]])) for lam in lams]
    ok, delta = transversality_winding_check(frames, w)
    assert ok
    assert delta < 1.0


def test_transversality_bound_random_graph_paths():
    rng = np.random.default_rng(12)
    for n in (1, 2):
        w = random_lagrangian(n, rng)
        for _ in range(20):
            a = rng.standard_normal((n, n))
            b = rng.standard_normal((n, n))
            a, b = a + a.T, b + b.T
            ts = np.linspace(0.0, 1.0, 201)
            frames = [graph_frame(w, a + t * b) for t in ts]
            ok, delta = transversality_winding_check(frames, w)
            assert ok
            assert delta <= n + 1e-9


def test_transversality_detects_crossing():
    w = coordinate_lagrangian(1)
    # rotating line crosses span(e1) at t = pi/2
    frames = [LagrangianFrame(np.array([[np.cos(t)], [np.sin(t)]]))
              for t in np.linspace(0.0, np.pi, 21)]
    ok, _ = transversality_winding_check(frames, w)
    assert not ok


def test_constant_path_transverse_zero_winding():
    w = coordinate_lagrangian(1)
    l = LagrangianFrame(np.array([[1.0], [1.0]]))
    ok, delta = transversality_winding_check([l, l, l], w)
    assert ok and delta == 0.0


# ---------------------------------------------------------------- JSON

def test_path_json_roundtrip():
    path = random_sp_path(2, np.random.default_rng(3))
    back = path_from_json(path_to_json(path))
    assert np.allclose(back.matrices, path.matrices)
    assert np.allclose(back.times, path.times)
    with pytest.raises(ValidationError):
        path_from_json({"n": 1})


def test_frame_json_roundtrip():
    frame = random_lagrangian(2, np.random.default_rng(6))
    back = frame_from_json(frame_to_json(frame))
    assert np.allclose(back.columns, frame.columns)
