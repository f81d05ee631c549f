"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Derived expectations come from the independent oracles in
``_oracles`` (polygon clipping, 1-d radial quadrature, closed forms);
regression pins were frozen from a verified run after cross-checking
against those oracles.
"""

import time
from collections import Counter

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from _oracles import (lambda_form_calabi, radial_calabi_oracle, radial_tau_oracle,
                      surface_integral_oracle)
from qmlab.hamflow import (BumpField, HamiltonianScenario, HyperbolicForm,
                           PolyBumpField, RadialField, TimeProfile, calabi,
                           concat_scenarios, s_restriction_value, tau_ball)
from qmlab.hypgeo import (CirclePath, DiskIsotopy, OneForm, UnitDirection,
                          angle_estimate, cal_s_estimate, circle_index,
                          concat_circle_paths, fiber_index_spread,
                          geodesic_endpoint, gg_quasimorphism_estimate,
                          hyperbolic_distance, parallel_transport_rate)
from qmlab.meshes import genus2_mesh, genus3_mesh, height_field
from qmlab.reeb import (GraphHamiltonian, build_reeb, graph_integral, prune,
                        random_morse_field, theorem2_value, trivalent_vertices)
from qmlab.symplectic import (LagrangianFrame, coordinate_lagrangian,
                              full_rotation_loop, lagrangian_det2, phi_homog,
                              random_lagrangian, random_sp_path, standard_j,
                              transversality_winding_check)


def report(num, description, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num:2d}: {description} {detail}")
    assert ok, f"criterion {num}: {description} {detail}"


# -------------------------------------------------------------- scenarios

def radial_twist_scenario():
    f = RadialField([0.8], support_radius=1.0)
    return HamiltonianScenario(field=f, ball_radius=1.2, support_radius=1.0, dt=0.01)


def theorem1_isotopies():
    form = HyperbolicForm()
    area = lambda r: 2 * r * r / (1 - r * r)
    f1 = RadialField([2.0], support_radius=0.6)
    sc1 = HamiltonianScenario(field=f1, ball_radius=0.68, support_radius=0.6,
                              dt=0.001, form=form)
    f2 = RadialField([2.2], support_radius=0.6,
                     time=TimeProfile(poly=(1.0,), sin=((0.5, 1),)))
    sc2 = HamiltonianScenario(field=f2, ball_radius=0.68, support_radius=0.6,
                              dt=0.001, form=form)
    f3 = BumpField(5.0, [0.12, 0.0], 0.34)
    sc3 = HamiltonianScenario(field=f3, ball_radius=0.58,
                              support_radius=f3.support_radius + 1e-9,
                              dt=0.001, form=form)
    return [("radial autonomous", DiskIsotopy(scenario=sc1, genus=2, disk_area=area(0.65))),
            ("time-dependent radial", DiskIsotopy(scenario=sc2, genus=2, disk_area=area(0.65))),
            ("off-center bump", DiskIsotopy(scenario=sc3, genus=2, disk_area=area(0.52)))]


# -------------------------------------------------------------- criteria

def test_01_phi_of_fundamental_loop():
    t0 = time.time()
    loop = full_rotation_loop(129)
    value, bound = phi_homog(loop, 64)
    ok = (2.0 - 2.0 / 64) <= value <= (2.0 + 2.0 / 64)
    refined, _ = phi_homog(full_rotation_loop(513), 64)
    ok = ok and abs(refined - 2.0) <= 1e-6
    report(1, "Phi(T) = 2 with the 2n/p bracket and 1e-6 refinement limit", ok,
           f"(value={value:.9f}, refined={refined:.9f}, {time.time()-t0:.2f}s)")


def test_02_bracket_overlap_p_and_2p():
    t0 = time.time()
    rng = np.random.default_rng(20)
    worst = 0.0
    for n in (1, 2):
        for _ in range(50):
            path = random_sp_path(n, rng)
            v1, b1 = phi_homog(path, 8)
            v2, b2 = phi_homog(path, 16)
            worst = max(worst, abs(v1 - v2) - (b1 + b2))
    report(2, "Prop 3.2 brackets at p and 2p overlap on 50 Sp(2) + 50 Sp(4) paths",
           worst <= 1e-9, f"(worst overlap slack={worst:.2e}, {time.time()-t0:.1f}s)")


def test_03_transversality_winding_bound():
    t0 = time.time()
    rng = np.random.default_rng(30)
    ok = True
    for k in range(100):
        n = 1 + (k % 2)
        w = random_lagrangian(n, rng)
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n))
        a, b = a + a.T, 2.0 * (b + b.T)
        j = standard_j(n)
        frames = [LagrangianFrame(w.columns @ (a + t * b) + j @ w.columns)
                  for t in np.linspace(0.0, 1.0, 160)]
        transverse, delta = transversality_winding_check(frames, w)
        ok = ok and transverse and delta <= n + 1e-12
    report(3, "Prop 3.1: 100 transverse graph paths satisfy |Delta| <= n",
           ok, f"({time.time()-t0:.1f}s)")


def test_04_det2_cocycle():
    t0 = time.time()
    rng = np.random.default_rng(40)
    worst = 0.0
    for k in range(1000):
        n = 1 + (k % 4)
        l0, l1, l2 = (random_lagrangian(n, rng) for _ in range(3))
        lhs = lagrangian_det2(l0, l2)
        rhs = lagrangian_det2(l0, l1) * lagrangian_det2(l1, l2)
        worst = max(worst, abs(lhs - rhs))
    report(4, "det^2 cocycle identity on 1000 random triples, n <= 4",
           worst < 1e-9, f"(worst error={worst:.2e}, {time.time()-t0:.1f}s)")


def test_05_reeb_invariants_random_fields():
    t0 = time.time()
    ok = True
    detail = []
    for mesh, genus in ((genus2_mesh(8), 2), (genus3_mesh(6), 3)):
        fields = [height_field(mesh)]
        rng = np.random.default_rng(50 + genus)
        fields += [random_morse_field(mesh, rng) for _ in range(20)]
        for f in fields:
            graph = build_reeb(mesh, f)
            ok = ok and graph.euler_deficiency() == 2 - 2 * genus
            core = prune(graph)
            ok = ok and core.euler_deficiency() == 2 - 2 * genus
            ok = ok and len(trivalent_vertices(core)) == 2 * genus - 2
            kinds = Counter(node.kind for node in graph.nodes.values())
            saddles = kinds.get("saddle", 0)
            extrema = kinds.get("min", 0) + kinds.get("max", 0)
            ok = ok and (saddles - extrema == 2 * genus - 2)
        detail.append(f"g={genus}: 21 fields")
    report(5, "Reeb invariants on genus-2/3 meshes with randomized Morse fields",
           ok, f"({'; '.join(detail)}, {time.time()-t0:.1f}s)")


def test_06_theorem2_formula():
    t0 = time.time()
    mesh = genus2_mesh().normalized()
    graph = build_reeb(mesh, height_field(mesh))
    const_val = theorem2_value(graph, GraphHamiltonian.constant(graph, 4.2))
    ok = abs(const_val) < 1e-12
    h1 = GraphHamiltonian.from_function(graph, lambda c: c)
    h2 = GraphHamiltonian.from_function(graph, lambda c: abs(c - 0.4))
    a, b = 1.3, -2.1
    comb = GraphHamiltonian(graph, {
        eid: [(c, a * h1.value(eid, c) + b * h2.value(eid, c))
              for c in sorted({e.f_lo, e.f_hi, 0.4, *(x for x, _ in e.breakpoints)})
              if e.f_lo <= c <= e.f_hi]
        for eid, e in graph.edges.items()})
    lin_err = abs(theorem2_value(graph, comb)
                  - (a * theorem2_value(graph, h1) + b * theorem2_value(graph, h2)))
    ok = ok and lin_err < 1e-12
    # hand oracle: clip quadrature minus the two neck-saddle values
    cs, hs = [-3.0, 0.1, 3.0], [0.2, 1.5, -0.9]
    phi = lambda c: float(np.interp(c, cs, hs))
    h3 = GraphHamiltonian(graph, {
        eid: [(c, phi(c)) for c in sorted({e.f_lo, e.f_hi,
                                           *(x for x, _ in e.breakpoints),
                                           *[q for q in cs if e.f_lo < q < e.f_hi]})]
        for eid, e in graph.edges.items()})
    oracle = (surface_integral_oracle(mesh, mesh.vertices[:, 2], cs, hs)
              - (phi(-0.5) + phi(0.5)))
    height_err = abs(theorem2_value(graph, h3) - oracle)
    ok = ok and height_err < 1e-10
    report(6, "Theorem 2: constants to machine zero, linearity 1e-12, oracle 1e-10",
           ok, f"(const={const_val:.1e}, lin={lin_err:.1e}, height={height_err:.1e}, "
               f"{time.time()-t0:.1f}s)")


def test_07_calabi_oracles():
    t0 = time.time()
    sc = radial_twist_scenario()
    oracle = radial_calabi_oracle(lambda r: sc.field.angular_velocity(r), 1.0)
    radial_err = abs(calabi(sc) - oracle)
    ok = radial_err < 1e-4
    a = HamiltonianScenario(field=BumpField(0.9, [0.45, 0.0], 0.3), ball_radius=1.2,
                            support_radius=0.7500001, dt=0.01)
    b = HamiltonianScenario(field=BumpField(-0.6, [-0.45, 0.0], 0.3), ball_radius=1.2,
                            support_radius=0.7500001, dt=0.01)
    add_err = abs(calabi(concat_scenarios(a, b)) - (calabi(a) + calabi(b)))
    ok = ok and add_err < 1e-6
    shift = PolyBumpField([[(2, 1), 0.7], [(1, 0), -0.4]], support_radius=1.19)
    prim_err = abs(lambda_form_calabi(a, shift=shift) - calabi(a))
    ok = ok and prim_err < 1e-6
    report(7, "Calabi: radial oracle 1e-4, additivity 1e-6, primitive independence 1e-6",
           ok, f"(radial={radial_err:.1e}, add={add_err:.1e}, prim={prim_err:.1e}, "
               f"{time.time()-t0:.1f}s)")


@pytest.mark.slow
def test_08_tau_radial_twist():
    t0 = time.time()
    sc = radial_twist_scenario()
    out = tau_ball(sc, p=128, n_samples=4000, seed=2026)
    oracle = radial_tau_oracle(lambda r: sc.field.angular_velocity(r), 1.0)
    allowance = 3.0 * out.std_error + out.deterministic_error
    diff = abs(out.value - oracle)
    report(8, "tau on the radial twist matches the winding oracle (p=128, 4000 pts)",
           diff <= allowance,
           f"(tau={out.value:.4f}, oracle={oracle:.4f}, diff={diff:.4f} <= {allowance:.4f}, "
           f"{time.time()-t0:.0f}s)")


@pytest.mark.slow
def test_09_theorem1_disk_case():
    t0 = time.time()
    ok = True
    details = []
    for name, iso in theorem1_isotopies():
        cal = calabi(iso.scenario)
        est = cal_s_estimate(iso, p=64, n_points=2000, seed=42)
        rel = abs(est.value - cal) / abs(cal)
        ok = ok and rel <= 0.05
        details.append(f"{name}: rel={rel:.2%}")
    report(9, "Theorem 1 (disk case): cal_s vs Calabi within 5% on three scenarios",
           ok, f"({'; '.join(details)}, {time.time()-t0:.0f}s)")


def test_10_paper_stated_bounds():
    t0 = time.time()
    form = HyperbolicForm()
    f = RadialField([1.4], support_radius=0.45)
    sc = HamiltonianScenario(field=f, ball_radius=0.57, support_radius=0.45,
                             dt=0.002, form=form)
    iso = DiskIsotopy(scenario=sc, genus=2, disk_area=2 * 0.55 ** 2 / (1 - 0.55 ** 2))
    rng = np.random.default_rng(100)
    spread_ok = True
    for _ in range(5):
        r = 0.42 * np.sqrt(rng.random())
        ang = rng.uniform(0, 2 * np.pi)
        spread_ok = spread_ok and fiber_index_spread(
            iso, (r * np.cos(ang), r * np.sin(ang)), p=4) <= 2
    # angle defect <= 8 on composed disk-supported pairs
    g_iso = iso
    f_field = BumpField(0.9, [0.08, 0.04], 0.3)
    f_sc = HamiltonianScenario(field=f_field, ball_radius=0.57,
                               support_radius=f_field.support_radius + 1e-9,
                               dt=0.002, form=form)
    f_iso = DiskIsotopy(scenario=f_sc, genus=2, disk_area=iso.disk_area)
    fg_iso = DiskIsotopy(scenario=concat_scenarios(g_iso.scenario, f_sc),
                         genus=2, disk_area=iso.disk_area)
    from qmlab.hamflow import integrate_flow
    defect_ok = True
    for _ in range(3):
        r = 0.4 * np.sqrt(rng.random())
        ang = rng.uniform(0, 2 * np.pi)
        x = (r * np.cos(ang), r * np.sin(ang))
        gx = integrate_flow(g_iso.scenario, np.array(x), 1.0)
        defect = abs(angle_estimate(fg_iso, x, p=1) - angle_estimate(g_iso, x, p=1)
                     - angle_estimate(f_iso, (gx[0], gx[1]), p=1))
        defect_ok = defect_ok and defect <= 8.0
    # n concatenation defect <= 2 on random lifted paths
    concat_ok = True
    for _ in range(50):
        da, db = rng.uniform(-3, 3, 2)
        a = CirclePath(np.linspace(0.0, da, 32))
        b = CirclePath(np.linspace(da, da + db, 32))
        concat_ok = concat_ok and abs(
            circle_index(concat_circle_paths(a, b)) - circle_index(a) - circle_index(b)) <= 2
    # Gauss-Bonnet holonomy on geodesic polygons
    gb_err = 0.0
    for _ in range(3):
        verts = [0.7 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
                 for _ in range(3)]
        if np.imag(np.conj(verts[1] - verts[0]) * (verts[2] - verts[0])) < 0:
            verts[1], verts[2] = verts[2], verts[1]
        total = 0.0
        for i in range(3):
            z0, z1 = verts[i], verts[(i + 1) % 3]
            w1 = (z1 - z0) / (1 - np.conj(z0) * z1)
            ts, ws = leggauss(256)
            ts, ws = 0.5 * (ts + 1), 0.5 * ws
            tw = ts * w1
            curve = (tw + z0) / (1 + np.conj(z0) * tw)
            dcurve = w1 * (1 - abs(z0) ** 2) / (1 + np.conj(z0) * tw) ** 2
            total += float(np.sum(ws * [parallel_transport_rate(zz, zd)
                                        for zz, zd in zip(curve, dcurve)]))
        angles = 0.0
        for i in range(3):
            at, bb, cc = verts[i], verts[(i + 1) % 3], verts[(i + 2) % 3]
            tb = (bb - at) / (1 - np.conj(at) * bb)
            tc = (cc - at) / (1 - np.conj(at) * cc)
            aa = abs(np.angle(tb / tc))
            angles += min(aa, 2 * np.pi - aa)
        gb_err = max(gb_err, abs(total + (np.pi - angles)))
    ok = spread_ok and defect_ok and concat_ok and gb_err < 1e-6
    report(10, "paper bounds: fiber spread <= 2, angle defect <= 8, n-defect <= 2, "
               "Gauss-Bonnet < 1e-6", ok,
           f"(holonomy err={gb_err:.1e}, {time.time()-t0:.0f}s)")


@pytest.mark.slow
def test_11_gambaudo_ghys_vanishing():
    t0 = time.time()
    form = HyperbolicForm()
    f = RadialField([1.3], support_radius=0.45)
    sc = HamiltonianScenario(field=f, ball_radius=0.57, support_radius=0.45,
                             dt=0.004, form=form)
    iso = DiskIsotopy(scenario=sc, genus=2, disk_area=2 * 0.55 ** 2 / (1 - 0.55 ** 2))
    eta = OneForm(a_monomials=((0, 0, 0.8), (1, 1, -0.4)),
                  b_monomials=((0, 0, -0.3), (2, 0, 0.6)))
    results = gg_quasimorphism_estimate(eta, iso, p=256, n_points=48, seed=11,
                                        checkpoints=(16, 64))
    rng = np.random.default_rng(2)
    pts = form.sample_ball(0.45, 2, 500, rng)
    a, b = eta.coefficients(pts)
    bound = float(np.max(np.hypot(a, b))) * 2 * hyperbolic_distance(0.0, 0.45 + 0j)
    uniform_ok = all(r.max_abs_u <= bound for r in results)
    final = results[-1]
    ok = uniform_ok and abs(final.value) < 1e-2
    report(11, "Gambaudo-Ghys: |u(eta, f^p)| uniformly bounded, estimate -> 0",
           ok, f"(|value|={abs(final.value):.2e} at p=256, max|u|={final.max_abs_u:.3f} "
               f"<= {bound:.3f}, {time.time()-t0:.0f}s)")


@pytest.mark.slow
def test_12_theorem3_restriction():
    t0 = time.time()
    sc = radial_twist_scenario()
    r1 = s_restriction_value(sc, s=1.0, p=64, n_samples=2000, seed=7)
    r2 = s_restriction_value(sc, s=-2.0, p=64, n_samples=2000, seed=7)
    construction_ok = (abs(r1.value - (r1.tau.value + 1.0 * r1.calabi)) < 1e-12
                       and abs(r2.value - (r2.tau.value - 2.0 * r2.calabi)) < 1e-12)
    lin_err = abs((r2.value - r1.value) - (-3.0) * r1.calabi)
    # regression pins from a verified run (tau and Calabi both oracle-checked)
    pin_1 = -2.250191445181062
    pin_m2 = -0.3652358530271749
    pins_ok = abs(r1.value - pin_1) < 1e-9 and abs(r2.value - pin_m2) < 1e-9
    ok = construction_ok and lin_err < 1e-9 and pins_ok
    report(12, "Theorem 3 restriction: tau + s*Calabi, s-linearity 1e-9, pinned values",
           ok, f"(lin={lin_err:.1e}, s=1 -> {r1.value:.9f}, s=-2 -> {r2.value:.9f}, "
               f"{time.time()-t0:.0f}s)")
