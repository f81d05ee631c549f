"""The benchmark's workloads: inputs made from a seed, operations, output checks.

Each workload is a fixed list of operations.  ``setup(name, seed, work)``
writes every input file under ``work`` and returns the operations; an
operation's ``run`` is the timed call into qmlab's public API (mostly the
in-process CLI) and its ``check`` turns the output into a verdict.

The seed picks Monte Carlo seeds, start angles and random Sp paths.
Inputs whose cost depends strongly on the draw (the Reeb fields) are
pinned, and so are the specs with no independent oracle: those are
compared with the value this benchmark recorded for them at the commit
that introduced it (``REFERENCE``), within the operation's own statistical
error allowance: they rerun at the same p and Monte Carlo seed.

``KNOWN_FAILURES`` names the operations that fail at that commit and the
error each fails with.  Any other failure, or a known one that fails with
another error, makes the run incorrect.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles
from qmlab import cli, hamflow, hypgeo, meshes, reeb, symplectic

# Values of the pinned operations at the commit that added this benchmark.
REFERENCE = {
    "tau_poly": -0.03906820729127324,
    "calabi_poly": -0.08284297872412352,
    "cal_s_bump": -0.30589381478021166,
    "cal_s_radial_t": 0.06099997578543406,
    "calabi_bump": -0.5135604754102234,
}
# Operations that fail at the commit that added this benchmark, with a piece
# of the error each raises.  They stay in their workloads so that a fix shows.
KNOWN_FAILURES = {
    # every FlowMap.evolve with dim >= 4: numpy 2 np.linalg.solve no longer
    # treats an (N, 4) right-hand side as a stack of vectors
    "tau_4d": "solve: Input operand 1 has a mismatch in its core dimension",
    # phi_homog at p >= 32 on a hyperbolic Sp(4) path: M^p R^n collapses to rank one
    "phi_sp4_hyperbolic": "degenerate frame encountered in det^2",
}
CALABI_TOL = 1e-4          # calabi against its radial oracle
CALABI_REF_TOL = 1e-6      # calabi against its pinned value (QuadratureRule accuracy)
BIRKHOFF_TOL = 1e-9        # |x|^2 is an exact invariant of a radial flow under the midpoint rule
THEOREM2_TOL = 1e-9        # theorem-2 value of a constant graph Hamiltonian


@dataclass
class Verdict:
    ok: bool
    detail: str
    # |value - oracle| / allowance, only for checks against an oracle or a
    # pinned reference (not for bound or consistency checks)
    ratio: float | None = None


@dataclass
class Op:
    """One timed operation. ``kind`` tags flow and Reeb operations for throughputs."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], Verdict]
    kind: str = ""
    cli_out: Path | None = None


class CliFailure(RuntimeError):
    """The CLI returned a non-zero exit code."""


def _write_json(path: Path, data) -> Path:
    path.write_text(json.dumps(data))
    return path


def _cli_op(work: Path, name: str, kind: str, spec: dict,
            check: Callable[[dict], Verdict], op_kind: str = "",
            prepare: Callable[[], None] | None = None) -> Op:
    """An operation that runs ``qmlab <kind> --spec ...`` in process."""
    spec_path = _write_json(work / f"{name}.spec.json", spec)
    out = work / "out" / name
    argv = [kind, "--spec", str(spec_path), "--out", str(out)]

    def run():
        if prepare is not None:
            prepare()
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = cli.main(argv)
        if code != 0:
            raise CliFailure(f"qmlab {kind} exited {code}: {err.getvalue().strip()}")
        return json.loads((out / f"{kind}_result.json").read_text())["result"]

    return Op(name, run, check, op_kind, out)


def _within(value: float, ref: float, allowance: float, what: str) -> Verdict:
    err = abs(value - ref)
    ratio = err / allowance
    return Verdict(ratio <= 1.0, f"{what}: value={value:.12g} ref={ref:.12g} "
                                 f"err={err:.3e} allowance={allowance:.3e}", ratio)


def _pinned(name: str, value: float, allowance: float) -> Verdict:
    return _within(value, REFERENCE[name], allowance, name)


def _stat_allowance(result: dict) -> float:
    """3 sigma plus the estimator's deterministic (2n/p) allowance, for a check against an oracle."""
    det = result["error"]["deterministic"] or 0.0
    return 3.0 * result["error"]["statistical"] + det


def _pinned_allowance(result: dict) -> float:
    """3 sigma: a pinned operation reruns at the same p and seed as its reference."""
    return 3.0 * result["error"]["statistical"]


def _polar(r: float, angle: float) -> np.ndarray:
    return np.array([r * math.cos(angle), r * math.sin(angle)])


# --------------------------------------------------------------------------
# tau_batch: the standard form with tangent transport on large batches
# --------------------------------------------------------------------------

TAU_DT = 0.01
TWIST_P, TWIST_N = 8, 1000  # p = 8 keeps the 2n/p term of the oracle check below half of |tau|
POLY_P, POLY_N = 2, 2000    # the PolyBumpField step costs twice the twist's; both near 1 s
TWIST_C, TWIST_SUPPORT = 0.8, 1.0
POLY_MONOMIALS = [[[2, 1], 0.7], [[1, 0], -0.4], [[0, 2], 0.5]]
POLY_SEED = 20260


def _tau_batch(seed: int, work: Path) -> list[Op]:
    rng = np.random.default_rng(seed)
    twist = hamflow.HamiltonianScenario(
        field=hamflow.RadialField([TWIST_C], support_radius=TWIST_SUPPORT),
        ball_radius=1.2, support_radius=TWIST_SUPPORT, dt=TAU_DT)
    poly = hamflow.HamiltonianScenario(
        field=hamflow.PolyBumpField(POLY_MONOMIALS, support_radius=1.0),
        ball_radius=1.2, support_radius=1.0, dt=TAU_DT)
    twist4 = hamflow.HamiltonianScenario(
        field=hamflow.RadialField([TWIST_C], support_radius=TWIST_SUPPORT, dim=4),
        ball_radius=1.2, support_radius=TWIST_SUPPORT, dt=TAU_DT)
    for fname, sc in (("twist", twist), ("poly", poly), ("twist4", twist4)):
        _write_json(work / f"{fname}.scenario.json", hamflow.scenario_to_json(sc))

    omega = oracles.omega_standard(TWIST_C, TWIST_SUPPORT)
    tau_oracle = oracles.radial_tau_oracle(omega, TWIST_SUPPORT)
    tau4_oracle = oracles.tau_radial_4d(TWIST_C, TWIST_SUPPORT)
    cal_oracle = oracles.radial_calabi_oracle(omega, TWIST_SUPPORT)
    ops = []
    ops.append(_cli_op(
        work, "tau_twist", "tau",
        {"scenario_file": "twist.scenario.json", "p": TWIST_P, "n_samples": TWIST_N,
         "seed": int(rng.integers(2 ** 31))},
        lambda r: _within(r["value"], tau_oracle, _stat_allowance(r), "tau twist"), "flow"))
    ops.append(_cli_op(
        work, "tau_poly", "tau",
        {"scenario_file": "poly.scenario.json", "p": POLY_P, "n_samples": POLY_N,
         "seed": POLY_SEED},
        lambda r: _pinned("tau_poly", r["value"], _pinned_allowance(r)), "flow"))
    ops.append(_cli_op(
        work, "calabi_twist", "calabi", {"scenario_file": "twist.scenario.json"},
        lambda r: _within(r["value"], cal_oracle, CALABI_TOL, "calabi twist")))
    ops.append(_cli_op(
        work, "calabi_poly", "calabi", {"scenario_file": "poly.scenario.json"},
        lambda r: _pinned("calabi_poly", r["value"], CALABI_REF_TOL)))
    # 4-d flows: small on purpose, so the operation costs little once it works.
    ops.append(_cli_op(
        work, "tau_4d", "tau",
        {"scenario_file": "twist4.scenario.json", "p": 1, "n_samples": 64,
         "seed": int(rng.integers(2 ** 31))},
        lambda r: _within(r["value"], tau4_oracle, _stat_allowance(r), "tau 4-d twist"), "flow"))
    return ops


# --------------------------------------------------------------------------
# cal_s_batch: the hyperbolic density form, boundary lift, no tangents
# --------------------------------------------------------------------------

CAL_S_P, CAL_S_N, CAL_S_DT, CAL_S_SEED = 1, 1000, 0.002, 42
RADIAL_T_C, RADIAL_T_SUPPORT = 2.2, 0.6


def _disk_area(r: float) -> float:
    return 2.0 * r * r / (1.0 - r * r)


def _cal_s_batch(seed: int, work: Path) -> list[Op]:
    form = hamflow.HyperbolicForm()
    radial_t = hamflow.HamiltonianScenario(
        field=hamflow.RadialField([RADIAL_T_C], support_radius=RADIAL_T_SUPPORT,
                                  time=hamflow.TimeProfile(poly=(1.0,), sin=((0.5, 1),))),
        ball_radius=0.68, support_radius=RADIAL_T_SUPPORT, dt=CAL_S_DT, form=form)
    bump_field = hamflow.BumpField(5.0, [0.12, 0.0], 0.34)
    bump = hamflow.HamiltonianScenario(
        field=bump_field, ball_radius=0.58, support_radius=bump_field.support_radius + 1e-9,
        dt=CAL_S_DT, form=form)
    isos = {"radial_t": hypgeo.DiskIsotopy(scenario=radial_t, genus=2, disk_area=_disk_area(0.65)),
            "bump": hypgeo.DiskIsotopy(scenario=bump, genus=2, disk_area=_disk_area(0.52))}
    for fname, iso in isos.items():
        _write_json(work / f"{fname}.isotopy.json", hypgeo.isotopy_to_json(iso))
        _write_json(work / f"{fname}.scenario.json", hamflow.scenario_to_json(iso.scenario))

    # Calabi is linear in a(t) = 1 + sin(2 pi t)/2, whose time mean is 1
    cal_oracle = oracles.radial_calabi_oracle(
        oracles.omega_hyperbolic(RADIAL_T_C, RADIAL_T_SUPPORT), RADIAL_T_SUPPORT,
        density=oracles.HYPERBOLIC_DENSITY)
    ops = []
    for fname in ("bump", "radial_t"):
        name = f"cal_s_{fname}"
        ops.append(_cli_op(
            work, name, "cal_s",
            {"isotopy_file": f"{fname}.isotopy.json", "p": CAL_S_P, "n_points": CAL_S_N,
             "fiber_samples": 8, "seed": CAL_S_SEED},
            lambda r, name=name: _pinned(name, r["value"], _pinned_allowance(r)),
            "flow"))
    ops.append(_cli_op(
        work, "calabi_bump", "calabi", {"scenario_file": "bump.scenario.json"},
        lambda r: _pinned("calabi_bump", r["value"], CALABI_REF_TOL)))
    ops.append(_cli_op(
        work, "calabi_radial_t", "calabi", {"scenario_file": "radial_t.scenario.json"},
        lambda r: _within(r["value"], cal_oracle, CALABI_TOL, "calabi radial_t")))
    return ops


# --------------------------------------------------------------------------
# orbit_single: the same integrator, one trajectory at a time
# --------------------------------------------------------------------------

BIRKHOFF_ITERS, ORBIT_R = 20, 0.5
JAC_P, JAC_Q = 4, 8
HYP_C, HYP_SUPPORT, HYP_DT, HYP_GENUS = 1.3, 0.45, 0.004, 2
ANGLE_P, ANGLE_R = 4, 0.3
GG_P, GG_N = 8, 48
GG_ETA = {"kind": "poly", "a": [[0, 0, 0.8], [1, 1, -0.4]], "b": [[0, 0, -0.3], [2, 0, 0.6]]}


def _orbit_single(seed: int, work: Path) -> list[Op]:
    rng = np.random.default_rng(seed)
    # Radii are pinned and only angles come from the seed: the flows are
    # rotation invariant, so the work per run does not depend on the seed.
    a_birk, a_jac, a_angle = rng.uniform(0.0, 2.0 * math.pi, 3)
    twist = hamflow.HamiltonianScenario(
        field=hamflow.RadialField([TWIST_C], support_radius=TWIST_SUPPORT),
        ball_radius=1.2, support_radius=TWIST_SUPPORT, dt=TAU_DT)
    hyp = hamflow.HamiltonianScenario(
        field=hamflow.RadialField([HYP_C], support_radius=HYP_SUPPORT),
        ball_radius=0.57, support_radius=HYP_SUPPORT, dt=HYP_DT, form=hamflow.HyperbolicForm())
    iso = hypgeo.DiskIsotopy(scenario=hyp, genus=HYP_GENUS, disk_area=_disk_area(0.55))
    _write_json(work / "hyp.isotopy.json", hypgeo.isotopy_to_json(iso))

    x_birk = _polar(ORBIT_R, a_birk)
    x_jac = _polar(ORBIT_R, a_jac)
    x_angle = _polar(ANGLE_R, a_angle)
    jac_rate = oracles.winding_rate_2d(TWIST_C, TWIST_SUPPORT, ORBIT_R)
    angle_rate = oracles.angle_rate(HYP_C, HYP_SUPPORT, HYP_GENUS, ANGLE_R)
    u_bound = oracles.gg_u_bound(GG_ETA["a"], GG_ETA["b"], HYP_SUPPORT)

    def check_birkhoff(out):
        return _within(out.value, ORBIT_R ** 2, BIRKHOFF_TOL, "birkhoff |x|^2")

    def check_jacobian(out):
        value, bound = out
        # |Phi - phi_homog| <= bound, |Phi - phi_lag| <= 2n and the shear
        # moves the det^2 winding by under half a turn: per period, divide by p.
        allowance = (bound + 2.0 + 0.5) / JAC_P
        return _within(value / JAC_P, jac_rate, allowance, "jacobian winding rate")

    def check_angle(out):
        return _within(out / ANGLE_P, angle_rate, 3.0 / ANGLE_P, "angle rate")

    def check_gg(r):
        return Verdict(r["max_abs_u"] <= u_bound, f"gg: max|u|={r['max_abs_u']:.6g} "
                                                  f"bound={u_bound:.6g} value={r['value']:.6g}")

    ops = []
    ops.append(Op("birkhoff", lambda: hamflow.birkhoff_average(
        twist, lambda x: float(x @ x), x_birk, BIRKHOFF_ITERS), check_birkhoff, "flow"))
    ops.append(Op("jacobian_phi", lambda: symplectic.phi_homog(
        hamflow.jacobian_path(twist, x_jac, JAC_P), JAC_Q), check_jacobian, "flow"))
    ops.append(Op("angle", lambda: hypgeo.angle_estimate(iso, x_angle, ANGLE_P, 8),
                    check_angle, "flow"))
    ops.append(_cli_op(
        work, "gg", "gg",
        {"isotopy_file": "hyp.isotopy.json", "eta": GG_ETA, "p": GG_P, "n_points": GG_N,
         "seed": int(rng.integers(2 ** 31))}, check_gg, "flow"))
    return ops


# --------------------------------------------------------------------------
# reeb_phi: Reeb graphs, the winding quasi-morphism and the harness; no flow
# --------------------------------------------------------------------------

REEB_GENUS, REEB_M = 12, 48
# Pinned, not taken from the run's seed: the cost of a Reeb sweep depends on
# the field (its critical points, and how often the draw is redrawn until it
# is PL-Morse), and the seed must not move wall_s.
REEB_FIELD_SEEDS = (1, 2)
PHI_P, PHI_SCHEDULE = 16, [1, 4, 16]
# phi_homog at p >= 32 fails ("degenerate frame encountered in det^2") on
# about half of random Sp(4) paths: the frame M^p R^n of a hyperbolic
# endpoint M collapses to rank one in floating point.  The seeded paths run
# at p = 16, where none of 400 seeds fails; this pinned hyperbolic path keeps
# the failure in the workload until phi is fixed.
HYPERBOLIC_PATH_SEED, HYPERBOLIC_P, HYPERBOLIC_SCHEDULE = 1, 64, [1, 8, 64]


def _morse_csv(f: reeb.MorseField) -> str:
    return "vertex_id,value\n" + "".join(f"{i},{float(v)!r}\n" for i, v in enumerate(f.values))


def _reeb_phi(seed: int, work: Path) -> list[Op]:
    rng = np.random.default_rng(seed)
    mesh = meshes.genus_chain_mesh(REEB_GENUS, REEB_M)
    (work / "chain.off").write_text(reeb.write_off(mesh))
    (work / "height.csv").write_text(_morse_csv(meshes.height_field(mesh)))
    paths = {"loop": symplectic.full_rotation_loop(129),
             "sp2": symplectic.random_sp_path(1, rng),
             "sp4": symplectic.random_sp_path(2, rng),
             "sp4_hyperbolic": symplectic.random_sp_path(
                 2, np.random.default_rng(HYPERBOLIC_PATH_SEED))}
    for name, path in paths.items():
        _write_json(work / f"{name}.path.json", symplectic.path_to_json(path))
    defect_seed = int(rng.integers(2 ** 31))

    g = REEB_GENUS

    def check_reeb(r):
        t2 = r["theorem2_value"]
        ok = (r["genus"] == g and r["euler_deficiency"] == 2 - 2 * g
              and len(r["trivalent"]) == 2 * g - 2)
        return Verdict(ok and abs(t2) <= THEOREM2_TOL,
                       f"reeb: genus={r['genus']} chi_def={r['euler_deficiency']} "
                       f"trivalent={len(r['trivalent'])} theorem2={t2!r}")

    def check_loop(r):
        return _within(r["value"], 2.0, r["error_bound"], "phi fundamental loop")

    def check_brackets(r):
        # Prop 3.2: brackets of radius 2n/p at every scheduled power overlap.
        n = r["n"]
        samples = r["samples"]
        ratio = max(abs(v1 - v2) / (2.0 * n / p1 + 2.0 * n / p2)
                    for (p1, v1), (p2, v2) in zip(samples, samples[1:]))
        same = samples[-1][1] == r["value"]
        return Verdict(ratio <= 1.0 and same,
                       f"phi n={n}: samples={samples} overlap ratio={ratio:.3g}")

    def check_defect(r):
        return Verdict(r["max_observed"] <= r["theoretical_bound"],
                       f"defect: {r['max_observed']:.6g} <= {r['theoretical_bound']}")

    reeb_spec = {"mesh_file": "chain.off", "normalize": True, "constant": 1.0}
    ops = []
    ops.append(_cli_op(work, "reeb_height", "reeb", dict(reeb_spec, morse_file="height.csv"),
                         check_reeb, "reeb"))
    for k, fseed in enumerate(REEB_FIELD_SEEDS):
        csv_path = work / f"random{k}.csv"

        def draw(csv_path=csv_path, fseed=fseed):
            f = reeb.random_morse_field(mesh, np.random.default_rng(fseed))
            csv_path.write_text(_morse_csv(f))

        ops.append(_cli_op(work, f"reeb_random{k}", "reeb",
                             dict(reeb_spec, morse_file=csv_path.name), check_reeb, "reeb",
                             prepare=draw))
    ops.append(_cli_op(work, "phi_loop", "phi",
                         {"path_file": "loop.path.json", "p": PHI_P}, check_loop))
    for name, p, schedule in (("sp2", PHI_P, PHI_SCHEDULE), ("sp4", PHI_P, PHI_SCHEDULE),
                              ("sp4_hyperbolic", HYPERBOLIC_P, HYPERBOLIC_SCHEDULE)):
        ops.append(_cli_op(work, f"phi_{name}", "phi",
                             {"path_file": f"{name}.path.json", "p": p,
                              "p_schedule": schedule}, check_brackets))
    ops.append(_cli_op(work, "defect", "defect",
                         {"evaluator": "phi_sp", "n": 2, "n_pairs": 50, "seed": defect_seed},
                         check_defect))
    return ops


WORKLOADS = {"tau_batch": _tau_batch, "cal_s_batch": _cal_s_batch,
             "orbit_single": _orbit_single, "reeb_phi": _reeb_phi}


def setup(name: str, seed: int, work: Path) -> list[Op]:
    """Generate the workload's inputs under ``work`` and return its operations."""
    (work / "out").mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](seed, work)
