"""CLI tests: spec parsing, dispatch, exit codes, reproducibility."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qmlab
from qmlab import cli
from qmlab.hamflow import (RadialField, HamiltonianScenario, HyperbolicForm,
                           StandardForm, scenario_to_json)
from qmlab.hypgeo import DiskIsotopy, isotopy_to_json
from qmlab.meshes import genus2_mesh, height_field
from qmlab.reeb import (GraphHamiltonian, build_reeb, random_morse_field, read_morse_csv,
                        read_off, theorem2_value, write_off)
from qmlab.symplectic import SpPath, full_rotation_loop, path_to_json


def write_json(path, data):
    path.write_text(json.dumps(data))
    return path


@pytest.fixture()
def radial_scenario_file(tmp_path):
    f = RadialField([0.6], support_radius=1.0)
    sc = HamiltonianScenario(field=f, ball_radius=1.2, support_radius=1.0, dt=0.02)
    return write_json(tmp_path / "scenario.json", scenario_to_json(sc))


def test_phi_on_rotation_loop(tmp_path):
    path_file = write_json(tmp_path / "loop.json", path_to_json(full_rotation_loop()))
    spec = write_json(tmp_path / "spec.json",
                      {"path_file": "loop.json", "p": 16, "p_schedule": [1, 4, 16]})
    code = cli.main(["phi", "--spec", str(spec), "--out", str(tmp_path / "out")])
    assert code == 0
    record = json.loads((tmp_path / "out" / "phi_result.json").read_text())
    assert record["result"]["value"] == pytest.approx(2.0, abs=1e-9)
    assert record["result"]["error_bound"] == pytest.approx(2.0 / 16)
    csv_text = (tmp_path / "out" / "phi_samples.csv").read_text()
    assert csv_text.splitlines()[0] == "p,phi_over_p"
    assert len(csv_text.splitlines()) == 4


def test_reeb_kind_constant_hamiltonian(tmp_path):
    mesh = genus2_mesh(5)
    off = tmp_path / "mesh.off"
    off.write_text(write_off(mesh))
    rows = "vertex_id,value\n" + "\n".join(
        f"{i},{v}" for i, v in enumerate(height_field(mesh).values))
    (tmp_path / "morse.csv").write_text(rows)
    spec = write_json(tmp_path / "spec.json",
                      {"mesh_file": "mesh.off", "morse_file": "morse.csv",
                       "normalize": True, "constant": 2.0})
    code = cli.main(["reeb", "--spec", str(spec), "--out", str(tmp_path / "out")])
    assert code == 0
    record = json.loads((tmp_path / "out" / "reeb_result.json").read_text())
    assert record["result"]["genus"] == 2
    assert record["result"]["euler_deficiency"] == -2
    assert abs(record["result"]["theorem2_value"]) < 1e-10
    graph = json.loads((tmp_path / "out" / "reeb_graph.json").read_text())
    assert len(graph["nodes"]) == 6


def test_reeb_kind_reproducible(tmp_path):
    mesh = genus2_mesh(6)
    (tmp_path / "mesh.off").write_text(write_off(mesh))
    f = random_morse_field(mesh, np.random.default_rng(5))
    (tmp_path / "morse.csv").write_text(
        "vertex_id,value\n" + "".join(f"{i},{v!r}\n" for i, v in enumerate(f.values.tolist())))
    spec = write_json(tmp_path / "spec.json",
                      {"mesh_file": "mesh.off", "morse_file": "morse.csv",
                       "normalize": True, "constant": 1.5})
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert cli.main(["reeb", "--spec", str(spec), "--out", str(out1)]) == 0
    assert cli.main(["reeb", "--spec", str(spec), "--out", str(out2)]) == 0
    for name in ("reeb_graph.json", "reeb_result.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_reeb_kind_hamiltonian_file(tmp_path):
    mesh = genus2_mesh(5)
    (tmp_path / "mesh.off").write_text(write_off(mesh))
    (tmp_path / "morse.csv").write_text("vertex_id,value\n" + "".join(
        f"{i},{v!r}\n" for i, v in enumerate(height_field(mesh).values.tolist())))
    # the graph the reeb kind builds: mesh and field read back from the files, normalized
    mesh = read_off((tmp_path / "mesh.off").read_text()).normalized()
    graph = build_reeb(mesh, read_morse_csv((tmp_path / "morse.csv").read_text(),
                                            mesh.n_vertices))
    h = GraphHamiltonian.from_function(graph, lambda c: c * c - 0.3 * c)
    write_json(tmp_path / "ham.json", h.to_json())
    spec = write_json(tmp_path / "spec.json", dict(_REEB_SPEC, hamiltonian_file="ham.json"))
    assert cli.main(["reeb", "--spec", str(spec), "--out", str(tmp_path / "out")]) == 0
    record = json.loads((tmp_path / "out" / "reeb_result.json").read_text())["result"]
    expected = theorem2_value(graph, h)
    assert expected != 0.0 and record["theorem2_value"] == expected
    assert len(record["trivalent"]) == 2


def test_python_m_qmlab_help():
    src_dir = str(Path(qmlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src_dir] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-m", "qmlab", "--help"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: qmlab")
    assert "reeb" in proc.stdout


def test_calabi_kind(tmp_path, radial_scenario_file):
    spec = write_json(tmp_path / "spec.json", {"scenario_file": "scenario.json"})
    code = cli.main(["calabi", "--spec", str(spec), "--out", str(tmp_path / "out")])
    assert code == 0
    record = json.loads((tmp_path / "out" / "calabi_result.json").read_text())
    assert record["result"]["value"] == pytest.approx(-0.6 * np.pi / 4, abs=1e-4)
    assert record["result"]["quadrature"] == {"radius": 1.0, "n_r": 192, "n_angle": 256}
    f4 = RadialField([0.6], support_radius=1.0, dim=4)
    sc4 = HamiltonianScenario(field=f4, ball_radius=1.2, support_radius=1.0, dt=0.02)
    write_json(tmp_path / "scenario4.json", scenario_to_json(sc4))
    spec = write_json(tmp_path / "spec4.json", {"scenario_file": "scenario4.json",
                                                "quadrature": {"n_axis": 8, "radius": 1.1}})
    assert cli.main(["calabi", "--spec", str(spec), "--out", str(tmp_path / "out4")]) == 0
    record = json.loads((tmp_path / "out4" / "calabi_result.json").read_text())
    assert record["result"]["quadrature"] == {"radius": 1.1, "n_axis": 8}


def test_tau_kind_reproducible(tmp_path, radial_scenario_file):
    spec = write_json(tmp_path / "spec.json",
                      {"scenario_file": "scenario.json", "p": 4, "n_samples": 32,
                       "seed": 9})
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert cli.main(["tau", "--spec", str(spec), "--out", str(out1)]) == 0
    assert cli.main(["tau", "--spec", str(spec), "--out", str(out2)]) == 0
    assert (out1 / "tau_result.json").read_bytes() == (out2 / "tau_result.json").read_bytes()


def test_cal_s_kind(tmp_path):
    f = RadialField([0.8], support_radius=0.4)
    sc = HamiltonianScenario(field=f, ball_radius=0.55, support_radius=0.4,
                             dt=0.01, form=HyperbolicForm())
    iso = DiskIsotopy(scenario=sc, genus=2, disk_area=2 * 0.25 / 0.75)
    write_json(tmp_path / "iso.json", isotopy_to_json(iso))
    spec = write_json(tmp_path / "spec.json",
                      {"isotopy_file": "iso.json", "p": 4, "n_points": 40, "seed": 3})
    code = cli.main(["cal_s", "--spec", str(spec), "--out", str(tmp_path / "out")])
    assert code == 0
    record = json.loads((tmp_path / "out" / "cal_s_result.json").read_text())
    assert np.isfinite(record["result"]["value"])
    assert record["seed"] == 3


def test_cal_s_ignores_fiber_samples(tmp_path):
    """The fiber infimum is exact: a spec's ``fiber_samples`` is an unread key, never an error."""
    f = RadialField([0.8], support_radius=0.4)
    sc = HamiltonianScenario(field=f, ball_radius=0.55, support_radius=0.4,
                             dt=0.01, form=HyperbolicForm())
    write_json(tmp_path / "iso.json",
               isotopy_to_json(DiskIsotopy(scenario=sc, genus=2, disk_area=2 * 0.25 / 0.75)))
    spec = write_json(tmp_path / "spec.json", {"isotopy_file": "iso.json", "p": 1, "n_points": 8,
                                               "fiber_samples": 8, "seed": 1})
    assert cli.main(["cal_s", "--spec", str(spec), "--out", str(tmp_path / "out")]) == 0
    record = json.loads((tmp_path / "out" / "cal_s_result.json").read_text())
    assert "fiber_samples" not in record["result"]


def test_cal_s_rejects_low_genus(tmp_path):
    f = RadialField([0.5], support_radius=0.4)
    sc = HamiltonianScenario(field=f, ball_radius=0.55, support_radius=0.4,
                             dt=0.01, form=HyperbolicForm())
    iso_json = {"scenario": scenario_to_json(sc), "genus": 1, "disk_area": 0.6}
    write_json(tmp_path / "iso.json", iso_json)
    spec = write_json(tmp_path / "spec.json",
                      {"isotopy_file": "iso.json", "p": 2, "n_points": 8, "seed": 1})
    assert cli.main(["cal_s", "--spec", str(spec), "--out", str(tmp_path)]) == 2


def test_defect_kind(tmp_path):
    spec = write_json(tmp_path / "spec.json",
                      {"evaluator": "phi_sp", "n": 1, "n_pairs": 25, "seed": 4})
    code = cli.main(["defect", "--spec", str(spec), "--out", str(tmp_path / "out")])
    assert code == 0
    record = json.loads((tmp_path / "out" / "defect_result.json").read_text())
    assert record["result"]["max_observed"] <= record["result"]["theoretical_bound"] + 1e-9


def test_gg_kind(tmp_path):
    f = RadialField([0.9], support_radius=0.4)
    sc = HamiltonianScenario(field=f, ball_radius=0.55, support_radius=0.4,
                             dt=0.01, form=HyperbolicForm())
    iso = DiskIsotopy(scenario=sc, genus=2, disk_area=2 * 0.25 / 0.75)
    write_json(tmp_path / "iso.json", isotopy_to_json(iso))
    spec = write_json(tmp_path / "spec.json",
                      {"isotopy_file": "iso.json", "p": 16, "n_points": 12,
                       "eta": {"kind": "poly", "a": [[0, 0, 1.0]], "b": []},
                       "seed": 6})
    code = cli.main(["gg", "--spec", str(spec), "--out", str(tmp_path / "out")])
    assert code == 0
    record = json.loads((tmp_path / "out" / "gg_result.json").read_text())
    assert abs(record["result"]["value"]) < 0.5


def test_missing_seed_for_stochastic_kind(tmp_path, radial_scenario_file):
    spec = write_json(tmp_path / "spec.json",
                      {"scenario_file": "scenario.json", "p": 2, "n_samples": 8})
    assert cli.main(["tau", "--spec", str(spec), "--out", str(tmp_path)]) == 2


def test_malformed_spec_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["phi", "--spec", str(bad), "--out", str(tmp_path)]) == 2
    missing = tmp_path / "missing.json"
    assert cli.main(["phi", "--spec", str(missing), "--out", str(tmp_path)]) == 2
    empty = write_json(tmp_path / "empty.json", {})
    assert cli.main(["phi", "--spec", str(empty), "--out", str(tmp_path)]) == 2


@pytest.fixture()
def malformed_inputs(tmp_path, radial_scenario_file):
    """Scenarios and isotopies with one malformed value each, and a valid loop.

    Scenarios: "dt": "fast"; in H, "bump_power": 3.5, "dim": 2.5, a bump
    with "amplitude": "x", or a "time" that is not an object, has a cos pair
    without its frequency, a non-numeric coefficient or a fractional
    frequency.  Isotopies: "genus": "two" and "genus": 2.9, and a valid one
    (iso.json) for malformed cal_s and gg specs.  Sp paths loop_<name>.json
    carry a NaN matrix entry or time, a short matrix row, a fractional n or
    n = 0, and frames frame_<name>.json a fractional n, too few columns, a
    NaN or n = 0.  Scenarios field_<name>.json carry a field parameter that
    the field cannot use: a zero or negative radius, a bump radius whose
    square underflows to 0 under a conjugation, a negative monomial
    exponent, a conjugating g of the wrong shape or not symplectic, or a
    "dim" that is not its H's.  Scenarios nonfinite_<name>.json
    carry one NaN or infinite number ("nan" and "inf" strings parse as
    floats), and a mesh with a Morse function serves a reeb spec.  Scenarios
    form_<name>.json carry a "form" that is not an object, scenario_list.json
    is a list, and iso_scenario_number.json has "scenario": 5.  Graph
    Hamiltonians ham_<name>.json on the mesh's graph carry a NaN breakpoint,
    a fractional edge id or one edge twice.  The mesh mesh_nan.off has one
    NaN coordinate, mesh_negative.off a negative vertex count, and the Morse
    function morse_repeated.csv lists vertex 0 twice.
    """
    radial = json.loads(radial_scenario_file.read_text())
    write_json(tmp_path / "bad_dt.json", dict(radial, dt="fast"))
    for name, edit in (("bump_power", {"bump_power": 3.5}), ("dim", {"dim": 2.5}),
                       ("amplitude", {"kind": "bump", "amplitude": "x", "center": [0.1, 0.0],
                                      "radius": 0.5}),
                       ("time", {"time": "always"}), ("time_pair", {"time": {"cos": [[0.3]]}}),
                       ("time_coefficient", {"time": {"poly": [1.0, "x"]}}),
                       ("time_k", {"time": {"sin": [[0.5, 1.5]]}})):
        write_json(tmp_path / f"bad_{name}.json", dict(radial, H=dict(radial["H"], **edit)))
    sc = HamiltonianScenario(field=RadialField([0.5], support_radius=0.4), ball_radius=0.55,
                             support_radius=0.4, dt=0.01, form=HyperbolicForm())
    for name, genus in (("bad_genus", "two"), ("fractional_genus", 2.9), ("iso", 2)):
        write_json(tmp_path / f"{name}.json",
                   {"scenario": scenario_to_json(sc), "genus": genus, "disk_area": 0.6})
    loop = path_to_json(full_rotation_loop())
    write_json(tmp_path / "loop.json", loop)
    mid = len(loop["times"]) // 2
    for name, row in (("matrix_nan", [float("nan")] + loop["matrices"][mid][1:]),
                      ("row_short", loop["matrices"][mid][:-1])):
        mats = list(loop["matrices"])
        mats[mid] = row
        write_json(tmp_path / f"loop_{name}.json", dict(loop, matrices=mats))
    times = list(loop["times"])
    times[mid] = float("nan")
    write_json(tmp_path / "loop_time_nan.json", dict(loop, times=times))
    write_json(tmp_path / "loop_n_fractional.json", dict(loop, n=1.5))
    write_json(tmp_path / "loop_n_zero.json", {"n": 0, "times": [0, 1], "matrices": [[], []]})
    for name, frame in (("n_fractional", {"n": 1.5, "columns": [1.0, 0.0]}),
                        ("columns_short", {"n": 1, "columns": [1.0]}),
                        ("nan", {"n": 1, "columns": [1.0, float("nan")]}),
                        ("n_zero", {"n": 0, "columns": []})):
        write_json(tmp_path / f"frame_{name}.json", frame)
    bump = {"kind": "bump", "amplitude": 0.5, "center": [0.1, 0.0], "radius": 0.5}
    poly = {"kind": "poly", "monomials": [[[1, 1], 0.5]]}
    for name, h in (("radial_support_zero", dict(radial["H"], support_radius=0.0)),
                    ("poly_support_zero", dict(poly, support_radius=0.0)),
                    ("bump_radius_zero", dict(bump, radius=0.0)),
                    ("conjugated_radius_underflow", {"kind": "conjugated", "g": np.eye(2).tolist(),
                                                     "base": dict(bump, radius=1e-301)}),
                    ("radial_support_negative", dict(radial["H"], support_radius=-1.0)),
                    ("bump_radius_negative", dict(bump, radius=-0.5)),
                    ("poly_exponent_negative", dict(poly, monomials=[[[-1, 1], 0.5]])),
                    ("g_shape", {"kind": "conjugated", "g": np.eye(4).tolist(), "base": bump}),
                    ("g_not_symplectic", {"kind": "conjugated", "g": (2.0 * np.eye(2)).tolist(),
                                          "base": dict(bump, radius=0.3)})):
        write_json(tmp_path / f"field_{name}.json", dict(radial, H=h))
    write_json(tmp_path / "field_dim_mismatch.json", dict(radial, dim=4))
    for name, h in (("profile", dict(radial["H"], profile=["nan"])),
                    ("support_radius", dict(radial["H"], support_radius="nan")),
                    ("time", dict(radial["H"], time={"poly": [float("inf")]})),
                    ("amplitude", dict(bump, amplitude="inf")),
                    ("center", dict(bump, center=[0.1, "nan"])),
                    ("radius", dict(bump, radius="nan")),
                    ("monomial", dict(poly, monomials=[[[1, 1], "nan"]])),
                    ("g", {"kind": "conjugated", "g": [[1.0, "nan"], [0.0, 1.0]], "base": bump})):
        write_json(tmp_path / f"nonfinite_{name}.json", dict(radial, H=h))
    write_json(tmp_path / "nonfinite_ball_radius.json", dict(radial, ball_radius="inf"))
    for name, form in (("string", "hyperbolic"), ("list", ["x"])):
        write_json(tmp_path / f"form_{name}.json", dict(radial, form=form))
    write_json(tmp_path / "scenario_list.json", [radial])
    write_json(tmp_path / "iso_scenario_number.json",
               {"scenario": 5, "genus": 2, "disk_area": 0.6})
    mesh = genus2_mesh(5)
    (tmp_path / "mesh.off").write_text(write_off(mesh))
    (tmp_path / "morse.csv").write_text("vertex_id,value\n" + "\n".join(
        f"{i},{v}" for i, v in enumerate(height_field(mesh).values)))
    lines = write_off(mesh).splitlines()
    lines[2 + 5] = " ".join(lines[2 + 5].split()[:2] + ["nan"])  # vertex 5
    (tmp_path / "mesh_nan.off").write_text("\n".join(lines) + "\n")
    (tmp_path / "mesh_negative.off").write_text("OFF\n-1 0 0\n")
    (tmp_path / "morse_repeated.csv").write_text(
        (tmp_path / "morse.csv").read_text() + "\n0,5.5\n")
    edges = GraphHamiltonian.constant(build_reeb(mesh, height_field(mesh)), 1.0).to_json()["edges"]
    for name, recs in (("nan", [dict(edges[0], breakpoints=[[c, float("nan")]
                                                            for c, _ in edges[0]["breakpoints"]])]
                        + edges[1:]),
                       ("id_fractional", [dict(edges[0], id=0.7)] + edges[1:]),
                       ("id_repeated", edges + edges[:1])):
        write_json(tmp_path / f"ham_{name}.json", {"edges": recs})
    return tmp_path


_BAD_PATHS = ("matrix_nan", "time_nan", "row_short", "n_fractional", "n_zero")
_BAD_FRAMES = ("n_fractional", "columns_short", "nan", "n_zero")
_BAD_FIELDS = ("radial_support_zero", "poly_support_zero", "bump_radius_zero",
               "conjugated_radius_underflow", "radial_support_negative", "bump_radius_negative",
               "poly_exponent_negative", "g_shape", "g_not_symplectic", "dim_mismatch")
_NON_FINITE_SCENARIOS = ("profile", "support_radius", "time", "amplitude", "center", "radius",
                         "monomial", "g", "ball_radius")
_BAD_HAMILTONIANS = ("nan", "id_fractional", "id_repeated")
_REEB_SPEC = {"mesh_file": "mesh.off", "morse_file": "morse.csv", "normalize": True}


@pytest.mark.parametrize("kind, spec", [
    ("tau", {"scenario_file": "scenario.json", "p": "eight", "n_samples": 8, "seed": 1}),
    ("phi", {"path_file": "loop.json", "p": 8.7}),
    ("tau", {"scenario_file": "bad_dt.json", "p": 2, "n_samples": 8, "seed": 1}),
    ("calabi", {"scenario_file": "scenario.json", "quadrature": {"bogus": 3}}),
    ("calabi", {"scenario_file": "scenario.json", "quadrature": [1, 2]}),
    ("calabi", {"scenario_file": "scenario.json", "quadrature": {"n_r": "many"}}),
    ("cal_s", {"isotopy_file": "bad_genus.json", "p": 2, "n_points": 8, "seed": 1}),
    ("tau", {"scenario_file": "scenario.json", "p": 2, "n_samples": 8, "seed": "x"}),
    ("phi", {"path_file": "loop.json", "p": 4, "p_schedule": ["a"]}),
    ("phi", {"path_file": "loop.json", "p": 4, "p_schedule": 5}),
    ("calabi", {"scenario_file": "bad_bump_power.json"}),
    ("calabi", {"scenario_file": "bad_dim.json"}),
    ("calabi", {"scenario_file": "bad_amplitude.json"}),
    ("cal_s", {"isotopy_file": "fractional_genus.json", "p": 2, "n_points": 8, "seed": 1}),
    ("calabi", {"scenario_file": "scenario.json", "quadrature": {"n_t": 0}}),
    ("calabi", {"scenario_file": "scenario.json", "quadrature": {"n_r": -4}}),
    ("calabi", {"scenario_file": "scenario.json", "quadrature": {"n_angle": 0}}),
    ("calabi", {"scenario_file": "scenario.json", "quadrature": {"radius": float("nan")}}),
    ("calabi", {"scenario_file": "bad_time.json"}),
    ("calabi", {"scenario_file": "bad_time_pair.json"}),
    ("calabi", {"scenario_file": "bad_time_coefficient.json"}),
    ("calabi", {"scenario_file": "bad_time_k.json"}),
] + [("gg", {"isotopy_file": "iso.json", "p": 2, "n_points": 4, "seed": 1, "eta": eta})
     for eta in ([[1]], 3, {"a": 5}, {"a": [[1]]}, {"a": [["x", 0, 1.0]]},
                 {"b": [[0, -1, 1.0]]}, {"a": [[0.5, 0, 1.0]]}, {"a": [[0, 0, "nan"]]})]
    + [("calabi", {"scenario_file": f"nonfinite_{name}.json"}) for name in _NON_FINITE_SCENARIOS]
    + [("reeb", dict(_REEB_SPEC, constant="nan"))]
    + [("reeb", dict(_REEB_SPEC, hamiltonian_file=f"ham_{name}.json"))
       for name in _BAD_HAMILTONIANS]
    + [("reeb", dict(_REEB_SPEC, normalize="no"))]
    + [("reeb", dict(_REEB_SPEC, mesh_file="mesh_nan.off", normalize=normalize))
       for normalize in (True, False)]
    + [("reeb", dict(_REEB_SPEC, mesh_file="mesh_negative.off")),
       ("reeb", dict(_REEB_SPEC, morse_file="morse_repeated.csv"))]
    + [("calabi", {"scenario_file": name})
       for name in ("form_string.json", "form_list.json", "scenario_list.json")]
    + [("cal_s", {"isotopy_file": "iso_scenario_number.json", "p": 2, "n_points": 8,
                  "seed": 1}),
       ("phi", {"path_file": ["loop.json"], "p": 4}),
       ("phi", {"path_file": "loop.json", "p": 4, "p_schedule": "148"})]
    + [("phi", {"path_file": f"loop_{name}.json", "p": 4}) for name in _BAD_PATHS]
    + [("phi", {"path_file": "loop.json", "frame_file": f"frame_{name}.json", "p": 4})
       for name in _BAD_FRAMES]
    + [("defect", {"evaluator": "phi_sp", "n": n, "n_pairs": 2, "seed": 1}) for n in (0, -1)]
    + [("calabi", {"scenario_file": f"field_{name}.json"}) for name in _BAD_FIELDS],
    ids=["p_not_int", "p_fractional", "dt_not_float", "quadrature_bad_key",
        "quadrature_not_object", "quadrature_bad_value", "genus_not_int", "seed_not_int",
        "schedule_entry_not_int", "schedule_not_list", "bump_power_fractional",
        "field_dim_fractional", "amplitude_not_float", "genus_fractional",
        "quadrature_n_t_zero", "quadrature_n_r_negative", "quadrature_n_angle_zero",
        "quadrature_radius_nan", "time_not_object", "time_pair_without_k",
        "time_coefficient_not_float", "time_k_fractional", "eta_not_object", "eta_number",
        "eta_a_not_list", "eta_monomial_short", "eta_exponent_not_int", "eta_exponent_negative",
        "eta_exponent_fractional", "eta_coefficient_nan"]
    + [f"nonfinite_{name}" for name in _NON_FINITE_SCENARIOS] + ["reeb_constant_nan"]
    + [f"reeb_hamiltonian_{name}" for name in _BAD_HAMILTONIANS]
    + ["reeb_normalize_string", "reeb_mesh_nan_normalized", "reeb_mesh_nan",
       "reeb_mesh_negative_count", "reeb_morse_repeated", "form_string", "form_list", "scenario_list",
       "isotopy_scenario_number", "path_file_list", "schedule_string"]
    + [f"path_{name}" for name in _BAD_PATHS] + [f"frame_{name}" for name in _BAD_FRAMES]
    + ["defect_n_zero", "defect_n_negative"] + [f"field_{name}" for name in _BAD_FIELDS])
def test_malformed_values_exit_2(malformed_inputs, capsys, kind, spec):
    spec_file = write_json(malformed_inputs / "spec.json", spec)
    out = malformed_inputs / "out"
    assert cli.main([kind, "--spec", str(spec_file), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("validation error:")


def test_numerical_failure_exits_3(tmp_path):
    # e1 jumps by a quarter turn, so det^2 by exactly half a turn: phi_lag
    # raises RefinePathError, a numerical failure
    mats = np.stack([np.eye(2), np.array([[0.0, -1.0], [1.0, -3.0]])])
    path = SpPath(np.array([0.0, 1.0]), mats)
    write_json(tmp_path / "path.json", path_to_json(path))
    spec = write_json(tmp_path / "spec.json", {"path_file": "path.json", "p": 1})
    assert cli.main(["phi", "--spec", str(spec), "--out", str(tmp_path)]) == 3


def test_jobs_flag_rejected(tmp_path, radial_scenario_file):
    spec = write_json(tmp_path / "spec.json", {"scenario_file": "scenario.json"})
    with pytest.raises(SystemExit) as exc:
        cli.main(["calabi", "--spec", str(spec), "--out", str(tmp_path / "out"),
                  "--jobs", "4"])
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists()
