"""Batch front end: ``qmlab <kind> --spec spec.json [--seed N] [--out DIR]``.

Each invocation runs one experiment and writes a JSON result record (plus
a CSV series where it makes sense).  Records carry the fully resolved
parameter set, so re-running a spec with the same seed reproduces the
output byte for byte.  Exit codes: 0 success, 2 validation error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import hamflow, hypgeo, reeb, symplectic
from .errors import NumericalError, ValidationError, convert
from .harness import estimate_defect, homogenize

KINDS = ("phi", "tau", "calabi", "reeb", "cal_s", "defect", "gg")
STOCHASTIC_KINDS = ("tau", "cal_s", "defect", "gg")


@dataclass(frozen=True)
class ExperimentSpec:
    """A parsed experiment request: kind, parameters, file paths, seed."""

    kind: str
    params: dict
    seed: int | None
    base_dir: Path

    @classmethod
    def load(cls, kind: str, spec_path: str, seed_override: int | None) -> "ExperimentSpec":
        if kind not in KINDS:
            raise ValidationError(f"unknown experiment kind {kind!r}")
        path = Path(spec_path)
        if not path.is_file():
            raise ValidationError(f"spec file {spec_path} does not exist")
        try:
            params = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ValidationError(f"spec file is not valid JSON: {exc}") from exc
        if not isinstance(params, dict):
            raise ValidationError("spec file must contain a JSON object")
        seed = seed_override if seed_override is not None else params.get("seed")
        if kind in STOCHASTIC_KINDS and seed is None:
            raise ValidationError(f"kind {kind!r} is stochastic: a seed is mandatory")
        seed = None if seed is None else convert("seed", seed, int)
        return cls(kind=kind, params=params, seed=seed, base_dir=path.parent)

    def path(self, key: str, required: bool = True) -> Path | None:
        rel = self.params.get(key)
        if rel is None:
            if required:
                raise ValidationError(f"spec is missing required field {key!r}")
            return None
        p = self.base_dir / convert(key, rel, str)
        if not p.is_file():
            raise ValidationError(f"{key} file {p} does not exist")
        return p

    def require(self, key: str):
        if key not in self.params:
            raise ValidationError(f"spec is missing required field {key!r}")
        return self.params[key]

    def number(self, key: str, kind: type, default=None):
        """Field ``key`` converted by ``kind``, required when there is no default."""
        value = self.require(key) if default is None else self.params.get(key, default)
        return convert(key, value, kind)


def _write_record(out_dir: Path, kind: str, record: dict) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    target = out_dir / f"{kind}_result.json"
    target.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return target


def _run_phi(spec: ExperimentSpec, out_dir: Path) -> dict:
    path = symplectic.path_from_json(json.loads(spec.path("path_file").read_text()))
    frame_file = spec.path("frame_file", required=False)
    frame = (symplectic.frame_from_json(json.loads(frame_file.read_text()))
             if frame_file else None)
    p = spec.number("p", int, 64)
    value, bound = symplectic.phi_homog(path, p, frame)
    schedule = spec.params.get("p_schedule")
    samples = None
    if schedule:
        ev = symplectic.PhiEvaluator(path.n, frame)
        powers = [convert("p_schedule", q, int) for q in convert("p_schedule", schedule, list)]
        samples = homogenize(ev, path, powers).samples
        rows = [("p", "phi_over_p")] + [(q, val) for q, val in samples]
        with open(out_dir / "phi_samples.csv", "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
    return {"value": value, "error_bound": bound, "p": p, "n": path.n,
            "samples": samples}


def _run_tau(spec: ExperimentSpec, out_dir: Path) -> dict:
    sc = hamflow.scenario_from_json(json.loads(spec.path("scenario_file").read_text()))
    out = hamflow.tau_ball(sc, p=spec.number("p", int),
                           n_samples=spec.number("n_samples", int), seed=spec.seed)
    return {"value": out.value,
            "error": {"statistical": out.std_error, "deterministic": out.deterministic_error},
            "p": out.p, "n_samples": out.n_samples, "dt": sc.dt}


def _run_calabi(spec: ExperimentSpec, out_dir: Path) -> dict:
    sc = hamflow.scenario_from_json(json.loads(spec.path("scenario_file").read_text()))
    quad = spec.params.get("quadrature", {})
    names = {f.name for f in fields(hamflow.QuadratureRule)}
    if not isinstance(quad, dict) or not set(quad) <= names:
        raise ValidationError(f"quadrature must be an object with keys among {sorted(names)}")
    rule = hamflow.QuadratureRule(**{
        k: v if v is None else convert(f"quadrature.{k}", v, float if k == "radius" else int)
        for k, v in quad.items()})
    return {"value": hamflow.calabi(sc, quadrature=rule), "quadrature": rule.used_by(sc),
            "dt": sc.dt}


def _run_reeb(spec: ExperimentSpec, out_dir: Path) -> dict:
    mesh = reeb.read_off(spec.path("mesh_file").read_text())
    if convert("normalize", spec.params.get("normalize", False), bool):
        mesh = mesh.normalized()
    f = reeb.read_morse_csv(spec.path("morse_file").read_text(), mesh.n_vertices)
    graph = reeb.build_reeb(mesh, f)
    record = {"genus": mesh.genus, "nodes": len(graph.nodes), "edges": len(graph.edges),
              "euler_deficiency": graph.euler_deficiency(),
              "total_measure": graph.total_measure()}
    core = graph.core  # pruned once; theorem2_value reads the same cached graph
    if mesh.genus >= 1:
        record["trivalent"] = sorted(reeb.trivalent_vertices(core))
    ham_file = spec.path("hamiltonian_file", required=False)
    if ham_file is not None:
        h = reeb.GraphHamiltonian.from_json(graph, json.loads(ham_file.read_text()))
        record["theorem2_value"] = reeb.theorem2_value(graph, h)
    elif "constant" in spec.params:
        h = reeb.GraphHamiltonian.constant(graph, spec.number("constant", float))
        record["theorem2_value"] = reeb.theorem2_value(graph, h)
    # compact: indent would send this large file through json's pure-Python encoder
    (out_dir / "reeb_graph.json").write_text(
        json.dumps(reeb.graph_to_json(graph), sort_keys=True, separators=(",", ":")) + "\n")
    return record


def _run_cal_s(spec: ExperimentSpec, out_dir: Path) -> dict:
    iso = hypgeo.isotopy_from_json(json.loads(spec.path("isotopy_file").read_text()))
    out = hypgeo.cal_s_estimate(iso, p=spec.number("p", int),
                                n_points=spec.number("n_points", int), seed=spec.seed)
    return {"value": out.value,
            "error": {"statistical": out.std_error, "deterministic": None},
            "p": out.p, "n_points": out.n_points, "genus": iso.genus, "disk_area": iso.disk_area}


def _run_defect(spec: ExperimentSpec, out_dir: Path) -> dict:
    evaluator = spec.params.get("evaluator", "phi_sp")
    n_pairs = spec.number("n_pairs", int)
    if evaluator == "phi_sp":
        n = spec.number("n", int, 1)
        ev = symplectic.PhiEvaluator(n)
        est = estimate_defect(ev, lambda rng: symplectic.random_sp_path(n, rng),
                              n_pairs, spec.seed)
        bound = 2.0 * n
    else:
        raise ValidationError(f"unknown defect evaluator {evaluator!r}")
    return {"max_observed": est.max_observed, "n_pairs": est.n_pairs,
            "evaluator": evaluator, "theoretical_bound": bound}


def _run_gg(spec: ExperimentSpec, out_dir: Path) -> dict:
    iso = hypgeo.isotopy_from_json(json.loads(spec.path("isotopy_file").read_text()))
    eta = hypgeo.OneForm.from_json(spec.require("eta"))
    out = hypgeo.gg_quasimorphism_estimate(eta, iso, p=spec.number("p", int),
                                           n_points=spec.number("n_points", int),
                                           seed=spec.seed)
    return {"value": out.value, "max_abs_u": out.max_abs_u, "p": out.p,
            "n_points": out.n_points}


_RUNNERS = {"phi": _run_phi, "tau": _run_tau, "calabi": _run_calabi,
            "reeb": _run_reeb, "cal_s": _run_cal_s, "defect": _run_defect,
            "gg": _run_gg}


def run(spec: ExperimentSpec, out_dir: str | Path = ".") -> Path:
    """Dispatch an experiment and write its result record; returns the path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    record = _RUNNERS[spec.kind](spec, out)
    record = {"kind": spec.kind, "seed": spec.seed,
              "params": {k: v for k, v in sorted(spec.params.items())},
              "result": record}
    return _write_record(out, spec.kind, record)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qmlab",
        description="Numerical experiments on quasi-morphism invariants.")
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind, help=f"run a {kind} experiment")
        p.add_argument("--spec", required=True, help="experiment spec (JSON)")
        p.add_argument("--seed", type=int, default=None,
                       help="seed override (mandatory for stochastic kinds)")
        p.add_argument("--out", default=".", help="output directory")
    args = parser.parse_args(argv)
    try:
        spec = ExperimentSpec.load(args.kind, args.spec, args.seed)
        target = run(spec, args.out)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    print(target)
    return 0


if __name__ == "__main__":
    sys.exit(main())
