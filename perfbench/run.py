"""qmlab benchmark: one workload per process, inputs made from a seed.

    python3 perfbench/run.py --workload tau_batch --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --compare parent.jsonl change.jsonl

A run generates its workload's inputs (spec files under perfbench/.out/),
then repeats the workload's fixed list of operations until ``--seconds``
would be exceeded, checking every output.  With ``--trace 0`` it reports
the end-to-end metrics; with ``--trace 1`` it alternates untraced and
traced rounds and reports the per-layer metrics, the exact work counters
and the tracing overhead.  The last line of standard output is one JSON
object with keys correct, attempted, failed and metrics.  ``--record FILE``
appends the full result (per-operation times, check details, provenance)
as one JSON line; ``--compare`` reads two such files.

qmlab is imported from ``src/`` of the checkout this file sits in, never
from an installed copy; without ``src/qmlab`` the run fails with exit code 2.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"  # 2x2..4x4 matrices gain nothing from threads on a 2-core box
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"
SETUP_PROBES = 3  # fresh processes timed for setup_s; the median is reported
# Shared 2-vCPU hosts drift in speed by more than half over tens of seconds.
# Every timed interval is therefore bracketed by a fixed calibration kernel
# that does not touch qmlab, and setup_s and wall_s are reported at the
# reference speed: time * CAL_REF_S / (mean kernel time around the interval).
# Raw seconds stay in the --record output.
CAL_REF_S = 0.025


def _import_qmlab():
    if not (SRC / "qmlab" / "__init__.py").is_file():
        print(f"error: {SRC / 'qmlab'} not found; run from a qmlab checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import qmlab
    if Path(qmlab.__file__).resolve().parent != (SRC / "qmlab").resolve():
        print(f"error: imported qmlab from {qmlab.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)
    return qmlab


def _provenance(qmlab, seed: int) -> dict:
    import numpy
    import scipy
    digest = hashlib.sha256()
    for path in sorted((SRC / "qmlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    return {"nproc": os.cpu_count(), "blas_threads": BLAS_THREADS,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "qmlab": qmlab.__version__,
            "platform": platform.platform(), "seed": seed, "git_commit": commit,
            "src_sha256": digest.hexdigest()}


def _calibration_kernel():
    """Fixed interpreter, batched-array and tiny-array numpy work, independent of qmlab."""
    import numpy as np
    acc = 0
    for i in range(60_000):
        acc += i * i % 7
    a = np.linspace(0.0, 1.0, 8000).reshape(2000, 2, 2)
    for _ in range(60):
        a = a * 1.0000001 + np.sin(a) * 1e-9
        a = a + 1e-12 * (a @ a)
    b = np.linspace(0.0, 1.0, 2)
    for _ in range(3000):
        b = b * 1.0000001 + 1e-9
    return acc, a, b


def _calibrate() -> float:
    t0 = time.perf_counter()
    _calibration_kernel()
    return time.perf_counter() - t0


class _Clock:
    """Times intervals at the reference speed; consecutive intervals share a calibration."""

    def __init__(self):
        _calibrate()  # the first call pays one-off numpy start-up costs
        self.last = _calibrate()

    def time(self, fn):
        """Run ``fn``; returns (its result, raw seconds, reference-speed seconds)."""
        t0 = time.perf_counter()
        out = fn()
        raw = time.perf_counter() - t0
        after = _calibrate()
        scaled = raw * CAL_REF_S / (0.5 * (self.last + after))
        self.last = after
        return out, raw, scaled


def _probe_setup(args) -> tuple[list[float], list[float]]:
    """Raw and reference-speed times of fresh processes that import qmlab and make the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    raw, scaled = [], []
    clock = _Clock()
    for _ in range(SETUP_PROBES):
        proc, r, s = clock.time(lambda: subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                                   text=True, timeout=170))
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        raw.append(r)
        scaled.append(s)
    return raw, scaled


class OpStats:
    def __init__(self, op):
        self.op = op
        self.times: list[float] = []         # untraced, at the reference speed
        self.raw_times: list[float] = []     # untraced, raw seconds
        self.traced_times: list[float] = []  # traced, at the reference speed
        self.failures: list[str] = []
        self.attempts = 0
        self.ratio: float | None = None
        self.detail = ""

    def median(self, times=None) -> float:
        times = self.times if times is None else times
        return statistics.median(times) if times else 0.0

    def unexpected(self, known: dict) -> list[str]:
        """Failures other than the operation's known one (see workloads.KNOWN_FAILURES)."""
        expected = known.get(self.op.name)
        return [f for f in self.failures if expected is None or expected not in f]


def _run_round(stats: list[OpStats], clock: _Clock, tracer=None) -> float:
    """Run every operation once; returns the summed raw operation time."""
    total = 0.0
    for op_id, st in enumerate(stats):
        op = st.op

        def run_op():
            with tracer.op_span(op_id, op.name) if tracer else contextlib.nullcontext():
                try:
                    return op.run(), None
                except Exception as exc:  # an operation failure is counted, never fatal
                    return None, f"{type(exc).__name__}: {exc}"

        (out, error), dt, scaled = clock.time(run_op)
        if tracer:
            st.traced_times.append(scaled)
            if op.cli_out is not None and op.cli_out.is_dir():
                tracer.count["cli.result_bytes"] += sum(
                    f.stat().st_size for f in op.cli_out.iterdir())
        else:
            st.raw_times.append(dt)
            st.times.append(scaled)
        total += dt
        st.attempts += 1
        if error is None:
            try:
                verdict = op.check(out)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
            else:
                st.detail = verdict.detail
                if verdict.ratio is not None and math.isfinite(verdict.ratio):
                    st.ratio = max(st.ratio or 0.0, verdict.ratio)
                if not verdict.ok:
                    error = f"check failed: {verdict.detail}"
        if error is not None:
            st.failures.append(error)
    return total


def _layer_metrics(tracer, setup_time) -> dict:
    """Per-layer metrics of one traced round (``tracer`` holds its aggregates)."""
    t, st, c = tracer.time, tracer.self_time, tracer.count
    steps = c["hamflow.steps"]
    m = {}
    for f in ("field_value", "field_grad", "field_hess"):
        m[f"hamflow.{f}.s"] = t[f"hamflow.{f}"]
        m[f"hamflow.{f}.calls"] = c[f"hamflow.{f}"]
        m[f"hamflow.{f}.points"] = c[f"hamflow.{f}.points"]
    m["hamflow.hess_per_step"] = c["hamflow.evolve_hess"] / steps if steps else 0.0
    m["hamflow.form_rho.s"] = t["hamflow.form_rho"]
    m["hamflow.form_rho.calls"] = c["hamflow.form_rho"]
    m["hamflow.evolve.s"] = t["hamflow.evolve"]
    m["hamflow.evolve.self_s"] = st["hamflow.evolve"]
    m["hamflow.evolve.calls"] = c["hamflow.evolve"]
    m["hamflow.point_steps"] = c["hamflow.point_steps"]
    m["hamflow.point_steps_per_s"] = (c["hamflow.point_steps"] / t["hamflow.evolve"]
                                      if t["hamflow.evolve"] else 0.0)
    m["hamflow.newton_iters_max"] = tracer.newton_iters_max
    m["hamflow.step_us"] = 1e6 * t["hamflow.evolve"] / steps if steps else 0.0
    m["hamflow.step_hook.s"] = t["hamflow.step_hook"]
    m["hypgeo.lift.self_s"] = st["hypgeo.lift"]
    m["hypgeo.transport_rate_points.s"] = t["hypgeo.transport_rate_points"]
    m["hypgeo.mean_zero_constant.s"] = t["hypgeo.mean_zero_constant"]
    m["hypgeo.mean_zero_constant.calls"] = c["hypgeo.mean_zero_constant"]
    m["hypgeo.geodesic_line_integral.s"] = t["hypgeo.geodesic_line_integral"]
    m["hypgeo.geodesic_line_integral.calls"] = c["hypgeo.geodesic_line_integral"]
    m["hamflow.calabi.s"] = t["hamflow.calabi"]
    m["hamflow.calabi.nodes"] = c["hamflow.calabi.nodes"]
    m["symplectic.phi_lag.s"] = t["symplectic.phi_lag"]
    m["symplectic.phi_lag.calls"] = c["symplectic.phi_lag"]
    m["symplectic.phi_lag.samples"] = c["symplectic.phi_lag.samples"]
    m["symplectic.concat_power.s"] = t["symplectic.concat_power"]
    m["harness.homogenize.s"] = t["harness.homogenize"]
    m["harness.estimate_defect.s"] = t["harness.estimate_defect"]
    m["reeb.build_reeb.s"] = t["reeb.build_reeb"]
    m["reeb.build_reeb.vertices_per_s"] = (c["reeb.build_reeb.vertices"] / t["reeb.build_reeb"]
                                           if t["reeb.build_reeb"] else 0.0)
    for name in ("prune", "theorem2_value", "random_morse_field", "read_off"):
        m[f"reeb.{name}.s"] = t[f"reeb.{name}"]
    # meshes are built during set-up
    m["meshes.genus_chain_mesh.s"] = setup_time.get("meshes.genus_chain_mesh", 0.0)
    m["cli.run.self_s"] = st["cli.run"]
    m["cli.result_bytes"] = c["cli.result_bytes"]
    return m


# Counters that must repeat exactly between traced rounds and runs.
EXACT = ("hamflow.point_steps", "hamflow.field_value.calls", "hamflow.field_value.points",
         "hamflow.field_grad.calls", "hamflow.field_grad.points", "hamflow.field_hess.calls",
         "hamflow.field_hess.points", "hamflow.hess_per_step", "hamflow.newton_iters_max",
         "hamflow.evolve.calls", "hamflow.form_rho.calls", "hamflow.calabi.nodes",
         "hypgeo.mean_zero_constant.calls", "hypgeo.geodesic_line_integral.calls",
         "symplectic.phi_lag.calls", "symplectic.phi_lag.samples", "cli.result_bytes")


def _run(args) -> int:
    qmlab = _import_qmlab()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {list(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only:
            workloads.setup(args.workload, args.seed, work)
            return 0
        return _measure(args, qmlab, workloads, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(args, qmlab, workloads, work) -> int:
    trace = bool(args.trace)
    setup_raw, setup_samples = ([], []) if trace else _probe_setup(args)
    tracer = None
    if trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    stats = [OpStats(op) for op in workloads.setup(args.workload, args.seed, work)]
    setup_time = {}
    if tracer:
        setup_time = dict(tracer.time)
        tracer.uninstall()

    layer_rounds: list[dict] = []
    round_times: list[float] = []
    clock = _Clock()
    t_start = time.perf_counter()
    while True:
        traced_round = trace and len(round_times) % 2 == 1
        if traced_round:
            tracer.reset()
            tracer.keep_spans = not layer_rounds
            tracer.install()
            try:
                round_times.append(_run_round(stats, clock, tracer))
            finally:
                tracer.uninstall()
                tracer.keep_spans = False
            layer_rounds.append(_layer_metrics(tracer, setup_time))
            vertices = tracer.count["reeb.build_reeb.vertices"]
        else:
            round_times.append(_run_round(stats, clock))
        elapsed = time.perf_counter() - t_start
        enough = len(round_times) >= (2 if trace else 1)
        if enough and elapsed + max(round_times) > args.seconds:
            break
    measured_s = time.perf_counter() - t_start

    attempted = sum(st.attempts for st in stats)
    failed = sum(len(st.failures) for st in stats)
    ratios = [st.ratio for st in stats if st.ratio is not None]
    oracle_err_ratio = max(ratios) if ratios else 0.0
    # An operation that raises, exits non-zero or fails its check makes the
    # run incorrect, unless it is a known failure failing in the known way.
    correct = not any(st.unexpected(workloads.KNOWN_FAILURES) for st in stats)
    wall_s = sum(st.median() for st in stats)

    if trace:
        metrics = {k: statistics.median(r[k] for r in layer_rounds) for k in layer_rounds[0]}
        exact = {k: [r[k] for r in layer_rounds] for k in EXACT}
        repeats = all(len(set(v)) == 1 for v in exact.values())
        for k in EXACT:
            metrics[k] = exact[k][0]
        flow_s = sum(st.median(st.raw_times) for st in stats if st.op.kind == "flow")
        reeb_s = sum(st.median(st.raw_times) for st in stats if st.op.kind == "reeb")
        metrics["trace.overhead_s"] = sum(st.median(st.traced_times) for st in stats) - wall_s
        metrics["point_steps_per_s"] = metrics["hamflow.point_steps"] / flow_s if flow_s else 0.0
        metrics["reeb_vertices_per_s"] = vertices / reeb_s if reeb_s else 0.0
        metrics["fail_frac"] = failed / attempted
        metrics["oracle_err_ratio"] = oracle_err_ratio
    else:
        metrics = {"setup_s": statistics.median(setup_samples), "wall_s": wall_s,
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}

    units = _declared_units("per_layer" if trace else "end_to_end")
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} are not both "
                           "computed and declared in BENCHMARK.json")
    record = {"workload": args.workload, "seed": args.seed, "trace": int(trace),
              "seconds": args.seconds, "measured_s": measured_s, "rounds": len(round_times),
              "provenance": _provenance(qmlab, args.seed),
              "fail_frac": failed / attempted, "oracle_err_ratio": oracle_err_ratio,
              "setup_samples_s": setup_samples, "setup_raw_s": setup_raw,
              "raw_wall_s": sum(st.median(st.raw_times) for st in stats),
              "ops": [{"name": st.op.name, "kind": st.op.kind, "median_s": st.median(),
                       "times_s": st.times, "raw_times_s": st.raw_times,
                       "traced_times_s": st.traced_times,
                       "attempts": st.attempts, "failures": st.failures[:1],
                       "failed": len(st.failures),
                       "unexpected_failures": len(st.unexpected(workloads.KNOWN_FAILURES)),
                       "oracle_ratio": st.ratio,
                       "detail": st.detail} for st in stats]}
    if trace:
        record["exact_counters_repeat"] = repeats
        _write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl", tracer)

    for st in stats:
        unexpected = st.unexpected(workloads.KNOWN_FAILURES)
        if not st.failures:
            status = "ok"
        else:
            status = (f"FAILED x{len(st.failures)}{'' if unexpected else ' (known)'}: "
                      f"{(unexpected or st.failures)[0]}")
        print(f"# {st.op.name:14s} {st.median():9.4f} s  {status}")
        if st.detail:
            print(f"#   {st.detail}")
        if st.op.name in workloads.KNOWN_FAILURES and len(st.failures) < st.attempts:
            print(f"# note: known failure {st.op.name} passed {st.attempts - len(st.failures)} "
                  f"of {st.attempts} times; take it out of workloads.KNOWN_FAILURES")
    print(f"# rounds={len(round_times)} measured={measured_s:.2f}s fail_frac={failed / attempted:.4g} "
          f"oracle_err_ratio={oracle_err_ratio:.4g}")
    if trace and not repeats:
        print("# WARNING: exact counters differ between traced rounds", file=sys.stderr)
    print("# provenance " + json.dumps(record["provenance"], sort_keys=True))

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    record.update(result)
    if args.record:
        with open(args.record, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


def _write_spans(path: Path, tracer):
    """One JSON line per span of the first traced round: [id, parent, op, name, start, end]."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")


def _declared_units(section: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the full result as a JSON line to this file")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="compare two --record files")
    args = parser.parse_args(argv)
    if args.compare:
        import compare
        return compare.main(args.compare[0], args.compare[1], ROOT / "BENCHMARK.json")
    if args.workload is None:
        parser.error("--workload is required")
    return _run(args)


if __name__ == "__main__":
    sys.exit(main())
