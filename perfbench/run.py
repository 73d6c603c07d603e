"""Benchmark of the `sim` pipeline: end-to-end runs and a traced per-layer run.

Run from the root of a checkout (the directory holding src/ and
BENCHMARK.json):

    python3 perfbench/run.py --workload photon_meanfield --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload cli_filter_mix --seed 1 --trace 1
    python3 perfbench/run.py --workload reflect_master --seed 1 --quick
    python3 perfbench/run.py --workload reflect_master --record-reference 0-39

--trace 0 runs each invocation of the workload as a fresh `sim` process
(`python3 -m resgate.cli` on ./src), in passes, until --seconds is used
up (two passes at least, so every config runs twice), and reports the
end-to-end metrics.  --trace 1 drives the same generated configs
in-process through `resgate.cli.main`, once untraced and once with spans
around the calls into each module, and reports the per-layer metrics.
The last line of standard output is the result object; the line before
it is a report with the machine, the settings and any failed check.
See perfbench/README.md for the metric map.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from importlib import metadata
from pathlib import Path

import checks
import tracing
import workloads
from workloads import MASTER_ALPHA, WORKLOADS

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPS = 5
IMPORT_REPS = 3
MIN_PASSES = 2
RUN_LIMIT_S = 165          # a hung `sim` is killed so that a run ends within 180 s
COVERAGE_TOL = 0.05        # root spans must cover at least 95 % of the traced pass
MIN_TAIL_BEYOND = 10

NPROC = len(os.sched_getaffinity(0))
BLAS_ENV = {k: str(NPROC) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

SETUP_SCRIPT = "import sys; from resgate.cli import load_config; load_config(sys.argv[1])"
IMPORT_SCRIPT = """\
import json, time
t0 = time.perf_counter(); import numpy
t1 = time.perf_counter(); import scipy.constants
t2 = time.perf_counter(); import resgate.cli
t3 = time.perf_counter()
print(json.dumps({"numpy": t1 - t0, "scipy": t2 - t1, "resgate": t3 - t2,
                  "file": resgate.cli.__file__}))
"""


class HarnessError(Exception):
    """The benchmark cannot run here (no program to build, bad arguments)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def under_src(path: str) -> bool:
    return Path(path).resolve().is_relative_to(SRC.resolve())


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with at least ten samples beyond it.

    With fewer than eleven samples no percentile qualifies, and the
    maximum (percentile 100) is reported instead.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= MIN_TAIL_BEYOND:
        return 100.0, xs[-1]
    pct = math.floor(100.0 * (n - MIN_TAIL_BEYOND) / n)
    rank = max(1, math.ceil(pct / 100.0 * n))        # nearest rank
    return float(pct), xs[rank - 1]


def machine_info() -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    import numpy            # after the measurements; the children import their own
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": NPROC, "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": metadata.version("scipy"),
            "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads_env": BLAS_ENV}


def time_setup(config: Path) -> float:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_SCRIPT, str(config)],
                          env=child_env(), capture_output=True, timeout=60)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise HarnessError(f"set-up failed: {proc.stderr.decode()[-500:]}")
    return elapsed


def run_child(inv: workloads.Invocation, out_dir: Path, deadline: float) -> dict:
    """One `sim` process, timed from start to exit, with its own peak RSS.

    The process is killed at `deadline` (a perf_counter time).
    """
    out_dir.mkdir(parents=True)
    cmd = [sys.executable, "-m", "resgate.cli", *inv.argv(out_dir)]
    with open(out_dir / "stdout.txt", "wb") as so, open(out_dir / "stderr.txt", "wb") as se:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=so, stderr=se, env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(max(0.0, deadline - t0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        latency = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"inv": inv, "out": out_dir, "rc": proc.returncode, "latency": latency,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "stdout": (out_dir / "stdout.txt").read_text(errors="replace")}


def run_inprocess(cli, inv: workloads.Invocation, out_dir: Path, tracer=None) -> dict:
    buf = io.StringIO()
    if tracer is not None:
        tracer.run_id = inv.name
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            rc = cli.main(inv.argv(out_dir))
    except Exception:        # a crash is a failed invocation, not a harness error
        rc = -1
        buf.write(traceback.format_exc())
    return {"inv": inv, "out": out_dir, "rc": rc, "stdout": buf.getvalue()}


class Verifier:
    """Applies the output checks and tracks CSV digests across runs of one config."""

    def __init__(self, workload: str, seed: int, use_reference: bool) -> None:
        self.workload, self.seed = workload, seed
        self.reference = checks.load_reference() if use_reference else None
        self.digests: dict[str, str] = {}
        self.reference_status = "not used (quick mode)" if not use_reference else "checked"
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0

    def __call__(self, rec: dict) -> dict:
        inv = rec["inv"]
        problems, digest, values = checks.check_outputs(inv, rec["out"], rec["rc"], rec["stdout"])
        if digest is not None:
            first = self.digests.setdefault(inv.name, digest)
            if first != digest:
                problems.append("CSV bytes differ from the first run of this config")
        if self.reference is not None:
            ref = checks.compare_reference(self.reference, self.workload, self.seed,
                                           inv.name, values)
            if ref is None:
                self.reference_status = f"no reference recorded for seed {self.seed}"
            else:
                problems += ref
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.append(f"{inv.name} ({rec['out'].parent.name}): " + "; ".join(problems))
        rec["values"] = values
        return rec


def run_end_to_end(workload: str, seed: int, seconds: float, quick: bool):
    deadline = time.perf_counter() + RUN_LIMIT_S
    work = WORK / workload
    invs = workloads.generate(workload, seed, work / "configs", quick)
    setup = [time_setup(invs[0].config) for _ in range(1 if quick else SETUP_REPS)]
    verify = Verifier(workload, seed, use_reference=not quick)

    records, pass_walls = [], []
    t_start = time.perf_counter()
    while True:
        pass_dir = work / f"pass{len(pass_walls)}"
        t0 = time.perf_counter()
        recs = [run_child(inv, pass_dir / inv.name, deadline) for inv in invs]
        pass_walls.append(time.perf_counter() - t0)
        records += [verify(r) for r in recs]
        elapsed = time.perf_counter() - t_start
        enough = quick or elapsed + statistics.median(pass_walls) > seconds
        if time.perf_counter() >= deadline or (len(pass_walls) >= MIN_PASSES and enough):
            break

    busy = sum(pass_walls)
    latencies = [r["latency"] for r in records]
    tail_pct, tail_value = tail(latencies)
    metrics = {
        "wall_s": statistics.median(pass_walls),
        "setup_s": statistics.median(setup),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail_value,
        "states_per_s": sum(r["inv"].states for r in records) / busy,
        "invocations_per_s": len(records) / busy,
        "peak_rss_mb": max(r["rss_mb"] for r in records),
    }
    report = {
        "n_samples": None if quick else workloads.N_SAMPLES,
        "rk4_steps_per_trajectory": None if quick else workloads.RK4_STEPS,
        "passes": len(pass_walls),
        "invocations": len(records),
        "latency_tail_percentile": tail_pct,
        "fidelity_points_per_s": sum(r["inv"].fidelity_points for r in records) / busy,
        "failed_ratio": verify.failed / verify.attempted,
        "setup_samples_s": setup,
        "pass_walls_s": pass_walls,
        "reference": verify.reference_status,
        "failures": verify.failures,
    }
    return metrics, report, verify


def import_times() -> dict:
    runs = []
    for _ in range(IMPORT_REPS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_SCRIPT], env=child_env(),
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise HarnessError(f"import probe failed: {proc.stderr[-500:]}")
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    if not under_src(runs[0]["file"]):
        raise HarnessError(f"resgate imported from {runs[0]['file']}, not from {SRC}")
    return {f"import.{k}_s": statistics.median(r[k] for r in runs)
            for k in ("numpy", "scipy", "resgate")}


def import_program():
    sys.path.insert(0, str(SRC))
    import resgate.cli as cli
    if not under_src(cli.__file__):
        raise HarnessError(f"resgate imported from {cli.__file__}, not from {SRC}")
    return cli


def census(cli, names: set[str], config: Path, out_dir: Path) -> None:
    """One call into each layer the workload's commands never reach.

    Runs under the tracer, at the workload's config, so that every
    per-layer time exists on every workload.
    """
    from resgate import device, gate, pulse, scattering

    cfg = cli.load_config(config)
    dev = cfg.device
    f_in = pulse.gaussian_pulse(cfg.tau, pulse.default_grid(cfg.tau, dev.kappa, cfg.samples))
    state = scattering.joint_state("01")
    if "scattering.meanfield" not in names:
        scattering.reflect_meanfield(f_in, MASTER_ALPHA, state, dev)
    if "scattering.master" not in names:
        scattering.reflect_master(f_in, MASTER_ALPHA, state, dev, fock_dim=cfg.fock_dim)
    if "scattering.filter" not in names:
        scattering.reflect_filter_pulse(f_in, state, dev, alpha=cfg.sweep_alpha)
    if "gate.sweep" not in names:
        gate.sweep_photon_number(dev, [0.0, 1.0], backend="filter", tau=cfg.tau)
    if "cli.cmd_levels" not in names:
        cfg.output_dir = out_dir
        with contextlib.redirect_stdout(io.StringIO()):
            cli.cmd_levels(cfg, True)
    if "device.validate_regime" not in names:
        device.validate_regime(dev, tau=cfg.tau)


def run_traced(workload: str, seed: int, quick: bool):
    work = WORK / workload
    metrics = import_times()
    invs = workloads.generate(workload, seed, work / "configs", quick)
    cli = import_program()
    verify = Verifier(workload, seed, use_reference=not quick)

    t0 = time.perf_counter()
    plain = [run_inprocess(cli, inv, work / "untraced" / inv.name) for inv in invs]
    untraced_wall = time.perf_counter() - t0

    tracer = tracing.Tracer()
    tracer.instrument()
    try:
        t0 = time.perf_counter()
        traced = [run_inprocess(cli, inv, work / "traced" / inv.name, tracer) for inv in invs]
        traced_wall = time.perf_counter() - t0
        own = list(tracer.spans)
        tracer.run_id = "census"
        census(cli, {s["name"] for s in own}, invs[0].config, work / "census")
    finally:
        tracer.restore()
    tracer.write(work / "spans.jsonl")
    for rec in plain + traced:
        verify(rec)

    metrics |= tracing.layer_metrics(own, tracer.spans[len(own):],
                                     points=sum(inv.points for inv in invs),
                                     levels_points=workloads.LEVELS_POINTS)
    metrics["trace_overhead_ratio"] = traced_wall / untraced_wall
    steps = {s["steps"] for s in own if "steps" in s}
    if not quick and steps - {workloads.RK4_STEPS}:
        verify.failures.append(f"RK4 steps per trajectory {sorted(steps)}, "
                               f"expected {workloads.RK4_STEPS}")
    self_share, root_share = tracing.coverage(own, traced_wall)
    if abs(self_share - root_share) > 1e-9 or root_share < 1.0 - COVERAGE_TOL:
        verify.failures.append(
            f"trace coverage: self times sum to {self_share:.4f} and invocation spans to "
            f"{root_share:.4f} of the traced wall (tolerance {COVERAGE_TOL})")
    report = {
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "trace_self_time_share": self_share,
        "trace_root_share": root_share,
        "spans": len(tracer.spans),
        "census_spans": sorted({s["name"] for s in tracer.spans[len(own):]}),
        "reference": verify.reference_status,
        "failures": verify.failures,
    }
    return metrics, report, verify


def record_reference(workload: str, seeds: list[int]) -> None:
    """Record fidelity and summary values of the current program for `seeds`."""
    cli = import_program()
    table = checks.load_reference()["seeds"].get(workload, {})
    for seed in seeds:
        work = WORK / "record" / workload / str(seed)
        shutil.rmtree(work, ignore_errors=True)
        invs = workloads.generate(workload, seed, work / "configs")
        verify = Verifier(workload, seed, use_reference=False)
        recs = [verify(run_inprocess(cli, inv, work / inv.name)) for inv in invs]
        if verify.failures:
            raise HarnessError(f"seed {seed}: {verify.failures}")
        table[str(seed)] = {r["inv"].name: r["values"] for r in recs}
        print(f"recorded {workload} seed {seed}", file=sys.stderr)
    reference = checks.load_reference()       # re-read: other workloads may have been recorded
    reference["tolerance"] = checks.TOLERANCE
    reference["seeds"][workload] = dict(sorted(table.items(), key=lambda kv: int(kv[0])))
    checks.write_reference(reference)


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="one short pass pair per workload")
    ap.add_argument("--record-reference", metavar="SEEDS",
                    help="record reference values for seeds LO-HI and exit")
    args = ap.parse_args(argv)
    # children inherit these; set before numpy is imported here (traced run)
    os.environ.update(BLAS_ENV)
    os.environ.pop("SIM_WORKERS", None)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if not (SRC / "resgate" / "cli.py").is_file():
            raise HarnessError(f"no program source at {SRC / 'resgate'}; run from a checkout root")
        if args.record_reference:
            record_reference(args.workload, parse_seeds(args.record_reference))
            return 0
        shutil.rmtree(WORK / args.workload, ignore_errors=True)
        if args.trace:
            metrics, report, verify = run_traced(args.workload, args.seed, args.quick)
            declared = spec["per_layer"]
        else:
            metrics, report, verify = run_end_to_end(args.workload, args.seed, args.seconds,
                                                     args.quick)
            declared = spec["end_to_end"]
        report["machine"] = machine_info()
    except (HarnessError, OSError, KeyError, ValueError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 2
    report |= {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "quick": args.quick}
    print(json.dumps({"report": report}))
    for line in verify.failures:
        print(f"FAILED CHECK {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not verify.failures,
        "attempted": verify.attempted,
        "failed": verify.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
