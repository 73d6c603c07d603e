"""Tests of the benchmark harness itself, so that it cannot silently rot.

Run from the repository root:

    python3 -m pytest -q perfbench/harness_check.py

The file name keeps it out of the repository's own test collection; the
end-to-end cases run the --quick mode of every workload (about a minute
on two cores).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from run import tail  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _program():
    sys.path.insert(0, str(ROOT / "src"))
    import resgate.cli as cli
    return cli


def test_benchmark_json_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in SPEC["end_to_end"])}]
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(tmp_path, workload):
    for seed in range(25):
        a = workloads.generate(workload, seed, tmp_path / "a")
        b = workloads.generate(workload, seed, tmp_path / "b")
        assert [x.config.read_text() for x in a] == [y.config.read_text() for y in b]
    one = workloads.generate(workload, 1, tmp_path / "c")[0].config.read_text()
    assert one != workloads.generate(workload, 2, tmp_path / "d")[0].config.read_text()


def test_generated_configs_match_the_program(tmp_path):
    """The generator's grid and regime arithmetic agrees with the program's."""
    cli = _program()
    from resgate.device import validate_regime
    from resgate.pulse import default_grid

    for seed in range(10):
        for workload in workloads.WORKLOADS:
            for inv in workloads.generate(workload, seed, tmp_path / workload / str(seed)):
                cfg = cli.load_config(inv.config)
                grid = default_grid(cfg.tau, cfg.device.kappa)
                assert grid.n_samples == workloads.N_SAMPLES
                assert 4 * (grid.n_samples - 1) == workloads.RK4_STEPS
                assert all(c.status == "pass" for c in validate_regime(cfg.device, tau=cfg.tau))


def test_tail_percentile():
    assert tail([3.0, 1.0, 2.0]) == (100.0, 3.0)
    xs = [float(i) for i in range(1, 46)]
    pct, value = tail(xs)
    assert pct == 77.0
    assert sum(1 for x in xs if x > value) == 10


def test_self_times_subtract_direct_children():
    spans = [
        {"id": 0, "name": "cli.main", "parent": None, "run": "a", "start": 0.0, "end": 10.0},
        {"id": 1, "name": "gate.sweep", "parent": 0, "run": "a", "start": 1.0, "end": 9.0},
        {"id": 2, "name": "scattering.filter", "parent": 1, "run": "a", "start": 2.0, "end": 5.0},
    ]
    assert tracing.self_times(spans) == {0: 2.0, 1: 5.0, 2: 3.0}
    assert tracing.coverage(spans, 10.0) == (1.0, 1.0)


def test_tracer_instruments_and_restores(tmp_path):
    cli = _program()
    from resgate import gate, scattering

    originals = (cli.main, cli._DISPATCH["fidelity"], gate.scatter_all_states,
                 scattering.reflect_filter_pulse)
    inv = workloads.generate("cli_filter_mix", 0, tmp_path / "cfg", quick=True)[3]
    tracer = tracing.Tracer()
    tracer.instrument()
    try:
        tracer.run_id = "r"
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(inv.argv(tmp_path / "out")) == 0
    finally:
        tracer.restore()
    assert (cli.main, cli._DISPATCH["fidelity"], gate.scatter_all_states,
            scattering.reflect_filter_pulse) == originals
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s["name"], []).append(s)
    assert len(by_name["cli.main"]) == 1 and by_name["cli.main"][0]["parent"] is None
    assert len(by_name["scattering.filter"]) == 3          # 00, 01, 11
    parents = {tracer.spans[s["parent"]]["name"] for s in by_name["scattering.filter"]}
    assert parents == {"scattering.scatter_all_states"}
    assert all(s["run"] == "r" for s in tracer.spans)


def test_checks_catch_bad_outputs(tmp_path):
    inv = workloads.Invocation("x", "fidelity", tmp_path / "x.cfg",
                               csv_rows={"fidelity.csv": 2}, fidelity_points=2, photon_sweep=True)
    header = ",".join(("x_value", "fidelity", "eps_00", "eta_00"))
    (tmp_path / "fidelity.csv").write_text(f"{header}\n0,1,0,0\n1,0.9,0.1,0.2\n")
    problems, digest, values = checks.check_outputs(inv, tmp_path, 0, "")
    assert problems == [] and values == {"fidelity.csv": {"fidelity": [1.0, 0.9]}}
    ref = {"tolerance": checks.TOLERANCE, "seeds": {"w": {"1": {"x": values}}}}
    assert checks.compare_reference(ref, "w", 1, "x", values) == []
    assert checks.compare_reference(ref, "w", 2, "x", values) is None
    assert checks.compare_reference(ref, "w", 1, "x", {"fidelity.csv": {"fidelity": [1.0, 0.8]}})

    for body, expect in (("0,1,0,0\n1,nan,0,0\n", "non-finite"),
                         ("0,1,0,0\n1,1.2,0,0\n", "outside [0, 1]"),
                         ("0,0.99,0,0\n1,0.9,0,0\n", "F(alpha=0)"),
                         ("0,1,0,0\n", "rows")):
        (tmp_path / "fidelity.csv").write_text(f"{header}\n{body}")
        problems, _, _ = checks.check_outputs(inv, tmp_path, 0, "")
        assert any(expect in p for p in problems), (body, problems)
    assert checks.check_outputs(inv, tmp_path, 3, "")[0] == ["exit code 3"]


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_quick_mode_reports_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "5", "--trace", str(trace), "--quick")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
        if not trace:
            assert metric["value"] > 0, name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("--workload", "cli_filter_mix", "--seed", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
