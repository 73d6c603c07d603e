"""In-memory spans around calls into the program's modules, and per-layer metrics.

Spans are recorded from the benchmark's side: `instrument` replaces each
traced function or method with a wrapper in every `resgate` module (and
module-level dispatch dict) that refers to it, and `restore` undoes it.
No file of the program changes.  A span holds its name, start, end,
parent span and run id (one run id per `sim` invocation); a layer's self
time is its span minus its child spans.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from pathlib import Path

# (module, function or Class.method) -> span name; the span name's first
# component is the layer and matches a module of src/resgate.
TARGETS = {
    ("resgate.cli", "main"): "cli.main",
    ("resgate.cli", "load_config"): "cli.load_config",
    ("resgate.cli", "cmd_levels"): "cli.cmd_levels",
    ("resgate.cli", "cmd_reflect"): "cli.cmd_reflect",
    ("resgate.cli", "cmd_fidelity"): "cli.cmd_fidelity",
    ("resgate.cli", "cmd_regime"): "cli.cmd_regime",
    ("resgate.cli", "_write_rows"): "cli.write_rows",
    ("resgate.svgplot", "save_chart"): "svgplot.save_chart",
    ("resgate.gate", "sweep_photon_number"): "gate.sweep",
    ("resgate.gate", "sweep_coupling_variation"): "gate.sweep",
    ("resgate.gate", "gate_fidelity"): "gate.gate_fidelity",
    ("resgate.scattering", "scatter_all_states"): "scattering.scatter_all_states",
    ("resgate.scattering", "reflect_meanfield"): "scattering.meanfield",
    ("resgate.scattering", "reflect_master"): "scattering.master",
    ("resgate.scattering", "reflect_filter_pulse"): "scattering.filter",
    ("resgate.pulse", "default_grid"): "pulse.grid",
    ("resgate.pulse", "gaussian_pulse"): "pulse.build",
    ("resgate.pulse", "spectrum"): "pulse.fft",
    ("resgate.pulse", "inverse_spectrum"): "pulse.fft",
    ("resgate.device", "dqd_hamiltonian"): "device.dqd_hamiltonian",
    ("resgate.device", "validate_regime"): "device.validate_regime",
    ("resgate.qmath", "DensityMatrix.min_eigenvalue"): "qmath.state_check",
    ("resgate.qmath", "DensityMatrix.fock_tail"): "qmath.state_check",
}


def _first_arg_attrs(name: str, args) -> dict:
    """Counts taken at the boundary: RK4 steps of a trajectory, output file paths."""
    if name in ("scattering.meanfield", "scattering.master"):
        return {"steps": 4 * (args[0].grid.n_samples - 1)}
    if name in ("cli.write_rows", "svgplot.save_chart"):
        return {"path": str(args[0])}
    return {}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.run_id: str | None = None
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(spans), "name": name, "parent": stack[-1] if stack else None,
                    "run": self.run_id, "start": time.perf_counter(), "end": None}
            spans.append(span)
            stack.append(span["id"])
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                span.update(_first_arg_attrs(name, args))

        return traced

    def instrument(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "resgate" or n.startswith("resgate.")]
        for (mod_name, qual), name in TARGETS.items():
            owner = sys.modules[mod_name]
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._set(cls, meth, self.wrap(name, orig))
                continue
            orig = getattr(owner, qual)
            wrapped = self.wrap(name, orig)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._set(mod, attr, wrapped)
                    elif isinstance(val, dict):
                        for key, item in list(val.items()):
                            if item is orig:
                                self._set(val, key, wrapped)

    def _set(self, owner, key, value) -> None:
        if isinstance(owner, dict):
            self._restore.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._restore.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def restore(self) -> None:
        for owner, key, orig in reversed(self._restore):
            if isinstance(owner, dict):
                owner[key] = orig
            else:
                setattr(owner, key, orig)
        self._restore.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None and s["parent"] in out:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def layer_metrics(spans: list[dict], census: list[dict], points: int, levels_points: int) -> dict:
    """Per-layer figures from the workload's spans.

    Per-call times come from the workload's own spans; a layer the
    workload never enters is timed from its census spans (one call at the
    workload's config), so every figure exists for every workload.
    Counts come from the workload's spans only.
    """
    own = (spans, self_times(spans))
    probe = (census, self_times(census))

    def pick(name):
        """(matching spans, the span list they came from, its self times)."""
        for pool, table in (own, probe):
            hits = [s for s in pool if s["name"] == name]
            if hits:
                return hits, pool, table
        return [], [], {}

    def dur(s):
        return s["end"] - s["start"]

    def per_call(name):
        return _mean([dur(s) for s in pick(name)[0]])

    def count(name):
        return sum(1 for s in spans if s["name"] == name)

    out = {"cli.load_config_s": per_call("cli.load_config")}
    for backend in ("meanfield", "master"):
        hits = pick(f"scattering.{backend}")[0]
        out[f"scattering.{backend}.per_state_s"] = _mean([dur(s) for s in hits])
        out[f"scattering.{backend}.calls"] = count(f"scattering.{backend}")
        out[f"scattering.{backend}.per_step_us"] = _mean([dur(s) / s["steps"] * 1e6 for s in hits])
    out["qmath.state_checks_s"] = per_call("qmath.state_check")
    out["scattering.filter.per_state_s"] = per_call("scattering.filter")
    out["scattering.filter.calls"] = count("scattering.filter")

    grids, builds = pick("pulse.grid")[0], pick("pulse.build")[0]
    out["pulse.build_s"] = (sum(map(dur, grids)) + sum(map(dur, builds))) / max(1, len(builds))
    out["pulse.fft_s"] = per_call("pulse.fft")
    out["pulse.builds_per_point"] = count("pulse.build") / points

    out["gate.fidelity_per_point_us"] = per_call("gate.gate_fidelity") * 1e6
    sweeps, _, table = pick("gate.sweep")
    out["gate.sweep_self_s"] = _mean([table[s["id"]] for s in sweeps])

    levels, pool, _ = pick("cli.cmd_levels")
    per_point = []
    for lv in levels:
        io = sum(dur(c) for c in pool if c["parent"] == lv["id"]
                 and c["name"] in ("cli.write_rows", "svgplot.save_chart"))
        per_point.append((dur(lv) - io) / levels_points * 1e6)
    out["device.levels_per_point_us"] = _mean(per_point)
    out["device.validate_regime_s"] = per_call("device.validate_regime")

    per_run: dict[str, float] = {}
    for s in spans:
        if s["name"].startswith("cli."):
            per_run[s["run"]] = per_run.get(s["run"], 0.0) + own[1][s["id"]]
    out["cli.self_s"] = _mean(list(per_run.values()))
    written = [Path(s["path"]) for s in spans if s["name"] == "cli.write_rows"]
    out["cli.csv_rows"] = sum(len(p.read_text().splitlines()) - 1 for p in written)
    out["cli.csv_bytes"] = sum(p.stat().st_size for p in written)
    out["svgplot.save_chart_s"] = per_call("svgplot.save_chart")
    out["svgplot.bytes"] = sum(Path(s["path"]).stat().st_size
                               for s in spans if s["name"] == "svgplot.save_chart")
    return out


def coverage(spans: list[dict], wall: float) -> tuple[float, float]:
    """(sum of all self times / wall, sum of root spans / wall).

    The first equals the second when spans nest properly; the second
    says how much of the traced pass the invocation spans account for.
    """
    own = self_times(spans)
    roots = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    return sum(own.values()) / wall, roots / wall
