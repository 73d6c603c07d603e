"""Seeded workload generator: one config file per `sim` invocation.

The seed jitters g, kappa and the relaxation rate by up to +/-10 % and
draws a detuning within +/-10 % of the baseline kappa.  tau*kappa stays
10, so the time grid (2,817 samples) and the RK4 step counts, which set
the amount of work, do not depend on the seed.  A draw is rejected and
redrawn when the grid size would differ or when the operating-regime
checks would not all pass; both tests repeat the program's arithmetic
here so the generator never imports the program.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("photon_meanfield", "reflect_master", "cli_filter_mix")

N_SAMPLES = 2817            # default_grid at tau*kappa = 10
RK4_STEPS = 4 * (N_SAMPLES - 1)
TAU_OVER_KAPPA = 10
MASTER_ALPHA = 0.5
MASTER_FOCK_DIM = 12
PHOTON_POINTS = "0:22:23"
COUPLING_POINTS = "-0.2:0.2:11"
FILTER_MIX_DEVICES = 3
LEVELS_POINTS = 201

_TWO_PI_MHZ = 2.0 * math.pi * 1e6

_TEMPLATE = """\
[device]
delta_over_2pi_MHz = 0
tunneling_over_2pi_MHz = 5000
g_over_2pi_MHz = {g}
kappa_over_2pi_MHz = {kappa}
detuning_over_2pi_MHz = {detuning}
relaxation_rate_over_2pi_MHz = {rate}
tb_ns = 1

[circuit]
length_m = 0.03
cap_per_len_pF_per_m = 33.3333333333333
impedance_ohm = 50
coupling_ratio = 0.2

[zeeman]
g_factor = -13
b_field_T = 1
gradient_field_mT = 0.21868

[pulse]
tau_over_kappa = {tau_k}
samples = {samples}

[sweep]
kind = {kind}
points = {points}
alpha = {alpha}

[run]
backend = {backend}
fock_dim = {fock_dim}

[levels]
delta_max_over_T = 50
points = {levels_points}
"""


@dataclass(frozen=True)
class Device:
    g: float          # all f/2pi in MHz, as the config states them
    kappa: float
    rate: float
    detuning: float


@dataclass
class Invocation:
    """One `sim` process: its arguments and what its outputs must satisfy."""

    name: str
    command: str
    config: Path
    flags: tuple[str, ...] = ()
    csv_rows: dict[str, int] = field(default_factory=dict)   # file -> data rows
    svg_files: tuple[str, ...] = ()
    fidelity_points: int = 0
    photon_sweep: bool = False

    def argv(self, out_dir: Path) -> list[str]:
        return [self.command, "--config", str(self.config), *self.flags, "--out", str(out_dir)]

    @property
    def states(self) -> int:
        """Joint-state reflections the invocation reports.

        reflect reports all four states; a fidelity sweep reports 00, 01
        and 11 per point (10 shares the 01 run).
        """
        if self.command == "reflect":
            return 4
        return 3 * self.fidelity_points

    @property
    def points(self) -> int:
        """Amplitude or coupling values evaluated: one per reflect, one per sweep point."""
        return 1 if self.command == "reflect" else self.fidelity_points


def grid_samples(kappa_mhz: float, tau_k: float = TAU_OVER_KAPPA) -> int:
    """n_samples of the automatic grid, with load_config's and default_grid's arithmetic."""
    kappa = kappa_mhz * _TWO_PI_MHZ
    tau = tau_k / kappa
    t_start = -tau / 2.0
    t_end = tau + 40.0 / kappa
    dt_target = min(1.0 / (20.0 * kappa), tau / 512.0)
    return int(math.ceil((t_end - t_start) / dt_target)) + 1


def regime_passes(dev: Device, tau_k: float = TAU_OVER_KAPPA) -> bool:
    """The strong_reflection and adiabatic_pulse checks of validate_regime.

    The Zeeman and resonance checks depend only on fields the generator
    never changes.
    """
    g = dev.g * _TWO_PI_MHZ
    kappa = dev.kappa * _TWO_PI_MHZ
    t1 = 1.0 / (dev.rate * _TWO_PI_MHZ)
    tau = tau_k / kappa
    return g * g * t1 / kappa >= 10 and tau * kappa >= 10


def draw_device(rng: random.Random) -> Device:
    while True:
        dev = Device(
            g=round(120.0 * rng.uniform(0.9, 1.1), 4),
            kappa=round(100.0 * rng.uniform(0.9, 1.1), 4),
            rate=round(1.0 * rng.uniform(0.9, 1.1), 6),
            detuning=round(rng.uniform(-10.0, 10.0), 4),
        )
        if grid_samples(dev.kappa) == N_SAMPLES and regime_passes(dev):
            return dev


QUICK_FOCK_DIM = 4
QUICK_SAMPLES = N_SAMPLES // 10


def write_config(path: Path, dev: Device, quick: bool = False, **sweep) -> Path:
    values = dict(
        kind="photon",
        points=PHOTON_POINTS,
        alpha=20,
        backend="filter",
        fock_dim=QUICK_FOCK_DIM if quick else MASTER_FOCK_DIM,
        tau_k=TAU_OVER_KAPPA,
        samples=QUICK_SAMPLES if quick else 0,
    )
    values.update(sweep)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(_TEMPLATE.format(g=dev.g, kappa=dev.kappa, rate=dev.rate,
                                     detuning=dev.detuning, levels_points=LEVELS_POINTS,
                                     **values))
    return path


def generate(workload: str, seed: int, cfg_dir: Path, quick: bool = False) -> list[Invocation]:
    """Write the configs for one pass of `workload` and return its invocations.

    `quick` shrinks every invocation for the smoke test: a two-point
    meanfield sweep, a small Fock space and a 10x coarser grid for master,
    one device for the filter mix.  Its inputs differ from the full
    workload's, so reference values do not apply to it.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"perfbench:{workload}:{seed}")
    labels = ("00", "01", "10", "11")
    reflect_svgs = tuple(f"reflect_{s}.svg" for s in labels)

    def reflect_rows(n_samples: int) -> dict[str, int]:
        return {**{f"reflect_{s}.csv": n_samples for s in labels}, "reflect_summary.csv": 4}

    if workload == "photon_meanfield":
        dev = draw_device(rng)
        points = "0:1:2" if quick else PHOTON_POINTS
        cfg = write_config(cfg_dir / "photon_meanfield.cfg", dev, quick, points=points,
                           backend="meanfield")
        n_points = 2 if quick else 23
        return [Invocation("fidelity_meanfield", "fidelity", cfg, ("--backend", "meanfield"),
                           {"fidelity.csv": n_points}, fidelity_points=n_points,
                           photon_sweep=True)]

    if workload == "reflect_master":
        dev = draw_device(rng)
        cfg = write_config(cfg_dir / "reflect_master.cfg", dev, quick, alpha=MASTER_ALPHA,
                           backend="master")
        return [Invocation("reflect_master", "reflect", cfg, ("--backend", "master"),
                           reflect_rows(QUICK_SAMPLES if quick else N_SAMPLES))]

    out = []
    for k in range(1 if quick else FILTER_MIX_DEVICES):
        dev = draw_device(rng)
        base = cfg_dir / f"dev{k}"
        n_samples = QUICK_SAMPLES if quick else N_SAMPLES

        def cfg(name: str, **sweep) -> Path:
            return write_config(base / f"{name}.cfg", dev, quick, **sweep)

        out += [
            Invocation(f"dev{k}.levels", "levels", cfg("levels"),
                       ("--plot",), {"levels.csv": LEVELS_POINTS}, ("levels.svg",)),
            Invocation(f"dev{k}.regime", "regime", cfg("regime")),
            Invocation(f"dev{k}.reflect", "reflect", cfg("reflect"),
                       ("--plot",), reflect_rows(n_samples), reflect_svgs),
            Invocation(f"dev{k}.fidelity_photon", "fidelity",
                       cfg("fidelity_photon"),
                       (), {"fidelity.csv": 23}, fidelity_points=23, photon_sweep=True),
            Invocation(f"dev{k}.fidelity_coupling", "fidelity",
                       cfg("fidelity_coupling", kind="coupling", points=COUPLING_POINTS),
                       ("--plot",), {"fidelity.csv": 11}, ("fidelity.svg",),
                       fidelity_points=11),
        ]
    return out
