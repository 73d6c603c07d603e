"""Batch front-end: read a sectioned config, run a subcommand, write artifacts.

All frequencies in the config are given as f/2pi in MHz (key names carry
the unit) to match how the operating point is usually stated; everything
internal is angular (rad/s).  Outputs are deterministic: fixed significant
digits, '.' decimal separator, stable column order.

Exit codes: 0 success, 2 configuration problem, 3 numerical-contract
failure (passivity, trace drift, invalid sweep values, a floating-point
overflow, division by zero or invalid operation, a non-finite CSV value).
No run ends in a traceback.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .device import (
    CircuitParams,
    DeviceParams,
    ZeemanParams,
    charge_dephasing_estimate,
    coupling_g,
    dqd_hamiltonian,
    energy_gap,
    mixing_angle,
    resonator_fundamental,
    s_parameter,
    spin_dephasing_estimate,
    validate_regime,
)
from .errors import ConfigError, NumericsError
from .gate import _default_pulse, sweep_coupling_variation, sweep_photon_number
from .pulse import MIN_GRID_SAMPLES, default_grid
from .scattering import (BACKENDS, DEFAULT_FOCK_DIM, STATE_LABELS, _check_amplitude,
                         scatter_all_states, xi_effective)
from .svgplot import save_chart

_TWO_PI_MHZ = 2.0 * math.pi * 1e6

# Size limits, checked in load_config before anything is allocated.  The
# default grid has 2,817 samples; tau_over_kappa = 0.01 would ask for
# about 2 million, which the time-domain backends cannot finish.
MAX_GRID_SAMPLES = 100_000
MAX_SWEEP_POINTS = 1_000
MAX_LEVELS_POINTS = 100_000
# One master batch element holds about 8 complex (2 fock_dim)^2 arrays
# (the RK4 state, slopes and stage pair, and its generator): 512 fock_dim^2
# bytes, 32 MiB at this cap.  fock_dim = 5000 would ask for 12.8 GB.
MAX_FOCK_DIM = 256

FIDELITY_COLUMNS = (
    "x_value",
    "fidelity",
    "eps_00",
    "eps_01",
    "eps_11",
    "eta_00",
    "eta_01",
    "eta_11",
    "xi_00",
    "xi_01",
    "xi_11",
    "mean_photon_exact",
)


@dataclass
class RunConfig:
    device: DeviceParams
    gradient_field: float | None     # T, for the spin dephasing estimate
    tau: float
    samples: int | None
    sweep_kind: str
    sweep_points: list[float]
    sweep_alpha: complex
    backend: str
    fock_dim: int
    levels_span: float               # |delta| range in units of tunneling
    levels_points: int
    output_dir: Path


def _get(cp: configparser.ConfigParser, section: str, key: str, default=None) -> str:
    try:
        return cp.get(section, key)
    except (configparser.NoSectionError, configparser.NoOptionError):
        if default is not None:
            return default
        raise ConfigError(f"[{section}] missing key '{key}'") from None


def _get_float(cp, section, key, default=None) -> float:
    raw = _get(cp, section, key, default)
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key} = {raw!r} is not a number") from None
    if not math.isfinite(value):
        raise ConfigError(f"[{section}] {key} = {raw!r} is not finite")
    return value


def _get_int(cp, section, key, default=None) -> int:
    raw = _get(cp, section, key, default)
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key} = {raw!r} is not an integer") from None


def _parse_points(text: str, section: str) -> list[float]:
    """Either 'start:stop:count' or a comma-separated list."""
    text = text.strip()
    try:
        if ":" in text:
            start, stop, n = text.split(":")        # a ValueError unless three parts
            values, count = [float(start), float(stop)], int(n)
            if count < 1:
                raise ValueError
        else:
            values = [float(x) for x in text.split(",") if x.strip()]
            count = len(values)
    except ValueError:
        raise ConfigError(
            f"[{section}] points = {text!r}: expected 'start:stop:count' or a comma list"
        ) from None
    if not all(math.isfinite(x) for x in values):
        raise ConfigError(f"[{section}] points = {text!r}: values must be finite")
    if count > MAX_SWEEP_POINTS:
        raise ConfigError(f"[{section}] points: {count} points, more than {MAX_SWEEP_POINTS}")
    if ":" not in text:
        return values
    if not math.isfinite(values[1] - values[0]):
        raise ConfigError(f"[{section}] points = {text!r}: stop - start is not finite")
    return [float(x) for x in np.linspace(*values, count)]


def _check_config_amplitude(alpha: complex, key: str) -> None:
    """scattering's amplitude rule on the [sweep] key, as a config error."""
    try:
        _check_amplitude(alpha)
    except ValueError as exc:
        raise ConfigError(f"[sweep] {key}: {exc}") from None


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser()
    cp.optionxform = str        # keys carry unit suffixes with capitals
    try:
        cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None

    rate = _get_float(cp, "device", "relaxation_rate_over_2pi_MHz")
    if rate <= 0:
        raise ConfigError("[device] relaxation_rate_over_2pi_MHz must be positive")

    circuit = None
    if cp.has_section("circuit"):
        circuit = CircuitParams(
            length_L=_get_float(cp, "circuit", "length_m"),
            cap_per_len_C0=_get_float(cp, "circuit", "cap_per_len_pF_per_m") * 1e-12,
            impedance_Z0=_get_float(cp, "circuit", "impedance_ohm"),
            coupling_ratio_v=_get_float(cp, "circuit", "coupling_ratio"),
        )

    zeeman = None
    gradient = None
    if cp.has_section("zeeman"):
        zeeman = ZeemanParams(
            g_factor=_get_float(cp, "zeeman", "g_factor"),
            b_field=_get_float(cp, "zeeman", "b_field_T"),
        )
        gradient = _get_float(cp, "zeeman", "gradient_field_mT", "0") * 1e-3

    try:
        device = DeviceParams(
            delta=_get_float(cp, "device", "delta_over_2pi_MHz") * _TWO_PI_MHZ,
            tunneling=_get_float(cp, "device", "tunneling_over_2pi_MHz") * _TWO_PI_MHZ,
            g_coupling=_get_float(cp, "device", "g_over_2pi_MHz") * _TWO_PI_MHZ,
            kappa=_get_float(cp, "device", "kappa_over_2pi_MHz") * _TWO_PI_MHZ,
            detuning=_get_float(cp, "device", "detuning_over_2pi_MHz") * _TWO_PI_MHZ,
            t1=1.0 / (rate * _TWO_PI_MHZ),
            tb=_get_float(cp, "device", "tb_ns", "0") * 1e-9,
            circuit=circuit,
            zeeman=zeeman,
        )
    except ValueError as exc:
        raise ConfigError(f"[device] {exc}") from None

    tau_k = _get_float(cp, "pulse", "tau_over_kappa")
    if tau_k <= 0:
        raise ConfigError("[pulse] tau_over_kappa must be positive")
    samples = _get_int(cp, "pulse", "samples", "0")
    if samples < 0 or 0 < samples < MIN_GRID_SAMPLES:
        raise ConfigError(
            f"[pulse] samples = {samples}: need 0 (automatic) or at least {MIN_GRID_SAMPLES}"
        )
    tau = tau_k / device.kappa
    try:        # default_grid only does arithmetic; it allocates nothing
        n_samples = samples or default_grid(tau, device.kappa).n_samples
    except OverflowError:
        n_samples = math.inf
    if n_samples > MAX_GRID_SAMPLES:
        raise ConfigError(
            f"[pulse] the time grid would hold {n_samples} samples, more than "
            f"{MAX_GRID_SAMPLES}; raise tau_over_kappa or set samples"
        )

    kind = _get(cp, "sweep", "kind", "photon").strip()
    if kind not in ("photon", "coupling"):
        raise ConfigError(f"[sweep] kind = {kind!r}: expected photon or coupling")
    points = _parse_points(_get(cp, "sweep", "points"), "sweep")
    alpha = _get_float(cp, "sweep", "alpha", "1")
    if kind == "coupling":
        _check_config_amplitude(alpha, "alpha")
        for x in points:
            if not -1.0 < x <= 1.0:
                raise ConfigError(f"[sweep] coupling fraction {x} outside (-1, 1]")
    else:
        for x in filter(None, points):      # 0 is the exact zero-amplitude point
            _check_config_amplitude(x, "points")

    backend = _get(cp, "run", "backend", "filter").strip()
    if backend not in BACKENDS:
        raise ConfigError(f"[run] backend = {backend!r}: expected one of {BACKENDS}")
    fock_dim = _get_int(cp, "run", "fock_dim", str(DEFAULT_FOCK_DIM))
    if not 2 <= fock_dim <= MAX_FOCK_DIM:
        raise ConfigError(f"[run] fock_dim = {fock_dim}: need 2 to {MAX_FOCK_DIM}")

    levels_span = _get_float(cp, "levels", "delta_max_over_T", "50")
    levels_points = _get_int(cp, "levels", "points", "201")
    if levels_span <= 0 or levels_points < 3:
        raise ConfigError("[levels] needs delta_max_over_T > 0 and points >= 3")
    if levels_points > MAX_LEVELS_POINTS:
        raise ConfigError(f"[levels] points = {levels_points}, more than {MAX_LEVELS_POINTS}")

    return RunConfig(
        device=device,
        gradient_field=gradient,
        tau=tau,
        samples=samples or None,
        sweep_kind=kind,
        sweep_points=points,
        sweep_alpha=complex(alpha),
        backend=backend,
        fock_dim=fock_dim,
        levels_span=levels_span,
        levels_points=levels_points,
        output_dir=Path("out"),
    )


def _g12(x: float) -> str:
    return f"{x:.12g}"


# _g12 of a non-finite float
_NON_FINITE = frozenset(("nan", "inf", "-inf"))


def _write_rows(path: Path, header, rows) -> None:
    """The one CSV writer; a non-finite number fails the run before the
    file is opened."""
    cells = [[v if isinstance(v, str) else _g12(v) for v in row] for row in rows]
    for row in cells:
        if not _NON_FINITE.isdisjoint(row):
            raise NumericsError(f"{path.name} would hold a non-finite value: {','.join(row)}")
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(cells)


def cmd_levels(cfg: RunConfig, plot: bool) -> int:
    t = cfg.device.tunneling
    if t == 0:
        raise ConfigError("[device] tunneling_over_2pi_MHz must be nonzero for levels")
    deltas = np.linspace(-cfg.levels_span * t, cfg.levels_span * t, cfg.levels_points)
    low, high = np.array([np.linalg.eigvalsh(dqd_hamiltonian(d, t)) for d in deltas]).T
    gap = high - low
    columns = {
        "delta_rad_per_s": deltas,
        "energy_low_rad_per_s": low,
        "energy_high_rad_per_s": high,
        "gap_rad_per_s": gap,
    }
    out = cfg.output_dir / "levels.csv"
    _write_rows(out, columns, zip(*columns.values()))
    if plot:
        save_chart(
            cfg.output_dir / "levels.svg",
            deltas,
            gap,
            title="charge gap vs bias",
            x_label="delta (rad/s)",
            y_label="gap (rad/s)",
        )
    print(f"wrote {out} ({len(deltas)} rows); min gap {_g12(gap.min())} rad/s")
    return 0


def _named(name: str, fn, *args, **kwargs):
    """fn(*args, **kwargs); a failure, a floating-point fault included, is
    reported as a numerics failure of `name`."""
    try:
        return fn(*args, **kwargs)
    except (NumericsError, ValueError, ArithmeticError) as exc:
        raise NumericsError(f"{name}: {exc}") from exc


def _run_backend(cfg: RunConfig, fn, *args, **kwargs):
    """fn(*args, **kwargs) on the configured backend and Fock size, named after the backend."""
    return _named(f"backend {cfg.backend}", fn, *args, backend=cfg.backend, fock_dim=cfg.fock_dim, **kwargs)


def cmd_reflect(cfg: RunConfig, plot: bool) -> int:
    alpha = cfg.sweep_alpha
    _check_config_amplitude(alpha, "alpha")
    f_in = _default_pulse(cfg.device, cfg.tau, cfg.samples)
    results = _run_backend(cfg, scatter_all_states, f_in, alpha, cfg.device)

    times = f_in.grid.times()
    g_in = alpha * f_in.envelope
    summary = []
    for label in STATE_LABELS:
        r = results[label]
        g_out = abs(r.alpha_out) * r.f_out.envelope
        trace = {"time_s": times, "in_re": g_in.real, "in_im": g_in.imag,
                 "out_re": g_out.real, "out_im": g_out.imag}
        _write_rows(cfg.output_dir / f"reflect_{label}.csv", trace, zip(*trace.values()))
        if plot:
            save_chart(
                cfg.output_dir / f"reflect_{label}.svg",
                times,
                np.abs(g_out) ** 2,
                title=f"reflected power, state {label}",
                x_label="t (s)",
                y_label="|g_out|^2",
            )
        xi_eff = xi_effective(r)
        summary.append({
            "state": label,
            "xi_analytic": float(np.real(r.xi)),
            "xi_eff_re": xi_eff.real,
            "xi_eff_im": xi_eff.imag,
            "epsilon": r.epsilon,
            "eta": r.eta,
            "phase_rad": r.phase,
            "alpha_out_re": r.alpha_out.real,
            "alpha_out_im": r.alpha_out.imag,
            "backend": r.backend,
        })
    out = cfg.output_dir / "reflect_summary.csv"
    _write_rows(out, summary[0], (record.values() for record in summary))
    print(f"wrote {out}")
    for record in summary:
        print(
            "  state {state}: xi_eff = {xi_eff_re:+.6f}{xi_eff_im:+.6f}j"
            "  eps = {epsilon:.4g}  eta = {eta:.4g}  phase = {phase_rad:+.4f}".format(**record)
        )
    flagged = [lab for lab in STATE_LABELS if results[lab].diagnostics.get("unreliable")]
    if flagged:
        print(
            f"warning: {len(flagged)} of {len(STATE_LABELS)} states ({', '.join(flagged)}) "
            f"outside the validity range of the {cfg.backend} backend",
            file=sys.stderr,
        )
    return 0


def _fidelity_row(p) -> list[float]:
    """The FIDELITY_COLUMNS of one sweep point, in order."""
    values = {"x_value": p.x_value, "fidelity": p.fidelity, "mean_photon_exact": p.mean_photon}
    for lab, (xi, eps, eta) in p.per_state.items():
        values.update({f"xi_{lab}": xi, f"eps_{lab}": eps, f"eta_{lab}": eta})
    return [values[col] for col in FIDELITY_COLUMNS]


def cmd_fidelity(cfg: RunConfig, plot: bool) -> int:
    if cfg.sweep_kind == "photon":
        sweep, args, x_label = sweep_photon_number, (), "mean photon number |alpha|^2"
    else:
        sweep, args, x_label = sweep_coupling_variation, (cfg.sweep_alpha,), "fractional coupling change"
    points = _run_backend(
        cfg, sweep, cfg.device, cfg.sweep_points, *args, tau=cfg.tau, n_samples=cfg.samples
    )
    out = cfg.output_dir / "fidelity.csv"
    _write_rows(out, FIDELITY_COLUMNS, map(_fidelity_row, points))
    if plot:
        save_chart(
            cfg.output_dir / "fidelity.svg",
            [p.x_value for p in points],
            [p.fidelity for p in points],
            title="gate fidelity",
            x_label=x_label,
            y_label="F",
        )
    print(f"wrote {out} ({len(points)} rows)")
    flagged = sum(p.unreliable for p in points)
    if flagged:
        print(
            f"warning: {flagged} of {len(points)} points have a state outside the "
            f"validity range of the {cfg.backend} backend",
            file=sys.stderr,
        )
    return 0


def cmd_regime(cfg: RunConfig, plot: bool) -> int:
    d = cfg.device
    two_pi = 2 * math.pi
    # ahead of validate_regime, which evaluates it too, so that its fault is named
    if d.circuit is not None:
        w0 = _named("resonator fundamental", resonator_fundamental, d.circuit)
    print("operating-regime report")
    print(
        f"  configured: g/2pi = {d.g_coupling / two_pi / 1e6:.6g} MHz, "
        f"kappa/2pi = {d.kappa / two_pi / 1e6:.6g} MHz, "
        f"1/(2pi T1) = {1.0 / d.t1 / two_pi / 1e6:.6g} MHz"
    )

    for chk in validate_regime(d, tau=cfg.tau):
        margin = "" if chk.margin is None else f"  margin {chk.margin:.3g}"
        print(f"  check {chk.name:<18} {chk.status:<7}{margin}  {chk.detail}")

    s = s_parameter(d.g_coupling, d.t1, d.kappa) if d.g_coupling > 0 else 0.0
    print(f"  s = g^2 T1 / kappa = {s:.6g}")
    print(f"  photon-loss scale 1/s = {1.0 / s if s else math.inf:.4g}")

    gap = energy_gap(d.delta, d.tunneling)
    print(f"  charge gap/2pi = {gap / two_pi / 1e9:.6g} GHz")
    if d.circuit is not None:
        g_formula = coupling_g(d.circuit, mixing_angle(d.delta, d.tunneling))
        ratio = _named("coupling from circuit geometry", lambda: d.g_coupling / g_formula)
        print(f"  resonator fundamental/2pi = {w0 / two_pi / 1e9:.6g} GHz")
        print(
            f"  coupling from circuit geometry/2pi = {g_formula / two_pi / 1e6:.6g} MHz "
            f"(configured {d.g_coupling / two_pi / 1e6:.6g} MHz, "
            f"ratio {ratio:.3g})"
        )
    else:
        print("  coupling from circuit geometry: skipped (no [circuit] section)")

    if d.tb > 0:
        t2 = charge_dephasing_estimate(gap, d.tb)
        print(f"  charge dephasing estimate T2 = {t2 * 1e9:.4g} ns (switching time {d.tb * 1e9:.3g} ns)")
    else:
        print("  charge dephasing estimate: skipped (tb_ns not set)")
    if d.zeeman is not None and cfg.gradient_field:
        t2s = _named("spin dephasing estimate", spin_dephasing_estimate,
                     d.zeeman.g_factor, cfg.gradient_field)
        print(
            f"  spin dephasing estimate T2* = {t2s * 1e9:.4g} ns "
            f"(gradient {cfg.gradient_field * 1e3:.4g} mT)"
        )
    else:
        print("  spin dephasing estimate: skipped (no gradient_field_mT)")

    print(f"  gate time (one pulse, tau) = {cfg.tau * 1e9:.4g} ns vs T1 = {d.t1 * 1e9:.4g} ns")
    print("  alternate duration figure: ~100 ns (does not follow from tau*kappa; listed for comparison)")
    return 0


_DISPATCH = {
    "levels": cmd_levels,
    "reflect": cmd_reflect,
    "fidelity": cmd_fidelity,
    "regime": cmd_regime,
}


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sim",
        description="Resonator-mediated two-qubit gate simulator",
    )
    ap.add_argument("command", choices=sorted(_DISPATCH))
    ap.add_argument("--config", required=True, help="sectioned key-value config file")
    ap.add_argument("--backend", choices=BACKENDS, help="override [run] backend")
    ap.add_argument("--plot", action="store_true", help="also write SVG charts")
    ap.add_argument("--out", help="output directory (default: out)")
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # a floating-point fault raises FloatingPointError, an ArithmeticError,
        # where it happens instead of warning and carrying inf or NaN on
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            cfg = load_config(args.config)
            if args.backend:
                cfg.backend = args.backend
            if args.out:
                cfg.output_dir = Path(args.out)
            return _DISPATCH[args.command](cfg, args.plot)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericsError, ValueError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
