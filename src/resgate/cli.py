"""Batch front-end: read a sectioned config, run a subcommand, write artifacts.

All frequencies in the config are given as f/2pi in MHz (key names carry
the unit) to match how the operating point is usually stated; everything
internal is angular (rad/s).  Outputs are deterministic: fixed significant
digits, '.' decimal separator, stable column order.

Exit codes: 0 success, 2 configuration problem (an output path that cannot
be written included), 3 numerical-contract failure (passivity, trace drift,
invalid sweep values, a floating-point overflow, division by zero or invalid
operation, a non-finite CSV value or chart coordinate).  No run ends in a
traceback.

A command returns its files, rendered and checked, and its lines; `main`
alone writes them, so every file is checked before the first is written and
a failed check writes none.  The limit: an OS error while writing (say, a
directory named reflect_01.csv in --out) exits 2 after the files before it.
"""

from __future__ import annotations

import argparse
import configparser
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
from .gate import (_check_coupling_fraction, _default_pulse, sweep_coupling_variation,
                   sweep_photon_number)
from .pulse import MIN_GRID_SAMPLES, default_grid
from .scattering import (BACKENDS, DEFAULT_FOCK_DIM, STATE_LABELS, _check_amplitude,
                         scatter_all_states, xi_effective)
from .svgplot import line_chart, save_chart

_TWO_PI_MHZ = 2.0 * math.pi * 1e6      # f/2pi in MHz to rad/s

# Size limits, checked in load_config before anything is allocated.  The
# default grid has 2,817 samples; tau_over_kappa = 0.01 would ask for
# about 2 million, which the time-domain backends cannot finish.
MAX_GRID_SAMPLES = 100_000
MAX_SWEEP_POINTS = 1_000
MAX_LEVELS_POINTS = 100_000
# One master batch element peaks at about 1,350 fock_dim^2 bytes while RK4
# steps: the state, slopes, stage pair, generators and jump weights, each a
# complex (2 fock_dim)^2 array, and its rows of a forcing chunk.  The
# undriven tail peaks lower, at about 1,050: the (4 fock_dim - 2)^2 maps of
# the sectors it reads, and a matrix power's temporaries
# (scattering._free_decay).  A batch shares up to about 1,900 fock_dim^2
# bytes more (tracemalloc peaks at fock_dim 64, batches of 1 and 4): at
# most about 85 MiB per element at this cap.  fock_dim = 5000 would ask for
# 34 GB per element.
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
    tau: float
    samples: int | None
    sweep_kind: str
    sweep_points: list[float]
    sweep_alpha: complex
    backend: str
    fock_dim: int
    levels_span: float               # |delta| range in units of tunneling
    levels_points: int
    gradient_field: float | None = None     # T, for the spin dephasing estimate
    output_dir: Path = Path("out")


# Readers: each turns the text of one value into the value, or raises
# ValueError with the reason.

def _parse(kind, text: str, reason: str):
    try:
        return kind(text)
    except ValueError:
        raise ValueError(reason) from None


def _within(reader, ok, reason: str):
    """`reader`, refusing a value that fails ok(value) with `reason`."""
    def read(text: str):
        value = reader(text)
        if not ok(value):
            raise ValueError(reason)
        return value
    return read


_real = _within(lambda text: _parse(float, text, "is not a number"), math.isfinite, "is not finite")
_positive = _within(_real, lambda x: x > 0, "must be positive")
_non_negative = _within(_real, lambda x: x >= 0, "must be >= 0")


def _int_in(lo: int, hi: int, auto: bool = False):
    """A reader of an int from lo to hi, or, if `auto`, of 0 as None (automatic)."""
    read = _within(lambda text: _parse(int, text, "is not an integer"),
                   lambda n: lo <= n <= hi or auto and n == 0,
                   f"must be {'0 (automatic) or ' if auto else ''}{lo} to {hi}")
    return (lambda text: read(text) or None) if auto else read


def _word(*words: str):
    """A reader of one of `words`."""
    return _within(str, words.__contains__, f"must be one of {', '.join(words)}")


def _points(text: str) -> list[float]:
    """Sweep points: 'start:stop:count' or a comma list."""
    ranged = ":" in text
    try:
        if ranged:
            start, stop, n = text.split(":")        # a ValueError unless three parts
            values, count = [float(start), float(stop)], int(n)
        else:
            values = [float(x) for x in text.split(",") if x.strip()]
            count = len(values)
    except ValueError:
        raise ValueError("must be 'start:stop:count' or a comma list") from None
    if not all(map(math.isfinite, values)):
        raise ValueError("has a value that is not finite")
    if not 1 <= count <= MAX_SWEEP_POINTS:
        raise ValueError(f"must be 1 to {MAX_SWEEP_POINTS} points, not {count}")
    if ranged and not math.isfinite(values[1] - values[0]):
        raise ValueError("has a span stop - start that is not finite")
    return [float(x) for x in np.linspace(*values, count)] if ranged else values


def _times(factor: float):
    return lambda value: value * factor


_MHZ = _times(_TWO_PI_MHZ)

# Every key the program reads, one row each: (section, key) -> (default
# text, None if required; reader; conversion to SI, None if none; field: a
# parameter of the section's constructor, or run.<name> for a RunConfig
# field).  The readers hold only the rules no constructor checks: the
# physical domains are DeviceParams', CircuitParams' and ZeemanParams'.
CONFIG_TABLE = {
    ("device", "delta_over_2pi_MHz"): (None, _real, _MHZ, "delta"),
    ("device", "tunneling_over_2pi_MHz"): (None, _real, _MHZ, "tunneling"),
    ("device", "g_over_2pi_MHz"): (None, _real, _MHZ, "g_coupling"),
    ("device", "kappa_over_2pi_MHz"): (None, _real, _MHZ, "kappa"),
    ("device", "detuning_over_2pi_MHz"): (None, _real, _MHZ, "detuning"),
    ("device", "relaxation_rate_over_2pi_MHz"):
        (None, _positive, lambda rate: 1.0 / (rate * _TWO_PI_MHZ), "t1"),
    ("device", "tb_ns"): ("0", _real, _times(1e-9), "tb"),
    ("circuit", "length_m"): (None, _real, None, "length_L"),
    ("circuit", "cap_per_len_pF_per_m"): (None, _real, _times(1e-12), "cap_per_len_C0"),
    ("circuit", "impedance_ohm"): (None, _real, None, "impedance_Z0"),
    ("circuit", "coupling_ratio"): (None, _real, None, "coupling_ratio_v"),
    ("zeeman", "g_factor"): (None, _real, None, "g_factor"),
    ("zeeman", "b_field_T"): (None, _real, None, "b_field"),
    ("zeeman", "gradient_field_mT"): ("0", _non_negative, _times(1e-3), "run.gradient_field"),
    # tau * kappa; load_config divides it by kappa
    ("pulse", "tau_over_kappa"): (None, _positive, None, "run.tau"),
    ("pulse", "samples"): ("0", _int_in(MIN_GRID_SAMPLES, MAX_GRID_SAMPLES, auto=True), None, "run.samples"),
    ("sweep", "kind"): ("photon", _word("photon", "coupling"), None, "run.sweep_kind"),
    ("sweep", "points"): (None, _points, None, "run.sweep_points"),
    ("sweep", "alpha"): ("1", _real, complex, "run.sweep_alpha"),
    ("run", "backend"): ("filter", _word(*BACKENDS), None, "run.backend"),
    ("run", "fock_dim"): (str(DEFAULT_FOCK_DIM), _int_in(2, MAX_FOCK_DIM), None, "run.fock_dim"),
    ("levels", "delta_max_over_T"): ("50", _positive, None, "run.levels_span"),
    ("levels", "points"): ("201", _int_in(3, MAX_LEVELS_POINTS), None, "run.levels_points"),
}
# sections a file may leave out whole (if it has one, it has all its required keys), and the part each builds
_PARTS = {"circuit": CircuitParams, "zeeman": ZeemanParams}


def _as_config(where: str, fn, *args, **kwargs):
    """fn(*args, **kwargs); a ValueError is a config error of `where`."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where} {exc}") from None


def _read_table(cp: configparser.ConfigParser) -> dict[str, dict[str, object]]:
    """target ("run" or the section) -> {field: value in SI}, of every row whose section is there."""
    sections = {section for section, _ in CONFIG_TABLE}
    for key in cp.defaults():       # configparser would copy it into every section
        raise ConfigError(f"[DEFAULT] unknown key '{key}'")
    for section in cp.sections():
        if section not in sections:
            raise ConfigError(f"unknown section [{section}]")
        for key in cp[section]:
            if (section, key) not in CONFIG_TABLE:
                raise ConfigError(f"[{section}] unknown key '{key}'")
    values = {}
    for (section, key), (default, reader, to_si, field) in CONFIG_TABLE.items():
        if section in _PARTS and not cp.has_section(section):
            continue
        raw = cp.get(section, key, fallback=default)
        if raw is None:
            raise ConfigError(f"[{section}] missing key '{key}'")
        shown = " ".join(raw.split())       # a value may span lines
        value = _as_config(f"[{section}] {key} = {shown}", reader, raw)
        target, _, name = field.rpartition(".")
        values.setdefault(target or section, {})[name] = value if to_si is None else to_si(value)
    return values


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str        # keys carry unit suffixes with capitals
    try:
        cp.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:     # its message may span lines
        raise ConfigError(f"{path}: {' '.join(str(exc).split())}") from None
    v = _read_table(cp)
    parts = {name: _as_config(f"[{name}]", part, **v[name]) for name, part in _PARTS.items() if name in v}
    device = _as_config("[device]", DeviceParams, **v["device"], **parts)
    run = v["run"]
    run["tau"] /= device.kappa

    try:        # default_grid only does arithmetic; it allocates nothing
        n_samples = run["samples"] or default_grid(run["tau"], device.kappa).n_samples
    except OverflowError:
        n_samples = math.inf
    if n_samples > MAX_GRID_SAMPLES:
        # past 2^53 the count is a rounded float's digits: give three of them
        shown = f"{n_samples:.3g}" if n_samples > 2**53 else n_samples
        raise ConfigError(
            f"[pulse] the time grid would hold {shown} samples, more than "
            f"{MAX_GRID_SAMPLES}; raise tau_over_kappa or set samples"
        )

    points = run["sweep_points"]
    if run["sweep_kind"] == "coupling":
        # the config's real value, as the message shows it
        _as_config("[sweep] alpha:", _check_amplitude, run["sweep_alpha"].real)
        for x in points:
            _as_config("[sweep] points:", _check_coupling_fraction, x)
    else:
        for x in filter(None, points):      # 0 is the exact zero-amplitude point
            _as_config("[sweep] points:", _check_amplitude, x)
    return RunConfig(device=device, **run)


# a command's files as (path, text), CSVs first; its stdout lines; one stderr warning or None
Output = tuple[list[tuple[Path, str]], list[str], str | None]

# rows of an array that _csv formats at a time
_CSV_BLOCK = 256


def _csv(path: Path, header, rows) -> tuple[Path, str]:
    """(path, text) of one CSV: the header line, then one line per row with
    its numbers at 12 significant digits.  `rows` is a 2-D array of numbers
    or a sequence of rows of one column layout, which may hold strings.  A
    non-finite number raises NumericsError, naming the first row that holds one.

    An array is rendered _CSV_BLOCK rows at a time, each block one format
    call on its flat list of floats, so the scratch beside the text is one
    block's: no list of rows, floats or lines spans the file."""
    if isinstance(rows, np.ndarray):
        line = ",".join(["{:.12g}"] * rows.shape[1]) + "\n"
        blocks = [",".join(header) + "\n"]
        for start in range(0, len(rows), _CSV_BLOCK):
            block = rows[start : start + _CSV_BLOCK]
            text = (line * len(block)).format(*block.ravel().tolist())
            if "n" in text:     # in the text of a number only nan and inf hold an n
                bad = next(row for row in text.splitlines() if "n" in row)
                raise NumericsError(f"{path.name} would hold a non-finite value: {bad}")
            blocks.append(text)
        return path, "".join(blocks)
    rows = list(rows)
    words = [isinstance(v, str) for v in rows[0]] if rows else []
    line = ",".join("{}" if word else "{:.12g}" for word in words).format
    lines = [line(*row) for row in rows]
    if any(words):      # a word may hold an n ("meanfield"): test the numbers
        bad = [text for text, row in zip(lines, rows)
               if not all(math.isfinite(v) for v, word in zip(row, words) if not word)]
    else:               # in the text of a number only nan and inf hold an n
        bad = [text for text in lines if "n" in text]
    if bad:
        raise NumericsError(f"{path.name} would hold a non-finite value: {bad[0]}")
    return path, "\n".join([",".join(header), *lines, ""])


def _write_rows(path: Path, text: str) -> None:
    """Write the text of a CSV that _csv rendered."""
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _named(name: str, fn, *args, **kwargs):
    """fn(*args, **kwargs); a failure, a floating-point fault included, is
    reported as a numerics failure of `name`."""
    try:
        return fn(*args, **kwargs)
    except (NumericsError, ValueError, ArithmeticError) as exc:
        raise NumericsError(f"{name}: {exc}") from exc


def _chart(path: Path, xs, ys, **labels) -> tuple[Path, str]:
    """(path, SVG text) of one chart."""
    return path, _named(path.name, line_chart, xs, ys, **labels)


def cmd_levels(cfg: RunConfig, plot: bool) -> Output:
    t = cfg.device.tunneling
    if t == 0:
        raise ConfigError("[device] tunneling_over_2pi_MHz must be nonzero for levels")
    deltas = np.linspace(-cfg.levels_span * t, cfg.levels_span * t, cfg.levels_points)
    low, high = np.linalg.eigvalsh(np.array([dqd_hamiltonian(d, t) for d in deltas])).T
    gap = high - low
    columns = {
        "delta_rad_per_s": deltas,
        "energy_low_rad_per_s": low,
        "energy_high_rad_per_s": high,
        "gap_rad_per_s": gap,
    }
    charts = [_chart(cfg.output_dir / "levels.svg", deltas, gap, title="charge gap vs bias",
                     x_label="delta (rad/s)", y_label="gap (rad/s)")] if plot else []
    out = cfg.output_dir / "levels.csv"
    return ([_csv(out, columns, np.column_stack(list(columns.values()))), *charts],
            [f"wrote {out} ({len(deltas)} rows); min gap {gap.min():.12g} rad/s"], None)


def _run_backend(cfg: RunConfig, fn, *args, **kwargs):
    """fn(*args, **kwargs) on the configured backend and Fock size, named after the backend."""
    return _named(f"backend {cfg.backend}", fn, *args, backend=cfg.backend, fock_dim=cfg.fock_dim, **kwargs)


def cmd_reflect(cfg: RunConfig, plot: bool) -> Output:
    alpha = cfg.sweep_alpha
    _as_config("[sweep] alpha:", _check_amplitude, alpha)
    f_in = _default_pulse(cfg.device, cfg.tau, cfg.samples)
    results = _run_backend(cfg, scatter_all_states, f_in, alpha, cfg.device)

    times = f_in.grid.times()
    g_in = alpha * f_in.envelope
    g_outs = {label: abs(results[label].alpha_out) * results[label].f_out.envelope for label in STATE_LABELS}
    charts = [_chart(cfg.output_dir / f"reflect_{label}.svg", times, np.abs(g_out) ** 2,
                     title=f"reflected power, state {label}", x_label="t (s)", y_label="|g_out|^2")
              for label, g_out in g_outs.items()] if plot else []
    files, summary = [], []
    for label, g_out in g_outs.items():
        r = results[label]
        trace = {"time_s": times, "in_re": g_in.real, "in_im": g_in.imag,
                 "out_re": g_out.real, "out_im": g_out.imag}
        files.append(_csv(cfg.output_dir / f"reflect_{label}.csv", trace,
                          np.column_stack(list(trace.values()))))
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
    files.append(_csv(out, summary[0], (record.values() for record in summary)))
    line = ("  state {state}: xi_eff = {xi_eff_re:+.6f}{xi_eff_im:+.6f}j"
            "  eps = {epsilon:.4g}  eta = {eta:.4g}  phase = {phase_rad:+.4f}").format
    lines = [f"wrote {out}", *(line(**record) for record in summary)]
    flagged = [lab for lab in STATE_LABELS if results[lab].diagnostics.get("unreliable")]
    warning = (f"warning: {len(flagged)} of {len(STATE_LABELS)} states ({', '.join(flagged)}) "
               f"outside the validity range of the {cfg.backend} backend") if flagged else None
    return files + charts, lines, warning


def _fidelity_row(p) -> list[float]:
    """The FIDELITY_COLUMNS of one sweep point, in order."""
    values = {"x_value": p.x_value, "fidelity": p.fidelity, "mean_photon_exact": p.mean_photon}
    for lab, (xi, eps, eta) in p.per_state.items():
        values.update({f"xi_{lab}": xi, f"eps_{lab}": eps, f"eta_{lab}": eta})
    return [values[col] for col in FIDELITY_COLUMNS]


def cmd_fidelity(cfg: RunConfig, plot: bool) -> Output:
    if cfg.sweep_kind == "photon":
        sweep, args, x_label = sweep_photon_number, (), "mean photon number |alpha|^2"
    else:
        sweep, args, x_label = sweep_coupling_variation, (cfg.sweep_alpha,), "fractional coupling change"
    points = _run_backend(
        cfg, sweep, cfg.device, cfg.sweep_points, *args, tau=cfg.tau, n_samples=cfg.samples
    )
    charts = [_chart(cfg.output_dir / "fidelity.svg", [p.x_value for p in points],
                     [p.fidelity for p in points], title="gate fidelity", x_label=x_label,
                     y_label="F")] if plot else []
    out = cfg.output_dir / "fidelity.csv"
    flagged = sum(p.unreliable for p in points)
    warning = (f"warning: {flagged} of {len(points)} points have a state outside the "
               f"validity range of the {cfg.backend} backend") if flagged else None
    return ([_csv(out, FIDELITY_COLUMNS, map(_fidelity_row, points)), *charts],
            [f"wrote {out} ({len(points)} rows)"], warning)


def cmd_regime(cfg: RunConfig, plot: bool) -> Output:
    d = cfg.device
    two_pi = 2 * math.pi
    lines = []
    say = lines.append
    # ahead of validate_regime, which evaluates it too, so that its fault is named
    if d.circuit is not None:
        w0 = _named("resonator fundamental", resonator_fundamental, d.circuit)
    say("operating-regime report")
    say(
        f"  configured: g/2pi = {d.g_coupling / two_pi / 1e6:.6g} MHz, "
        f"kappa/2pi = {d.kappa / two_pi / 1e6:.6g} MHz, "
        f"1/(2pi T1) = {1.0 / d.t1 / two_pi / 1e6:.6g} MHz"
    )

    for chk in validate_regime(d, tau=cfg.tau):
        margin = "" if chk.margin is None else f"  margin {chk.margin:.3g}"
        say(f"  check {chk.name:<18} {chk.status:<7}{margin}  {chk.detail}")

    s = s_parameter(d.g_coupling, d.t1, d.kappa) if d.g_coupling > 0 else 0.0
    say(f"  s = g^2 T1 / kappa = {s:.6g}")
    say(f"  photon-loss scale 1/s = {1.0 / s if s else math.inf:.4g}")

    gap = energy_gap(d.delta, d.tunneling)
    say(f"  charge gap/2pi = {gap / two_pi / 1e9:.6g} GHz")
    if d.circuit is None:
        say("  coupling from circuit geometry: skipped (no [circuit] section)")
    else:
        say(f"  resonator fundamental/2pi = {w0 / two_pi / 1e9:.6g} GHz")
        if d.tunneling == 0:
            say("  coupling from circuit geometry: skipped (tunneling is 0: no charge dipole)")
        else:
            g_formula = coupling_g(d.circuit, mixing_angle(d.delta, d.tunneling))
            ratio = _named("coupling from circuit geometry", lambda: d.g_coupling / g_formula)
            say(
                f"  coupling from circuit geometry/2pi = {g_formula / two_pi / 1e6:.6g} MHz "
                f"(configured {d.g_coupling / two_pi / 1e6:.6g} MHz, "
                f"ratio {ratio:.3g})"
            )

    if d.tb == 0:
        say("  charge dephasing estimate: skipped (tb_ns not set)")
    elif gap == 0:
        say("  charge dephasing estimate: skipped (zero charge gap)")
    else:
        t2 = charge_dephasing_estimate(gap, d.tb)
        say(f"  charge dephasing estimate T2 = {t2 * 1e9:.4g} ns (switching time {d.tb * 1e9:.3g} ns)")
    if d.zeeman is not None and cfg.gradient_field:
        t2s = _named("spin dephasing estimate", spin_dephasing_estimate,
                     d.zeeman.g_factor, cfg.gradient_field)
        say(
            f"  spin dephasing estimate T2* = {t2s * 1e9:.4g} ns "
            f"(gradient {cfg.gradient_field * 1e3:.4g} mT)"
        )
    else:
        say("  spin dephasing estimate: skipped (no gradient_field_mT)")

    say(f"  gate time (one pulse, tau) = {cfg.tau * 1e9:.4g} ns vs T1 = {d.t1 * 1e9:.4g} ns")
    say("  alternate duration figure: ~100 ns (does not follow from tau*kappa; listed for comparison)")
    return [], lines, None


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
            files, lines, warning = _DISPATCH[args.command](cfg, args.plot)
        if files:
            cfg.output_dir.mkdir(parents=True, exist_ok=True)
        for path, text in files:
            # perfbench's tracer wraps these two writers by name and reads the file at their path
            (_write_rows if path.suffix == ".csv" else save_chart)(path, text)
    except (ConfigError, OSError) as exc:      # OSError: an output path that cannot be made or written
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericsError, ValueError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    print(*lines, sep="\n")
    if warning:
        print(warning, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
