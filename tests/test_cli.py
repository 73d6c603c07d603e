import configparser
import importlib.util
import inspect
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from resgate.cli import (
    CONFIG_TABLE,
    FIDELITY_COLUMNS,
    MAX_FOCK_DIM,
    MAX_GRID_SAMPLES,
    MAX_LEVELS_POINTS,
    MAX_SWEEP_POINTS,
    _CSV_BLOCK,
    RunConfig,
    _csv,
    load_config,
    main,
)
from resgate.device import CircuitParams, DeviceParams, ZeemanParams
from resgate.errors import ConfigError, NumericsError
from resgate.gate import sweep_photon_number
from resgate.scattering import BACKENDS
from resgate.svgplot import _ticks, line_chart

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_CFG = ROOT / "configs" / "default.cfg"
WORKLOADS = ROOT / "perfbench" / "workloads.py"


def _read_csv(path):
    lines = Path(path).read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_default_config_values(tmp_path):
    # every field bit for bit, each computed from the text the loader's way:
    # value times its factor to SI, then the reciprocal for t1
    cfg = load_config(DEFAULT_CFG)
    mhz = 2 * math.pi * 1e6
    kappa = 100 * mhz
    assert cfg == RunConfig(
        device=DeviceParams(
            delta=0 * mhz, tunneling=5000 * mhz, g_coupling=120 * mhz, kappa=kappa,
            detuning=0 * mhz, t1=1.0 / (1 * mhz), tb=1 * 1e-9,
            circuit=CircuitParams(length_L=0.03, cap_per_len_C0=33.3333333333333 * 1e-12,
                                  impedance_Z0=50.0, coupling_ratio_v=0.2),
            zeeman=ZeemanParams(g_factor=-13.0, b_field=1.0),
        ),
        tau=10.0 / kappa,
        samples=None,
        sweep_kind="photon",
        sweep_points=[float(x) for x in range(23)],
        sweep_alpha=20 + 0j,
        backend="filter",
        fock_dim=16,
        levels_span=50.0,
        levels_points=201,
        gradient_field=0.21868 * 1e-3,
        output_dir=Path("out"),
    )
    assert cfg.samples is None and type(cfg.sweep_alpha) is complex

    # [circuit] and [zeeman] left out whole: no parts and no gradient; and
    # the two zeros of the default file, delta and detuning, kept apart
    bare = tmp_path / "bare.cfg"
    text = DEFAULT_CFG.read_text().replace("delta_over_2pi_MHz = 0", "delta_over_2pi_MHz = 3")
    text = text.replace("detuning_over_2pi_MHz = 0", "detuning_over_2pi_MHz = -7")
    bare.write_text(text[: text.index("[circuit]\n")] + text[text.index("[pulse]\n"):])
    cfg = load_config(bare)
    assert cfg.device.circuit is None and cfg.device.zeeman is None and cfg.gradient_field is None
    assert cfg.device.delta == 3 * mhz and cfg.device.detuning == -7 * mhz


def test_config_error_cases(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.cfg")

    broken = tmp_path / "broken.cfg"
    broken.write_text(DEFAULT_CFG.read_text().replace("kappa_over_2pi_MHz = 100", ""))
    with pytest.raises(ConfigError, match="kappa_over_2pi_MHz"):
        load_config(broken)

    bad = tmp_path / "bad.cfg"
    bad.write_text(DEFAULT_CFG.read_text().replace("= 100", "= ten"))
    with pytest.raises(ConfigError, match="not a number"):
        load_config(bad)

    # configparser copies [DEFAULT] keys into every section; the error names [DEFAULT]
    defaults = tmp_path / "defaults.cfg"
    defaults.write_text("[DEFAULT]\nfoo = 1\n\n" + DEFAULT_CFG.read_text())
    with pytest.raises(ConfigError, match=r"^\[DEFAULT\] unknown key 'foo'$"):
        load_config(defaults)

    # a byte that is not UTF-8, here in a comment, is an error of the file
    latin = tmp_path / "latin.cfg"
    latin.write_bytes(b"# caf\xe9\n" + DEFAULT_CFG.read_bytes())
    with pytest.raises(ConfigError, match=r"latin\.cfg: 'utf-8' codec can't decode byte 0xe9"):
        load_config(latin)

    badbackend = tmp_path / "bk.cfg"
    badbackend.write_text(DEFAULT_CFG.read_text().replace("backend = filter", "backend = magic"))
    with pytest.raises(ConfigError, match="backend"):
        load_config(badbackend)

    # non-finite numbers are configuration errors, not numerics failures
    for old, new in (
        ("g_over_2pi_MHz = 120", "g_over_2pi_MHz = inf"),
        ("kappa_over_2pi_MHz = 100", "kappa_over_2pi_MHz = nan"),
        ("points = 0:22:23", "points = 0:inf:3"),
        ("points = 0:22:23", "points = 0,nan"),
    ):
        nonfinite = tmp_path / "nonfinite.cfg"
        nonfinite.write_text(DEFAULT_CFG.read_text().replace(old, new))
        with pytest.raises(ConfigError, match="finite"):
            load_config(nonfinite)

    # a photon-sweep point whose |alpha|^2 (1e-320) is below the amplitude
    # floor: meanfield used to run it and exit 0 with eps_00 off by 14 %
    tiny = tmp_path / "tiny.cfg"
    tiny.write_text(DEFAULT_CFG.read_text().replace("points = 0:22:23", "points = 1e-160"))
    with pytest.raises(ConfigError, match=r"\[sweep\] points: \|alpha\|\^2 must be finite and nonzero \(>= 1e-280\)"):
        load_config(tiny)

    # a coupling sweep at zero amplitude has no reflected field to decompose
    zero = tmp_path / "zero.cfg"
    zero.write_text(
        DEFAULT_CFG.read_text()
        .replace("kind = photon", "kind = coupling")
        .replace("alpha = 20", "alpha = 0")
    )
    with pytest.raises(ConfigError, match="alpha"):
        load_config(zero)

    # so is a coupling fraction outside (-1, 1]: g (1 + x) must stay positive
    wide = tmp_path / "wide.cfg"
    wide.write_text(
        DEFAULT_CFG.read_text()
        .replace("kind = photon", "kind = coupling")
        .replace("points = 0:22:23", "points = -0.5:1.5:5")
    )
    with pytest.raises(ConfigError, match="coupling fraction 1.5 outside"):
        load_config(wide)

    # sizes are capped before anything is allocated: a short pulse's
    # automatic grid (2,048,769 samples at tau_over_kappa = 0.01,
    # which left reflect still running after 60 s) and each cap + 1
    for old, new, match in (
        ("tau_over_kappa = 10", "tau_over_kappa = 0.01", "2048769 samples"),
        # a count past 2^53 in three digits, not the 305 of the exact integer
        ("tau_over_kappa = 10", "tau_over_kappa = 1e-300", r"would hold 2\.05e\+304 samples, more than"),
        ("samples = 0", f"samples = {MAX_GRID_SAMPLES + 1}", str(MAX_GRID_SAMPLES + 1)),
        ("points = 0:22:23", f"points = 0:22:{MAX_SWEEP_POINTS + 1}", str(MAX_SWEEP_POINTS + 1)),
        ("points = 201", f"points = {MAX_LEVELS_POINTS + 1}", str(MAX_LEVELS_POINTS + 1)),
        ("fock_dim = 16", f"fock_dim = {MAX_FOCK_DIM + 1}", str(MAX_FOCK_DIM + 1)),
        # and an explicit grid too small to build; samples = 1 used to
        # divide by zero in default_grid
        ("samples = 0", "samples = 1", "samples = 1"),
        ("samples = 0", "samples = 7", "samples = 7"),
    ):
        big = tmp_path / "big.cfg"
        big.write_text(DEFAULT_CFG.read_text().replace(old, new))
        with pytest.raises(ConfigError, match=match):
            load_config(big)


# how the stderr line goes on after its prefix, for the rows that say
_MESSAGES = {
    "length_m = 1e-320": "resonator fundamental: ",
    "impedance_ohm = 1e-320": "resonator fundamental: ",
    "coupling_ratio = 1e-320": "coupling from circuit geometry: ",
    "g_factor = 1e-320": "spin dephasing estimate: ",
    "gradient_field_mT = 1e-320": "spin dephasing estimate: ",
    "points = -1e308:1e308:3": "[sweep] points = ",
    "points = 1e-160": "[sweep] points: |alpha|^2 must be finite and nonzero (>= 1e-280), alpha = 1e-160",
    "relaxation_rate_over_2pi_MHz = 1e-320": "[device] t1 ",
    "length_m = -1": "[circuit] length_L must be positive",
    "coupling_ratio = 2": "[circuit] coupling_ratio_v must lie in (0, 1]",
    "b_field_T = -1": "[zeeman] b_field must be >= 0",
    "gradient_field_mT = -1": "[zeeman] gradient_field_mT = -1 must be >= 0",
    "tb_ns = -1": "[device] tb must be >= 0",
    "fockdim = 4": "[run] unknown key 'fockdim'",
    "[extra]\nx = 1\n\n[levels]": "unknown section [extra]",
    "delta_max_over_T = 3e295": "levels.svg: a chart coordinate is not finite",
}


@pytest.mark.parametrize("command, old, new, code", [
    # underflow to zero in a division: the geometry and spin estimates
    ("regime", "length_m = 0.03", "length_m = 1e-320", 3),
    ("regime", "impedance_ohm = 50", "impedance_ohm = 1e-320", 3),
    ("regime", "coupling_ratio = 0.2", "coupling_ratio = 1e-320", 3),
    ("regime", "g_factor = -13", "g_factor = 1e-320", 3),
    ("regime", "gradient_field_mT = 0.21868", "gradient_field_mT = 1e-320", 3),
    # a pulse so long that its width squared overflows
    ("reflect", "kappa_over_2pi_MHz = 100", "kappa_over_2pi_MHz = 1e-300", 3),
    ("fidelity", "kappa_over_2pi_MHz = 100", "kappa_over_2pi_MHz = 1e-300", 3),
    # amplitudes whose |alpha|^2 is zero or past the largest float
    ("reflect", "alpha = 20", "alpha = 1e-320", 2),
    ("reflect", "alpha = 20", "alpha = 1e300", 2),
    ("reflect", "alpha = 20", "alpha = -1e300", 2),
    ("fidelity", "points = 0:22:23", "points = 0:1e308:3", 2),
    # |alpha|^2 = 1e-320, nonzero but below the amplitude floor
    ("fidelity --backend meanfield", "points = 0:22:23", "points = 1e-160", 2),
    # a sweep range whose span overflows (it used to exit 3 from linspace)
    ("fidelity", "points = 0:22:23", "points = -1e308:1e308:3", 2),
    # a T1 that overflows to inf (s = inf used to pass the regime checks)
    ("reflect", "relaxation_rate_over_2pi_MHz = 1", "relaxation_rate_over_2pi_MHz = 1e-320", 2),
    ("regime", "relaxation_rate_over_2pi_MHz = 1", "relaxation_rate_over_2pi_MHz = 1e-320", 2),
    # a bias range that overflows: NaN rows used to be written with exit 0
    ("levels", "tunneling_over_2pi_MHz = 5000", "tunneling_over_2pi_MHz = 1e300", 3),
    ("levels", "delta_max_over_T = 50", "delta_max_over_T = 1e300", 3),
    # a bias range whose chart scaling overflows, though every CSV value is
    # finite: levels.svg used to be written with inf coordinates and exit 0
    ("levels --plot", "delta_max_over_T = 50", "delta_max_over_T = 3e295", 3),
    # a Fock space past the cap, refused before master allocates it
    ("reflect", "fock_dim = 16", f"fock_dim = {MAX_FOCK_DIM + 1}", 2),
    # circuit and Zeeman values their constructors refuse (they used to exit 3)
    ("regime", "length_m = 0.03", "length_m = -1", 2),
    ("regime", "coupling_ratio = 0.2", "coupling_ratio = 2", 2),
    ("regime", "b_field_T = 1", "b_field_T = -1", 2),
    # a negative gradient used to exit 3 after most of the report, and a
    # negative switching time to exit 0 with its estimate skipped
    ("regime", "gradient_field_mT = 0.21868", "gradient_field_mT = -1", 2),
    ("regime", "tb_ns = 1", "tb_ns = -1", 2),
    # a misspelt key or an unknown section used to be ignored
    ("regime", "fock_dim = 16", "fockdim = 4", 2),
    ("regime", "[levels]", "[extra]\nx = 1\n\n[levels]", 2),
    # a line that is not a key = value pair (the parser's message spans lines)
    ("regime", "[levels]", "garbage\n[levels]", 2),
])
def test_failures_exit_with_one_line(tmp_path, capsys, command, old, new, code):
    # every failure exits 2 or 3 with one stderr line, no traceback, no
    # output file and nothing on stdout (regime prints its report whole)
    cfg = tmp_path / "case.cfg"
    text = DEFAULT_CFG.read_text()
    assert old in text
    cfg.write_text(text.replace(old, new).replace("samples = 0", "samples = 9"))
    out = tmp_path / "out"
    assert main([*command.split(), "--config", str(cfg), "--out", str(out)]) == code
    captured = capsys.readouterr()
    err = captured.err
    prefix = "config error: " if code == 2 else "numerical failure: "
    assert err.startswith(prefix + _MESSAGES.get(new, "")) and err.count("\n") == 1, err
    assert captured.out == ""
    assert not out.exists()


def _keys(path) -> set[tuple[str, str]]:
    cp = configparser.ConfigParser()
    cp.optionxform = str
    cp.read(path)
    return {(section, key) for section in cp.sections() for key in cp[section]}


def test_default_config_lists_every_key_of_the_table():
    assert _keys(DEFAULT_CFG) == set(CONFIG_TABLE)

    # the field column: a row fills a parameter of its section's constructor,
    # or run.<name> of RunConfig, and no parameter is filled twice
    targets = {"device": DeviceParams, "circuit": CircuitParams, "zeeman": ZeemanParams, "run": RunConfig}
    params = {target: inspect.signature(cls).parameters for target, cls in targets.items()}
    filled = {target: [] for target in targets}
    for (section, key), (_, _, to_si, field) in CONFIG_TABLE.items():
        assert to_si is None or callable(to_si), key
        target, _, name = field.rpartition(".")
        assert name in params[target or section], (section, key)
        filled[target or section].append(name)
    for target, names in filled.items():
        assert len(names) == len(set(names)), target
    # every parameter of the device parts, but the parts themselves
    for target in ("device", "circuit", "zeeman"):
        assert set(filled[target]) == set(params[target]) - {"circuit", "zeeman"}, target
    # every RunConfig field without a default, but the device it is given
    required = {name for name, p in params["run"].items() if p.default is inspect.Parameter.empty}
    assert required - {"device"} <= set(filled["run"])


def test_benchmark_configs_load(tmp_path, monkeypatch):
    # the loader refuses unknown keys, so every config the benchmark
    # generates must stay inside the table
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)     # its dataclasses look it up
    spec.loader.exec_module(workloads)
    for name in workloads.WORKLOADS:
        for quick in (False, True):
            for inv in workloads.generate(name, 0, tmp_path / f"{name}{quick}", quick):
                load_config(inv.config)


def _cell_by_cell(header, rows) -> str:
    """The CSV text with each number formatted on its own, at 12 digits."""
    lines = [",".join(v if isinstance(v, str) else f"{v:.12g}" for v in row) for row in rows]
    return "\n".join([",".join(header), *lines, ""])


def test_csv_writer_formats_as_cell_by_cell(tmp_path):
    # one format call per row gives the bytes of one per cell
    rng = np.random.default_rng(11)
    values = rng.choice([-1.0, 1.0], (400, 5)) * 10.0 ** rng.uniform(-12, 3, (400, 5))
    values[0] = [-0.0, 0.0, 1.0, -3.0, 1e3]
    header = ["a", "b", "c", "d", "e"]
    path = tmp_path / "rows.csv"
    assert _csv(path, header, values) == (path, _cell_by_cell(header, values))
    # an array is formatted a block of rows at a time: two full blocks and a partial one
    long = np.resize(values, (2 * _CSV_BLOCK + 3, 5))
    assert _csv(path, header, long) == (path, _cell_by_cell(header, long))

    # a sequence of rows: integers and numpy scalars as cells
    rows = [[3, -7, 0, 12345678901234, np.float64(-0.0)],
            [np.float64(x) for x in values[1]], [2**60, 1, -1, 10, 100]]
    assert _csv(path, header, rows) == (path, _cell_by_cell(header, rows))

    # rows that hold strings, as the reflect summary does
    summary = [["00", 0.998265394623, -0.0, 3, np.float64(1e-12), "meanfield"],
               ["11", -1.0, 2.5e-7, -4, np.float64(123.456789012345), "master"]]
    head = ["state", "xi", "re", "im", "eps", "backend"]
    assert _csv(path, head, summary) == (path, _cell_by_cell(head, summary))
    assert not path.exists()


def test_csv_writer_refuses_non_finite_values(tmp_path):
    # a row of numbers and a row that holds words ("meanfield" holds an n)
    # are checked in different ways; both give one message
    path = tmp_path / "rows.csv"
    for bad, text in ((float("nan"), "nan"), (float("inf"), "inf"), (-np.inf, "-inf")):
        for rows, line in (
            (np.array([[1.0, 2.0], [3.0, bad]]), f"3,{text}"),
            ([[1.0, 2.0], [3.0, bad]], f"3,{text}"),
            ([["00", 1.0, "meanfield"], ["11", bad, "meanfield"]], f"11,{text},meanfield"),
        ):
            with pytest.raises(NumericsError) as err:
                _csv(path, ["a", "b", "c"][: len(rows[0])], rows)
            assert str(err.value) == f"rows.csv would hold a non-finite value: {line}"
        # past the first block of an array, the first bad row is named, not a later one
        rows = np.ones((3 * _CSV_BLOCK, 2))
        rows[_CSV_BLOCK + 5] = [7.0, bad]
        rows[_CSV_BLOCK + 6] = [bad, 8.0]
        rows[2 * _CSV_BLOCK + 1] = [bad, 9.0]
        with pytest.raises(NumericsError) as err:
            _csv(path, ["a", "b"], rows)
        assert str(err.value) == f"rows.csv would hold a non-finite value: 7,{text}"


def test_csv_writer_scratch_stays_near_its_text():
    # an array is rendered a block of rows at a time, so the traced peak is
    # the text, the block texts it is joined from and one block's lists.  On
    # 20,000 rows of 5 columns it is 2.0 times the text's length, where
    # formatting every row before joining them peaked at 5.8 times
    values = np.random.default_rng(3).normal(size=(20_000, 5))
    tracemalloc.start()
    try:
        _, text = _csv(Path("rows.csv"), ["a", "b", "c", "d", "e"], values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * len(text), peak / len(text)


def test_a_late_check_writes_no_file(tmp_path, capsys, monkeypatch):
    # the summary is checked after the four trace CSVs are rendered; a
    # non-finite value there used to leave reflect_00.csv to reflect_11.csv
    monkeypatch.setattr("resgate.cli.xi_effective", lambda r: complex(math.nan, 0))
    out = tmp_path / "out"
    args = ["reflect", "--backend", "analytic", "--config", str(DEFAULT_CFG), "--out", str(out)]
    assert main(args) == 3
    captured = capsys.readouterr()
    err = "numerical failure: reflect_summary.csv would hold a non-finite value: "
    assert captured.err.startswith(err) and captured.err.count("\n") == 1, captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("args, files", [
    ("levels --plot", {"levels.csv", "levels.svg"}),
    ("reflect --plot", {"reflect_summary.csv"}
     | {f"reflect_{s}.{ext}" for s in ("00", "01", "10", "11") for ext in ("csv", "svg")}),
    ("fidelity --plot", {"fidelity.csv", "fidelity.svg"}),
    ("regime", set()),
])
def test_each_command_writes_its_files(tmp_path, capsys, args, files):
    out = tmp_path / "X"
    assert main([*args.split(), "--backend", "filter", "--config", str(DEFAULT_CFG), "--out", str(out)]) == 0
    if files:
        assert {p.name for p in out.iterdir()} == files
    else:
        assert not out.exists()


def test_unwritable_output_exits_2_with_one_line(tmp_path, capsys):
    # an output directory that cannot be made, under a file or on one, is
    # reported with its path; it used to end in a traceback
    afile = tmp_path / "afile"
    afile.write_text("")
    for out in (afile / "sub", afile):
        assert main(["levels", "--config", str(DEFAULT_CFG), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and str(out) in err and err.count("\n") == 1, err


def test_missing_config_exit_code(tmp_path, capsys):
    code = main(["levels", "--config", str(tmp_path / "nope.cfg")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_levels_output(tmp_path):
    code = main(["levels", "--config", str(DEFAULT_CFG), "--out", str(tmp_path)])
    assert code == 0
    header, rows = _read_csv(tmp_path / "levels.csv")
    assert header == ["delta_rad_per_s", "energy_low_rad_per_s", "energy_high_rad_per_s", "gap_rad_per_s"]
    assert len(rows) == 201

    deltas = np.array([float(r[0]) for r in rows])
    gaps = np.array([float(r[3]) for r in rows])
    # symmetric in bias, minimum 2T exactly at zero bias
    assert np.allclose(gaps, gaps[::-1], rtol=1e-10)
    i0 = int(np.argmin(np.abs(deltas)))
    t = 2 * math.pi * 5e9
    assert deltas[i0] == pytest.approx(0.0, abs=1e-3)
    assert gaps[i0] == pytest.approx(2 * t, rel=1e-9)
    assert int(np.argmin(gaps)) == i0
    # wide-bias asymptote at |delta| = 50 T
    assert gaps[0] / abs(deltas[0]) == pytest.approx(1.0, abs=0.01)


def test_reflect_analytic_summary(tmp_path):
    code = main(
        ["reflect", "--config", str(DEFAULT_CFG), "--backend", "analytic", "--out", str(tmp_path)]
    )
    assert code == 0
    header, rows = _read_csv(tmp_path / "reflect_summary.csv")
    by_state = {r[0]: r for r in rows}
    assert set(by_state) == {"00", "01", "10", "11"}
    for r in rows:
        assert float(r[header.index("epsilon")]) == 0.0
        assert float(r[header.index("eta")]) == 0.0
    assert float(by_state["00"][header.index("xi_analytic")]) == pytest.approx(1151 / 1153)
    for lab in ("00", "01", "10", "11"):
        assert (tmp_path / f"reflect_{lab}.csv").is_file()


@pytest.mark.parametrize("backend", BACKENDS)
def test_reflect_reads_the_phase_flip_as_plus_pi(tmp_path, capsys, backend):
    # the bare cavity flips the phase by pi; every backend reports it on one
    # branch, (-pi, pi], so as +pi.  filter's 11 used to read -pi at every
    # amplitude.  Master's 11 row is exact at any fock_dim: 4 keeps it cheap
    cfg = tmp_path / "phase.cfg"
    cfg.write_text(DEFAULT_CFG.read_text().replace("alpha = 20", "alpha = 0.5")
                   .replace("samples = 0", "samples = 705").replace("fock_dim = 16", "fock_dim = 4"))
    assert main(["reflect", "--config", str(cfg), "--backend", backend, "--out", str(tmp_path)]) == 0
    header, rows = _read_csv(tmp_path / "reflect_summary.csv")
    assert {r[0]: r[header.index("phase_rad")] for r in rows}["11"] == f"{math.pi:.12g}"
    line = next(line for line in capsys.readouterr().out.splitlines() if "state 11:" in line)
    assert line.endswith("phase = +3.1416")


@pytest.mark.parametrize("backend", ["analytic", "filter"])
def test_reflect_at_minus_alpha_negates_the_fields(tmp_path, capsys, backend):
    # the reflection depends on |alpha| alone: at alpha = -1 every summary
    # number is that of +1, the phase modulo 2 pi and alpha_out, which scales
    # with alpha, negated; every in/out trace column is negated.  analytic's
    # out_re used to keep its sign, and both phases were pi off
    outs = {}
    for alpha in ("1", "-1"):
        cfg = tmp_path / f"alpha{alpha}.cfg"
        cfg.write_text(DEFAULT_CFG.read_text().replace("alpha = 20", f"alpha = {alpha}"))
        outs[alpha] = tmp_path / f"out{alpha}"
        assert main(["reflect", "--config", str(cfg), "--backend", backend, "--out", str(outs[alpha])]) == 0
    capsys.readouterr()

    def table(alpha, name):
        header, rows = _read_csv(outs[alpha] / name)
        return {col: np.array(values) for col, values in zip(header, zip(*rows))}

    plus, minus = table("1", "reflect_summary.csv"), table("-1", "reflect_summary.csv")
    assert list(plus["state"]) == list(minus["state"]) and list(plus["backend"]) == list(minus["backend"])
    for col in ("xi_analytic", "xi_eff_re", "xi_eff_im", "epsilon", "eta"):
        assert np.allclose(minus[col].astype(float), plus[col].astype(float), rtol=1e-11, atol=1e-15), col
    # +pi and -pi, each printed to 12 digits, differ by 2 pi to 4e-13
    turn = np.exp(1j * (minus["phase_rad"].astype(float) - plus["phase_rad"].astype(float)))
    assert np.allclose(turn, 1.0, rtol=0, atol=1e-11)
    for col in ("alpha_out_re", "alpha_out_im"):
        assert np.allclose(minus[col].astype(float), -plus[col].astype(float), rtol=1e-11, atol=1e-15), col
    for label in ("00", "01", "10", "11"):
        plus, minus = (table(a, f"reflect_{label}.csv") for a in ("1", "-1"))
        assert np.array_equal(minus["time_s"], plus["time_s"])
        for col in ("in_re", "in_im", "out_re", "out_im"):
            p, m = plus[col].astype(float), minus[col].astype(float)
            assert np.allclose(m, -p, rtol=2e-11, atol=0), (label, col)


def test_fidelity_csv_contract(tmp_path):
    code = main(["fidelity", "--config", str(DEFAULT_CFG), "--out", str(tmp_path), "--plot"])
    assert code == 0
    header, rows = _read_csv(tmp_path / "fidelity.csv")
    assert header == list(FIDELITY_COLUMNS)
    assert len(rows) == 23
    assert float(rows[0][1]) == 1.0
    fids = [float(r[1]) for r in rows]
    assert all(b <= a for a, b in zip(fids, fids[1:]))
    assert (tmp_path / "fidelity.svg").is_file()


def test_fidelity_coupling_kind(tmp_path):
    cfg = tmp_path / "coupling.cfg"
    text = DEFAULT_CFG.read_text()
    text = text.replace("kind = photon", "kind = coupling")
    text = text.replace("points = 0:22:23", "points = -0.5,0,0.5")
    cfg.write_text(text)
    code = main(["fidelity", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 0
    header, rows = _read_csv(tmp_path / "fidelity.csv")
    assert [float(r[0]) for r in rows] == [-0.5, 0.0, 0.5]


def test_unreliable_points_warn_on_stderr(tmp_path, capsys):
    cfg = tmp_path / "short.cfg"
    cfg.write_text(DEFAULT_CFG.read_text().replace("points = 0:22:23", "points = 0:1:2"))
    args = ["fidelity", "--config", str(cfg), "--out", str(tmp_path)]
    assert main(args + ["--backend", "meanfield"]) == 0
    out = capsys.readouterr()
    # alpha = 1 drives the charge of 00 and 01 past the meanfield bound
    assert out.err == "warning: 1 of 2 points have a state outside the validity range of the meanfield backend\n"
    assert "warning" not in out.out
    assert main(args) == 0
    assert capsys.readouterr().err == ""


def test_master_truncation_warns_on_stderr(tmp_path, capsys):
    # Fock 4 at alpha = 0.5: the pulse fills the top two levels of every
    # integrated state (00, 01) past the bound, though each run ends with an
    # empty cavity; 11's exact field used no truncated space and is not flagged
    cfg = tmp_path / "fock4.cfg"
    cfg.write_text(
        DEFAULT_CFG.read_text().replace("alpha = 20", "alpha = 0.5").replace("fock_dim = 16", "fock_dim = 4")
    )
    assert main(["reflect", "--config", str(cfg), "--backend", "master", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == (
        "warning: 3 of 4 states (00, 01, 10) outside the validity range of the master backend\n"
    )


def test_cli_imports_no_scipy():
    code = "import sys, resgate.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.stdout.strip() == "[]"


def test_numerics_exit_code(tmp_path, capsys):
    # nine samples at alpha = 0.5: the master RK4 step is too coarse and the
    # density matrix blows up, which the trace drift check reports
    cfg = tmp_path / "master.cfg"
    cfg.write_text(DEFAULT_CFG.read_text().replace("backend = filter", "backend = master")
                   .replace("alpha = 20", "alpha = 0.5").replace("samples = 0", "samples = 9"))
    code = main(["reflect", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: backend master: master-equation trace drifted by ")
    assert err.count("\n") == 1


def test_coarse_grid_fails_with_one_line(tmp_path):
    # nine samples at alpha = 20: the meanfield RK4 step overflows.  The
    # run reports that once, with no numpy warnings before it; the sweep
    # runs on the same explicit grid as reflect, not the automatic one
    cfg = tmp_path / "coarse.cfg"
    cfg.write_text(DEFAULT_CFG.read_text().replace("samples = 0", "samples = 9"))
    for command in ("reflect", "fidelity"):
        proc = subprocess.run(
            [sys.executable, "-m", "resgate.cli", command, "--config", str(cfg),
             "--backend", "meanfield", "--out", str(tmp_path)],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src"),
                 "PYTHONWARNINGS": "default"},
        )
        assert proc.returncode == 3, command
        assert proc.stderr == "numerical failure: backend meanfield: meanfield output field is not finite\n"
    assert not (tmp_path / "fidelity.csv").exists()


def test_fidelity_honours_explicit_samples(tmp_path):
    # an explicit [pulse] samples reaches the sweep's pulse, as it reaches
    # reflect's: the CSV moves off the automatic grid's and equals the
    # in-process sweep on the 705-sample grid, printed at 12 digits
    cfg = tmp_path / "s705.cfg"
    cfg.write_text(DEFAULT_CFG.read_text().replace("samples = 0", "samples = 705"))
    assert main(["fidelity", "--config", str(cfg), "--out", str(tmp_path / "s705")]) == 0
    assert main(["fidelity", "--config", str(DEFAULT_CFG), "--out", str(tmp_path / "auto")]) == 0
    got = (tmp_path / "s705" / "fidelity.csv").read_text()
    assert got != (tmp_path / "auto" / "fidelity.csv").read_text()

    c = load_config(cfg)
    points = sweep_photon_number(c.device, c.sweep_points, backend=c.backend, tau=c.tau, n_samples=705)
    rows = []
    for pt in points:
        values = {"x_value": pt.x_value, "fidelity": pt.fidelity, "mean_photon_exact": pt.mean_photon}
        for lab, (xi, eps, eta) in pt.per_state.items():
            values.update({f"xi_{lab}": xi, f"eps_{lab}": eps, f"eta_{lab}": eta})
        rows.append(",".join(f"{values[col]:.12g}" for col in FIDELITY_COLUMNS))
    assert got.strip().split("\n")[1:] == rows


def test_regime_report(capsys):
    code = main(["regime", "--config", str(DEFAULT_CFG)])
    assert code == 0
    out = capsys.readouterr().out
    assert "s = g^2 T1 / kappa = 144" in out
    assert out.count("pass") >= 4
    assert "62.2418" in out                  # geometry coupling, MHz
    assert "15.92" in out and "100 ns" in out  # both gate-time figures
    assert "T2* = 4" in out


_NO_DIPOLE = "  coupling from circuit geometry: skipped (tunneling is 0: no charge dipole)"
_NO_GAP = "  check resonance_match    fail     zero charge gap"


@pytest.mark.parametrize("delta, circuit, lines", [
    # balanced dots: no charge gap, so no mixing angle and no dephasing
    # estimate (this exited 3 on "mixing angle undefined", and without
    # [circuit] on "positive omega and tb required")
    ("0", True, [_NO_GAP, _NO_DIPOLE, "  charge dephasing estimate: skipped (zero charge gap)"]),
    ("0", False, ["  coupling from circuit geometry: skipped (no [circuit] section)",
                  "  charge dephasing estimate: skipped (zero charge gap)"]),
    # biased dots: a gap but no dipole, so a geometric coupling of 0 (this
    # exited 3 on "float division by zero")
    ("100", True, [_NO_DIPOLE, "  charge dephasing estimate T2 = 0.6283 ns (switching time 1 ns)"]),
])
def test_regime_report_of_a_device_without_tunneling(tmp_path, capsys, delta, circuit, lines):
    text = DEFAULT_CFG.read_text().replace("tunneling_over_2pi_MHz = 5000", "tunneling_over_2pi_MHz = 0")
    text = text.replace("delta_over_2pi_MHz = 0", f"delta_over_2pi_MHz = {delta}")
    if not circuit:
        text = text[: text.index("\n[circuit]\n")] + text[text.index("\n[zeeman]\n") :]
    cfg = tmp_path / "untunneled.cfg"
    cfg.write_text(text)
    assert main(["regime", "--config", str(cfg)]) == 0
    captured = capsys.readouterr()
    report = captured.out.splitlines()
    assert captured.err == "" and len(report) == 14 + circuit
    assert all(line in report for line in lines), report


def test_svg_chart_deterministic():
    a = line_chart([0, 1, 2], [1.0, 0.5, 0.25], title="t")
    b = line_chart([0, 1, 2], [1.0, 0.5, 0.25], title="t")
    assert a == b
    assert "<polyline" in a and a.startswith("<svg")
    with pytest.raises(ValueError):
        line_chart([0, 1], [1.0])
    # a data range whose scaling overflows, and a NaN, give no chart
    for xs, ys in (([-1e307, 1e307], [0.0, 1.0]), ([0.0, 1.0], [float("nan"), 1.0])):
        with pytest.raises(NumericsError, match="a chart coordinate is not finite"):
            line_chart(xs, ys)


def test_ticks_stop_when_a_step_makes_no_progress():
    # a range two ulps wide puts the step below the float spacing, where
    # t += step left t unchanged and the loop never ended
    lo = 1e30
    hi = math.nextafter(math.nextafter(lo, math.inf), math.inf)
    ticks = _ticks(lo, hi)
    assert ticks and all(lo <= t <= hi for t in ticks)
    # ranges whose steps advance keep their ticks
    assert _ticks(0.0, 1.0) == [0.0, 0.2, 0.4, 0.6000000000000001, 0.8, 1.0]
    assert _ticks(-3.0, 7.5) == [-2.0, 0.0, 2.0, 4.0, 6.0]
    assert _ticks(2.0, 2.0) == [2.0]
    # a range of a few subnormal ulps, whose step underflows, is flat: these
    # raised ValueError (math domain error) and ZeroDivisionError
    for hi in (5e-324, 1e-323, 2e-323):
        assert _ticks(0.0, hi) == [0.0]
    assert line_chart([0, 1, 2], [0.0, 5e-324, 0.0]).startswith("<svg")


@pytest.mark.parametrize("span", ["2e-8", "3e-8"])
def test_levels_chart_of_a_gap_a_few_ulps_wide_finishes(tmp_path, span):
    # the gap varies by one or two ulps over this bias range; levels --plot
    # used to run until it was killed
    cfg = tmp_path / "narrow.cfg"
    cfg.write_text(DEFAULT_CFG.read_text().replace("delta_max_over_T = 50", f"delta_max_over_T = {span}"))
    proc = subprocess.run(
        [sys.executable, "-m", "resgate.cli", "levels", "--plot", "--config", str(cfg),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "levels.svg").read_text().startswith("<svg")
