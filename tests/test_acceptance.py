"""End-to-end acceptance runs for the product contracts.

One test per contract clause (split where a clause has independently
meaningful halves); each prints a single PASS/FAIL line, collected and
echoed in the terminal summary.

Criterion 3 compares mean-field against the density matrix inside the
mean-field validity range: the gap is the factorisation error, growing as
|alpha|^2 in step with the peak charge excitation, so the check asks for
2 % agreement where the backend reports itself in range (alpha = 0.25)
and for the `unreliable` flag where it is not (alpha = 0.5).

Criteria 5 (F >= 0.97 at alpha = 20) and 6 (flatness under +/-50 %
coupling) fail at the reference operating point: the model's own
idealised limit, computed in each test from exact coherent-state
overlaps, misses both targets.  They keep their thresholds and fail until
the paper's operating point is in the repository; the analysis lives in
their assert messages so the failure output is self-explanatory.
"""

import dataclasses
import time
from pathlib import Path

import numpy as np
import pytest

from _oracles import brute_force_gate_fidelity, coherent_overlap_gate_fidelity
from resgate.cli import main
from resgate.device import coupling_g, dqd_hamiltonian, energy_gap, mixing_angle, validate_regime
from resgate.gate import GateInputs, gate_fidelity, sweep_coupling_variation, sweep_photon_number
from resgate.scattering import (
    MEANFIELD_EXCITATION_BOUND,
    STATE_LABELS,
    joint_state,
    reflect_filter_pulse,
    reflection_filter,
    scatter_all_states,
    xi_analytic,
    xi_effective,
)

DEFAULT_CFG = Path(__file__).resolve().parent.parent / "configs" / "default.cfg"


def _report(collector, num, ok, detail):
    line = f"criterion {num:>2}: {'PASS' if ok else 'FAIL'}  {detail}"
    collector.append(line)
    print(line)


def test_criterion_01_zero_frequency_identities(ref, acceptance_report):
    t0 = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(101)
    cases = [(ref.g_coupling, ref.kappa, ref.t1)]
    cases += [
        (
            rng.uniform(0.05, 10.0) * ref.g_coupling,
            rng.uniform(0.05, 10.0) * ref.kappa,
            rng.uniform(0.05, 10.0) * ref.t1,
        )
        for _ in range(50)
    ]
    for g, k, t1 in cases:
        for st in map(joint_state, STATE_LABELS):
            got = reflection_filter(0.0, st.g_eff(g), k, t1)
            worst = max(worst, abs(got - xi_analytic(st, g, k, t1)))
    ok = worst < 1e-12
    _report(
        acceptance_report, 1, ok,
        f"reflection identities at zero offset, worst |err| = {worst:.2e} "
        f"(tol 1e-12, 51 parameter sets, {time.perf_counter() - t0:.2f} s)",
    )
    assert ok


def test_criterion_02_exact_decay_laws(ref, photon_decay_run, charge_decay_run, acceptance_report):
    t0 = time.perf_counter()
    t, n_traj = photon_decay_run
    rel_n = float(np.max(np.abs(n_traj - np.exp(-ref.kappa * t)) / np.exp(-ref.kappa * t)))

    t2, pa = charge_decay_run
    rel_p = float(np.max(np.abs(pa - np.exp(-t2 / ref.t1)) / np.exp(-t2 / ref.t1)))

    ok = rel_n < 1e-6 and rel_p < 1e-6
    _report(
        acceptance_report, 2, ok,
        f"photon decay rel err {rel_n:.2e}, charge decay rel err {rel_p:.2e} "
        f"(tol 1e-6 over 5 lifetimes, {time.perf_counter() - t0:.2f} s)",
    )
    assert ok


def test_criterion_03_filter_vs_meanfield(ref, ref_pulse, meanfield_ref_runs, acceptance_report):
    t0 = time.perf_counter()
    worst = 0.0
    for lab in ("00", "01", "11"):
        st = joint_state(lab)
        d = abs(
            xi_effective(reflect_filter_pulse(ref_pulse, st, ref))
            - xi_effective(meanfield_ref_runs[0.1][lab])
        )
        worst = max(worst, d)
    ok = worst < 1e-3
    _report(
        acceptance_report, 3, ok,
        f"filter vs mean-field effective reflection at alpha=0.1, "
        f"worst gap {worst:.2e} (tol 1e-3, {time.perf_counter() - t0:.2f} s)",
    )
    assert ok


def _meanfield_vs_master(meanfield_runs, master_runs):
    """Meanfield at each master record's amplitude.  Per state: RMS/peak
    gap of the cavity amplitude to the density matrix, meanfield's peak
    charge excitation and its `unreliable` flag, and the meanfield result."""
    rms, exc, flag, mfs = {}, {}, {}, {}
    for lab, ms in master_runs.items():
        mf = meanfield_runs[ms.alpha_in][lab]
        c_ms = ms.diagnostics["c_trajectory"]
        c_mf = mf.diagnostics["c_trajectory"]
        peak = float(np.max(np.abs(c_ms)))
        rms[lab] = float(np.sqrt(np.mean(np.abs(c_mf - c_ms) ** 2))) / peak
        exc[lab] = mf.diagnostics["peak_excitation"]
        flag[lab] = mf.diagnostics["unreliable"]
        mfs[lab] = mf
    return rms, exc, flag, mfs


def _fmt(d, spec):
    return ", ".join(f"{k}:{v:{spec}}" for k, v in d.items())


def test_criterion_03_meanfield_vs_master(
    ref, ref_pulse, master_in_range_runs, master_half_runs, meanfield_ref_runs, acceptance_report
):
    t0 = time.perf_counter()
    bound = MEANFIELD_EXCITATION_BOUND
    # where meanfield reports itself valid it must agree with the density
    # matrix to 2 % ...
    alpha_in = abs(master_in_range_runs["01"].alpha_in)
    rms_in, exc_in, flag_in, mf_in = _meanfield_vs_master(meanfield_ref_runs, master_in_range_runs)
    in_range = not any(flag_in.values())
    agree = max(rms_in.values()) <= 0.02
    # ... at an amplitude where it is nonlinear, so the agreement is more
    # than the linear-response limit already covered at alpha=0.1
    filt_01 = reflect_filter_pulse(ref_pulse, joint_state("01"), ref)
    nonlin = abs(xi_effective(mf_in["01"]) - xi_effective(filt_01))
    nonlinear = nonlin > 1e-3
    # ... and at alpha=0.5 it must flag the coupled states as out of range
    rms_half, exc_half, flag_half, _ = _meanfield_vs_master(meanfield_ref_runs, master_half_runs)
    flagged = flag_half["00"] and flag_half["01"]

    ok = in_range and agree and nonlinear and flagged
    _report(
        acceptance_report, 3, ok,
        f"mean-field vs density-matrix cavity amplitude at alpha={alpha_in:g}, RMS/peak "
        f"{_fmt(rms_in, '.4f')} (tol 0.02), peak excitation {_fmt(exc_in, '.3f')} "
        f"({'all within' if in_range else 'NOT all within'} bound {bound}), 01 gap to filter "
        f"{nonlin:.1e} (> 1e-3); at alpha=0.5 RMS/peak {_fmt(rms_half, '.3f')}, peak "
        f"excitation {_fmt(exc_half, '.3f')}, 00/01 {'flagged' if flagged else 'NOT flagged'} "
        f"unreliable ({time.perf_counter() - t0:.2f} s)",
    )
    ratio = ", ".join(
        f"{lab}:{rms_half[lab] / exc_half[lab]:.2f}" for lab in ("00", "01") if exc_half[lab] > 0
    )
    assert ok, (
        f"alpha={alpha_in:g}: RMS/peak {rms_in}, peak excitation {exc_in}, unreliable "
        f"{flag_in}, 01 gap to filter {nonlin:.2e}; alpha=0.5: RMS/peak {rms_half}, peak "
        f"excitation {exc_half}, unreliable {flag_half}.  The meanfield-vs-master gap is "
        "the factorisation error: it grows as |alpha|^2 in step with the peak charge "
        f"excitation p (RMS/peak over p at alpha=0.5: {ratio or 'undefined, p reads 0'}), "
        f"so meanfield must agree to 2 % wherever p <= {bound} and flag every run past it."
    )


def test_criterion_04_truncated_fock_oracle(ref, ref_pulse, acceptance_report):
    t0 = time.perf_counter()
    xis = {
        lab: xi_analytic(joint_state(lab), ref.g_coupling, ref.kappa, ref.t1)
        for lab in ("00", "01", "10", "11")
    }
    worst = 0.0
    for alpha in (0.3, 0.8, 1.5):
        res = scatter_all_states(ref_pulse, alpha, ref, backend="analytic")
        fid = gate_fidelity(GateInputs(alpha, res))
        worst = max(worst, abs(fid - brute_force_gate_fidelity(alpha, xis)))
    ok = worst < 1e-6
    _report(
        acceptance_report, 4, ok,
        f"closed-form fidelity vs brute-force Fock overlaps, worst |diff| = {worst:.2e} "
        f"(tol 1e-6, alpha in {{0.3, 0.8, 1.5}}, {time.perf_counter() - t0:.2f} s)",
    )
    assert ok


def test_criterion_05_limit_and_monotonicity(ref, acceptance_report):
    t0 = time.perf_counter()
    pts = sweep_photon_number(ref, list(range(23)), backend="filter")
    fids = [p.fidelity for p in pts]
    limit_ok = fids[0] == 1.0 and sweep_photon_number(ref, [1e-3], backend="filter")[0].fidelity > 1.0 - 1e-4
    mono_ok = all(b <= a + 1e-12 for a, b in zip(fids, fids[1:]))
    ok = limit_ok and mono_ok
    _report(
        acceptance_report, 5, ok,
        f"zero-amplitude limit F = {fids[0]:.6f}, non-increasing over alpha grid 0..22 "
        f"({'yes' if mono_ok else 'no'}, {time.perf_counter() - t0:.2f} s)",
    )
    assert ok


def _ideal_fidelity(params, alpha):
    """Gate fidelity in the model's idealised limit: no shape mismatch and no
    loss beyond the steady-state xi, from exact coherent-state overlaps."""
    xis = {
        lab: xi_analytic(joint_state(lab), params.g_coupling, params.kappa, params.t1)
        for lab in ("00", "01", "10", "11")
    }
    return coherent_overlap_gate_fidelity(alpha, xis)


_COUPLING_FRACTIONS = [float(x) for x in np.linspace(-0.5, 0.5, 11)]


@pytest.fixture(scope="module")
def operating_cells(ref):
    """What criteria 5 and 6 need, on the filter backend at alpha = 20 with
    the pulse lengthened and g scaled: F(20) / its spread over +/-50 %
    coupling at three (tau kappa, g) cells, as one line."""
    cells = []
    for tk, gx in ((10, 8), (160, 8), (320, 16)):
        device = dataclasses.replace(ref, g_coupling=gx * ref.g_coupling)
        pts = sweep_coupling_variation(device, _COUPLING_FRACTIONS, 20.0, backend="filter", tau=tk / ref.kappa)
        fids = {round(p.x_value, 3): p.fidelity for p in pts}
        spread = max(fids.values()) - min(fids.values())
        cells.append(f"{fids[0.0]:.3f} / {spread:.3f} at ({tk}, {gx}x)")
    return (
        "Filter backend at alpha = 20, F(20) / spread over +/-50% coupling at "
        f"(tau*kappa, g): {', '.join(cells)}.  F(20) >= 0.97 needs a long pulse "
        "and a stronger coupling together, and the spread stays above 1e-2 even "
        "where F(20) passes 0.97."
    )


def test_criterion_05_high_fidelity_endpoint(ref, operating_cells, acceptance_report):
    t0 = time.perf_counter()
    pt = sweep_photon_number(ref, [20.0], backend="filter")[0]
    fid = pt.fidelity
    ok = fid >= 0.97
    _report(
        acceptance_report, 5, ok,
        f"F(alpha=20) = {fid:.6f} (target >= 0.97, {time.perf_counter() - t0:.2f} s)",
    )
    # idealised-limit evidence: how far the target is from the model itself
    f_ideal = _ideal_fidelity(ref, 20.0)
    lo, hi = 0.0, 4.0   # log10 of the T1 factor (i.e. of s) that reaches 0.97
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if _ideal_fidelity(dataclasses.replace(ref, t1=ref.t1 * 10.0**mid), 20.0) >= 0.97:
            hi = mid
        else:
            lo = mid
    s_ref = ref.g_coupling**2 * ref.t1 / ref.kappa
    long_t1 = dataclasses.replace(ref, t1=100.0 * ref.t1)
    fid_long = sweep_photon_number(long_t1, [20.0], backend="filter")[0].fidelity
    eps = "/".join(f"{pt.per_state[lab][1]:.3f}" for lab in ("00", "01", "11"))
    assert ok, (
        f"F(alpha=20) = {fid:.6f}.  Idealised limit (eps = eta = 0, exact overlaps "
        f"exp(-|alpha|^2 (1 - |xi|)) with the steady-state xi): F = {f_ideal:.4f}, so "
        "0.97 is out of reach of the model's own limit at this device.  That limit "
        f"reaches 0.97 only at s = g^2 T1/kappa = {10.0**hi:.0f} x {s_ref:.0f}.  With T1 "
        f"x 100 the filter backend still gives F = {fid_long:.3f}, because the "
        f"pulse-shape mismatch eps = {eps} (00/01/11) at tau*kappa = 10 sits in an "
        "exponent scaled by |alpha|^2 = 400.  Which of alpha = 20, 0.97, the device "
        "numbers or tau*kappa differs from the paper is not settled until the paper's "
        f"operating point is in the repository.  {operating_cells}"
    )


def test_criterion_06_coupling_robustness(ref, operating_cells, acceptance_report):
    t0 = time.perf_counter()
    fracs = _COUPLING_FRACTIONS
    pts = sweep_coupling_variation(ref, fracs, 20.0, backend="filter")
    by_x = {round(p.x_value, 3): p.fidelity for p in pts}
    diff = abs(by_x[-0.5] - by_x[0.0])
    spread = max(by_x.values()) - min(by_x.values())
    ok = diff <= 5e-3 and spread <= 1e-2
    _report(
        acceptance_report, 6, ok,
        f"|F(g/2) - F(g)| = {diff:.4f} (target <= 5e-3), spread over +/-50% = {spread:.4f} "
        f"(target <= 1e-2) at alpha=20 ({time.perf_counter() - t0:.2f} s)",
    )
    ideal = {
        x: _ideal_fidelity(dataclasses.replace(ref, g_coupling=ref.g_coupling * (1.0 + x)), 20.0)
        for x in fracs
    }
    ideal_diff = abs(ideal[-0.5] - ideal[0.0])
    assert ok, (
        f"diff {diff:.4f}, spread {spread:.4f}.  Idealised limit (eps = eta = 0, exact "
        "overlaps with the steady-state xi): F runs from "
        f"{min(ideal.values()):.3f} to {max(ideal.values()):.3f} over +/-50% coupling "
        f"(spread {max(ideal.values()) - min(ideal.values()):.3f}, |F(g/2) - F(g)| = "
        f"{ideal_diff:.3f}), so the model itself is not flat at alpha=20: every error "
        "channel scales as 1/s and s grows as g^2.  The flatness claim can hold only "
        "where F is near 1, which this amplitude is not (criterion 5); the paper's "
        f"operating point is needed to settle which constant differs.  {operating_cells}"
    )


def test_criterion_07_loss_scaling(ref, ref_pulse, acceptance_report):
    t0 = time.perf_counter()

    def eta_at(params):
        res = scatter_all_states(ref_pulse, 0.5, params, backend="filter")
        return max(r.eta for r in res.values())

    # same s ladder {36, 144, 576} walked with either knob
    eta_t1 = [eta_at(dataclasses.replace(ref, t1=sc * ref.t1)) for sc in (0.25, 1.0, 4.0)]
    eta_g = [eta_at(dataclasses.replace(ref, g_coupling=sc * ref.g_coupling)) for sc in (0.5, 1.0, 2.0)]

    mono = eta_t1[0] > eta_t1[1] > eta_t1[2] and eta_g[0] > eta_g[1] > eta_g[2]
    # lifetime knob leaves the dressed-mode structure alone, so the pure
    # 1/s law shows up step by step; the coupling knob also moves the
    # response bandwidth, so only the two-decade aggregate is clean
    ratios_t1 = [eta_t1[0] / eta_t1[1], eta_t1[1] / eta_t1[2]]
    prop_t1 = all(3.2 <= r <= 4.8 for r in ratios_t1)
    prop_g = 14.0 <= eta_g[0] / eta_g[2] <= 18.0
    ok = mono and prop_t1 and prop_g
    _report(
        acceptance_report, 7, ok,
        f"global loss over s = 36/144/576: lifetime knob {eta_t1[0]:.2e}/{eta_t1[1]:.2e}/"
        f"{eta_t1[2]:.2e} (step ratios {ratios_t1[0]:.2f}, {ratios_t1[1]:.2f}, expect ~4), "
        f"coupling knob end-to-end x{eta_g[0] / eta_g[2]:.1f} (expect ~16, "
        f"{time.perf_counter() - t0:.2f} s)",
    )
    assert ok


def test_criterion_08_device_formulas(ref, ref_tau, acceptance_report):
    t0 = time.perf_counter()
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(100):
        t = rng.uniform(1e6, 1e11)
        d = rng.uniform(-10.0, 10.0) * t
        ev = np.linalg.eigvalsh(dqd_hamiltonian(d, t))
        worst = max(worst, abs(energy_gap(d, t) - (ev[1] - ev[0])) / (ev[1] - ev[0]))

    g_geom = coupling_g(ref.circuit, mixing_angle(ref.delta, ref.tunneling))
    ratio = ref.g_coupling / g_geom
    factor_ok = 1.0 / 3.0 <= ratio <= 3.0

    checks = validate_regime(ref, tau=ref_tau)
    regime_ok = all(c.status == "pass" for c in checks)

    ok = worst < 1e-12 and factor_ok and regime_ok
    _report(
        acceptance_report, 8, ok,
        f"gap vs eigensplitting worst rel err {worst:.2e}; geometry coupling off by "
        f"x{ratio:.2f} (within x3); regime checks "
        f"{'all pass' if regime_ok else 'FAILED'} ({time.perf_counter() - t0:.2f} s)",
    )
    assert ok


def test_criterion_09_numerical_hygiene(
    photon_decay_run,
    charge_decay_run,
    master_half_runs,
    master_in_range_runs,
    bare_lab_frame_runs,
    master_hygiene,
    acceptance_report,
):
    # the fixture arguments force every density-matrix run in the suite
    # to exist before the bookkeeping is inspected; dipole-free reflect
    # rows take the bare-cavity recurrence and are not counted
    assert len(master_hygiene) >= 8
    worst_drift = max(h[1] for h in master_hygiene)
    worst_eig = min(h[2] for h in master_hygiene)
    worst_tail = max(h[3] for h in master_hygiene)
    ok = worst_drift < 1e-6 and worst_eig > -1e-7 and worst_tail < 1e-4
    _report(
        acceptance_report, 9, ok,
        f"{len(master_hygiene)} density-matrix runs: max trace drift {worst_drift:.1e}, "
        f"min eigenvalue {worst_eig:.1e}, max truncation tail {worst_tail:.1e}",
    )
    assert ok


def test_criterion_10_deterministic_cli(tmp_path, acceptance_report):
    t0 = time.perf_counter()
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["fidelity", "--config", str(DEFAULT_CFG), "--out", str(out1)]) == 0
    assert main(["fidelity", "--config", str(DEFAULT_CFG), "--out", str(out2)]) == 0
    b1 = (out1 / "fidelity.csv").read_bytes()
    b2 = (out2 / "fidelity.csv").read_bytes()
    ok = b1 == b2 and len(b1) > 0
    _report(
        acceptance_report, 10, ok,
        f"two sweep runs produced byte-identical CSVs ({len(b1)} bytes, "
        f"{time.perf_counter() - t0:.2f} s)",
    )
    assert ok
