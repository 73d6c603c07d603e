import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as strat

from _oracles import (
    dense_lindblad_evolve, filter_state_metrics, master_run, meanfield_reference_rows, rk4_reference,
)
from resgate import scattering
from resgate.errors import NumericsError
from resgate.gate import GateInputs, gate_fidelity
from resgate.pulse import TimeGrid, default_grid, gaussian_pulse
from resgate.qmath import DensityMatrix, HilbertSpace
from resgate.rules import MIN_ALPHA_SQUARED
from resgate.scattering import (
    _CHUNK,
    FOCK_TAIL_BOUND,
    MEANFIELD_EXCITATION_BOUND,
    STATE_LABELS,
    _analytic_result,
    _bare_cavity_field,
    _decompose,
    _evolve_master_batch,
    _meanfield_rows,
    _rk4,
    _upsample,
    joint_state,
    reflect_filter_pulse,
    reflect_master,
    reflect_meanfield,
    reflection_filter,
    scatter_all_states,
    scatter_batch,
    xi_analytic,
    xi_effective,
)


def test_state_table():
    assert STATE_LABELS == ("00", "01", "10", "11")
    assert joint_state("00").n_coupled == 2
    assert joint_state("01").n_coupled == 1
    assert joint_state("10").n_coupled == 1
    assert joint_state("11").n_coupled == 0
    assert joint_state("01").g_eff(3.0) == pytest.approx(3.0)
    assert joint_state("00").g_eff(3.0) == pytest.approx(3.0 * math.sqrt(2))
    with pytest.raises(ValueError):
        joint_state("21")


def test_xi_analytic_reference_fractions(ref):
    # s = 144: (8s-1)/(8s+1) = 1151/1153 and (4s-1)/(4s+1) = 575/577
    g, k, t1 = ref.g_coupling, ref.kappa, ref.t1
    assert xi_analytic(joint_state("00"), g, k, t1) == pytest.approx(1151.0 / 1153.0, abs=1e-15)
    assert xi_analytic(joint_state("01"), g, k, t1) == pytest.approx(575.0 / 577.0, abs=1e-15)
    assert xi_analytic(joint_state("11"), g, k, t1) == -1.0


def test_filter_matches_xi_at_zero_frequency(ref):
    rng = np.random.default_rng(23)
    for _ in range(50):
        g = rng.uniform(0.1, 5.0) * ref.g_coupling
        k = rng.uniform(0.1, 5.0) * ref.kappa
        t1 = rng.uniform(0.1, 5.0) * ref.t1
        for st in map(joint_state, STATE_LABELS):
            want = xi_analytic(st, g, k, t1)
            got = reflection_filter(0.0, st.g_eff(g), k, t1)
            assert got == pytest.approx(want, abs=1e-12)


def test_filter_far_detuned_is_transparent(ref):
    r = reflection_filter(1e6 * ref.kappa, ref.g_coupling, ref.kappa, ref.t1)
    assert r == pytest.approx(1.0, abs=1e-5)


def test_filter_passive(ref):
    nu = np.linspace(-50, 50, 1001) * ref.kappa
    for st in map(joint_state, STATE_LABELS):
        mag = np.abs(reflection_filter(nu, st.g_eff(ref.g_coupling), ref.kappa, ref.t1))
        assert float(mag.max()) <= 1.0 + 1e-12


def test_filter_dip_follows_detuning(ref):
    d = 7.3 * ref.kappa
    assert reflection_filter(d, 0.0, ref.kappa, ref.t1, detuning=d) == pytest.approx(-1.0)


def test_filter_scalar_and_vector_forms(ref):
    scalar = reflection_filter(0.0, 0.0, ref.kappa, ref.t1)
    assert isinstance(scalar, complex)
    vec = reflection_filter(np.zeros(3), 0.0, ref.kappa, ref.t1)
    assert vec.shape == (3,)
    assert np.allclose(vec, scalar)


def test_filter_backend_against_continuous_quadrature(ref, ref_tau, ref_pulse):
    # same physics, different numerical route: adaptive quadrature over
    # the exact Gaussian spectrum vs the FFT grid
    for lab in ("00", "01", "11"):
        st = joint_state(lab)
        res = reflect_filter_pulse(ref_pulse, st, ref)
        eps, eta, phase = filter_state_metrics(
            st.g_eff(ref.g_coupling), ref.kappa, ref.t1, ref_tau
        )
        assert res.epsilon == pytest.approx(eps, abs=1e-5)
        assert res.eta == pytest.approx(eta, abs=1e-6)
        assert abs(res.phase) == pytest.approx(abs(phase), abs=1e-4)


def test_filter_backend_frozen_values(ref, ref_pulse):
    res = reflect_filter_pulse(ref_pulse, joint_state("11"), ref)
    assert res.epsilon == pytest.approx(0.688641, abs=2e-5)
    assert res.eta == pytest.approx(0.0, abs=1e-9)
    res01 = reflect_filter_pulse(ref_pulse, joint_state("01"), ref)
    assert res01.epsilon == pytest.approx(0.164825, abs=2e-5)
    assert res01.eta == pytest.approx(1.0802e-2, abs=2e-6)


def test_filter_output_is_normalized(ref, ref_pulse):
    res = reflect_filter_pulse(ref_pulse, joint_state("01"), ref)
    assert res.f_out.is_normalized()
    assert res.backend == "filter"
    assert 0.0 <= res.eta <= 1.0


def test_longer_pulse_improves_match(ref):
    taus = (10.0 / ref.kappa, 40.0 / ref.kappa)
    eps = []
    for tau in taus:
        f = gaussian_pulse(tau, default_grid(tau, ref.kappa))
        eps.append(reflect_filter_pulse(f, joint_state("01"), ref).epsilon)
    assert eps[1] < eps[0]


def test_analytic_backend(ref, ref_pulse):
    out = scatter_all_states(ref_pulse, 0.7, ref, backend="analytic")
    for lab in STATE_LABELS:
        r = out[lab]
        assert r.epsilon == 0.0 and r.eta == 0.0
        assert r.backend == "analytic"
    assert out["11"].alpha_out == pytest.approx(-0.7)
    assert abs(out["11"].phase) == pytest.approx(math.pi)
    assert out["00"].alpha_out == pytest.approx(0.7 * 1151.0 / 1153.0)


def test_meanfield_matches_filter_in_linear_state(ref, ref_pulse, meanfield_ref_runs):
    # uncoupled configuration: the cavity is exactly linear, so the
    # time-domain result must reproduce the spectral filter to round-off.
    # It comes from the bare-cavity recurrence, which
    # test_bare_cavity_recurrence_matches_rk4 holds to the RK4 rhs of an
    # 11 job; the chain pins the frequency-sign convention of the
    # integrator.  The zero-detuning run comes from the session batch
    detuned = dataclasses.replace(ref, detuning=0.3 * ref.kappa)
    for p, run in (
        (ref, meanfield_ref_runs[1e-3]["11"]),
        (detuned, reflect_meanfield(ref_pulse, 1e-3, joint_state("11"), detuned)),
    ):
        d = abs(
            xi_effective(reflect_filter_pulse(ref_pulse, joint_state("11"), p))
            - xi_effective(run)
        )
        assert d < 1e-8


def test_meanfield_close_to_filter_when_weakly_driven(ref, ref_pulse, meanfield_ref_runs):
    for lab in ("00", "01"):
        st = joint_state(lab)
        d = abs(
            xi_effective(reflect_filter_pulse(ref_pulse, st, ref))
            - xi_effective(meanfield_ref_runs[0.1][lab])
        )
        assert d < 1e-3


def test_meanfield_saturates_with_amplitude(meanfield_ref_runs):
    eps = [meanfield_ref_runs[a]["01"].epsilon for a in (1e-3, 0.5, 1.0)]
    assert eps[0] < eps[1] < eps[2]


def test_meanfield_rejects_zero_amplitude(ref, ref_pulse):
    # |alpha|^2 must be finite and nonzero: 1e-320 squares to 0, 1e300 past
    # the largest float (both used to fail in _decompose's division)
    for alpha in (0.0, 1e-320, 1e300):
        with pytest.raises(ValueError):
            reflect_meanfield(ref_pulse, alpha, joint_state("01"), ref)
        # master shares the check (it used to divide by zero in _decompose),
        # and a dipole-free job is checked though it is never integrated
        with pytest.raises(ValueError, match="nonzero"):
            reflect_master(ref_pulse, alpha, joint_state("11"), ref, fock_dim=4)


def test_meanfield_diagnostics(ref_pulse, meanfield_ref_runs):
    r = meanfield_ref_runs[0.5]["01"]
    assert r.diagnostics["c_trajectory"].shape == (ref_pulse.grid.n_samples,)
    assert r.diagnostics["peak_photon"] > 0
    # peak charge excitation: grows as |alpha|^2 in the weak-drive regime
    # (0.0044 -> 0.0177 measured) and crosses the validity bound by 0.5
    weak = {a: meanfield_ref_runs[a]["01"].diagnostics for a in (0.1, 0.2)}
    assert weak[0.1]["peak_excitation"] > 0
    assert 3.6 <= weak[0.2]["peak_excitation"] / weak[0.1]["peak_excitation"] <= 4.4
    assert weak[0.1]["peak_excitation"] < MEANFIELD_EXCITATION_BOUND
    assert not weak[0.1]["unreliable"]
    assert r.diagnostics["peak_excitation"] > MEANFIELD_EXCITATION_BOUND
    assert r.diagnostics["unreliable"]


def test_master_fock_truncation_judged_by_measured_tail(ref, ref_tau):
    # master's truncation has one judge, the measured peak tail of the rows
    # it integrates.  At alpha = 1.5, Fock 12 holds the top two levels of
    # 00 and 01 to 3.6e-7 and 2.1e-6, under the bound, and epsilon and eta
    # agree with Fock 16 to 7.6e-7 (Fock 16 agrees with 20 to 1.4e-10)
    short = gaussian_pulse(ref_tau, default_grid(ref_tau, ref.kappa, n_samples=705))
    small, large = (scatter_all_states(short, 1.5, ref, backend="master", fock_dim=n) for n in (12, 16))
    for lab in ("00", "01"):
        d = small[lab].diagnostics
        assert FOCK_TAIL_BOUND > d["fock_tail"] > 0 and not d["unreliable"], lab
        assert small[lab].epsilon == pytest.approx(large[lab].epsilon, rel=0, abs=2e-6), lab
        assert small[lab].eta == pytest.approx(large[lab].eta, rel=0, abs=2e-6), lab


def test_master_bare_state_needs_no_fock_levels(ref, ref_pulse):
    # state 11 takes the exact bare-cavity field, which never lives in the
    # truncated space: at alpha = 20 (peak photon number 310) Fock 4 and 16
    # give the same bits, and the row reports no tail and no flag
    small, large = (reflect_master(ref_pulse, 20.0, joint_state("11"), ref, fock_dim=n) for n in (4, 16))
    c = small.diagnostics["c_trajectory"]
    assert c.tobytes() == large.diagnostics["c_trajectory"].tobytes()
    assert (small.epsilon, small.eta, small.phase) == (large.epsilon, large.eta, large.phase)
    assert small.phase == math.pi
    for r in (small, large):
        d = r.diagnostics
        assert d["fock_tail"] == d["trace_drift"] == d["min_eigenvalue"] == 0 and not d["unreliable"]
        assert d["peak_photon"] == np.max(np.abs(c) ** 2) > 300


def test_master_run_records_and_hygiene(ref, master_half_runs):
    for lab, r in master_half_runs.items():
        assert r.backend == "master"
        d = r.diagnostics
        assert d["trace_drift"] < 1e-6
        assert d["min_eigenvalue"] > -1e-7
        assert d["fock_tail"] < 1e-4
        assert not d["unreliable"]


# epsilon, eta and phase of the alpha = 0.5, Fock 16 runs from the density-
# matrix rhs as it stood before it was written through the effective
# non-Hermitian Hamiltonian (10 matrix products per rhs, now 6).  The
# rewrite changes rounding only, so the values agree to 1e-12 relative.
# The absolute floor covers the three that are zero in exact arithmetic
# (the 00 and 01 phases at zero detuning, the loss of the dipole-free 11),
# where rounding and step error is all there is.  The 11 row now comes
# from the bare-cavity recurrence, not the density matrix: the same RK4
# step, rounded differently, moves its eta by 1.1e-15, so that one value
# has a floor of 1e-14.
_MASTER_HALF_FROZEN = {
    "00": (0.034670795768072415, 0.04794886802021037, -1.5976778292967417e-17),
    "01": (0.15077086313888377, 0.17938790639539937, -2.037532342989372e-17),
    "11": (0.6886409151624587, 3.4849900742983664e-13, 3.141592653589793),
}


def test_master_half_runs_frozen_values(master_half_runs):
    for lab, want in _MASTER_HALF_FROZEN.items():
        r = master_half_runs[lab]
        eta_floor = 1e-14 if lab == "11" else 1e-15
        assert (r.epsilon, r.phase) == pytest.approx(want[::2], rel=1e-12, abs=1e-15), lab
        assert r.eta == pytest.approx(want[1], rel=1e-12, abs=eta_floor), lab


def test_bare_cavity_recurrence_matches_rk4(ref, ref_pulse, bare_lab_frame_runs, master_half_runs):
    # a dipole-free job skips the RK4 batch for the closed-form recurrence
    # of the same step.  It must agree with the density matrix propagated
    # at g_eff = 0 in the lab frame, and with the meanfield RK4 on an 11
    # job, both to 1e-13 of peak; its diagnostics are those of the exact
    # coherent state, under each backend's keys
    alpha, fock_dim, lab_frame = bare_lab_frame_runs
    st = joint_state("11")
    drive = _upsample(ref_pulse.envelope)
    for det, lab_run in lab_frame.items():
        p = dataclasses.replace(ref, detuning=det * ref.kappa)
        ms = reflect_master(ref_pulse, alpha, st, p, fock_dim=fock_dim)
        c = ms.diagnostics["c_trajectory"]
        want = lab_run["c"]
        assert np.abs(c - want).max() <= 1e-13 * np.abs(want).max(), det
        # a complex amplitude: the recurrence runs at unit amplitude and is scaled
        a_c = alpha * (0.6 - 0.8j)
        mf = reflect_meanfield(ref_pulse, a_c, st, p)
        rk4_c, rk4_diags, _ = _meanfield_rows(ref_pulse.grid, [(a_c, st, p)], drive,
                                              ref_pulse.envelope, True)[0]
        got = mf.diagnostics["c_trajectory"]
        assert np.abs(got - rk4_c).max() <= 1e-13 * np.abs(rk4_c).max(), det

        assert mf.diagnostics.keys() == {"c_trajectory", *rk4_diags}
        for key in ("max_sigma_abs", "peak_excitation", "unreliable"):
            assert mf.diagnostics[key] == rk4_diags[key] == 0, key
        assert ms.diagnostics.keys() == master_half_runs["00"].diagnostics.keys()
        d = ms.diagnostics
        # the exact field used no truncated space: it has no Fock tail either
        assert d["trace_drift"] == d["min_eigenvalue"] == d["fock_tail"] == 0 and not d["unreliable"]
        assert d["peak_photon"] == pytest.approx(np.max(np.abs(lab_run["c"]) ** 2), rel=1e-12)


def test_master_flags_fock_tail_at_its_peak(ref, ref_pulse):
    # at alpha = 0.5 and Fock 4 the pulse fills the top two levels of
    # state 01 to 4.0e-3, 40 times the bound, while the cavity it leaves
    # behind is empty: the flag reads the peak over the run, which equals
    # the peak population of the density matrix propagated alone
    st = joint_state("01")
    space = HilbertSpace(4)
    top_two = np.diag((np.arange(space.dim) % 4 >= 2).astype(complex))
    records, rho, _ = master_run(
        space, st.g_eff(ref.g_coupling), ref, ref_pulse.grid, 0.5 * ref_pulse.envelope,
        DensityMatrix.ground(space), {"tail": top_two},
    )
    d = reflect_master(ref_pulse, 0.5, st, ref, fock_dim=4).diagnostics
    assert d["fock_tail"] == pytest.approx(records["tail"].real.max(), rel=1e-12)
    assert d["fock_tail"] > 10 * FOCK_TAIL_BOUND and d["unreliable"]
    assert rho.fock_tail() < 1e-20


def test_bare_cavity_recurrence_follows_substeps(ref, ref_pulse, monkeypatch):
    # the recurrence folds over however many RK4 steps a grid interval
    # takes: at two, it still equals the meanfield RK4 on a state-11 job
    monkeypatch.setattr(scattering, "_SUBSTEPS", 2)
    drive = _upsample(ref_pulse.envelope)
    a = 0.3 - 0.4j
    job = (a, joint_state("11"), ref)
    rk4_c, _, _ = _meanfield_rows(ref_pulse.grid, [job], drive, ref_pulse.envelope, True)[0]
    got = a * _bare_cavity_field(ref, drive, ref_pulse.grid)
    assert np.abs(got - rk4_c).max() <= 1e-13 * np.abs(rk4_c).max()


@pytest.mark.parametrize("backend", ["meanfield", "master"])
def test_bare_rows_scale_one_unit_run(ref, ref_pulse, backend, monkeypatch):
    # a dipole-free job's row is the unit run's, scaled: energy |alpha|^2
    # E1, overlap (alpha/|alpha|) ov1, peak photon number |alpha|^2 times
    # the unit peak.  Against the integrals (taken where _reflection
    # receives them) and the decomposition of its own field
    # alpha (f + sqrt(kappa) c_unit), from the amplitude floor to -20: the
    # energy, epsilon and the phase agree to 1e-15 relative, the overlap
    # and eta to 1e-15 (2.8e-16, 2.0e-16, 0, 1.1e-16 and 2.2e-16 measured).
    # Detuned too, so that the phase is not pi.  Without fields a bare
    # job carries no field and no trajectory
    seen = []
    real = scattering._reflection

    def spy(f_in, energy, ov, *rest):
        seen.append((energy, ov))
        return real(f_in, energy, ov, *rest)

    monkeypatch.setattr(scattering, "_reflection", spy)
    alphas = [math.sqrt(MIN_ALPHA_SQUARED), 1e-3, 0.5, 1j, -20.0]
    st = joint_state("11")
    for p in (ref, dataclasses.replace(ref, detuning=0.3 * ref.kappa)):
        seen.clear()
        got = list(scattering._reflect_batch(ref_pulse, [(a, st, p) for a in alphas], backend, False))
        c_unit = _bare_cavity_field(p, _upsample(ref_pulse.envelope), ref_pulse.grid)
        want = [_decompose(ref_pulse, a * (ref_pulse.envelope + math.sqrt(p.kappa) * c_unit), a, st, p,
                           backend, {}) for a in alphas]
        peak = np.max(np.abs(c_unit) ** 2)
        for a, r, w, (e, ov), (we, wov) in zip(alphas, got, want, seen, seen[len(alphas):]):
            assert e == pytest.approx(we, rel=1e-15, abs=0) and abs(ov - wov) <= 1e-15, a
            assert (r.epsilon, r.phase) == pytest.approx((w.epsilon, w.phase), rel=1e-15, abs=0), a
            assert r.eta == pytest.approx(w.eta, rel=0, abs=1e-15), a
            assert r.diagnostics["peak_photon"] == pytest.approx(abs(a) ** 2 * peak, rel=1e-15, abs=0), a
            assert r.f_out is None and "c_trajectory" not in r.diagnostics, a


def test_batch_elements_equal_single_runs(ref, ref_tau):
    # a quarter of the default samples keeps this cheap; both sides share it
    pulse = gaussian_pulse(ref_tau, default_grid(ref_tau, ref.kappa, n_samples=705))
    # meanfield: bit for bit, whatever the batch holds
    batch = list(scatter_batch(pulse, [(0.3, ref), (0.6, ref)], backend="meanfield"))
    single = reflect_meanfield(pulse, 0.6, joint_state("01"), ref)
    for key in ("c_trajectory", "peak_excitation", "max_sigma_abs"):
        got = np.asarray(batch[1]["01"].diagnostics[key])
        assert got.tobytes() == np.asarray(single.diagnostics[key]).tobytes(), key
    # master: a batched matrix product may round differently, nothing more
    batch = list(scatter_batch(pulse, [(0.05, ref), (0.1, ref)], backend="master", fock_dim=4))
    single = reflect_master(pulse, 0.1, joint_state("00"), ref, fock_dim=4)
    np.testing.assert_allclose(
        batch[1]["00"].diagnostics["c_trajectory"], single.diagnostics["c_trajectory"],
        rtol=1e-12, atol=1e-15 * np.abs(single.diagnostics["c_trajectory"]).max(),
    )
    assert batch[0]["11"].alpha_in == 0.05 and batch[1]["10"].state.label == "10"


def _meanfield_bytes(row):
    c, diags, integrals = row
    keys = ("peak_photon", "peak_excitation", "max_sigma_abs")
    return [c.tobytes(), np.array(integrals).tobytes()] + [np.float64(diags[key]).tobytes() for key in keys]


@pytest.mark.parametrize("detuning, n_samples", [(0.0, 705), (0.3, 705), (0.3, 700)])
def test_meanfield_rows_equal_reference_loop(ref, ref_tau, detuning, n_samples):
    # the stepper's in-place rhs and its streamed integrals against the
    # one-array-per-operation loop it replaced, bit for bit, at amplitudes
    # from linear to saturated; 700 samples end on a partial forcing chunk
    pulse = gaussian_pulse(ref_tau, default_grid(ref_tau, ref.kappa, n_samples=n_samples))
    drive = _upsample(pulse.envelope)
    p = dataclasses.replace(ref, detuning=detuning * ref.kappa)
    jobs = [(a, joint_state(lab), p) for a in (0.1, 1, 5, 22, 0.7 - 0.4j) for lab in ("00", "01")]
    rows = _meanfield_rows(pulse.grid, jobs, drive, pulse.envelope, True)
    want = meanfield_reference_rows(pulse.grid, jobs, drive, pulse.envelope)
    for k, (got, ref_row) in enumerate(zip(rows, want)):
        assert _meanfield_bytes(got) == _meanfield_bytes(ref_row), jobs[k][:2]
    # a job alone rounds as its row of the batch, and a row without its
    # record keeps the same integrals and diagnostics
    alone = _meanfield_rows(pulse.grid, jobs[7:8], drive, pulse.envelope, True)[0]
    assert _meanfield_bytes(alone) == _meanfield_bytes(rows[7])
    for got, unrecorded in zip(rows, _meanfield_rows(pulse.grid, jobs, drive, pulse.envelope, False)):
        assert unrecorded[0] is None and unrecorded[1:] == got[1:]


def test_meanfield_integrals_match_decompose(ref, ref_pulse):
    # meanfield decomposes a job from the trapezoid sums it accumulates as
    # it steps, not from its trajectory array: against _decompose on the
    # recorded trajectory, epsilon and the phase agree to 1e-13 relative
    # and eta to 1e-10 (1 - E/|alpha|^2 cancels; 3.0e-14, 2.6e-15 and
    # 1.7e-11 measured).  Detuned, so that no phase is rounding noise.
    # Without fields a result carries no f_out and no trajectory, and
    # the same epsilon, eta and phase
    p = dataclasses.replace(ref, detuning=0.3 * ref.kappa)
    points = [(a, p) for a in (0.1, 1, 5, 20)]
    with_fields, without = (scatter_batch(ref_pulse, points, "meanfield", fields=f) for f in (True, False))
    for (a, _), res, bare in zip(points, with_fields, without):
        for lab in ("00", "01"):
            r = res[lab]
            g_out = a * ref_pulse.envelope + math.sqrt(p.kappa) * r.diagnostics["c_trajectory"]
            want = _decompose(ref_pulse, g_out, a, r.state, p, "meanfield", {})
            assert r.epsilon == pytest.approx(want.epsilon, rel=1e-13, abs=0), (a, lab)
            assert r.phase == pytest.approx(want.phase, rel=1e-13, abs=0), (a, lab)
            assert r.eta == pytest.approx(want.eta, rel=1e-10, abs=0), (a, lab)
            np.testing.assert_allclose(r.f_out.envelope, want.f_out.envelope, rtol=0,
                                       atol=1e-14 * np.abs(want.f_out.envelope).max())
            assert bare[lab].f_out is None and "c_trajectory" not in bare[lab].diagnostics
            assert (bare[lab].epsilon, bare[lab].eta, bare[lab].phase) == (r.epsilon, r.eta, r.phase)


@pytest.mark.parametrize("n_samples", [9, 10, 705, 2816, 2817])
def test_upsample_is_the_trigonometric_interpolant(ref, ref_tau, n_samples):
    # the interpolant of a real envelope is real and passes through its
    # samples (an odd grid once put bin (m-1)/2 at -(m+1)/2: 0.15 of peak
    # imaginary at 9 samples), and a band-limited complex signal is
    # interpolated exactly, its highest bins on both sides too
    factor = 2 * scattering._SUBSTEPS
    env = gaussian_pulse(ref_tau, default_grid(ref_tau, ref.kappa, n_samples=n_samples)).envelope
    fine = _upsample(env)
    peak = np.abs(env).max()
    assert fine.shape == (factor * n_samples,)
    assert np.abs(fine.imag).max() <= 1e-15 * peak
    assert np.abs(fine[::factor] - env).max() <= 1e-15 * peak
    top = (n_samples - 1) // 2
    bins = {top: 0.5, -top: 0.25 - 0.5j, 1: 1.0, -2: 0.3j}

    def tone(k, per):       # at t = k / per grid steps, the phase reduced exactly
        m = per * n_samples
        return sum(a * np.exp(2j * math.pi * (q * k % m) / m) for q, a in bins.items())

    got = _upsample(tone(np.arange(n_samples), 1))
    assert np.abs(got - tone(np.arange(factor * n_samples), factor)).max() <= 1e-13


def test_rk4_partial_chunk_keeps_y0_and_each_record(ref, ref_tau):
    # the stepper on y' = lam y - b scale against the plain loop, over
    # 700 samples: 2,796 steps, so the last forcing chunk is partial.
    # The caller's y0 stays as it was, and every grid point's record is
    # the reference loop's.  A drive that stops at grid point 500 (2,000
    # steps, mid-chunk) is stepped to there: records 0..500, the same
    # bits, and the state at 500 returned
    grid = default_grid(ref_tau, ref.kappa, n_samples=700)
    assert 4 * (grid.n_samples - 1) % _CHUNK != 0
    drive = _upsample(gaussian_pulse(ref_tau, grid).envelope)
    lam = np.full((2, 3), (-0.3 + 0.2j) * ref.kappa)
    scale = np.array([1.0, 0.5 - 0.25j, -2j]) * ref.kappa
    y0 = (np.arange(6.0) - 2.5j).reshape(2, 3)
    before = y0.copy()

    def bind(x, k):
        def rhs(row):
            np.multiply(lam, x, out=k)
            np.subtract(k, row, out=k)
        return rhs

    got, want = [], []
    y_end, end = _rk4(bind, y0, drive, lambda d: d[:, None] * scale, grid,
                      lambda k, y: got.append((k, y.copy())))
    rk4_reference(lambda y, b: lam * y - b * scale, y0, drive, grid,
                  lambda k, y: want.append((k, y.copy())))
    assert y0.tobytes() == before.tobytes()
    assert [k for k, _ in got] == [k for k, _ in want] == list(range(grid.n_samples))
    assert all(g.tobytes() == w.tobytes() for (_, g), (_, w) in zip(got, want))
    assert y_end.tobytes() == got[-1][1].tobytes() and end == grid.n_samples - 1

    short = []
    y_end, end = _rk4(bind, y0, drive[: 8 * 500 + 1], lambda d: d[:, None] * scale, grid,
                      lambda k, y: short.append((k, y.copy())))
    assert end == 500 and 4 * end % _CHUNK != 0
    assert [k for k, _ in short] == list(range(end + 1))
    assert all(g.tobytes() == w.tobytes() for (_, g), (_, w) in zip(short, want))
    assert y_end.tobytes() == want[end][1].tobytes()


def test_batch_rejects_mixed_devices(ref, ref_pulse):
    other = dataclasses.replace(ref, kappa=2 * ref.kappa)
    with pytest.raises(ValueError, match="share"):
        scatter_batch(ref_pulse, [(0.3, ref), (0.3, other)], backend="meanfield")


def test_scatter_batch_refuses_at_the_call(ref, ref_pulse):
    # the results come one point at a time, as they are consumed; every
    # refusal still comes from the call itself, with nothing consumed
    coarse = gaussian_pulse(10.0 / ref.kappa, default_grid(10.0 / ref.kappa, ref.kappa, n_samples=9))
    cases = [
        ((ref_pulse, [(0.3, ref)], "exact"), ValueError, "unknown backend"),
        ((ref_pulse, [(0.3, ref), (0.3, dataclasses.replace(ref, t1=2 * ref.t1))], "master"),
         ValueError, "share"),
        ((coarse, [(0.3, ref)], "master"), NumericsError, "trace drifted"),
    ] + [
        ((ref_pulse, [(0.3, ref), (1e-320, ref)], backend), ValueError, "finite and nonzero")
        for backend in ("analytic", "filter", "meanfield", "master")
    ]
    for args, error, match in cases:
        with np.errstate(all="ignore"), pytest.raises(error, match=match):
            scatter_batch(*args, fock_dim=4)


def test_master_close_to_meanfield_at_half_photon(master_half_runs, meanfield_ref_runs):
    # saturation physics separates the backends at the percent level;
    # this guards only against gross disagreement (sign/convention bugs)
    for lab in ("00", "01", "11"):
        mf = meanfield_ref_runs[0.5][lab]
        ms = master_half_runs[lab]
        assert abs(xi_effective(mf) - xi_effective(ms)) < 0.1
        assert ms.epsilon == pytest.approx(mf.epsilon, abs=0.05)


def test_master_linear_state_matches_filter(ref, ref_pulse, master_half_runs):
    d = abs(
        xi_effective(master_half_runs["11"])
        - xi_effective(reflect_filter_pulse(ref_pulse, joint_state("11"), ref))
    )
    assert d < 1e-6


@pytest.mark.parametrize("fock_dim", [3, 5])
def test_evolve_master_matches_dense_lindblad(ref, fock_dim):
    # the rhs writes the jumps as index shifts on the (charge, Fock) view
    # and rho H^dagger as (H rho)^dagger; the oracle takes every term as a
    # dense matrix product.  Detuning, drive and a charge-excited start
    # give every term of the rhs a nonzero share.
    p = dataclasses.replace(ref, detuning=0.3 * ref.kappa)
    g_eff = joint_state("00").g_eff(p.g_coupling)
    n = 41
    grid = TimeGrid(0.0, 0.025 / p.kappa, n)
    period = n * grid.dt

    # two Fourier modes periodic over the grid window: the trigonometric
    # upsampling of the samples reproduces this function at every stage time
    def beta(t):
        u = 2j * math.pi * (t - grid.t_start) / period
        return 0.4 * math.sqrt(p.kappa) * (0.6 + 0.3 * cmath.exp(u) - 0.2j * cmath.exp(-2 * u))

    space = HilbertSpace(fock_dim)
    vec = np.zeros(space.dim, dtype=complex)
    vec[0] = 1.0                            # |0> |0>
    vec[fock_dim] = 0.6 + 0.3j              # |a> |0>
    vec[fock_dim + 1] = 0.5                 # |a> |1>
    vec[2] = 0.2j                           # |0> |2>
    vec /= np.linalg.norm(vec)
    rho0 = DensityMatrix(space, np.outer(vec, vec.conj()))
    c = space.cavity_op()
    records, rho, _ = master_run(space, g_eff, p, grid, np.array([beta(t) for t in grid.times()]), rho0)
    want_c, want_rho = dense_lindblad_evolve(
        fock_dim, g_eff, p.kappa, p.t1, p.detuning, beta, rho0.matrix,
        grid.t_start, grid.dt, n, c,
    )
    np.testing.assert_allclose(
        records["c"], want_c, rtol=1e-12, atol=1e-12 * np.abs(want_c).max()
    )
    np.testing.assert_allclose(
        rho.matrix, want_rho, rtol=1e-12, atol=1e-12 * np.abs(want_rho).max()
    )


@pytest.mark.parametrize("n", [17, 41])
@pytest.mark.parametrize("fock_dim", [3, 5])
def test_master_batch_rows_match_dense_lindblad(ref, fock_dim, n):
    # three rows that differ in coupling (one dipole-free), in complex
    # drive scale and in initial state: a jump slice that bleeds into the
    # next row of the flat batch, or a drive written onto the wrong row,
    # breaks the row-by-row agreement with the dense oracle.  The drive
    # diagonals are built a chunk of _CHUNK = 64 steps at a time: n = 17
    # gives 64 steps, one full chunk; n = 41 gives 160, two full chunks
    # and a partial one
    p = dataclasses.replace(ref, detuning=0.3 * ref.kappa)
    grid = TimeGrid(0.0, 0.025 / p.kappa, n)
    period = n * grid.dt

    def beta(t):                            # periodic over the window, as above
        u = 2j * math.pi * (t - grid.t_start) / period
        return 0.4 * math.sqrt(p.kappa) * (0.6 + 0.3 * cmath.exp(u) - 0.2j * cmath.exp(-2 * u))

    space = HilbertSpace(fock_dim)
    g_eff = np.array([joint_state(lab).g_eff(p.g_coupling) for lab in ("00", "11", "01")])
    scale = np.array([1.0, 0.7 - 0.4j, -0.3 + 0.9j])
    rng = np.random.default_rng(5)
    rho0 = []
    for _ in range(3):
        m = rng.normal(size=(space.dim, 2)) + 1j * rng.normal(size=(space.dim, 2))
        m = m @ m.conj().T                  # Hermitian, positive, rank 2
        rho0.append(m / np.trace(m).real)
    c = space.cavity_op()
    drive = _upsample(np.array([beta(t) for t in grid.times()]))
    # the same drive cut at grid point `end`, two thirds of the way, and
    # zero from there on (its last value too, where the oracle's next step
    # starts): from `end` the rows relax in closed form, a matrix power per
    # coherence sector.  The oracle reads the zeroed drive at its stage
    # times (drive[i] sits at t_start + i h/2) and steps RK4 to the end.
    # The random rho0 reach every sector.
    end = 2 * n // 3
    ended = drive.copy()
    ended[8 * end :] = 0.0
    half_h = grid.dt / 8

    def ended_beta(t):
        return ended[round((t - grid.t_start) / half_h)]

    for drv, b in ((drive, beta), (ended[: 8 * end + 1], ended_beta)):
        records, rho, maxima = _evolve_master_batch(space, g_eff, p, grid, drv, scale, np.array(rho0), {"c": c})
        assert maxima["trace_drift"].max() < 1e-12
        for k in range(3):
            want_c, want_rho = dense_lindblad_evolve(
                fock_dim, g_eff[k], p.kappa, p.t1, p.detuning, lambda t: scale[k] * b(t),
                rho0[k], grid.t_start, grid.dt, n, c,
            )
            np.testing.assert_allclose(
                records["c"][k], want_c, rtol=1e-12, atol=1e-12 * np.abs(want_c).max()
            )
            np.testing.assert_allclose(
                rho[k], want_rho, rtol=1e-12, atol=1e-12 * np.abs(want_rho).max()
            )


def test_master_rows_sharing_a_coupling_equal_a_batch_of_one(ref, ref_tau):
    # the closed-form tail builds one set of sector maps per distinct
    # coupling and hands each row its own.  Couplings [sqrt(2) g, g,
    # sqrt(2) g] repeat one and are not in sorted order: each row's records,
    # maxima and final state must be those of the row run alone, bit for bit
    pulse = gaussian_pulse(ref_tau, default_grid(ref_tau, ref.kappa, n_samples=141))
    end = 60
    drive = _upsample(pulse.envelope)[: 2 * scattering._SUBSTEPS * end + 1]
    space = HilbertSpace(4)
    c = space.cavity_op()
    ops = {"c": c, "n": c.conj().T @ c}
    g_eff = np.array([joint_state(lab).g_eff(ref.g_coupling) for lab in ("00", "01", "00")])
    scale = np.array([0.5, 0.3j, -0.4 + 0.2j])
    rho0 = np.repeat(DensityMatrix.ground(space).matrix[None], 3, axis=0)
    records, rho, maxima = _evolve_master_batch(space, g_eff, ref, pulse.grid, drive, scale, rho0, ops)
    assert maxima["fock_tail"].min() > 0
    for k in range(3):
        one = np.s_[k : k + 1]
        rec1, rho1, max1 = _evolve_master_batch(space, g_eff[one], ref, pulse.grid, drive, scale[one],
                                                rho0[one], ops)
        for name in ops:
            assert records[name][k].tobytes() == rec1[name][0].tobytes(), (k, name)
        assert rho[k].tobytes() == rho1[0].tobytes(), k
        for name, peak in maxima.items():
            assert peak[k] == max1[name][0], (k, name)


@pytest.mark.parametrize("alpha", [0.5, 5.0])
def test_master_ring_down_matches_full_rk4(ref, ref_tau, alpha):
    # a reflection hands master its drive only up to the pulse's end, and
    # the rows relax undriven in closed form from there; master_run hands
    # it the whole interpolant, whose tail is the FFT's ringing, and steps
    # RK4 to the end.  Dropping the ringing and rounding the closed form
    # moves c by less than 1e-12 of peak, and epsilon, eta and the phase by
    # less than 1e-12.  A quarter of the default samples keeps this cheap:
    # the pulse ends at the same 40 % of the grid, and rings as much past it
    pulse = gaussian_pulse(ref_tau, default_grid(ref_tau, ref.kappa, n_samples=705))
    assert _upsample(pulse.envelope)[-1] != 0
    jobs = [(alpha, joint_state(lab), ref) for lab in ("00", "01")]
    space = HilbertSpace(12)
    for (a, st, p), r in zip(jobs, scattering._reflect_batch(pulse, jobs, "master", True, 12)):
        records, _, _ = master_run(space, st.g_eff(p.g_coupling), p, pulse.grid, a * pulse.envelope,
                                   DensityMatrix.ground(space))
        want = records["c"]
        assert np.abs(r.diagnostics["c_trajectory"] - want).max() <= 1e-12 * np.abs(want).max(), st.label
        full = _decompose(pulse, a * pulse.envelope + math.sqrt(p.kappa) * want, a, st, p, "master", {})
        assert (r.epsilon, r.eta, r.phase) == pytest.approx((full.epsilon, full.eta, full.phase), rel=0, abs=1e-12)


def test_master_reflection_writes_nothing_into_the_drive(ref, ref_tau, monkeypatch):
    # state 11's unit run and the coupled batch share one upsampled drive;
    # master reads it only, so a read-only drive gives the same results
    pulse = gaussian_pulse(ref_tau, default_grid(ref_tau, ref.kappa, n_samples=705))
    jobs = [(0.5, joint_state(lab), ref) for lab in ("00", "11")]
    want = [(r.epsilon, r.eta, r.phase) for r in scattering._reflect_batch(pulse, jobs, "master", False, 4)]

    def read_only(values):
        out = _upsample(values)
        out.flags.writeable = False
        return out

    monkeypatch.setattr(scattering, "_upsample", read_only)
    got = [(r.epsilon, r.eta, r.phase) for r in scattering._reflect_batch(pulse, jobs, "master", False, 4)]
    assert got == want


def test_evolve_master_leaves_rho0_and_keeps_each_record(ref):
    # the stepper advances a copy of rho0 in place; the caller's matrix
    # must not change, and every grid point keeps its own record
    space = HilbertSpace(4)
    grid = TimeGrid(0.0, 0.05 / ref.kappa, 33)
    rho0 = DensityMatrix.ground(space)
    before = rho0.matrix.copy()
    records, _, _ = master_run(
        space, joint_state("01").g_eff(ref.g_coupling), ref, grid,
        np.full(grid.n_samples, 0.3 * math.sqrt(ref.kappa), dtype=complex), rho0,
    )
    assert rho0.matrix.tobytes() == before.tobytes()
    c = records["c"]
    assert np.all(c[1:] != c[:-1])


def test_evolve_master_nan_trace_raises(ref):
    # an RK4 step far outside the stability region overflows within one
    # grid interval; the NaN trace drift must fail, not pass as "small"
    space = HilbertSpace(6)
    grid = TimeGrid(0.0, 50.0 / ref.kappa, 16)
    with np.errstate(all="ignore"), pytest.raises(NumericsError, match="trace drifted by nan"):
        master_run(
            space, 1e9, ref, grid,
            np.full(grid.n_samples, 0.3 * math.sqrt(ref.kappa), dtype=complex),
            DensityMatrix.ground(space),
        )


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_decompose_rejects_non_finite_field(ref, ref_pulse, bad):
    # max(0, nan) is 0: without the check a NaN field reads as eps = eta = 0
    g_out = ref_pulse.envelope.astype(complex)
    g_out[g_out.size // 2] = bad
    with pytest.raises(NumericsError, match="not finite"):
        _decompose(ref_pulse, g_out, 0.5, joint_state("01"), ref, "master", {})


def test_scatter_all_states_reuses_symmetric_state(ref, ref_pulse):
    out = scatter_all_states(ref_pulse, 0.5, ref, backend="filter")
    assert set(out) == set(STATE_LABELS)
    assert out["10"].epsilon == out["01"].epsilon
    assert out["10"].alpha_out == out["01"].alpha_out
    assert out["10"].state.label == "10"


def test_scatter_rejects_unknown_backend(ref, ref_pulse):
    with pytest.raises(ValueError):
        scatter_all_states(ref_pulse, 0.5, ref, backend="exact")


# 1e-150 and 1e-160 square below MIN_ALPHA_SQUARED, the second to a subnormal
@pytest.mark.parametrize("alpha", [0.0, np.nan, 1e-320, 1e300, 1e-150, 1e-160])
@pytest.mark.parametrize("backend", ["analytic", "filter"])
def test_linear_backends_share_the_amplitude_rule(ref, ref_pulse, backend, alpha):
    # the time-domain backends' rule holds for the linear ones: filter's
    # decomposition divides by |alpha|^2, an analytic record's phase by alpha
    with pytest.raises(ValueError, match="finite and nonzero"):
        scatter_all_states(ref_pulse, alpha, ref, backend=backend)
    # and each single-state kernel applies it itself (the public filter used
    # to raise ZeroDivisionError, NumericsError or OverflowError)
    with pytest.raises(ValueError, match="finite and nonzero"):
        if backend == "filter":
            reflect_filter_pulse(ref_pulse, joint_state("01"), ref, alpha=alpha)
        else:
            _analytic_result(ref_pulse, alpha, joint_state("01"), ref)


@pytest.mark.parametrize("backend", ["filter", "meanfield"])
def test_amplitude_floor_keeps_the_decomposition_in_normal_floats(ref, ref_pulse, backend):
    # just above the floor eps and eta are those of an amplitude far from it
    # (filter: alpha = 1; meanfield, nonlinear: 1e-100); just below it is refused
    root = math.sqrt(MIN_ALPHA_SQUARED)
    low = scatter_all_states(ref_pulse, 1.0000001 * root, ref, backend=backend)
    far = scatter_all_states(ref_pulse, 1.0 if backend == "filter" else 1e-100, ref, backend=backend)
    for lab in STATE_LABELS:
        assert low[lab].epsilon == pytest.approx(far[lab].epsilon, rel=1e-12, abs=1e-15), lab
        assert low[lab].eta == pytest.approx(far[lab].eta, rel=1e-12, abs=1e-15), lab
    with pytest.raises(ValueError, match="finite and nonzero"):
        scatter_all_states(ref_pulse, 0.9999999 * root, ref, backend=backend)


def _metrics(ref, backend, scale=1.0, sign=1.0, alpha=0.5):
    """{label: (eps, eta, phase)} at `alpha` on a 400-sample grid, with
    g, kappa, the detuning (0.3 kappa) and 1/T1 times `scale` and the
    detuning times `sign`; tau kappa stays 10."""
    p = dataclasses.replace(
        ref, g_coupling=scale * ref.g_coupling, kappa=scale * ref.kappa,
        detuning=sign * scale * 0.3 * ref.kappa, t1=ref.t1 / scale,
    )
    tau = 10.0 / p.kappa
    pulse = gaussian_pulse(tau, default_grid(tau, p.kappa, n_samples=400))
    out = scatter_all_states(pulse, alpha, p, backend=backend, fock_dim=8)
    return {lab: (r.epsilon, r.eta, r.phase) for lab, r in out.items()}


def _assert_same(got, want):
    for lab in STATE_LABELS:
        for x, y in zip(got[lab], want[lab]):
            assert abs(x - y) <= 1e-12 * abs(y) + 1e-14, (lab, x, y)


@pytest.mark.parametrize("backend", ["filter", "meanfield", "master"])
def test_reflection_invariant_under_rate_scaling_and_detuning_mirror(ref, backend):
    # eps, eta and the phase are dimensionless: scaling every rate (and so
    # the time grid) leaves them alone up to rounding.  The charge sits on
    # resonance and the envelope is real, so D -> -D conjugates the output
    # field: the phase changes sign, eps and eta stay
    base = _metrics(ref, backend)
    for scale in (10.0, 0.37):
        _assert_same(_metrics(ref, backend, scale=scale), base)
    mirror = _metrics(ref, backend, sign=-1.0)
    _assert_same({lab: (eps, eta, -phase) for lab, (eps, eta, phase) in mirror.items()}, base)
    assert all(abs(phase) > 1e-3 for _, _, phase in base.values())     # the mirror is not trivial
    # every backend is symmetric under c -> c e^{i theta}, s -> s e^{i theta}:
    # all three depend on |alpha| alone (the phase used to count arg alpha
    # twice, and was pi off at alpha = -0.5)
    for alpha in (-0.5, 0.5j):
        _assert_same(_metrics(ref, backend, alpha=alpha), base)


_LINEAR_KERNELS = {"analytic": _analytic_result, "filter": reflect_filter_pulse}


# On a failure hypothesis imports libcst to suggest a patch, and libcst warns
# on import; under the suite's warnings-as-errors that would end the session
@pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@settings(derandomize=True, max_examples=40, database=None, deadline=None)
@given(
    magnitude=strat.floats(1e-3, 30.0),
    angle=strat.floats(-math.pi, math.pi),
    backend=strat.sampled_from(sorted(_LINEAR_KERNELS)),
)
def test_linear_batch_records_equal_kernel_calls(ref, ref_pulse, magnitude, angle, backend):
    # the batch scatters at alpha = 1 and rescales those records to the other
    # points: each must equal the kernel called at its alpha up to rounding,
    # and eps, eta, the phase and F must not depend on arg alpha
    alpha = magnitude * cmath.exp(1j * angle)
    batch = list(scatter_batch(ref_pulse, [(1.0, ref), (alpha, ref), (magnitude, ref)], backend))
    got, real = batch[1], batch[2]
    for lab in STATE_LABELS:
        r = got[lab]
        want = _LINEAR_KERNELS[backend](ref_pulse, alpha=alpha, state=joint_state(lab), params=ref)
        assert r.alpha_in == want.alpha_in and r.diagnostics == want.diagnostics, lab
        assert abs(r.alpha_out - want.alpha_out) <= 1e-14 * abs(want.alpha_out), lab
        assert abs(r.epsilon - want.epsilon) <= 1e-14 and abs(r.eta - want.eta) <= 1e-14, lab
        assert np.allclose(r.f_out.envelope, want.f_out.envelope, rtol=0,
                           atol=1e-14 * np.abs(want.f_out.envelope).max()), lab
        assert (r.epsilon, r.eta) == (real[lab].epsilon, real[lab].eta), lab
        assert abs(cmath.exp(1j * r.phase) - cmath.exp(1j * real[lab].phase)) <= 1e-14, lab
    f_alpha, f_real = (gate_fidelity(GateInputs(a, res)) for a, res in ((alpha, got), (magnitude, real)))
    assert f_alpha == pytest.approx(f_real, rel=1e-12, abs=1e-14)
