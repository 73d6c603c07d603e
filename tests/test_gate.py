import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from _oracles import brute_force_gate_fidelity, coherent_overlap_gate_fidelity
from resgate import gate, scattering
from resgate.errors import NumericsError
from resgate.gate import (
    GateInputs,
    _per_state_triples,
    gate_fidelity,
    input_mean_photon,
    sweep_coupling_variation,
    sweep_photon_number,
)
from resgate.scattering import STATE_LABELS, ReflectionResult, joint_state, scatter_all_states, xi_analytic


def _ideal_results(alpha, f_out):
    """Synthetic per-state records with perfect reflection: xi pattern
    (+1, +1, +1, -1), no mismatch, no loss."""
    out = {}
    for lab in ("00", "01", "10", "11"):
        xi = -1.0 if lab == "11" else 1.0
        out[lab] = ReflectionResult(
            state=joint_state(lab),
            xi=xi,
            alpha_in=alpha,
            alpha_out=xi * alpha,
            f_out=f_out,
            epsilon=0.0,
            eta=0.0,
            backend="analytic",
            diagnostics={},
        )
    return out


def test_gate_inputs_validation(ref_pulse):
    res = _ideal_results(1.0, ref_pulse)
    del res["10"]
    with pytest.raises(ValueError):
        GateInputs(1.0, res)
    res = _ideal_results(1.0, ref_pulse)
    res["01"] = dataclasses.replace(res["01"], backend="filter")
    with pytest.raises(ValueError):
        GateInputs(1.0, res)


def test_perfect_reflection_gives_unit_fidelity(ref_pulse):
    for alpha in (0.1, 1.0, 5.0, 20.0):
        fid = gate_fidelity(GateInputs(alpha, _ideal_results(alpha, ref_pulse)))
        assert fid == 1.0


def test_fidelity_decreases_in_each_epsilon(ref_pulse):
    for lab in ("00", "01", "11"):
        prev = 1.1
        for eps in np.linspace(0.0, 0.4, 9):
            res = _ideal_results(1.0, ref_pulse)
            res[lab] = dataclasses.replace(res[lab], epsilon=float(eps))
            fid = gate_fidelity(GateInputs(1.0, res))
            assert fid < prev
            prev = fid


def test_fidelity_decreases_in_each_eta(ref_pulse):
    for lab in ("00", "01", "11"):
        prev = 1.1
        for eta in np.linspace(0.0, 0.4, 9):
            res = _ideal_results(1.0, ref_pulse)
            res[lab] = dataclasses.replace(res[lab], eta=float(eta))
            fid = gate_fidelity(GateInputs(1.0, res))
            assert fid < prev
            prev = fid


def test_phase_error_lowers_fidelity_symmetrically(ref_pulse):
    def with_phase(phi):
        res = _ideal_results(1.0, ref_pulse)
        res["01"] = dataclasses.replace(
            res["01"], alpha_out=res["01"].alpha_out * np.exp(1j * phi)
        )
        return gate_fidelity(GateInputs(1.0, res))

    base = with_phase(0.0)
    plus, minus = with_phase(0.3), with_phase(-0.3)
    assert plus < base and minus < base
    assert plus == pytest.approx(minus, rel=1e-12)


def test_out_of_range_inputs_raise(ref_pulse):
    res = _ideal_results(1.0, ref_pulse)
    res["00"] = dataclasses.replace(res["00"], epsilon=1.2)
    with pytest.raises(NumericsError):
        gate_fidelity(GateInputs(1.0, res))
    res = _ideal_results(1.0, ref_pulse)
    res["11"] = dataclasses.replace(res["11"], eta=-0.01)
    with pytest.raises(NumericsError):
        gate_fidelity(GateInputs(1.0, res))


def test_matches_truncated_fock_oracle(ref, ref_pulse):
    xis = {
        lab: xi_analytic(joint_state(lab), ref.g_coupling, ref.kappa, ref.t1)
        for lab in ("00", "01", "10", "11")
    }
    res = scatter_all_states(ref_pulse, 0.8, ref, backend="analytic")
    fid = gate_fidelity(GateInputs(0.8, res))
    assert fid == pytest.approx(brute_force_gate_fidelity(0.8, xis), abs=1e-9)


def test_overlap_oracle_matches_truncated_fock_oracle(ref):
    # the closed-form oracle is what the acceptance suite uses at alpha=20,
    # far beyond any Fock truncation; pin it to the factorial sums where
    # both apply, including the coupling-varied devices of criterion 6
    for scale in (0.5, 1.0, 1.5):
        xis = {
            lab: xi_analytic(joint_state(lab), scale * ref.g_coupling, ref.kappa, ref.t1)
            for lab in ("00", "01", "10", "11")
        }
        for alpha in (0.3, 1.5, 3.0):
            assert coherent_overlap_gate_fidelity(alpha, xis) == pytest.approx(
                brute_force_gate_fidelity(alpha, xis), abs=1e-12
            )


def test_eta_global_is_worst_case(ref, ref_pulse):
    # the global loss is the worst state's, 01 (one dipole) for the filter
    res = scatter_all_states(ref_pulse, 0.5, ref, backend="filter")
    eta = max(r.eta for r in res.values())
    assert eta == pytest.approx(1.0802e-2, abs=2e-6)
    assert eta == res["01"].eta


def test_input_mean_photon():
    assert input_mean_photon(0.0) == 1.0
    assert input_mean_photon(1e-7) == 1.0
    assert input_mean_photon(1.0) == pytest.approx(1.0 / math.tanh(1.0), rel=1e-12)
    assert input_mean_photon(5.0) == pytest.approx(25.0, rel=1e-9)


def test_photon_sweep_shares_linear_scatter(ref):
    pts = sweep_photon_number(ref, [0.0, 0.5, 2.0], backend="filter")
    assert [p.x_value for p in pts] == [0.0, 0.25, 4.0]
    assert pts[0].fidelity == 1.0
    assert pts[0].mean_photon == 1.0
    # amplitude-independent backend: identical per-state mismatch rows
    assert pts[1].per_state["01"][1] == pts[2].per_state["01"][1]
    assert pts[1].fidelity > pts[2].fidelity
    # the sweep keeps scatter_batch's amplitude rule
    with pytest.raises(ValueError, match="finite and nonzero"):
        sweep_photon_number(ref, [np.nan], backend="filter")


def test_photon_sweep_records_match_direct_scatter(ref, monkeypatch):
    # a linear sweep rescales its first point's records to each amplitude;
    # no diagnostic may keep the value of that first amplitude (a filter
    # peak field once read 1.69e8 at alpha = 3, where a direct scatter
    # gives 1.52e9)
    seen = {}
    point = gate._point

    def spy(x_value, alpha, results):
        seen[alpha] = results
        return point(x_value, alpha, results)

    monkeypatch.setattr(gate, "_point", spy)
    sweep_photon_number(ref, [1.0, 3.0], backend="filter")
    direct = scatter_all_states(gate._default_pulse(ref, None, None), 3.0, ref, backend="filter")
    for lab in STATE_LABELS:
        assert seen[3.0][lab].diagnostics == direct[lab].diagnostics, lab


def test_coupling_sweep_consistent_with_photon_sweep(ref):
    # both sweeps are one scatter_batch call, and the fidelity depends on
    # |alpha| alone: at alpha = -0.8 the coupling sweep used to give 0.151
    # on filter against the photon sweep's 0.921
    for backend in ("filter", "meanfield"):
        real = sweep_photon_number(ref, [0.8], backend=backend)[0].fidelity
        for alpha in (0.8, -0.8, 0.8j):
            base = sweep_photon_number(ref, [alpha], backend=backend)[0].fidelity
            varied = sweep_coupling_variation(ref, [0.0], alpha, backend=backend)[0]
            assert varied.x_value == 0.0
            assert varied.fidelity == pytest.approx(base, rel=1e-12), (backend, alpha)
            assert base == pytest.approx(real, rel=1e-12), (backend, alpha)


def test_linear_sweeps_call_the_kernel_once_per_state_and_device(ref, monkeypatch):
    # the photon sweep's 22 driven points share one device: one filter run
    # per state (00, 01, 11); each coupling point is a device of its own
    calls = []
    kernel = scattering.reflect_filter_pulse

    def spy(*args, **kwargs):
        calls.append(kwargs["alpha"])
        return kernel(*args, **kwargs)

    monkeypatch.setattr(scattering, "reflect_filter_pulse", spy)
    sweep_photon_number(ref, np.linspace(0.0, 22.0, 23), backend="filter")
    assert calls == [1.0] * 3
    calls.clear()
    sweep_coupling_variation(ref, np.linspace(-0.2, 0.2, 11), 0.8, backend="filter")
    assert calls == [0.8] * 33


@pytest.mark.parametrize("first", [0.5, 0.3])
def test_photon_sweep_scatters_at_its_first_point(ref, first):
    # a linear sweep scatters at its first nonzero amplitude, not at 1;
    # the other points rescale it and agree with a sweep that starts at 1
    # to 1e-12 relative (0.5, a power of two, agrees exactly)
    alphas = [1.0, 2.0, 7.5, 22.0]
    want = sweep_photon_number(ref, alphas, backend="filter")
    got = sweep_photon_number(ref, [0.0, first, *alphas], backend="filter")[2:]
    for g, w in zip(got, want):
        assert g.x_value == w.x_value
        assert g.fidelity == pytest.approx(w.fidelity, rel=1e-12)
        for lab in STATE_LABELS:
            assert g.per_state[lab] == pytest.approx(w.per_state[lab], rel=1e-12, abs=1e-15), lab


def test_coupling_sweep_rejects_bad_fractions(ref):
    with pytest.raises(ValueError):
        sweep_coupling_variation(ref, [-1.0], 0.5)
    with pytest.raises(ValueError):
        sweep_coupling_variation(ref, [1.5], 0.5)
    with pytest.raises(ValueError, match="alpha"):
        sweep_coupling_variation(ref, [0.0], 0.0, backend="meanfield")


def test_batched_sweep_matches_single_points(ref, meanfield_ref_runs):
    # the sweep integrates both amplitudes and all states as one batch;
    # each point must equal the same amplitude's runs in the session
    # batch bit for bit, as meanfield batch elements equal single runs
    alphas = [0.25, 0.5]
    batched = sweep_photon_number(ref, alphas, backend="meanfield")
    assert [p.unreliable for p in batched] == [False, True]
    for a, point in zip(alphas, batched):
        single = meanfield_ref_runs[a]
        assert point.fidelity == gate_fidelity(GateInputs(a, single))
        assert point.per_state == _per_state_triples(single)
        assert point.unreliable == any(r.diagnostics["unreliable"] for r in single.values())
    # a sweep of zero amplitudes leaves the batch empty
    assert sweep_photon_number(ref, [0.0], backend="master")[0].fidelity == 1.0


def test_sweep_memory_does_not_grow_with_its_points(ref):
    # scatter_batch hands a sweep one point's results at a time, so its
    # traced peak stays near one point's fields: 0.73 against 0.74 MB at
    # 100 and 10 points, where keeping every point's results gave 14.1
    # against 1.8 MB
    def peak(n):
        tracemalloc.start()
        try:
            sweep_coupling_variation(ref, np.linspace(-0.5, 0.5, n), 1.0, backend="filter")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(10), peak(100)
    assert large < 1.5 * small, (small, large)
