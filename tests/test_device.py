import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as strat
from scipy.constants import e as e_charge
from scipy.constants import hbar, physical_constants

from resgate import device
from resgate.device import (
    CircuitParams,
    ZeemanParams,
    charge_dephasing_estimate,
    charge_levels,
    coupling_g,
    dqd_hamiltonian,
    energy_gap,
    mixing_angle,
    resonator_fundamental,
    s_parameter,
    spin_dephasing_estimate,
    validate_regime,
)

_MU_B = physical_constants["Bohr magneton"][0]


def test_constants_match_scipy():
    # device.py carries its constants as literals, so the runtime needs no scipy
    assert device._E_CHARGE == e_charge
    assert device._HBAR == hbar
    assert device._MU_BOHR == _MU_B


def test_reference_point(ref):
    two_pi = 2 * math.pi
    assert ref.g_coupling == pytest.approx(two_pi * 120e6)
    assert ref.kappa == pytest.approx(two_pi * 100e6)
    assert 1.0 / ref.t1 == pytest.approx(two_pi * 1e6)
    assert s_parameter(ref.g_coupling, ref.t1, ref.kappa) == pytest.approx(144.0)


def test_gap_matches_eigensplitting():
    rng = np.random.default_rng(7)
    for _ in range(100):
        t = rng.uniform(1e6, 1e11)
        d = rng.uniform(-10, 10) * t
        ev = np.linalg.eigvalsh(dqd_hamiltonian(d, t))
        assert energy_gap(d, t) == pytest.approx(ev[1] - ev[0], rel=1e-12)


# On a failure hypothesis imports libcst to suggest a patch, and libcst warns
# on import; under the suite's warnings-as-errors that would end the session
@pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@settings(derandomize=True, max_examples=300, database=None, deadline=None)
@given(
    delta=strat.floats(allow_nan=False, allow_infinity=False),
    tunneling=strat.floats(min_value=5e-324, allow_infinity=False),
)
@example(delta=0.0, tunneling=31415926535.89793)                    # the default operating point
@example(delta=-1570796326794.8965, tunneling=31415926535.89793)     # its widest bias
# tunneling 5e-320 MHz, a subnormal T whose T^2 underflows, at two biases of its sweep
@example(delta=-1.4137009557e-312, tunneling=3.14155767883e-313)
@example(delta=-3.14155768125e-313, tunneling=3.14155767883e-313)
@example(delta=5e-324, tunneling=5e-324)
@example(delta=1.7976931348623157e308, tunneling=1.0)               # |delta| at the float maximum
@example(delta=-1.7976931348623157e308, tunneling=5e-324)
@example(delta=1e308, tunneling=4e307)
def test_charge_levels_match_eigvalsh(delta, tunneling):
    # the closed-form levels that `sim levels` writes against LAPACK's, over
    # the config domain (any finite bias, any positive tunneling) where the
    # gap is finite.  eigvalsh is backward stable, off by a few ulps of
    # max |level| <= gap: 200,000 random draws reached 4 ulps of the gap
    gap = energy_gap(delta, tunneling)
    assume(math.isfinite(gap))
    low, high = charge_levels(delta, tunneling)
    want = np.linalg.eigvalsh(dqd_hamiltonian(delta, tunneling))
    tol = 8 * math.ulp(gap)
    assert abs(low - want[0]) <= tol and abs(high - want[1]) <= tol, (low, high, want)
    assert low <= high


def test_balanced_dots():
    t = 2 * math.pi * 5e9
    ev = np.linalg.eigvalsh(dqd_hamiltonian(0.0, t))
    assert ev[0] == pytest.approx(-t) and ev[1] == pytest.approx(t)
    assert energy_gap(0.0, t) == pytest.approx(2 * t)
    assert mixing_angle(0.0, t) == pytest.approx(math.pi / 4)


def test_mixing_angle_limits_and_identity():
    t = 1.0
    assert mixing_angle(1e9 * t, t) == pytest.approx(0.0, abs=1e-8)
    assert mixing_angle(-1e9 * t, t) == pytest.approx(math.pi / 2, abs=1e-8)
    rng = np.random.default_rng(11)
    for _ in range(50):
        d, t = rng.uniform(-5, 5), rng.uniform(0.1, 5)
        theta = mixing_angle(d, t)
        assert math.sin(2 * theta) == pytest.approx(2 * t / energy_gap(d, t), rel=1e-12)
    with pytest.raises(ValueError):
        mixing_angle(0.0, 0.0)


def test_circuit_coupling_value(ref):
    # geometry formula lands within a factor 3 of the configured 2pi x 120 MHz
    g = coupling_g(ref.circuit, mixing_angle(ref.delta, ref.tunneling))
    assert g == pytest.approx(2 * math.pi * 62.2418e6, rel=1e-4)
    ratio = ref.g_coupling / g
    assert 1.0 / 3.0 <= ratio <= 3.0


def test_coupling_scales_with_ratio_and_angle(ref):
    c = ref.circuit
    g0 = coupling_g(c, math.pi / 4)
    doubled = CircuitParams(
        length_L=c.length_L,
        cap_per_len_C0=c.cap_per_len_C0,
        impedance_Z0=c.impedance_Z0,
        coupling_ratio_v=2 * c.coupling_ratio_v,
    )
    assert coupling_g(doubled, math.pi / 4) == pytest.approx(2 * g0)
    assert coupling_g(c, math.pi / 8) == pytest.approx(g0 * math.sin(math.pi / 4))


def test_resonator_fundamental(ref):
    w0 = resonator_fundamental(ref.circuit)
    assert w0 == pytest.approx(2 * math.pi * 10e9, rel=1e-12)
    # photon energy in micro-eV
    assert hbar * w0 / e_charge * 1e6 == pytest.approx(41.36, rel=1e-3)


def test_zeeman_energy_clears_charge_gap(ref):
    ez = abs(ref.zeeman.g_factor) * _MU_B * ref.zeeman.b_field
    assert ez / e_charge * 1e6 == pytest.approx(752.6, rel=1e-3)
    assert ez / hbar > energy_gap(ref.delta, ref.tunneling)


def test_dephasing_estimates(ref):
    gap = energy_gap(ref.delta, ref.tunneling)
    assert charge_dephasing_estimate(gap, ref.tb) == pytest.approx(62.83e-9, rel=1e-3)
    assert spin_dephasing_estimate(-13.0, 0.21868e-3) == pytest.approx(4.0e-9, rel=1e-2)
    assert spin_dephasing_estimate(-13.0, 0.0) == math.inf
    with pytest.raises(ValueError):
        spin_dephasing_estimate(-13.0, -1e-3)


def test_regime_all_pass_at_reference(ref, ref_tau):
    checks = {c.name: c for c in validate_regime(ref, tau=ref_tau)}
    assert set(checks) == {"zeeman_gap", "strong_reflection", "adiabatic_pulse", "resonance_match"}
    assert all(c.status == "pass" for c in checks.values())
    assert checks["strong_reflection"].margin == pytest.approx(14.4)


def test_regime_failures_and_skips(ref):
    import dataclasses

    weak = dataclasses.replace(ref, g_coupling=ref.g_coupling / 100)
    checks = {c.name: c for c in validate_regime(weak, tau=10 / ref.kappa)}
    assert checks["strong_reflection"].status == "fail"

    no_field = dataclasses.replace(ref, zeeman=ZeemanParams(g_factor=-13.0, b_field=0.0))
    checks = {c.name: c for c in validate_regime(no_field)}
    assert checks["zeeman_gap"].status == "fail"
    assert checks["adiabatic_pulse"].status == "skipped"

    bare = dataclasses.replace(ref, circuit=None, zeeman=None)
    checks = {c.name: c for c in validate_regime(bare)}
    assert checks["resonance_match"].status == "skipped"
    assert checks["zeeman_gap"].status == "skipped"


def test_short_pulse_fails_adiabatic(ref):
    checks = {c.name: c for c in validate_regime(ref, tau=1.0 / ref.kappa)}
    assert checks["adiabatic_pulse"].status == "fail"
    assert checks["adiabatic_pulse"].margin == pytest.approx(0.1)


def test_device_params_validation(ref):
    import dataclasses

    with pytest.raises(ValueError):
        dataclasses.replace(ref, kappa=0.0)
    with pytest.raises(ValueError):
        dataclasses.replace(ref, t1=-1.0)
    with pytest.raises(ValueError):
        dataclasses.replace(ref, t1=math.inf)
    with pytest.raises(ValueError):
        dataclasses.replace(ref, g_coupling=-1.0)
    with pytest.raises(ValueError, match="tb must be >= 0"):
        dataclasses.replace(ref, tb=-1e-9)
