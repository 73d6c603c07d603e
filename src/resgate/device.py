"""Physical device model: double-dot charge qubit, stripline resonator,
coupling strength, operating-regime checks, and decoherence estimates.

Unit convention: hbar = 1 internally, so every energy is stored as an
angular frequency in rad/s.  Circuit and Zeeman quantities stay in SI
and are converted on evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:       # qmath loads numpy, which only dqd_hamiltonian needs
    from .qmath import ComplexMatrix

# CODATA 2022 values as scipy.constants gives them; e and h are exact in the SI
_E_CHARGE = 1.602176634e-19                 # C
_HBAR = 6.62607015e-34 / (2 * math.pi)      # J s
_MU_BOHR = 9.2740100657e-24                 # J/T


@dataclass(frozen=True)
class CircuitParams:
    """Stripline geometry entering the coupling and mode-frequency formulas."""

    length_L: float            # resonator length, m
    cap_per_len_C0: float      # capacitance per unit length, F/m
    impedance_Z0: float        # characteristic impedance, Ohm
    coupling_ratio_v: float    # C_c / C_tot, dimensionless

    def __post_init__(self) -> None:
        for name in ("length_L", "cap_per_len_C0", "impedance_Z0"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0 < self.coupling_ratio_v <= 1:
            raise ValueError("coupling_ratio_v must lie in (0, 1]")


@dataclass(frozen=True)
class ZeemanParams:
    g_factor: float            # electron g*, sign carried but magnitude used
    b_field: float             # static field along z, T

    def __post_init__(self) -> None:
        if self.b_field < 0:
            raise ValueError("b_field must be >= 0")


@dataclass(frozen=True)
class DeviceParams:
    """All physical inputs for the scattering and gate pipelines.

    delta, tunneling, g_coupling, kappa, detuning are angular frequencies
    (rad/s); t1 and tb are times in seconds.  detuning is the drive
    frequency minus the resonator frequency.
    """

    delta: float
    tunneling: float
    g_coupling: float
    kappa: float
    detuning: float
    t1: float
    tb: float = 0.0
    circuit: CircuitParams | None = None
    zeeman: ZeemanParams | None = None

    def __post_init__(self) -> None:
        if self.tunneling < 0:
            raise ValueError("tunneling must be >= 0")
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        if not 0 < self.t1 < math.inf:
            raise ValueError("t1 must be positive and finite")
        if self.g_coupling < 0:
            raise ValueError("g_coupling must be >= 0")
        if self.tb < 0:
            raise ValueError("tb must be >= 0")


def reference_device() -> DeviceParams:
    """Baseline operating point: (g, kappa, 1/T1)/2pi = (120, 100, 1) MHz,
    balanced dots (delta = 0), tunneling set to put the charge gap on
    resonance with a 2pi x 10 GHz resonator."""
    two_pi = 2 * math.pi
    return DeviceParams(
        delta=0.0,
        tunneling=two_pi * 5e9,
        g_coupling=two_pi * 120e6,
        kappa=two_pi * 100e6,
        detuning=0.0,
        t1=1.0 / (two_pi * 1e6),
        tb=1e-9,
        circuit=CircuitParams(
            length_L=0.03,
            cap_per_len_C0=1.0 / 3e10,   # makes pi/(L Z0 C0) = 2pi x 10 GHz
            impedance_Z0=50.0,
            coupling_ratio_v=0.2,
        ),
        zeeman=ZeemanParams(g_factor=-13.0, b_field=1.0),
    )


def dqd_hamiltonian(delta: float, tunneling: float) -> ComplexMatrix:
    """Reduced two-level charge Hamiltonian in the {|0>, |a>} basis.

    The excited (doubly occupied) state sits at -delta; tunneling couples
    the two configurations.
    """
    import numpy as np

    return np.array([[0.0, tunneling], [tunneling, -delta]], dtype=complex)


def energy_gap(delta: float, tunneling: float) -> float:
    """Eigenvalue splitting sqrt(delta^2 + 4 T^2) of the two-level model."""
    return math.hypot(delta, 2.0 * tunneling)


def charge_levels(delta: float, tunneling: float) -> tuple[float, float]:
    """(low, high) eigenvalues of dqd_hamiltonian(delta, tunneling > 0): the root of larger magnitude,
    -delta/2 -/+ hypot(delta/2, T), and -(T/root) T, from their product -T^2 (T^2 itself can underflow)."""
    half = delta / 2.0
    root = -half - math.copysign(math.hypot(half, tunneling), delta)
    return tuple(sorted((root, -(tunneling / root) * tunneling)))


def mixing_angle(delta: float, tunneling: float) -> float:
    """Half the rotation diagonalizing the charge Hamiltonian.

    0.5 * atan2(2T, delta), which is pi/4 at the balanced point and
    decreases monotonically as delta grows; kept continuous through
    delta < 0 so that sin(2 theta) = 2T/gap holds on the whole axis.
    """
    if delta == 0.0 and tunneling == 0.0:
        raise ValueError("mixing angle undefined at delta = tunneling = 0")
    return 0.5 * math.atan2(2.0 * tunneling, delta)


def coupling_g(circuit: CircuitParams, theta: float) -> float:
    """Charge-dipole coupling to the resonator mode, rad/s.

    Evaluated in SI as (e v / 2) * (1/(L C0)) * sqrt(pi/(Z0 hbar)) *
    sin(2 theta) and read as an angular frequency.  The printed formula's
    dimensional bookkeeping is opaque; only the order of magnitude is
    contractual (see the regime report).
    """
    return (
        0.5
        * _E_CHARGE
        * circuit.coupling_ratio_v
        * (1.0 / (circuit.length_L * circuit.cap_per_len_C0))
        * math.sqrt(math.pi / (circuit.impedance_Z0 * _HBAR))
        * math.sin(2.0 * theta)
    )


def resonator_fundamental(circuit: CircuitParams) -> float:
    """Fundamental mode frequency pi/(L Z0 C0), rad/s."""
    return math.pi / (circuit.length_L * circuit.impedance_Z0 * circuit.cap_per_len_C0)


def s_parameter(g: float, t1: float, kappa: float) -> float:
    """Cooperativity-like ratio g^2 T1 / kappa."""
    if g <= 0 or t1 <= 0 or kappa <= 0:
        raise ValueError("s_parameter requires positive g, t1, kappa")
    return g * g * t1 / kappa


def charge_dephasing_estimate(omega: float, tb: float) -> float:
    """Motional-narrowing charge dephasing time, omega * tb^2."""
    if omega <= 0 or tb <= 0:
        raise ValueError("positive omega and tb required")
    return omega * tb * tb


def spin_dephasing_estimate(g_factor: float, gradient_field_rms: float) -> float:
    """Inhomogeneous spin dephasing time hbar/(|g*| mu_B dB_rms), s."""
    if gradient_field_rms < 0:
        raise ValueError("gradient must be >= 0")
    if gradient_field_rms == 0:
        return math.inf
    return _HBAR / (abs(g_factor) * _MU_BOHR * gradient_field_rms)


@dataclass(frozen=True)
class RegimeCheck:
    name: str
    status: str                      # "pass" | "fail" | "skipped"
    margin: float | None = None      # ratio of achieved to required
    detail: str = ""


def _reaches_ten(name: str, quantity: str, value: float) -> RegimeCheck:
    """The check that `quantity` reaches 10: pass at value >= 10, margin value/10."""
    return RegimeCheck(name, "pass" if value >= 10 else "fail", margin=value / 10.0,
                       detail=f"{quantity} = {value:.6g} (threshold 10)")


def validate_regime(params: DeviceParams, tau: float | None = None) -> list[RegimeCheck]:
    """Operating-regime checklist with computed margins.

    Checks: Zeeman splitting clears the charge gap; s >= 10; pulse long
    against the cavity lifetime (tau*kappa >= 10) when tau is given; the
    resonator fundamental within 20% of the charge gap.  Missing optional
    sub-records mark their checks skipped rather than failed.
    """
    checks: list[RegimeCheck] = []
    omega = energy_gap(params.delta, params.tunneling)

    if params.zeeman is None:
        checks.append(RegimeCheck("zeeman_gap", "skipped", detail="no Zeeman parameters"))
    else:
        ez = abs(params.zeeman.g_factor) * _MU_BOHR * params.zeeman.b_field / _HBAR
        ok = ez > omega
        checks.append(
            RegimeCheck(
                "zeeman_gap",
                "pass" if ok else "fail",
                margin=(ez / omega if omega > 0 else math.inf),
                detail=f"E_z = {ez:.4g} rad/s vs charge gap {omega:.4g} rad/s",
            )
        )

    if params.g_coupling > 0:
        s = s_parameter(params.g_coupling, params.t1, params.kappa)
        checks.append(_reaches_ten("strong_reflection", "s", s))
    else:
        checks.append(RegimeCheck("strong_reflection", "fail", margin=0.0, detail="g = 0"))

    if tau is None:
        checks.append(RegimeCheck("adiabatic_pulse", "skipped", detail="no pulse duration supplied"))
    else:
        checks.append(_reaches_ten("adiabatic_pulse", "tau*kappa", tau * params.kappa))

    if params.circuit is None:
        checks.append(RegimeCheck("resonance_match", "skipped", detail="no circuit parameters"))
    else:
        w0 = resonator_fundamental(params.circuit)
        if omega == 0:
            checks.append(RegimeCheck("resonance_match", "fail", detail="zero charge gap"))
        else:
            frac = abs(w0 - omega) / omega
            checks.append(
                RegimeCheck(
                    "resonance_match",
                    "pass" if frac <= 0.2 else "fail",
                    margin=(0.2 / frac if frac > 0 else math.inf),
                    detail=f"|w0 - gap|/gap = {frac:.4g} (threshold 0.2)",
                )
            )

    return checks
