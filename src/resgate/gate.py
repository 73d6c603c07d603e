"""Controlled-phase-flip gate fidelity assembled from per-state reflections.

The protocol reflects one pulse off the resonator; the |11> configuration
leaves the bare cavity resonant (phase flip), every other configuration
detunes the dressed mode and reflects near +1.  The fidelity folds each
state's amplitude loss (eta), shape mismatch (epsilon), and reflection
amplitude (xi) into coherent-state overlap exponents.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

from .device import DeviceParams
from .errors import NumericsError
from .pulse import Pulse, default_grid, gaussian_pulse
from .scattering import DEFAULT_FOCK_DIM, STATE_LABELS, ReflectionResult, scatter_all_states, scatter_batch


@dataclass
class GateInputs:
    alpha: complex
    results: dict[str, ReflectionResult]

    def __post_init__(self) -> None:
        missing = [s for s in STATE_LABELS if s not in self.results]
        if missing:
            raise ValueError(f"missing states {missing}")
        backends = {r.backend for r in self.results.values()}
        if len(backends) != 1:
            raise ValueError(f"mixed backends {sorted(backends)}")


def _ideal_phase(label: str) -> float:
    return math.pi if label == "11" else 0.0


def _xi_folded(result: ReflectionResult) -> float:
    """Real reflection coefficient with the measured phase folded in.

    Re(xi e^{i(phi - phi_ideal)}): the analytic amplitude keeps its own
    sign and any phase error relative to the ideal 0 or pi rotates it
    toward zero.  Keeping xi's sign (rather than using |xi|) is what
    preserves the phase-flip branch of the fidelity formula.
    """
    phi = result.phase
    dev = phi - _ideal_phase(result.state.label)
    return (result.xi * cmath.exp(1j * dev)).real


def gate_fidelity(inputs: GateInputs) -> float:
    """Average gate fidelity over the four computational inputs.

    Each state contributes exp(-|alpha|^2 b_mn / 2) with

      b_mn = (1 - eps)^2 + (1 - eta) -/+ 2 xi sqrt(1 - eta)(1 - eps),

    minus for the phase-preserving states, plus for 11 (whose xi is
    negative, restoring cancellation when reflection is perfect).
    """
    a2 = abs(inputs.alpha) ** 2
    total = 0.0 + 0.0j
    for label in STATE_LABELS:
        r = inputs.results[label]
        if not 0.0 <= r.epsilon <= 1.0:
            raise NumericsError(f"epsilon {r.epsilon} outside [0, 1] for state {label}")
        if not 0.0 <= r.eta <= 1.0:
            raise NumericsError(f"eta {r.eta} outside [0, 1] for state {label}")
        xi = _xi_folded(r)
        cross = 2.0 * xi * math.sqrt(1.0 - r.eta) * (1.0 - r.epsilon)
        sign = +1.0 if label == "11" else -1.0
        bracket = (1.0 - r.epsilon) ** 2 + (1.0 - r.eta) + sign * cross
        total += cmath.exp(-0.5 * a2 * bracket)
    return abs(total / 4.0) ** 2


def input_mean_photon(alpha: complex) -> float:
    """Mean photon number of the odd coherent superposition of +/- alpha.

    |alpha|^2 coth(|alpha|^2); tends to 1 as alpha -> 0 (the
    superposition limits to a single photon) and to |alpha|^2 for large
    amplitude.
    """
    x = abs(alpha) ** 2
    if x < 1e-12:
        return 1.0
    return x / math.tanh(x)


@dataclass
class FidelityPoint:
    x_value: float
    fidelity: float
    per_state: dict[str, tuple[float, float, float]]   # label -> (xi, eps, eta)
    mean_photon: float
    unreliable: bool = False    # a state outside its backend's validity range


def _per_state_triples(results: dict[str, ReflectionResult]) -> dict[str, tuple[float, float, float]]:
    return {lab: (_xi_folded(results[lab]), results[lab].epsilon, results[lab].eta) for lab in STATE_LABELS}


def _point(x_value: float, alpha: complex, results: dict[str, ReflectionResult]) -> FidelityPoint:
    return FidelityPoint(
        x_value,
        gate_fidelity(GateInputs(alpha, results)),
        _per_state_triples(results),
        input_mean_photon(alpha),
        any(r.diagnostics.get("unreliable", False) for r in results.values()),
    )


def _zero_point(f_in: Pulse, params: DeviceParams) -> FidelityPoint:
    # the zero-amplitude gate is exact; the analytic records fill its per-state columns
    ideal = scatter_all_states(f_in, 1.0, params, backend="analytic")
    return FidelityPoint(0.0, 1.0, _per_state_triples(ideal), input_mean_photon(0.0))


def _default_pulse(params: DeviceParams, tau: float | None, n_samples: int | None) -> Pulse:
    if tau is None:
        tau = 10.0 / params.kappa
    return gaussian_pulse(tau, default_grid(tau, params.kappa, n_samples))


def sweep_photon_number(
    params: DeviceParams,
    alphas,
    backend: str = "filter",
    tau: float | None = None,
    fock_dim: int = DEFAULT_FOCK_DIM,
    n_samples: int | None = None,
) -> list[FidelityPoint]:
    """Fidelity versus input amplitude at fixed pulse duration.

    The pulse is sampled on default_grid(tau, kappa, n_samples): the
    automatic grid unless n_samples is given.  The nonzero amplitudes are
    one scatter_batch call; alpha = 0 is the exact point of unit fidelity.
    """
    f_in = _default_pulse(params, tau, n_samples)
    alphas = [complex(a) for a in alphas]
    runs = scatter_batch(f_in, [(a, params) for a in alphas if a != 0], backend, fock_dim, fields=False)
    return [
        _zero_point(f_in, params) if a == 0 else _point(abs(a) ** 2, a, next(runs))
        for a in alphas
    ]


def _check_coupling_fraction(x: float) -> None:
    """The coupling sweep's rule: g (1 + x) must stay positive, x in (-1, 1]."""
    if not -1.0 < x <= 1.0:
        raise ValueError(f"coupling fraction {x} outside (-1, 1]")


def sweep_coupling_variation(
    params: DeviceParams,
    dg_fractions,
    alpha: complex,
    backend: str = "filter",
    tau: float | None = None,
    fock_dim: int = DEFAULT_FOCK_DIM,
    n_samples: int | None = None,
) -> list[FidelityPoint]:
    """Fidelity versus fractional coupling change g -> g (1 + x).

    The pulse grid, default_grid(tau, kappa, n_samples), does not depend
    on g, so one pulse serves every point; meanfield and master integrate
    all points as one batch.
    """
    fractions = [float(x) for x in dg_fractions]
    for x in fractions:
        _check_coupling_fraction(x)
    alpha = complex(alpha)
    f_in = _default_pulse(params, tau, n_samples)
    varied = [replace(params, g_coupling=params.g_coupling * (1.0 + x)) for x in fractions]
    runs = scatter_batch(f_in, [(alpha, p) for p in varied], backend, fock_dim, fields=False)
    return [_point(x, alpha, res) for x, res in zip(fractions, runs)]
