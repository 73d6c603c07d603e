"""Independent reference computations the tests compare against.

Everything here is deliberately built along a different numerical pathway
than the package: exact factorial sums instead of the closed-form
fidelity expression, adaptive continuous-frequency quadrature instead of
the FFT grid, closed-form Gaussian integrals instead of trapezoids.
Expected values frozen into the tests came from these routines.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy.integrate import quad

# ---------------------------------------------------------------------------
# truncated-Fock gate fidelity

def coherent_vec(amp: complex, n_max: int = 40) -> np.ndarray:
    """Fock coefficients of the normalized coherent state |amp>."""
    v = np.array(
        [amp**n / math.sqrt(math.factorial(n)) for n in range(n_max)], dtype=complex
    )
    return v * math.exp(-abs(amp) ** 2 / 2.0)


def damped_branch_vec(xi: float, alpha: complex, n_max: int = 40) -> np.ndarray:
    """Reflected branch for input |alpha>: amplitude xi*alpha, but keeping
    the INPUT normalization prefactor exp(-|alpha|^2/2).

    The missing norm is exactly the overlap of the loss-mode states, so
    inner products against this unnormalized vector reproduce the
    environment-decoherence factor of an amplitude-damping channel.
    """
    v = np.array(
        [(xi * alpha) ** n / math.sqrt(math.factorial(n)) for n in range(n_max)],
        dtype=complex,
    )
    return v * math.exp(-abs(alpha) ** 2 / 2.0)


def brute_force_gate_fidelity(alpha: complex, xi_by_label: dict[str, float], n_max: int = 40) -> float:
    """|<ideal|out>|^2 averaged coherently over the four inputs.

    Ideal output branch is |+alpha> except for 11 which is |-alpha>.
    """
    total = 0.0 + 0.0j
    for label in ("00", "01", "10", "11"):
        ideal = coherent_vec(-alpha if label == "11" else alpha, n_max)
        out = damped_branch_vec(xi_by_label[label], alpha, n_max)
        total += np.vdot(ideal, out)
    return abs(total / 4.0) ** 2


def coherent_overlap_gate_fidelity(alpha: complex, xi_by_label: dict[str, float]) -> float:
    """brute_force_gate_fidelity summed in closed form, for any amplitude.

    <+-alpha| against the damped branch of damped_branch_vec is
    exp(-|alpha|^2 (1 -/+ xi)) exactly, so no Fock truncation limits
    |alpha|; for the 11 branch (xi < 0, ideal -alpha) this is
    exp(-|alpha|^2 (1 - |xi|)).
    """
    a2 = abs(alpha) ** 2
    total = 0.0 + 0.0j
    for label in ("00", "01", "10", "11"):
        sign = -1.0 if label == "11" else 1.0
        total += cmath.exp(-a2 * (1.0 - sign * xi_by_label[label]))
    return abs(total / 4.0) ** 2


# ---------------------------------------------------------------------------
# Gaussian pulse closed forms (width w = tau/5, centered at tau/2)

def gaussian_peak_sq(tau: float) -> float:
    """Squared peak of the unit-norm envelope: 5/(tau sqrt(pi/2))."""
    return 5.0 / (tau * math.sqrt(math.pi / 2.0))


def gaussian_shift_overlap(tau: float, shift: float) -> float:
    """<f(t) | f(t - shift)> for the unit-norm envelope: exp(-shift^2/(2 w^2))."""
    w = tau / 5.0
    return math.exp(-(shift**2) / (2.0 * w * w))


# ---------------------------------------------------------------------------
# continuous-frequency reflection metrics

def _r(nu: float, g_eff: float, kappa: float, t1: float, detuning: float) -> complex:
    chi = g_eff * g_eff / (1j * nu + 1.0 / (2.0 * t1))
    return (1j * (nu - detuning) - kappa / 2.0 + chi) / (
        1j * (nu - detuning) + kappa / 2.0 + chi
    )


def filter_state_metrics(
    g_eff: float, kappa: float, t1: float, tau: float, detuning: float = 0.0
) -> tuple[float, float, float]:
    """(epsilon, eta, phase) of a reflected Gaussian, by adaptive quadrature.

    Weights the reflection coefficient with the exact Gaussian power
    spectrum exp(-nu^2 w^2/2); no time grid, no FFT.
    """
    w = tau / 5.0

    def weight(nu: float) -> float:
        return math.exp(-(nu * nu) * w * w / 2.0)

    def overlap_re(nu: float) -> float:
        return (_r(nu, g_eff, kappa, t1, detuning) * weight(nu)).real

    def overlap_im(nu: float) -> float:
        return (_r(nu, g_eff, kappa, t1, detuning) * weight(nu)).imag

    def power(nu: float) -> float:
        return abs(_r(nu, g_eff, kappa, t1, detuning)) ** 2 * weight(nu)

    lim = 40.0 / w
    o0 = quad(weight, -lim, lim, limit=400)[0]
    o1 = quad(overlap_re, -lim, lim, limit=400)[0] + 1j * quad(overlap_im, -lim, lim, limit=400)[0]
    o2 = quad(power, -lim, lim, limit=400)[0]

    epsilon = 1.0 - abs(o1) / math.sqrt(o0 * o2)
    eta = 1.0 - o2 / o0
    phase = cmath.phase(o1)
    return epsilon, eta, phase


# ---------------------------------------------------------------------------
# dense Lindblad master equation

def dense_lindblad_evolve(
    fock_dim: int,
    g_eff: float,
    kappa: float,
    t1: float,
    detuning: float,
    beta,
    rho0: np.ndarray,
    t_start: float,
    dt: float,
    n_samples: int,
    record_op: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """tr(rho op) on the grid and the final rho, every operator dense.

    rhs = -i(H_eff rho - rho H_eff^d) + kappa c rho c^d + s- rho s+ / T1
    with H_eff = H - (i/2)(kappa c^d c + s+ s- / T1) and
    H = D' c^d c + g_eff (s+ c + s- c^d) + i sqrt(kappa)(conj(b) c - b c^d),
    D' = -detuning and b = beta(t) a callable of time.  Operators are built
    here with kron, every superoperator term is a dense matrix product,
    and RK4 takes four steps per grid interval with the drive evaluated
    at each stage time.
    """
    a = np.diag(np.sqrt(np.arange(1, fock_dim, dtype=float)), 1).astype(complex)
    c = np.kron(np.eye(2), a)
    cd = c.conj().T
    sm = np.kron(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(fock_dim)).astype(complex)
    sp = sm.conj().T
    h0 = -detuning * (cd @ c) + g_eff * (sp @ c + sm @ cd)
    damp = kappa * (cd @ c) + (sp @ sm) / t1
    sk = math.sqrt(kappa)

    def rhs(rho, t):
        b = beta(t)
        h_eff = h0 + 1j * sk * (np.conj(b) * c - b * cd) - 0.5j * damp
        out = -1j * (h_eff @ rho - rho @ h_eff.conj().T)
        return out + kappa * (c @ rho @ cd) + (sm @ rho @ sp) / t1

    h = dt / 4.0
    rho = np.array(rho0, dtype=complex)
    record = np.empty(n_samples, dtype=complex)
    record[0] = np.trace(rho @ record_op)
    for k in range(1, n_samples):
        for j in range(4):
            t = t_start + (k - 1) * dt + j * h
            k1 = rhs(rho, t)
            k2 = rhs(rho + 0.5 * h * k1, t + 0.5 * h)
            k3 = rhs(rho + 0.5 * h * k2, t + 0.5 * h)
            k4 = rhs(rho + h * k3, t + h)
            rho = rho + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        record[k] = np.trace(rho @ record_op)
    return record, rho
