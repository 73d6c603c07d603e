"""Independent reference computations the tests compare against.

Everything here is deliberately built along a different numerical pathway
than the package: exact factorial sums instead of the closed-form
fidelity expression, adaptive continuous-frequency quadrature instead of
the FFT grid, closed-form Gaussian integrals instead of trapezoids.
Expected values frozen into the tests came from these routines.
master_run is the exception: it is the tests' single-state entry into
the package's own master kernel.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy.integrate import quad

from resgate.qmath import DensityMatrix
from resgate.scattering import _evolve_master_batch, _upsample

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


def master_run(space, g_eff, params, grid, beta, rho0, ops=None):
    """({name: tr(rho op) on the grid}, final DensityMatrix, trace drift) of
    rho0 under _evolve_master_batch as a batch of one: beta, sampled on
    the grid, upsampled as the reflection upsamples its envelope, at scale
    1, recording <c> and each of `ops`.  No input checks: rho0 must be
    Hermitian (see _evolve_master_batch)."""
    records, rho, maxima = _evolve_master_batch(
        space, np.array([g_eff]), params, grid, _upsample(np.asarray(beta, dtype=complex)),
        np.ones(1), rho0.matrix[None], {"c": space.cavity_op(), **(ops or {})},
    )
    return ({name: rec[0] for name, rec in records.items()}, DensityMatrix(space, rho[0]),
            float(maxima["trace_drift"][0]))


# ---------------------------------------------------------------------------
# meanfield RK4, one fresh array per operation

def rk4_reference(rhs, y0, drive, grid, on_sample) -> np.ndarray:
    """Classical RK4 at four steps per grid interval as far as the drive
    reaches, then at one step per interval with no drive, written out plainly.

    `rhs(y, b)` returns dy/dt at drive value b; drive[2j], drive[2j+1] and
    drive[2j+2] are the drive at the start, middle and end of step j, and a
    drive of 8 m + 1 values reaches grid point m.  Past it b is 0.  Stage
    arguments y + (h/2) k and the update y + (h/6)(((k1 + 2k2) + 2k3) + k4)
    are new arrays in that operand order; `on_sample(k, y)` sees the state
    at grid point k.
    """
    def step(y, h, b0, bm, b1):
        k1 = rhs(y, b0)
        k2 = rhs(y + 0.5 * h * k1, bm)
        k3 = rhs(y + 0.5 * h * k2, bm)
        k4 = rhs(y + h * k3, b1)
        return y + h / 6.0 * (((k1 + 2.0 * k2) + 2.0 * k3) + k4)

    driven = min(grid.n_samples - 1, (len(drive) - 1) // 8)
    h = grid.dt / 4.0
    y = np.array(y0)
    on_sample(0, y)
    for j in range(4 * driven):
        y = step(y, h, drive[2 * j], drive[2 * j + 1], drive[2 * j + 2])
        if (j + 1) % 4 == 0:
            on_sample((j + 1) // 4, y)
    for k in range(driven + 1, grid.n_samples):
        y = step(y, grid.dt, 0j, 0j, 0j)
        on_sample(k, y)
    return y


def meanfield_reference_rows(grid, jobs, drive, envelope) -> list[tuple[np.ndarray, dict, tuple]]:
    """(<c> trajectory, diagnostics, integrals) of each (alpha, state,
    params) job by the meanfield equations, as one batch under
    rk4_reference.

    The jobs share kappa, t1 and detuning; drive is the upsampled unit
    envelope, up to the pulse's end or to the grid's end.  Every product
    here is written as a plain expression, one ufunc call each, with the
    rounding rules below; the package's stepper must reproduce these
    trajectories bit for bit, and its integrals too: (energy, overlap) of
    g = alpha f + sqrt(kappa) <c>, the trapezoid sums of |g|^2 and
    conj(f) g taken sample by sample in grid order, the overlap divided by
    sqrt(energy).
    """
    p = jobs[0][2]
    n = grid.n_samples
    b_size = len(jobs)
    alpha = np.array([a for a, _, _ in jobs], dtype=complex)
    ge = np.array([st.g_eff(q.g_coupling) for _, st, q in jobs])
    ige = 1j * ge
    ge4 = 4.0 * ge
    decay = -(1j * -p.detuning + p.kappa / 2.0)
    decay_re, decay_im, sk_b, minus_2t1 = (
        np.full(b_size, v, dtype=complex)
        for v in (decay.real, decay.imag, math.sqrt(p.kappa), -2.0 * p.t1)
    )
    minus_t1 = np.full(b_size, -p.t1)
    one = np.ones(b_size)
    i_b = np.full(b_size, 1j)
    c_traj = np.empty((b_size, n), dtype=complex)
    max_s = np.zeros(b_size)
    max_z = np.full(b_size, -1.0)
    energy, cross, peak_photon = np.zeros(b_size), np.zeros(b_size, dtype=complex), np.zeros(b_size)

    # numpy's vector loops may fuse the multiply-adds of a complex product;
    # its scalar arithmetic does not.  So each product below has a real or
    # an imaginary factor, except b * alpha, which keeps the operand order
    # of the vector product (upsampled envelope times alpha) it replaces,
    # and -x/d is written x/(-d), which rounds the same.  The <z> equation
    # uses -2i g (c s* - c* s) = 4 g Im(c s*).  A batch then rounds exactly
    # as one trajectory stepped in scalar arithmetic.
    def rhs(y, b):
        c, s, z = y
        dc = decay_re * c + decay_im * (i_b * c) - ige * s - sk_b * (b * alpha)
        ds = s / minus_2t1 + ige * z * c
        dz = (z.real + one) / minus_t1 + ge4 * (c.imag * s.real - c.real * s.imag)
        return np.array([dc, ds, dz])

    def on_sample(k, y):
        c = y[0]
        c_traj[:, k] = c
        np.maximum(max_s, np.hypot(y[1].real, y[1].imag), out=max_s)
        np.maximum(max_z, y[2].real, out=max_z)
        np.maximum(peak_photon, c.real * c.real + c.imag * c.imag, out=peak_photon)
        g = alpha * complex(envelope[k]) + sk_b * c
        weight = 0.5 if k in (0, n - 1) else 1.0
        energy[:] += (g.real * g.real + g.imag * g.imag) * weight
        cross[:] += (g * complex(envelope[k]).conjugate()) * weight

    y0 = np.zeros((3, b_size), dtype=complex)
    y0[2] = -1.0
    rk4_reference(rhs, y0, drive, grid, on_sample)
    rows = []
    for k in range(b_size):
        e = grid.dt * float(energy[k])
        rows.append((
            c_traj[k],
            {
                "peak_photon": float(peak_photon[k]),
                "max_sigma_abs": float(max_s[k]),
                "peak_excitation": float((1.0 + max_z[k]) / 2.0),
            },
            (e, grid.dt * complex(cross[k]) / math.sqrt(e)),
        ))
    return rows
