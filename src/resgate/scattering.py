"""Reflection of a pulse off the resonator for each joint qubit state.

Four backends, cheapest to most complete:

* analytic: steady-state reflection numbers only, fabricated lossless
  output (the idealization the gate formula was written for);
* filter: linear-response transfer function applied to the pulse
  spectrum, exact in the low-excitation limit;
* meanfield: factorized cavity/charge expectation values, captures
  saturation of the charge dipole; valid while the peak charge
  excitation stays below MEANFIELD_EXCITATION_BOUND;
* master: full density-matrix propagation on (charge 2) x (Fock N).

All backends share one frame convention: the stored detuning is drive
minus resonator, and the time-domain generators rotate at its negative,
which is what makes them agree with the spectral filter for every
detuning, not just on resonance.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections.abc import Iterator
from dataclasses import dataclass, replace
from functools import reduce
from itertools import accumulate

import numpy as np

from .device import DeviceParams
from .errors import NumericsError
from .pulse import Pulse, Spectrum, inverse_spectrum, overlap, spectrum
from .qmath import DensityMatrix, HilbertSpace

PASSIVITY_SLACK = 1e-6

# The backends, cheapest first; the linear ones scatter independently of
# the amplitude.
LINEAR_BACKENDS = ("analytic", "filter")
BACKENDS = LINEAR_BACKENDS + ("meanfield", "master")

# Largest peak charge excitation p = (1 + max<sigma_z>)/2 at which the
# meanfield backend counts as valid.  The factorisation <c sigma> ->
# <c><sigma> drops the charge-photon correlations, which grow with the
# excitation: against the density-matrix reference at the reference
# device and pulse, the cavity-amplitude gap RMS/peak grows as |alpha|^2
# in step with p, at a ratio RMS/p between 0.43 (state 01) and 0.57
# (state 00) for |alpha| = 0.1..0.5.  Holding the gap to the 2 % that
# the meanfield-vs-master acceptance check allows, with the larger
# ratio, gives p <= 0.02/0.57 = 0.035.  Past it meanfield sets
# `unreliable`, the key master uses for its own truncation limit.
MEANFIELD_EXCITATION_BOUND = 0.035

# Largest population of the top two Fock levels, at its peak over the
# run, at which the master backend counts its truncation as valid.
FOCK_TAIL_BOUND = 1e-4

# Fock truncation of the master backend when the caller names none.
DEFAULT_FOCK_DIM = 16

# RK4 steps per grid interval, the one place the time step is set: _rk4
# steps at grid.dt / _SUBSTEPS, _upsample puts the drive at the start,
# middle and end of each step, and _bare_cavity_field is the same step.
_SUBSTEPS = 4

# RK4 steps whose drive forcing _rk4 asks for in one call (see _rk4).
_CHUNK = 64


@dataclass(frozen=True)
class JointState:
    """Two-qubit charge configuration seen by the resonator.

    n_coupled counts qubits whose charge dipole is active; both active
    dipoles couple through the symmetric (bright) combination, so the
    effective single-emitter coupling is sqrt(n_coupled) g.
    """

    label: str
    n_coupled: int

    def g_eff(self, g: float) -> float:
        return math.sqrt(self.n_coupled) * g


_STATES = {
    "00": JointState("00", 2),
    "01": JointState("01", 1),
    "10": JointState("10", 1),
    "11": JointState("11", 0),
}

STATE_LABELS = ("00", "01", "10", "11")


def joint_state(label: str) -> JointState:
    try:
        return _STATES[label]
    except KeyError:
        raise ValueError(f"unknown state label {label!r}") from None


def xi_analytic(state: JointState, g: float, kappa: float, t1: float) -> float:
    """Steady-state reflection amplitude on resonance.

    -1 for the uncoupled configuration; (4ns - 1)/(4ns + 1) with
    s = g^2 T1/kappa when n dipoles couple.
    """
    if state.n_coupled == 0:
        return -1.0
    ns = state.n_coupled * g * g * t1 / kappa
    return (4.0 * ns - 1.0) / (4.0 * ns + 1.0)


def reflection_filter(nu, g_eff: float, kappa: float, t1: float, detuning: float = 0.0):
    """Linear-response reflection coefficient at offset nu from the drive.

    r(nu) = [i(nu - D) - kappa/2 + chi] / [i(nu - D) + kappa/2 + chi]
    with chi = g_eff^2/(i nu + 1/(2 T1)).  r(0) = -1 for the bare cavity
    on resonance and r -> +1 far off resonance; |r| <= 1 always (the
    charge dipole only adds loss, never gain).
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    nu = np.asarray(nu, dtype=complex)
    chi = g_eff * g_eff / (1j * nu + 1.0 / (2.0 * t1))
    num = 1j * (nu - detuning) - kappa / 2.0 + chi
    den = 1j * (nu - detuning) + kappa / 2.0 + chi
    out = num / den
    if out.ndim == 0:
        return complex(out)
    return out


@dataclass
class ReflectionResult:
    state: JointState
    xi: complex                 # steady-state (analytic) reflection amplitude
    alpha_in: complex
    alpha_out: complex
    f_out: Pulse                # normalized output mode
    epsilon: float              # shape mismatch, in [0, 1]
    eta: float                  # energy loss fraction, in [0, 1]
    backend: str
    diagnostics: dict

    @property
    def phase(self) -> float:
        """Phase of the reflected amplitude relative to the input."""
        return cmath.phase(self.alpha_out / self.alpha_in)


def xi_effective(result: ReflectionResult) -> complex:
    """Projection of the reflected field on the input mode, per unit input.

    (1 - epsilon) sqrt(1 - eta) e^{i phase}; reduces to the analytic xi
    for the analytic backend and converges to it as the pulse becomes
    long against the cavity response.
    """
    return (1.0 - result.epsilon) * result.alpha_out / result.alpha_in


# Smallest |alpha|^2 a reflection accepts.  _decompose sums |alpha|^2 w_k,
# w_k = |f_k|^2 dt: f is normalised, so the w_k are dimensionless and sum to
# 1 on any grid.  On n samples the terms that can move the sum have w_k >=
# 2^-53/n (1.1e-21 at the CLI's 100,000), so from this floor they, and each
# |alpha f_k|^2 for dt up to 1 s, stay above 1e-301, clear of the subnormals
# (< 2.2e-308) that move filter's eps and eta by 5e-3 and 7e-2 at 1e-318.
MIN_ALPHA_SQUARED = 1e-280


def _check_amplitude(alpha: complex) -> None:
    """The amplitude rule of every reflection: _decompose divides by |alpha|^2
    and takes the phase relative to alpha, so |alpha|^2 must be finite and at
    least MIN_ALPHA_SQUARED.  Float products round it to inf at 1e300, where ** raises."""
    a = complex(alpha)
    if not MIN_ALPHA_SQUARED <= a.real * a.real + a.imag * a.imag < math.inf:
        raise ValueError(f"|alpha|^2 must be finite and nonzero (>= {MIN_ALPHA_SQUARED:g}), alpha = {alpha}")


def _decompose(
    f_in: Pulse,
    g_out: np.ndarray,
    alpha: complex,
    state: JointState,
    params: DeviceParams,
    backend: str,
    diagnostics: dict,
) -> ReflectionResult:
    """Split the raw output field into amplitude, shape, and loss."""
    if not np.all(np.isfinite(g_out)):
        raise NumericsError(f"{backend} output field is not finite")
    dt = f_in.grid.dt
    energy = float(np.trapezoid(np.abs(g_out) ** 2, dx=dt))
    e_ratio = energy / abs(alpha) ** 2
    if e_ratio > 1.0 + PASSIVITY_SLACK:
        raise NumericsError(f"output energy ratio {e_ratio:.9f} exceeds unity: passivity violated")
    eta = min(1.0, max(0.0, 1.0 - e_ratio))
    if energy == 0:
        raise NumericsError("zero output field; cannot decompose")
    f_out = Pulse(f_in.grid, g_out / math.sqrt(energy))
    ov = overlap(f_in, f_out)
    if abs(ov) > 1.0 + PASSIVITY_SLACK:
        raise NumericsError(f"mode overlap {abs(ov):.9f} exceeds unity")
    epsilon = max(0.0, 1.0 - abs(ov))
    phi = cmath.phase(ov)       # g_out carries alpha's phase, so phi does too
    alpha_out = abs(alpha) * math.sqrt(e_ratio) * cmath.exp(1j * phi)
    return ReflectionResult(
        state=state,
        xi=complex(xi_analytic(state, params.g_coupling, params.kappa, params.t1)),
        alpha_in=alpha,
        alpha_out=alpha_out,
        f_out=f_out,
        epsilon=epsilon,
        eta=eta,
        backend=backend,
        diagnostics=diagnostics,
    )


def reflect_filter_pulse(
    f_in: Pulse, state: JointState, params: DeviceParams, alpha: complex = 1.0
) -> ReflectionResult:
    """Frequency-domain reflection: multiply the spectrum by r(nu)."""
    _check_amplitude(alpha)
    if not f_in.is_normalized():
        raise ValueError("input pulse must be normalized")
    sp = spectrum(f_in)
    r = reflection_filter(
        sp.nu, state.g_eff(params.g_coupling), params.kappa, params.t1, params.detuning
    )
    g_out = inverse_spectrum(Spectrum(sp.nu, r * sp.values, sp.grid)).envelope * alpha
    return _decompose(f_in, g_out, alpha, state, params, "filter", {})


def _upsample(values: np.ndarray) -> np.ndarray:
    """Trigonometric interpolation onto a grid 2 * _SUBSTEPS times finer.

    Needed because the fixed-step integrators evaluate the drive at
    half-step stage times; linear interpolation there would cap the
    whole scheme at second order.
    """
    factor = 2 * _SUBSTEPS
    m = len(values)
    sp = np.fft.fft(values)
    out = np.zeros(factor * m, dtype=complex)
    half = m // 2
    out[:half] = sp[:half]
    out[factor * m - (m - half):] = sp[half:]
    if m % 2 == 0:
        # split the Nyquist bin symmetrically to keep the interpolant real
        # for real input
        out[half] = 0.5 * sp[half]
        out[factor * m - half] = 0.5 * sp[half]
    out = np.fft.ifft(out)
    out *= factor
    return out


def _rk4(bind, y, drive, forcing, grid, on_sample):
    """Classical fixed-step RK4 of a batch of states; the one time stepper.

    Takes _SUBSTEPS steps of size h = grid.dt / _SUBSTEPS per grid
    interval.  `drive` is the forcing upsampled by _upsample, so drive[2j],
    drive[2j+1] and drive[2j+2] are its values at the start, middle and
    end of step j.  `on_sample(k, y)` sees the state at grid point
    k = 0..grid.n_samples-1.

    Buffers: _rk4 owns them all and reuses them on every step: the state
    (a copy of the caller's `y`, which is not modified), the four slopes
    k1..k4 and a pair that holds the stage arguments and then 2k2, 2k3.
    `on_sample` must copy what it keeps.  `bind(x, k)` is called once for
    each input and output pair, (state, k1) and (stage, k2), (stage, k3),
    (stage, k4), and returns `f(row)`, which writes dy/dt at x into k; it
    builds its views of x and k once, when bound.

    Forcing, in chunks of _CHUNK steps: at the first step j of a chunk,
    _rk4 calls `forcing(drive[2j : 2j + 2 _CHUNK + 1])` once, which
    returns one row per drive value (fewer rows for the last, partial
    chunk), so that the drive term costs no call per stage.  Step j + i
    hands rows 2i, 2i+1, 2i+1 and 2i+2 to its four stages.  Within a
    chunk a drive value met twice in a row (the two midpoint stages; the
    end of a step and the start of the next) is the same row object, so
    an rhs may compare rows with `is` to skip work it already did.

    The update keeps the operand order of y + (h/6)(((k1 + 2k2) + 2k3)
    + k4) and the stage arguments y + (h/2)k and y + hk, so it changes no
    bit; 2k2 and 2k3 are one product over the adjacent slopes.  The step
    constants are arrays of y's shape and dtype, built once: numpy would
    convert a Python scalar on every multiply, at the cost of the multiply
    itself, to the same complex value.
    """
    h = grid.dt / _SUBSTEPS
    y = np.array(y)
    slopes = np.empty((4, *y.shape), dtype=y.dtype)
    k1, k2, k3, k4 = slopes
    k23 = slopes[1:3]
    # the stage arguments, then 2k2 and 2k3, with the sum built in stage
    scratch = np.empty_like(k23)
    stage, twice_k3 = scratch
    f1, f2, f3, f4 = bind(y, k1), bind(stage, k2), bind(stage, k3), bind(stage, k4)
    half_h, full_h, sixth_h = (np.full_like(y, v) for v in (0.5 * h, h, h / 6.0))
    two = np.full_like(scratch, 2)
    add, mul = np.add, np.multiply
    on_sample(0, y)
    for j in range(_SUBSTEPS * (grid.n_samples - 1)):
        i = 2 * (j % _CHUNK)
        if i == 0:
            rows = list(forcing(drive[2 * j : 2 * j + 2 * _CHUNK + 1]))
        f1(rows[i])
        add(y, mul(half_h, k1, stage), stage)
        f2(rows[i + 1])
        add(y, mul(half_h, k2, stage), stage)
        f3(rows[i + 1])
        add(y, mul(full_h, k3, stage), stage)
        f4(rows[i + 2])
        mul(two, k23, scratch)
        add(k1, stage, stage)
        add(stage, twice_k3, stage)
        add(stage, k4, stage)
        add(y, mul(sixth_h, stage, stage), y)
        if (j + 1) % _SUBSTEPS == 0:
            on_sample((j + 1) // _SUBSTEPS, y)
    return y


def _shared_params(jobs) -> DeviceParams:
    """The device of a batch, whose jobs may differ only in g_coupling."""
    first = jobs[0][2]
    for _, _, p in jobs:
        if (p.kappa, p.t1, p.detuning) != (first.kappa, first.t1, first.detuning):
            raise ValueError("a batch must share kappa, t1 and detuning")
    return first


def _meanfield_diagnostics(peak_photon: float, max_sigma_abs: float, max_z: float) -> dict:
    """meanfield's diagnostics, from the peaks of |<c>|^2, |<s>| and <z>."""
    p = float((1.0 + max_z) / 2.0)
    return {"peak_photon": peak_photon, "max_sigma_abs": float(max_sigma_abs),
            "peak_excitation": p, "unreliable": p > MEANFIELD_EXCITATION_BOUND}


def _meanfield_rows(grid, jobs, drive) -> list[tuple[np.ndarray, dict]]:
    """(<c> trajectory, diagnostics) of each (alpha, state, params) job,
    integrated by reflect_meanfield's equations as one RK4 batch on
    `drive`, the upsampled envelope.  Every job is integrated, a
    dipole-free one too; _reflect_batch validates the jobs."""
    p = _shared_params(jobs)
    n = grid.n_samples
    b_size = len(jobs)
    alpha = np.array([a for a, _, _ in jobs], dtype=complex)
    ge = np.array([st.g_eff(q.g_coupling) for _, st, q in jobs])
    ge4 = 4.0 * ge
    sk_b = np.full(b_size, math.sqrt(p.kappa), dtype=complex)
    decay = -(1j * -p.detuning + p.kappa / 2.0)
    c_traj = np.empty((b_size, n), dtype=complex)
    max_s = np.zeros(b_size)
    max_z = np.full(b_size, -1.0)

    # numpy's vector loops may fuse the multiply-adds of a complex product;
    # its scalar arithmetic does not.  So each product below has a real or
    # an imaginary factor, except b * alpha, which keeps the operand order
    # of the vector product (upsampled envelope times alpha) it replaces,
    # and -x/d is written x/(-d).  The <z> equation uses
    # -2i g (c s* - c* s) = 4 g Im(c s*).  A batch then rounds exactly as
    # one trajectory stepped in scalar arithmetic
    # (tests/_oracles.meanfield_reference_rows, one array per operation).
    #
    # The rhs makes 11 ufunc calls, each on several rows at once, into
    # scratch rows built once.  Constants are arrays of the batch's shape
    # and dtype, since numpy converts a Python scalar operand on every
    # call at the cost of the arithmetic itself.  A product whose factor
    # has a zero part adds only exact zeros, so each row rounds as its
    # one-row form:
    # * [c, s, z] * [decay.real, 1/(-2 T1), 1] gives decay.real c, s/(-2 T1)
    #   and z + 0i: numpy divides by a real-valued complex d as a multiply
    #   by 1/d, so s * (1/(-2 T1)) rounds as s / (-2 T1);
    # * i g [s, z] gives i g s and the coefficient i g z of <c> in ds;
    # * [i decay.imag, i g z] * c: i decay.imag c rounds as decay.imag (i c);
    # * adding [0, 0, 1] to the z row makes it z + 1, read as its real part;
    # * [Im c, Re c] * [Re s, Im s] gives both products of Im(c s*).
    # The drive term sqrt(kappa) (b alpha) is one row of a (2 _CHUNK + 1, B)
    # product per chunk, rounded as the per-step b * alpha.
    coef = np.array([np.full(b_size, v, dtype=complex)
                     for v in (decay.real, 1.0 / (-2.0 * p.t1), 1.0)])
    ig_rows = np.empty((3, b_size), dtype=complex)      # i decay.imag, i g s, i g z
    ig_rows[0] = 1j * decay.imag
    ig_s, ig_sz, ig_cz = ig_rows[1], ig_rows[1:3], ig_rows[0::2]
    ige = np.full((2, b_size), 1j * ge)
    left, right = np.empty((3, b_size), dtype=complex), np.zeros((3, b_size), dtype=complex)
    right[2] = 1.0
    right_cs = right[0:2]
    im_cs = np.empty((2, b_size))
    im_cs0, im_cs1 = im_cs
    minus_t1 = np.full(b_size, -p.t1)
    add, sub, mul, div = np.add, np.subtract, np.multiply, np.divide

    def bind(y, k):
        c, s_z = y[0], y[1:3]
        c_pair = c.view(float).reshape(b_size, 2).T[::-1]     # Im c, Re c
        s_pair = y[1].view(float).reshape(b_size, 2).T        # Re s, Im s
        dc, dz = k[0], k[2].real

        def rhs(f):
            mul(ige, s_z, ig_sz)
            mul(coef, y, left)
            mul(ig_cz, c, right_cs)
            add(left, right, k)
            sub(dc, ig_s, dc)
            sub(dc, f, dc)
            mul(c_pair, s_pair, im_cs)
            sub(im_cs0, im_cs1, im_cs0)
            mul(ge4, im_cs0, im_cs0)
            div(dz, minus_t1, dz)
            add(dz, im_cs0, dz)

        return rhs

    def forcing(d):
        return mul(sk_b, mul(d[:, None], alpha))

    def on_sample(k, y):
        c_traj[:, k] = y[0]
        # hypot rounds as the scalar abs does; np.abs of an array may not
        np.maximum(max_s, np.hypot(y[1].real, y[1].imag), out=max_s)
        np.maximum(max_z, y[2].real, out=max_z)

    y0 = np.zeros((3, b_size), dtype=complex)
    y0[2] = -1.0
    _rk4(bind, y0, drive, forcing, grid, on_sample)

    return [
        (c, _meanfield_diagnostics(float(np.max(np.abs(c) ** 2)), s, z))
        for c, s, z in zip(c_traj, max_s, max_z)
    ]


def reflect_meanfield(
    f_in: Pulse, alpha: complex, state: JointState, params: DeviceParams
) -> ReflectionResult:
    """Factorized cavity/charge dynamics driven by alpha f_in(t).

    d<c>/dt     = -(i D' + kappa/2)<c> - i g_eff <s> - sqrt(kappa) alpha f
    d<s>/dt     = -<s>/(2 T1) + i g_eff <z> <c>
    d<z>/dt     = -(<z> + 1)/T1 - 2 i g_eff (<c> conj<s> - conj<c> <s>)

    from (<c>, <s>, <z>) = (0, 0, -1), with D' the negative of the stored
    detuning (frame convention, see module docstring).  Output field
    alpha f + sqrt(kappa) <c>.  Fixed-step RK4 at a quarter of the grid
    step.  With g_eff = 0 only the <c> equation is left, and it is linear:
    that job takes _bare_cavity_field, the same RK4 step in closed form.
    The tests hold it to the spectral filter (better than 1e-8 RMS) and
    to this RK4 rhs at g_eff = 0 (1e-13 of peak); the chain pins the signs
    of detuning, decay and drive in the <c> equation.

    Diagnostics report the peak charge excitation (1 + max<z>)/2, sampled
    on the grid, and flag the run `unreliable` when it exceeds
    MEANFIELD_EXCITATION_BOUND, past which the factorisation error is
    larger than the backend's stated accuracy.
    """
    return next(_reflect_batch(f_in, [(alpha, state, params)], "meanfield"))


def _evolve_master_batch(space, g_eff, params, grid, drive, scale, rho, ops):
    """Propagate a batch of density matrices under the driven, damped
    master equation: element k has coupling g_eff[k], initial state rho[k]
    and drive b = scale[k] beta(t), where `drive` is beta upsampled by _upsample.

    H(t) = D' c^d c + g_eff (s+ c + s- c^d) + i sqrt(kappa)(conj(b) c - b c^d)
    with D' = -detuning, plus Lindblad decay kappa for the cavity and 1/T1
    for the charge.  Each rho[k] must be Hermitian: the rhs forms rho H^d as
    (H rho)^d, which holds only for Hermitian rho, and keeps rho exactly
    Hermitian.  A trace drift above 1e-6, or a NaN one, raises NumericsError.
    Returns the records {name: (B, n_samples)} of tr(rho op) for each of
    `ops`, the final states and the trace drift of each element.
    """
    kappa = params.kappa
    sk = math.sqrt(kappa)
    nf, d = space.fock_dim, space.dim
    b_size = len(rho)
    C = space.cavity_op()
    Cd = C.conj().T
    Sm = space.charge_lower_op()
    Sp = Sm.conj().T
    n_c = Cd @ C
    # rhs = -i(H_eff rho - rho H_eff^d) + kappa c rho c^d + s- rho s+ / T1,
    # where H_eff = H - (i/2)(kappa c^d c + s+ s- / T1) carries the Lindblad
    # anticommutators.  rho stays exactly Hermitian, so with x = -i H_eff rho
    # the first term is x + x^d: one matrix product.  On the flat view of
    # the whole batch (see qmath) c rho c^d is a shift by d+1 and s- rho s+
    # a shift by nf(d+1), each one contiguous weighted slice; the weights
    # are 0 where a shift crosses a charge block, a row or a batch element.
    h_eff = -params.detuning * n_c - 0.5j * (kappa * n_c + (1.0 / params.t1) * (Sp @ Sm))
    gen_eff = -1j * (h_eff + g_eff[:, None, None] * (Sp @ C + Sm @ Cd))
    n1 = np.arange(d) % nf + 1.0
    cavity_w = kappa * np.sqrt(np.outer(n1, n1)) * np.outer(n1 < nf, n1 < nf)
    ground = np.arange(d) < nf
    charge_w = np.outer(ground, ground) / params.t1
    cavity_w, charge_w = (
        np.tile(w.ravel(), b_size)[: b_size * d * d - s].astype(complex)
        for w, s in ((cavity_w, d + 1), (charge_w, nf * (d + 1)))
    )
    # The drive adds sqrt(kappa)(conj(b) c - b c^d) to the generator, on the
    # two diagonals where c and c^d live; c is real, so this rounds as the
    # dense sum on every entry the drive reaches.  forcing builds both
    # diagonals for every drive value b = beta scale of a chunk at once, and
    # a row is the pair of them.  RK4 meets each row twice in a row (the two
    # midpoint stages; the end of a step and the start of the next) as the
    # same object: copy it into the generator on a new row only.
    gen = gen_eff.copy()
    sup, sub = (gen.reshape(b_size, d * d)[:, k :: d + 1] for k in (1, d))
    eff_sup, eff_sub = sup.copy(), sub.copy()
    c_sup = np.diagonal(C, 1)
    last_row = [None]

    def bind(r, out):
        v, rv = out.reshape(-1), r.reshape(-1)
        cavity_to, cavity_from = v[: -d - 1], rv[d + 1 :]
        charge_to, charge_from = v[: -nf * (d + 1)], rv[nf * (d + 1) :]

        def rhs(row):
            if row is not last_row[0]:
                last_row[0] = row
                np.copyto(sup, row[0])
                np.copyto(sub, row[1])
            x = gen @ r
            np.conjugate(x.swapaxes(1, 2), out=out)
            np.add(out, x, out=out)
            np.add(cavity_to, cavity_w * cavity_from, out=cavity_to)
            np.add(charge_to, charge_w * charge_from, out=charge_to)

        return rhs

    def forcing(dr):
        u = sk * ((dr[:, None] * scale)[:, :, None] * c_sup)
        return zip(eff_sup + np.conj(u), eff_sub - u)

    n = grid.n_samples
    records = {name: np.empty((b_size, n), dtype=complex) for name in ops}
    # tr(rho op) = sum of rho * op^T, elementwise
    op_t = {name: np.ascontiguousarray(op.T) for name, op in ops.items()}
    drift = np.zeros(b_size)

    def on_sample(k, r):
        for name, opt in op_t.items():
            records[name][:, k] = (r * opt).sum(axis=(1, 2))
        np.maximum(drift, np.abs(np.trace(r, axis1=1, axis2=2) - 1.0), out=drift)

    rho = _rk4(bind, rho, drive, forcing, grid, on_sample)
    # `not <=` so that a NaN drift fails as well
    if not np.all(drift <= 1e-6):
        raise NumericsError(f"master-equation trace drifted by {drift.max():.3e}")
    return records, rho, drift


def required_fock_dim(alpha: complex, f_in: Pulse, kappa: float) -> float:
    """Sizing heuristic for the Fock truncation under a coherent drive."""
    peak = float(np.max(np.abs(f_in.envelope)))
    return (4.0 * abs(alpha) * peak / math.sqrt(kappa)) ** 2


def _master_diagnostics(peak_photon, trace_drift, fock_tail, min_eigenvalue) -> dict:
    """master's diagnostics; fock_tail is the top two Fock levels' peak population."""
    return {"peak_photon": peak_photon, "trace_drift": trace_drift, "fock_tail": fock_tail,
            "min_eigenvalue": min_eigenvalue, "unreliable": fock_tail > FOCK_TAIL_BOUND}


def _master_rows(grid, jobs, drive, fock_dim: int) -> list[tuple[np.ndarray, dict]]:
    """(<c> trajectory, diagnostics) of each (alpha, state, params) job,
    from the density matrix propagated as one RK4 batch on `drive`, the
    upsampled envelope; _reflect_batch validates the jobs.  fock_tail is
    the peak over the run of the top two Fock levels' population, since the
    cavity is empty again by the end."""
    space = HilbertSpace(fock_dim)
    C = space.cavity_op()
    top_two = np.diag((np.arange(space.dim) % fock_dim >= fock_dim - 2).astype(complex))
    records, rho, drift = _evolve_master_batch(
        space,
        np.array([st.g_eff(q.g_coupling) for _, st, q in jobs]),
        _shared_params(jobs),
        grid,
        drive,
        np.array([a for a, _, _ in jobs], dtype=complex),
        np.repeat(DensityMatrix.ground(space).matrix[None], len(jobs), axis=0),
        {"c": C, "n": C.conj().T @ C, "tail": top_two},
    )
    n_peak, tail_peak = (records[name].real.max(axis=1).tolist() for name in ("n", "tail"))
    return [
        (c, _master_diagnostics(n, d, tail, DensityMatrix(space, r).min_eigenvalue()))
        for c, n, d, tail, r in zip(records["c"], n_peak, drift.tolist(), tail_peak, rho)
    ]


def _bare_cavity_field(params: DeviceParams, drive, grid) -> np.ndarray:
    """<c> on the grid of the dipole-free cavity under the unit-amplitude drive.

    With g_eff = 0, meanfield and master both reduce to the linear
    c' = lam c + F(t), with lam = -(-iD + kappa/2) and F = -sqrt(kappa) b.
    An RK4 step is linear in its inputs, so _rk4 on this equation is the
    recurrence c+ = R c + A0 F0 + Am Fm + A1 F1 (F at the start, middle
    and end of the step), where R, A0, Am and A1 are the step applied to
    unit inputs.  It runs a grid interval (_SUBSTEPS steps) at a time and
    equals _rk4 up to rounding.
    """
    h = grid.dt / _SUBSTEPS
    lam = -(1j * -params.detuning + params.kappa / 2.0)

    def step(c, f0, fm, f1):            # one step of _rk4 on c' = lam c + F
        k1 = lam * c + f0
        k2 = lam * (c + 0.5 * h * k1) + fm
        k3 = lam * (c + 0.5 * h * k2) + fm
        k4 = lam * (c + h * k3) + f1
        return c + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    r, a0, am, a1 = (step(*unit) for unit in np.eye(4).tolist())
    # forcing of each step, with F = -sqrt(kappa) b folded into A0, Am, A1
    f0, fm, f1 = (-math.sqrt(params.kappa) * a for a in (a0, am, a1))
    m = 2 * _SUBSTEPS * (grid.n_samples - 1)
    u = (f0 * drive[0:m:2] + fm * drive[1:m:2] + f1 * drive[2 : m + 1 : 2]).reshape(-1, _SUBSTEPS)
    # with m = _SUBSTEPS: c(k+1) = R^m c(k) + (..(u(mk) R + u(mk+1)) R + ..) R + u(mk+m-1)
    u_m = reduce(lambda acc, col: acc * r + col, u.T[1:], u[:, 0]).tolist()
    r_m = reduce(lambda acc, x: acc * x, [r] * _SUBSTEPS)
    return np.array(list(accumulate(u_m, lambda c, x: r_m * c + x, initial=0j)))


def _coherent_fock_tail(n_mean: float, fock_dim: int) -> float:
    """Population of the top two of fock_dim levels in a coherent state of
    mean photon number n_mean (Poisson), as fock_tail measures it."""
    log_n = math.log(max(n_mean, sys.float_info.min))
    return sum(
        math.exp(k * log_n - n_mean - math.lgamma(k + 1)) for k in (fock_dim - 2, fock_dim - 1)
    )


def _bare_row(c_traj, backend: str, fock_dim: int) -> tuple[np.ndarray, dict]:
    """(c_traj, diagnostics) of a dipole-free job: the diagnostics of the
    exact state, a coherent cavity field and a charge left in its ground
    state.  meanfield: <s> = 0 and <z> = -1 throughout.  master: no trace
    drift, a zero eigenvalue, and the Poisson tail, which grows with the
    photon number below the truncation, so its peak is at the peak field."""
    peak_photon = float(np.max(np.abs(c_traj) ** 2))
    if backend == "meanfield":
        return c_traj, _meanfield_diagnostics(peak_photon, 0.0, -1.0)
    return c_traj, _master_diagnostics(peak_photon, 0.0, _coherent_fock_tail(peak_photon, fock_dim), 0.0)


def _reflect_batch(f_in: Pulse, jobs, backend: str, fock_dim=DEFAULT_FOCK_DIM) -> Iterator[ReflectionResult]:
    """meanfield or master reflection of each (alpha, state, params) job.

    A job whose state couples no dipole (g_eff = 0) meets a bare, exactly
    linear cavity.  It takes _bare_cavity_field, evaluated once at unit
    amplitude and scaled by its alpha, and never enters the RK4 batch;
    the other jobs are integrated as one batch.  Both use the same
    upsampled drive.

    The checks (the amplitude rule, master sizing, the shared device, trace
    drift) and the integration run at the call.  The returned iterator
    decomposes a job when it is consumed, so a caller that keeps one
    result at a time holds only the batch's <c> record and that result.
    """
    if not f_in.is_normalized():
        raise ValueError("input pulse must be normalized")
    for a, _, q in jobs:
        _check_amplitude(a)
        if backend == "master":
            need = required_fock_dim(a, f_in, q.kappa)
            if fock_dim < need:
                raise ValueError(
                    f"fock_dim {fock_dim} below sizing heuristic {need:.1f} for |alpha|={abs(a):.3g}"
                )
    drive = _upsample(f_in.envelope)
    bare = [st.g_eff(q.g_coupling) == 0 for _, st, q in jobs]
    coupled = [job for job, is_bare in zip(jobs, bare) if not is_bare]
    # ahead of the batch, so that its temporaries do not stack on the batch's record
    c_unit = _bare_cavity_field(_shared_params(jobs), drive, f_in.grid) if any(bare) else None
    # A step too coarse for the batch overflows to inf and NaN; that is
    # reported once, as a NumericsError from _decompose's finite check or
    # master's trace drift check, not as numpy warnings along the way.
    with np.errstate(over="ignore", invalid="ignore"):
        if not coupled:
            rows = []
        elif backend == "meanfield":
            rows = _meanfield_rows(f_in.grid, coupled, drive)
        else:
            rows = _master_rows(f_in.grid, coupled, drive, fock_dim)
    return _decomposed(f_in, jobs, backend, fock_dim, bare, iter(rows), c_unit)


def _decomposed(f_in, jobs, backend, fock_dim, bare, rows, c_unit) -> Iterator[ReflectionResult]:
    """_reflect_batch's results, one job at a time: a bare job scales
    c_unit, a coupled one takes the next of `rows`."""
    for (a, st, q), is_bare in zip(jobs, bare):
        c_traj, diags = _bare_row(a * c_unit, backend, fock_dim) if is_bare else next(rows)
        g_out = a * f_in.envelope + math.sqrt(q.kappa) * c_traj
        yield _decompose(f_in, g_out, a, st, q, backend, {"c_trajectory": c_traj, **diags})


def reflect_master(
    f_in: Pulse,
    alpha: complex,
    state: JointState,
    params: DeviceParams,
    fock_dim: int = DEFAULT_FOCK_DIM,
) -> ReflectionResult:
    """Density-matrix reflection; the reference backend at small alpha.

    A dipole-free state (g_eff = 0) takes the exact bare-cavity field of
    _bare_cavity_field, as in meanfield, and the diagnostics of _bare_row.
    """
    return next(_reflect_batch(f_in, [(alpha, state, params)], "master", fock_dim))


def _analytic_result(
    f_in: Pulse, alpha: complex, state: JointState, params: DeviceParams
) -> ReflectionResult:
    """Idealized record: reflection xi, unchanged shape, no loss bookkeeping.

    eta is zero by definition here even though |xi| < 1; the analytic
    picture treats the steady-state amplitude as the whole story, which
    is exactly what the closed-form gate fidelity assumes.  f_out is f_in
    turned to the phase of xi alpha, taking xi = 0 as positive.
    """
    _check_amplitude(alpha)
    xi = xi_analytic(state, params.g_coupling, params.kappa, params.t1)
    sign = 1.0 if xi >= 0 else -1.0
    return ReflectionResult(
        state=state,
        xi=complex(xi),
        alpha_in=alpha,
        alpha_out=xi * alpha,
        f_out=Pulse(f_in.grid, sign * (alpha / abs(alpha)) * f_in.envelope),
        epsilon=0.0,
        eta=0.0,
        backend="analytic",
        diagnostics={},
    )


_RUN_LABELS = ("00", "01", "11")     # 10 mirrors 01


def scatter_batch(
    f_in: Pulse, points, backend: str, fock_dim: int = DEFAULT_FOCK_DIM
) -> Iterator[dict[str, ReflectionResult]]:
    """scatter_all_states at each (alpha, params) point, as an iterator.

    analytic and filter scatter once for each run of points on one device
    and rescale (see _linear_points).  meanfield and master integrate the
    coupled states (00, 01) of every point as one RK4 batch, so the points
    must share kappa, t1 and detuning; state 11's bare cavity takes one
    exact recurrence at every point (see _reflect_batch).

    Every check (_check_amplitude of each point too) and the batch
    integration run at the call; a point's results are built as it is
    consumed, so a sweep holds one point's output fields at a time.
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}")
    if backend in LINEAR_BACKENDS:      # most points reach no kernel: check them at the call
        for a, _ in points:
            _check_amplitude(a)
        return _linear_points(f_in, points, backend)
    jobs = [(a, joint_state(lab), p) for a, p in points for lab in _RUN_LABELS]
    flat = _reflect_batch(f_in, jobs, backend, fock_dim)
    # zip over one iterator, repeated, takes its items in consecutive groups
    return map(_with_mirror, zip(*[flat] * len(_RUN_LABELS)))


def _linear_points(f_in: Pulse, points, backend: str) -> Iterator[dict[str, ReflectionResult]]:
    """A linear backend's results at each (alpha, params) point: scatter_all_states
    where the device differs from the last point's, else its records rescaled:
    the amplitudes scale and f_out turns with alpha's phase, as a kernel call at
    alpha would give them up to rounding; epsilon, eta and the phase stay."""
    device = shared = None
    for a, p in points:
        if p != device:
            device, shared = p, scatter_all_states(f_in, a, p, backend)
        yield {lab: r if r.alpha_in == a else _rescaled(r, a) for lab, r in shared.items()}


def _rescaled(r: ReflectionResult, alpha: complex) -> ReflectionResult:
    turn = (alpha / abs(alpha)) / (r.alpha_in / abs(r.alpha_in))
    return replace(r, alpha_in=alpha, alpha_out=alpha * (r.alpha_out / r.alpha_in),
                   f_out=Pulse(r.f_out.grid, turn * r.f_out.envelope))


def _with_mirror(results) -> dict[str, ReflectionResult]:
    """One point's {label: result} from its _RUN_LABELS results; 10 mirrors 01."""
    res = dict(zip(_RUN_LABELS, results))
    res["10"] = replace(res["01"], state=joint_state("10"))
    return res


def scatter_all_states(
    f_in: Pulse,
    alpha: complex,
    params: DeviceParams,
    backend: str = "filter",
    fock_dim: int = DEFAULT_FOCK_DIM,
) -> dict[str, ReflectionResult]:
    """Run one backend for all four joint states; 01 and 10 share a run."""
    if backend in LINEAR_BACKENDS:
        kernel = _analytic_result if backend == "analytic" else reflect_filter_pulse
        return _with_mirror([kernel(f_in, alpha=alpha, state=joint_state(lab), params=params)
                             for lab in _RUN_LABELS])
    return next(scatter_batch(f_in, [(alpha, params)], backend, fock_dim))
