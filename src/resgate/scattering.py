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
from collections.abc import Iterator
from dataclasses import dataclass, replace
from functools import reduce
from itertools import accumulate

import numpy as np

from .device import DeviceParams
from .errors import NumericsError
from .pulse import Pulse, Spectrum, inverse_spectrum, overlap, spectrum
from .qmath import DensityMatrix, HilbertSpace
from .rules import BACKENDS, DEFAULT_FOCK_DIM, LINEAR_BACKENDS, _check_amplitude

PASSIVITY_SLACK = 1e-6

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

# RK4 steps per grid interval while the pulse drives the cavity, the one
# place the driven time step is set: _rk4 steps at grid.dt / _SUBSTEPS
# unless told otherwise, _upsample puts the drive at the start, middle and
# end of each step, and _bare_cavity_field and master's _free_decay are the
# same step.  Past the pulse's end (_pulse_end) meanfield takes one step per
# grid interval, as no drive is left to resolve (see _meanfield_rows).
_SUBSTEPS = 4

# RK4 steps whose drive forcing _rk4 asks for in one call (see _rk4).
_CHUNK = 64

# Grid points whose tr(rho op) master books in one call (see _evolve_master_batch).
_BLOCK = 64


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
    f_out: Pulse | None         # normalized output mode; None where no fields were asked for
    epsilon: float              # shape mismatch, in [0, 1]
    eta: float                  # energy loss fraction, in [0, 1]
    backend: str
    diagnostics: dict

    @property
    def phase(self) -> float:
        """Phase of the reflected amplitude relative to the input, in (-pi, pi]:
        a reflection of exactly -pi reads pi, on every backend."""
        phi = cmath.phase(self.alpha_out / self.alpha_in)
        return math.pi if phi == -math.pi else phi


def xi_effective(result: ReflectionResult) -> complex:
    """Projection of the reflected field on the input mode, per unit input.

    (1 - epsilon) sqrt(1 - eta) e^{i phase}; reduces to the analytic xi
    for the analytic backend and converges to it as the pulse becomes
    long against the cavity response.
    """
    return (1.0 - result.epsilon) * result.alpha_out / result.alpha_in


def _field_integrals(f_in: Pulse, g_out: np.ndarray, backend: str) -> tuple[float, complex]:
    """(energy, overlap) of an output field array, the integrals _reflection
    takes: the trapezoid of |g_out|^2, and the overlap of f_in with g_out
    normalised to unit energy (0 for a zero field, which _reflection refuses)."""
    if not np.all(np.isfinite(g_out)):
        raise NumericsError(f"{backend} output field is not finite")
    energy = float(np.trapezoid(np.abs(g_out) ** 2, dx=f_in.grid.dt))
    ov = overlap(f_in, Pulse(f_in.grid, g_out / math.sqrt(energy))) if energy else 0j
    return energy, ov


def _reflection(f_in: Pulse, energy: float, ov: complex, g_out, alpha: complex, state: JointState,
                params: DeviceParams, backend: str, diagnostics: dict) -> ReflectionResult:
    """Split an output field into amplitude, shape and loss by its
    integrals (see _field_integrals): its energy and its overlap ov with
    f_in once normalised.  f_out is g_out normalised, or None with g_out."""
    # a non-finite field makes ov NaN, however its energy reads
    if not cmath.isfinite(ov):
        raise NumericsError(f"{backend} output field is not finite")
    e_ratio = energy / abs(alpha) ** 2
    if e_ratio > 1.0 + PASSIVITY_SLACK:
        raise NumericsError(f"output energy ratio {e_ratio:.9f} exceeds unity: passivity violated")
    eta = min(1.0, max(0.0, 1.0 - e_ratio))
    if energy == 0:
        raise NumericsError("zero output field; cannot decompose")
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
        f_out=None if g_out is None else Pulse(f_in.grid, g_out / math.sqrt(energy)),
        epsilon=epsilon,
        eta=eta,
        backend=backend,
        diagnostics=diagnostics,
    )


def _decompose(f_in: Pulse, g_out: np.ndarray, alpha: complex, state: JointState,
               params: DeviceParams, backend: str, diagnostics: dict) -> ReflectionResult:
    """Split the raw output field array into amplitude, shape, and loss."""
    return _reflection(f_in, *_field_integrals(f_in, g_out, backend), g_out, alpha, state, params,
                       backend, diagnostics)


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

    Polyphase form (R. E. Crochiere and L. R. Rabiner, Multirate Digital
    Signal Processing, 1983): out[j::factor], offset j of each grid
    interval, is the inverse FFT of the spectrum with each signed bin q
    turned by exp(2 pi i q j / (factor m)).  So no temporary spans the
    fine grid, and no transform has the length factor m (8 * 2,817 has the
    prime factor 313).  An even m's Nyquist bin counts half at +m/2 and
    half at -m/2, a ramp of cos(pi j / factor), so a real envelope's
    interpolant stays real.
    """
    factor = 2 * _SUBSTEPS
    m = len(values)
    sp = np.fft.fft(values)
    q = (np.arange(m) + m // 2) % m - m // 2        # 0..(m-1)//2, then -(m//2)..-1
    out = np.empty(factor * m, dtype=complex)
    for j in range(factor):
        ramp = np.exp((2j * math.pi * j / (factor * m)) * q)
        if m % 2 == 0:
            ramp[m // 2] = math.cos(math.pi * j / factor)
        out[j::factor] = np.fft.ifft(sp * ramp)
    return out


def _pulse_end(envelope) -> int:
    """The pulse's end: the first sample from which the envelope stays below
    2^-53 of its peak (n_samples if it never does).  Past it the upsampled
    drive holds only the periodic FFT's ringing (1.2e-11 of peak on the
    default grid), so _reflect_batch hands both RK4 kernels the drive up to
    here and they take it as zero from here on."""
    mag = np.abs(envelope)
    return int(np.flatnonzero(mag >= 2.0**-53 * mag.max())[-1]) + 1


def _rk4(bind, y, drive, forcing, grid, on_sample, start=0, steps=None):
    """Classical fixed-step RK4 of a batch of states; the one time stepper.

    Takes `steps` steps of size h = grid.dt / steps per grid interval,
    _SUBSTEPS (read at the call) unless given, from grid point `start`.
    `drive` is the forcing upsampled to that step, as _upsample does for
    _SUBSTEPS, so drive[2j], drive[2j+1] and drive[2j+2] are its values at
    the start, middle and end of step j of the run.  _rk4 steps to the last
    grid point e that both the grid and `drive` reach, and returns (the
    state there, e).  `on_sample(k, y)` sees the state at each grid point k
    the run reaches, start < k <= e, and the initial state at k = 0: a run
    that starts later continues one that has booked its first point.

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
    steps = _SUBSTEPS if steps is None else steps
    h = grid.dt / steps
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
    if start == 0:
        on_sample(0, y)
    end = min(grid.n_samples - 1, start + (len(drive) - 1) // (2 * steps))
    for j in range(steps * (end - start)):
        i = 2 * (j % _CHUNK)
        if i == 0:
            rows = None         # the last chunk is let go before the next is built
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
        if (j + 1) % steps == 0:
            on_sample(start + (j + 1) // steps, y)
    return y, end


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


def _meanfield_rows(
    grid, jobs, drive, envelope, record
) -> list[tuple[np.ndarray | None, dict, tuple[float, complex]]]:
    """(<c> trajectory, diagnostics, integrals) of each (alpha, state, params)
    job: the factorized cavity/charge dynamics driven by alpha f(t),

    d<c>/dt     = -(i D' + kappa/2)<c> - i g_eff <s> - sqrt(kappa) alpha f
    d<s>/dt     = -<s>/(2 T1) + i g_eff <z> <c>
    d<z>/dt     = -(<z> + 1)/T1 - 2 i g_eff (<c> conj<s> - conj<c> <s>)

    from (<c>, <s>, <z>) = (0, 0, -1), with D' the negative of the stored
    detuning (frame convention, see module docstring), integrated as one
    RK4 batch on `drive`, the upsampled `envelope` f up to the pulse's end
    (_pulse_end): _SUBSTEPS steps per grid interval as far as `drive`
    reaches, then one step per interval on a zero drive to the grid's end.
    The charge is still excited at the pulse's end, so the tail is
    nonlinear and stepped, not taken in closed form as master's is; with
    no drive left, its fastest rates are kappa/2 and g_eff.  Every job is
    integrated, a dipole-free one too; _reflect_batch validates the jobs.
    The integrals are _reflection's (energy, overlap) of the output field
    g = alpha f + sqrt(kappa) <c>: trapezoid sums of |g|^2 and conj(f) g
    taken as the batch steps.  The trajectory is None unless `record`.
    """
    p = _shared_params(jobs)
    n = grid.n_samples
    b_size = len(jobs)
    alpha = np.array([a for a, _, _ in jobs], dtype=complex)
    ge = np.array([st.g_eff(q.g_coupling) for _, st, q in jobs])
    ge4 = 4.0 * ge
    sk_b = np.full(b_size, math.sqrt(p.kappa), dtype=complex)
    decay = -(1j * -p.detuning + p.kappa / 2.0)
    c_traj = np.empty((b_size, n), dtype=complex) if record else None
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
        rows = mul(d[:, None], alpha)
        return mul(sk_b, rows, rows)

    # The integrals, sample by sample.  g is formed as the array path forms
    # it, and each row again rounds as its one-row form; [g, <c>] side by
    # side give |g|^2 and |<c>|^2 by one square and one add of a float view.
    env, env_conj = envelope.tolist(), np.conj(envelope).tolist()
    ends = (0, n - 1)
    g_c = np.empty((2, b_size), dtype=complex)
    g, c_now = g_c
    g_c_floats = g_c.view(float)
    squares = np.empty_like(g_c_floats)
    mag2 = np.empty((2, b_size))
    g_mag2, c_mag2 = mag2
    term = np.empty(b_size, dtype=complex)          # sqrt(kappa) <c>, then conj(f) g
    energy_sum, cross_sum = np.zeros(b_size), np.zeros(b_size, dtype=complex)
    peak_photon = np.zeros(b_size)

    def on_sample(k, y):
        c = y[0]
        if record:
            c_traj[:, k] = c
        # hypot rounds as the scalar abs does; np.abs of an array may not
        np.maximum(max_s, np.hypot(y[1].real, y[1].imag), out=max_s)
        np.maximum(max_z, y[2].real, out=max_z)
        np.copyto(c_now, c)
        mul(alpha, env[k], g)
        add(g, mul(sk_b, c, term), g)
        mul(g_c_floats, g_c_floats, squares)
        add(squares[:, 0::2], squares[:, 1::2], mag2)
        np.maximum(peak_photon, c_mag2, out=peak_photon)
        mul(g, env_conj[k], term)
        if k in ends:       # the trapezoid's half weights
            mul(g_mag2, 0.5, g_mag2)
            mul(term, 0.5, term)
        add(energy_sum, g_mag2, energy_sum)
        add(cross_sum, term, cross_sum)

    y0 = np.zeros((3, b_size), dtype=complex)
    y0[2] = -1.0
    y, end = _rk4(bind, y0, drive, forcing, grid, on_sample)
    if end < n - 1:
        _rk4(bind, y, np.zeros(2 * (n - 1 - end) + 1, dtype=complex), forcing, grid, on_sample, end, 1)

    rows = []
    for c, e, x, peak, s, z in zip(c_traj if record else [None] * b_size, energy_sum.tolist(),
                                   cross_sum.tolist(), peak_photon.tolist(), max_s, max_z):
        energy = grid.dt * e
        # _reflection refuses a zero field; a NaN one makes the overlap NaN
        ov = grid.dt * x / math.sqrt(energy) if energy != 0 else 0j
        rows.append((c, _meanfield_diagnostics(peak, s, z), (energy, ov)))
    return rows


def reflect_meanfield(
    f_in: Pulse, alpha: complex, state: JointState, params: DeviceParams
) -> ReflectionResult:
    """Factorized cavity/charge dynamics driven by alpha f_in(t), by the
    equations of _meanfield_rows.  Fixed-step RK4 at a quarter of the grid
    step while the pulse lasts, at the grid step after it.  With g_eff = 0
    only the <c> equation is left, and it is linear: that job takes
    _bare_cavity_field, the quarter-step RK4 in closed form over the whole
    grid.  The tests hold it to the spectral filter (better than 1e-8 RMS)
    and to this RK4 rhs at g_eff = 0 (1e-13 of peak while the pulse lasts,
    1e-12 after it); the chain pins the signs of detuning, decay and drive
    in the <c> equation.

    Diagnostics report the peak charge excitation (1 + max<z>)/2, sampled
    on the grid, and flag the run `unreliable` when it exceeds
    MEANFIELD_EXCITATION_BOUND, past which the factorisation error is
    larger than the backend's stated accuracy.
    """
    return next(_reflect_batch(f_in, [(alpha, state, params)], "meanfield", True))


def _evolve_master_batch(space, g_eff, params, grid, drive, scale, rho, ops):
    """Propagate a batch of density matrices under the driven, damped
    master equation: element k has coupling g_eff[k], initial state rho[k]
    and drive b = scale[k] beta(t), where `drive` is beta upsampled by _upsample.

    H(t) = D' c^d c + g_eff (s+ c + s- c^d) + i sqrt(kappa)(conj(b) c - b c^d)
    with D' = -detuning, plus Lindblad decay kappa for the cavity and 1/T1
    for the charge.  Each rho[k] must be Hermitian: the rhs forms rho H^d as
    (H rho)^d, which holds only for Hermitian rho, and keeps rho exactly
    Hermitian.  RK4 steps the rows as far as `drive` reaches (see _rk4);
    from that grid point to the grid's end they relax undriven in closed
    form (_free_decay): the same step, rounded differently.
    A trace drift above 1e-6, or a NaN one, raises NumericsError.
    Returns the records {name: (B, n_samples)} of tr(rho op) for each of
    `ops`, the final states, and the maxima over the grid of each element,
    kept as it steps: {"peak_photon": of Re tr(rho c^d c), "fock_tail": of
    the population of HilbertSpace.fock_tail_levels, "trace_drift": of
    |tr rho - 1|}.
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
        last_row[0] = None      # a row of the last chunk would keep its arrays
        lower = (dr[:, None] * scale)[:, :, None] * c_sup
        np.multiply(sk, lower, out=lower)       # u = sqrt(kappa) b c_sup, then eff_sub - u
        upper = np.conjugate(lower)             # conj(u), then eff_sup + conj(u)
        np.add(eff_sup, upper, out=upper)
        np.subtract(eff_sub, lower, out=lower)
        return zip(upper, lower)

    n = grid.n_samples
    records = {name: np.empty((b_size, n), dtype=complex) for name in ops}
    # tr(rho op) = sum of rho * op^T, elementwise: the ops, then <n> and the
    # Fock tail, whose maxima the diagnostics keep
    tail_op = np.diag(space.fock_tail_levels().astype(complex))
    op_t = [np.ascontiguousarray(op.T) for op in (*ops.values(), n_c, tail_op)]
    peaks = np.full((2, b_size), -np.inf)       # of <n> and of the Fock tail
    drift = np.zeros(b_size)

    def book(k, values):
        # values[w, :, t]: tr(rho w) at grid point k + t, for w in op_t and then the identity
        for rec, v in zip(records.values(), values):
            rec[:, k : k + values.shape[2]] = v
        np.maximum(peaks, values[-3:-1].real.max(axis=2), out=peaks)
        np.maximum(drift, np.abs(values[-1] - 1.0).max(axis=1), out=drift)

    block = np.empty((len(op_t) + 1, b_size, _BLOCK), dtype=complex)

    def on_sample(k, r):
        t = k % _BLOCK
        for opt, v in zip(op_t, block):
            v[:, t] = (r * opt).sum(axis=(1, 2))
        block[-1, :, t] = np.trace(r, axis1=1, axis2=2)
        if t == _BLOCK - 1:
            book(k - t, block)

    rho, end = _rk4(bind, rho, drive, forcing, grid, on_sample)
    last = end % _BLOCK         # on_sample books a full block; book the rest
    if last != _BLOCK - 1:
        book(end - last, block[..., : last + 1])
    if end < n - 1:
        # one set of sector maps per coupling, in first-seen order: a sweep's rows share two (00 and 01)
        slot = {}
        which = [slot.setdefault(g, len(slot)) for g in g_eff.tolist()]
        first = [which.index(u) for u in range(len(slot))]
        rho = _free_decay(space, gen_eff[first], which, params, grid.dt / _SUBSTEPS, rho,
                          [*op_t, np.eye(d)], n - 1 - end, lambda t, values: book(end + 1 + t, values))
    # `not <=` so that a NaN drift fails as well
    if not np.all(drift <= 1e-6):
        raise NumericsError(f"master-equation trace drifted by {drift.max():.3e}")
    return records, rho, {"peak_photon": peaks[0], "fock_tail": peaks[1], "trace_drift": drift}


def _free_decay(space, gen, which, params, h, rho, weights, intervals, on_values):
    """The batch rho relaxed with no drive over `intervals` grid intervals,
    in closed form; returns the final states.  It hands the values of the
    intervals _BLOCK at a time: on_values(t, values), values[w, :, s] the
    tr(rho weights[w]) of each row after interval t + s.

    gen[u] = -i H_eff of coupling u, and row k of rho has coupling
    which[k]: the maps below are built once per coupling and indexed per
    row.  With no drive the generator L is constant, and an RK4 step on
    rho' = L rho is exactly rho <- P(hL) rho with P(z) = 1 + z + z^2/2 +
    z^3/6 + z^4/24, so a grid interval is P(hL)^_SUBSTEPS: the RK4 step in
    closed form, as in _bare_cavity_field.  H then conserves
    N = c^d c + s+ s-, and both jumps lower N on both sides of rho, so L
    keeps each coherence order m = N(row) - N(col) to itself (B. Buca and
    T. Prosen, New J. Phys. 14, 073007 (2012)); a block L_m is at most
    4 fock_dim - 2 square.  A sector that `weights` read is stepped
    interval by interval, and an interval's values sum the read sectors
    in order; any other sector is brought to the end by one matrix power.
    """
    nf, d = space.fock_dim, space.dim
    exc = np.arange(d) % nf + np.arange(d) // nf
    order = exc[:, None] - exc[None, :]
    eye = np.eye(d)
    jumps = ((params.kappa, space.cavity_op()), (1.0 / params.t1, space.charge_lower_op()))

    def interval(i, j):
        # L on the entries (i, j) of rho, from L rho = A rho + rho A^d + sum of rate X rho X^d
        def pair(x, y):
            return x[..., i[:, None], i] * y[..., j[:, None], j].conj()

        step = h * (pair(gen, eye) + pair(eye, gen) + sum(rate * pair(x, x) for rate, x in jumps))
        one = np.eye(len(i))
        poly = reduce(lambda p, q: one + step @ p / q, (4, 3, 2, 1), one)     # P(hL) by Horner
        return np.linalg.matrix_power(poly, _SUBSTEPS)

    final = np.empty_like(rho)
    read = []       # (entries, weights) of each sector that `weights` read, in order
    for sector in range(-nf, nf + 1):
        i, j = np.nonzero(order == sector)
        w = np.array([wt[i, j] for wt in weights])
        if w.any():
            read.append(((i, j), w))
        else:
            v = np.linalg.matrix_power(interval(i, j), intervals)[which] @ rho[:, i, j, None]
            final[:, i, j] = v[..., 0]
    # the read sectors' maps are held together, so they are built after the powers
    maps = [interval(i, j)[which] for (i, j), _ in read]
    states = [rho[:, i, j, None] for (i, j), _ in read]
    out = np.empty((_BLOCK, len(rho), len(weights), 1), dtype=complex)
    for start in range(0, intervals, _BLOCK):
        values = out[: intervals - start]
        values.fill(0)
        for s, (m, (_, w)) in enumerate(zip(maps, read)):
            v = states[s]
            for total in values:
                v = m @ v
                total += w @ v
            states[s] = v
        on_values(start, values[..., 0].transpose(2, 1, 0))
    for ((i, j), _), v in zip(read, states):
        final[:, i, j] = v[..., 0]
    return final


def _master_diagnostics(peak_photon, trace_drift, fock_tail, min_eigenvalue) -> dict:
    """master's diagnostics; fock_tail is the top two Fock levels' peak population."""
    return {"peak_photon": peak_photon, "trace_drift": trace_drift, "fock_tail": fock_tail,
            "min_eigenvalue": min_eigenvalue, "unreliable": fock_tail > FOCK_TAIL_BOUND}


def _master_rows(f_in, jobs, drive, fock_dim: int) -> list[tuple[np.ndarray, dict, tuple[float, complex]]]:
    """(<c> trajectory, diagnostics, integrals) of each (alpha, state, params)
    job, from the density matrix propagated as one RK4 batch on `drive`, the
    upsampled envelope of f_in up to the pulse's end (_pulse_end), and
    relaxed in closed form from there (see _evolve_master_batch);
    _reflect_batch validates the jobs.  fock_tail is the peak population of
    HilbertSpace.fock_tail_levels, as the cavity is empty again by the end;
    the integrals are _field_integrals of g_out."""
    space = HilbertSpace(fock_dim)
    records, rho, maxima = _evolve_master_batch(
        space,
        np.array([st.g_eff(q.g_coupling) for _, st, q in jobs]),
        _shared_params(jobs),
        f_in.grid,
        drive,
        np.array([a for a, _, _ in jobs], dtype=complex),
        np.repeat(DensityMatrix.ground(space).matrix[None], len(jobs), axis=0),
        {"c": space.cavity_op()},
    )
    peaks = (maxima[name].tolist() for name in ("peak_photon", "trace_drift", "fock_tail"))
    return [
        (c, _master_diagnostics(n, d, tail, DensityMatrix(space, r).min_eigenvalue()),
         _field_integrals(f_in, a * f_in.envelope + math.sqrt(q.kappa) * c, "master"))
        for (a, _, q), c, n, d, tail, r in zip(jobs, records["c"], *peaks, rho)
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


def _bare_unit_row(f_in: Pulse, params: DeviceParams, drive, backend: str):
    """(<c>, diagnostics, integrals) of a dipole-free job at unit amplitude:
    the diagnostics of the exact state, a coherent cavity field and a charge
    left in its ground state.  meanfield: <s> = 0 and <z> = -1 throughout.
    master: no trace drift, a zero eigenvalue and a zero Fock tail: the
    exact field used no truncated space, so the row is never flagged."""
    c = _bare_cavity_field(params, drive, f_in.grid)
    peak = float(np.max(np.abs(c) ** 2))
    diags = (_meanfield_diagnostics(peak, 0.0, -1.0) if backend == "meanfield"
             else _master_diagnostics(peak, 0.0, 0.0, 0.0))
    return c, diags, _field_integrals(f_in, f_in.envelope + math.sqrt(params.kappa) * c, backend)


def _reflect_batch(f_in: Pulse, jobs, backend: str, fields: bool,
                   fock_dim=DEFAULT_FOCK_DIM) -> Iterator[ReflectionResult]:
    """meanfield or master reflection of each (alpha, state, params) job.

    A job whose state couples no dipole (g_eff = 0) meets a bare, exactly
    linear cavity, whose field is alpha times that of _bare_unit_row, run
    once: its energy and peak photon number scale by |alpha|^2 and its
    overlap by alpha/|alpha|.  The other jobs are integrated as one batch
    on the upsampled drive up to the pulse's end (_pulse_end), past which
    the drive is zero: master relaxes its rows in closed form from there
    (see _master_rows), and meanfield steps them once per grid interval
    (see _meanfield_rows).

    The checks (the amplitude rule, the shared device, trace drift) and
    the integration run at the call; master's Fock truncation is judged
    by what the coupled rows measure, their peak tail (see _master_rows).
    The returned iterator decomposes a job when it is consumed, so a
    caller that keeps one result at a time holds only the batch's rows and
    that result; every row carries its integrals.  With `fields`, a result
    carries f_out and its <c> trajectory (diagnostics["c_trajectory"]);
    without, neither, and meanfield and the bare jobs build no trajectory.
    """
    if not f_in.is_normalized():
        raise ValueError("input pulse must be normalized")
    for a, _, _ in jobs:
        _check_amplitude(a)
    drive = _upsample(f_in.envelope)
    bare = [st.g_eff(q.g_coupling) == 0 for _, st, q in jobs]
    coupled = [job for job, is_bare in zip(jobs, bare) if not is_bare]
    # ahead of the batch, so that its temporaries do not stack on the batch's record
    unit = _bare_unit_row(f_in, _shared_params(jobs), drive, backend) if any(bare) else None
    driven = drive[: 2 * _SUBSTEPS * _pulse_end(f_in.envelope) + 1]
    # A step too coarse for the batch overflows to inf and NaN; that is
    # reported once, as a NumericsError from a finite check (of meanfield's
    # integrals in _reflection, of a trajectory in _field_integrals) or
    # master's trace drift check, not as numpy warnings along the way.
    with np.errstate(over="ignore", invalid="ignore"):
        if not coupled:
            rows = []
        elif backend == "meanfield":
            rows = _meanfield_rows(f_in.grid, coupled, driven, f_in.envelope, fields)
        else:
            rows = _master_rows(f_in, coupled, driven, fock_dim)
    return _decomposed(f_in, jobs, backend, bare, iter(rows), unit, fields)


def _decomposed(f_in, jobs, backend, bare, rows, unit, fields) -> Iterator[ReflectionResult]:
    """_reflect_batch's results, one job at a time: a bare job scales the
    unit row, a coupled one takes the next of `rows`."""
    for (a, st, q), is_bare in zip(jobs, bare):
        if is_bare:
            c_unit, diags, (energy, ov) = unit
            a2 = abs(a) ** 2
            c_traj, integrals = a * c_unit if fields else None, (a2 * energy, a / abs(a) * ov)
            diags = {**diags, "peak_photon": a2 * diags["peak_photon"]}
        else:
            c_traj, diags, integrals = next(rows)
        if fields:
            g_out = a * f_in.envelope + math.sqrt(q.kappa) * c_traj
            diags = {"c_trajectory": c_traj, **diags}
        yield _reflection(f_in, *integrals, g_out if fields else None, a, st, q, backend, diags)


def reflect_master(
    f_in: Pulse,
    alpha: complex,
    state: JointState,
    params: DeviceParams,
    fock_dim: int = DEFAULT_FOCK_DIM,
) -> ReflectionResult:
    """Density-matrix reflection, `unreliable` when its peak Fock tail passes FOCK_TAIL_BOUND.

    A dipole-free state (g_eff = 0) scales the bare unit run, as in meanfield.
    """
    return next(_reflect_batch(f_in, [(alpha, state, params)], "master", True, fock_dim))


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
    f_in: Pulse, points, backend: str, fock_dim: int = DEFAULT_FOCK_DIM, fields: bool = True
) -> Iterator[dict[str, ReflectionResult]]:
    """scatter_all_states at each (alpha, params) point, as an iterator.

    analytic and filter scatter once for each run of points on one device
    and rescale (see _linear_points).  meanfield and master integrate the
    coupled states (00, 01) of every point as one RK4 batch, so the points
    must share kappa, t1 and detuning; state 11 scales one run of the bare
    cavity to every point (see _reflect_batch).

    Every check (_check_amplitude of each point too) and the batch
    integration run at the call; a point's results are built as it is
    consumed, so a sweep holds one point's results at a time.  Without
    `fields`, meanfield and master results carry no output field (f_out
    is None) and no <c> trajectory (see _reflect_batch); the linear
    backends always carry f_out.
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}")
    if backend in LINEAR_BACKENDS:      # most points reach no kernel: check them at the call
        for a, _ in points:
            _check_amplitude(a)
        return _linear_points(f_in, points, backend)
    jobs = [(a, joint_state(lab), p) for a, p in points for lab in _RUN_LABELS]
    flat = _reflect_batch(f_in, jobs, backend, fields, fock_dim)
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
