"""Sampled complex pulse envelopes, overlaps, and spectral transforms.

Envelopes carry units of 1/sqrt(s) so that the trapezoid of |f|^2 over
the grid is dimensionless; a normalized pulse integrates to one.  The
default grid leads the pulse by half its duration and trails it by 40
cavity lifetimes: both edges then sit below 1e-10 of peak, which is what
lets the periodic spectral filter and the causal time-domain integrators
agree to better than 1e-8 (a pulse clipped at 2.5 width parameters, as a
[0, tau] window would do, leaves a 2e-3 edge jump and a 1e-5 transient
disagreement between the two).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rules import MIN_GRID_SAMPLES, grid_layout

NORM_TOL = 1e-9


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling grid t_k = t_start + k dt, k = 0..n_samples-1."""

    t_start: float
    dt: float
    n_samples: int

    def __post_init__(self) -> None:
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.n_samples < MIN_GRID_SAMPLES:
            raise ValueError(f"need at least {MIN_GRID_SAMPLES} samples")

    def times(self) -> np.ndarray:
        return self.t_start + self.dt * np.arange(self.n_samples)


def default_grid(tau: float, kappa: float, n_samples: int | None = None) -> TimeGrid:
    """The grid of rules.grid_layout: [-tau/2, tau + 40/kappa], at 20 samples
    per 1/kappa and 512 per tau unless n_samples is given."""
    return TimeGrid(*grid_layout(tau, kappa, n_samples))


@dataclass
class Pulse:
    grid: TimeGrid
    envelope: np.ndarray

    def __post_init__(self) -> None:
        self.envelope = np.asarray(self.envelope, dtype=complex)
        if self.envelope.shape != (self.grid.n_samples,):
            raise ValueError("envelope length does not match grid")

    def norm_sq(self) -> float:
        return float(np.trapezoid(np.abs(self.envelope) ** 2, dx=self.grid.dt))

    def is_normalized(self) -> bool:
        return abs(self.norm_sq() - 1.0) < NORM_TOL

    def normalized(self) -> "Pulse":
        n = self.norm_sq()
        if n == 0:
            raise ValueError("cannot normalize a zero pulse")
        return Pulse(self.grid, self.envelope / math.sqrt(n))


def gaussian_pulse(tau: float, grid: TimeGrid) -> Pulse:
    """Normalized Gaussian envelope centered at tau/2 with width tau/5."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    t = grid.times()
    if t[0] > 0.0 or t[-1] < tau:
        raise ValueError(
            f"grid [{t[0]:.3g}, {t[-1]:.3g}] does not cover the pulse support [0, {tau:.3g}]"
        )
    env = np.exp(-((t - tau / 2.0) ** 2) / (tau / 5.0) ** 2).astype(complex)
    return Pulse(grid, env).normalized()


def _require_same_grid(a: Pulse, b: Pulse) -> None:
    if a.grid != b.grid:
        raise ValueError("pulses live on different grids")


def overlap(a: Pulse, b: Pulse) -> complex:
    """Trapezoid of conj(a) b over the common grid."""
    _require_same_grid(a, b)
    return complex(np.trapezoid(np.conj(a.envelope) * b.envelope, dx=a.grid.dt))


@dataclass
class Spectrum:
    """DFT samples in angular frequency, stored in FFT bin order.

    Scaling keeps Parseval exact in the rectangle-rule sense:
    sum |S|^2 dnu = dt sum |f|^2 with dnu = 2 pi/(n dt).
    """

    nu: np.ndarray
    values: np.ndarray
    grid: TimeGrid


def spectrum(p: Pulse) -> Spectrum:
    n = p.grid.n_samples
    dt = p.grid.dt
    vals = dt * np.fft.fft(p.envelope) / math.sqrt(2.0 * math.pi)
    nu = 2.0 * math.pi * np.fft.fftfreq(n, d=dt)
    return Spectrum(nu=nu, values=vals, grid=p.grid)


def inverse_spectrum(s: Spectrum) -> Pulse:
    env = np.fft.ifft(s.values * math.sqrt(2.0 * math.pi) / s.grid.dt)
    return Pulse(s.grid, env)

