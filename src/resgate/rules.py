"""The rules a config is checked by before anything runs, in Python floats.

The backends, the grid's sample count, the amplitude floor and the
coupling sweep's range are each stated once, here, where `cli.load_config`
can read them without loading numpy; `pulse`, `scattering` and `gate`
apply the same rules to their own arguments.
"""

from __future__ import annotations

import math

# The backends, cheapest first; the linear ones scatter independently of
# the amplitude.
LINEAR_BACKENDS = ("analytic", "filter")
BACKENDS = LINEAR_BACKENDS + ("meanfield", "master")

# Fock truncation of the master backend when the caller names none.
DEFAULT_FOCK_DIM = 16

MIN_GRID_SAMPLES = 8


def grid_layout(tau: float, kappa: float, n_samples: int | None = None) -> tuple[float, float, int]:
    """(t_start, dt, n_samples) of the grid covering [-tau/2, tau + 40/kappa].

    dt resolves both the cavity response (20 samples per 1/kappa) and the
    pulse shape (512 samples per tau) unless an explicit n_samples
    overrides it.
    """
    if tau <= 0 or kappa <= 0:
        raise ValueError("tau and kappa must be positive")
    t_start = -tau / 2.0
    t_end = tau + 40.0 / kappa
    if n_samples is None:
        dt_target = min(1.0 / (20.0 * kappa), tau / 512.0)
        n_samples = int(math.ceil((t_end - t_start) / dt_target)) + 1
    elif n_samples < MIN_GRID_SAMPLES:
        raise ValueError(f"need at least {MIN_GRID_SAMPLES} samples")
    return t_start, (t_end - t_start) / (n_samples - 1), n_samples


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


def _check_coupling_fraction(x: float) -> None:
    """The coupling sweep's rule: g (1 + x) must stay positive, x in (-1, 1]."""
    if not -1.0 < x <= 1.0:
        raise ValueError(f"coupling fraction {x} outside (-1, 1]")
