import math

import numpy as np
import pytest

from _oracles import gaussian_peak_sq, gaussian_shift_overlap
from resgate.pulse import (
    MIN_GRID_SAMPLES,
    Pulse,
    TimeGrid,
    default_grid,
    gaussian_pulse,
    inverse_spectrum,
    overlap,
    spectrum,
)


def test_grid_basics():
    g = TimeGrid(-1.0, 0.25, 9)
    t = g.times()
    assert t[0] == -1.0 and len(t) == 9
    assert t[-1] == pytest.approx(1.0)


def test_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(0.0, -1e-9, 16)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1e-9, 4)


def test_default_grid_geometry(ref, ref_tau):
    g = default_grid(ref_tau, ref.kappa)
    # left margin tau/2 so the envelope enters at its far tail; right
    # margin 40/kappa so the periodic spectral filter's ring-down has
    # died before it wraps around
    assert g.t_start == pytest.approx(-ref_tau / 2)
    assert g.times()[-1] == pytest.approx(ref_tau + 40.0 / ref.kappa)
    assert g.dt <= 1.0 / (20.0 * ref.kappa) + 1e-18
    assert g.dt <= ref_tau / 512 + 1e-18


def test_default_grid_explicit_samples(ref, ref_tau):
    g = default_grid(ref_tau, ref.kappa, n_samples=4097)
    assert g.n_samples == 4097
    assert g.t_start == pytest.approx(-ref_tau / 2)
    # too few samples is refused before dt divides by n_samples - 1
    for n in (1, MIN_GRID_SAMPLES - 1):
        with pytest.raises(ValueError, match=f"at least {MIN_GRID_SAMPLES}"):
            default_grid(ref_tau, ref.kappa, n_samples=n)


def test_gaussian_is_normalized(ref_pulse):
    assert ref_pulse.is_normalized()
    assert abs(ref_pulse.norm_sq() - 1.0) < 1e-9


def test_gaussian_peak_matches_closed_form(ref_tau, ref_pulse):
    peak_sq = float(np.max(np.abs(ref_pulse.envelope) ** 2))
    assert peak_sq == pytest.approx(gaussian_peak_sq(ref_tau), rel=1e-6)
    t_peak = ref_pulse.grid.times()[np.argmax(np.abs(ref_pulse.envelope))]
    assert t_peak == pytest.approx(ref_tau / 2, abs=ref_pulse.grid.dt)


def test_gaussian_edges_negligible(ref_pulse):
    peak = math.sqrt(float(np.max(np.abs(ref_pulse.envelope) ** 2)))
    assert abs(ref_pulse.envelope[0]) < 2e-6 * peak
    assert abs(ref_pulse.envelope[-1]) < 2e-6 * peak


def test_gaussian_needs_covering_grid(ref, ref_tau):
    short = TimeGrid(ref_tau * 0.25, ref_tau / 256, 128)
    with pytest.raises(ValueError):
        gaussian_pulse(ref_tau, short)


def test_shifted_overlap_closed_form(ref, ref_tau):
    grid = default_grid(ref_tau, ref.kappa)
    f = gaussian_pulse(ref_tau, grid)
    d = ref_tau / 5
    t = grid.times()
    w = ref_tau / 5
    shifted = np.exp(-((t - ref_tau / 2 - d) ** 2) / w**2).astype(complex)
    g = Pulse(grid, shifted).normalized()
    ov = overlap(f, g)
    assert abs(ov) == pytest.approx(gaussian_shift_overlap(ref_tau, d), rel=1e-6)
    assert abs(ov) == pytest.approx(math.exp(-0.5), rel=1e-6)


def test_overlap_requires_same_grid(ref, ref_tau):
    f = gaussian_pulse(ref_tau, default_grid(ref_tau, ref.kappa))
    g = gaussian_pulse(ref_tau, default_grid(ref_tau, ref.kappa, n_samples=4097))
    with pytest.raises(ValueError):
        overlap(f, g)


def test_spectrum_roundtrip(ref_pulse):
    back = inverse_spectrum(spectrum(ref_pulse))
    peak = float(np.max(np.abs(ref_pulse.envelope)))
    assert np.max(np.abs(back.envelope - ref_pulse.envelope)) < 1e-12 * peak


def test_spectrum_parseval(ref_pulse):
    s = spectrum(ref_pulse)
    dnu = 2 * math.pi / (ref_pulse.grid.n_samples * ref_pulse.grid.dt)
    assert np.sum(np.abs(s.values) ** 2) * dnu == pytest.approx(ref_pulse.norm_sq(), abs=1e-9)


def test_spectrum_axis(ref_pulse):
    s = spectrum(ref_pulse)
    grid = ref_pulse.grid
    assert s.nu.shape == (grid.n_samples,)
    assert s.nu[1] == pytest.approx(2 * math.pi / (grid.n_samples * grid.dt))
    assert s.nu[0] == 0.0


def test_gaussian_spectrum_width(ref_tau, ref_pulse):
    # |S(nu)|^2 should be Gaussian with variance 1/w^2, w = tau/5
    s = spectrum(ref_pulse)
    power = np.abs(s.values) ** 2
    nu = np.fft.fftshift(s.nu)
    power = np.fft.fftshift(power)
    w = ref_tau / 5
    expected = power.max() * np.exp(-(nu**2) * w * w / 2.0)
    assert np.max(np.abs(power - expected)) < 1e-6 * power.max()
