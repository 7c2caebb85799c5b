"""Spectra from fidelity-amplitude series by damped Fourier transform."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .series import FidelitySeries

MIN_SERIES_LENGTH = 9  # N >= 8 steps


@dataclass(frozen=True)
class Spectrum:
    """Intensity on the frequency grid conjugate to the input time grid."""

    frequencies: np.ndarray
    intensities: np.ndarray
    damping_time: float

    def __post_init__(self) -> None:
        f = np.asarray(self.frequencies, dtype=float)
        i = np.asarray(self.intensities, dtype=float)
        if f.shape != i.shape:
            raise ValueError("frequency and intensity grids differ in length")
        if not np.all(np.isfinite(i)):
            raise ValueError("intensities must be finite")
        object.__setattr__(self, "frequencies", f)
        object.__setattr__(self, "intensities", i)

    def peak_frequencies(self, min_height_fraction: float = 0.1) -> np.ndarray:
        """Frequencies of local maxima above a fraction of the global peak."""
        y = self.intensities
        cut = min_height_fraction * y.max()
        inner = (y[1:-1] > y[:-2]) & (y[1:-1] >= y[2:]) & (y[1:-1] >= cut)
        return self.frequencies[1:-1][inner]


def spectrum(series: FidelitySeries, damping_time: float) -> Spectrum:
    """I(w) = Re integral_0^T f(t) exp(i w t) exp(-t / damping_time) dt.

    Discrete transform on the series' own time grid with trapezoidal end
    weights; a pure phase exp(-i w0 t) therefore peaks at w = w0.  The
    exponential damping plays the role of a physical linewidth and must be
    chosen explicitly.
    """
    if len(series) < MIN_SERIES_LENGTH:
        raise ValueError(f"series too short for a spectrum: {len(series)} points")
    if damping_time <= 0.0:
        raise ValueError("damping_time must be positive")
    times = series.times
    dt = times[1] - times[0]
    if not np.allclose(np.diff(times), dt, rtol=1e-10, atol=0.0):
        raise ValueError("spectrum requires a uniform time grid")

    g = series.values * np.exp(-times / damping_time)
    g = g.astype(complex).copy()
    g[0] *= 0.5
    g[-1] *= 0.5
    m = len(g)
    # sum_n g_n exp(+i w_k t_n) on the conjugate grid w_k = 2 pi k / (m dt)
    transform = m * np.fft.ifft(g)
    freqs = 2.0 * np.pi * np.fft.fftfreq(m, d=dt)
    order = np.argsort(freqs)
    return Spectrum(freqs[order], dt * transform.real[order], float(damping_time))
