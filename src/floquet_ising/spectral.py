"""Fourier diagnostics of stroboscopic signals.

The period-doubling diagnostic is the relative subharmonic spectral
weight: the fraction of a signal's oscillatory power sitting in a narrow
band around f = 1/(2T) after the transient is discarded and the mean
removed. The analysis window length is kept a power of two so the
subharmonic frequency falls exactly on a bin and no peak interpolation
is ever needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import TimeSeries

# below this total oscillatory power (relative to the window length) a
# signal is treated as static and assigned weight 0
STATIC_POWER_CUTOFF = 1e-12


def _series_values(series) -> np.ndarray:
    if isinstance(series, TimeSeries):
        return np.asarray(series.values, dtype=float)
    return np.asarray(series, dtype=float)


@dataclass
class PowerSpectrum:
    """P_k = |DFT_k|^2 of a real signal; bin frequencies f_k = k/(M T)."""

    powers: np.ndarray
    period: float = 1.0

    @property
    def sample_count(self) -> int:
        return len(self.powers)

    @property
    def frequencies(self) -> np.ndarray:
        return np.arange(self.sample_count) / (self.sample_count * self.period)


def _powers(x: np.ndarray) -> np.ndarray:
    """|DFT_k|^2 of every row, from the half spectrum mirrored so P_k = P_{M-k} exactly."""
    half = np.abs(np.fft.rfft(x, axis=-1)) ** 2  # bins 0..M/2
    return np.concatenate([half, half[..., -2:0:-1]], axis=-1)


def power_spectrum(signal: np.ndarray, period: float = 1.0) -> PowerSpectrum:
    """Dense power spectrum of a real signal of even length >= 4."""
    x = np.asarray(signal, dtype=float)
    m = len(x)
    if m < 4 or m % 2:
        raise ValueError(f"signal length must be even and >= 4, got {m}")
    return PowerSpectrum(powers=_powers(x), period=period)


# halfwidth of the subharmonic band as a fraction of the sampling rate 1/T.
# Robust period doubling with a slow beat envelope puts its power in
# sidebands a few bins around f = 1/2T rather than in the single Nyquist
# bin, so the diagnostic integrates a narrow band: +-2 bins at the default
# 512-sample window. Below 250 samples this floors to the single f = 1/2T
# bin.
SUBHARMONIC_BAND_FRACTION = 0.004


def subharmonic_band(samples: int) -> tuple[int, int]:
    """Inclusive bin range [lo, hi] counted as the subharmonic response."""
    radius = int(SUBHARMONIC_BAND_FRACTION * samples)
    return max(1, samples // 2 - radius), samples // 2 + radius


@dataclass
class SubharmonicDiagnostic:
    """Relative spectral weight near f = 1/(2T), bounded in [0, 1], and the
    power spectrum of the window it was taken from."""

    weight: float
    spectrum: PowerSpectrum


def subharmonic_weights(
    values: np.ndarray, discard: int = 50, samples: int = 512
) -> tuple[np.ndarray, np.ndarray]:
    """Subharmonic weight of every row of a (rows, length) array, and each row's power spectrum.

    One rfft along the time axis serves all rows; each row uses its
    mean-subtracted window values[discard : discard + samples]. A static
    row (negligible total power in the nonzero bins) gets weight 0 by
    convention.
    """
    if samples < 4 or samples % 2:
        raise ValueError(f"samples must be even and >= 4, got {samples}")
    if discard < 0:
        raise ValueError(f"discard must be >= 0, got {discard}")
    if values.shape[-1] < discard + samples:
        raise ValueError(
            f"series of length {values.shape[-1]} cannot provide {discard} transient + {samples} analysis samples"
        )
    window = values[:, discard : discard + samples]
    powers = _powers(window - window.mean(axis=-1, keepdims=True))
    total = powers[:, 1:].sum(axis=-1)
    lo, hi = subharmonic_band(samples)
    static = total < STATIC_POWER_CUTOFF * samples
    weights = powers[:, lo : hi + 1].sum(axis=-1) / np.where(static, 1.0, total)
    weights[static] = 0.0
    return weights, powers


def subharmonic_weight(series, discard: int = 50, samples: int = 512) -> SubharmonicDiagnostic:
    """Fraction of oscillatory power in the subharmonic (f = 1/2T) band: subharmonic_weights of one row.

    The spectrum's period is the series' own, or 1 for a plain array.
    """
    (weight,), (powers,) = subharmonic_weights(_series_values(series)[np.newaxis], discard, samples)
    period = series.period if isinstance(series, TimeSeries) else 1.0
    return SubharmonicDiagnostic(
        weight=float(weight),
        spectrum=PowerSpectrum(powers=powers, period=period),
    )
