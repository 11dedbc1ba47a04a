import numpy as np
import pytest

from floquet_ising import states
from floquet_ising.dynamics import magnetization_series
from floquet_ising.model import ModelSpec
from floquet_ising.spectral import (
    power_spectrum,
    subharmonic_band,
    subharmonic_weight,
)


class TestDynamicSignal:
    """The mean-subtracted post-transient window behind subharmonic_weight,
    seen through the spectrum it returns."""

    def test_constant_series_is_zeroed(self):
        diagnostic = subharmonic_weight(np.full(80, 2.5), discard=10, samples=64)
        assert np.all(diagnostic.spectrum.powers == 0.0)
        assert diagnostic.weight == 0.0

    def test_alternating_signal_untouched(self):
        x = 3.0 * (-1.0) ** np.arange(100)
        diagnostic = subharmonic_weight(x, discard=20, samples=80)  # mean exactly 0
        assert np.array_equal(diagnostic.spectrum.powers, power_spectrum(x[20:]).powers)
        assert diagnostic.weight == pytest.approx(1.0, abs=1e-12)

    def test_mean_is_removed(self, rng):
        diagnostic = subharmonic_weight(rng.normal(size=300) + 7.0, discard=50, samples=250)
        assert diagnostic.spectrum.powers[0] < (250 * 1e-12) ** 2

    def test_too_short(self):
        with pytest.raises(ValueError, match="cannot provide"):
            subharmonic_weight(np.zeros(10), discard=10, samples=4)

    def test_pd_pipeline_signal_is_mean_zero(self, pd_spec):
        series = magnetization_series(pd_spec, states.all_zero_state(3), 562)
        diagnostic = subharmonic_weight(series, discard=50, samples=512)
        assert diagnostic.spectrum.powers[0] < (512 * 1e-12) ** 2
        assert diagnostic.spectrum.sample_count == 512


class TestPowerSpectrum:
    def test_pure_alternation_all_power_at_nyquist(self):
        spectrum = power_spectrum((-1.0) ** np.arange(8))
        assert spectrum.powers[4] == pytest.approx(64.0)
        others = np.delete(spectrum.powers, 4)
        assert np.abs(others).max() < 1e-12

    def test_quarter_tone_splits_between_conjugate_bins(self):
        spectrum = power_spectrum(np.cos(2 * np.pi * np.arange(8) / 4))
        assert spectrum.powers[2] == pytest.approx(16.0)
        assert spectrum.powers[6] == pytest.approx(16.0)
        assert spectrum.powers[2] == spectrum.powers[6]

    def test_zero_signal(self):
        assert np.all(power_spectrum(np.zeros(16)).powers == 0.0)

    def test_parseval(self, rng):
        x = rng.normal(size=256)
        spectrum = power_spectrum(x)
        total = spectrum.powers.sum()
        assert total == pytest.approx(256 * np.sum(x**2), rel=1e-8)

    def test_real_signal_symmetry(self, rng):
        p = power_spectrum(rng.normal(size=128)).powers
        for k in range(1, 128):
            assert p[k] == p[128 - k]  # exact by construction

    def test_frequencies(self):
        spectrum = power_spectrum(np.zeros(8), period=2.0)
        assert spectrum.frequencies[4] == pytest.approx(0.25)  # 1/(2T)

    def test_zero_bin_vanishes_for_mean_subtracted_input(self, rng):
        tail = (rng.normal(size=562) + 3.0)[50:]
        spectrum = power_spectrum(tail - tail.mean())
        assert spectrum.powers[0] <= 1e-10 * spectrum.powers.sum()

    @pytest.mark.parametrize("length", [3, 7, 2])
    def test_bad_lengths(self, length):
        with pytest.raises(ValueError):
            power_spectrum(np.zeros(length))


class TestSubharmonicWeight:
    def test_band_is_single_bin_for_short_windows(self):
        assert subharmonic_band(8) == (4, 4)
        assert subharmonic_band(128) == (64, 64)
        assert subharmonic_band(512) == (254, 258)

    def test_exact_alternation_scores_one(self):
        spec = ModelSpec.dimensionless(3, np.pi, np.pi)
        series = magnetization_series(spec, states.all_zero_state(3), 562)
        assert subharmonic_weight(series).weight == pytest.approx(1.0, abs=1e-10)

    def test_static_signal_scores_zero(self):
        spec = ModelSpec(n_qubits=3, h_x=0.0, couplings=1.0, boundary="ring")
        series = magnetization_series(spec, states.all_zero_state(3), 562)
        assert subharmonic_weight(series).weight == 0.0

    def test_pd_and_non_pd_reference_points(self, pd_spec, non_pd_spec):
        # regression values from this implementation; the PD point carries
        # nearly all oscillatory power in the subharmonic band, the weak
        # coupling point none of it
        pd = subharmonic_weight(magnetization_series(pd_spec, states.all_zero_state(3), 562))
        npd = subharmonic_weight(magnetization_series(non_pd_spec, states.all_zero_state(3), 562))
        assert pd.weight >= 0.8
        assert pd.weight == pytest.approx(0.9590, abs=2e-3)
        assert npd.weight < 0.5
        assert npd.weight < 1e-3

    def test_scale_invariance(self, rng):
        x = np.concatenate([np.zeros(50), rng.normal(size=512)])
        base = subharmonic_weight(x).weight
        for scale in (2.0, -3.5, 1e3, 1e-3):
            assert subharmonic_weight(scale * x).weight == pytest.approx(base, rel=1e-9)

    def test_offset_invariance(self, rng):
        x = np.concatenate([np.zeros(50), rng.normal(size=512)])
        base = subharmonic_weight(x).weight
        for offset in (1.0, -42.0, 1e4):
            assert subharmonic_weight(x + offset).weight == pytest.approx(base, rel=1e-9)

    def test_bounded_in_unit_interval(self, rng):
        for _ in range(20):
            x = rng.normal(size=600) * rng.uniform(0.1, 10)
            w = subharmonic_weight(x).weight
            assert 0.0 <= w <= 1.0

    def test_off_subharmonic_tone_scores_zero(self):
        # a pure tone on a non-subharmonic bin carries no weight
        n = np.arange(562)
        x = np.cos(2 * np.pi * n * 64 / 512)
        assert subharmonic_weight(x).weight < 1e-20

    def test_insufficient_samples(self):
        with pytest.raises(ValueError, match="cannot provide"):
            subharmonic_weight(np.zeros(100), discard=50, samples=512)

    def test_negative_discard_rejected(self):
        with pytest.raises(ValueError, match="discard"):
            subharmonic_weight(np.zeros(600), discard=-1, samples=512)

    def test_odd_samples_rejected(self):
        with pytest.raises(ValueError, match="even"):
            subharmonic_weight(np.zeros(600), discard=50, samples=511)
