"""Source models: spectra, photon-number statistics, correlation histograms."""

import numpy as np
import pytest

from fiberqkd.cli import main as cli_main
from fiberqkd.emitter import (
    EmitterSpectrum,
    G2Model,
    PhotonStatistics,
    fit_g2_cw,
    g2_of_delay,
    pulsed_g2,
    sample_photon_number,
)
from fiberqkd.errors import FitConvergenceError, ValidationError


def make_cw_histogram(seed=42, baseline=900.0, g2_zero=0.28):
    """Poisson-noised two-timescale histogram used by the CW fit tests."""
    rng = np.random.default_rng(seed)
    tau = np.linspace(-200.0, 200.0, 801)
    truth = G2Model(a=0.2, tau1_ns=2.0, tau2_ns=50.0, g2_zero=g2_zero)
    expected = baseline * g2_of_delay(tau, truth)
    return tau, rng.poisson(expected).astype(float), truth


def make_pulsed_histogram(seed=7, period_ns=12.5, g2_zero=0.323, side_height=26000.0):
    rng = np.random.default_rng(seed)
    tau, counts = [], []
    for k in range(-8, 9):
        height = side_height * (g2_zero if k == 0 else 1.0)
        for off in np.linspace(-2.0, 2.0, 9):
            tau.append(k * period_ns + off)
            # peak shape falls off within the window; Poisson noise on top
            counts.append(rng.poisson(height * np.exp(-abs(off) / 0.9)))
    return np.asarray(tau), np.asarray(counts, dtype=float)


# ---------------------------------------------------------------- spectra


def test_spectrum_density_normalizes_on_support():
    for shape in ("rectangular", "gaussian", "lorentzian"):
        spec = EmitterSpectrum(center_nm=1309.5, fwhm_nm=7.0, shape=shape)
        lo, hi = spec.support()
        wl = np.linspace(lo, hi, 20001)
        mass = np.trapezoid(spec.density(wl), wl)
        assert mass == pytest.approx(1.0, abs=5e-7), shape


def test_spectrum_support_bounds():
    rect = EmitterSpectrum(center_nm=1310.0, fwhm_nm=7.0, shape="rectangular")
    assert rect.support() == (pytest.approx(1306.5), pytest.approx(1313.5))
    gauss = EmitterSpectrum(center_nm=1310.0, fwhm_nm=7.0, shape="gaussian")
    lo, hi = gauss.support()
    assert lo == pytest.approx(1310.0 - 21.0) and hi == pytest.approx(1310.0 + 21.0)


def test_spectrum_density_zero_outside_support():
    spec = EmitterSpectrum(center_nm=1310.0, fwhm_nm=7.0, shape="rectangular")
    assert spec.density(1306.0) == 0.0
    assert spec.density(1314.0) == 0.0


def test_spectrum_sampling_tracks_density():
    rng = np.random.default_rng(12)
    for shape in ("rectangular", "gaussian", "lorentzian"):
        spec = EmitterSpectrum(center_nm=1309.5, fwhm_nm=7.0, shape=shape)
        lo, hi = spec.support()
        draws = spec.sample(rng, 200_000)
        assert draws.min() >= lo and draws.max() <= hi
        assert draws.mean() == pytest.approx(1309.5, abs=0.05)


def test_spectrum_validation():
    with pytest.raises(ValidationError):
        EmitterSpectrum(center_nm=1310.0, fwhm_nm=-1.0, shape="gaussian")
    with pytest.raises(ValidationError):
        EmitterSpectrum(center_nm=1310.0, fwhm_nm=7.0, shape="sinc")


# ------------------------------------------------- photon-number statistics


def test_photon_statistics_pair_fraction():
    stats = PhotonStatistics(mu=0.1, g2_zero=0.323)
    assert stats.p_multi == pytest.approx(0.323 * 0.01 / 2.0, rel=1e-12)
    assert stats.p_single == pytest.approx(0.1 - 2.0 * stats.p_multi, rel=1e-12)
    assert stats.p_vacuum == pytest.approx(1.0 - stats.p_single - stats.p_multi, rel=1e-12)
    perfect = PhotonStatistics(mu=0.1, g2_zero=0.0)
    assert perfect.p_multi == 0.0


def test_photon_statistics_validation():
    with pytest.raises(ValidationError):
        PhotonStatistics(mu=1.2, g2_zero=0.3)
    with pytest.raises(ValidationError):
        PhotonStatistics(mu=0.1, g2_zero=-0.1)
    with pytest.raises(ValidationError):
        # two-photon weight cannot exceed the mean: mu - 2 p2 < 0
        PhotonStatistics(mu=0.9, g2_zero=2.5)


def test_sample_photon_number_scalar_and_array():
    stats = PhotonStatistics(mu=0.3, g2_zero=0.5)
    rng = np.random.default_rng(0)
    one = sample_photon_number(stats, rng)
    assert one in (0, 1, 2)
    arr = sample_photon_number(stats, rng, size=100_000)
    assert arr.shape == (100_000,)
    assert set(np.unique(arr)) <= {0, 1, 2}
    # three-sigma binomial bands around the model fractions
    for value, p in ((0, stats.p_vacuum), (1, stats.p_single), (2, stats.p_multi)):
        n = np.count_nonzero(arr == value)
        sigma = np.sqrt(100_000 * p * (1.0 - p))
        assert abs(n - 100_000 * p) < 3.0 * sigma


# ---------------------------------------------------------- g2 histograms


def test_g2_model_endpoints():
    model = G2Model(a=0.2, tau1_ns=2.0, tau2_ns=50.0, g2_zero=0.28)
    assert g2_of_delay(0.0, model) == pytest.approx(0.28, rel=1e-12)
    assert g2_of_delay(5000.0, model) == pytest.approx(1.0, abs=1e-9)
    # bunching shoulder: the slow term overshoots one at intermediate delay
    assert g2_of_delay(12.0, model) > 1.0


def test_g2_model_validation():
    with pytest.raises(ValidationError):
        G2Model(a=0.1, tau1_ns=0.0, tau2_ns=50.0)
    with pytest.raises(ValidationError):
        G2Model(a=0.1, tau1_ns=2.0, tau2_ns=50.0, g2_zero=-0.2)


def test_cw_fit_recovers_floor():
    tau, counts, truth = make_cw_histogram()
    model, report = fit_g2_cw(tau, counts)
    assert model.g2_zero == pytest.approx(truth.g2_zero, abs=3.0 * model.g2_zero_sigma)
    assert model.g2_zero_sigma < 0.03
    assert 0.5 < report["reduced_chi2"] < 1.5
    assert report["n_bins"] == tau.size


def test_cw_fit_is_deterministic():
    tau, counts, _ = make_cw_histogram()
    m1, _ = fit_g2_cw(tau, counts)
    m2, _ = fit_g2_cw(tau, counts)
    assert m1.g2_zero == m2.g2_zero
    assert m1.tau1_ns == m2.tau1_ns


def test_cw_fit_validation():
    with pytest.raises(ValidationError):
        fit_g2_cw(np.arange(5.0), np.ones(5))
    with pytest.raises(ValidationError):
        fit_g2_cw(np.arange(12.0), -np.ones(12))


def test_cw_fit_maps_optimizer_failure(monkeypatch):
    import fiberqkd.emitter as em

    def exploding(*args, **kwargs):
        raise RuntimeError("Optimal parameters not found")

    monkeypatch.setattr(em, "curve_fit", exploding)
    tau, counts, _ = make_cw_histogram()
    with pytest.raises(FitConvergenceError):
        fit_g2_cw(tau, counts)


def test_cw_fit_rejects_histogram_without_delay_spread(tmp_path, capsys):
    """All delays zero leave the fit an empty bounds box: bad input, exit 1."""
    with pytest.raises(ValidationError):
        fit_g2_cw(np.zeros(20), np.full(20, 100.0))
    path = tmp_path / "zero-delays.csv"
    path.write_text("tau_ns,counts\n" + "0.0,100\n" * 20)
    assert cli_main(["g2", "fit-cw", "--histogram", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_pulsed_g2_exact_on_noiseless_peaks():
    period = 12.5
    tau, counts = [], []
    for k in range(-6, 7):
        for off in (-1.0, 0.0, 1.0):
            tau.append(k * period + off)
            counts.append(1000.0 * (0.323 if k == 0 else 1.0))
    value, sigma, report = pulsed_g2(np.array(tau), np.array(counts), period)
    assert value == pytest.approx(0.323, rel=1e-12)
    assert sigma > 0.0
    assert report["n_side_peaks"] == 12


def test_pulsed_g2_on_noisy_histogram():
    tau, counts = make_pulsed_histogram()
    value, sigma, _ = pulsed_g2(tau, counts, 12.5)
    assert value == pytest.approx(0.323, abs=3.0 * sigma)
    assert sigma < 0.01


def test_pulsed_g2_window_excludes_wings():
    period = 12.5
    tau, counts = [], []
    for k in range(-6, 7):
        for off in (-5.0, 0.0, 5.0):
            tau.append(k * period + off)
            # wings carry garbage that a 4 ns window must ignore
            counts.append(500.0 if off == 0.0 else 9e9)
    full = pulsed_g2(np.array(tau), np.array(counts), period, window_ns=4.0)
    assert full[0] == pytest.approx(1.0, rel=1e-12)


def test_pulsed_g2_needs_enough_side_peaks():
    tau = np.array([-12.5, 0.0, 12.5])
    counts = np.array([100.0, 30.0, 100.0])
    with pytest.raises(ValidationError):
        pulsed_g2(tau, counts, 12.5)
