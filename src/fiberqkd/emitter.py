"""Single-photon-source models: spectrum, number statistics and g2 tooling.

The source is a heralded-style quantum emitter characterized by a mean photon
number per pulse ``mu`` well below one and a residual same-pulse correlation
``g2_zero``. Number statistics are truncated at two photons: the two-photon
probability is ``g2_zero * mu**2 / 2`` and the single-photon probability
follows from the mean.

Correlation histograms are handled in two flavors. Continuous-wave data are
fit with a two-timescale antibunching-plus-shoulder model whose floor is the
same-pulse correlation. Pulsed data are reduced by comparing the integrated
central coincidence peak against the mean of the side peaks.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import FitConvergenceError, ValidationError

SPECTRUM_SHAPES = ("rectangular", "gaussian", "lorentzian")

# Gaussian and Lorentzian densities are truncated this many FWHMs either side
# of center; the neglected tails carry < 1e-5 of the weight.
TRUNCATION_FWHM = 3.0


@dataclass(frozen=True)
class EmitterSpectrum:
    """Emission spectral density, normalized on a finite support."""

    center_nm: float
    fwhm_nm: float
    shape: str = "gaussian"

    def __post_init__(self):
        if not (self.center_nm > 0.0 and self.fwhm_nm > 0.0):
            raise ValidationError("center and FWHM must be positive")
        if self.shape not in SPECTRUM_SHAPES:
            raise ValidationError(f"unknown spectrum shape {self.shape!r}")
        lo, _ = self.support()
        if lo <= 0.0:
            raise ValidationError("spectrum support extends to non-physical wavelengths")

    def support(self) -> tuple[float, float]:
        """Wavelength interval outside which the density is taken as zero."""
        if self.shape == "rectangular":
            half = 0.5 * self.fwhm_nm
        else:
            half = TRUNCATION_FWHM * self.fwhm_nm
        return self.center_nm - half, self.center_nm + half

    def density(self, wavelength_nm) -> np.ndarray:
        """Density in 1/nm, normalized to unit integral over the support."""
        lam = np.asarray(wavelength_nm, dtype=float)
        x = lam - self.center_nm
        lo, hi = self.support()
        inside = (lam >= lo) & (lam <= hi)
        if self.shape == "rectangular":
            out = np.where(inside, 1.0 / self.fwhm_nm, 0.0)
        elif self.shape == "gaussian":
            from scipy.special import erf  # imported on use: slow to load

            sigma = self.fwhm_nm / (2.0 * np.sqrt(2.0 * np.log(2.0)))
            half = hi - self.center_nm
            mass = float(erf(half / (sigma * np.sqrt(2.0))))
            peak = 1.0 / (sigma * np.sqrt(2.0 * np.pi) * mass)
            out = np.where(inside, peak * np.exp(-0.5 * (x / sigma) ** 2), 0.0)
        else:
            gamma = 0.5 * self.fwhm_nm
            half = hi - self.center_nm
            mass = 2.0 * np.arctan(half / gamma) / np.pi
            out = np.where(
                inside, gamma / (np.pi * (x**2 + gamma**2)) / mass, 0.0
            )
        return out

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw wavelengths from the truncated density."""
        if size < 0:
            raise ValidationError("sample size must be non-negative")
        lo, hi = self.support()
        if self.shape == "rectangular":
            return rng.uniform(lo, hi, size)
        if self.shape == "gaussian":
            sigma = self.fwhm_nm / (2.0 * np.sqrt(2.0 * np.log(2.0)))
            out = rng.normal(self.center_nm, sigma, size)
            bad = (out < lo) | (out > hi)
            while np.any(bad):
                out[bad] = rng.normal(self.center_nm, sigma, int(bad.sum()))
                bad = (out < lo) | (out > hi)
            return out
        gamma = 0.5 * self.fwhm_nm
        a = np.arctan((lo - self.center_nm) / gamma)
        b = np.arctan((hi - self.center_nm) / gamma)
        u = rng.uniform(a, b, size)
        return self.center_nm + gamma * np.tan(u)


@dataclass(frozen=True)
class PhotonStatistics:
    """Per-pulse photon-number model truncated at two photons."""

    mu: float
    g2_zero: float

    def __post_init__(self):
        if not 0.0 <= self.mu < 1.0:
            raise ValidationError("mean photon number must lie in [0, 1)")
        if not self.g2_zero >= 0.0:
            raise ValidationError("g2 at zero delay must be non-negative")
        if self.p_single < 0.0:
            raise ValidationError(
                "g2_zero * mu > 1 leaves no room for single photons in the"
                " two-photon truncation"
            )

    @property
    def p_multi(self) -> float:
        return 0.5 * self.g2_zero * self.mu**2

    @property
    def p_single(self) -> float:
        return self.mu - 2.0 * self.p_multi

    @property
    def p_vacuum(self) -> float:
        return 1.0 - self.p_single - self.p_multi


def sample_photon_number(
    stats: PhotonStatistics, rng: np.random.Generator, size: int | None = None
):
    """Draw photon numbers in {0, 1, 2} matching the truncated statistics."""
    u = rng.random(size)
    pm = stats.p_multi
    out = np.where(u < pm, 2, np.where(u < pm + stats.p_single, 1, 0))
    if size is None:
        return int(out)
    return out.astype(np.int64)


@dataclass(frozen=True)
class G2Model:
    """Two-timescale correlation model with a constant floor.

    g2(tau) = 1 - (1 - g2_zero) * ((1 + a) exp(-|tau|/tau1) - a exp(-|tau|/tau2))

    At zero delay this evaluates to ``g2_zero`` exactly; far from zero it
    relaxes to one. ``a > 0`` adds a bunching shoulder on the slow timescale
    ``tau2``. ``g2_zero_sigma`` is the one-sigma fit uncertainty of the floor,
    zero for models constructed by hand.
    """

    a: float
    tau1_ns: float
    tau2_ns: float
    g2_zero: float = 0.0
    g2_zero_sigma: float = 0.0

    def __post_init__(self):
        if self.tau1_ns <= 0.0 or self.tau2_ns <= 0.0:
            raise ValidationError("timescales must be positive")
        if not self.g2_zero >= 0.0:
            raise ValidationError("g2 floor must be non-negative")


def g2_of_delay(tau_ns, model: G2Model) -> np.ndarray:
    """Evaluate the correlation model at delays in ns."""
    t = np.abs(np.asarray(tau_ns, dtype=float))
    shape = (1.0 + model.a) * np.exp(-t / model.tau1_ns) - model.a * np.exp(
        -t / model.tau2_ns
    )
    return 1.0 - (1.0 - model.g2_zero) * shape


def fit_g2_cw(tau_ns, counts) -> tuple[G2Model, dict]:
    """Weighted fit of a CW coincidence histogram.

    Counts are Poisson weighted with sigma = sqrt(max(counts, 1)). Returns the
    fitted model plus a report with parameters, one-sigma errors and the
    reduced chi-square. Raises FitConvergenceError when the optimizer fails.
    """
    from scipy.optimize import OptimizeWarning, curve_fit  # imported on use: slow to load

    tau = np.asarray(tau_ns, dtype=float)
    cts = np.asarray(counts, dtype=float)
    if tau.shape != cts.shape or tau.ndim != 1:
        raise ValidationError("delay and count arrays must be 1-d and equal length")
    if tau.size < 10:
        raise ValidationError("need at least 10 histogram bins for a 5-parameter fit")
    if np.any(cts < 0.0):
        raise ValidationError("counts must be non-negative")

    def shape_fn(t, amplitude, g2_zero, a, tau1, tau2):
        model = G2Model(a=a, tau1_ns=tau1, tau2_ns=tau2, g2_zero=g2_zero)
        return amplitude * g2_of_delay(t, model)

    span = float(np.max(np.abs(tau)))
    outer = np.abs(tau) > 0.8 * span
    baseline = float(np.median(cts[outer])) if np.any(outer) else float(np.median(cts))
    baseline = max(baseline, 1.0)
    near = np.abs(tau) <= np.partition(np.abs(tau), 2)[2]
    guess = {
        "amplitude": baseline,
        "g2_zero": float(np.clip(np.mean(cts[near]) / baseline, 0.0, 1.0)),
        "a": max(float(np.max(cts)) / baseline - 1.0, 0.0) + 0.01,
        "tau1": span / 50.0,
        "tau2": span / 5.0,
    }

    sigma = np.sqrt(np.maximum(cts, 1.0))
    lower = [0.0, 0.0, 0.0, span * 1e-6, span * 1e-6]
    upper = [np.inf, 1.0, np.inf, span * 10.0, span * 100.0]
    names = ("amplitude", "g2_zero", "a", "tau1_ns", "tau2_ns")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", OptimizeWarning)
            popt, pcov = curve_fit(
                shape_fn,
                tau,
                cts,
                p0=[guess["amplitude"], guess["g2_zero"], guess["a"], guess["tau1"], guess["tau2"]],
                sigma=sigma,
                absolute_sigma=True,
                bounds=(lower, upper),
                maxfev=20000,
            )
    except (RuntimeError, OptimizeWarning) as exc:
        raise FitConvergenceError(f"CW correlation fit did not converge: {exc}") from exc
    except ValueError as exc:
        # curve_fit rejects non-finite data and an empty bounds box (all delays zero)
        raise ValidationError(f"histogram cannot be fit: {exc}") from exc

    perr = np.sqrt(np.diag(pcov))
    if not np.all(np.isfinite(popt)):
        raise FitConvergenceError("CW correlation fit returned non-finite parameters")
    model = G2Model(
        a=float(popt[2]),
        tau1_ns=float(popt[3]),
        tau2_ns=float(popt[4]),
        g2_zero=float(popt[1]),
        g2_zero_sigma=float(perr[1]) if np.isfinite(perr[1]) else 0.0,
    )
    resid = (shape_fn(tau, *popt) - cts) / sigma
    dof = max(tau.size - len(popt), 1)
    report = {
        "parameters": {name: float(v) for name, v in zip(names, popt)},
        "stderr": {name: float(e) for name, e in zip(names, perr)},
        "g2_zero": model.g2_zero,
        "g2_zero_sigma": model.g2_zero_sigma,
        "reduced_chi2": float(np.sum(resid**2) / dof),
        "n_bins": int(tau.size),
    }
    return model, report


def pulsed_g2(
    tau_ns,
    counts,
    rep_period_ns: float,
    window_ns: float | None = None,
) -> tuple[float, float, dict]:
    """Same-pulse correlation from a pulsed coincidence histogram.

    Bins are grouped by the nearest multiple of the repetition period and
    summed inside a window around each peak (default half a period, i.e.
    everything). The statistic is the central peak area over the mean side
    peak area; its sigma propagates Poisson errors of both sums. At least
    five side peaks on each side are required.
    """
    tau = np.asarray(tau_ns, dtype=float)
    cts = np.asarray(counts, dtype=float)
    if tau.shape != cts.shape or tau.ndim != 1:
        raise ValidationError("delay and count arrays must be 1-d and equal length")
    if rep_period_ns <= 0.0:
        raise ValidationError("repetition period must be positive")
    if window_ns is None:
        window_ns = 0.5 * rep_period_ns
    if not 0.0 < window_ns <= rep_period_ns:
        raise ValidationError("window must lie in (0, rep_period]")
    if np.any(cts < 0.0):
        raise ValidationError("counts must be non-negative")

    peak_index = np.round(tau / rep_period_ns).astype(int)
    offset = tau - peak_index * rep_period_ns
    keep = np.abs(offset) <= 0.5 * window_ns
    if not np.any(keep):
        raise ValidationError("window selects no histogram bins")

    sums: dict[int, float] = {}
    for k, c in zip(peak_index[keep], cts[keep]):
        sums[int(k)] = sums.get(int(k), 0.0) + float(c)
    if 0 not in sums:
        raise ValidationError("histogram does not cover the zero-delay peak")
    side_neg = sorted(k for k in sums if k < 0)
    side_pos = sorted(k for k in sums if k > 0)
    if len(side_neg) < 5 or len(side_pos) < 5:
        raise ValidationError("need at least five side peaks on each side of zero")

    central = sums[0]
    side = np.array([sums[k] for k in side_neg + side_pos], dtype=float)
    side_mean = float(side.mean())
    if side_mean <= 0.0:
        raise ValidationError("side peaks are empty, cannot normalize")
    value = central / side_mean
    side_total = float(side.sum())
    # Relative Poisson errors of the two sums add in quadrature.
    sigma = value * np.sqrt(1.0 / max(central, 1.0) + 1.0 / side_total)
    report = {
        "g2_zero": float(value),
        "sigma": float(sigma),
        "central_counts": float(central),
        "side_mean": side_mean,
        "n_side_peaks": int(side.size),
        "window_ns": float(window_ns),
    }
    return float(value), float(sigma), report
