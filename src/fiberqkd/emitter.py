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

import math
from dataclasses import dataclass

import numpy as np

from .errors import FitConvergenceError, ValidationError
from .fitting import least_squares

SPECTRUM_SHAPES = ("rectangular", "gaussian", "lorentzian")

# Gaussian and Lorentzian densities are truncated this many FWHMs either side
# of center; the neglected tails carry < 1e-5 of the weight.
TRUNCATION_FWHM = 3.0

# Weight of a Gaussian inside its truncated support: erf(half / (sigma sqrt 2))
# with half = TRUNCATION_FWHM * fwhm and fwhm = 2 sqrt(2 ln 2) sigma, the
# same for every FWHM.
_GAUSSIAN_MASS = math.erf(2.0 * TRUNCATION_FWHM * math.sqrt(math.log(2.0)))


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
            sigma = self.fwhm_nm / (2.0 * np.sqrt(2.0 * np.log(2.0)))
            peak = 1.0 / (sigma * np.sqrt(2.0 * np.pi) * _GAUSSIAN_MASS)
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


_MAX_WHOLE = 2.0**53  # every whole number up to it is exact in a float


def _histogram(tau_ns, counts) -> tuple[np.ndarray, np.ndarray]:
    """Delays and counts as float arrays, checked to be 1-d, of equal length
    and finite, with counts in [0, 2**53]."""
    tau = np.asarray(tau_ns, dtype=float)
    cts = np.asarray(counts, dtype=float)
    if tau.shape != cts.shape or tau.ndim != 1:
        raise ValidationError("delay and count arrays must be 1-d and equal length")
    if not (np.isfinite(tau).all() and np.isfinite(cts).all()):
        raise ValidationError("delays and counts must be finite")
    if np.any(cts < 0.0):
        raise ValidationError("counts must be non-negative")
    if np.any(cts > _MAX_WHOLE):
        raise ValidationError("counts must be at most 2**53")
    return tau, cts


def _cw_counts(t, amplitude, g2_zero, a, tau1, tau2):
    """Expected coincidences of the CW fit, ``amplitude`` times the model, and
    their analytic (n, 5) Jacobian in the parameter order.

    With f1 = exp(-|t|/tau1), f2 = exp(-|t|/tau2) and the shape
    S = (1 + a) f1 - a f2, the counts are amplitude * (1 - (1 - g2_zero) S).
    """
    t = np.abs(t)
    f1 = np.exp(-t / tau1)
    f2 = np.exp(-t / tau2)
    shape = (1.0 + a) * f1 - a * f2
    model = 1.0 - (1.0 - g2_zero) * shape
    depth = amplitude * (1.0 - g2_zero)
    return amplitude * model, np.column_stack((
        model,
        amplitude * shape,
        -depth * (f1 - f2),
        -depth * (1.0 + a) * f1 * t / tau1**2,
        depth * a * f2 * t / tau2**2,
    ))


def fit_g2_cw(tau_ns, counts) -> tuple[G2Model, dict]:
    """Weighted fit of a CW coincidence histogram.

    Counts are Poisson weighted with sigma = sqrt(max(counts, 1)). Returns the
    fitted model plus a report with parameters, one-sigma errors and the
    reduced chi-square. Raises FitConvergenceError when the optimizer fails.
    """
    tau, cts = _histogram(tau_ns, counts)
    if tau.size < 10:
        raise ValidationError("need at least 10 histogram bins for a 5-parameter fit")
    if not cts.any():
        raise ValidationError("histogram has no counts")
    span = float(np.max(np.abs(tau)))
    if span == 0.0:
        raise ValidationError("delays must not all be zero")
    # The timescales range over span * [1e-6, 100] and the Jacobian divides
    # by their squares, which must stay finite normal floats.
    if not 1e-100 <= span <= 1e100:
        raise ValidationError(f"largest |delay| must lie in [1e-100, 1e100] ns, got {span!r}")
    outer = np.abs(tau) > 0.8 * span
    baseline = float(np.median(cts[outer])) if np.any(outer) else float(np.median(cts))
    baseline = max(baseline, 1.0)
    near = np.abs(tau) <= np.partition(np.abs(tau), 2)[2]
    guess = [baseline, float(np.clip(np.mean(cts[near]) / baseline, 0.0, 1.0)),
             max(float(np.max(cts)) / baseline - 1.0, 0.0) + 0.01, span / 50.0, span / 5.0]

    sigma = np.sqrt(np.maximum(cts, 1.0))
    lower = [0.0, 0.0, 0.0, span * 1e-6, span * 1e-6]
    upper = [np.inf, 1.0, np.inf, span * 10.0, span * 100.0]
    names = ("amplitude", "g2_zero", "a", "tau1_ns", "tau2_ns")

    def weighted(params):
        expected, jac = _cw_counts(tau, *params)
        return (expected - cts) / sigma, jac / sigma[:, None]

    popt, resid, jac, converged = least_squares(weighted, guess, (lower, upper))
    if not converged:
        raise FitConvergenceError("CW correlation fit did not converge")
    # Pseudo-inverse covariance (J^T J)^+ of the weighted Jacobian, without
    # the singular values at rounding level: a histogram with no dip leaves
    # the delays unidentified. The counts' sigmas are absolute, so it is not
    # rescaled by the reduced chi-square.
    _, sv, vt = np.linalg.svd(jac, full_matrices=False)
    keep = sv > np.finfo(float).eps * max(jac.shape) * sv[0]
    perr = np.sqrt(np.diag((vt[keep].T / sv[keep] ** 2) @ vt[keep]))
    _, g2_zero, a, tau1, tau2 = popt.tolist()
    model = G2Model(a=a, tau1_ns=tau1, tau2_ns=tau2, g2_zero=g2_zero, g2_zero_sigma=float(perr[1]))
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
    tau, cts = _histogram(tau_ns, counts)
    if not 0.0 < rep_period_ns < math.inf:
        raise ValidationError("repetition period must be positive and finite")
    if window_ns is None:
        window_ns = 0.5 * rep_period_ns
    if not 0.0 < window_ns <= rep_period_ns:
        raise ValidationError("window must lie in (0, rep_period]")
    # Peak indices are whole numbers, exact in a float below 2**53.
    if not (np.abs(tau) < _MAX_WHOLE * rep_period_ns).all():
        raise ValidationError("every delay must lie within 2**53 repetition periods of zero")

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
