"""Independent references the output checks compare against.

``slot_model`` gives the exact per-slot click and kept probabilities of the
session engine, including slots where both photons of a pair arrive and
same-basis double clicks kept under the ``random`` policy. The program's own
closed form (the ``expected`` block of ``simulate``) is first order and omits
both; on the event-heavy scenario it predicts 1.8% more kept slots than the
engine produces, about 4 sigma at 10^6 slots, so the per-basis checks use this
model instead.

``secure_length`` re-derives the finite-key length from its formula, as the
acceptance suite does at high precision.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.stats import binom

from fiberqkd.channel import apply_channel_rows
from fiberqkd.polarization import stokes_of
from fiberqkd.protocol import survival_probability

# Two-sided tail probability of a 5 sigma normal deviation.
FIVE_SIGMA_TAIL = 5.733031437583866e-07
DETECTORS = ("D", "A", "L", "R")


def within_five_sigma(observed: int, n: int, p: float) -> bool:
    """Whether a binomial count is no rarer than a 5 sigma normal deviation."""
    tail = min(binom.cdf(observed, n, p), binom.sf(observed - 1, n, p))
    return 2.0 * tail >= FIVE_SIGMA_TAIL


def _photon_detector_probabilities(config, label: str, lam, weights) -> np.ndarray:
    """Probability that one arriving photon sent as ``label`` fires each detector."""
    rows = apply_channel_rows(np.tile(stokes_of(label), (lam.size, 1)), config.channel, lam)
    mean = np.trapezoid(weights[:, None] * rows, lam, axis=0)
    e0 = config.device.intrinsic_error
    out = np.empty(4)
    for arm, zero, share in ((0, "D", config.bob_split), (1, "L", 1.0 - config.bob_split)):
        p0 = 0.5 * (1.0 + float(mean @ stokes_of(zero)))
        p0 = p0 * (1.0 - e0) + (1.0 - p0) * e0
        out[2 * arm] = share * p0
        out[2 * arm + 1] = share * (1.0 - p0)
    return out


def slot_model(config, n_grid: int = 4001) -> dict:
    """Per-slot probabilities of a click and of a kept slot in each basis."""
    device, stats = config.device, config.stats
    t = survival_probability(device, config.channel.loss_db, config.detection_scale)
    dark = device.dark_prob
    lo, hi = config.spectrum.support()
    lam = np.linspace(lo, hi, n_grid)
    weights = config.spectrum.density(lam)
    weights = weights / np.trapezoid(weights, lam)
    p_da = config.alice.p_key if config.key_basis == "DA" else config.alice.p_check
    dark_sets = [
        math.prod(dark if mask >> k & 1 else 1.0 - dark for k in range(4)) for mask in range(16)
    ]
    p_det = 0.0
    kept = [0.0, 0.0]
    for state, label in enumerate(DETECTORS):
        basis = state // 2
        p_state = 0.5 * (p_da if basis == 0 else 1.0 - p_da)
        pi = _photon_detector_probabilities(config, label, lam, weights)
        signal = {0: stats.p_vacuum + stats.p_single * (1.0 - t) + stats.p_multi * (1.0 - t) ** 2}
        one = stats.p_single * t + 2.0 * stats.p_multi * t * (1.0 - t)
        for k in range(4):
            signal[1 << k] = signal.get(1 << k, 0.0) + one * pi[k]
            for k2 in range(4):
                mask = (1 << k) | (1 << k2)
                signal[mask] = signal.get(mask, 0.0) + stats.p_multi * t * t * pi[k] * pi[k2]
        for sig_mask, p_sig in signal.items():
            for dark_mask, p_dark in enumerate(dark_sets):
                clicks = [k for k in range(4) if (sig_mask | dark_mask) >> k & 1]
                if not clicks:
                    continue
                p = p_state * p_sig * p_dark
                p_det += p
                bases = {k // 2 for k in clicks}
                if bases != {basis}:
                    continue
                if len(clicks) == 1 or config.double_click_policy == "random":
                    kept[basis] += p
    return {"p_det": p_det, "kept_da": kept[0], "kept_lr": kept[1]}


def binary_entropy(q: float) -> float:
    if q <= 0.0 or q >= 1.0:
        return 0.0
    return -q * math.log2(q) - (1.0 - q) * math.log2(1.0 - q)


def secure_length(doc: dict) -> tuple[int, str]:
    """Finite-key length and status of a key-analysis document."""
    n_key, n_check = doc["n_z"], doc["n_x"]
    a_key = 1.0 - doc["p_m"] / (doc["p_det"] * doc["p_z"])
    a_check = 1.0 - doc["p_m"] / (doc["p_det"] * doc["p_x"])
    if a_key <= 0.0 or a_check <= 0.0:
        return 0, "multi-photon dominated"
    delta = math.sqrt(
        (n_key + n_check) * (n_check + 1) / (n_key * n_check**2) * math.log(2.0 / doc["eps_sec"])
    )
    h_arg = doc["e_x"] / a_check + delta
    status = "ok"
    if h_arg >= 0.5:
        h_arg, status = 0.5, "noise dominated"
    log_term = math.log2(2.0 / (doc["eps_sec"] ** 2 * doc["eps_cor"]))
    raw = (
        n_key * a_key * (1.0 - binary_entropy(h_arg))
        - doc["f"] * binary_entropy(doc["e_z"]) * n_key
        - log_term
    )
    return max(0, math.floor(raw)), status
