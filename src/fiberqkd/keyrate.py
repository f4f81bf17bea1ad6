"""Finite-key secure-rate analysis for a biased-basis BB84 link.

The secure length of a session is computed from sifted counts in the key and
check bases, their error rates, the basis-choice probabilities and the
source's multi-photon weight. Multi-photon emissions shrink each basis's
single-photon fraction by the multi-photon probability over that basis's
detection share, as if every multi-photon pulse were detected. The deviation
allowance between the check estimate and the key-basis phase error, which
shrinks as both sample sizes grow, the error-correction leakage and the
finite-size log term are each written once, inside the bound;
:func:`secure_key_length` reports them in its ``terms``.

The bound is evaluated elementwise over arrays of operating points, so a
whole grid of basis biases or channel losses costs one pass. An asymptotic
rate in the style of the single-photon tagging argument, a basis-bias
optimizer and a rate-versus-loss curve builder sit on top of it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .documents import read_document
from .emitter import PhotonStatistics
from .errors import ValidationError

_LN2 = math.log(2.0)


def _all(condition) -> bool:
    """``np.all`` without numpy's reduction overhead on a scalar condition."""
    return bool(condition.all()) if getattr(condition, "ndim", 0) else bool(condition)


def _float_if_scalar(value):
    """A 0-d result as a Python float; arrays pass through."""
    return float(value) if getattr(value, "ndim", 0) == 0 else value


def binary_entropy(q):
    """Shannon entropy of a bit with probability ``q``, in bits.

    Array-friendly; endpoint values 0 and 1 give zero. The (1 - q) branch
    uses log1p so arguments near one keep full precision.
    """
    arr = np.asarray(q, dtype=float)
    if not _all((arr >= 0.0) & (arr <= 1.0)):
        raise ValidationError("entropy argument must lie in [0, 1]")
    out = np.zeros_like(arr)
    inner = (arr > 0.0) & (arr < 1.0)
    qi = arr[inner]
    out[inner] = -(qi * np.log(qi) + (1.0 - qi) * np.log1p(-qi)) / _LN2
    return _float_if_scalar(out)


def multiphoton_correction(p_multi, p_det, p_basis):
    """Single-photon fraction credited to one basis's detections.

    Every multi-photon emission is conservatively counted against the
    detections routed to this basis, hence the division by both the overall
    detection probability and the basis probability. May come out
    non-positive when multi-photon emissions dominate. Elementwise over
    arrays.
    """
    if not _all(p_det > 0.0):
        raise ValidationError("detection probability must be positive")
    if not _all((p_basis > 0.0) & (p_basis <= 1.0)):
        raise ValidationError("basis probability must lie in (0, 1]")
    if not _all(p_multi >= 0.0):
        raise ValidationError("multi-photon probability must be non-negative")
    return 1.0 - p_multi / (p_det * p_basis)


@dataclass(frozen=True)
class SecurityParams:
    """Composable security failure probabilities and reconciliation efficiency."""

    eps_sec: float = 1e-12
    eps_cor: float = 1e-12
    f: float = 1.16

    def __post_init__(self):
        if not 0.0 < self.eps_sec < 1.0 or not 0.0 < self.eps_cor < 1.0:
            raise ValidationError("failure probabilities must lie in (0, 1)")
        if not self.eps_sec**2 * self.eps_cor >= sys.float_info.min:  # the log term divides by it
            raise ValidationError("eps_sec**2 * eps_cor underflows the float range")
        if not self.f >= 1.0:
            raise ValidationError("reconciliation efficiency factor must be at least one")


@dataclass(frozen=True)
class KeyTally:
    """Sifted-session summary entering the secure-length computation."""

    n_key: int
    n_check: int
    e_key: float
    e_check: float
    p_key: float
    p_check: float
    p_det: float
    p_multi: float
    duration_s: float | None = None

    def __post_init__(self):
        if self.n_key < 1 or self.n_check < 1:
            raise ValidationError("sifted counts must be at least one in both bases")
        for name, e in (("e_key", self.e_key), ("e_check", self.e_check)):
            if not 0.0 <= e <= 1.0:
                raise ValidationError(f"{name} must lie in [0, 1]")
        if not 0.0 < self.p_key < 1.0 or not 0.0 < self.p_check < 1.0:
            raise ValidationError("basis probabilities must lie strictly in (0, 1)")
        if abs(self.p_key + self.p_check - 1.0) > 1e-9:
            raise ValidationError("basis probabilities must sum to one")
        if not 0.0 < self.p_det <= 1.0:
            raise ValidationError("detection probability must lie in (0, 1]")
        if not self.p_multi >= 0.0:
            raise ValidationError("multi-photon probability must be non-negative")
        if self.duration_s is not None and not 0.0 < self.duration_s < math.inf:
            raise ValidationError("duration must be positive and finite when given")

    def swapped_assignment(self) -> "KeyTally":
        """The alternative basis-role assignment under the same bias.

        A passive receiver routes detections to the bases independently of
        what they carry, so exchanging which basis feeds the key only swaps
        the two observed error rates; the count shares and probabilities stay
        with their roles. This scores how the session would have done with
        the bias favoring the other basis.
        """
        return replace(self, e_key=self.e_check, e_check=self.e_key)


@dataclass(frozen=True)
class KeyResult:
    """Secure length, rate when a duration is known, and diagnostics."""

    length_bits: int
    rate_bps: float | None
    status: str
    terms: dict


def _secure_length(n_key, n_check, e_key, e_check, p_key, p_check, p_det, p_multi,
                   security: SecurityParams):
    """Secure length in bits and its terms, elementwise over broadcast inputs.

    The one implementation of the finite-key bound; returns
    ``(length, live, terms)``. A point is live when both counts are at least
    one and both bases keep a positive single-photon credit. Elsewhere the
    length is zero and the statistical terms are evaluated at placeholder
    counts and credits, so they carry no meaning there. The entropy argument
    is clamped at one half, which zeroes the one-way rate.

    ``delta`` bounds how far the key-basis phase error may sit above the
    check estimate, and ``leak_ec`` is what error correction discloses.
    """
    n_key = np.asarray(n_key, dtype=float)
    n_check = np.asarray(n_check, dtype=float)
    a_key = multiphoton_correction(p_multi, p_det, p_key)
    a_check = multiphoton_correction(p_multi, p_det, p_check)
    live = (n_key >= 1.0) & (n_check >= 1.0) & (a_key > 0.0) & (a_check > 0.0)
    n_live = np.where(live, n_key, 1.0)
    n_check = np.where(live, n_check, 1.0)
    q_check = e_check / np.where(live, a_check, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        ratio = (n_live + n_check) * (n_check + 1.0) / (n_live * (n_check * n_check))
    if not _all(np.isfinite(ratio)):
        raise ValidationError("sifted counts too large for the deviation term")
    delta = np.sqrt(ratio * math.log(2.0 / security.eps_sec))
    h_arg = np.minimum(q_check + delta, 0.5)
    leak = security.f * binary_entropy(e_key) * n_live
    log_term = math.log2(2.0 / (security.eps_sec**2 * security.eps_cor))
    raw = n_live * a_key * (1.0 - binary_entropy(h_arg)) - leak - log_term
    length = np.where(live, np.maximum(np.floor(raw), 0.0), 0.0)
    terms = {
        "a_key": a_key,
        "a_check": a_check,
        "log_term": log_term,
        "q_check": q_check,
        "delta": delta,
        "h_arg": h_arg,
        "leak_ec": leak,
        "raw_bits": raw,
    }
    return length, live, terms


def secure_key_length(tally: KeyTally, security: SecurityParams) -> KeyResult:
    """Composably secure key length of one finite session.

    Statuses: "ok"; "multi-photon dominated" when a basis's single-photon
    credit is non-positive (zero key, NaN statistical terms); "noise
    dominated" when the phase-error estimate plus deviation reaches one half
    (the entropy argument is clamped there, which zeroes the one-way rate).
    """
    length, live, terms = _secure_length(
        tally.n_key, tally.n_check, tally.e_key, tally.e_check,
        tally.p_key, tally.p_check, tally.p_det, tally.p_multi, security,
    )
    terms = {name: float(value) for name, value in terms.items()}
    if not live:  # the tally's counts are at least one, so a credit is non-positive
        status = "multi-photon dominated"
        terms.update(q_check=math.nan, delta=math.nan, h_arg=math.nan,
                     leak_ec=math.nan, raw_bits=-math.inf)
    elif terms["h_arg"] == 0.5:
        status = "noise dominated"
    else:
        status = "ok"
    length = int(length)
    rate = length / tally.duration_s if tally.duration_s else None
    return KeyResult(length, rate, status, terms)


def _asymptotic_fraction(a_key, a_check, e_key, e_check, f: float):
    """Large-sample secure fraction per sifted bit, elementwise.

    a_key (1 - h(min(e_check / a_check, 1/2))) - f h(e_key), clamped at zero
    and zero wherever either single-photon credit is non-positive.
    """
    live = (a_key > 0.0) & (a_check > 0.0)
    q = np.minimum(e_check / np.where(live, a_check, 1.0), 0.5)
    fraction = a_key * (1.0 - binary_entropy(q)) - f * binary_entropy(e_key)
    return np.where(live & (fraction > 0.0), fraction, 0.0)


def gllp_asymptotic_rate(
    rep_rate_hz: float,
    p_det,
    qber,
    p_multi: float,
    f: float,
    sift_factor: float = 0.5,
):
    """Asymptotic secure rate in bits per second.

    The secure fraction is the finite bound's without its deviation and log
    terms, with ``qber`` in both bases and ``p_det`` backing the credit.
    ``sift_factor`` is the fraction of detections that become sifted key
    material; one half for a balanced passive receiver, approaching the
    key-basis share in strongly biased operation. ``p_det`` and ``qber`` may
    be arrays of operating points; scalars give a float.
    """
    if rep_rate_hz <= 0.0:
        raise ValidationError("repetition rate must be positive")
    if not 0.0 <= sift_factor <= 1.0:
        raise ValidationError("sift factor must lie in [0, 1]")
    a = multiphoton_correction(p_multi, p_det, 1.0)
    fraction = _asymptotic_fraction(a, a, qber, qber, f)
    return _float_if_scalar(rep_rate_hz * p_det * sift_factor * fraction)


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of a basis-bias search with its audit trail."""

    p_key: float
    rate_bps: float
    evaluations: np.ndarray  # (n, 2): the scanned (p_key, rate) pairs in grid order

    @property
    def n_evaluations(self) -> int:
        return len(self.evaluations)


# Ends and step of the key-basis probability grid that the optimizer scans.
_P_KEY_LOWER = 0.5 + 1e-6
_P_KEY_UPPER = 1.0 - 1e-4
_GRID_STEP = 1e-4


def optimize_basis_probability(rate_fn: Callable) -> OptimizationResult:
    """Maximize a secure-rate objective over the key-basis probability.

    ``rate_fn`` is called once, on the grid from ``_P_KEY_LOWER`` to ``_P_KEY_UPPER``
    in ``_GRID_STEP`` steps with both ends, as one array it maps elementwise. The
    floored finite-key objective is a staircase, not unimodal: the grid's first
    maximum is returned, the smallest ``p_key`` on the best plateau.
    """
    grid = np.arange(_P_KEY_LOWER, _P_KEY_UPPER + 0.5 * _GRID_STEP, _GRID_STEP)
    grid = np.minimum(grid, _P_KEY_UPPER)
    rates = np.asarray(rate_fn(grid), dtype=float)
    best = int(np.argmax(rates))
    return OptimizationResult(
        p_key=float(grid[best]),
        rate_bps=float(rates[best]),
        evaluations=np.column_stack((grid, rates)),
    )


def _planning_counts(p_det, p_key, duration_s, rep_rate_hz, bob_key_share):
    """Floored expected sifted counts of both bases: T * rate * p_det * shares."""
    if not 0.0 < duration_s < math.inf:
        raise ValidationError("duration must be positive and finite")
    base = duration_s * rep_rate_hz * p_det
    return (
        np.floor(base * p_key * bob_key_share),
        np.floor(base * (1.0 - p_key) * (1.0 - bob_key_share)),
    )


def expected_tally(
    p_det: float,
    e_key: float,
    e_check: float,
    p_key: float,
    p_multi: float,
    duration_s: float,
    rep_rate_hz: float,
    bob_key_share: float = 0.5,
) -> KeyTally | None:
    """Expected-count tally for planning: n = T * rate * p_det * shares.

    Returns None when either expected count floors to zero, which callers
    treat as a zero-rate operating point.
    """
    n_key, n_check = _planning_counts(p_det, p_key, duration_s, rep_rate_hz, bob_key_share)
    if n_key < 1 or n_check < 1:
        return None
    return KeyTally(
        n_key=int(n_key),
        n_check=int(n_check),
        e_key=e_key,
        e_check=e_check,
        p_key=p_key,
        p_check=1.0 - p_key,
        p_det=p_det,
        p_multi=p_multi,
        duration_s=duration_s,
    )


def planning_rate_function(
    p_det: float,
    e_key: float,
    e_check: float,
    p_multi: float,
    duration_s: float,
    rep_rate_hz: float,
    security: SecurityParams,
    bob_key_share: float = 0.5,
) -> Callable:
    """Secure-rate objective over the key-basis probability.

    The objective maps a float to a float and an array of key-basis
    probabilities elementwise to an array. An operating point whose expected
    counts floor to zero in either basis has rate zero. With an infinite
    duration the deviation and log terms drop out and the per-second
    asymptotic rate of the same count model is returned instead.
    """
    if not (0.0 < p_det <= 1.0 and 0.0 <= e_key <= 1.0 and 0.0 <= e_check <= 1.0
            and p_multi >= 0.0):
        raise ValidationError(
            "planning needs p_det in (0, 1], error rates in [0, 1] and p_multi >= 0"
        )
    if math.isinf(duration_s):

        def asymptotic(p_key):
            a_key = multiphoton_correction(p_multi, p_det, p_key)
            a_check = multiphoton_correction(p_multi, p_det, 1.0 - p_key)
            share = rep_rate_hz * p_det * p_key * bob_key_share
            fraction = _asymptotic_fraction(a_key, a_check, e_key, e_check, security.f)
            return _float_if_scalar(share * fraction)

        return asymptotic

    def finite(p_key):
        n_key, n_check = _planning_counts(p_det, p_key, duration_s, rep_rate_hz, bob_key_share)
        length, _, _ = _secure_length(
            n_key, n_check, e_key, e_check, p_key, 1.0 - p_key, p_det, p_multi, security
        )
        return _float_if_scalar(length / duration_s)

    return finite


def rate_vs_loss_curve(
    rep_rate_hz: float,
    p_det: Sequence[float],
    qber: Sequence[float],
    p_multi: float,
    security: SecurityParams,
    loss_grid_db: Sequence[float],
    duration_s: float,
    p_key: float = 0.5,
    bob_key_share: float = 0.5,
) -> list[dict]:
    """Finite and asymptotic secure rates across a channel-loss grid.

    ``p_det`` and ``qber`` hold the detection probability and the
    basis-pooled error rate at each loss of the grid. Both columns use that
    error rate and the same sifted-share normalization
    ``p_key * bob_key_share``, so the finite column can never exceed the
    asymptotic one.
    """
    p_det = np.asarray(p_det, dtype=float)
    qber = np.asarray(qber, dtype=float)
    n_key, n_check = _planning_counts(p_det, p_key, duration_s, rep_rate_hz, bob_key_share)
    length, _, _ = _secure_length(
        n_key, n_check, qber, qber, p_key, 1.0 - p_key, p_det, p_multi, security
    )
    finite = length / duration_s
    gllp = gllp_asymptotic_rate(
        rep_rate_hz, p_det, qber, p_multi, security.f, sift_factor=p_key * bob_key_share
    )
    return [
        {"loss_db": float(loss), "finite_bps": f, "gllp_bps": g}
        for loss, f, g in zip(loss_grid_db, finite.tolist(), gllp.tolist())
    ]


def sent_multiphoton_probability(
    mu_source: float, g2_zero: float, alice_loss_db: float = 0.0
) -> float:
    """Multi-photon probability of pulses leaving the transmitter.

    The source's mean photon number is attenuated by the transmitter's
    internal loss before the pair probability is formed.
    """
    if alice_loss_db < 0.0:
        raise ValidationError("loss must be non-negative")
    mu_sent = mu_source * 10.0 ** (-alice_loss_db / 10.0)
    return PhotonStatistics(mu=mu_sent, g2_zero=g2_zero).p_multi


BUNDLED_TALLIES = ("tally-deployed-optimized", "tally-deployed-balanced", "tally-spool")

# On-disk names of the tally fields: the key basis is z and the check basis x.
_TALLY_NAMES = {"n_key": "n_z", "n_check": "n_x", "e_key": "e_z", "e_check": "e_x",
                "p_key": "p_z", "p_check": "p_x", "p_det": "p_det", "p_multi": "p_m"}
_SECURITY_NAMES = ("eps_sec", "eps_cor", "f")


def load_key_analysis(source) -> tuple[KeyTally, SecurityParams, dict]:
    """Read a key-analysis JSON document (bundled name, path or dict).

    Fields go by their on-disk names, ``_TALLY_NAMES``. An absent or null
    ``duration_s`` means no duration. Returns the tally, the
    security parameters and the raw document for access to optional metadata.
    """
    doc = read_document(source, BUNDLED_TALLIES, "tally")
    fields = {name: (doc.whole if name.startswith("n_") else doc.number)(key)
              for name, key in _TALLY_NAMES.items()}
    duration = None if doc.get("duration_s", None) is None else doc.number("duration_s")
    tally = KeyTally(**fields, duration_s=duration)
    security = SecurityParams(**{key: doc.number(key) for key in _SECURITY_NAMES})
    return tally, security, doc.doc


def key_analysis_document(tally: KeyTally, security: SecurityParams) -> dict:
    """Serializable key-analysis document matching :func:`load_key_analysis`."""
    doc = {key: getattr(tally, name) for name, key in _TALLY_NAMES.items()}
    doc.update((key, getattr(security, key)) for key in _SECURITY_NAMES)
    if tally.duration_s is not None:
        doc["duration_s"] = tally.duration_s
    return doc
