"""Finite-key secure-rate analysis for a biased-basis BB84 link.

The secure length of a session is computed from sifted counts in the key and
check bases, their error rates, the basis-choice probabilities and the
source's multi-photon weight. Multi-photon emissions are handled by shrinking
each basis's single-photon fraction by the ratio of the multi-photon
probability to that basis's detection share, a worst-case assignment of every
multi-photon pulse to a detected slot. Statistical fluctuation between the
check estimate and the key-basis phase error enters through a deviation term
that shrinks as both sample sizes grow.

An asymptotic reference bound in the style of the usual single-photon
tagging argument is included for consistency checks, together with a
basis-bias optimizer and a rate-versus-loss curve builder.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .emitter import PhotonStatistics
from .errors import ValidationError

_LN2 = math.log(2.0)


def binary_entropy(q):
    """Shannon entropy of a bit with probability ``q``, in bits.

    Array-friendly; endpoint values 0 and 1 give zero. The (1 - q) branch
    uses log1p so arguments near one keep full precision.
    """
    arr = np.asarray(q, dtype=float)
    if np.any((arr < 0.0) | (arr > 1.0)):
        raise ValidationError("entropy argument must lie in [0, 1]")
    out = np.zeros_like(arr)
    inner = (arr > 0.0) & (arr < 1.0)
    qi = arr[inner]
    out[inner] = -(qi * np.log(qi) + (1.0 - qi) * np.log1p(-qi)) / _LN2
    if np.isscalar(q) or getattr(q, "ndim", 1) == 0:
        return float(out)
    return out


def multiphoton_correction(p_multi: float, p_det: float, p_basis: float) -> float:
    """Single-photon fraction credited to one basis's detections.

    Every multi-photon emission is conservatively counted against the
    detections routed to this basis, hence the division by both the overall
    detection probability and the basis probability. May come out
    non-positive when multi-photon emissions dominate.
    """
    if p_det <= 0.0:
        raise ValidationError("detection probability must be positive")
    if not 0.0 < p_basis <= 1.0:
        raise ValidationError("basis probability must lie in (0, 1]")
    if p_multi < 0.0:
        raise ValidationError("multi-photon probability must be non-negative")
    return 1.0 - p_multi / (p_det * p_basis)


def fluctuation_delta(n_key: int, n_check: int, eps_sec: float) -> float:
    """Deviation allowance between check-basis estimate and key-basis phase error."""
    if n_key < 1 or n_check < 1:
        raise ValidationError("both sifted counts must be at least one")
    if not 0.0 < eps_sec < 1.0:
        raise ValidationError("secrecy failure probability must lie in (0, 1)")
    ratio = (n_key + n_check) * (n_check + 1.0) / (n_key * float(n_check) ** 2)
    return math.sqrt(ratio * math.log(2.0 / eps_sec))


def leakage_ec(n_key: int, e_key: float, f: float) -> float:
    """Bits disclosed by error correction at reconciliation efficiency ``f``."""
    if n_key < 0:
        raise ValidationError("key count must be non-negative")
    if f < 1.0:
        raise ValidationError("reconciliation efficiency factor must be at least one")
    return f * binary_entropy(e_key) * n_key


@dataclass(frozen=True)
class SecurityParams:
    """Composable security failure probabilities and reconciliation efficiency."""

    eps_sec: float = 1e-12
    eps_cor: float = 1e-12
    f: float = 1.16

    def __post_init__(self):
        if not 0.0 < self.eps_sec < 1.0 or not 0.0 < self.eps_cor < 1.0:
            raise ValidationError("failure probabilities must lie in (0, 1)")
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
        return KeyTally(
            n_key=self.n_key,
            n_check=self.n_check,
            e_key=self.e_check,
            e_check=self.e_key,
            p_key=self.p_key,
            p_check=self.p_check,
            p_det=self.p_det,
            p_multi=self.p_multi,
            duration_s=self.duration_s,
        )


@dataclass(frozen=True)
class KeyResult:
    """Secure length, rate when a duration is known, and diagnostics."""

    length_bits: int
    rate_bps: float | None
    status: str
    terms: dict


def secure_key_length(tally: KeyTally, security: SecurityParams) -> KeyResult:
    """Composably secure key length of one finite session.

    Statuses: "ok"; "multi-photon dominated" when a basis's single-photon
    credit is non-positive (zero key, no entropy term evaluated); "noise
    dominated" when the phase-error estimate plus deviation reaches one half
    (the entropy argument is clamped there, which zeroes the one-way rate).
    """
    a_key = multiphoton_correction(tally.p_multi, tally.p_det, tally.p_key)
    a_check = multiphoton_correction(tally.p_multi, tally.p_det, tally.p_check)
    log_term = math.log2(2.0 / (security.eps_sec**2 * security.eps_cor))
    terms: dict = {
        "a_key": a_key,
        "a_check": a_check,
        "log_term": log_term,
    }
    if a_key <= 0.0 or a_check <= 0.0:
        terms.update(q_check=math.nan, delta=math.nan, h_arg=math.nan,
                     leak_ec=math.nan, raw_bits=-math.inf)
        rate = 0.0 if tally.duration_s else None
        return KeyResult(0, rate, "multi-photon dominated", terms)

    q_check = tally.e_check / a_check
    delta = fluctuation_delta(tally.n_key, tally.n_check, security.eps_sec)
    h_arg = q_check + delta
    status = "ok"
    if h_arg >= 0.5:
        h_arg = 0.5
        status = "noise dominated"
    leak = leakage_ec(tally.n_key, tally.e_key, security.f)
    raw = tally.n_key * a_key * (1.0 - binary_entropy(h_arg)) - leak - log_term
    length = max(0, math.floor(raw))
    terms.update(
        q_check=q_check,
        delta=delta,
        h_arg=h_arg,
        leak_ec=leak,
        raw_bits=raw,
    )
    rate = length / tally.duration_s if tally.duration_s else None
    return KeyResult(length, rate, status, terms)


def asymptotic_key_fraction(
    e_key: float, e_check: float, p_det: float, p_multi: float, f: float
) -> float:
    """Per-sifted-bit secure fraction in the large-sample limit.

    Same structure as the finite bound with the deviation term and the
    finite-size log removed, and the full detection probability backing the
    single-photon credit.
    """
    a = multiphoton_correction(p_multi, p_det, 1.0)
    if a <= 0.0:
        return 0.0
    q = min(e_check / a, 0.5)
    return max(0.0, a * (1.0 - binary_entropy(q)) - f * binary_entropy(e_key))


def gllp_asymptotic_rate(
    rep_rate_hz: float,
    p_det: float,
    qber: float,
    p_multi: float,
    f: float,
    sift_factor: float = 0.5,
) -> float:
    """Asymptotic secure rate in bits per second.

    ``sift_factor`` is the fraction of detections that become sifted key
    material; one half for a balanced passive receiver, approaching the
    key-basis share in strongly biased operation.
    """
    if rep_rate_hz <= 0.0:
        raise ValidationError("repetition rate must be positive")
    if not 0.0 <= sift_factor <= 1.0:
        raise ValidationError("sift factor must lie in [0, 1]")
    fraction = asymptotic_key_fraction(qber, qber, p_det, p_multi, f)
    return rep_rate_hz * p_det * sift_factor * fraction


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of a basis-bias search with its audit trail."""

    p_key: float
    rate_bps: float
    evaluations: tuple[tuple[float, float], ...]
    unimodality_violation: bool
    method: str

    @property
    def n_evaluations(self) -> int:
        return len(self.evaluations)


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Bracket of the key-basis probability, golden-section tolerance and the
# step of the fine grid scanned when the objective is not unimodal.
_P_KEY_LOWER = 0.5 + 1e-6
_P_KEY_UPPER = 1.0 - 1e-4
_SEARCH_TOL = 1e-5
_GRID_STEP = 1e-4


def optimize_basis_probability(rate_fn: Callable[[float], float]) -> OptimizationResult:
    """Maximize a secure-rate objective over the key-basis probability.

    Golden-section search first, then a coarse verification grid; if the grid
    beats the bracketed optimum the objective is not unimodal on the
    interval, a fine grid at ``_GRID_STEP`` resolution is scanned and the
    violation is flagged. The returned optimum is the best point evaluated
    anywhere, so a flagged result is still trustworthy at grid resolution.
    """
    lower, upper = _P_KEY_LOWER, _P_KEY_UPPER
    evals: list[tuple[float, float]] = []

    def measured(p: float) -> float:
        r = float(rate_fn(p))
        evals.append((p, r))
        return r

    a, b = lower, upper
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = measured(c), measured(d)
    while b - a > _SEARCH_TOL:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = measured(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = measured(d)
    best_p, best_r = max(evals, key=lambda pr: pr[1])

    coarse = np.linspace(lower, upper, 201)
    coarse_vals = [measured(float(p)) for p in coarse]
    coarse_best = max(coarse_vals)
    violation = coarse_best > best_r + 1e-9 * max(1.0, abs(best_r))
    method = "golden-section"
    if violation:
        fine = np.arange(lower, upper + 0.5 * _GRID_STEP, _GRID_STEP)
        for p in fine:
            measured(float(min(p, upper)))
        method = "golden-section+grid"
    best_p, best_r = max(evals, key=lambda pr: pr[1])
    return OptimizationResult(
        p_key=best_p,
        rate_bps=best_r,
        evaluations=tuple(evals),
        unimodality_violation=bool(violation),
        method=method,
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
    if not 0.0 < duration_s < math.inf:
        raise ValidationError("duration must be positive and finite")
    n_key = math.floor(duration_s * rep_rate_hz * p_det * p_key * bob_key_share)
    n_check = math.floor(
        duration_s * rep_rate_hz * p_det * (1.0 - p_key) * (1.0 - bob_key_share)
    )
    if n_key < 1 or n_check < 1:
        return None
    return KeyTally(
        n_key=n_key,
        n_check=n_check,
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
) -> Callable[[float], float]:
    """Secure-rate objective over the key-basis probability.

    With an infinite duration the deviation and log terms drop out and the
    per-second asymptotic rate of the same count model is returned instead.
    """
    if math.isinf(duration_s):

        def asymptotic(p_key: float) -> float:
            a_key = multiphoton_correction(p_multi, p_det, p_key)
            a_check = multiphoton_correction(p_multi, p_det, 1.0 - p_key)
            if a_key <= 0.0 or a_check <= 0.0:
                return 0.0
            q = min(e_check / a_check, 0.5)
            fraction = a_key * (1.0 - binary_entropy(q)) - security.f * binary_entropy(e_key)
            share = rep_rate_hz * p_det * p_key * bob_key_share
            return max(0.0, share * fraction)

        return asymptotic

    def finite(p_key: float) -> float:
        tally = expected_tally(
            p_det, e_key, e_check, p_key, p_multi, duration_s, rep_rate_hz, bob_key_share
        )
        if tally is None:
            return 0.0
        result = secure_key_length(tally, security)
        return result.rate_bps or 0.0

    return finite


def rate_vs_loss_curve(
    rep_rate_hz: float,
    p_det_of_loss: Callable[[float], float],
    qber_of_loss: Callable[[float], float],
    p_multi: float,
    security: SecurityParams,
    loss_grid_db: Sequence[float],
    duration_s: float,
    p_key: float = 0.5,
    bob_key_share: float = 0.5,
) -> list[dict]:
    """Finite and asymptotic secure rates across a channel-loss grid.

    Both columns use the basis-pooled error rate and the same sifted-share
    normalization ``p_key * bob_key_share``, so the finite column can never
    exceed the asymptotic one.
    """
    rows = []
    for loss in loss_grid_db:
        p_det = p_det_of_loss(loss)
        e = qber_of_loss(loss)
        tally = expected_tally(
            p_det, e, e, p_key, p_multi, duration_s, rep_rate_hz, bob_key_share
        )
        finite = 0.0
        if tally is not None:
            finite = secure_key_length(tally, security).rate_bps or 0.0
        gllp = gllp_asymptotic_rate(
            rep_rate_hz, p_det, e, p_multi, security.f, sift_factor=p_key * bob_key_share
        )
        rows.append(
            {"loss_db": float(loss), "finite_bps": float(finite), "gllp_bps": float(gllp)}
        )
    return rows


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


_TALLY_KEYS = ("n_z", "n_x", "e_z", "e_x", "p_z", "p_x", "p_det", "p_m")
_SECURITY_KEYS = ("eps_sec", "eps_cor", "f")


def whole_number(value, what: str) -> int:
    """A count read from a document, rejected unless it is a finite whole number."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ValidationError(f"{what} must be a whole number, got {value!r}") from None
    if not (math.isfinite(number) and number.is_integer()):
        raise ValidationError(f"{what} must be a whole number, got {value!r}")
    return int(value) if isinstance(value, int) else int(number)


def load_key_analysis(source) -> tuple[KeyTally, SecurityParams, dict]:
    """Read a key-analysis JSON document (path, file object or dict).

    The key basis is called z and the check basis x in the on-disk names.
    Returns the tally, the security parameters and the raw document for
    access to optional metadata.
    """
    if isinstance(source, dict):
        doc = source
    elif hasattr(source, "read"):
        doc = json.load(source)
    else:
        with open(source) as handle:
            doc = json.load(handle)
    missing = [k for k in _TALLY_KEYS + _SECURITY_KEYS if k not in doc]
    if missing:
        raise ValidationError(f"key-analysis document missing fields: {missing}")
    tally = KeyTally(
        n_key=whole_number(doc["n_z"], "n_z"),
        n_check=whole_number(doc["n_x"], "n_x"),
        e_key=float(doc["e_z"]),
        e_check=float(doc["e_x"]),
        p_key=float(doc["p_z"]),
        p_check=float(doc["p_x"]),
        p_det=float(doc["p_det"]),
        p_multi=float(doc["p_m"]),
        duration_s=float(doc["duration_s"]) if doc.get("duration_s") else None,
    )
    security = SecurityParams(
        eps_sec=float(doc["eps_sec"]),
        eps_cor=float(doc["eps_cor"]),
        f=float(doc["f"]),
    )
    return tally, security, doc


def key_analysis_document(tally: KeyTally, security: SecurityParams) -> dict:
    """Serializable key-analysis document matching :func:`load_key_analysis`."""
    doc = {
        "n_z": tally.n_key,
        "n_x": tally.n_check,
        "e_z": tally.e_key,
        "e_x": tally.e_check,
        "p_z": tally.p_key,
        "p_x": tally.p_check,
        "p_det": tally.p_det,
        "p_m": tally.p_multi,
        "eps_sec": security.eps_sec,
        "eps_cor": security.eps_cor,
        "f": security.f,
    }
    if tally.duration_s is not None:
        doc["duration_s"] = tally.duration_s
    return doc
