"""Slot-level BB84 session engine with a passive-basis receiver.

The transmitter prepares one of the four equatorial states per clock slot,
choosing the basis with a configurable bias (or replaying the first pairs
of a supplied modulation pattern). The receiver is passive: each arriving
photon takes one arm of a splitter and is projected onto that arm's basis,
so four detectors named after the outcome states D, A, L and R report
clicks. Dark counts fire independently on every detector each slot. Slots
with exactly one click in the transmitter's basis survive sifting; double
clicks follow a configurable policy and cross-basis coincidences are always
discarded. ``classify`` is the only place these sifting rules live:
``run_session`` and the offline ``sift`` both call it. A record is one of 64
kinds, 4 states times 16 click masks, built once at import as ``_KINDS``;
the offline ``sift`` maps each record to its kind with one lookup, then calls
``classify`` once on the 60 clicked kinds and, under the ``random`` policy,
once more on the double-click records alone.

``run_session`` is an event-driven Monte Carlo: geometric gaps skip the
slots where nothing clicks, and only the clicked slots are drawn, in
vectorized batches with a fixed draw order. A pattern is immutable bytes
that every session replays from its start, so a configuration and a seed
pin the whole session byte for byte. ``expected_rates`` gives the matching
closed-form detection, sifting and error rates used for calibration and
for optimizer objectives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations
from typing import Iterable, Sequence

import numpy as np

from .channel import FiberChannel, apply_channel_rows, qber_from_pmd
from .emitter import EmitterSpectrum, PhotonStatistics, sample_photon_number
from .errors import ValidationError
from .polarization import BASIS_STATES, DETECTOR_ORDER, PROTOCOL_STATES, stokes_of

# Clicked slots handled per batch of gaps; bounds the engine's memory.
_EVENT_CHUNK = 1 << 18
# Longest session whose slot numbers fit an int64; see run_session.
_MAX_PULSES = 2**63 // (_EVENT_CHUNK + 1) - 1
# Most windows in a session: a 7 h paper session has 1,260 of 20 s, and a window
# of one slot has no error rate, so 2^20 (a 16 MiB table) bounds no real session.
_MAX_WINDOWS = 1 << 20

_BASIS_LABELS = ("DA", "LR")
_FLAGS = 1 << np.arange(len(DETECTOR_ORDER))
# Detector labels, in DETECTOR_ORDER, of each of the 16 click masks.
_MASK_LABELS = tuple(
    tuple(det for i, det in enumerate(DETECTOR_ORDER) if mask >> i & 1) for mask in range(16)
)
# Every kind of record, (basis index, bit, click mask), in row 16 * (2 * basis + bit) + mask,
# and the row of each well-formed (basis label, bit, detector labels) record: labels in
# any of the 65 orderings of distinct detectors, 260 keys in all.
_KINDS = np.array([(row >> 5, row >> 4 & 1, row & 15) for row in range(64)])
_KINDS.flags.writeable = False
_KIND_ROW = {
    (label, bit, order): 16 * (2 * basis + bit) + mask
    for basis, label in enumerate(_BASIS_LABELS)
    for bit in (0, 1)
    for mask, labels in enumerate(_MASK_LABELS)
    for order in permutations(labels)
}
# Read-only Stokes vectors of the protocol states; row 2 * basis + bit.
_STATE_STOKES = np.array([PROTOCOL_STATES[label] for label in DETECTOR_ORDER])
_STATE_STOKES.flags.writeable = False

DOUBLE_CLICK_POLICIES = ("discard", "random")


@dataclass(frozen=True)
class DeviceParams:
    """Hardware constants of one link: clock, detectors and fixed losses."""

    rep_rate_hz: float
    detector_efficiency: float
    dark_prob: float
    intrinsic_error: float
    alice_loss_db: float = 0.0
    bob_loss_db: float = 0.0

    def __post_init__(self):
        if not self.rep_rate_hz > 0.0:
            raise ValidationError("repetition rate must be positive")
        if not 0.0 < self.detector_efficiency <= 1.0:
            raise ValidationError("detector efficiency must lie in (0, 1]")
        if not 0.0 <= self.dark_prob < 1.0:
            raise ValidationError("dark probability must lie in [0, 1)")
        if not 0.0 <= self.intrinsic_error <= 0.5:
            raise ValidationError("intrinsic error must lie in [0, 0.5]")
        if not (self.alice_loss_db >= 0.0 and self.bob_loss_db >= 0.0):
            raise ValidationError("losses must be non-negative")


def survival_probability(
    device: DeviceParams, channel_loss_db: float, detection_scale: float = 1.0
) -> float:
    """End-to-end detection probability for one photon leaving the source."""
    if not channel_loss_db >= 0.0:
        raise ValidationError("channel loss must be non-negative")
    if not detection_scale > 0.0:
        raise ValidationError("detection scale must be positive")
    total_db = device.alice_loss_db + channel_loss_db + device.bob_loss_db
    p = 10.0 ** (-total_db / 10.0) * device.detector_efficiency * detection_scale
    if p > 1.0:
        raise ValidationError(f"survival probability {p:.6g} exceeds one")
    return float(p)


@dataclass(frozen=True)
class AliceSettings:
    """Transmitter-side basis bias and optional fixed modulation pattern.

    ``pattern`` holds the pattern's bytes (``documents.read_pattern`` reads
    them from a file), two bits per pulse. Within each byte, pairs are read
    most-significant bits first; the first bit of a pair selects the basis
    (0 for DA, 1 for LR) and the second the encoded bit value. A session
    replays the pattern's first pairs, one per slot, in place of the bias.
    """

    p_key: float = 0.5
    pattern: bytes | None = None

    def __post_init__(self):
        if not 0.0 < self.p_key < 1.0:
            raise ValidationError("key-basis probability must lie strictly in (0, 1)")
        if self.pattern is not None and len(self.pattern) == 0:
            raise ValidationError("pattern is empty")

    @property
    def p_check(self) -> float:
        return 1.0 - self.p_key


@dataclass(frozen=True)
class SessionConfig:
    """Everything needed to run or predict one session."""

    device: DeviceParams
    stats: PhotonStatistics
    spectrum: EmitterSpectrum
    channel: FiberChannel
    alice: AliceSettings = AliceSettings()
    bob_split: float = 0.5
    key_basis: str = "DA"
    double_click_policy: str = "discard"
    detection_scale: float = 1.0
    window_s: float = 20.0

    def __post_init__(self):
        if self.key_basis not in BASIS_STATES:
            raise ValidationError(f"unknown key basis {self.key_basis!r}")
        if not 0.0 < self.bob_split < 1.0:
            raise ValidationError("receiver splitting ratio must lie in (0, 1)")
        _check_policy(self.double_click_policy)
        if not self.window_s > 0.0:
            raise ValidationError("window length must be positive")
        if not math.isfinite(self.window_s * self.device.rep_rate_hz):
            raise ValidationError("window must hold a finite number of pulses")
        # Fails early when losses, efficiency and scale are inconsistent.
        survival_probability(self.device, self.channel.loss_db, self.detection_scale)

    @property
    def p_da(self) -> float:
        """Probability that the transmitter prepares a DA-basis state."""
        return self.alice.p_key if self.key_basis == "DA" else self.alice.p_check

    def rate_model(
        self,
        e_pol_da: float,
        e_pol_lr: float,
        *,
        channel_loss_db: float | None = None,
        detection_scale: float | None = None,
    ) -> "RateModel":
        """Closed-form rates of this link for given per-basis misalignment errors.

        Channel loss and detection scale default to the configuration's own.
        """
        return closed_form_rates(
            device=self.device,
            stats=self.stats,
            channel_loss_db=self.channel.loss_db if channel_loss_db is None else channel_loss_db,
            e_pol_da=e_pol_da,
            e_pol_lr=e_pol_lr,
            p_da=self.p_da,
            bob_split=self.bob_split,
            key_basis=self.key_basis,
            detection_scale=self.detection_scale if detection_scale is None else detection_scale,
        )


@dataclass(frozen=True)
class SlotRecord:
    """One clicked slot: what was sent and which detectors fired."""

    slot: int
    alice_basis: str
    alice_bit: int
    detections: tuple[str, ...]


@dataclass(frozen=True)
class SiftResult:
    """Tallies of one sifting pass over a session."""

    n_pulses: int
    n_detections: int
    n_double_discarded: int
    n_cross_discarded: int
    n_basis_mismatch: int
    kept_da: int
    errors_da: int
    kept_lr: int
    errors_lr: int
    key_basis: str = "DA"

    @property
    def n_sifted(self) -> int:
        return self.kept_da + self.kept_lr

    @property
    def qber_da(self) -> float:
        return self.errors_da / self.kept_da if self.kept_da else math.nan

    @property
    def qber_lr(self) -> float:
        return self.errors_lr / self.kept_lr if self.kept_lr else math.nan

    @property
    def e_key(self) -> float:
        return self.qber_da if self.key_basis == "DA" else self.qber_lr

    @property
    def e_check(self) -> float:
        return self.qber_lr if self.key_basis == "DA" else self.qber_da

    @property
    def p_det(self) -> float:
        return self.n_detections / self.n_pulses if self.n_pulses else math.nan


@dataclass(frozen=True)
class SessionResult:
    """Output of one Monte-Carlo session; ``windows`` is an (n_windows, 2)
    int64 array of each window's sifted and error counts."""

    sift: SiftResult
    windows: np.ndarray
    records: tuple[SlotRecord, ...] | None
    n_pulses: int
    duration_s: float
    seed: int
    truncated: bool = False


# Outcome codes of one clicked slot; the engine and the offline sifter both
# count them per transmitter basis in a vector of _N_OUTCOMES * 2 bins. The
# two codes of sifted slots come first, so ``code <= ERROR`` means kept.
KEPT, ERROR, MISMATCH, DOUBLE, CROSS = range(5)
_N_OUTCOMES = CROSS + 1


def _check_policy(policy: str) -> None:
    if policy not in DOUBLE_CLICK_POLICIES:
        raise ValidationError(f"double-click policy must be one of {DOUBLE_CLICK_POLICIES}")


def classify(
    alice_basis: np.ndarray,
    bits: np.ndarray,
    clicks: np.ndarray,
    policy: str,
    rng: np.random.Generator | None,
) -> np.ndarray:
    """Sifting rules: one outcome code per clicked slot.

    ``alice_basis`` holds 0 for DA and 1 for LR, ``bits`` the encoded bits and
    ``clicks`` an (m, 4) boolean matrix in ``DETECTOR_ORDER`` with at least
    one click per row. A single click in the transmitter's basis is KEPT or
    an ERROR, one in the other basis a MISMATCH, and clicks in both bases are
    CROSS. Both detectors of one basis give DOUBLE under the ``discard``
    policy; under ``random`` they count as a click in that basis whose bit is
    drawn from ``rng``, one draw per such slot in Alice's basis, in row order.
    """
    _check_policy(policy)
    in_da = clicks[:, 0] | clicks[:, 1]
    in_lr = clicks[:, 2] | clicks[:, 3]
    cross = in_da & in_lr
    double = (clicks[:, 0] & clicks[:, 1] | clicks[:, 2] & clicks[:, 3]) & ~cross
    out = np.where(np.argmax(clicks, axis=1) % 2 == bits, KEPT, ERROR)
    out[in_lr != (alice_basis == 1)] = MISMATCH
    if policy == "discard":
        out[double] = DOUBLE
    elif double.any():
        if rng is None:
            raise ValidationError("random double-click policy needs a random generator")
        drawn = np.flatnonzero(double & (out != MISMATCH))
        out[drawn] = np.where(rng.integers(0, 2, size=drawn.size) == bits[drawn], KEPT, ERROR)
    out[cross] = CROSS
    return out


def _tally(alice_basis: np.ndarray, outcomes: np.ndarray, weights=None) -> np.ndarray:
    """Counts of outcome x transmitter basis, flattened with basis fastest;
    ``weights`` gives how many slots each row stands for (one by default)."""
    counts = np.bincount(2 * outcomes + alice_basis, weights, minlength=2 * _N_OUTCOMES)
    return counts.astype(np.int64, copy=False)


def _sift_result(counts: np.ndarray, n_pulses: int, key_basis: str) -> SiftResult:
    c = counts.reshape(_N_OUTCOMES, 2)
    return SiftResult(
        n_pulses=int(n_pulses),
        n_detections=int(c.sum()),
        n_double_discarded=int(c[DOUBLE].sum()),
        n_cross_discarded=int(c[CROSS].sum()),
        n_basis_mismatch=int(c[MISMATCH].sum()),
        kept_da=int(c[KEPT, 0] + c[ERROR, 0]),
        errors_da=int(c[ERROR, 0]),
        kept_lr=int(c[KEPT, 1] + c[ERROR, 1]),
        errors_lr=int(c[ERROR, 1]),
        key_basis=key_basis,
    )


def _record_kind(slot: int, basis: str, bit: int, detections: Sequence[str]) -> int:
    """Row of one record in ``_KINDS``; raises if the record is malformed."""
    if basis not in _BASIS_LABELS:
        raise ValidationError(f"unknown basis label {basis!r}")
    if bit not in (0, 1):
        raise ValidationError(f"slot {slot}: bit must be 0 or 1, got {bit!r}")
    row = _KIND_ROW.get((basis, int(bit), tuple(detections)))
    if row is None:
        raise ValidationError(f"slot {slot}: unknown or repeated detector label in {detections!r}")
    return row


def sift(
    alice_records: Iterable[tuple[int, str, int]],
    bob_records: Iterable[tuple[int, Sequence[str]]],
    *,
    policy: str = "discard",
    key_basis: str = "DA",
    rng: np.random.Generator | None = None,
    n_pulses: int | None = None,
) -> SiftResult:
    """Offline sifting of paired transmitter and receiver records.

    Records are (slot, basis, bit) and (slot, detector labels); slot ids must
    match pairwise. Slots with no click are ignored and the clicked ones go
    through :func:`classify`. ``n_pulses`` defaults to the record count,
    which is only right when every slot is present; it must be a whole number.

    Cost: one Python pass maps each record to its row of ``_KINDS`` with one
    dict lookup; only a miss, a malformed record or labels in a container
    other than a tuple, is checked field by field. One ``np.bincount``
    counts the rows, and ``classify`` runs once on the 60 clicked kinds,
    weighted by those counts. Under the ``random`` policy it runs once more
    over the double-click records, in record order, so the generator draws
    the same bits as a record-by-record pass.
    """
    if key_basis not in BASIS_STATES:
        raise ValidationError(f"unknown key basis {key_basis!r}")
    alice = list(alice_records)
    bob = list(bob_records)
    if len(alice) != len(bob):
        raise ValidationError("transmitter and receiver record counts differ")
    if n_pulses is None:
        n_pulses = len(alice)
    else:
        try:
            whole = n_pulses == int(n_pulses)
        except (TypeError, ValueError, OverflowError):
            whole = False
        if not whole:
            raise ValidationError(f"n_pulses must be a whole number, got {n_pulses!r}")
        if n_pulses < len(alice):
            raise ValidationError("n_pulses cannot undercount the supplied records")
    rows = bytearray()  # each record's row of _KINDS, which fits in a byte
    append = rows.append
    kind_row = _KIND_ROW
    for (slot_a, basis, bit), (slot_b, detections) in zip(alice, bob):
        if slot_a != slot_b:
            raise ValidationError(f"slot mismatch: {slot_a} vs {slot_b}")
        try:
            append(kind_row[basis, bit, detections])
        except (KeyError, TypeError):  # a malformed record, or labels in a list
            append(_record_kind(slot_a, basis, bit, detections))
    _check_policy(policy)
    rows = np.frombuffer(rows, dtype=np.uint8)
    clicked = np.flatnonzero(_KINDS[:, 2])
    basis, bits, masks = _KINDS[clicked].T
    outcomes = classify(basis, bits, (masks[:, None] & _FLAGS) != 0, "discard", None)
    counts = _tally(basis, outcomes, np.bincount(rows, minlength=len(_KINDS))[clicked])
    if policy == "random":
        # Resolve the double clicks record by record, in record order.
        basis, bits, masks = _KINDS[rows[np.isin(rows, clicked[outcomes == DOUBLE])]].T
        resolved = classify(basis, bits, (masks[:, None] & _FLAGS) != 0, policy, rng)
        counts[2 * DOUBLE : 2 * DOUBLE + 2] = 0
        counts += _tally(basis, resolved)
    return _sift_result(counts, n_pulses, key_basis)


def _slot_records(
    slots: np.ndarray, basis_idx: np.ndarray, bits: np.ndarray, clicks: np.ndarray
) -> list[SlotRecord]:
    """One record per clicked slot, built from Python lists of the columns."""
    masks = (clicks @ _FLAGS).tolist()
    return [
        SlotRecord(slot, _BASIS_LABELS[basis], bit, _MASK_LABELS[mask])
        for slot, basis, bit, mask in zip(slots.tolist(), basis_idx.tolist(), bits.tolist(), masks)
    ]


def _category(rng: np.random.Generator, weights, size: int) -> np.ndarray:
    """Index of the category each of ``size`` draws falls in, given its weights.

    Bounds are normalized by division, so a zero-weight last category gets a
    bound of exactly one and a uniform below one never reaches it.
    """
    cum = np.cumsum(weights)
    return np.searchsorted(cum[:-1] / cum[-1], rng.random(size), side="right")


def run_session(
    config: SessionConfig,
    n_pulses: int,
    seed: int,
    record_slots: bool = False,
) -> SessionResult:
    """Simulate a session of ``n_pulses`` clock slots.

    Event driven: only slots with at least one click are drawn. Each slot has
    five independent sources, the dark counts of D, A, L and R and the signal
    (at least one photon arrives). Geometric gaps give the next slot where
    any of them fires. In that slot the first source to fire, in that order,
    is drawn from its share of the click probability: the sources before it
    are off and the ones after it are drawn unconditionally. A signal that
    fires first draws which of its photons arrived: the first, the second or
    both. This is exact in distribution.

    Draws come in a fixed order, so a seed pins the session byte for byte.
    Per batch of gaps: the gaps, then per event basis and bit (unless a
    pattern is replayed), the first source, four dark uniforms, the photon
    number and two arrival uniforms of events whose signal is drawn
    unconditionally, the arrival pattern of signal-first events, wavelengths
    and measurement draws for first then second photons, then double-click
    resolutions. Only clicked slots are recorded when ``record_slots`` is on.
    Time windows cover ``config.window_s`` each, at most ``_MAX_WINDOWS`` of
    them; the trailing partial window is dropped. A pattern shorter than
    ``n_pulses`` pairs ends the session early with ``truncated`` set.

    ``n_pulses`` is at most ``_MAX_PULSES``, about 3.5e13 slots (122 h at
    80 MHz): slot numbers are int64, and one batch sums up to
    ``_EVENT_CHUNK`` gaps of up to ``n_pulses + 1`` slots each.
    """
    if n_pulses < 1:
        raise ValidationError("need at least one pulse")
    if n_pulses > _MAX_PULSES:
        raise ValidationError(f"need at most {_MAX_PULSES} pulses, the int64 slot "
                              f"arithmetic's bound, got {n_pulses}")
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    device = config.device
    stats = config.stats
    t = survival_probability(device, config.channel.loss_db, config.detection_scale)

    truncated = False
    pattern = config.alice.pattern
    if pattern is not None:
        truncated = 4 * len(pattern) < n_pulses
        n_pulses = min(n_pulses, 4 * len(pattern))
        pairs = np.unpackbits(
            np.frombuffer(pattern, dtype=np.uint8), count=2 * n_pulses
        ).reshape(n_pulses, 2)

    window_pulses = max(int(round(config.window_s * device.rep_rate_hz)), 1)
    n_windows = n_pulses // window_pulses
    if n_windows > _MAX_WINDOWS:
        raise ValidationError(f"--window-s {config.window_s} splits {n_pulses} pulses into "
                              f"{n_windows} windows, more than {_MAX_WINDOWS}")
    windows = np.zeros((n_windows, 2), dtype=np.int64)  # sifted, errors

    counts = np.zeros(2 * _N_OUTCOMES, dtype=np.int64)
    records: list[SlotRecord] = []

    zero_da = stokes_of("D")
    zero_lr = stokes_of("L")

    # Arrival patterns of the signal: first photon only, second only, both.
    arrivals = (
        stats.p_single * t + stats.p_multi * t * (1.0 - t),
        stats.p_multi * (1.0 - t) * t,
        stats.p_multi * t * t,
    )
    dark = device.dark_prob
    # Probability that each source is the first of the five to fire.
    first_weights = [dark * (1.0 - dark) ** j for j in range(4)]
    first_weights.append((1.0 - dark) ** 4 * sum(arrivals))
    p_any = min(sum(first_weights), 1.0)  # the sum can round just past one
    detector = np.arange(4)

    last = -1  # slot of the last event drawn
    while p_any > 0.0 and last < n_pulses - 1:
        mean = (n_pulses - 1 - last) * p_any
        size = int(min(mean + 6.0 * math.sqrt(mean) + 16.0, _EVENT_CHUNK))
        # Gaps that reach past the session end are clipped to a length that
        # still does, so the cumulative sum cannot wrap around.
        gaps = np.minimum(rng.geometric(p_any, size), n_pulses + 1)
        slots = last + np.cumsum(gaps)
        last = slots[-1]
        slots = slots[: np.searchsorted(slots, n_pulses)]
        k = slots.size
        if k == 0:
            break

        if pattern is not None:
            basis_idx, bits = pairs[slots].T.astype(np.int64)
        else:
            basis_idx = (rng.random(k) >= config.p_da).astype(np.int64)  # 0 = DA, 1 = LR
            bits = rng.integers(0, 2, size=k)
        # Sources before the first are off; the darks after it and a signal
        # that is not first are drawn unconditionally.
        first = _category(rng, first_weights, k)
        after = detector > first[:, None]
        clicks = (detector == first[:, None]) | after & (rng.random((k, 4)) < dark)

        arrive1 = np.zeros(k, dtype=bool)
        arrive2 = np.zeros(k, dtype=bool)
        free = np.flatnonzero(first < 4)
        n_photons = sample_photon_number(stats, rng, free.size)
        arrive1[free] = (rng.random(free.size) < t) & (n_photons >= 1)
        arrive2[free] = (rng.random(free.size) < t) & (n_photons >= 2)
        fired = np.flatnonzero(first == 4)
        if fired.size:
            arrival = _category(rng, arrivals, fired.size)
            arrive1[fired] = arrival != 1
            arrive2[fired] = arrival != 0

        state_idx = 2 * basis_idx + bits
        for arrived in (arrive1, arrive2):
            idx = np.flatnonzero(arrived)
            if idx.size == 0:
                continue
            lam = config.spectrum.sample(rng, idx.size)
            out = apply_channel_rows(_STATE_STOKES[state_idx[idx]], config.channel, lam)
            in_da = rng.random(idx.size) < config.bob_split
            p_zero = np.where(
                in_da, 0.5 * (1.0 + out @ zero_da), 0.5 * (1.0 + out @ zero_lr)
            )
            meas_bit = (rng.random(idx.size) >= p_zero).astype(np.int64)
            meas_bit ^= rng.random(idx.size) < device.intrinsic_error
            det = np.where(in_da, meas_bit, 2 + meas_bit)
            clicks[idx, det] = True

        outcomes = classify(basis_idx, bits, clicks, config.double_click_policy, rng)
        counts += _tally(basis_idx, outcomes)

        if n_windows > 0:
            kept = outcomes <= ERROR
            win_idx = slots[kept] // window_pulses
            in_win = win_idx < n_windows
            wrong = in_win & (outcomes[kept] == ERROR)
            windows[:, 0] += np.bincount(win_idx[in_win], minlength=n_windows)
            windows[:, 1] += np.bincount(win_idx[wrong], minlength=n_windows)

        if record_slots:
            records += _slot_records(slots, basis_idx, bits, clicks)

    return SessionResult(
        sift=_sift_result(counts, n_pulses, config.key_basis),
        windows=windows,
        records=tuple(records) if record_slots else None,
        n_pulses=n_pulses,
        duration_s=n_pulses / device.rep_rate_hz,
        seed=seed,
        truncated=truncated,
    )


@dataclass(frozen=True)
class RateModel:
    """Closed-form per-slot probabilities and rates for one configuration."""

    p_signal_click: float
    p_det: float
    sift_da: float
    sift_lr: float
    qber_da: float
    qber_lr: float
    e_pol_da: float
    e_pol_lr: float
    sifted_fraction: float
    sifted_bps: float
    qber_pooled: float
    key_basis: str

    @property
    def e_key(self) -> float:
        return self.qber_da if self.key_basis == "DA" else self.qber_lr

    @property
    def e_check(self) -> float:
        return self.qber_lr if self.key_basis == "DA" else self.qber_da


def closed_form_rates(
    device: DeviceParams,
    stats: PhotonStatistics,
    channel_loss_db: float,
    rep_rate_hz: float | None = None,
    e_pol_da: float = 0.0,
    e_pol_lr: float = 0.0,
    p_da: float = 0.5,
    bob_split: float = 0.5,
    key_basis: str = "DA",
    detection_scale: float = 1.0,
) -> RateModel:
    """First-order detection, sifting and error model.

    Slots where both photons of a pair arrive are neglected beyond their
    contribution to the click probability; their weight relative to the
    sifted signal is of order p_multi * survival over p_single, below 1e-4
    for any configuration this package targets.
    """
    t = survival_probability(device, channel_loss_db, detection_scale)
    dark = device.dark_prob
    e0 = device.intrinsic_error
    s_click = stats.p_single * t + stats.p_multi * (1.0 - (1.0 - t) ** 2)
    p_det = 1.0 - (1.0 - s_click) * (1.0 - dark) ** 4

    quiet3 = (1.0 - dark) ** 3
    one_dark = 2.0 * dark * quiet3
    sift = {}
    err = {}
    for basis, p_basis, q_basis, e_pol in (
        ("DA", p_da, bob_split, e_pol_da),
        ("LR", 1.0 - p_da, 1.0 - bob_split, e_pol_lr),
    ):
        e_sig = e_pol * (1.0 - e0) + (1.0 - e_pol) * e0
        kept_sig = p_basis * q_basis * s_click * quiet3
        kept_dark = p_basis * (1.0 - s_click) * one_dark
        sift[basis] = kept_sig + kept_dark
        err[basis] = kept_sig * e_sig + kept_dark * 0.5

    qber = {b: err[b] / sift[b] if sift[b] > 0.0 else math.nan for b in sift}
    total = sift["DA"] + sift["LR"]
    pooled = (err["DA"] + err["LR"]) / total if total > 0.0 else math.nan
    nu = device.rep_rate_hz if rep_rate_hz is None else rep_rate_hz
    return RateModel(
        p_signal_click=s_click,
        p_det=p_det,
        sift_da=sift["DA"],
        sift_lr=sift["LR"],
        qber_da=qber["DA"],
        qber_lr=qber["LR"],
        e_pol_da=e_pol_da,
        e_pol_lr=e_pol_lr,
        sifted_fraction=total,
        sifted_bps=total * nu,
        qber_pooled=pooled,
        key_basis=key_basis,
    )


def expected_rates(config: SessionConfig) -> RateModel:
    """Closed-form rates for a full session configuration. A basis's
    polarization error is the mean of its two states', all four of which
    read the channel's one spectral-mean rotation."""
    e = qber_from_pmd(_STATE_STOKES, config.channel, config.spectrum)
    return config.rate_model(float(np.mean(e[:2])), float(np.mean(e[2:])))
