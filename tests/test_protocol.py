"""Session engine: patterns, sifting rules, closed-form rates, Monte Carlo."""

import json
from dataclasses import replace
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2_contingency

from fiberqkd import protocol
from fiberqkd.channel import FiberChannel, FiberSegment, apply_channel_rows
from fiberqkd.config import bundled_scenario_path, load_scenario
from fiberqkd.documents import read_pattern
from fiberqkd.emitter import EmitterSpectrum, PhotonStatistics, sample_photon_number
from fiberqkd.errors import ValidationError
from fiberqkd.polarization import (
    BASIS_STATES,
    DETECTOR_ORDER,
    MODULATOR_PHASE,
    PROTOCOL_STATES,
    phase_to_state,
    stokes_of,
)
from fiberqkd.protocol import (
    CROSS,
    DOUBLE,
    ERROR,
    KEPT,
    MISMATCH,
    AliceSettings,
    DeviceParams,
    SessionConfig,
    SlotRecord,
    classify,
    closed_form_rates,
    expected_rates,
    run_session,
    sift,
    survival_probability,
)


def flat_channel(loss_db=0.0, dgd_ps=0.0):
    seg = FiberSegment(axis=(1.0, 0.0, 0.0), dgd_ps=dgd_ps)
    return FiberChannel(segments=(seg,), loss_db=loss_db, length_km=1.0,
                        reference_nm=1310.0)


def narrow_spectrum():
    return EmitterSpectrum(center_nm=1310.0, fwhm_nm=0.01, shape="gaussian")


def ideal_config(**overrides):
    device = DeviceParams(rep_rate_hz=1e6, detector_efficiency=1.0,
                          dark_prob=0.0, intrinsic_error=0.0)
    base = dict(device=device, stats=PhotonStatistics(mu=0.8, g2_zero=0.0),
                spectrum=narrow_spectrum(), channel=flat_channel())
    base.update(overrides)
    return SessionConfig(**base)


# ------------------------------------------------------------- pattern I/O


def test_pattern_from_file_formats(tmp_path):
    hex_path = tmp_path / "pattern.txt"
    hex_path.write_text("b1\nb1\n")
    assert read_pattern(hex_path) == b"\xb1\xb1"
    bin_path = tmp_path / "pattern.bin"
    bin_path.write_bytes(bytes([0xB1]))
    assert read_pattern(bin_path) == b"\xb1"  # suffix selects binary mode
    with pytest.raises(ValidationError):
        read_pattern(hex_path, fmt="morse")


def test_alice_settings_validation():
    with pytest.raises(ValidationError):
        AliceSettings(p_key=0.0)
    with pytest.raises(ValidationError):
        AliceSettings(p_key=1.0)
    with pytest.raises(ValidationError):
        AliceSettings(pattern=b"")
    assert AliceSettings(p_key=0.7).p_check == pytest.approx(0.3)
    # a pattern is compared by value, so equal configurations run equal sessions
    assert AliceSettings(pattern=b"\xb1") == AliceSettings(pattern=bytes([0xB1]))
    assert AliceSettings(pattern=b"\xb1") != AliceSettings(pattern=b"\xb2")


# ------------------------------------------------------------ link budget


def test_survival_probability_budget():
    device = DeviceParams(rep_rate_hz=80e6, detector_efficiency=0.375,
                          dark_prob=1e-7, intrinsic_error=0.009,
                          alice_loss_db=6.2, bob_loss_db=1.7)
    expected = 10 ** (-(4.0 + 6.2 + 1.7) / 10.0) * 0.375
    assert survival_probability(device, 4.0) == pytest.approx(expected, rel=1e-12)
    assert survival_probability(device, 4.0, detection_scale=2.0) == pytest.approx(
        2.0 * expected, rel=1e-12)
    with pytest.raises(ValidationError):
        survival_probability(device, -80.0)  # gain pushes survival past one


def test_session_config_rejects_impossible_survival():
    device = DeviceParams(rep_rate_hz=1e6, detector_efficiency=1.0,
                          dark_prob=0.0, intrinsic_error=0.0)
    with pytest.raises(ValidationError):
        SessionConfig(device=device, stats=PhotonStatistics(mu=0.5, g2_zero=0.0),
                      spectrum=narrow_spectrum(), channel=flat_channel(),
                      detection_scale=1.5)


# ------------------------------------------------------------------- sift


ALICE = [
    (0, "DA", 0),  # no click
    (1, "DA", 0),  # kept, correct
    (2, "DA", 1),  # kept, error
    (3, "LR", 0),  # kept, correct, check basis
    (4, "DA", 0),  # receiver measured LR: basis mismatch
    (5, "DA", 0),  # same-basis double click
    (6, "DA", 0),  # cross-basis coincidence
    (7, "LR", 1),  # kept, correct
]
BOB = [
    (0, ()),
    (1, ("D",)),
    (2, ("D",)),
    (3, ("L",)),
    (4, ("L",)),
    (5, ("D", "A")),
    (6, ("D", "L")),
    (7, ("R",)),
]


def test_sift_discard_policy_counts():
    res = sift(ALICE, BOB, policy="discard")
    assert res.n_pulses == 8
    assert res.n_detections == 7
    assert res.kept_da == 2 and res.errors_da == 1
    assert res.kept_lr == 2 and res.errors_lr == 0
    assert res.n_basis_mismatch == 1
    assert res.n_double_discarded == 1
    assert res.n_cross_discarded == 1
    # every detected slot is accounted for exactly once
    assert res.n_detections == (res.kept_da + res.kept_lr + res.n_basis_mismatch
                                + res.n_double_discarded + res.n_cross_discarded)
    assert res.n_sifted == 4
    assert res.qber_da == pytest.approx(0.5)
    assert res.qber_lr == 0.0


def test_sift_key_basis_role_assignment():
    res = sift(ALICE, BOB, policy="discard", key_basis="DA")
    assert res.kept_da == 2 and res.e_key == 0.5
    assert res.e_check == 0.0
    swapped = sift(ALICE, BOB, policy="discard", key_basis="LR")
    assert swapped.kept_lr == 2 and swapped.e_key == 0.0
    assert swapped.e_check == pytest.approx(0.5)


def test_sift_random_policy_resolves_doubles():
    res = sift(ALICE, BOB, policy="random", rng=np.random.default_rng(1))
    assert res.n_double_discarded == 0
    assert res.kept_da == 3  # the double click lands in the matching basis
    assert res.n_detections == (res.kept_da + res.kept_lr + res.n_basis_mismatch
                                + res.n_cross_discarded)
    with pytest.raises(ValidationError):
        sift(ALICE, BOB, policy="random")  # needs an rng


def test_sift_random_policy_bit_is_fair():
    alice = [(0, "DA", 0)]
    bob = [(0, ("D", "A"))]
    errs = sum(sift(alice, bob, policy="random",
                    rng=np.random.default_rng(s)).errors_da for s in range(400))
    assert 140 < errs < 260  # fair coin at 400 draws


def test_sift_validation():
    with pytest.raises(ValidationError):
        sift(ALICE, BOB[:-1], policy="discard")
    with pytest.raises(ValidationError):
        sift(ALICE, BOB, policy="coin-flip")
    shuffled = [(9, "DA", 0)] + ALICE[1:]
    with pytest.raises(ValidationError):
        sift(shuffled, BOB)
    with pytest.raises(ValidationError):
        sift(ALICE, BOB, n_pulses=4)  # fewer pulses than records
    for alice, bob in (
        ([(0, "DA", 0)], [(0, ("X",))]),  # unknown detector label
        ([(0, "DA", 0)], [(0, ("D", "D"))]),  # one detector reported twice
        ([(0, "DA", 7)], [(0, ("D",))]),  # bit outside {0, 1}
    ):
        with pytest.raises(ValidationError):
            sift(alice, bob)



def reference_sift_counts(alice, bob, policy, rng):
    """The sifting loop written out one record at a time, as outcome counts."""
    flag = {det: 1 << i for i, det in enumerate(DETECTOR_ORDER)}
    rows = []
    for (slot_a, basis, bit), (slot_b, detections) in zip(alice, bob):
        if slot_a != slot_b:
            raise ValidationError(f"slot mismatch: {slot_a} vs {slot_b}")
        if basis not in ("DA", "LR"):
            raise ValidationError(f"unknown basis label {basis!r}")
        if bit not in (0, 1):
            raise ValidationError(f"slot {slot_a}: bit must be 0 or 1, got {bit!r}")
        mask = 0
        for det in detections:
            if not flag.get(det, 0) or flag[det] & mask:
                raise ValidationError(
                    f"slot {slot_a}: unknown or repeated detector label in {detections!r}"
                )
            mask |= flag[det]
        if mask:
            rows.append((0 if basis == "DA" else 1, bit, mask))
    basis, bits, masks = np.array(rows, dtype=np.int64).reshape(-1, 3).T
    clicks = (masks[:, None] & [1, 2, 4, 8]) != 0
    outcomes = classify(basis, bits, clicks, policy, rng)
    return np.bincount(2 * outcomes + basis, minlength=10).reshape(5, 2)


def random_records(rng, n):
    labels = [(), *CLICK_SETS]
    alice = [(slot, ("DA", "LR")[rng.integers(2)], int(rng.integers(2))) for slot in range(n)]
    bob = [(slot, labels[rng.integers(len(labels))]) for slot in range(n)]
    return alice, bob


@pytest.mark.parametrize("policy", ["discard", "random"])
def test_sift_matches_record_by_record_loop(policy):
    alice, bob = random_records(np.random.default_rng(5), 3000)
    res = sift(alice, bob, policy=policy, rng=np.random.default_rng(8))
    c = reference_sift_counts(alice, bob, policy, np.random.default_rng(8))
    assert (res.kept_da, res.errors_da) == (c[KEPT, 0] + c[ERROR, 0], c[ERROR, 0])
    assert (res.kept_lr, res.errors_lr) == (c[KEPT, 1] + c[ERROR, 1], c[ERROR, 1])
    assert res.n_basis_mismatch == c[MISMATCH].sum()
    assert res.n_double_discarded == c[DOUBLE].sum()
    assert res.n_cross_discarded == c[CROSS].sum()
    assert res.n_detections == c.sum()
    # labels given as lists are unhashable and take the same rules
    listed = [(slot, list(labels)) for slot, labels in bob]
    assert sift(alice, listed, policy=policy, rng=np.random.default_rng(8)) == res


def test_sift_raises_the_fault_of_the_first_bad_record():
    alice, bob = random_records(np.random.default_rng(6), 40)
    faults = [
        (lambda a, b, i: a.__setitem__(i, (a[i][0] + 100, *a[i][1:]))),  # slot mismatch
        (lambda a, b, i: a.__setitem__(i, (a[i][0], "HV", a[i][2]))),  # unknown basis
        (lambda a, b, i: a.__setitem__(i, (a[i][0], a[i][1], 2))),  # bit outside {0, 1}
        (lambda a, b, i: b.__setitem__(i, (b[i][0], ("D", "X")))),  # unknown label
        (lambda a, b, i: b.__setitem__(i, (b[i][0], ["L", "L"]))),  # repeated, as a list
    ]
    for (first, fault_a), (second, fault_b) in product(enumerate(faults), repeat=2):
        for i, j in ((7, 21), (21, 7), (13, 13)):
            a, b = list(alice), list(bob)
            fault_a(a, b, i)
            fault_b(a, b, j)
            with pytest.raises(ValidationError) as want:
                reference_sift_counts(a, b, "discard", None)
            with pytest.raises(ValidationError) as got:
                sift(a, b)
            assert str(got.value) == str(want.value), (first, second, i, j)

# Largest sets first, so a stray draw on a 3- or 4-click slot shifts the bits
# drawn for the same-basis doubles after it.
CLICK_SETS = [c for k in (4, 3, 2, 1) for c in combinations(DETECTOR_ORDER, k)]


def sifting_rule(detections, basis, bit, policy, draw):
    """The sifting rules written out for one slot, one detector at a time."""
    bob_bases = {b for b, pair in BASIS_STATES.items() for d in detections if d in pair}
    if len(bob_bases) > 1:
        return CROSS
    (bob_basis,) = bob_bases
    if len(detections) == 2:  # both detectors of one basis
        if policy == "discard":
            return DOUBLE
        if bob_basis != basis:
            return MISMATCH
        bob_bit = draw()
    elif bob_basis != basis:
        return MISMATCH
    else:
        bob_bit = BASIS_STATES[basis].index(detections[0])
    return KEPT if bob_bit == bit else ERROR


@pytest.mark.parametrize("policy", ["discard", "random"])
def test_classify_covers_every_click_set(policy):
    rows = list(product(CLICK_SETS, ("DA", "LR"), (0, 1)))
    assert len(rows) == 15 * 2 * 2
    alice_basis = np.array([0 if b == "DA" else 1 for _, b, _ in rows])
    bits = np.array([bit for _, _, bit in rows])
    clicks = np.array([[d in dets for d in DETECTOR_ORDER] for dets, _, _ in rows])
    got = classify(alice_basis, bits, clicks, policy, np.random.default_rng(4))
    # the classifier draws one bit per resolved double, in row order
    reference = np.random.default_rng(4)
    want = [sifting_rule(dets, basis, bit, policy, lambda: int(reference.integers(0, 2)))
            for dets, basis, bit in rows]
    assert got.tolist() == want
    assert set(want) >= {KEPT, ERROR, MISMATCH, CROSS}
    if policy == "random":
        with pytest.raises(ValidationError):
            classify(alice_basis, bits, clicks, policy, None)


def test_sift_n_pulses_override():
    res = sift(ALICE, BOB, n_pulses=1000)
    assert res.n_pulses == 1000
    assert res.n_sifted == 4
    for whole in (1000.0, np.int64(1000), np.float64(1000.0)):
        assert sift(ALICE, BOB, n_pulses=whole) == res


@pytest.mark.parametrize("n_pulses", [float("nan"), float("inf"), -float("inf"), 2.5, 1e3 + 0.5,
                                      "1000"])
def test_sift_n_pulses_must_be_a_whole_number(n_pulses):
    with pytest.raises(ValidationError, match="n_pulses must be a whole number"):
        sift(ALICE, BOB, n_pulses=n_pulses)


# (basis, bit, detector labels, labels given as a list) of one record
record_kinds = st.tuples(st.sampled_from(("DA", "LR")), st.integers(0, 1),
                         st.sampled_from([(), *CLICK_SETS]), st.booleans())


@pytest.mark.parametrize("policy", ["discard", "random"])
@settings(max_examples=80, deadline=None)
@given(kinds=st.lists(record_kinds, max_size=120), seed=st.integers(0, 2**32 - 1))
def test_sift_equals_the_reference_on_any_records(policy, kinds, seed):
    """Records given as generators, with some labels as lists, sift to the
    reference counts and consume the same generator draws."""
    alice = [(slot, basis, bit) for slot, (basis, bit, _, _) in enumerate(kinds)]
    bob = [(slot, list(labels) if listed else labels)
           for slot, (_, _, labels, listed) in enumerate(kinds)]
    rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    res = sift(iter(alice), (record for record in bob), policy=policy, rng=rng)
    c = reference_sift_counts(alice, bob, policy, reference)
    assert (res.kept_da, res.errors_da, res.kept_lr, res.errors_lr) == (
        c[KEPT, 0] + c[ERROR, 0], c[ERROR, 0], c[KEPT, 1] + c[ERROR, 1], c[ERROR, 1])
    assert (res.n_basis_mismatch, res.n_double_discarded, res.n_cross_discarded) == (
        c[MISMATCH].sum(), c[DOUBLE].sum(), c[CROSS].sum())
    assert (res.n_detections, res.n_pulses) == (c.sum(), len(kinds))
    assert rng.bit_generator.state == reference.bit_generator.state


# ------------------------------------------------------- scalar reference


def _transmit_and_measure(
    basis: str, bit: int, config: SessionConfig, rng: np.random.Generator, slot: int = 0
) -> SlotRecord:
    """Scalar single-slot reference path, kept independent of the array engine."""
    if basis not in BASIS_STATES:
        raise ValidationError(f"unknown basis label {basis!r}")
    if bit not in (0, 1):
        raise ValidationError("bit must be 0 or 1")
    state = np.array(PROTOCOL_STATES[BASIS_STATES[basis][bit]])
    p_surv = survival_probability(
        config.device, config.channel.loss_db, config.detection_scale
    )
    n_photons = sample_photon_number(config.stats, rng)
    clicks = set()
    for _ in range(n_photons):
        if rng.random() >= p_surv:
            continue
        lam = float(config.spectrum.sample(rng, 1)[0])
        out = apply_channel_rows(state[None, :], config.channel, [lam])[0]
        meas_basis = "DA" if rng.random() < config.bob_split else "LR"
        zero = stokes_of(BASIS_STATES[meas_basis][0])
        p_zero = 0.5 * (1.0 + out @ zero)
        meas_bit = 0 if rng.random() < p_zero else 1
        if rng.random() < config.device.intrinsic_error:
            meas_bit ^= 1
        clicks.add(BASIS_STATES[meas_basis][meas_bit])
    for det in DETECTOR_ORDER:
        if rng.random() < config.device.dark_prob:
            clicks.add(det)
    ordered = tuple(d for d in DETECTOR_ORDER if d in clicks)
    return SlotRecord(slot=slot, alice_basis=basis, alice_bit=bit, detections=ordered)


def test_transmit_and_measure_ideal_link():
    config = ideal_config()
    rng = np.random.default_rng(42)
    kept_labels = set()
    for slot in range(400):
        rec = _transmit_and_measure("DA", 0, config, rng, slot=slot)
        assert rec.alice_basis == "DA" and rec.alice_bit == 0
        if len(rec.detections) == 1:
            kept_labels.add(rec.detections[0])
    # no dark counts, no misalignment: a DA-basis click on the DA arm is D
    assert "A" not in kept_labels
    assert "D" in kept_labels and kept_labels <= {"D", "L", "R"}


def test_transmit_and_measure_validation():
    config = ideal_config()
    rng = np.random.default_rng(0)
    with pytest.raises(ValidationError):
        _transmit_and_measure("HV", 0, config, rng)
    with pytest.raises(ValidationError):
        _transmit_and_measure("DA", 2, config, rng)


# -------------------------------------------------------- closed-form rates


def test_closed_form_dark_only():
    device = DeviceParams(rep_rate_hz=1e6, detector_efficiency=0.5,
                          dark_prob=1e-3, intrinsic_error=0.0)
    stats = PhotonStatistics(mu=0.0, g2_zero=0.0)
    model = closed_form_rates(device, stats, channel_loss_db=10.0)
    assert model.p_signal_click == 0.0
    assert model.p_det == pytest.approx(1.0 - (1.0 - 1e-3) ** 4, rel=1e-12)
    assert model.qber_da == pytest.approx(0.5, rel=1e-9)
    assert model.qber_lr == pytest.approx(0.5, rel=1e-9)


def test_closed_form_noiseless_qber_follows_intrinsic_error():
    device = DeviceParams(rep_rate_hz=1e6, detector_efficiency=0.5,
                          dark_prob=0.0, intrinsic_error=0.009)
    stats = PhotonStatistics(mu=0.1, g2_zero=0.3)
    model = closed_form_rates(device, stats, channel_loss_db=3.0)
    assert model.qber_da == pytest.approx(0.009, rel=1e-12)
    assert model.qber_lr == pytest.approx(0.009, rel=1e-12)


def test_closed_form_misalignment_mixes_with_intrinsic_error():
    device = DeviceParams(rep_rate_hz=1e6, detector_efficiency=0.5,
                          dark_prob=0.0, intrinsic_error=0.01)
    stats = PhotonStatistics(mu=0.1, g2_zero=0.0)
    model = closed_form_rates(device, stats, channel_loss_db=3.0,
                              e_pol_da=0.02, e_pol_lr=0.0)
    # independent error channels compose as e_pol (1 - e0) + (1 - e_pol) e0
    assert model.qber_da == pytest.approx(0.02 * 0.99 + 0.98 * 0.01, rel=1e-12)
    assert model.qber_lr == pytest.approx(0.01, rel=1e-12)


def test_closed_form_rate_bookkeeping():
    device = DeviceParams(rep_rate_hz=80e6, detector_efficiency=0.375,
                          dark_prob=1e-7, intrinsic_error=0.009,
                          alice_loss_db=6.2, bob_loss_db=1.7)
    stats = PhotonStatistics(mu=4.19e-4, g2_zero=0.323)
    model = closed_form_rates(device, stats, channel_loss_db=4.0,
                              rep_rate_hz=80e6, p_da=0.7)
    assert model.sifted_fraction == pytest.approx(model.sift_da + model.sift_lr, rel=1e-12)
    assert model.sifted_bps == pytest.approx(80e6 * model.sifted_fraction, rel=1e-12)
    # key-basis share scales with the joint transmitter/receiver basis choice
    assert model.sift_da / model.sift_lr == pytest.approx(0.7 / 0.3, rel=1e-6)
    pooled = (model.sift_da * model.qber_da + model.sift_lr * model.qber_lr)
    assert model.qber_pooled == pytest.approx(pooled / model.sifted_fraction, rel=1e-12)


def test_closed_form_detection_monotone_in_loss():
    device = DeviceParams(rep_rate_hz=1e6, detector_efficiency=0.375,
                          dark_prob=1e-7, intrinsic_error=0.009)
    stats = PhotonStatistics(mu=4.19e-4, g2_zero=0.323)
    p = [closed_form_rates(device, stats, channel_loss_db=l).p_det
         for l in (0.0, 5.0, 10.0, 20.0)]
    assert p[0] > p[1] > p[2] > p[3]
    # the dark floor survives arbitrary attenuation
    assert p[3] > 1.0 - (1.0 - 1e-7) ** 4 - 1e-15


# --------------------------------------------------------------- sessions


def test_state_table_is_read_only_and_the_modulator_outputs():
    """The engine and the quadrature read one (4, 3) table in DETECTOR_ORDER;
    A keeps the modulator's residue, so it is not the negation of D."""
    table = protocol._STATE_STOKES
    assert table.shape == (4, 3) and not table.flags.writeable
    for row, label in zip(table, DETECTOR_ORDER):
        assert np.array_equal(row, phase_to_state(MODULATOR_PHASE[label]))
    assert table[1].tolist() == [0.0, -1.0, 1.2246467991473532e-16]
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 1.0


def test_run_session_refuses_pulses_beyond_the_slot_arithmetic():
    """Refused before anything is allocated; no session near the bound runs."""
    with pytest.raises(ValidationError, match="int64 slot arithmetic"):
        run_session(ideal_config(), protocol._MAX_PULSES + 1, seed=1)
    # A batch of the most gaps, each clipped to n + 1 slots, past a slot below n.
    n = protocol._MAX_PULSES
    assert n - 1 + protocol._EVENT_CHUNK * (n + 1) <= 2**63 - 1


def test_run_session_is_seed_deterministic():
    config = ideal_config(stats=PhotonStatistics(mu=0.4, g2_zero=0.2),
                          channel=flat_channel(loss_db=6.0))
    a = run_session(config, 20_000, seed=5)
    b = run_session(config, 20_000, seed=5)
    c = run_session(config, 20_000, seed=6)
    assert a.sift == b.sift
    assert a.sift != c.sift
    assert a.duration_s == pytest.approx(20_000 / 1e6)


def test_run_session_matches_closed_forms_at_three_sigma():
    device = DeviceParams(rep_rate_hz=1e6, detector_efficiency=0.25,
                          dark_prob=1e-5, intrinsic_error=0.01)
    stats = PhotonStatistics(mu=0.5, g2_zero=0.3)
    channel = flat_channel(loss_db=3.0, dgd_ps=0.3)
    spectrum = EmitterSpectrum(center_nm=1310.0, fwhm_nm=7.0, shape="gaussian")
    config = SessionConfig(device=device, stats=stats, spectrum=spectrum,
                           channel=channel)
    n = 200_000
    result = run_session(config, n, seed=11)
    model = expected_rates(config)
    for observed, p in ((result.sift.n_detections, model.p_det),
                        (result.sift.kept_da, model.sift_da),
                        (result.sift.kept_lr, model.sift_lr)):
        sigma = np.sqrt(n * p * (1.0 - p))
        assert abs(observed - n * p) < 3.0 * sigma
    for kept, errs, q in ((result.sift.kept_da, result.sift.errors_da, model.qber_da),
                          (result.sift.kept_lr, result.sift.errors_lr, model.qber_lr)):
        sigma = np.sqrt(kept * q * (1.0 - q))
        assert abs(errs - kept * q) < 3.0 * sigma


def test_run_session_engine_agrees_with_offline_sift():
    config = ideal_config(stats=PhotonStatistics(mu=0.5, g2_zero=0.2),
                          channel=flat_channel(loss_db=5.0, dgd_ps=0.2),
                          spectrum=EmitterSpectrum(center_nm=1310.0, fwhm_nm=7.0,
                                                   shape="gaussian"),
                          device=DeviceParams(rep_rate_hz=1e6,
                                              detector_efficiency=0.5,
                                              dark_prob=2e-4,
                                              intrinsic_error=0.01))
    result = run_session(config, 30_000, seed=3, record_slots=True)
    assert result.records is not None
    alice = [(r.slot, r.alice_basis, r.alice_bit) for r in result.records]
    bob = [(r.slot, r.detections) for r in result.records]
    offline = sift(alice, bob, policy="discard", key_basis=config.key_basis,
                   n_pulses=result.n_pulses)
    assert offline == result.sift


def test_run_session_windows():
    config = ideal_config(stats=PhotonStatistics(mu=0.6, g2_zero=0.0),
                          channel=flat_channel(loss_db=3.0), window_s=0.004)
    result = run_session(config, 10_000, seed=9)
    # 0.004 s at 1 MHz is 4000 pulses: two complete windows out of 10000
    assert result.windows.shape == (2, 2) and result.windows.dtype == np.int64
    assert result.windows[:, 0].sum() <= result.sift.n_sifted
    assert np.all(result.windows[:, 1] <= result.windows[:, 0])


def test_run_session_windows_tile_random_policy_session():
    noisy = DeviceParams(rep_rate_hz=1e6, detector_efficiency=0.5,
                         dark_prob=0.2, intrinsic_error=0.0)
    config = SessionConfig(device=noisy, stats=PhotonStatistics(mu=0.5, g2_zero=0.0),
                           spectrum=narrow_spectrum(), channel=flat_channel(loss_db=3.0),
                           double_click_policy="random", window_s=0.002)
    result = run_session(config, 10_000, seed=2, record_slots=True)
    # five 2000-slot windows cover every slot, so they hold every kept slot
    assert result.windows.shape == (5, 2)
    assert result.windows.sum(axis=0).tolist() == [
        result.sift.n_sifted, result.sift.errors_da + result.sift.errors_lr]
    resolved = [r for r in result.records if r.detections == BASIS_STATES[r.alice_basis]]
    assert len(resolved) > 100  # same-basis doubles kept through the random policy


def test_run_session_pattern_truncation():
    config = ideal_config(alice=AliceSettings(p_key=0.5, pattern=b"\xff" * 250))  # 1000 pulses
    result = run_session(config, 5_000, seed=1)
    assert result.truncated
    assert result.n_pulses == 1_000
    assert result.sift.n_pulses == 1_000


def test_run_session_without_sources_draws_no_events():
    config = ideal_config(stats=PhotonStatistics(mu=0.0, g2_zero=0.0))
    # nothing can fire, so there is no gap to draw (geometric(0) would raise)
    result = run_session(config, 1_000_000, seed=1, record_slots=True)
    assert result.sift.n_detections == 0 and result.records == ()
    assert result.windows.shape == (0, 2)
    windowed = run_session(replace(config, window_s=0.1), 1_000_000, seed=1)
    assert np.array_equal(windowed.windows, np.zeros((10, 2), dtype=np.int64))


def test_run_session_dark_only_link():
    device = DeviceParams(rep_rate_hz=1e6, detector_efficiency=0.5,
                          dark_prob=1e-3, intrinsic_error=0.0)
    config = ideal_config(device=device, stats=PhotonStatistics(mu=0.0, g2_zero=0.0))
    n = 1_000_000
    result = run_session(config, n, seed=4)
    model = closed_form_rates(device, config.stats, channel_loss_db=0.0)
    p = model.p_det
    assert abs(result.sift.n_detections - n * p) < 4.0 * np.sqrt(n * p * (1.0 - p))
    kept = result.sift.n_sifted
    errors = result.sift.errors_da + result.sift.errors_lr
    assert abs(errors - 0.5 * kept) < 4.0 * np.sqrt(0.25 * kept)


def every_slot_clicks_config(**overrides):
    # these probabilities sum to one plus one rounding step
    device = DeviceParams(rep_rate_hz=1e6, detector_efficiency=1.0,
                          dark_prob=0.9998946799017371, intrinsic_error=0.0)
    return ideal_config(device=device, stats=PhotonStatistics(mu=0.999, g2_zero=0.0),
                        **overrides)


def test_run_session_when_every_slot_clicks():
    result = run_session(every_slot_clicks_config(), 1_000, seed=3, record_slots=True)
    assert [r.slot for r in result.records] == list(range(1_000))


def event_heavy_config(policy):
    """The deployed link without calibration, bright and noisy: about a
    quarter of slots click and most click sets occur."""
    doc = json.loads(bundled_scenario_path("deployed-3p5km").read_text())
    del doc["calibration"]
    doc["device"].update(r_c=0.5, p_dark=2e-3, l_a=0.0, l_b=0.0, eta_det=0.6)
    doc["channel"]["l_c"] = 1.0
    doc["receiver"]["double_click_policy"] = policy
    return load_scenario(doc).config


def per_row_records(slots, basis_idx, bits, clicks):
    """Records of one batch of clicked slots, built one row at a time."""
    return [
        SlotRecord(
            slot=int(slots[i]),
            alice_basis=("DA", "LR")[int(basis_idx[i])],
            alice_bit=int(bits[i]),
            detections=tuple(DETECTOR_ORDER[d] for d in np.flatnonzero(clicks[i])),
        )
        for i in range(slots.size)
    ]


@pytest.mark.parametrize("policy", ["discard", "random"])
def test_run_session_records_equal_the_per_row_construction(policy, monkeypatch):
    batches = []
    slot_records = protocol._slot_records

    def spy(*columns):
        batches.append((slot_records(*columns), per_row_records(*columns)))
        return batches[-1][0]

    monkeypatch.setattr(protocol, "_slot_records", spy)
    result = run_session(event_heavy_config(policy), 100_000, seed=4, record_slots=True)
    assert batches and all(built == per_row for built, per_row in batches)
    assert result.records == tuple(r for built, _ in batches for r in built)
    assert len(result.records) > 20_000
    assert len({r.detections for r in result.records}) >= 10
    assert {(type(r.slot), type(r.alice_bit)) for r in result.records} == {(int, int)}


def test_run_session_pattern_bit_order():
    # 0xB1 = 10110001: pairs (1,0) (1,1) (0,0) (0,1), most significant first,
    # each the basis bit (0 for DA, 1 for LR) then the encoded bit
    config = every_slot_clicks_config(alice=AliceSettings(pattern=b"\xb1"))
    result = run_session(config, 4, seed=3, record_slots=True)
    assert [(r.slot, r.alice_basis, r.alice_bit) for r in result.records] == [
        (0, "LR", 0), (1, "LR", 1), (2, "DA", 0), (3, "DA", 1)]
    assert not result.truncated


def test_run_session_paper_length_rare_events():
    # 25,200 s at 80 MHz is 1,260 windows of 20 s; slots pass 2**31 early on
    device = DeviceParams(rep_rate_hz=80e6, detector_efficiency=0.5,
                          dark_prob=1e-10, intrinsic_error=0.01)
    config = SessionConfig(device=device, stats=PhotonStatistics(mu=4e-9, g2_zero=0.3),
                           spectrum=narrow_spectrum(), channel=flat_channel(),
                           window_s=20.0)
    n = 2_016_000_000_000
    result = run_session(config, n, seed=8, record_slots=True)
    assert result.windows.shape == (1260, 2)
    assert result.windows[:, 0].sum() == result.sift.n_sifted
    slots = np.array([r.slot for r in result.records])
    assert np.all(np.diff(slots) > 0) and slots[0] >= 0 and slots[-1] < n
    assert slots[-1] > 2**40
    p = config.rate_model(0.0, 0.0).p_det
    assert abs(result.sift.n_detections - n * p) < 5.0 * np.sqrt(n * p)


def test_run_session_pattern_bits_follow_slots():
    data = np.random.default_rng(12).integers(0, 256, size=5_000, dtype=np.uint8).tobytes()
    pairs = np.unpackbits(np.frombuffer(data, dtype=np.uint8)).reshape(-1, 2)
    config = ideal_config(stats=PhotonStatistics(mu=0.3, g2_zero=0.0),
                          channel=flat_channel(loss_db=3.0),
                          alice=AliceSettings(pattern=data))
    result = run_session(config, 15_000, seed=6, record_slots=True)
    assert not result.truncated
    assert len(result.records) > 1_000
    for rec in result.records:
        basis, bit = pairs[rec.slot]
        assert (rec.alice_basis, rec.alice_bit) == (("DA", "LR")[basis], bit)


def test_run_session_with_a_pattern_is_a_function_of_config_and_seed():
    """Every call replays the pattern from its start: a configuration holds
    no cursor that one session advances for the next."""
    data = np.random.default_rng(13).integers(0, 256, size=5_000, dtype=np.uint8).tobytes()
    config = ideal_config(stats=PhotonStatistics(mu=0.3, g2_zero=0.0),
                          channel=flat_channel(loss_db=3.0), window_s=0.001,
                          alice=AliceSettings(pattern=data))
    first, second = (run_session(config, 15_000, seed=6, record_slots=True) for _ in range(2))
    assert second.sift == first.sift and second.records == first.records
    assert np.array_equal(second.windows, first.windows) and first.windows.shape == (15, 2)
    assert not first.truncated and not second.truncated
    assert second.n_pulses == 15_000


def _outcome_table(records, policy, rng):
    """Outcome x basis counts of recorded clicked slots, basis fastest."""
    alice_basis = np.array([0 if r.alice_basis == "DA" else 1 for r in records])
    bits = np.array([r.alice_bit for r in records])
    clicks = np.array([[d in r.detections for d in DETECTOR_ORDER] for r in records])
    codes = classify(alice_basis, bits, clicks, policy, rng)
    return np.bincount(2 * codes + alice_basis, minlength=10)


@pytest.mark.parametrize("dark_prob, policy, scalar_slots", [
    (0.2, "random", 15_000),  # heavy darks: most events start with a dark count
    (0.02, "discard", 40_000),  # signal click about 4x dark: both kinds of event common
])
def test_run_session_outcomes_match_scalar_reference(dark_prob, policy, scalar_slots):
    device = DeviceParams(rep_rate_hz=1e6, detector_efficiency=0.5,
                          dark_prob=dark_prob, intrinsic_error=0.02)
    config = SessionConfig(device=device, stats=PhotonStatistics(mu=0.5, g2_zero=0.3),
                           spectrum=EmitterSpectrum(center_nm=1310.0, fwhm_nm=7.0,
                                                    shape="gaussian"),
                           channel=flat_channel(loss_db=5.0, dgd_ps=0.3),
                           double_click_policy=policy)
    engine = run_session(config, 200_000, seed=21, record_slots=True)
    rng = np.random.default_rng(22)
    scalar = []
    for slot in range(scalar_slots):
        basis = "DA" if rng.random() < 0.5 else "LR"
        rec = _transmit_and_measure(basis, int(rng.integers(0, 2)), config, rng, slot)
        if rec.detections:
            scalar.append(rec)
    table = np.array([_outcome_table(engine.records, policy, np.random.default_rng(23)),
                      _outcome_table(scalar, policy, np.random.default_rng(24))])
    table = table[:, table.sum(axis=0) > 0]
    assert table.shape[1] >= 8
    assert chi2_contingency(table).pvalue > 1e-3


def test_double_click_policies_differ_under_heavy_darks():
    noisy = DeviceParams(rep_rate_hz=1e6, detector_efficiency=0.5,
                         dark_prob=0.2, intrinsic_error=0.0)
    base = dict(device=noisy, stats=PhotonStatistics(mu=0.5, g2_zero=0.0),
                spectrum=narrow_spectrum(), channel=flat_channel(loss_db=3.0))
    discard = run_session(SessionConfig(**base, double_click_policy="discard"),
                          20_000, seed=2)
    rnd = run_session(SessionConfig(**base, double_click_policy="random"),
                      20_000, seed=2)
    assert discard.sift.n_double_discarded > 100
    assert rnd.sift.n_double_discarded == 0
    assert rnd.sift.n_sifted > discard.sift.n_sifted
    with pytest.raises(ValidationError):
        SessionConfig(**base, double_click_policy="veto")
