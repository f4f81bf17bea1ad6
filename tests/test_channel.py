"""Fiber model: detuning, concatenated birefringence, arc fitting, DGD recovery."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fiberqkd.channel
from fiberqkd.channel import (
    _BLOCK_ROWS,
    SPEED_OF_LIGHT_NM_PER_PS,
    TRAJECTORY_COLUMNS,
    FiberChannel,
    FiberSegment,
    PmdVector,
    _mean_rotation,
    _polar_angles,
    align_first_order_axis,
    apply_channel_rows,
    delta_omega,
    estimate_dgd,
    first_order_pmd,
    fit_arc,
    qber_from_pmd,
    sweep_trajectory,
    synthesize_channel,
)
from fiberqkd.cli import main as cli_main
from fiberqkd.config import bundled_scenario_path, load_scenario
from fiberqkd.documents import read_float_table
from fiberqkd.emitter import SPECTRUM_SHAPES, EmitterSpectrum
from fiberqkd.errors import ValidationError
from fiberqkd.polarization import (
    PROTOCOL_STATES,
    _rodrigues,
    require_unit,
    rotate_rows,
    rotation_taking,
    stokes_of,
)
from test_polarization import (
    _perpendicular_unit_cross,
    _rotate_cross,
    random_unit,
    rotate,
    rotate_rows_one_axis,
)


def single_segment(dgd_ps=0.117, axis=(1.0, 0.0, 0.0), reference_nm=1310.0):
    seg = FiberSegment(axis=axis, dgd_ps=dgd_ps)
    return FiberChannel(segments=(seg,), loss_db=0.0, length_km=3.5,
                        reference_nm=reference_nm)


def test_delta_omega_frozen_anchors():
    # recomputed independently from 2*pi*c*(1/l - 1/l0) with c = 299792.458 nm/ps
    assert delta_omega(1313.5, 1310.0) == pytest.approx(-3.8314859986463747, rel=1e-14)
    assert delta_omega(1306.5, 1313.5) == pytest.approx(7.683500433565772, rel=1e-14)
    assert delta_omega(1310.0, 1310.0) == 0.0
    assert SPEED_OF_LIGHT_NM_PER_PS == pytest.approx(299792.458)


def test_delta_omega_sign_and_validation():
    assert delta_omega(1305.0, 1310.0) > 0.0  # shorter wavelength, higher frequency
    with pytest.raises(ValidationError):
        delta_omega(-1.0, 1310.0)
    with pytest.raises(ValidationError):
        delta_omega(1310.0, 0.0)


def test_delta_omega_of_an_array_is_each_wavelengths_own_detuning():
    lam = np.linspace(1290.0, 1330.0, 41)
    assert delta_omega(lam, 1309.5).tolist() == [delta_omega(x, 1309.5) for x in lam]
    with pytest.raises(ValidationError):
        delta_omega(np.array([1310.0, 0.0]), 1309.5)


def test_channel_is_identity_at_reference_wavelength():
    ch = synthesize_channel(0.4, 10.0, 30, seed=2, reference_nm=1309.5)
    rng = np.random.default_rng(0)
    for _ in range(5):
        s = random_unit(rng)
        assert np.allclose(_apply_channel(s, ch, 1309.5), s, atol=1e-12)


def test_channel_preserves_unit_norm_across_band():
    ch = synthesize_channel(0.46, 32.5, 20, seed=8)
    states = np.array([stokes_of(k) for k in ("D", "A", "L", "R")])
    for wl in np.linspace(1290.0, 1330.0, 9):
        out = apply_channel_rows(states, ch, np.full(4, wl))
        assert np.allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("wavelength", [1e-310, math.nan])
def test_a_wavelength_without_a_finite_detuning_is_refused(wavelength):
    """A subnormal wavelength overflows 1 / lambda: an error naming it, not
    an overflow warning or an infinite detuning."""
    with pytest.raises(ValidationError, match=f"wavelength {wavelength} nm has no finite"):
        delta_omega([1310.0, wavelength], 1310.0)


def test_apply_channel_rows_matches_scalar_path():
    ch = synthesize_channel(0.2, 5.0, 12, seed=5)
    rng = np.random.default_rng(1)
    states = np.array([random_unit(rng) for _ in range(6)])
    wls = rng.uniform(1300.0, 1320.0, size=6)
    rows = apply_channel_rows(states, ch, wls)
    for i in range(6):
        assert np.allclose(rows[i], _apply_channel(states[i], ch, wls[i]), atol=1e-12)


def _apply_channel(state, channel: FiberChannel, wavelength_nm: float) -> np.ndarray:
    """Propagate one Stokes vector through the channel at one wavelength."""
    dw = delta_omega(wavelength_nm, channel.reference_nm)
    out = require_unit(state, "state")
    for seg in channel.segments:
        out = rotate(out, np.array(seg.axis), seg.dgd_ps * dw)
    return out


def _unblocked_channel_rows(states, channel, wavelengths_nm):
    """apply_channel_rows in one pass over all rows, cos and sin per segment."""
    lam = np.asarray(wavelengths_nm, dtype=float)
    dw = 2.0 * np.pi * SPEED_OF_LIGHT_NM_PER_PS * (1.0 / lam - 1.0 / channel.reference_nm)
    out = np.array(states, dtype=float)
    for seg in channel.segments:
        angle = seg.dgd_ps * dw
        out = rotate_rows(out, np.array(seg.axis), np.cos(angle), np.sin(angle))
    return out / np.linalg.norm(out, axis=1, keepdims=True)


def _channel_rows_per_segment(states, channel, wavelengths_nm):
    """apply_channel_rows as it was: blocks, trig once per distinct delay, and
    one single-axis rotation call per segment."""
    out = np.array(states, dtype=float)
    dw = delta_omega(np.asarray(wavelengths_nm, dtype=float), channel.reference_nm)
    for start in range(0, len(out), _BLOCK_ROWS):
        block = out[start : start + _BLOCK_ROWS]
        w = dw[start : start + _BLOCK_ROWS]
        trig = {}
        for seg in channel.segments:
            if seg.dgd_ps not in trig:
                angle = seg.dgd_ps * w
                trig[seg.dgd_ps] = (np.cos(angle), np.sin(angle))
            block = rotate_rows_one_axis(block, np.array(seg.axis), *trig[seg.dgd_ps])
        out[start : start + _BLOCK_ROWS] = block
    norms = np.linalg.norm(out, axis=1, keepdims=True)
    return out / norms


def _synthesized_per_segment(pmd_param, length_km, n_segments, seed):
    """synthesize_channel's segments as they were drawn: three normals per segment."""
    rng = np.random.default_rng(seed)
    per_segment = pmd_param * np.sqrt(length_km) / np.sqrt(n_segments)
    return tuple(FiberSegment(axis=tuple(random_unit(rng)), dgd_ps=float(per_segment))
                 for _ in range(n_segments))


def _mixed_delay_channel():
    """Spelled-out segments whose delays are partly repeated, partly distinct."""
    rng = np.random.default_rng(17)
    delays = (0.05, 0.05, 0.12, 0.05, 0.3, 0.12, 0.0, 0.07, 0.3, 0.011)
    segs = tuple(FiberSegment(axis=tuple(random_unit(rng)), dgd_ps=d) for d in delays)
    return FiberChannel(segments=segs, loss_db=0.0, length_km=2.0, reference_nm=1309.5)


def _random_rows(n, seed):
    rng = np.random.default_rng(seed)
    states = rng.normal(size=(n, 3))
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    return states, rng.uniform(1290.0, 1330.0, size=n)


@pytest.mark.parametrize("n_rows", [1, _BLOCK_ROWS - 1, _BLOCK_ROWS + 1, 3 * _BLOCK_ROWS])
@pytest.mark.parametrize("channel", [
    synthesize_channel(0.0625391306075073, 3.5, 20, seed=14, reference_nm=1309.5),
    _mixed_delay_channel(),
], ids=["synthesized", "mixed-delays"])
def test_blocked_channel_rows_equal_one_unblocked_pass(n_rows, channel):
    states, lam = _random_rows(n_rows, seed=n_rows)
    assert np.array_equal(apply_channel_rows(states, channel, lam),
                          _unblocked_channel_rows(states, channel, lam))


@settings(max_examples=15, deadline=None)
@given(n_rows=st.integers(0, 3 * _BLOCK_ROWS), seed=st.integers(0, 2**32 - 1))
def test_blocked_channel_rows_equal_unblocked_for_any_row_count(n_rows, seed):
    channel = _mixed_delay_channel()
    states, lam = _random_rows(n_rows, seed)
    assert np.array_equal(apply_channel_rows(states, channel, lam),
                          _unblocked_channel_rows(states, channel, lam))


_CASCADE_CHANNELS = {
    "deployed": lambda: load_scenario("deployed-3p5km").config.channel,
    "spool": lambda: load_scenario("spool-32p5km").config.channel,
    "mixed-delays": _mixed_delay_channel,
    "one-segment": lambda: single_segment(axis=(0.6, 0.0, 0.8), reference_nm=1309.5),
    "no-segments": lambda: FiberChannel(segments=(), loss_db=0.0, length_km=1.0,
                                        reference_nm=1309.5),
}


@pytest.mark.parametrize("n_rows", [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS + 1])
@pytest.mark.parametrize("name", list(_CASCADE_CHANNELS))
def test_channel_rows_equal_the_per_segment_cascade(name, n_rows):
    channel = _CASCADE_CHANNELS[name]()
    states, lam = _random_rows(n_rows, seed=n_rows + 3)
    out = apply_channel_rows(states, channel, lam)
    assert out.shape == (n_rows, 3)
    assert np.array_equal(out, _channel_rows_per_segment(states, channel, lam))


@settings(max_examples=40, deadline=None)
@given(
    n_rows=st.integers(0, 400),
    delays=st.lists(st.sampled_from([0.0, 0.011, 0.05, 0.3, 2.5]), min_size=1, max_size=25),
    reference_nm=st.floats(1290.0, 1330.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_channel_rows_equal_the_per_segment_cascade_on_any_channel(
    n_rows, delays, reference_nm, seed
):
    rng = np.random.default_rng(seed)
    segments = tuple(FiberSegment(axis=tuple(random_unit(rng)), dgd_ps=d) for d in delays)
    channel = FiberChannel(segments=segments, loss_db=0.0, length_km=1.0,
                           reference_nm=reference_nm)
    states, lam = _random_rows(n_rows, seed)
    assert np.array_equal(apply_channel_rows(states, channel, lam),
                          _channel_rows_per_segment(states, channel, lam))


@pytest.mark.parametrize("n_segments", [1, 2, 20, 31])
def test_synthesized_segments_equal_the_per_segment_draws(n_segments):
    for seed in range(30):
        channel = synthesize_channel(0.46, 3.5, n_segments, seed=seed)
        reference = _synthesized_per_segment(0.46, 3.5, n_segments, seed)
        assert channel.segments == reference
        for seg, ref in zip(channel.segments, reference):
            assert [type(x) for x in seg.axis] == [type(x) for x in ref.axis]
            assert type(seg.dgd_ps) is type(ref.dgd_ps)


@pytest.mark.parametrize("name", ["deployed-3p5km", "spool-32p5km"])
def test_bundled_channels_equal_the_per_segment_synthesis(name):
    spec = json.loads(bundled_scenario_path(name).read_text())["channel"]
    s = spec["synthesize"]
    reference = FiberChannel(
        segments=_synthesized_per_segment(s["pmd_param"], s["length_km"], s["n_segments"],
                                          s["seed"]),
        loss_db=spec["l_c"], length_km=s["length_km"], reference_nm=spec["reference_nm"],
    )
    if "align_first_order_axis_to" in spec:
        reference = align_first_order_axis(reference, spec["align_first_order_axis_to"])
    assert load_scenario(name).config.channel == reference


def test_apply_channel_rows_needs_one_wavelength_per_row():
    ch = single_segment()
    with pytest.raises(ValidationError):
        apply_channel_rows(np.tile(stokes_of("D"), (3, 1)), ch, [1310.0, 1311.0])


def test_apply_channel_rows_refuses_a_non_finite_rotation_angle():
    """A delay times a detuning past the float range is an error naming the
    delay, and a NaN wavelength one naming the wavelength, not NaN rows or a
    numpy overflow warning."""
    segments = (FiberSegment(axis=(0.0, 1.0, 0.0), dgd_ps=0.117),
                FiberSegment(axis=(1.0, 0.0, 0.0), dgd_ps=1e308))
    ch = FiberChannel(segments=segments, loss_db=0.0, length_km=3.5, reference_nm=1310.0)
    states = np.tile(stokes_of("D"), (3, 1))
    with pytest.raises(ValidationError, match=r"segment delay 1e\+308 ps times the detuning"):
        apply_channel_rows(states, ch, [1306.5, 1310.0, 1313.5])
    with pytest.raises(ValidationError, match="wavelength nan nm has no finite detuning"):
        apply_channel_rows(states, single_segment(), [1306.5, math.nan, 1313.5])
    # At the reference wavelength every angle is zero, however long the delay.
    assert apply_channel_rows(states[:1], ch, [1310.0]).tolist() == [stokes_of("D").tolist()]
    # A detuning in a later block of rows is checked too.
    lam = np.full(_BLOCK_ROWS + 1, 1310.0)
    lam[-1] = 1306.5
    with pytest.raises(ValidationError, match="1e\\+308"):
        apply_channel_rows(np.tile(stokes_of("D"), (len(lam), 1)), ch, lam)


def test_first_order_pmd_is_segment_vector_sum():
    segs = (FiberSegment(axis=(1.0, 0.0, 0.0), dgd_ps=0.3),
            FiberSegment(axis=(0.0, 1.0, 0.0), dgd_ps=0.4))
    ch = FiberChannel(segments=segs, loss_db=0.0, length_km=1.0, reference_nm=1310.0)
    fo = first_order_pmd(ch)
    assert isinstance(fo, PmdVector)
    assert fo.dgd_ps == pytest.approx(0.5, rel=1e-12)
    assert np.allclose(fo.axis, (0.6, 0.8, 0.0), atol=1e-12)


def test_first_order_pmd_equals_the_segment_by_segment_sum():
    """The vector sum over the rows of the delay table has the bits of a loop
    that adds one segment after another."""
    rng = np.random.default_rng(12)
    for seed in range(200):
        n = int(rng.integers(1, 64))
        channel = synthesize_channel(0.46, 3.5, n, seed=seed)
        if seed % 2:  # own delays per segment
            segments = tuple(FiberSegment(axis=seg.axis, dgd_ps=float(d))
                             for seg, d in zip(channel.segments, rng.uniform(0.0, 2.0, n)))
            channel = FiberChannel(segments=segments, loss_db=0.0, length_km=1.0,
                                   reference_nm=1310.0)
        total = np.zeros(3)
        for seg in channel.segments:
            total += seg.dgd_ps * np.array(seg.axis)
        dgd = float(np.linalg.norm(total))
        assert first_order_pmd(channel) == PmdVector(axis=tuple(total / dgd), dgd_ps=dgd)


@pytest.mark.parametrize("dgd_ps", [math.inf, -0.1, math.nan])
def test_segment_delay_must_be_finite_and_non_negative(dgd_ps):
    with pytest.raises(ValidationError, match="segment delay must be finite and non-negative"):
        FiberSegment(axis=(1.0, 0.0, 0.0), dgd_ps=dgd_ps)


def test_an_overflowing_first_order_delay_is_refused():
    segs = (FiberSegment(axis=(0.0, 1.0, 0.0), dgd_ps=1e308),) * 2
    ch = FiberChannel(segments=segs, loss_db=0.0, length_km=1.0, reference_nm=1310.0)
    with pytest.raises(ValidationError, match="channel first-order delay overflows"):
        first_order_pmd(ch)
    with pytest.raises(ValidationError, match="channel first-order delay overflows"):
        align_first_order_axis(synthesize_channel(1e200, 3.5, 20, seed=14), "D")
    with pytest.raises(ValidationError, match="channel segment delay overflows"):
        synthesize_channel(1e308, 3.5, 20, seed=14)


def test_synthesize_channel_segment_statistics():
    ch = synthesize_channel(0.46, 32.5, 25, seed=3, loss_db=11.2)
    assert len(ch.segments) == 25
    per = 0.46 * np.sqrt(32.5) / np.sqrt(25)
    for seg in ch.segments:
        assert seg.dgd_ps == pytest.approx(per, rel=1e-12)
        assert np.linalg.norm(seg.axis) == pytest.approx(1.0, abs=1e-12)
    assert ch.loss_db == 11.2


def test_synthesis_is_seed_deterministic():
    a = synthesize_channel(0.1, 3.5, 20, seed=14)
    b = synthesize_channel(0.1, 3.5, 20, seed=14)
    c = synthesize_channel(0.1, 3.5, 20, seed=15)
    assert all(np.allclose(x.axis, y.axis) for x, y in zip(a.segments, b.segments))
    assert not all(np.allclose(x.axis, y.axis) for x, y in zip(a.segments, c.segments))


@pytest.mark.parametrize("n_segments, seed", [(0, 14), (20, -1)], ids=["no-segments", "negative-seed"])
def test_synthesis_rejects_bad_counts(n_segments, seed):
    with pytest.raises(ValidationError):
        synthesize_channel(0.1, 3.5, n_segments, seed=seed)


def test_align_first_order_axis():
    ch = synthesize_channel(0.3, 8.0, 16, seed=9)
    aligned = align_first_order_axis(ch, "D")
    fo = first_order_pmd(aligned)
    assert np.allclose(fo.axis, stokes_of("D"), atol=1e-9)
    # alignment is a frame change; the total first-order magnitude is untouched
    assert fo.dgd_ps == pytest.approx(first_order_pmd(ch).dgd_ps, rel=1e-12)


def _align_by_scalar_rotations(channel, target):
    """Segment axes after alignment, one scalar rotate call per segment."""
    axis, angle = rotation_taking(np.array(first_order_pmd(channel).axis), stokes_of(target))
    return [tuple(rotate(np.array(seg.axis), axis, angle)) for seg in channel.segments]


def test_align_first_order_axis_matches_scalar_rotations():
    for seed in range(120):
        ch = synthesize_channel(0.3, 8.0, 20, seed=seed)
        for target in ("D", "L", "H"):
            aligned = align_first_order_axis(ch, target)
            assert [seg.axis for seg in aligned.segments] == _align_by_scalar_rotations(ch, target)
            assert [seg.dgd_ps for seg in aligned.segments] == [seg.dgd_ps for seg in ch.segments]


def test_sweep_trajectory_shape_and_validation():
    ch = single_segment()
    traj = sweep_trajectory(ch, stokes_of("D"), 1306.5, 1313.5, 16)
    assert traj.shape == (16, 4) and traj.dtype == np.float64
    assert traj[0, 0] == 1306.5 and traj[-1, 0] == 1313.5
    for start, stop, n_points in ((1313.5, 1306.5, 16), (1306.5, 1313.5, 1), (0.0, 1313.5, 3),
                                  (1306.5, np.inf, 3), (np.nan, 1313.5, 3)):
        with pytest.raises(ValidationError):
            sweep_trajectory(ch, stokes_of("D"), start, stop, n_points)


def test_arc_fit_equatorial_anchor():
    """0.117 ps across a 7 nm window at 1310 nm: 51.507 degree arc, recovered exactly."""
    ch = single_segment()
    fit = fit_arc(sweep_trajectory(ch, stokes_of("D"), 1306.5, 1313.5, 64))
    assert not fit.degenerate
    assert np.degrees(fit.polar_angle_rad) == pytest.approx(90.0, abs=1e-9)
    # frozen: dgd * |delta_omega(1306.5, 1313.5)| in degrees
    assert np.degrees(fit.central_angle_rad) == pytest.approx(51.507161167440046, rel=1e-10)
    assert estimate_dgd(fit.central_angle_rad, 7.0, 1310.0) == pytest.approx(0.117, rel=1e-10)
    assert fit.rms_residual_rad < 1e-9


def test_arc_fit_axis_sign_from_any_equatorial_probe():
    # all four equatorial probes of an +x birefringence axis agree on the axis sign
    ch = single_segment()
    for label in ("D", "A", "L", "R"):
        fit = fit_arc(sweep_trajectory(ch, stokes_of(label), 1306.5, 1313.5, 48))
        assert np.allclose(fit.axis, (1.0, 0.0, 0.0), atol=1e-8)


def test_arc_fit_off_equator_probe():
    # 45 degree cone: same rotation angle, arc length shorter by sin(45 deg)
    ch = single_segment()
    probe = np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0)
    fit = fit_arc(sweep_trajectory(ch, probe, 1306.5, 1313.5, 48))
    assert np.degrees(fit.polar_angle_rad) == pytest.approx(45.0, abs=1e-6)
    assert np.degrees(fit.rotation_angle_rad) == pytest.approx(51.507161167440046, rel=1e-8)
    expected_arc = np.radians(51.507161167440046) * np.sin(np.radians(45.0))
    assert fit.central_angle_rad == pytest.approx(expected_arc, rel=1e-8)


def test_arc_fit_multi_turn_unwrap():
    # 2 ps over 7 nm winds ~2.4 turns; dense sampling keeps the unwrap honest
    ch = single_segment(dgd_ps=2.0)
    fit = fit_arc(sweep_trajectory(ch, stokes_of("D"), 1306.5, 1313.5, 256))
    assert estimate_dgd(fit.central_angle_rad, 7.0, 1310.0) == pytest.approx(2.0, rel=1e-9)


def test_arc_fit_handles_measurement_noise():
    rng = np.random.default_rng(21)
    ch = single_segment()
    noisy = sweep_trajectory(ch, stokes_of("D"), 1306.5, 1313.5, 64)
    for s in noisy[:, 1:]:
        # ~0.3 degree angular jitter per point
        jitter = 0.005
        axis = random_unit(rng)
        s[:] = s * np.cos(jitter) + np.cross(axis, s) * np.sin(jitter)
        s /= np.linalg.norm(s)
    fit = fit_arc(noisy)
    assert fit.rms_residual_rad > 0.0
    assert estimate_dgd(fit.central_angle_rad, 7.0, 1310.0) == pytest.approx(0.117, rel=0.05)


def test_arc_fit_degenerate_cases():
    ch = single_segment(dgd_ps=0.0)
    fit = fit_arc(sweep_trajectory(ch, stokes_of("D"), 1306.5, 1313.5, 8))
    assert fit.degenerate
    # probe on the rotation axis never moves
    ch = single_segment()
    fit = fit_arc(sweep_trajectory(ch, stokes_of("H"), 1306.5, 1313.5, 8))
    assert fit.degenerate
    with pytest.raises(ValidationError):
        fit_arc(sweep_trajectory(ch, stokes_of("D"), 1306.5, 1313.5, 8)[:2])


def test_arc_fit_takes_an_n_by_4_trajectory():
    traj = sweep_trajectory(single_segment(), stokes_of("D"), 1306.5, 1313.5, 8)
    for bad in (traj[:, 1:], traj.ravel(), traj[None], np.hstack((traj, traj[:, :1]))):
        with pytest.raises(ValidationError):
            fit_arc(bad)
    assert fit_arc(traj.tolist()) == fit_arc(traj)


def _random_sweeps(n_channels):
    rng = np.random.default_rng(31)
    for seed in range(n_channels):
        ch = synthesize_channel(rng.uniform(0.02, 1.0), 3.5, int(rng.integers(1, 25)), seed)
        yield sweep_trajectory(ch, random_unit(rng), 1306.0, 1313.0, int(rng.integers(3, 200)))
    ch = single_segment()
    yield sweep_trajectory(ch, stokes_of("H"), 1306.5, 1313.5, 16)  # on the axis
    yield sweep_trajectory(ch, np.array([1.0, 1e-7, 0.0]) / np.hypot(1.0, 1e-7),
                           1306.5, 1313.5, 16)  # a circle of radius 1e-7


def test_arc_fit_equals_fit_on_np_cross_rotations(monkeypatch):
    """The scalar rotations give the fit of the np.cross forms to the last bit."""
    sweeps = list(_random_sweeps(24))
    fits = [fit_arc(points) for points in sweeps]
    assert [fit.degenerate for fit in fits[-2:]] == [True, True]
    monkeypatch.setattr(fiberqkd.channel, "_rodrigues", _rotate_cross)
    monkeypatch.setattr(fiberqkd.channel, "cross", np.cross)
    monkeypatch.setattr(fiberqkd.channel, "perpendicular_unit", _perpendicular_unit_cross)
    assert [fit_arc(points) for points in sweeps] == fits


def _least_squares_axis(pts, seed_axis, e1, e2):
    """fit_arc's axis refinement as it was written on scipy's MINPACK least_squares."""
    from scipy.optimize import least_squares

    def axis_of(params):
        tilt1, tilt2 = params
        return _rodrigues(_rodrigues(seed_axis, e1, tilt1), e2, tilt2)

    def residual(params):
        beta = _polar_angles(pts, axis_of(params))
        return beta - np.add.reduce(beta) / beta.size

    return axis_of(least_squares(residual, x0=[0.0, 0.0], method="lm").x)


def _oracle_fit(points):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fiberqkd.channel, "_refine_axis", _least_squares_axis)
        return fit_arc(points)


def _single_segment_sweeps(n):
    """Benchmark-like sweeps: one segment of 0.01-2 ps, 32-256 points, wide arcs."""
    rng = np.random.default_rng(41)
    for _ in range(n):
        axis = random_unit(rng)
        probe = random_unit(rng)
        while abs(probe @ axis) > 0.99:  # keep the cone open, as perfbench's probes do
            probe = random_unit(rng)
        ch = single_segment(dgd_ps=float(10.0 ** rng.uniform(-2.0, np.log10(2.0))),
                            axis=tuple(axis), reference_nm=1309.5)
        yield sweep_trajectory(ch, probe, 1306.0, 1313.0, int(rng.integers(32, 257)))


def _rough_sweeps(n):
    """Multi-segment sweeps, every other one with ~0.6 degree jitter on each point."""
    rng = np.random.default_rng(43)
    for seed in range(n):
        ch = synthesize_channel(rng.uniform(0.02, 1.0), 3.5, int(rng.integers(2, 25)), seed)
        traj = sweep_trajectory(ch, random_unit(rng), 1306.0, 1313.0,
                                int(rng.integers(3, 200)))
        if seed % 2:
            traj[:, 1:] = [rotate(s, random_unit(rng), 0.01 * rng.standard_normal())
                           for s in traj[:, 1:]]
        yield traj


def test_gauss_newton_arc_fit_equals_least_squares_on_single_segments():
    """On an exact arc both fits reach the circle; every field agrees to 1e-12."""
    for points in _single_segment_sweeps(100):
        fit, oracle = fit_arc(points), _oracle_fit(points)
        assert fit.degenerate == oracle.degenerate
        assert fit.n_points == oracle.n_points
        assert np.allclose(fit.axis, oracle.axis, rtol=0.0, atol=1e-12)
        for name in ("polar_angle_rad", "rotation_angle_rad", "central_angle_rad"):
            assert getattr(fit, name) == pytest.approx(getattr(oracle, name), rel=1e-12)
        # The spread of an exact arc is rounding noise in both fits.
        assert fit.rms_residual_rad == pytest.approx(oracle.rms_residual_rad, abs=1e-12)


def test_gauss_newton_arc_fit_objective_never_above_least_squares():
    """Off an exact circle MINPACK may stop early on a flat objective; the
    Gauss-Newton fit's spread of polar angles is never the larger one."""
    for points in _rough_sweeps(100):
        fit, oracle = fit_arc(points), _oracle_fit(points)
        assert fit.degenerate == oracle.degenerate
        assert fit.rms_residual_rad**2 <= oracle.rms_residual_rad**2 * (1.0 + 1e-9)


_unit_vectors = st.tuples(*[st.floats(-1.0, 1.0, allow_nan=False)] * 3).filter(
    lambda v: np.linalg.norm(v) > 1e-3
).map(lambda v: np.array(v) / np.linalg.norm(v))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n_points=st.integers(8, 256),
    jitter=st.sampled_from([0.0, 0.005]),
    turn_axis=_unit_vectors,
    turn_angle=st.floats(-np.pi, np.pi, allow_nan=False),
)
def test_arc_fit_invariant_under_rigid_rotation(seed, n_points, jitter, turn_axis, turn_angle):
    """Turning every point of an arc by one rotation turns the fitted axis with
    it and leaves the angles.

    With jitter on the points the objective is flat along the arc's own
    plane, so its minimum moves by ~1e-8 with rounding of the points; there
    only the minimal spread is compared.
    """
    rng = np.random.default_rng(seed)
    axis = random_unit(rng)
    probe = random_unit(rng)
    while abs(probe @ axis) > 0.99:
        probe = random_unit(rng)
    ch = single_segment(dgd_ps=float(10.0 ** rng.uniform(-2.0, np.log10(2.0))),
                        axis=tuple(axis), reference_nm=1309.5)
    points = sweep_trajectory(ch, probe, 1306.0, 1313.0, n_points)
    points[:, 1:] = [rotate(s, random_unit(rng), jitter * rng.standard_normal())
                     for s in points[:, 1:]]
    turned = points.copy()
    turned[:, 1:] = [rotate(s, turn_axis, turn_angle) for s in points[:, 1:]]
    fit, fit_turned = fit_arc(points), fit_arc(turned)
    assert fit_turned.degenerate == fit.degenerate
    assert fit_turned.rms_residual_rad == pytest.approx(fit.rms_residual_rad,
                                                        rel=1e-9, abs=1e-12)
    if jitter == 0.0:
        assert np.allclose(fit_turned.axis, rotate(fit.axis, turn_axis, turn_angle),
                           rtol=0.0, atol=1e-9)
        for name in ("polar_angle_rad", "rotation_angle_rad", "central_angle_rad"):
            assert getattr(fit_turned, name) == pytest.approx(getattr(fit, name), rel=1e-9)


@pytest.mark.parametrize("column, value", [
    (1, np.nan),
    (2, np.inf),
    (0, np.nan),
    (0, np.inf),
], ids=["stokes-nan", "stokes-inf", "wavelength-nan", "wavelength-inf"])
def test_arc_fit_rejects_non_finite_points(column, value):
    traj = sweep_trajectory(single_segment(), stokes_of("D"), 1306.5, 1313.5, 16)
    traj[5, column] = value
    with pytest.raises(ValidationError):
        fit_arc(traj)


def test_rotation_angle_and_estimate_are_inverses():
    for dgd in (0.01, 0.117, 0.5, 2.0):
        ang = dgd * abs(delta_omega(1313.5, 1306.5))
        assert estimate_dgd(ang, 7.0, 1310.0) == pytest.approx(dgd, rel=1e-12)


def test_qber_from_pmd_rectangular_anchor():
    """Equatorial probe against an +x axis, flat 7 nm spectrum at 1310 nm.

    Uniform detuning average of (1 - cos(dgd*w))/2 has the closed form
    1/2 - sin(theta/2)/theta with theta the full-span rotation angle; the
    quadrature over wavelength must land on it to curvature accuracy.
    """
    ch = single_segment()
    spec = EmitterSpectrum(center_nm=1310.0, fwhm_nm=7.0, shape="rectangular")
    q = qber_from_pmd(stokes_of("D"), ch, spec, n_samples=2001)
    theta = 0.117 * abs(delta_omega(1313.5, 1306.5))
    closed = 0.5 - np.sin(theta / 2.0) / theta
    assert q == pytest.approx(closed, rel=2e-4)
    assert q == pytest.approx(0.016667098250207048, rel=1e-9)  # frozen quadrature


def test_qber_vanishes_for_probe_on_the_axis():
    ch = single_segment()
    spec = EmitterSpectrum(center_nm=1310.0, fwhm_nm=7.0, shape="gaussian")
    assert qber_from_pmd(stokes_of("H"), ch, spec) < 1e-12


def test_qber_grows_with_linewidth():
    ch = single_segment(dgd_ps=0.3)
    qs = [qber_from_pmd(stokes_of("D"), ch,
                        EmitterSpectrum(center_nm=1310.0, fwhm_nm=w, shape="gaussian"))
          for w in (1.0, 4.0, 8.0)]
    assert qs[0] < qs[1] < qs[2]


def test_qber_sample_floor():
    ch = single_segment()
    spec = EmitterSpectrum(center_nm=1310.0, fwhm_nm=7.0, shape="gaussian")
    with pytest.raises(ValidationError):
        qber_from_pmd(stokes_of("D"), ch, spec, n_samples=50)


@pytest.mark.parametrize("shape", SPECTRUM_SHAPES)
def test_qber_equal_for_antipodal_states(shape):
    """Exact antipodes leave the channel as exact negations, so their errors are equal."""
    spec = EmitterSpectrum(center_nm=1309.5, fwhm_nm=7.0, shape=shape)
    for seed in range(5):
        ch = synthesize_channel(0.3, 10.0, 20, seed=seed, reference_nm=1309.5)
        for a, b in (("D", "A"), ("L", "R"), ("H", "V")):
            assert qber_from_pmd(stokes_of(a), ch, spec) == qber_from_pmd(stokes_of(b), ch, spec)


@pytest.mark.parametrize("shape", SPECTRUM_SHAPES)
def test_qber_of_a_state_stack_is_each_states_own_error(shape):
    """A state in a stack gets the bits it gets alone."""
    # The protocol states come from cos/sin of the modulator phases, so A is
    # not the exact negation of D and its error is computed, not copied.
    assert not np.array_equal(PROTOCOL_STATES["A"], -np.array(PROTOCOL_STATES["D"]))
    spec = EmitterSpectrum(center_nm=1309.5, fwhm_nm=7.0, shape=shape)
    states = [np.array(PROTOCOL_STATES[lbl]) for lbl in ("D", "A", "L", "R")]
    for seed in range(5):
        ch = synthesize_channel(0.3, 10.0, 20, seed=seed, reference_nm=1309.5)
        single = [qber_from_pmd(s, ch, spec) for s in states]
        assert all(type(v) is float for v in single)
        stacked = qber_from_pmd(states, ch, spec)
        assert stacked.shape == (4,)
        assert stacked.tolist() == single
        assert qber_from_pmd(states[2:], ch, spec).tolist() == single[2:]
    with pytest.raises(ValidationError):
        qber_from_pmd(np.empty((0, 3)), ch, spec)
    with pytest.raises(ValidationError):
        qber_from_pmd([stokes_of("D"), [1.0, 1.0, 0.0]], ch, spec)


@pytest.mark.parametrize("name", ["deployed-3p5km", "spool-32p5km"])
def test_mean_rotation_is_the_mean_of_the_scalar_cascade(name):
    """Column j of the matrix is the trapezoid mean of R(lambda) e_j, each
    R(lambda) e_j taken through the channel one segment at a time."""
    config = load_scenario(name).config
    lo, hi = config.spectrum.support()
    lam = np.linspace(lo, hi, 201)
    weights = config.spectrum.density(lam)
    columns = [np.trapezoid(weights[:, None] * [_apply_channel(e, config.channel, x)
                                                for x in lam], lam, axis=0)
               for e in np.eye(3)]
    reference = np.array(columns).T / np.trapezoid(weights, lam)
    mean = _mean_rotation(config.channel, config.spectrum, 201)
    assert np.abs(mean - reference).max() <= 1e-15


def test_mean_rotation_of_one_segment_closed_form():
    """A flat 7 nm spectrum about an +x axis: the x axis stays, and the
    cosine of the rotation angle averages to sin(theta/2)/(theta/2) over the
    span's full angle theta, within twice the trapezoid rule's error bound
    theta^2 / (12 (n - 1)^2) on 201 points."""
    spec = EmitterSpectrum(center_nm=1310.0, fwhm_nm=7.0, shape="rectangular")
    mean = _mean_rotation(single_segment(), spec, 201)
    theta = 0.117 * abs(delta_omega(1313.5, 1306.5))
    sinc = np.sin(theta / 2.0) / (theta / 2.0)
    assert np.abs(mean[0] - [1.0, 0.0, 0.0]).max() <= 1e-15
    assert np.abs(mean[1:, 0]).max() <= 1e-15
    assert mean[1, 1] == mean[2, 2] == pytest.approx(sinc, rel=2.0 * theta**2 / (12 * 200**2))
    # The sine averages to zero on a detuning band symmetric about the
    # reference; 1/lambda leaves a residue far below the cosine's mean.
    assert mean[2, 1] == -mean[1, 2]
    assert 0.0 < mean[2, 1] < 1e-3


def test_qber_from_pmd_is_one_half_one_minus_s_mean_s(monkeypatch):
    """Every cardinal state's error reads the one matrix, built from a single
    channel pass of the three unit axes on the quadrature grid."""
    rows = []

    def counting(states, channel, wavelengths_nm):
        rows.append(len(states))
        return apply_channel_rows(states, channel, wavelengths_nm)

    spec = EmitterSpectrum(center_nm=1309.5, fwhm_nm=7.0, shape="gaussian")
    ch = synthesize_channel(0.3, 10.0, 20, seed=3, reference_nm=1309.5)
    mean = _mean_rotation(ch, spec, 201)
    monkeypatch.setattr(fiberqkd.channel, "apply_channel_rows", counting)
    for label in ("H", "V", "D", "A", "L", "R"):
        s = stokes_of(label)
        assert qber_from_pmd(s, ch, spec) == 0.5 * (1.0 - s @ mean @ s)
    assert qber_from_pmd(np.array(list(PROTOCOL_STATES.values())), ch, spec,
                         n_samples=301).shape == (4,)
    assert rows == [3 * 201] * 6 + [3 * 301]


def test_trajectory_csv_round_trip(tmp_path):
    """``pmd sweep --out`` writes repr floats, so reading them back is exact."""
    path = tmp_path / "traj.csv"
    assert cli_main(["pmd", "sweep", "--scenario", "deployed-3p5km", "--state", "L",
                     "--start", "1306.5", "--stop", "1313.5", "--points", "12",
                     "--out", str(path)]) == 0
    assert path.read_text().splitlines()[0] == "wavelength_nm,s1,s2,s3"
    channel = load_scenario("deployed-3p5km").config.channel
    swept = sweep_trajectory(channel, stokes_of("L"), 1306.5, 1313.5, 12)
    assert read_float_table(path, TRAJECTORY_COLUMNS, "trajectory").tolist() == swept.tolist()


_HEADER = "wavelength_nm,s1,s2,s3\n"


@pytest.mark.parametrize("text, message", [
    ("", "trajectory CSV must start with wavelength_nm,s1,s2,s3"),
    ("wavelength_nm,s1,s2\n1,0,1\n", "trajectory CSV must start with wavelength_nm,s1,s2,s3"),
    (_HEADER + "\n\n", "trajectory CSV contains no data rows"),
    (_HEADER + "1,0,1\n", "malformed trajectory row: ['1', '0', '1']"),
    (_HEADER + "1,0,1,0\n \n", "malformed trajectory row: [' ']"),
    (_HEADER + "1,0,x,0\n", "non-numeric trajectory row: ['1', '0', 'x', '0']"),
    (_HEADER + "1,0,1,\n", "non-numeric trajectory row: ['1', '0', '1', '']"),
    (_HEADER + "1,0,1,0\n2,0,inf,0\n3,x,0,0\n4,0\n",
     "non-finite trajectory row: ['2', '0', 'inf', '0']"),
], ids=["empty", "header", "no-rows", "short-row", "blank-row", "word", "empty-field",
        "first-fault"])
def test_trajectory_csv_names_the_first_bad_row(tmp_path, text, message):
    """The one-pass reader raises the row-by-row reader's message for the first fault."""
    path = tmp_path / "traj.csv"
    path.write_text(text)
    with pytest.raises(ValidationError) as err:
        read_float_table(path, TRAJECTORY_COLUMNS, "trajectory")
    assert str(err.value) == message


def test_trajectory_csv_reads_crlf_blank_lines_and_spaces(tmp_path):
    path = tmp_path / "traj.csv"
    path.write_bytes(b" wavelength_nm, s1 ,s2,s3\r\n1309.0, 0.0 ,1.0,0.0\r\n\r\n1310.0,0,0,1\r\n")
    traj = read_float_table(path, TRAJECTORY_COLUMNS, "trajectory")
    assert traj.dtype == np.float64
    assert traj.tolist() == [[1309.0, 0.0, 1.0, 0.0], [1310.0, 0.0, 0.0, 1.0]]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("column", [0, 2])
def test_trajectory_csv_rejects_non_finite_fields(tmp_path, column, value):
    path = tmp_path / "traj.csv"
    row = ["1310.0", "0.0", "1.0", "0.0"]
    row[column] = value
    path.write_text("wavelength_nm,s1,s2,s3\n1309.0,0.0,1.0,0.0\n" + ",".join(row) + "\n")
    with pytest.raises(ValidationError, match="non-finite trajectory row"):
        read_float_table(path, TRAJECTORY_COLUMNS, "trajectory")
