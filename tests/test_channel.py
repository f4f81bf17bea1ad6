"""Fiber model: detuning, concatenated birefringence, arc fitting, DGD recovery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiberqkd.channel import (
    _BLOCK_ROWS,
    SPEED_OF_LIGHT_NM_PER_PS,
    FiberChannel,
    FiberSegment,
    PmdVector,
    align_first_order_axis,
    apply_channel,
    apply_channel_rows,
    delta_omega,
    estimate_dgd,
    first_order_pmd,
    fit_arc,
    pmd_parameter,
    qber_from_pmd,
    read_trajectory_csv,
    rotation_angle_for_dgd,
    sweep_trajectory,
    synthesize_channel,
    trajectory_csv_text,
    write_trajectory_csv,
)
from fiberqkd.emitter import SPECTRUM_SHAPES, EmitterSpectrum
from fiberqkd.errors import ValidationError
from fiberqkd.polarization import (
    PROTOCOL_STATES,
    random_unit,
    rotate,
    rotate_rows,
    rotation_taking,
    stokes_of,
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


def test_channel_is_identity_at_reference_wavelength():
    ch = synthesize_channel(0.4, 10.0, 30, seed=2, reference_nm=1309.5)
    rng = np.random.default_rng(0)
    for _ in range(5):
        s = random_unit(rng)
        assert np.allclose(apply_channel(s, ch, 1309.5), s, atol=1e-12)


def test_channel_preserves_unit_norm_across_band():
    ch = synthesize_channel(0.46, 32.5, 20, seed=8)
    states = np.array([stokes_of(k) for k in ("D", "A", "L", "R")])
    for wl in np.linspace(1290.0, 1330.0, 9):
        out = apply_channel_rows(states, ch, np.full(4, wl))
        assert np.allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)


def test_apply_channel_rows_matches_scalar_path():
    ch = synthesize_channel(0.2, 5.0, 12, seed=5)
    rng = np.random.default_rng(1)
    states = np.array([random_unit(rng) for _ in range(6)])
    wls = rng.uniform(1300.0, 1320.0, size=6)
    rows = apply_channel_rows(states, ch, wls)
    for i in range(6):
        assert np.allclose(rows[i], apply_channel(states[i], ch, wls[i]), atol=1e-12)


def _unblocked_channel_rows(states, channel, wavelengths_nm):
    """apply_channel_rows in one pass over all rows, cos and sin per segment."""
    lam = np.asarray(wavelengths_nm, dtype=float)
    dw = 2.0 * np.pi * SPEED_OF_LIGHT_NM_PER_PS * (1.0 / lam - 1.0 / channel.reference_nm)
    out = np.array(states, dtype=float)
    for seg in channel.segments:
        angle = seg.dgd_ps * dw
        out = rotate_rows(out, np.array(seg.axis), np.cos(angle), np.sin(angle))
    return out / np.linalg.norm(out, axis=1, keepdims=True)


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


def test_apply_channel_rows_needs_one_wavelength_per_row():
    ch = single_segment()
    with pytest.raises(ValidationError):
        apply_channel_rows(np.tile(stokes_of("D"), (3, 1)), ch, [1310.0, 1311.0])


def test_first_order_pmd_is_segment_vector_sum():
    segs = (FiberSegment(axis=(1.0, 0.0, 0.0), dgd_ps=0.3),
            FiberSegment(axis=(0.0, 1.0, 0.0), dgd_ps=0.4))
    ch = FiberChannel(segments=segs, loss_db=0.0, length_km=1.0, reference_nm=1310.0)
    fo = first_order_pmd(ch)
    assert isinstance(fo, PmdVector)
    assert fo.dgd_ps == pytest.approx(0.5, rel=1e-12)
    assert np.allclose(fo.axis, (0.6, 0.8, 0.0), atol=1e-12)


def test_synthesize_channel_segment_statistics():
    ch = synthesize_channel(0.46, 32.5, 25, seed=3, loss_db=11.2)
    assert len(ch.segments) == 25
    per = 0.46 * np.sqrt(32.5) / np.sqrt(25)
    for seg in ch.segments:
        assert seg.dgd_ps == pytest.approx(per, rel=1e-12)
        assert np.linalg.norm(seg.axis) == pytest.approx(1.0, abs=1e-12)
    assert ch.loss_db == 11.2
    assert ch.transmittance == pytest.approx(10 ** (-1.12), rel=1e-12)


def test_synthesis_is_seed_deterministic():
    a = synthesize_channel(0.1, 3.5, 20, seed=14)
    b = synthesize_channel(0.1, 3.5, 20, seed=14)
    c = synthesize_channel(0.1, 3.5, 20, seed=15)
    assert all(np.allclose(x.axis, y.axis) for x, y in zip(a.segments, b.segments))
    assert not all(np.allclose(x.axis, y.axis) for x, y in zip(a.segments, c.segments))


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
    pts = sweep_trajectory(ch, stokes_of("D"), 1306.5, 1313.5, 16)
    assert len(pts) == 16
    assert pts[0].wavelength_nm == 1306.5 and pts[-1].wavelength_nm == 1313.5
    with pytest.raises(ValidationError):
        sweep_trajectory(ch, stokes_of("D"), 1313.5, 1306.5, 16)
    with pytest.raises(ValidationError):
        sweep_trajectory(ch, stokes_of("D"), 1306.5, 1313.5, 1)


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
    pts = sweep_trajectory(ch, stokes_of("D"), 1306.5, 1313.5, 64)
    noisy = []
    for p in pts:
        # ~0.3 degree angular jitter per point
        jitter = 0.005
        axis = random_unit(rng)
        s = np.asarray(p.stokes)
        s = s * np.cos(jitter) + np.cross(axis, s) * np.sin(jitter)
        s = s / np.linalg.norm(s)
        noisy.append(type(p)(wavelength_nm=p.wavelength_nm, stokes=tuple(s)))
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


def test_rotation_angle_and_estimate_are_inverses():
    for dgd in (0.01, 0.117, 0.5, 2.0):
        ang = rotation_angle_for_dgd(dgd, 7.0, 1310.0)
        assert estimate_dgd(ang, 7.0, 1310.0) == pytest.approx(dgd, rel=1e-12)


def test_pmd_parameter():
    assert pmd_parameter(0.117, 3.5) == pytest.approx(0.117 / np.sqrt(3.5), rel=1e-12)
    with pytest.raises(ValidationError):
        pmd_parameter(0.1, 0.0)


def test_qber_from_pmd_rectangular_anchor():
    """Equatorial probe against an +x axis, flat 7 nm spectrum at 1310 nm.

    Uniform detuning average of (1 - cos(dgd*w))/2 has the closed form
    1/2 - sin(theta/2)/theta with theta the full-span rotation angle; the
    quadrature over wavelength must land on it to curvature accuracy.
    """
    ch = single_segment()
    spec = EmitterSpectrum(center_nm=1310.0, fwhm_nm=7.0, shape="rectangular")
    q = qber_from_pmd(stokes_of("D"), ch, spec, n_samples=2001)
    theta = rotation_angle_for_dgd(0.117, 7.0, 1310.0)
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
    """One pass of a state stack gives each state the bits of its own quadrature."""
    # The protocol states come from cos/sin of the modulator phases, so A is
    # not the exact negation of D and its quadrature cannot be skipped.
    assert not np.array_equal(PROTOCOL_STATES["A"].vector, -PROTOCOL_STATES["D"].vector)
    spec = EmitterSpectrum(center_nm=1309.5, fwhm_nm=7.0, shape=shape)
    states = [PROTOCOL_STATES[lbl].vector for lbl in ("D", "A", "L", "R")]
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


def test_trajectory_csv_round_trip(tmp_path):
    ch = single_segment()
    pts = sweep_trajectory(ch, stokes_of("L"), 1306.5, 1313.5, 12)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, pts)
    back = read_trajectory_csv(path)
    assert len(back) == len(pts)
    for a, b in zip(pts, back):
        assert b.wavelength_nm == a.wavelength_nm
        assert np.allclose(b.stokes, a.stokes, atol=0.0)  # repr round trip is exact
    text = trajectory_csv_text(pts)
    assert text.splitlines()[0] == "wavelength_nm,s1,s2,s3"
