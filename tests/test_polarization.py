"""Stokes-space primitives: state table and rotations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiberqkd.errors import ValidationError
from fiberqkd.polarization import (
    BASIS_STATES,
    DETECTOR_ORDER,
    MODULATOR_PHASE,
    PROTOCOL_STATES,
    _rodrigues,
    cross,
    normalize,
    perpendicular_unit,
    phase_to_state,
    random_units,
    require_unit,
    rotate_rows,
    rotation_taking,
    stokes_of,
)


def rotate(state, axis, angle: float) -> np.ndarray:
    """Rotate a Stokes vector about ``axis`` by ``angle`` (right-hand rule).

    The scalar oracle that the row kernel and the channel are tested
    against: the package's Rodrigues step on checked unit vectors,
    renormalized afterwards.
    """
    return _rodrigues(require_unit(state, "state"), require_unit(axis, "axis"), angle)


def random_unit(rng: np.random.Generator) -> np.ndarray:
    """One isotropic unit vector, three normals at a time, as each segment was once drawn.

    The reference for :func:`random_units`: a draw at the origin is redrawn
    from the next three normals.
    """
    while True:
        v = rng.normal(size=3)
        norm = float(np.linalg.norm(v))
        if norm > 1e-12:
            return v / norm


def test_cardinal_states_are_unit_and_antipodal():
    pairs = [("H", "V"), ("D", "A"), ("L", "R")]
    for a, b in pairs:
        sa, sb = stokes_of(a), stokes_of(b)
        assert np.linalg.norm(sa) == pytest.approx(1.0, abs=1e-15)
        assert np.allclose(sa, -sb)


def test_protocol_states_live_on_the_equator_of_the_hv_axis():
    # the four signal states share zero s1 component
    for label in ("D", "A", "L", "R"):
        assert stokes_of(label)[0] == 0.0


def test_modulator_phase_table():
    assert MODULATOR_PHASE["D"] == 0.0
    assert MODULATOR_PHASE["L"] == pytest.approx(np.pi / 2)
    assert MODULATOR_PHASE["A"] == pytest.approx(np.pi)
    assert MODULATOR_PHASE["R"] == pytest.approx(3 * np.pi / 2)
    for label, phase in MODULATOR_PHASE.items():
        assert np.allclose(phase_to_state(phase), stokes_of(label), atol=1e-15)


def test_phase_to_state_parameterization():
    # (0, cos(phi), sin(phi)) by construction
    for phi in np.linspace(0.0, 2 * np.pi, 17):
        s = phase_to_state(phi)
        assert s[0] == 0.0
        assert s[1] == pytest.approx(np.cos(phi))
        assert s[2] == pytest.approx(np.sin(phi))


def test_detector_order_and_basis_states():
    assert DETECTOR_ORDER == ("D", "A", "L", "R")
    assert BASIS_STATES["DA"] == ("D", "A")
    assert BASIS_STATES["LR"] == ("L", "R")


def test_protocol_states_are_the_modulator_outputs():
    assert MODULATOR_PHASE["L"] == np.pi / 2
    assert np.allclose(PROTOCOL_STATES["L"], (0.0, 0.0, 1.0))
    for label, phi in MODULATOR_PHASE.items():
        assert PROTOCOL_STATES[label] == tuple(phase_to_state(phi).tolist())
        assert all(type(x) is float for x in PROTOCOL_STATES[label])


def test_rotate_right_handed_convention():
    # +x axis by +pi/2 carries +z onto -y
    out = rotate(np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]), np.pi / 2)
    assert np.allclose(out, [0.0, -1.0, 0.0], atol=1e-12)


def test_rotate_inverse_and_axis_fixed_point():
    rng = np.random.default_rng(7)
    for _ in range(20):
        axis = random_unit(rng)
        s = random_unit(rng)
        ang = rng.uniform(-np.pi, np.pi)
        back = rotate(rotate(s, axis, ang), axis, -ang)
        assert np.allclose(back, s, atol=1e-12)
        assert np.allclose(rotate(axis, axis, ang), axis, atol=1e-12)


def test_rotate_rejects_non_unit_inputs():
    with pytest.raises(ValidationError):
        rotate(np.array([0.0, 0.0, 2.0]), np.array([1.0, 0.0, 0.0]), 0.1)
    with pytest.raises(ValidationError):
        rotate(np.array([0.0, 0.0, 1.0]), np.array([1.0, 1.0, 0.0]), 0.1)


@pytest.mark.parametrize("vec", [
    [np.nan, 0.0, 0.0],
    [np.nan, np.nan, np.nan],
    [np.inf, 0.0, 0.0],
    [0.0, -np.inf, 0.0],
    [0.0, 0.0, 0.0],
    [1.0, 1.0, 0.0],
    [0.0, 0.0, 1.0 + 2e-9],
    [1.0, 0.0],
    [1.0, 0.0, 0.0, 0.0],
    [[1.0, 0.0, 0.0]],
    1.0,
    None,
    ["x", 0.0, 0.0],
    [[1.0], 0.0, 0.0],
], ids=["nan", "all-nan", "inf", "minus-inf", "zero", "off-unit", "just-off-unit", "short",
        "long", "row", "scalar", "none", "text", "ragged"])
def test_require_unit_rejects_non_finite_wrong_shape_and_off_unit(vec):
    with pytest.raises(ValidationError):
        require_unit(vec, "probe")


def test_require_unit_returns_its_input_values():
    rng = np.random.default_rng(5)
    vectors = [random_unit(rng) for _ in range(50)] + [stokes_of(s) for s in "HVDALR"]
    vectors.append(np.array([0.0, 0.0, 1.0 + 5e-10]))  # inside the tolerance
    for v in vectors:
        assert require_unit(v) is v
        for form in (list(v), tuple(v)):
            out = require_unit(form)
            assert out.dtype == np.float64
            assert out.tolist() == v.tolist()


def test_rotate_rows_matches_scalar_rotation():
    rng = np.random.default_rng(11)
    axis = random_unit(rng)
    pts = np.array([random_unit(rng) for _ in range(8)])
    angles = rng.uniform(-2.0, 2.0, size=8)
    rows = rotate_rows(pts, axis, np.cos(angles), np.sin(angles))
    for i in range(8):
        assert np.allclose(rows[i], rotate(pts[i], axis, angles[i]), atol=1e-12)


def _rotate_rows_cross(points, axis, angles):
    """The Rodrigues expression built on np.cross, as rotate_rows once was."""
    c = np.cos(angles)[..., None]
    s = np.sin(angles)[..., None]
    dots = points @ axis
    return (points * c + np.cross(axis[None, :], points) * s
            + axis[None, :] * (dots * (1.0 - c[..., 0]))[..., None])


def test_rotate_rows_scalar_angle_broadcasts():
    rng = np.random.default_rng(5)
    axis = random_unit(rng)
    pts = np.array([random_unit(rng) for _ in range(16)])
    rows = rotate_rows(pts, axis, np.cos(0.7), np.sin(0.7))
    assert rows.shape == (16, 3)
    angles = np.full(16, 0.7)
    assert np.array_equal(rows, rotate_rows(pts, axis, np.cos(angles), np.sin(angles)))


def test_rotate_rows_empty_input():
    axis = stokes_of("D")
    assert rotate_rows(np.empty((0, 3)), axis, np.empty(0), np.empty(0)).shape == (0, 3)
    assert rotate_rows(np.empty((0, 3)), axis, np.cos(0.3), np.sin(0.3)).shape == (0, 3)


def test_rotate_rows_preserves_norms():
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(10_000, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    angles = rng.uniform(-20.0, 20.0, size=10_000)
    rows = rotate_rows(pts, random_unit(rng), np.cos(angles), np.sin(angles))
    assert np.max(np.abs(np.linalg.norm(rows, axis=1) - 1.0)) < 1e-12


_unit_floats = st.floats(-1.0, 1.0, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(
    axis=st.tuples(_unit_floats, _unit_floats, _unit_floats).filter(
        lambda v: np.linalg.norm(v) > 1e-3
    ),
    angles=st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=1, max_size=64),
    seed=st.integers(0, 2**32 - 1),
)
def test_rotate_rows_preserves_norms_for_any_axis_and_angles(axis, angles, seed):
    a = np.array(axis) / np.linalg.norm(axis)
    ang = np.array(angles)
    pts = np.random.default_rng(seed).normal(size=(ang.size, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    rows = rotate_rows(pts, a, np.cos(ang), np.sin(ang))
    assert np.max(np.abs(np.linalg.norm(rows, axis=1) - 1.0)) < 1e-12


def test_rotate_rows_matches_cross_product_form():
    rng = np.random.default_rng(9)
    pts = rng.normal(size=(10_000, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    axis = random_unit(rng)
    angles = rng.uniform(-20.0, 20.0, size=10_000)
    np.testing.assert_allclose(
        rotate_rows(pts, axis, np.cos(angles), np.sin(angles)),
        _rotate_rows_cross(pts, axis, angles),
        rtol=0.0,
        atol=1e-15,
    )


def test_rotation_taking_generic_and_antiparallel():
    rng = np.random.default_rng(3)
    for _ in range(25):
        src, dst = random_unit(rng), random_unit(rng)
        axis, ang = rotation_taking(src, dst)
        assert np.allclose(rotate(src, axis, ang), dst, atol=1e-10)
    axis, ang = rotation_taking(stokes_of("H"), stokes_of("V"))
    assert ang == pytest.approx(np.pi)
    assert abs(np.dot(axis, stokes_of("H"))) < 1e-12


def test_perpendicular_unit():
    rng = np.random.default_rng(5)
    for _ in range(20):
        v = random_unit(rng)
        p = perpendicular_unit(v)
        assert np.linalg.norm(p) == pytest.approx(1.0, abs=1e-12)
        assert abs(np.dot(p, v)) < 1e-12


def _rotate_cross(state, axis, angle):
    """rotate as it was written on np.cross; the oracle for the scalar form."""
    s = require_unit(state, "state")
    a = require_unit(axis, "axis")
    c = np.cos(angle)
    out = s * c + np.cross(a, s) * np.sin(angle) + a * (a @ s) * (1.0 - c)
    return out / np.linalg.norm(out)


def _perpendicular_unit_cross(vec):
    """perpendicular_unit as it was written on np.cross."""
    v = require_unit(vec, "vector")
    trial = np.array([1.0, 0.0, 0.0]) if abs(v[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    out = np.cross(v, trial)
    return out / np.linalg.norm(out)


def _rotation_taking_cross(src, dst):
    """rotation_taking as it was written on np.cross."""
    u = require_unit(src, "src")
    v = require_unit(dst, "dst")
    c = float(np.clip(u @ v, -1.0, 1.0))
    axis = np.cross(u, v)
    sin_norm = float(np.linalg.norm(axis))
    if sin_norm < 1e-12:
        return _perpendicular_unit_cross(u), 0.0 if c > 0.0 else float(np.pi)
    return axis / sin_norm, float(np.arctan2(sin_norm, c))


_units = st.tuples(_unit_floats, _unit_floats, _unit_floats).filter(
    lambda v: np.linalg.norm(v) > 1e-3
).map(lambda v: np.array(v) / np.linalg.norm(v))

# Pairs of unit vectors: independent, equal, or antipodal.
_pairs = st.tuples(_units, _units, st.sampled_from(["free", "parallel", "antiparallel"])).map(
    lambda t: (t[0], {"free": t[1], "parallel": t[0].copy(), "antiparallel": -t[0]}[t[2]])
)

_angles = st.one_of(
    st.sampled_from([0.0, -0.0, np.pi, -np.pi, 2.0 * np.pi, -2.5 * np.pi, 7.0, -1e3]),
    st.floats(-1e3, 1e3, allow_nan=False),
)


@settings(max_examples=300, deadline=None)
@given(pair=_pairs, angle=_angles)
def test_rotate_equals_cross_product_oracle(pair, angle):
    state, axis = pair
    assert np.array_equal(rotate(state, axis, angle), _rotate_cross(state, axis, angle))
    assert np.array_equal(rotate(axis, state, angle), _rotate_cross(axis, state, angle))


@settings(max_examples=300, deadline=None)
@given(pair=_pairs)
def test_cross_products_equal_the_np_cross_forms(pair):
    u, v = pair
    assert np.array_equal(cross(u, v), np.cross(u, v))
    assert np.array_equal(perpendicular_unit(u), _perpendicular_unit_cross(u))
    axis, angle = rotation_taking(u, v)
    oracle_axis, oracle_angle = _rotation_taking_cross(u, v)
    assert np.array_equal(axis, oracle_axis)
    assert angle == oracle_angle


def test_cross_of_rows_equals_np_cross():
    rng = np.random.default_rng(4)
    rows = rng.normal(size=(500, 3))
    a = random_unit(rng)
    assert np.array_equal(cross(a, rows), np.cross(a, rows))
    assert np.array_equal(cross(a, rows[:0]), np.empty((0, 3)))


def test_normalize_equals_linalg_norm_division():
    rng = np.random.default_rng(6)
    for v in rng.normal(size=(200, 3)) * 10.0 ** rng.uniform(-5, 5, size=(200, 1)):
        assert np.array_equal(normalize(v), v / np.linalg.norm(v))
    with pytest.raises(ValidationError, match="cannot normalize a zero vector"):
        normalize([0.0, 0.0, 0.0])


@pytest.mark.parametrize("call, message", [
    (lambda: rotate([0.0, 0.0, 2.0], [1.0, 0.0, 0.0], 0.1),
     "state must be unit length, got |v| = 2"),
    (lambda: rotate([0.0, 0.0, 1.0], [np.nan, 0.0, 0.0], 0.1),
     "axis must be unit length, got |v| = nan"),
    (lambda: rotate([0.0, 0.0, 1.0], [1.0, 1.0, 0.0], 0.1),
     "axis must be unit length, got |v| = 1.41421356237"),
    (lambda: perpendicular_unit([np.nan, 0.0, 0.0]),
     "vector must be unit length, got |v| = nan"),
    (lambda: rotation_taking([1.0, 0.0, 0.0], [0.0, 2.0, 0.0]),
     "dst must be unit length, got |v| = 2"),
    (lambda: rotation_taking([np.nan, 0.0, 0.0], [0.0, 1.0, 0.0]),
     "src must be unit length, got |v| = nan"),
], ids=["rotate-state", "rotate-nan-axis", "rotate-axis", "perpendicular-nan",
        "taking-dst", "taking-nan-src"])
def test_rotation_error_messages(call, message):
    with pytest.raises(ValidationError) as err:
        call()
    assert str(err.value) == message


def test_random_unit_is_roughly_isotropic():
    pts = random_units(np.random.default_rng(19), 4000)
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
    # resultant of isotropic draws scales like sqrt(n): 4000 draws stay small
    assert np.linalg.norm(pts.mean(axis=0)) < 0.05


def rotate_rows_one_axis(points, axis, c, s):
    """One Rodrigues step about one axis, the per-segment rotate_rows of old.

    The reference for the cascade kernel: chained once per segment, it gives
    the bits :func:`rotate_rows` must give for the whole table.
    """
    a = require_unit(axis, "axis")
    k = (points @ a) * (1.0 - c)
    x, y, z = points[:, 0], points[:, 1], points[:, 2]
    a0, a1, a2 = a
    out = np.empty(points.shape)
    out[:, 0] = x * c + (a1 * z - a2 * y) * s + a0 * k
    out[:, 1] = y * c + (a2 * x - a0 * z) * s + a1 * k
    out[:, 2] = z * c + (a0 * y - a1 * x) * s + a2 * k
    return out


def rotate_rows_per_segment(points, axes, c, s):
    """The cascade as one ``rotate_rows_one_axis`` call per segment."""
    c, s = np.asarray(c, dtype=float), np.asarray(s, dtype=float)
    out = np.array(points, dtype=float)
    for j, axis in enumerate(axes):
        cj = c[j if len(c) > 1 else 0] if c.ndim == 2 else c
        sj = s[j if len(s) > 1 else 0] if s.ndim == 2 else s
        out = rotate_rows_one_axis(out, axis, cj, sj)
    return out


def _cascade_inputs(rng, n, m, shared):
    points = rng.normal(size=(n, 3))
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    axes = np.array([random_unit(rng) for _ in range(m)])
    angles = rng.uniform(-30.0, 30.0, size=(1 if shared else m, n))
    return points, axes, np.cos(angles), np.sin(angles)


@pytest.mark.parametrize("n", [0, 1, 2, 7, 500])
@pytest.mark.parametrize("m", [1, 2, 3, 20])
@pytest.mark.parametrize("shared", [True, False], ids=["shared-angles", "own-angles"])
def test_rotate_rows_cascade_equals_one_call_per_segment(n, m, shared):
    points, axes, c, s = _cascade_inputs(np.random.default_rng(n * 100 + m), n, m, shared)
    before = points.copy()
    out = rotate_rows(points, axes, c, s)
    assert out.shape == (n, 3) and out.flags.c_contiguous
    assert np.array_equal(out, rotate_rows_per_segment(points, axes, c, s))
    assert np.array_equal(points, before)  # the input is not written


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 300), m=st.integers(1, 25), shared=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_rotate_rows_cascade_equals_per_segment_for_any_table(n, m, shared, seed):
    points, axes, c, s = _cascade_inputs(np.random.default_rng(seed), n, m, shared)
    assert np.array_equal(rotate_rows(points, axes, c, s),
                          rotate_rows_per_segment(points, axes, c, s))


def test_rotate_rows_scalar_and_row_angles_are_shared_by_every_segment():
    rng = np.random.default_rng(21)
    points, axes, _, _ = _cascade_inputs(rng, 40, 6, True)
    angles = rng.uniform(-3.0, 3.0, size=40)
    for c, s in ((np.cos(0.4), np.sin(0.4)), (np.cos(angles), np.sin(angles))):
        table = np.broadcast_to(c, (6, 40)), np.broadcast_to(s, (6, 40))
        assert np.array_equal(rotate_rows(points, axes, c, s), rotate_rows(points, axes, *table))
        assert np.array_equal(rotate_rows(points, axes, c, s),
                              rotate_rows_per_segment(points, axes, c, s))


@pytest.mark.parametrize("bad_row", [
    [0.0, 0.0, 2.0], [np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0], [0.0, 0.0, 0.0],
    [1.0, 1e-4, 0.0],
], ids=["long", "nan", "inf", "zero", "barely-off"])
@pytest.mark.parametrize("where", [0, 2])
def test_rotate_rows_rejects_a_non_unit_axis_row(bad_row, where):
    axes = [list(stokes_of(k)) for k in "DLH"]
    axes[where] = bad_row
    with pytest.raises(ValidationError, match=f"axis {where} must be unit length"):
        rotate_rows(np.array([stokes_of("D")]), axes, np.cos(0.1), np.sin(0.1))


@pytest.mark.parametrize("axes, points, rows, message", [
    (np.ones((2, 2)), np.zeros((1, 3)), 1, "axis must be an"),
    (np.ones((2, 3, 1)), np.zeros((1, 3)), 1, "axis must be an"),
    (["x", "y", "z"], np.zeros((1, 3)), 1, "axis must be a numeric"),
    ([[1.0, 0.0, 0.0]], np.zeros(3), 1, "points must be an"),
    ([[1.0, 0.0, 0.0]] * 3, np.zeros((4, 3)), 2, "one row of angles per axis"),
    ([[1.0, 0.0, 0.0]] * 3, np.zeros((4, 3)), (3, 1), "one row of angles per axis"),
], ids=["two-columns", "three-dims", "text", "one-point", "angle-rows", "angle-cube"])
def test_rotate_rows_rejects_malformed_tables(axes, points, rows, message):
    c = np.ones(np.atleast_1d(rows).tolist() + [len(points)])
    with pytest.raises(ValidationError, match=message):
        rotate_rows(points, axes, c, c)


def test_random_units_equal_one_draw_per_row():
    """One (m, 3) draw gives the axes, and the generator state, of m draws of three."""
    for seed in range(40):
        for m in (1, 2, 20, 57):
            bulk, rows = np.random.default_rng(seed), np.random.default_rng(seed)
            units = random_units(bulk, m)
            assert np.array_equal(units, np.array([random_unit(rows) for _ in range(m)]))
            assert bulk.bit_generator.state == rows.bit_generator.state


class _FixedNormals:
    """A generator stand-in whose normals come from a fixed list, in order."""

    def __init__(self, values):
        self.values = [float(v) for v in values]
        self.used = 0

    def normal(self, size):
        count = int(np.prod(size))
        out = np.array(self.values[self.used:self.used + count]).reshape(size)
        self.used += count
        return out


@pytest.mark.parametrize("origin_blocks", [[0], [2], [4], [1, 2], [0, 5, 6], [3, 7]],
                         ids=lambda b: "at-" + "-".join(map(str, b)))
@pytest.mark.parametrize("origin", [0.0, 1e-13], ids=["zero", "tiny"])
def test_random_units_redraw_a_draw_at_the_origin_from_the_next_normals(origin_blocks, origin):
    rng = np.random.default_rng(sum(origin_blocks))
    values = rng.normal(size=(12, 3))
    values[origin_blocks] = [origin, 0.0, 0.0]
    bulk, rows = _FixedNormals(values.ravel()), _FixedNormals(values.ravel())
    units = random_units(bulk, 5)
    assert np.array_equal(units, np.array([random_unit(rows) for _ in range(5)]))
    assert bulk.used == rows.used
    assert np.allclose(np.linalg.norm(units, axis=1), 1.0, atol=1e-12)
