"""Poincare-sphere arithmetic for a four-state polarization encoder.

Stokes conventions used everywhere in this package:

* H = (1, 0, 0) and V = (-1, 0, 0)
* D = (0, 1, 0) and A = (0, -1, 0)
* L = (0, 0, 1) and R = (0, 0, -1)

The encoder drives the relative phase ``phi`` between the horizontal and
vertical components of ``|H> + exp(i*phi)|V>``, which places the output on
the equator spanned by the D/A and L/R axes at ``(0, cos phi, sin phi)``.
The four protocol states are phases 0, pi/2, pi and 3*pi/2, i.e. D, L, A, R.
``PROTOCOL_STATES`` maps each label to that output as a Stokes tuple, which
can differ from the cardinal state in the last bits: A is (0, -1, 1.2e-16).

All rotations follow the right-hand rule: a quarter turn about the x axis
takes ``(0, 0, 1)`` to ``(0, -1, 0)``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError

UNIT_NORM_TOL = 1e-9

_CARDINAL = {
    "H": (1.0, 0.0, 0.0),
    "V": (-1.0, 0.0, 0.0),
    "D": (0.0, 1.0, 0.0),
    "A": (0.0, -1.0, 0.0),
    "L": (0.0, 0.0, 1.0),
    "R": (0.0, 0.0, -1.0),
}

MODULATOR_PHASE = {"D": 0.0, "L": 0.5 * np.pi, "A": np.pi, "R": 1.5 * np.pi}

# Detector naming fixed in the order the receiver reports clicks.
DETECTOR_ORDER = ("D", "A", "L", "R")

BASIS_STATES = {"DA": ("D", "A"), "LR": ("L", "R")}


def stokes_of(label: str) -> np.ndarray:
    """Stokes vector of one of the six cardinal states H, V, D, A, L, R."""
    try:
        return np.array(_CARDINAL[label], dtype=float)
    except KeyError:
        raise ValidationError(f"unknown state label {label!r}") from None


def phase_to_state(phi: float) -> np.ndarray:
    """Equatorial Stokes vector produced by a modulator phase ``phi``."""
    return np.array([0.0, np.cos(phi), np.sin(phi)])


def require_unit(vec, what: str = "vector") -> np.ndarray:
    """Return ``vec`` as a float array after checking it is a finite unit 3-vector.

    The norm is taken in scalar arithmetic, which on three numbers costs less
    than numpy's generic ``linalg.norm`` dispatch; every segment and rotation
    runs this check. A NaN norm fails the comparison and is rejected.
    """
    try:
        arr = np.asarray(vec, dtype=float)
    except (TypeError, ValueError):
        raise ValidationError(f"{what} must be a numeric 3-vector, got {vec!r}") from None
    if arr.shape != (3,):
        raise ValidationError(f"{what} must be a 3-vector, got shape {arr.shape}")
    x, y, z = arr.tolist()
    norm = math.sqrt(x * x + y * y + z * z)
    if not abs(norm - 1.0) <= UNIT_NORM_TOL:
        raise ValidationError(f"{what} must be unit length, got |v| = {norm:.12g}")
    return arr


def normalize(vec) -> np.ndarray:
    """``vec`` divided by its Euclidean norm.

    The norm is ``sqrt(v . v)`` with numpy's dot, the same bits as
    ``np.linalg.norm`` of a 1-d array without its dispatch.
    """
    arr = np.asarray(vec, dtype=float)
    norm = math.sqrt(arr.dot(arr))
    if norm == 0.0:
        raise ValidationError("cannot normalize a zero vector")
    return arr / norm


def _cross(a, b):
    a0, a1, a2 = a
    b0, b1, b2 = b
    return a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0


def cross(a, b) -> np.ndarray:
    """Cross product ``a x b`` of two 3-vectors.

    Written out per component on Python floats, which gives ``np.cross``'s
    bits without its generic axis handling.
    """
    return np.array(_cross(np.asarray(a, dtype=float).tolist(),
                           np.asarray(b, dtype=float).tolist()))


def _rodrigues(s: np.ndarray, a: np.ndarray, angle) -> np.ndarray:
    """Rotation of a checked unit vector ``s`` about a checked unit ``a``.

    The arithmetic of ``s c + (a x s) sin + a (a . s)(1 - c)`` runs on Python
    floats in that operation order. The dot product and the norm stay numpy
    dots (the BLAS ``ddot`` that ``a @ s`` and ``np.linalg.norm`` also call),
    whose rounding a scalar sum would not reproduce.
    """
    c = float(np.cos(angle))
    sin = float(np.sin(angle))
    w = 1.0 - c
    d = float(a.dot(s))
    sv, av = s.tolist(), a.tolist()
    return normalize([si * c + xi * sin + ai * d * w for si, xi, ai in zip(sv, _cross(av, sv), av)])


def _unit_rows(axes) -> np.ndarray:
    """``axes`` as an (m, 3) float table, after checking each row is a finite unit vector.

    A single 3-vector is the one-row table. Each norm is taken in scalar
    arithmetic, as in :func:`require_unit`, and a NaN norm fails the check.
    """
    try:
        arr = np.asarray(axes, dtype=float)
    except (TypeError, ValueError):
        raise ValidationError(f"axis must be a numeric (m, 3) table, got {axes!r}") from None
    if arr.ndim == 1:
        arr = arr[None]
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValidationError(f"axis must be an (m, 3) table, got shape {arr.shape}")
    for i, (x, y, z) in enumerate(arr.tolist()):
        norm = math.sqrt(x * x + y * y + z * z)
        if not abs(norm - 1.0) <= UNIT_NORM_TOL:
            raise ValidationError(f"axis {i} must be unit length, got |v| = {norm:.12g}")
    return arr


def _segment_rows(v: np.ndarray, m: int):
    """Segment j's row of ``v``, broadcast to (m, n), at index j.

    A scalar, a length-n array or a one-row table is one row that every
    segment shares.
    """
    if v.ndim == 2 and len(v) == m:
        return v
    if v.ndim > 2 or v.ndim == 2 and len(v) != 1:
        raise ValidationError(f"need one row of angles per axis, got shape {v.shape} for {m}")
    return [v.reshape(-1)] * m


def rotate_rows(points: np.ndarray, axes, c, s) -> np.ndarray:
    """Rodrigues rotation of each row of ``points`` through a cascade of axes.

    ``points`` is (n, 3) and ``axes`` an (m, 3) table of unit axes, applied
    in order; a single axis is the one-row table. ``c`` and ``s`` are the
    cosines and sines of the rotation angles and broadcast to (m, n): a
    scalar or a length-n row is shared by every segment, and so is its
    ``1 - c``. Taking them rather than the angles lets a caller evaluate the
    trig once per distinct angle. No renormalization; callers should
    renormalize once at the end.

    Cost model: the table is checked once, then each segment costs 11 numpy
    calls into buffers allocated once per call, whatever ``n``. Every element keeps the
    arithmetic of one Rodrigues step, ``x c + (a1 z - a2 y) s + a0 k`` with
    ``k = (p . a)(1 - c)``, the cross product written out per column as in
    :func:`cross`. The dot ``p . a`` is the BLAS matrix-vector product of
    the (n, 3) C-order state, so the state keeps that layout and the
    elementwise steps run on its transposed view: an elementwise or
    transposed dot sums in another order and moves the last bits.
    """
    a = _unit_rows(axes)
    p = np.array(points, dtype=float, order="C")
    if p.ndim != 2 or p.shape[1] != 3:
        raise ValidationError(f"points must be an (n, 3) array, got shape {p.shape}")
    n, m = p.shape[0], len(a)
    c, s = np.asarray(c, dtype=float), np.asarray(s, dtype=float)
    c, s, w = _segment_rows(c, m), _segment_rows(s, m), _segment_rows(1.0 - c, m)
    scratch = np.empty((7, n))
    t, u, k = scratch[:3], scratch[3:6], scratch[6]
    t12, u01, tu = t[1:], u[:2], scratch[0:6:5]
    pt = p.T
    rows = zip(a[:, 1].tolist(), a, a[:, 2::-2, None], a[:, :, None])
    for j, (a1, aj, a20, col) in enumerate(rows):
        np.matmul(p, aj, out=k)
        k *= w[j]
        np.multiply(pt[2::-2], a1, out=tu)  # t[0] = a1 z, u[2] = a1 x
        np.multiply(pt[:2], a20, out=t12)  # t[1:] = (a2 x, a0 y)
        np.multiply(pt[1:], a20, out=u01)  # u[:2] = (a2 y, a0 z)
        t -= u
        t *= s[j]
        np.multiply(pt, c[j], out=u)
        u += t
        np.multiply(col, k, out=t)
        # Every read of the state comes before this one write, so the
        # cascade runs in place on the copy of the points.
        np.add(u, t, out=pt)
    return p


def perpendicular_unit(vec) -> np.ndarray:
    """Some unit vector perpendicular to ``vec``."""
    v = require_unit(vec, "vector")
    trial = np.array([1.0, 0.0, 0.0]) if abs(v[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    return normalize(cross(v, trial))


def rotation_taking(src, dst) -> tuple[np.ndarray, float]:
    """Axis and angle of the minimal rotation mapping ``src`` onto ``dst``.

    For antiparallel inputs any perpendicular axis works; a deterministic one
    is chosen.
    """
    u = require_unit(src, "src")
    v = require_unit(dst, "dst")
    c = float(np.clip(u @ v, -1.0, 1.0))
    axis = cross(u, v)
    sin_norm = math.sqrt(axis.dot(axis))
    if sin_norm < 1e-12:
        if c > 0.0:
            return perpendicular_unit(u), 0.0
        return perpendicular_unit(u), float(np.pi)
    return axis / sin_norm, float(np.arctan2(sin_norm, c))


def random_units(rng: np.random.Generator, m: int) -> np.ndarray:
    """``m`` isotropically distributed unit vectors, as an (m, 3) array.

    Row i is the i-th draw of three normals whose norm exceeds 1e-12; a draw
    at the origin is replaced by the next three normals. The normals come
    from one ``rng.normal`` call (and one more per round of replacements),
    the stream that m calls of three would use. Each row's norm is
    ``sqrt(v . v)`` with numpy's dot, the bits of ``np.linalg.norm(v)``.
    """
    units = np.empty((0, 3))
    while len(units) < m:
        draws = rng.normal(size=(m - len(units), 3))
        norms = np.array([math.sqrt(v.dot(v)) for v in draws])
        keep = norms > 1e-12
        units = np.concatenate((units, draws[keep] / norms[keep][:, None]))
    return units


# Stokes vector of each protocol state, the modulator output at its phase.
PROTOCOL_STATES = {
    label: tuple(phase_to_state(phi).tolist()) for label, phi in MODULATOR_PHASE.items()
}
