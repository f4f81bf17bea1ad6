"""Poincare-sphere arithmetic for a four-state polarization encoder.

Stokes conventions used everywhere in this package:

* H = (1, 0, 0) and V = (-1, 0, 0)
* D = (0, 1, 0) and A = (0, -1, 0)
* L = (0, 0, 1) and R = (0, 0, -1)

The encoder drives the relative phase ``phi`` between the horizontal and
vertical components of ``|H> + exp(i*phi)|V>``, which places the output on
the equator spanned by the D/A and L/R axes at ``(0, cos phi, sin phi)``.
The four protocol states are phases 0, pi/2, pi and 3*pi/2, i.e. D, L, A, R.

All rotations follow the right-hand rule: ``rotate((0,0,1), x_axis, pi/2)``
lands on ``(0, -1, 0)``.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def require_unit(vec, what: str = "vector", tol: float = UNIT_NORM_TOL) -> np.ndarray:
    """Return ``vec`` as a float array after checking it is a unit 3-vector."""
    arr = np.asarray(vec, dtype=float)
    if arr.shape != (3,):
        raise ValidationError(f"{what} must be a 3-vector, got shape {arr.shape}")
    norm = float(np.linalg.norm(arr))
    if abs(norm - 1.0) > tol:
        raise ValidationError(f"{what} must be unit length, got |v| = {norm:.12g}")
    return arr


def normalize(vec) -> np.ndarray:
    arr = np.asarray(vec, dtype=float)
    norm = float(np.linalg.norm(arr))
    if norm == 0.0:
        raise ValidationError("cannot normalize a zero vector")
    return arr / norm


def rotate(state, axis, angle: float) -> np.ndarray:
    """Rotate a Stokes vector about ``axis`` by ``angle`` (right-hand rule).

    Rodrigues form, renormalized afterwards so that long rotation chains do
    not drift off the sphere.
    """
    s = require_unit(state, "state")
    a = require_unit(axis, "axis")
    c = np.cos(angle)
    out = s * c + np.cross(a, s) * np.sin(angle) + a * (a @ s) * (1.0 - c)
    return normalize(out)


def rotate_rows(points: np.ndarray, axis: np.ndarray, c, s) -> np.ndarray:
    """Rodrigues rotation of each row of ``points`` by its own angle.

    ``points`` is (n, 3), ``axis`` a single unit 3-vector, and ``c`` and
    ``s`` the cosine and sine of the rotation angles, scalar or length n.
    Taking them rather than the angles lets a caller that applies one angle
    about several axes evaluate the trig once. No renormalization; callers
    that chain many segments should renormalize once at the end.

    The cross product ``a x p`` is written out per component, which skips
    ``np.cross``'s axis handling and gives the same bits.
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


def perpendicular_unit(vec) -> np.ndarray:
    """Some unit vector perpendicular to ``vec``."""
    v = require_unit(vec, "vector")
    trial = np.array([1.0, 0.0, 0.0]) if abs(v[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    return normalize(np.cross(v, trial))


def rotation_taking(src, dst) -> tuple[np.ndarray, float]:
    """Axis and angle of the minimal rotation mapping ``src`` onto ``dst``.

    For antiparallel inputs any perpendicular axis works; a deterministic one
    is chosen.
    """
    u = require_unit(src, "src")
    v = require_unit(dst, "dst")
    c = float(np.clip(u @ v, -1.0, 1.0))
    cross = np.cross(u, v)
    sin_norm = float(np.linalg.norm(cross))
    if sin_norm < 1e-12:
        if c > 0.0:
            return perpendicular_unit(u), 0.0
        return perpendicular_unit(u), float(np.pi)
    return cross / sin_norm, float(np.arctan2(sin_norm, c))


def random_unit(rng: np.random.Generator) -> np.ndarray:
    """Isotropically distributed unit vector."""
    while True:
        v = rng.normal(size=3)
        norm = float(np.linalg.norm(v))
        if norm > 1e-12:
            return v / norm


@dataclass(frozen=True)
class Bb84State:
    """One protocol state: its label, modulator phase and Stokes vector."""

    label: str
    phase: float
    stokes: tuple[float, float, float]

    @classmethod
    def from_label(cls, label: str) -> "Bb84State":
        if label not in MODULATOR_PHASE:
            raise ValidationError(f"not a protocol state: {label!r}")
        phi = MODULATOR_PHASE[label]
        return cls(label=label, phase=phi, stokes=tuple(phase_to_state(phi)))

    @property
    def vector(self) -> np.ndarray:
        return np.array(self.stokes)


PROTOCOL_STATES = {label: Bb84State.from_label(label) for label in MODULATOR_PHASE}

