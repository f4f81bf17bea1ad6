"""Fiber channel model: loss plus first- and higher-order PMD.

The fiber is a cascade of birefringent segments. At detuning ``delta_omega``
from the reference wavelength, segment ``i`` rotates the Stokes vector about
its principal axis by ``dgd_i * delta_omega``. Every segment rotation
vanishes at the reference wavelength, so the static part of the channel is
normalized to the identity by construction and only the frequency dependence
survives. A single segment reproduces pure first-order PMD; a cascade of
randomly oriented segments adds the higher orders.

Wavelengths are in nm, delay in ps, so detunings come out in rad/ps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError
from .fitting import least_squares
from .polarization import (
    _rodrigues,
    cross,
    normalize,
    perpendicular_unit,
    random_unit,
    require_unit,
    rotate_rows,
    rotation_taking,
    stokes_of,
)

SPEED_OF_LIGHT_NM_PER_PS = 299792.458


def delta_omega(wavelength_nm, reference_nm: float):
    """Angular-frequency detuning in rad/ps of a wavelength from a reference.

    Uses the exact relation 2*pi*c*(1/lambda - 1/lambda_ref), negative for
    wavelengths above the reference. A scalar wavelength gives a scalar and
    an array gives the array of its detunings.
    """
    lam = np.asarray(wavelength_nm, dtype=float)
    if np.any(lam <= 0.0) or reference_nm <= 0.0:
        raise ValidationError("wavelengths must be positive")
    return 2.0 * np.pi * SPEED_OF_LIGHT_NM_PER_PS * (1.0 / lam - 1.0 / reference_nm)


@dataclass(frozen=True)
class PmdVector:
    """First-order PMD vector: principal-axis direction and total delay."""

    axis: tuple[float, float, float]
    dgd_ps: float


@dataclass(frozen=True)
class FiberSegment:
    """One birefringent element, its fast axis on the sphere and its delay."""

    axis: tuple[float, float, float]
    dgd_ps: float

    def __post_init__(self):
        require_unit(self.axis, "segment axis")
        if not self.dgd_ps >= 0.0:
            raise ValidationError("segment delay must be non-negative")


@dataclass(frozen=True)
class FiberChannel:
    """A lossy fiber with a fixed cascade of birefringent segments."""

    segments: tuple[FiberSegment, ...]
    loss_db: float
    length_km: float
    reference_nm: float

    def __post_init__(self):
        if not self.loss_db >= 0.0:
            raise ValidationError("loss must be non-negative")
        if not self.length_km > 0.0:
            raise ValidationError("length must be positive")
        if not self.reference_nm > 0.0:
            raise ValidationError("reference wavelength must be positive")


# Rows per block of the segment cascade. A block's (n, 3) temporaries stay in
# cache; on a whole event batch of up to 2^18 rows the cascade is memory bound.
_BLOCK_ROWS = 1 << 14


def apply_channel_rows(states: np.ndarray, channel: FiberChannel, wavelengths_nm) -> np.ndarray:
    """Vectorized propagation: row i of ``states`` goes through at wavelength i.

    The cascade runs over blocks of ``_BLOCK_ROWS`` rows, and within a block
    the cosine and sine of ``dgd * delta_omega`` are evaluated once for each
    distinct segment delay. Rows are independent, so neither changes a bit.
    """
    out = np.array(states, dtype=float)
    lam = np.asarray(wavelengths_nm, dtype=float)
    if lam.shape != out.shape[:1]:
        raise ValidationError("need one wavelength per state row")
    dw = delta_omega(lam, channel.reference_nm)
    axes = [np.array(seg.axis) for seg in channel.segments]
    for start in range(0, len(out), _BLOCK_ROWS):
        block = out[start : start + _BLOCK_ROWS]
        w = dw[start : start + _BLOCK_ROWS]
        trig = {}
        for seg, axis in zip(channel.segments, axes):
            if seg.dgd_ps not in trig:
                angle = seg.dgd_ps * w
                trig[seg.dgd_ps] = (np.cos(angle), np.sin(angle))
            block = rotate_rows(block, axis, *trig[seg.dgd_ps])
        out[start : start + _BLOCK_ROWS] = block
    norms = np.linalg.norm(out, axis=1, keepdims=True)
    return out / norms


def first_order_pmd(channel: FiberChannel) -> PmdVector:
    """Leading-order PMD vector at the reference wavelength.

    With every segment rotation zero at the reference, the first-order vector
    is the plain sum of the segment delay vectors.
    """
    total = np.zeros(3)
    for seg in channel.segments:
        total += seg.dgd_ps * np.array(seg.axis)
    dgd = float(np.linalg.norm(total))
    if dgd == 0.0:
        return PmdVector(axis=(1.0, 0.0, 0.0), dgd_ps=0.0)
    return PmdVector(axis=tuple(total / dgd), dgd_ps=dgd)


def synthesize_channel(
    pmd_param_ps_per_sqrt_km: float,
    length_km: float,
    n_segments: int,
    seed: int,
    loss_db: float = 0.0,
    reference_nm: float = 1309.5,
) -> FiberChannel:
    """Draw a random channel whose RMS total delay matches a PMD parameter.

    Segment axes are isotropic and every segment carries the same delay
    ``pmd_param * sqrt(length) / sqrt(n_segments)``; the vector sum then
    performs a 3-d random walk whose RMS length is ``pmd_param * sqrt(length)``
    independent of the segment count.
    """
    if not pmd_param_ps_per_sqrt_km >= 0.0:
        raise ValidationError("PMD parameter must be non-negative")
    if not length_km > 0.0:  # checked before its square root is taken
        raise ValidationError("length must be positive")
    if n_segments < 1:
        raise ValidationError("need at least one segment")
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    per_segment = pmd_param_ps_per_sqrt_km * np.sqrt(length_km) / np.sqrt(n_segments)
    segments = tuple(
        FiberSegment(axis=tuple(random_unit(rng)), dgd_ps=float(per_segment))
        for _ in range(n_segments)
    )
    return FiberChannel(
        segments=segments, loss_db=loss_db, length_km=length_km, reference_nm=reference_nm
    )


def align_first_order_axis(channel: FiberChannel, target) -> FiberChannel:
    """Rigidly rotate all segment axes so the first-order axis hits ``target``.

    ``target`` is a cardinal-state label or a unit vector. Useful for pinning
    a synthesized channel's principal states onto a chosen encoder basis.

    All axes turn at once in the operation order of :func:`rotate`. The dot
    products and norms are numpy dots taken row by row, because a
    matrix-vector product sums in another order and moves the last bits of
    some axes.
    """
    goal = stokes_of(target) if isinstance(target, str) else require_unit(target, "target")
    pmd = first_order_pmd(channel)
    if pmd.dgd_ps == 0.0:
        raise ValidationError("channel has no first-order PMD to align")
    axis, angle = rotation_taking(np.array(pmd.axis), goal)
    axes = np.array([seg.axis for seg in channel.segments])
    c = np.cos(angle)
    dots = np.array([axis @ p for p in axes])
    turned = axes * c + cross(axis, axes) * np.sin(angle) + axis * dots[:, None] * (1.0 - c)
    norms = np.array([math.sqrt(p.dot(p)) for p in turned])
    turned /= norms[:, None]
    rotated = tuple(
        replace(seg, axis=tuple(p)) for seg, p in zip(channel.segments, turned)
    )
    return replace(channel, segments=rotated)


# The columns of a trajectory, in memory and in its CSV.
TRAJECTORY_COLUMNS = ("wavelength_nm", "s1", "s2", "s3")


def sweep_trajectory(
    channel: FiberChannel,
    state,
    start_nm: float,
    stop_nm: float,
    n_points: int,
) -> np.ndarray:
    """Trace the channel output of one input state across a wavelength sweep.

    Returns the (n_points, 4) trajectory: each row holds a wavelength and the
    output Stokes vector there, in the order of ``TRAJECTORY_COLUMNS``.
    """
    if n_points < 2:
        raise ValidationError("a sweep needs at least two points")
    if not (0.0 < start_nm < stop_nm < math.inf):
        raise ValidationError("need 0 < start_nm < stop_nm < inf")
    lam = np.linspace(start_nm, stop_nm, n_points)
    s = require_unit(state, "state")
    return np.column_stack((lam, apply_channel_rows(np.tile(s, (n_points, 1)), channel, lam)))


@dataclass(frozen=True)
class ArcFit:
    """Small-circle fit of a wavelength trajectory.

    ``axis`` is oriented so the trajectory advances right-handed with
    increasing optical frequency. ``polar_angle_rad`` is the opening angle
    between the axis and the points, ``rotation_angle_rad`` the azimuth swept
    about the axis, and ``central_angle_rad`` the great-circle arc length
    actually traced, i.e. rotation * sin(polar). ``rms_residual_rad`` is the
    scatter of the points' polar angles about their mean.
    """

    axis: tuple[float, float, float]
    polar_angle_rad: float
    rotation_angle_rad: float
    central_angle_rad: float
    rms_residual_rad: float
    n_points: int
    degenerate: bool = False


def _polar_angles(points: np.ndarray, axis: np.ndarray) -> np.ndarray:
    # The clip method is what np.clip calls, without its dispatch layer.
    return np.arccos((points @ axis).clip(-1.0, 1.0))


def _azimuths(points: np.ndarray, axis: np.ndarray) -> np.ndarray:
    u = perpendicular_unit(axis)
    v = cross(axis, u)
    return np.unwrap(np.arctan2(points @ v, points @ u))


def _refine_axis(pts: np.ndarray, seed_axis: np.ndarray, e1: np.ndarray, e2: np.ndarray):
    """Axis that minimizes the spread of the points' polar angles.

    The axis is the seed tilted by ``t1`` about ``e1`` and then by ``t2``
    about ``e2``; :func:`least_squares` refines (t1, t2) from zero with the
    analytic Jacobian of the polar angles ``beta = arccos(p . axis)``:
    d axis/dt1 = R(e2, t2)(e1 x a1), where a1 is the seed after the first
    tilt, and d axis/dt2 = e2 x axis. A solve that runs out of steps keeps
    its lowest-objective iterate.
    """

    def residual(tilts):
        t1, t2 = tilts.tolist()
        a1 = _rodrigues(seed_axis, e1, t1)
        axis = _rodrigues(a1, e2, t2)
        x = (pts @ axis).clip(-1.0, 1.0)
        beta = np.arccos(x)
        r = beta - np.add.reduce(beta) / beta.size  # beta.mean(), minus its dispatch
        d = np.array([_rodrigues(cross(e1, a1), e2, t2), cross(e2, axis)]).T
        # d beta/dt = -(p . d axis/dt) / sin(beta); the floor keeps a point on
        # the axis finite, and a step it spoils is refused like any other.
        jac = (pts @ d) / -np.sqrt(np.maximum(1.0 - x * x, 1e-300))[:, None]
        jac -= np.add.reduce(jac) / beta.size
        return r, jac

    t1, t2 = least_squares(residual, [0.0, 0.0])[0].tolist()
    return _rodrigues(_rodrigues(seed_axis, e1, t1), e2, t2)


def fit_arc(trajectory) -> ArcFit:
    """Fit a circle on the sphere to an (n, 4) trajectory with n >= 3.

    The axis is seeded by a least-squares plane through the points and then
    refined by minimizing the spread of their polar angles. Points must be
    ordered along the sweep with adjacent azimuth steps below half a turn,
    otherwise the unwrapped rotation angle is ambiguous.
    """
    traj = np.asarray(trajectory, dtype=float)
    if traj.ndim != 2 or traj.shape[1] != len(TRAJECTORY_COLUMNS):
        raise ValidationError("a trajectory is an (n, 4) array of wavelength_nm, s1, s2, s3")
    if len(traj) < 3:
        raise ValidationError("an arc fit needs at least three points")
    lams, pts = traj[:, 0], traj[:, 1:]
    if not np.isfinite(traj).all():
        raise ValidationError("trajectory points must be finite")
    norms = np.linalg.norm(pts, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-6):
        raise ValidationError("trajectory points must be unit Stokes vectors")
    pts = pts / norms[:, None]

    chord = float(np.max(np.linalg.norm(pts - pts[0], axis=1)))
    if chord < 1e-9:
        # All points coincide: the input sits on a principal state, nothing
        # rotates, and no axis is identifiable.
        return ArcFit(
            axis=(0.0, 0.0, 0.0),
            polar_angle_rad=0.0,
            rotation_angle_rad=0.0,
            central_angle_rad=0.0,
            rms_residual_rad=0.0,
            n_points=len(traj),
            degenerate=True,
        )

    centered = pts - pts.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    # The tilt frame is checked once here; each step then rotates without
    # checking again.
    seed_axis = require_unit(normalize(vt[-1]), "seed axis")
    e1 = require_unit(perpendicular_unit(seed_axis), "tilt axis")
    e2 = require_unit(cross(seed_axis, e1), "tilt axis")
    axis = _refine_axis(pts, seed_axis, e1, e2)

    # Orient the axis so azimuth grows with optical frequency. Frequency
    # detuning decreases with wavelength, so the handedness test flips the
    # wavelength ordering.
    phi = _azimuths(pts, axis)
    dlam = lams[-1] - lams[0]
    if dlam != 0.0 and (phi[-1] - phi[0]) * (-dlam) < 0.0:
        axis = -axis
        phi = _azimuths(pts, axis)

    beta = _polar_angles(pts, axis)
    polar = float(beta.mean())
    rms = float(np.sqrt(np.mean((beta - polar) ** 2)))
    span = float(np.max(phi) - np.min(phi))
    radius = float(np.sin(polar))
    return ArcFit(
        axis=tuple(axis),
        polar_angle_rad=polar,
        rotation_angle_rad=span,
        central_angle_rad=span * radius,
        rms_residual_rad=rms,
        n_points=len(traj),
        degenerate=radius < 1e-6,
    )


def estimate_dgd(central_angle_rad: float, span_nm: float, center_nm: float) -> float:
    """Differential group delay implied by an arc's length over a sweep.

    The arc length equals dgd times the detuning range covered, evaluated
    exactly from the sweep's end wavelengths.
    """
    if not all(map(math.isfinite, (central_angle_rad, span_nm, center_nm))):
        raise ValidationError("angle, span and center must be finite")
    if central_angle_rad < 0.0:
        raise ValidationError("central angle must be non-negative")
    if span_nm <= 0.0:
        raise ValidationError("sweep span must be positive")
    lo = center_nm - 0.5 * span_nm
    hi = center_nm + 0.5 * span_nm
    if lo <= 0.0:
        raise ValidationError("sweep extends to non-physical wavelengths")
    width = abs(delta_omega(hi, lo))
    return float(central_angle_rad / width)


def qber_from_pmd(state, channel: FiberChannel, spectrum, n_samples: int = 201):
    """Spectrally averaged misalignment error a broadband pulse suffers.

    The channel output is compared against the undisturbed state (which is
    also the output at the reference wavelength) and the wrong-port
    probability is integrated against the emitter's spectral density with a
    trapezoid rule on a uniform grid.

    ``state`` is one Stokes vector, which gives a float, or a (k, 3) stack of
    them, which gives an array of the k errors. A stack goes through the
    channel in one pass and each state keeps its own quadrature.
    """
    if n_samples < 201:
        raise ValidationError("quadrature needs at least 201 samples")
    arr = np.asarray(state, dtype=float)
    states = [require_unit(s, "state") for s in np.atleast_2d(arr)]
    if not states:
        raise ValidationError("need at least one state")
    lo, hi = spectrum.support()
    lam = np.linspace(lo, hi, n_samples)
    weights = spectrum.density(lam)
    rows = apply_channel_rows(
        np.repeat(states, n_samples, axis=0), channel, np.tile(lam, len(states))
    )
    total = np.trapezoid(weights, lam)
    if total <= 0.0:
        raise ValidationError("spectral density integrates to zero on its support")
    values = np.empty(len(states))
    for i, (s, out) in enumerate(zip(states, np.split(rows, len(states)))):
        err = 0.5 * (1.0 - out @ s)
        values[i] = np.clip(np.trapezoid(weights * err, lam) / total, 0.0, 1.0)
    return float(values[0]) if arr.ndim == 1 else values

