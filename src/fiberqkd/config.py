"""Scenario files: JSON descriptions of a complete link, ready to run.

A scenario bundles the device constants, source statistics, spectrum,
channel, transmitter bias and security parameters under one name. Device
fields use the customary symbols (nu_rep, r_c, eta_det, p_dark, e0, l_a,
l_b) and the channel loss is l_c. Channels are either spelled out segment by
segment or synthesized from a PMD parameter with a fixed seed, so a scenario
pins one concrete channel realization.

When a scenario carries a measured sifted-rate target, a detection-scale
factor is solved so the closed-form sifted rate reproduces it; the factor
rescales the end-to-end detection efficiency and leaves the source
statistics untouched.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import cached_property
from importlib import resources

from scipy.optimize import brentq

from .channel import FiberChannel, FiberSegment, align_first_order_axis, synthesize_channel
from .emitter import EmitterSpectrum, PhotonStatistics
from .errors import ValidationError
from .keyrate import SecurityParams, sent_multiphoton_probability, whole_number
from .polarization import require_unit
from .protocol import AliceSettings, DeviceParams, RateModel, SessionConfig, expected_rates

BUNDLED_SCENARIOS = ("deployed-3p5km", "spool-32p5km")


@dataclass(frozen=True)
class Scenario:
    """A named, fully resolved link description."""

    name: str
    config: SessionConfig
    security: SecurityParams
    duration_s: float

    @cached_property
    def rate_model(self) -> RateModel:
        """Closed-form rates of this link, computed at most once per scenario.

        The misalignment quadrature runs on first use, so commands that never
        read the model never pay for it.
        """
        return expected_rates(self.config)

    @property
    def p_multi_sent(self) -> float:
        """Multi-photon probability of pulses leaving the transmitter."""
        return sent_multiphoton_probability(
            self.config.stats.mu, self.config.stats.g2_zero, self.config.device.alice_loss_db
        )


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise ValidationError(f"scenario {where} section is missing {key!r}")
    return doc[key]


def _segment(seg: dict) -> FiberSegment:
    axis = require_unit(_require(seg, "axis", "channel.segments"), "segment axis")
    dgd = _require(seg, "dgd_ps", "channel.segments")
    try:
        dgd = float(dgd)
    except (TypeError, ValueError):
        raise ValidationError(f"segment dgd_ps must be a number, got {dgd!r}") from None
    return FiberSegment(axis=tuple(axis.tolist()), dgd_ps=dgd)


def _build_channel(doc: dict) -> FiberChannel:
    loss = float(_require(doc, "l_c", "channel"))
    reference = float(_require(doc, "reference_nm", "channel"))
    if "segments" in doc:
        segments = doc["segments"]
        if not (isinstance(segments, list) and all(isinstance(seg, dict) for seg in segments)):
            raise ValidationError("scenario channel.segments must be a list of objects")
        channel = FiberChannel(
            segments=tuple(_segment(seg) for seg in segments),
            loss_db=loss,
            length_km=float(_require(doc, "length_km", "channel")),
            reference_nm=reference,
        )
    elif "synthesize" in doc:
        synth = doc["synthesize"]
        if not isinstance(synth, dict):
            raise ValidationError("scenario channel.synthesize must be an object")
        n_segments = whole_number(_require(synth, "n_segments", "channel.synthesize"), "n_segments")
        seed = whole_number(_require(synth, "seed", "channel.synthesize"), "seed")
        channel = synthesize_channel(
            pmd_param_ps_per_sqrt_km=float(_require(synth, "pmd_param", "channel.synthesize")),
            length_km=float(_require(synth, "length_km", "channel.synthesize")),
            n_segments=n_segments,
            seed=seed,
            loss_db=loss,
            reference_nm=reference,
        )
    else:
        raise ValidationError("channel needs either 'segments' or 'synthesize'")
    target = doc.get("align_first_order_axis_to")
    if target is not None:
        channel = align_first_order_axis(channel, target)
    return channel


def _solve_detection_scale(config: SessionConfig, target_bps: float) -> float:
    """Detection-scale factor that reproduces a measured sifted rate.

    The closed-form sifted rate does not depend on the misalignment errors,
    so the solve sets them to zero and runs no quadrature.
    """
    if not target_bps > 0.0:
        raise ValidationError("sifted-rate target must be positive")
    device = config.device
    loss = config.channel.loss_db
    base = 10.0 ** (-(device.alice_loss_db + loss + device.bob_loss_db) / 10.0)
    scale_max = 1.0 / (base * device.detector_efficiency)

    def gap(scale: float) -> float:
        return config.rate_model(0.0, 0.0, detection_scale=scale).sifted_bps - target_bps

    if gap(scale_max) < 0.0:
        raise ValidationError(
            f"sifted-rate target {target_bps} bps is unreachable even at unit survival"
        )
    if gap(1e-12) > 0.0:
        raise ValidationError(
            f"sifted-rate target {target_bps} bps sits below the dark-count floor"
        )
    return float(brentq(gap, 1e-12, scale_max, xtol=1e-15, rtol=1e-14))


def scenario_from_dict(doc: dict) -> Scenario:
    """Build a scenario from its JSON document."""
    name = doc.get("name", "unnamed")
    dev = _require(doc, "device", "top level")
    device = DeviceParams(
        rep_rate_hz=float(_require(dev, "nu_rep", "device")),
        detector_efficiency=float(_require(dev, "eta_det", "device")),
        dark_prob=float(_require(dev, "p_dark", "device")),
        intrinsic_error=float(_require(dev, "e0", "device")),
        alice_loss_db=float(dev.get("l_a", 0.0)),
        bob_loss_db=float(dev.get("l_b", 0.0)),
    )
    stats = PhotonStatistics(
        mu=float(_require(dev, "r_c", "device")),
        g2_zero=float(_require(dev, "g2_zero", "device")),
    )
    emit = _require(doc, "emitter", "top level")
    spectrum = EmitterSpectrum(
        center_nm=float(_require(emit, "center_nm", "emitter")),
        fwhm_nm=float(_require(emit, "fwhm_nm", "emitter")),
        shape=emit.get("shape", "gaussian"),
    )
    channel = _build_channel(_require(doc, "channel", "top level"))
    alice = AliceSettings(p_key=float(doc.get("alice", {}).get("p_key", 0.5)))
    receiver = doc.get("receiver", {})
    sec = doc.get("security", {})
    security = SecurityParams(
        eps_sec=float(sec.get("eps_sec", 1e-12)),
        eps_cor=float(sec.get("eps_cor", 1e-12)),
        f=float(sec.get("f", 1.16)),
    )
    config = SessionConfig(
        device=device,
        stats=stats,
        spectrum=spectrum,
        channel=channel,
        alice=alice,
        bob_split=float(receiver.get("bob_split", 0.5)),
        key_basis=doc.get("key_basis", "DA"),
        double_click_policy=receiver.get("double_click_policy", "discard"),
        detection_scale=1.0,
        window_s=float(doc.get("window_s", 20.0)),
    )
    calibration = doc.get("calibration", {})
    target = calibration.get("sifted_rate_target_bps")
    if target is not None:
        scale = _solve_detection_scale(config, float(target))
        config = replace(config, detection_scale=scale)
    return Scenario(
        name=name,
        config=config,
        security=security,
        duration_s=float(doc.get("duration_s", 3600.0)),
    )


def bundled_scenario_path(name: str):
    return resources.files("fiberqkd.data").joinpath(f"{name}.json")


def load_scenario(source) -> Scenario:
    """Load a scenario from a bundled name, a path or a parsed dict."""
    if isinstance(source, dict):
        return scenario_from_dict(source)
    text = None
    if isinstance(source, str) and source in BUNDLED_SCENARIOS:
        text = bundled_scenario_path(source).read_text()
    else:
        try:
            with open(source) as handle:
                text = handle.read()
        except FileNotFoundError:
            raise ValidationError(
                f"no scenario named {source!r}; bundled names: {', '.join(BUNDLED_SCENARIOS)}"
            ) from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"scenario file is not valid JSON: {exc}") from exc
    return scenario_from_dict(doc)


def planning_inputs(scenario: Scenario) -> dict:
    """Closed-form quantities used by the optimizer and rate curves."""
    model = scenario.rate_model
    cfg = scenario.config
    bob_key_share = cfg.bob_split if cfg.key_basis == "DA" else 1.0 - cfg.bob_split
    return {
        "rep_rate_hz": cfg.device.rep_rate_hz,
        "p_det": model.p_det,
        "e_key": model.e_key,
        "e_check": model.e_check,
        "qber_pooled": model.qber_pooled,
        "e_pol_da": model.e_pol_da,
        "e_pol_lr": model.e_pol_lr,
        "p_multi": scenario.p_multi_sent,
        "bob_key_share": bob_key_share,
    }
