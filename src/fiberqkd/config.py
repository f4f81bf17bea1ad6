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

import math
from dataclasses import dataclass, replace
from functools import cached_property

from .channel import FiberChannel, FiberSegment, align_first_order_axis, synthesize_channel
from .documents import Fields, bundled_path as bundled_scenario_path, read_document
from .emitter import EmitterSpectrum, PhotonStatistics
from .errors import ValidationError
from .keyrate import SecurityParams, sent_multiphoton_probability
from .polarization import require_unit
from .protocol import (AliceSettings, DeviceParams, RateModel, SessionConfig, expected_rates,
                       survival_probability)

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

        The channel's spectral-mean rotation is computed on first use, so
        commands that never read the model never pay for it.
        """
        return expected_rates(self.config)

    @property
    def p_multi_sent(self) -> float:
        """Multi-photon probability of pulses leaving the transmitter."""
        return sent_multiphoton_probability(
            self.config.stats.mu, self.config.stats.g2_zero, self.config.device.alice_loss_db
        )


def _segment(doc, where: str) -> FiberSegment:
    seg = Fields(doc, where)
    axis = require_unit(seg.vector("axis"), f"{where}.axis")
    return FiberSegment(axis=tuple(axis.tolist()), dgd_ps=seg.number("dgd_ps"))


def _build_channel(doc: Fields) -> FiberChannel:
    loss = doc.number("l_c")
    reference = doc.number("reference_nm")
    if "segments" in doc.doc:
        segments, where = doc.get("segments"), f"{doc.where}.segments"
        if not isinstance(segments, list):
            raise ValidationError(f"{where} must be a list of objects")
        channel = FiberChannel(
            segments=tuple(_segment(seg, f"{where}[{i}]") for i, seg in enumerate(segments)),
            loss_db=loss,
            length_km=doc.number("length_km"),
            reference_nm=reference,
        )
    elif "synthesize" in doc.doc:
        synth = doc.section("synthesize")
        channel = synthesize_channel(
            pmd_param_ps_per_sqrt_km=synth.number("pmd_param"),
            length_km=synth.number("length_km"),
            n_segments=synth.whole("n_segments"),
            seed=synth.whole("seed"),
            loss_db=loss,
            reference_nm=reference,
        )
    else:
        raise ValidationError(f"{doc.where} needs either 'segments' or 'synthesize'")
    target = doc.get("align_first_order_axis_to", None)
    if target is not None:
        if not isinstance(target, str):  # a cardinal label, or else a vector
            target = doc.vector("align_first_order_axis_to")
        channel = align_first_order_axis(channel, target)
    return channel


def _solve_detection_scale(config: SessionConfig, target_bps: float) -> float:
    """Detection-scale factor that reproduces a measured sifted rate.

    The closed-form sifted fraction is B + A s in the signal-click
    probability s = b t - p_m t^2 (b = p_1 + 2 p_m) of the survival t, so the
    scale has a closed form. A and B come from the rate model at the least
    positive scale, where s vanishes, and at survival 1/2, both with zero
    misalignment errors: the sifted fraction does not depend on them.
    """
    if not target_bps > 0.0:
        raise ValidationError("sifted-rate target must be positive")
    device, stats = config.device, config.stats
    survival = survival_probability(device, config.channel.loss_db)  # 0 on a huge loss
    s = math.inf  # stays when no survival or no signal click raises the sifted rate
    if survival > 0.0 and 0.5 / survival < math.inf:
        floor = config.rate_model(0.0, 0.0, detection_scale=math.ulp(0.0))
        half = config.rate_model(0.0, 0.0, detection_scale=0.5 / survival)
        rise = half.sifted_fraction - floor.sifted_fraction
        if rise > 0.0:
            s = ((target_bps / device.rep_rate_hz - floor.sifted_fraction)
                 * (half.p_signal_click - floor.p_signal_click) / rise)
    if not s <= stats.p_single + stats.p_multi:
        raise ValidationError(
            f"sifted-rate target {target_bps} bps is unreachable even at unit survival"
        )
    if s < 0.0:
        raise ValidationError(
            f"sifted-rate target {target_bps} bps sits below the dark-count floor"
        )
    b = stats.p_single + 2.0 * stats.p_multi
    return 2.0 * s / (b + math.sqrt(b * b - 4.0 * stats.p_multi * s)) / survival


def scenario_from_dict(doc: dict) -> Scenario:
    """Build a scenario from its parsed JSON document."""
    return load_scenario(doc)


def load_scenario(source) -> Scenario:
    """Load a scenario from a bundled name, a path or a parsed dict."""
    doc = read_document(source, BUNDLED_SCENARIOS, "scenario")
    name = doc.text("name", "unnamed")
    dev = doc.section("device")
    device = DeviceParams(
        rep_rate_hz=dev.number("nu_rep"),
        detector_efficiency=dev.number("eta_det"),
        dark_prob=dev.number("p_dark"),
        intrinsic_error=dev.number("e0"),
        alice_loss_db=dev.number("l_a", 0.0),
        bob_loss_db=dev.number("l_b", 0.0),
    )
    stats = PhotonStatistics(mu=dev.number("r_c"), g2_zero=dev.number("g2_zero"))
    emit = doc.section("emitter")
    spectrum = EmitterSpectrum(
        center_nm=emit.number("center_nm"),
        fwhm_nm=emit.number("fwhm_nm"),
        shape=emit.text("shape", "gaussian"),
    )
    channel = _build_channel(doc.section("channel"))
    alice = AliceSettings(p_key=doc.section("alice", required=False).number("p_key", 0.5))
    receiver = doc.section("receiver", required=False)
    sec = doc.section("security", required=False)
    security = SecurityParams(
        eps_sec=sec.number("eps_sec", 1e-12),
        eps_cor=sec.number("eps_cor", 1e-12),
        f=sec.number("f", 1.16),
    )
    config = SessionConfig(
        device=device,
        stats=stats,
        spectrum=spectrum,
        channel=channel,
        alice=alice,
        bob_split=receiver.number("bob_split", 0.5),
        key_basis=doc.text("key_basis", "DA"),
        double_click_policy=receiver.text("double_click_policy", "discard"),
        window_s=doc.number("window_s", 20.0),
    )
    calibration = doc.section("calibration", required=False)
    if calibration.get("sifted_rate_target_bps", None) is not None:
        target = calibration.number("sifted_rate_target_bps")
        config = replace(config, detection_scale=_solve_detection_scale(config, target))
    return Scenario(name, config, security, duration_s=doc.number("duration_s", 3600.0))


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
