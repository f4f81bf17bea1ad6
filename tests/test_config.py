"""Scenario files: loading, throughput calibration, planning summaries."""

import json
import math
from dataclasses import replace

import pytest
from scipy.optimize import brentq

from fiberqkd.config import (
    BUNDLED_SCENARIOS,
    Scenario,
    bundled_scenario_path,
    load_scenario,
    planning_inputs,
)
from fiberqkd.errors import ValidationError
from fiberqkd.protocol import expected_rates


def test_bundled_names():
    assert BUNDLED_SCENARIOS == ("deployed-3p5km", "spool-32p5km")
    for name in BUNDLED_SCENARIOS:
        assert bundled_scenario_path(name).exists()


def test_load_scenario_by_name_path_and_dict():
    by_name = load_scenario("deployed-3p5km")
    by_path = load_scenario(bundled_scenario_path("deployed-3p5km"))
    by_dict = load_scenario(json.loads(bundled_scenario_path("deployed-3p5km").read_text()))
    assert isinstance(by_name, Scenario)
    assert by_name.config.detection_scale == by_path.config.detection_scale
    assert by_name.config.detection_scale == by_dict.config.detection_scale
    with pytest.raises(ValidationError):
        load_scenario("nope")


def test_deployed_scenario_calibration():
    """Throughput calibration on the short deployed link.

    The stored target of 1349.6 sifted bits per second fixes the detection
    scale; the derived detection probability must agree with the session
    summary shipped alongside (p_det 3.374e-5).
    """
    scn = load_scenario("deployed-3p5km")
    assert scn.duration_s == 25200.0
    assert scn.config.stats.mu == pytest.approx(4.19e-4)
    assert scn.config.detection_scale == pytest.approx(3.286419121578675, rel=1e-9)
    model = expected_rates(scn.config)
    assert model.sifted_bps == pytest.approx(1349.6, rel=1e-9)
    assert model.p_det == pytest.approx(3.374e-5, rel=1e-4)
    # dispersion penalizes the circular basis more than the linear one
    assert model.qber_da < model.qber_lr


def test_spool_scenario_calibration():
    scn = load_scenario("spool-32p5km")
    assert scn.duration_s == 3600.0
    assert scn.config.detection_scale == pytest.approx(3.1189074719704735, rel=1e-9)
    model = expected_rates(scn.config)
    assert model.sifted_bps == pytest.approx(257.16097849631984, rel=1e-9)


def _brentq_scale(config, e_pol_da, e_pol_lr, target):
    """The detection scale as it was solved before the closed form: a bracketed
    root of the sifted-rate gap, here with the link's true misalignment errors."""
    device = config.device
    total_db = device.alice_loss_db + config.channel.loss_db + device.bob_loss_db
    scale_max = 1.0 / (10.0 ** (-total_db / 10.0) * device.detector_efficiency)

    def gap(scale):
        m = config.rate_model(e_pol_da, e_pol_lr, detection_scale=scale)
        return m.sifted_bps - target

    return brentq(gap, 1e-12, scale_max, xtol=1e-15, rtol=1e-14)


@pytest.mark.parametrize("name", BUNDLED_SCENARIOS)
def test_calibration_needs_no_misalignment_errors(name):
    """The closed-form scale, solved with zero errors, is within 4 ulp of the
    root solved with the true ones, on the bundled link and across a grid of
    targets and channel losses."""
    doc = json.loads(bundled_scenario_path(name).read_text())
    model = expected_rates(replace(load_scenario(name).config, detection_scale=1.0))
    assert model.e_pol_da > 0.0 and model.e_pol_lr > 0.0
    measured = doc["calibration"]["sifted_rate_target_bps"]
    for loss in (None, 0.0, 1.0, 4.0, 11.2, 20.0, 30.0):
        for target in (measured, 0.3 * measured, 3.0 * measured):
            grid_doc = json.loads(json.dumps(doc))
            if loss is not None:
                grid_doc["channel"]["l_c"] = loss
            grid_doc["calibration"]["sifted_rate_target_bps"] = target
            solved = load_scenario(grid_doc).config
            oracle = _brentq_scale(replace(solved, detection_scale=1.0), model.e_pol_da,
                                   model.e_pol_lr, target)
            scale = solved.detection_scale
            assert abs(scale - oracle) <= 4.0 * math.ulp(oracle), (loss, target)


def test_sent_multiphoton_share():
    scn = load_scenario("deployed-3p5km")
    # mu 4.19e-4, g2 0.323, 6.2 dB of transmitter loss
    assert scn.p_multi_sent == pytest.approx(1.6315506950474052e-9, rel=1e-12)


_FROZEN_PLANNING = {
    "deployed-3p5km": dict(p_det=3.374001006184457e-05, e_key=0.014875955876016178,
                           e_check=0.04792731077640118, qber_pooled=0.031401633326208676,
                           e_pol_da=5.685290856838332e-05, e_pol_lr=0.034117828827360974),
    "spool-32p5km": dict(p_det=6.4290263309674245e-06, e_key=0.05252297246105711,
                         e_check=0.06611257791456418, qber_pooled=0.059317775187810645,
                         e_pol_da=0.014088579366040743, e_pol_lr=0.02884541398632512),
}

# The same inputs when each protocol state had its own spectral quadrature,
# before the channel entered through one spectral-mean rotation.
_PER_STATE_QUADRATURE_PLANNING = {
    "deployed-3p5km": dict(p_det=3.374001006184457e-05, e_key=0.014875955876015923,
                           e_check=0.04792731077640113, qber_pooled=0.031401633326208524,
                           e_pol_da=5.685290856812337e-05, e_pol_lr=0.034117828827360926),
    "spool-32p5km": dict(p_det=6.4290263309674245e-06, e_key=0.05252297246105725,
                         e_check=0.06611257791456446, qber_pooled=0.05931777518781085,
                         e_pol_da=0.014088579366040892, e_pol_lr=0.02884541398632543),
}


def test_planning_inputs_summary():
    """Frozen to the bit on both bundled links, so that a rewrite of the
    calibration, the channel average or the rate model that moves a bit is
    seen and declared. The error rates stay within rounding of the per-state
    quadrature that the spectral-mean rotation replaced: 4e-16 absolute, and
    1e-13 relative on the pooled error."""
    for name, frozen in _FROZEN_PLANNING.items():
        pi = planning_inputs(load_scenario(name))
        assert pi == dict(frozen, rep_rate_hz=80e6, p_multi=1.6315506950474052e-09,
                          bob_key_share=0.5)
        before = _PER_STATE_QUADRATURE_PLANNING[name]
        assert pi["p_det"] == before["p_det"]
        for key in ("e_pol_da", "e_pol_lr", "e_key", "e_check"):
            assert abs(pi[key] - before[key]) <= 4e-16, (name, key)
        assert pi["qber_pooled"] == pytest.approx(before["qber_pooled"], rel=1e-13, abs=0.0)
        # pooled error sits between the per-basis values
        assert pi["e_key"] < pi["qber_pooled"] < pi["e_check"]


def test_calibration_target_bounds():
    doc = json.loads(bundled_scenario_path("deployed-3p5km").read_text())
    doc["calibration"]["sifted_rate_target_bps"] = 1e12
    with pytest.raises(ValidationError):
        load_scenario(doc)
    doc["calibration"]["sifted_rate_target_bps"] = 1e-6
    with pytest.raises(ValidationError):
        load_scenario(doc)


def test_scenario_with_explicit_segments(tmp_path):
    doc = json.loads(bundled_scenario_path("deployed-3p5km").read_text())
    doc["channel"] = {
        "l_c": 4.0,
        "reference_nm": 1309.5,
        "length_km": 3.5,
        "segments": [{"axis": [1.0, 0.0, 0.0], "dgd_ps": 0.117}],
    }
    doc.pop("calibration")
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(doc))
    scn = load_scenario(path)
    assert scn.config.detection_scale == 1.0
    assert len(scn.config.channel.segments) == 1
    assert scn.config.channel.segments[0].dgd_ps == pytest.approx(0.117)
