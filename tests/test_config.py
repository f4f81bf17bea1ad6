"""Scenario files: loading, throughput calibration, planning summaries."""

import json
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


@pytest.mark.parametrize("name", BUNDLED_SCENARIOS)
def test_calibration_needs_no_misalignment_errors(name):
    """The scale solved with zero errors is the one solved with the true ones."""
    scn = load_scenario(name)
    config = replace(scn.config, detection_scale=1.0)
    model = expected_rates(config)
    assert model.e_pol_da > 0.0 and model.e_pol_lr > 0.0
    doc = json.loads(bundled_scenario_path(name).read_text())
    target = doc["calibration"]["sifted_rate_target_bps"]
    device = config.device
    total_db = device.alice_loss_db + config.channel.loss_db + device.bob_loss_db
    scale_max = 1.0 / (10.0 ** (-total_db / 10.0) * device.detector_efficiency)

    def gap(scale):
        m = config.rate_model(model.e_pol_da, model.e_pol_lr, detection_scale=scale)
        return m.sifted_bps - target

    assert brentq(gap, 1e-12, scale_max, xtol=1e-15, rtol=1e-14) == scn.config.detection_scale


def test_sent_multiphoton_share():
    scn = load_scenario("deployed-3p5km")
    # mu 4.19e-4, g2 0.323, 6.2 dB of transmitter loss
    assert scn.p_multi_sent == pytest.approx(1.6315506950474052e-9, rel=1e-12)


def test_planning_inputs_summary():
    pi = planning_inputs(load_scenario("deployed-3p5km"))
    assert pi["rep_rate_hz"] == 80e6
    assert pi["p_det"] == pytest.approx(3.374001006184457e-05, rel=1e-9)
    assert pi["e_key"] == pytest.approx(0.014875955876015921, rel=1e-9)
    assert pi["e_check"] == pytest.approx(0.04792731077640113, rel=1e-9)
    assert pi["p_multi"] == pytest.approx(1.6315506950474052e-09, rel=1e-12)
    assert pi["bob_key_share"] == 0.5
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
