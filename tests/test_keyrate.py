"""Secure-length arithmetic, bias optimization, planning helpers."""

import math

import numpy as np
import pytest

from fiberqkd.config import bundled_scenario_path
from fiberqkd.errors import ValidationError
from fiberqkd.keyrate import (
    KeyTally,
    SecurityParams,
    asymptotic_key_fraction,
    binary_entropy,
    expected_tally,
    fluctuation_delta,
    gllp_asymptotic_rate,
    key_analysis_document,
    leakage_ec,
    load_key_analysis,
    multiphoton_correction,
    optimize_basis_probability,
    planning_rate_function,
    rate_vs_loss_curve,
    secure_key_length,
    sent_multiphoton_probability,
)

SECURITY = SecurityParams(eps_sec=1e-12, eps_cor=1e-12, f=1.16)


def bundled_tally(name):
    return load_key_analysis(bundled_scenario_path(name))


# --------------------------------------------------------------- entropy


def test_binary_entropy_endpoints_and_symmetry():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    for q in (1e-6, 0.01, 0.11, 0.3):
        assert binary_entropy(q) == pytest.approx(binary_entropy(1.0 - q), rel=1e-14)


def test_binary_entropy_against_high_precision_references():
    # frozen from a 40-digit evaluation of -q log2 q - (1-q) log2(1-q)
    assert binary_entropy(0.017) == pytest.approx(0.12424761932804052722, rel=1e-15)
    assert binary_entropy(0.083) == pytest.approx(0.41266265592362741645, rel=1e-15)
    assert binary_entropy(1e-9) == pytest.approx(3.1340047894153877018e-8, rel=1e-14)


def test_binary_entropy_array_and_validation():
    vals = binary_entropy(np.array([0.0, 0.25, 0.5]))
    assert vals.shape == (3,)
    assert vals[2] == 1.0
    with pytest.raises(ValidationError):
        binary_entropy(-0.1)
    with pytest.raises(ValidationError):
        binary_entropy(1.1)


# ----------------------------------------------------------- term helpers


def test_multiphoton_correction_arithmetic():
    a = multiphoton_correction(p_multi=1e-9, p_det=3.374e-5, p_basis=0.997)
    assert a == pytest.approx(1.0 - 1e-9 / (3.374e-5 * 0.997), rel=1e-12)
    # a vanishing or negative share is legal input; status handling is downstream
    assert multiphoton_correction(1e-3, 1e-4, 0.5) < 0.0
    with pytest.raises(ValidationError):
        multiphoton_correction(1e-9, 0.0, 0.5)


def test_fluctuation_delta_frozen_anchor():
    assert fluctuation_delta(1_000_000, 10_000, 1e-12) == pytest.approx(
        0.053488569545699506, rel=1e-13)


def test_fluctuation_delta_shrinks_with_statistics():
    base = fluctuation_delta(1_000_000, 10_000, 1e-12)
    assert fluctuation_delta(1_000_000, 40_000, 1e-12) < base
    assert fluctuation_delta(4_000_000, 40_000, 1e-12) < base
    assert fluctuation_delta(1_000_000, 10_000, 1e-6) < base  # looser epsilon


def test_leakage_is_linear_in_key_length():
    assert leakage_ec(1_000_000, 0.017, 1.16) == pytest.approx(
        1.16 * binary_entropy(0.017) * 1_000_000, rel=1e-13)


# -------------------------------------------------------------- key length


def test_secure_length_error_free_anchor():
    """10^6 key bits, 10^4 check bits, error-free: the length is pinned.

    Frozen from an independent evaluation of
    n (1 - h(delta)) - log2(2/(eps_sec^2 eps_cor)) with
    delta = sqrt((n_z + n_x)(n_x + 1) / (n_z n_x^2) * ln(2/eps_sec)).
    """
    tally = KeyTally(n_key=1_000_000, n_check=10_000, e_key=0.0, e_check=0.0,
                     p_key=0.997, p_check=0.003, p_det=1.0, p_multi=0.0)
    res = secure_key_length(tally, SECURITY)
    assert res.status == "ok"
    assert res.length_bits == 698_844
    assert res.terms["delta"] == pytest.approx(0.053488569545699506, rel=1e-13)
    assert res.terms["log_term"] == pytest.approx(120.58941141594505, rel=1e-13)
    assert res.rate_bps is None  # no duration on the tally


def test_secure_length_bundled_sessions_frozen():
    for name, length, rate in (
        ("tally-deployed-optimized", 13_005_020, 516.0722222222222),
        ("tally-deployed-balanced", 6_352_776, 252.09428571428572),
        ("tally-spool", 174_223, 48.39527777777778),
    ):
        tally, security, _ = bundled_tally(name)
        res = secure_key_length(tally, security)
        assert res.status == "ok", name
        assert res.length_bits == length, name
        assert res.rate_bps == pytest.approx(rate, rel=1e-12), name


def test_secure_length_terms_bundled_optimized():
    tally, security, _ = bundled_tally("tally-deployed-optimized")
    t = secure_key_length(tally, security).terms
    assert t["a_key"] == pytest.approx(0.9999514979230802, rel=1e-12)
    assert t["a_check"] == pytest.approx(0.9838811431036613, rel=1e-12)
    assert t["q_check"] == pytest.approx(0.08435978327440631, rel=1e-12)
    assert t["delta"] == pytest.approx(0.016686651292566208, rel=1e-12)
    assert t["leak_ec"] == pytest.approx(4887050.546367004, rel=1e-12)
    assert t["raw_bits"] == pytest.approx(13005020.184409253, rel=1e-12)


def test_biased_basis_beats_balanced_by_factor_two():
    biased, sec, _ = bundled_tally("tally-deployed-optimized")
    balanced, _, _ = bundled_tally("tally-deployed-balanced")
    ratio = (secure_key_length(biased, sec).rate_bps
             / secure_key_length(balanced, sec).rate_bps)
    assert ratio >= 2.0


def test_swapped_assignment_changes_only_error_roles():
    tally, security, _ = bundled_tally("tally-deployed-optimized")
    sw = tally.swapped_assignment()
    assert sw.e_key == tally.e_check and sw.e_check == tally.e_key
    assert sw.n_key == tally.n_key and sw.p_key == tally.p_key
    res = secure_key_length(sw, security)
    assert res.length_bits == 10_422_160
    assert res.rate_bps == pytest.approx(413.5777777777778, rel=1e-12)


def test_status_multi_photon_dominated():
    tally = KeyTally(n_key=10_000, n_check=10_000, e_key=0.01, e_check=0.01,
                     p_key=0.5, p_check=0.5, p_det=1e-6, p_multi=1e-6)
    res = secure_key_length(tally, SECURITY)
    assert res.status == "multi-photon dominated"
    assert res.length_bits == 0


def test_status_noise_dominated():
    tally = KeyTally(n_key=100_000, n_check=1_000, e_key=0.02, e_check=0.47,
                     p_key=0.5, p_check=0.5, p_det=1.0, p_multi=0.0)
    res = secure_key_length(tally, SECURITY)
    assert res.status == "noise dominated"
    assert res.length_bits == 0


def test_length_never_negative():
    tally = KeyTally(n_key=100, n_check=100, e_key=0.1, e_check=0.1,
                     p_key=0.5, p_check=0.5, p_det=1.0, p_multi=0.0)
    assert secure_key_length(tally, SECURITY).length_bits == 0


def test_key_tally_validation():
    with pytest.raises(ValidationError):
        KeyTally(n_key=0, n_check=10, e_key=0.0, e_check=0.0,
                 p_key=0.5, p_check=0.5, p_det=1.0, p_multi=0.0)
    with pytest.raises(ValidationError):
        KeyTally(n_key=10, n_check=10, e_key=0.0, e_check=0.0,
                 p_key=0.6, p_check=0.5, p_det=1.0, p_multi=0.0)
    with pytest.raises(ValidationError):
        KeyTally(n_key=10, n_check=10, e_key=1.5, e_check=0.0,
                 p_key=0.5, p_check=0.5, p_det=1.0, p_multi=0.0)
    with pytest.raises(ValidationError):
        KeyTally(n_key=10, n_check=10, e_key=0.0, e_check=0.0,
                 p_key=0.5, p_check=0.5, p_det=1.0, p_multi=0.0,
                 duration_s=-5.0)


# ----------------------------------------------------- asymptotic formulas


def test_gllp_threshold_frozen():
    # root of 1 - h(q) - 1.16 h(q) for a single-photon source
    q_star = 0.09810603806878622
    below = gllp_asymptotic_rate(1e6, 1.0, q_star - 1e-5, 0.0, 1.16)
    above = gllp_asymptotic_rate(1e6, 1.0, q_star + 1e-5, 0.0, 1.16)
    assert below > 0.0
    assert above == 0.0


def test_gllp_scales_with_throughput():
    r1 = gllp_asymptotic_rate(1e6, 1e-4, 0.03, 1e-9, 1.16, sift_factor=0.5)
    r2 = gllp_asymptotic_rate(2e6, 1e-4, 0.03, 1e-9, 1.16, sift_factor=0.5)
    r3 = gllp_asymptotic_rate(1e6, 1e-4, 0.03, 1e-9, 1.16, sift_factor=0.25)
    assert r2 == pytest.approx(2.0 * r1, rel=1e-12)
    assert r3 == pytest.approx(0.5 * r1, rel=1e-12)


def test_gllp_matches_key_fraction_composition():
    args = dict(p_det=1e-4, p_multi=1e-9, f=1.16)
    frac = asymptotic_key_fraction(e_key=0.03, e_check=0.03, **args)
    rate = gllp_asymptotic_rate(1e6, 1e-4, 0.03, 1e-9, 1.16, sift_factor=0.5)
    assert rate == pytest.approx(1e6 * 1e-4 * 0.5 * frac, rel=1e-12)


def test_multiphoton_fraction_kills_asymptotic_rate():
    # p_multi at the detection probability leaves no single-photon margin
    assert gllp_asymptotic_rate(1e6, 1e-4, 0.01, 1e-4, 1.16) == 0.0


# ------------------------------------------------------------ optimization


def test_optimizer_recovers_quadratic_maximum():
    res = optimize_basis_probability(lambda p: -((p - 0.8) ** 2))
    assert res.p_key == pytest.approx(0.8, abs=1e-4)
    assert not res.unimodality_violation
    assert res.n_evaluations > 10


def test_optimizer_flags_multimodal_landscape():
    # the first bump sits on the initial golden probe, trapping the bracket;
    # the taller bump near the edge is only visible to the verification grid
    def two_bumps(p):
        return (np.exp(-((p - 0.69) ** 2) / 2e-4)
                + 2.0 * np.exp(-((p - 0.98) ** 2) / 2e-4))

    res = optimize_basis_probability(two_bumps)
    assert res.unimodality_violation
    assert res.method == "golden-section+grid"
    assert res.p_key == pytest.approx(0.98, abs=2e-3)  # global bump wins


# -------------------------------------------------------- planning helpers


def test_expected_tally_floor_and_none():
    tally = expected_tally(p_det=3.374e-5, e_key=0.017, e_check=0.083,
                           p_key=0.997, p_multi=1.63e-9, duration_s=25200.0,
                           rep_rate_hz=80e6)
    assert tally is not None
    expect_key = math.floor(25200 * 80e6 * 3.374e-5 * 0.997 * 0.5)
    assert tally.n_key == expect_key
    assert tally.duration_s == 25200.0
    starved = expected_tally(p_det=1e-12, e_key=0.01, e_check=0.01, p_key=0.997,
                             p_multi=0.0, duration_s=1.0, rep_rate_hz=1e6)
    assert starved is None


def test_planning_rate_reproduces_bundled_session():
    # rebuilding the deployed tally from its own summary statistics lands on
    # the frozen rate up to count flooring
    tally, security, _ = bundled_tally("tally-deployed-optimized")
    fn = planning_rate_function(p_det=tally.p_det, e_key=tally.e_key,
                                e_check=tally.e_check, p_multi=tally.p_multi,
                                duration_s=tally.duration_s, rep_rate_hz=80e6,
                                security=security)
    assert fn(0.997) == pytest.approx(516.0722222222222, rel=5e-3)


def test_planning_rate_duration_limit_approaches_asymptotic():
    kwargs = dict(p_det=3.374e-5, e_key=0.017, e_check=0.083, p_multi=1.63e-9,
                  rep_rate_hz=80e6, security=SECURITY)
    finite = planning_rate_function(duration_s=1e9, **kwargs)
    infinite = planning_rate_function(duration_s=math.inf, **kwargs)
    assert infinite(0.9) > 0.0
    assert finite(0.9) == pytest.approx(infinite(0.9), rel=5e-3)
    assert finite(0.9) <= infinite(0.9)
    # and short blocks are strictly worse
    short = planning_rate_function(duration_s=600.0, **kwargs)
    assert short(0.9) < finite(0.9)


def test_rate_vs_loss_curve_ordering():
    grid = np.linspace(0.0, 15.0, 16)
    rows = rate_vs_loss_curve(
        rep_rate_hz=80e6,
        p_det_of_loss=lambda l: 1e-3 * 10 ** (-l / 10.0) + 4e-7,
        qber_of_loss=lambda l: 0.01 + 0.002 * l,
        p_multi=1e-9,
        security=SECURITY,
        loss_grid_db=grid,
        duration_s=3600.0,
    )
    assert len(rows) == 16
    assert set(rows[0]) == {"loss_db", "finite_bps", "gllp_bps"}
    for row in rows:
        assert row["finite_bps"] <= row["gllp_bps"] + 1e-9
    finite = [r["finite_bps"] for r in rows]
    assert all(a >= b for a, b in zip(finite, finite[1:]))


# ----------------------------------------------------------- serialization


def test_key_analysis_document_round_trip(tmp_path):
    tally = KeyTally(n_key=12345, n_check=678, e_key=0.021, e_check=0.047,
                     p_key=0.9, p_check=0.1, p_det=2e-5, p_multi=1e-9,
                     duration_s=100.0)
    doc = key_analysis_document(tally, SECURITY)
    path = tmp_path / "tally.json"
    import json

    path.write_text(json.dumps(doc))
    back, sec, raw = load_key_analysis(path)
    assert back == tally
    assert sec == SECURITY
    assert raw == doc


def test_load_key_analysis_missing_field():
    doc = {"n_z": 10, "n_x": 10, "e_z": 0.0, "e_x": 0.0, "p_z": 0.5, "p_x": 0.5,
           "p_det": 1.0, "p_m": 0.0, "eps_sec": 1e-12, "eps_cor": 1e-12}
    with pytest.raises(ValidationError):
        load_key_analysis(doc)  # no error-correction efficiency


def test_empirical_helpers_frozen():
    assert sent_multiphoton_probability(4.19e-4, 0.323, 6.2) == pytest.approx(
        1.6315506950474052e-9, rel=1e-12)
    assert sent_multiphoton_probability(4.19e-4, 0.0) == 0.0
