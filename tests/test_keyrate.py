"""Secure-length arithmetic, bias optimization, planning helpers."""

import functools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiberqkd.cli import main as cli_main
from fiberqkd.config import bundled_scenario_path, load_scenario, planning_inputs
from fiberqkd.errors import ValidationError
from fiberqkd.keyrate import (
    _GRID_STEP,
    _P_KEY_LOWER,
    _P_KEY_UPPER,
    KeyTally,
    SecurityParams,
    binary_entropy,
    expected_tally,
    gllp_asymptotic_rate,
    key_analysis_document,
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
    with pytest.raises(ValidationError):
        binary_entropy(np.array([0.25, math.nan]))


# ----------------------------------------------------------- term helpers


def test_multiphoton_correction_arithmetic():
    a = multiphoton_correction(p_multi=1e-9, p_det=3.374e-5, p_basis=0.997)
    assert a == pytest.approx(1.0 - 1e-9 / (3.374e-5 * 0.997), rel=1e-12)
    # a vanishing or negative share is legal input; status handling is downstream
    assert multiphoton_correction(1e-3, 1e-4, 0.5) < 0.0
    with pytest.raises(ValidationError):
        multiphoton_correction(1e-9, 0.0, 0.5)


def _terms(n_key, n_check, eps_sec=1e-12, e_key=0.0):
    """The finite-key terms of an error-free-check, multi-photon-free tally."""
    tally = KeyTally(n_key=n_key, n_check=n_check, e_key=e_key, e_check=0.0, p_key=0.9,
                     p_check=0.1, p_det=1.0, p_multi=0.0)
    return secure_key_length(tally, SecurityParams(eps_sec=eps_sec, f=1.16)).terms


def test_fluctuation_delta_frozen_anchor():
    assert _terms(1_000_000, 10_000)["delta"] == pytest.approx(0.053488569545699506, rel=1e-13)


def test_fluctuation_delta_shrinks_with_statistics():
    base = _terms(1_000_000, 10_000)["delta"]
    assert _terms(1_000_000, 40_000)["delta"] < base
    assert _terms(4_000_000, 40_000)["delta"] < base
    assert _terms(1_000_000, 10_000, eps_sec=1e-6)["delta"] < base  # looser epsilon


def test_fluctuation_delta_rejects_counts_that_overflow_its_ratio(tmp_path, capsys):
    """Counts whose product overflows give inf / inf; that is an error, not a
    NaN allowance that the entropy would have read as zero."""
    assert _terms(10**110, 10**110)["delta"] == 0.0  # only the denominator overflows
    for n_key, n_check in ((10**160, 10**160), (1, 10**160)):
        with pytest.raises(ValidationError, match="too large"):
            _terms(n_key, n_check)
    # Every operating point of an array is checked: one that overflows refuses all.
    objective = planning_rate_function(p_det=3.374e-5, e_key=0.017, e_check=0.083,
                                       p_multi=1.63e-9, duration_s=1e300, rep_rate_hz=80e6,
                                       security=SECURITY)
    with pytest.raises(ValidationError, match="too large"):
        objective(np.array([0.6, 0.9]))
    doc = key_analysis_document(bundled_tally("tally-spool")[0], SECURITY)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc | {"n_z": 10**160, "n_x": 10**160}))
    assert cli_main(["keyrate", "--tally", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: sifted counts too large for the deviation term\n"


def test_leakage_is_linear_in_key_length():
    leak = _terms(1_000_000, 10_000, e_key=0.017)["leak_ec"]
    assert leak == pytest.approx(1.16 * binary_entropy(0.017) * 1_000_000, rel=1e-13)
    assert _terms(2_000_000, 10_000, e_key=0.017)["leak_ec"] == 2.0 * leak


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


# Where the length is positive, one more key count raises the raw length by
# at least log_term / n, above 1e-5 bits for n up to 10^7, and a check-error
# step of at least 1e-6 lowers it by far more than the rounding of n (1 - h).
# So the comparisons below hold exactly over these ranges.
_TALLY_FIELDS = dict(
    n_key=st.integers(1, 10**7),
    n_check=st.integers(1, 10**7),
    e_key=st.floats(0.0, 0.5),
    e_check=st.floats(0.0, 0.5),
    p_key=st.floats(0.01, 0.99),
    p_det=st.floats(1e-6, 1.0),
    p_multi=st.floats(0.0, 1e-6),
)


def _tally(p_key, **fields):
    return KeyTally(p_key=p_key, p_check=1.0 - p_key, **fields)


@settings(max_examples=200, deadline=None)
@given(extra=st.integers(1, 10**7), **_TALLY_FIELDS)
def test_secure_length_does_not_decrease_with_key_count(extra, n_key, **fields):
    """More key-basis detections never shorten the key: the deviation term
    shrinks and the per-bit credit grows (Tomamichel, Lim, Gisin and Renner,
    Nat. Commun. 3, 634 (2012): the extractable length grows with the block)."""
    fewer = secure_key_length(_tally(n_key=n_key, **fields), SECURITY).length_bits
    more = secure_key_length(_tally(n_key=n_key + extra, **fields), SECURITY).length_bits
    assert more >= fewer


@settings(max_examples=200, deadline=None)
@given(step=st.floats(1e-6, 0.5), **_TALLY_FIELDS)
def test_secure_length_does_not_increase_with_check_error(step, e_check, **fields):
    """A higher check-basis error bounds the phase error higher and never
    lengthens the key (read against the same Tomamichel et al. bound)."""
    lower = secure_key_length(_tally(e_check=e_check, **fields), SECURITY).length_bits
    higher = secure_key_length(_tally(e_check=e_check + step, **fields), SECURITY).length_bits
    assert higher <= lower


@settings(max_examples=100, deadline=None)
@given(duration_s=st.none() | st.floats(1e-3, 1e6), **_TALLY_FIELDS)
def test_swapped_assignment_is_an_involution(**fields):
    tally = _tally(**fields)
    assert tally.swapped_assignment().swapped_assignment() == tally


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
    """nu p_det share (a (1 - h(min(q / a, 1/2))) - f h(q)) with a = 1 - p_m / p_det."""
    nu, p_det, q, p_m, f, share = 1e6, 1e-4, 0.03, 1e-9, 1.16, 0.5
    a = 1.0 - p_m / p_det
    frac = a * (1.0 - binary_entropy(min(q / a, 0.5))) - f * binary_entropy(q)
    rate = gllp_asymptotic_rate(nu, p_det, q, p_m, f, sift_factor=share)
    assert rate == pytest.approx(nu * p_det * share * frac, rel=1e-12)


def test_multiphoton_fraction_kills_asymptotic_rate():
    # p_multi at the detection probability leaves no single-photon margin
    assert gllp_asymptotic_rate(1e6, 1e-4, 0.01, 1e-4, 1.16) == 0.0


# ------------------------------------------------------------ optimization


def test_optimizer_recovers_quadratic_maximum():
    """One call of the objective, on the whole grid as one array."""
    calls = []

    def quadratic(p):
        calls.append(p)
        return -((p - 0.8) ** 2)

    res = optimize_basis_probability(quadratic)
    assert res.p_key == pytest.approx(0.8, abs=1e-4)
    assert len(calls) == 1 and isinstance(calls[0], np.ndarray)
    assert res.n_evaluations == calls[0].size == 5000


def test_optimizer_finds_the_global_bump_of_a_multimodal_landscape():
    # two local maxima; the taller one near the edge is the answer, with no
    # flag or second search needed to find it
    def two_bumps(p):
        return (np.exp(-((p - 0.69) ** 2) / 2e-4)
                + 2.0 * np.exp(-((p - 0.98) ** 2) / 2e-4))

    res = optimize_basis_probability(two_bumps)
    assert res.p_key == pytest.approx(0.98, abs=1e-4)
    assert res.rate_bps == pytest.approx(2.0, rel=1e-6)


def test_optimizer_returns_the_first_point_of_a_plateau():
    """The floored objective ties on plateaus: the smallest p_key of the
    best one wins. The spool's 25,200 s objective has such a plateau."""
    inputs, security = bundled_planning("spool-32p5km")
    rate_fn = planning_rate_function(duration_s=25200.0, security=security, **inputs)
    res = optimize_basis_probability(rate_fn)
    p, rates = res.evaluations.T
    tied = np.flatnonzero(rates == rates.max())
    assert tied.size > 1
    assert res.p_key == p[tied[0]] and res.rate_bps == rates.max()
    step = optimize_basis_probability(lambda q: np.floor(q * 10.0))
    assert step.p_key == p[np.flatnonzero(p >= 0.9)[0]]


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
        p_det=1e-3 * 10 ** (-grid / 10.0) + 4e-7,
        qber=0.01 + 0.002 * grid,
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


# ------------------------------------------------ array-valued objectives

BUNDLED = ("deployed-3p5km", "spool-32p5km")
PLANNING_KEYS = ("p_det", "e_key", "e_check", "p_multi", "rep_rate_hz", "bob_key_share")
# multi-photon emissions outweigh the check basis's detections above p_key ~ 0.85
MULTIPHOTON_HEAVY = dict(p_det=3.4e-5, e_key=0.02, e_check=0.05, p_multi=5e-6,
                         rep_rate_hz=80e6, bob_key_share=0.5)
P_GRID = np.concatenate([np.linspace(_P_KEY_LOWER, _P_KEY_UPPER, 201),
                         [0.999, 0.9999, 1.0 - 1e-7]])


@functools.cache
def bundled_planning(name):
    scenario = load_scenario(name)
    inputs = planning_inputs(scenario)
    return {key: inputs[key] for key in PLANNING_KEYS}, scenario.security


def scalar_planning_rate(inputs, p_key, duration_s, security):
    """(rate, status) of one operating point through the scalar tally path."""
    tally = expected_tally(inputs["p_det"], inputs["e_key"], inputs["e_check"], p_key,
                           inputs["p_multi"], duration_s, inputs["rep_rate_hz"],
                           inputs["bob_key_share"])
    if tally is None:
        return 0.0, "zero count"
    result = secure_key_length(tally, security)
    return result.rate_bps, result.status


def test_finite_objective_on_a_grid_equals_scalar_secure_length():
    """One array call gives bit for bit the rate of each point's own tally."""
    cases = [bundled_planning(name) for name in BUNDLED] + [(MULTIPHOTON_HEAVY, SECURITY)]
    statuses = set()
    for inputs, security in cases:
        for duration in (60.0, 600.0, 3600.0, 25200.0, 1e9):
            rates = planning_rate_function(duration_s=duration, security=security,
                                           **inputs)(P_GRID)
            for p, rate in zip(P_GRID.tolist(), rates.tolist()):
                expected, status = scalar_planning_rate(inputs, p, duration, security)
                assert rate == expected, (inputs, duration, p)
                statuses.add(status)
    assert statuses == {"ok", "noise dominated", "multi-photon dominated", "zero count"}


@settings(max_examples=60, deadline=None)
@given(
    p_det=st.floats(1e-7, 1.0),
    e_key=st.floats(0.0, 0.5),
    e_check=st.floats(0.0, 0.5),
    p_multi=st.floats(0.0, 1e-4),
    duration=st.floats(1.0, 1e6),
    rep_rate=st.floats(1e3, 1e9),
    share=st.floats(0.05, 0.95),
    p_keys=st.lists(st.floats(1e-3, 1.0 - 1e-3), min_size=1, max_size=20),
)
def test_finite_objective_equals_scalar_secure_length_for_any_inputs(
        p_det, e_key, e_check, p_multi, duration, rep_rate, share, p_keys):
    inputs = dict(p_det=p_det, e_key=e_key, e_check=e_check, p_multi=p_multi,
                  rep_rate_hz=rep_rate, bob_key_share=share)
    rates = planning_rate_function(duration_s=duration, security=SECURITY,
                                   **inputs)(np.array(p_keys))
    for p, rate in zip(p_keys, rates.tolist()):
        assert rate == scalar_planning_rate(inputs, p, duration, SECURITY)[0]


def scalar_asymptotic_rate(inputs, p_key, f):
    """The infinite-duration objective at one point, in scalar arithmetic."""
    p_det, p_multi = inputs["p_det"], inputs["p_multi"]
    a_key = multiphoton_correction(p_multi, p_det, p_key)
    a_check = multiphoton_correction(p_multi, p_det, 1.0 - p_key)
    if a_key <= 0.0 or a_check <= 0.0:
        return 0.0
    q = min(inputs["e_check"] / a_check, 0.5)
    fraction = a_key * (1.0 - binary_entropy(q)) - f * binary_entropy(inputs["e_key"])
    share = inputs["rep_rate_hz"] * p_det * p_key * inputs["bob_key_share"]
    return max(0.0, share * fraction)


def test_asymptotic_objective_on_a_grid_equals_scalar_arithmetic():
    cases = [bundled_planning(name) for name in BUNDLED] + [(MULTIPHOTON_HEAVY, SECURITY)]
    for inputs, security in cases:
        rates = planning_rate_function(duration_s=math.inf, security=security,
                                       **inputs)(P_GRID)
        for p, rate in zip(P_GRID.tolist(), rates.tolist()):
            assert rate == scalar_asymptotic_rate(inputs, p, security.f), (inputs, p)
    assert 0.0 in rates.tolist() and max(rates.tolist()) > 0.0  # both branches ran


@pytest.mark.parametrize("duration", ["60", "1433.734296453897"])
def test_optimize_audit_trail_order(tmp_path, duration):
    """The audit is the grid in order, both ends included, every rate equal to
    a scalar call of the objective."""
    out = tmp_path / "opt.json"
    assert cli_main(["optimize", "--scenario", "deployed-3p5km", "--duration", duration,
                     "--audit", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    grid = np.arange(_P_KEY_LOWER, _P_KEY_UPPER + 0.5 * _GRID_STEP, _GRID_STEP)
    evals = doc["evaluations"]
    assert [p for p, _ in evals] == np.minimum(grid, _P_KEY_UPPER).tolist()
    assert evals[0][0] == _P_KEY_LOWER and evals[-1][0] == _P_KEY_UPPER
    assert doc["n_evaluations"] == len(evals)
    inputs, security = bundled_planning("deployed-3p5km")
    rate_fn = planning_rate_function(duration_s=float(duration), security=security, **inputs)
    assert [r for _, r in evals] == [rate_fn(p) for p, _ in evals]


def test_rate_vs_loss_curve_rows_equal_per_point_scalar_computation():
    grid = np.linspace(0.0, 60.0, 61)
    p_det = 1e-3 * 10 ** (-grid / 10.0) + 4e-9
    qber = 0.01 + 0.003 * grid
    rows = rate_vs_loss_curve(80e6, p_det, qber, 1e-9, SECURITY, grid, 10.0,
                              p_key=0.9, bob_key_share=0.5)
    finite_statuses = set()
    for row, loss, pd, e in zip(rows, grid.tolist(), p_det.tolist(), qber.tolist()):
        tally = expected_tally(pd, e, e, 0.9, 1e-9, 10.0, 80e6, 0.5)
        finite = 0.0 if tally is None else secure_key_length(tally, SECURITY).rate_bps
        finite_statuses.add("zero count" if tally is None else finite > 0.0)
        gllp = gllp_asymptotic_rate(80e6, pd, e, 1e-9, 1.16, sift_factor=0.9 * 0.5)
        assert row == {"loss_db": loss, "finite_bps": finite, "gllp_bps": gllp}
        assert type(row["finite_bps"]) is float and type(row["gllp_bps"]) is float
    assert finite_statuses == {True, False, "zero count"}


def test_scalar_inputs_give_python_floats():
    kwargs = dict(p_det=3.374e-5, e_key=0.017, e_check=0.083, p_multi=1.63e-9,
                  rep_rate_hz=80e6, security=SECURITY)
    for duration in (600.0, math.inf):
        fn = planning_rate_function(duration_s=duration, **kwargs)
        assert type(fn(0.9)) is float
        assert fn(np.array([0.9])).shape == (1,)
    assert type(gllp_asymptotic_rate(1e6, 1e-4, 0.03, 1e-9, 1.16)) is float
    assert type(binary_entropy(0.017)) is float
    assert type(multiphoton_correction(1e-9, 1e-4, 0.5)) is float


def test_planning_rate_function_rejects_invalid_inputs():
    kwargs = dict(p_det=3.374e-5, e_key=0.017, e_check=0.083, p_multi=1.63e-9,
                  duration_s=600.0, rep_rate_hz=80e6, security=SECURITY)
    for key, value in (("p_det", 0.0), ("p_det", math.nan), ("e_key", 1.5),
                       ("e_check", -0.1), ("p_multi", -1e-9)):
        with pytest.raises(ValidationError):
            planning_rate_function(**{**kwargs, key: value})
    for duration in (0.0, -1.0, math.nan):
        with pytest.raises(ValidationError):
            planning_rate_function(**{**kwargs, "duration_s": duration})(0.9)


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


def test_load_key_analysis_by_bundled_name():
    by_name = load_key_analysis("tally-spool")
    assert by_name == bundled_tally("tally-spool")
    assert by_name[0].n_key == 923003 and isinstance(by_name[0].n_key, int)


@pytest.mark.parametrize("edit", [
    lambda doc: doc.pop("duration_s"),
    lambda doc: doc.update(duration_s=None),
], ids=["absent", "null"])
def test_load_key_analysis_without_duration(edit):
    doc = key_analysis_document(bundled_tally("tally-spool")[0], SECURITY)
    edit(doc)
    tally, _, _ = load_key_analysis(doc)
    assert tally.duration_s is None
    assert secure_key_length(tally, SECURITY).rate_bps is None


@pytest.mark.parametrize("key, value", [
    ("duration_s", 0),
    ("duration_s", "3600"),
    ("n_z", True),
    ("p_det", "6.4e-06"),
    ("f", False),
], ids=["duration-zero", "duration-text", "n_z-true", "p_det-text", "f-false"])
def test_load_key_analysis_rejects_zero_duration_text_and_booleans(key, value):
    doc = key_analysis_document(bundled_tally("tally-spool")[0], SECURITY)
    doc[key] = value
    with pytest.raises(ValidationError, match=f"tally.{key}|duration"):
        load_key_analysis(doc)


def test_empirical_helpers_frozen():
    assert sent_multiphoton_probability(4.19e-4, 0.323, 6.2) == pytest.approx(
        1.6315506950474052e-9, rel=1e-12)
    assert sent_multiphoton_probability(4.19e-4, 0.0) == 0.0
