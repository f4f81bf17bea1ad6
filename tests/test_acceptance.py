"""End-to-end acceptance checks, one capability per test.

Tolerances are stated inline. Frozen reference numbers were computed before
the code under test existed: closed forms evaluated at 40 digits, direct
geometric constructions, and field-trial session summaries. Each test also
enforces its own wall-clock budget.
"""

import json
import math
import time

import numpy as np
import pytest

from fiberqkd.channel import (
    FiberChannel,
    FiberSegment,
    estimate_dgd,
    first_order_pmd,
    fit_arc,
    qber_from_pmd,
    sweep_trajectory,
    synthesize_channel,
)
from fiberqkd.cli import main as cli_main
from fiberqkd.config import BUNDLED_SCENARIOS, bundled_scenario_path, load_scenario
from fiberqkd.emitter import (
    EmitterSpectrum,
    G2Model,
    PhotonStatistics,
    fit_g2_cw,
    g2_of_delay,
    pulsed_g2,
    sample_photon_number,
)
from fiberqkd.keyrate import (
    SecurityParams,
    expected_tally,
    gllp_asymptotic_rate,
    load_key_analysis,
    secure_key_length,
    sent_multiphoton_probability,
)
from fiberqkd.polarization import perpendicular_unit, stokes_of
from fiberqkd.protocol import (
    DeviceParams,
    SessionConfig,
    closed_form_rates,
    expected_rates,
    run_session,
    sift,
)


def bundled_tally(name):
    return load_key_analysis(bundled_scenario_path(name))


def single_segment(dgd_ps, axis=(1.0, 0.0, 0.0), reference_nm=1310.0):
    return FiberChannel(segments=(FiberSegment(axis=axis, dgd_ps=dgd_ps),),
                        loss_db=0.0, length_km=1.0, reference_nm=reference_nm)


# ----------------------------------------------------------------------
# 1. Deployed-link secure rates: biased vs balanced basis allocation.


def test_deployed_secure_rates_and_bias_gain():
    t0 = time.monotonic()
    biased, security, _ = bundled_tally("tally-deployed-optimized")
    res = secure_key_length(biased, security)
    assert res.status == "ok"
    # field-trial reference 585.9 bps, agreement required to 25 percent
    assert res.rate_bps == pytest.approx(585.9, rel=0.25)
    assert res.rate_bps == pytest.approx(516.0722222222222, rel=1e-12)  # frozen
    # the alternative error-role assignment is a supported reading and is
    # reported alongside; it must differ and stay in the same tolerance band
    swapped = secure_key_length(biased.swapped_assignment(), security)
    assert swapped.rate_bps == pytest.approx(413.5777777777778, rel=1e-12)
    assert swapped.rate_bps != res.rate_bps

    balanced, sec_b, _ = bundled_tally("tally-deployed-balanced")
    res_b = secure_key_length(balanced, sec_b)
    # balanced-allocation reference 247.3 bps at the same tolerance
    assert res_b.rate_bps == pytest.approx(247.3, rel=0.25)
    assert res_b.rate_bps == pytest.approx(252.09428571428572, rel=1e-12)
    assert res.rate_bps / res_b.rate_bps >= 2.0
    assert time.monotonic() - t0 < 1.0


# ----------------------------------------------------------------------
# 2. Long-spool secure rate.


def test_spool_secure_rate():
    t0 = time.monotonic()
    tally, security, _ = bundled_tally("tally-spool")
    res = secure_key_length(tally, security)
    assert res.status == "ok"
    # reference 50.4 bps, agreement required to 25 percent
    assert res.rate_bps == pytest.approx(50.4, rel=0.25)
    assert res.rate_bps == pytest.approx(48.39527777777778, rel=1e-12)
    assert time.monotonic() - t0 < 1.0


# ----------------------------------------------------------------------
# 3. Finite-key arithmetic against a 50-digit independent evaluation.


def test_finite_key_terms_match_high_precision_to_twelve_digits():
    import mpmath as mp

    t0 = time.monotonic()
    mp.mp.dps = 50
    ln2 = mp.log(2)

    def mp_h(q):
        q = mp.mpf(q)
        if q == 0 or q == 1:
            return mp.mpf(0)
        return (-q * mp.log(q) - (1 - q) * mp.log1p(-q)) / ln2

    rng = np.random.default_rng(314159)
    worst = 0.0
    for _ in range(1000):
        n_key = int(10 ** rng.uniform(4, 8))
        n_check = int(10 ** rng.uniform(2, 6))
        e_key = float(10 ** rng.uniform(-9, np.log10(0.45)))
        e_check = float(10 ** rng.uniform(-9, np.log10(0.45)))
        p_key = float(rng.uniform(0.501, 0.999))
        p_det = float(10 ** rng.uniform(-8, 0))
        # keep both single-photon shares well defined
        p_multi = float(rng.uniform(0.0, 0.9) * p_det * (1.0 - p_key))
        f = float(rng.uniform(1.0, 1.3))
        eps_sec = float(10 ** rng.uniform(-15, -6))
        eps_cor = float(10 ** rng.uniform(-15, -6))

        from fiberqkd.keyrate import KeyTally

        tally = KeyTally(n_key=n_key, n_check=n_check, e_key=e_key,
                         e_check=e_check, p_key=p_key, p_check=1.0 - p_key,
                         p_det=p_det, p_multi=p_multi)
        terms = secure_key_length(tally, SecurityParams(eps_sec, eps_cor, f)).terms

        nk, nx = mp.mpf(n_key), mp.mpf(n_check)
        a_key = 1 - mp.mpf(p_multi) / (mp.mpf(p_det) * mp.mpf(p_key))
        a_check = 1 - mp.mpf(p_multi) / (mp.mpf(p_det) * (1 - mp.mpf(p_key)))
        delta = mp.sqrt((nk + nx) * (nx + 1) / (nk * nx**2)
                        * mp.log(2 / mp.mpf(eps_sec)))
        q_check = mp.mpf(e_check) / a_check
        h_arg = min(q_check + delta, mp.mpf("0.5"))
        leak = mp.mpf(f) * mp_h(e_key) * nk
        log_term = mp.log(2 / (mp.mpf(eps_sec) ** 2 * mp.mpf(eps_cor))) / ln2
        raw = nk * a_key * (1 - mp_h(h_arg)) - leak - log_term

        for key, ref in (("a_key", a_key), ("a_check", a_check),
                         ("delta", delta), ("q_check", q_check),
                         ("leak_ec", leak), ("log_term", log_term)):
            rel = abs(terms[key] - float(ref)) / max(abs(float(ref)), 1e-300)
            worst = max(worst, rel)
            assert rel < 1e-12, key
        # raw bits are a difference of large terms; compare on the scale of
        # the minuend so near-cancellation does not inflate the quotient
        scale = max(abs(float(raw)), float(nk * a_key))
        rel = abs(terms["raw_bits"] - float(raw)) / scale
        worst = max(worst, rel)
        assert rel < 1e-12

    assert worst < 1e-12
    assert time.monotonic() - t0 < 10.0


# ----------------------------------------------------------------------
# 4. Finite-key result converges onto the asymptotic rate when statistics
#    are plentiful: matched comparison across the loss range.


def test_finite_key_matches_asymptotic_at_large_blocks():
    t0 = time.monotonic()
    scn = load_scenario("deployed-3p5km")
    device = scn.config.device
    stats = scn.config.stats
    scale = scn.config.detection_scale
    security = scn.security
    p_multi = scn.p_multi_sent
    n_target = 1e10

    for loss_db in np.linspace(0.0, 15.0, 16):
        model = closed_form_rates(device, stats, channel_loss_db=loss_db,
                                  rep_rate_hz=80e6, detection_scale=scale)
        q = model.qber_pooled
        duration = n_target / (80e6 * model.p_det * 0.25)
        tally = expected_tally(p_det=model.p_det, e_key=q, e_check=q,
                               p_key=0.5, p_multi=p_multi,
                               duration_s=duration, rep_rate_hz=80e6)
        finite = secure_key_length(tally, security).rate_bps
        gllp = gllp_asymptotic_rate(80e6, model.p_det, q, p_multi,
                                    security.f, sift_factor=0.25)
        assert gllp > 0.0, loss_db
        assert finite <= gllp + 1e-9, loss_db
        assert (gllp - finite) / gllp < 0.01, loss_db
    assert time.monotonic() - t0 < 10.0


# ----------------------------------------------------------------------
# 5. Trajectory geometry: arc fitting recovers differential group delay.


def test_arc_geometry_recovers_dgd():
    t0 = time.monotonic()

    # (a) round trip across two decades of delay, probe orthogonal to axis
    axes = [np.array([1.0, 0.0, 0.0]),
            np.array([0.3, -0.5, 0.8]) / np.linalg.norm([0.3, -0.5, 0.8])]
    for axis in axes:
        probe = perpendicular_unit(axis)
        for dgd in (0.01, 0.05, 0.25, 1.0, 2.0):
            ch = single_segment(dgd, axis=tuple(axis))
            fit = fit_arc(sweep_trajectory(ch, probe, 1306.5, 1313.5, 128))
            est = estimate_dgd(fit.central_angle_rad, 7.0, 1310.0)
            assert est == pytest.approx(dgd, rel=0.01)

    # (b) headline anchor: 0.117 ps over a 7 nm window at 1310 nm
    ch = single_segment(0.117)
    fit = fit_arc(sweep_trajectory(ch, stokes_of("D"), 1306.5, 1313.5, 64))
    assert np.degrees(fit.central_angle_rad) == pytest.approx(51.5, abs=0.5)
    assert np.degrees(fit.central_angle_rad) == pytest.approx(
        51.507161167440046, rel=1e-10)  # frozen construction
    assert estimate_dgd(fit.central_angle_rad, 7.0, 1310.0) == pytest.approx(
        0.117, rel=1e-6)

    # (c) a probe launched on the birefringent axis does not dephase
    spectrum = EmitterSpectrum(center_nm=1310.0, fwhm_nm=7.0, shape="gaussian")
    assert qber_from_pmd(stokes_of("H"), ch, spectrum) < 1e-9

    # (d) axis tilted between two detection bases: all four protocol states
    #     trace equal arcs, shorter than the equatorial arc by sqrt(2)
    tilted = np.array([0.0, 1.0, 1.0]) / np.sqrt(2.0)
    arcs = []
    for label in ("D", "A", "L", "R"):
        f = fit_arc(sweep_trajectory(single_segment(0.117, axis=tuple(tilted)),
                                     stokes_of(label), 1306.5, 1313.5, 64))
        arcs.append(f.central_angle_rad)
    mean_arc = float(np.mean(arcs))
    assert all(a == pytest.approx(mean_arc, rel=0.05) for a in arcs)
    equatorial = np.radians(51.507161167440046)
    assert equatorial / mean_arc == pytest.approx(np.sqrt(2.0), rel=0.05)

    assert time.monotonic() - t0 < 30.0


# ----------------------------------------------------------------------
# 6. Segment-model statistics: random-walk scaling and parameter recovery.


def test_channel_ensemble_statistics():
    t0 = time.monotonic()

    # (a) total delay grows like the square root of the segment count
    d0 = 0.05
    counts = (4, 16, 64, 256)
    rms = []
    for n in counts:
        draws = [first_order_pmd(
            synthesize_channel(d0 * np.sqrt(n), 1.0, n, seed=200 + s)).dgd_ps
            for s in range(400)]
        rms.append(np.sqrt(np.mean(np.square(draws))))
    slope = np.polyfit(np.log(counts), np.log(rms), 1)[0]
    assert slope == pytest.approx(0.5, abs=0.05)

    # (b) ensemble RMS of the synthesized delay reproduces the requested
    #     coefficient on both link lengths
    for param, length in ((0.46, 3.5), (0.13, 32.5)):
        draws = [first_order_pmd(
            synthesize_channel(param, length, 20, seed=1000 + s)).dgd_ps
            for s in range(500)]
        ens = np.sqrt(np.mean(np.square(draws)))
        assert ens == pytest.approx(param * np.sqrt(length), rel=0.10)

    # (c) spectral sweeps on a subset recover each realization's delay
    for s in range(12):
        ch = synthesize_channel(0.46, 3.5, 20, seed=5000 + s)
        fo = first_order_pmd(ch)
        probe = perpendicular_unit(np.asarray(fo.axis))
        fit = fit_arc(sweep_trajectory(ch, probe, 1309.0, 1310.0, 32))
        est = estimate_dgd(fit.central_angle_rad, 1.0, 1309.5)
        assert est == pytest.approx(fo.dgd_ps, rel=0.10)

    assert time.monotonic() - t0 < 120.0


# ----------------------------------------------------------------------
# 7. Monte-Carlo engine agrees with its closed-form expectations.


def test_monte_carlo_matches_closed_forms():
    t0 = time.monotonic()
    n = 10_000_000_000
    for name in BUNDLED_SCENARIOS:
        scn = load_scenario(name)
        model = expected_rates(scn.config)
        result = run_session(scn.config, n, seed=2026)
        checks = ((result.sift.n_detections, model.p_det),
                  (result.sift.kept_da, model.sift_da),
                  (result.sift.kept_lr, model.sift_lr))
        for observed, p in checks:
            sigma = math.sqrt(n * p * (1.0 - p))
            assert abs(observed - n * p) < 3.0 * sigma, name
        for kept, errors, q in ((result.sift.kept_da, result.sift.errors_da,
                                 model.qber_da),
                                (result.sift.kept_lr, result.sift.errors_lr,
                                 model.qber_lr)):
            sigma = math.sqrt(max(kept, 1) * q * (1.0 - q))
            assert abs(errors - kept * q) < 3.0 * sigma + 1.0, name

    # noise-free variant: the sifted error rate reduces to the intrinsic
    # detector error
    device = DeviceParams(rep_rate_hz=1e6, detector_efficiency=1.0,
                          dark_prob=0.0, intrinsic_error=0.009)
    config = SessionConfig(
        device=device,
        stats=PhotonStatistics(mu=0.1, g2_zero=0.0),
        spectrum=EmitterSpectrum(center_nm=1310.0, fwhm_nm=0.01, shape="gaussian"),
        channel=single_segment(0.0),
    )
    res = run_session(config, 2_000_000, seed=99, record_slots=True)
    kept = res.sift.n_sifted
    errors = res.sift.errors_da + res.sift.errors_lr
    sigma = math.sqrt(kept * 0.009 * 0.991)
    assert abs(errors - kept * 0.009) < 3.0 * sigma

    # the array engine and the offline sifter agree record for record
    alice = [(r.slot, r.alice_basis, r.alice_bit) for r in res.records]
    bob = [(r.slot, r.detections) for r in res.records]
    offline = sift(alice, bob, policy="discard", key_basis=config.key_basis,
                   n_pulses=res.n_pulses)
    assert offline == res.sift

    assert time.monotonic() - t0 < 300.0


# ----------------------------------------------------------------------
# 8. Source statistics: photon-number draws and correlation histograms.


def test_source_statistics_recovery():
    t0 = time.monotonic()
    rng = np.random.default_rng(8)
    n = 10_000_000

    # mean photon number at the operating point
    stats = PhotonStatistics(mu=4.19e-4, g2_zero=0.323)
    draws = sample_photon_number(stats, rng, size=n)
    second_moment = stats.p_single + 4.0 * stats.p_multi
    sigma_mean = math.sqrt((second_moment - stats.mu**2) / n)
    assert abs(draws.mean() - 4.19e-4) < 3.0 * sigma_mean

    # pair fraction at a brighter setting ties back to the g2 floor
    bright = PhotonStatistics(mu=0.1, g2_zero=0.323)
    pairs = int(np.count_nonzero(sample_photon_number(bright, rng, size=n) == 2))
    expect = n * bright.p_multi
    assert abs(pairs - expect) < 3.0 * math.sqrt(expect)

    # CW histogram fit lands on the reference floor of 0.28 within 0.04
    tau = np.linspace(-200.0, 200.0, 801)
    truth = G2Model(a=0.2, tau1_ns=2.0, tau2_ns=50.0, g2_zero=0.28)
    counts = np.random.default_rng(42).poisson(900.0 * g2_of_delay(tau, truth))
    model, _ = fit_g2_cw(tau, counts.astype(float))
    assert model.g2_zero == pytest.approx(0.28, abs=0.04)

    # pulsed histogram analysis lands on 0.323 within 0.005
    prng = np.random.default_rng(7)
    ptau, pcounts = [], []
    for k in range(-8, 9):
        height = 26000.0 * (0.323 if k == 0 else 1.0)
        for off in np.linspace(-2.0, 2.0, 9):
            ptau.append(k * 12.5 + off)
            pcounts.append(prng.poisson(height * np.exp(-abs(off) / 0.9)))
    value, sigma, _ = pulsed_g2(np.asarray(ptau), np.asarray(pcounts, float), 12.5)
    assert value == pytest.approx(0.323, abs=0.005)

    assert time.monotonic() - t0 < 120.0


# ----------------------------------------------------------------------
# 9. Command-line determinism: identical invocations, identical bytes.


def test_cli_reruns_are_byte_identical(tmp_path):
    t0 = time.monotonic()

    def pulsed_csv():
        import csv as _csv

        path = tmp_path / "pulsed.csv"
        with open(path, "w", newline="") as handle:
            writer = _csv.writer(handle)
            writer.writerow(["tau_ns", "counts"])
            for k in range(-6, 7):
                for off in (-1.0, 0.0, 1.0):
                    writer.writerow((k * 12.5 + off,
                                     1000.0 * (0.323 if k == 0 else 1.0)))
        return str(path)

    def cw_csv():
        import csv as _csv

        rng = np.random.default_rng(42)
        tau = np.linspace(-200.0, 200.0, 801)
        truth = G2Model(a=0.2, tau1_ns=2.0, tau2_ns=50.0, g2_zero=0.28)
        counts = rng.poisson(900.0 * g2_of_delay(tau, truth))
        path = tmp_path / "cw.csv"
        with open(path, "w", newline="") as handle:
            writer = _csv.writer(handle)
            writer.writerow(["tau_ns", "counts"])
            writer.writerows(zip(tau, counts))
        return str(path)

    traj = str(tmp_path / "traj.csv")
    assert cli_main(["pmd", "sweep", "--scenario", "deployed-3p5km", "--state",
                     "L", "--points", "32", "--out", traj]) == 0

    invocations = [
        ["simulate", "--scenario", "deployed-3p5km", "--seed", "11",
         "--pulses", "100000"],
        ["keyrate", "--tally", "tally-deployed-optimized"],
        ["pmd", "sweep", "--scenario", "deployed-3p5km", "--state", "L",
         "--points", "32"],
        ["pmd", "fit", "--trajectory", traj],
        ["pmd", "estimate", "--trajectory", traj],
        ["pmd", "estimate", "--central-angle-deg", "51.5", "--span-nm", "7.0",
         "--center-nm", "1310.0"],
        ["g2", "fit-cw", "--histogram", cw_csv()],
        ["g2", "pulsed", "--histogram", pulsed_csv(), "--period-ns", "12.5"],
        ["optimize", "--scenario", "deployed-3p5km", "--duration", "60"],
        ["rate-curve", "--scenario", "deployed-3p5km", "--loss-min", "0",
         "--loss-max", "12", "--points", "5", "--duration", "3600"],
    ]
    for i, argv in enumerate(invocations):
        first = tmp_path / f"first_{i}.out"
        second = tmp_path / f"second_{i}.out"
        assert cli_main(argv + ["--out", str(first)]) == 0, argv
        assert cli_main(argv + ["--out", str(second)]) == 0, argv
        assert first.read_bytes() == second.read_bytes(), argv

    assert time.monotonic() - t0 < 60.0
