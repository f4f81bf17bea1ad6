"""Command-line surface: outputs, determinism, exit codes."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fiberqkd
import fiberqkd.channel
from fiberqkd.cli import main
from fiberqkd.config import bundled_scenario_path, load_scenario
from fiberqkd.emitter import G2Model, g2_of_delay
from fiberqkd.protocol import expected_rates


def run_cli(*argv):
    return main(list(argv))


def write_cw_histogram(path, seed=42):
    rng = np.random.default_rng(seed)
    tau = np.linspace(-200.0, 200.0, 801)
    truth = G2Model(a=0.2, tau1_ns=2.0, tau2_ns=50.0, g2_zero=0.28)
    counts = rng.poisson(900.0 * g2_of_delay(tau, truth))
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["tau_ns", "counts"])
        writer.writerows(zip(tau, counts))


def write_pulsed_histogram(path):
    rows = []
    for k in range(-6, 7):
        for off in (-1.0, 0.0, 1.0):
            rows.append((k * 12.5 + off, 1000.0 * (0.323 if k == 0 else 1.0)))
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["tau_ns", "counts"])
        writer.writerows(rows)


def test_simulate_json_document(tmp_path, capsys):
    out = tmp_path / "session.json"
    code = run_cli("simulate", "--scenario", "deployed-3p5km", "--seed", "7",
                   "--pulses", "200000", "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["scenario"] == "deployed-3p5km"
    assert doc["seed"] == 7
    assert doc["n_pulses"] == 200000
    assert "sift" in doc and "expected" in doc
    assert doc["sift"]["n_detections"] >= 0


def test_simulate_timeseries_csv(tmp_path):
    out = tmp_path / "session.json"
    ts = tmp_path / "windows.csv"
    code = run_cli("simulate", "--scenario", "deployed-3p5km", "--seed", "3",
                   "--pulses", "400000", "--window-s", "0.001",
                   "--timeseries", str(ts), "--out", str(out))
    assert code == 0
    with ts.open(newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 5  # 0.001 s windows at 80 MHz over 4e5 pulses
    assert set(rows[0]) >= {"window_index", "qber", "sifted_bps"}


def test_keyrate_bundled_tally(tmp_path):
    out = tmp_path / "analysis.json"
    code = run_cli("keyrate", "--tally", "tally-deployed-optimized",
                   "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["length_bits"] == 13005020
    assert doc["rate_bps"] == pytest.approx(516.0722222222222, rel=1e-12)
    assert doc["swapped_assignment"]["rate_bps"] == pytest.approx(
        413.5777777777778, rel=1e-12)
    assert doc["terms"]["leak_ec"] > 0.0


def test_keyrate_custom_file(tmp_path):
    doc = {"n_z": 1_000_000, "n_x": 10_000, "e_z": 0.0, "e_x": 0.0,
           "p_z": 0.997, "p_x": 0.003, "p_det": 1.0, "p_m": 0.0,
           "eps_sec": 1e-12, "eps_cor": 1e-12, "f": 1.16}
    path = tmp_path / "tally.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "res.json"
    assert run_cli("keyrate", "--tally", str(path), "--out", str(out)) == 0
    assert json.loads(out.read_text())["length_bits"] == 698844


def test_pmd_sweep_fit_estimate_chain(tmp_path):
    traj = tmp_path / "traj.csv"
    assert run_cli("pmd", "sweep", "--scenario", "deployed-3p5km",
                   "--state", "L", "--points", "48", "--out", str(traj)) == 0
    fit_out = tmp_path / "fit.json"
    assert run_cli("pmd", "fit", "--trajectory", str(traj),
                   "--out", str(fit_out)) == 0
    fit = json.loads(fit_out.read_text())
    assert not fit["degenerate"]
    assert 0.0 < fit["central_angle_deg"] < 360.0
    est_out = tmp_path / "est.json"
    assert run_cli("pmd", "estimate", "--trajectory", str(traj),
                   "--out", str(est_out)) == 0
    est = json.loads(est_out.read_text())
    assert est["dgd_ps"] > 0.0


def test_pmd_sweep_csv_rows_equal_json_points(tmp_path):
    paths = {fmt: tmp_path / f"traj.{fmt}" for fmt in ("csv", "json")}
    for fmt, path in paths.items():
        assert run_cli("pmd", "sweep", "--scenario", "spool-32p5km", "--points", "33",
                       "--format", fmt, "--out", str(path)) == 0
    with paths["csv"].open(newline="") as handle:
        header, *rows = csv.reader(handle)
    assert header == ["wavelength_nm", "s1", "s2", "s3"]
    points = json.loads(paths["json"].read_text())["points"]
    assert [[float(x) for x in row] for row in rows] == [
        [p["wavelength_nm"], *p["stokes"]] for p in points]


def test_pmd_estimate_from_angles(tmp_path):
    out = tmp_path / "est.json"
    code = run_cli("pmd", "estimate", "--central-angle-deg", "51.507161167440046",
                   "--span-nm", "7.0", "--center-nm", "1310.0", "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["dgd_ps"] == pytest.approx(0.117, rel=1e-10)


def test_g2_fit_cw_command(tmp_path):
    hist = tmp_path / "cw.csv"
    write_cw_histogram(hist)
    out = tmp_path / "fit.json"
    assert run_cli("g2", "fit-cw", "--histogram", str(hist), "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["g2_zero"] == pytest.approx(0.28, abs=0.04)
    assert doc["reduced_chi2"] < 2.0


def test_g2_pulsed_command(tmp_path):
    hist = tmp_path / "pulsed.csv"
    write_pulsed_histogram(hist)
    out = tmp_path / "g2.json"
    assert run_cli("g2", "pulsed", "--histogram", str(hist),
                   "--period-ns", "12.5", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["g2_zero"] == pytest.approx(0.323, rel=1e-9)
    assert doc["sigma"] > 0.0


def test_optimize_command(tmp_path):
    out = tmp_path / "opt.json"
    code = run_cli("optimize", "--scenario", "deployed-3p5km",
                   "--duration", "60", "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert 0.5 < doc["p_key"] < 1.0
    assert doc["rate_bps"] >= doc["rate_at_balanced_bps"]
    assert doc["n_evaluations"] > 10
    assert "evaluations" not in doc  # only with --audit


def test_optimize_audit_lists_evaluations(tmp_path):
    out = tmp_path / "opt.json"
    assert run_cli("optimize", "--scenario", "deployed-3p5km", "--duration",
                   "60", "--audit", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert len(doc["evaluations"]) == doc["n_evaluations"]


def test_rate_curve_csv(tmp_path):
    out = tmp_path / "curve.csv"
    code = run_cli("rate-curve", "--scenario", "deployed-3p5km",
                   "--loss-min", "0", "--loss-max", "15", "--points", "6",
                   "--duration", "3600", "--out", str(out))
    assert code == 0
    with out.open(newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 6
    for row in rows:
        assert float(row["finite_bps"]) <= float(row["gllp_bps"]) + 1e-9


def test_stdout_when_no_out_path(capsys):
    assert run_cli("keyrate", "--tally", "tally-spool") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["length_bits"] == 174223


def test_exit_code_one_on_bad_inputs(tmp_path, capsys):
    assert run_cli("simulate", "--scenario", "missing", "--seed", "1") == 1
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert run_cli("keyrate", "--tally", str(bad)) == 1
    assert run_cli("keyrate", "--tally", str(tmp_path / "absent.json")) == 1
    assert run_cli("pmd", "estimate", "--central-angle-deg", "10.0") == 1
    capsys.readouterr()  # swallow the error prints


def _deployed_doc():
    return json.loads(bundled_scenario_path("deployed-3p5km").read_text())


def _set_nan(*keys):
    def edit(doc):
        node = doc
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = math.nan
    return edit


def _one_segment_channel(doc, segment):
    doc["channel"] = {"l_c": 4.0, "reference_nm": 1309.5, "length_km": 3.5,
                      "segments": [segment]}


def _nan_segment_axis(doc):
    _one_segment_channel(doc, {"axis": [math.nan, 0.0, 0.0], "dgd_ps": 0.117})


def _nan_align_target(doc):
    doc["channel"]["align_first_order_axis_to"] = [math.nan, 1.0, 0.0]


@pytest.mark.parametrize("edit", [
    _set_nan("emitter", "fwhm_nm"),
    _set_nan("channel", "synthesize", "pmd_param"),
    _set_nan("channel", "l_c"),
    _set_nan("calibration", "sifted_rate_target_bps"),
    _set_nan("window_s"),
    _set_nan("device", "nu_rep"),
    _set_nan("device", "l_a"),
    _set_nan("device", "l_b"),
    _set_nan("device", "g2_zero"),
    _set_nan("security", "f"),
    _nan_segment_axis,
    _nan_align_target,
], ids=["fwhm_nm", "pmd_param", "l_c", "sifted_rate_target_bps", "window_s",
        "nu_rep", "l_a", "l_b", "g2_zero", "security.f", "segment-axis", "align-target"])
def test_exit_code_one_on_nan_scenario_fields(tmp_path, capsys, edit):
    doc = _deployed_doc()
    edit(doc)
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))  # json writes and reads NaN
    assert run_cli("simulate", "--scenario", str(path), "--seed", "1",
                   "--pulses", "1000") == 1
    assert "error:" in capsys.readouterr().err
    assert run_cli("pmd", "sweep", "--scenario", str(path)) == 1
    assert "error:" in capsys.readouterr().err
    assert run_cli("optimize", "--scenario", str(path), "--duration", "60") == 1
    assert "error:" in capsys.readouterr().err


def _set_synthesize(key, value):
    def edit(doc):
        doc["channel"]["synthesize"][key] = value
    return edit


_SEGMENT = {"axis": [0.0, 1.0, 0.0], "dgd_ps": 0.117}


def _drop_segment_field(key):
    def edit(doc):
        segment = dict(_SEGMENT)
        del segment[key]
        _one_segment_channel(doc, segment)
    return edit


def _set_segment_field(key, value):
    def edit(doc):
        _one_segment_channel(doc, {**_SEGMENT, key: value})
    return edit


def _set_channel(key, value):
    def edit(doc):
        doc["channel"][key] = value
    return edit


@pytest.mark.parametrize("edit", [
    _set_synthesize("n_segments", 20.5),
    _set_synthesize("n_segments", "twenty"),
    _set_synthesize("n_segments", None),
    _set_synthesize("seed", 14.7),
    _set_synthesize("seed", "fourteen"),
    _set_synthesize("seed", -1),
    _drop_segment_field("axis"),
    _drop_segment_field("dgd_ps"),
    _set_segment_field("axis", ["x", 0, 0]),
    _set_segment_field("axis", 5),
    _set_segment_field("axis", None),
    _set_segment_field("dgd_ps", "fast"),
    _set_channel("segments", 5),
    _set_channel("segments", [5]),
    _set_channel("synthesize", None),
], ids=["n_segments-fractional", "n_segments-text", "n_segments-null", "seed-fractional",
        "seed-text", "seed-negative", "segment-without-axis", "segment-without-dgd",
        "segment-axis-text", "segment-axis-number", "segment-axis-null", "segment-dgd-text",
        "segments-number", "segments-of-numbers", "synthesize-null"])
def test_exit_code_one_on_malformed_channel(tmp_path, capsys, edit):
    """Channel counts are whole numbers, never truncated, and segments are
    complete, numeric and spelled out as a list of objects."""
    doc = _deployed_doc()
    edit(doc)
    path = tmp_path / "channel.json"
    path.write_text(json.dumps(doc))
    assert run_cli("pmd", "sweep", "--scenario", str(path)) == 1
    assert "error:" in capsys.readouterr().err


def _with(value, *keys):
    def edit(doc):
        node = doc
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        return doc
    return edit


@pytest.mark.parametrize("edit", [
    lambda doc: [doc],
    _with("fast", "device", "nu_rep"),
    _with("x", "channel", "l_c"),
    _with("fast", "channel", "synthesize", "pmd_param"),
    _with(None, "alice"),
    _with("x", "receiver"),
    _with(None, "calibration"),
], ids=["document-list", "nu_rep-text", "l_c-text", "pmd_param-text", "alice-null",
        "receiver-text", "calibration-null"])
def test_exit_code_one_on_malformed_scenario(tmp_path, capsys, edit):
    """Every scenario section is an object and every number field a number."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(edit(_deployed_doc())))
    assert run_cli("pmd", "sweep", "--scenario", str(path)) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("p_m", math.nan),
    ("f", math.nan),
    ("n_z", math.nan),
    ("n_z", 10.7),
], ids=["p_m-nan", "f-nan", "n_z-nan", "n_z-fractional"])
def test_exit_code_one_on_bad_tally_fields(tmp_path, capsys, key, value):
    doc = json.loads(bundled_scenario_path("tally-deployed-optimized").read_text())
    doc[key] = value
    path = tmp_path / "tally.json"
    path.write_text(json.dumps(doc))
    assert run_cli("keyrate", "--tally", str(path)) == 1
    assert "error:" in capsys.readouterr().err


def _set_csv_cell(path, row, column, value):
    with path.open(newline="") as handle:
        rows = list(csv.reader(handle))
    rows[row][column] = value
    with path.open("w", newline="") as handle:
        csv.writer(handle).writerows(rows)


@pytest.mark.parametrize("column, value", [
    (1, "nan"),
    (3, "-inf"),
    (0, "nan"),
    (0, "inf"),
], ids=["stokes-nan", "stokes-inf", "wavelength-nan", "wavelength-inf"])
@pytest.mark.parametrize("command", ["fit", "estimate"])
def test_exit_code_one_on_non_finite_trajectory(tmp_path, capsys, command, column, value):
    """A NaN or infinite field is an input error, not an SVD failure or a null delay."""
    traj = tmp_path / "traj.csv"
    assert run_cli("pmd", "sweep", "--scenario", "deployed-3p5km", "--state", "L",
                   "--points", "32", "--out", str(traj)) == 0
    _set_csv_cell(traj, 6, column, value)
    assert run_cli("pmd", command, "--trajectory", str(traj)) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("column, value", [
    (0, "nan"),
    (1, "nan"),
    (1, "inf"),
], ids=["tau-nan", "counts-nan", "counts-inf"])
@pytest.mark.parametrize("command, write, extra", [
    ("fit-cw", write_cw_histogram, []),
    ("pulsed", write_pulsed_histogram, ["--period-ns", "12.5"]),
], ids=["fit-cw", "pulsed"])
def test_exit_code_one_on_non_finite_histogram(tmp_path, capsys, command, write, extra,
                                               column, value):
    hist = tmp_path / "hist.csv"
    write(hist)
    _set_csv_cell(hist, 20, column, value)  # a row of the pulsed histogram's centre peak
    assert run_cli("g2", command, "--histogram", str(hist), *extra) == 1
    assert "error:" in capsys.readouterr().err


@pytest.fixture
def quadrature_calls(monkeypatch):
    """Count qber_from_pmd calls through every fiberqkd namespace that holds it."""
    original = fiberqkd.channel.qber_from_pmd
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    patched = [name for name, module in list(sys.modules.items())
               if name.split(".")[0] == "fiberqkd"
               and getattr(module, "qber_from_pmd", None) is original]
    assert {"fiberqkd.channel", "fiberqkd.protocol"} <= set(patched)
    for name in patched:
        monkeypatch.setattr(sys.modules[name], "qber_from_pmd", counted)
    return calls


@pytest.mark.parametrize("command, extra, n_passes", [
    (["simulate"], ["--seed", "1", "--pulses", "100000"], 1),
    (["optimize"], ["--duration", "60"], 1),
    (["rate-curve"], ["--points", "4"], 1),
    (["pmd", "sweep"], [], 0),
], ids=["simulate", "optimize", "rate-curve", "pmd-sweep"])
@pytest.mark.parametrize("scenario", ["deployed-3p5km", "spool-32p5km"])
def test_one_quadrature_per_basis_per_command(tmp_path, quadrature_calls, command, extra,
                                              n_passes, scenario):
    """Both bases share one quadrature pass, run only by commands that read the rates.

    The calibration solve needs no misalignment errors, so a calibrated
    ``pmd sweep`` runs none.
    """
    assert run_cli(*command, "--scenario", scenario, *extra,
                   "--out", str(tmp_path / "out")) == 0
    assert len(quadrature_calls) == n_passes


def test_uncalibrated_pmd_sweep_runs_no_quadrature(tmp_path, quadrature_calls):
    doc = _deployed_doc()
    doc.pop("calibration")
    path = tmp_path / "uncalibrated.json"
    path.write_text(json.dumps(doc))
    assert run_cli("pmd", "sweep", "--scenario", str(path),
                   "--out", str(tmp_path / "traj.csv")) == 0
    assert quadrature_calls == []
    assert run_cli("simulate", "--scenario", str(path), "--seed", "1",
                   "--pulses", "1000", "--out", str(tmp_path / "sim.json")) == 0
    assert len(quadrature_calls) == 1


@pytest.mark.parametrize("scenario", ["deployed-3p5km", "spool-32p5km"])
def test_simulate_expected_block_matches_expected_rates(tmp_path, scenario):
    out = tmp_path / "session.json"
    assert run_cli("simulate", "--scenario", scenario, "--seed", "4",
                   "--pulses", "100000", "--out", str(out)) == 0
    expected = json.loads(out.read_text())["expected"]
    model = expected_rates(load_scenario(scenario).config)
    assert expected == {"p_det": model.p_det, "sifted_bps": model.sifted_bps,
                        "qber_da": model.qber_da, "qber_lr": model.qber_lr}


def test_keyrate_and_offline_sift_leave_scipy_optimize_unloaded():
    """The optimizers load only in the commands that fit or solve: a one-shot
    keyrate or offline sift does not pay for importing them."""
    code = (
        "import sys\n"
        "from fiberqkd.cli import main\n"
        "from fiberqkd.protocol import sift\n"
        "assert main(['keyrate', '--tally', 'tally-spool']) == 0\n"
        "sift([(0, 'DA', 0), (1, 'LR', 1)], [(0, ('D',)), (1, ('R',))])\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(fiberqkd.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.splitlines()[-1] == "False"


def test_cli_import_and_keyrate_leave_scipy_unloaded():
    """scipy loads only where a command evaluates it: importing the command
    line and a one-shot keyrate pay for none of it."""
    code = (
        "import sys\n"
        "from fiberqkd.cli import main\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "assert main(['keyrate', '--tally', 'tally-spool']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(fiberqkd.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    lines = done.stdout.splitlines()
    assert lines[0] == "[]"
    assert lines[-1] == "[]"


def test_exit_code_one_on_bad_flags(capsys):
    with pytest.raises(SystemExit) as err:
        run_cli("simulate", "--scenario", "deployed-3p5km")  # --seed required
    assert err.value.code == 1
    capsys.readouterr()


def _run_capturing(capsys, argv):
    """Exit code, stdout and stderr of one call; usage errors exit through argparse."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_reused_parser_leaks_no_state_between_calls(tmp_path, monkeypatch, capsys):
    """Each argv gives the same stdout and files whichever calls ran before it."""
    calls = [
        ("simulate", "--scenario", "deployed-3p5km", "--seed", "3", "--pulses", "400000",
         "--window-s", "0.001", "--out", "session.json"),
        ("simulate", "--scenario", "deployed-3p5km", "--seed", "3", "--pulses", "400000"),
        ("keyrate", "--tally", "tally-spool"),
        ("pmd", "sweep", "--scenario", "deployed-3p5km", "--points", "8", "--format", "json"),
        ("simulate", "--scenario", "deployed-3p5km"),  # --seed missing: usage error
    ]
    results = {}
    for order in ("forward", "reversed"):
        workdir = tmp_path / order
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        sequence = calls if order == "forward" else calls[::-1]
        results[order] = {argv: _run_capturing(capsys, argv) for argv in sequence}
        results[order]["files"] = {p.name: p.read_text() for p in workdir.iterdir()}
    for order in ("forward", "reversed"):
        assert [results[order][argv][0] for argv in calls] == [0, 0, 0, 0, 1]
        # the window and output flags of the first simulate stay with it
        assert json.loads(results[order][calls[1]][1])["n_windows"] == 0
        assert list(results[order]["files"]) == ["session.json"]
    assert results["forward"] == results["reversed"]


def test_main_builds_the_parser_once_per_process(monkeypatch, capsys):
    import fiberqkd.cli as cli_mod

    built = []
    original_init = cli_mod._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        original_init(self, *args, **kwargs)

    monkeypatch.setattr(cli_mod._Parser, "__init__", counting_init)
    assert run_cli("keyrate", "--tally", "tally-spool") == 0
    first = len(built)
    for _ in range(10):
        assert run_cli("keyrate", "--tally", "tally-spool") == 0
    capsys.readouterr()
    assert len(built) == first
    assert cli_mod.build_parser() is cli_mod.build_parser()


def test_exit_code_two_on_internal_failure(monkeypatch, capsys):
    import fiberqkd.cli as cli_mod

    def boom(*args, **kwargs):
        raise RuntimeError("engine corrupted")

    monkeypatch.setattr(cli_mod, "run_session", boom)
    assert run_cli("simulate", "--scenario", "deployed-3p5km", "--seed", "1") == 2
    capsys.readouterr()


def test_simulate_with_pattern_file(tmp_path):
    pattern = tmp_path / "pattern.txt"
    pattern.write_text("FF00AA55 " * 100)
    out = tmp_path / "session.json"
    code = run_cli("simulate", "--scenario", "deployed-3p5km", "--seed", "2",
                   "--pulses", "5000", "--pattern", str(pattern),
                   "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["truncated"]
    assert doc["n_pulses"] == 1600  # 400 bytes carry 1600 pulse pairs
