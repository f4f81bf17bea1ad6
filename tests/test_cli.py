"""Command-line surface: outputs, determinism, exit codes."""

import copy
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


@pytest.mark.parametrize("flag", ["--central-angle-deg", "--span-nm", "--center-nm"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_exit_code_one_on_non_finite_estimate_inputs(capsys, flag, value):
    """A non-finite angle or sweep is an input error, not a null delay."""
    args = {"--central-angle-deg": "51.5", "--span-nm": "7.0", "--center-nm": "1310.0"}
    args[flag] = value
    argv = ["pmd", "estimate"] + [f"{key}={val}" for key, val in args.items()]  # "-inf" too
    code, out, err = _run_capturing(capsys, argv)
    assert (code, out) == (1, "")
    assert "must be finite" in err


def test_exit_code_one_on_negative_simulate_seed(capsys):
    code, out, err = _run_capturing(capsys, ["simulate", "--scenario", "deployed-3p5km",
                                             "--seed", "-1", "--pulses", "1000"])
    assert (code, out) == (1, "")
    assert "seed must be non-negative" in err


@pytest.mark.parametrize("bounds", [
    ["--start", "1300", "--stop", "inf"],
    ["--start", "nan", "--stop", "1310"],
], ids=["stop-inf", "start-nan"])
def test_exit_code_one_on_bad_sweep_bounds(capsys, bounds):
    """A sweep runs over a finite positive band: no infinite wavelengths or NaN rows."""
    code, out, err = _run_capturing(capsys, ["pmd", "sweep", "--scenario", "deployed-3p5km",
                                             "--points", "3"] + bounds)
    assert (code, out) == (1, "")
    assert err.startswith("error:")


@pytest.mark.parametrize("flag, doc_window, expected", [
    ("inf", None, 1),
    ("1e301", None, 1),
    (None, 1e301, 1),
    ("1e300", None, 0),
], ids=["flag-inf", "flag-1e301", "scenario-1e301", "flag-1e300"])
def test_exit_code_one_on_overflowing_window(tmp_path, capsys, flag, doc_window, expected):
    """A window of more pulses than a float holds is an input error, not an
    OverflowError when the window is counted in pulses."""
    scenario = "deployed-3p5km"
    if doc_window is not None:
        doc = _deployed_doc()
        doc["window_s"] = doc_window
        scenario = str(tmp_path / "window.json")
        Path(scenario).write_text(json.dumps(doc))
    argv = ["simulate", "--scenario", scenario, "--seed", "1", "--pulses", "1000"]
    if flag is not None:
        argv += ["--window-s", flag]
    code, out, err = _run_capturing(capsys, argv)
    assert code == expected
    if expected == 1:
        assert out == ""
        assert err.startswith("error:") and "finite number of pulses" in err


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
    _set_channel("l_c", 1e6),
    lambda doc: doc["device"].update(l_a=1e6),
    _set_synthesize("length_km", 0),
    _set_synthesize("length_km", -1.0),
], ids=["n_segments-fractional", "n_segments-text", "n_segments-null", "seed-fractional",
        "seed-text", "seed-negative", "segment-without-axis", "segment-without-dgd",
        "segment-axis-text", "segment-axis-number", "segment-axis-null", "segment-dgd-text",
        "segments-number", "segments-of-numbers", "synthesize-null", "l_c-1e6-dB",
        "l_a-1e6-dB", "length_km-zero", "length_km-negative"])
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
    _with(1e-300, "security", "eps_sec"),
    _with({"l_c": 4.0, "reference_nm": 1309.5, "length_km": 3.5,
           "segments": [{"axis": ["0", True, "0"], "dgd_ps": 0.117}]}, "channel"),
    _with(["0", "1", False], "channel", "align_first_order_axis_to"),
], ids=["document-list", "nu_rep-text", "l_c-text", "pmd_param-text", "alice-null",
        "receiver-text", "calibration-null", "eps_sec-underflow", "segment-axis-text-and-bool",
        "align-target-text-and-bool"])
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
    ("eps_sec", 1e-300),
    ("eps_cor", 1e-300),
], ids=["p_m-nan", "f-nan", "n_z-nan", "n_z-fractional", "eps_sec-underflow",
        "eps_cor-underflow"])
def test_exit_code_one_on_bad_tally_fields(tmp_path, capsys, key, value):
    doc = json.loads(bundled_scenario_path("tally-deployed-optimized").read_text())
    doc[key] = value
    path = tmp_path / "tally.json"
    path.write_text(json.dumps(doc))
    assert run_cli("keyrate", "--tally", str(path)) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("edit", [
    _with("8e7", "device", "nu_rep"),
    _with(True, "channel", "synthesize", "n_segments"),
    _with(False, "device", "l_b"),
    _with(math.inf, "duration_s"),
    _with(7, "key_basis"),
], ids=["nu_rep-numeric-text", "n_segments-true", "l_b-false", "duration-inf",
        "key_basis-number"])
def test_exit_code_one_on_numeric_text_booleans_and_infinite_duration(tmp_path, capsys,
                                                                       edit):
    """Numbers are finite JSON numbers: numeric text and booleans are not read
    as numbers, and an infinite duration is not an asymptotic request."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(edit(_deployed_doc())))
    code, out, err = _run_capturing(capsys, ["optimize", "--scenario", str(path)])
    assert (code, out) == (1, "")
    assert "error: scenario." in err


def _unreadable(tmp_path, kind):
    if kind == "directory":
        path = tmp_path / "input"
        path.mkdir()
    else:
        path = tmp_path / "input.txt"
        path.write_bytes(b"\x80\x81 not UTF-8 \xe9\n")
    return str(path)


@pytest.mark.parametrize("kind", ["directory", "non-utf8"])
@pytest.mark.parametrize("argv", [
    ["simulate", "--seed", "1", "--pulses", "1000", "--scenario"],
    ["keyrate", "--tally"],
    ["pmd", "fit", "--trajectory"],
    ["g2", "pulsed", "--period-ns", "12.5", "--histogram"],
    ["simulate", "--scenario", "deployed-3p5km", "--seed", "1", "--pulses", "1000",
     "--pattern"],
], ids=["scenario", "tally", "trajectory", "histogram", "pattern"])
def test_exit_code_one_on_unreadable_files(tmp_path, capsys, argv, kind):
    code, out, err = _run_capturing(capsys, argv + [_unreadable(tmp_path, kind)])
    assert (code, out) == (1, "")
    assert err.startswith("error:")


_ABSENT = object()
_REPLACEMENTS = (_ABSENT, None, True, False, "x", "1.0", [], {}, [1.0], math.nan, math.inf,
                 -math.inf, -1, 0, 0.5, 2)


def _paths(node, prefix=()):
    """The key path of every section and leaf below a parsed JSON value."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _replaced(doc, path, value):
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is _ABSENT:
        del node[path[-1]]
    else:
        node[path[-1]] = copy.deepcopy(value)
    return doc


def _segments_doc():
    doc = _deployed_doc()
    _one_segment_channel(doc, dict(_SEGMENT))
    return doc


def _tally_doc():
    return json.loads(bundled_scenario_path("tally-spool").read_text())


_SCENARIO_COMMANDS = (["pmd", "sweep", "--points", "8", "--scenario"],
                      ["optimize", "--duration", "60", "--scenario"])


@pytest.mark.parametrize("make_doc, commands", [
    (_deployed_doc, _SCENARIO_COMMANDS),
    (_segments_doc, _SCENARIO_COMMANDS),
    (_tally_doc, (["keyrate", "--tally"],)),
], ids=["deployed", "deployed-one-segment", "tally-spool"])
def test_mutation_grid_never_exits_two(tmp_path, capsys, make_doc, commands):
    """Every section and leaf in turn removed or replaced by a wrong type, a
    non-finite number or a boundary value: each run gives a result or an
    input error with empty stdout, never an unexpected failure."""
    doc = make_doc()
    path = tmp_path / "doc.json"
    failures = []
    for keys in _paths(doc):
        for value in _REPLACEMENTS:
            path.write_text(json.dumps(_replaced(doc, keys, value)))
            for command in commands:
                code, out, err = _run_capturing(capsys, command + [str(path)])
                if code not in (0, 1) or (code == 1 and out):
                    label = "absent" if value is _ABSENT else repr(value)
                    failures.append((command[0], keys, label, code, err))
    assert failures == []


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


def _trajectory_mutations(header, rows):
    """(label, exit code, lines) for each mutation of a trajectory CSV's lines."""
    for r in (0, 5, len(rows) - 1):
        cells = rows[r].split(",")
        for c in range(len(cells)):
            for value in ("", "x", "nan", "inf", "-inf", "1e400"):
                mutated = cells[:c] + [value] + cells[c + 1:]
                yield f"row {r} cell {c} {value!r}", 1, [header, *rows[:r], ",".join(mutated),
                                                        *rows[r + 1:]]
        yield f"row {r} dropped cell", 1, [header, *rows[:r], ",".join(cells[:-1]),
                                           *rows[r + 1:]]
        yield f"row {r} extra cell", 1, [header, *rows[:r], rows[r] + ",0.0", *rows[r + 1:]]
        yield f"blank line before row {r}", 0, [header, *rows[:r], "", *rows[r:]]
        yield f"header before row {r}", 1, [header, *rows[:r], header, *rows[r:]]
    yield "single data row", 1, [header, rows[0]]


def test_trajectory_csv_mutation_grid(tmp_path, capsys):
    """Each cell of three rows of a swept trajectory replaced by an empty,
    non-numeric, non-finite or overflowing field, a cell dropped or added, a
    blank line, a repeated header and a lone data row: ``pmd fit`` and
    ``pmd estimate`` give the unmutated result or an input error with empty
    stdout, never an unexpected failure."""
    traj = tmp_path / "traj.csv"
    assert run_cli("pmd", "sweep", "--scenario", "deployed-3p5km", "--state", "L",
                   "--points", "32", "--out", str(traj)) == 0
    header, *rows = traj.read_text().splitlines()
    commands = [["pmd", "fit", "--trajectory", str(traj)],
                ["pmd", "estimate", "--trajectory", str(traj)]]
    clean = [_run_capturing(capsys, argv) for argv in commands]
    assert [code for code, _, _ in clean] == [0, 0]
    failures = []
    for label, expected, lines in _trajectory_mutations(header, rows):
        traj.write_text("\n".join(lines) + "\n")
        for argv, (_, clean_out, _) in zip(commands, clean):
            code, out, err = _run_capturing(capsys, argv)
            ok = (code, out) == ((0, clean_out) if expected == 0 else (1, ""))
            if not ok or (code == 1 and not err.startswith("error:")):
                failures.append((argv[1], label, code, err))
    assert failures == []


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


def _histogram_mutations(header, rows):
    """(label, lines) for each mutation of a histogram CSV's lines."""
    for r in (0, len(rows) // 2, len(rows) - 1):
        cells = rows[r].split(",")
        for c in range(len(cells)):
            for value in ("", "x", "nan", "inf", "-inf", "1e400", "-1", "0", "-0", "1e-300",
                          "1e308"):
                mutated = cells[:c] + [value] + cells[c + 1:]
                yield f"row {r} cell {c} {value!r}", [header, *rows[:r], ",".join(mutated),
                                                      *rows[r + 1:]]
        yield f"row {r} dropped cell", [header, *rows[:r], cells[0], *rows[r + 1:]]
        yield f"row {r} extra cell", [header, *rows[:r], rows[r] + ",0", *rows[r + 1:]]
        yield f"blank line before row {r}", [header, *rows[:r], "", *rows[r:]]
        yield f"header before row {r}", [header, *rows[:r], header, *rows[r:]]
    tau = [row.split(",")[0] for row in rows]
    yield "every count 0", [header, *(f"{t},0" for t in tau)]
    for factor in (1e-300, 1e300):
        yield f"delays x{factor}", [header, *(f"{float(t) * factor!r},{row.split(',')[1]}"
                                              for t, row in zip(tau, rows))]


_NOT_CONVERGED = "failure: CW correlation fit did not converge\n"


@pytest.mark.parametrize("command, write, extra", [
    ("fit-cw", write_cw_histogram, []),
    ("pulsed", write_pulsed_histogram, ["--period-ns", "12.5"]),
], ids=["fit-cw", "pulsed"])
def test_histogram_csv_mutation_grid(tmp_path, capsys, command, write, extra):
    """Each cell of three rows of a histogram replaced by an empty,
    non-numeric, non-finite, overflowing, negative, zero or extreme field, a
    cell dropped or added, a blank line, a repeated header, every count zero
    and the delays scaled by 1e-300 and 1e300: a result, an input error with
    empty stdout or, for a CW histogram that passed its input checks, the
    fit's documented non-convergence; never an unexpected failure. Under
    ``filterwarnings = error`` a numpy RuntimeWarning is one."""
    hist = tmp_path / "hist.csv"
    write(hist)
    header, *rows = hist.read_text().splitlines()
    argv = ["g2", command, "--histogram", str(hist), *extra]
    clean_code, clean_out, _ = _run_capturing(capsys, argv)
    assert clean_code == 0
    failures = []
    for label, lines in _histogram_mutations(header, rows):
        hist.write_text("\n".join(lines) + "\n")
        code, out, err = _run_capturing(capsys, argv)
        ok = (code == 0 or (code, out) == (1, "") and err.startswith("error:")
              or command == "fit-cw" and (code, out, err) == (2, "", _NOT_CONVERGED))
        if not ok or label.startswith("blank") and (code, out) != (0, clean_out):
            failures.append((label, code, err))
    assert failures == []


@pytest.mark.parametrize("period", ["1e-300", "nan", "inf"])
def test_exit_code_one_on_bad_pulse_period(tmp_path, capsys, period):
    hist = tmp_path / "pulsed.csv"
    write_pulsed_histogram(hist)
    code, out, err = _run_capturing(capsys, ["g2", "pulsed", "--histogram", str(hist),
                                             "--period-ns", period])
    assert (code, out) == (1, "")
    assert err.startswith("error:") and err.count("\n") == 1


def test_exit_code_one_on_an_empty_cw_histogram(tmp_path, capsys):
    """An all-zero histogram is an input error at any bin count; the fit never sees it."""
    hist = tmp_path / "cw.csv"
    for n_bins in (21, 101, 801):
        tau = np.linspace(-10.0, 10.0, n_bins)
        hist.write_text("tau_ns,counts\n" + "".join(f"{t!r},0\n" for t in tau.tolist()))
        code, out, err = _run_capturing(capsys, ["g2", "fit-cw", "--histogram", str(hist)])
        assert (code, out, err) == (1, "", "error: histogram has no counts\n")


_PATTERNS = {
    "empty.hex": b"",
    "blank.hex": b" \n\t \n",
    "odd.hex": b"ABC",
    "word.hex": b"FFXZ",
    "latin1.hex": b"FF\xe9",
    "bytes.bin": bytes(range(256)),
    "one.bin": b"\xb1",
    "short.hex": b"FF00 AA55\n",
}


@pytest.mark.parametrize("fmt", ["auto", "hex", "binary"])
@pytest.mark.parametrize("name", list(_PATTERNS))
def test_pattern_input_grid(tmp_path, capsys, name, fmt):
    """Empty, blank, odd, non-hex, non-UTF-8 and raw-byte patterns in each
    format: a session or an input error with empty stdout, never an
    unexpected failure. A pattern shorter than the request truncates it."""
    path = tmp_path / name
    path.write_bytes(_PATTERNS[name])
    code, out, err = _run_capturing(capsys, [
        "simulate", "--scenario", "deployed-3p5km", "--seed", "1", "--pulses", "100000",
        "--pattern", str(path), "--pattern-format", fmt])
    if code == 0:
        assert json.loads(out)["truncated"]
    else:
        assert (code, out) == (1, "")
        assert err.startswith("error:")
    as_binary = fmt == "binary" or fmt == "auto" and name.endswith(".bin")
    readable = _PATTERNS[name] != b"" if as_binary else name == "short.hex"
    assert code == (0 if readable else 1)


@pytest.mark.parametrize("kind, flag", [
    ("trajectory", ["pmd", "fit", "--trajectory"]),
    ("histogram", ["g2", "fit-cw", "--histogram"]),
    ("pattern", ["simulate", "--scenario", "deployed-3p5km", "--seed", "1", "--pulses", "1000",
                 "--pattern"]),
], ids=["trajectory", "histogram", "pattern"])
@pytest.mark.parametrize("problem", ["missing", "directory", "non-utf8"])
def test_unreadable_input_file_names_its_kind(tmp_path, capsys, kind, flag, problem):
    path = tmp_path / "input.txt"
    if problem != "missing":
        path = Path(_unreadable(tmp_path, problem))
    code, out, err = _run_capturing(capsys, flag + [str(path)])
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot read {kind} file '{path}': ")


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
    """The calibration is closed-form: a one-shot keyrate or offline sift
    does not pay for importing the optimizers."""
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


def test_trajectory_fit_and_estimate_leave_scipy_optimize_unloaded(tmp_path):
    """The arc fit runs on the numpy solver in ``fiberqkd.fitting``: one-shot
    ``pmd fit`` and ``pmd estimate --trajectory`` do not import the optimizers."""
    traj = tmp_path / "traj.csv"
    assert run_cli("pmd", "sweep", "--scenario", "deployed-3p5km", "--state", "L",
                   "--points", "48", "--out", str(traj)) == 0
    code = (
        "import sys\n"
        "from fiberqkd.cli import main\n"
        f"assert main(['pmd', 'fit', '--trajectory', {str(traj)!r}]) == 0\n"
        f"assert main(['pmd', 'estimate', '--trajectory', {str(traj)!r}]) == 0\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(fiberqkd.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.splitlines()[-1] == "False"


def test_cli_import_and_keyrate_leave_scipy_unloaded():
    """Importing the command line and a one-shot keyrate load no scipy
    module, before the command runs or after it."""
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


_RUN_EVERY_COMMAND = """
import contextlib, io, json, sys
if sys.argv[1] == "blocked":
    sys.modules["scipy"] = None  # every import of scipy or a submodule now fails
from fiberqkd.cli import main
from fiberqkd.protocol import sift
for argv in json.loads(sys.argv[2]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    print(json.dumps([argv, code, out.getvalue()]))
print(sift([(0, "DA", 0), (1, "LR", 1)], [(0, ("D",)), (1, ("R",))]))
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_every_command_runs_without_scipy(tmp_path):
    """numpy is the only run-time dependency: with scipy unimportable every
    subcommand and the offline sift give the unblocked run's exit codes and
    stdout, and the unblocked run loads no scipy module."""
    traj, cw, pulsed = (str(tmp_path / name) for name in ("traj.csv", "cw.csv", "pulsed.csv"))
    assert run_cli("pmd", "sweep", "--scenario", "deployed-3p5km", "--state", "L",
                   "--points", "48", "--out", traj) == 0
    write_cw_histogram(cw)
    write_pulsed_histogram(pulsed)
    commands = [["keyrate", "--tally", "tally-spool"],
                ["pmd", "fit", "--trajectory", traj],
                ["pmd", "estimate", "--trajectory", traj],
                ["pmd", "estimate", "--central-angle-deg", "51.5", "--span-nm", "7.0",
                 "--center-nm", "1310.0"],
                ["g2", "fit-cw", "--histogram", cw],
                ["g2", "pulsed", "--histogram", pulsed, "--period-ns", "12.5"]]
    for scenario in ("deployed-3p5km", "spool-32p5km"):
        commands += [["simulate", "--scenario", scenario, "--seed", "3", "--pulses", "1000000"],
                     ["pmd", "sweep", "--scenario", scenario],
                     ["optimize", "--scenario", scenario],
                     ["rate-curve", "--scenario", scenario, "--points", "4"]]
    env = {**os.environ, "PYTHONPATH": str(Path(fiberqkd.__file__).resolve().parents[1])}
    script = [sys.executable, "-c", _RUN_EVERY_COMMAND]
    runs = {
        mode: subprocess.run(script + [mode, json.dumps(commands)], env=env,
                             capture_output=True, text=True, check=True).stdout
        for mode in ("blocked", "unblocked")
    }
    results = [json.loads(line) for line in runs["unblocked"].splitlines()[:len(commands)]]
    assert [(argv, code) for argv, code, _ in results] == [(argv, 0) for argv in commands]
    assert all(out for _, _, out in results)
    assert runs["unblocked"].splitlines()[-1] == "[]"
    assert runs["blocked"].splitlines()[:-1] == runs["unblocked"].splitlines()[:-1]


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
