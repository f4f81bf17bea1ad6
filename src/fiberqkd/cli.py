"""Command-line front end.

Subcommands:

* ``simulate``: Monte-Carlo session on a scenario, JSON summary plus an
  optional windowed time-series CSV.
* ``keyrate``: secure length and rate from a key-analysis JSON document,
  reported for the document's basis-role assignment and for the swapped one.
* ``pmd sweep | fit | estimate``: wavelength trajectories, small-circle fits
  and delay estimates.
* ``g2 fit-cw | pulsed``: correlation-histogram reductions.
* ``optimize``: basis-bias optimization of the finite-key rate.
* ``rate-curve``: finite and asymptotic secure rates across a loss grid.

Every command is deterministic for fixed inputs: stochastic commands require
an explicit seed, floats are serialized with full repr precision and JSON
keys are sorted. Invalid inputs exit with code 1, runtime failures with 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict, replace

import numpy as np

from . import channel as channel_mod
from .config import BUNDLED_SCENARIOS, load_scenario, planning_inputs
from .documents import PATTERN_FORMATS, csv_text, read_float_table, read_pattern
from .emitter import fit_g2_cw, pulsed_g2
from .errors import FitConvergenceError, ValidationError
from .keyrate import (
    BUNDLED_TALLIES,
    key_analysis_document,
    load_key_analysis,
    optimize_basis_probability,
    planning_rate_function,
    rate_vs_loss_curve,
    secure_key_length,
)
from .polarization import stokes_of
from .protocol import run_session


class _Parser(argparse.ArgumentParser):
    """argparse's default usage-error exit code is 2; bad input here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _jsonable(obj):
    """Recursively convert to JSON-safe types; non-finite floats become None."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _emit_text(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(doc: dict, out_path: str | None) -> None:
    _emit_text(json.dumps(_jsonable(doc), indent=2, sort_keys=True) + "\n", out_path)


def cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    config = scenario.config
    if args.pattern is not None:
        pattern = read_pattern(args.pattern, args.pattern_format)
        config = replace(config, alice=replace(config.alice, pattern=pattern))
    if args.window_s is not None:
        config = replace(config, window_s=args.window_s)
    result = run_session(config, args.pulses, seed=args.seed)
    # The pattern and window overrides leave the closed-form rates unchanged.
    model = scenario.rate_model
    sift = result.sift
    doc = {
        "scenario": scenario.name,
        "seed": args.seed,
        "n_pulses": result.n_pulses,
        "duration_s": result.duration_s,
        "truncated": result.truncated,
        "sift": {
            "n_detections": sift.n_detections,
            "n_sifted": sift.n_sifted,
            "kept_da": sift.kept_da,
            "errors_da": sift.errors_da,
            "kept_lr": sift.kept_lr,
            "errors_lr": sift.errors_lr,
            "qber_da": sift.qber_da,
            "qber_lr": sift.qber_lr,
            "e_key": sift.e_key,
            "e_check": sift.e_check,
            "n_double_discarded": sift.n_double_discarded,
            "n_cross_discarded": sift.n_cross_discarded,
            "n_basis_mismatch": sift.n_basis_mismatch,
            "p_det": sift.p_det,
            "sifted_bps": sift.n_sifted / result.duration_s,
        },
        "expected": {
            "p_det": model.p_det,
            "sifted_bps": model.sifted_bps,
            "qber_da": model.qber_da,
            "qber_lr": model.qber_lr,
        },
        "n_windows": len(result.windows),
    }
    _emit_json(doc, args.out)
    if args.timeseries:
        sifted, errors = result.windows.T
        with np.errstate(invalid="ignore"):  # an empty window's qber is nan
            qber = errors / sifted
        rows = zip(range(len(sifted)), qber.tolist(), (sifted / config.window_s).tolist())
        _emit_text(csv_text(["window_index", "qber", "sifted_bps"], rows), args.timeseries)
    return 0


def cmd_keyrate(args) -> int:
    tally, security, raw = load_key_analysis(args.tally)
    result = secure_key_length(tally, security)
    swapped = secure_key_length(tally.swapped_assignment(), security)
    doc = {
        "input": args.tally,
        "name": raw.get("name"),
        "length_bits": result.length_bits,
        "rate_bps": result.rate_bps,
        "status": result.status,
        "terms": result.terms,
        "swapped_assignment": {
            "length_bits": swapped.length_bits,
            "rate_bps": swapped.rate_bps,
            "status": swapped.status,
        },
        "tally": key_analysis_document(tally, security),
    }
    _emit_json(doc, args.out)
    return 0


def cmd_pmd_sweep(args) -> int:
    scenario = load_scenario(args.scenario)
    spectrum = scenario.config.spectrum
    start = args.start if args.start is not None else spectrum.center_nm - 0.5 * spectrum.fwhm_nm
    stop = args.stop if args.stop is not None else spectrum.center_nm + 0.5 * spectrum.fwhm_nm
    trajectory = channel_mod.sweep_trajectory(
        scenario.config.channel, stokes_of(args.state), start, stop, args.points
    ).tolist()
    if args.format == "json":
        doc = {
            "scenario": scenario.name,
            "state": args.state,
            "points": [{"wavelength_nm": lam, "stokes": stokes} for lam, *stokes in trajectory],
        }
        _emit_json(doc, args.out)
    else:
        _emit_text(csv_text(channel_mod.TRAJECTORY_COLUMNS, trajectory), args.out)
    return 0


def _fit_document(fit: channel_mod.ArcFit) -> dict:
    return {
        "axis": list(fit.axis),
        "polar_angle_deg": math.degrees(fit.polar_angle_rad),
        "rotation_angle_deg": math.degrees(fit.rotation_angle_rad),
        "central_angle_deg": math.degrees(fit.central_angle_rad),
        "rms_residual_deg": math.degrees(fit.rms_residual_rad),
        "n_points": fit.n_points,
        "degenerate": fit.degenerate,
    }


def cmd_pmd_fit(args) -> int:
    trajectory = read_float_table(args.trajectory, channel_mod.TRAJECTORY_COLUMNS, "trajectory")
    fit = channel_mod.fit_arc(trajectory)
    doc = _fit_document(fit)
    doc["trajectory"] = args.trajectory
    _emit_json(doc, args.out)
    return 0


def cmd_pmd_estimate(args) -> int:
    if args.trajectory:
        trajectory = read_float_table(args.trajectory, channel_mod.TRAJECTORY_COLUMNS, "trajectory")
        fit = channel_mod.fit_arc(trajectory)
        lo, hi = float(trajectory[:, 0].min()), float(trajectory[:, 0].max())
        span = hi - lo
        center = 0.5 * (hi + lo)
        if fit.degenerate:
            raise ValidationError(
                "trajectory is degenerate (input on a principal state), no delay estimate"
            )
        doc = _fit_document(fit)
        doc.update(
            trajectory=args.trajectory,
            span_nm=span,
            center_nm=center,
            dgd_ps=channel_mod.estimate_dgd(fit.rotation_angle_rad, span, center),
            dgd_from_arc_length_ps=channel_mod.estimate_dgd(fit.central_angle_rad, span, center),
        )
    else:
        if args.central_angle_deg is None or args.span_nm is None or args.center_nm is None:
            raise ValidationError(
                "estimate needs either --trajectory or all of --central-angle-deg,"
                " --span-nm and --center-nm"
            )
        angle = math.radians(args.central_angle_deg)
        doc = {
            "central_angle_deg": args.central_angle_deg,
            "span_nm": args.span_nm,
            "center_nm": args.center_nm,
            "dgd_ps": channel_mod.estimate_dgd(angle, args.span_nm, args.center_nm),
        }
    _emit_json(doc, args.out)
    return 0


def cmd_g2_fit_cw(args) -> int:
    tau, counts = read_float_table(args.histogram, ("tau_ns", "counts"), "histogram").T
    model, report = fit_g2_cw(tau, counts)
    doc = dict(report)
    doc["histogram"] = args.histogram
    doc["model"] = asdict(model)
    _emit_json(doc, args.out)
    return 0


def cmd_g2_pulsed(args) -> int:
    tau, counts = read_float_table(args.histogram, ("tau_ns", "counts"), "histogram").T
    value, sigma, report = pulsed_g2(tau, counts, args.period_ns, args.window_ns)
    doc = dict(report)
    doc["histogram"] = args.histogram
    _emit_json(doc, args.out)
    return 0


def cmd_optimize(args) -> int:
    if args.duration is not None and math.isinf(args.duration):
        raise ValidationError("--duration must be finite; --duration-inf gives the asymptotic rate")
    scenario = load_scenario(args.scenario)
    duration = args.duration if args.duration is not None else scenario.duration_s
    if args.duration_inf:
        duration = math.inf
    inputs = planning_inputs(scenario)
    rate_fn = planning_rate_function(
        p_det=inputs["p_det"],
        e_key=inputs["e_key"],
        e_check=inputs["e_check"],
        p_multi=inputs["p_multi"],
        duration_s=duration,
        rep_rate_hz=inputs["rep_rate_hz"],
        security=scenario.security,
        bob_key_share=inputs["bob_key_share"],
    )
    result = optimize_basis_probability(rate_fn)
    doc = {
        "scenario": scenario.name,
        "duration_s": duration,
        "p_key": result.p_key,
        "p_check": 1.0 - result.p_key,
        "rate_bps": result.rate_bps,
        "rate_at_balanced_bps": rate_fn(0.5 + 1e-9),
        "n_evaluations": result.n_evaluations,
        "inputs": inputs,
    }
    if args.audit:
        doc["evaluations"] = result.evaluations.tolist()
    _emit_json(doc, args.out)
    return 0


def cmd_rate_curve(args) -> int:
    scenario = load_scenario(args.scenario)
    for flag, loss in (("--loss-min", args.loss_min), ("--loss-max", args.loss_max)):
        if not 0.0 <= loss < math.inf:
            raise ValidationError(f"{flag} must be a finite non-negative loss in dB, got {loss}")
    if not args.loss_min < args.loss_max:
        raise ValidationError("need loss-min < loss-max")
    if args.points < 2:
        raise ValidationError("need at least two grid points")
    inputs = planning_inputs(scenario)
    cfg = scenario.config
    duration = args.duration if args.duration is not None else scenario.duration_s

    grid = [float(x) for x in np.linspace(args.loss_min, args.loss_max, args.points)]
    models = [
        cfg.rate_model(inputs["e_pol_da"], inputs["e_pol_lr"], channel_loss_db=loss)
        for loss in grid
    ]
    rows = rate_vs_loss_curve(
        rep_rate_hz=cfg.device.rep_rate_hz,
        p_det=[model.p_det for model in models],
        qber=[model.qber_pooled for model in models],
        p_multi=inputs["p_multi"],
        security=scenario.security,
        loss_grid_db=grid,
        duration_s=duration,
        p_key=cfg.alice.p_key,
        bob_key_share=inputs["bob_key_share"],
    )
    if args.format == "json":
        _emit_json({"scenario": scenario.name, "duration_s": duration, "rows": rows}, args.out)
    else:
        table = [[r["loss_db"], r["finite_bps"], r["gllp_bps"]] for r in rows]
        _emit_text(csv_text(["loss_db", "finite_bps", "gllp_bps"], table), args.out)
    return 0


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process on first use.

    ``parse_args`` leaves the parser unchanged and returns a fresh namespace,
    and each ``func`` default looks up its module globals when it runs, so
    repeated ``main`` calls can share one parser.
    """
    parser = _Parser(prog="fiberqkd", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="Monte-Carlo session on a scenario")
    sim.add_argument("--scenario", required=True, help=f"bundled name {BUNDLED_SCENARIOS} or path")
    sim.add_argument("--seed", type=int, required=True, help="random seed (no default)")
    sim.add_argument("--pulses", type=int, default=10_000_000)
    sim.add_argument("--window-s", type=float, default=None, help="override windowing period")
    sim.add_argument("--pattern", default=None, help="modulation pattern file, two bits per pulse")
    sim.add_argument("--pattern-format", choices=PATTERN_FORMATS, default="auto")
    sim.add_argument("--timeseries", default=None, help="write windowed QBER/rate CSV here")
    sim.add_argument("--out", default=None)
    sim.set_defaults(func=cmd_simulate)

    kr = sub.add_parser("keyrate", help="secure length from a key-analysis JSON")
    kr.add_argument("--tally", required=True, help=f"bundled name {BUNDLED_TALLIES} or path")
    kr.add_argument("--out", default=None)
    kr.set_defaults(func=cmd_keyrate)

    pmd = sub.add_parser("pmd", help="trajectory tools")
    pmd_sub = pmd.add_subparsers(dest="pmd_command", required=True)
    sweep = pmd_sub.add_parser("sweep", help="trace a state across a wavelength sweep")
    sweep.add_argument("--scenario", required=True)
    sweep.add_argument("--state", choices=("H", "V", "D", "A", "L", "R"), default="D")
    sweep.add_argument("--start", type=float, default=None, help="nm; default center - fwhm/2")
    sweep.add_argument("--stop", type=float, default=None, help="nm; default center + fwhm/2")
    sweep.add_argument("--points", type=int, default=64)
    sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    sweep.add_argument("--out", default=None)
    sweep.set_defaults(func=cmd_pmd_sweep)
    fit = pmd_sub.add_parser("fit", help="small-circle fit of a trajectory CSV")
    fit.add_argument("--trajectory", required=True)
    fit.add_argument("--out", default=None)
    fit.set_defaults(func=cmd_pmd_fit)
    est = pmd_sub.add_parser("estimate", help="delay estimate from a trajectory or an angle")
    est.add_argument("--trajectory", default=None)
    est.add_argument("--central-angle-deg", type=float, default=None)
    est.add_argument("--span-nm", type=float, default=None)
    est.add_argument("--center-nm", type=float, default=None)
    est.add_argument("--out", default=None)
    est.set_defaults(func=cmd_pmd_estimate)

    g2 = sub.add_parser("g2", help="correlation-histogram tools")
    g2_sub = g2.add_subparsers(dest="g2_command", required=True)
    cw = g2_sub.add_parser("fit-cw", help="fit a CW histogram")
    cw.add_argument("--histogram", required=True, help="CSV with header tau_ns,counts")
    cw.add_argument("--out", default=None)
    cw.set_defaults(func=cmd_g2_fit_cw)
    pl = g2_sub.add_parser("pulsed", help="peak-ratio reduction of a pulsed histogram")
    pl.add_argument("--histogram", required=True)
    pl.add_argument("--period-ns", type=float, required=True)
    pl.add_argument("--window-ns", type=float, default=None)
    pl.add_argument("--out", default=None)
    pl.set_defaults(func=cmd_g2_pulsed)

    opt = sub.add_parser("optimize", help="basis-bias optimization of the finite-key rate")
    opt.add_argument("--scenario", required=True)
    duration = opt.add_mutually_exclusive_group()
    duration.add_argument("--duration", type=float, default=None, help="seconds; scenario default")
    duration.add_argument("--duration-inf", action="store_true", help="asymptotic objective")
    opt.add_argument("--audit", action="store_true", help="include every evaluation")
    opt.add_argument("--out", default=None)
    opt.set_defaults(func=cmd_optimize)

    curve = sub.add_parser("rate-curve", help="secure rate across a channel-loss grid")
    curve.add_argument("--scenario", required=True)
    curve.add_argument("--loss-min", type=float, default=0.0)
    curve.add_argument("--loss-max", type=float, default=15.0)
    curve.add_argument("--points", type=int, default=16)
    curve.add_argument("--duration", type=float, default=None)
    curve.add_argument("--format", choices=("csv", "json"), default="csv")
    curve.add_argument("--out", default=None)
    curve.set_defaults(func=cmd_rate_curve)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, OSError) as exc:  # OSError: writing --out or --timeseries
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FitConvergenceError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001
        print(f"unexpected failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
