"""One workload in one process: set up, warm up, measure, check.

Started by ``run.py``; prints one JSON object as its last stdout line. With
``--setup-only`` it stops after the warm-up call and reports only its set-up
time. With ``--trace 1`` it runs every call twice in a row, once untraced and
once with spans around every entry point, alternating which goes first, and
reports per-layer values and the tracing overhead of those pairs.
"""

import os

# Single-threaded numerics; must precede the first numpy import.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"

# Per-layer metrics: (span, field, unit, workloads on which the span must fire).
# Values are per top-level call of the traced replay.
S = "s/call"
N = "count/call"
LAYERS = (
    ("cli.main", "self_s", S, ("analysis",)),
    ("cli.main", "bytes_out", "B/call", ("analysis",)),
    ("config.load_scenario", "calls", N, ("analysis",)),
    ("config.load_scenario", "self_s", S, ("analysis",)),
    ("config.planning_inputs", "self_s", S, ("analysis",)),
    ("protocol.run_session", "calls", N, ("session-sparse", "session-dense")),
    ("protocol.run_session", "slots", N, ("session-sparse", "session-dense")),
    ("protocol.run_session", "events", N, ("session-sparse", "session-dense")),
    ("protocol.run_session", "self_s", S, ("session-sparse", "session-dense")),
    ("protocol.expected_rates", "calls", N, ("analysis",)),
    ("protocol.expected_rates", "self_s", S, ("analysis",)),
    ("protocol.closed_form_rates", "calls", N, ("analysis",)),
    ("protocol.sift", "records", N, ("analysis",)),
    ("protocol.sift", "self_s", S, ("analysis",)),
    ("emitter.sample_photon_number", "rows", N, ("session-sparse",)),
    ("emitter.sample_photon_number", "self_s", S, ("session-sparse",)),
    ("emitter.EmitterSpectrum.sample", "rows", N, ("session-sparse", "session-dense")),
    ("emitter.EmitterSpectrum.sample", "self_s", S, ("session-sparse", "session-dense")),
    ("emitter.fit_g2_cw", "self_s", S, ("analysis",)),
    ("emitter.pulsed_g2", "self_s", S, ("analysis",)),
    ("channel.apply_channel_rows", "rows", N, ("session-sparse", "session-dense")),
    ("channel.apply_channel_rows", "self_s", S, ("session-sparse", "session-dense")),
    ("channel.qber_from_pmd", "calls", N, ("analysis",)),
    ("channel.qber_from_pmd", "self_s", S, ("analysis",)),
    ("channel.sweep_trajectory", "self_s", S, ("analysis",)),
    ("channel.fit_arc", "calls", N, ("analysis",)),
    ("channel.fit_arc", "self_s", S, ("analysis",)),
    ("polarization.rotate_rows", "calls", N, ("session-sparse", "session-dense")),
    ("polarization.rotate_rows", "rows", N, ("session-sparse", "session-dense")),
    ("polarization.rotate_rows", "self_s", S, ("session-sparse", "session-dense")),
    ("keyrate.secure_key_length", "calls", N, ("analysis",)),
    ("keyrate.secure_key_length", "self_s", S, ("analysis",)),
    ("keyrate.optimize_basis_probability", "evaluations", N, ("analysis",)),
    ("keyrate.optimize_basis_probability", "self_s", S, ("analysis",)),
    ("keyrate.rate_vs_loss_curve", "self_s", S, ("analysis",)),
)
MIN_COVERAGE = 0.95


def run_call(call, tracer=None):
    """Run one call; returns (exit code, output, seconds)."""
    from fiberqkd import cli, protocol

    if call.argv is None:
        alice, bob, key_basis, n_pulses = call.sift_args
        t0 = time.perf_counter()
        try:
            out = protocol.sift(alice, bob, policy="discard", key_basis=key_basis,
                                n_pulses=n_pulses)
            code = 0
        except Exception as exc:  # a failed call is counted, not fatal
            out, code = repr(exc), 2
        return code, out, time.perf_counter() - t0
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        idx = tracer.enter("cli.main") if tracer else None
        t0 = time.perf_counter()
        try:
            code = cli.main(call.argv)
        except SystemExit as exc:
            code = exc.code
        seconds = time.perf_counter() - t0
        if tracer:
            written = os.path.getsize(call.out_path) if call.out_path else 0
            tracer.exit(idx, {"bytes_out": len(buf.getvalue()) + written})
    return code, buf.getvalue(), seconds


def measure(calls, seconds, min_calls):
    """Closed loop until ``seconds`` have passed and ``min_calls`` are done."""
    done = []
    start = time.perf_counter()
    deadline = start + seconds
    for call in calls:
        code, out, dt = run_call(call)
        done.append((call, code, out, dt))
        if len(done) >= min_calls and time.perf_counter() >= deadline:
            break
    return done, time.perf_counter() - start


def measure_traced(calls, seconds, min_calls):
    """Each call untraced and traced back to back, so both see the same machine."""
    import tracing

    tracer = tracing.Tracer()
    done, traced, walls = [], [], [0.0, 0.0]
    deadline = time.perf_counter() + seconds
    for i, call in enumerate(calls):
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                tracer.install()
            t0 = time.perf_counter()
            try:
                code, out, dt = run_call(call, tracer if with_trace else None)
            finally:
                walls[with_trace] += time.perf_counter() - t0
                tracer.uninstall()
            (traced if with_trace else done).append((call, code, out, dt))
        if len(done) >= min_calls and time.perf_counter() >= deadline:
            break
    return tracer, done, traced, walls


def end_to_end(done, wall):
    times = sorted(dt for *_, dt in done)
    slot_calls = [(call.slots, dt) for call, _, _, dt in done if call.slots]
    p95 = statistics.quantiles(times, n=20)[18]
    return {
        "slots_per_s": (sum(s for s, _ in slot_calls) / sum(t for _, t in slot_calls), "1/s"),
        "call_ms_p50": (statistics.median(times) * 1e3, "ms"),
        "call_ms_p95": (p95 * 1e3, "ms"),
        "calls_per_s": (len(done) / wall, "1/s"),
    }, {"calls": len(done), "beyond_p95": sum(t > p95 for t in times), "wall_s": wall}


def per_layer(name, tracer, calls, traced_wall, untraced_wall):
    per_span, top = tracer.summary()
    metrics = {}
    missing = []
    for span, fld, unit, predicted in LAYERS:
        value = per_span.get(span, {}).get(fld, 0)
        if name in predicted and value == 0:
            missing.append(f"{span}.{fld}")
        metrics[f"{span}.{fld}"] = (value / calls, unit)
    run = per_span.get("protocol.run_session", {})
    event_ratio = run["events"] / run["slots"] if run.get("slots") else 0.0
    metrics["protocol.event_ratio"] = (event_ratio, "ratio")
    metrics["trace.overhead_ratio"] = (traced_wall / untraced_wall, "ratio")
    metrics["trace.coverage"] = (top / traced_wall, "ratio")
    problems = [f"predicted span never fired: {m}" for m in missing]
    if top / traced_wall < MIN_COVERAGE:
        problems.append(f"top-level spans cover {top / traced_wall:.3f} of traced wall time")
    return metrics, problems


def environment():
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "cpu": cpu, "nproc": os.cpu_count()}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import fiberqkd.cli

    if not Path(fiberqkd.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"fiberqkd imported from {fiberqkd.cli.__file__}, not from {ROOT / 'src'}")
    import workloads

    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        workload = workloads.make(args.workload)
        workload.setup(Path(tmp), args.seed)
        calls = workload.calls(args.seed)
        first = next(calls)
        warm_code, warm_out, _ = run_call(first)
        setup_s = time.perf_counter() - t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return

        def schedule():
            yield first
            yield from calls

        result = {"setup_s": setup_s, "environment": environment(), "errors": []}
        if args.trace:
            tracer, done, traced, (untraced_wall, traced_wall) = measure_traced(
                schedule(), args.seconds, workload.min_calls)
            checked = done + traced
            metrics, problems = per_layer(args.workload, tracer, len(traced), traced_wall,
                                          untraced_wall)
            tracer.write(WORK / f"spans-{args.workload}.tsv")
            result.update(problems=problems, spans=len(tracer.spans))
        else:
            done, wall = measure(schedule(), args.seconds, workload.min_calls)
            metrics, stats = end_to_end(done, wall)
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics["peak_rss_mb"] = (peak_kib / 1024.0, "MB")
            result["samples"] = stats
            checked = done
        failed = 0
        for call, code, out, _ in checked:
            try:
                error = workload.check(call, code, out)
            except (ValueError, KeyError, TypeError) as exc:  # malformed output
                error = f"unreadable output: {exc!r}"
            if error:
                failed += 1
                result["errors"].append(f"{call.kind}: {error}")
        if done[0][2] != warm_out or warm_code != 0:
            failed += 1
            result["errors"].append("first call differs from the same call made at warm-up")
        result.update(attempted=len(checked) + 1, failed=failed,
                      metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
        print(json.dumps(result))


if __name__ == "__main__":
    main()
