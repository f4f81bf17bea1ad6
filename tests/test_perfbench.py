"""The benchmark's traced run still finds, and fires, every entry point it wraps."""

import importlib.util
import os
from pathlib import Path
from unittest import mock

import numpy as np

from fiberqkd import channel as channel_mod
from fiberqkd import protocol
from fiberqkd.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    """A perfbench script as a module, without putting perfbench on sys.path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ):  # the worker pins thread counts when imported
        spec.loader.exec_module(module)
    return module


def test_traced_session_and_pmd_calls_fire_every_predicted_span(tmp_path, capsys):
    """The session-sparse call and one pmd sweep, fit and estimate, each run
    under the benchmark's tracer: every span the worker predicts for
    session-sparse, and the sweep and arc-fit spans, record a non-zero value."""
    tracing, worker = _load("tracing"), _load("worker")
    tracer = tracing.Tracer()  # raises when a wrapped entry point is gone
    traj = str(tmp_path / "traj.csv")
    # A call draws about three events that a dark count starts; seed 2 draws
    # five, where one seed in twenty (seed 1 among them) draws none and
    # leaves emitter.sample_photon_number.rows at zero.
    argvs = [
        ["simulate", "--scenario", "deployed-3p5km", "--seed", "2", "--pulses", "10000000",
         "--window-s", "0.0125"],
        ["pmd", "sweep", "--scenario", "deployed-3p5km", "--points", "64", "--out", traj],
        ["pmd", "fit", "--trajectory", traj],
        ["pmd", "estimate", "--trajectory", traj],
    ]
    tracer.install()
    try:
        codes = [main(argv) for argv in argvs]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == [0, 0, 0, 0]
    per_span, _ = tracer.summary()
    predicted = {
        (span, field)
        for span, field, _, workloads in worker.LAYERS
        if "session-sparse" in workloads
        or span in ("channel.sweep_trajectory", "channel.fit_arc")
    }
    assert ("channel.fit_arc", "calls") in predicted
    silent = sorted(f"{span}.{field}" for span, field in predicted
                    if not per_span.get(span, {}).get(field, 0) > 0)
    assert silent == []


def test_traced_offline_sift_counts_its_records():
    """One offline sift, as the analysis workload calls it, fires the
    ``protocol.sift`` span with the number of records it was given."""
    tracing, worker = _load("tracing"), _load("worker")
    assert ("protocol.sift", "records") in {
        (span, field) for span, field, _, workloads in worker.LAYERS if "analysis" in workloads
    }
    rng = np.random.default_rng(3)
    labels = [(), ("D",), ("A",), ("L",), ("R",), ("D", "A"), ("D", "L")]
    alice = [(slot, ("DA", "LR")[rng.integers(2)], int(rng.integers(2))) for slot in range(500)]
    bob = [(slot, labels[rng.integers(len(labels))]) for slot in range(500)]
    untraced = protocol.sift(alice, bob, policy="discard", n_pulses=1_000)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = protocol.sift(alice, bob, policy="discard", n_pulses=1_000)
    finally:
        tracer.uninstall()
    per_span, _ = tracer.summary()
    assert traced == untraced
    assert per_span["protocol.sift"]["calls"] == 1
    assert per_span["protocol.sift"]["records"] == len(alice)


def test_traced_session_propagates_each_block_in_one_kernel_call(capsys):
    """On the session-sparse call, ``polarization.rotate_rows`` fires once per
    ``channel.apply_channel_rows`` block (one block each for the rate
    quadrature and the clicked photons), on every row propagated."""
    tracing, worker = _load("tracing"), _load("worker")
    assert {("polarization.rotate_rows", "calls"), ("polarization.rotate_rows", "rows")} <= {
        (span, field) for span, field, _, workloads in worker.LAYERS
        if "session-sparse" in workloads
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = main(["simulate", "--scenario", "deployed-3p5km", "--seed", "2",
                     "--pulses", "10000000", "--window-s", "0.0125"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    per_span, _ = tracer.summary()
    kernel, channel = per_span["polarization.rotate_rows"], per_span["channel.apply_channel_rows"]
    assert channel["calls"] == 2
    assert channel["rows"] < channel["calls"] * channel_mod._BLOCK_ROWS  # one block each
    assert kernel["calls"] == channel["calls"]
    assert kernel["rows"] == channel["rows"]
