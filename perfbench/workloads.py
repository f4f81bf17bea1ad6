"""The three workloads: seeded inputs, call schedules and output checks.

Every workload is a closed loop with one client: the next call starts only
after the previous one returned. The program sees only the files and arrays
generated here from the workload seed.

* ``session-sparse``: ``simulate`` on the bundled deployed link, 10^7 slots a
  call in ten windows. The paper's regime: about 3.4e-5 of slots click, so the
  dense engine spends nearly all its time on empty slots.
* ``session-dense``: ``simulate`` on a generated event-heavy link, 10^6 slots
  a call in ten windows. About 24% of slots click, so channel propagation and
  the per-slot multi-click loop dominate.
* ``analysis``: a fixed mix of offline requests that never runs a session:
  key rates, basis-bias optimization, rate curves, PMD sweep/fit/estimate,
  correlation histograms and offline sifting of recorded session records.

``BENCHMARK.json`` declares ``session-sparse`` and ``analysis``. Within the
run budget three declared workloads leave 35 s a run, too short for steady
figures on a shared machine, so ``session-dense`` runs only when named.
"""

from __future__ import annotations

import copy
import csv
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from fiberqkd import config as config_mod
from fiberqkd import protocol
from fiberqkd.emitter import G2Model, g2_of_delay

import reference

STATES = {"H": (1, 0, 0), "V": (-1, 0, 0), "D": (0, 1, 0),
          "A": (0, -1, 0), "L": (0, 0, 1), "R": (0, 0, -1)}
BUNDLED_RATES = {  # acceptance tests 1 and 2: frozen rate, reference rate at 25%
    "tally-deployed-optimized": (516.0722222222222, 585.9),
    "tally-deployed-balanced": (252.09428571428572, 247.3),
    "tally-spool": (48.39527777777778, 50.4),
}
POOL = 8  # generated inputs of each kind


@dataclass
class Call:
    """One top-level request: a CLI argv, or offline sifting of ``sift_args``."""

    kind: str
    argv: list[str] | None
    expect: dict = field(default_factory=dict)
    slots: int = 0  # clock slots the call processes, for slots_per_s
    out_path: str | None = None  # file the call writes besides stdout
    sift_args: tuple | None = None  # (alice records, bob records, key basis, n_pulses)


def _bundled_doc(name: str) -> dict:
    return json.loads(config_mod.bundled_scenario_path(name).read_text())


def event_heavy_doc(policy: str) -> dict:
    """Deployed link without calibration, bright and noisy: about 24% of slots click."""
    doc = copy.deepcopy(_bundled_doc("deployed-3p5km"))
    del doc["calibration"]
    doc["name"] = "event-heavy"
    doc["device"].update(r_c=0.5, p_dark=2e-3, l_a=0.0, l_b=0.0, eta_det=0.6)
    doc["channel"]["l_c"] = 1.0
    doc["receiver"]["double_click_policy"] = policy
    return doc


def _write_json(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True))
    return str(path)


def _write_histogram(path: Path, tau, counts) -> str:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["tau_ns", "counts"])
        writer.writerows((repr(float(t)), int(c)) for t, c in zip(tau, counts))
    return str(path)


class SessionWorkload:
    """Repeated ``simulate`` calls, each with a fresh seed from the workload seed."""

    def __init__(self, scenario: str | None, pulses: int, window_s: float):
        self.scenario = scenario
        self.pulses = pulses
        self.window_s = window_s
        self.min_calls = 3
        self._slot_model = None

    def setup(self, workdir: Path, seed: int) -> None:
        if self.scenario is None:
            self.scenario = _write_json(workdir / "event-heavy.json", event_heavy_doc("random"))

    def calls(self, seed: int):
        rng = random.Random(seed)
        args = ["--pulses", str(self.pulses), "--window-s", repr(self.window_s)]
        while True:
            call_seed = str(rng.randrange(2**31))
            argv = ["simulate", "--scenario", self.scenario, "--seed", call_seed] + args
            yield Call("simulate", argv, slots=self.pulses)

    def check(self, call: Call, code: int, out) -> str | None:
        if code != 0:
            return f"exit code {code}"
        doc = json.loads(out)
        if self._slot_model is None:
            config = config_mod.load_scenario(self.scenario).config
            self._slot_model = reference.slot_model(config)
            self._window_slots = max(int(round(self.window_s * config.device.rep_rate_hz)), 1)
        n = doc["n_pulses"]
        sift = doc["sift"]
        if n != self.pulses:
            return f"n_pulses {n} != {self.pulses}"
        if doc["n_windows"] != n // self._window_slots:
            return f"n_windows {doc['n_windows']} != {n // self._window_slots}"
        checks = (
            ("n_detections", sift["n_detections"], doc["expected"]["p_det"]),
            ("kept_da", sift["kept_da"], self._slot_model["kept_da"]),
            ("kept_lr", sift["kept_lr"], self._slot_model["kept_lr"]),
        )
        for name, observed, p in checks:
            if not reference.within_five_sigma(observed, n, p):
                return f"{name} {observed} is beyond 5 sigma of {n * p:.1f}"
        return None


class AnalysisWorkload:
    """A shuffled cycle of offline requests with seeded parameters.

    One cycle holds 20 calls: keyrate on a bundled and on a perturbed tally,
    optimize and rate-curve on both bundled scenarios, three pmd sweep, fit
    and estimate chains, two CW fits, one pulsed reduction and one offline
    sift. The pmd calls cost 4-11 ms with their 32-256 sweep points and the
    rate curves 18-36 ms with their 8-40 loss points, so the median and p95
    fall inside continuous spreads of call costs and move smoothly when the
    machine speeds up or slows down.
    """

    SCENARIOS = ("deployed-3p5km", "spool-32p5km")

    def __init__(self):
        self.min_calls = 200  # p95 then has at least ten samples beyond it

    def setup(self, workdir: Path, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.tallies = [self._perturbed_tally(workdir, i, rng) for i in range(POOL)]
        self.pmd = [self._pmd_scenario(workdir, i, rng) for i in range(POOL)]
        self.cw = [self._cw_histogram(workdir, i, rng) for i in range(POOL)]
        self.pulsed = [self._pulsed_histogram(workdir, i, rng) for i in range(POOL)]
        config = config_mod.scenario_from_dict(event_heavy_doc("discard")).config
        session = protocol.run_session(config, 100_000, seed=int(rng.integers(2**31)),
                                       record_slots=True)
        alice = [(r.slot, r.alice_basis, r.alice_bit) for r in session.records]
        bob = [(r.slot, r.detections) for r in session.records]
        self.sift_args = (alice, bob, config.key_basis, session.n_pulses)
        self.sift_expect = session.sift

    @staticmethod
    def _perturbed_tally(workdir: Path, i: int, rng) -> tuple[str, dict]:
        doc = _bundled_doc(list(BUNDLED_RATES)[i % 3])
        doc["n_z"] = int(doc["n_z"] * rng.uniform(0.5, 2.0))
        doc["n_x"] = int(doc["n_x"] * rng.uniform(0.5, 2.0))
        doc["e_z"] *= rng.uniform(0.8, 1.2)
        doc["e_x"] *= rng.uniform(0.8, 1.2)
        doc["p_det"] *= rng.uniform(0.8, 1.2)
        doc["name"] = f"perturbed-{i}"
        return _write_json(workdir / f"tally-{i}.json", doc), doc

    @staticmethod
    def _pmd_scenario(workdir: Path, i: int, rng) -> tuple[str, str, int, float]:
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        dgd = float(10.0 ** rng.uniform(-2.0, math.log10(2.0)))
        doc = copy.deepcopy(_bundled_doc("deployed-3p5km"))
        doc["name"] = f"pmd-{i}"
        doc["channel"] = {
            "l_c": 4.0,
            "reference_nm": 1309.5,
            "length_km": 3.5,
            "segments": [{"axis": [float(x) for x in axis], "dgd_ps": dgd}],
        }
        # Probe with the cardinal state farthest from the axis, so the arc is wide.
        state = min(STATES, key=lambda s: abs(float(np.dot(axis, STATES[s]))))
        points = int(rng.integers(32, 257))
        return _write_json(workdir / f"pmd-{i}.json", doc), state, points, dgd

    @staticmethod
    def _cw_histogram(workdir: Path, i: int, rng) -> tuple[str, float]:
        truth = float(rng.uniform(0.15, 0.45))
        tau = np.linspace(-200.0, 200.0, 801)
        model = G2Model(a=0.2, tau1_ns=2.0, tau2_ns=50.0, g2_zero=truth)
        counts = rng.poisson(9000.0 * g2_of_delay(tau, model))
        return _write_histogram(workdir / f"cw-{i}.csv", tau, counts), truth

    @staticmethod
    def _pulsed_histogram(workdir: Path, i: int, rng) -> tuple[str, float]:
        truth = float(rng.uniform(0.15, 0.45))
        tau, counts = [], []
        for k in range(-8, 9):
            height = 1e6 * (truth if k == 0 else 1.0)
            for off in np.linspace(-2.0, 2.0, 9):
                tau.append(k * 12.5 + off)
                counts.append(rng.poisson(height * np.exp(-abs(off) / 0.9)))
        return _write_histogram(workdir / f"pulsed-{i}.csv", tau, counts), truth

    def calls(self, seed: int):
        rng = random.Random(seed)
        while True:
            jobs = [self._keyrate_bundled(rng), self._keyrate_perturbed(rng)]
            jobs += [self._pmd_chain(rng) for _ in range(3)]
            jobs += [self._optimize(s, rng) for s in self.SCENARIOS]
            jobs += [self._rate_curve(s, rng) for s in self.SCENARIOS]
            jobs += [self._fit_cw(rng), self._fit_cw(rng), self._pulsed(rng), self._sift()]
            rng.shuffle(jobs)
            for job in jobs:
                yield from job

    def _keyrate_bundled(self, rng):
        name = rng.choice(list(BUNDLED_RATES))
        return [Call("keyrate", ["keyrate", "--tally", name], {"bundled": name})]

    def _keyrate_perturbed(self, rng):
        path, doc = rng.choice(self.tallies)
        return [Call("keyrate", ["keyrate", "--tally", path], {"doc": doc})]

    def _optimize(self, scenario, rng):
        duration = repr(10.0 ** rng.uniform(math.log10(60.0), math.log10(25200.0)))
        return [Call("optimize", ["optimize", "--scenario", scenario, "--duration", duration])]

    def _rate_curve(self, scenario, rng):
        points = rng.randint(8, 40)
        argv = [
            "rate-curve", "--scenario", scenario,
            "--loss-min", repr(rng.uniform(0.0, 3.0)),
            "--loss-max", repr(rng.uniform(10.0, 20.0)),
            "--points", str(points),
            "--duration", repr(10.0 ** rng.uniform(math.log10(600.0), math.log10(25200.0))),
        ]
        return [Call("rate-curve", argv, {"points": points})]

    def _pmd_chain(self, rng):
        i = rng.randrange(POOL)
        path, state, points, dgd = self.pmd[i]
        traj = str(Path(path).with_suffix(".csv"))
        sweep = ["pmd", "sweep", "--scenario", path, "--state", state, "--points", str(points)]
        return [
            Call("pmd-sweep", sweep + ["--out", traj], out_path=traj),
            Call("pmd-fit", ["pmd", "fit", "--trajectory", traj]),
            Call("pmd-estimate", ["pmd", "estimate", "--trajectory", traj], {"dgd_ps": dgd}),
        ]

    def _fit_cw(self, rng):
        path, truth = rng.choice(self.cw)
        return [Call("g2-fit-cw", ["g2", "fit-cw", "--histogram", path], {"g2_zero": truth})]

    def _pulsed(self, rng):
        path, truth = rng.choice(self.pulsed)
        argv = ["g2", "pulsed", "--histogram", path, "--period-ns", "12.5"]
        return [Call("g2-pulsed", argv, {"g2_zero": truth})]

    def _sift(self):
        return [Call("sift", None, slots=self.sift_args[3], sift_args=self.sift_args)]

    def check(self, call: Call, code: int, out) -> str | None:
        if code != 0:
            return f"exit code {code}"
        if call.kind == "sift":
            if out != self.sift_expect:
                return f"offline sift {out} != engine {self.sift_expect}"
            return None
        if call.kind == "pmd-sweep":
            return None
        if call.kind == "rate-curve":
            rows = list(csv.DictReader(out.splitlines()))
            if len(rows) != call.expect["points"]:
                return f"{len(rows)} rate-curve rows"
            for row in rows:
                finite, gllp = float(row["finite_bps"]), float(row["gllp_bps"])
                if not (math.isfinite(finite) and finite <= gllp):
                    return f"finite {finite} exceeds GLLP {gllp}"
            return None
        doc = json.loads(out)
        if call.kind == "keyrate":
            if "bundled" in call.expect:
                frozen, field_rate = BUNDLED_RATES[call.expect["bundled"]]
                if not math.isclose(doc["rate_bps"], frozen, rel_tol=1e-12):
                    return f"rate {doc['rate_bps']} != frozen {frozen}"
                if abs(doc["rate_bps"] - field_rate) > 0.25 * field_rate:
                    return f"rate {doc['rate_bps']} outside 25% of {field_rate}"
                return None
            length, status = reference.secure_length(call.expect["doc"])
            if abs(doc["length_bits"] - length) > 1 or doc["status"] != status:
                return f"length {doc['length_bits']} {doc['status']} != {length} {status}"
            return None
        if call.kind == "optimize":
            ok = doc["rate_bps"] >= doc["rate_at_balanced_bps"] and 0.5 < doc["p_key"] < 1.0
            if not ok:
                return f"optimum {doc['rate_bps']} below balanced {doc['rate_at_balanced_bps']}"
            return None
        if call.kind == "pmd-fit":
            return "degenerate fit" if doc["degenerate"] else None
        if call.kind == "pmd-estimate":
            truth = call.expect["dgd_ps"]
            ok = abs(doc["dgd_ps"] - truth) <= 0.01 * truth
            return None if ok else f"dgd {doc['dgd_ps']} vs generated {truth}"
        tol = 0.04 if call.kind == "g2-fit-cw" else 0.005
        value = doc["model"]["g2_zero"] if call.kind == "g2-fit-cw" else doc["g2_zero"]
        ok = abs(value - call.expect["g2_zero"]) <= tol
        return None if ok else f"g2 {value} vs generated {call.expect['g2_zero']}"


def make(name: str):
    if name == "session-sparse":
        return SessionWorkload("deployed-3p5km", 10_000_000, 0.0125)
    if name == "session-dense":
        return SessionWorkload(None, 1_000_000, 0.00125)
    if name == "analysis":
        return AnalysisWorkload()
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("session-sparse", "session-dense", "analysis")
