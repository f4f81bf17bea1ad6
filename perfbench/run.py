"""fiberqkd benchmark: one workload, measured in fresh single-threaded processes.

    python3 perfbench/run.py --workload session-sparse --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the program is imported from ``src/``.
With ``--trace 0`` the worker process is first started twice to set up
only, and ``setup_s`` is the median of the three set-up times; the third
worker then measures the end-to-end metrics for ``--seconds``. With
``--trace 1`` one worker reports the per-layer metrics of a traced replay.
The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a readable summary goes to stderr and the full
record, with the software and CPU it ran on, to
``.perfbench_work/results-<workload>-<seed>-trace<0|1>.json``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("session-sparse", "session-dense", "analysis")
SETUP_PROBES = 2
TIME_LIMIT_S = 175.0


def run_worker(args, extra, deadline):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed)] + extra
    # A fixed hash seed keeps dict and set layouts the same in every process.
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          env=dict(os.environ, PYTHONHASHSEED="0"),
                          timeout=max(deadline - time.monotonic(), 1.0))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"worker {' '.join(extra)} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main():
    start = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "fiberqkd" / "__init__.py").is_file():
        sys.exit(f"no fiberqkd sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    deadline = start + TIME_LIMIT_S

    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            setups.append(run_worker(args, ["--setup-only"], deadline)["setup_s"])
    measure = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    result = run_worker(args, measure, deadline)
    setups.append(result["setup_s"])
    produced = dict(result["metrics"])
    if not args.trace:
        produced["setup_s"] = {"value": statistics.median(setups), "unit": "s"}

    metrics = {}
    for metric in wanted:
        got = produced.get(metric["name"])
        if got is None or got["unit"] != metric["unit"]:
            sys.exit(f"metric {metric['name']} [{metric['unit']}] not produced as declared: {got}")
        metrics[metric["name"]] = got
    failed, attempted = result["failed"], result["attempted"]
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, setups_s=setups, failed_ratio=failed / attempted,
                  metrics=metrics)
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    out = work / f"results-{args.workload}-{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(f"{args.workload} failed_ratio = {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} calls)", file=sys.stderr)
    for error in result["errors"][:10]:
        print(f"check failed: {error}", file=sys.stderr)
    if result.get("problems"):
        sys.exit("traced run failed: " + "; ".join(result["problems"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
