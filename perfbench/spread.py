"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads analysis --seeds 1-10 --out spread.json

For each workload and metric it prints the median of the runs and the
distance between the first and third quartiles (``statistics.quantiles``
with n=4) as a share of that median, next to the metric's bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=None,
                        help="comma-separated; default: those BENCHMARK.json declares")
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="write every run and the spreads here")
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    report = {"run_seconds": spec["run_seconds"], "workloads": {}}
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    for workload in names:
        runs = []
        for seed in seeds_of(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
                   str(seed), "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            start = time.monotonic()
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit code {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            record = json.loads((HERE.parent / ".perfbench_work" /
                                 f"results-{workload}-{seed}-trace{args.trace}.json").read_text())
            result.update(seed=seed, run_wall_s=time.monotonic() - start,
                          failed_ratio=record["failed_ratio"], samples=record.get("samples"),
                          environment=record["environment"])
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  f"wall={result['run_wall_s']:.1f}s", file=sys.stderr)
        spreads = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            spread = (q3 - q1) / median if median else 0.0
            spreads[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                             "bound": bounds.get(name), "unit": runs[0]["metrics"][name]["unit"]}
            bound = bounds.get(name)
            flag = "" if bound is None else f" bound {bound} ({spread / bound:.2f} of it)"
            print(f"{workload:15s} {name:45s} median {median:.6g} spread {spread:.4f}{flag}")
        report["workloads"][workload] = {"runs": runs, "spreads": spreads}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
