"""Repeat bench/run.py over seeds, in two sets, and summarise each metric.

Usage, from the root of a checkout:

    python3 bench/collect.py --out bench/baseline.json

It makes two sets of ``RUNS`` untraced runs of every workload in
BENCHMARK.json, the second set after the first has run every workload, with
new seeds each run; then ``TRACED`` traced runs per workload. For each set
and end-to-end metric it records the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, which is the
quartile distance as a share of the median, and for each metric the change
of the second set's median against the first. It flags a spread above a
third of the metric's bound, a median change larger than the bound, and an
exact count that differs between traced runs, and exits 1 if anything was
flagged. The output file holds every run's result object as well.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10      # untraced runs per workload and set
SETS = 2       # sets of runs whose medians must agree within each bound
TRACED = 2     # traced runs per workload, whose exact counts must repeat
SEED0 = 11     # seed of the first run; every untraced run gets the next one
EXACT_COUNTS = ("solver.iterations", "oracle.iterations", "core.param_lookups",
                "models.rhs_calls", "pmp.hamiltonian_calls")


def run_once(command, workload, seed, seconds, trace):
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}")
    env = next((json.loads(line.split(": ", 1)[1]) for line in lines
                if line.startswith("environment: ")), None)
    return json.loads(lines[-1]), env


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = [[SEED0 + k * RUNS + i for i in range(RUNS)] for k in range(SETS)]
    report = {"runs": RUNS, "seeds": seeds, "run_seconds": spec["run_seconds"],
              "workloads": {name: {"sets": []} for name in names}}
    steady = True

    for k, set_seeds in enumerate(seeds, start=1):
        for name in names:
            untraced = []
            for seed in set_seeds:
                result, env = run_once(spec["command"], name, seed, spec["run_seconds"], 0)
                untraced.append(result)
                report.setdefault("environment", env)
                print(f"set {k} {name} seed={seed} " + " ".join(
                    f"{m}={v['value']:.4g}" for m, v in result["metrics"].items()), flush=True)
            summary = {}
            for metric, bound in bounds.items():
                s = summarise([r["metrics"][metric]["value"] for r in untraced])
                summary[metric] = s
                flag = ""
                if s["spread"] > bound / 3:
                    flag = "  <-- spread above a third of the bound"
                    steady = False
                print(f"  {metric:12s} median={s['median']:.5g} spread={s['spread']:.2%}"
                      f" bound={bound:.0%}{flag}", flush=True)
            report["workloads"][name]["sets"].append({"summary": summary, "untraced": untraced})

    for name in names:
        entry = report["workloads"][name]
        entry["median_change"] = {}
        for metric, bound in bounds.items():
            first, last = (s["summary"][metric]["median"] for s in (entry["sets"][0],
                                                                    entry["sets"][-1]))
            change = last / first - 1.0
            entry["median_change"][metric] = change
            flag = ""
            if abs(change) > bound:
                flag = "  <-- medians differ by more than the bound"
                steady = False
            print(f"{name} {metric:12s} set 1 {first:.5g} set {SETS} {last:.5g} "
                  f"change {change:+.2%} bound={bound:.0%}{flag}", flush=True)
        entry["traced"] = [run_once(spec["command"], name, SEED0 + i, spec["run_seconds"], 1)[0]
                           for i in range(TRACED)]
        for metric in EXACT_COUNTS:
            values = {r["metrics"][metric]["value"] for r in entry["traced"]}
            if len(values) > 1:
                print(f"  {metric} differs between traced runs: {sorted(values)}")
                steady = False

    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
