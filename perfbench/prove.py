#!/usr/bin/env python3
"""Stability proof: every workload over several seeds, quartile spreads.

    python3 perfbench/prove.py [--runs 10] [--sets 1] [--workload NAME ...]

Runs `BENCHMARK.json`'s command for each workload with seeds 1..runs and,
for every end-to-end metric, prints the median and the quartile spread,
(Q3 - Q1) / median with the quartiles of statistics.quantiles(values, n=4).
A spread is flagged when it is not below a third of the metric's bound. With --sets 2 the same seeds run again and the second
median is flagged when it is worse than the first by more than the bound.
The raw results go to .perfbench/prove.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_set(bench: dict, workloads: list[str], runs: int) -> dict:
    results: dict[str, dict[str, list[float]]] = {}
    for name in workloads:
        values = results.setdefault(name, {})
        for seed in range(1, runs + 1):
            argv = bench["command"] + ["--workload", name, "--seed", str(seed),
                                       "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode or not last["correct"]:
                print(f"{name} seed {seed}: INCORRECT\n{proc.stdout[-3000:]}", flush=True)
            for metric, entry in last["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{m}={e['value']:.4g}" for m, e in last["metrics"].items()), flush=True)
    return results


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]

    sets = [run_set(bench, workloads, args.runs) for _ in range(args.sets)]
    flagged = 0
    for name in workloads:
        print(f"\n{name}")
        for metric in bench["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            first = sets[0][name][key]
            s = spread(first)
            line = (f"  {key:26s} median {statistics.median(first):<12.5g} "
                    f"spread {s:.4f} (bound {bound})")
            if s >= bound / 3:
                line += "  SPREAD"
                flagged += 1
            if len(sets) == 2:
                m1, m2 = statistics.median(first), statistics.median(sets[1][name][key])
                worse = (m2 - m1) / m1 if metric["better"] == "lower" else (m1 - m2) / m1
                line += f"  second median {m2:.5g} ({worse:+.4f} worse)"
                if worse > bound:
                    line += "  DRIFT"
                    flagged += 1
            print(line)
    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    (out / "prove.json").write_text(json.dumps(sets, indent=1))
    print(f"\n{flagged} flagged")
    return 1 if flagged else 0


if __name__ == "__main__":
    raise SystemExit(main())
