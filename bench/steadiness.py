"""Run-to-run steadiness of the benchmark: one set of runs, one seed each.

    python3 bench/steadiness.py --first-seed 100 --out set1.json

Runs `bench/run.py` (untraced) RUNS times per workload, each with its
own seed, with the settings in BENCHMARK.json, and reports each end-to-end
metric's median, quartiles (`statistics.quantiles(values, n=4)`) and
spread, the interquartile distance as a share of the median, next to the
metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUNS = 10


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else float("nan"),
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", help="write the summary here as JSON")
    args = parser.parse_args(argv)
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for name in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        for seed in range(args.first_seed, args.first_seed + RUNS):
            command = [*spec["command"], "--workload", name, "--seed", str(seed),
                       "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(command, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{name} seed {seed}: outputs differ from the expected report",
                      file=sys.stderr)
                return 1
            for key, metric in result["metrics"].items():
                values.setdefault(key, []).append(metric["value"])
            print(f"{name} seed {seed} done", file=sys.stderr, flush=True)
        summary[name] = {key: summarize(v) | {"bound": bounds[key]} for key, v in values.items()}
        for key, row in summary[name].items():
            flag = "" if key == "setup_s" or row["spread"] <= row["bound"] / 3 else "  > bound/3"
            print(f"{name:14s} {key:26s} median {row['median']:12.6g}  spread {row['spread']:.4f}"
                  f"  bound {row['bound']}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
