"""Benchmark of the `dup` harness: one command, three workloads.

    python3 bench/run.py --workload offline-cold --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The script generates the workload's
inputs from the seed, then starts one fresh interpreter (`bench/child.py`)
per timed repetition until `--seconds` of measurement have passed, times
`recount` of the first finished repetition in one further fresh interpreter,
checks every repetition's outputs against the generator's expected report,
and prints a table followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
repetitions alternate between untraced and traced, and the metrics are the
per-layer ones of the traced repetitions, plus the tracing overhead.

Workloads (all run DUP with two closed-loop workers):

* offline-cold: mock backend, no latency, an empty cache directory, so
  the harness overhead (dataset parse, prompt render, cache-key hashing,
  cache writes, extraction, grading, transcript writes, report) is all the
  time there is;
* offline-warm: the same inputs read back from a cache filled by an
  untimed cold run, so the cache and persistence layers are measured on
  reads;
* latency-sc: self-consistency with 5 samples (12 sequential calls per
  problem), no cache, behind a backend that adds seeded latency and a few
  retryable faults, so time is set by the calls' critical path.

Generated files, run and cache directories live under `.bench_work/` in the
checkout and are removed when the run ends; a traced run leaves the spans
of its last traced repetition in `.bench_work/spans/`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import workload as wl  # noqa: E402

# Problems per timed repetition: a few seconds of work offline. On latency-sc
# one repetition of about 27 s fills a run; it spreads about 3.5 injected
# faults over its 864 sends, so that the time lost to retry backoff (0.5-1 s
# a fault) hardly changes between seeds.
WORKLOADS = {
    "offline-cold": {"mode": "cold", "problems": 1000, "samples": 1},
    "offline-warm": {"mode": "warm", "problems": 1000, "samples": 1},
    "latency-sc": {"mode": "latency", "problems": 72, "samples": 5},
}
SETUP_PROBES = 12  # extra processes that only set up, so setup_s is a median
CHILD_TIMEOUT_S = 120
# On a shared virtual machine other tenants' load preempts this machine's
# CPUs (host CPU steal) for periods of half a minute and more, and slows
# the offline workloads by up to half. A repetition that lost more than
# STEAL_MAX of its wall time per CPU to steal is discarded and another one
# is run, until `--seconds` of kept repetitions have passed, or
# MAX_MEASURE_SHARE x `--seconds` of measurement with at least one kept.
# If none was kept after NOTHING_KEPT_SHARE x `--seconds`, the half with
# the least steal is used.
STEAL_MAX = 0.03
MAX_MEASURE_SHARE = 1.5
NOTHING_KEPT_SHARE = 2.5

END_TO_END_UNITS = {
    "problems_per_s": "1/s",
    "calls_per_s": "1/s",
    "problem_latency_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "datasets.load_s": "s",
    "prompts.render_s": "s",
    "prompts.renders": "count",
    "gateway.calls": "count",
    "gateway.cache_key_s": "s",
    "gateway.cache_s": "s",
    "gateway.cache_hit_ratio": "ratio",
    "gateway.cache_files": "count",
    "gateway.cache_bytes_per_entry": "bytes",
    "gateway.backend_sends": "count",
    "gateway.retries": "count",
    "gateway.send_s": "s",
    "gateway.wait_s": "s",
    "extraction.self_s": "s",
    "extraction.source_llm": "count",
    "extraction.source_rule_fallback": "count",
    "extraction.source_none": "count",
    "grading.s": "s",
    "grading.calls": "count",
    "consistency.aggregate_s": "s",
    "runner.self_s": "s",
    "runner.persist_s": "s",
    "runner.persist_bytes_per_problem": "bytes",
    "runner.load_transcript_s": "s",
    "runner.calls_per_problem": "count",
    "runner.critical_path_calls": "count",
    "runner.median_send_ms": "ms",
    "runner.bound_problems_per_s": "1/s",
    "runner.bound_gap": "ratio",
    "reporting.build_s": "s",
    "reporting.write_s": "s",
    "reporting.recount_s": "s",
    "process.cpu_s": "s",
    "trace.overhead_share": "ratio",
}


def _spawn(settings: dict) -> dict:
    """Run one measured process; its last stdout line is its result."""
    settings = {**settings, "t0": time.monotonic()}
    command = [sys.executable, str(BENCH_DIR / "child.py"), json.dumps(settings)]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"measured process failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def _flush(directory: Path) -> None:
    """Write a directory's files to disk now, so their writeback (due about 30 s
    after they were written) does not land inside a timed repetition."""
    for entry in os.scandir(directory):
        fd = os.open(entry.path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def _kept(results: list[dict]) -> list[dict]:
    return [r for r in results if r["steal_share"] <= STEAL_MAX]


def _least_steal(results: list[dict]) -> list[dict]:
    ordered = sorted(results, key=lambda r: r["steal_share"])
    return ordered[: (len(ordered) + 1) // 2]


class Run:
    def __init__(self, name: str, seed: int, seconds: int, trace: bool, root: Path):
        self.spec = WORKLOADS[name]
        self.name, self.seed, self.seconds, self.trace = name, seed, seconds, trace
        self.work = root / ".bench_work" / f"{name}-seed{seed}"
        self.spans = root / ".bench_work" / "spans" / f"{name}-seed{seed}.jsonl"
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []
        self.recount: dict | None = None  # the one recount process's result
        self.discarded = 0

    def child(self, tag: str, mode: str, cache: str = "", trace: bool = False,
              fresh: bool = True) -> dict:
        out = self.work / f"out-{tag}"
        if fresh:
            shutil.rmtree(out, ignore_errors=True)
        return _spawn({
            "mode": mode,
            "dataset_name": wl.DATASET_NAME,
            "dataset": str(self.work / wl.DATASET_FILE),
            "script": str(self.work / wl.SCRIPT_FILE),
            "expected": str(self.work / wl.EXPECTED_FILE),
            "cache": cache,
            "out": str(out),
            "seed": self.seed,
            "trace": trace,
            "spans": str(self.spans),
        })

    def record(self, result: dict) -> None:
        """Count a repetition's problems as attempted and its mismatches as failed."""
        total = self.spec["problems"]
        self.attempted += total
        if "aborted" in result:
            self.failed += total
            self.mismatches.append(result["aborted"].strip().splitlines()[-1])
        elif result["errors"]:
            self.failed += total
            self.mismatches.extend(result["errors"])
        else:
            self.failed += len(result["failed"])
            self.mismatches.extend(result["failed"][:5])

    def repetitions(self) -> tuple[list[dict], list[dict], list[float]]:
        """Untraced and traced results, and every setup time seen."""
        mode = self.spec["mode"]
        setups = [self.child("unused", "setup")["setup_s"] for _ in range(SETUP_PROBES)]
        cache = ""
        if mode == "warm":
            cache = str(self.work / "cache")
            self.record(self.child("fill", "cold", cache))
            shutil.rmtree(self.work / "out-fill")
            _flush(Path(cache))
        plain, traced = [], []
        start = time.monotonic()
        kept_s = 0.0
        rep = 0
        while rep < 1 + self.trace or not self.done(time.monotonic() - start, kept_s, plain, traced):
            with_trace = self.trace and rep % 2 == 1
            if mode == "cold":
                cache = str(self.work / "cache")
                shutil.rmtree(cache, ignore_errors=True)
            began = time.monotonic()
            result = self.child(str(rep), mode, cache, with_trace)
            if "aborted" not in result and result["steal_share"] <= STEAL_MAX:
                kept_s += time.monotonic() - began
            if not with_trace and "aborted" not in result and self.recount is None:
                self.recount = self.child(str(rep), "recount", fresh=False)
                result["errors"] += self.recount.get("errors", [self.recount.get("aborted")])
                if "aborted" not in self.recount:
                    setups.append(self.recount["setup_s"])
            self.record(result)
            if "aborted" not in result:
                (traced if with_trace else plain).append(result)
                setups.append(result["setup_s"])
            shutil.rmtree(self.work / f"out-{rep}", ignore_errors=True)
            rep += 1
        self.discarded = len(plain) + len(traced)
        plain, traced = _kept(plain) or _least_steal(plain), _kept(traced) or _least_steal(traced)
        self.discarded -= len(plain) + len(traced)
        return plain, traced, setups

    def done(self, elapsed: float, kept_s: float, plain: list, traced: list) -> bool:
        if _kept(plain) and (_kept(traced) or not self.trace):
            return kept_s >= self.seconds or elapsed >= MAX_MEASURE_SHARE * self.seconds
        return elapsed >= NOTHING_KEPT_SHARE * self.seconds

    def execute(self) -> dict:
        shutil.rmtree(self.work, ignore_errors=True)
        if self.trace:
            self.spans.parent.mkdir(parents=True, exist_ok=True)
        try:
            wl.generate(self.work, self.seed, self.spec["problems"], self.spec["samples"])
            plain, traced, setups = self.repetitions()
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
        units = PER_LAYER_UNITS if self.trace else END_TO_END_UNITS
        if not plain or (self.trace and not traced):  # every repetition aborted
            metrics = dict.fromkeys(units, 0.0)
        elif self.trace:
            metrics = self.layer_metrics(plain, traced)
        else:
            metrics = self.end_to_end(plain, setups)
        metrics = {key: metrics[key] for key in units}
        table = [f"{self.name} seed={self.seed}: {len(plain)} untraced, {len(traced)} traced runs"]
        for key, value in metrics.items():
            table.append(f"  {key:<34} {value:>14.6g} {units[key]}")
        if plain:
            # Printed, not gated: their spread between runs exceeds any bound
            # BENCHMARK.json may set, on offline-cold for the tail (file-system
            # stalls) and on latency-sc for recount (a 72-problem recount).
            # The tail is the highest percentile with ten problems above it,
            # over the problem times of every kept repetition.
            latencies = sorted(t for r in plain for t in r["latencies_ms"])
            if len(latencies) > 10:
                table.append(
                    f"  {'problem_latency_tail_ms':<34} {latencies[-11]:>14.6g} ms"
                    f" (p{100 * (len(latencies) - 10) / len(latencies):.3f}"
                    f" of {len(latencies)} problem times)"
                )
            if self.recount and "aborted" not in self.recount:
                value = self.recount["recount_problems_per_s"]
                table.append(f"  {'recount_problems_per_s':<34} {value:>14.6g} 1/s")
            table.append(
                f"  host CPU steal: median {statistics.median(r['steal_share'] for r in plain):.1%}"
                f" of kept repetitions' wall time per CPU; {self.discarded} repetitions"
                f" discarded above {STEAL_MAX:.0%}"
            )
        table.append(
            f"  problems_failed_share {self.failed / max(self.attempted, 1):.6g} share"
            f" ({self.failed} of {self.attempted} problems)"
        )
        for mismatch in self.mismatches[:10]:
            table.append(f"  mismatch: {mismatch}")
        print("\n".join(table))
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }

    def end_to_end(self, plain: list[dict], setups: list[float]) -> dict:
        def median(key):
            values = [r[key] for r in plain if key in r]
            return statistics.median(values) if values else 0.0

        return {
            "problems_per_s": median("problems_per_s"),
            "calls_per_s": median("calls_per_s"),
            "problem_latency_p50_ms": statistics.median(
                t for r in plain for t in r["latencies_ms"]
            ),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": median("peak_rss_mb"),
        }

    def layer_metrics(self, plain: list[dict], traced: list[dict]) -> dict:
        names = traced[0]["layers"].keys()
        layers = {k: statistics.median(r["layers"][k] for r in traced) for k in names}
        untraced = statistics.median(r["problems_per_s"] for r in plain)
        traced_pps = statistics.median(r["problems_per_s"] for r in traced)
        bound = layers["runner.bound_problems_per_s"]
        layers["runner.bound_gap"] = untraced / bound if bound else 0.0
        layers["process.cpu_s"] = statistics.median(r["cpu_s"] for r in plain)
        layers["trace.overhead_share"] = 1 - traced_pps / untraced
        return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the dup harness on one workload.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True, help="measurement time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "dup" / "__init__.py").is_file():
        print(f"no dup source under {root / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    result = Run(args.workload, args.seed, args.seconds, bool(args.trace), root).execute()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
