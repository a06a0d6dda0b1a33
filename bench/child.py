"""The measured process: one fresh interpreter per timed repetition.

It imports `dup` from the checkout's `src`, builds the run's gateway with
`dup.runner.build_run_gateway`, runs `run_experiment` (or `recount`) on the
generated files, checks every output against the generator's expected
report, and prints one JSON object. Its only argument is a JSON object of
settings, so that no argument parser is imported before set-up is timed.

`setup_s` runs from the parent's clock reading just before this process was
started to the first call into `run_experiment`: interpreter start,
`import dup` and gateway construction. Everything the benchmark itself
adds (its own modules, the expected report, the latency wrapper) comes
after that reading. Every timed region is wall time; the host's CPU steal
during it is reported beside it as a diagnostic.
"""

from __future__ import annotations

import json
import os
import sys
import time
from decimal import Decimal
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(Path.cwd() / "src"), str(BENCH_DIR)]

import dup.reporting  # noqa: E402
import dup.runner  # noqa: E402
from dup.prompts import MethodVariant  # noqa: E402

WORKERS = 2  # closed-loop callers; matches the 2 cores the baseline ran on
RECOUNT_MIN_S = 0.3


def _config(args: dict) -> dup.runner.RunConfig:
    sc = args["mode"] == "latency"
    return dup.runner.RunConfig(
        dataset=args["dataset_name"],
        method=MethodVariant.DUP,
        n_samples=5 if sc else 1,
        temperature=0.7 if sc else 0.0,
        dataset_path=args["dataset"],
        answer_type="number",
        backend="mock",
        mock_script=args["script"],
        cache_dir=args["cache"] or None,
        out_dir=args["out"],
        workers=WORKERS,
    )


def _files(directory: Path) -> tuple[int, int]:
    count = size = 0
    with os.scandir(directory) as entries:
        for entry in entries:
            if entry.is_file():
                count += 1
                size += entry.stat().st_size
    return count, size


def check(report, expected, out_dir: Path) -> tuple[set[str], list[str]]:
    """Problem ids whose outputs differ from the expected report, and run-level errors."""
    errors = []
    if report.total != expected["total"]:
        errors.append(f"total {report.total} != {expected['total']}")
    if report.correct != expected["correct"]:
        errors.append(f"correct {report.correct} != {expected['correct']}")
    if report.usage.get("calls") != expected["calls"]:
        errors.append(f"calls {report.usage.get('calls')} != {expected['calls']}")
    want = expected["per_problem"]
    failed = set(want)
    for row in report.per_problem:
        pid = row["problem_id"]
        exp = want.get(pid)
        if exp is None:
            errors.append(f"unexpected problem {pid}")
            continue
        predicted = row["predicted"]
        same_answer = (predicted is None) == (exp["predicted"] is None) and (
            predicted is None or Decimal(predicted["value"]) == Decimal(exp["predicted"])
        )
        if (
            same_answer
            and row["correct"] == exp["correct"]
            and row["extraction_source"] == exp["extraction_source"]
            and not row["errors"]
        ):
            failed.discard(pid)
    transcripts = {p.name for p in (out_dir / "transcripts").iterdir()}
    missing = {pid for pid in want if f"{pid}.json" not in transcripts}
    if len(transcripts) != len(want):
        errors.append(f"{len(transcripts)} transcript files for {len(want)} problems")
    return failed | missing, errors


def _steal_s() -> float:
    """Host CPU steal so far, summed over this machine's CPUs (0 where not reported)."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
    except OSError:
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


class Clock:
    """Wall time of a region, and the host's CPU steal during it as a share
    of that time per CPU; the parent discards repetitions with too much."""

    def __enter__(self):
        self._steal = _steal_s()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall = time.perf_counter() - self._start
        self.steal_share = (_steal_s() - self._steal) / (os.cpu_count() or 1) / self.wall
        return False


def _same_report(a, b) -> bool:
    return (a.total, a.correct, a.per_problem) == (b.total, b.correct, b.per_problem)


def recount(out_dir: Path) -> dict:
    """Time `recount` on a finished run; it must reproduce that run's report.

    A recount of a small run takes milliseconds, so it is repeated until
    RECOUNT_MIN_S has passed and the median repetition is reported.
    """
    import statistics

    run_report = dup.reporting.load_report(out_dir)
    walls: list[float] = []
    with Clock() as clock:
        while len(walls) < 3 or sum(walls) < RECOUNT_MIN_S:
            start = time.perf_counter()
            recounted = dup.reporting.recount(out_dir)
            walls.append(time.perf_counter() - start)
    errors = [] if _same_report(recounted, run_report) else ["recount disagrees with the run"]
    return {
        "recount_problems_per_s": recounted.total / statistics.median(walls),
        "steal_share": clock.steal_share,
        "errors": errors,
    }


def run(args: dict) -> dict:
    config = _config(args)
    gateway = dup.runner.build_run_gateway(config)
    setup_s = time.monotonic() - args["t0"]
    out_dir = Path(args["out"])
    if args["mode"] == "setup":
        return {"setup_s": setup_s}
    if args["mode"] == "recount":
        return {"setup_s": setup_s, **recount(out_dir)}

    import resource

    import workload as wl

    expected = json.loads(Path(args["expected"]).read_text(encoding="utf-8"))
    if args["mode"] == "latency":
        from faults import FaultPlan, FaultyBackend

        gateway.backend = FaultyBackend(
            gateway.backend, FaultPlan(args["seed"]), wl.calls_per_problem(config.n_samples)
        )
    tracer = None
    if args["trace"]:
        from tracing import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install(gateway)
    latencies: list[float] = []
    timed_problem = dup.runner.run_problem

    def run_problem(*a, **kw):
        start = time.perf_counter()
        try:
            return timed_problem(*a, **kw)
        finally:
            latencies.append(time.perf_counter() - start)

    dup.runner.run_problem = run_problem
    cpu0 = time.process_time()
    with Clock() as clock:
        if tracer:
            report = tracer.phase(
                "runner.run_experiment", dup.runner.run_experiment, config, gateway
            )
        else:
            report = dup.runner.run_experiment(config, gateway)
    cpu_s = time.process_time() - cpu0

    failed, errors = check(report, expected, out_dir)
    cached = report.usage.get("cached_calls", 0)
    if args["mode"] == "warm":
        if gateway.backend.calls != 0 or cached != report.usage.get("calls"):
            errors.append(f"warm run sent {gateway.backend.calls} backend calls, {cached} cached")
    elif cached != 0:
        errors.append(f"{cached} cached calls on a run without a warm cache")
    result = {
        "setup_s": setup_s,
        "problems": expected["total"],
        "failed": sorted(failed),
        "errors": errors,
        "problems_per_s": report.total / clock.wall,
        "calls_per_s": report.usage.get("calls", 0) / clock.wall,
        "steal_share": clock.steal_share,
        "latencies_ms": [t * 1000 for t in latencies],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cpu_s": cpu_s,
    }
    if tracer is not None:
        recounted = tracer.phase("reporting.recount", dup.reporting.recount, out_dir)
        if not _same_report(recounted, report):
            errors.append("recount disagrees with the run")
        layers = layer_metrics(tracer, expected["total"], WORKERS)
        files, size = _files(Path(args["cache"])) if args["cache"] else (0, 0)
        layers["gateway.cache_files"] = files
        layers["gateway.cache_bytes_per_entry"] = size / files if files else 0.0
        files, size = _files(out_dir / "transcripts")
        layers["runner.persist_bytes_per_problem"] = size / expected["total"]
        result["layers"] = layers
        tracer.write(Path(args["spans"]))
    return result


def main() -> int:
    args = json.loads(sys.argv[1])
    try:
        result = run(args)
    except Exception:  # a run that aborts is reported, not raised: every problem failed
        import traceback

        result = {"aborted": traceback.format_exc()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
