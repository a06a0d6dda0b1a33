"""A run killed with SIGKILL resumes to the report of an uninterrupted run.

The CLI runs in a subprocess over a generated dataset with a response cache,
self-consistency and two workers. It is killed at seeded points of a run,
and once more during `resume` itself; then `resume` finishes the run and
`recount` regrades it. Both reports must equal the uninterrupted run's.

Run as a script, the module writes the generated inputs, or checks that a
run directory's report equals another's:

    python tests/test_kill_resume.py write DIR
    python tests/test_kill_resume.py same EXPECTED_RUN_DIR RUN_DIR
"""

import json
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import dup

from conftest import cache_rows

PROBLEMS = 800
SAMPLES = 3
KILL_SEED = 18
COMPARED = ("per_problem", "correct", "accuracy")


def write_inputs(directory: Path) -> tuple[Path, Path]:
    """A dataset of sums and a mock script for it, with wrong votes and failed extractions.

    No two requests are alike, so a cache serves each request its own reply.
    """
    rng = random.Random(7)
    directory.mkdir(parents=True, exist_ok=True)
    records, tags = [], {}
    for number in range(1, PROBLEMS + 1):
        a, b = rng.randint(2, 99), rng.randint(2, 99)
        problem_id, question = f"gen-{number:05d}", f"Problem {number}: what is {a} plus {b}?"
        records.append({"question": question, "answer": f"#### {a + b}"})
        tags[f"core_question:{problem_id}"] = question
        tags[f"solving_info:{problem_id}"] = f"1. {a}\n2. {b}"
        for i in range(SAMPLES):
            value = a + b if rng.random() < 0.7 else a + b + 1
            reasoning = f"Path {i} of problem {number}: {a} + {b} = {value}."
            tags[f"answer:{problem_id}#{i}"] = f"{reasoning} The answer is {value}."
            if rng.random() < 0.02:
                continue  # no reply scripted: the extraction call fails
            tags[f"extraction:{problem_id}#{i}"] = str(value) if rng.random() < 0.9 else "unsure"
    dataset, script = directory / "problems.jsonl", directory / "script.json"
    dataset.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    script.write_text(json.dumps({"by_tag": tags}), encoding="utf-8")
    return dataset, script


def report(run_dir: Path) -> dict:
    return json.loads((run_dir / "report.json").read_text(encoding="utf-8"))


def same_outcome(expected: dict, actual: dict) -> bool:
    return all(expected[key] == actual[key] for key in COMPARED) and (
        expected["usage"]["calls"] == actual["usage"]["calls"]
    )


def _dup(*args) -> subprocess.Popen:
    env = dict(os.environ)
    src = str(Path(dup.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, "-m", "dup.cli", *map(str, args)],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
    )


def _finish(process: subprocess.Popen) -> None:
    _, err = process.communicate(timeout=120)
    assert process.returncode == 0, err.decode()


def _kill_after(process: subprocess.Popen, delay_s: float, config: Path) -> None:
    """SIGKILL `process` `delay_s` after the run's `config` file exists; it must still run then."""
    while not config.exists() and process.poll() is None:
        time.sleep(0.005)
    time.sleep(delay_s)
    running = process.poll() is None
    process.send_signal(signal.SIGKILL)
    process.communicate(timeout=60)
    assert running, f"the process ended before the kill at {delay_s:.2f} s"


def test_killed_runs_resume_to_the_uninterrupted_report(tmp_path):
    dataset, script = write_inputs(tmp_path)
    run_args = [
        "run",
        "--dataset", "gen",
        "--dataset-path", dataset,
        "--answer-type", "number",
        "--backend", "mock",
        "--mock-script", script,
        "--self-consistency", SAMPLES,
        "--concurrency", 2,
    ]
    start = time.monotonic()
    _finish(_dup(*run_args, "--out-dir", tmp_path / "full"))  # faster than any run with a cache
    run_s = time.monotonic() - start
    expected = report(tmp_path / "full")
    assert 0 < expected["correct"] < PROBLEMS
    assert any(row["errors"] for row in expected["per_problem"])

    rng = random.Random(KILL_SEED)
    # Kills land at seeded shares of the uninterrupted run's time after the
    # run directory is set up. The earliest leaves the most to resume, and
    # that resume is killed too.
    run_kills = sorted(rng.uniform(0.1, 0.9) * run_s for _ in range(3))
    for trial, kill_s in enumerate(run_kills):
        out_dir, cache_dir = tmp_path / f"killed{trial}", tmp_path / f"cache{trial}"
        config = out_dir / "config.json"
        _kill_after(_dup(*run_args, "--cache-dir", cache_dir, "--out-dir", out_dir), kill_s, config)
        assert not (out_dir / "report.json").exists()
        if trial == 0:
            _kill_after(_dup("resume", "--out-dir", out_dir), rng.uniform(0.3, 0.6) * run_s, config)
        _finish(_dup("resume", "--out-dir", out_dir))
        assert same_outcome(expected, report(out_dir))
        _finish(_dup("recount", "--out-dir", out_dir))
        assert same_outcome(expected, report(out_dir))

    # A re-run from a killed run's cache is served every row the cache holds;
    # it sends, and stores, only the calls that have none. (Rows still pending
    # at a kill are lost, also those of problems whose transcripts were written.)
    cache_dir = tmp_path / "cache0"
    stored = len(cache_rows(cache_dir))
    _finish(_dup(*run_args, "--cache-dir", cache_dir, "--out-dir", tmp_path / "again"))
    again = report(tmp_path / "again")
    assert same_outcome(expected, again)
    sent = again["usage"]["calls"] - again["usage"]["cached_calls"]
    assert len(cache_rows(cache_dir)) - stored == sent < expected["usage"]["calls"]


if __name__ == "__main__":
    command, *paths = sys.argv[1:]
    if command == "write":
        write_inputs(Path(paths[0]))
    else:
        expected, actual = (report(Path(path)) for path in paths)
        print({key: actual[key] for key in ("total", "correct", "accuracy")})
        sys.exit(not same_outcome(expected, actual))
