"""Command line interface: run, resume, compare, analyze-errors, recount."""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from contextlib import closing
from pathlib import Path

from .error_analysis import sample_and_analyze
from .exceptions import DupError, InvalidInputError
from .prompts import MethodVariant
from .reporting import compare_report_sets, load_report, recount
from .runner import (
    MAX_SAMPLE_THREADS,
    RunConfig,
    StageConfig,
    build_run_gateway,
    load_run,
    run_experiment,
    stored_config,
)
from .store import encode, write

log = logging.getLogger(__name__)

DEFAULT_BASE_URL = "https://api.openai.com/v1"
ERROR_ANALYSIS_JSON = "error_analysis.json"


def _add_backend_args(parser: argparse.ArgumentParser, required_backend: bool = False) -> None:
    parser.add_argument(
        "--backend",
        choices=("http", "mock"),
        default="http" if required_backend else None,
        help="provider transport (mock replays a scripted response file)",
    )
    parser.add_argument("--base-url", default=None, help="HTTP API root, e.g. https://host/v1")
    parser.add_argument("--mock-script", default=None, help="JSON response script for --backend mock")
    parser.add_argument("--cache-dir", default=None, help="response cache directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dup",
        description="Three-stage prompting pipeline runner for reasoning benchmarks.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a method over a dataset and write a report")
    run.add_argument("--dataset", required=True, help="dataset identifier, e.g. gsm8k")
    run.add_argument("--manifest", default=None, help="manifest JSON mapping datasets to files")
    run.add_argument("--dataset-path", default=None, help="dataset file (overrides manifest)")
    run.add_argument(
        "--answer-type",
        choices=("number", "option", "yes_no", "string"),
        default=None,
        help="answer kind for datasets the loader does not already know",
    )
    run.add_argument("--method", choices=("cot", "dup", "dup-s"), default="dup")
    run.add_argument(
        "--stages",
        default="1,2,3",
        help='enabled pipeline stages, e.g. "1,3" or "none" (ablation)',
    )
    run.add_argument("--model", default="gpt-3.5-turbo")
    run.add_argument(
        "--extractor-model",
        default=None,
        help="different model for the two understanding stages",
    )
    run.add_argument("--temperature", type=float, default=None)
    run.add_argument(
        "--self-consistency",
        type=int,
        default=1,
        metavar="N",
        dest="n_samples",
        help="sample N answers and keep the most common one",
    )
    run.add_argument("--max-problems", type=int, default=None)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--out-dir", required=True)
    run.add_argument(
        "--concurrency",
        type=int,
        default=4,
        help=(
            f"request budget: concurrency x min(N, {MAX_SAMPLE_THREADS}) requests in flight at "
            "most, N being --self-consistency; a free unit goes to the oldest problem under way "
            "that waits, and a problem starts only when none waits, so more than concurrency "
            "problems may be under way"
        ),
    )
    run.add_argument("--max-tokens", type=int, default=1024)
    run.add_argument("--system-message", default=None)
    run.add_argument(
        "--full-pipeline-last-letters",
        action="store_true",
        help="keep all three stages on the last-letters dataset",
    )
    _add_backend_args(run, required_backend=True)
    run.set_defaults(func=cmd_run)

    resume = sub.add_parser("resume", help="finish an interrupted run from its out dir")
    resume.add_argument("--out-dir", required=True)
    resume.set_defaults(func=cmd_resume)

    compare = sub.add_parser("compare", help="accuracy deltas between two report sets")
    compare.add_argument(
        "--baseline", nargs="+", required=True, help="baseline report.json files or run dirs"
    )
    compare.add_argument(
        "--candidate", nargs="+", required=True, help="candidate report.json files or run dirs"
    )
    compare.add_argument("--json", action="store_true", help="machine readable output")
    compare.set_defaults(func=cmd_compare)

    analyze = sub.add_parser(
        "analyze-errors", help="classify a sample of failures from a finished run"
    )
    analyze.add_argument("--out-dir", required=True)
    analyze.add_argument("--sample-size", type=int, default=300)
    analyze.add_argument("--judge-model", default="gpt-4")
    analyze.add_argument("--seed", type=int, default=0)
    _add_backend_args(analyze)
    analyze.set_defaults(func=cmd_analyze_errors)

    recount_p = sub.add_parser(
        "recount", help="regrade a finished run from its transcripts, no model calls"
    )
    recount_p.add_argument("--out-dir", required=True)
    recount_p.set_defaults(func=cmd_recount)

    return parser


def _absolute(path: str | None) -> str | None:
    return None if path is None else os.path.abspath(path)


def _config_from_args(args) -> RunConfig:
    """The run configuration the flags describe.

    File and directory paths are stored absolute, so resume, recount and
    analyze-errors work from any working directory.
    """
    temperature = args.temperature
    if temperature is None:
        temperature = 0.7 if args.n_samples > 1 else 0.0
    return RunConfig(
        dataset=args.dataset,
        method=MethodVariant(args.method),
        stages=StageConfig.from_string(args.stages),
        model=args.model,
        extractor_model=args.extractor_model,
        temperature=temperature,
        n_samples=args.n_samples,
        max_problems=args.max_problems,
        seed=args.seed,
        cache_dir=_absolute(args.cache_dir),
        out_dir=_absolute(args.out_dir),
        dataset_path=_absolute(args.dataset_path),
        manifest=_absolute(args.manifest),
        answer_type=args.answer_type,
        max_tokens=args.max_tokens,
        system_message=args.system_message,
        workers=args.concurrency,
        last_letter_simplified=False if args.full_pipeline_last_letters else None,
        backend=args.backend,
        base_url=args.base_url or (DEFAULT_BASE_URL if args.backend == "http" else None),
        mock_script=_absolute(args.mock_script),
    )


def _run(config: RunConfig) -> int:
    config.validate()  # before the gateway is built
    with closing(build_run_gateway(config)) as gateway:
        report = run_experiment(config, gateway)
    print(report.to_table(), end="")
    print(f"report written to {Path(config.out_dir) / 'report.json'}")
    return 0


def cmd_run(args) -> int:
    return _run(_config_from_args(args))


def cmd_resume(args) -> int:
    config = stored_config(args.out_dir)
    if _absolute(config.out_dir) != _absolute(args.out_dir):
        config.out_dir = _absolute(args.out_dir)  # the run directory was moved
    return _run(config)


def cmd_compare(args) -> int:
    baselines = [load_report(path) for path in args.baseline]
    candidates = [load_report(path) for path in args.candidate]
    table = compare_report_sets(baselines, candidates)
    if args.json:
        print(json.dumps(encode(table), sort_keys=True, indent=2))
    else:
        print(table.to_table(), end="")
    return 0


def cmd_analyze_errors(args) -> int:
    for flag, value in (("--base-url", args.base_url), ("--mock-script", args.mock_script)):
        if value and not args.backend:
            raise InvalidInputError(f"{flag} takes effect only with --backend")
    config, problems, stored = load_run(args.out_dir)
    if args.backend:
        config.backend = args.backend
        config.base_url = args.base_url or (DEFAULT_BASE_URL if args.backend == "http" else None)
        config.mock_script = args.mock_script
    if args.cache_dir:
        config.cache_dir = args.cache_dir
    sample_size = args.sample_size
    if sample_size > len(problems):
        log.info(
            "sample size %d exceeds run size %d; using every problem",
            sample_size,
            len(problems),
        )
        sample_size = len(problems)
    with closing(build_run_gateway(config)) as gateway:
        report = sample_and_analyze(
            problems,
            stored,
            sample_size,
            args.seed,
            gateway,
            args.judge_model,
            method=config.method.value,
            max_tokens=config.max_tokens,
        )
    out_path = Path(args.out_dir) / ERROR_ANALYSIS_JSON
    write(out_path, report)
    print(report.to_table(), end="")
    print(f"analysis written to {out_path}")
    return 0


def cmd_recount(args) -> int:
    report = recount(args.out_dir)
    print(report.to_table(), end="")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except DupError as exc:
        log.error("%s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
