"""Run reports: accuracy summaries, text tables, and run comparison."""

from __future__ import annotations

import logging
from collections import namedtuple
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

from .exceptions import DupError, RunComparisonError
from .store import decode, encode, read, write, write_text

log = logging.getLogger(__name__)

REPORT_JSON = "report.json"
REPORT_TEXT = "report.txt"


def round_accuracy(correct: int, total: int) -> float:
    """Percentage accuracy rounded half-up to one decimal place."""
    if total == 0:
        return 0.0
    value = (Decimal(correct) * 100 / Decimal(total)).quantize(
        Decimal("0.1"), rounding=ROUND_HALF_UP
    )
    return float(value)


@dataclass
class Report:
    """Aggregate outcome of one experiment run."""

    dataset: str
    method: str
    model: str
    config: dict
    total: int
    correct: int
    accuracy: float
    per_problem: list[dict]
    usage: dict
    started_at: str = ""
    finished_at: str = ""

    def to_table(self) -> str:
        lines = [
            f"dataset        {self.dataset}",
            f"method         {self.method}",
            f"model          {self.model}",
            f"problems       {self.total}",
            f"correct        {self.correct}",
            f"accuracy       {self.accuracy:.1f}",
            f"gateway calls  {self.usage.get('calls', 0)}"
            f" ({self.usage.get('cached_calls', 0)} cached)",
            f"tokens         {self.usage.get('prompt_tokens', 0)} prompt /"
            f" {self.usage.get('completion_tokens', 0)} completion",
        ]
        return "\n".join(lines) + "\n"


# What a report keeps of one finished problem: the per_problem dict, with only
# what recounting and comparison need; the counts of the calls that got a
# response, in _USAGE_KEYS order; and when the problem started and finished.
ReportRow = namedtuple("ReportRow", "per_problem usage started_at finished_at")
_USAGE_KEYS = ("calls", "cached_calls", "prompt_tokens", "completion_tokens")


def report_row(problem_id: str, transcript) -> ReportRow:
    """The row `build_report` folds for one problem, from its graded transcript."""
    graded = transcript.graded
    answered = [record for record in transcript.records if record.error is None]
    return ReportRow(
        per_problem={
            "problem_id": problem_id,
            "correct": bool(graded.correct) if graded else False,
            "predicted": encode(transcript.predicted),
            "extraction_source": graded.extraction_source if graded else "none",
            "errors": list(transcript.errors),
        },
        usage=(
            len(answered),
            sum(record.cached for record in answered),
            sum(record.prompt_tokens for record in answered),
            sum(record.completion_tokens for record in answered),
        ),
        started_at=transcript.started_at,
        finished_at=transcript.finished_at,
    )


def build_report(config, problems, rows: dict[str, ReportRow]) -> Report:
    """Fold `rows`, the `report_row` of each problem by id, into a Report, in problem order."""
    try:
        ordered = [rows[problem.id] for problem in problems]
    except KeyError as exc:
        raise DupError(f"missing transcript for problem {exc.args[0]}") from None
    correct = sum(row.per_problem["correct"] for row in ordered)
    total = len(problems)
    return Report(
        dataset=config.dataset,
        method=encode(config.method),
        model=config.model,
        config=encode(config),
        total=total,
        correct=correct,
        accuracy=round_accuracy(correct, total),
        per_problem=[row.per_problem for row in ordered],
        usage={key: sum(row.usage[i] for row in ordered) for i, key in enumerate(_USAGE_KEYS)},
        started_at=min((row.started_at for row in ordered if row.started_at), default=""),
        finished_at=max((row.finished_at for row in ordered if row.finished_at), default=""),
    )


def write_report(report: Report, out_dir: str | Path) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / REPORT_JSON
    write(path, report)
    write_text(out_dir / REPORT_TEXT, report.to_table())
    return path


def load_report(path: str | Path) -> Report:
    path = Path(path)
    if path.is_dir():
        path = path / REPORT_JSON
    try:
        return decode(Report, read(path))
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise DupError(f"cannot read report at {path}: {exc}") from exc


def recount(out_dir: str | Path) -> Report:
    """Regrade a finished run purely from its persisted transcripts.

    Useful after grading fixes: no gateway traffic, just a fresh report
    from what is on disk.
    """
    from .grading import GradedResult, grade
    from .runner import load_run

    config, problems, transcripts = load_run(out_dir)
    rows = {}
    for problem in problems:
        transcript = transcripts.get(problem.id)
        if transcript is None:
            raise DupError(f"recount needs a completed transcript for {problem.id}")
        predicted = transcript.predicted
        source = transcript.graded.extraction_source if transcript.graded else "none"
        transcript.graded = GradedResult(
            problem_id=problem.id,
            predicted=predicted,
            correct=predicted is not None and grade(predicted, problem.gold),
            extraction_source=source if predicted is not None else "none",
        )
        rows[problem.id] = report_row(problem.id, transcript)
    report = build_report(config, problems, rows)
    write_report(report, out_dir)
    return report


@dataclass(frozen=True)
class DeltaRow:
    dataset: str
    baseline_accuracy: float
    candidate_accuracy: float
    delta: float


@dataclass
class DeltaTable:
    rows: list[DeltaRow] = field(default_factory=list)
    average_delta: float = 0.0

    def to_table(self) -> str:
        header = f"{'dataset':<16} {'baseline':>9} {'candidate':>9} {'delta':>7}"
        lines = [header, "-" * len(header)]
        for row in self.rows:
            lines.append(
                f"{row.dataset:<16} {row.baseline_accuracy:>9.1f}"
                f" {row.candidate_accuracy:>9.1f} {row.delta:>+7.1f}"
            )
        lines.append(f"{'average delta':<16} {'':>9} {'':>9} {self.average_delta:>+7.1f}")
        return "\n".join(lines) + "\n"


def _one_decimal(value: Decimal) -> float:
    return float(value.quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))


def compare_runs(baseline: Report, candidate: Report) -> DeltaRow:
    """Accuracy delta (candidate minus baseline) for one matched pair.

    Both runs must cover the same dataset and the same problem ids,
    otherwise the numbers are not comparable.
    """
    if baseline.dataset != candidate.dataset:
        raise RunComparisonError(
            f"dataset mismatch: baseline ran {baseline.dataset!r},"
            f" candidate ran {candidate.dataset!r}"
        )
    base_ids = {row["problem_id"] for row in baseline.per_problem}
    cand_ids = {row["problem_id"] for row in candidate.per_problem}
    if base_ids != cand_ids:
        only_base = sorted(base_ids - cand_ids)
        only_cand = sorted(cand_ids - base_ids)
        raise RunComparisonError(
            "problem sets differ; only in baseline: "
            f"{only_base or 'none'}; only in candidate: {only_cand or 'none'}"
        )
    delta = _one_decimal(Decimal(str(candidate.accuracy)) - Decimal(str(baseline.accuracy)))
    return DeltaRow(
        dataset=baseline.dataset,
        baseline_accuracy=baseline.accuracy,
        candidate_accuracy=candidate.accuracy,
        delta=delta,
    )


def compare_report_sets(baselines: list[Report], candidates: list[Report]) -> DeltaTable:
    """Pair reports by dataset and tabulate per-dataset and average deltas."""
    by_dataset = {}
    for report in baselines:
        if report.dataset in by_dataset:
            raise RunComparisonError(f"duplicate baseline for dataset {report.dataset!r}")
        by_dataset[report.dataset] = report
    rows = []
    seen = set()
    for candidate in candidates:
        baseline = by_dataset.get(candidate.dataset)
        if baseline is None:
            raise RunComparisonError(f"no baseline run for dataset {candidate.dataset!r}")
        if candidate.dataset in seen:
            raise RunComparisonError(f"duplicate candidate for dataset {candidate.dataset!r}")
        seen.add(candidate.dataset)
        rows.append(compare_runs(baseline, candidate))
    unmatched = sorted(set(by_dataset) - seen)
    if unmatched:
        raise RunComparisonError(f"baselines without candidates: {unmatched}")
    if not rows:
        raise RunComparisonError("nothing to compare: no report pairs supplied")
    average = _one_decimal(
        sum((Decimal(str(row.delta)) for row in rows), Decimal(0)) / len(rows)
    )
    return DeltaTable(rows=rows, average_delta=average)
