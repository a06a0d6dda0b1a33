"""Failure classification into the three-way error taxonomy via an LLM judge.

Categories: semantic misunderstanding, calculation error, step-missing
error. A fourth UNCLASSIFIED bucket absorbs evasive judge replies; it is
reported separately and never folded into the three.
"""

from __future__ import annotations

import logging
import random
import re
from dataclasses import dataclass, field
from enum import Enum

from .exceptions import GatewayError, InvalidInputError
from .gateway import ChatRequest, Gateway, build_messages
from .prompts import render_error_analysis_prompt

log = logging.getLogger(__name__)

__all__ = [
    "ErrorCategory",
    "ErrorReport",
    "classify_failure",
    "parse_category",
    "sample_and_analyze",
]

STAGE_JUDGE = "error_judge"


class ErrorCategory(str, Enum):
    SEMANTIC_MISUNDERSTANDING = "semantic_misunderstanding"
    CALCULATION_ERROR = "calculation_error"
    STEP_MISSING = "step_missing"
    UNCLASSIFIED = "unclassified"


# Category names and their ordinal forms as the judge prompt numbers them.
_CATEGORY_PATTERNS: tuple[tuple[ErrorCategory, re.Pattern], ...] = (
    (
        ErrorCategory.SEMANTIC_MISUNDERSTANDING,
        re.compile(r"semantic\s+misunderstanding|1\.\s*semantic", re.IGNORECASE),
    ),
    (
        ErrorCategory.CALCULATION_ERROR,
        re.compile(r"calculation\s+error|2\.\s*calculation", re.IGNORECASE),
    ),
    (
        ErrorCategory.STEP_MISSING,
        re.compile(r"step[-\s]missing|3\.\s*step", re.IGNORECASE),
    ),
)


def parse_category(judge_text: str) -> ErrorCategory:
    """Map a free-text judge reply onto a category; earliest mention wins.

    Never raises; anything unrecognizable is UNCLASSIFIED.
    """
    if not judge_text:
        return ErrorCategory.UNCLASSIFIED
    earliest: tuple[int, ErrorCategory] | None = None
    for category, pattern in _CATEGORY_PATTERNS:
        match = pattern.search(judge_text)
        if match and (earliest is None or match.start() < earliest[0]):
            earliest = (match.start(), category)
    return earliest[1] if earliest else ErrorCategory.UNCLASSIFIED


def classify_failure(
    problem,
    wrong_response: str,
    correct_answer: str,
    gateway: Gateway,
    judge_model: str,
    max_tokens: int = 1024,
) -> tuple[ErrorCategory, str]:
    """Ask the judge model which error type a wrong response exhibits.

    Returns (category, full judge reply); the reply is kept so transcripts
    preserve the judge's explanation. Gateway failures yield UNCLASSIFIED
    with the cause as the reply text.
    """
    prompt = render_error_analysis_prompt(problem.question, wrong_response, correct_answer)
    request = ChatRequest(
        model=judge_model,
        messages=build_messages(prompt),
        temperature=0.0,
        max_tokens=max_tokens,
        tag=f"{STAGE_JUDGE}:{problem.id}",
    )
    try:
        response = gateway.complete_cached(request)
    except GatewayError as exc:
        log.warning("judge call failed for %s: %s", problem.id, exc)
        return ErrorCategory.UNCLASSIFIED, f"[gateway error: {exc}]"
    return parse_category(response.content), response.content


@dataclass
class ErrorReport:
    """Aggregated error counts over a sampled subset of one run."""

    dataset: str
    method: str
    counts: dict[ErrorCategory, int] = field(
        default_factory=lambda: {category: 0 for category in ErrorCategory}
    )
    total_failures: int = 0
    sample_size: int = 0
    details: list[dict] = field(default_factory=list)

    def validate(self) -> None:
        if sum(self.counts.values()) != self.total_failures:
            raise InvalidInputError("category counts must sum to total_failures")
        if self.total_failures > self.sample_size:
            raise InvalidInputError("total_failures cannot exceed sample_size")

    def to_table(self) -> str:
        """Aligned text table: one row per category plus totals."""
        labels = {
            ErrorCategory.SEMANTIC_MISUNDERSTANDING: "Semantic Misunderstanding (SM)",
            ErrorCategory.CALCULATION_ERROR: "Calculation Error (CE)",
            ErrorCategory.STEP_MISSING: "Step-missing Error (SE)",
            ErrorCategory.UNCLASSIFIED: "Unclassified",
        }
        width = max(len(label) for label in labels.values())
        lines = [f"Error analysis: dataset={self.dataset} method={self.method}"]
        lines.append(f"{'Category'.ljust(width)}  Count")
        for category in ErrorCategory:
            lines.append(f"{labels[category].ljust(width)}  {self.counts[category]:5d}")
        lines.append(f"{'Total failures'.ljust(width)}  {self.total_failures:5d}")
        lines.append(f"{'Sample size'.ljust(width)}  {self.sample_size:5d}")
        return "\n".join(lines)


def sample_and_analyze(
    problems,
    transcripts: dict,
    k: int,
    seed: int,
    gateway: Gateway,
    judge_model: str,
    method: str = "",
    max_tokens: int = 1024,
) -> ErrorReport:
    """Draw a seeded sample of k problems and classify each failed one.

    `transcripts` maps problem ids to their run transcripts. Problems
    without a transcript, or graded correct, contribute to sample_size but
    not to the failures.
    """
    if k > len(problems):
        raise InvalidInputError(f"cannot sample {k} of {len(problems)} problems")
    ordered = list(problems)
    random.Random(seed).shuffle(ordered)
    sampled = ordered[:k]

    dataset = sampled[0].dataset if sampled else (problems[0].dataset if problems else "")
    report = ErrorReport(dataset=dataset, method=method, sample_size=len(sampled))
    for problem in sampled:
        transcript = transcripts.get(problem.id)
        if transcript is None or transcript.graded is None or transcript.graded.correct:
            continue
        wrong = transcript.answer_text or "(no response)"
        category, reply = classify_failure(
            problem, wrong, problem.gold_raw, gateway, judge_model, max_tokens
        )
        report.counts[category] += 1
        report.total_failures += 1
        report.details.append(
            {"problem_id": problem.id, "category": category.value, "judge_reply": reply}
        )
    report.validate()
    return report
