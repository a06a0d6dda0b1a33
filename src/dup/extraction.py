"""Final-answer extraction: an LLM pass first, rule-based matching as fallback."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .grading import NormalizedAnswer, extract_rule_based, normalize
from .prompts import AnswerType, render_answer_extraction_prompt

STAGE_EXTRACTION = "extraction"


@dataclass(frozen=True)
class ExtractionOutcome:
    answer: NormalizedAnswer | None
    source: str  # "llm" | "rule_fallback" | "none"


def extract_answer(
    reasoning_text: str,
    answer_type: AnswerType,
    ask: Callable[[str], str],
    gold: NormalizedAnswer | None = None,
) -> ExtractionOutcome:
    """Extract the final answer from a reasoning text.

    `ask` sends the rendered extraction prompt to the model and returns its
    reply; whatever it raises propagates. Only when the reply does not
    normalize is the rule-based matcher applied to the reasoning text.
    """
    reply = ask(render_answer_extraction_prompt(reasoning_text, answer_type))
    answer = normalize(reply, answer_type, gold)
    if answer is not None:
        return ExtractionOutcome(answer, "llm")
    answer = extract_rule_based(reasoning_text, answer_type, gold)
    return ExtractionOutcome(answer, "rule_fallback" if answer is not None else "none")


def dup_s_answer_segment(response_text: str) -> str:
    """Tail of a merged-prompt response: the part after the last "3." marker.

    The merged prompt asks for three numbered parts; the answer lives in
    part 3. When the response does not use the numbering, the whole text is
    returned.
    """
    lines = response_text.splitlines()
    for i in range(len(lines) - 1, -1, -1):
        if lines[i].lstrip().startswith("3."):
            return "\n".join(lines[i:])
    return response_text
