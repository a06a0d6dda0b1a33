"""Final-answer extraction: an LLM pass first, rule-based matching as fallback."""

from __future__ import annotations

import time
from dataclasses import dataclass

from .exceptions import GatewayError
from .gateway import ChatRequest, ChatResponse, Gateway, build_messages
from .grading import NormalizedAnswer, extract_rule_based, normalize
from .prompts import AnswerType, render_answer_extraction_prompt

STAGE_EXTRACTION = "extraction"


@dataclass(frozen=True)
class ExtractionOutcome:
    answer: NormalizedAnswer | None
    source: str  # "llm" | "rule_fallback" | "none"
    prompt: str
    response: ChatResponse
    duration_s: float


def extract_answer(
    reasoning_text: str,
    answer_type: AnswerType,
    gateway: Gateway,
    model: str,
    max_tokens: int,
    tag: str,
    gold: NormalizedAnswer | None = None,
    system_message: str | None = None,
) -> ExtractionOutcome:
    """Extract the final answer from a reasoning text.

    The LLM extraction prompt runs first (greedy); only when its reply does
    not normalize is the rule-based matcher applied to the reasoning text.
    Gateway errors propagate to the caller, which aborts the problem; they
    carry the extraction `prompt` and the `duration_s` the call took.
    """
    prompt = render_answer_extraction_prompt(reasoning_text, answer_type)
    request = ChatRequest(
        model=model,
        messages=build_messages(prompt, system_message),
        temperature=0.0,
        max_tokens=max_tokens,
        tag=tag,
    )
    start = time.perf_counter()
    try:
        response = gateway.complete_cached(request)
    except GatewayError as exc:
        exc.prompt, exc.duration_s = prompt, time.perf_counter() - start
        raise
    duration = time.perf_counter() - start
    answer = normalize(response.content, answer_type, gold)
    source = "llm"
    if answer is None:
        answer = extract_rule_based(reasoning_text, answer_type, gold)
        source = "rule_fallback" if answer is not None else "none"
    return ExtractionOutcome(
        answer=answer,
        source=source,
        prompt=prompt,
        response=response,
        duration_s=duration,
    )


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
