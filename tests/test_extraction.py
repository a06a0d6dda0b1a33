"""Answer extraction: model-first with rule-based fallback."""

from decimal import Decimal

import pytest

from dup.exceptions import RetriesExhaustedError, TransientBackendError
from dup.extraction import dup_s_answer_segment, extract_answer
from dup.gateway import Gateway, MockBackend
from dup.grading import NormalizedAnswer
from dup.prompts import AnswerType, render_answer_extraction_prompt

REASONING = "First 3 * 6 = 18 pigs.\nThe answer is 18."


def gateway_for(reply):
    return Gateway(backend=MockBackend({"by_tag": {"extraction:p1": reply}}))


def test_llm_reply_wins():
    outcome = extract_answer(
        REASONING, AnswerType.NUMBER, gateway_for("18"), model="m", max_tokens=64, tag="extraction:p1"
    )
    assert outcome.source == "llm"
    assert outcome.answer == NormalizedAnswer.of_number(18)
    assert outcome.response.content == "18"
    assert outcome.prompt.endswith("\n" + REASONING)


def test_garbage_reply_falls_back_to_rules():
    outcome = extract_answer(
        REASONING,
        AnswerType.NUMBER,
        gateway_for("I cannot say."),
        model="m",
        max_tokens=64,
        tag="extraction:p1",
    )
    assert outcome.source == "rule_fallback"
    assert outcome.answer == NormalizedAnswer.of_number(18)


def test_nothing_extractable_is_none():
    outcome = extract_answer(
        "no digits anywhere",
        AnswerType.NUMBER,
        gateway_for("still nothing"),
        model="m",
        max_tokens=64,
        tag="extraction:p1",
    )
    assert outcome.source == "none"
    assert outcome.answer is None


def test_gold_hint_reaches_percent_rule():
    outcome = extract_answer(
        "The answer is 25%",
        AnswerType.NUMBER,
        gateway_for("25%"),
        model="m",
        max_tokens=64,
        tag="extraction:p1",
        gold=NormalizedAnswer.of_number("0.25"),
    )
    assert outcome.answer.number == Decimal("0.25")


def test_gateway_failure_propagates():
    class DownBackend:
        def send(self, request):
            raise TransientBackendError("down", status=500)

    gateway = Gateway(backend=DownBackend(), max_retries=0)
    with pytest.raises(RetriesExhaustedError) as excinfo:
        extract_answer(
            REASONING, AnswerType.NUMBER, gateway, model="m", max_tokens=64, tag="extraction:p1"
        )
    # The error carries what was sent and how long it took, for the transcript.
    assert excinfo.value.prompt == render_answer_extraction_prompt(REASONING, AnswerType.NUMBER)
    assert excinfo.value.duration_s >= 0


def test_extraction_request_is_greedy_and_tagged():
    captured = {}

    class CapturingBackend:
        def send(self, request):
            captured["request"] = request
            return MockBackend({"default": "18"}).send(request)

    extract_answer(
        REASONING,
        AnswerType.NUMBER,
        Gateway(backend=CapturingBackend()),
        model="extract-model",
        max_tokens=64,
        tag="extraction:p9#3",
    )
    request = captured["request"]
    assert request.temperature == 0.0
    assert request.sample_index == 0
    assert request.tag == "extraction:p9#3"
    assert request.model == "extract-model"


class TestDupSAnswerSegment:
    def test_takes_tail_from_last_numbered_answer_line(self):
        text = (
            "1. The core question is how many apples remain.\n"
            "2. Note: 5 rows, 9 apples each.\n"
            "3. 5 * 9 = 45. The answer is 45."
        )
        assert dup_s_answer_segment(text) == "3. 5 * 9 = 45. The answer is 45."

    def test_tail_keeps_following_lines(self):
        text = "1. a\n2. b\n3. first\nmore detail\nThe answer is 7."
        assert dup_s_answer_segment(text) == "3. first\nmore detail\nThe answer is 7."

    def test_last_marker_wins(self):
        text = "3. draft\n1. x\n3. final answer 9"
        assert dup_s_answer_segment(text) == "3. final answer 9"

    def test_without_marker_returns_everything(self):
        assert dup_s_answer_segment("plain text") == "plain text"
