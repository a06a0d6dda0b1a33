"""Answer extraction: model-first with rule-based fallback."""

from decimal import Decimal

import pytest

from dup.exceptions import RetriesExhaustedError
from dup.extraction import dup_s_answer_segment, extract_answer
from dup.grading import NormalizedAnswer
from dup.prompts import AnswerType, render_answer_extraction_prompt

REASONING = "First 3 * 6 = 18 pigs.\nThe answer is 18."


def replying(reply, asked=None):
    """An `ask` that records each prompt in `asked` and answers `reply`."""

    def ask(prompt):
        if asked is not None:
            asked.append(prompt)
        return reply

    return ask


def test_llm_reply_wins():
    asked = []
    outcome = extract_answer(REASONING, AnswerType.NUMBER, replying("18", asked))
    assert outcome.source == "llm"
    assert outcome.answer == NormalizedAnswer.of_number(18)
    assert asked == [render_answer_extraction_prompt(REASONING, AnswerType.NUMBER)]
    assert asked[0].endswith("\n" + REASONING)


def test_garbage_reply_falls_back_to_rules():
    outcome = extract_answer(REASONING, AnswerType.NUMBER, replying("I cannot say."))
    assert outcome.source == "rule_fallback"
    assert outcome.answer == NormalizedAnswer.of_number(18)


def test_nothing_extractable_is_none():
    outcome = extract_answer("no digits anywhere", AnswerType.NUMBER, replying("still nothing"))
    assert outcome.source == "none"
    assert outcome.answer is None


def test_gold_hint_reaches_percent_rule():
    outcome = extract_answer(
        "The answer is 25%",
        AnswerType.NUMBER,
        replying("25%"),
        gold=NormalizedAnswer.of_number("0.25"),
    )
    assert outcome.answer.value == Decimal("0.25")


def test_what_ask_raises_propagates():
    def down(prompt):
        raise RetriesExhaustedError("down", last_status=500)

    with pytest.raises(RetriesExhaustedError):
        extract_answer(REASONING, AnswerType.NUMBER, down)


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
