"""Grading: frozen corpus agreement, tolerance arithmetic, normalization."""

import json
from decimal import Decimal

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dup.grading import (
    NUMBER_REL_TOLERANCE,
    GradedResult,
    NormalizedAnswer,
    extract_rule_based,
    grade,
    normalize,
)
from dup.prompts import AnswerType
from dup.store import decode, dumps

from conftest import DATA_DIR
from oracles import oracle_extract

CORPUS = [
    json.loads(line)
    for line in (DATA_DIR / "grading_corpus.jsonl").read_text(encoding="utf-8").splitlines()
]


def _gold_answer(case):
    if case["gold"] is None:
        return None
    return NormalizedAnswer.of_number(case["gold"])


@pytest.mark.parametrize("case", CORPUS, ids=[c["id"] for c in CORPUS])
def test_corpus_case_matches_frozen(case):
    answer_type = AnswerType(case["answer_type"])
    result = extract_rule_based(case["text"], answer_type, _gold_answer(case))
    got = None if result is None else str(result.value)
    assert got == case["expected"]


def test_corpus_oracle_still_agrees():
    """Guards against silent edits: the oracle must reproduce every frozen value."""
    for case in CORPUS:
        value = oracle_extract(case["text"], case["answer_type"], case["gold"])
        got = None if value is None else str(value)
        assert got == case["expected"], case["id"]


def test_corpus_has_fifty_cases():
    assert len(CORPUS) == 50
    assert len({case["id"] for case in CORPUS}) == 50


def test_one_third_tolerance_hand_derived():
    """gold = 1/3; tolerance bound is 1e-6 * max(1, 1/3) = 1e-6 exactly."""
    gold = NormalizedAnswer.of_number(Decimal(1) / Decimal(3))
    close = normalize("0.33333333", AnswerType.NUMBER)
    assert close is not None
    # |0.33333333 - 0.333...| ~ 3.3e-9, inside the 1e-6 bound.
    assert grade(close, gold)
    rough = normalize("0.33", AnswerType.NUMBER)
    # |0.33 - 0.333...| ~ 3.3e-3, far outside.
    assert not grade(rough, gold)
    exact = normalize("The answer is 1/3", AnswerType.NUMBER)
    assert grade(exact, gold)


def test_tolerance_scales_with_gold_magnitude():
    gold = NormalizedAnswer.of_number(1_000_000)
    assert grade(NormalizedAnswer.of_number("1000000.5"), gold)  # bound = 1.0
    assert not grade(NormalizedAnswer.of_number("1000002"), gold)
    small_gold = NormalizedAnswer.of_number("0.5")
    # |gold| < 1 keeps the absolute 1e-6 floor.
    assert not grade(NormalizedAnswer.of_number("0.50001"), small_gold)
    assert grade(NormalizedAnswer.of_number("0.5000000001"), small_gold)


def test_tolerance_boundary_is_inclusive():
    gold = NormalizedAnswer.of_number(10)
    at_bound = NormalizedAnswer.of_number(Decimal(10) + NUMBER_REL_TOLERANCE * 10)
    assert grade(at_bound, gold)
    past_bound = NormalizedAnswer.of_number(Decimal(10) + NUMBER_REL_TOLERANCE * 10 * 2)
    assert not grade(past_bound, gold)


def test_grade_kind_mismatch_is_incorrect():
    number = NormalizedAnswer.of_number(1)
    option = NormalizedAnswer.of_option("A")
    assert not grade(number, option)


def test_grade_exact_kinds():
    assert grade(NormalizedAnswer.of_option("b"), NormalizedAnswer.of_option("B"))
    assert grade(NormalizedAnswer.of_yes_no("YES"), NormalizedAnswer.of_yes_no("yes"))
    assert not grade(NormalizedAnswer.of_yes_no("no"), NormalizedAnswer.of_yes_no("yes"))
    assert grade(NormalizedAnswer.of_string("nk"), NormalizedAnswer.of_string("nk"))


def test_normalized_answer_value_validation():
    with pytest.raises(ValueError):
        NormalizedAnswer(kind=AnswerType.NUMBER, value="abc")
    with pytest.raises(ValueError):
        NormalizedAnswer.of_number("1/3")
    for kind in (AnswerType.OPTION, AnswerType.YES_NO, AnswerType.STRING):
        with pytest.raises(ValueError):
            NormalizedAnswer(kind=kind, value=1)
    answers = [NormalizedAnswer(AnswerType.NUMBER, v) for v in (18, "18", Decimal("18"))]
    assert answers[0] == answers[1] == answers[2] == NormalizedAnswer.of_number(18)
    assert all(type(a.value) is Decimal for a in answers)


@pytest.mark.parametrize(
    "value", ["NaN", "sNaN", "Infinity", "-Infinity", "1e999999999", Decimal("-inf")]
)
def test_number_answer_refuses_what_grade_cannot_compare(value):
    with pytest.raises(ValueError):
        NormalizedAnswer.of_number(value)


@pytest.mark.parametrize(
    "text",
    [
        "1/0." + "0" * 1_000_000 + "1",  # a quotient past the decimal context's exponent range
        "The answer is 1" + "0" * 1_000_000 + ".",
    ],
    ids=["quotient", "integer"],
)
def test_number_too_large_to_compare_does_not_normalize(text):
    assert normalize(text, AnswerType.NUMBER) is None
    assert extract_rule_based(text, AnswerType.NUMBER) is None


def test_normalized_answer_round_trip():
    for answer in (
        NormalizedAnswer.of_number("12.5"),
        NormalizedAnswer.of_option("C"),
        NormalizedAnswer.of_yes_no("no"),
        NormalizedAnswer.of_string("ab"),
    ):
        assert decode(NormalizedAnswer, json.loads(dumps(answer))) == answer


def test_graded_result_requires_consistent_absence():
    with pytest.raises(ValueError):
        GradedResult(problem_id="p", predicted=None, correct=True, extraction_source="none")
    with pytest.raises(ValueError):
        GradedResult(problem_id="p", predicted=None, correct=False, extraction_source="llm")
    GradedResult(problem_id="p", predicted=None, correct=False, extraction_source="none")


def test_normalize_handles_none_text():
    assert normalize(None, AnswerType.NUMBER) is None


def test_percent_only_divides_for_subunit_gold():
    gold_small = NormalizedAnswer.of_number("0.4")
    gold_big = NormalizedAnswer.of_number("40")
    assert normalize("40%", AnswerType.NUMBER, gold_small).value == Decimal("0.4")
    assert normalize("40%", AnswerType.NUMBER, gold_big).value == Decimal("40")
    # No gold hint at all: treat % as a fraction.
    assert normalize("40%", AnswerType.NUMBER).value == Decimal("0.4")


@given(
    st.decimals(
        allow_nan=False, allow_infinity=False, min_value=-10**9, max_value=10**9, places=4
    )
)
def test_number_normalization_round_trips_decimals(value):
    result = normalize(f"The answer is {value}", AnswerType.NUMBER)
    assert result is not None
    assert result.value == value


@given(st.integers(min_value=0, max_value=10**12))
def test_thousands_separators_are_transparent(value):
    plain = normalize(str(value), AnswerType.NUMBER)
    grouped = normalize(f"{value:,}", AnswerType.NUMBER)
    assert plain is not None and grouped is not None
    assert plain.value == grouped.value == Decimal(value)


@given(st.text(max_size=200))
def test_extract_never_raises(text):
    for answer_type in AnswerType:
        result = extract_rule_based(text, answer_type)
        assert result is None or result.kind is answer_type
