"""Prompt rendering against the frozen golden files, plus rendering rules."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dup.exceptions import InvalidInputError
from dup.prompts import (
    AnswerType,
    SOLVE_INSTRUCTION,
    render_answer_extraction_prompt,
    render_core_question_prompt,
    render_cot_prompt,
    render_dup_s_prompt,
    render_error_analysis_prompt,
    render_final_answer_prompt,
    render_info_extraction_prompt,
    render_last_letter_prompt,
)

from conftest import GOLDEN_DIR

SAMPLE_QUESTION = (
    "Megan has 30 stamps. She gives 12 stamps to her sister and buys 9 more. "
    "How many stamps does Megan have now?"
)
SAMPLE_CORE = "How many stamps does Megan have now?"
SAMPLE_INFO = (
    "1. Megan starts with 30 stamps.\n"
    "2. She gives 12 stamps to her sister.\n"
    "3. She buys 9 more stamps."
)
SAMPLE_LAST_LETTER = 'Take the last letters of the words in "Elon Musk" and concatenate them.'


def golden(name):
    return (GOLDEN_DIR / name).read_text(encoding="utf-8")


def test_core_question_matches_golden():
    assert render_core_question_prompt(SAMPLE_QUESTION) == golden("stage1_core_question.txt")


def test_info_extraction_matches_golden():
    rendered = render_info_extraction_prompt(SAMPLE_QUESTION, SAMPLE_CORE)
    assert rendered == golden("stage2_solving_info.txt")


def test_final_answer_matches_golden():
    rendered = render_final_answer_prompt(
        SAMPLE_QUESTION, core_question=SAMPLE_CORE, info=SAMPLE_INFO
    )
    assert rendered == golden("stage3_final_answer.txt")


def test_dup_s_matches_golden():
    assert render_dup_s_prompt(SAMPLE_QUESTION) == golden("dup_s.txt")


def test_cot_matches_golden():
    assert render_cot_prompt(SAMPLE_QUESTION) == golden("zero_shot_cot.txt")


def test_last_letter_matches_golden():
    assert render_last_letter_prompt(SAMPLE_LAST_LETTER) == golden("last_letter.txt")


def test_error_analysis_matches_golden():
    rendered = render_error_analysis_prompt(
        SAMPLE_QUESTION,
        "Megan has 30 - 12 = 18 stamps, so the answer is 18",
        "27",
    )
    assert rendered == golden("error_analysis.txt")


def test_final_answer_omits_disabled_slots():
    assert render_final_answer_prompt("Q?", core_question="", info="") == "Q?\n" + SOLVE_INSTRUCTION
    assert (
        render_final_answer_prompt("Q?", core_question="", info="", include_instruction=False)
        == "Q?"
    )
    assert render_final_answer_prompt("Q?", core_question="CQ", info="", include_instruction=False) == "Q?\nCQ"
    assert (
        render_final_answer_prompt("Q?", core_question="", info="I", include_instruction=False)
        == "Q?\nHint: I"
    )


def test_final_answer_full_ordering():
    rendered = render_final_answer_prompt("Q?", core_question="CQ", info="I1\nI2")
    assert rendered == "Q?\nHint: I1\nI2\nCQ\n" + SOLVE_INSTRUCTION


def test_info_extraction_inserts_core_question_once():
    rendered = render_info_extraction_prompt("Q?", "What is X?")
    assert rendered.count("related to the core question What is X?") == 1


def test_empty_inputs_rejected():
    with pytest.raises(InvalidInputError):
        render_core_question_prompt("")
    with pytest.raises(InvalidInputError):
        render_info_extraction_prompt("Q?", "")
    with pytest.raises(InvalidInputError):
        render_final_answer_prompt("")
    with pytest.raises(InvalidInputError):
        render_error_analysis_prompt("Q?", "", "right")


def test_extraction_prompts_lead_with_instruction():
    for answer_type in AnswerType:
        rendered = render_answer_extraction_prompt("The total is 8.", answer_type)
        assert rendered.endswith("\nThe total is 8.")
        assert "step-by-step solution" in rendered
    assert "numeric answer" in render_answer_extraction_prompt("x", AnswerType.NUMBER)
    assert "(A, B, C, D or E)" in render_answer_extraction_prompt("x", AnswerType.OPTION)
    assert "yes or no" in render_answer_extraction_prompt("x", AnswerType.YES_NO)


def test_slot_values_inserted_literally():
    # Text that looks like a slot marker is part of the input, never filled.
    slot = "{question}{core_question}"
    assert render_core_question_prompt(slot).startswith(slot + "\n")
    rendered = render_info_extraction_prompt(slot, "{info}")
    assert rendered.startswith(slot + "\n") and "the core question {info}, only" in rendered
    rendered = render_final_answer_prompt(slot, core_question="{x}", info="{y}")
    assert rendered == f"{slot}\nHint: {{y}}\n{{x}}\n" + SOLVE_INSTRUCTION
    for answer_type in AnswerType:
        assert render_answer_extraction_prompt("{reasoning}", answer_type).endswith("\n{reasoning}")
    judged = render_error_analysis_prompt(slot, "{correct}", "{wrong}")
    assert judged.startswith(f"Question: {slot}.\nWrong Response: {{correct}}.\n")
    assert "Correct Response: {wrong}.\n" in judged


@given(st.text(min_size=1))
def test_question_always_leads_rendered_prompts(question):
    for render in (render_core_question_prompt, render_cot_prompt, render_dup_s_prompt):
        rendered = render(question)
        assert rendered.startswith(question + "\n")
        assert render(question) == rendered  # pure


@given(st.booleans(), st.booleans(), st.booleans())
def test_final_answer_slot_omission_rule(has_core, has_info, instruction):
    rendered = render_final_answer_prompt(
        "Q?",
        core_question="CQ" if has_core else "",
        info="I" if has_info else "",
        include_instruction=instruction,
    )
    assert ("Hint: I" in rendered) == has_info
    assert ("CQ" in rendered) == has_core
    assert (SOLVE_INSTRUCTION in rendered) == instruction
    assert len(rendered.split("\n")) == 1 + has_core + has_info + instruction
