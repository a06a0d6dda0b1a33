"""Prompt rendering for every stage of the pipeline.

Each render_* function builds its prompt from the instruction text below
and inserts its inputs literally. All functions are pure: the same inputs
always produce byte-identical output, lines joined by a single "\\n" with no
trailing newline. The fully rendered form of each prompt is frozen in
golden files under tests/golden/.
"""

from __future__ import annotations

from enum import Enum

from .exceptions import InvalidInputError


class AnswerType(str, Enum):
    """What kind of final answer a dataset expects."""

    NUMBER = "number"
    OPTION = "option"
    YES_NO = "yes_no"
    STRING = "string"


class MethodVariant(str, Enum):
    """Which prompting method drives the pipeline for a problem."""

    DUP = "dup"
    DUP_S = "dup-s"
    ZERO_SHOT_COT = "cot"
    # Auto-selected for the Last Letters dataset; a single simplified
    # prompt replaces the three-stage pipeline. Overridable via RunConfig.
    LAST_LETTER_SIMPLIFIED = "last-letter"


# Stage-1 instruction: reveal the core question.
CORE_QUESTION_INSTRUCTION = (
    "Please extract core question, only extract the most comprehensive and detailed one!"
)
# A shorter variant that drops the second "extract" circulates as well; the
# longer wording above is canonical here and frozen in the golden files.

# Stage-3 instruction: solve using the hint block assembled from the
# previous stages.
SOLVE_INSTRUCTION = (
    "Please understand the Hint and question information, "
    "then solve the problem step by step and show the answer."
)

COT_INSTRUCTION = "Let's think step by step"

# Single-prompt replacement used for the Last Letters task, which skips the
# information-extraction stage.
LAST_LETTER_INSTRUCTION = (
    "Please accurately understand the question useful information "
    "and solve the question step by step."
)

# Answer-extraction instructions, one per answer type. The instruction comes
# first, then the reasoning text to read.
_EXTRACTION_INSTRUCTIONS = {
    AnswerType.NUMBER: (
        "The following is a step-by-step solution to a problem. "
        "Please output only the final numeric answer, with no units, symbols, or explanation."
    ),
    AnswerType.OPTION: (
        "The following is a step-by-step solution to a multiple-choice problem. "
        "Please output only the final option letter (A, B, C, D or E), with no explanation."
    ),
    AnswerType.YES_NO: (
        "The following is a step-by-step solution to a yes-or-no question. "
        "Please output only the final answer, either yes or no, with no explanation."
    ),
    AnswerType.STRING: (
        "The following is a step-by-step solution to a problem. "
        "Please output only the final answer string, with no explanation."
    ),
}


def _require(value: str, name: str) -> None:
    if not value:
        raise InvalidInputError(f"{name} must be non-empty")


def render_core_question_prompt(question: str) -> str:
    """Stage 1: ask for the core question of the input problem."""
    _require(question, "question")
    return f"{question}\n{CORE_QUESTION_INSTRUCTION}"


def render_info_extraction_prompt(question: str, core_question: str) -> str:
    """Stage 2: ask for the problem-solving information behind `core_question`."""
    _require(question, "question")
    _require(core_question, "core_question")
    return (
        f"{question}\nNote: Please extract the problem-solving information related to the core "
        f"question {core_question}, only extract the most useful information, list them one by one!"
    )


def render_final_answer_prompt(
    question: str,
    core_question: str = "",
    info: str = "",
    include_instruction: bool = True,
) -> str:
    """Stage 3: solve the problem given the hint block.

    Disabled stages pass empty strings and their lines are omitted entirely;
    with everything disabled the prompt is the bare question.
    """
    _require(question, "question")
    lines = [question]
    if info:
        lines.append("Hint: " + info)
    if core_question:
        lines.append(core_question)
    if include_instruction:
        lines.append(SOLVE_INSTRUCTION)
    return "\n".join(lines)


def render_dup_s_prompt(question: str) -> str:
    """Merged single-prompt form of the three stages.

    The stage instructions are joined as a numbered list; stage 2 names no
    core question, which the same completion produces.
    """
    _require(question, "question")
    return (
        f"{question}\n1. {CORE_QUESTION_INSTRUCTION}\n"
        "2. Note: Please extract the problem-solving information related to the core question, "
        "only extract the most useful information, list them one by one!\n"
        f"3. {SOLVE_INSTRUCTION}"
    )


def render_cot_prompt(question: str) -> str:
    """Zero-shot chain-of-thought baseline prompt."""
    _require(question, "question")
    return f"{question}\n{COT_INSTRUCTION}"


def render_last_letter_prompt(question: str) -> str:
    """Simplified single prompt used for the Last Letters task."""
    _require(question, "question")
    return f"{question}\n{LAST_LETTER_INSTRUCTION}"


def render_answer_extraction_prompt(reasoning_text: str, answer_type: AnswerType) -> str:
    """Ask the model to read a reasoning text and emit only the final answer."""
    _require(reasoning_text, "reasoning_text")
    return f"{_EXTRACTION_INSTRUCTIONS[answer_type]}\n{reasoning_text}"


def render_error_analysis_prompt(question: str, wrong: str, correct: str) -> str:
    """Ask a judge model to classify a wrong response into an error category."""
    _require(question, "question")
    _require(wrong, "wrong")
    _require(correct, "correct")
    return (
        f"Question: {question}.\n"
        f"Wrong Response: {wrong}.\n"
        f"Correct Response: {correct}.\n"
        "Please judge which type of error it belongs to based on the above information:\n"
        "1. Semantic Misunderstanding: semantic misunderstanding or lack of commonsense concepts.\n"
        "2. Calculation error: errors occurred while performing a basic operation.\n"
        "3. Step-missing errors: missing step and hallucination.\n"
        "Finally, please explain why this error falls into the category you select."
    )
