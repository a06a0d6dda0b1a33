"""Prompt rendering for every stage of the pipeline.

All functions are pure: the same inputs always produce byte-identical
output. Instructions are appended after the question text, separated by a
single "\\n", with no trailing newline. The fully rendered form of each
template is frozen in golden files under tests/golden/.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
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


_SLOT_RE = re.compile(r"\{(\w+)\}")


@dataclass(frozen=True)
class PromptTemplate:
    """A named template with {slot} markers.

    Every slot named in the body must appear exactly once, and the declared
    slot list must match the markers in the body. Slot values are inserted
    literally; they are never re-scanned for markers.
    """

    name: str
    body: str
    slots: tuple[str, ...] = ()

    def __post_init__(self):
        found = _SLOT_RE.findall(self.body)
        if sorted(found) != sorted(self.slots):
            raise InvalidInputError(
                f"template {self.name!r}: body slots {sorted(found)} != declared {sorted(self.slots)}"
            )
        if len(set(found)) != len(found):
            raise InvalidInputError(f"template {self.name!r}: duplicate slot marker")

    def render(self, **values: str) -> str:
        if set(values) != set(self.slots):
            missing = set(self.slots) - set(values)
            extra = set(values) - set(self.slots)
            raise InvalidInputError(
                f"template {self.name!r}: missing slots {sorted(missing)}, unknown slots {sorted(extra)}"
            )
        return _SLOT_RE.sub(lambda m: values[m.group(1)], self.body)


# Stage-1 instruction: reveal the core question.
CORE_QUESTION_INSTRUCTION = (
    "Please extract core question, only extract the most comprehensive and detailed one!"
)
# A shorter variant that drops the second "extract" circulates as well; the
# longer wording above is canonical here and frozen in the golden files.

# Stage-2 instruction: list the problem-solving information. The slot is
# filled with the stage-1 output (or the original question when stage 1 is
# disabled, see runner.StageConfig).
INFO_EXTRACTION_INSTRUCTION = (
    "Note: Please extract the problem-solving information related to the core question "
    "{core_question}, only extract the most useful information, list them one by one!"
)

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

CORE_QUESTION_TEMPLATE = PromptTemplate(
    name="core_question",
    body="{question}\n" + CORE_QUESTION_INSTRUCTION,
    slots=("question",),
)

INFO_EXTRACTION_TEMPLATE = PromptTemplate(
    name="info_extraction",
    body="{question}\n" + INFO_EXTRACTION_INSTRUCTION,
    slots=("question", "core_question"),
)

COT_TEMPLATE = PromptTemplate(
    name="zero_shot_cot",
    body="{question}\n" + COT_INSTRUCTION,
    slots=("question",),
)

LAST_LETTER_TEMPLATE = PromptTemplate(
    name="last_letter",
    body="{question}\n" + LAST_LETTER_INSTRUCTION,
    slots=("question",),
)

# Merged single-prompt variant: the three stage instructions joined as a
# numbered list (the stage-2 slot is dropped because the core question is
# produced inside the same completion).
DUP_S_TEMPLATE = PromptTemplate(
    name="dup_s",
    body=(
        "{question}\n"
        "1. " + CORE_QUESTION_INSTRUCTION + "\n"
        "2. Note: Please extract the problem-solving information related to the core question, "
        "only extract the most useful information, list them one by one!\n"
        "3. " + SOLVE_INSTRUCTION
    ),
    slots=("question",),
)

ERROR_ANALYSIS_TEMPLATE = PromptTemplate(
    name="error_analysis",
    body=(
        "Question: {question}.\n"
        "Wrong Response: {wrong}.\n"
        "Correct Response: {correct}.\n"
        "Please judge which type of error it belongs to based on the above information:\n"
        "1. Semantic Misunderstanding: semantic misunderstanding or lack of commonsense concepts.\n"
        "2. Calculation error: errors occurred while performing a basic operation.\n"
        "3. Step-missing errors: missing step and hallucination.\n"
        "Finally, please explain why this error falls into the category you select."
    ),
    slots=("question", "wrong", "correct"),
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

ANSWER_EXTRACTION_TEMPLATES = {
    answer_type: PromptTemplate(
        name=f"answer_extraction_{answer_type.value}",
        body=instruction + "\n{reasoning}",
        slots=("reasoning",),
    )
    for answer_type, instruction in _EXTRACTION_INSTRUCTIONS.items()
}


def _require(value: str, name: str) -> None:
    if not value:
        raise InvalidInputError(f"{name} must be non-empty")


def render_core_question_prompt(question: str) -> str:
    """Stage 1: ask for the core question of the input problem."""
    _require(question, "question")
    return CORE_QUESTION_TEMPLATE.render(question=question)


def render_info_extraction_prompt(question: str, core_question: str) -> str:
    """Stage 2: ask for the problem-solving information behind `core_question`."""
    _require(question, "question")
    _require(core_question, "core_question")
    return INFO_EXTRACTION_TEMPLATE.render(question=question, core_question=core_question)


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
    """Merged single-prompt form of the three stages."""
    _require(question, "question")
    return DUP_S_TEMPLATE.render(question=question)


def render_cot_prompt(question: str) -> str:
    """Zero-shot chain-of-thought baseline prompt."""
    _require(question, "question")
    return COT_TEMPLATE.render(question=question)


def render_last_letter_prompt(question: str) -> str:
    """Simplified single prompt used for the Last Letters task."""
    _require(question, "question")
    return LAST_LETTER_TEMPLATE.render(question=question)


def render_answer_extraction_prompt(reasoning_text: str, answer_type: AnswerType) -> str:
    """Ask the model to read a reasoning text and emit only the final answer."""
    _require(reasoning_text, "reasoning_text")
    return ANSWER_EXTRACTION_TEMPLATES[answer_type].render(reasoning=reasoning_text)


def render_error_analysis_prompt(question: str, wrong: str, correct: str) -> str:
    """Ask a judge model to classify a wrong response into an error category."""
    _require(question, "question")
    _require(wrong, "wrong")
    _require(correct, "correct")
    return ERROR_ANALYSIS_TEMPLATE.render(question=question, wrong=wrong, correct=correct)
