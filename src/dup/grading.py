"""Answer normalization and correctness grading.

An answer is a kind and one value. Numbers are exact decimals
(`decimal.Decimal`) from parse time until comparison, so transcripts never
accumulate binary-float drift; every other kind is a string.
Normalization failure is signalled by returning ``None``, never by raising:
a response we cannot parse simply counts as incorrect.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation, getcontext

from .prompts import AnswerType

log = logging.getLogger(__name__)

# Relative tolerance for numeric comparison: wide enough to absorb float
# formatting of short decimals, far too tight to conflate distinct answers.
NUMBER_REL_TOLERANCE = Decimal("1e-6")

CURRENCY_CHARS = "$€£¥"

# A numeric token: optional sign, decimals, optional simple fraction tail.
_NUMBER_TOKEN_RE = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:\s*/\s*(?:\d+\.?\d*|\.\d+))?")
# Thousands separators only: a comma between a digit and exactly three digits.
_THOUSANDS_COMMA_RE = re.compile(r"(?<=\d),(?=\d{3}(?!\d))")
_OPTION_LETTER_RE = re.compile(r"\b([A-Ea-e])\b")
_YES_NO_RE = re.compile(r"\b(yes|no|true|false)\b", re.IGNORECASE)

_YES_NO_MAP = {"yes": "yes", "true": "yes", "no": "no", "false": "no"}


@dataclass(frozen=True)
class NormalizedAnswer:
    """A typed final answer, held as it is stored: a Decimal for NUMBER (text
    or an int is converted; text that does not parse, or a number that
    `grade` cannot compare, raises ValueError), a str for every other kind."""

    kind: AnswerType
    value: Decimal | str

    def __post_init__(self):
        if self.kind is AnswerType.NUMBER:
            if not isinstance(self.value, Decimal):
                try:
                    object.__setattr__(self, "value", Decimal(str(self.value)))
                except InvalidOperation:
                    raise ValueError(f"not a number: {self.value!r}") from None
            if not _gradable(self.value):
                raise ValueError(f"not a number grade can compare: {self.value!r}")
        elif not isinstance(self.value, str):
            raise ValueError(f"answer of kind {self.kind.value} must be a str, got {self.value!r}")

    @classmethod
    def of_number(cls, value: Decimal | int | str) -> "NormalizedAnswer":
        return cls(AnswerType.NUMBER, value)

    @classmethod
    def of_option(cls, letter: str) -> "NormalizedAnswer":
        return cls(AnswerType.OPTION, letter.upper())

    @classmethod
    def of_yes_no(cls, value: str) -> "NormalizedAnswer":
        return cls(AnswerType.YES_NO, value.lower())

    @classmethod
    def of_string(cls, value: str) -> "NormalizedAnswer":
        return cls(AnswerType.STRING, value)


@dataclass(frozen=True)
class GradedResult:
    """Outcome of grading one problem."""

    problem_id: str
    predicted: NormalizedAnswer | None
    correct: bool
    extraction_source: str  # "llm" | "rule_fallback" | "none"

    def __post_init__(self):
        if self.predicted is None and (self.correct or self.extraction_source != "none"):
            raise ValueError("absent prediction must grade incorrect with extraction_source='none'")


def _gradable(value: Decimal) -> bool:
    """Finite and below 10**Emax: the difference `grade` takes cannot overflow."""
    return value.is_finite() and value.adjusted() < getcontext().Emax


def _parse_number_token(token: str) -> Decimal | None:
    """The token's value; None unless it is a number `grade` can compare."""
    numerator, slash, denominator = token.replace(" ", "").partition("/")
    try:
        value = Decimal(numerator) / Decimal(denominator) if slash else Decimal(numerator)
    except ArithmeticError:
        return None
    return value if _gradable(value) else None


def _normalize_number(text: str, gold: NormalizedAnswer | None) -> NormalizedAnswer | None:
    cleaned = text
    for ch in CURRENCY_CHARS:
        cleaned = cleaned.replace(ch, "")
    cleaned = _THOUSANDS_COMMA_RE.sub("", cleaned)
    matches = list(_NUMBER_TOKEN_RE.finditer(cleaned))
    if not matches:
        return None
    last = matches[-1]
    value = _parse_number_token(last.group(0))
    if value is None:
        return None
    tail = cleaned[last.end():].lstrip()
    if tail.startswith("%") or tail.lower().startswith("percent"):
        # "25%" means 0.25 only when the reference answer itself is a
        # sub-unit fraction; otherwise "%" is just a unit to strip.
        if gold is None or (gold.kind is AnswerType.NUMBER and abs(gold.value) < 1):
            value = value / 100
    return NormalizedAnswer.of_number(value)


def _normalize_option(text: str) -> NormalizedAnswer | None:
    match = _OPTION_LETTER_RE.search(text)
    if not match:
        return None
    return NormalizedAnswer.of_option(match.group(1))


def _normalize_yes_no(text: str) -> NormalizedAnswer | None:
    match = _YES_NO_RE.search(text)
    if not match:
        return None
    return NormalizedAnswer.of_yes_no(_YES_NO_MAP[match.group(1).lower()])


def _normalize_string(text: str) -> NormalizedAnswer | None:
    value = text.strip().lower()
    # Quote pairs and terminal periods can nest ("'onal'."), so peel until
    # nothing changes.
    while True:
        before = value
        while len(value) >= 2 and value[0] == value[-1] and value[0] in "\"'":
            value = value[1:-1].strip()
        value = value.rstrip(".").strip()
        if value == before:
            break
    if not value:
        return None
    return NormalizedAnswer.of_string(value)


def normalize(
    text: str,
    answer_type: AnswerType,
    gold: NormalizedAnswer | None = None,
) -> NormalizedAnswer | None:
    """Parse a free-form answer span into a NormalizedAnswer.

    NUMBER takes the last numeric token after stripping currency marks and
    thousands separators; OPTION takes the first standalone letter A-E;
    YES_NO takes the first yes/no lexeme; STRING trims, lowercases, and
    strips surrounding quotes and a terminal period. Returns None when no
    candidate is found. `gold` is an optional hint used only to decide
    whether a trailing "%" divides by 100.
    """
    if text is None:
        return None
    if answer_type is AnswerType.NUMBER:
        return _normalize_number(text, gold)
    if answer_type is AnswerType.OPTION:
        return _normalize_option(text)
    if answer_type is AnswerType.YES_NO:
        return _normalize_yes_no(text)
    return _normalize_string(text)


_ANNOUNCEMENT_RES = (
    re.compile(r"answer\s+is", re.IGNORECASE),
    re.compile(r"answer\s*:", re.IGNORECASE),
    re.compile(r"="),
)


def extract_rule_based(
    reasoning_text: str,
    answer_type: AnswerType,
    gold: NormalizedAnswer | None = None,
) -> NormalizedAnswer | None:
    """Rule-based fallback extractor over a full reasoning text.

    Finds the answer announcement ("answer is", "answer:", "=") nearest the
    end of the text and normalizes the rest of that line; when there is no
    announcement, or its span does not normalize, falls back to the final
    non-empty line.
    """
    if not reasoning_text:
        return None
    best_end = -1
    for pattern in _ANNOUNCEMENT_RES:
        for match in pattern.finditer(reasoning_text):
            if match.end() > best_end:
                best_end = match.end()
    if best_end >= 0:
        newline = reasoning_text.find("\n", best_end)
        span = reasoning_text[best_end:] if newline < 0 else reasoning_text[best_end:newline]
        answer = normalize(span, answer_type, gold)
        if answer is not None:
            return answer
    lines = [line for line in reasoning_text.splitlines() if line.strip()]
    if not lines:
        return None
    return normalize(lines[-1], answer_type, gold)


def grade(predicted: NormalizedAnswer, gold: NormalizedAnswer) -> bool:
    """Decide whether a predicted answer matches gold.

    Numbers compare under a relative tolerance of 1e-6 (scaled by
    max(1, |gold|)); all other kinds compare exactly. Mismatched kinds are
    never equal.
    """
    if predicted.kind is not gold.kind:
        log.warning("kind mismatch in grade: %s vs %s", predicted.kind.value, gold.kind.value)
        return False
    if predicted.kind is AnswerType.NUMBER:
        bound = NUMBER_REL_TOLERANCE * max(Decimal(1), abs(gold.value))
        return abs(predicted.value - gold.value) <= bound
    return predicted.value == gold.value
