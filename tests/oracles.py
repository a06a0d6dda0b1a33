"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from scratch against the intended
behavior, not by calling into dup. The grading corpus under data/ was
generated from these oracles and then frozen; the tests assert that the
production code agrees with the frozen values, and that these oracles
still reproduce them.
"""

from __future__ import annotations

import dataclasses
import re
from decimal import Decimal, InvalidOperation
from enum import Enum

_CURRENCY = "$€£¥"
_ANNOUNCEMENTS = ("answer is", "answer:", "=")
_WORD_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")


def _strip_thousands(text: str) -> str:
    """Remove commas sitting between a digit and exactly three digits."""
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if (
            ch == ","
            and i > 0
            and text[i - 1].isdigit()
            and text[i + 1 : i + 4].isdigit()
            and len(text[i + 1 : i + 4]) == 3
            and not (i + 4 < len(text) and text[i + 4].isdigit())
        ):
            i += 1
            continue
        out.append(ch)
        i += 1
    return "".join(out)


_ORACLE_TOKEN_RE = re.compile(r"-?(?:\d+(?:\.\d*)?|\.\d+)(?:\s*/\s*(?:\d+(?:\.\d*)?|\.\d+))?")


def oracle_normalize_number(text: str, gold: Decimal | None = None) -> Decimal | None:
    cleaned = "".join(ch for ch in text if ch not in _CURRENCY)
    cleaned = _strip_thousands(cleaned)
    tokens = list(_ORACLE_TOKEN_RE.finditer(cleaned))
    if not tokens:
        return None
    token = tokens[-1]
    raw = token.group(0).replace(" ", "")
    try:
        if "/" in raw:
            num, den = raw.split("/", 1)
            value = Decimal(num) / Decimal(den)
        else:
            value = Decimal(raw)
    except (InvalidOperation, ZeroDivisionError):
        return None
    rest = cleaned[token.end() :].lstrip()
    if rest.startswith("%") or rest.lower().startswith("percent"):
        if gold is None or abs(gold) < 1:
            value = value / 100
    return value


def oracle_normalize_option(text: str) -> str | None:
    for i, ch in enumerate(text):
        if ch not in "ABCDEabcde":
            continue
        before_ok = i == 0 or text[i - 1] not in _WORD_CHARS
        after_ok = i == len(text) - 1 or text[i + 1] not in _WORD_CHARS
        if before_ok and after_ok:
            return ch.upper()
    return None


def oracle_normalize_yes_no(text: str) -> str | None:
    words = re.split(r"[^A-Za-z]+", text)
    for word in words:
        lowered = word.lower()
        if lowered in ("yes", "true"):
            return "yes"
        if lowered in ("no", "false"):
            return "no"
    return None


def oracle_normalize_string(text: str) -> str | None:
    value = text.strip().lower()
    while True:
        before = value
        while len(value) >= 2 and value[0] == value[-1] and value[0] in "\"'":
            value = value[1:-1].strip()
        value = value.rstrip(".").strip()
        if value == before:
            break
    return value or None


def oracle_normalize(text: str, answer_type: str, gold: str | None = None):
    if answer_type == "number":
        gold_value = Decimal(gold) if gold is not None else None
        return oracle_normalize_number(text, gold_value)
    if answer_type == "option":
        return oracle_normalize_option(text)
    if answer_type == "yes_no":
        return oracle_normalize_yes_no(text)
    return oracle_normalize_string(text)


def oracle_extract(text: str, answer_type: str, gold: str | None = None):
    """Announcement-phrase extractor: latest phrase wins, full-line span,
    final non-empty line as the fallback."""
    if not text:
        return None
    lowered = text.lower()
    best_end = -1
    for phrase in _ANNOUNCEMENTS:
        start = lowered.rfind(phrase)
        if start != -1 and start + len(phrase) > best_end:
            best_end = start + len(phrase)
    if best_end >= 0:
        newline = text.find("\n", best_end)
        span = text[best_end:] if newline == -1 else text[best_end:newline]
        value = oracle_normalize(span, answer_type, gold)
        if value is not None:
            return value
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        return None
    return oracle_normalize(lines[-1], answer_type, gold)


def oracle_majority(values: list):
    """Histogram argmax over hashable vote values; None entries are failed
    extractions and never win. Earliest first occurrence breaks ties."""
    present = [value for value in values if value is not None]
    if not present:
        return None
    best = None
    best_count = 0
    for value in present:
        count = sum(1 for other in present if other == value)
        if count > best_count:
            best = value
            best_count = count
    return best


def oracle_encode(obj):
    """The JSON value a stored object stands for, built by a plain recursive
    walk: a typed answer keeps its kind and the text of its value, any other
    dataclass becomes a dict of its fields, an enum member its value, a
    tuple a list; keys are encoded like values."""
    if isinstance(obj, Enum):
        return obj.value
    if obj is None or type(obj) in (bool, int, float, str):
        return obj
    if type(obj).__name__ == "NormalizedAnswer":
        return {"kind": oracle_encode(obj.kind), "value": str(obj.value)}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: oracle_encode(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, (list, tuple)):
        return [oracle_encode(item) for item in obj]
    if isinstance(obj, dict):
        return {oracle_encode(key): oracle_encode(value) for key, value in obj.items()}
    raise TypeError(f"cannot store a {type(obj).__name__}")
