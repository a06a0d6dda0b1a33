"""Benchmark loading: ten known datasets plus custom files, one Problem record.

Public mirrors of these benchmarks disagree on field names, so each known
dataset carries a small field map; a manifest file can override any of it.
Input formats are line-delimited JSON, parsed a line at a time, and
whole-file JSON arrays (plus the common {"examples": [...]} wrapper object),
parsed whole; a leading UTF-8 byte-order mark is skipped.
"""

from __future__ import annotations

import itertools
import logging
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from .exceptions import DatasetFormatError, InvalidInputError
from .grading import _YES_NO_MAP, NormalizedAnswer, _parse_number_token
from .prompts import AnswerType
from .store import loads, read

log = logging.getLogger(__name__)

GOLD_DELIMITER = "#### "

_WRAPPER_KEYS = ("examples", "data", "instances", "questions", "rows")


@dataclass(frozen=True)
class FieldMap:
    """Where to find each Problem field inside a raw record.

    Paths are dot-separated for nested records. Multiple question paths are
    joined with a single space (body + question style files).
    """

    question: tuple[str, ...] = ("question",)
    answer: str = "answer"
    id: str | None = None
    options: str | None = None

    @classmethod
    def from_dict(cls, data: dict) -> "FieldMap":
        """The field map a manifest gives; ValueError unless it is an object of paths."""
        if not isinstance(data, dict):
            raise ValueError("field_map must be an object")
        question = data.get("question", "question")
        field_map = cls(
            question=tuple(question) if isinstance(question, list) else (question,),
            answer=data.get("answer", "answer"),
            id=data.get("id"),
            options=data.get("options"),
        )
        optional = [path for path in (field_map.id, field_map.options) if path is not None]
        paths = (*field_map.question, field_map.answer, *optional)
        if not all(isinstance(path, str) for path in paths):
            raise ValueError("field_map paths must be strings")
        return field_map


@dataclass(frozen=True)
class DatasetSpec:
    answer_type: AnswerType
    expected_count: int | None = None
    field_map: FieldMap = field(default_factory=FieldMap)


DATASET_SPECS: dict[str, DatasetSpec] = {
    "gsm8k": DatasetSpec(AnswerType.NUMBER, 1319),
    "multiarith": DatasetSpec(
        AnswerType.NUMBER, 600, FieldMap(question=("sQuestion",), answer="lSolutions", id="iIndex")
    ),
    "addsub": DatasetSpec(
        AnswerType.NUMBER, 395, FieldMap(question=("sQuestion",), answer="lSolutions", id="iIndex")
    ),
    "svamp": DatasetSpec(
        AnswerType.NUMBER, 1000, FieldMap(question=("Body", "Question"), answer="Answer", id="ID")
    ),
    "singleeq": DatasetSpec(
        AnswerType.NUMBER, 508, FieldMap(question=("sQuestion",), answer="lSolutions", id="iIndex")
    ),
    "aqua": DatasetSpec(
        AnswerType.OPTION, 254, FieldMap(question=("question",), answer="correct", options="options")
    ),
    "last_letters": DatasetSpec(AnswerType.STRING, 500),
    "coin_flip": DatasetSpec(AnswerType.YES_NO, 500),
    "strategyqa": DatasetSpec(AnswerType.YES_NO, 2290, FieldMap(id="qid")),
    "csqa": DatasetSpec(
        AnswerType.OPTION,
        1221,
        FieldMap(question=("question.stem",), answer="answerKey", options="question.choices", id="id"),
    ),
}


@dataclass(frozen=True)
class Problem:
    """One benchmark item in unified form."""

    id: str
    dataset: str
    question: str
    gold_raw: str
    gold: NormalizedAnswer
    answer_type: AnswerType
    options: tuple[tuple[str, str], ...] | None = None

    def __post_init__(self):
        if not self.question:
            raise InvalidInputError("question must be non-empty")
        if self.gold.kind is not self.answer_type:
            raise InvalidInputError("gold kind must match answer_type")
        if self.answer_type is AnswerType.OPTION:
            if self.options is None or len(self.options) < 2:
                raise InvalidInputError("option problems need at least 2 options")
            letters = [letter for letter, _ in self.options]
            if len(set(letters)) != len(letters):
                raise InvalidInputError("option letters must be distinct")


def canonical_dataset_id(name: str) -> str:
    return re.sub(r"[\s\-]+", "_", name.strip().lower())


def parse_gold_answer(raw: str, answer_type: AnswerType) -> NormalizedAnswer:
    """Parse a gold label string per its answer type.

    NUMBER honours the "#### " delimiter convention (token after the final
    delimiter, commas stripped); OPTION accepts a single letter A-E with
    optional decoration; YES_NO accepts yes/no/true/false; STRING trims and
    lowercases.
    """
    if not raw:
        raise DatasetFormatError("empty gold answer")
    text = raw.strip()
    if answer_type is AnswerType.NUMBER:
        if GOLD_DELIMITER in text:
            text = text.rsplit(GOLD_DELIMITER, 1)[1].strip()
            text = text.split()[0] if text.split() else ""
        value = _parse_number_token(text.replace(",", "").rstrip("."))
        if value is None:
            raise DatasetFormatError(f"gold is not a number: {raw!r}")
        return NormalizedAnswer.of_number(value)
    if answer_type is AnswerType.OPTION:
        letters = re.findall(r"[A-Ea-e]", text)
        if len(text.strip("()[]. ")) != 1 or not letters:
            raise DatasetFormatError(f"gold is not a single option letter: {raw!r}")
        return NormalizedAnswer.of_option(letters[0])
    if answer_type is AnswerType.YES_NO:
        lowered = text.lower().strip(".")
        if lowered not in _YES_NO_MAP:
            raise DatasetFormatError(f"gold is not yes/no: {raw!r}")
        return NormalizedAnswer.of_yes_no(_YES_NO_MAP[lowered])
    value = text.lower()
    if not value:
        raise DatasetFormatError("empty string gold")
    return NormalizedAnswer.of_string(value)


def _resolve_path(record: dict, path: str) -> Any:
    value: Any = record
    for part in path.split("."):
        if not isinstance(value, dict) or part not in value:
            raise KeyError(path)
        value = value[part]
    return value


def _raw_to_text(value: Any) -> str:
    if isinstance(value, list):
        if not value:
            raise DatasetFormatError("empty answer list")
        value = value[0]
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float) and value.is_integer():  # not for inf or nan
        return str(int(value))
    return str(value)


def _parse_options(value: Any) -> tuple[tuple[str, str], ...]:
    pairs: list[tuple[str, str]] = []
    for item in value:
        if isinstance(item, dict):  # {"label": "A", "text": "..."}
            pairs.append((str(item["label"]).upper(), str(item["text"])))
        else:  # "A)21" / "A) 21"
            text = str(item)
            letter, _, rest = text.partition(")")
            pairs.append((letter.strip("( ").upper(), rest.strip()))
    return tuple(pairs)


def _format_choices(options: tuple[tuple[str, str], ...]) -> str:
    return "Answer Choices: " + " ".join(f"({letter}) {text}" for letter, text in options)


def _read_records(path: Path) -> Iterator[tuple[int, Any]]:
    """Yield (record_number, record) pairs; record_number is 1-based."""
    try:
        handle = open(path, encoding="utf-8-sig")
    except OSError as exc:
        raise DatasetFormatError(f"cannot read dataset file {path}: {exc}") from exc
    try:
        with handle:
            # Text mode ends a line at "\n", "\r\n" or "\r" only, not at U+2028 and
            # the other breaks of str.splitlines, which a JSON string may hold.
            lines = ((no, line.rstrip("\n")) for no, line in enumerate(handle, 1) if line.strip())
            first_no, first = next(lines, (0, ""))
            if not first:
                return
            try:
                record, line_error = loads(first), None
            except ValueError as exc:
                line_error = exc
            array = first.lstrip()[0] == "["
            if array or line_error or (ahead := next(lines, None)) is None:
                # One JSON value: an array, a wrapper object or one JSON Lines record.
                text = f"{first}\n{handle.read()}".strip()
                try:
                    value = loads(text)
                except ValueError as exc:
                    if array:
                        raise DatasetFormatError(f"invalid JSON array in {path}: {exc}") from exc
                    message = f"{path}:{first_no}: invalid JSON: {line_error}"
                    raise DatasetFormatError(message) from line_error
                if isinstance(value, dict):  # a wrapper object holds its records in a list
                    lists = [value[key] for key in _WRAPPER_KEYS if isinstance(value.get(key), list)]
                    value = lists[0] if lists else value
                if isinstance(value, list):
                    yield from enumerate(value, start=1)
                elif line_error is None:
                    yield first_no, value  # a file of one JSON Lines record
                else:
                    raise DatasetFormatError(f"{path}: JSON object has no recognizable record list")
                return
            yield first_no, record
            for line_no, line in itertools.chain([ahead], lines):
                try:
                    yield line_no, loads(line)
                except ValueError as exc:
                    raise DatasetFormatError(f"{path}:{line_no}: invalid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:  # text is decoded a chunk at a time: find the line
        lines = enumerate(path.read_bytes().splitlines(), start=1)
        bad = (no for no, line in lines if line.decode("utf-8", "ignore").encode() != line)
        where = f"{path}:{no}" if (no := next(bad, None)) else path
        raise DatasetFormatError(f"{where}: not UTF-8 text ({exc.reason})") from None


def load_dataset(
    path: str | Path,
    dataset: str,
    answer_type: AnswerType | None = None,
    field_map: FieldMap | None = None,
) -> list[Problem]:
    """Load a dataset file into Problems, in file order.

    `dataset` must be a known identifier or any other name with an explicit
    `answer_type`. For known datasets the loaded count is checked against
    the expected test-set size; a mismatch logs a warning (public mirrors
    drift) but never fails the load.
    """
    dataset_id = canonical_dataset_id(dataset)
    spec = DATASET_SPECS.get(dataset_id)
    if spec is None and answer_type is None:
        raise DatasetFormatError(
            f"unknown dataset {dataset!r}; pass an explicit answer_type for custom data"
        )
    resolved_type = answer_type or spec.answer_type
    resolved_map = field_map or (spec.field_map if spec else FieldMap())

    problems: list[Problem] = []
    for record_no, record in _read_records(Path(path)):
        if not isinstance(record, dict):
            raise DatasetFormatError(f"{path}:{record_no}: record is not an object")
        try:
            question_parts = [str(_resolve_path(record, p)).strip() for p in resolved_map.question]
            question = " ".join(part for part in question_parts if part)
            gold_field = _resolve_path(record, resolved_map.answer)
        except KeyError as exc:
            raise DatasetFormatError(f"{path}:{record_no}: missing field {exc}") from exc
        options = None
        if resolved_map.options is not None:
            try:
                options = _parse_options(_resolve_path(record, resolved_map.options))
            except (KeyError, TypeError) as exc:
                raise DatasetFormatError(f"{path}:{record_no}: bad options: {exc}") from exc
            if options and _format_choices(options) not in question:
                question = f"{question}\n{_format_choices(options)}"
        problem_id = f"{dataset_id}-{record_no:05d}"  # when the record names none
        if resolved_map.id is not None:
            try:
                problem_id = str(_resolve_path(record, resolved_map.id))
            except KeyError:
                pass
        try:
            gold_raw = _raw_to_text(gold_field)
            gold = parse_gold_answer(gold_raw, resolved_type)
        except DatasetFormatError as exc:
            raise DatasetFormatError(f"{path}:{record_no}: {exc}") from exc
        problems.append(
            Problem(
                id=problem_id,
                dataset=dataset_id,
                question=question,
                gold_raw=gold_raw,
                gold=gold,
                answer_type=resolved_type,
                options=options,
            )
        )

    log.info("loaded %d problems from %s (%s)", len(problems), path, dataset_id)
    if spec is not None and spec.expected_count is not None and len(problems) != spec.expected_count:
        log.warning(
            "%s: expected %d problems, loaded %d (public mirrors drift; continuing)",
            dataset_id,
            spec.expected_count,
            len(problems),
        )
    return problems


def load_manifest(path: str | Path) -> dict[str, dict]:
    """Read a manifest mapping dataset id -> {path, answer_type?, field_map?}.

    Returns each entry as {path, answer_type, field_map}: the path resolved
    relative to the manifest file's directory, the other two as an
    AnswerType and a FieldMap, or None where the entry gives none. An
    entry that does not have that shape raises DatasetFormatError naming
    the manifest and the entry.
    """
    manifest_path = Path(path)
    try:
        data = read(manifest_path)
    except (OSError, ValueError) as exc:
        raise DatasetFormatError(f"cannot read manifest {path}: {exc}") from exc
    entries = data.get("datasets", data) if isinstance(data, dict) else data
    if not isinstance(entries, dict):
        raise DatasetFormatError(f"manifest {path}: expected an object of datasets")
    resolved: dict[str, dict] = {}
    for name, entry in entries.items():
        if not isinstance(entry, dict) or not isinstance(entry.get("path"), str):
            raise DatasetFormatError(f"manifest {path}: entry {name!r} needs a 'path' string")
        answer_type, field_map = entry.get("answer_type"), entry.get("field_map")
        try:
            resolved[canonical_dataset_id(name)] = {
                "path": str((manifest_path.parent / entry["path"]).resolve()),
                "answer_type": None if answer_type is None else AnswerType(answer_type),
                "field_map": None if field_map is None else FieldMap.from_dict(field_map),
            }
        except ValueError as exc:
            raise DatasetFormatError(f"manifest {path}: entry {name!r}: {exc}") from None
    return resolved


def load_from_manifest(
    manifest: dict[str, dict], dataset: str, answer_type: AnswerType | None = None
) -> list[Problem]:
    """Load one dataset through the settings `load_manifest` read, with
    `answer_type` where the entry names none."""
    dataset_id = canonical_dataset_id(dataset)
    if dataset_id not in manifest:
        raise DatasetFormatError(f"dataset {dataset!r} not in manifest")
    entry = manifest[dataset_id]
    answer_type = entry["answer_type"] or answer_type
    return load_dataset(entry["path"], dataset_id, answer_type, entry["field_map"])
