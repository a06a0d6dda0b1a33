"""Dataset loading: formats, field maps, gold parsing, manifests."""

import json
import logging
import re
from decimal import Decimal

import pytest

from dup.datasets import (
    DATASET_SPECS,
    FieldMap,
    Problem,
    canonical_dataset_id,
    load_dataset,
    load_from_manifest,
    load_manifest,
    parse_gold_answer,
)
from dup.exceptions import DatasetFormatError, InvalidInputError
from dup.grading import NormalizedAnswer
from dup.prompts import AnswerType

from conftest import DATA_DIR, SYNTH_DATASET, SYNTH_IDS

RECORD1 = {"question": "Q1?", "answer": "1"}
RECORD2 = {"question": "Q2?", "answer": "2"}
Q1, Q2 = json.dumps(RECORD1), json.dumps(RECORD2)
DEEP = "[" * 200_000  # deeper than the JSON parser's recursion limit


def load_text(tmp_path, text, dataset="custom"):
    """Load `text` as the dataset file data.jsonl; a number answer unless `dataset` is known."""
    path = tmp_path / "data.jsonl"
    path.write_text(text, encoding="utf-8")
    answer_type = None if dataset in DATASET_SPECS else AnswerType.NUMBER
    return load_dataset(path, dataset, answer_type=answer_type)


class TestSyntheticFixture:
    def test_loads_ten_problems_in_file_order(self, synthetic_problems):
        assert [p.id for p in synthetic_problems] == SYNTH_IDS
        assert all(p.answer_type is AnswerType.NUMBER for p in synthetic_problems)
        assert synthetic_problems[0].gold.value == Decimal(18)
        assert synthetic_problems[-1].gold.value == Decimal(32)

    def test_gold_delimiter_respected(self, synthetic_problems):
        # The gold field holds reasoning plus "#### n"; only n is the answer.
        assert "####" in synthetic_problems[0].gold_raw
        assert synthetic_problems[0].gold == NormalizedAnswer.of_number(18)


class TestGoldParsing:
    def test_number_with_delimiter(self):
        assert parse_gold_answer("Some steps.\n#### 18", AnswerType.NUMBER).value == 18
        assert parse_gold_answer("#### 1,234", AnswerType.NUMBER).value == 1234
        assert parse_gold_answer("#### -3.5", AnswerType.NUMBER).value == Decimal("-3.5")

    def test_number_without_delimiter(self):
        assert parse_gold_answer("42", AnswerType.NUMBER).value == 42
        assert parse_gold_answer("5.0", AnswerType.NUMBER).value == Decimal("5")

    def test_number_fraction(self):
        assert parse_gold_answer("1/4", AnswerType.NUMBER).value == Decimal("0.25")

    def test_option_forms(self):
        assert parse_gold_answer("B", AnswerType.OPTION).value == "B"
        assert parse_gold_answer("(c)", AnswerType.OPTION).value == "C"

    def test_yes_no_forms(self):
        assert parse_gold_answer("yes", AnswerType.YES_NO).value == "yes"
        assert parse_gold_answer("False", AnswerType.YES_NO).value == "no"
        assert parse_gold_answer("true", AnswerType.YES_NO).value == "yes"

    def test_string_lowercased(self):
        assert parse_gold_answer("NK", AnswerType.STRING).value == "nk"

    def test_unparseable_gold_is_an_error(self):
        with pytest.raises(DatasetFormatError):
            parse_gold_answer("no digits", AnswerType.NUMBER)
        with pytest.raises(DatasetFormatError):
            parse_gold_answer("maybe", AnswerType.YES_NO)


class TestFormats:
    def test_json_array(self, tmp_path):
        path = tmp_path / "data.json"
        path.write_text(json.dumps([{"question": "Q1?", "answer": "1"}]), encoding="utf-8")
        problems = load_dataset(path, "custom", answer_type=AnswerType.NUMBER)
        assert len(problems) == 1
        assert problems[0].question == "Q1?"

    def test_wrapper_object(self, tmp_path):
        path = tmp_path / "data.json"
        path.write_text(
            json.dumps({"examples": [{"question": "Q1?", "answer": "2"}]}), encoding="utf-8"
        )
        problems = load_dataset(path, "custom", answer_type=AnswerType.NUMBER)
        assert problems[0].gold.value == 2

    def test_empty_file_is_empty_dataset(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        assert load_dataset(path, "custom", answer_type=AnswerType.NUMBER) == []

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"question": "Q?", "answer": "1"}\n\n\n', encoding="utf-8")
        assert len(load_dataset(path, "custom", answer_type=AnswerType.NUMBER)) == 1

    def test_malformed_line_reports_position(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"question": "Q?", "answer": "1"}\n{broken\n', encoding="utf-8")
        with pytest.raises(DatasetFormatError) as excinfo:
            load_dataset(path, "custom", answer_type=AnswerType.NUMBER)
        assert ":2:" in str(excinfo.value)

    @pytest.mark.parametrize(
        "text, loaded",
        [
            ('{"examples": [%s, %s]}' % (Q1, Q2), [("00001", "Q1?"), ("00002", "Q2?")]),
            (json.dumps({"examples": [RECORD1]}, indent=2), [("00001", "Q1?")]),
            (json.dumps(RECORD1, indent=2), "JSON object has no recognizable record list"),
            # One record holding a record list reads as a wrapper; two records do not.
            (json.dumps({**RECORD1, "data": [RECORD2]}) + "\n", [("00001", "Q2?")]),
            (
                json.dumps({**RECORD1, "data": [RECORD2]}) + "\n" + Q2,
                [("00001", "Q1?"), ("00002", "Q2?")],
            ),
            ("\r\n%s\r\n\r\n%s\r\n" % (Q1, Q2), [("00002", "Q1?"), ("00004", "Q2?")]),
            ("%s\r%s" % (Q1, Q2), [("00001", "Q1?"), ("00002", "Q2?")]),
            ("%s\n\n{broken\n%s\n" % (Q1, Q2), ":3: invalid JSON"),
            ("\n{broken\n", ":2: invalid JSON"),
            ("\ufeff%s\n%s\n" % (Q1, Q2), [("00001", "Q1?"), ("00002", "Q2?")]),
            ("\ufeff[%s, %s]" % (Q1, Q2), [("00001", "Q1?"), ("00002", "Q2?")]),
            ("%s\n%s\n" % (Q1, DEEP), ":2: invalid JSON: JSON nested too deeply"),
            (DEEP, "invalid JSON array in .*: JSON nested too deeply"),
        ],
        ids=[
            "compact-wrapper",
            "pretty-wrapper",
            "pretty-object-without-records",
            "one-record-with-data-list",
            "two-records-first-with-data-list",
            "blank-lines-and-crlf",
            "cr",
            "malformed-line",
            "malformed-first-line",
            "jsonl-with-bom",
            "array-with-bom",
            "line-nested-too-deeply",
            "array-nested-too-deeply",
        ],
    )
    def test_format_matrix(self, tmp_path, text, loaded):
        path = tmp_path / "data.jsonl"
        path.write_bytes(text.encode("utf-8"))
        if isinstance(loaded, str):
            with pytest.raises(DatasetFormatError, match=loaded):
                load_dataset(path, "custom", answer_type=AnswerType.NUMBER)
            return
        problems = load_dataset(path, "custom", answer_type=AnswerType.NUMBER)
        assert [(p.id, p.question) for p in problems] == [
            (f"custom-{number}", question) for number, question in loaded
        ]

    @pytest.mark.parametrize(
        "head, separator, tail, line",
        [("", "\n", "\n", 400), ("", "\r", "", 400), ("[\n", ",\n", "\n]", 401)],
        ids=["jsonl", "cr", "array"],
    )
    def test_bytes_that_are_not_utf8_name_their_line(self, tmp_path, head, separator, tail, line):
        # Far past the first line: the file is decoded a chunk at a time.
        rows = [json.dumps({"question": f"Q{i}? " + "x" * 60, "answer": "1"}) for i in range(500)]
        data = (head + separator.join(rows) + tail).encode("utf-8")
        path = tmp_path / "data.jsonl"
        path.write_bytes(data.replace(b"Q399?", b"Q\xff?"))
        with pytest.raises(DatasetFormatError, match=f"^{re.escape(str(path))}:{line}: not UTF-8"):
            load_dataset(path, "custom", answer_type=AnswerType.NUMBER)

    @pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\u0085"])
    def test_line_separator_inside_a_question(self, tmp_path, separator):
        # JSON Lines ends a line at "\n" only; str.splitlines also breaks at these.
        question = f"Tom has 3 apples.{separator}How many?"
        record = json.dumps({"question": question, "answer": "3"}, ensure_ascii=False)
        path = tmp_path / "data.jsonl"
        path.write_text(f"{Q1}\n{record}\n{Q2}\n", encoding="utf-8")
        problems = load_dataset(path, "custom", answer_type=AnswerType.NUMBER)
        assert [p.id for p in problems] == ["custom-00001", "custom-00002", "custom-00003"]
        assert problems[1].question == question

    @pytest.mark.parametrize("gold", ["#### NaN", "#### Infinity", "-inf", "sNaN", "1e999999999"])
    def test_gold_that_grade_cannot_compare_reports_its_line(self, tmp_path, gold):
        # NaN would stop `grade`, Infinity would grade every number correct,
        # and 1e999999999 would overflow the difference `grade` takes.
        path = tmp_path / "data.jsonl"
        rows = [{"question": "Q?", "answer": "1"}, {"question": "R?", "answer": gold}]
        path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        with pytest.raises(DatasetFormatError) as excinfo:
            load_dataset(path, "custom", answer_type=AnswerType.NUMBER)
        assert f"{path}:2:" in str(excinfo.value)

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_gold_number_that_is_not_finite_reports_its_line(self, tmp_path, token):
        path = tmp_path / "data.jsonl"
        path.write_text(f'{Q1}\n{{"question": "R?", "answer": {token}}}\n', encoding="utf-8")
        with pytest.raises(DatasetFormatError) as excinfo:
            load_dataset(path, "custom", answer_type=AnswerType.NUMBER)
        assert str(excinfo.value).startswith(f"{path}:2: gold is not a number")

    @pytest.mark.parametrize(
        "refused, message",
        [
            (lambda tmp: parse_gold_answer("", AnswerType.NUMBER), "empty gold answer"),
            (
                lambda tmp: parse_gold_answer("A or B", AnswerType.OPTION),
                "gold is not a single option letter: 'A or B'",
            ),
            (lambda tmp: parse_gold_answer(" ", AnswerType.STRING), "empty string gold"),
            (
                lambda tmp: load_text(tmp, '{"question": "Q?", "answer": []}\n'),
                "{tmp}/data.jsonl:1: missing field empty answer list",
            ),
            (
                lambda tmp: load_dataset(tmp / "missing.jsonl", "custom", AnswerType.NUMBER),
                "cannot read dataset file {tmp}/missing.jsonl",
            ),
            (
                lambda tmp: load_text(tmp, f"[{Q1}, 3]"),
                "{tmp}/data.jsonl:2: record is not an object",
            ),
            (
                lambda tmp: load_text(
                    tmp, '{"question": "Q?", "options": 5, "correct": "B"}', "aqua"
                ),
                "{tmp}/data.jsonl:1: bad options: 'int' object is not iterable",
            ),
        ],
        ids=[
            "empty-gold",
            "not-one-option-letter",
            "empty-string-gold",
            "empty-answer-list",
            "unreadable-file",
            "record-not-an-object",
            "bad-options",
        ],
    )
    def test_a_refusal_names_its_fault(self, tmp_path, refused, message):
        with pytest.raises(DatasetFormatError, match=re.escape(message.format(tmp=tmp_path))):
            refused(tmp_path)

    def test_missing_field_reports_record(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"question": "Q?"}\n', encoding="utf-8")
        with pytest.raises(DatasetFormatError) as excinfo:
            load_dataset(path, "custom", answer_type=AnswerType.NUMBER)
        assert "answer" in str(excinfo.value)


class TestKnownDatasets:
    def test_unknown_dataset_needs_answer_type(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"question": "Q?", "answer": "1"}\n', encoding="utf-8")
        with pytest.raises(DatasetFormatError):
            load_dataset(path, "mystery")

    def test_canonical_ids(self):
        assert canonical_dataset_id("GSM8K") == "gsm8k"
        assert canonical_dataset_id("Last Letters") == "last_letters"
        assert canonical_dataset_id("coin-flip") == "coin_flip"

    def test_every_known_dataset_has_a_spec(self):
        assert set(DATASET_SPECS) == {
            "gsm8k",
            "multiarith",
            "addsub",
            "svamp",
            "singleeq",
            "aqua",
            "last_letters",
            "coin_flip",
            "strategyqa",
            "csqa",
        }

    def test_gsm8k_shape(self, tmp_path):
        path = tmp_path / "gsm8k.jsonl"
        path.write_text(
            json.dumps({"question": "Q?", "answer": "steps\n#### 7"}) + "\n", encoding="utf-8"
        )
        problems = load_dataset(path, "gsm8k")
        assert problems[0].gold.value == 7

    def test_count_mismatch_warns_but_loads(self, tmp_path, caplog):
        path = tmp_path / "gsm8k.jsonl"
        path.write_text(
            json.dumps({"question": "Q?", "answer": "#### 7"}) + "\n", encoding="utf-8"
        )
        with caplog.at_level(logging.WARNING):
            problems = load_dataset(path, "gsm8k")
        assert len(problems) == 1
        assert any("expected 1319" in message for message in caplog.messages)

    def test_svamp_body_question_join(self, tmp_path):
        path = tmp_path / "svamp.json"
        path.write_text(
            json.dumps(
                [{"Body": "There are 5 birds.", "Question": "How many wings?", "Answer": 10, "ID": "sv-1"}]
            ),
            encoding="utf-8",
        )
        problems = load_dataset(path, "svamp")
        assert problems[0].question == "There are 5 birds. How many wings?"
        assert problems[0].id == "sv-1"

    def test_multiarith_list_answer(self, tmp_path):
        path = tmp_path / "multiarith.json"
        path.write_text(
            json.dumps([{"sQuestion": "Q?", "lSolutions": [12.0], "iIndex": 3}]),
            encoding="utf-8",
        )
        problems = load_dataset(path, "multiarith")
        assert problems[0].id == "3"
        assert problems[0].gold.value == 12

    def test_aqua_options_folded_into_question(self, tmp_path):
        path = tmp_path / "aqua.jsonl"
        record = {
            "question": "What is 2+3?",
            "options": ["A)4", "B)5", "C)6", "D)7", "E)8"],
            "correct": "B",
        }
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        problems = load_dataset(path, "aqua")
        problem = problems[0]
        assert problem.gold.value == "B"
        assert problem.options is not None and len(problem.options) == 5
        assert "Answer Choices:" in problem.question
        assert "(B) 5" in problem.question

    def test_csqa_nested_fields(self, tmp_path):
        path = tmp_path / "csqa.jsonl"
        record = {
            "id": "q1",
            "answerKey": "C",
            "question": {
                "stem": "Where do books live?",
                "choices": [
                    {"label": "A", "text": "kitchen"},
                    {"label": "B", "text": "garden"},
                    {"label": "C", "text": "library"},
                ],
            },
        }
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        problems = load_dataset(path, "csqa")
        assert problems[0].id == "q1"
        assert problems[0].gold.value == "C"
        assert "(C) library" in problems[0].question

    def test_strategyqa_boolean_answer(self, tmp_path):
        path = tmp_path / "strategyqa.jsonl"
        record = {"qid": "s1", "question": "Is fire hot?", "answer": True}
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        problems = load_dataset(path, "strategyqa")
        assert problems[0].gold.value == "yes"
        assert problems[0].id == "s1"


class TestManifest:
    def test_paths_resolved_relative_to_manifest(self):
        manifest = load_manifest(DATA_DIR / "manifest.json")
        assert "synth10" in manifest
        assert manifest["synth10"]["path"] == str(SYNTH_DATASET.resolve())

    def test_load_from_manifest(self):
        manifest = load_manifest(DATA_DIR / "manifest.json")
        problems = load_from_manifest(manifest, "synth10")
        assert len(problems) == 10

    def test_unknown_dataset_rejected(self):
        manifest = load_manifest(DATA_DIR / "manifest.json")
        with pytest.raises(DatasetFormatError):
            load_from_manifest(manifest, "nope")

    def test_entry_without_path_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"datasets": {"x": {}}}), encoding="utf-8")
        with pytest.raises(DatasetFormatError):
            load_manifest(path)

    @pytest.mark.parametrize(
        "manifest, fault",
        [
            ([{"path": "data.jsonl"}], "expected an object of datasets"),
            ("data.jsonl", "expected an object of datasets"),
            ({"mine": {"path": "data.jsonl", "field_map": 5}}, "entry 'mine': field_map must be an object"),
            (
                {"mine": {"path": "data.jsonl", "answer_type": "bogus"}},
                "entry 'mine': 'bogus' is not a valid AnswerType",
            ),
            ({"mine": {"path": 5}}, "entry 'mine' needs a 'path' string"),
            (
                {"mine": {"path": "data.jsonl", "field_map": {"question": 5}}},
                "entry 'mine': field_map paths must be strings",
            ),
        ],
        ids=["array", "string", "field-map-number", "answer-type", "path-number", "question-number"],
    )
    def test_malformed_manifest_names_itself_and_the_entry(self, tmp_path, manifest, fault):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(DatasetFormatError) as raised:
            load_from_manifest(load_manifest(path), "mine")
        assert str(raised.value) == f"manifest {path}: {fault}"

    def test_manifest_nested_too_deeply_names_itself(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(DEEP, encoding="utf-8")
        with pytest.raises(DatasetFormatError, match=f"cannot read manifest {re.escape(str(path))}"):
            load_manifest(path)

    def test_field_map_override(self, tmp_path):
        data = tmp_path / "data.jsonl"
        data.write_text(json.dumps({"q": "Q?", "a": "9", "key": "k1"}) + "\n", encoding="utf-8")
        manifest_path = tmp_path / "manifest.json"
        manifest_path.write_text(
            json.dumps(
                {
                    "datasets": {
                        "mine": {
                            "path": "data.jsonl",
                            "answer_type": "number",
                            "field_map": {"question": "q", "answer": "a", "id": "key"},
                        }
                    }
                }
            ),
            encoding="utf-8",
        )
        problems = load_from_manifest(load_manifest(manifest_path), "mine")
        assert problems[0].id == "k1"
        assert problems[0].gold.value == 9


class TestProblemInvariants:
    def test_question_required(self):
        with pytest.raises(InvalidInputError):
            Problem(
                id="p",
                dataset="d",
                question="",
                gold_raw="1",
                gold=NormalizedAnswer.of_number(1),
                answer_type=AnswerType.NUMBER,
            )

    def test_gold_kind_must_match(self):
        with pytest.raises(InvalidInputError):
            Problem(
                id="p",
                dataset="d",
                question="Q?",
                gold_raw="B",
                gold=NormalizedAnswer.of_option("B"),
                answer_type=AnswerType.NUMBER,
            )

    def test_option_problems_need_choices(self):
        with pytest.raises(InvalidInputError):
            Problem(
                id="p",
                dataset="d",
                question="Q?",
                gold_raw="B",
                gold=NormalizedAnswer.of_option("B"),
                answer_type=AnswerType.OPTION,
                options=(("B", "only one"),),
            )
        with pytest.raises(InvalidInputError):
            Problem(
                id="p",
                dataset="d",
                question="Q?",
                gold_raw="B",
                gold=NormalizedAnswer.of_option("B"),
                answer_type=AnswerType.OPTION,
                options=(("B", "x"), ("B", "y")),
            )
