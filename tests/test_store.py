"""The persisted-file codec: round trips, the file format, and files written
by the previous format (tests/data/parent_run, a trimmed copy of a run over
synthetic_number.jsonl with mock_dup.json and a cache directory)."""

import ast
import dataclasses
import json
import os
import shutil
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dup.gateway import (
    ChatRequest,
    ChatResponse,
    Gateway,
    MockBackend,
    build_messages,
    cache_key,
)
from dup.error_analysis import ErrorCategory, ErrorReport
from dup.grading import GradedResult, NormalizedAnswer
from dup.consistency import Vote
from dup.prompts import MethodVariant, render_core_question_prompt
from dup.reporting import Report, compare_runs, load_report
from dup.runner import (
    RunConfig,
    StageConfig,
    StageRecord,
    Transcript,
    build_run_gateway,
    load_transcript,
    run_experiment,
    stored_config,
)
import dup.store as store_module
from dup.store import decode, dumps, encode, read, write, write_text

from conftest import DATA_DIR, cache_rows, make_run_config
from oracles import oracle_encode

PARENT_RUN = DATA_DIR / "parent_run"

texts = st.text(max_size=12)
opt_texts = st.none() | texts
ints = st.integers(min_value=-(10**9), max_value=10**9)
floats = st.floats(allow_nan=False, allow_infinity=False)
json_values = st.recursive(
    st.none() | st.booleans() | ints | floats | texts,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(texts, inner, max_size=3),
    max_leaves=8,
)
json_objects = st.dictionaries(texts, json_values, max_size=4)

answers = st.one_of(
    st.decimals(allow_nan=False, allow_infinity=False).map(NormalizedAnswer.of_number),
    st.sampled_from("ABCDE").map(NormalizedAnswer.of_option),
    st.sampled_from(["yes", "no"]).map(NormalizedAnswer.of_yes_no),
    texts.map(NormalizedAnswer.of_string),
)

RUN_CONFIG_FIELDS = dict(
    dataset=texts,
    method=st.sampled_from(MethodVariant),
    stages=st.builds(StageConfig, st.booleans(), st.booleans(), st.booleans()),
    model=texts,
    extractor_model=opt_texts,
    temperature=floats,
    n_samples=ints,
    max_problems=st.none() | ints,
    seed=ints,
    cache_dir=opt_texts,
    out_dir=texts,
    dataset_path=opt_texts,
    manifest=opt_texts,
    answer_type=opt_texts,
    max_tokens=ints,
    system_message=opt_texts,
    workers=ints,
    last_letter_simplified=st.none() | st.booleans(),
    backend=texts,
    base_url=opt_texts,
    mock_script=st.none() | texts | json_objects,
)

records = st.builds(
    StageRecord,
    stage=texts,
    prompt=texts,
    response=opt_texts,
    artifact=opt_texts,
    sample_index=ints,
    duration_s=floats,
    cached=st.booleans(),
    prompt_tokens=ints,
    completion_tokens=ints,
    error=opt_texts,
)
graded = st.builds(
    GradedResult,
    problem_id=texts,
    predicted=answers,
    correct=st.booleans(),
    extraction_source=st.sampled_from(["llm", "rule_fallback"]),
) | st.builds(
    GradedResult,
    problem_id=texts,
    predicted=st.none(),
    correct=st.just(False),
    extraction_source=st.just("none"),
)
transcripts = st.builds(
    Transcript,
    problem_id=texts,
    dataset=texts,
    method=texts,
    stages=st.dictionaries(texts, st.booleans(), max_size=3),
    records=st.lists(records, max_size=4),
    votes=st.lists(st.builds(Vote, sample_index=ints, answer=st.none() | answers), max_size=3),
    predicted=st.none() | answers,
    graded=st.none() | graded,
    errors=st.lists(texts, max_size=2),
    completed=st.booleans(),
    started_at=texts,
    finished_at=opt_texts,
)
reports = st.builds(
    Report,
    dataset=texts,
    method=texts,
    model=texts,
    config=json_objects,
    total=ints,
    correct=ints,
    accuracy=floats,
    per_problem=st.lists(json_objects, max_size=3),
    usage=st.dictionaries(texts, ints, max_size=4),
    started_at=texts,
    finished_at=texts,
)

responses = st.builds(
    ChatResponse,
    # A reply that holds nothing but whitespace is not a valid response.
    content=st.text(min_size=1, max_size=12).filter(str.strip),
    finish_reason=st.sampled_from(["stop", "length", "error"]),
    # Nor is a negative token count.
    prompt_tokens=st.integers(0, 10**9),
    completion_tokens=st.integers(0, 10**9),
    cached=st.booleans(),
)
stored_values = st.one_of(
    st.builds(RunConfig, **RUN_CONFIG_FIELDS).map(lambda v: (RunConfig, v)),
    transcripts.map(lambda v: (Transcript, v)),
    reports.map(lambda v: (Report, v)),
    responses.map(lambda v: (ChatResponse, v)),
)


def round_trip(cls, obj):
    return decode(cls, json.loads(dumps(obj)))


class TestRoundTrip:
    def test_run_config_strategy_covers_every_field(self):
        assert set(RUN_CONFIG_FIELDS) == {f.name for f in dataclasses.fields(RunConfig)}

    @given(st.builds(RunConfig, **RUN_CONFIG_FIELDS))
    def test_run_config(self, config):
        assert round_trip(RunConfig, config) == config

    @given(transcripts)
    def test_transcript(self, transcript):
        assert round_trip(Transcript, transcript) == transcript

    @given(reports)
    def test_report(self, report):
        assert round_trip(Report, report) == report

    def test_missing_fields_take_defaults_and_unknown_keys_are_ignored(self):
        assert decode(RunConfig, {"dataset": "d", "retired_option": 1}) == RunConfig(dataset="d")


    @pytest.mark.parametrize(
        "stored",
        [
            {"kind": "number", "value": "abc"},
            {"kind": "number", "value": ""},
            {"kind": "number", "value": [18]},
            {"kind": "option", "value": 1},
        ],
    )
    def test_an_answer_that_does_not_fit_its_kind_raises_value_error(self, stored):
        with pytest.raises(ValueError):
            decode(NormalizedAnswer, stored)

    def test_the_store_imports_nothing_from_the_package(self):
        tree = ast.parse(Path(store_module.__file__).read_text(encoding="utf-8"))
        imported = [
            node.module or ""
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("dup"))
        ]
        assert imported == []


class TestEncoder:
    @given(stored_values)
    def test_agrees_with_the_reference_walk(self, cls_and_value):
        cls, value = cls_and_value
        expected = oracle_encode(value)
        assert dumps(value) == json.dumps(expected, sort_keys=True) + "\n"
        assert encode(value) == expected
        assert round_trip(cls, value) == value
        with tempfile.TemporaryDirectory() as tmp:
            write(Path(tmp) / "f.json", value)
            assert (Path(tmp) / "f.json").read_bytes() == dumps(value).encode("utf-8")

    @settings(max_examples=50, deadline=None)  # two cache databases per example
    @given(responses)
    def test_cache_row_agrees_with_the_reference_walk(self, response):
        class Backend:
            def send(self, request):
                return response

        req = ChatRequest(model="m", messages=build_messages("q"))
        with tempfile.TemporaryDirectory() as tmp:
            gateway = Gateway(backend=Backend(), cache_dir=Path(tmp))
            assert gateway.complete_cached(req) is response
            gateway.close()
            saved = {k: v for k, v in oracle_encode(response).items() if k != "cached"}
            row = json.dumps({"response": saved}, sort_keys=True) + "\n"
            assert cache_rows(tmp) == {cache_key(req): row}
            gateway = Gateway(backend=MockBackend({"default": "fresh"}), cache_dir=Path(tmp))
            served = gateway.complete_cached(req)
            gateway.close()
        assert served == dataclasses.replace(response, cached=True)


class TestWriteText:
    TEXT = "line\r\nnext\rlast\n" + "é中😀\"\\\x00" * 700

    def test_bytes_on_disk_are_the_utf8_text(self, tmp_path):
        target = tmp_path / "t.json"
        write_text(target, self.TEXT)
        assert target.read_bytes() == self.TEXT.encode("utf-8")

    def test_short_writes_are_continued(self, tmp_path, monkeypatch):
        real_write = os.write
        sizes = []

        def short_write(fd, data):
            sizes.append(real_write(fd, data[:1000]))
            return sizes[-1]

        monkeypatch.setattr(store_module.os, "write", short_write)
        target = tmp_path / "t.json"
        write_text(target, self.TEXT)
        monkeypatch.undo()
        data = self.TEXT.encode("utf-8")
        assert len(sizes) == -(-len(data) // 1000) > 1
        assert target.read_bytes() == data

    def test_failed_write_keeps_the_old_file_and_no_temp_file(self, tmp_path, monkeypatch):
        target = tmp_path / "t.json"
        write_text(target, "old\n")

        def no_space(fd, data):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(store_module.os, "write", no_space)
        with pytest.raises(OSError):
            write_text(str(target), self.TEXT)
        monkeypatch.undo()
        assert [p.name for p in tmp_path.iterdir()] == ["t.json"]
        assert target.read_text(encoding="utf-8") == "old\n"

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_mode_is_what_path_write_text_gives(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            write_text(tmp_path / "raw", "x")
            (tmp_path / "path").write_text("x", encoding="utf-8")
        finally:
            os.umask(old)
        assert (tmp_path / "raw").stat().st_mode == (tmp_path / "path").stat().st_mode


class TestFileFormat:
    def test_every_run_file_is_compact_sorted_json(self, tmp_path):
        config = make_run_config(
            tmp_path, DATA_DIR / "mock_dup.json", cache_dir=str(tmp_path / "cache")
        )
        run_experiment(config, build_run_gateway(config))
        files = [
            tmp_path / "out" / "config.json",
            tmp_path / "out" / "report.json",
            *(tmp_path / "out" / "transcripts").iterdir(),
        ]
        assert len(files) == 2 + 10
        texts = {path.name: path.read_text(encoding="utf-8") for path in files}
        rows = cache_rows(tmp_path / "cache")
        assert len(rows) == 40
        for name, text in {**texts, **rows}.items():
            assert text == json.dumps(json.loads(text), sort_keys=True) + "\n", name
        leftovers = [p for p in tmp_path.rglob("*") if p.name.endswith(".tmp")]
        assert leftovers == []

    def test_write_is_dumps_without_holding_the_text(self, tmp_path):
        rows = [
            {
                "correct": i % 3 == 0,
                "errors": [f"answer: réponse {i} \u2028 lost"] if i % 7 == 0 else [],
                "extraction_source": "llm",
                "predicted": encode(NormalizedAnswer.of_number(i)),
                "problem_id": f"gen-{i:05d}",
            }
            for i in range(1000)
        ]
        config = make_run_config(tmp_path, DATA_DIR / "mock_dup.json")
        report = Report(
            dataset="gen",
            method="dup",
            model="m",
            config=encode(config),
            total=1000,
            correct=334,
            accuracy=33.4,
            per_problem=rows,
            usage={"calls": 4000},
        )
        errors = ErrorReport(dataset="gen", method="dup", total_failures=1, sample_size=2)
        errors.counts[ErrorCategory.STEP_MISSING] = 1
        errors.details.append({"problem_id": "gen-00001", "judge_reply": "3. Step-missing é"})
        for value in (config, errors, report):
            write(tmp_path / "f.json", value)
            assert (tmp_path / "f.json").read_bytes() == dumps(value).encode("utf-8")
        text = dumps(report)
        assert len(text) > 100_000
        tracemalloc.start()
        try:
            write(tmp_path / "f.json", report)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(text) / 2  # the report's text is never held whole

    def test_failed_write_keeps_the_old_file_and_no_temp_file(self, tmp_path, monkeypatch):
        target = tmp_path / "config.json"
        write(target, {"seed": 1})

        def no_space(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(store_module.os, "replace", no_space)
        with pytest.raises(OSError):
            write(target, {"seed": 2})
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]
        assert read(target) == {"seed": 1}


class TestParentFormat:
    def test_stored_config(self):
        assert stored_config(PARENT_RUN) == RunConfig(
            dataset="synth10",
            dataset_path="tests/data/synthetic_number.jsonl",
            answer_type="number",
            backend="mock",
            mock_script="tests/data/mock_dup.json",
            cache_dir="cache",
            out_dir="out",
            workers=1,
        )

    def test_load_transcript(self):
        transcript = load_transcript(PARENT_RUN, "synth10-00001")
        assert transcript is not None
        assert [r.stage for r in transcript.records] == [
            "core_question",
            "solving_info",
            "answer",
            "extraction",
        ]
        assert transcript.predicted == NormalizedAnswer.of_number(18)
        assert transcript.graded.correct and transcript.graded.extraction_source == "llm"
        # Re-encoding reproduces the stored content exactly.
        stored = json.loads((PARENT_RUN / "transcripts" / "synth10-00001.json").read_text())
        assert json.loads(dumps(transcript)) == stored

    def test_load_report_and_compare_with_a_new_run(self, tmp_path):
        parent = load_report(PARENT_RUN)
        assert (parent.total, parent.correct, parent.accuracy) == (10, 7, 70.0)
        config = make_run_config(tmp_path, DATA_DIR / "mock_dup.json")
        report = run_experiment(config, build_run_gateway(config))
        assert compare_runs(parent, report).delta == 0.0
        assert report.per_problem == parent.per_problem
        assert report.usage == parent.usage
        stored = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
        parent_keys = json.loads((PARENT_RUN / "report.json").read_text(encoding="utf-8"))
        assert set(parent_keys) - set(stored) == {"accuracy_raw"}

    def test_cache_files_of_the_old_layout_are_ignored(self, tmp_path, synthetic_problems):
        # An older version wrote one file per response; the SQLite cache
        # neither serves nor moves such files.
        shutil.copytree(PARENT_RUN / "cache", tmp_path / "cache")
        prompt = render_core_question_prompt(synthetic_problems[0].question)
        request = ChatRequest(model="gpt-3.5-turbo", messages=build_messages(prompt))
        backend = MockBackend({"default": "fresh"})
        response = Gateway(backend=backend, cache_dir=tmp_path / "cache").complete_cached(request)
        assert (backend.calls, response.content, response.cached) == (1, "fresh", False)
        assert (tmp_path / "cache" / cache_key(request)).exists()

    def test_cache_row_holds_what_the_file_held(self, tmp_path, synthetic_problems, dup_script):
        # The same exchange, completed afresh, is stored as the response the
        # one-file-per-entry layout wrote for it, re-encoded compactly,
        # without the request that layout echoed beside it.
        prompt = render_core_question_prompt(synthetic_problems[0].question)
        request = ChatRequest(
            model="gpt-3.5-turbo",
            messages=build_messages(prompt),
            tag=f"core_question:{synthetic_problems[0].id}",
        )
        gateway = Gateway(backend=MockBackend(dup_script), cache_dir=tmp_path)
        gateway.complete_cached(request)
        gateway.commit()
        digest = cache_key(request)
        stored = read(PARENT_RUN / "cache" / digest)
        assert set(stored) == {"request", "response"}
        assert cache_rows(tmp_path) == {digest: dumps({"response": stored["response"]})}
