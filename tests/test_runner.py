"""Pipeline orchestration: call shapes, ablation, resume, containment."""

import _thread
import gc
import itertools
import json
import math
import re
import sqlite3
import sys
import tempfile
import threading
import time
import weakref
from contextlib import closing
from dataclasses import replace
from datetime import datetime, timedelta, timezone
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dup.gateway as gateway_module
import dup.runner as runner_module
from dup.datasets import load_dataset
from dup.exceptions import (
    DupError,
    InvalidInputError,
    MalformedResponseError,
    TransientBackendError,
)
from dup.gateway import (
    CACHE_FILE,
    ChatResponse,
    Gateway,
    HttpBackend,
    MockBackend,
    build_messages,
)
from dup.grading import NormalizedAnswer
from dup.prompts import (
    COT_INSTRUCTION,
    LAST_LETTER_INSTRUCTION,
    SOLVE_INSTRUCTION,
    AnswerType,
    MethodVariant,
    render_answer_extraction_prompt,
)
from dup.reporting import build_report, recount, report_row
from dup.runner import (
    MAX_SAMPLE_THREADS,
    RunConfig,
    StageConfig,
    Transcript,
    build_run_gateway,
    load_run,
    load_transcript,
    resolve_method,
    run_experiment,
    run_problem,
    select_problems,
    transcript_path,
)
from dup.store import decode, dumps

from conftest import SYNTH_DATASET, SYNTH_IDS, cache_rows, comparable, make_run_config


def correct_script(problems):
    script = {"by_tag": {}}
    for p in problems:
        script["by_tag"][f"core_question:{p.id}"] = "core question text"
        script["by_tag"][f"solving_info:{p.id}"] = "1. useful fact"
        script["by_tag"][f"answer:{p.id}"] = f"Reasoning. The answer is {p.gold.value}."
        script["by_tag"][f"extraction:{p.id}"] = str(p.gold.value)
    return script


def sc_correct_script(problems, n_samples):
    """`correct_script` with each answer and extraction tag per sample."""
    script = correct_script(problems)
    for p in problems:
        for stage in ("answer", "extraction"):
            text = script["by_tag"].pop(f"{stage}:{p.id}")
            for i in range(n_samples):
                script["by_tag"][f"{stage}:{p.id}#{i}"] = text
    return script


class SleepingMock(MockBackend):
    """A mock that takes `delay_s` per send, or `delays[tag]`, and fails the
    first send of each tag in `fail_once` with a retryable error. It records
    the most sends in flight and, in `sent`, the tag of every send in order."""

    def __init__(self, script, delay_s, delays=None, fail_once=()):
        super().__init__(script)
        self.delay_s = delay_s
        self.delays = delays or {}
        self.fail_once = set(fail_once)
        self.in_flight = self.peak = 0
        self.sent = []

    def send(self, request):
        with self._lock:
            self.sent.append(request.tag)
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
            fail = request.tag in self.fail_once
            self.fail_once.discard(request.tag)
        time.sleep(self.delays.get(request.tag, self.delay_s))
        with self._lock:
            self.in_flight -= 1
        if fail:
            raise TransientBackendError(f"{request.tag} fails once", status=503)
        return super().send(request)


# Gateway calls per problem: one per enabled understanding stage, one
# answer completion, one model-based extraction.
CALL_SHAPE = {
    (False, False, False): 2,
    (True, False, False): 3,
    (False, True, False): 3,
    (False, False, True): 2,
    (True, True, False): 4,
    (True, False, True): 3,
    (False, True, True): 3,
    (True, True, True): 4,
}


class TestCallShape:
    @pytest.mark.parametrize("stages", sorted(CALL_SHAPE), ids=lambda s: "".join("1" if f else "0" for f in s))
    def test_ablation_combinations(self, synthetic_problems, stages):
        problem = synthetic_problems[0]
        backend = MockBackend({"default": "The answer is 18"})
        config = RunConfig(dataset="synth10", stages=StageConfig(*stages))
        run_problem(problem, config, Gateway(backend=backend))
        assert backend.calls == CALL_SHAPE[stages]

    @pytest.mark.parametrize(
        "method, expected",
        [(MethodVariant.DUP_S, 2), (MethodVariant.ZERO_SHOT_COT, 2), (MethodVariant.LAST_LETTER_SIMPLIFIED, 2)],
    )
    def test_single_prompt_methods(self, synthetic_problems, method, expected):
        backend = MockBackend({"default": "The answer is 18"})
        config = RunConfig(dataset="synth10", method=method)
        run_problem(synthetic_problems[0], config, Gateway(backend=backend))
        assert backend.calls == expected


class TestPromptAssembly:
    def stage_prompts(self, problem, config):
        gateway = Gateway(
            backend=MockBackend(
                {"by_tag": {}, "default": "filler response with answer 18"}
            )
        )
        transcript = run_problem(problem, config, gateway)
        return {record.stage: record.prompt for record in transcript.records}

    def test_full_pipeline_threads_stage_outputs(self, synthetic_problems):
        problem = synthetic_problems[0]
        script = correct_script([problem])
        gateway = Gateway(backend=MockBackend(script))
        transcript = run_problem(problem, RunConfig(dataset="synth10"), gateway)
        prompts = {record.stage: record.prompt for record in transcript.records}
        assert prompts["core_question"].startswith(problem.question)
        assert "related to the core question core question text," in prompts["solving_info"]
        assert prompts["answer"] == (
            f"{problem.question}\nHint: 1. useful fact\ncore question text\n{SOLVE_INSTRUCTION}"
        )
        assert transcript.graded.correct

    def test_stage2_without_stage1_uses_original_question(self, synthetic_problems):
        problem = synthetic_problems[0]
        config = RunConfig(dataset="synth10", stages=StageConfig(stage1=False))
        prompts = self.stage_prompts(problem, config)
        assert "core_question" not in prompts
        assert f"related to the core question {problem.question}," in prompts["solving_info"]

    def test_cot_prompt(self, synthetic_problems):
        problem = synthetic_problems[0]
        config = RunConfig(dataset="synth10", method=MethodVariant.ZERO_SHOT_COT)
        prompts = self.stage_prompts(problem, config)
        assert prompts["answer"] == f"{problem.question}\n{COT_INSTRUCTION}"

    def test_dup_s_extraction_reads_answer_segment(self, synthetic_problems):
        problem = synthetic_problems[0]
        response = "1. Core question.\n2. Facts.\n3. Total 5 * 9 = 45. The answer is 18."
        script = {
            "by_tag": {
                f"answer:{problem.id}": response,
                f"extraction:{problem.id}": "no idea",  # force the rule fallback
            }
        }
        gateway = Gateway(backend=MockBackend(script))
        config = RunConfig(dataset="synth10", method=MethodVariant.DUP_S)
        transcript = run_problem(problem, config, gateway)
        extraction = [r for r in transcript.records if r.stage == "extraction"][0]
        # The extraction prompt sees only the numbered answer segment.
        assert "3. Total 5 * 9 = 45." in extraction.prompt
        assert "1. Core question." not in extraction.prompt
        assert transcript.graded.correct  # rule fallback reads 18 off the segment

    def test_extractor_model_covers_understanding_stages_only(self, synthetic_problems):
        problem = synthetic_problems[0]
        models = {}

        class RecordingBackend(MockBackend):
            def send(self, request):
                models[request.tag] = request.model
                return super().send(request)

        backend = RecordingBackend({"default": "The answer is 18"})
        config = RunConfig(dataset="synth10", model="solver", extractor_model="reader")
        run_problem(problem, config, Gateway(backend=backend))
        assert models[f"core_question:{problem.id}"] == "reader"
        assert models[f"solving_info:{problem.id}"] == "reader"
        assert models[f"answer:{problem.id}"] == "solver"
        assert models[f"extraction:{problem.id}"] == "solver"

    def test_extraction_request_is_greedy_and_tagged(self, synthetic_problems):
        problem = synthetic_problems[0]
        script = sc_correct_script([problem], 3)
        for i in range(3):  # distinct reasoning texts, so each extraction is sent
            script["by_tag"][f"answer:{problem.id}#{i}"] = f"Path {i}. The answer is 18."
            script["by_tag"][f"extraction:{problem.id}#{i}"] = f"Path {i} gives 18."
        requests = {}

        class CapturingBackend(MockBackend):
            def send(self, request):
                requests[request.tag] = request
                return super().send(request)

        config = RunConfig(
            dataset="synth10",
            model="solver",
            extractor_model="reader",
            temperature=0.7,
            n_samples=3,
            system_message="Answer tersely.",
        )
        transcript = run_problem(problem, config, Gateway(backend=CapturingBackend(script)))
        extractions = [r for r in transcript.records if r.stage == "extraction"]
        assert [r.sample_index for r in extractions] == [0, 1, 2]
        for i, record in enumerate(extractions):
            request = requests[f"extraction:{problem.id}#{i}"]
            assert (request.temperature, request.sample_index) == (0.0, 0)
            assert request.model == "solver"
            assert request.messages == build_messages(record.prompt, "Answer tersely.")
            assert record.response == f"Path {i} gives 18."
            assert record.artifact == "18"


class TestMethodResolution:
    def test_last_letters_auto_simplifies(self):
        config = RunConfig(dataset="last_letters")
        assert resolve_method(config, "last_letters") is MethodVariant.LAST_LETTER_SIMPLIFIED
        assert resolve_method(config, "Last Letters") is MethodVariant.LAST_LETTER_SIMPLIFIED

    def test_other_datasets_unchanged(self):
        config = RunConfig(dataset="gsm8k")
        assert resolve_method(config, "gsm8k") is MethodVariant.DUP

    def test_override_keeps_full_pipeline(self):
        config = RunConfig(dataset="last_letters", last_letter_simplified=False)
        assert resolve_method(config, "last_letters") is MethodVariant.DUP

    def test_non_dup_methods_not_rewritten(self):
        config = RunConfig(dataset="last_letters", method=MethodVariant.ZERO_SHOT_COT)
        assert resolve_method(config, "last_letters") is MethodVariant.ZERO_SHOT_COT

    def test_simplified_prompt_used_on_last_letters(self, tmp_path):
        data = tmp_path / "last_letters.jsonl"
        data.write_text(
            json.dumps({"question": 'Last letters of "Ada Lovelace"?', "answer": "ae"}) + "\n",
            encoding="utf-8",
        )
        problems = load_dataset(data, "last_letters")
        script = {
            f"answer:{problems[0].id}": 'Taking each last letter gives "ae". The answer is "ae".',
            f"extraction:{problems[0].id}": '"ae"',
        }
        gateway = Gateway(backend=MockBackend({"by_tag": script}))
        transcript = run_problem(problems[0], RunConfig(dataset="last_letters"), gateway)
        assert transcript.method == "last-letter"
        answer_prompt = [r for r in transcript.records if r.stage == "answer"][0].prompt
        assert answer_prompt.endswith(LAST_LETTER_INSTRUCTION)
        assert transcript.graded.correct


class TestFailureContainment:
    def test_gateway_error_grades_incorrect_and_completes(self, synthetic_problems):
        problem = synthetic_problems[0]

        class DownBackend:
            def send(self, request):
                raise TransientBackendError("down", status=503)

        gateway = Gateway(backend=DownBackend(), max_retries=0)
        transcript = run_problem(problem, RunConfig(dataset="synth10"), gateway)
        assert transcript.completed
        assert transcript.graded is not None and not transcript.graded.correct
        assert transcript.predicted is None
        assert transcript.errors and "core_question" in transcript.errors[0]
        assert transcript.records[0].error is not None

    def test_run_continues_past_failing_problem(self, tmp_path, synthetic_problems):
        script = correct_script(synthetic_problems)
        # Remove one problem's answer entry: its pipeline dies, others don't.
        sacrificed = synthetic_problems[3].id
        del script["by_tag"][f"answer:{sacrificed}"]
        config = make_run_config(tmp_path, script)
        gateway = Gateway(backend=MockBackend(script))
        report = run_experiment(config, gateway)
        assert report.total == 10
        assert report.correct == 9
        row = next(r for r in report.per_problem if r["problem_id"] == sacrificed)
        assert row["correct"] is False
        assert row["errors"]

    def test_empty_reply_is_contained(self, tmp_path):
        config = make_run_config(tmp_path, {"default": ""})
        gateway = Gateway(backend=MockBackend({"default": ""}), max_retries=3)
        report = run_experiment(config, gateway)
        assert report.total == 10 and report.correct == 0
        assert gateway.backend.calls == 10  # one unretried send per problem
        for problem_id in SYNTH_IDS:
            transcript = load_transcript(config.out_dir, problem_id)
            assert transcript is not None and not transcript.graded.correct
            assert "core_question: invalid completion" in transcript.errors[0]


    @pytest.mark.parametrize(
        "stage, content, finish_reason, calls_before",
        [
            ("core_question", " \n", "stop", 0),
            ("answer", "", "length", 2),
            ("extraction", "\t", "stop", 3),
        ],
    )
    def test_a_blank_reply_fails_only_its_problem(
        self, tmp_path, dup_script, stage, content, finish_reason, calls_before
    ):
        blank_tag = f"{stage}:synth10-00002"

        class OneBlankReply(MockBackend):
            def send(self, request):
                if request.tag == blank_tag:
                    self.blank_sends += 1
                    return ChatResponse(content=content, finish_reason=finish_reason)
                return super().send(request)

        cache_dir = tmp_path / "cache"
        for run in ("first", "again"):  # the second run reads the first one's cache
            backend = OneBlankReply(dup_script)
            backend.blank_sends = 0
            config = make_run_config(tmp_path / run, dup_script)
            gateway = Gateway(backend=backend, cache_dir=cache_dir)
            report = run_experiment(config, gateway)
            gateway.close()
            assert report.total == 10
            errors = {row["problem_id"]: row["errors"] for row in report.per_problem}
            blank_error = f"{stage}: invalid completion: content must be text that is not blank"
            assert errors.pop("synth10-00002") == [blank_error]
            assert not any(errors.values())
            assert backend.blank_sends == 1  # never cached, so sent again
            # 9 problems of 4 calls, and synth10-00002's calls before the blank one.
            assert backend.calls == (36 + calls_before if run == "first" else 0)
        rows = cache_rows(cache_dir).values()
        assert all(json.loads(row)["response"]["content"].strip() for row in rows)

    def test_extraction_error_is_recorded(self, tmp_path, dup_script):
        del dup_script["by_tag"]["extraction:synth10-00002"]
        config = make_run_config(tmp_path, dup_script)
        report = run_experiment(config, Gateway(backend=MockBackend(dup_script)))
        transcript = load_transcript(config.out_dir, "synth10-00002")
        assert [r.stage for r in transcript.records] == [
            "core_question", "solving_info", "answer", "extraction"
        ]
        failed = transcript.records[-1]
        assert failed.error is not None and failed.response is None
        answer = transcript.records[-2].response
        assert failed.prompt == render_answer_extraction_prompt(answer, AnswerType.NUMBER)
        assert transcript.errors == [f"extraction: {failed.error}"]
        row = next(r for r in report.per_problem if r["problem_id"] == "synth10-00002")
        assert row["errors"] and row["correct"] is False

    @pytest.mark.parametrize("failing_stage", ["core_question", "extraction"])
    def test_errored_call_records_elapsed_time(self, synthetic_problems, failing_stage):
        problem = synthetic_problems[0]

        class SlowFailure(MockBackend):
            def send(self, request):
                if request.tag.startswith(failing_stage):
                    time.sleep(0.02)
                    raise TransientBackendError("down", status=503)
                return super().send(request)

        gateway = Gateway(backend=SlowFailure(correct_script([problem])), max_retries=0)
        transcript = run_problem(problem, RunConfig(dataset="synth10"), gateway)
        failed = transcript.records[-1]
        assert failed.stage == failing_stage and failed.error is not None
        assert failed.duration_s >= 0.02


class TestSelection:
    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "svamp.json"
        path.write_text(
            json.dumps(
                [
                    {"ID": "a", "Body": "Ann has 2 pens.", "Question": "How many?", "Answer": 2},
                    {"ID": "a", "Body": "Bo has 3 pens.", "Question": "How many?", "Answer": 3},
                ]
            ),
            encoding="utf-8",
        )
        config = make_run_config(
            tmp_path, {"default": "The answer is 2"}, dataset="svamp", dataset_path=str(path)
        )
        with pytest.raises(DupError, match="'a', 'a'"):
            run_experiment(config, Gateway(backend=MockBackend({"default": "The answer is 2"})))
        assert not (tmp_path / "out").exists()

    def test_ids_sharing_a_transcript_file_rejected(self, tmp_path):
        path = tmp_path / "custom.jsonl"
        path.write_text(
            "".join(
                json.dumps({"qid": qid, "question": "Q?", "answer": "yes"}) + "\n"
                for qid in ("a/b", "c", "a_b")
            ),
            encoding="utf-8",
        )
        assert transcript_path("o", "a/b") == transcript_path("o", "a_b")
        config = make_run_config(
            tmp_path, {}, dataset="strategyqa", dataset_path=str(path), answer_type=None
        )
        with pytest.raises(DupError, match="'a/b', 'a_b'"):
            load_run(config.out_dir, config)
        # Only selected problems must map to distinct files.
        _, problems, _ = load_run(config.out_dir, replace(config, max_problems=1))
        assert len(problems) == 1

    def test_no_limit_keeps_file_order(self, synthetic_problems):
        assert select_problems(synthetic_problems, None, seed=1) == synthetic_problems
        assert select_problems(synthetic_problems, 99, seed=1) == synthetic_problems

    def test_subsample_is_seeded_shuffle(self, synthetic_problems):
        first = select_problems(synthetic_problems, 4, seed=5)
        again = select_problems(synthetic_problems, 4, seed=5)
        other = select_problems(synthetic_problems, 4, seed=6)
        assert first == again
        assert len(first) == 4
        assert first != other or [p.id for p in first] != [p.id for p in other]
        # Shuffled, not a file-order prefix (holds for this seed).
        assert [p.id for p in first] != [p.id for p in synthetic_problems[:4]]


class TestStageConfig:
    def test_from_string(self):
        assert StageConfig.from_string("1,2,3") == StageConfig(True, True, True)
        assert StageConfig.from_string("1,3") == StageConfig(True, False, True)
        assert StageConfig.from_string("2") == StageConfig(False, True, False)
        assert StageConfig.from_string("none") == StageConfig(False, False, False)
        assert StageConfig.from_string("") == StageConfig(False, False, False)

    def test_bad_tokens_rejected(self):
        with pytest.raises(InvalidInputError):
            StageConfig.from_string("1,4")
        with pytest.raises(InvalidInputError):
            StageConfig.from_string("abc")


class TestRunGateway:
    def test_permit_covers_every_sample_of_every_worker(self, monkeypatch):
        # The budget, and the HTTP connection pool sized to match it.
        pools = []

        def http_backend(base_url, pool_size):
            pools.append(pool_size)
            return MockBackend({"default": "x"})

        monkeypatch.setattr(runner_module, "HttpBackend", http_backend)
        base = dict(dataset="d", backend="http", base_url="https://x", workers=3)
        configs = [
            RunConfig(**base),
            RunConfig(**base, n_samples=5, temperature=0.7),
            RunConfig(**base, n_samples=40, temperature=0.7),
        ]
        expected = [3, 15, 3 * MAX_SAMPLE_THREADS]
        assert [runner_module._request_budget(config) for config in configs] == expected
        for config in configs:
            build_run_gateway(config)
        assert pools == expected

    def test_backend_validation(self):
        for wiring in (
            dict(backend="carrier-pigeon"),
            dict(backend="http", base_url=None),
            dict(backend="mock", mock_script=None),
        ):
            with pytest.raises(InvalidInputError):
                build_run_gateway(RunConfig(dataset="d", **wiring))

    def test_selects_backend(self, tmp_path):
        config = RunConfig(dataset="d", backend="mock", mock_script={"default": "x"})
        mock = build_run_gateway(config)
        assert isinstance(mock.backend, MockBackend) and mock.cache_dir is None
        config = RunConfig(dataset="d", base_url="https://x", cache_dir=str(tmp_path))
        with closing(build_run_gateway(config)) as http:
            assert isinstance(http.backend, HttpBackend)
            assert http.cache_dir == tmp_path


def run_bounded(config, gateway, timeout_s=30.0):
    """`run_experiment` on a thread of its own; fails the test if it outlasts `timeout_s`.

    Returns the report, or the exception the run raised.
    """
    outcome = []

    def target():
        try:
            outcome.append(run_experiment(config, gateway))
        except BaseException as exc:
            outcome.append(exc)

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout_s)
    assert not thread.is_alive(), f"run still going after {timeout_s} s"
    return outcome[0]


class PeakCounter:
    """A count that threads move up and down, and the highest it reached."""

    def __init__(self):
        self._lock = threading.Lock()
        self.now = self.peak = 0

    def add(self, step: int) -> None:
        with self._lock:
            self.now += step
            self.peak = max(self.peak, self.now)


class TestAdmissionGate:
    """Problems start when the request budget has room for them."""

    def _count_problems(self, monkeypatch):
        """Problems in `run_problem`, and those of them still before their fan-out."""
        in_flight, understanding = PeakCounter(), PeakCounter()
        real_run_problem = runner_module.run_problem
        real_answer_prompts = runner_module._answer_prompts

        def run_problem(*args):
            in_flight.add(1)
            understanding.add(1)
            try:
                return real_run_problem(*args)
            finally:
                in_flight.add(-1)

        def answer_prompts(*args):
            try:
                return real_answer_prompts(*args)
            finally:
                understanding.add(-1)

        monkeypatch.setattr(runner_module, "run_problem", run_problem)
        monkeypatch.setattr(runner_module, "_answer_prompts", answer_prompts)
        return in_flight, understanding

    def test_run_keeps_the_request_budget_busy(self, tmp_path, synthetic_problems, monkeypatch):
        script = sc_correct_script(synthetic_problems, 5)
        config = make_run_config(tmp_path, script, workers=2, n_samples=5, temperature=0.7)
        gateway = build_run_gateway(config)
        gateway.backend = SleepingMock(script, 0.01)
        in_flight, understanding = self._count_problems(monkeypatch)
        report = run_bounded(config, gateway)
        assert report.accuracy == 100.0
        assert gateway.backend.calls == 10 * (2 + 2 * 5)
        assert gateway.backend.peak <= 2 * 5
        assert understanding.peak <= 2
        assert in_flight.peak >= 4

    def test_two_waves_of_samples_keep_the_budget(self, tmp_path, synthetic_problems, monkeypatch):
        n_samples = MAX_SAMPLE_THREADS + 2
        script = sc_correct_script(synthetic_problems, n_samples)
        config = make_run_config(
            tmp_path, script, workers=2, n_samples=n_samples, temperature=0.7
        )
        gateway = build_run_gateway(config)
        gateway.backend = SleepingMock(script, 0.005)
        _, understanding = self._count_problems(monkeypatch)
        gates = []

        class RecordingGate(runner_module._Gate):
            def __init__(self, *args):
                super().__init__(*args)
                gates.append(self)

        monkeypatch.setattr(runner_module, "_Gate", RecordingGate)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # more thread switches between the gate's counts
        try:
            report = run_bounded(config, gateway)
        finally:
            sys.setswitchinterval(interval)
        assert report.accuracy == 100.0
        assert gateway.backend.calls == 10 * (2 + 2 * n_samples)
        assert gateway.backend.peak <= 2 * MAX_SAMPLE_THREADS
        assert understanding.peak <= 2
        # Every unit a problem or a sample thread took was given back once.
        (gate,) = gates
        assert gate._free == runner_module._request_budget(config)
        assert (gate._understanding, gate._waiting, gate._turn) == (0, [], 10)

    def test_gate_alone_holds_the_budget(self, tmp_path, synthetic_problems):
        # A gateway with no bound of its own: only the gate holds sends back.
        script = sc_correct_script(synthetic_problems, 3)
        for attempt in range(3):
            config = make_run_config(
                tmp_path / str(attempt), script, workers=2, n_samples=3, temperature=0.7
            )
            backend = SleepingMock(script, 0.01)
            report = run_bounded(config, Gateway(backend=backend))
            assert report.accuracy == 100.0
            assert backend.peak == runner_module._request_budget(config) == 6

    def test_sample_threads_come_before_new_problems(
        self, tmp_path, synthetic_problems, monkeypatch
    ):
        # One problem in its understanding stages at a time, and a budget of
        # N: the units left when a problem fans out go to its other samples,
        # and the next problem starts after they are all sent.
        sent = []
        real_run_problem = runner_module.run_problem

        def run_problem(problem, *args):
            sent.append(f"start:{problem.id}")
            return real_run_problem(problem, *args)

        monkeypatch.setattr(runner_module, "run_problem", run_problem)
        for n_samples in (2, 3):
            script = sc_correct_script(synthetic_problems, n_samples)
            config = make_run_config(
                tmp_path / str(n_samples), script, workers=1, n_samples=n_samples, temperature=0.7
            )
            backend = SleepingMock(script, 0.01)
            backend.sent = sent = []  # starts and sends, in order
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)  # a thread woken at the gate runs at once
            try:
                report = run_bounded(config, Gateway(backend=backend))
            finally:
                sys.setswitchinterval(interval)
            assert report.accuracy == 100.0
            for older, newer in zip(synthetic_problems, synthetic_problems[1:]):
                last_sample = sent.index(f"answer:{older.id}#{n_samples - 1}")
                assert last_sample < sent.index(f"start:{newer.id}"), n_samples

    def test_older_problems_samples_are_granted_first(self, tmp_path, synthetic_problems):
        # workers=2, N=2: a budget of 4, held from 60 ms on by problem 0,
        # both samples of problem 1 (300 ms each) and problem 2. Problem 2
        # fans out at 120 ms, problem 0 (a slow stage 2) at 165 ms. When
        # problem 2's own thread ends its first sample at 180 ms, the older
        # problem 0's second sample is sent before problem 2's.
        first, second, third = synthetic_problems[:3]
        script = sc_correct_script(synthetic_problems, 2)
        config = make_run_config(tmp_path, script, workers=2, n_samples=2, temperature=0.7)
        slow = {f"solving_info:{first.id}": 0.135}
        slow.update({f"answer:{second.id}#{i}": 0.3 for i in range(2)})
        backend = SleepingMock(script, 0.03, delays=slow)
        report = run_bounded(config, Gateway(backend=backend))
        assert report.accuracy == 100.0
        sent = backend.sent
        assert sent.index(f"answer:{first.id}#1") < sent.index(f"answer:{third.id}#1")

    def test_a_call_in_backoff_holds_no_unit(self, tmp_path, synthetic_problems):
        # workers=1, N=2: a budget of 2 and two problem threads. While the
        # first problem's stage 1 backs off, it holds neither a unit nor its
        # understanding place, so the second problem starts.
        first, second = synthetic_problems[:2]
        script = sc_correct_script(synthetic_problems, 2)
        config = make_run_config(tmp_path, script, workers=1, n_samples=2, temperature=0.7)
        retried = f"core_question:{first.id}"
        backend = SleepingMock(script, 0.01, fail_once=[retried])
        report = run_bounded(config, Gateway(backend=backend, retry_base_delay_s=0.2))
        assert report.accuracy == 100.0
        retry = backend.sent.index(retried, 1)
        assert backend.sent.index(f"core_question:{second.id}") < retry

    def test_sample_i_runs_on_thread_i_mod_t(self, tmp_path, synthetic_problems, monkeypatch):
        # N = 10 on T = 8 threads and a budget of 2: samples 8 and 9 follow
        # samples 0 and 1 on their threads, whichever thread gets a unit
        # first. Each thread gives back one unit, once its samples are done.
        problem = synthetic_problems[0]
        n_samples = MAX_SAMPLE_THREADS + 2
        script = sc_correct_script([problem], n_samples)
        config = make_run_config(tmp_path, script, n_samples=n_samples, temperature=0.7)
        ran, released = {}, []
        real_run_sample = runner_module._run_sample
        real_release = runner_module._Ticket.release

        def run_sample(*args):
            ran[args[-1]] = threading.current_thread()
            return real_run_sample(*args)

        def release(ticket):
            released.append(threading.current_thread())
            real_release(ticket)

        monkeypatch.setattr(runner_module, "_run_sample", run_sample)
        monkeypatch.setattr(runner_module._Ticket, "release", release)
        gateway = Gateway(backend=MockBackend(script))
        gate = runner_module._Gate(workers=1, budget=2, gateway=gateway)
        transcript = run_problem(problem, config, gateway, gate.enter(0))
        assert transcript.graded.correct and len(transcript.votes) == n_samples
        assert ran[0] is threading.current_thread()
        assert [ran[i] for i in range(n_samples)] == [
            ran[i % MAX_SAMPLE_THREADS] for i in range(n_samples)
        ]
        assert len(released) == len(set(released)) == MAX_SAMPLE_THREADS
        assert set(released) == set(ran.values())
        assert (gate._free, gate._waiting) == (2, [])

    @pytest.mark.parametrize("failing", [0, 1], ids=["own-thread", "helper-thread"])
    def test_a_sample_that_raises_fails_its_problem_once_every_chain_ends(
        self, tmp_path, synthetic_problems, monkeypatch, failing
    ):
        # An exception that is not a GatewayError in sample 0 (the problem's
        # own thread) or sample 1 (a helper) reaches the caller only after
        # the other chains are done, with every unit given back.
        class Broken(Exception):
            pass

        problem = synthetic_problems[0]
        script = sc_correct_script([problem], 3)
        config = make_run_config(tmp_path, script, n_samples=3, temperature=0.7)
        ended = []
        real_run_sample = runner_module._run_sample

        def run_sample(*args):
            if args[-1] == failing:
                raise Broken(f"sample {failing}")
            time.sleep(0.05)  # the other chains end after the raise
            sample = real_run_sample(*args)
            ended.append(args[-1])
            return sample

        monkeypatch.setattr(runner_module, "_run_sample", run_sample)
        gateway = Gateway(backend=MockBackend(script))
        gate = runner_module._Gate(workers=1, budget=3, gateway=gateway)
        with pytest.raises(Broken):
            run_problem(problem, config, gateway, gate.enter(0))
        assert sorted(ended) == sorted({0, 1, 2} - {failing})
        assert (gate._free, gate._understanding, gate._waiting) == (3, 0, [])

    @pytest.mark.parametrize("failing", [0, 1], ids=["own-thread", "helper-thread"])
    def test_a_sample_that_raises_fails_the_run_without_a_report(
        self, tmp_path, synthetic_problems, monkeypatch, failing
    ):
        class Broken(Exception):
            pass

        script = sc_correct_script(synthetic_problems, 3)
        config = make_run_config(tmp_path, script, workers=2, n_samples=3, temperature=0.7)
        broken = synthetic_problems[4].id
        real_run_sample = runner_module._run_sample

        def run_sample(problem, *args):
            if problem.id == broken and args[-1] == failing:
                raise Broken(problem.id)
            return real_run_sample(problem, *args)

        monkeypatch.setattr(runner_module, "_run_sample", run_sample)
        outcome = run_bounded(config, Gateway(backend=MockBackend(script)))
        assert isinstance(outcome, Broken) and str(outcome) == broken
        assert not (tmp_path / "out" / "report.json").exists()
        assert not transcript_path(config.out_dir, broken).exists()

    def test_failed_write_stops_a_run_waiting_at_the_gate(
        self, tmp_path, synthetic_problems, monkeypatch
    ):
        # A budget of 3 requests for 10 problems: threads wait at the gate.
        script = sc_correct_script(synthetic_problems, 3)
        config = make_run_config(tmp_path, script, workers=1, n_samples=3, temperature=0.7)
        lost = transcript_path(config.out_dir, synthetic_problems[1].id)
        real_write_text = runner_module.write_text

        def write_text(path, text):
            if path == lost:
                raise OSError(28, "No space left on device")
            real_write_text(path, text)

        monkeypatch.setattr(runner_module, "write_text", write_text)
        in_flight, _ = self._count_problems(monkeypatch)
        gateway = Gateway(backend=SleepingMock(script, 0.01))
        outcome = run_bounded(config, gateway)
        assert isinstance(outcome, DupError) and str(lost) in str(outcome)
        assert not (Path(config.out_dir) / "report.json").exists()
        # Problems still start while the lost write waits in the backlog, but
        # not every problem of the run.
        assert gateway.backend.calls < 10 * (2 + 2 * 3)
        assert in_flight.now == 0

    @pytest.mark.parametrize("interrupt", [RuntimeError, KeyboardInterrupt])
    def test_nothing_waiting_at_the_gate_starts_after_a_raise(
        self, tmp_path, synthetic_problems, monkeypatch, interrupt
    ):
        # One problem in its understanding stages at a time: a problem that
        # raises before it fans out holds that place until the gate closes.
        script = sc_correct_script(synthetic_problems, 3)
        config = make_run_config(tmp_path, script, workers=1, n_samples=3, temperature=0.7)
        stop = synthetic_problems[3].id
        lock = threading.Lock()
        started, at_failure = [], []
        real_run_problem = runner_module.run_problem

        def run_problem(problem, *args):
            with lock:
                started.append(problem.id)
                if problem.id == stop:
                    at_failure.extend(started)
                    raise interrupt("stopped")
            return real_run_problem(problem, *args)

        monkeypatch.setattr(runner_module, "run_problem", run_problem)
        outcome = run_bounded(config, Gateway(backend=SleepingMock(script, 0.01)))
        assert isinstance(outcome, interrupt)
        assert started == at_failure
        written = {path.name for path in (tmp_path / "out" / "transcripts").iterdir()}
        assert written == {transcript_path("", pid).name for pid in started if pid != stop}


class TestRunConfig:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            RunConfig(dataset="").validate()
        with pytest.raises(InvalidInputError):
            RunConfig(dataset="d", n_samples=0).validate()
        with pytest.raises(InvalidInputError):
            RunConfig(dataset="d", n_samples=2, temperature=0.0).validate()
        with pytest.raises(InvalidInputError):
            RunConfig(dataset="d", temperature=-1.0).validate()
        with pytest.raises(InvalidInputError):
            RunConfig(dataset="d", workers=0).validate()
        RunConfig(dataset="d", n_samples=10, temperature=0.7).validate()

    @pytest.mark.parametrize("temperature", [math.nan, math.inf, -math.inf])
    def test_temperature_must_be_finite(self, temperature):
        with pytest.raises(InvalidInputError, match="temperature must be a finite number"):
            RunConfig(dataset="d", temperature=temperature).validate()
        with pytest.raises(InvalidInputError, match="temperature must be a finite number"):
            RunConfig(dataset="d", n_samples=3, temperature=temperature).validate()

    def test_round_trip(self):
        config = RunConfig(
            dataset="synth10",
            method=MethodVariant.DUP_S,
            stages=StageConfig(True, False, True),
            seed=9,
            mock_script="script.json",
            backend="mock",
        )
        assert decode(RunConfig, json.loads(dumps(config))) == config


class TestPersistenceAndResume:
    def test_transcripts_written_per_problem(self, tmp_path, synthetic_problems):
        config = make_run_config(tmp_path, correct_script(synthetic_problems))
        gateway = Gateway(backend=MockBackend(correct_script(synthetic_problems)))
        run_experiment(config, gateway)
        for problem in synthetic_problems:
            stored = load_transcript(config.out_dir, problem.id)
            assert stored is not None and stored.completed
            assert stored.graded.correct

    def test_resume_skips_completed_problems(self, tmp_path, synthetic_problems):
        script = correct_script(synthetic_problems)
        config = make_run_config(tmp_path, script)
        gateway = Gateway(backend=MockBackend(script))
        run_experiment(config, gateway)
        first_calls = gateway.backend.calls
        assert first_calls == 4 * 10

        # Simulate dying mid-run: three problems lost their transcripts.
        for problem in synthetic_problems[4:7]:
            transcript_path(config.out_dir, problem.id).unlink()
        resumed = Gateway(backend=MockBackend(script))
        report = run_experiment(config, resumed)
        assert resumed.backend.calls == 4 * 3
        assert report.total == 10 and report.correct == 10

    @pytest.mark.parametrize(
        "case",
        ["negative-max-problems", "no-dataset-source", "missing", "other-problem", "not-completed"],
    )
    def test_a_refused_input_is_named_or_read_as_nothing(self, tmp_path, case):
        if case == "negative-max-problems":
            with pytest.raises(InvalidInputError, match="max_problems must be >= 0"):
                RunConfig(dataset="d", max_problems=-1).validate()
            return
        if case == "no-dataset-source":
            with pytest.raises(DupError, match="config needs dataset_path or manifest"):
                load_run(tmp_path, RunConfig(dataset="synth10", answer_type="number"))
            return
        transcript = Transcript(
            problem_id="p1", dataset="d", method="dup", stages={}, completed=case != "not-completed"
        )
        path = transcript_path(tmp_path, "p1")
        path.parent.mkdir()
        path.write_text(dumps(transcript), encoding="utf-8")
        if case == "other-problem":  # p1's transcript where p2's belongs
            assert load_transcript(tmp_path, "p1") == transcript
            path.rename(transcript_path(tmp_path, "p2"))
        read_as = "p1" if case == "not-completed" else "p2"
        assert load_transcript(tmp_path, read_as) is None

    def test_incomplete_transcripts_are_rerun(self, tmp_path, synthetic_problems):
        script = correct_script(synthetic_problems)
        config = make_run_config(tmp_path, script)
        run_experiment(config, Gateway(backend=MockBackend(script)))
        path = transcript_path(config.out_dir, synthetic_problems[0].id)
        data = json.loads(path.read_text(encoding="utf-8"))
        data["completed"] = False
        path.write_text(json.dumps(data), encoding="utf-8")
        gateway = Gateway(backend=MockBackend(script))
        run_experiment(config, gateway)
        assert gateway.backend.calls == 4

    def test_corrupt_transcript_is_rerun(self, tmp_path, synthetic_problems, caplog):
        script = correct_script(synthetic_problems)
        config = make_run_config(tmp_path, script)
        run_experiment(config, Gateway(backend=MockBackend(script)))
        corrupt = transcript_path(config.out_dir, synthetic_problems[0].id)
        corrupt.write_text("{truncated", encoding="utf-8")
        gateway = Gateway(backend=MockBackend(script))
        run_experiment(config, gateway)
        assert gateway.backend.calls == 4
        assert f"ignoring unreadable transcript {corrupt}" in caplog.text

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "1e999999999"])
    def test_stored_number_grade_cannot_compare_is_rerun(
        self, tmp_path, synthetic_problems, caplog, value
    ):
        script = correct_script(synthetic_problems)
        config = make_run_config(tmp_path, script)
        run_experiment(config, Gateway(backend=MockBackend(script)))
        path = transcript_path(config.out_dir, synthetic_problems[0].id)
        stored = json.loads(path.read_text(encoding="utf-8"))
        stored["predicted"]["value"] = value
        path.write_text(json.dumps(stored), encoding="utf-8")
        gateway = Gateway(backend=MockBackend(script))
        assert run_experiment(config, gateway).accuracy == 100.0
        assert gateway.backend.calls == 4
        assert f"ignoring unreadable transcript {path}" in caplog.text

    @pytest.mark.parametrize("stored", ["{oops", "[1, 2]"])
    def test_unreadable_stored_config_is_refused_before_writing(
        self, tmp_path, synthetic_problems, stored
    ):
        script = correct_script(synthetic_problems)
        config = make_run_config(tmp_path, script)
        out_dir = Path(config.out_dir)
        out_dir.mkdir()
        (out_dir / "config.json").write_text(stored, encoding="utf-8")
        with pytest.raises(DupError, match=re.escape(str(out_dir / "config.json"))):
            run_experiment(config, Gateway(backend=MockBackend(script)))
        assert [path.name for path in out_dir.iterdir()] == ["config.json"]

    def test_conflicting_config_rejected(self, tmp_path, synthetic_problems):
        script = correct_script(synthetic_problems)
        config = make_run_config(tmp_path, script)
        run_experiment(config, Gateway(backend=MockBackend(script)))
        changed = make_run_config(tmp_path, script, seed=1)
        with pytest.raises(DupError):
            run_experiment(changed, Gateway(backend=MockBackend(script)))

    @pytest.mark.parametrize("interrupt", [RuntimeError, KeyboardInterrupt])
    def test_interrupted_run_keeps_its_responses(
        self, tmp_path, synthetic_problems, monkeypatch, interrupt
    ):
        script = correct_script(synthetic_problems)
        cache_dir = tmp_path / "cache"
        config = make_run_config(tmp_path, script, workers=1, cache_dir=str(cache_dir))
        stop = 6
        real_run_problem = runner_module.run_problem

        def run_problem(problem, *args):
            if problem.id == synthetic_problems[stop].id:
                raise interrupt("stopped")
            return real_run_problem(problem, *args)

        monkeypatch.setattr(runner_module, "run_problem", run_problem)
        with pytest.raises(interrupt):
            # The gateway is never closed: the run itself must commit.
            run_experiment(config, Gateway(backend=MockBackend(script), cache_dir=cache_dir))
        monkeypatch.setattr(runner_module, "run_problem", real_run_problem)
        fresh = Gateway(backend=MockBackend(script), cache_dir=cache_dir)
        for problem in synthetic_problems[:stop]:
            assert real_run_problem(problem, config, fresh).graded.correct
        assert fresh.backend.calls == 0
        resumed = Gateway(backend=MockBackend(script), cache_dir=cache_dir)
        report = run_experiment(config, resumed)
        assert resumed.backend.calls == 4 * (len(synthetic_problems) - stop)
        assert report.total == report.correct == len(synthetic_problems)

    @pytest.mark.parametrize("interrupt", [None, RuntimeError, KeyboardInterrupt])
    def test_failed_run_end_commit(
        self, tmp_path, synthetic_problems, monkeypatch, caplog, interrupt
    ):
        # A failed run-end commit raises DupError naming the cache file, unless
        # the run is failing already: then that error is raised, and the
        # failed commit is logged.
        monkeypatch.setattr(gateway_module, "CACHE_BUSY_TIMEOUT_S", 0.01)
        monkeypatch.setattr(gateway_module, "CACHE_COMMIT_AFTER_S", 3600.0)
        script = correct_script(synthetic_problems)
        cache_dir = tmp_path / "cache"
        config = make_run_config(tmp_path, script, cache_dir=str(cache_dir))
        gateway = Gateway(backend=MockBackend(script), cache_dir=cache_dir)
        stop = 3
        if interrupt is not None:
            real_run_problem = runner_module.run_problem

            def run_problem(problem, *args):
                if problem.id == synthetic_problems[stop].id:
                    raise interrupt("stopped")
                return real_run_problem(problem, *args)

            monkeypatch.setattr(runner_module, "run_problem", run_problem)
        with closing(sqlite3.connect(cache_dir / CACHE_FILE, isolation_level=None)) as other:
            other.execute("begin exclusive")  # as another process holding the write lock
            with pytest.raises(interrupt or DupError, match="stopped" if interrupt else CACHE_FILE):
                run_experiment(config, gateway)
            other.execute("rollback")
        assert (CACHE_FILE in caplog.text) == (interrupt is not None)
        # The rows stay pending, so a later commit still stores every response.
        gateway.close()
        assert len(cache_rows(cache_dir)) == gateway.backend.calls > 0

    def test_concurrent_workers_match_serial_results(self, tmp_path, synthetic_problems):
        script = correct_script(synthetic_problems)
        serial = make_run_config(tmp_path / "serial", script, workers=1)
        parallel = make_run_config(tmp_path / "parallel", script, workers=4)
        report_serial = run_experiment(serial, Gateway(backend=MockBackend(script)))
        report_parallel = run_experiment(parallel, Gateway(backend=MockBackend(script)))
        assert report_serial.accuracy == report_parallel.accuracy == 100.0
        assert [r["problem_id"] for r in report_serial.per_problem] == [
            r["problem_id"] for r in report_parallel.per_problem
        ]

    def test_overlapping_problems_match_serial_transcripts(self, tmp_path, synthetic_problems):
        script = sc_correct_script(synthetic_problems, 3)
        config = make_run_config(tmp_path, script, workers=2, n_samples=3, temperature=0.7)
        report = run_experiment(config, Gateway(backend=SleepingMock(script, 0.001)))
        written = {
            path.name: comparable(json.loads(path.read_text(encoding="utf-8")))
            for path in (Path(config.out_dir) / "transcripts").iterdir()
        }
        serial_gateway = Gateway(backend=MockBackend(script))
        serial = {
            problem.id: run_problem(problem, config, serial_gateway)
            for problem in synthetic_problems
        }
        assert written == {
            transcript_path("", pid).name: comparable(json.loads(dumps(transcript)))
            for pid, transcript in serial.items()
        }
        rows = {pid: report_row(pid, transcript) for pid, transcript in serial.items()}
        assert report.per_problem == build_report(config, SYNTH_IDS, rows).per_problem


class FaultyMock(MockBackend):
    """A mock whose numbered sends (1-based, in the order they arrive) fail."""

    def __init__(self, script, faults: dict):
        super().__init__(script)
        self._faults = faults
        self._sends = itertools.count(1)  # next() is atomic under the GIL

    def send(self, request):
        fault = self._faults.get(next(self._sends))
        if fault is not None:
            raise fault("injected fault")
        return super().send(request)


def _same_report(a, b) -> bool:
    return (a.total, a.correct, a.per_problem) == (b.total, b.correct, b.per_problem)


class TestTranscriptWriter:
    @settings(max_examples=30, deadline=None)
    @given(
        workers=st.integers(1, 4),
        max_problems=st.one_of(st.none(), st.integers(0, 10)),
        faults=st.dictionaries(
            st.integers(1, 50),
            st.sampled_from([TransientBackendError, MalformedResponseError]),
            max_size=15,
        ),
    )
    def test_faults_never_cost_a_transcript(self, workers, max_problems, faults):
        problems = load_dataset(SYNTH_DATASET, "synth10", answer_type=AnswerType.NUMBER)
        script = correct_script(problems)
        ran: dict = {}
        real_run_problem = runner_module.run_problem

        def run_problem(problem, *args):
            ran[problem.id] = real_run_problem(problem, *args)
            return ran[problem.id]

        with tempfile.TemporaryDirectory() as tmp, patch.object(
            runner_module, "run_problem", run_problem
        ):
            config = make_run_config(
                Path(tmp), script, workers=workers, max_problems=max_problems
            )
            gateway = Gateway(backend=FaultyMock(script, faults), retry_base_delay_s=0)
            report = run_experiment(config, gateway)

            selected = {problem.id for problem in load_run(config.out_dir)[1]}
            assert report.total == len(selected) == len(ran)
            files = {path.name for path in (Path(config.out_dir) / "transcripts").iterdir()}
            assert files == {transcript_path("", pid).name for pid in selected}
            for problem_id in selected:
                assert load_transcript(config.out_dir, problem_id) == ran[problem_id]
            assert _same_report(recount(config.out_dir), report)

    def test_failed_write_stops_the_run(self, tmp_path, synthetic_problems, monkeypatch):
        script = correct_script(synthetic_problems)
        config = make_run_config(tmp_path, script)
        lost = transcript_path(config.out_dir, synthetic_problems[3].id)
        real_write_text = runner_module.write_text

        def write_text(path, text):
            if path == lost:
                raise OSError(28, "No space left on device")
            real_write_text(path, text)

        monkeypatch.setattr(runner_module, "write_text", write_text)
        gateway = Gateway(backend=MockBackend(script))
        with pytest.raises(DupError, match=re.escape(str(lost))):
            run_experiment(config, gateway)
        out_dir = Path(config.out_dir)
        assert not (out_dir / "report.json").exists()
        for problem in synthetic_problems[:3]:
            assert load_transcript(out_dir, problem.id) is not None
        assert not lost.exists()
        assert list(out_dir.rglob("*.tmp")) == []
        # No problem starts once the failed write is seen. By then at most one
        # transcript per problem thread waits behind the lost one, and each
        # thread holds one more problem: at most two per thread ran after it.
        threads = runner_module._request_budget(config)
        assert gateway.backend.calls <= 4 * (4 + 2 * threads)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_stalled_writer_holds_one_waiting_transcript_per_thread(
        self, tmp_path, synthetic_problems, monkeypatch, workers
    ):
        script = correct_script(synthetic_problems)
        config = make_run_config(tmp_path, script, workers=workers)
        threads = runner_module._request_budget(config)
        finished, stalled, go_on = [], threading.Event(), threading.Event()
        real_write_text, real_run_problem = runner_module.write_text, runner_module.run_problem

        def write_text(path, text):
            stalled.set()
            assert go_on.wait(timeout=10)
            real_write_text(path, text)

        def run_problem(problem, *args):
            transcript = real_run_problem(problem, *args)
            finished.append(problem.id)
            return transcript

        monkeypatch.setattr(runner_module, "write_text", write_text)
        monkeypatch.setattr(runner_module, "run_problem", run_problem)
        outcome = []
        run = threading.Thread(
            target=lambda: outcome.append(run_experiment(config, Gateway(MockBackend(script))))
        )
        run.start()
        try:
            assert stalled.wait(timeout=5)
            deadline = time.monotonic() + 5
            while len(finished) < 1 + 2 * threads and time.monotonic() < deadline:
                time.sleep(0.01)
            time.sleep(0.2)  # time for any further problem to finish
            # The one being written, one waiting per thread, and one per thread
            # blocked handing its transcript over.
            assert len(finished) == 1 + 2 * threads
        finally:
            go_on.set()
            run.join(timeout=10)
        assert not run.is_alive()
        assert outcome[0].total == outcome[0].correct == len(finished) == 10

    def test_lost_write_outranks_a_later_problems_exception(
        self, tmp_path, synthetic_problems, monkeypatch
    ):
        script = correct_script(synthetic_problems)
        config = make_run_config(tmp_path, script, workers=2)
        first, later = synthetic_problems[0].id, synthetic_problems[1].id
        lost = transcript_path(config.out_dir, first)
        later_raised = threading.Event()
        real_write_text, real_run_problem = runner_module.write_text, runner_module.run_problem

        def write_text(path, text):
            if path == lost:
                assert later_raised.wait(timeout=5)  # the later problem fails first
                raise OSError(28, "No space left on device")
            real_write_text(path, text)

        def run_problem(problem, *args):
            if problem.id == later:
                later_raised.set()
                raise RuntimeError("a later problem")
            return real_run_problem(problem, *args)

        monkeypatch.setattr(runner_module, "write_text", write_text)
        monkeypatch.setattr(runner_module, "run_problem", run_problem)
        with pytest.raises(DupError, match=re.escape(str(lost))):
            run_experiment(config, Gateway(backend=MockBackend(script)))
        out_dir = Path(config.out_dir)
        assert not (out_dir / "report.json").exists()
        assert not lost.exists()
        assert list(out_dir.rglob("*.tmp")) == []

    def test_no_writer_outlives_a_run_that_cannot_build_its_threads(
        self, tmp_path, synthetic_problems, monkeypatch
    ):
        script = correct_script(synthetic_problems)
        config = make_run_config(tmp_path, script)
        real_init = threading.Thread.__init__

        def init(self, *args, **kwargs):
            if kwargs.get("name") == "dup-run":
                raise RuntimeError("can't start new thread")
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(threading.Thread, "__init__", init)
        with pytest.raises(RuntimeError, match="can't start new thread"):
            run_experiment(config, Gateway(backend=MockBackend(script)))
        monkeypatch.undo()
        writers = [t for t in threading.enumerate() if t.name == "dup-transcript-writer"]
        assert writers == []
        assert not (Path(config.out_dir) / "report.json").exists()

    @pytest.mark.parametrize("interrupt", [RuntimeError, KeyboardInterrupt])
    def test_interrupted_run_keeps_finished_transcripts(
        self, tmp_path, synthetic_problems, monkeypatch, interrupt
    ):
        script = correct_script(synthetic_problems)
        config = make_run_config(tmp_path, script, workers=1)
        stop = 6
        real_run_problem = runner_module.run_problem

        def run_problem(problem, *args):
            if problem.id == synthetic_problems[stop].id:
                raise interrupt("stopped")
            return real_run_problem(problem, *args)

        monkeypatch.setattr(runner_module, "run_problem", run_problem)
        with pytest.raises(interrupt):
            run_experiment(config, Gateway(backend=MockBackend(script)))
        written = {path.name for path in (tmp_path / "out" / "transcripts").iterdir()}
        assert written == {
            transcript_path("", problem.id).name for problem in synthetic_problems[:stop]
        }
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("interrupt", [RuntimeError, KeyboardInterrupt])
    def test_no_problem_starts_after_one_raises(
        self, tmp_path, synthetic_problems, monkeypatch, interrupt
    ):
        script = sc_correct_script(synthetic_problems, 3)
        config = make_run_config(tmp_path, script, workers=2, n_samples=3, temperature=0.7)
        stop = synthetic_problems[4].id
        lock = threading.Condition()
        started, under_way, at_failure = [], set(), []
        real_run_problem = runner_module.run_problem

        def run_problem(problem, *args):
            with lock:
                started.append(problem.id)
                under_way.add(problem.id)
                lock.notify_all()
                if problem.id == stop:
                    # Raise once the gate has let two more problems start beside
                    # it, as a failure mid-run would: holding one of the two
                    # understanding places, it leaves the other to the next.
                    assert lock.wait_for(lambda: len(under_way) >= 3, timeout=5)
                    at_failure.extend(started)
                    raise interrupt("stopped")
            try:
                return real_run_problem(problem, *args)
            finally:
                with lock:
                    under_way.discard(problem.id)
                    lock.notify_all()

        monkeypatch.setattr(runner_module, "run_problem", run_problem)
        with pytest.raises(interrupt, match="stopped"):
            run_experiment(config, Gateway(backend=SleepingMock(script, 0.01)))
        assert started == at_failure
        assert started == [problem.id for problem in synthetic_problems[: len(started)]]
        written = {path.name for path in (tmp_path / "out" / "transcripts").iterdir()}
        assert written == {transcript_path("", pid).name for pid in started if pid != stop}
        assert not (tmp_path / "out" / "report.json").exists()


class TestProblemThreads:
    @pytest.mark.parametrize("n_samples", [1, 3])
    def test_no_transcript_outlives_its_write(
        self, tmp_path, synthetic_problems, monkeypatch, n_samples
    ):
        if n_samples == 1:
            script, temperature = correct_script(synthetic_problems), 0.0
        else:
            script, temperature = sc_correct_script(synthetic_problems, n_samples), 0.7
        config = make_run_config(
            tmp_path, script, workers=2, n_samples=n_samples, temperature=temperature
        )
        returned, alive_at_calls = [], []
        real_run_problem = runner_module.run_problem

        def run_problem(*args):
            alive_at_calls.append(sum(ref() is not None for ref in returned))
            transcript = real_run_problem(*args)
            returned.append(weakref.ref(transcript))
            return transcript

        monkeypatch.setattr(runner_module, "run_problem", run_problem)
        report = run_bounded(config, Gateway(backend=MockBackend(script)))
        assert report.total == report.correct == len(alive_at_calls) == 10
        # At most one transcript per problem thread, between its return and its hand-off.
        assert max(alive_at_calls) <= runner_module._request_budget(config)

    @pytest.mark.parametrize("n_samples", [1, 3])
    def test_a_problem_is_freed_once_it_has_run(
        self, tmp_path, synthetic_problems, monkeypatch, n_samples
    ):
        if n_samples == 1:
            script, temperature = correct_script(synthetic_problems), 0.0
        else:
            script, temperature = sc_correct_script(synthetic_problems, n_samples), 0.7
        config = make_run_config(
            tmp_path, script, workers=1, n_samples=n_samples, temperature=temperature
        )
        loaded = []  # a weak reference to each Problem the run loads, in run order
        real_load_run = runner_module.load_run

        def load_run(*args):
            stored_config, problems, stored = real_load_run(*args)
            loaded.extend(weakref.ref(problem) for problem in problems)
            return stored_config, problems, stored

        turn_of = {problem_id: k for k, problem_id in enumerate(SYNTH_IDS)}
        held = {}  # by problem k: the problems before k - 1 still alive at k's first call
        deadline = time.monotonic() + 5

        class Watching(MockBackend):
            def send(self, request):
                k = turn_of[request.tag.split(":", 1)[1].partition("#")[0]]
                if k not in held:
                    # With N > 1, problem k - 2's thread may still be finishing
                    # its transcript after it gave back its units: let it.
                    while True:
                        gc.collect()
                        alive = [i for i in range(k - 1) if loaded[i]() is not None]
                        if not alive or time.monotonic() > deadline:
                            break
                        time.sleep(0.001)
                    held[k] = alive
                return super().send(request)

        monkeypatch.setattr(runner_module, "load_run", load_run)
        report = run_bounded(config, Gateway(backend=Watching(script)))
        assert report.total == report.correct == len(loaded) == len(held) == 10
        assert held == {k: [] for k in range(10)}

    def test_ctrl_c_starts_no_problem_and_keeps_what_finished(
        self, tmp_path, synthetic_problems, monkeypatch
    ):
        script = correct_script(synthetic_problems)
        cache_dir = tmp_path / "cache"
        config = make_run_config(tmp_path, script, workers=2, cache_dir=str(cache_dir))
        admitted, finished, waits = [], [], []
        closed = threading.Event()

        class RecordingGate(runner_module._Gate):
            # Under the gate's own lock: each problem started, and whether the gate was closed.
            def _grant(self):
                turn = self._turn
                super()._grant()
                admitted.extend((started, self._closed) for started in range(turn, self._turn))

            def close(self):
                super().close()
                closed.set()

        real_run_problem = runner_module.run_problem
        third = synthetic_problems[2].id

        def run_problem(problem, *args):
            if problem.id == third:
                time.sleep(0.2)  # until the main thread waits for the problem threads
                _thread.interrupt_main()
            if problem.id >= third:
                # The main thread must see the interrupt while problems are under way.
                waits.append(closed.wait(timeout=5))
            transcript = real_run_problem(problem, *args)
            finished.append(problem.id)
            return transcript

        monkeypatch.setattr(runner_module, "_Gate", RecordingGate)
        monkeypatch.setattr(runner_module, "run_problem", run_problem)
        with pytest.raises(KeyboardInterrupt):
            run_experiment(config, Gateway(backend=MockBackend(script), cache_dir=cache_dir))
        assert waits and all(waits)
        assert admitted and not any(was_closed for _, was_closed in admitted)
        assert len(admitted) < len(synthetic_problems)
        written = {path.name for path in (tmp_path / "out" / "transcripts").iterdir()}
        assert written == {transcript_path("", pid).name for pid in finished}
        assert not (tmp_path / "out" / "report.json").exists()
        monkeypatch.setattr(runner_module, "run_problem", real_run_problem)
        fresh = Gateway(backend=MockBackend(script), cache_dir=cache_dir)
        for problem in synthetic_problems:
            if problem.id in finished:
                assert real_run_problem(problem, config, fresh).graded.correct
        assert fresh.backend.calls == 0

    def test_first_exception_in_problem_order_is_raised(
        self, tmp_path, synthetic_problems, monkeypatch
    ):
        class Earlier(Exception):
            pass

        class Later(Exception):
            pass

        script = correct_script(synthetic_problems)
        config = make_run_config(tmp_path, script, workers=2)
        earlier, later = synthetic_problems[3].id, synthetic_problems[4].id
        later_raised = threading.Event()
        real_run_problem = runner_module.run_problem

        def run_problem(problem, *args):
            if problem.id == earlier:
                assert later_raised.wait(timeout=5)
                raise Earlier("raised second")
            if problem.id == later:
                try:
                    raise Later("raised first")
                finally:
                    later_raised.set()
            return real_run_problem(problem, *args)

        monkeypatch.setattr(runner_module, "run_problem", run_problem)
        assert isinstance(run_bounded(config, Gateway(backend=MockBackend(script))), Earlier)
        written = {path.name for path in (tmp_path / "out" / "transcripts").iterdir()}
        assert written == {transcript_path("", p.id).name for p in synthetic_problems[:3]}


class TestTranscript:
    def test_round_trip(self, synthetic_problems):
        problem = synthetic_problems[0]
        script = correct_script([problem])
        transcript = run_problem(
            problem, RunConfig(dataset="synth10"), Gateway(backend=MockBackend(script))
        )
        restored = decode(Transcript, json.loads(dumps(transcript)))
        assert restored == transcript
        assert restored.problem_id == transcript.problem_id
        assert restored.predicted == transcript.predicted
        assert restored.graded == transcript.graded
        assert [r.stage for r in restored.records] == [r.stage for r in transcript.records]
        assert restored.completed

    def test_answer_text_exposes_reasoning(self, synthetic_problems):
        problem = synthetic_problems[0]
        script = correct_script([problem])
        transcript = run_problem(
            problem, RunConfig(dataset="synth10"), Gateway(backend=MockBackend(script))
        )
        assert transcript.answer_text == f"Reasoning. The answer is {problem.gold.value}."

    def test_sc_votes_persisted(self, synthetic_problems):
        problem = synthetic_problems[0]
        script = {"by_tag": {
            f"core_question:{problem.id}": "c",
            f"solving_info:{problem.id}": "i",
        }}
        for i in range(3):
            value = "18" if i < 2 else "19"
            script["by_tag"][f"answer:{problem.id}#{i}"] = f"The answer is {value}"
            script["by_tag"][f"extraction:{problem.id}#{i}"] = value
        config = RunConfig(dataset="synth10", temperature=0.7, n_samples=3)
        transcript = run_problem(problem, config, Gateway(backend=MockBackend(script)))
        restored = decode(Transcript, json.loads(dumps(transcript)))
        assert len(restored.votes) == 3
        assert restored.predicted == NormalizedAnswer.of_number(18)


@pytest.mark.parametrize("instant", [0.0, 951782400.0, 1792567650.75, 4102444799.0])
def test_utc_now_writes_what_isoformat_wrote(monkeypatch, instant):
    gmtime = time.gmtime
    monkeypatch.setattr(
        runner_module.time, "gmtime", lambda secs=None: gmtime(instant if secs is None else secs)
    )
    text = runner_module._utc_now()
    when = datetime.fromtimestamp(instant, timezone.utc)
    assert text == when.isoformat(timespec="seconds")
    assert datetime.fromisoformat(text) == when.replace(microsecond=0)


def test_utc_now_reads_the_clock_in_utc():
    before = datetime.now(timezone.utc).replace(microsecond=0)
    when = datetime.fromisoformat(runner_module._utc_now())
    assert when.utcoffset() == timedelta(0)
    assert before <= when <= datetime.now(timezone.utc)
