"""Vote aggregation semantics and self-consistency runs through run_problem."""

import json
import sys
import threading
import time
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dup.consistency import Vote, aggregate
from dup.exceptions import InvalidInputError
from dup.gateway import Gateway, MockBackend
from dup.grading import NormalizedAnswer
from dup.runner import MAX_SAMPLE_THREADS, RunConfig, run_experiment, run_problem
from dup.store import read

from conftest import DATA_DIR, SYNTH_IDS, cache_rows, comparable, make_run_config
from oracles import oracle_majority


def votes_of(*values):
    return [
        Vote(i, None if value is None else NormalizedAnswer.of_number(value))
        for i, value in enumerate(values)
    ]


class TestVoteSet:
    def test_indices_must_be_permutation(self):
        with pytest.raises(InvalidInputError):
            aggregate([Vote(0, None), Vote(0, None)])
        with pytest.raises(InvalidInputError):
            aggregate([Vote(1, None)])
        assert aggregate([Vote(1, None), Vote(0, None)]) is None

    def test_iterates_votes(self):
        # Votes count in the order given, which is generation order, not
        # sample-index order: the tie breaks to the first one listed.
        twelve, thirteen = votes_of(12, 13)
        votes = [Vote(1, thirteen.answer), Vote(0, twelve.answer)]
        assert aggregate(votes) == NormalizedAnswer.of_number(13)
        assert aggregate(tuple(votes)) == NormalizedAnswer.of_number(13)


class TestAggregate:
    def test_modal_answer_wins(self):
        assert aggregate(votes_of(12, 13, 12, 12, 13)) == NormalizedAnswer.of_number(12)

    def test_empty_vote_set_rejected(self):
        with pytest.raises(InvalidInputError):
            aggregate([])

    def test_all_failures_returns_none(self):
        assert aggregate(votes_of(None, None, None)) is None

    def test_failures_never_outvote_answers(self):
        # Three failures vs one real answer: the answer still wins.
        assert aggregate(votes_of(None, 7, None, None)) == NormalizedAnswer.of_number(7)

    def test_tie_breaks_to_first_occurrence(self):
        assert aggregate(votes_of(13, 12, 12, 13)) == NormalizedAnswer.of_number(13)
        assert aggregate(votes_of(12, 13, 13, 12)) == NormalizedAnswer.of_number(12)

    def test_single_vote(self):
        assert aggregate(votes_of(5)) == NormalizedAnswer.of_number(5)

    def test_tolerance_groups_near_equal_numbers(self):
        # 10.0000000001 grades equal to 10, so they form one group of three.
        vote_set = votes_of("10", "10.0000000001", "11", "11", "10")
        assert aggregate(vote_set) == NormalizedAnswer.of_number(10)

    def test_representative_is_first_of_group(self):
        vote_set = votes_of("10.0000000001", "10", "10")
        result = aggregate(vote_set)
        assert result.value == Decimal("10.0000000001")

    @given(
        st.lists(
            st.one_of(st.none(), st.sampled_from([7, 8, 9, 10])), min_size=1, max_size=12
        )
    )
    def test_matches_brute_force_oracle(self, values):
        result = aggregate(votes_of(*values))
        expected = oracle_majority(values)
        if expected is None:
            assert result is None
        else:
            assert result == NormalizedAnswer.of_number(expected)


class TestRunSc:
    def test_preconditions(self):
        with pytest.raises(InvalidInputError, match="n_samples must be >= 1"):
            RunConfig(dataset="d", n_samples=0)
        with pytest.raises(InvalidInputError, match="requires temperature > 0"):
            RunConfig(dataset="d", n_samples=3, temperature=0.0)

    def test_returns_votes_and_majority(self, synthetic_problems):
        problem = synthetic_problems[0]  # gold 18
        script = {
            "by_tag": {
                f"core_question:{problem.id}": "core",
                f"solving_info:{problem.id}": "info",
            }
        }
        for i in range(5):
            value = "18" if i != 2 else "19"
            script["by_tag"][f"answer:{problem.id}#{i}"] = f"The answer is {value}"
            script["by_tag"][f"extraction:{problem.id}#{i}"] = value
        gateway = Gateway(backend=MockBackend(script))
        config = RunConfig(dataset="synth10", temperature=0.7, n_samples=5)
        transcript = run_problem(problem, config, gateway)
        assert len(transcript.votes) == 5
        assert transcript.predicted == NormalizedAnswer.of_number(18)
        # Understanding stages ran once, answer and extraction ran per sample.
        assert gateway.backend.calls == 2 + 5 + 5


class ReverseLatencyBackend(MockBackend):
    """Answers later samples first: sample i of N sleeps (N - i) * 10 ms."""

    def __init__(self, script, n_samples):
        super().__init__(script)
        self.n_samples = n_samples

    def send(self, request):
        if "#" in request.tag:
            time.sleep((self.n_samples - int(request.tag.rsplit("#", 1)[1])) * 0.01)
        return super().send(request)


def sc_script(problem, values, failing=()):
    """Core/info stages plus one answer and extraction per value; `failing` tags are left out."""
    script = {f"core_question:{problem.id}": "core", f"solving_info:{problem.id}": "info"}
    for i, value in enumerate(values):
        script[f"answer:{problem.id}#{i}"] = f"Sample {i}: the answer is {value}."
        script[f"extraction:{problem.id}#{i}"] = str(value)
    for tag in failing:
        del script[tag]
    return {"by_tag": script}


class TestFanOut:
    def test_transcripts_equal_serial_reference(self, tmp_path):
        # tests/data/serial_sc3 holds the transcripts that the earlier
        # one-sample-at-a-time runner wrote for this script, with N=3.
        script = json.loads((DATA_DIR / "mock_dup_sc3.json").read_text(encoding="utf-8"))
        cache_dir = tmp_path / "cache"
        config = make_run_config(
            tmp_path, script, n_samples=3, temperature=0.7, workers=4, cache_dir=str(cache_dir)
        )
        gateway = Gateway(backend=ReverseLatencyBackend(script, 3), cache_dir=cache_dir)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # more thread switches inside shared gateway code
        try:
            report = run_experiment(config, gateway)
        finally:
            sys.setswitchinterval(interval)
        calls = 10 * (2 + 2 * 3)
        assert report.usage["calls"] == gateway.backend.calls == calls
        assert len(cache_rows(cache_dir)) == calls
        for problem_id in SYNTH_IDS:
            name = f"{problem_id}.json"
            reference = json.loads((DATA_DIR / "serial_sc3" / name).read_text(encoding="utf-8"))
            written = read(Path(config.out_dir) / "transcripts" / name)
            assert comparable(written) == comparable(reference), problem_id

    def test_identical_samples_share_one_extraction_call(
        self, tmp_path, synthetic_problems, monkeypatch
    ):
        # Both samples of each problem reason alike, so their extraction
        # requests are identical; their answer calls are in flight together.
        script = {}
        for problem in synthetic_problems:
            script[f"core_question:{problem.id}"] = "core"
            script[f"solving_info:{problem.id}"] = "info"
            reasoning = f"{problem.id}: the answer is {problem.gold.value}."
            for i in range(2):
                script[f"answer:{problem.id}#{i}"] = reasoning
                script[f"extraction:{problem.id}#{i}"] = str(problem.gold.value)
        barrier = threading.Barrier(2, timeout=5)

        class BarrierBackend(MockBackend):
            def send(self, request):
                if request.tag.startswith("answer:"):
                    barrier.wait()  # raises unless both answer calls are in flight
                elif request.tag.startswith("extraction:"):
                    time.sleep(0.05)  # sample 1's identical request waits for sample 0's
                return super().send(request)

        def run(name, backend):
            config = make_run_config(
                tmp_path / name,
                {"by_tag": script},
                n_samples=2,
                temperature=0.7,
                cache_dir=str(tmp_path / name / "cache"),
            )
            gateway = Gateway(backend=backend, cache_dir=tmp_path / name / "cache")
            return run_experiment(config, gateway), backend

        report, backend = run("together", BarrierBackend({"by_tag": script}))
        assert backend.calls == 10 * (2 + 2 + 1)
        with monkeypatch.context() as patch:
            # One sample chain at a time: the second extraction is a cache hit.
            patch.setattr("dup.runner.MAX_SAMPLE_THREADS", 1)
            serial, _ = run("serial", MockBackend({"by_tag": script}))
        assert report.usage == serial.usage
        assert report.usage["cached_calls"] == 10
        assert report.per_problem == serial.per_problem

    def test_tie_breaks_to_earliest_sample(self, synthetic_problems):
        problem = synthetic_problems[0]
        script = sc_script(problem, [13, 12, 12, 13])
        config = RunConfig(dataset="synth10", temperature=0.7, n_samples=4)
        transcript = run_problem(problem, config, Gateway(backend=ReverseLatencyBackend(script, 4)))
        assert [v.sample_index for v in transcript.votes] == [0, 1, 2, 3]
        assert transcript.predicted == NormalizedAnswer.of_number(13)

    def test_samples_are_in_flight_together(self, synthetic_problems):
        problem = synthetic_problems[0]
        lock = threading.Lock()
        state = {"current": 0, "peak": 0}
        barrier = threading.Barrier(5, timeout=5)

        class BlockingBackend(MockBackend):
            def send(self, request):
                if request.tag.startswith("answer:"):
                    with lock:
                        state["current"] += 1
                        state["peak"] = max(state["peak"], state["current"])
                    barrier.wait()  # raises unless all five answer calls arrive
                    with lock:
                        state["current"] -= 1
                return super().send(request)

        script = sc_script(problem, [18] * 5)
        config = RunConfig(dataset="synth10", temperature=0.7, n_samples=5)
        transcript = run_problem(problem, config, Gateway(backend=BlockingBackend(script)))
        assert state["peak"] == 5
        assert transcript.predicted == NormalizedAnswer.of_number(18)

    def test_samples_in_flight_are_capped(self, synthetic_problems):
        problem = synthetic_problems[0]
        n_samples = MAX_SAMPLE_THREADS + 4
        lock = threading.Lock()
        state = {"current": 0, "peak": 0, "answers": 0}
        barrier = threading.Barrier(MAX_SAMPLE_THREADS, timeout=5)

        class BlockingBackend(MockBackend):
            def send(self, request):
                if not request.tag.startswith("answer:"):
                    return super().send(request)
                with lock:
                    state["answers"] += 1
                    first_wave = state["answers"] <= MAX_SAMPLE_THREADS
                    state["current"] += 1
                    state["peak"] = max(state["peak"], state["current"])
                if first_wave:
                    barrier.wait()  # raises unless the first wave is all in flight
                time.sleep(0.01)
                with lock:
                    state["current"] -= 1
                return super().send(request)

        before = threading.active_count()
        script = sc_script(problem, [18] * n_samples)
        config = RunConfig(dataset="synth10", temperature=0.7, n_samples=n_samples)
        gateway = Gateway(backend=BlockingBackend(script))
        transcript = run_problem(problem, config, gateway)
        assert state["peak"] == MAX_SAMPLE_THREADS
        assert [v.sample_index for v in transcript.votes] == list(range(n_samples))
        assert threading.active_count() == before

    def test_single_sample_starts_no_thread(self, synthetic_problems):
        problem = synthetic_problems[0]
        counts = []

        class CountingBackend(MockBackend):
            def send(self, request):
                counts.append(threading.active_count())
                return super().send(request)

        script = {
            "by_tag": {
                f"core_question:{problem.id}": "core",
                f"solving_info:{problem.id}": "info",
                f"answer:{problem.id}": "The answer is 18.",
                f"extraction:{problem.id}": "18",
            }
        }
        before = threading.active_count()
        transcript = run_problem(
            problem, RunConfig(dataset="synth10"), Gateway(backend=CountingBackend(script))
        )
        assert counts == [before] * 4
        assert transcript.graded.correct

    def test_failed_chains_keep_every_record_in_order(self, synthetic_problems):
        problem = synthetic_problems[0]
        script = sc_script(
            problem, [18] * 5, failing=[f"answer:{problem.id}#2", f"extraction:{problem.id}#4"]
        )
        config = RunConfig(dataset="synth10", temperature=0.7, n_samples=5)
        transcript = run_problem(problem, config, Gateway(backend=MockBackend(script)))
        assert [(r.stage, r.sample_index, r.error is not None) for r in transcript.records] == [
            ("core_question", 0, False),
            ("solving_info", 0, False),
            ("answer", 0, False),
            ("extraction", 0, False),
            ("answer", 1, False),
            ("extraction", 1, False),
            ("answer", 2, True),
            ("answer", 3, False),
            ("extraction", 3, False),
            ("answer", 4, False),
            ("extraction", 4, True),
        ]
        assert len(transcript.errors) == 2
        assert transcript.errors[0].startswith("answer: ")
        assert transcript.errors[1].startswith("extraction: ")
        assert transcript.completed and transcript.votes == []
        assert transcript.predicted is None
        assert transcript.graded.extraction_source == "none" and not transcript.graded.correct
