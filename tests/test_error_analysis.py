"""Failure classification: category parsing, judging, sampled aggregation."""

import pytest

from dup.error_analysis import (
    ErrorCategory,
    ErrorReport,
    classify_failure,
    parse_category,
    sample_and_analyze,
)
from dup.exceptions import InvalidInputError
from dup.gateway import Gateway, MockBackend
from dup.grading import GradedResult, NormalizedAnswer
from dup.runner import RunConfig, run_problem
from dup.store import encode


class TestParseCategory:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("This is a Semantic Misunderstanding of the question.", ErrorCategory.SEMANTIC_MISUNDERSTANDING),
            ("1. Semantic Misunderstanding, because the model misread.", ErrorCategory.SEMANTIC_MISUNDERSTANDING),
            ("Clearly a calculation error in step 2.", ErrorCategory.CALCULATION_ERROR),
            ("2. Calculation error: 6 * 7 was computed as 41.", ErrorCategory.CALCULATION_ERROR),
            ("The response has a step-missing problem.", ErrorCategory.STEP_MISSING),
            ("Step missing: it never subtracted the fee.", ErrorCategory.STEP_MISSING),
            ("3. Step-missing errors, one step was skipped.", ErrorCategory.STEP_MISSING),
            ("No idea what went wrong here.", ErrorCategory.UNCLASSIFIED),
            ("", ErrorCategory.UNCLASSIFIED),
        ],
    )
    def test_labels(self, text, expected):
        assert parse_category(text) is expected

    def test_earliest_mention_wins(self):
        text = "calculation error? No: this is a semantic misunderstanding."
        assert parse_category(text) is ErrorCategory.CALCULATION_ERROR
        flipped = "semantic misunderstanding? No: a calculation error."
        assert parse_category(flipped) is ErrorCategory.SEMANTIC_MISUNDERSTANDING


class TestClassifyFailure:
    def test_returns_category_and_reply(self, synthetic_problems):
        problem = synthetic_problems[0]
        reply = "2. Calculation error: the multiplication was wrong."
        gateway = Gateway(backend=MockBackend({"by_tag": {f"error_judge:{problem.id}": reply}}))
        category, judge_reply = classify_failure(
            problem, "The answer is 19.", problem.gold_raw, gateway, judge_model="judge"
        )
        assert category is ErrorCategory.CALCULATION_ERROR
        assert judge_reply == reply

    def test_gateway_failure_is_unclassified(self, synthetic_problems):
        problem = synthetic_problems[0]
        gateway = Gateway(backend=MockBackend({"by_tag": {}}))  # scripted miss
        category, judge_reply = classify_failure(
            problem, "wrong", problem.gold_raw, gateway, judge_model="judge"
        )
        assert category is ErrorCategory.UNCLASSIFIED
        assert judge_reply.startswith("[gateway error:")


def run_transcripts(problems, script, **config_overrides):
    gateway = Gateway(backend=MockBackend(script))
    config = RunConfig(dataset="synth10", **config_overrides)
    return {p.id: run_problem(p, config, gateway) for p in problems}


def failing_script(problems, wrong_ids):
    script = {"by_tag": {}}
    for problem in problems:
        value = problem.gold.value + 1 if problem.id in wrong_ids else problem.gold.value
        script["by_tag"][f"core_question:{problem.id}"] = "core"
        script["by_tag"][f"solving_info:{problem.id}"] = "info"
        script["by_tag"][f"answer:{problem.id}"] = f"The answer is {value}"
        script["by_tag"][f"extraction:{problem.id}"] = str(value)
    return script


class TestSampleAndAnalyze:
    def test_counts_and_details(self, synthetic_problems):
        problems = synthetic_problems[:5]
        wrong_ids = {p.id for p in problems[:3]}
        transcripts = run_transcripts(problems, failing_script(problems, wrong_ids))
        judge_script = {"by_tag": {}}
        replies = iter(
            [
                "1. Semantic Misunderstanding.",
                "2. Calculation error.",
                "3. Step-missing errors.",
            ]
        )
        for problem in problems:
            if problem.id in wrong_ids:
                judge_script["by_tag"][f"error_judge:{problem.id}"] = next(replies)
        gateway = Gateway(backend=MockBackend(judge_script))
        report = sample_and_analyze(
            problems,
            transcripts.get,
            k=5,
            seed=0,
            gateway=gateway,
            judge_model="judge",
            method="dup",
        )
        assert report.sample_size == 5
        assert report.total_failures == 3
        assert sum(report.counts.values()) == 3
        assert len(report.details) == 3
        for detail in report.details:
            assert detail["problem_id"] in wrong_ids
        report.validate()

    def test_correct_problems_are_not_judged(self, synthetic_problems):
        problems = synthetic_problems[:4]
        transcripts = run_transcripts(problems, failing_script(problems, set()))
        gateway = Gateway(backend=MockBackend({"by_tag": {}}))  # would error if called
        report = sample_and_analyze(
            problems, transcripts.get, k=4, seed=0, gateway=gateway, judge_model="judge"
        )
        assert report.total_failures == 0
        assert gateway.backend.calls == 0

    def test_sample_is_seeded_and_deterministic(self, synthetic_problems):
        wrong_ids = {p.id for p in synthetic_problems}
        transcripts = run_transcripts(
            synthetic_problems, failing_script(synthetic_problems, wrong_ids)
        )
        judge_script = {"default": "2. Calculation error."}

        def sampled_ids(seed):
            gateway = Gateway(backend=MockBackend(judge_script))
            report = sample_and_analyze(
                synthetic_problems,
                transcripts.get,
                k=4,
                seed=seed,
                gateway=gateway,
                judge_model="j",
            )
            return [detail["problem_id"] for detail in report.details]

        assert sampled_ids(7) == sampled_ids(7)
        assert sampled_ids(7) != sampled_ids(8)

    def test_judge_sees_a_sample_that_voted_for_the_prediction(self, synthetic_problems):
        problem = synthetic_problems[0]  # gold 18
        script = {f"core_question:{problem.id}": "core", f"solving_info:{problem.id}": "info"}
        for i, value in enumerate([12, 13, 13]):
            script[f"answer:{problem.id}#{i}"] = f"Sample {i}: the answer is {value}."
            script[f"extraction:{problem.id}#{i}"] = str(value)
        transcripts = run_transcripts(
            [problem], {"by_tag": script}, n_samples=3, temperature=0.7
        )
        assert transcripts[problem.id].predicted == NormalizedAnswer.of_number(13)
        prompts = []

        class RecordingBackend(MockBackend):
            def send(self, request):
                prompts.append(request.messages[-1].content)
                return super().send(request)

        gateway = Gateway(backend=RecordingBackend({"default": "2. Calculation error."}))
        sample_and_analyze(
            [problem], transcripts.get, k=1, seed=0, gateway=gateway, judge_model="j"
        )
        assert len(prompts) == 1
        assert "Sample 1: the answer is 13." in prompts[0]
        assert "Sample 0" not in prompts[0]

    def test_provider_failure_is_unclassified_without_a_judge_call(self, synthetic_problems):
        problems = synthetic_problems[:4]
        broken, wrong, unextracted, unextracted_sample = problems
        script = failing_script(problems, {wrong.id})
        del script["by_tag"][f"core_question:{broken.id}"]  # stage 1 fails
        del script["by_tag"][f"extraction:{unextracted.id}"]  # the answer reads the gold
        transcripts = run_transcripts(problems, script)
        # With three samples, only sample 2's extraction fails.
        by_tag = script["by_tag"]
        for stage in ("answer", "extraction"):
            text = by_tag.pop(f"{stage}:{unextracted_sample.id}")
            for i in range(2 if stage == "extraction" else 3):
                by_tag[f"{stage}:{unextracted_sample.id}#{i}"] = text
        transcripts.update(
            run_transcripts([unextracted_sample], script, n_samples=3, temperature=0.7)
        )
        assert transcripts[broken.id].answer_text is None
        assert transcripts[unextracted.id].answer_text is not None
        assert transcripts[unextracted_sample.id].answer_text is not None
        judged = []

        class RecordingBackend(MockBackend):
            def send(self, request):
                judged.append(request.tag)
                return super().send(request)

        gateway = Gateway(backend=RecordingBackend({"default": "2. Calculation error."}))
        report = sample_and_analyze(
            problems, transcripts.get, k=4, seed=0, gateway=gateway, judge_model="j"
        )
        assert judged == [f"error_judge:{wrong.id}"]
        assert report.total_failures == 4
        assert report.counts[ErrorCategory.UNCLASSIFIED] == 3
        assert report.counts[ErrorCategory.CALCULATION_ERROR] == 1
        assert sum(report.counts.values()) == report.total_failures
        for failed in (broken, unextracted, unextracted_sample):
            detail = next(d for d in report.details if d["problem_id"] == failed.id)
            assert detail["category"] == ErrorCategory.UNCLASSIFIED.value
            assert transcripts[failed.id].errors[0] in detail["judge_reply"]

    def test_oversized_sample_rejected(self, synthetic_problems):
        with pytest.raises(InvalidInputError):
            sample_and_analyze(
                synthetic_problems[:2],
                {}.get,
                k=3,
                seed=0,
                gateway=Gateway(backend=MockBackend({"default": "x"})),
                judge_model="j",
            )

    def test_negative_sample_rejected(self, synthetic_problems):
        # A negative k would slice off the last problems instead of sampling.
        with pytest.raises(InvalidInputError):
            sample_and_analyze(
                synthetic_problems,
                {}.get,
                k=-1,
                seed=0,
                gateway=Gateway(backend=MockBackend({"default": "x"})),
                judge_model="j",
            )


class TestErrorReport:
    def test_validate_rejects_inconsistent_counts(self):
        report = ErrorReport(dataset="d", method="m", sample_size=5)
        report.counts[ErrorCategory.CALCULATION_ERROR] = 2
        report.total_failures = 1
        with pytest.raises(InvalidInputError):
            report.validate()

    def test_validate_rejects_failures_beyond_sample(self):
        report = ErrorReport(dataset="d", method="m", sample_size=1)
        report.counts[ErrorCategory.CALCULATION_ERROR] = 2
        report.total_failures = 2
        with pytest.raises(InvalidInputError):
            report.validate()

    def test_table_lists_all_categories(self):
        report = ErrorReport(dataset="d", method="m", sample_size=5)
        report.counts[ErrorCategory.SEMANTIC_MISUNDERSTANDING] = 3
        report.counts[ErrorCategory.CALCULATION_ERROR] = 1
        report.counts[ErrorCategory.STEP_MISSING] = 1
        report.total_failures = 5
        table = report.to_table()
        assert "Semantic Misunderstanding (SM)" in table
        assert "Calculation Error (CE)" in table
        assert "Step-missing Error (SE)" in table
        assert "Total failures" in table
        assert table.splitlines(keepends=True)[-1] == f"{'Sample size':<30}      5\n"

    def test_stored_counts_use_category_values(self):
        report = ErrorReport(dataset="d", method="m", sample_size=0)
        data = encode(report)
        assert set(data["counts"]) == {
            "semantic_misunderstanding",
            "calculation_error",
            "step_missing",
            "unclassified",
        }
