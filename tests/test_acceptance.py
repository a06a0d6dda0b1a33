"""Acceptance gate: one test per shipping criterion, offline via the mock backend.

Each criterion prints a single [ACCEPTANCE] PASS or FAIL line and enforces
its runtime budget. Criterion 8 is a manual live smoke test, skipped unless
explicitly enabled through the environment.
"""

import contextlib
import json
import os
import random
import time
from decimal import Decimal

import pytest

from dup.consistency import Vote, aggregate
from dup.datasets import load_dataset
from dup.error_analysis import ErrorCategory, sample_and_analyze
from dup.gateway import Gateway, MockBackend
from dup.grading import NormalizedAnswer, extract_rule_based, grade, normalize
from dup.prompts import (
    AnswerType,
    render_core_question_prompt,
    render_cot_prompt,
    render_dup_s_prompt,
    render_error_analysis_prompt,
    render_final_answer_prompt,
    render_info_extraction_prompt,
    render_last_letter_prompt,
)
from dup.reporting import compare_runs
from dup.runner import (
    MethodVariant,
    RunConfig,
    StageConfig,
    build_run_gateway,
    run_experiment,
    run_problem,
)

from conftest import DATA_DIR, GOLDEN_DIR, make_run_config
from oracles import oracle_extract, oracle_majority
from test_error_analysis import failing_script, run_transcripts
from test_prompts import (
    SAMPLE_CORE,
    SAMPLE_INFO,
    SAMPLE_LAST_LETTER,
    SAMPLE_QUESTION,
)
from test_runner import CALL_SHAPE


@contextlib.contextmanager
def criterion(number, title, budget_s):
    start = time.perf_counter()
    ok = False
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < budget_s, f"runtime {elapsed:.2f}s exceeds {budget_s:.0f}s budget"
        ok = True
    finally:
        status = "PASS" if ok else "FAIL"
        print(f"[ACCEPTANCE] {number}. {title}: {status}")


def golden(name):
    return (GOLDEN_DIR / name).read_text(encoding="utf-8")


def test_criterion_1_template_fidelity():
    with criterion(1, "template fidelity (golden prompts)", 1.0):
        assert render_core_question_prompt(SAMPLE_QUESTION) == golden("stage1_core_question.txt")
        assert render_info_extraction_prompt(SAMPLE_QUESTION, SAMPLE_CORE) == golden(
            "stage2_solving_info.txt"
        )
        assert render_final_answer_prompt(
            SAMPLE_QUESTION, core_question=SAMPLE_CORE, info=SAMPLE_INFO
        ) == golden("stage3_final_answer.txt")
        assert render_dup_s_prompt(SAMPLE_QUESTION) == golden("dup_s.txt")
        assert render_cot_prompt(SAMPLE_QUESTION) == golden("zero_shot_cot.txt")
        assert render_last_letter_prompt(SAMPLE_LAST_LETTER) == golden("last_letter.txt")
        assert render_error_analysis_prompt(
            SAMPLE_QUESTION,
            "Megan has 30 - 12 = 18 stamps, so the answer is 18",
            "27",
        ) == golden("error_analysis.txt")


def test_criterion_2_pipeline_call_shape():
    with criterion(2, "pipeline call shape (ablations, DUP-s, CoT)", 5.0):
        problems = load_dataset(
            DATA_DIR / "synthetic_number.jsonl", "synth10", answer_type=AnswerType.NUMBER
        )
        problem = problems[0]
        for stages, expected_calls in CALL_SHAPE.items():
            backend = MockBackend({"default": "The answer is 18"})
            config = RunConfig(dataset="synth10", stages=StageConfig(*stages))
            run_problem(problem, config, Gateway(backend=backend))
            assert backend.calls == expected_calls, stages
        for method in (MethodVariant.DUP_S, MethodVariant.ZERO_SHOT_COT):
            backend = MockBackend({"default": "The answer is 18"})
            config = RunConfig(dataset="synth10", method=method)
            run_problem(problem, config, Gateway(backend=backend))
            assert backend.calls == 2, method


def test_criterion_3_end_to_end_accuracy(tmp_path):
    with criterion(3, "end-to-end accuracy 70.0 and delta +20.0", 5.0):
        dup_config = make_run_config(
            tmp_path, DATA_DIR / "mock_dup.json", out_dir=str(tmp_path / "dup")
        )
        dup_report = run_experiment(dup_config, build_run_gateway(dup_config))
        assert dup_report.accuracy == 70.0
        cot_config = make_run_config(
            tmp_path,
            DATA_DIR / "mock_cot.json",
            out_dir=str(tmp_path / "cot"),
            method=MethodVariant.ZERO_SHOT_COT,
        )
        cot_report = run_experiment(cot_config, build_run_gateway(cot_config))
        assert cot_report.accuracy == 50.0
        row = compare_runs(cot_report, dup_report)
        assert row.delta == 20.0


def test_criterion_4_self_consistency_oracle():
    with criterion(4, "self-consistency aggregation vs brute-force oracle", 5.0):
        rng = random.Random(20240212)
        answers = [3, 7, 11, 42]
        agreements = 0
        for _ in range(1000):
            values = [rng.choice(answers) for _ in range(10)]
            votes = [Vote(i, NormalizedAnswer.of_number(v)) for i, v in enumerate(values)]
            got = aggregate(votes)
            want = NormalizedAnswer.of_number(oracle_majority(values))
            agreements += got == want
        assert agreements == 1000


def test_criterion_5_grading_oracle():
    with criterion(5, "grading vs reference oracle on frozen corpus", 1.0):
        corpus = [
            json.loads(line)
            for line in (DATA_DIR / "grading_corpus.jsonl").read_text(encoding="utf-8").splitlines()
        ]
        assert len(corpus) == 50
        agreements = 0
        for case in corpus:
            gold = None if case["gold"] is None else NormalizedAnswer.of_number(case["gold"])
            result = extract_rule_based(case["text"], AnswerType(case["answer_type"]), gold)
            got = None if result is None else str(result.value)
            reference = oracle_extract(case["text"], case["answer_type"], case["gold"])
            reference = None if reference is None else str(reference)
            agreements += got == reference == case["expected"]
        assert agreements == 50
        # Hand-derived tolerance case: gold 1/3, bound 1e-6 * max(1, 1/3).
        gold = NormalizedAnswer.of_number(Decimal(1) / Decimal(3))
        assert grade(normalize("0.33333333", AnswerType.NUMBER), gold)
        assert not grade(normalize("0.33", AnswerType.NUMBER), gold)


def test_criterion_6_resume_determinism(tmp_path):
    with criterion(6, "interrupt/resume determinism and cache reuse", 10.0):
        # Uninterrupted reference run, then wipe part of it and resume.
        config = make_run_config(tmp_path, DATA_DIR / "mock_dup.json")
        out_dir = tmp_path / "out"
        run_experiment(config, build_run_gateway(config))
        reference = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        for name in ("synth10-00003", "synth10-00006", "synth10-00009", "synth10-00010"):
            (out_dir / "transcripts" / f"{name}.json").unlink()
        (out_dir / "report.json").unlink()
        (out_dir / "report.txt").unlink()
        run_experiment(config, build_run_gateway(config))
        resumed = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        for report in (reference, resumed):
            report.pop("started_at")
            report.pop("finished_at")
        assert json.dumps(resumed, sort_keys=True) == json.dumps(reference, sort_keys=True)

        # A fresh run over a warm cache must never reach the backend.
        cache_dir = str(tmp_path / "cache")
        warm_config = make_run_config(
            tmp_path, DATA_DIR / "mock_dup.json", out_dir=str(tmp_path / "warm"), cache_dir=cache_dir
        )
        warm_gateway = build_run_gateway(warm_config)
        run_experiment(warm_config, warm_gateway)
        assert warm_gateway.backend.calls == 40
        cold_config = make_run_config(
            tmp_path, DATA_DIR / "mock_dup.json", out_dir=str(tmp_path / "cold"), cache_dir=cache_dir
        )
        cold_gateway = build_run_gateway(cold_config)
        report = run_experiment(cold_config, cold_gateway)
        assert cold_gateway.backend.calls == 0
        assert report.accuracy == 70.0


def test_criterion_7_error_analysis_aggregation(synthetic_problems):
    with criterion(7, "error taxonomy counts {SM:3, CE:1, SE:1}", 1.0):
        problems = synthetic_problems[:5]
        wrong_ids = {p.id for p in problems}
        transcripts = run_transcripts(problems, failing_script(problems, wrong_ids))
        replies = [
            "1. Semantic Misunderstanding.",
            "1. Semantic misunderstanding of the question.",
            "The failure is 1. Semantic Misunderstanding Errors.",
            "2. Calculation error in the final step.",
            "3. Step-missing errors.",
        ]
        judge_script = {
            "by_tag": {f"error_judge:{p.id}": reply for p, reply in zip(problems, replies)}
        }
        report = sample_and_analyze(
            problems,
            transcripts.get,
            k=5,
            seed=0,
            gateway=Gateway(backend=MockBackend(judge_script)),
            judge_model="judge",
            method="dup",
        )
        report.validate()
        assert report.total_failures == 5
        assert report.counts[ErrorCategory.SEMANTIC_MISUNDERSTANDING] == 3
        assert report.counts[ErrorCategory.CALCULATION_ERROR] == 1
        assert report.counts[ErrorCategory.STEP_MISSING] == 1
        assert sum(report.counts.values()) == report.total_failures


LIVE_SMOKE = os.environ.get("DUP_LIVE_SMOKE") == "1"


@pytest.mark.skipif(
    not LIVE_SMOKE,
    reason="manual live smoke: set DUP_LIVE_SMOKE=1, OPENAI_API_KEY, DUP_GSM8K_PATH",
)
def test_criterion_8_live_smoke(tmp_path):
    """Non-binding expectation on 20 seeded GSM8K problems: DUP >= CoT."""
    gsm8k_path = os.environ.get("DUP_GSM8K_PATH")
    if not gsm8k_path or not os.environ.get("OPENAI_API_KEY"):
        pytest.skip("live smoke requires OPENAI_API_KEY and DUP_GSM8K_PATH")
    accuracies = {}
    for method in (MethodVariant.DUP, MethodVariant.ZERO_SHOT_COT):
        config = RunConfig(
            dataset="gsm8k",
            dataset_path=gsm8k_path,
            method=method,
            max_problems=20,
            seed=0,
            out_dir=str(tmp_path / method.value),
            cache_dir=str(tmp_path / "cache"),
        )
        report = run_experiment(config, build_run_gateway(config))
        accuracies[method] = report.accuracy
    dup_accuracy = accuracies[MethodVariant.DUP]
    cot_accuracy = accuracies[MethodVariant.ZERO_SHOT_COT]
    print(f"[ACCEPTANCE] 8. live smoke: DUP {dup_accuracy} vs CoT {cot_accuracy}")
    if dup_accuracy < cot_accuracy:
        pytest.xfail(f"non-binding expectation missed: DUP {dup_accuracy} < CoT {cot_accuracy}")
    assert dup_accuracy >= cot_accuracy
