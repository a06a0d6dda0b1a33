"""Tests of the benchmark's own parts: generator, fault plan, tracing, run length.

Run from the repository root with `python3 -m pytest bench/tests -q`.
"""

import json
import statistics

import pytest

import run as bench_run
import workload as wl
from child import check
from dup.exceptions import TransientBackendError
from dup.gateway import ChatMessage, ChatRequest, Gateway, MockBackend
from dup.runner import RunConfig, run_experiment
from faults import FAULT_RATE, FaultPlan, FaultyBackend, request_index
from tracing import Tracer, chain_length, layer_metrics, self_times

SC_CALLS = wl.calls_per_problem(5)


def _request(tag: str) -> ChatRequest:
    return ChatRequest(model="m", messages=(ChatMessage("user", tag),), tag=tag)


def _tags(problems: int, samples: int) -> list[str]:
    tags = []
    for n in range(1, problems + 1):
        pid = f"bench-{n:05d}"
        tags += [f"core_question:{pid}", f"solving_info:{pid}"]
        for i in range(samples):
            tags += [f"answer:{pid}#{i}", f"extraction:{pid}#{i}"]
    return tags


def test_request_index_is_one_to_one_over_a_problem_set():
    indices = [request_index(tag, SC_CALLS) for tag in _tags(50, 5)]
    assert len(set(indices)) == len(indices)


def test_same_seed_gives_same_delays_and_faults():
    slots = [(i, a) for i in range(3000) for a in range(2)]
    assert [FaultPlan(7).decide(i, a) for i, a in slots] == [
        FaultPlan(7).decide(i, a) for i, a in slots
    ]


def test_other_seed_changes_delays_and_faults():
    first = [FaultPlan(7).decide(i, 0) for i in range(3000)]
    second = [FaultPlan(8).decide(i, 0) for i in range(3000)]
    assert sum(a[0] != b[0] for a, b in zip(first, second)) > 2900
    faulted = {i for i, (_, fault) in enumerate(first) if fault}
    assert faulted != {i for i, (_, fault) in enumerate(second) if fault}


def test_delay_distribution_and_fault_rate():
    decisions = [FaultPlan(3).decide(i, 0) for i in range(20000)]
    delays = sorted(d for d, _ in decisions)
    assert 0.048 < statistics.median(delays) < 0.052
    assert delays[-1] > 0.2 and delays[0] >= 0.04
    assert sum(f for _, f in decisions) == pytest.approx(FAULT_RATE * 20000, abs=3)
    # A retry of a faulted send never faults again.
    plan = FaultPlan(3)
    assert not any(plan.decide(i, 1)[1] for i in range(20000) if plan.decide(i, 0)[1])


def _faulty(seed: int, sleeps: list):
    return FaultyBackend(MockBackend({"default": "ok"}), FaultPlan(seed), SC_CALLS, sleeps.append)


def test_backend_delays_and_faults_follow_request_and_attempt_not_order():
    tags = _tags(40, 5)
    forward, backward = [], []
    a, b = _faulty(11, forward), _faulty(11, backward)

    def outcomes(backend, order):
        seen = {}
        for tag in order:
            attempts = []
            while True:
                try:
                    backend.send(_request(tag))
                    attempts.append("ok")
                    break
                except TransientBackendError:
                    attempts.append("fault")
            seen[tag] = attempts
        return seen

    assert outcomes(a, tags) == outcomes(b, list(reversed(tags)))
    assert sorted(forward) == sorted(backward)
    assert a.faults == b.faults > 0


def test_gateway_retries_injected_faults():
    sleeps = []
    backend = _faulty(11, sleeps)
    gateway = Gateway(backend=backend, retry_base_delay_s=0.0, max_concurrency=2)
    for tag in _tags(40, 5):
        assert gateway.complete(_request(tag)).content == "ok"
    assert backend.sends == len(_tags(40, 5)) + backend.faults


def test_generator_is_deterministic_per_seed(tmp_path):
    wl.generate(tmp_path / "a", 5, 30, 5)
    wl.generate(tmp_path / "b", 5, 30, 5)
    wl.generate(tmp_path / "c", 6, 30, 5)
    for name in (wl.DATASET_FILE, wl.SCRIPT_FILE, wl.EXPECTED_FILE):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        assert (tmp_path / "a" / name).read_bytes() != (tmp_path / "c" / name).read_bytes()


def _run(tmp_path, problems: int, samples: int, trace: bool = False):
    expected = wl.generate(tmp_path, 9, problems, samples)
    config = RunConfig(
        dataset=wl.DATASET_NAME,
        n_samples=samples,
        temperature=0.7 if samples > 1 else 0.0,
        dataset_path=str(tmp_path / wl.DATASET_FILE),
        answer_type="number",
        backend="mock",
        mock_script=str(tmp_path / wl.SCRIPT_FILE),
        out_dir=str(tmp_path / "out"),
        workers=2,
    )
    gateway = Gateway(backend=MockBackend(config.mock_script), max_concurrency=2)
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install(gateway)
        try:
            report = tracer.phase("runner.run_experiment", run_experiment, config, gateway)
        finally:
            tracer.uninstall()
    else:
        report = run_experiment(config, gateway)
    return expected, report, tracer


@pytest.mark.parametrize("samples", [1, 5])
def test_expected_report_matches_a_real_run(tmp_path, samples):
    expected, report, _ = _run(tmp_path, 200, samples)
    failed, errors = check(report, expected, tmp_path / "out")
    assert (failed, errors) == (set(), [])
    assert all(expected["extraction_sources"].values())
    assert 0 < expected["correct"] < expected["total"]


def test_check_flags_a_mismatch(tmp_path):
    expected, report, _ = _run(tmp_path, 20, 1)
    row = report.per_problem[3]
    row["correct"] = not row["correct"]
    failed, _ = check(report, expected, tmp_path / "out")
    assert failed == {row["problem_id"]}


def test_self_time_subtracts_the_union_of_children():
    spans = [
        (1, "root", 0.0, 10.0, None, None, False),
        (2, "a", 1.0, 4.0, 1, None, False),
        (3, "b", 3.0, 5.0, 1, None, False),
    ]
    assert self_times(spans)[1] == pytest.approx(6.0)


def test_chain_length_counts_non_overlapping_calls():
    assert chain_length([(0, 1), (1, 2), (2, 3)]) == 3
    assert chain_length([(0, 2), (1, 3), (2, 4)]) == 2


@pytest.mark.parametrize("samples,calls", [(1, 4), (5, 12)])
def test_traced_run_reports_the_call_oracle(tmp_path, samples, calls):
    expected, _, tracer = _run(tmp_path, 20, samples, trace=True)
    layers = layer_metrics(tracer, 20, 2)
    assert layers["runner.calls_per_problem"] == calls
    assert layers["runner.critical_path_calls"] == calls
    assert layers["gateway.calls"] == expected["calls"]
    # Stage 1, stage 2 and the answer prompt once, one extraction prompt per sample.
    assert layers["prompts.renders"] == 20 * (3 + samples)
    assert layers["extraction.source_llm"] + layers["extraction.source_rule_fallback"] + layers[
        "extraction.source_none"
    ] == 20 * samples
    spans_file = tmp_path / "spans.jsonl"
    tracer.write(spans_file)
    first = json.loads(spans_file.read_text().splitlines()[0])
    assert set(first) == {"id", "name", "start", "end", "parent", "problem", "failed"}


def test_runs_discard_repetitions_with_steal_until_enough_are_kept(tmp_path):
    calm, busy = {"steal_share": 0.0}, {"steal_share": 0.2}
    run = bench_run.Run("offline-warm", 1, 20, False, tmp_path)
    assert not run.done(25, 15, [calm, busy], [])
    assert run.done(21, 20, [calm], [])
    assert run.done(30, 15, [calm, busy], [])
    assert not run.done(45, 0, [busy, busy], [])
    assert run.done(50, 0, [busy, busy], [])
    traced = bench_run.Run("offline-warm", 1, 20, True, tmp_path)
    assert not traced.done(30, 25, [calm], [busy])
    least = bench_run._least_steal([{"steal_share": s} for s in (0.3, 0.1, 0.2)])
    assert [r["steal_share"] for r in least] == [0.1, 0.2]
