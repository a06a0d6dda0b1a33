"""Reports: rounding, determinism, comparison, offline regrading."""

import json
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dup.exceptions import DupError, RunComparisonError
from dup.gateway import Gateway, MockBackend
from dup.prompts import MethodVariant
from dup.reporting import (
    Report,
    build_report,
    compare_report_sets,
    compare_runs,
    load_report,
    recount,
    report_row,
    round_accuracy,
    write_report,
)
from dup.runner import load_run, run_experiment, transcript_path
from dup.store import encode

from conftest import make_run_config
from test_runner import correct_script


def run_synth(tmp_path, script, **overrides):
    config = make_run_config(tmp_path, script, **overrides)
    gateway = Gateway(backend=MockBackend(script))
    return config, run_experiment(config, gateway)


class TestRounding:
    @pytest.mark.parametrize(
        "correct, total, expected",
        [
            (7, 10, 70.0),
            (5, 10, 50.0),
            (1, 3, 33.3),
            (2, 3, 66.7),
            (1, 8, 12.5),
            (1, 16, 6.3),  # 6.25 rounds half-up to 6.3
            (1319, 1319, 100.0),
            (0, 5, 0.0),
            (0, 0, 0.0),
            (849, 1319, 64.4),  # 64.3669... truncates neither way but rounds
        ],
    )
    def test_half_up_to_one_decimal(self, correct, total, expected):
        assert round_accuracy(correct, total) == expected

    @given(st.integers(min_value=0, max_value=500), st.integers(min_value=1, max_value=500))
    def test_rounded_value_close_to_ratio(self, correct, total):
        correct = min(correct, total)
        rounded = round_accuracy(correct, total)
        assert abs(rounded - 100 * correct / total) <= 0.05 + 1e-9
        assert 0.0 <= rounded <= 100.0


class TestReportContents:
    def test_counts_and_usage(self, tmp_path, synthetic_problems):
        script = correct_script(synthetic_problems)
        config, report = run_synth(tmp_path, script)
        assert report.total == 10
        assert report.correct == 10
        assert report.accuracy == 100.0
        assert report.usage["calls"] == 40
        assert report.usage["cached_calls"] == 0
        assert report.usage["prompt_tokens"] > 0
        assert len(report.per_problem) == 10
        assert report.per_problem[0]["extraction_source"] == "llm"

    def test_files_written(self, tmp_path, synthetic_problems):
        script = correct_script(synthetic_problems)
        config, report = run_synth(tmp_path, script)
        assert (tmp_path / "out" / "report.json").exists()
        text = (tmp_path / "out" / "report.txt").read_text(encoding="utf-8")
        assert "accuracy       100.0" in text

    def test_round_trip_from_disk(self, tmp_path, synthetic_problems):
        script = correct_script(synthetic_problems)
        config, report = run_synth(tmp_path, script)
        loaded = load_report(config.out_dir)
        assert loaded == report

    def test_deterministic_modulo_timestamps(self, tmp_path, synthetic_problems):
        script = correct_script(synthetic_problems)
        _, first = run_synth(tmp_path / "a", script)
        _, second = run_synth(tmp_path / "b", script)
        a, b = encode(first), encode(second)
        for key in ("started_at", "finished_at"):
            a.pop(key), b.pop(key)
        a["config"].pop("out_dir"), b["config"].pop("out_dir")
        a["config"].pop("mock_script"), b["config"].pop("mock_script")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class TestCompare:
    def make_report(self, dataset="synth10", accuracy=50.0, ids=("a", "b")):
        return Report(
            dataset=dataset,
            method="dup",
            model="m",
            config={},
            total=len(ids),
            correct=0,
            accuracy=accuracy,
            per_problem=[{"problem_id": i} for i in ids],
            usage={},
        )

    def test_delta_exact(self):
        row = compare_runs(self.make_report(accuracy=50.0), self.make_report(accuracy=70.0))
        assert row.delta == 20.0
        assert row.baseline_accuracy == 50.0
        assert row.candidate_accuracy == 70.0

    def test_negative_delta(self):
        row = compare_runs(self.make_report(accuracy=70.0), self.make_report(accuracy=50.1))
        assert row.delta == -19.9

    def test_dataset_mismatch_rejected(self):
        with pytest.raises(RunComparisonError):
            compare_runs(self.make_report(dataset="x"), self.make_report(dataset="y"))

    def test_problem_set_mismatch_lists_difference(self):
        baseline = self.make_report(ids=("a", "b", "c"))
        candidate = self.make_report(ids=("b", "d"))
        with pytest.raises(RunComparisonError) as excinfo:
            compare_runs(baseline, candidate)
        message = str(excinfo.value)
        assert "a" in message and "c" in message and "d" in message

    def test_report_sets_average(self):
        baselines = [self.make_report("d1", 50.0), self.make_report("d2", 60.0)]
        candidates = [self.make_report("d1", 54.0), self.make_report("d2", 61.0)]
        table = compare_report_sets(baselines, candidates)
        assert [row.delta for row in table.rows] == [4.0, 1.0]
        assert table.average_delta == 2.5
        rendered = table.to_table()
        assert "average delta" in rendered
        assert "+4.0" in rendered

    @pytest.mark.parametrize(
        "baselines, candidates, message",
        [
            ([], [], "nothing to compare: no report pairs supplied"),
            (["d1"], ["d2"], "no baseline run for dataset 'd2'"),
            (["d1", "d1"], ["d1"], "duplicate baseline for dataset 'd1'"),
            (["d1"], ["d1", "d1"], "duplicate candidate for dataset 'd1'"),
            (["d1", "d2"], ["d1"], "baselines without candidates: ['d2']"),
        ],
        ids=["empty", "no-baseline", "duplicate-baseline", "duplicate-candidate", "unmatched"],
    )
    def test_a_report_set_refusal_names_its_fault(self, baselines, candidates, message):
        with pytest.raises(RunComparisonError, match=re.escape(message)):
            compare_report_sets(
                [self.make_report(d) for d in baselines], [self.make_report(d) for d in candidates]
            )

    def test_report_sets_validation(self):
        with pytest.raises(RunComparisonError):
            compare_report_sets([], [])
        with pytest.raises(RunComparisonError):
            compare_report_sets([self.make_report("d1")], [self.make_report("d2")])
        with pytest.raises(RunComparisonError):
            compare_report_sets(
                [self.make_report("d1"), self.make_report("d1")], [self.make_report("d1")]
            )
        with pytest.raises(RunComparisonError):
            compare_report_sets(
                [self.make_report("d1"), self.make_report("d2")], [self.make_report("d1")]
            )


class TestRecount:
    def test_reproduces_report_without_calls(self, tmp_path, synthetic_problems):
        script = correct_script(synthetic_problems)
        config, original = run_synth(tmp_path, script)
        regraded = recount(config.out_dir)
        assert regraded.accuracy == original.accuracy
        assert regraded.correct == original.correct

    def test_regrades_edited_transcripts(self, tmp_path, synthetic_problems):
        script = correct_script(synthetic_problems)
        config, original = run_synth(tmp_path, script)
        # Tamper with one stored prediction; recount must follow the data.
        path = transcript_path(config.out_dir, synthetic_problems[0].id)
        data = json.loads(path.read_text(encoding="utf-8"))
        data["predicted"]["value"] = "999"
        path.write_text(json.dumps(data), encoding="utf-8")
        regraded = recount(config.out_dir)
        assert regraded.correct == original.correct - 1

    def test_report_without_a_row_for_a_problem_is_an_error(self, tmp_path, synthetic_problems):
        script = correct_script(synthetic_problems)
        config, _ = run_synth(tmp_path, script)
        _, problems, stored = load_run(config.out_dir)
        missing = problems[2].id
        rows = {p.id: report_row(p.id, stored(p.id)) for p in problems if p.id != missing}
        with pytest.raises(DupError, match=f"missing transcript for problem {missing}"):
            build_report(config, [p.id for p in problems], rows)

    def test_missing_transcript_is_an_error(self, tmp_path, synthetic_problems):
        script = correct_script(synthetic_problems)
        config, _ = run_synth(tmp_path, script)
        transcript_path(config.out_dir, synthetic_problems[2].id).unlink()
        with pytest.raises(DupError):
            recount(config.out_dir)
