"""Command line surface: every subcommand driven through main()."""

import json
import os
import sqlite3
import weakref
from contextlib import closing

import pytest

import dup.gateway as gateway_module
import dup.runner as runner_module
from dup.cli import main
from dup.gateway import CACHE_FILE, Gateway, MockBackend

from conftest import DATA_DIR, SYNTH_DATASET


def run_cli(*argv):
    return main([str(arg) for arg in argv])


def dup_run_args(out_dir, script=DATA_DIR / "mock_dup.json", **extra):
    args = [
        "run",
        "--dataset", "synth10",
        "--dataset-path", SYNTH_DATASET,
        "--answer-type", "number",
        "--backend", "mock",
        "--mock-script", script,
        "--out-dir", out_dir,
        "--concurrency", "1",
    ]
    for flag, value in extra.items():
        args.extend([flag, value])
    return args


class TestRun:
    def test_run_writes_report(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        assert run_cli(*dup_run_args(out_dir)) == 0
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        assert report["accuracy"] == 70.0
        printed = capsys.readouterr().out
        assert "accuracy       70.0" in printed

    def test_run_via_manifest(self, tmp_path):
        out_dir = tmp_path / "run"
        code = run_cli(
            "run",
            "--dataset", "synth10",
            "--manifest", DATA_DIR / "manifest.json",
            "--backend", "mock",
            "--mock-script", DATA_DIR / "mock_dup.json",
            "--out-dir", out_dir,
        )
        assert code == 0
        assert (out_dir / "report.json").exists()

    def test_stage_ablation_flag(self, tmp_path):
        out_dir = tmp_path / "run"
        assert run_cli(*dup_run_args(out_dir), "--stages", "none") == 0
        config = json.loads((out_dir / "config.json").read_text(encoding="utf-8"))
        assert config["stages"] == {"stage1": False, "stage2": False, "stage3": False}

    def test_self_consistency_defaults_temperature(self, tmp_path):
        # No answer:...#i entries in the fixture script, so just check the
        # stored config; the run itself is covered elsewhere.
        out_dir = tmp_path / "run"
        script = {"default": "The answer is 1"}
        script_path = tmp_path / "sc.json"
        script_path.write_text(json.dumps(script), encoding="utf-8")
        assert run_cli(*dup_run_args(out_dir, script=script_path), "--self-consistency", "3") == 0
        config = json.loads((out_dir / "config.json").read_text(encoding="utf-8"))
        assert config["n_samples"] == 3
        assert config["temperature"] == 0.7

    def test_mock_backend_requires_script(self, tmp_path):
        code = run_cli(
            "run",
            "--dataset", "synth10",
            "--dataset-path", SYNTH_DATASET,
            "--answer-type", "number",
            "--backend", "mock",
            "--out-dir", tmp_path / "run",
        )
        assert code == 2

    def test_zero_max_tokens_rejected_before_writing(self, tmp_path):
        out_dir = tmp_path / "run"
        assert run_cli(*dup_run_args(out_dir), "--max-tokens", "0") == 2
        assert not (out_dir / "config.json").exists()

    @pytest.mark.parametrize("gold", ["#### NaN", "#### Infinity"])
    def test_gold_grade_cannot_compare_is_refused_before_writing(self, tmp_path, gold):
        dataset = tmp_path / "data.jsonl"
        rows = [{"question": "One?", "answer": "#### 18"}, {"question": "Two?", "answer": gold}]
        dataset.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        out_dir = tmp_path / "run"
        assert run_cli(*dup_run_args(out_dir), "--dataset-path", dataset) == 2
        assert not out_dir.exists()

    @pytest.mark.parametrize("script", [{"by_tag": [1, 2]}, {"by_tag": "x"}, {"by_digest": 3}])
    def test_mock_script_with_a_table_that_is_not_an_object_exits_2(self, tmp_path, script):
        script_path = tmp_path / "script.json"
        script_path.write_text(json.dumps(script), encoding="utf-8")
        out_dir = tmp_path / "run"
        assert run_cli(*dup_run_args(out_dir, script=script_path)) == 2
        assert not out_dir.exists()

    def test_cached_run_over_a_lone_surrogate(self, tmp_path):
        # json.loads reads the escape \ud800 as a lone surrogate, which UTF-8 cannot encode.
        dataset = tmp_path / "odd.jsonl"
        dataset.write_text(
            '{"question": "One \\ud800?", "answer": "3"}\n{"question": "Two?", "answer": "3"}\n',
            encoding="utf-8",
        )
        script = tmp_path / "script.json"
        script.write_text('{"default": "The answer is 3."}', encoding="utf-8")
        args = [
            "run",
            "--dataset", "odd",
            "--dataset-path", dataset,
            "--answer-type", "number",
            "--backend", "mock",
            "--mock-script", script,
            "--cache-dir", tmp_path / "cache",
        ]
        for out in ("first", "second"):
            assert run_cli(*args, "--out-dir", tmp_path / out) == 0
        report = json.loads((tmp_path / "second" / "report.json").read_text(encoding="utf-8"))
        assert report["usage"]["cached_calls"] == report["usage"]["calls"] == 8
        assert report["correct"] == 2
        assert run_cli("recount", "--out-dir", tmp_path / "second") == 0

    def test_unknown_method_rejected_by_argparse(self, tmp_path):
        with pytest.raises(SystemExit):
            run_cli(*dup_run_args(tmp_path / "run"), "--method", "telepathy")


class TestResume:
    def test_resume_completes_partial_run(self, tmp_path):
        out_dir = tmp_path / "run"
        assert run_cli(*dup_run_args(out_dir)) == 0
        # Drop two transcripts, then resume from the stored configuration.
        for name in ("synth10-00002", "synth10-00005"):
            (out_dir / "transcripts" / f"{name}.json").unlink()
        assert run_cli("resume", "--out-dir", out_dir) == 0
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        assert report["accuracy"] == 70.0
        assert len(list((out_dir / "transcripts").glob("*.json"))) == 10

    def test_resume_of_a_moved_run_dir(self, tmp_path, monkeypatch, capsys):
        old_dir = tmp_path / "a"
        assert run_cli(*dup_run_args(old_dir)) == 0
        config = (old_dir / "config.json").read_text(encoding="utf-8")
        new_dir = tmp_path / "b"
        old_dir.rename(new_dir)
        (new_dir / "transcripts" / "synth10-00003.json").unlink()
        sent = []
        send = MockBackend.send
        monkeypatch.setattr(MockBackend, "send", lambda self, r: sent.append(r) or send(self, r))
        assert run_cli("resume", "--out-dir", new_dir) == 0
        assert [request.tag for request in sent] == [
            "core_question:synth10-00003",
            "solving_info:synth10-00003",
            "answer:synth10-00003",
            "extraction:synth10-00003",
        ]
        assert not old_dir.exists()
        assert (new_dir / "config.json").read_text(encoding="utf-8") == config
        assert len(list((new_dir / "transcripts").glob("*.json"))) == 10
        capsys.readouterr()
        assert run_cli("recount", "--out-dir", new_dir) == 0
        assert "accuracy       70.0" in capsys.readouterr().out

    def test_resume_without_config_fails(self, tmp_path):
        assert run_cli("resume", "--out-dir", tmp_path / "nothing") == 2

    def test_resume_with_missing_mock_script_fails(self, tmp_path, capsys):
        script = tmp_path / "script.json"
        script.write_text((DATA_DIR / "mock_dup.json").read_text(encoding="utf-8"))
        out_dir = tmp_path / "run"
        assert run_cli(*dup_run_args(out_dir, script=script)) == 0
        script.unlink()
        assert run_cli("resume", "--out-dir", out_dir) == 2
        assert "Traceback" not in capsys.readouterr().err


    def test_failed_transcript_write_exits_2(self, tmp_path, monkeypatch, capsys):
        def no_space(path, text):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(runner_module, "write_text", no_space)
        out_dir = tmp_path / "run"
        assert run_cli(*dup_run_args(out_dir)) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not (out_dir / "report.json").exists()

    def test_failed_cache_commit_exits_2(self, tmp_path, monkeypatch, caplog):
        monkeypatch.setattr(gateway_module, "CACHE_BUSY_TIMEOUT_S", 0.01)
        cache_dir = tmp_path / "cache"
        Gateway(backend=MockBackend({"default": "x"}), cache_dir=cache_dir).close()
        with closing(sqlite3.connect(cache_dir / CACHE_FILE, isolation_level=None)) as other:
            other.execute("begin exclusive")  # as another process holding the write lock
            code = run_cli(*dup_run_args(tmp_path / "run", **{"--cache-dir": cache_dir}))
            other.execute("rollback")
        assert code == 2
        assert f"cache {cache_dir / CACHE_FILE}" in caplog.text


class TestRelativePaths:
    def test_run_dir_works_from_another_directory(self, tmp_path, monkeypatch, capsys):
        repo = DATA_DIR.parent.parent
        monkeypatch.chdir(repo)
        out_dir = tmp_path / "run"
        relative = [
            "run",
            "--dataset", "synth10",
            "--dataset-path", os.path.relpath(SYNTH_DATASET),
            "--answer-type", "number",
            "--backend", "mock",
            "--mock-script", os.path.relpath(DATA_DIR / "mock_dup.json"),
            "--cache-dir", os.path.relpath(tmp_path / "cache"),
            "--out-dir", os.path.relpath(out_dir),
            "--concurrency", "1",
        ]
        assert run_cli(*relative) == 0
        report = (out_dir / "report.json").read_text(encoding="utf-8")
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        capsys.readouterr()
        assert run_cli("recount", "--out-dir", out_dir) == 0
        assert "accuracy       70.0" in capsys.readouterr().out
        assert (out_dir / "report.json").read_text(encoding="utf-8") == report
        for name in ("synth10-00002", "synth10-00005"):
            (out_dir / "transcripts" / f"{name}.json").unlink()
        sent = []
        send = MockBackend.send
        monkeypatch.setattr(MockBackend, "send", lambda self, r: sent.append(r) or send(self, r))
        assert run_cli("resume", "--out-dir", out_dir) == 0
        assert sent == []
        assert len(list((out_dir / "transcripts").glob("*.json"))) == 10


class TestCompare:
    def make_runs(self, tmp_path):
        dup_dir = tmp_path / "dup"
        cot_dir = tmp_path / "cot"
        assert run_cli(*dup_run_args(dup_dir)) == 0
        assert (
            run_cli(
                *dup_run_args(cot_dir, script=DATA_DIR / "mock_cot.json"),
                "--method", "cot",
            )
            == 0
        )
        return dup_dir, cot_dir

    def test_compare_table(self, tmp_path, capsys):
        dup_dir, cot_dir = self.make_runs(tmp_path)
        capsys.readouterr()
        assert run_cli("compare", "--baseline", cot_dir, "--candidate", dup_dir) == 0
        printed = capsys.readouterr().out
        assert "+20.0" in printed

    def test_compare_json(self, tmp_path, capsys):
        dup_dir, cot_dir = self.make_runs(tmp_path)
        capsys.readouterr()
        assert (
            run_cli("compare", "--baseline", cot_dir, "--candidate", dup_dir, "--json") == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["average_delta"] == 20.0
        assert payload["rows"][0]["baseline_accuracy"] == 50.0

    def test_compare_mismatch_exits_nonzero(self, tmp_path):
        dup_dir, _ = self.make_runs(tmp_path)
        other = tmp_path / "other"
        other_data = tmp_path / "other_data.jsonl"
        other_data.write_text(
            json.dumps({"question": "Q?", "answer": "#### 1"}) + "\n", encoding="utf-8"
        )
        script = tmp_path / "other_script.json"
        script.write_text(json.dumps({"default": "The answer is 1"}), encoding="utf-8")
        assert (
            run_cli(
                "run",
                "--dataset", "otherset",
                "--dataset-path", other_data,
                "--answer-type", "number",
                "--backend", "mock",
                "--mock-script", script,
                "--out-dir", other,
            )
            == 0
        )
        assert run_cli("compare", "--baseline", dup_dir, "--candidate", other) == 2


class TestAnalyzeErrors:
    def test_classifies_failures(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        assert run_cli(*dup_run_args(out_dir)) == 0
        judge_script = {
            "by_tag": {
                "error_judge:synth10-00008": "1. Semantic Misunderstanding.",
                "error_judge:synth10-00009": "2. Calculation error.",
                "error_judge:synth10-00010": "3. Step-missing errors.",
            }
        }
        judge_path = tmp_path / "judge.json"
        judge_path.write_text(json.dumps(judge_script), encoding="utf-8")
        code = run_cli(
            "analyze-errors",
            "--out-dir", out_dir,
            "--sample-size", "10",
            "--judge-model", "judge",
            "--backend", "mock",
            "--mock-script", judge_path,
        )
        assert code == 0
        payload = json.loads((out_dir / "error_analysis.json").read_text(encoding="utf-8"))
        assert payload["total_failures"] == 3
        assert payload["counts"]["semantic_misunderstanding"] == 1
        assert payload["counts"]["calculation_error"] == 1
        assert payload["counts"]["step_missing"] == 1
        printed = capsys.readouterr().out
        assert "Total failures" in printed

    @pytest.mark.parametrize("flag", ["--mock-script", "--base-url"])
    def test_backend_flag_without_backend_exits_2(self, tmp_path, monkeypatch, caplog, flag):
        out_dir = tmp_path / "run"
        assert run_cli(*dup_run_args(out_dir)) == 0
        judge_path = tmp_path / "judge.json"
        judge_path.write_text(json.dumps({"default": "2. Calculation error."}), encoding="utf-8")
        value = judge_path if flag == "--mock-script" else "http://127.0.0.1:9/v1"
        sends = []
        real_send = MockBackend.send

        def send(self, request):
            sends.append(request)
            return real_send(self, request)

        monkeypatch.setattr(MockBackend, "send", send)
        code = run_cli("analyze-errors", "--out-dir", out_dir, "--sample-size", "10", flag, value)
        assert code == 2
        assert f"{flag} takes effect only with --backend" in caplog.text
        assert sends == []
        assert not (out_dir / "error_analysis.json").exists()

    def test_negative_sample_size_exits_2(self, tmp_path):
        out_dir = tmp_path / "run"
        assert run_cli(*dup_run_args(out_dir)) == 0
        code = run_cli(
            "analyze-errors",
            "--out-dir", out_dir,
            "--sample-size", "-1",
            "--backend", "mock",
            "--mock-script", DATA_DIR / "mock_dup.json",
        )
        assert code == 2
        assert not (out_dir / "error_analysis.json").exists()


class TestRecount:
    def test_recount_reprints_report(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        assert run_cli(*dup_run_args(out_dir)) == 0
        capsys.readouterr()
        assert run_cli("recount", "--out-dir", out_dir) == 0
        assert "accuracy       70.0" in capsys.readouterr().out


class TestStoredTranscripts:
    def test_readers_hold_one_decoded_transcript_at_a_time(self, tmp_path, monkeypatch):
        out_dir = tmp_path / "run"
        assert run_cli(*dup_run_args(out_dir)) == 0
        for number in (2, 5, 9):
            (out_dir / "transcripts" / f"synth10-{number:05d}.json").unlink()
        judge_path = tmp_path / "judge.json"
        judge_path.write_text(json.dumps({"default": "2. Calculation error."}), encoding="utf-8")
        decoded, alive_at_calls = [], []
        real_load_transcript = runner_module.load_transcript

        def load_transcript(*args):
            alive_at_calls.append(sum(ref() is not None for ref in decoded))
            transcript = real_load_transcript(*args)
            if transcript is not None:
                decoded.append(weakref.ref(transcript))
            return transcript

        monkeypatch.setattr(runner_module, "load_transcript", load_transcript)
        commands = [
            (["resume", "--out-dir", out_dir], 7),
            (["recount", "--out-dir", out_dir], 10),
            (
                ["analyze-errors", "--out-dir", out_dir, "--sample-size", "4",
                 "--backend", "mock", "--mock-script", judge_path],
                4,
            ),
        ]
        for argv, loads in commands:
            alive_at_calls.clear()
            assert run_cli(*argv) == 0
            assert alive_at_calls == [0] * loads, argv[0]

    def test_a_stored_number_that_does_not_parse_is_an_unreadable_transcript(
        self, tmp_path, monkeypatch, caplog, capsys
    ):
        out_dir = tmp_path / "run"
        assert run_cli(*dup_run_args(out_dir)) == 0
        path = out_dir / "transcripts" / "synth10-00001.json"
        stored = json.loads(path.read_text(encoding="utf-8"))
        stored["predicted"]["value"] = "abc"
        path.write_text(json.dumps(stored), encoding="utf-8")
        judge_path = tmp_path / "judge.json"
        judge_path.write_text(json.dumps({"default": "2. Calculation error."}), encoding="utf-8")
        assert run_cli(
            "analyze-errors", "--out-dir", out_dir, "--sample-size", "10",
            "--backend", "mock", "--mock-script", judge_path,
        ) == 0
        assert f"ignoring unreadable transcript {path}" in caplog.text
        caplog.clear()
        assert run_cli("recount", "--out-dir", out_dir) == 2
        assert "completed transcript for synth10-00001" in caplog.text
        sent = []
        send = MockBackend.send
        monkeypatch.setattr(MockBackend, "send", lambda self, r: sent.append(r) or send(self, r))
        assert run_cli("resume", "--out-dir", out_dir) == 0
        assert {request.tag.split(":")[1] for request in sent} == {"synth10-00001"}
        assert len(sent) == 4
        capsys.readouterr()
        assert run_cli("recount", "--out-dir", out_dir) == 0
        assert "accuracy       70.0" in capsys.readouterr().out
