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

from conftest import DATA_DIR, SYNTH_DATASET, SYNTH_IDS

DEEP = "[" * 200_000  # deeper than the JSON parser's recursion limit


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


def copy_synth(tmp_path):
    """A copy of the synth10 dataset that a test may edit."""
    dataset = tmp_path / "synth10.jsonl"
    dataset.write_bytes(SYNTH_DATASET.read_bytes())
    return dataset


def set_gold(dataset, number, answer):
    """Rewrite the gold answer of record `number` (1-based) of `dataset`."""
    rows = [json.loads(line) for line in dataset.read_text(encoding="utf-8").splitlines()]
    rows[number - 1]["answer"] = answer
    dataset.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")


def without_times(path):
    report = json.loads(path.read_text(encoding="utf-8"))
    return {k: v for k, v in report.items() if k not in ("started_at", "finished_at")}


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

    @pytest.mark.parametrize("script", [{"by_tag": [1, 2]}, {"by_tag": "x"}, {"by_tag": 3}])
    def test_mock_script_with_a_table_that_is_not_an_object_exits_2(self, tmp_path, script):
        script_path = tmp_path / "script.json"
        script_path.write_text(json.dumps(script), encoding="utf-8")
        out_dir = tmp_path / "run"
        assert run_cli(*dup_run_args(out_dir, script=script_path)) == 2
        assert not out_dir.exists()

    @pytest.mark.parametrize("fault", ["by_tags", "by_digest", "flat", "reply-not-text"])
    def test_mock_script_of_another_shape_exits_2(self, tmp_path, caplog, dup_script, fault):
        tags, default = dup_script["by_tag"], "The answer is 1."
        script, named = {
            "by_tags": ({"by_tags": tags, "default": default}, "not 'by_tags'"),
            "by_digest": ({"by_tag": tags, "by_digest": {"0" * 64: default}}, "not 'by_digest'"),
            "flat": ({**tags, "default": default}, "not 'answer:synth10-00001'\n"),
            "reply-not-text": ({"by_tag": tags, "default": 5}, "mock script default is not text: 5"),
        }[fault]
        script_path = tmp_path / "script.json"
        script_path.write_text(json.dumps(script), encoding="utf-8")
        out_dir = tmp_path / "run"
        assert run_cli(*dup_run_args(out_dir, script=script_path)) == 2
        assert named in caplog.text
        assert not out_dir.exists()

    def test_negative_max_problems_exits_2_before_writing(self, tmp_path, caplog):
        out_dir = tmp_path / "run"
        assert run_cli(*dup_run_args(out_dir), "--max-problems", "-1") == 2
        assert "max_problems must be >= 0" in caplog.text
        assert not out_dir.exists()

    def test_malformed_manifest_exits_2_before_writing(self, tmp_path, caplog):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps([{"path": str(SYNTH_DATASET)}]), encoding="utf-8")
        out_dir = tmp_path / "run"
        code = run_cli(
            "run",
            "--dataset", "gsm8k",
            "--manifest", manifest,
            "--backend", "mock",
            "--mock-script", DATA_DIR / "mock_dup.json",
            "--out-dir", out_dir,
        )
        assert code == 2
        assert f"manifest {manifest}" in caplog.text
        assert not (out_dir / "config.json").exists()

    @pytest.mark.parametrize("in_the_way", ["out-dir", "transcripts", "cache-dir"])
    def test_a_regular_file_as_a_run_path_exits_2_before_writing(
        self, tmp_path, caplog, in_the_way
    ):
        out_dir = tmp_path / "run"
        extra = {}
        if in_the_way == "out-dir":
            blocker = out_dir
        elif in_the_way == "transcripts":
            out_dir.mkdir()
            blocker = out_dir / "transcripts"
        else:
            blocker = tmp_path / "cache"
            extra["--cache-dir"] = blocker
        blocker.write_text("in the way\n", encoding="utf-8")
        assert run_cli(*dup_run_args(out_dir, **extra)) == 2
        assert str(blocker) in caplog.text
        assert blocker.read_text(encoding="utf-8") == "in the way\n"
        assert not (out_dir / "config.json").exists()

    @pytest.mark.parametrize("nested", ["dataset-line", "dataset-array", "manifest", "mock-script"])
    def test_input_nested_too_deeply_exits_2_before_writing(self, tmp_path, caplog, nested):
        deep = tmp_path / "deep.json"
        out_dir = tmp_path / "run"
        if nested == "dataset-line":
            deep.write_text(SYNTH_DATASET.read_text(encoding="utf-8") + DEEP, encoding="utf-8")
            argv, named = dup_run_args(out_dir, **{"--dataset-path": deep}), f"{deep}:11:"
        elif nested == "dataset-array":
            deep.write_text(DEEP, encoding="utf-8")
            argv, named = dup_run_args(out_dir, **{"--dataset-path": deep}), f"in {deep}"
        elif nested == "manifest":
            deep.write_text(DEEP, encoding="utf-8")
            argv = [
                "run", "--dataset", "synth10", "--manifest", deep, "--backend", "mock",
                "--mock-script", DATA_DIR / "mock_dup.json", "--out-dir", out_dir,
            ]
            named = f"cannot read manifest {deep}"
        else:
            deep.write_text(DEEP, encoding="utf-8")
            argv, named = dup_run_args(out_dir, script=deep), f"cannot read mock script {deep}"
        assert run_cli(*argv) == 2
        assert named in caplog.text and "nested too deeply" in caplog.text
        assert not out_dir.exists()

    @pytest.mark.parametrize("temperature", ["nan", "inf"])
    def test_temperature_that_is_not_finite_is_refused_before_writing(self, tmp_path, temperature):
        out_dir = tmp_path / "run"
        assert run_cli(*dup_run_args(out_dir), "--temperature", temperature) == 2
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

    def test_a_dataset_that_is_not_utf8_exits_2_before_writing(self, tmp_path, caplog):
        dataset = copy_synth(tmp_path)
        dataset.write_bytes(dataset.read_bytes().replace(b"books", b"b\xffoks"))
        out_dir = tmp_path / "run"
        assert run_cli(*dup_run_args(out_dir), "--dataset-path", dataset) == 2
        assert f"{dataset}:3: not UTF-8 text" in caplog.text
        assert not out_dir.exists()

    def test_answer_type_flag_applies_where_the_manifest_names_none(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"mine": {"path": str(SYNTH_DATASET)}}), encoding="utf-8")
        out_dir = tmp_path / "run"
        code = run_cli(
            "run",
            "--dataset", "mine",
            "--manifest", manifest,
            "--answer-type", "number",
            "--backend", "mock",
            "--mock-script", DATA_DIR / "mock_dup.json",
            "--out-dir", out_dir,
        )
        assert code == 0
        assert json.loads((out_dir / "report.json").read_text(encoding="utf-8"))["total"] == 10
        assert run_cli("recount", "--out-dir", out_dir) == 0

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

    @pytest.mark.parametrize("command", ["resume", "run"])
    def test_a_stored_config_without_a_key_that_has_a_default_resumes(self, tmp_path, command):
        out_dir = tmp_path / "run"
        assert run_cli(*dup_run_args(out_dir)) == 0
        report = without_times(out_dir / "report.json")
        path = out_dir / "config.json"
        config = json.loads(path.read_text(encoding="utf-8"))
        del config["system_message"]
        path.write_text(json.dumps(config), encoding="utf-8")
        (out_dir / "transcripts" / "synth10-00004.json").unlink()
        argv = ["resume", "--out-dir", out_dir] if command == "resume" else dup_run_args(out_dir)
        assert run_cli(*argv) == 0
        assert without_times(out_dir / "report.json") == report
        assert len(list((out_dir / "transcripts").glob("*.json"))) == 10

    def test_a_run_over_another_configuration_reads_no_dataset_or_transcript(
        self, tmp_path, monkeypatch, caplog
    ):
        out_dir = tmp_path / "run"
        assert run_cli(*dup_run_args(out_dir)) == 0
        before = {file: file.read_bytes() for file in out_dir.rglob("*") if file.is_file()}
        calls = {"load_dataset": 0, "load_transcript": 0}
        for name in calls:
            real = getattr(runner_module, name)

            def counted(*args, name=name, real=real, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(runner_module, name, counted)
        assert run_cli(*dup_run_args(out_dir), "--max-tokens", "512") == 2
        assert "holds a different run configuration" in caplog.text
        assert calls == {"load_dataset": 0, "load_transcript": 0}
        after = {file: file.read_bytes() for file in out_dir.rglob("*") if file.is_file()}
        assert after == before

    def test_resume_grades_stored_transcripts_as_recount_does(self, tmp_path):
        dataset = copy_synth(tmp_path)
        out_dir = tmp_path / "run"
        assert run_cli(*dup_run_args(out_dir), "--dataset-path", dataset) == 0
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        wrong = next(row for row in report["per_problem"] if not row["correct"])
        number = SYNTH_IDS.index(wrong["problem_id"]) + 1
        set_gold(dataset, number, f"#### {wrong['predicted']['value']}")
        (out_dir / "transcripts" / "synth10-00002.json").unlink()
        assert run_cli("resume", "--out-dir", out_dir) == 0
        resumed = (out_dir / "report.json").read_text(encoding="utf-8")
        assert json.loads(resumed)["correct"] == 8
        assert run_cli("recount", "--out-dir", out_dir) == 0
        assert (out_dir / "report.json").read_text(encoding="utf-8") == resumed

    @pytest.mark.parametrize("command", ["resume", "recount", "analyze-errors"])
    def test_a_stored_answer_type_that_is_not_one_exits_2(self, tmp_path, caplog, command):
        out_dir = tmp_path / "run"
        assert run_cli(*dup_run_args(out_dir)) == 0
        path = out_dir / "config.json"
        config = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps({**config, "answer_type": "bogus"}), encoding="utf-8")
        before = {file: file.read_bytes() for file in out_dir.rglob("*") if file.is_file()}
        argv = [command, "--out-dir", out_dir]
        if command == "analyze-errors":
            argv += ["--backend", "mock", "--mock-script", DATA_DIR / "mock_dup.json"]
        assert run_cli(*argv) == 2
        assert f"cannot read stored config at {path}: 'bogus' is not a valid AnswerType" in caplog.text
        after = {file: file.read_bytes() for file in out_dir.rglob("*") if file.is_file()}
        assert after == before

    @pytest.mark.parametrize("command", ["run", "resume", "recount", "analyze-errors"])
    def test_a_stored_config_nested_too_deeply_exits_2(self, tmp_path, caplog, command):
        out_dir = tmp_path / "run"
        assert run_cli(*dup_run_args(out_dir)) == 0
        path = out_dir / "config.json"
        path.write_text(DEEP, encoding="utf-8")
        before = {file: file.read_bytes() for file in out_dir.rglob("*") if file.is_file()}
        argv = [command, "--out-dir", out_dir]
        if command == "run":
            argv = dup_run_args(out_dir)
        elif command == "analyze-errors":
            argv += ["--backend", "mock", "--mock-script", DATA_DIR / "mock_dup.json"]
        assert run_cli(*argv) == 2
        assert f"cannot read stored config at {path}" in caplog.text
        after = {file: file.read_bytes() for file in out_dir.rglob("*") if file.is_file()}
        assert after == before

    @pytest.mark.parametrize("temperature", [float("nan"), float("inf")])
    def test_a_stored_temperature_that_is_not_finite_exits_2(self, tmp_path, caplog, temperature):
        out_dir = tmp_path / "run"
        assert run_cli(*dup_run_args(out_dir)) == 0
        path = out_dir / "config.json"
        config = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps({**config, "temperature": temperature}), encoding="utf-8")
        (out_dir / "report.json").unlink()
        assert run_cli("resume", "--out-dir", out_dir) == 2
        assert "temperature must be a finite number" in caplog.text
        assert not (out_dir / "report.json").exists()

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

    def test_report_nested_too_deeply_exits_2(self, tmp_path, caplog):
        dup_dir, cot_dir = self.make_runs(tmp_path)
        report = dup_dir / "report.json"
        report.write_text(DEEP, encoding="utf-8")
        assert run_cli("compare", "--baseline", cot_dir, "--candidate", dup_dir) == 2
        assert f"cannot read report at {report}" in caplog.text


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

    def test_a_problem_regraded_correct_is_not_judged(self, tmp_path):
        dataset = copy_synth(tmp_path)
        out_dir = tmp_path / "run"
        assert run_cli(*dup_run_args(out_dir), "--dataset-path", dataset) == 0
        stored = json.loads((out_dir / "transcripts" / "synth10-00009.json").read_text("utf-8"))
        assert not stored["graded"]["correct"]
        set_gold(dataset, 9, f"#### {stored['predicted']['value']}")
        judge_path = tmp_path / "judge.json"
        judge_path.write_text(json.dumps({"default": "2. Calculation error."}), encoding="utf-8")
        code = run_cli(
            "analyze-errors", "--out-dir", out_dir, "--sample-size", "10",
            "--backend", "mock", "--mock-script", judge_path,
        )
        assert code == 0
        payload = json.loads((out_dir / "error_analysis.json").read_text(encoding="utf-8"))
        judged = {detail["problem_id"] for detail in payload["details"]}
        assert judged == {"synth10-00008", "synth10-00010"}

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

    @pytest.mark.parametrize("command", ["recount", "analyze-errors"])
    def test_a_dataset_that_is_no_longer_utf8_exits_2(self, tmp_path, caplog, command):
        dataset = copy_synth(tmp_path)
        out_dir = tmp_path / "run"
        assert run_cli(*dup_run_args(out_dir), "--dataset-path", dataset) == 0
        dataset.write_bytes(dataset.read_bytes().replace(b"books", b"b\xffoks"))
        before = {file: file.read_bytes() for file in out_dir.rglob("*") if file.is_file()}
        argv = [command, "--out-dir", out_dir]
        if command == "analyze-errors":
            argv += ["--backend", "mock", "--mock-script", DATA_DIR / "mock_dup.json"]
        assert run_cli(*argv) == 2
        assert f"{dataset}:3: not UTF-8 text" in caplog.text
        after = {file: file.read_bytes() for file in out_dir.rglob("*") if file.is_file()}
        assert after == before


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

    def test_a_transcript_nested_too_deeply_is_unreadable(self, tmp_path, monkeypatch, caplog):
        out_dir = tmp_path / "run"
        assert run_cli(*dup_run_args(out_dir)) == 0
        path = out_dir / "transcripts" / "synth10-00001.json"
        sent = []
        send = MockBackend.send
        monkeypatch.setattr(MockBackend, "send", lambda self, r: sent.append(r) or send(self, r))
        for command in (["resume", "--out-dir", out_dir], dup_run_args(out_dir)):
            path.write_text(DEEP, encoding="utf-8")
            caplog.clear()
            assert run_cli("recount", "--out-dir", out_dir) == 2
            assert "missing transcript for problem synth10-00001" in caplog.text
            sent.clear()
            assert run_cli(*command) == 0
            assert f"ignoring unreadable transcript {path}" in caplog.text
            assert [request.tag.split(":")[1] for request in sent] == ["synth10-00001"] * 4
            assert json.loads(path.read_text(encoding="utf-8"))["completed"] is True

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
        assert "missing transcript for problem synth10-00001" in caplog.text
        sent = []
        send = MockBackend.send
        monkeypatch.setattr(MockBackend, "send", lambda self, r: sent.append(r) or send(self, r))
        assert run_cli("resume", "--out-dir", out_dir) == 0
        assert {request.tag.split(":")[1] for request in sent} == {"synth10-00001"}
        assert len(sent) == 4
        capsys.readouterr()
        assert run_cli("recount", "--out-dir", out_dir) == 0
        assert "accuracy       70.0" in capsys.readouterr().out
