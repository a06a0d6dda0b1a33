"""The package surface: what `import dup` exports and loads, and the README's library use."""

import importlib.util
import json
import os
import re
import subprocess
import sys

import pytest

from conftest import DATA_DIR

REPO = DATA_DIR.parent.parent


def test_import_exports_three_names_and_loads_no_command_module():
    code = (
        "import json, sys, dup; "
        "print(json.dumps([dup.__all__, sorted(m for m in sys.modules if m.startswith('dup'))]))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    exported, loaded = json.loads(out)
    assert exported == ["RunConfig", "build_run_gateway", "run_experiment"]
    assert "dup.error_analysis" not in loaded
    assert "dup.cli" not in loaded


def test_a_cached_run_loads_neither_openssl_nor_datetime(tmp_path):
    if not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")):
        pytest.skip("this interpreter has no built-in SHA-256; cache keys use hashlib")
    code = (
        "import json, sys; from dup.cli import main; code = main(sys.argv[1:]); "
        "print(json.dumps([code, sorted({'_hashlib', 'hashlib', 'datetime'} & set(sys.modules))]))"
    )
    run = [
        *("run", "--dataset", "synth10", "--answer-type", "number", "--backend", "mock"),
        *("--dataset-path", str(DATA_DIR / "synthetic_number.jsonl")),
        *("--mock-script", str(DATA_DIR / "mock_dup.json")),
        *("--cache-dir", str(tmp_path / "cache")),
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    for out in ("first", "second"):  # a cold cache, then a warm one
        out_dir = tmp_path / out
        result = subprocess.run(
            [sys.executable, "-c", code, *run, "--out-dir", str(out_dir)],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert json.loads(result.stdout.splitlines()[-1]) == [0, []]
    usage = json.loads((tmp_path / "second" / "report.json").read_text())["usage"]
    assert usage["cached_calls"] == usage["calls"] > 0


def test_a_cached_http_run_never_imports_requests(tmp_path):
    run = [
        *("run", "--dataset", "synth10", "--answer-type", "number"),
        *("--dataset-path", str(DATA_DIR / "synthetic_number.jsonl")),
        *("--cache-dir", str(tmp_path / "cache")),
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    mock = ["--backend", "mock", "--mock-script", str(DATA_DIR / "mock_dup.json")]
    subprocess.run(
        [sys.executable, "-m", "dup.cli", *run, *mock, "--out-dir", str(tmp_path / "mock")],
        env=env,
        capture_output=True,
        check=True,
    )
    code = (
        "import json, sys; from dup.cli import main; code = main(sys.argv[1:]); "
        "print(json.dumps([code, 'requests' in sys.modules]))"
    )
    # Nothing listens on the discard port: a request that left the cache would fail.
    http = ["--backend", "http", "--base-url", "http://127.0.0.1:9"]
    result = subprocess.run(
        [sys.executable, "-c", code, *run, *http, "--out-dir", str(tmp_path / "http")],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(result.stdout.splitlines()[-1]) == [0, False]
    usage = json.loads((tmp_path / "http" / "report.json").read_text())["usage"]
    assert usage["cached_calls"] == usage["calls"] > 0


def test_readme_library_use_runs(tmp_path, monkeypatch, capsys):
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    out_dir = tmp_path / "run"
    pointed = code.replace('out_dir="runs/api-demo"', f"out_dir={str(out_dir)!r}")
    assert pointed != code
    monkeypatch.chdir(REPO)
    exec(compile(pointed, "README.md", "exec"), {})
    assert capsys.readouterr().out == "70.0\n"
    assert (out_dir / "report.json").is_file()
