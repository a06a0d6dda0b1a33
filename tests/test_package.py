"""The package surface: what `import dup` exports and loads, and the README's library use."""

import json
import os
import re
import subprocess
import sys

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
