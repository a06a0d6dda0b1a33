"""Shared fixtures: committed fixtures on disk, mock-backed run configs."""

import json
import sqlite3
from contextlib import closing
from pathlib import Path

import pytest

from dup.datasets import load_dataset
from dup.gateway import CACHE_FILE, Gateway, MockBackend
from dup.prompts import AnswerType
from dup.runner import RunConfig

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_DIR = Path(__file__).parent / "golden"

SYNTH_DATASET = DATA_DIR / "synthetic_number.jsonl"
SYNTH_IDS = [f"synth10-{i:05d}" for i in range(1, 11)]


@pytest.fixture
def synthetic_problems():
    return load_dataset(SYNTH_DATASET, "synth10", answer_type=AnswerType.NUMBER)


@pytest.fixture
def dup_script():
    return json.loads((DATA_DIR / "mock_dup.json").read_text(encoding="utf-8"))


@pytest.fixture
def cot_script():
    return json.loads((DATA_DIR / "mock_cot.json").read_text(encoding="utf-8"))


def make_gateway(script, cache_dir=None, **kwargs) -> Gateway:
    return Gateway(backend=MockBackend(script), cache_dir=cache_dir, **kwargs)


def cache_rows(cache_dir) -> dict[str, str]:
    """Every row of a response cache: entry text by digest."""
    with closing(sqlite3.connect(Path(cache_dir) / CACHE_FILE)) as db:
        return dict(db.execute("select digest, entry from entries"))


def comparable(transcript: dict) -> dict:
    """A stored transcript without its timings, which differ between any two runs."""
    records = [{k: v for k, v in r.items() if k != "duration_s"} for r in transcript["records"]]
    rest = {k: v for k, v in transcript.items() if k not in ("started_at", "finished_at")}
    return {**rest, "records": records}


def make_run_config(tmp_path, script, **overrides) -> RunConfig:
    """A mock-backed config over the committed synthetic dataset."""
    script_path = script
    if isinstance(script, dict):
        script_path = tmp_path / "script.json"
        script_path.parent.mkdir(parents=True, exist_ok=True)
        script_path.write_text(json.dumps(script), encoding="utf-8")
    defaults = dict(
        dataset="synth10",
        dataset_path=str(SYNTH_DATASET),
        answer_type="number",
        out_dir=str(tmp_path / "out"),
        backend="mock",
        mock_script=str(script_path),
        workers=1,
    )
    defaults.update(overrides)
    return RunConfig(**defaults)
