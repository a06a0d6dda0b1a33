"""Experiment orchestration: per-problem pipelines, persistence, resume.

Each problem produces a Transcript recording every prompt, raw response,
and extracted artifact in execution order. A problem worker encodes its
transcript when the problem finishes and hands the text to one background
writer thread per run, which writes out_dir/transcripts/<id>.json (atomic
rename) while the worker goes on to the next problem. At most
TRANSCRIPT_BACKLOG writes wait at once, and the run drains them before it
returns or raises, so an interrupted run resumes by skipping completed ids;
only a crash of the process can lose the waiting ones. Stage calls are
independent stateless completions: every prompt carries all the context it
needs, which keeps calls cache-friendly.
"""

from __future__ import annotations

import logging
import os
import queue
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from .consistency import Vote, aggregate
from .datasets import (
    Problem,
    canonical_dataset_id,
    load_dataset,
    load_from_manifest,
    load_manifest,
)
from .exceptions import DupError, GatewayError, InvalidInputError
from .extraction import STAGE_EXTRACTION, dup_s_answer_segment, extract_answer
from .gateway import (
    ChatRequest,
    ChatResponse,
    Gateway,
    ProviderConfig,
    build_gateway,
    build_messages,
)
from .grading import GradedResult, NormalizedAnswer, grade
from .prompts import (
    MethodVariant,
    render_core_question_prompt,
    render_cot_prompt,
    render_dup_s_prompt,
    render_final_answer_prompt,
    render_info_extraction_prompt,
    render_last_letter_prompt,
)
from .store import decode, dumps, encode, read, write_text
# Config writes go through this name; bench/tracing.py wraps it.
from .store import write as _write_json_atomic

log = logging.getLogger(__name__)

__all__ = [
    "StageConfig",
    "RunConfig",
    "StageRecord",
    "Transcript",
    "resolve_method",
    "run_problem",
    "run_experiment",
    "select_problems",
    "load_run",
    "load_transcript",
    "transcript_path",
    "stored_config",
    "build_run_gateway",
]

STAGE_CORE = "core_question"
STAGE_INFO = "solving_info"
STAGE_ANSWER = "answer"

# Most sample chains of one problem in flight at once: a problem sends at
# most this many requests together, and starts at most this many threads.
MAX_SAMPLE_THREADS = 8

# Most transcript writes queued or under way at once; a worker that finishes
# a problem while this many wait blocks until one is done. It bounds the
# memory held by encoded transcripts and the finished problems a crash loses.
TRANSCRIPT_BACKLOG = 4

_TRANSCRIPT_DIR = "transcripts"
_CONFIG_FILE = "config.json"


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


@dataclass(frozen=True)
class StageConfig:
    """Which of the three pipeline stages are enabled (ablation toggles)."""

    stage1: bool = True
    stage2: bool = True
    stage3: bool = True

    @classmethod
    def from_string(cls, spec: str) -> "StageConfig":
        """Parse "1,2,3"-style subsets; "none" or "" disables everything."""
        spec = spec.strip().lower()
        if spec in ("", "none"):
            return cls(False, False, False)
        enabled = set()
        for token in spec.split(","):
            token = token.strip()
            if token not in ("1", "2", "3"):
                raise InvalidInputError(f"bad stage token {token!r}; expected 1, 2 or 3")
            enabled.add(int(token))
        return cls(1 in enabled, 2 in enabled, 3 in enabled)


@dataclass
class RunConfig:
    """Everything one experiment run needs, serializable for resume."""

    dataset: str
    method: MethodVariant = MethodVariant.DUP
    stages: StageConfig = field(default_factory=StageConfig)
    model: str = "gpt-3.5-turbo"
    extractor_model: str | None = None  # overrides stages 1-2 only
    temperature: float = 0.0
    n_samples: int = 1
    max_problems: int | None = None
    seed: int = 0
    cache_dir: str | None = None
    out_dir: str = "runs/out"
    dataset_path: str | None = None
    manifest: str | None = None
    answer_type: str | None = None
    max_tokens: int = 1024
    system_message: str | None = None
    workers: int = 4
    # None = auto: the Last Letters dataset swaps in the simplified
    # single-prompt method; set False to force the full pipeline there.
    last_letter_simplified: bool | None = None
    # Provider wiring (never secrets); stored so resume can rebuild the
    # gateway without repeating flags.
    backend: str = "http"
    base_url: str | None = None
    mock_script: str | dict | None = None

    def validate(self) -> None:
        if not self.dataset:
            raise InvalidInputError("dataset identifier is required")
        if self.n_samples < 1:
            raise InvalidInputError("n_samples must be >= 1")
        if self.n_samples > 1 and self.temperature <= 0:
            raise InvalidInputError("self-consistency sampling requires temperature > 0")
        if self.temperature < 0:
            raise InvalidInputError("temperature must be >= 0")
        if self.max_problems is not None and self.max_problems < 0:
            raise InvalidInputError("max_problems must be >= 0")
        if self.workers < 1:
            raise InvalidInputError("workers must be >= 1")


@dataclass
class StageRecord:
    """One gateway exchange inside a transcript."""

    stage: str
    prompt: str
    response: str | None = None
    artifact: str | None = None
    sample_index: int = 0
    duration_s: float = 0.0
    cached: bool = False
    prompt_tokens: int = 0
    completion_tokens: int = 0
    error: str | None = None

    @classmethod
    def of_response(
        cls,
        stage: str,
        prompt: str,
        response: ChatResponse,
        artifact: str | None,
        sample_index: int,
        duration_s: float,
    ) -> "StageRecord":
        """Record of a completed exchange; durations are kept to the microsecond."""
        return cls(
            stage=stage,
            prompt=prompt,
            response=response.content,
            artifact=artifact,
            sample_index=sample_index,
            duration_s=round(duration_s, 6),
            cached=response.cached,
            prompt_tokens=response.prompt_tokens,
            completion_tokens=response.completion_tokens,
        )


@dataclass
class Transcript:
    """Append-only per-problem record of a pipeline run."""

    problem_id: str
    dataset: str
    method: str
    stages: dict
    records: list[StageRecord] = field(default_factory=list)
    votes: list[Vote] = field(default_factory=list)
    predicted: NormalizedAnswer | None = None
    graded: GradedResult | None = None
    errors: list[str] = field(default_factory=list)
    completed: bool = False
    started_at: str = field(default_factory=_utc_now)
    finished_at: str | None = None

    @property
    def answer_text(self) -> str | None:
        """Raw reasoning text of the (first) answer-stage completion."""
        for record in self.records:
            if record.stage == STAGE_ANSWER and record.response is not None:
                return record.response
        return None


def resolve_method(config: RunConfig, dataset: str) -> MethodVariant:
    """Apply the Last Letters auto-simplification unless explicitly disabled."""
    if (
        config.method is MethodVariant.DUP
        and canonical_dataset_id(dataset) == "last_letters"
        and config.last_letter_simplified is not False
    ):
        return MethodVariant.LAST_LETTER_SIMPLIFIED
    return config.method


def _record_error(
    sink: Transcript | _Sample,
    stage: str,
    prompt: str,
    sample_index: int,
    duration_s: float,
    exc: GatewayError,
) -> None:
    """Append the record of a failed exchange, with the time it took, and its error line."""
    sink.records.append(
        StageRecord(
            stage=stage,
            prompt=prompt,
            sample_index=sample_index,
            duration_s=round(duration_s, 6),
            error=str(exc),
        )
    )
    sink.errors.append(f"{stage}: {exc}")


def _call(
    gateway: Gateway,
    sink: Transcript | _Sample,
    stage: str,
    prompt: str,
    model: str,
    config: RunConfig,
    tag: str,
    temperature: float = 0.0,
    sample_index: int = 0,
) -> str:
    """Issue one stage completion and append its record to `sink.records`.

    `sink` is the transcript or one sample chain; a failure is also listed
    in `sink.errors` and re-raised. Returns the content.
    """
    request = ChatRequest(
        model=model,
        messages=build_messages(prompt, config.system_message),
        temperature=temperature,
        max_tokens=config.max_tokens,
        sample_index=sample_index,
        tag=tag,
    )
    start = time.perf_counter()
    try:
        response = gateway.complete_cached(request)
    except GatewayError as exc:
        _record_error(sink, stage, prompt, sample_index, time.perf_counter() - start, exc)
        raise
    sink.records.append(
        StageRecord.of_response(
            stage,
            prompt,
            response,
            response.content.strip(),
            sample_index,
            time.perf_counter() - start,
        )
    )
    return response.content


def _answer_prompts(
    problem, config: RunConfig, method: MethodVariant, gateway: Gateway, transcript: Transcript
) -> str:
    """Run any enabled extraction stages and return the answer-stage prompt."""
    question = problem.question
    if method is MethodVariant.ZERO_SHOT_COT:
        return render_cot_prompt(question)
    if method is MethodVariant.DUP_S:
        return render_dup_s_prompt(question)
    if method is MethodVariant.LAST_LETTER_SIMPLIFIED:
        return render_last_letter_prompt(question)

    extractor = config.extractor_model or config.model
    core = ""
    info = ""
    if config.stages.stage1:
        prompt = render_core_question_prompt(question)
        tag = f"{STAGE_CORE}:{problem.id}"
        core = _call(gateway, transcript, STAGE_CORE, prompt, extractor, config, tag).strip()
    if config.stages.stage2:
        # Without stage 1 there is no extracted core question; the original
        # question stands in so stage 2 can still run alone.
        core_ref = core if config.stages.stage1 else question
        prompt = render_info_extraction_prompt(question, core_ref)
        tag = f"{STAGE_INFO}:{problem.id}"
        info = _call(gateway, transcript, STAGE_INFO, prompt, extractor, config, tag).strip()
    return render_final_answer_prompt(
        question,
        core_question=core,
        info=info,
        include_instruction=config.stages.stage3,
    )


@dataclass
class _Sample:
    """What one answer -> extraction chain produced; `vote` stays None if it failed."""

    records: list[StageRecord] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    vote: Vote | None = None
    source: str = "none"


def _run_sample(
    problem,
    config: RunConfig,
    method: MethodVariant,
    gateway: Gateway,
    answer_prompt: str,
    index: int,
) -> _Sample:
    """Sample one reasoning path and extract its answer; gateway errors end the chain."""
    sample = _Sample()
    suffix = f"#{index}" if config.n_samples > 1 else ""
    try:
        reasoning = _call(
            gateway,
            sample,
            STAGE_ANSWER,
            answer_prompt,
            config.model,
            config,
            f"{STAGE_ANSWER}:{problem.id}{suffix}",
            temperature=config.temperature,
            sample_index=index,
        )
    except GatewayError:
        return sample
    extraction_input = (
        dup_s_answer_segment(reasoning) if method is MethodVariant.DUP_S else reasoning
    )
    try:
        outcome = extract_answer(
            extraction_input,
            problem.answer_type,
            gateway,
            model=config.model,
            max_tokens=config.max_tokens,
            tag=f"{STAGE_EXTRACTION}:{problem.id}{suffix}",
            gold=problem.gold,
            system_message=config.system_message,
        )
    except GatewayError as exc:
        _record_error(sample, STAGE_EXTRACTION, exc.prompt, index, exc.duration_s, exc)
        return sample
    sample.records.append(
        StageRecord.of_response(
            STAGE_EXTRACTION,
            outcome.prompt,
            outcome.response,
            str(outcome.answer.value) if outcome.answer else None,
            index,
            outcome.duration_s,
        )
    )
    sample.vote = Vote(sample_index=index, answer=outcome.answer)
    sample.source = outcome.source
    return sample


def _run_samples(
    problem, config: RunConfig, method: MethodVariant, gateway: Gateway, answer_prompt: str
) -> list[_Sample]:
    """Every sample chain, in sample order.

    Several samples run concurrently, up to MAX_SAMPLE_THREADS at a time, on
    a pool of their own, so they never wait on a slot of the problem pool
    their problem already holds.
    """
    if config.n_samples == 1:
        return [_run_sample(problem, config, method, gateway, answer_prompt, 0)]
    with ThreadPoolExecutor(max_workers=min(config.n_samples, MAX_SAMPLE_THREADS)) as pool:
        futures = [
            pool.submit(_run_sample, problem, config, method, gateway, answer_prompt, i)
            for i in range(config.n_samples)
        ]
        return [future.result() for future in futures]


def run_problem(problem, config: RunConfig, gateway: Gateway) -> Transcript:
    """Run the full pipeline for one problem and grade the outcome.

    Gateway failures at any stage are contained: the transcript records the
    error, the problem grades incorrect, and the caller moves on. Sample
    chains run concurrently, so when one fails the others' calls may
    already have been sent; every chain's records are kept, in sample order.
    """
    config.validate()
    method = resolve_method(config, problem.dataset)
    transcript = Transcript(
        problem_id=problem.id,
        dataset=problem.dataset,
        method=method.value,
        stages=encode(config.stages),
    )
    predicted = None
    source = "none"
    try:
        answer_prompt = _answer_prompts(problem, config, method, gateway, transcript)
    except GatewayError:
        samples = []
    else:
        samples = _run_samples(problem, config, method, gateway, answer_prompt)
    for sample in samples:
        transcript.records.extend(sample.records)
        transcript.errors.extend(sample.errors)
    if not transcript.errors:
        transcript.votes = [sample.vote for sample in samples]
        predicted = aggregate(transcript.votes)
        if predicted is not None:
            source = next(
                sample.source
                for sample in samples
                if sample.vote.answer is not None and grade(sample.vote.answer, predicted)
            )
    transcript.predicted = predicted
    transcript.graded = GradedResult(
        problem_id=problem.id,
        predicted=predicted,
        correct=predicted is not None and grade(predicted, problem.gold),
        extraction_source=source,
    )
    transcript.completed = True
    transcript.finished_at = _utc_now()
    return transcript


def select_problems(problems: list, max_problems: int | None, seed: int) -> list:
    """Seeded-shuffle subsample; full file order when no limit applies."""
    if max_problems is None or max_problems >= len(problems):
        return list(problems)
    shuffled = list(problems)
    random.Random(seed).shuffle(shuffled)
    return shuffled[:max_problems]


def load_run(
    out_dir: str | Path, config: RunConfig | None = None
) -> tuple[RunConfig, list[Problem], dict[str, Transcript]]:
    """What the run directory `out_dir` holds, wherever it was first written.

    Returns the stored configuration, the problems the run covers in run
    order, and every completed transcript stored in `out_dir`, by problem
    id; `config`, when given, stands in for the stored configuration. The
    dataset comes from the explicit path first, then the manifest, and is
    subsampled per `select_problems`. Raises DupError when two selected
    problems would share a transcript file, since one would overwrite the
    other and the report would count the survivor twice.
    """
    if config is None:
        config = stored_config(out_dir)
    if config.dataset_path:
        answer_type = None
        if config.answer_type:
            from .prompts import AnswerType

            answer_type = AnswerType(config.answer_type)
        problems = load_dataset(config.dataset_path, config.dataset, answer_type=answer_type)
    elif config.manifest:
        problems = load_from_manifest(load_manifest(config.manifest), config.dataset)
    else:
        raise DupError("config needs dataset_path or manifest to locate the dataset file")
    problems = select_problems(problems, config.max_problems, config.seed)
    ids_by_name: dict[str, list[str]] = {}
    for problem in problems:
        ids_by_name.setdefault(_transcript_name(problem.id), []).append(problem.id)
    clashes = [", ".join(map(repr, ids)) for ids in ids_by_name.values() if len(ids) > 1]
    if clashes:
        raise DupError(f"problem ids share a transcript file: {'; '.join(clashes)}")
    try:
        present = set(os.listdir(Path(out_dir) / _TRANSCRIPT_DIR))
    except FileNotFoundError:
        present = set()
    transcripts = {}
    for name, (problem_id,) in ids_by_name.items():
        if name in present:
            transcript = load_transcript(out_dir, problem_id)
            if transcript is not None:
                transcripts[problem_id] = transcript
    return config, problems, transcripts


def _transcript_name(problem_id: str) -> str:
    safe_id = "".join(c if c.isalnum() or c in "-_." else "_" for c in problem_id)
    return f"{safe_id}.json"


def transcript_path(out_dir: str | Path, problem_id: str) -> Path:
    return Path(out_dir) / _TRANSCRIPT_DIR / _transcript_name(problem_id)


def load_transcript(out_dir: str | Path, problem_id: str) -> Transcript | None:
    """The completed transcript stored for `problem_id`, or None.

    A file that cannot be read or decoded is logged and read as None.
    """
    path = transcript_path(out_dir, problem_id)
    try:
        transcript = decode(Transcript, read(path))
    except FileNotFoundError:
        return None
    except (OSError, KeyError, TypeError, ValueError):
        log.warning("ignoring unreadable transcript %s", path)
        return None
    if transcript.problem_id != problem_id or not transcript.completed:
        return None
    return transcript


def _persist_config(config: RunConfig, out_dir: Path) -> None:
    """Store `config` in `out_dir`, or check it against the one stored there.

    The stored `out_dir` is left out of the check and kept as written, so a
    run directory that was moved still resumes.
    """
    path = out_dir / _CONFIG_FILE
    if path.exists():
        expected = encode(config)
        if {**read(path), "out_dir": expected["out_dir"]} != expected:
            raise DupError(
                f"{path} holds a different run configuration; use a fresh --out-dir "
                "or resume with the stored settings"
            )
        return
    _write_json_atomic(path, config)


def stored_config(out_dir: str | Path) -> RunConfig:
    """Load the configuration persisted by a previous run (for resume)."""
    path = Path(out_dir) / _CONFIG_FILE
    try:
        return decode(RunConfig, read(path))
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise DupError(f"cannot read stored config at {path}: {exc}") from exc


def build_run_gateway(config: RunConfig) -> Gateway:
    """Wire up the gateway a run configuration describes."""
    provider = ProviderConfig(
        backend=config.backend,
        base_url=config.base_url,
        mock_script=config.mock_script,
        # Peak independent calls: each problem in flight fans out its samples.
        max_concurrency=config.workers * min(config.n_samples, MAX_SAMPLE_THREADS),
    )
    return build_gateway(provider, Path(config.cache_dir) if config.cache_dir else None)


class _TranscriptWriter:
    """Writes encoded transcripts on one background thread, in the order given.

    `put` blocks while TRANSCRIPT_BACKLOG writes are queued or under way.
    The first failed write is logged and kept in `error`; later writes are
    still tried. `close` waits until every queued write is done.
    """

    def __init__(self):
        self.error: DupError | None = None
        self._slots = threading.Semaphore(TRANSCRIPT_BACKLOG)
        self._queue = queue.SimpleQueue()
        self._thread = threading.Thread(target=self._drain, name="dup-transcript-writer")
        self._thread.start()

    def put(self, path: Path, text: str) -> None:
        self._slots.acquire()
        self._queue.put((path, text))

    def _drain(self) -> None:
        while (item := self._queue.get()) is not None:
            path, text = item
            try:
                write_text(path, text)
            except Exception as exc:  # the thread must outlive a failed write
                if self.error is None:
                    log.error("cannot write transcript %s: %s", path, exc)
                    self.error = DupError(f"cannot write transcript {path}: {exc}")
            finally:
                self._slots.release()

    def close(self) -> None:
        self._queue.put(None)
        self._thread.join()


def run_experiment(config: RunConfig, gateway: Gateway):
    """Run every selected problem, persist transcripts, and emit the report.

    Fully resumable: problems whose transcript file is already complete are
    skipped, so re-running with the same out_dir finishes an interrupted
    run without re-issuing their requests. Every problem that finished is
    on disk, and every response the gateway cached is committed, when this
    returns or raises. If a transcript cannot be written, no further
    problem starts and DupError names the file; no report is written then.
    If the cached responses cannot be committed, DupError names the cache
    file, unless another error is already on its way out: that one is
    raised, and the failed commit is logged.
    """
    from .reporting import build_report, write_report

    config.validate()
    _, problems, transcripts = load_run(config.out_dir, config)
    out_dir = Path(config.out_dir)
    transcript_dir = out_dir / _TRANSCRIPT_DIR
    transcript_dir.mkdir(parents=True, exist_ok=True)
    _persist_config(config, out_dir)
    todo = [(_transcript_name(p.id), p) for p in problems if p.id not in transcripts]
    log.info(
        "running %d problems (%d already complete) on %s",
        len(todo),
        len(transcripts),
        config.dataset,
    )

    writer = _TranscriptWriter()

    def _run_one(item):
        if writer.error is not None:
            return  # a transcript was lost: start no further problem
        name, problem = item
        transcript = run_problem(problem, config, gateway)
        transcripts[problem.id] = transcript
        writer.put(transcript_dir / name, dumps(transcript))

    failure = None
    try:
        if config.workers == 1 or len(todo) <= 1:
            for item in todo:
                _run_one(item)
        else:
            with ThreadPoolExecutor(max_workers=config.workers) as pool:
                for _ in pool.map(_run_one, todo):
                    pass
    except BaseException as exc:
        failure = exc
        raise
    finally:
        writer.close()
        try:
            gateway.commit()
        except DupError as exc:
            if failure is None and writer.error is None:
                raise
            log.error("%s", exc)  # the earlier error is the one raised
    if writer.error is not None:
        raise writer.error

    report = build_report(config, problems, transcripts)
    write_report(report, out_dir)
    return report
