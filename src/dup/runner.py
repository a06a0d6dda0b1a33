"""Experiment orchestration: per-problem pipelines, persistence, resume.

Each problem produces a Transcript recording every prompt, raw response,
and extracted artifact in execution order. A problem thread encodes its
transcript when the problem finishes, keeps only its report row
(`reporting.report_row`), and hands the text to one background writer
thread per run, which writes out_dir/transcripts/<id>.json (atomic rename)
while the thread goes on to the next problem. At most TRANSCRIPT_BACKLOG
writes wait at once, and the run drains them before it returns or raises,
so an interrupted run resumes by skipping completed ids; only a crash of
the process can lose the waiting ones. Resume, recount and analyze-errors
decode stored transcripts one at a time. Stage calls are independent
stateless completions: every prompt carries all the context it needs,
which keeps calls cache-friendly.
"""

from __future__ import annotations

import logging
import os
import queue
import random
import re
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

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
from .gateway import ChatRequest, Gateway, HttpBackend, MockBackend, build_messages
from .grading import GradedResult, NormalizedAnswer, grade
from .prompts import (
    AnswerType,
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

STAGE_CORE = "core_question"
STAGE_INFO = "solving_info"
STAGE_ANSWER = "answer"

# Most sample chains of one problem in flight at once: a problem sends at
# most this many requests together, on at most this many threads.
MAX_SAMPLE_THREADS = 8

# Most transcript writes queued or under way at once; a worker that finishes
# a problem while this many wait blocks until one is done. It bounds the
# memory held by encoded transcripts and the finished problems a crash loses.
TRANSCRIPT_BACKLOG = 4

_TRANSCRIPT_DIR = "transcripts"
# A problem id keeps its letters, digits, "-", "_" and "." in its file name.
_UNSAFE_NAME_CHAR = re.compile(r"[^\w.\-]")
_CONFIG_FILE = "config.json"


def _utc_now() -> str:
    """The time in UTC, as `datetime.now(timezone.utc).isoformat(timespec="seconds")`
    writes it, without loading `datetime`."""
    return time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime())


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
        if self.max_tokens < 1:
            raise InvalidInputError("max_tokens must be >= 1")


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
        """Raw reasoning text the prediction came from.

        That is the answer completion of the first sample whose vote grades
        equal to `predicted`; with no such vote, the first answer completion.
        """
        answers = [r for r in self.records if r.stage == STAGE_ANSWER and r.response is not None]
        if self.predicted is not None:
            voted = {
                vote.sample_index
                for vote in self.votes
                if vote.answer is not None and grade(vote.answer, self.predicted)
            }
            for record in answers:
                if record.sample_index in voted:
                    return record.response
        return answers[0].response if answers else None


def resolve_method(config: RunConfig, dataset: str) -> MethodVariant:
    """Apply the Last Letters auto-simplification unless explicitly disabled."""
    if (
        config.method is MethodVariant.DUP
        and canonical_dataset_id(dataset) == "last_letters"
        and config.last_letter_simplified is not False
    ):
        return MethodVariant.LAST_LETTER_SIMPLIFIED
    return config.method


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
    in `sink.errors` and re-raised. Returns the content. The request
    carries `sample_index` only when sampling (temperature > 0): greedy
    requests all carry 0, so with a cache the extraction calls of samples
    that read the same text share one entry and one flight. Durations are
    kept to the microsecond.
    """
    request = ChatRequest(
        model=model,
        messages=build_messages(prompt, config.system_message),
        temperature=temperature,
        max_tokens=config.max_tokens,
        sample_index=sample_index if temperature > 0 else 0,
        tag=tag,
    )
    record = StageRecord(stage=stage, prompt=prompt, sample_index=sample_index)
    sink.records.append(record)
    start = time.perf_counter()
    try:
        response = gateway.complete_cached(request)
    except GatewayError as exc:
        record.duration_s = round(time.perf_counter() - start, 6)
        record.error = str(exc)
        sink.errors.append(f"{stage}: {exc}")
        raise
    record.duration_s = round(time.perf_counter() - start, 6)
    record.response = response.content
    record.artifact = response.content.strip()
    record.cached = response.cached
    record.prompt_tokens = response.prompt_tokens
    record.completion_tokens = response.completion_tokens
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

    def ask(prompt: str) -> str:
        tag = f"{STAGE_EXTRACTION}:{problem.id}{suffix}"
        return _call(
            gateway, sample, STAGE_EXTRACTION, prompt, config.model, config, tag, sample_index=index
        )

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
        if method is MethodVariant.DUP_S:
            reasoning = dup_s_answer_segment(reasoning)
        outcome = extract_answer(reasoning, problem.answer_type, ask, problem.gold)
    except GatewayError:
        return sample
    sample.records[-1].artifact = str(outcome.answer.value) if outcome.answer else None
    sample.vote = Vote(sample_index=index, answer=outcome.answer)
    sample.source = outcome.source
    return sample


def _run_samples(
    problem,
    config: RunConfig,
    method: MethodVariant,
    gateway: Gateway,
    answer_prompt: str,
    gate: _Gate,
) -> list[_Sample]:
    """Every sample chain, in sample order.

    min(N, MAX_SAMPLE_THREADS) threads take sample indices in order until
    none is left. The calling thread runs on the unit of the request budget
    its problem was admitted with; each other thread first takes a unit of
    its own from `gate`, with its first index, or stops if none is left.
    Every thread gives its unit back when it stops. The first exception a
    thread raises is raised once every thread is done.
    """
    samples: list[_Sample] = [None] * config.n_samples
    indices = iter(range(config.n_samples))  # next() is atomic under the GIL
    errors: list[BaseException] = []

    def chain(index: int | None) -> None:
        try:
            while index is not None:
                samples[index] = _run_sample(problem, config, method, gateway, answer_prompt, index)
                index = next(indices, None)
        except BaseException as exc:
            errors.append(exc)
        finally:
            gate.release()

    def helper() -> None:
        index = gate.take(indices)
        if index is not None:
            chain(index)

    helpers = [
        threading.Thread(target=helper, name=f"dup-sample-{problem.id}")
        for _ in range(min(config.n_samples, MAX_SAMPLE_THREADS) - 1)
    ]
    for thread in helpers:
        thread.start()
    chain(next(indices, None))
    for thread in helpers:
        thread.join()
    if errors:
        raise errors[0]
    return samples


def run_problem(
    problem, config: RunConfig, gateway: Gateway, gate: _Gate | None = None
) -> Transcript:
    """Run the full pipeline for one problem and grade the outcome.

    Gateway failures at any stage are contained: the transcript records the
    error, the problem grades incorrect, and the caller moves on. Sample
    chains run concurrently, so when one fails the others' calls may
    already have been sent; every chain's records are kept, in sample order.
    `gate` has admitted the problem and hands its sample threads their units
    of the request budget; a direct call admits the problem to a gate of its
    own, with min(N, MAX_SAMPLE_THREADS) units.
    """
    config.validate()
    if gate is None:
        gate = _Gate(1, min(config.n_samples, MAX_SAMPLE_THREADS))
        gate.enter(0)
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
        gate.fan_out()
        gate.release()  # the problem's own unit: no sample chain follows
        samples = []
    else:
        gate.fan_out()
        samples = _run_samples(problem, config, method, gateway, answer_prompt, gate)
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
) -> tuple[RunConfig, list[Problem], Callable[[str], Transcript | None]]:
    """What the run directory `out_dir` holds, wherever it was first written.

    Returns the stored configuration, the problems the run covers in run
    order, and a function that decodes the completed transcript stored for
    a problem id, or returns None. `config`, when given, stands in for the
    stored configuration. The dataset comes from the explicit path first,
    then the manifest, and is subsampled per `select_problems`. Raises
    DupError when two selected problems would share a transcript file, since
    one would overwrite the other and the report would count the survivor
    twice.
    """
    if config is None:
        config = stored_config(out_dir)
    if config.dataset_path:
        answer_type = AnswerType(config.answer_type) if config.answer_type else None
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
        listed = set(os.listdir(Path(out_dir) / _TRANSCRIPT_DIR))
    except FileNotFoundError:
        listed = set()
    present = {problem_id for name, (problem_id,) in ids_by_name.items() if name in listed}

    def stored(problem_id: str) -> Transcript | None:
        return load_transcript(out_dir, problem_id) if problem_id in present else None

    return config, problems, stored


def _transcript_name(problem_id: str) -> str:
    return f"{_UNSAFE_NAME_CHAR.sub('_', problem_id)}.json"


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


class _Gate:
    """Hands out a run's request budget: `budget` units, one per request in flight.

    A problem takes a unit to start (`enter`), in problem order, while fewer
    than `workers` problems are in their understanding stages, a unit is
    free and no sample thread waits for one. It keeps that unit for the
    sample chain its own thread runs; each other sample thread waits in
    `take` for a unit of its own, and is served before any new problem; it
    takes none if its problem has no sample left by then. Every unit comes
    back through `release`. Once closed, the gate admits no problem and
    wakes every thread waiting in `enter`; sample threads of the problems
    under way still get their units.
    """

    def __init__(self, workers: int, budget: int):
        self._workers = workers
        self._free = budget
        self._understanding = 0
        self._taking = 0  # sample threads waiting for a unit
        self._turn = 0
        self._closed = False
        self._changed = threading.Condition()

    def enter(self, turn: int) -> bool:
        """Wait until problem `turn` (0-based) may start; False once the gate is closed."""
        with self._changed:
            self._changed.wait_for(
                lambda: self._closed
                or (
                    turn == self._turn
                    and self._understanding < self._workers
                    and self._free
                    and not self._taking
                )
            )
            if self._closed:
                return False
            self._turn += 1
            self._understanding += 1
            self._free -= 1
            self._changed.notify_all()
            return True

    def fan_out(self) -> None:
        """The understanding stages of one problem are over."""
        with self._changed:
            self._understanding -= 1
            self._changed.notify_all()

    def take(self, indices: Iterator[int]) -> int | None:
        """Wait for a free unit for one sample thread and take it with the next
        of its problem's sample `indices`; None, taking no unit, if none is left."""
        with self._changed:
            self._taking += 1
            self._changed.wait_for(lambda: self._free)
            self._taking -= 1
            index = next(indices, None)
            if index is not None:
                self._free -= 1
            self._changed.notify_all()
            return index

    def release(self) -> None:
        """Give one unit back."""
        with self._changed:
            self._free += 1
            self._changed.notify_all()

    def close(self) -> None:
        with self._changed:
            self._closed = True
            self._changed.notify_all()


def _request_budget(config: RunConfig) -> int:
    """Requests a run may have in flight: `workers` problems, each fanning out its samples."""
    return config.workers * min(config.n_samples, MAX_SAMPLE_THREADS)


def build_run_gateway(config: RunConfig) -> Gateway:
    """Wire up the gateway a run configuration describes.

    An http backend pools one connection per request the run may have in
    flight.
    """
    if config.backend == "mock":
        if config.mock_script is None:
            raise InvalidInputError("mock backend requires a script source")
        backend = MockBackend(config.mock_script)
    elif config.backend == "http":
        backend = HttpBackend(config.base_url, _request_budget(config))
    else:
        raise InvalidInputError(f"unknown backend {config.backend!r}")
    return Gateway(backend=backend, cache_dir=Path(config.cache_dir) if config.cache_dir else None)


class _TranscriptWriter:
    """Writes encoded transcripts on one background thread, in the order given.

    `put` blocks while TRANSCRIPT_BACKLOG writes are queued or under way.
    The first failed write is logged, kept in `error` and closes `gate`;
    later writes are still tried. `close` waits until every queued write is
    done.
    """

    def __init__(self, gate: _Gate):
        self.error: DupError | None = None
        self._gate = gate
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
                    self._gate.close()
            finally:
                self._slots.release()

    def close(self) -> None:
        self._queue.put(None)
        self._thread.join()


def run_experiment(config: RunConfig, gateway: Gateway):
    """Run every selected problem, persist transcripts, and emit the report.

    Up to `_request_budget` threads take problems in order, each starting
    once the request budget has room for it (see `_Gate`); the caller waits.
    The run keeps only the `reporting.report_row` of a finished problem, in
    problem order. Once a problem raises, a transcript is lost, or the run
    is interrupted, no further problem starts; those already under way
    finish, and the first exception in problem order is raised.

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
    from .reporting import build_report, report_row, write_report

    config.validate()
    _, problems, stored = load_run(config.out_dir, config)
    rows = {}  # a resumed run keeps only the rows of the problems it skips
    for problem in problems:
        transcript = stored(problem.id)
        if transcript is not None:
            rows[problem.id] = report_row(problem.id, transcript)
        del transcript  # before the next one is decoded
    out_dir = Path(config.out_dir)
    transcript_dir = out_dir / _TRANSCRIPT_DIR
    transcript_dir.mkdir(parents=True, exist_ok=True)
    _persist_config(config, out_dir)
    todo = [(_transcript_name(p.id), p) for p in problems if p.id not in rows]
    log.info(
        "running %d problems (%d already complete) on %s",
        len(todo),
        len(rows),
        config.dataset,
    )

    budget = _request_budget(config)
    gate = _Gate(config.workers, budget)
    writer = _TranscriptWriter(gate)
    turns = enumerate(todo)  # next() is atomic under the GIL
    raised: dict[int, BaseException] = {}
    ended = threading.Semaphore(0)  # released by each thread once it takes no more turns

    def _run_turns() -> None:
        try:
            for turn, (name, problem) in turns:
                if not gate.enter(turn):
                    return  # a problem raised, a transcript was lost or the run was interrupted
                try:
                    transcript = run_problem(problem, config, gateway, gate)
                    text = dumps(transcript)
                    rows[problem.id] = report_row(problem.id, transcript)
                    del transcript  # the writer needs only the text, the report only the row
                    writer.put(transcript_dir / name, text)
                except BaseException as exc:
                    gate.close()
                    raised[turn] = exc
                    return
        finally:
            ended.release()

    # The calling thread waits at `ended`, not in Thread.join: on CPython, a
    # Ctrl-C that interrupts a join can mark a thread still running as stopped.
    threads = [threading.Thread(target=_run_turns, name="dup-run") for _ in todo[:budget]]
    failure = None
    try:
        for thread in threads:
            thread.start()
        for _ in threads:
            while not ended.acquire(timeout=0.1):  # in slices: a Ctrl-C is seen on every platform
                pass
        if raised:
            raise raised[min(raised)]
    except BaseException as exc:
        failure = exc
        gate.close()  # the threads finish the problems under way and start no other
        for thread in threads:
            if thread.is_alive():
                thread.join()
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

    report = build_report(config, problems, rows)
    write_report(report, out_dir)
    return report
