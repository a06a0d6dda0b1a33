"""Experiment orchestration: per-problem pipelines, persistence, resume.

Each problem produces a Transcript recording every prompt, raw response,
and extracted artifact in execution order. A problem thread encodes its
transcript when the problem finishes, keeps only its report row
(`reporting.report_row`), and hands the text to one background writer
thread per run, which writes out_dir/transcripts/<id>.json (atomic rename)
while the thread goes on to the next problem. At most one transcript per
problem thread waits for the writer, and the run drains them before it
returns or raises, so an interrupted run resumes by skipping completed
ids; only a crash of the process can lose the waiting ones, the one being
written and those the threads were handing over. A write that fails fails
its problem. Resume, recount and analyze-errors decode stored transcripts
one at a time and grade each as a fresh one is graded. Stage calls are
independent stateless completions: every prompt carries all the context it
needs, which keeps calls cache-friendly.
"""

from __future__ import annotations

import heapq
import logging
import math
import os
import queue
import random
import re
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

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
    answer_type: AnswerType | None = None
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

    def __post_init__(self):
        if self.answer_type is not None:  # ValueError unless it names one
            self.answer_type = AnswerType(self.answer_type)

    def validate(self) -> None:
        if not self.dataset:
            raise InvalidInputError("dataset identifier is required")
        if self.n_samples < 1:
            raise InvalidInputError("n_samples must be >= 1")
        if not math.isfinite(self.temperature) or self.temperature < 0:
            raise InvalidInputError(f"temperature must be a finite number >= 0: {self.temperature}")
        if self.n_samples > 1 and self.temperature <= 0:
            raise InvalidInputError("self-consistency sampling requires temperature > 0")
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


def _request(
    config: RunConfig, stage: str, prompt: str, problem_id: str, index: int
) -> ChatRequest:
    """The request of a stage call of problem `problem_id`, for sample `index`.

    Stages 1-2 ask the extractor model, the others the run's model. Only the
    answer stage samples, at the run's temperature, and carries `index`:
    greedy requests carry 0, so with a cache the extraction calls of samples
    that read the same text share one entry and one flight. Answer and
    extraction tags end in "#index" when the run takes N > 1 samples."""
    understanding = stage in (STAGE_CORE, STAGE_INFO)
    temperature = config.temperature if stage == STAGE_ANSWER else 0.0
    suffix = f"#{index}" if config.n_samples > 1 and not understanding else ""
    return ChatRequest(
        model=(config.extractor_model or config.model) if understanding else config.model,
        messages=build_messages(prompt, config.system_message),
        temperature=temperature,
        max_tokens=config.max_tokens,
        sample_index=index if temperature > 0 else 0,
        tag=f"{stage}:{problem_id}{suffix}",
    )


def _call(
    ticket: _Ticket,
    sink: Transcript | _Sample,
    config: RunConfig,
    problem_id: str,
    stage: str,
    prompt: str,
    index: int = 0,
) -> str:
    """Send the stage's request (see `_request`) through the gateway of the
    calling thread's `ticket`, once it holds a unit of the request budget, and
    append its record to `sink.records`: the transcript's or one sample
    chain's. A failure is also listed in `sink.errors` and re-raised.
    Returns the content; durations are kept to the microsecond."""
    request = _request(config, stage, prompt, problem_id, index)
    record = StageRecord(stage=stage, prompt=prompt, sample_index=index)
    sink.records.append(record)
    ticket.ready()
    start = time.perf_counter()
    try:
        response = ticket.gateway.complete_cached(request, ticket.idle)
    except GatewayError as exc:
        record.error = str(exc)
        sink.errors.append(f"{stage}: {exc}")
        raise
    finally:
        record.duration_s = round(time.perf_counter() - start, 6)
    record.response = response.content
    record.artifact = response.content.strip()
    record.cached = response.cached
    record.prompt_tokens = response.prompt_tokens
    record.completion_tokens = response.completion_tokens
    return response.content


def _answer_prompts(
    problem, config: RunConfig, method: MethodVariant, ticket: _Ticket, transcript: Transcript
) -> str:
    """Run any enabled extraction stages and return the answer-stage prompt."""
    question = problem.question
    if method is MethodVariant.ZERO_SHOT_COT:
        return render_cot_prompt(question)
    if method is MethodVariant.DUP_S:
        return render_dup_s_prompt(question)
    if method is MethodVariant.LAST_LETTER_SIMPLIFIED:
        return render_last_letter_prompt(question)

    core = info = ""
    if config.stages.stage1:
        prompt = render_core_question_prompt(question)
        core = _call(ticket, transcript, config, problem.id, STAGE_CORE, prompt).strip()
    if config.stages.stage2:
        # Without stage 1 there is no extracted core question; the original
        # question stands in so stage 2 can still run alone.
        core_ref = core if config.stages.stage1 else question
        prompt = render_info_extraction_prompt(question, core_ref)
        info = _call(ticket, transcript, config, problem.id, STAGE_INFO, prompt).strip()
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
    ticket: _Ticket,
    answer_prompt: str,
    index: int,
) -> _Sample:
    """Sample one reasoning path and extract its answer; gateway errors end the chain."""
    sample = _Sample()

    def ask(prompt: str) -> str:
        return _call(ticket, sample, config, problem.id, STAGE_EXTRACTION, prompt, index)

    try:
        reasoning = _call(ticket, sample, config, problem.id, STAGE_ANSWER, answer_prompt, index)
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
    ticket: _Ticket,
    answer_prompt: str,
) -> list[_Sample]:
    """Every sample chain, in sample order.

    Sample i runs on thread i mod T, where T = min(N, MAX_SAMPLE_THREADS).
    Thread 0 is the calling thread, which goes on with its problem's
    `ticket`; each other thread waits for the first unit of a ticket that
    `_Ticket.fan_out` queued, then runs its samples in order. Every thread
    gives its unit back when it stops. The first exception a thread raises
    is raised once every thread is done.
    """
    samples: list[_Sample] = [None] * config.n_samples
    threads = min(config.n_samples, MAX_SAMPLE_THREADS)
    errors: list[BaseException] = []

    def chain(ticket: _Ticket, first: int) -> None:
        try:
            if first:
                ticket.granted.acquire()  # a helper's first unit
            for index in range(first, config.n_samples, threads):
                samples[index] = _run_sample(problem, config, method, ticket, answer_prompt, index)
        except BaseException as exc:
            errors.append(exc)
        finally:
            ticket.release()

    helpers = [
        threading.Thread(target=chain, args=(own, k), name=f"dup-sample-{problem.id}")
        for k, own in enumerate(ticket.fan_out(threads - 1), 1)
    ]
    for thread in helpers:
        thread.start()
    chain(ticket, 0)
    for thread in helpers:
        thread.join()
    if errors:
        raise errors[0]
    return samples


def run_problem(
    problem, config: RunConfig, gateway: Gateway, ticket: _Ticket | None = None
) -> Transcript:
    """Run the full pipeline for one problem and grade the outcome.

    Gateway failures at any stage are contained: the transcript records the
    error, the problem grades incorrect, and the caller moves on. Sample
    chains run concurrently, so when one fails the others' calls may
    already have been sent; every chain's records are kept, in sample order.
    `ticket` is the one `_Gate.enter` started the problem with, on a gate
    around `gateway`; a direct call starts the problem at a gate of its own,
    with min(N, MAX_SAMPLE_THREADS) units.
    """
    config.validate()
    if ticket is None:
        ticket = _Gate(1, min(config.n_samples, MAX_SAMPLE_THREADS), gateway).enter(0)
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
        answer_prompt = _answer_prompts(problem, config, method, ticket, transcript)
    except GatewayError:
        ticket.release()  # no sample chain follows
        samples = []
    else:
        samples = _run_samples(problem, config, method, ticket, answer_prompt)
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
    transcript.completed = True
    transcript.finished_at = _utc_now()
    _grade(transcript, problem.gold, source)
    return transcript


def _grade(transcript: Transcript, gold: NormalizedAnswer, source: str) -> None:
    """Grade a fresh or stored `transcript`'s prediction, from `source`, against `gold`."""
    predicted = transcript.predicted
    transcript.graded = GradedResult(
        problem_id=transcript.problem_id,
        predicted=predicted,
        correct=predicted is not None and grade(predicted, gold),
        extraction_source=source if predicted is not None else "none",
    )


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
    a problem id and grades it (`_grade`) against the gold as loaded now,
    or returns None. `config`, when given, stands in for the stored
    configuration. The dataset comes from the explicit path first, then the
    manifest, and is subsampled per `select_problems`. Raises DupError when
    two selected problems would share a transcript file, since one would
    overwrite the other and the report would count the survivor twice; and
    when `out_dir` or its transcript directory is not a directory.
    """
    if config is None:
        config = stored_config(out_dir)
    if config.dataset_path:
        problems = load_dataset(config.dataset_path, config.dataset, answer_type=config.answer_type)
    elif config.manifest:
        manifest = load_manifest(config.manifest)
        problems = load_from_manifest(manifest, config.dataset, config.answer_type)
    else:
        raise DupError("config needs dataset_path or manifest to locate the dataset file")
    problems = select_problems(problems, config.max_problems, config.seed)
    by_name: dict[str, list[Problem]] = {}
    for problem in problems:
        by_name.setdefault(_transcript_name(problem.id), []).append(problem)
    clashes = [", ".join(repr(p.id) for p in ps) for ps in by_name.values() if len(ps) > 1]
    if clashes:
        raise DupError(f"problem ids share a transcript file: {'; '.join(clashes)}")
    try:
        listed = set(os.listdir(Path(out_dir) / _TRANSCRIPT_DIR))
    except FileNotFoundError:
        listed = set()
    except OSError as exc:  # a regular file in the way: out_dir or its transcripts
        raise DupError(f"cannot use run directory {out_dir}: {exc}") from None
    # The gold of each problem with a transcript on disk: a fresh run holds none.
    golds = {problem.id: problem.gold for name, (problem,) in by_name.items() if name in listed}

    def stored(problem_id: str) -> Transcript | None:
        transcript = load_transcript(out_dir, problem_id) if problem_id in golds else None
        if transcript is not None:
            source = transcript.graded.extraction_source if transcript.graded else "none"
            _grade(transcript, golds[problem_id], source)
        return transcript

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


def _check_config(config: RunConfig, out_dir: Path) -> bool:
    """Whether `out_dir` holds a configuration, checked against `config` as
    `stored_config` reads it: a key missing there takes its default, an
    unknown key is ignored, and a file it cannot decode, or one that differs,
    raises DupError naming it. The stored `out_dir` is left out of the check
    and kept as written, so a run directory that was moved still resumes.
    """
    path = out_dir / _CONFIG_FILE
    if not path.exists():
        return False
    if replace(stored_config(out_dir), out_dir=config.out_dir) != config:
        raise DupError(
            f"{path} holds a different run configuration; use a fresh --out-dir "
            "or resume with the stored settings"
        )
    return True


def stored_config(out_dir: str | Path) -> RunConfig:
    """Load the configuration persisted by a previous run (for resume)."""
    path = Path(out_dir) / _CONFIG_FILE
    try:
        return decode(RunConfig, read(path))
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise DupError(f"cannot read stored config at {path}: {exc}") from exc


class _Gate:
    """Hands out the request budget of sends through `gateway`: `budget` units,
    one per request in flight, each held by one thread's `_Ticket`.

    A unit that comes free goes to the waiting ticket of the oldest problem,
    first come first served within a problem. The next problem comes after
    all of them: it starts (`enter`), in problem order, while fewer than
    `workers` problems are in their understanding stages. Once closed, the
    gate starts no problem and wakes every thread waiting in `enter`.
    """

    def __init__(self, workers: int, budget: int, gateway: Gateway):
        self.gateway = gateway
        self._workers = workers
        self._free = budget
        self._understanding = 0
        self._turn = 0  # the next problem to start
        self._closed = False
        self._lock = threading.Lock()
        self._waiting: list[tuple[int, int, _Ticket]] = []  # a heap of (turn, arrival, ticket)
        self._arrivals = 0

    def enter(self, turn: int) -> _Ticket | None:
        """Wait until problem `turn` (0-based) may start; its ticket holds a unit
        and an understanding place. None once the gate is closed."""
        ticket = _Ticket(self, turn)
        with self._lock:
            if self._closed:
                return None
            self._queue(ticket)
            self._grant()
        ticket.granted.acquire()
        return ticket if ticket.understanding else None

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for _, _, ticket in self._waiting:
                if ticket.turn >= self._turn:  # a problem not started: `enter` returns None
                    ticket.granted.release()

    def _queue(self, ticket: _Ticket) -> None:
        """Make `ticket` wait for a unit; the caller holds the lock."""
        self._arrivals += 1
        heapq.heappush(self._waiting, (ticket.turn, self._arrivals, ticket))

    def _grant(self) -> None:
        """Hand each free unit to the first waiting ticket; the caller holds the lock."""
        while self._free and self._waiting:
            ticket = self._waiting[0][2]
            if ticket.turn >= self._turn:  # a problem to start, in turn, if it may
                if ticket.turn > self._turn or self._closed or self._understanding >= self._workers:
                    return
                self._turn += 1
                self._understanding += 1
                ticket.understanding = True
            heapq.heappop(self._waiting)
            self._free -= 1
            ticket.granted.release()


class _Ticket:
    """One thread's claim on the units of a `_Gate`, for the problem of turn `turn`.

    The gate releases `granted` at each grant, and at its close for a problem
    not started. `understanding` says whether it holds its problem's place in
    the understanding stages.
    """

    __slots__ = ("_gate", "gateway", "turn", "understanding", "granted")

    def __init__(self, gate: _Gate, turn: int):
        self._gate = gate
        self.gateway = gate.gateway
        self.turn = turn
        self.understanding = False
        self.granted = threading.Lock()
        self.granted.acquire()

    def ready(self) -> None:
        """Before a call: keep the unit, unless an older problem's ticket waits;
        then hand it over and wait for one at this problem's turn."""
        gate = self._gate
        if not gate._waiting:  # read without the lock: a ticket queued meanwhile waits a call more
            return
        with gate._lock:
            if not gate._waiting or gate._waiting[0][0] >= self.turn:
                return
            gate._free += 1
            gate._queue(self)
            gate._grant()
        self.granted.acquire()

    def idle(self, wait: Callable[[], object]) -> None:
        """Run `wait`, a wait of the gateway's that sends nothing, holding
        neither the unit nor the understanding place. The place comes back
        after it whatever the count, as the `workers` cap holds back only new
        problems; the unit comes at this problem's turn."""
        place = self.understanding
        self.release()
        wait()
        gate = self._gate
        with gate._lock:
            self.understanding = place
            gate._understanding += place
            gate._queue(self)
            gate._grant()
        self.granted.acquire()

    def fan_out(self, helpers: int) -> list[_Ticket]:
        """Leave the understanding stages and queue tickets for `helpers` more
        sample threads, in one step."""
        gate = self._gate
        tickets = [_Ticket(gate, self.turn) for _ in range(helpers)]
        with gate._lock:
            gate._understanding -= 1
            self.understanding = False
            for ticket in tickets:
                gate._queue(ticket)
            gate._grant()
        return tickets

    def release(self) -> None:
        """Give back the unit, and the understanding place if held."""
        gate = self._gate
        with gate._lock:
            gate._free += 1
            gate._understanding -= self.understanding
            self.understanding = False
            gate._grant()


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


def run_experiment(config: RunConfig, gateway: Gateway):
    """Run every selected problem, persist transcripts, and emit the report.

    Up to `_request_budget` threads take problems in order, each starting
    once the request budget has room for it (see `_Gate`); the caller waits.
    The run keeps its problem ids in order and, of a finished problem, only
    its `reporting.report_row`: a problem is held from when a thread takes
    its turn until its transcript text and row exist. One background thread
    writes the transcripts; at most one per problem thread waits for it. A
    problem fails when it raises or its transcript cannot be written
    (DupError names the file). Once one fails or the run is interrupted, no
    further problem starts; those already under way finish and their
    transcripts are written. Then an interrupt is raised, or else the
    failure of the earliest problem, and no report is written.

    Fully resumable: problems whose transcript file is already complete are
    skipped, so re-running with the same out_dir finishes an interrupted
    run without re-issuing their requests; their rows come from
    `reporting.stored_rows`, as `recount`'s do. Every problem that finished
    is on disk, and every response the gateway cached is committed, when
    this returns or raises. If the cached responses cannot be committed,
    DupError names the cache file, unless a failure above is raised: then
    the failed commit is logged.
    """
    from .reporting import build_report, report_row, stored_rows, write_report

    config.validate()
    out_dir = Path(config.out_dir)
    resumed = _check_config(config, out_dir)  # before the dataset or a transcript is read
    _, problems, stored = load_run(out_dir, config)
    problem_ids = [p.id for p in problems]
    rows = stored_rows(problem_ids, stored)  # a resumed run keeps only the rows of those it skips
    out_dir.mkdir(parents=True, exist_ok=True)
    if not resumed:  # written only once `load_run` found nothing amiss
        _write_json_atomic(out_dir / _CONFIG_FILE, config)
    transcript_dir = out_dir / _TRANSCRIPT_DIR
    transcript_dir.mkdir(exist_ok=True)
    # Each thread pop()s its next (turn, file name, problem), atomic under the
    # GIL, and is then the problem's only holder; so the list runs last turn first.
    pending = (p for p in problems if p.id not in rows)
    todo = [(turn, _transcript_name(p.id), p) for turn, p in enumerate(pending)]
    todo.reverse()
    del problems
    log.info(
        "running %d problems (%d already complete) on %s",
        len(todo),
        len(rows),
        config.dataset,
    )

    budget = _request_budget(config)
    gate = _Gate(config.workers, budget, gateway)
    # The run's one record of failure: each exception by the turn of its
    # problem, a lost transcript under its problem's, an interrupt under -1.
    raised: dict[int, BaseException] = {}
    ended = threading.Semaphore(0)  # released by each thread once it takes no more turns

    def _run_turns() -> None:
        try:
            while True:
                try:
                    turn, name, problem = todo.pop()
                except IndexError:
                    return  # every turn is taken
                ticket = gate.enter(turn)
                if ticket is None:
                    return  # a problem raised, a transcript was lost or the run was interrupted
                try:
                    transcript = run_problem(problem, config, gateway, ticket)
                    text = dumps(transcript)
                    rows[problem.id] = report_row(problem.id, transcript)
                    del transcript  # the writer needs only the text, the report only the row
                    to_write.put((turn, transcript_dir / name, text))
                except BaseException as exc:
                    gate.close()
                    raised[turn] = exc
                    return
        finally:
            ended.release()

    def _write_transcripts() -> None:
        while (item := to_write.get()) is not None:
            turn, path, text = item
            try:
                write_text(path, text)
            except Exception as exc:  # the thread must outlive a failed write
                log.error("cannot write transcript %s: %s", path, exc)
                raised[turn] = DupError(f"cannot write transcript {path}: {exc}")
                gate.close()

    # The calling thread waits at `ended`, not in Thread.join: on CPython, a
    # Ctrl-C that interrupts a join can mark a thread still running as stopped.
    threads = [threading.Thread(target=_run_turns, name="dup-run") for _ in todo[:budget]]
    # (turn, path, text) of each transcript, then None; at most one per thread
    # waits, which bounds their memory and the finished problems a crash loses.
    to_write = queue.Queue(len(threads))
    writer = threading.Thread(target=_write_transcripts, name="dup-transcript-writer")
    try:
        writer.start()
        for thread in threads:
            thread.start()
        for _ in threads:
            while not ended.acquire(timeout=0.1):  # in slices: a Ctrl-C is seen on every platform
                pass
    except BaseException as exc:
        raised[-1] = exc
        gate.close()  # the threads finish the problems under way and start no other
        for thread in threads:
            if thread.is_alive():
                thread.join()
    finally:
        to_write.put(None)
        if writer.is_alive():  # not if its start failed
            writer.join()
        try:
            gateway.commit()
        except DupError as exc:
            if not raised:
                raise
            log.error("%s", exc)  # the earlier error is the one raised
    if raised:
        raise raised[min(raised)]

    report = build_report(config, problem_ids, rows)
    write_report(report, out_dir)
    return report
