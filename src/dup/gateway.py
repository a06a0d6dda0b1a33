"""Provider-agnostic chat-completion gateway.

One generic chat-completions wire shape (model, messages, temperature,
max_tokens -> choices[0].message.content) with a configurable base URL and
bearer auth covers hosted GPT-style APIs and local open-model servers
behind compatible gateways. A scripted mock backend makes every pipeline
run fully deterministic offline, and a content-addressed response cache (one
SQLite file) makes runs resumable without re-spending tokens.
"""

from __future__ import annotations

import json
import logging
import math
import os
import random
import threading
import time
from dataclasses import InitVar, dataclass, field, fields, replace
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from .exceptions import (
    AuthenticationError,
    DupError,
    InvalidInputError,
    MalformedResponseError,
    RetriesExhaustedError,
    TransientBackendError,
)
from .store import decode, dumps, loads, read

if TYPE_CHECKING:
    import sqlite3

# The interpreter's own SHA-256, as `random` takes its SHA-512: `hashlib`
# would load OpenSSL's libcrypto (about 3.5 MB) to hash 2 kB a call.
try:
    from _sha2 import sha256 as _sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # Python 3.10, 3.11
    except ImportError:  # an interpreter built without them
        from hashlib import sha256 as _sha256

log = logging.getLogger(__name__)

ROLES = ("system", "user", "assistant")

DEFAULT_TEMPERATURE = 0.0  # greedy decoding unless a run asks otherwise
DEFAULT_MAX_TOKENS = 1024
DEFAULT_MAX_RETRIES = 5
DEFAULT_TIMEOUT_S = 120.0
# Longest Retry-After honoured, about 7x the longest default backoff
# (8.5 s); a reply asking for more fails the call instead of stalling it.
MAX_RETRY_AFTER_S = 60.0

CACHE_FILE = "cache.sqlite3"
# WAL lets readers run beside a writer, also in another process sharing the
# cache on the same host (WAL needs shared memory, so not a network
# filesystem); `normal` sync skips the fsync per commit, so a crash can lose
# the last entries but not corrupt the file; a 256 KiB page cache (not the
# 2 MB default) keeps a cached run's peak memory near that of one without.
CACHE_PRAGMAS = ("journal_mode=wal", "synchronous=normal", "cache_size=-256")
CACHE_BUSY_TIMEOUT_S = 30.0  # wait for another process's write to commit
# Rows read together, in the order they were written, when a read finds its
# row: a run over a warm cache asks for entries in about the order an
# earlier run wrote them, so most reads then need no query.
CACHE_READ_AHEAD_ROWS = 64
# Rows written are kept in memory and committed together, in one statement,
# once this many are pending or the oldest has waited this long: a commit per
# row costs several times the SQL work of a commit per 64 rows.
CACHE_COMMIT_ROWS = 64
CACHE_COMMIT_AFTER_S = 1.0
# Most rows in one insert statement: two bound values each, within the 999
# values older SQLite builds accept.
_INSERT_ROWS_MAX = 499


@dataclass(frozen=True)
class ChatMessage:
    role: str
    content: str

    def __post_init__(self):
        if self.role not in ROLES:
            raise InvalidInputError(f"unknown message role {self.role!r}")


@dataclass(frozen=True)
class ChatRequest:
    """One completion exchange request.

    `sample_index` distinguishes self-consistency samples that share
    identical content; it feeds the cache key but not the wire payload.
    `tag` is free-form routing metadata ("stage:problem_id") that the mock
    backend's script routes by; it never affects the cache key.
    """

    model: str
    messages: tuple[ChatMessage, ...]
    temperature: float = DEFAULT_TEMPERATURE
    max_tokens: int = DEFAULT_MAX_TOKENS
    sample_index: int = 0
    tag: str | None = None

    def __post_init__(self):
        if not self.messages:
            raise InvalidInputError("messages must be non-empty")
        if self.messages[-1].role != "user":
            raise InvalidInputError("last message must have role 'user'")
        if not math.isfinite(self.temperature) or self.temperature < 0:
            raise InvalidInputError(f"temperature must be a finite number >= 0: {self.temperature}")
        if self.max_tokens <= 0:
            raise InvalidInputError("max_tokens must be positive")
        if self.sample_index < 0:
            raise InvalidInputError("sample_index must be >= 0")
        if self.temperature == 0 and self.sample_index != 0:
            raise InvalidInputError("greedy decoding admits only sample_index 0")


def build_messages(prompt: str, system_message: str | None = None) -> tuple[ChatMessage, ...]:
    """User-role-only by default; a system message is prepended when configured."""
    if system_message:
        return (ChatMessage("system", system_message), ChatMessage("user", prompt))
    return (ChatMessage("user", prompt),)


@dataclass(frozen=True)
class ChatResponse:
    """One completion. Its content must hold more than whitespace, whatever
    the finish_reason: a blank reply is no answer to any stage. The
    finish_reason is text and each token count an int of 0 or more."""

    content: str
    finish_reason: str = "stop"  # "stop" | "length" | "error"
    prompt_tokens: int = 0
    completion_tokens: int = 0
    cached: bool = False

    def __post_init__(self):
        if not isinstance(self.content, str) or not self.content.strip():
            raise InvalidInputError("content must be text that is not blank")
        if not isinstance(self.finish_reason, str):
            raise InvalidInputError(f"finish_reason {self.finish_reason!r} is not text")
        for count in (self.prompt_tokens, self.completion_tokens):
            if type(count) is not int or count < 0:  # bool is an int subclass
                raise InvalidInputError(f"token count {count!r} is not an int of 0 or more")


# What a cache row stores of a response: every field but `cached`, which is
# a property of the read, not of the completion.
_ROW_FIELDS = tuple(f.name for f in fields(ChatResponse) if f.name != "cached")


def _canonical_request_payload(request: ChatRequest) -> dict:
    return {
        "model": request.model,
        "messages": [{"role": m.role, "content": m.content} for m in request.messages],
        "temperature": request.temperature,
        "max_tokens": request.max_tokens,
        "sample_index": request.sample_index,
    }


_KEY_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def cache_key(request: ChatRequest) -> str:
    """Stable hex digest over the request's semantic content.

    Serialization is canonical (sorted keys, fixed separators), so the
    digest is insensitive to field ordering and stable across runs and
    platforms. `tag` is deliberately excluded. A lone surrogate, which
    `json.loads` reads from a `\\ud800` escape, is hashed as its
    `surrogatepass` bytes; text without one hashes as plain UTF-8.
    """
    blob = _KEY_ENCODER.encode(_canonical_request_payload(request))
    return _sha256(blob.encode("utf-8", "surrogatepass")).hexdigest()


class MockBackend:
    """Scripted backend for offline deterministic runs.

    The script, a JSON file or a dict, maps routing tags to reply texts and
    may name a fallback text; both keys are optional:

        {"by_tag": {"answer:p01": "... 18."}, "default": "..."}

    Any other top-level key raises InvalidInputError. A request is served
    its tag's text, else the default; a miss is an error so tests notice
    incomplete fixtures. `calls` counts every completion served (thread-safe).
    """

    def __init__(self, script: Path | str | dict):
        if isinstance(script, (str, Path)):
            try:
                script = read(script)
            except (OSError, ValueError) as exc:
                raise InvalidInputError(f"cannot read mock script {script}: {exc}") from exc
        if not isinstance(script, dict):
            raise InvalidInputError("mock script must be a JSON object")
        unknown = sorted(map(repr, script.keys() - {"by_tag", "default"}))
        if unknown:  # a flat script of tags has thousands: name the first
            raise InvalidInputError(f"mock script keys are 'by_tag' and 'default', not {unknown[0]}")
        self.by_tag = script.get("by_tag", {})
        if not isinstance(self.by_tag, dict):
            raise InvalidInputError("mock script 'by_tag' must be a JSON object")
        for tag, text in self.by_tag.items():
            if not isinstance(text, str):
                raise InvalidInputError(f"mock script reply for tag {tag!r} is not text: {text!r}")
        self.default = script.get("default")
        if not isinstance(self.default, (str, type(None))):
            raise InvalidInputError(f"mock script default is not text: {self.default!r}")
        self._lock = threading.Lock()
        self.calls = 0

    def send(self, request: ChatRequest) -> ChatResponse:
        with self._lock:
            self.calls += 1
        content = self.by_tag.get(request.tag, self.default)
        if content is None:
            raise MalformedResponseError(f"mock script has no entry for tag={request.tag!r}")
        return ChatResponse(
            content=content,
            prompt_tokens=sum(len(m.content.split()) for m in request.messages),
            completion_tokens=len(content.split()),
        )


def _retry_after_s(value: str | None) -> float | None:
    """Seconds a Retry-After header asks to wait; None when absent or unreadable.

    The header holds either seconds or an HTTP date; a date in the past
    reads as 0.
    """
    if value is None:
        return None
    try:
        seconds = float(value)
    except ValueError:
        from email.utils import parsedate_to_datetime  # slow to import; rarely needed

        try:
            when = parsedate_to_datetime(value)
        except (TypeError, ValueError):
            return None
        if when.tzinfo is None:  # "-0000": UTC, source zone unknown
            from datetime import timezone  # loaded by parsedate_to_datetime

            when = when.replace(tzinfo=timezone.utc)
        seconds = max(0.0, when.timestamp() - time.time())
    return seconds if 0 <= seconds < math.inf else None


class HttpBackend:
    """Generic chat-completions endpoint speaking the common JSON shape.

    Requests go to `base_url`/chat/completions with a DEFAULT_TIMEOUT_S
    timeout, carrying the OPENAI_API_KEY environment variable, when set, as
    a bearer token. `pool_size` HTTP connections are kept open: one per
    request that may be in flight. A run served wholly from the cache never
    imports `requests`: the session is built at its first use.
    """

    RETRYABLE_STATUSES = frozenset({429} | set(range(500, 600)))
    AUTH_STATUSES = frozenset({401, 403})

    def __init__(self, base_url: str | None, pool_size: int = 8, session=None):
        if not base_url:
            raise InvalidInputError("http backend requires base_url")
        self._session = session
        self._session_lock = threading.Lock()
        self._pool_size = pool_size
        self.base_url = base_url.rstrip("/")
        self.token = os.environ.get("OPENAI_API_KEY")

    @property
    def session(self):
        """The `requests` session, built at the first use unless one was given."""
        with self._session_lock:
            if self._session is None:
                import requests
                from requests.adapters import HTTPAdapter

                self._session = requests.Session()
                # The default pool keeps 10 and drops the connections beyond it.
                adapter = HTTPAdapter(pool_maxsize=self._pool_size)
                for prefix in ("http://", "https://"):
                    self._session.mount(prefix, adapter)
            return self._session

    def send(self, request: ChatRequest) -> ChatResponse:
        payload = _canonical_request_payload(request)
        payload.pop("sample_index")  # local bookkeeping, not a wire field
        headers = {"Content-Type": "application/json"}
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        try:
            response = self.session.post(
                f"{self.base_url}/chat/completions",
                json=payload,
                headers=headers,
                timeout=DEFAULT_TIMEOUT_S,
            )
        except OSError as exc:  # covers requests' ConnectionError/Timeout
            raise TransientBackendError(f"transport failure: {exc}") from exc
        status = response.status_code
        if status in self.AUTH_STATUSES:
            raise AuthenticationError(f"authentication rejected (HTTP {status})")
        if status in self.RETRYABLE_STATUSES:
            raise TransientBackendError(
                f"retryable HTTP {status}",
                status=status,
                retry_after_s=_retry_after_s(response.headers.get("Retry-After")),
            )
        if status != 200:
            raise MalformedResponseError(f"unexpected HTTP {status}: {response.text[:200]}")
        try:
            body = response.json()
            choice = body["choices"][0]
            content = choice["message"]["content"]  # TypeError unless choice is an object
            usage = body.get("usage")
            if usage is None:
                usage = {}
            elif not isinstance(usage, dict):
                raise TypeError("usage is not an object")
            finish_reason = choice.get("finish_reason")
            # ChatResponse checks each field; a count or finish_reason that
            # is absent or null reads as its default.
            prompt_tokens, completion_tokens = (
                0 if usage.get(key) is None else usage[key]
                for key in ("prompt_tokens", "completion_tokens")
            )
            return ChatResponse(
                content=content,
                finish_reason="stop" if finish_reason in (None, "") else finish_reason,
                prompt_tokens=prompt_tokens,
                completion_tokens=completion_tokens,
            )
        except InvalidInputError as exc:
            raise MalformedResponseError(f"invalid completion: {exc}") from exc
        except (ValueError, KeyError, IndexError, TypeError, RecursionError) as exc:
            raise MalformedResponseError(f"cannot parse completion payload: {exc}") from exc


# A caller's hook around a wait that sends nothing: `idle(wait)` runs `wait`.
Idle = Callable[[Callable[[], object]], object]


def _open_cache(cache_dir: Path) -> sqlite3.Connection:
    """Connect to the cache database in `cache_dir`, creating both when absent."""
    # Here, not at the top: runs without a cache skip the import. The C core
    # of `sqlite3`, not the package around it, whose date adapters (unused
    # here) load `datetime`.
    import _sqlite3 as sqlite3

    path = cache_dir / CACHE_FILE
    db = None
    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
        db = sqlite3.connect(
            path,
            timeout=CACHE_BUSY_TIMEOUT_S,
            isolation_level=None,
            check_same_thread=False,
        )
        for pragma in CACHE_PRAGMAS:
            db.execute(f"pragma {pragma}")
        db.execute(
            "create table if not exists entries (digest text primary key, entry text not null)"
        )
    except (sqlite3.Error, OSError) as exc:
        if db is not None:
            db.close()
        raise DupError(f"cannot open response cache {path}: {exc}") from exc
    return db


class _Flight:
    """A request sent for a digest that missed the cache.

    Requests for the same digest wait on `done`, made by the first of them,
    and then find `response`: None if the request failed.
    """

    __slots__ = ("done", "response")

    def __init__(self):
        self.done: threading.Event | None = None
        self.response: ChatResponse | None = None


@dataclass
class Gateway:
    """Retry loop and response cache around a backend.

    Built as `Gateway(backend=HttpBackend(url) or MockBackend(script),
    cache_dir=...)`; `runner.build_run_gateway` builds the one a run
    configuration describes.

    The cache is one SQLite database, `cache_dir/cache.sqlite3`, with one
    row per request digest holding the JSON text `store.dumps` makes of
    the response.

    A new row waits in memory, where it is served at once, and is committed
    with the others waiting by the first write that finds CACHE_COMMIT_ROWS
    waiting or the oldest waiting CACHE_COMMIT_AFTER_S or more, and the
    connection free. Other gateways, in this process or another, see a row
    once it is committed. Library callers must `close()` or `commit()` when
    done, or lose the rows still waiting: fewer than CACHE_COMMIT_ROWS,
    unless writes went on while the connection was busy or a commit was
    failing. `run_experiment` commits when it returns or raises.

    A read that finds its row also fetches the rows written after it, up
    to CACHE_READ_AHEAD_ROWS in all, and keeps them in memory until they
    are asked for. Such a row is served as it was read, even if another
    process has rewritten it since.

    Shareable across threads, with no bound of its own on the requests in
    flight (a run bounds them at `runner._Gate`, whose tickets give back
    their unit in every wait that sends nothing, through `idle`). Two locks
    guard what the threads share: `_db_lock` the cache connection, for every
    read, eviction and commit, and `_pending_lock` what is held in memory,
    the pending rows and the requests in flight. A thread that takes both
    takes `_db_lock` first. A write that finds rows due while the connection
    is busy leaves them to the next write, so no write waits for a read or a
    commit. Runs in several processes on one host may share a cache
    directory; SQLite serializes their writes. The directory must be on a
    local filesystem: the database runs in WAL mode, whose shared memory
    does not work on a network filesystem or across hosts.
    """

    backend: MockBackend | HttpBackend
    cache_dir: Path | None = None
    max_retries: int = DEFAULT_MAX_RETRIES
    max_concurrency: InitVar[int | None] = None  # accepted from older callers; bounds nothing
    retry_base_delay_s: float = 0.5
    _rng: random.Random = field(init=False, repr=False)
    _db: sqlite3.Connection | None = field(init=False, repr=False, default=None)
    _db_lock: threading.Lock = field(init=False, repr=False, default_factory=threading.Lock)
    _ahead: dict[str, str] = field(init=False, repr=False, default_factory=dict)
    # Rows written but not yet committed, by digest, when the oldest of them
    # was written (None when none is), and the request under way for each
    # digest that missed the cache; guarded by _pending_lock.
    _pending: dict[str, str] = field(init=False, repr=False, default_factory=dict)
    _pending_since: float | None = field(init=False, repr=False, default=None)
    _flights: dict[str, _Flight] = field(init=False, repr=False, default_factory=dict)
    _pending_lock: threading.Lock = field(init=False, repr=False, default_factory=threading.Lock)

    def __post_init__(self, max_concurrency: int | None):
        self._rng = random.Random()
        if self.cache_dir is not None:
            self.cache_dir = Path(self.cache_dir)
            self._db = _open_cache(self.cache_dir)

    def close(self) -> None:
        """Commit pending rows and close the cache; the gateway must not be used after."""
        if self._db is not None:
            with self._db_lock:
                try:
                    self._commit_pending()
                finally:
                    self._db.close()

    def commit(self) -> None:
        """Store every pending row in the cache file, waiting for a commit under way.

        Raises DupError, naming the cache file, when the rows cannot be stored.
        """
        if self._db is not None:
            with self._db_lock:
                self._commit_pending()

    def _commit_pending(self) -> None:
        """Store the rows pending now in one statement; the caller holds _db_lock.

        A row stays pending until it is committed, so reads keep finding it,
        and afterwards only if it was rewritten meanwhile. A failed commit
        leaves every row pending and raises DupError.
        """
        import _sqlite3 as sqlite3

        with self._pending_lock:
            rows = list(self._pending.items())
            self._pending_since = None
        try:
            for start in range(0, len(rows), _INSERT_ROWS_MAX):
                chunk = rows[start : start + _INSERT_ROWS_MAX]
                sql = "insert or replace into entries (digest, entry) values " + ", ".join(
                    ["(?, ?)"] * len(chunk)
                )
                values = [value for row in chunk for value in row]
                self._db.execute(sql, values)
        except sqlite3.Error as exc:
            path = self.cache_dir / CACHE_FILE
            raise DupError(f"cannot store {len(rows)} responses in cache {path}: {exc}") from exc
        with self._pending_lock:
            for digest, text in rows:
                if self._pending.get(digest) is text:
                    del self._pending[digest]

    def complete(self, request: ChatRequest, idle: Idle | None = None) -> ChatResponse:
        """Send a request, retrying transient failures with backoff + jitter.

        A retry waits at least as long as the failed attempt's Retry-After;
        a Retry-After above MAX_RETRY_AFTER_S raises RetriesExhaustedError
        at once. Each backoff is a `time.sleep`, run as `idle(wait)` when
        `idle` is given. A reply that is not a valid ChatResponse (say,
        content that is blank, whatever its finish_reason) raises
        MalformedResponseError and is not retried.
        """
        last_exc: TransientBackendError | None = None
        for attempt in range(self.max_retries + 1):
            if attempt > 0:
                retry_after = last_exc.retry_after_s or 0.0
                if retry_after > MAX_RETRY_AFTER_S:
                    raise RetriesExhaustedError(
                        f"provider asked to wait {retry_after:g} s, more than the "
                        f"{MAX_RETRY_AFTER_S:g} s honoured: {last_exc}",
                        last_status=last_exc.status,
                    ) from last_exc
                delay = self.retry_base_delay_s * (2 ** (attempt - 1))
                delay += self._rng.uniform(0, self.retry_base_delay_s)
                wait = partial(time.sleep, max(delay, retry_after))
                idle(wait) if idle else wait()
            try:
                return self.backend.send(request)
            except TransientBackendError as exc:
                last_exc = exc
                log.warning(
                    "transient failure (attempt %d/%d): %s",
                    attempt + 1,
                    self.max_retries + 1,
                    exc,
                )
            except InvalidInputError as exc:
                raise MalformedResponseError(f"invalid completion: {exc}") from exc
        assert last_exc is not None
        raise RetriesExhaustedError(
            f"gave up after {self.max_retries + 1} attempts: {last_exc}",
            last_status=last_exc.status,
        ) from last_exc

    def _cached_text(self, digest: str) -> str | None:
        """The row text stored for `digest`, or None when it has no row."""
        text = self._pending.get(digest)  # one dict lookup: atomic without the lock
        if text is None:
            text = self._ahead.pop(digest, None)
        if text is not None:
            return text
        with self._db_lock:
            rows = self._db.execute(
                "select digest, entry from entries"
                " where rowid >= (select rowid from entries where digest = ?)"
                " order by rowid limit ?",
                (digest, CACHE_READ_AHEAD_ROWS),
            ).fetchall()
            if not rows:
                return None
            if len(self._ahead) >= CACHE_READ_AHEAD_ROWS:
                self._ahead.clear()  # rows that were not asked for
            self._ahead.update(rows[1:])
        return rows[0][1]

    def _read_cache(self, digest: str) -> ChatResponse | None:
        text = self._cached_text(digest)
        if text is None:
            return None
        try:
            entry = loads(text)
            return decode(ChatResponse, {**entry["response"], "cached": True})
        except (ValueError, KeyError, TypeError) as exc:
            log.warning("evicting corrupt cache entry %s: %s", digest, exc)
            # Only the text read: another process may have rewritten the row.
            with self._db_lock:
                self._db.execute(
                    "delete from entries where digest = ? and entry = ?", (digest, text)
                )
            return None

    def _write_cache(self, digest: str, response: ChatResponse) -> None:
        """Add a row to the pending ones, committing them all when they are due."""
        saved = {name: getattr(response, name) for name in _ROW_FIELDS}
        entry = dumps({"response": saved})
        now = time.monotonic()
        with self._pending_lock:
            self._pending[digest] = entry
            if self._pending_since is None:
                self._pending_since = now
            due = (
                len(self._pending) >= CACHE_COMMIT_ROWS
                or now - self._pending_since >= CACHE_COMMIT_AFTER_S
            )
        # A connection busy with a read, an eviction or a commit leaves these
        # rows to the next write.
        if due and self._db_lock.acquire(blocking=False):
            try:
                self._commit_pending()
            finally:
                self._db_lock.release()

    def complete_cached(self, request: ChatRequest, idle: Idle | None = None) -> ChatResponse:
        """Serve from the cache when possible; otherwise complete and persist.

        Without a cache_dir this is plain `complete`. Each response is
        stored as one row keyed by `cache_key(request)`, committed in a batch
        (see the class docstring); the last write of a digest wins. Corrupt
        entries are evicted and treated as misses.

        A miss whose digest is already being requested waits for that
        request, also through its backoffs, and is served its response as a
        cache hit, as it would be once the response is stored. If that
        request fails, the waiter sends its own. The wait runs as
        `idle(wait)`, like a backoff (see `complete`). A request that misses
        just as an identical one finishes may still reach the backend.
        """
        if self.cache_dir is None:
            return self.complete(request, idle)
        digest = cache_key(request)
        hit = self._read_cache(digest)
        if hit is not None:
            return hit
        while True:
            with self._pending_lock:
                flight = self._flights.get(digest)
                if flight is None:
                    flight = self._flights[digest] = _Flight()
                    break
                if flight.done is None:
                    flight.done = threading.Event()
            idle(flight.done.wait) if idle else flight.done.wait()
            if flight.response is not None:
                return replace(flight.response, cached=True)
        response = None
        try:
            response = self.complete(request, idle)
            self._write_cache(digest, response)
        finally:
            with self._pending_lock:
                if self._flights.get(digest) is flight:
                    del self._flights[digest]
                flight.response = response
            if flight.done is not None:
                flight.done.set()
        return response
