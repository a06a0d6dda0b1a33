"""Provider-agnostic chat-completion gateway.

One generic chat-completions wire shape (model, messages, temperature,
max_tokens -> choices[0].message.content) with a configurable base URL and
bearer auth covers hosted GPT-style APIs and local open-model servers
behind compatible gateways. A scripted mock backend makes every pipeline
run fully deterministic offline, and a content-addressed disk cache makes
runs resumable without re-spending tokens.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import random
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from .exceptions import (
    AuthenticationError,
    InvalidInputError,
    MalformedResponseError,
    RetriesExhaustedError,
    TransientBackendError,
)
from .store import decode, encode, read, write

log = logging.getLogger(__name__)

__all__ = [
    "ChatMessage",
    "ChatRequest",
    "ChatResponse",
    "ProviderConfig",
    "MockBackend",
    "HttpBackend",
    "Gateway",
    "build_gateway",
    "build_messages",
    "cache_key",
]

ROLES = ("system", "user", "assistant")

DEFAULT_TEMPERATURE = 0.0  # greedy decoding unless a run asks otherwise
DEFAULT_MAX_TOKENS = 1024
DEFAULT_MAX_RETRIES = 5
DEFAULT_TIMEOUT_S = 120.0
# Longest Retry-After honoured, about 7x the longest default backoff
# (8.5 s); a reply asking for more fails the call instead of stalling it.
MAX_RETRY_AFTER_S = 60.0


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
    `tag` is free-form routing metadata ("stage:problem_id") used by the
    mock backend's readable script form; it never affects the cache key.
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
        if self.temperature < 0:
            raise InvalidInputError("temperature must be >= 0")
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
    content: str
    finish_reason: str = "stop"  # "stop" | "length" | "error"
    prompt_tokens: int = 0
    completion_tokens: int = 0
    cached: bool = False

    def __post_init__(self):
        if self.finish_reason == "stop" and not self.content:
            raise InvalidInputError("finish_reason 'stop' requires non-empty content")


@dataclass
class ProviderConfig:
    """How to reach a provider: http endpoint or scripted mock."""

    backend: str = "http"  # "http" | "mock"
    base_url: str | None = None
    auth_token: str | None = None
    auth_env: str = "OPENAI_API_KEY"
    timeout_s: float = DEFAULT_TIMEOUT_S
    max_retries: int = DEFAULT_MAX_RETRIES
    max_concurrency: int = 8
    mock_script: Path | dict | None = None

    def __post_init__(self):
        if self.backend not in ("http", "mock"):
            raise InvalidInputError(f"unknown backend {self.backend!r}")
        if self.backend == "http" and not self.base_url:
            raise InvalidInputError("http backend requires base_url")
        if self.backend == "mock" and self.mock_script is None:
            raise InvalidInputError("mock backend requires a script source")
        if self.max_retries < 0:
            raise InvalidInputError("max_retries must be >= 0")
        if self.max_concurrency <= 0:
            raise InvalidInputError("max_concurrency must be positive")

    def resolve_token(self) -> str | None:
        if self.auth_token:
            return self.auth_token
        return os.environ.get(self.auth_env)


def _canonical_request_payload(request: ChatRequest) -> dict:
    return {
        "model": request.model,
        "messages": [{"role": m.role, "content": m.content} for m in request.messages],
        "temperature": request.temperature,
        "max_tokens": request.max_tokens,
        "sample_index": request.sample_index,
    }


def cache_key(request: ChatRequest) -> str:
    """Stable hex digest over the request's semantic content.

    Serialization is canonical (sorted keys, fixed separators), so the
    digest is insensitive to field ordering and stable across runs and
    platforms. `tag` is deliberately excluded.
    """
    blob = json.dumps(
        _canonical_request_payload(request),
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=False,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _estimate_tokens(text: str) -> int:
    return len(text.split())


class MockBackend:
    """Scripted backend for offline deterministic runs.

    The script maps request digests and/or routing tags to response texts:

        {"by_tag": {"answer:p01": "... 18."}, "by_digest": {...}, "default": "..."}

    A flat JSON object is accepted as shorthand for {"by_tag": ...}.
    Lookup order: digest, tag, default; a miss is an error so tests notice
    incomplete fixtures. `calls` counts every completion served (thread-safe).
    """

    def __init__(self, script: Path | str | dict):
        if isinstance(script, (str, Path)):
            with open(script, encoding="utf-8") as handle:
                script = json.load(handle)
        if not isinstance(script, dict):
            raise InvalidInputError("mock script must be a JSON object")
        if set(script) <= {"by_tag", "by_digest", "default"}:
            self.by_tag = dict(script.get("by_tag", {}))
            self.by_digest = dict(script.get("by_digest", {}))
            self.default = script.get("default")
        else:
            # Flat shorthand: every key is a tag, except a bare "default"
            # entry which still acts as the fallback response.
            self.by_tag = {k: v for k, v in script.items() if k != "default"}
            self.by_digest = {}
            self.default = script.get("default")
        self._lock = threading.Lock()
        self.calls = 0

    def send(self, request: ChatRequest) -> ChatResponse:
        with self._lock:
            self.calls += 1
        digest = cache_key(request)
        content = self.by_digest.get(digest)
        if content is None and request.tag is not None:
            content = self.by_tag.get(request.tag)
        if content is None:
            content = self.default
        if content is None:
            raise MalformedResponseError(
                f"mock script has no entry for tag={request.tag!r} digest={digest[:12]}"
            )
        return ChatResponse(
            content=content,
            finish_reason="stop",
            prompt_tokens=sum(_estimate_tokens(m.content) for m in request.messages),
            completion_tokens=_estimate_tokens(content),
        )


def _retry_after_s(value: str | None) -> float | None:
    """Seconds from a numeric Retry-After header; None when absent or not a number."""
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        return None  # absent, or the HTTP-date form, which is not honoured
    return seconds if 0 <= seconds < math.inf else None


class HttpBackend:
    """Generic chat-completions endpoint speaking the common JSON shape."""

    RETRYABLE_STATUSES = frozenset({429} | set(range(500, 600)))
    AUTH_STATUSES = frozenset({401, 403})

    def __init__(self, config: ProviderConfig, session=None):
        if session is None:
            import requests
            from requests.adapters import HTTPAdapter

            session = requests.Session()
            # One pooled connection per permitted in-flight request; the
            # default pool keeps 10 and drops the connections beyond it.
            adapter = HTTPAdapter(pool_maxsize=config.max_concurrency)
            session.mount("http://", adapter)
            session.mount("https://", adapter)
        self.session = session
        self.base_url = (config.base_url or "").rstrip("/")
        self.timeout_s = config.timeout_s
        self.token = config.resolve_token()

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
                timeout=self.timeout_s,
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
            content = choice["message"]["content"]
            if not isinstance(content, str):
                raise TypeError("content is not a string")
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise MalformedResponseError(f"cannot parse completion payload: {exc}") from exc
        usage = body.get("usage") or {}
        return ChatResponse(
            content=content,
            finish_reason=choice.get("finish_reason") or "stop",
            prompt_tokens=int(usage.get("prompt_tokens", 0)),
            completion_tokens=int(usage.get("completion_tokens", 0)),
        )


@dataclass
class Gateway:
    """Retry loop, concurrency permit, and response cache around a backend.

    Shareable across threads: the permit bounds in-flight requests and the
    cache tolerates concurrent readers/writers via write-to-temp-then-rename.
    """

    backend: MockBackend | HttpBackend
    cache_dir: Path | None = None
    max_retries: int = DEFAULT_MAX_RETRIES
    max_concurrency: int = 8
    retry_base_delay_s: float = 0.5
    _permit: threading.Semaphore = field(init=False, repr=False)
    _rng: random.Random = field(init=False, repr=False)

    def __post_init__(self):
        self._permit = threading.Semaphore(self.max_concurrency)
        self._rng = random.Random()
        if self.cache_dir is not None:
            self.cache_dir = Path(self.cache_dir)
            self.cache_dir.mkdir(parents=True, exist_ok=True)

    def complete(self, request: ChatRequest) -> ChatResponse:
        """Send a request, retrying transient failures with backoff + jitter.

        A retry waits at least as long as the failed attempt's Retry-After;
        a Retry-After above MAX_RETRY_AFTER_S raises RetriesExhaustedError
        at once.
        A reply that is not a valid ChatResponse (say, empty content with
        finish_reason "stop") raises MalformedResponseError and is not retried.
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
                time.sleep(max(delay, retry_after))
            with self._permit:
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

    def _cache_path(self, digest: str) -> Path:
        assert self.cache_dir is not None
        return self.cache_dir / digest

    def _read_cache(self, digest: str) -> ChatResponse | None:
        path = self._cache_path(digest)
        try:
            return decode(ChatResponse, {**read(path)["response"], "cached": True})
        except FileNotFoundError:
            return None
        except (ValueError, KeyError, TypeError) as exc:
            log.warning("evicting corrupt cache entry %s: %s", path.name, exc)
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def _write_cache(self, digest: str, request: ChatRequest, response: ChatResponse) -> None:
        saved = encode(response)
        del saved["cached"]  # a property of the read, not of the completion
        entry = {"request": _canonical_request_payload(request), "response": saved}
        write(self._cache_path(digest), entry)

    def complete_cached(self, request: ChatRequest) -> ChatResponse:
        """Serve from the cache when possible; otherwise complete and persist.

        Without a cache_dir this is plain `complete`. Corrupt entries are
        evicted and treated as misses. Concurrent identical requests may
        each reach the backend once (single-flight is best-effort only);
        both observe the same final cache content.
        """
        if self.cache_dir is None:
            return self.complete(request)
        digest = cache_key(request)
        hit = self._read_cache(digest)
        if hit is not None:
            return hit
        response = self.complete(request)
        self._write_cache(digest, request, response)
        return response


def build_gateway(config: ProviderConfig, cache_dir: Path | None = None) -> Gateway:
    """Assemble a gateway from a provider config."""
    if config.backend == "mock":
        backend: MockBackend | HttpBackend = MockBackend(config.mock_script)
    else:
        backend = HttpBackend(config)
    return Gateway(
        backend=backend,
        cache_dir=cache_dir,
        max_retries=config.max_retries,
        max_concurrency=config.max_concurrency,
    )
