"""HttpBackend over a real socket: a scripted chat-completions server on 127.0.0.1.

Run as a script, this module serves the rows of a response cache after a few
scripted faults, so a `dup run --backend http` can be compared with the mock
run that filled the cache:

    python tests/test_http_loopback.py CACHE_DIR PORT_FILE

It writes the port it listens on to PORT_FILE and serves until killed.
"""

import json
import os
import sys
import threading
import time
from collections import deque
from contextlib import closing
from dataclasses import replace
from email.utils import formatdate
from functools import partial
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import NamedTuple

import pytest

import dup.gateway as gateway_module
from dup.exceptions import AuthenticationError, MalformedResponseError, TransientBackendError
from dup.gateway import ChatMessage, ChatRequest, Gateway, HttpBackend, cache_key
from dup.runner import _request_budget, build_run_gateway, run_experiment, transcript_path

from conftest import DATA_DIR, SYNTH_IDS, cache_rows, comparable, make_run_config


class Reply(NamedTuple):
    """One scripted reply to a POST."""

    status: int = 200
    body: bytes = b""
    headers: tuple = ()
    delay_s: float = 0.0  # before the status line
    cut: bool = False  # send half the body, then close the connection


# The faults a run over the server meets first, in the order requests arrive.
FAULTS = (
    Reply(429, b"slow down", (("Retry-After", "0"),)),
    Reply(500, b"internal error"),
    Reply(429, b"slow down", (("Retry-After", formatdate(0, usegmt=True)),)),
)


def completion(content, finish_reason="stop", prompt_tokens=0, completion_tokens=0) -> bytes:
    """A chat-completions response body."""
    return json.dumps(
        {
            "choices": [
                {
                    "message": {"role": "assistant", "content": content},
                    "finish_reason": finish_reason,
                }
            ],
            "usage": {"prompt_tokens": prompt_tokens, "completion_tokens": completion_tokens},
        }
    ).encode()


def cached_answers(cache_dir) -> dict[str, bytes]:
    """The completion body of each response a cache holds, by request digest."""
    return {
        digest: completion(**json.loads(entry)["response"])
        for digest, entry in cache_rows(cache_dir).items()
    }


class LoopbackServer(ThreadingHTTPServer):
    """A chat-completions endpoint on 127.0.0.1, on a port the system picks.

    Each POST takes the next of `replies`; once they run out, the body
    `answers` holds for the request's digest, or a 404. `seen` lists each
    request as (path, headers, payload, client address).
    """

    daemon_threads = True

    def __init__(self, replies=(), answers=None):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.url = f"http://127.0.0.1:{self.server_port}"
        self.replies = deque(replies)
        self.answers = answers or {}
        self.seen = []
        self.lock = threading.Lock()

    def __enter__(self):
        serve = partial(self.serve_forever, poll_interval=0.01)  # so that shutdown() is quick
        threading.Thread(target=serve, name="loopback-server", daemon=True).start()
        return self

    def __exit__(self, *exc):
        self.shutdown()
        self.server_close()

    def handle_error(self, request, client_address):
        pass  # a client that timed out or hung up; the test sees it from its side

    def reply_to(self, payload: dict) -> Reply:
        with self.lock:
            if self.replies:
                return self.replies.popleft()
        request = ChatRequest(
            model=payload["model"],
            messages=tuple(ChatMessage(m["role"], m["content"]) for m in payload["messages"]),
            temperature=payload["temperature"],
            max_tokens=payload["max_tokens"],
        )
        body = self.answers.get(cache_key(request))
        return Reply(body=body) if body else Reply(404, b"no scripted answer")


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # keep-alive, so requests' pool reuses connections

    def do_POST(self):
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        with self.server.lock:
            self.server.seen.append((self.path, dict(self.headers), payload, self.client_address))
        reply = self.server.reply_to(payload)
        time.sleep(reply.delay_s)
        self.send_response(reply.status)
        for name, value in reply.headers:
            self.send_header(name, value)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(reply.body)))
        self.end_headers()
        if reply.cut:
            self.wfile.write(reply.body[: len(reply.body) // 2])
            self.close_connection = True
        else:
            self.wfile.write(reply.body)

    def log_message(self, *args):
        pass


@pytest.fixture(autouse=True)
def no_proxy(monkeypatch):
    # A proxy named in the environment must not carry loopback requests.
    monkeypatch.setenv("no_proxy", "127.0.0.1")


def send_once(*replies) -> tuple:
    """Send one request through a new HttpBackend: what it returned or raised,
    and what the server saw."""
    request = ChatRequest(model="m", messages=(ChatMessage("user", "2 + 2?"),), max_tokens=8)
    with LoopbackServer(replies) as server:
        backend = HttpBackend(server.url + "/v1/")
        with closing(backend.session):
            try:
                return backend.send(request), server.seen
            except Exception as exc:
                return exc, server.seen


def test_a_200_reply_is_a_completion():
    body = completion("It is 4.", "length", prompt_tokens=3, completion_tokens=5)
    response, seen = send_once(Reply(body=body))
    assert (response.content, response.finish_reason) == ("It is 4.", "length")
    assert (response.prompt_tokens, response.completion_tokens, response.cached) == (3, 5, False)
    [(path, headers, payload, _)] = seen
    assert path == "/v1/chat/completions"
    assert headers["Content-Type"] == "application/json"
    assert payload == {
        "model": "m",
        "messages": [{"role": "user", "content": "2 + 2?"}],
        "temperature": 0.0,
        "max_tokens": 8,
    }


def test_429_with_retry_after_in_seconds():
    exc, _ = send_once(Reply(429, b"slow down", (("Retry-After", "7"),)))
    assert isinstance(exc, TransientBackendError)
    assert (exc.status, exc.retry_after_s) == (429, 7.0)


def test_429_with_retry_after_as_an_http_date():
    when = formatdate(time.time() + 30, usegmt=True)
    exc, _ = send_once(Reply(429, b"slow down", (("Retry-After", when),)))
    assert isinstance(exc, TransientBackendError) and exc.status == 429
    assert 28 <= exc.retry_after_s <= 30


def test_500_is_retried_until_a_reply_comes():
    with LoopbackServer([Reply(500, b"oops"), Reply(body=completion("4"))]) as server:
        gateway = Gateway(backend=HttpBackend(server.url), retry_base_delay_s=0)
        request = ChatRequest(model="m", messages=(ChatMessage("user", "2 + 2?"),))
        assert gateway.complete(request).content == "4"
        assert len(server.seen) == 2


def test_401_is_an_authentication_error_and_not_retried():
    with LoopbackServer([Reply(401, b"bad key"), Reply(body=completion("4"))]) as server:
        gateway = Gateway(backend=HttpBackend(server.url), retry_base_delay_s=0)
        request = ChatRequest(model="m", messages=(ChatMessage("user", "2 + 2?"),))
        with pytest.raises(AuthenticationError, match="HTTP 401"):
            gateway.complete(request)
        assert len(server.seen) == 1


def test_a_200_reply_that_is_not_json_is_malformed():
    exc, _ = send_once(Reply(body=b"<html>gateway page</html>"))
    assert isinstance(exc, MalformedResponseError)


def test_a_connection_closed_mid_body_is_transient():
    exc, _ = send_once(Reply(body=completion("It is 4."), cut=True))
    assert isinstance(exc, TransientBackendError) and exc.status is None


def test_a_reply_slower_than_the_timeout_is_transient(monkeypatch):
    monkeypatch.setattr(gateway_module, "DEFAULT_TIMEOUT_S", 0.1)
    start = time.perf_counter()
    exc, _ = send_once(Reply(body=completion("4"), delay_s=1.0))
    assert isinstance(exc, TransientBackendError) and exc.status is None
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("key", ["sk-loopback", None])
def test_bearer_token_from_the_environment(monkeypatch, key):
    if key is None:
        monkeypatch.delenv("OPENAI_API_KEY", raising=False)
    else:
        monkeypatch.setenv("OPENAI_API_KEY", key)
    _, [(_, headers, _, _)] = send_once(Reply(body=completion("4")))
    assert headers.get("Authorization") == (f"Bearer {key}" if key else None)


def test_run_over_loopback_matches_the_mock_run(tmp_path):
    cache_dir = tmp_path / "cache"
    mock = make_run_config(
        tmp_path / "mock", DATA_DIR / "mock_dup.json", workers=2, cache_dir=str(cache_dir)
    )
    with closing(build_run_gateway(mock)) as gateway:
        expected = run_experiment(mock, gateway)
    with LoopbackServer(FAULTS, cached_answers(cache_dir)) as server:
        config = replace(
            mock,
            out_dir=str(tmp_path / "http"),
            backend="http",
            base_url=server.url,
            mock_script=None,
            cache_dir=None,
        )
        gateway = build_run_gateway(config)
        gateway.retry_base_delay_s = 0
        with closing(gateway.backend.session):
            report = run_experiment(config, gateway)
    assert (report.total, report.correct, report.per_problem, report.usage) == (
        expected.total,
        expected.correct,
        expected.per_problem,
        expected.usage,
    )
    for problem_id in SYNTH_IDS:
        assert comparable(json.loads(transcript_path(config.out_dir, problem_id).read_text())) == (
            comparable(json.loads(transcript_path(mock.out_dir, problem_id).read_text()))
        )
    # Each scripted fault cost one retry, and the run kept to its pooled connections.
    assert len(server.seen) == expected.usage["calls"] + len(FAULTS)
    assert len({address for *_, address in server.seen}) <= _request_budget(config)


if __name__ == "__main__":
    cache_dir, port_file = sys.argv[1:]
    with LoopbackServer(FAULTS, cached_answers(cache_dir)) as server:
        Path(port_file + ".tmp").write_text(str(server.server_port))
        os.replace(port_file + ".tmp", port_file)
        threading.Event().wait()
