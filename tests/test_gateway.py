"""Gateway behavior: request validation, retries, cache, mock routing."""

import hashlib
import importlib.util
import json
import sqlite3
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dup.gateway as gateway_module
from dup.exceptions import (
    AuthenticationError,
    DupError,
    GatewayError,
    InvalidInputError,
    MalformedResponseError,
    RetriesExhaustedError,
    TransientBackendError,
)
from dup.gateway import (
    CACHE_COMMIT_AFTER_S,
    CACHE_COMMIT_ROWS,
    CACHE_FILE,
    MAX_RETRY_AFTER_S,
    ChatMessage,
    ChatRequest,
    ChatResponse,
    Gateway,
    HttpBackend,
    MockBackend,
    build_messages,
    cache_key,
)
from dup.prompts import render_core_question_prompt

from conftest import DATA_DIR, cache_rows

PARENT_RUN = DATA_DIR / "parent_run"


# Text that JSON escapes or that is not ASCII: quotes, backslashes, control
# characters, non-ASCII and non-BMP characters, plus any other code point.
awkward_texts = st.text(
    st.sampled_from(['"', "\\", "\x00", "\n", "\x1f", "\x7f", "\u2028", "é", "中", "😀"])
    | st.characters(blacklist_categories=("Cs",)),
    max_size=24,
)


def request(prompt="What is 2 + 2?", model="m", **kwargs):
    return ChatRequest(model=model, messages=build_messages(prompt), **kwargs)


@pytest.fixture(autouse=True)
def no_sleep(monkeypatch):
    """Record backoffs unslept; this patches `time.sleep` for the whole process."""
    sleeps = []
    monkeypatch.setattr(gateway_module.time, "sleep", sleeps.append)
    return sleeps


class TestChatRequest:
    def test_validates_messages(self):
        with pytest.raises(InvalidInputError):
            ChatRequest(model="m", messages=())
        with pytest.raises(InvalidInputError):
            ChatRequest(model="m", messages=build_messages("hi", "sys")[:1])

    def test_validates_sampling_fields(self):
        with pytest.raises(InvalidInputError):
            request(temperature=-0.1)
        with pytest.raises(InvalidInputError):
            request(max_tokens=0)
        with pytest.raises(InvalidInputError):
            request(temperature=0.0, sample_index=2)
        request(temperature=0.7, sample_index=2)

    @pytest.mark.parametrize("temperature", [float("nan"), float("inf"), float("-inf")])
    def test_temperature_must_be_finite(self, temperature):
        with pytest.raises(InvalidInputError, match="temperature must be a finite number >= 0"):
            request(temperature=temperature)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: ChatMessage("tool", "hi"), "unknown message role 'tool'"),
            (lambda: request(temperature=0.7, sample_index=-1), "sample_index must be >= 0"),
        ],
        ids=["unknown-role", "negative-sample-index"],
    )
    def test_a_refusal_names_its_fault(self, build, message):
        with pytest.raises(InvalidInputError, match=message):
            build()

    def test_build_messages(self):
        assert [m.role for m in build_messages("q")] == ["user"]
        assert [m.role for m in build_messages("q", "s")] == ["system", "user"]


@pytest.fixture(scope="module")
def hashlib_gateway():
    """A second copy of dup.gateway, loaded where no built-in SHA-256 module
    imports: its cache_key hashes with `hashlib`."""
    spec = importlib.util.spec_from_file_location("dup._gateway_on_hashlib", gateway_module.__file__)
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(sys.modules, {"_sha2": None, "_sha256": None, spec.name: module}):
        spec.loader.exec_module(module)
    assert module._sha256 is hashlib.sha256
    return module


# Digests of existing caches: a change to any of them orphans every row.
GOLDEN_KEYS = [
    (
        ChatRequest(model="gpt-3.5-turbo", messages=build_messages("What is 2 + 2?")),
        "7d5a3c061fea577f93756c2c6e243d5842a710cb4668a254e00c6c8274027503",
    ),
    (
        ChatRequest(
            model="gpt-3.5-turbo",
            messages=build_messages("What is 2 + 2?", "You are a careful solver."),
        ),
        "c163529bde6f7405f7daac65c4af92da50ccd982b4e03cbf69b2071ac410da6c",
    ),
    (
        ChatRequest(
            model="gpt-3.5-turbo",
            messages=build_messages("Q: Jan has 3 apples and buys 5 more. How many? «é»"),
            temperature=0.7,
            max_tokens=256,
            sample_index=3,
            tag="answer:p7",
        ),
        "8c5634b50f4b17e42232a8fd5484b47336fcab61182ab37d7cca339be13ef6c4",
    ),
]


class TestCacheKey:
    @pytest.mark.parametrize(
        "req, digest", GOLDEN_KEYS, ids=["greedy", "system-message", "sample-3"]
    )
    def test_digest_is_pinned(self, req, digest, hashlib_gateway):
        assert cache_key(req) == digest
        assert hashlib_gateway.cache_key(req) == digest

    def test_lone_surrogate_is_hashed(self):
        # json.loads reads the escape \ud800 as a lone surrogate, which UTF-8 cannot encode.
        odd = request("Half a pair: \ud800")
        assert cache_key(odd) == cache_key(odd) != cache_key(request("Half a pair: "))

    def test_tag_excluded(self):
        assert cache_key(request(tag="a")) == cache_key(request(tag="b"))

    def test_semantic_fields_included(self):
        base = request()
        assert cache_key(base) != cache_key(request("What is 3 + 3?"))
        assert cache_key(base) != cache_key(request(model="other"))
        assert cache_key(base) != cache_key(request(temperature=0.7))
        assert cache_key(base) != cache_key(request(max_tokens=99))
        assert cache_key(base) != cache_key(request(temperature=0.7, sample_index=1))

    @given(st.text(min_size=1, max_size=80))
    def test_digest_is_deterministic(self, prompt):
        assert cache_key(request(prompt)) == cache_key(request(prompt))

    @given(
        prompt=awkward_texts.filter(bool),
        system=st.none() | awkward_texts,
        model=awkward_texts,
        temperature=st.just(0.0) | st.floats(0.01, 2.0) | st.integers(1, 2),
        max_tokens=st.integers(1, 10**6),
        sample_index=st.integers(0, 9),
    )
    def test_digest_is_the_sha256_of_the_canonical_payload(
        self, hashlib_gateway, prompt, system, model, temperature, max_tokens, sample_index
    ):
        if temperature == 0:
            sample_index = 0
        req = ChatRequest(
            model=model,
            messages=build_messages(prompt, system),
            temperature=temperature,
            max_tokens=max_tokens,
            sample_index=sample_index,
            tag="ignored",
        )
        payload = {
            "model": model,
            "messages": [{"role": m.role, "content": m.content} for m in req.messages],
            "temperature": temperature,
            "max_tokens": max_tokens,
            "sample_index": sample_index,
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
        digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()
        assert cache_key(req) == hashlib_gateway.cache_key(req) == digest


class TestMockBackend:
    def test_by_tag_routing(self):
        backend = MockBackend({"by_tag": {"answer:p1": "42"}, "default": "d"})
        assert backend.send(request(tag="answer:p1")).content == "42"
        assert backend.send(request(tag="other")).content == "d"

    @pytest.mark.parametrize(
        "script, key",
        [
            ({"by_tags": {"answer:p1": "42"}, "default": "d"}, "by_tags"),
            ({"by_digest": {"0" * 64: "specific"}, "by_tag": {}}, "by_digest"),
            ({"by_digest": 3}, "by_digest"),
            ({"answer:p1": "42", "default": "fallback"}, "answer:p1"),
        ],
        ids=["misspelt", "by_digest", "by_digest_not_an_object", "flat"],
    )
    def test_refuses_a_key_other_than_by_tag_and_default(self, script, key, tmp_path):
        path = tmp_path / "script.json"
        path.write_text(json.dumps(script), encoding="utf-8")
        message = f"mock script keys are 'by_tag' and 'default', not '{key}'"
        for source in (script, path):
            with pytest.raises(InvalidInputError, match=message):
                MockBackend(source)

    @pytest.mark.parametrize(
        "script, where",
        [
            ({"by_tag": {"t": 5}}, "reply for tag 't'"),
            ({"by_tag": {"t": None}, "default": "d"}, "reply for tag 't'"),
            ({"by_tag": {"t": "x"}, "default": ["d"]}, "default"),
        ],
        ids=["number", "null", "list-default"],
    )
    def test_refuses_a_reply_that_is_not_text(self, script, where):
        with pytest.raises(InvalidInputError, match=f"mock script {where} is not text"):
            MockBackend(script)

    def test_a_null_default_is_no_default(self):
        backend = MockBackend({"by_tag": {"t": "x"}, "default": None})
        assert backend.send(request(tag="t")).content == "x"
        with pytest.raises(MalformedResponseError, match="no entry for tag='u'"):
            backend.send(request(tag="u"))

    def test_miss_is_an_error(self):
        backend = MockBackend({"by_tag": {"other": "x"}})
        with pytest.raises(MalformedResponseError, match="no entry for tag='nope'"):
            backend.send(request(tag="nope"))

    def test_tag_routing_hashes_nothing(self, monkeypatch):
        backend = MockBackend({"by_tag": {"answer:p1": "42"}, "default": "d"})

        def no_hashing(request):
            raise AssertionError("the mock backend hashed a request")

        monkeypatch.setattr(gateway_module, "cache_key", no_hashing)
        assert backend.send(request(tag="answer:p1")).content == "42"
        assert backend.send(request(tag="other")).content == "d"

    def test_script_from_file(self, tmp_path):
        path = tmp_path / "script.json"
        path.write_text(json.dumps({"by_tag": {"t": "x"}}), encoding="utf-8")
        assert MockBackend(path).send(request(tag="t")).content == "x"
        assert MockBackend(str(path)).send(request(tag="t")).content == "x"

    def test_rejects_non_object_script(self, tmp_path):
        path = tmp_path / "script.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(InvalidInputError):
            MockBackend(path)

    @pytest.mark.parametrize(
        "script", [{"by_tag": [1, 2]}, {"by_tag": "x"}, {"by_tag": 3}, {"by_tag": None}]
    )
    def test_rejects_a_routing_table_that_is_not_an_object(self, script):
        with pytest.raises(InvalidInputError, match="'by_tag' must be a JSON object"):
            MockBackend(script)

    def test_unreadable_script_is_invalid_input(self, tmp_path):
        missing = tmp_path / "missing.json"
        with pytest.raises(InvalidInputError, match="missing.json"):
            MockBackend(missing)
        broken = tmp_path / "broken.json"
        broken.write_text("{not json", encoding="utf-8")
        with pytest.raises(InvalidInputError, match="broken.json"):
            MockBackend(broken)

    def test_script_nested_too_deeply_is_invalid_input(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000, encoding="utf-8")
        with pytest.raises(InvalidInputError, match="cannot read mock script .*deep.json"):
            MockBackend(path)

    def test_call_counter_thread_safe(self):
        backend = MockBackend({"default": "x"})
        with ThreadPoolExecutor(max_workers=16) as pool:
            list(pool.map(lambda _: backend.send(request()), range(200)))
        assert backend.calls == 200


class FlakyBackend:
    """Fails with transient errors a fixed number of times, then succeeds."""

    def __init__(self, failures, exc=None):
        self.failures = failures
        self.exc = exc or TransientBackendError("boom", status=429)
        self.sends = 0

    def send(self, req):
        self.sends += 1
        if self.sends <= self.failures:
            raise self.exc
        return ChatResponse(content="ok", finish_reason="stop")


class TestRetries:
    def test_transient_failures_then_success(self, no_sleep):
        backend = FlakyBackend(failures=2)
        gateway = Gateway(backend=backend, max_retries=5, retry_base_delay_s=0.5)
        assert gateway.complete(request()).content == "ok"
        assert backend.sends == 3
        assert len(no_sleep) == 2
        # Exponential base with jitter in [0, base): delay_k in [b*2^k, b*2^k + b).
        assert 0.5 <= no_sleep[0] < 1.0
        assert 1.0 <= no_sleep[1] < 1.5

    def test_pause_receives_every_backoff(self, no_sleep):
        # Each backoff is a wait that the caller's `idle` runs: its sleep
        # happens inside `idle`, not around it.
        idled = []

        def idle(wait):
            slept = len(no_sleep)
            wait()
            idled.append(no_sleep[slept:])

        backend = FlakyBackend(failures=2)
        gateway = Gateway(backend=backend, max_retries=5, retry_base_delay_s=0.5)
        assert gateway.complete(request(), idle).content == "ok"
        assert backend.sends == 3 and len(idled) == len(no_sleep) == 2
        assert 0.5 <= idled[0][0] < 1.0
        assert 1.0 <= idled[1][0] < 1.5

    def test_complete_cached_passes_the_pause_on(self, tmp_path, no_sleep):
        for cache_dir in (None, tmp_path):
            idled = []
            gateway = Gateway(backend=FlakyBackend(failures=1), cache_dir=cache_dir)
            assert gateway.complete_cached(request(), idled.append).content == "ok"
            assert len(idled) == 1 and callable(idled[0])
        assert no_sleep == []  # each wait was handed to `idle`, which never ran it

    def test_default_pause_sleeps(self, tmp_path, no_sleep):
        for cache_dir in (None, tmp_path):
            gateway = Gateway(backend=FlakyBackend(failures=1), cache_dir=cache_dir)
            assert gateway.complete_cached(request()).content == "ok"
        assert len(no_sleep) == 2

    def test_exhaustion_raises_with_last_status(self, no_sleep):
        backend = FlakyBackend(failures=99, exc=TransientBackendError("x", status=503))
        gateway = Gateway(backend=backend, max_retries=2)
        with pytest.raises(RetriesExhaustedError) as excinfo:
            gateway.complete(request())
        assert backend.sends == 3
        assert excinfo.value.last_status == 503

    def test_zero_retries_fails_fast(self):
        backend = FlakyBackend(failures=99)
        gateway = Gateway(backend=backend, max_retries=0)
        with pytest.raises(RetriesExhaustedError):
            gateway.complete(request())
        assert backend.sends == 1

    def test_auth_errors_never_retry(self, no_sleep):
        class AuthBackend:
            sends = 0

            def send(self, req):
                self.sends += 1
                raise AuthenticationError("bad key")

        backend = AuthBackend()
        gateway = Gateway(backend=backend, max_retries=5)
        with pytest.raises(AuthenticationError):
            gateway.complete(request())
        assert backend.sends == 1
        assert no_sleep == []

    def test_malformed_responses_never_retry(self):
        class BadBackend:
            sends = 0

            def send(self, req):
                self.sends += 1
                raise MalformedResponseError("garbled")

        backend = BadBackend()
        gateway = Gateway(backend=backend, max_retries=5)
        with pytest.raises(MalformedResponseError):
            gateway.complete(request())
        assert backend.sends == 1


class TestCache:
    def test_round_trip_and_hit(self, tmp_path):
        backend = MockBackend({"default": "fresh"})
        gateway = Gateway(backend=backend, cache_dir=tmp_path / "cache")
        first = gateway.complete_cached(request())
        assert not first.cached
        assert backend.calls == 1
        second = gateway.complete_cached(request())
        assert second.cached
        assert second.content == "fresh"
        assert backend.calls == 1

    def test_cache_file_named_by_digest(self, tmp_path):
        gateway = Gateway(backend=MockBackend({"default": "x"}), cache_dir=tmp_path)
        req = request()
        gateway.complete_cached(req)
        gateway.commit()
        rows = cache_rows(tmp_path)
        assert list(rows) == [cache_key(req)]
        # The row holds the response alone, not the request it answers.
        assert json.loads(rows[cache_key(req)]) == {
            "response": {
                "completion_tokens": 1,
                "content": "x",
                "finish_reason": "stop",
                "prompt_tokens": 5,
            }
        }
        assert not (tmp_path / cache_key(req)).exists()  # no per-entry file

    def test_corrupt_entry_evicted(self, tmp_path):
        backend = MockBackend({"default": "good"})
        gateway = Gateway(backend=backend, cache_dir=tmp_path)
        req = request()
        gateway.complete_cached(req)
        gateway.commit()
        with closing(sqlite3.connect(tmp_path / CACHE_FILE)) as db:
            db.execute("update entries set entry = '{not json' where digest = ?", (cache_key(req),))
            db.commit()
        failing = Gateway(backend=MockBackend({"by_tag": {}}), cache_dir=tmp_path)
        with pytest.raises(MalformedResponseError):
            failing.complete_cached(req)
        assert cache_rows(tmp_path) == {}  # evicted before the backend was asked
        response = gateway.complete_cached(req)
        assert response.content == "good"
        assert backend.calls == 2
        gateway.commit()
        assert json.loads(cache_rows(tmp_path)[cache_key(req)])["response"]["content"] == "good"

    def test_entry_nested_too_deeply_is_evicted_and_sent_again(self, tmp_path):
        req = request()
        Gateway(backend=MockBackend({"default": "x"}), cache_dir=tmp_path).close()
        with closing(sqlite3.connect(tmp_path / CACHE_FILE)) as db:
            db.execute(
                "insert into entries (digest, entry) values (?, ?)",
                (cache_key(req), "[" * 200_000),
            )
            db.commit()
        backend = MockBackend({"default": "good"})
        gateway = Gateway(backend=backend, cache_dir=tmp_path)
        sent = gateway.complete_cached(req)
        assert (sent.content, sent.cached, backend.calls) == ("good", False, 1)
        gateway.close()
        assert json.loads(cache_rows(tmp_path)[cache_key(req)])["response"]["content"] == "good"

    @staticmethod
    def send_over_a_stored_row(tmp_path, response):
        """Complete request() over a cache that holds `response` for it, as an
        older version may have stored it; the row must be evicted and sent again."""
        req = request()
        Gateway(backend=MockBackend({"default": "x"}), cache_dir=tmp_path).close()
        with closing(sqlite3.connect(tmp_path / CACHE_FILE)) as db:
            db.execute(
                "insert into entries (digest, entry) values (?, ?)",
                (cache_key(req), json.dumps({"response": {"prompt_tokens": 5, **response}})),
            )
            db.commit()
        backend = MockBackend({"default": "good"})
        gateway = Gateway(backend=backend, cache_dir=tmp_path)
        sent = gateway.complete_cached(req)
        assert sent.content == "good" and not sent.cached
        assert backend.calls == 1
        gateway.commit()
        assert json.loads(cache_rows(tmp_path)[cache_key(req)])["response"]["content"] == "good"

    @pytest.mark.parametrize("content, finish_reason", [(" \n", "stop"), ("", "length")])
    def test_blank_entry_is_evicted_and_sent_again(self, tmp_path, content, finish_reason):
        # A row an older version cached from a blank reply.
        response = {"completion_tokens": 0, "content": content, "finish_reason": finish_reason}
        self.send_over_a_stored_row(tmp_path, response)

    @pytest.mark.parametrize(
        "odd",
        [
            {"finish_reason": 7},
            {"finish_reason": ["stop"]},
            {"prompt_tokens": -1},
            {"prompt_tokens": "5"},
            {"completion_tokens": True},
            {"completion_tokens": 2.5},
        ],
    )
    def test_row_with_odd_fields_is_evicted_and_sent_again(self, tmp_path, odd):
        self.send_over_a_stored_row(tmp_path, {"content": "old", "finish_reason": "stop", **odd})

    def test_gateways_share_one_cache(self, tmp_path):
        # As for gateways in two processes: each sees the rows the other has
        # committed, whenever it opened, but not the rows still pending.
        first = Gateway(backend=MockBackend({"default": "one"}), cache_dir=tmp_path)
        first.complete_cached(request("a"))
        second = Gateway(backend=MockBackend({"default": "two"}), cache_dir=tmp_path)
        second.complete_cached(request("b"))
        first.commit()
        second.commit()
        assert second.complete_cached(request("a")).content == "one"
        assert first.complete_cached(request("b")).content == "two"
        first.complete_cached(request("c"))
        assert second.complete_cached(request("c")).content == "two"
        assert first.backend.calls == second.backend.calls == 2

    def test_read_ahead_serves_later_rows_without_a_query(self, tmp_path):
        writer = Gateway(backend=MockBackend({"default": "x"}), cache_dir=tmp_path)
        for prompt in "abc":
            writer.complete_cached(request(prompt))
        writer.commit()
        reader = Gateway(backend=MockBackend({"default": "fresh"}), cache_dir=tmp_path)
        assert reader.complete_cached(request("b")).cached
        with closing(sqlite3.connect(tmp_path / CACHE_FILE)) as db:
            db.execute("delete from entries")
            db.commit()
        # "c" was written after "b", so it was read with it; "a" was not.
        assert reader.complete_cached(request("c")).content == "x"
        assert reader.complete_cached(request("a")).content == "fresh"
        assert reader.backend.calls == 1

    def test_close_leaves_one_file(self, tmp_path):
        gateway = Gateway(backend=MockBackend({"default": "x"}), cache_dir=tmp_path)
        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(lambda i: gateway.complete_cached(request(f"q{i}")), range(40)))
        gateway.close()
        # Closing the last connection folds the write-ahead log into the file.
        assert [p.name for p in tmp_path.iterdir()] == [CACHE_FILE]
        assert len(cache_rows(tmp_path)) == 40

    def test_unusable_cache_file_fails_at_construction(self, tmp_path):
        (tmp_path / CACHE_FILE).write_bytes(b"this is not a database" * 100)
        with pytest.raises(DupError, match=CACHE_FILE):
            Gateway(backend=MockBackend({"default": "x"}), cache_dir=tmp_path)

    def test_eviction_spares_a_row_rewritten_after_it_was_read(self, tmp_path):
        writer = Gateway(backend=MockBackend({"default": "x"}), cache_dir=tmp_path)
        for prompt in "ab":
            writer.complete_cached(request(prompt))
        writer.commit()
        digest = cache_key(request("b"))
        good = cache_rows(tmp_path)[digest]
        with closing(sqlite3.connect(tmp_path / CACHE_FILE)) as db:
            db.execute("update entries set entry = '{not json' where digest = ?", (digest,))
            db.commit()
        reader = Gateway(backend=MockBackend({"by_tag": {}}), cache_dir=tmp_path)
        reader.complete_cached(request("a"))  # reads the corrupt "b" row ahead
        with closing(sqlite3.connect(tmp_path / CACHE_FILE)) as db:
            db.execute("update entries set entry = ? where digest = ?", (good, digest))
            db.commit()
        with pytest.raises(MalformedResponseError):
            reader.complete_cached(request("b"))  # a miss, so the backend is asked
        assert cache_rows(tmp_path)[digest] == good

    def test_pending_row_served_without_a_backend_call_or_query(self, tmp_path):
        backend = MockBackend({"default": "x"})
        gateway = Gateway(backend=backend, cache_dir=tmp_path)
        gateway.complete_cached(request("a"))
        statements = []
        gateway._db.set_trace_callback(statements.append)
        assert gateway.complete_cached(request("a")).cached
        assert backend.calls == 1
        assert statements == []
        assert cache_rows(tmp_path) == {}

    def test_64th_write_commits_every_pending_row_in_one_statement(self, tmp_path):
        gateway = Gateway(backend=MockBackend({"default": "x"}), cache_dir=tmp_path)
        statements = []
        gateway._db.set_trace_callback(statements.append)
        writes = lambda: [s for s in statements if not s.startswith("select")]  # noqa: E731
        for i in range(CACHE_COMMIT_ROWS - 1):
            gateway.complete_cached(request(f"q{i}"))
        assert writes() == [] and cache_rows(tmp_path) == {}
        gateway.complete_cached(request("last"))
        assert len(writes()) == 1
        assert writes()[0].startswith("insert or replace into entries")
        assert len(cache_rows(tmp_path)) == CACHE_COMMIT_ROWS
        gateway.complete_cached(request("next"))  # pending again, not committed
        assert len(writes()) == 1

    def test_commit_splits_rows_into_statements_of_at_most_499(self, tmp_path, monkeypatch):
        # No write finds the rows due: they pile up.
        monkeypatch.setattr(gateway_module, "CACHE_COMMIT_ROWS", 1000)
        monkeypatch.setattr(gateway_module, "CACHE_COMMIT_AFTER_S", 1e9)
        gateway = Gateway(backend=MockBackend({"default": "x"}), cache_dir=tmp_path)
        statements = []
        gateway._db.set_trace_callback(statements.append)
        for i in range(600):
            gateway.complete_cached(request(f"q{i}"))
        statements.clear()  # the misses' queries
        gateway.commit()
        assert [statement.count('{"response":') for statement in statements] == [499, 101]
        assert len(cache_rows(tmp_path)) == 600

    def test_rows_due_while_the_connection_is_busy_wait_for_the_next_write(self, tmp_path):
        gateway = Gateway(backend=MockBackend({"default": "x"}), cache_dir=tmp_path)
        statements = []
        gateway._db.set_trace_callback(statements.append)
        response = ChatResponse(content="x")
        for i in range(CACHE_COMMIT_ROWS - 1):
            gateway._write_cache(f"digest-{i}", response)
        held, done = threading.Event(), threading.Event()

        def hold_the_connection():  # as a read, an eviction or a commit would
            with gateway._db_lock:
                held.set()
                done.wait(2)

        holder = threading.Thread(target=hold_the_connection)
        holder.start()
        try:
            assert held.wait(5)
            # Both writes find the rows due and the connection busy.
            gateway._write_cache("digest-busy-1", response)
            gateway._write_cache("digest-busy-2", response)
            assert statements == [] and cache_rows(tmp_path) == {}
            assert len(gateway._pending) == CACHE_COMMIT_ROWS + 1
        finally:
            done.set()
            holder.join(5)
        assert not holder.is_alive()
        gateway._write_cache("digest-next", response)
        assert len(statements) == 1 and statements[0].startswith("insert or replace")
        assert len(cache_rows(tmp_path)) == CACHE_COMMIT_ROWS + 2
        assert gateway._pending == {}

    def test_write_a_second_after_the_oldest_pending_one_commits(self, tmp_path, monkeypatch):
        clock = [100.0]
        monkeypatch.setattr(gateway_module.time, "monotonic", lambda: clock[0])
        gateway = Gateway(backend=MockBackend({"default": "x"}), cache_dir=tmp_path)
        gateway.complete_cached(request("a"))
        clock[0] += CACHE_COMMIT_AFTER_S / 2
        gateway.complete_cached(request("b"))
        assert cache_rows(tmp_path) == {}
        clock[0] += CACHE_COMMIT_AFTER_S / 2
        gateway.complete_cached(request("c"))
        assert set(cache_rows(tmp_path)) == {cache_key(request(p)) for p in "abc"}
        # The clock starts again at the next row written.
        clock[0] += CACHE_COMMIT_AFTER_S
        gateway.complete_cached(request("d"))
        assert len(cache_rows(tmp_path)) == 3

    def test_close_commits_the_rest(self, tmp_path):
        gateway = Gateway(backend=MockBackend({"default": "x"}), cache_dir=tmp_path)
        for prompt in "abc":
            gateway.complete_cached(request(prompt))
        assert cache_rows(tmp_path) == {}
        gateway.close()
        assert set(cache_rows(tmp_path)) == {cache_key(request(p)) for p in "abc"}

    def test_failed_commit_names_the_cache_and_keeps_rows_pending(self, tmp_path, monkeypatch):
        monkeypatch.setattr(gateway_module, "CACHE_BUSY_TIMEOUT_S", 0.01)
        gateway = Gateway(backend=MockBackend({"default": "x"}), cache_dir=tmp_path)
        gateway.complete_cached(request("a"))
        with closing(sqlite3.connect(tmp_path / CACHE_FILE, isolation_level=None)) as other:
            other.execute("begin exclusive")  # as another process holding the write lock
            with pytest.raises(DupError, match=CACHE_FILE):
                gateway.commit()
            other.execute("rollback")
        assert gateway.complete_cached(request("a")).cached
        assert gateway.backend.calls == 1
        gateway.close()
        assert list(cache_rows(tmp_path)) == [cache_key(request("a"))]

    def test_row_rewritten_during_its_commit_stays_pending(self, tmp_path):
        gateway = Gateway(backend=MockBackend({"default": "x"}), cache_dir=tmp_path)
        req = request()
        gateway.complete_cached(req)
        newer = ChatResponse(content="newer")

        def rewrite(statement):
            gateway._db.set_trace_callback(None)
            gateway._write_cache(cache_key(req), newer)  # lands while the commit runs

        gateway._db.set_trace_callback(rewrite)
        gateway.commit()
        assert json.loads(cache_rows(tmp_path)[cache_key(req)])["response"]["content"] == "x"
        assert gateway.complete_cached(req).content == "newer"
        gateway.commit()
        assert json.loads(cache_rows(tmp_path)[cache_key(req)])["response"]["content"] == "newer"

    def test_threads_write_each_row_once(self, tmp_path):
        backend = MockBackend({"default": "x"})
        gateway = Gateway(backend=backend, cache_dir=tmp_path)
        threads, per_thread = 4, 200

        def ask(owner):
            for i in range(per_thread):
                assert gateway.complete_cached(request(f"{owner}-{i}")).content == "x"

        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # hand the GIL over often, to expose races
        try:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                for future in [pool.submit(ask, t) for t in range(threads)]:
                    future.result(timeout=60)
                assert backend.calls == threads * per_thread
                # Each thread asks again for the requests another one sent.
                for future in [pool.submit(ask, (t + 1) % threads) for t in range(threads)]:
                    future.result(timeout=60)
        finally:
            sys.setswitchinterval(switch_interval)
        assert backend.calls == threads * per_thread
        gateway.close()
        assert len(cache_rows(tmp_path)) == threads * per_thread

    def test_identical_requests_in_flight_share_one_send(self, tmp_path):
        sending, release = threading.Event(), threading.Event()

        class GatedBackend(MockBackend):
            def send(self, req):
                sending.set()
                release.wait(5)
                return super().send(req)

        backend = GatedBackend({"default": "x"})
        gateway = Gateway(backend=backend, cache_dir=tmp_path)
        with ThreadPoolExecutor(max_workers=3) as pool:
            first = pool.submit(gateway.complete_cached, request())
            assert sending.wait(5)
            others = [pool.submit(gateway.complete_cached, request()) for _ in range(2)]
            threading.Event().wait(0.1)  # the others find the first under way
            release.set()
            responses = [first.result(5)] + [future.result(5) for future in others]
        assert backend.calls == 1
        assert [(r.content, r.cached) for r in responses] == [
            ("x", False),
            ("x", True),
            ("x", True),
        ]

    def test_failed_request_in_flight_is_not_shared(self, tmp_path):
        sending, release = threading.Event(), threading.Event()

        class FailFirstBackend(MockBackend):
            def send(self, req):
                response = super().send(req)
                if self.calls == 1:
                    sending.set()
                    release.wait(5)
                    raise MalformedResponseError("first send fails")
                return response

        backend = FailFirstBackend({"default": "x"})
        gateway = Gateway(backend=backend, cache_dir=tmp_path)
        with ThreadPoolExecutor(max_workers=2) as pool:
            first = pool.submit(gateway.complete_cached, request())
            assert sending.wait(5)
            second = pool.submit(gateway.complete_cached, request())
            threading.Event().wait(0.1)  # the second finds the first under way
            release.set()
            with pytest.raises(MalformedResponseError):
                first.result(5)
            response = second.result(5)
        assert (response.content, response.cached) == ("x", False)
        assert gateway.complete_cached(request()).cached

    def test_a_request_waits_for_its_twin_in_backoff(self, tmp_path):
        # An identical request that misses while the first one backs off waits
        # for it, in its own `idle`, and is served the retry's response: one
        # send per attempt.
        backend = FlakyBackend(failures=1)
        gateway = Gateway(backend=backend, cache_dir=tmp_path)
        waiting, served = threading.Event(), []

        def twin_idle(wait):
            waiting.set()
            wait()

        twin = threading.Thread(
            target=lambda: served.append(gateway.complete_cached(request(), twin_idle)), daemon=True
        )

        def idle(wait):
            twin.start()
            assert waiting.wait(5)
            wait()

        first = gateway.complete_cached(request(), idle)
        twin.join(5)
        assert not twin.is_alive()
        assert backend.sends == 2
        assert [(r.content, r.cached) for r in (first, *served)] == [("ok", False), ("ok", True)]

    def test_a_wait_for_an_identical_request_runs_through_idle(self, tmp_path, no_sleep):
        sending, release = threading.Event(), threading.Event()

        class FailFirstBackend(MockBackend):
            def send(self, req):
                response = super().send(req)
                if self.calls == 1:
                    sending.set()
                    release.wait(5)
                    raise TransientBackendError("first send fails", status=503)
                return response

        backend = FailFirstBackend({"default": "x"})
        gateway = Gateway(backend=backend, cache_dir=tmp_path)
        idled = {"first": [], "second": []}

        def idle_of(name):
            def idle(wait):
                idled[name].append(wait)
                wait()

            return idle

        with ThreadPoolExecutor(max_workers=2) as pool:
            first = pool.submit(gateway.complete_cached, request(), idle_of("first"))
            assert sending.wait(5)
            second = pool.submit(gateway.complete_cached, request(), idle_of("second"))
            threading.Event().wait(0.1)  # the second waits for the first
            release.set()
            responses = [first.result(5), second.result(5)]
        # The first's backoff and the second's wait for the first each ran in
        # their caller's `idle`, so neither held what the caller gives back.
        assert len(idled["first"]) == len(idled["second"]) == len(no_sleep) == 1
        assert backend.calls == 2
        assert [(r.content, r.cached) for r in responses] == [("x", False), ("x", True)]

    def test_row_echoing_its_request_is_served(self, tmp_path, synthetic_problems):
        # Older versions stored the request beside the response in each row.
        prompt = render_core_question_prompt(synthetic_problems[0].question)
        req = ChatRequest(model="gpt-3.5-turbo", messages=build_messages(prompt))
        entry = (PARENT_RUN / "cache" / cache_key(req)).read_text(encoding="utf-8")
        assert "request" in json.loads(entry)
        Gateway(backend=MockBackend({"default": "x"}), cache_dir=tmp_path).close()
        with closing(sqlite3.connect(tmp_path / CACHE_FILE)) as db:
            db.execute("insert into entries (digest, entry) values (?, ?)", (cache_key(req), entry))
            db.commit()
        backend = MockBackend({"default": "fresh"})
        response = Gateway(backend=backend, cache_dir=tmp_path).complete_cached(req)
        assert (response.content, response.cached, backend.calls) == (
            "How many are there at the end?",
            True,
            0,
        )

    def test_no_cache_dir_skips_persistence(self, tmp_path):
        backend = MockBackend({"default": "x"})
        gateway = Gateway(backend=backend)
        gateway.complete_cached(request())
        gateway.complete_cached(request())
        assert backend.calls == 2

    def test_distinct_samples_cache_separately(self, tmp_path):
        backend = MockBackend({"default": "x"})
        gateway = Gateway(backend=backend, cache_dir=tmp_path)
        gateway.complete_cached(request(temperature=0.7, sample_index=0))
        gateway.complete_cached(request(temperature=0.7, sample_index=1))
        assert backend.calls == 2


class StubResponse:
    def __init__(self, status_code, body=None, text="", headers=None):
        self.status_code = status_code
        self._body = body
        self.text = text
        self.headers = headers or {}

    def json(self):
        if self._body is None:
            raise ValueError("no body")
        return self._body


class StubSession:
    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.requests = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.requests.append({"url": url, "json": json, "headers": headers, "timeout": timeout})
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def http_backend(outcomes, monkeypatch=None, token=None):
    if monkeypatch is not None:
        if token is None:
            monkeypatch.delenv("OPENAI_API_KEY", raising=False)
        else:
            monkeypatch.setenv("OPENAI_API_KEY", token)
    session = StubSession(outcomes)
    return HttpBackend("https://api.test/v1", session=session), session


# The clock the Retry-After tests read HTTP dates against.
RETRY_AFTER_NOW = 1792567650.0  # Wed, 21 Oct 2026 07:27:30 GMT

# Any JSON value, huge numbers included; and bodies of the expected shape
# with any JSON value, or none, at each of its keys.
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([10**400, -(10**30), json.loads("1e400"), -0.0])
    | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=10,
)


def _or_any(strategy):
    return strategy | json_values


reply_bodies = json_values | st.fixed_dictionaries(
    {
        "choices": _or_any(
            st.lists(
                _or_any(
                    st.fixed_dictionaries(
                        {"message": _or_any(st.fixed_dictionaries({"content": _or_any(st.text())}))},
                        optional={"finish_reason": _or_any(st.sampled_from(["stop", "length"]))},
                    )
                ),
                max_size=2,
            )
        )
    },
    optional={
        "usage": _or_any(
            st.fixed_dictionaries(
                {},
                optional={
                    "prompt_tokens": _or_any(st.integers(0, 10**6)),
                    "completion_tokens": _or_any(st.integers(0, 10**6)),
                },
            )
        )
    },
)

OK_BODY = {
    "choices": [{"message": {"content": "The answer is 4."}, "finish_reason": "stop"}],
    "usage": {"prompt_tokens": 11, "completion_tokens": 5},
}


class TestHttpBackend:
    def test_success_parse(self, monkeypatch):
        backend, session = http_backend([StubResponse(200, OK_BODY)], monkeypatch, token="sk-x")
        response = backend.send(request(tag="answer:p"))
        assert response.content == "The answer is 4."
        assert response.prompt_tokens == 11
        sent = session.requests[0]
        assert sent["url"] == "https://api.test/v1/chat/completions"
        assert sent["headers"]["Authorization"] == "Bearer sk-x"
        assert "sample_index" not in sent["json"]
        assert "tag" not in sent["json"]

    def test_missing_token_sends_no_auth_header(self, monkeypatch):
        backend, session = http_backend([StubResponse(200, OK_BODY)], monkeypatch)
        backend.send(request())
        assert "Authorization" not in session.requests[0]["headers"]

    def test_rate_limit_is_transient(self, monkeypatch):
        backend, _ = http_backend([StubResponse(429)], monkeypatch)
        with pytest.raises(TransientBackendError) as excinfo:
            backend.send(request())
        assert excinfo.value.status == 429

    def test_server_errors_are_transient(self, monkeypatch):
        backend, _ = http_backend([StubResponse(502)], monkeypatch)
        with pytest.raises(TransientBackendError):
            backend.send(request())

    def test_auth_statuses_raise_immediately(self, monkeypatch):
        for status in (401, 403):
            backend, _ = http_backend([StubResponse(status)], monkeypatch)
            with pytest.raises(AuthenticationError):
                backend.send(request())

    def test_other_statuses_are_malformed(self, monkeypatch):
        backend, _ = http_backend([StubResponse(404, text="nope")], monkeypatch)
        with pytest.raises(MalformedResponseError):
            backend.send(request())

    def test_network_error_is_transient(self, monkeypatch):
        backend, _ = http_backend([ConnectionError("reset")], monkeypatch)
        with pytest.raises(TransientBackendError):
            backend.send(request())

    def test_unparseable_body_is_malformed(self, monkeypatch):
        backend, _ = http_backend([StubResponse(200, {"choices": []})], monkeypatch)
        with pytest.raises(MalformedResponseError):
            backend.send(request())

    def test_too_deeply_nested_body_is_malformed(self, monkeypatch):
        class DeepResponse(StubResponse):
            def json(self):
                return json.loads("[" * 10**5 + "]" * 10**5)

        backend, _ = http_backend([DeepResponse(200)], monkeypatch)
        with pytest.raises(MalformedResponseError):
            backend.send(request())

    @pytest.mark.parametrize("content, finish_reason", [(" \n", "stop"), ("", "length")])
    def test_blank_reply_is_malformed_and_not_retried(self, monkeypatch, content, finish_reason):
        body = {"choices": [{"message": {"content": content}, "finish_reason": finish_reason}]}
        backend, session = http_backend([StubResponse(200, body)], monkeypatch)
        gateway = Gateway(backend=backend, max_retries=5)
        with pytest.raises(MalformedResponseError, match="invalid completion"):
            gateway.complete(request())
        assert len(session.requests) == 1

    @pytest.mark.parametrize(
        "usage, finish_reason",
        [
            (5, "stop"),
            ("many", "stop"),
            ([11, 5], "stop"),
            ({"prompt_tokens": "x"}, "stop"),
            ({"prompt_tokens": json.loads("1e400")}, "stop"),
            ({"prompt_tokens": 2.0}, "stop"),
            ({"prompt_tokens": -1}, "stop"),
            ({"completion_tokens": True}, "stop"),
            (None, 7),
            (None, ["stop"]),
            (None, {"reason": "stop"}),
            (None, True),
        ],
    )
    def test_odd_usage_or_finish_reason_is_malformed(self, monkeypatch, usage, finish_reason):
        choice = {"message": {"content": "4"}, "finish_reason": finish_reason}
        body = {"choices": [choice], "usage": usage}
        backend, _ = http_backend([StubResponse(200, body)], monkeypatch)
        with pytest.raises(MalformedResponseError):
            backend.send(request())

    @pytest.mark.parametrize(
        "usage", [None, {}, {"prompt_tokens": None, "completion_tokens": None}]
    )
    def test_absent_or_null_counts_read_as_zero(self, monkeypatch, usage):
        choice = {"message": {"content": "4"}, "finish_reason": None}
        backend, _ = http_backend(
            [StubResponse(200, {"choices": [choice], "usage": usage})], monkeypatch
        )
        response = backend.send(request())
        assert (response.finish_reason, response.prompt_tokens, response.completion_tokens) == (
            "stop",
            0,
            0,
        )

    @settings(max_examples=500, deadline=None)
    @given(
        status=st.just(200) | st.integers(100, 599),
        body=reply_bodies,
        retry_after=st.none() | st.text(max_size=40),
    )
    def test_any_reply_is_a_valid_response_or_a_gateway_error(self, status, body, retry_after):
        headers = {} if retry_after is None else {"Retry-After": retry_after}
        backend = HttpBackend("https://api.test/v1", session=StubSession([]))
        backend.session.outcomes.append(StubResponse(status, body, headers=headers))
        try:
            response = backend.send(request())
        except GatewayError:
            return
        assert status == 200
        assert isinstance(response.content, str) and response.content.strip()
        assert isinstance(response.finish_reason, str)
        for count in (response.prompt_tokens, response.completion_tokens):
            assert type(count) is int and count >= 0

    def test_gateway_retries_http_rate_limits(self, monkeypatch, no_sleep):
        backend, session = http_backend(
            [StubResponse(429), StubResponse(429), StubResponse(200, OK_BODY)], monkeypatch
        )
        gateway = Gateway(backend=backend, max_retries=5)
        assert gateway.complete(request()).content == "The answer is 4."
        assert len(session.requests) == 3


    @pytest.mark.parametrize(
        "header, expected",
        [
            (None, None),
            ("7", 7.0),
            ("0.25", 0.25),
            ("Wed, 21 Oct 2026 07:28:00 GMT", 30.0),
            ("Wed, 21 Oct 2026 07:28:00 -0000", 30.0),
            ("Wed, 21 Oct 2026 07:20:00 GMT", 0.0),
            ("Wed, 32 Oct 2026 07:28:00 GMT", None),
            ("soon", None),
            ("-1", None),
            ("inf", None),
        ],
    )
    def test_retry_after_parsed_from_numeric_header(self, monkeypatch, header, expected):
        monkeypatch.setattr(gateway_module.time, "time", lambda: RETRY_AFTER_NOW)
        headers = {} if header is None else {"Retry-After": header}
        for status in (429, 503):
            backend, _ = http_backend([StubResponse(status, headers=headers)], monkeypatch)
            with pytest.raises(TransientBackendError) as excinfo:
                backend.send(request())
            assert excinfo.value.retry_after_s == expected

    def test_gateway_waits_for_retry_after(self, monkeypatch, no_sleep):
        backend, session = http_backend(
            [
                StubResponse(429, headers={"Retry-After": "30"}),
                StubResponse(503, headers={"Retry-After": "0.1"}),
                StubResponse(200, OK_BODY),
            ],
            monkeypatch,
        )
        gateway = Gateway(backend=backend, max_retries=5)
        assert gateway.complete(request()).content == "The answer is 4."
        assert len(session.requests) == 3
        assert no_sleep[0] == 30.0  # longer than the 0.5-1.0 s backoff
        assert 1.0 <= no_sleep[1] < 1.5  # the backoff is longer than 0.1 s

    @pytest.mark.parametrize("header", ["60.5", "86400", "Wed, 21 Oct 2026 07:28:31 GMT"])
    def test_retry_after_beyond_the_cap_fails_at_once(self, monkeypatch, no_sleep, header):
        monkeypatch.setattr(gateway_module.time, "time", lambda: RETRY_AFTER_NOW)
        backend, session = http_backend(
            [StubResponse(429, headers={"Retry-After": header}), StubResponse(200, OK_BODY)],
            monkeypatch,
        )
        gateway = Gateway(backend=backend, max_retries=5)
        with pytest.raises(RetriesExhaustedError) as excinfo:
            gateway.complete(request())
        assert excinfo.value.last_status == 429
        assert len(session.requests) == 1 and no_sleep == []

    def test_retry_after_beyond_the_cap_fails_before_any_pause(self, monkeypatch, no_sleep):
        backend, session = http_backend(
            [StubResponse(429, headers={"Retry-After": "86400"}), StubResponse(200, OK_BODY)],
            monkeypatch,
        )
        idled = []
        with pytest.raises(RetriesExhaustedError):
            Gateway(backend=backend).complete(request(), idled.append)
        assert len(session.requests) == 1 and idled == no_sleep == []

    def test_retry_after_at_the_cap_is_honoured(self, monkeypatch, no_sleep):
        header = f"{MAX_RETRY_AFTER_S:g}"
        backend, session = http_backend(
            [StubResponse(429, headers={"Retry-After": header}), StubResponse(200, OK_BODY)],
            monkeypatch,
        )
        assert Gateway(backend=backend).complete(request()).content == "The answer is 4."
        assert no_sleep == [MAX_RETRY_AFTER_S]

    def test_connection_pool_sized_to_concurrency(self):
        session = HttpBackend("https://api.test/v1", 20).session
        for prefix in ("http://", "https://"):
            assert session.get_adapter(prefix + "api.test")._pool_maxsize == 20

    def test_session_is_built_once_by_threads_that_race_for_it(self, monkeypatch):
        import requests

        built, real = [], requests.Session
        monkeypatch.setattr(requests, "Session", lambda: built.append(1) or real())
        backend = HttpBackend("https://api.test/v1")
        start = threading.Barrier(16)

        def first_use():
            start.wait(timeout=10)
            return backend.session

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=16) as pool:
                sessions = list(pool.map(lambda _: first_use(), range(16)))
        finally:
            sys.setswitchinterval(switch)
        sessions[0].close()
        assert len(built) == 1
        assert all(session is sessions[0] for session in sessions)

    def test_token_read_from_environment(self, monkeypatch):
        monkeypatch.setenv("OPENAI_API_KEY", "sk-env")
        assert HttpBackend("https://x", session=StubSession([])).token == "sk-env"
        monkeypatch.delenv("OPENAI_API_KEY")
        assert HttpBackend("https://x", session=StubSession([])).token is None
