"""Latency- and fault-injecting backend for the `latency-sc` workload.

`FaultyBackend` wraps a `MockBackend` and exposes the same `send`, so it is
passed to `Gateway(backend=...)` like any provider backend. Before each
send it sleeps for a delay and, for a small share of sends, raises the
retryable `TransientBackendError` instead of answering.

Delay and fault are a pure function of (seed, request, attempt). The
request is located by its routing tag: problem number and call slot give a
request index, and the seed shifts an additive-recurrence (golden-ratio)
sequence over those indices. A low-discrepancy sequence rather than a hash
makes every seed see almost the same delay distribution and fault count,
so the spread between seeds measures the program, not the sampler, while
each seed still assigns different delays to different requests.
"""

from __future__ import annotations

import hashlib
import threading
import time

from dup.exceptions import TransientBackendError

# Fractional parts of the golden ratio and of sqrt(2): irrational steps for
# two independent equidistributed sequences.
_DELAY_STEP = 0.6180339887498949
_FAULT_STEP = 0.4142135623730951

FAULT_RATE = 0.004  # share of sends that fail with a retryable error
FAST_SHARE = 0.9  # sends drawn from the 40-60 ms body; the rest form the tail
_MAX_ATTEMPTS = 16  # attempt slots reserved per request index


def _offset(seed: int, stream: str) -> float:
    digest = hashlib.sha256(f"{stream}:{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def delay_for(u: float) -> float:
    """Inverse CDF: 90% of sends take 40-60 ms, the tail runs from 60 to 240 ms."""
    if u < FAST_SHARE:
        return 0.040 + 0.020 * u / FAST_SHARE
    t = (u - FAST_SHARE) / (1 - FAST_SHARE)
    return 0.060 / (1 - 0.75 * t)


def request_index(tag: str, calls_per_problem: int) -> int:
    """Index of a request from its tag "stage:bench-00042#3" (stage, problem, sample)."""
    stage, _, rest = tag.partition(":")
    problem_id, _, sample = rest.partition("#")
    problem = int(problem_id.rsplit("-", 1)[1])
    sample_index = int(sample) if sample else 0
    slot = {"core_question": 0, "solving_info": 1}.get(stage)
    if slot is None:
        slot = 2 + 2 * sample_index + (stage == "extraction")
    return problem * calls_per_problem + slot


class FaultPlan:
    """The pure (seed, request index, attempt) -> (delay, fault) schedule."""

    def __init__(self, seed: int):
        self.seed = seed
        self._delay_offset = _offset(seed, "delay")
        self._fault_offset = _offset(seed, "fault")

    def decide(self, index: int, attempt: int) -> tuple[float, bool]:
        slot = index * _MAX_ATTEMPTS + attempt
        u = (self._delay_offset + slot * _DELAY_STEP) % 1.0
        v = (self._fault_offset + slot * _FAULT_STEP) % 1.0
        return delay_for(u), v < FAULT_RATE


class FaultyBackend:
    """Delays every send and fails a seeded few; counts attempts per request."""

    def __init__(self, inner, plan: FaultPlan, calls_per_problem: int, sleep=time.sleep):
        self.inner = inner
        self.plan = plan
        self.calls_per_problem = calls_per_problem
        self._sleep = sleep
        self._attempts: dict[str, int] = {}
        self._lock = threading.Lock()
        self.sends = 0
        self.faults = 0

    def send(self, request):
        with self._lock:
            attempt = self._attempts.get(request.tag, 0)
            self._attempts[request.tag] = attempt + 1
            self.sends += 1
        delay, fault = self.plan.decide(request_index(request.tag, self.calls_per_problem), attempt)
        self._sleep(delay)
        if fault:
            with self._lock:
                self.faults += 1
            raise TransientBackendError(f"injected fault on {request.tag} attempt {attempt}", 503)
        return self.inner.send(request)
