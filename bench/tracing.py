"""In-memory span tracing installed from outside the `dup` package.

The tracer wraps public functions of each `dup` module where their callers
look them up (for example `dup.runner.render_core_question_prompt`, the name
`run_problem` calls), plus the gateway and backend methods of the one
gateway instance a run uses. No span is opened inside `src/dup`. The only
private name wrapped is `dup.runner._write_json_atomic`, because the
per-problem transcript write has no public entry point.

Each span is one tuple (id, name, start, end, parent id, problem id,
failed), appended to a list and written out as JSON lines after the run.
A span's parent is the innermost open span of the same thread; spans
opened on a worker thread with nothing open hang off the current phase's
root span (`runner.run_experiment` or `reporting.recount`). The problem id
is set while `runner.run_problem` runs.
"""

from __future__ import annotations

import itertools
import json
import statistics
import threading
import time
import types
from pathlib import Path

import dup.consistency
import dup.extraction
import dup.gateway
import dup.grading
import dup.reporting
import dup.runner

_RENDERERS = (
    "render_core_question_prompt",
    "render_info_extraction_prompt",
    "render_final_answer_prompt",
    "render_cot_prompt",
    "render_dup_s_prompt",
    "render_last_letter_prompt",
)

ID, NAME, START, END, PARENT, PROBLEM, FAILED = range(7)


def _persist_name(path, payload) -> str:
    return "runner.persist" if path.parent.name == "transcripts" else "runner.persist_config"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.root: int | None = None
        self.extraction_sources: list[str] = []  # list.append is atomic across threads
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, on_result=None):
        """Return `fn` wrapped in a span; `name` may be a function of the arguments."""
        spans, local, ids, clock = self.spans, self._local, self._ids, time.perf_counter

        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self.root
            span_id = next(ids)
            stack.append(span_id)
            failed = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = clock()
                stack.pop()
                label = name(*args) if callable(name) else name
                spans.append(
                    (span_id, label, start, end, parent, getattr(local, "problem", None), failed)
                )
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def phase(self, name, fn, *args):
        """Run `fn(*args)` as the root span of one phase."""
        span_id = next(self._ids)
        self.root = span_id
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append((span_id, name, start, time.perf_counter(), None, None, False))
            self.root = None

    def _problem_wrap(self, fn):
        local = self._local
        traced = self.wrap("runner.run_problem", fn)

        def run_problem(problem, *args, **kwargs):
            local.problem = problem.id
            try:
                return traced(problem, *args, **kwargs)
            finally:
                local.problem = None

        return run_problem

    def _count_source(self, outcome) -> None:
        self.extraction_sources.append(outcome.source)

    def _patch(self, owner, attr: str, name, on_result=None) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, on_result))

    def install(self, gateway) -> None:
        """Wrap the layer boundaries of `dup` and of one gateway; undo with `uninstall`."""
        runner, extraction = dup.runner, dup.extraction
        self._patch(runner, "load_dataset", "datasets.load_dataset")
        for fn_name in _RENDERERS:
            self._patch(runner, fn_name, "prompts.render")
        self._patch(extraction, "render_answer_extraction_prompt", "prompts.render")
        self._patch(dup.gateway, "cache_key", "gateway.cache_key")
        self._patch(gateway, "complete_cached", "gateway.complete_cached")
        self._patch(gateway, "complete", "gateway.complete")
        self._patch(gateway.backend, "send", "gateway.send")
        self._patch(runner, "extract_answer", "extraction.extract_answer", self._count_source)
        self._patch(extraction, "normalize", "grading")
        self._patch(extraction, "extract_rule_based", "grading")
        for module in (runner, dup.consistency, dup.grading):
            self._patch(module, "grade", "grading")
        self._patch(runner, "aggregate", "consistency.aggregate")
        self._patch(runner, "_write_json_atomic", _persist_name)
        self._patch(runner, "load_transcript", "runner.load_transcript")
        self._patch(dup.reporting, "build_report", "reporting.build_report")
        self._patch(dup.reporting, "write_report", "reporting.write_report")
        original = runner.run_problem
        self._patched.append((runner, "run_problem", original))
        runner.run_problem = self._problem_wrap(original)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            if isinstance(owner, types.ModuleType):
                setattr(owner, attr, original)
            else:  # an instance attribute shadowing the class method
                delattr(owner, attr)

    def write(self, path: Path) -> None:
        keys = ("id", "name", "start", "end", "parent", "problem", "failed")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    result = {}
    for span in spans:
        start, end = span[START], span[END]
        covered = [
            (max(s, start), min(e, end))
            for s, e in children.get(span[ID], ())
            if e > start and s < end
        ]
        result[span[ID]] = (end - start) - _union_length(covered)
    return result


def chain_length(intervals: list[tuple[float, float]]) -> int:
    """Most intervals that form a chain with no two overlapping (earliest-end greedy)."""
    count, last_end = 0, float("-inf")
    for start, end in sorted(intervals, key=lambda iv: iv[1]):
        if start >= last_end:
            count, last_end = count + 1, end
    return count


def layer_metrics(tracer: Tracer, problems: int, workers: int) -> dict[str, float]:
    """Per-layer figures of one traced run, keyed by metric name."""
    spans = tracer.spans
    by_id = {span[ID]: span for span in spans}
    by_name: dict[str, list[tuple]] = {}
    for span in spans:
        by_name.setdefault(span[NAME], []).append(span)
    own = self_times(spans)

    def phase_of(span) -> str:
        while span[PARENT] is not None:
            span = by_id[span[PARENT]]
        return span[NAME]

    def select(name, phase=None, parent=None):
        return [
            s for s in by_name.get(name, ())
            if (phase is None or phase_of(s) == phase)
            and (parent is None or by_id[s[PARENT]][NAME] == parent)
        ]

    def dur(items):
        return sum(s[END] - s[START] for s in items)

    def self_s(items):
        return sum(own[s[ID]] for s in items)

    run = "runner.run_experiment"
    calls = select("gateway.complete_cached")
    completes = select("gateway.complete")
    sends = select("gateway.send")
    call_spans: dict[str, list[tuple[float, float]]] = {}
    for span in calls:
        call_spans.setdefault(span[PROBLEM], []).append((span[START], span[END]))
    critical = statistics.median(chain_length(v) for v in call_spans.values()) if call_spans else 0
    ok_sends = [s[END] - s[START] for s in sends if not s[FAILED]]
    send_latency = statistics.median(ok_sends) if ok_sends else 0.0
    bound = workers / (critical * send_latency) if critical and send_latency else 0.0
    renders = select("prompts.render")
    grading = select("grading")
    return {
        "datasets.load_s": dur(select("datasets.load_dataset", run)),
        "prompts.render_s": dur(renders),
        "prompts.renders": len(renders),
        "gateway.calls": len(calls),
        "gateway.cache_key_s": dur(select("gateway.cache_key", parent="gateway.complete_cached")),
        "gateway.cache_s": self_s(calls),
        "gateway.cache_hit_ratio": (len(calls) - len(completes)) / len(calls) if calls else 0.0,
        "gateway.backend_sends": len(sends),
        "gateway.retries": sum(1 for s in sends if s[FAILED]),
        "gateway.send_s": dur(sends),
        "gateway.wait_s": dur(completes) - dur(sends),
        "extraction.self_s": self_s(select("extraction.extract_answer")),
        "extraction.source_llm": tracer.extraction_sources.count("llm"),
        "extraction.source_rule_fallback": tracer.extraction_sources.count("rule_fallback"),
        "extraction.source_none": tracer.extraction_sources.count("none"),
        "grading.s": dur(grading),
        "grading.calls": len(grading),
        "consistency.aggregate_s": self_s(select("consistency.aggregate")),
        "runner.self_s": self_s(select("runner.run_problem")) + self_s(select(run)),
        "runner.persist_s": dur(select("runner.persist")),
        "runner.load_transcript_s": dur(select("runner.load_transcript", "reporting.recount")),
        "runner.calls_per_problem": len(calls) / problems,
        "runner.critical_path_calls": critical,
        "runner.median_send_ms": send_latency * 1000,
        "runner.bound_problems_per_s": bound,
        "reporting.build_s": dur(select("reporting.build_report")),
        "reporting.write_s": dur(select("reporting.write_report")),
        "reporting.recount_s": self_s(select("reporting.recount")),
    }
