"""Seeded workload generator: dataset, mock script and the expected report.

Every input the measured process sees is written here from the workload
seed, together with the outcome the `dup` pipeline must produce on it. The
outcome mix is fixed per problem by the seed:

* ``correct``: the answer stage ends on the gold value and the extraction
  reply restates it (source ``llm``);
* ``wrong``: the same, with a value off by a small non-zero amount;
* ``fallback``: the extraction reply holds no number, so the rule-based
  matcher reads "The answer is X." from the reasoning (``rule_fallback``);
* ``none``: neither the extraction reply nor the reasoning's last line
  holds a number, so no answer is found (source ``none``).

With self-consistency each problem draws its samples from a vote pattern
that makes them disagree: clear majorities for the gold value or for a
wrong value, ties broken by first occurrence, and samples whose
extraction falls back or fails.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

DATASET_NAME = "bench"
DATASET_FILE = "dataset.jsonl"
SCRIPT_FILE = "script.json"
EXPECTED_FILE = "expected.json"


def calls_per_problem(n_samples: int) -> int:
    """DUP's two understanding stages, then an answer and an extraction per sample."""
    return 2 + 2 * n_samples


_NAMES = ("Ava", "Ben", "Chloe", "Dev", "Elena", "Farid", "Grace", "Hugo", "Iris", "Jonas",
          "Keiko", "Liam", "Maya", "Nikhil", "Olga", "Pablo")
_ITEMS = ("apples", "books", "candles", "pencils", "jars of honey", "boxes of tea",
          "scarves", "plant pots", "notebooks", "loaves of bread", "bags of rice", "puzzles")
_PLACES = ("small shop", "market stall", "school library", "community kitchen", "garden centre",
           "corner bakery", "craft fair booth", "warehouse aisle")
_TOWNS = ("Millbrook", "Ashford", "Kestrel Bay", "Orchard Hill", "Redfern", "Stonebridge")
_FILLER = (
    "We keep track of each quantity separately so that nothing is counted twice",
    "It helps to write the running total after every change to the stock",
    "The question only asks about the items that remain at the end of the day",
    "Items that are damaged are removed from the shelves and do not count",
    "The delivery arrives after the first count has already been taken",
    "We should check that every step uses the numbers given in the problem",
    "Nothing in the story suggests that any items were sold during the day",
    "The order of the events matters because the removal happens last",
    "A quick sanity check is that the result should be a whole number of items",
    "We add the two shelves first and then handle the delivery and the losses",
)
_WORDY_FILLER = (
    "The story describes a count, a delivery and a loss",
    "Reading carefully, the details about the owner and the report do not change the stock",
    "Each shelf is counted once in the morning",
    "The supplier brings extra items later on",
    "Some of the new items cannot be kept",
    "Putting these facts together gives the remaining stock",
)
_NO_ANSWER = "I could not find a final value in that solution."


def _question(rng: random.Random) -> tuple[str, int, tuple[int, int, int, int]]:
    name = rng.choice(_NAMES)
    item = rng.choice(_ITEMS)
    a, b, c = rng.randint(5, 60), rng.randint(5, 60), rng.randint(5, 40)
    d = rng.randint(1, c)
    text = (
        f"{name} runs a {rng.choice(_PLACES)} in {rng.choice(_TOWNS)}. On Monday morning "
        f"{name} counts {a} {item} on the first shelf and {b} {item} on the second shelf. "
        f"Later a supplier delivers {c} more {item}, but {d} of them arrive damaged and are "
        f"thrown away. The owner wants a short report before Friday so the weekly order can "
        f"be planned. How many {item} are left at the end of the day?"
    )
    return text, a + b + c - d, (a, b, c, d)


def _reasoning(rng: random.Random, parts: tuple[int, int, int, int], final: int | None) -> str:
    """An answer-stage reply of 100-250 words ending on `final` (None: no number)."""
    target = rng.randint(100, 250)
    a, b, c, d = parts
    if final is None:
        steps = list(_WORDY_FILLER)
        closing = "The final amount cannot be stated with the information I have."
    else:
        steps = [
            f"First the two shelves hold {a} + {b} = {a + b} items.",
            f"Then the delivery adds {c}, giving {a + b} + {c} = {a + b + c}.",
            f"Removing the {d} damaged ones leaves {a + b + c} - {d}.",
        ]
        closing = f"The answer is {final}."
    lines = ["Let's work through the problem step by step."]
    words = len(lines[0].split()) + len(closing.split())
    for step in steps:
        lines.append(step)
        words += len(step.split())
    while words < target:
        sentence = rng.choice(_FILLER) + "."
        lines.insert(rng.randint(1, len(lines)), sentence)
        words += len(sentence.split())
    lines.append(closing)
    return "\n".join(lines)


def _sample(rng: random.Random, parts, outcome: str, value: int | None):
    """(reasoning, extraction reply, expected answer or None, expected source)."""
    if outcome == "none":
        return _reasoning(rng, parts, None), _NO_ANSWER, None, "none"
    reasoning = _reasoning(rng, parts, value)
    if outcome == "fallback":
        return reasoning, _NO_ANSWER, value, "rule_fallback"
    reply = str(value) if rng.random() < 0.5 else f"The final answer is {value}."
    return reasoning, reply, value, "llm"


def _wrong(rng: random.Random, gold: int, avoid: set[int]) -> int:
    while True:
        value = gold + rng.choice((-1, 1)) * rng.randint(1, 9)
        if value not in avoid and value != gold:
            return value


# Offline outcome mix: (outcome, weight).
_SINGLE_MIX = (("correct", 60), ("wrong", 20), ("fallback", 15), ("none", 5))


def _sample_plan(rng: random.Random, gold: int, n_samples: int) -> list[tuple[str, int | None]]:
    """Per-sample (outcome, value) for one problem."""
    if n_samples == 1:
        outcome = rng.choices([o for o, _ in _SINGLE_MIX], [w for _, w in _SINGLE_MIX])[0]
        if outcome == "correct":
            return [("llm", gold)]
        if outcome == "wrong":
            return [("llm", _wrong(rng, gold, set()))]
        if outcome == "fallback":
            value = gold if rng.random() < 0.7 else _wrong(rng, gold, set())
            return [("fallback", value)]
        return [("none", None)]
    w1 = _wrong(rng, gold, set())
    w2 = _wrong(rng, gold, {w1})
    patterns = (
        [gold] * n_samples,  # unanimous
        [gold, w1, gold, w2, gold],  # gold majority
        [w1, gold, w1, w1, w2],  # wrong majority
        [w1, gold, gold, w1, None],  # tie, wrong value seen first
        [gold, w1, None, w1, gold],  # tie, gold seen first
        [None, gold, w1, None, gold],  # gold plurality among failures
        [None] * n_samples,  # every extraction fails
    )
    values = list(rng.choice(patterns))[:n_samples]
    values += [gold] * (n_samples - len(values))
    plan = []
    for value in values:
        if value is None:
            plan.append(("none", None))
        else:
            plan.append(("fallback" if rng.random() < 0.2 else "llm", value))
    return plan


def _vote(answers: list[int | None], sources: list[str]) -> tuple[int | None, str]:
    """Majority vote with first-occurrence tie-break, as the pipeline defines it."""
    counts: dict[int, int] = {}
    for answer in answers:
        if answer is not None:
            counts[answer] = counts.get(answer, 0) + 1
    if not counts:
        return None, "none"
    best = max(counts.values())
    winner = next(a for a in answers if a is not None and counts[a] == best)
    return winner, sources[answers.index(winner)]


def generate(out_dir: str | Path, seed: int, n_problems: int, n_samples: int = 1) -> dict:
    """Write dataset, mock script and expected report; return the expected report."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"dup-bench:{seed}:{n_problems}:{n_samples}")
    by_tag: dict[str, str] = {}
    records = []
    per_problem = {}
    for index in range(1, n_problems + 1):
        pid = f"{DATASET_NAME}-{index:05d}"
        question, gold, parts = _question(rng)
        records.append({"question": question, "answer": f"Add and subtract in order.\n#### {gold}"})
        item = question.rsplit("How many ", 1)[1].split(" are left")[0]
        by_tag[f"core_question:{pid}"] = f"How many {item} are left at the end of the day?"
        by_tag[f"solving_info:{pid}"] = (
            f"1. The first shelf holds {parts[0]} {item}.\n"
            f"2. The second shelf holds {parts[1]} {item}.\n"
            f"3. A supplier delivers {parts[2]} more.\n"
            f"4. {parts[3]} of the delivered {item} are damaged and thrown away."
        )
        answers, sources = [], []
        for i, (outcome, value) in enumerate(_sample_plan(rng, gold, n_samples)):
            reasoning, reply, answer, source = _sample(rng, parts, outcome, value)
            suffix = f"#{i}" if n_samples > 1 else ""
            by_tag[f"answer:{pid}{suffix}"] = reasoning
            by_tag[f"extraction:{pid}{suffix}"] = reply
            answers.append(answer)
            sources.append(source)
        predicted, source = _vote(answers, sources)
        per_problem[pid] = {
            "predicted": None if predicted is None else str(predicted),
            "correct": predicted == gold,
            "extraction_source": source,
        }
    dataset = out_dir / DATASET_FILE
    dataset.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    (out_dir / SCRIPT_FILE).write_text(json.dumps({"by_tag": by_tag}), encoding="utf-8")
    source_counts: dict[str, int] = {"llm": 0, "rule_fallback": 0, "none": 0}
    for row in per_problem.values():
        source_counts[row["extraction_source"]] += 1
    expected = {
        "total": n_problems,
        "correct": sum(row["correct"] for row in per_problem.values()),
        "extraction_sources": source_counts,
        "calls_per_problem": calls_per_problem(n_samples),
        "calls": n_problems * calls_per_problem(n_samples),
        "per_problem": per_problem,
    }
    (out_dir / EXPECTED_FILE).write_text(json.dumps(expected), encoding="utf-8")
    return expected
