"""Self-consistency decoding: sample N reasoning paths, majority-vote the answer."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .exceptions import InvalidInputError
from .grading import NormalizedAnswer, grade


@dataclass(frozen=True)
class Vote:
    """One sampled reasoning path's extracted answer (None = extraction failed)."""

    sample_index: int
    answer: NormalizedAnswer | None


def aggregate(votes: Sequence[Vote]) -> NormalizedAnswer | None:
    """Pick the modal answer; ties break to the earliest first occurrence.

    `votes` are in generation order, and their sample indices must be a
    permutation of 0..N-1 (InvalidInputError otherwise).

    Failed extractions are excluded from counting (a failure is absence of
    an answer, not an answer). Answer equality follows grading semantics,
    including the numeric tolerance, so counting groups votes rather than
    hashing them. Returns None when every vote failed.
    """
    if len(votes) == 0:
        raise InvalidInputError("cannot aggregate an empty vote set")
    indices = [vote.sample_index for vote in votes]
    if sorted(indices) != list(range(len(indices))):
        raise InvalidInputError(f"sample indices must be a permutation of 0..N-1, got {indices}")
    # Groups in first-occurrence order: (representative, count).
    groups: list[tuple[NormalizedAnswer, int]] = []
    for vote in votes:
        if vote.answer is None:
            continue
        for i, (representative, count) in enumerate(groups):
            if grade(vote.answer, representative):
                groups[i] = (representative, count + 1)
                break
        else:
            groups.append((vote.answer, 1))
    if not groups:
        return None
    best = max(range(len(groups)), key=lambda i: groups[i][1])
    # max() already keeps the earliest index on ties, which is exactly the
    # first-occurrence rule because groups are created in encounter order.
    return groups[best][0]
