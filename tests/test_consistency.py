"""Vote aggregation semantics and self-consistency runs through run_problem."""

from decimal import Decimal

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dup.consistency import Vote, VoteSet, aggregate
from dup.exceptions import InvalidInputError
from dup.gateway import Gateway, MockBackend
from dup.grading import NormalizedAnswer
from dup.runner import RunConfig, run_problem

from oracles import oracle_majority


def votes_of(*values):
    return VoteSet(
        tuple(
            Vote(i, None if value is None else NormalizedAnswer.of_number(value))
            for i, value in enumerate(values)
        )
    )


class TestVoteSet:
    def test_indices_must_be_permutation(self):
        with pytest.raises(InvalidInputError):
            VoteSet((Vote(0, None), Vote(0, None)))
        with pytest.raises(InvalidInputError):
            VoteSet((Vote(1, None),))
        assert len(VoteSet((Vote(0, None), Vote(1, None)))) == 2

    def test_iterates_votes(self):
        vote_set = votes_of(1, 2)
        assert [vote.sample_index for vote in vote_set] == [0, 1]


class TestAggregate:
    def test_modal_answer_wins(self):
        assert aggregate(votes_of(12, 13, 12, 12, 13)) == NormalizedAnswer.of_number(12)

    def test_empty_vote_set_rejected(self):
        with pytest.raises(InvalidInputError):
            aggregate(VoteSet(()))

    def test_all_failures_returns_none(self):
        assert aggregate(votes_of(None, None, None)) is None

    def test_failures_never_outvote_answers(self):
        # Three failures vs one real answer: the answer still wins.
        assert aggregate(votes_of(None, 7, None, None)) == NormalizedAnswer.of_number(7)

    def test_tie_breaks_to_first_occurrence(self):
        assert aggregate(votes_of(13, 12, 12, 13)) == NormalizedAnswer.of_number(13)
        assert aggregate(votes_of(12, 13, 13, 12)) == NormalizedAnswer.of_number(12)

    def test_single_vote(self):
        assert aggregate(votes_of(5)) == NormalizedAnswer.of_number(5)

    def test_tolerance_groups_near_equal_numbers(self):
        # 10.0000000001 grades equal to 10, so they form one group of three.
        vote_set = votes_of("10", "10.0000000001", "11", "11", "10")
        assert aggregate(vote_set) == NormalizedAnswer.of_number(10)

    def test_representative_is_first_of_group(self):
        vote_set = votes_of("10.0000000001", "10", "10")
        result = aggregate(vote_set)
        assert result.number == Decimal("10.0000000001")

    @given(
        st.lists(
            st.one_of(st.none(), st.sampled_from([7, 8, 9, 10])), min_size=1, max_size=12
        )
    )
    def test_matches_brute_force_oracle(self, values):
        result = aggregate(votes_of(*values))
        expected = oracle_majority(values)
        if expected is None:
            assert result is None
        else:
            assert result == NormalizedAnswer.of_number(expected)


class TestRunSc:
    def test_preconditions(self):
        config = RunConfig(dataset="d", n_samples=0)
        with pytest.raises(InvalidInputError):
            run_problem(object(), config, object())
        config = RunConfig(dataset="d", n_samples=3, temperature=0.0)
        with pytest.raises(InvalidInputError):
            run_problem(object(), config, object())

    def test_returns_votes_and_majority(self, synthetic_problems):
        problem = synthetic_problems[0]  # gold 18
        script = {
            "by_tag": {
                f"core_question:{problem.id}": "core",
                f"solving_info:{problem.id}": "info",
            }
        }
        for i in range(5):
            value = "18" if i != 2 else "19"
            script["by_tag"][f"answer:{problem.id}#{i}"] = f"The answer is {value}"
            script["by_tag"][f"extraction:{problem.id}#{i}"] = value
        gateway = Gateway(backend=MockBackend(script))
        config = RunConfig(dataset="synth10", temperature=0.7, n_samples=5)
        transcript = run_problem(problem, config, gateway)
        assert len(transcript.vote_set()) == 5
        assert transcript.predicted == NormalizedAnswer.of_number(18)
        # Understanding stages ran once, answer and extraction ran per sample.
        assert gateway.backend.calls == 2 + 5 + 5
