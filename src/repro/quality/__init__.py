"""Quality substrate: voting, simulated answers and the Hoeffding bound.

The LTC algorithms only reason about ``Acc*`` accumulations, but the whole
point of the threshold ``delta = 2*ln(1/epsilon)`` is that weighted majority
voting over the assigned workers then errs with probability below
``epsilon``.  This package closes that loop: it aggregates (possibly
simulated) worker answers by weighted majority voting (Definition 4),
simulates worker answers from their predicted accuracies, and measures the
empirical error rate so tests and examples can confirm the guarantee.
"""

from repro.quality.voting import VoteOutcome, weighted_majority_vote
from repro.quality.answers import AnswerSimulator, simulate_answers
from repro.quality.hoeffding import (
    hoeffding_error_bound,
    empirical_error_rate,
)

__all__ = [
    "VoteOutcome",
    "weighted_majority_vote",
    "AnswerSimulator",
    "simulate_answers",
    "hoeffding_error_bound",
    "empirical_error_rate",
]
