"""Hoeffding-bound utilities and empirical error measurement.

The quality threshold in the paper comes from Hoeffding's inequality: with
weights ``2*Acc - 1`` the probability that the weighted majority vote is
wrong is at most ``exp(-sum Acc* / 2)``.  These helpers evaluate the bound
and measure the empirical error rate of a solved arrangement by Monte-Carlo
simulation; the inverse direction, the ``Acc*`` total a tolerable error rate
needs, is :func:`repro.core.quality_threshold.quality_threshold`.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from repro.core.arrangement import Arrangement
from repro.core.instance import LTCInstance
from repro.quality.answers import simulate_answers
from repro.quality.voting import weighted_majority_vote


def hoeffding_error_bound(acc_star_values: Iterable[float]) -> float:
    """Upper bound on the voting error given the assigned ``Acc*`` values.

    ``P(error) <= exp(- sum(Acc*) / 2)``.
    """
    total = 0.0
    for value in acc_star_values:
        if value < 0:
            raise ValueError("Acc* values cannot be negative")
        total += value
    return math.exp(-total / 2.0)


def empirical_error_rate(
    instance: LTCInstance,
    arrangement: Arrangement,
    trials: int = 200,
    seed: int = 0,
) -> float:
    """Monte-Carlo estimate of the per-task voting error of an arrangement.

    Repeatedly simulates worker answers, aggregates them with weighted
    majority voting and counts how often a task's decision disagrees with its
    ground truth.  The returned rate is averaged over tasks and trials and
    should sit below the instance's tolerable error rate whenever the
    arrangement completes every task.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    rng = np.random.default_rng(seed)
    errors = 0
    total = 0
    for _ in range(trials):
        answers = simulate_answers(instance, arrangement, rng)
        for task in instance.tasks:
            votes = answers[task.task_id]
            if not votes:
                continue
            outcome = weighted_majority_vote(
                [vote for _, vote, _ in votes],
                [accuracy for _, _, accuracy in votes],
            )
            total += 1
            if outcome.decision != task.true_answer:
                errors += 1
    if total == 0:
        return 0.0
    return errors / total
