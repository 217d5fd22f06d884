"""Synthetic workload generator (Table IV).

The paper's synthetic data places tasks and workers uniformly at random on a
1000 x 1000 grid (each cell a 10 m x 10 m square), draws historical
accuracies from a normal or uniform distribution, fixes the capacity ``K``
and tolerable error rate ``epsilon``, and uses ``d_max = 30`` grid units in
the accuracy function.

The generator reproduces that setting with two practical additions:

* a configurable ``grid_size`` so scaled-down instances (which pure Python
  needs for the larger sweeps) keep the same *worker density per eligibility
  disk* as the paper;
* optional feasibility-aware task placement: task locations are
  rejection-sampled until at least ``min_eligible_workers`` workers can
  perform them, mirroring the paper's assumption that every task can reach
  the tolerable error rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core.accuracy import SigmoidDistanceAccuracy
from repro.core.instance import LTCInstance
from repro.core.quality_threshold import quality_threshold
from repro.core.task import Task
from repro.core.worker import Worker
from repro.datagen.distributions import AccuracyDistribution, NormalAccuracy
from repro.datagen.eligibility import EligibleWorkerCounter
from repro.datagen.rng import generator_for
from repro.geo.bbox import BoundingBox
from repro.geo.point import Point


@dataclass
class SyntheticConfig:
    """Parameters of a synthetic LTC instance (Table IV).

    The paper's defaults are ``num_tasks=3000``, ``num_workers=40000``,
    ``capacity=6``, ``error_rate=0.14``, normal accuracy with mean 0.86 and
    ``grid_size=1000``; those remain the defaults here.  Scaled-down
    experiment configurations override the cardinalities and the grid size
    together (see ``repro.experiments.configs``).
    """

    num_tasks: int = 3000
    num_workers: int = 40000
    capacity: int = 6
    error_rate: float = 0.14
    accuracy_distribution: AccuracyDistribution = field(default_factory=NormalAccuracy)
    grid_size: float = 1000.0
    d_max: float = 30.0
    seed: int = 0
    #: Minimum number of eligible workers a task location must have; ``None``
    #: derives a value from delta assuming mid-range Acc* contributions.
    min_eligible_workers: Optional[int] = None
    #: How many candidate locations to try per task before giving up and
    #: accepting the best one found (at least 1).
    max_placement_attempts: int = 60
    name: str = "synthetic"

    def __post_init__(self) -> None:
        if self.num_tasks < 1 or self.num_workers < 1:
            raise ValueError("num_tasks and num_workers must be >= 1")
        if self.capacity < 1:
            raise ValueError("capacity must be >= 1")
        if not 0.0 < self.error_rate < 1.0:
            raise ValueError("error_rate must be in (0, 1)")
        if self.grid_size <= 0 or self.d_max <= 0:
            raise ValueError("grid_size and d_max must be positive")
        if self.max_placement_attempts < 1:
            raise ValueError("max_placement_attempts must be >= 1")

    @property
    def delta(self) -> float:
        """The quality threshold implied by the error rate."""
        return quality_threshold(self.error_rate)

    def resolved_min_eligible_workers(self) -> int:
        """The feasibility floor on eligible workers per task.

        Assuming nearby workers contribute around ``Acc* ~ 0.4`` each and can
        spread their capacity over several tasks, requiring
        ``ceil(delta / 0.3)`` eligible workers per task gives a comfortable
        margin without distorting the uniform placement at paper scale
        (where ~100 workers are eligible per task on average).
        """
        if self.min_eligible_workers is not None:
            return self.min_eligible_workers
        return int(math.ceil(self.delta / 0.3))


def generate_synthetic_instance(config: SyntheticConfig) -> LTCInstance:
    """Generate a synthetic LTC instance according to ``config``."""
    worker_rng = generator_for(config.seed, config.name, "workers")
    task_rng = generator_for(config.seed, config.name, "tasks")
    answer_rng = generator_for(config.seed, config.name, "answers")

    bounds = BoundingBox.square(config.grid_size)
    workers = _generate_workers(config, worker_rng, bounds)
    model = SigmoidDistanceAccuracy(d_max=config.d_max)
    counter = EligibleWorkerCounter(workers, model)
    tasks = _generate_tasks(config, task_rng, answer_rng, bounds, counter)

    return LTCInstance(
        tasks=tasks,
        workers=workers,
        error_rate=config.error_rate,
        accuracy_model=model,
        name=config.name,
    )


def _generate_workers(
    config: SyntheticConfig, rng: np.random.Generator, bounds: BoundingBox
) -> List[Worker]:
    xs = rng.uniform(bounds.min_x, bounds.max_x, size=config.num_workers)
    ys = rng.uniform(bounds.min_y, bounds.max_y, size=config.num_workers)
    accuracies = config.accuracy_distribution.sample(rng, config.num_workers)
    workers = [
        Worker(
            index=i + 1,
            location=Point(float(xs[i]), float(ys[i])),
            accuracy=float(accuracies[i]),
            capacity=config.capacity,
            arrival_time=float(i),
        )
        for i in range(config.num_workers)
    ]
    return workers


def _generate_tasks(
    config: SyntheticConfig,
    rng: np.random.Generator,
    answer_rng: np.random.Generator,
    bounds: BoundingBox,
    counter: EligibleWorkerCounter,
) -> List[Task]:
    minimum = config.resolved_min_eligible_workers()
    tasks: List[Task] = []
    for task_id in range(config.num_tasks):
        # max_placement_attempts >= 1 and every count beats -1, so the first
        # attempt always replaces this placeholder.
        best_location = Point(0.0, 0.0)
        best_count = -1
        for _ in range(config.max_placement_attempts):
            candidate = Point(
                float(rng.uniform(bounds.min_x, bounds.max_x)),
                float(rng.uniform(bounds.min_y, bounds.max_y)),
            )
            count = counter.count(candidate)
            if count > best_count:
                best_count = count
                best_location = candidate
            if count >= minimum:
                break
        true_answer = 1 if answer_rng.random() < 0.5 else -1
        tasks.append(
            Task(
                task_id=task_id,
                location=best_location,
                true_answer=true_answer,
                metadata={"eligible_workers_at_generation": best_count},
            )
        )
    return tasks
