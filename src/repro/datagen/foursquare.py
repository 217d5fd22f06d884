"""Foursquare-like check-in stream generator (Table V substitution).

The paper's real-data experiments replay Foursquare check-ins from New York
(|T| = 3717 POI tasks, |W| = 227 428 check-ins) and Tokyo (|T| = 9317,
|W| = 573 703), ordering workers chronologically by check-in time and drawing
historical accuracies from Normal(0.86, 0.05).  The raw dataset cannot be
shipped with this library, so this module generates a statistically similar
stream:

* a set of Gaussian **hotspots** stands in for the city's dense check-in
  areas (popularity follows a Zipf-like law, as observed for POI check-ins);
* each check-in picks a hotspot by popularity and a location around it;
* check-in times are drawn uniformly over the observation window and the
  stream is sorted chronologically, which is how the paper derives worker
  arrival order;
* POI tasks are placed near hotspots, restricted to the convex hull of the
  check-ins (the paper's construction), and rejection-sampled so that each
  task has enough eligible workers to be completable.

City presets :data:`NEW_YORK` and :data:`TOKYO` reproduce Table V's
cardinalities at a configurable ``scale`` (``scale=1.0`` gives the paper's
sizes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import List, Optional

import numpy as np

from repro.core.accuracy import SigmoidDistanceAccuracy
from repro.core.instance import LTCInstance
from repro.core.task import Task
from repro.core.worker import Worker
from repro.datagen.distributions import AccuracyDistribution, NormalAccuracy
from repro.datagen.eligibility import EligibleWorkerCounter
from repro.datagen.rng import generator_for
from repro.geo.bbox import BoundingBox
from repro.geo.hull import convex_hull, point_in_convex_polygon
from repro.geo.point import Point


@dataclass
class CheckinCityConfig:
    """Parameters of a Foursquare-like city check-in stream."""

    city: str
    num_tasks: int
    num_workers: int
    capacity: int = 6
    error_rate: float = 0.14
    accuracy_distribution: AccuracyDistribution = field(default_factory=NormalAccuracy)
    #: Side length of the square region covering the city, in grid units
    #: (10 m each, as in the synthetic setting).
    region_size: float = 3000.0
    d_max: float = 30.0
    #: Number of dense check-in neighbourhoods.  ``0`` (the default) derives
    #: it from the task count so that each neighbourhood holds roughly twice
    #: a worker's capacity in POI tasks — the regime in which both the long
    #: completion tails and the contention between open tasks (what separates
    #: the algorithms) survive scaling.
    num_hotspots: int = 0
    #: Standard deviation of check-in scatter around a hotspot, grid units.
    hotspot_spread: float = 40.0
    #: Zipf-like exponent of hotspot (neighbourhood) popularity.  Check-in
    #: activity across city neighbourhoods is heavily skewed — a downtown
    #: core absorbs most check-ins while outer neighbourhoods see a trickle —
    #: and that skew is what produces the paper's long completion tails on
    #: the real data, so the default is deliberately steep.
    popularity_exponent: float = 2.0
    #: POI tasks scatter around hotspot centres more tightly than check-ins
    #: (POIs line the core streets of a neighbourhood; people check in from a
    #: wider area around them).  The task scatter is
    #: ``hotspot_spread * poi_spread_factor``.
    poi_spread_factor: float = 0.4
    #: Length of the simulated observation window, seconds.
    observation_window: float = 180 * 24 * 3600.0
    seed: int = 0
    max_placement_attempts: int = 80
    min_eligible_workers: Optional[int] = None

    def __post_init__(self) -> None:
        if self.num_tasks < 1 or self.num_workers < 1:
            raise ValueError("num_tasks and num_workers must be >= 1")
        if self.num_hotspots < 0:
            raise ValueError("num_hotspots must be >= 0 (0 = derive from tasks)")
        if not 0.0 < self.error_rate < 1.0:
            raise ValueError("error_rate must be in (0, 1)")
        if self.region_size <= 0 or self.d_max <= 0 or self.hotspot_spread <= 0:
            raise ValueError("region_size, d_max and hotspot_spread must be positive")

    def resolved_num_hotspots(self) -> int:
        """The hotspot count, deriving the default from the task count."""
        if self.num_hotspots > 0:
            return self.num_hotspots
        return max(3, self.num_tasks // (2 * self.capacity))

    def scaled(self, scale: float) -> "CheckinCityConfig":
        """A copy with task/worker counts (and area) scaled down.

        Worker *density* is preserved by shrinking the region's side length
        with the square root of the scale, so the latency behaviour of the
        algorithms is comparable to the full-size city.
        """
        if not 0 < scale <= 1:
            raise ValueError("scale must be in (0, 1]")
        side_factor = math.sqrt(scale)
        return replace(
            self,
            num_tasks=max(1, int(self.num_tasks * scale)),
            num_workers=max(1, int(self.num_workers * scale)),
            region_size=self.region_size * side_factor,
            # Leave num_hotspots at its configured value; the default (0)
            # re-derives it from the scaled task count, preserving the number
            # of POI tasks per neighbourhood.
        )


#: Table V, New York: 3717 tasks, 227 428 check-ins.
NEW_YORK = CheckinCityConfig(
    city="New York", num_tasks=3717, num_workers=227428, region_size=3500.0,
    seed=11,
)

#: Table V, Tokyo: 9317 tasks, 573 703 check-ins.
TOKYO = CheckinCityConfig(
    city="Tokyo", num_tasks=9317, num_workers=573703, region_size=4500.0,
    seed=13,
)


def generate_checkin_instance(config: CheckinCityConfig) -> LTCInstance:
    """Generate a Foursquare-like LTC instance for ``config``."""
    hotspot_rng = generator_for(config.seed, config.city, "hotspots")
    checkin_rng = generator_for(config.seed, config.city, "checkins")
    task_rng = generator_for(config.seed, config.city, "tasks")

    bounds = BoundingBox.square(config.region_size)
    hotspots, popularity = _generate_hotspots(config, hotspot_rng, bounds)
    workers = _generate_checkins(config, checkin_rng, bounds, hotspots, popularity)
    tasks = _generate_pois(config, task_rng, bounds, hotspots, popularity, workers)

    return LTCInstance(
        tasks=tasks,
        workers=workers,
        error_rate=config.error_rate,
        accuracy_model=SigmoidDistanceAccuracy(d_max=config.d_max),
        name=f"checkins-{config.city.lower().replace(' ', '-')}",
    )


def _generate_hotspots(
    config: CheckinCityConfig, rng: np.random.Generator, bounds: BoundingBox
) -> tuple[List[Point], np.ndarray]:
    count = config.resolved_num_hotspots()
    margin = config.region_size * 0.1
    xs = rng.uniform(bounds.min_x + margin, bounds.max_x - margin, count)
    ys = rng.uniform(bounds.min_y + margin, bounds.max_y - margin, count)
    hotspots = [Point(float(x), float(y)) for x, y in zip(xs, ys)]
    ranks = np.arange(1, count + 1, dtype=float)
    weights = ranks ** (-config.popularity_exponent)
    popularity = weights / weights.sum()
    return hotspots, popularity


def _generate_checkins(
    config: CheckinCityConfig,
    rng: np.random.Generator,
    bounds: BoundingBox,
    hotspots: List[Point],
    popularity: np.ndarray,
) -> List[Worker]:
    count = config.num_workers
    hotspot_choice = rng.choice(len(hotspots), size=count, p=popularity)
    offsets_x = rng.normal(0.0, config.hotspot_spread, size=count)
    offsets_y = rng.normal(0.0, config.hotspot_spread, size=count)
    accuracies = config.accuracy_distribution.sample(rng, count)
    times = np.sort(rng.uniform(0.0, config.observation_window, size=count))

    workers: List[Worker] = []
    for i in range(count):
        hotspot = hotspots[int(hotspot_choice[i])]
        location = bounds.clamp(
            Point(hotspot.x + float(offsets_x[i]), hotspot.y + float(offsets_y[i]))
        )
        workers.append(
            Worker(
                index=i + 1,
                location=location,
                accuracy=float(accuracies[i]),
                capacity=config.capacity,
                arrival_time=float(times[i]),
                metadata={"hotspot": int(hotspot_choice[i])},
            )
        )
    return workers


def _generate_pois(
    config: CheckinCityConfig,
    rng: np.random.Generator,
    bounds: BoundingBox,
    hotspots: List[Point],
    popularity: np.ndarray,
    workers: List[Worker],
) -> List[Task]:
    hull = convex_hull([worker.location for worker in workers])
    counter = EligibleWorkerCounter(
        workers, SigmoidDistanceAccuracy(d_max=config.d_max)
    )

    minimum = config.min_eligible_workers
    if minimum is None:
        minimum = int(math.ceil(2.0 * math.log(1.0 / config.error_rate) / 0.3))

    tasks: List[Task] = []
    for task_id in range(config.num_tasks):
        best_location: Optional[Point] = None
        best_count = -1
        for _ in range(config.max_placement_attempts):
            # POIs are spread across all neighbourhoods (uniform over
            # hotspots) while check-ins concentrate in the popular ones; the
            # resulting worker-starved neighbourhoods are what drives the
            # long completion tails seen in the paper's real-data plots.
            hotspot = hotspots[int(rng.integers(len(hotspots)))]
            poi_spread = config.hotspot_spread * config.poi_spread_factor
            candidate = bounds.clamp(
                Point(
                    hotspot.x + float(rng.normal(0.0, poi_spread)),
                    hotspot.y + float(rng.normal(0.0, poi_spread)),
                )
            )
            if len(hull) >= 3 and not point_in_convex_polygon(candidate, hull):
                continue
            count = counter.count(candidate)
            if count > best_count:
                best_count = count
                best_location = candidate
            if count >= minimum:
                break
        if best_location is None:
            # Extremely unlikely: every attempt fell outside the hull.  Place
            # the task at the most popular hotspot, which is certainly inside.
            best_location = hotspots[0]
            best_count = counter.count(best_location)
        tasks.append(
            Task(
                task_id=task_id,
                location=best_location,
                true_answer=1 if rng.random() < 0.5 else -1,
                metadata={
                    "city": config.city,
                    "eligible_workers_at_generation": best_count,
                },
            )
        )
    return tasks

