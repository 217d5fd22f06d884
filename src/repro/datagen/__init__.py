"""Workload generators.

Two generators mirror the paper's evaluation data:

* :mod:`repro.datagen.synthetic` — the synthetic setting of Table IV:
  tasks and workers uniformly placed on a square grid, historical accuracy
  drawn from a normal or uniform distribution, a shared capacity ``K`` and a
  shared tolerable error rate.
* :mod:`repro.datagen.foursquare` — a Foursquare-like check-in stream in the
  spirit of Table V (New York / Tokyo): clustered hotspots, chronologically
  ordered check-ins, POI tasks constrained to the convex hull of the
  check-ins.  It substitutes the real dataset, which cannot be shipped; see
  EXPERIMENTS.md ("Modelling decisions") for the substitution rationale.

Every generator is deterministic given a seed.
"""

from repro.datagen.distributions import (
    AccuracyDistribution,
    NormalAccuracy,
    UniformAccuracy,
)
from repro.datagen.synthetic import SyntheticConfig, generate_synthetic_instance
from repro.datagen.foursquare import (
    CheckinCityConfig,
    NEW_YORK,
    TOKYO,
    generate_checkin_instance,
)

__all__ = [
    "AccuracyDistribution",
    "NormalAccuracy",
    "UniformAccuracy",
    "SyntheticConfig",
    "generate_synthetic_instance",
    "CheckinCityConfig",
    "NEW_YORK",
    "TOKYO",
    "generate_checkin_instance",
]
