"""Qualitative expectations extracted from the paper's evaluation.

The paper's figures are plots without exact numbers, so the reproduction
target is the *shape* of each panel: which algorithm wins, how the metric
moves along the sweep, and the coarse ordering between algorithm families.
Each :class:`PanelExpectation` captures those claims for one experiment and
offers a ``check`` method that the ``figures`` benchmark suite, the
``repro-experiments --check`` CLI and the integration tests use to compare a
measured :class:`ResultTable` against the paper.  ``paired_outcomes`` adds
the instance-by-instance view of the same latency claims.

The expectations intentionally allow slack (e.g. "AAM is never worse than
Random by more than 5%") because individual repetitions of a randomised
workload can cross lines that are close together in the paper as well.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.simulation.results import ResultTable


@dataclass(frozen=True)
class PanelExpectation:
    """Qualitative claims of one figure column.

    Attributes
    ----------
    experiment_id:
        The experiment the claims apply to.
    latency_better:
        Pairs ``(a, b)`` meaning "averaged over the sweep, algorithm ``a``
        achieves latency <= algorithm ``b`` (within ``tolerance``)".
    latency_trend:
        ``"decreasing"`` / ``"increasing"`` / ``None`` — how the latency of
        the proposed algorithms moves as the sweep value grows.
    runtime_slowest:
        Algorithm expected to have the largest mean runtime (MCF-LTC in every
        panel of the paper).
    tolerance:
        Multiplicative slack applied to the latency comparisons.
    """

    experiment_id: str
    latency_better: Sequence[Tuple[str, str]] = field(default_factory=list)
    latency_trend: Optional[str] = None
    trend_algorithms: Sequence[str] = ("AAM", "LAF")
    runtime_slowest: Optional[str] = "MCF-LTC"
    tolerance: float = 1.05

    # ------------------------------------------------------------------ checks

    def check(self, table: ResultTable) -> List[str]:
        """Return a list of violated claims (empty = matches the paper)."""
        problems: List[str] = []
        problems.extend(self._check_pairs(table))
        problems.extend(self._check_trend(table))
        problems.extend(self._check_runtime(table))
        return problems

    def paired_outcomes(self, table: ResultTable) -> Dict[str, Dict[str, int]]:
        """Wins, ties and losses of ``a`` against ``b`` per ``latency_better`` pair.

        The runner solves every algorithm on the same instance of each
        (sweep value, repetition), so the two latencies of an instance pair
        up.  A win means ``a``'s latency is strictly lower.  Keys read
        ``"a vs b"``; pairs with an algorithm missing from the table are
        left out, as in :meth:`check`.
        """
        latencies: Dict[Tuple[float, int], Dict[str, float]] = {}
        for record in table.records:
            instance = (record.sweep_value, record.repetition)
            latencies.setdefault(instance, {})[record.algorithm] = record.max_latency
        present = set(table.algorithms())
        outcomes: Dict[str, Dict[str, int]] = {}
        for better, worse in self.latency_better:
            if better not in present or worse not in present:
                continue
            counts = {"wins": 0, "ties": 0, "losses": 0}
            for by_algorithm in latencies.values():
                if better not in by_algorithm or worse not in by_algorithm:
                    continue
                ours, theirs = by_algorithm[better], by_algorithm[worse]
                if ours < theirs:
                    counts["wins"] += 1
                elif ours == theirs:
                    counts["ties"] += 1
                else:
                    counts["losses"] += 1
            outcomes[f"{better} vs {worse}"] = counts
        return outcomes

    def _mean_over_sweep(self, table: ResultTable, metric: str) -> Dict[str, float]:
        series = table.mean_series(metric)
        return {
            algorithm: sum(value for _, value in points) / len(points)
            for algorithm, points in series.items()
            if points
        }

    def _check_pairs(self, table: ResultTable) -> List[str]:
        means = self._mean_over_sweep(table, "max_latency")
        problems = []
        for better, worse in self.latency_better:
            if better not in means or worse not in means:
                continue
            if means[better] > means[worse] * self.tolerance:
                problems.append(
                    f"{better} (mean latency {means[better]:.1f}) should not exceed "
                    f"{worse} ({means[worse]:.1f}) by more than "
                    f"{(self.tolerance - 1) * 100:.0f}%"
                )
        return problems

    def _check_trend(self, table: ResultTable) -> List[str]:
        if self.latency_trend is None:
            return []
        problems = []
        series = table.mean_series("max_latency")
        for algorithm in self.trend_algorithms:
            points = series.get(algorithm)
            if not points or len(points) < 2:
                continue
            first = points[0][1]
            last = points[-1][1]
            if self.latency_trend == "decreasing" and last > first * self.tolerance:
                problems.append(
                    f"{algorithm}: latency should decrease over the sweep "
                    f"({first:.1f} -> {last:.1f})"
                )
            if self.latency_trend == "increasing" and last * self.tolerance < first:
                problems.append(
                    f"{algorithm}: latency should increase over the sweep "
                    f"({first:.1f} -> {last:.1f})"
                )
        return problems

    def _check_runtime(self, table: ResultTable) -> List[str]:
        if self.runtime_slowest is None:
            return []
        means = self._mean_over_sweep(table, "runtime_seconds")
        if self.runtime_slowest not in means or len(means) < 2:
            return []
        slowest = max(means, key=lambda name: means[name])
        if slowest != self.runtime_slowest:
            return [
                f"expected {self.runtime_slowest} to be the slowest algorithm, "
                f"measured slowest is {slowest}"
            ]
        return []


#: The paper's claims, figure column by figure column.  Common threads: the
#: proposed online algorithms beat Random, AAM is the best online algorithm,
#: MCF-LTC beats Base-off, and MCF-LTC is by far the most expensive to run.
_COMMON_PAIRS: Tuple[Tuple[str, str], ...] = (
    ("AAM", "Random"),
    ("LAF", "Random"),
    ("AAM", "LAF"),
    ("MCF-LTC", "Base-off"),
)

PAPER_EXPECTATIONS: Dict[str, PanelExpectation] = {
    "fig3_tasks": PanelExpectation(
        experiment_id="fig3_tasks",
        latency_better=_COMMON_PAIRS,
        latency_trend="increasing",
    ),
    "fig3_capacity": PanelExpectation(
        experiment_id="fig3_capacity",
        latency_better=_COMMON_PAIRS,
        latency_trend="decreasing",
    ),
    "fig3_accuracy_normal": PanelExpectation(
        experiment_id="fig3_accuracy_normal",
        latency_better=_COMMON_PAIRS,
        latency_trend="decreasing",
    ),
    "fig3_accuracy_uniform": PanelExpectation(
        experiment_id="fig3_accuracy_uniform",
        latency_better=_COMMON_PAIRS,
        latency_trend="decreasing",
    ),
    "fig4_epsilon": PanelExpectation(
        experiment_id="fig4_epsilon",
        latency_better=_COMMON_PAIRS,
        latency_trend="decreasing",
    ),
    "fig4_scalability": PanelExpectation(
        experiment_id="fig4_scalability",
        latency_better=_COMMON_PAIRS,
        latency_trend="increasing",
    ),
    "fig4_newyork": PanelExpectation(
        experiment_id="fig4_newyork",
        latency_better=_COMMON_PAIRS,
        latency_trend="decreasing",
    ),
    "fig4_tokyo": PanelExpectation(
        experiment_id="fig4_tokyo",
        latency_better=_COMMON_PAIRS,
        latency_trend="decreasing",
    ),
    "ablation_batch_size": PanelExpectation(
        experiment_id="ablation_batch_size",
        latency_better=(),
        latency_trend=None,
        runtime_slowest=None,
    ),
    # The ablations are additions of this reproduction (the paper only
    # discusses these effects in prose), so the only expectation recorded is
    # that the hybrid never loses to plain LAF.
    "ablation_aam_switch": PanelExpectation(
        experiment_id="ablation_aam_switch",
        latency_better=(("AAM", "LAF"),),
        latency_trend=None,
        trend_algorithms=("AAM",),
        runtime_slowest=None,
    ),
}
