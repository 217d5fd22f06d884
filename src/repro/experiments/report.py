"""Textual rendering of experiment results.

The paper presents its evaluation as line plots; this module prints the same
series as aligned text tables (one per metric, algorithms as rows, sweep
values as columns), together with the paper's claims for the panel and
their measured verdicts.  ``repro-experiments`` renders a fresh
:class:`~repro.simulation.results.ResultTable` through it, and
``scripts/build_experiments_md.py`` renders the mean series the ``figures``
benchmark suite stored in ``BENCH_all.json``: both end in
:func:`render_mean_series` and :func:`render_claims`, so EXPERIMENTS.md shows
exactly what the CLI prints.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

from repro.experiments.paper_reference import PanelExpectation
from repro.simulation.results import FIGURE_METRICS, ResultTable

#: ``algorithm -> [(sweep value, mean), ...]``, as
#: :meth:`ResultTable.mean_series` returns it (lists instead of tuples after
#: a JSON round trip are fine).
MeanSeries = Mapping[str, Sequence[Tuple[float, float]]]

#: Display units per metric.
_METRIC_LABELS = {
    "max_latency": "Max index of worker (latency)",
    "runtime_seconds": "Running time (seconds)",
    "peak_memory_mb": "Peak memory (MB)",
}


def _format_value(metric: str, value: float) -> str:
    if metric == "max_latency":
        return f"{value:,.0f}"
    if metric == "runtime_seconds":
        return f"{value:.3f}"
    if metric == "peak_memory_mb":
        return f"{value:.2f}"
    return f"{value:.3f}"


def render_mean_series(experiment_id: str, sweep_parameter: str, metric: str,
                       series: MeanSeries) -> str:
    """Render one metric's mean series as an aligned text table."""
    sweep_values = sorted({value for points in series.values() for value, _ in points})
    header_cells = [f"{sweep_parameter}"] + [f"{value:g}" for value in sweep_values]
    rows: List[List[str]] = [header_cells]
    for algorithm, points in series.items():
        by_value = dict(points)
        cells = [algorithm]
        for value in sweep_values:
            if value in by_value:
                cells.append(_format_value(metric, by_value[value]))
            else:
                cells.append("-")
        rows.append(cells)

    widths = [max(len(row[i]) for row in rows) for i in range(len(header_cells))]
    lines = [f"{_METRIC_LABELS.get(metric, metric)} — {experiment_id}"]
    for row_index, row in enumerate(rows):
        line = "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
        lines.append(line)
        if row_index == 0:
            lines.append("  ".join("-" * widths[i] for i in range(len(widths))))
    return "\n".join(lines)


def render_panels(experiment_id: str, sweep_parameter: str,
                  panels: Mapping[str, MeanSeries]) -> str:
    """Render ``metric -> mean series`` blocks, in the mapping's order."""
    return "\n\n".join(
        render_mean_series(experiment_id, sweep_parameter, metric, series)
        for metric, series in panels.items()
    )


def render_series(table: ResultTable, metric: str) -> str:
    """Render one metric of a result table as an aligned text table."""
    return render_mean_series(table.experiment_id, table.sweep_parameter,
                              metric, table.mean_series(metric))


def render_table(table: ResultTable, metrics: Sequence[str] = FIGURE_METRICS) -> str:
    """Render all requested metrics of a result table."""
    return render_panels(table.experiment_id, table.sweep_parameter,
                         {metric: table.mean_series(metric) for metric in metrics})


def render_summary(tables: Dict[str, ResultTable]) -> str:
    """Render several experiments back to back (id order)."""
    blocks = []
    for experiment_id in sorted(tables):
        blocks.append(f"=== {experiment_id} ===")
        blocks.append(render_table(tables[experiment_id]))
    return "\n\n".join(blocks)


def render_claims(expectation: PanelExpectation, deviations: Sequence[str],
                  paired: Mapping[str, Mapping[str, int]]) -> str:
    """The paper's claims for one panel, with what the measurement says.

    ``deviations`` is :meth:`PanelExpectation.check`'s output and ``paired``
    its :meth:`~PanelExpectation.paired_outcomes`; every latency claim
    carries its paired wins, ties and losses.  The lines are markdown
    bullets, so the same text serves the CLI and EXPERIMENTS.md.
    """
    slack = f"{(expectation.tolerance - 1) * 100:.0f}%"
    claims = []
    for better, worse in expectation.latency_better:
        claim = f"- {better} latency <= {worse}"
        counts = paired.get(f"{better} vs {worse}")
        if counts is None:
            claim += " (not both run)"
        else:
            total = sum(counts.values())
            claim += (f" (paired over {total} instances: {counts['wins']} lower, "
                      f"{counts['ties']} equal, {counts['losses']} higher)")
        claims.append(claim)
    if expectation.latency_trend is not None:
        claims.append(f"- {', '.join(expectation.trend_algorithms)} latency "
                      f"{expectation.latency_trend} over the sweep")
    if expectation.runtime_slowest is not None:
        claims.append(f"- {expectation.runtime_slowest} has the largest mean runtime")
    if not claims:
        return "No paper claims are recorded for this panel."
    blocks = [f"Claims checked (sweep means, {slack} slack):", "\n".join(claims)]
    if deviations:
        blocks.append("Deviations from the paper's qualitative claims:")
        blocks.append("\n".join(f"- {deviation}" for deviation in deviations))
    else:
        blocks.append("Measured shapes match the paper's qualitative claims.")
    return "\n\n".join(blocks)
