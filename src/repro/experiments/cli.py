"""Command-line entry point: ``repro-experiments``.

Examples
--------
List the available experiments::

    repro-experiments --list

Run the Fig. 3a/e/i column at the default scaled-down size and print its
latency / runtime / memory tables::

    repro-experiments fig3_tasks

Run a larger version of the epsilon sweep with more repetitions::

    repro-experiments fig4_epsilon --scale 0.05 --repetitions 5

Algorithms may be bare registry names or parameterized spec strings::

    repro-experiments fig3_tasks --algorithms LAF "MCF-LTC?batch_multiplier=2.0"
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.experiments.configs import get_experiment, list_experiments
from repro.experiments.harness import run_experiment
from repro.experiments.paper_reference import PAPER_EXPECTATIONS
from repro.experiments.report import render_claims, render_table


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Reproduce the evaluation of 'Latency-oriented Task "
        "Completion via Spatial Crowdsourcing' (ICDE 2018).",
    )
    parser.add_argument("experiment", nargs="?", help="experiment id to run")
    parser.add_argument("--list", action="store_true", help="list experiment ids")
    parser.add_argument("--scale", type=float, default=None,
                        help="fraction of the paper's cardinalities (default: per-experiment)")
    parser.add_argument("--repetitions", type=int, default=None,
                        help="repetitions per setting (paper uses 30)")
    parser.add_argument("--algorithms", nargs="*", default=None,
                        help="subset of algorithms to run; accepts registry "
                        "names and spec strings like "
                        "'MCF-LTC?batch_multiplier=2.0'")
    parser.add_argument("--no-memory", action="store_true",
                        help="skip peak-memory metering (faster)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-run progress lines")
    parser.add_argument("--check", action="store_true",
                        help="compare the measured shapes against the paper's claims")
    parser.add_argument("--csv", metavar="PATH", default=None,
                        help="also write the aggregated series to a CSV file")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write records and series to a JSON file")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list or not args.experiment:
        for experiment_id in list_experiments():
            definition = get_experiment(experiment_id)
            print(f"{experiment_id:24s} {definition.figure_panels:24s} {definition.description}")
        return 0

    progress = None if args.quiet else (lambda message: print(message, file=sys.stderr))
    table = run_experiment(
        args.experiment,
        scale=args.scale,
        repetitions=args.repetitions,
        algorithms=args.algorithms,
        track_memory=not args.no_memory,
        progress=progress,
    )
    print(render_table(table))

    if args.csv or args.json:
        from repro.experiments.export import export_json, write_series_csv

        if args.csv:
            print(f"\nwrote {write_series_csv(table, args.csv)}")
        if args.json:
            print(f"wrote {export_json(table, args.json)}")

    if args.check:
        expectation = PAPER_EXPECTATIONS.get(args.experiment)
        if expectation is None:
            print("\n(no paper expectation registered for this experiment)")
        else:
            problems = expectation.check(table)
            print("\n" + render_claims(expectation, problems,
                                       expectation.paired_outcomes(table)))
            if problems:
                return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
