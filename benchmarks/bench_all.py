"""Unified benchmark orchestrator with a perf-regression gate.

Runs every registered benchmark suite (the microbenchmarks
``flow_kernel``, ``candidates``, ``dynamic_sessions``,
``dispatch_scale`` and ``resilience``; ``figures``, the paper's ten
experiments; and ``e2e_counts``, the e2e workloads' exact per-layer
counts — each a thin module over :mod:`_common`) through one
command and emits one
consolidated report in the shared schema: per-section median timings and
speedups-vs-named-baseline (or observational metrics) under
``"<suite>.<section>"`` keys, per-suite exactness fingerprints, and one
environment block (python/numpy versions, CPU count, git SHA).
``scripts/build_experiments_md.py`` renders EXPERIMENTS.md from the
``figures`` sections.

Before running anything it verifies prerequisites: numpy importable,
the output directory writable, and — under ``--check`` — the baseline
report present.

Modes::

    # The full consolidated report (the committed BENCH_all.json):
    PYTHONPATH=src python benchmarks/bench_all.py

    # The CI-sized run (suites at their smoke configurations):
    PYTHONPATH=src python benchmarks/bench_all.py --smoke \
        --output benchmarks/results/all_smoke.json

    # Run + regression gate against the committed smoke baseline:
    PYTHONPATH=src python benchmarks/bench_all.py --smoke --check

    # Gate an already-written report without re-running the suites:
    PYTHONPATH=src python benchmarks/bench_all.py --smoke --check \
        --fresh benchmarks/results/all_smoke.json

The gate (``--check``) is ratio-based: every speedup recorded in the
baseline must be reproduced within a noise fraction (``--noise``,
default ``0.45``; per-section/per-key overrides via ``--noise-override
'section=0.3'`` / ``'section.key=0.3'``), a baseline section missing
from the fresh report is an error, and per-suite exactness fingerprints
must match bit-for-bit whenever the configs match.  Baselines default to
``benchmarks/baselines/all_smoke.json`` for smoke runs and the committed
``BENCH_all.json`` for full runs; see ``docs/benchmarks.md`` for how to
refresh them.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import _common

# Importing the suite modules registers them with _common's registry.
import bench_flow_kernel  # noqa: F401
import bench_candidates  # noqa: F401
import bench_dynamic_sessions  # noqa: F401
import bench_dispatch_scale  # noqa: F401
import bench_resilience  # noqa: F401
import bench_figures  # noqa: F401
import bench_e2e_counts  # noqa: F401

DESCRIPTION = (
    "One consolidated run of every registered microbenchmark suite: "
    "per-section median timings and speedups vs each suite's named "
    "baseline implementation, per-suite exactness fingerprints, and "
    "shared environment metadata. Section keys are namespaced "
    "'<suite>.<section>'; the regression gate (--check) compares "
    "speedups ratio-wise against a committed baseline report."
)


def verify_prerequisites(check: bool, baseline_path: Path,
                         output: Path) -> list:
    """Snippet-3-style prerequisite table; returns the list of failures."""
    checks = []

    numpy = _common.numpy_version()
    checks.append(("numpy importable", numpy is not None,
                   numpy or "pip install numpy (a hard dependency of repro)"))

    writable = True
    try:
        output.parent.mkdir(parents=True, exist_ok=True)
        probe = output.parent / f".bench_all_probe_{output.name}"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        writable = False
        detail = repr(exc)
    checks.append(("output directory writable", writable,
                   str(output.parent) if writable else detail))

    if check:
        checks.append(("baseline report present", baseline_path.is_file(),
                       str(baseline_path)))

    failures = []
    print("=== prerequisites ===")
    for label, ok, detail in checks:
        print(f"  [{'ok' if ok else 'FAIL'}] {label}: {detail}")
        if not ok:
            failures.append(label)
    return failures


def run_suites(suites, *, smoke: bool, repeats):
    """Run each suite at its orchestrated config; returns per-suite results."""
    results = {}
    for suite in suites:
        namespace = _common.suite_namespace(suite, smoke=smoke,
                                            repeats=repeats)
        print(f"\n=== suite: {suite.name} ===")
        start = time.perf_counter()
        results[suite.name] = (suite.run(namespace), namespace)
        print(f"suite {suite.name} finished in "
              f"{time.perf_counter() - start:.1f}s")
    return results


def consolidate(results, *, mode: str, only) -> dict:
    """Merge per-suite results into one report in the shared schema."""
    sections = {}
    headline = {}
    fingerprints = {}
    suite_configs = {}
    for name, (result, _namespace) in results.items():
        suite_configs[name] = result.config
        fingerprints[name] = _common.fingerprint(result.fingerprint_payload)
        for section_name, section in result.sections.items():
            sections[f"{name}.{section_name}"] = section
        for key, value in result.headline_speedups.items():
            headline[f"{name}.{key}"] = value
    return {
        "schema_version": _common.SCHEMA_VERSION,
        "benchmark": "all",
        "description": DESCRIPTION,
        "mode": mode,
        "config": {
            "only": sorted(results) if only else None,
            "suites": suite_configs,
        },
        "environment": _common.environment_metadata(),
        "sections": sections,
        "headline_speedups": headline,
        "fingerprints": fingerprints,
    }


def run_check(baseline: dict, fresh: dict, *, noise: float,
              overrides, skip_fingerprints: bool) -> int:
    comparison = _common.compare_reports(
        baseline, fresh, noise=noise, overrides=overrides,
        check_fingerprints=not skip_fingerprints,
    )
    print(f"\n=== regression gate ({comparison.checked} gated speedups) ===")
    for note in comparison.notes:
        print(f"  [ok] {note}")
    for problem in comparison.problems:
        print(f"  [FAIL] {problem}")
    if comparison.ok:
        print("gate: PASS")
        return 0
    print(f"gate: FAIL ({len(comparison.problems)} problem(s))")
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    parser.add_argument("--smoke", action="store_true",
                        help="run every suite at its small CI-sized "
                             "configuration")
    parser.add_argument("--only", nargs="+", metavar="SUITE",
                        help="run only the named suites (unknown names get "
                             "a did-you-mean error)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="override every suite's timed repetitions")
    parser.add_argument("--output", type=Path, default=None,
                        help="where to write the consolidated report "
                             "(default: BENCH_all.json for full runs, "
                             "benchmarks/results/all_smoke.json for --smoke)")
    parser.add_argument("--list", action="store_true",
                        help="list registered suites and exit")
    parser.add_argument("--check", action="store_true",
                        help="compare against the committed baseline report "
                             "and exit non-zero on regression")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="baseline report for --check (default: "
                             "benchmarks/baselines/all_smoke.json with "
                             "--smoke, BENCH_all.json otherwise)")
    parser.add_argument("--fresh", type=Path, default=None,
                        help="with --check: gate this already-written report "
                             "instead of re-running the suites")
    parser.add_argument("--noise", type=float, default=_common.DEFAULT_NOISE,
                        help="allowed fractional speedup regression before "
                             "the gate trips")
    parser.add_argument("--noise-override", action="append", default=[],
                        metavar="SECTION[.KEY]=FRACTION",
                        help="per-section (or per-speedup-key) noise "
                             "threshold, e.g. 'flow_kernel.sparse=0.3'; "
                             "repeatable")
    parser.add_argument("--skip-fingerprints", action="store_true",
                        help="do not gate on exactness fingerprints")
    args = parser.parse_args(argv)

    if args.list:
        print("registered benchmark suites:")
        for name, suite in sorted(_common.registered_suites().items()):
            print(f"  {name:>18}  {suite.description.splitlines()[0]}")
        return 0

    try:
        suites = _common.select_suites(args.only)
    except _common.UnknownSuiteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        overrides = _common.parse_noise_overrides(args.noise_override)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    mode = "smoke" if args.smoke else "full"
    output = args.output
    if output is None:
        if args.check or args.smoke:
            # Never silently overwrite a committed baseline while gating
            # against it.
            output = _common.RESULTS_DIR / f"all_{mode}.json"
        else:
            output = _common.FULL_REPORT
    baseline_path = args.baseline
    if baseline_path is None:
        baseline_path = (_common.SMOKE_BASELINE if args.smoke
                         else _common.FULL_REPORT)

    failures = verify_prerequisites(args.check, baseline_path, output)
    if failures:
        print(f"\nprerequisites failed: {', '.join(failures)}",
              file=sys.stderr)
        return 2

    baseline = None
    if args.check:
        baseline = _common.load_report(baseline_path)

    if args.check and args.fresh is not None:
        fresh = _common.load_report(args.fresh)
    else:
        started = time.perf_counter()
        results = run_suites(suites, smoke=args.smoke, repeats=args.repeats)
        fresh = consolidate(results, mode=mode, only=args.only)
        _common.write_report(output, fresh)
        print(f"\nwrote {output} "
              f"({time.perf_counter() - started:.1f}s total)")
        print("headline speedups:")
        for key, value in fresh["headline_speedups"].items():
            print(f"  {key:>55}  {value:>6.2f}x")

    if args.check:
        return run_check(baseline, fresh, noise=args.noise,
                         overrides=overrides,
                         skip_fingerprints=args.skip_fingerprints)
    return 0


if __name__ == "__main__":
    sys.exit(main())
