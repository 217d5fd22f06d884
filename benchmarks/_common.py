"""Shared plumbing for the microbenchmark suites.

Every suite under ``benchmarks/`` used to carry its own copy of the same
scaffolding: interleaved repeat timing, median/speedup math, argparse
boilerplate, environment capture, and JSON report writing — each with a
slightly different output schema.  This module centralises all of it:

* **Timing** — :func:`run_interleaved` repeats every implementation in an
  interleaved order (so background drift hits all of them equally, the
  convention every suite already followed), :func:`median_ms` /
  :func:`ratio` produce the reported numbers.
* **Suite registry** — each benchmark module registers a
  :class:`BenchSuite` (name, argparse configuration, smoke overrides and
  a ``run`` callable returning a :class:`SuiteResult`);
  ``benchmarks/bench_all.py`` discovers suites through
  :func:`registered_suites` / :func:`select_suites`, with did-you-mean
  errors for unknown names.
* **Shared report schema** — :func:`build_report` assembles the one
  schema every report follows (``benchmark`` /
  ``description`` / ``mode`` / ``config`` / ``environment`` /
  ``sections`` / ``headline_speedups`` / ``fingerprint``) and
  :func:`validate_report` checks a report (per-suite or consolidated)
  against it — ``tests/test_bench_schema.py`` runs that over the
  committed ``BENCH_all.json`` and smoke baseline.
* **Regression gate** — :func:`compare_reports` is the ratio-based
  comparator behind ``bench_all.py --check``: every speedup recorded in
  the baseline must be reproduced within a configurable noise fraction,
  missing sections are errors, and exactness fingerprints must match
  bit-for-bit whenever the configs match.

Sections come in two shapes.  A **timed** section names its baseline
implementation and carries ``timings_ms`` (median wall-milliseconds per
implementation) plus ``speedups`` (``"<impl>_vs_<baseline>"`` ratio
keys); an **observational** section (shed rates, TTL trade-offs — things
with no faster/slower axis) carries a ``metrics`` dict instead and is
exempt from the ratio gate.
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
RESULTS_DIR = BENCH_DIR / "results"
BASELINE_DIR = BENCH_DIR / "baselines"

#: Committed baseline the smoke-mode regression gate compares against.
SMOKE_BASELINE = BASELINE_DIR / "all_smoke.json"
#: Committed full-run consolidated report (also the full-mode gate baseline).
FULL_REPORT = REPO_ROOT / "BENCH_all.json"

SCHEMA_VERSION = 1

#: Default allowed regression fraction: a recorded speedup may shrink to
#: ``baseline * (1 - DEFAULT_NOISE)`` before the gate trips.  Smoke-sized
#: workloads on shared CI runners are noisy, so the default is generous —
#: it still catches the ~2x cliffs a broken fast path produces, while
#: per-section overrides can tighten sections known to be stable.
DEFAULT_NOISE = 0.45

MODES = ("full", "smoke")


# --------------------------------------------------------------- timing

def run_interleaved(runners: Mapping[str, Callable[[], object]],
                    repeats: int):
    """Time every runner ``repeats`` times, interleaving implementations.

    Returns ``(times, outputs)``: per-runner lists of wall-seconds and the
    last output of each runner (the exactness witness).  Interleaving —
    one pass over all runners per repeat, rather than all repeats of one
    runner — spreads slow background drift (GC, other processes) across
    every implementation equally.
    """
    times: Dict[str, List[float]] = {name: [] for name in runners}
    outputs: Dict[str, object] = {}
    for _ in range(repeats):
        for name, runner in runners.items():
            start = time.perf_counter()
            outputs[name] = runner()
            times[name].append(time.perf_counter() - start)
    return times, outputs


def median_s(samples: Sequence[float]) -> float:
    return statistics.median(samples)


def median_ms(samples: Sequence[float]) -> float:
    return round(statistics.median(samples) * 1000, 3)


def ratio(baseline_s: float, other_s: float) -> float:
    """``baseline / other`` rounded for reporting (inf-safe)."""
    return round(baseline_s / other_s, 2) if other_s > 0 else float("inf")


# --------------------------------------------------- environment metadata

def git_sha() -> Optional[str]:
    """Short SHA of HEAD, or ``None`` outside a usable git checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else None


def numpy_version() -> Optional[str]:
    try:
        import numpy
    except ImportError:
        return None
    return numpy.__version__


def environment_metadata() -> dict:
    """The environment block every report carries (schema-required)."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "numpy": numpy_version(),
        "git_sha": git_sha(),
    }


# ----------------------------------------------------------- fingerprints

def fingerprint(payload: object) -> str:
    """Deterministic digest of a suite's exactness witnesses.

    The payload must be JSON-serialisable and deterministic for a fixed
    config (include flow values, assignment digests, counters; exclude
    timings and anything thread-timing-dependent).  Configs are seeded,
    so the digest is reproducible across machines — the regression gate
    compares it bit-for-bit whenever baseline and fresh configs match.
    """
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(blob.encode("utf-8")).hexdigest()[:32]


def digest(obj: object) -> str:
    """Short digest of an arbitrary (repr-stable) object, for payloads."""
    return hashlib.sha256(repr(obj).encode("utf-8")).hexdigest()[:16]


# -------------------------------------------------------- suite registry

@dataclass(frozen=True)
class SuiteResult:
    """What a suite's ``run`` callable returns (everything but metadata)."""

    config: dict
    sections: dict
    headline_speedups: dict
    fingerprint_payload: object


@dataclass(frozen=True)
class BenchSuite:
    """One registered benchmark suite.

    ``add_arguments`` installs the suite's workload knobs on an argparse
    parser (never ``--output``/``--smoke``, which the CLI wrappers own);
    ``smoke_overrides`` maps argument dests to the small CI-sized values;
    ``run`` executes the suite for a parsed namespace and returns a
    :class:`SuiteResult`.
    """

    name: str
    description: str
    add_arguments: Callable[[argparse.ArgumentParser], None]
    run: Callable[[argparse.Namespace], SuiteResult]
    smoke_overrides: Dict[str, object] = field(default_factory=dict)


_REGISTRY: Dict[str, BenchSuite] = {}


class UnknownSuiteError(KeyError):
    """Raised for suite names nobody registered (carries a hint)."""

    def __str__(self) -> str:  # KeyError quotes its arg; keep the message
        return self.args[0]


def register_suite(suite: BenchSuite) -> BenchSuite:
    _REGISTRY[suite.name] = suite
    return suite


def registered_suites() -> Dict[str, BenchSuite]:
    return dict(_REGISTRY)


def get_suite(name: str) -> BenchSuite:
    try:
        return _REGISTRY[name]
    except KeyError:
        message = (
            f"unknown benchmark suite {name!r}; registered suites: "
            f"{', '.join(sorted(_REGISTRY)) or '(none)'}"
        )
        close = difflib.get_close_matches(name, _REGISTRY, n=1)
        if close:
            message += f" — did you mean {close[0]!r}?"
        raise UnknownSuiteError(message) from None


def select_suites(only: Optional[Sequence[str]] = None) -> List[BenchSuite]:
    """All registered suites, or the named subset (in the named order)."""
    if only is None:
        return list(_REGISTRY.values())
    return [get_suite(name) for name in only]


def suite_namespace(suite: BenchSuite, *, smoke: bool = False,
                    repeats: Optional[int] = None) -> argparse.Namespace:
    """The suite's default argument namespace, as the orchestrator runs it."""
    parser = argparse.ArgumentParser(add_help=False)
    suite.add_arguments(parser)
    namespace = parser.parse_args([])
    if smoke:
        for dest, value in suite.smoke_overrides.items():
            setattr(namespace, dest, value)
    if repeats is not None and hasattr(namespace, "repeats"):
        namespace.repeats = repeats
    return namespace


# ------------------------------------------------------ report assembly

def build_report(suite: BenchSuite, result: SuiteResult, mode: str) -> dict:
    """One per-suite report in the shared schema."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    return {
        "schema_version": SCHEMA_VERSION,
        "benchmark": suite.name,
        "description": suite.description,
        "mode": mode,
        "config": result.config,
        "environment": environment_metadata(),
        "sections": result.sections,
        "headline_speedups": result.headline_speedups,
        "fingerprint": fingerprint(result.fingerprint_payload),
    }


def write_report(path: Path, report: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=1) + "\n")


def load_report(path: Path) -> dict:
    return json.loads(Path(path).read_text())


def suite_main(suite: BenchSuite, argv=None) -> int:
    """The thin CLI shared by every standalone suite script.

    A standalone run writes a scratch report under ``benchmarks/results/``;
    the one committed report is ``BENCH_all.json`` from ``bench_all.py``.
    """
    summary = suite.description.splitlines()[0]
    parser = argparse.ArgumentParser(description=summary)
    parser.add_argument("--output", type=Path, default=None,
                        help=f"where to write the JSON report (default: "
                             f"benchmarks/results/{suite.name}.json, or "
                             f"{suite.name}_smoke.json with --smoke)")
    parser.add_argument("--smoke", action="store_true",
                        help="run the small CI-sized configuration")
    suite.add_arguments(parser)
    args = parser.parse_args(argv)
    if args.smoke:
        for dest, value in suite.smoke_overrides.items():
            # Respect explicitly passed values; smoke only fills defaults.
            if getattr(args, dest) == parser.get_default(dest):
                setattr(args, dest, value)
    output = args.output
    if output is None:
        suffix = "_smoke" if args.smoke else ""
        output = RESULTS_DIR / f"{suite.name}{suffix}.json"
    result = suite.run(args)
    report = build_report(suite, result, mode="smoke" if args.smoke else "full")
    write_report(output, report)
    print(f"wrote {output}")
    return 0


# ----------------------------------------------------- schema validation

_ENVIRONMENT_KEYS = ("python", "platform", "cpu_count", "numpy", "git_sha")


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def validate_report(report: object, *, consolidated: bool = False) -> List[str]:
    """Check a report against the shared schema; returns problem strings.

    ``consolidated=True`` validates the ``bench_all`` shape (per-suite
    ``fingerprints``/``config['suites']`` and ``suite.section`` keys)
    instead of the single-suite shape.
    """
    problems: List[str] = []
    if not isinstance(report, dict):
        return [f"report must be a JSON object, got {type(report).__name__}"]

    def expect(key, kind, required=True):
        value = report.get(key)
        if value is None:
            if required:
                problems.append(f"missing required key {key!r}")
            return None
        if not isinstance(value, kind):
            problems.append(
                f"{key!r} must be {getattr(kind, '__name__', kind)}, "
                f"got {type(value).__name__}"
            )
            return None
        return value

    if report.get("schema_version") != SCHEMA_VERSION:
        problems.append(
            f"schema_version must be {SCHEMA_VERSION}, "
            f"got {report.get('schema_version')!r}"
        )
    name = expect("benchmark", str)
    if name == "":
        problems.append("'benchmark' must be non-empty")
    expect("description", str)
    if report.get("mode") not in MODES:
        problems.append(f"'mode' must be one of {MODES}, got {report.get('mode')!r}")
    config = expect("config", dict)
    if consolidated and config is not None:
        suites = config.get("suites")
        if not isinstance(suites, dict) or not suites:
            problems.append("consolidated 'config' must carry a non-empty "
                            "'suites' dict of per-suite configs")

    environment = expect("environment", dict)
    if environment is not None:
        for key in _ENVIRONMENT_KEYS:
            if key not in environment:
                problems.append(f"'environment' is missing {key!r}")

    sections = expect("sections", dict)
    if sections is not None:
        if not sections:
            problems.append("'sections' must be non-empty")
        for section_name, section in sections.items():
            if not isinstance(section, dict):
                problems.append(f"section {section_name!r} must be an object")
                continue
            timed = "baseline" in section or "timings_ms" in section
            if timed:
                baseline = section.get("baseline")
                timings = section.get("timings_ms")
                speedups = section.get("speedups")
                if not isinstance(baseline, str):
                    problems.append(f"section {section_name!r}: timed sections "
                                    "need a 'baseline' implementation name")
                if not isinstance(timings, dict) or not timings:
                    problems.append(f"section {section_name!r}: timed sections "
                                    "need a non-empty 'timings_ms' dict")
                else:
                    if isinstance(baseline, str) and baseline not in timings:
                        problems.append(
                            f"section {section_name!r}: baseline "
                            f"{baseline!r} has no entry in 'timings_ms'"
                        )
                    bad = [k for k, v in timings.items() if not _is_number(v)]
                    if bad:
                        problems.append(f"section {section_name!r}: non-numeric "
                                        f"timings for {bad}")
                if not isinstance(speedups, dict) or not speedups:
                    problems.append(f"section {section_name!r}: timed sections "
                                    "need a non-empty 'speedups' dict")
                else:
                    bad = [k for k, v in speedups.items() if not _is_number(v)]
                    if bad:
                        problems.append(f"section {section_name!r}: non-numeric "
                                        f"speedups for {bad}")
            elif not isinstance(section.get("metrics"), dict):
                problems.append(
                    f"section {section_name!r} is neither timed (baseline + "
                    "timings_ms + speedups) nor observational (metrics)"
                )
            if consolidated and "." not in section_name:
                problems.append(f"consolidated section {section_name!r} must "
                                "be namespaced as '<suite>.<section>'")

    headline = expect("headline_speedups", dict)
    if headline is not None:
        if not headline:
            problems.append("'headline_speedups' must be non-empty")
        bad = [k for k, v in headline.items() if not _is_number(v)]
        if bad:
            problems.append(f"non-numeric headline speedups for {bad}")

    if consolidated:
        fingerprints = expect("fingerprints", dict)
        if fingerprints is not None:
            bad = [k for k, v in fingerprints.items()
                   if not (isinstance(v, str) and v.startswith("sha256:"))]
            if bad:
                problems.append(f"malformed fingerprints for suites {bad}")
            if config is not None and isinstance(config.get("suites"), dict):
                missing = sorted(set(config["suites"]) - set(fingerprints))
                if missing:
                    problems.append(f"suites {missing} have configs but no "
                                    "fingerprint")
    else:
        fp = expect("fingerprint", str)
        if fp is not None and not fp.startswith("sha256:"):
            problems.append("'fingerprint' must be a 'sha256:' digest")

    return problems


# ------------------------------------------------------- regression gate

@dataclass
class Comparison:
    """Outcome of :func:`compare_reports` (``ok`` iff no problems)."""

    problems: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.problems


def _suite_configs(report: dict) -> Dict[str, object]:
    """Per-suite configs of a report (consolidated or single-suite)."""
    config = report.get("config") or {}
    if isinstance(config.get("suites"), dict):
        return dict(config["suites"])
    return {report.get("benchmark", ""): config}


def _suite_fingerprints(report: dict) -> Dict[str, str]:
    if isinstance(report.get("fingerprints"), dict):
        return dict(report["fingerprints"])
    if isinstance(report.get("fingerprint"), str):
        return {report.get("benchmark", ""): report["fingerprint"]}
    return {}


def parse_noise_overrides(pairs: Iterable[str]) -> Dict[str, float]:
    """Parse ``SECTION[=.KEY]=FRACTION`` strings from the command line."""
    overrides: Dict[str, float] = {}
    for pair in pairs:
        target, sep, value = pair.partition("=")
        if not sep or not target:
            raise ValueError(
                f"noise override {pair!r} must look like "
                "'section=0.3' or 'section.speedup_key=0.3'"
            )
        fraction = float(value)
        if not 0.0 <= fraction < 1.0:
            raise ValueError(f"noise override {pair!r}: fraction must be "
                             "in [0, 1)")
        overrides[target] = fraction
    return overrides


def compare_reports(baseline: dict, fresh: dict, *,
                    noise: float = DEFAULT_NOISE,
                    overrides: Optional[Mapping[str, float]] = None,
                    check_fingerprints: bool = True) -> Comparison:
    """The ratio-based regression gate behind ``bench_all.py --check``.

    For every section the baseline report recorded, the fresh report must
    contain that section, and every recorded speedup must satisfy::

        fresh >= baseline_value * (1 - threshold)

    where ``threshold`` is, most-specific-first: an override keyed
    ``"<section>.<speedup_key>"``, an override keyed ``"<section>"``, or
    the global ``noise`` fraction.  Improvements and within-noise drift
    pass; non-finite baseline entries cannot gate and are skipped.
    Exactness fingerprints are compared bit-for-bit for every suite whose
    config matches between the two reports (suites re-run with different
    workloads legitimately produce different outputs and are skipped with
    a note).
    """
    overrides = dict(overrides or {})
    result = Comparison()
    base_sections = baseline.get("sections") or {}
    fresh_sections = fresh.get("sections") or {}
    for section_name, base_section in base_sections.items():
        fresh_section = fresh_sections.get(section_name)
        if fresh_section is None:
            result.problems.append(
                f"section {section_name!r} is missing from the fresh report"
            )
            continue
        base_speedups = base_section.get("speedups") or {}
        fresh_speedups = fresh_section.get("speedups") or {}
        for key, base_value in base_speedups.items():
            if key not in fresh_speedups:
                result.problems.append(
                    f"{section_name}: speedup {key!r} is missing from the "
                    "fresh report"
                )
                continue
            if not _is_number(base_value) or not math.isfinite(base_value):
                result.notes.append(
                    f"{section_name}: {key} baseline is {base_value!r}; "
                    "cannot gate on it"
                )
                continue
            threshold = overrides.get(
                f"{section_name}.{key}", overrides.get(section_name, noise)
            )
            floor = base_value * (1.0 - threshold)
            fresh_value = fresh_speedups[key]
            result.checked += 1
            if _is_number(fresh_value) and math.isinf(fresh_value):
                result.notes.append(f"{section_name}: {key} improved to inf")
            elif not _is_number(fresh_value):
                result.problems.append(
                    f"{section_name}: {key} is non-numeric in the fresh "
                    f"report ({fresh_value!r})"
                )
            elif fresh_value < floor:
                result.problems.append(
                    f"{section_name}: {key} regressed "
                    f"{base_value:.2f}x -> {fresh_value:.2f}x "
                    f"(floor {floor:.2f}x at {threshold:.0%} noise)"
                )
            else:
                verb = ("improved" if fresh_value > base_value
                        else "within noise")
                result.notes.append(
                    f"{section_name}: {key} {base_value:.2f}x -> "
                    f"{fresh_value:.2f}x ({verb})"
                )

    if check_fingerprints:
        base_configs = _suite_configs(baseline)
        fresh_configs = _suite_configs(fresh)
        fresh_fps = _suite_fingerprints(fresh)
        for suite_name, base_fp in _suite_fingerprints(baseline).items():
            fresh_fp = fresh_fps.get(suite_name)
            if fresh_fp is None:
                result.problems.append(
                    f"{suite_name}: exactness fingerprint is missing from "
                    "the fresh report"
                )
            elif base_configs.get(suite_name) != fresh_configs.get(suite_name):
                result.notes.append(
                    f"{suite_name}: configs differ; fingerprint not compared"
                )
            elif fresh_fp != base_fp:
                result.problems.append(
                    f"{suite_name}: exactness fingerprint changed "
                    f"({base_fp} -> {fresh_fp}) under an identical config — "
                    "outputs drifted"
                )
            else:
                result.notes.append(f"{suite_name}: fingerprint matches")
    return result
