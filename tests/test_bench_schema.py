"""Every committed benchmark report must follow the shared schema.

``benchmarks/_common.py`` defines one report shape (benchmark name,
config, sections with timings and speedups-vs-named-baseline, headline
speedups, environment block, exactness fingerprint); the consolidated
``BENCH_all.json`` and the committed smoke baseline add per-suite
``fingerprints``/``config.suites`` and ``<suite>.<section>`` namespacing.
They are the only committed reports.  These tests run
``_common.validate_report`` over both so a hand-edited or stale-schema
report fails CI before the regression gate ever reads it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

import _common  # noqa: E402

CONSOLIDATED_REPORTS = [
    REPO_ROOT / "BENCH_all.json",
    _common.SMOKE_BASELINE,
]


def test_root_holds_one_report():
    assert [path.name for path in REPO_ROOT.glob("BENCH_*.json")] == [
        "BENCH_all.json"
    ]
    for path in CONSOLIDATED_REPORTS:
        assert path.is_file(), f"missing committed report {path}"


@pytest.mark.parametrize(
    "path", CONSOLIDATED_REPORTS, ids=lambda path: path.name
)
def test_consolidated_report_matches_schema(path):
    report = json.loads(path.read_text())
    problems = _common.validate_report(report, consolidated=True)
    assert not problems, f"{path.name}: {problems}"


def test_consolidated_covers_every_registered_suite():
    import bench_all  # noqa: F401

    registered = set(_common.registered_suites())
    for path in CONSOLIDATED_REPORTS:
        report = json.loads(path.read_text())
        assert set(report["fingerprints"]) == registered, path.name
        assert set(report["config"]["suites"]) == registered, path.name
        suites_with_sections = {
            name.split(".", 1)[0] for name in report["sections"]
        }
        assert suites_with_sections == registered, path.name


def _single_suite_report(name: str) -> dict:
    """One suite's slice of ``BENCH_all.json``, in the single-suite shape."""
    consolidated = json.loads((REPO_ROOT / "BENCH_all.json").read_text())
    prefix = f"{name}."
    return {
        "schema_version": consolidated["schema_version"],
        "benchmark": name,
        "description": name,
        "mode": consolidated["mode"],
        "config": consolidated["config"]["suites"][name],
        "environment": consolidated["environment"],
        "sections": {
            key[len(prefix):]: section
            for key, section in consolidated["sections"].items()
            if key.startswith(prefix)
        },
        "headline_speedups": {
            key[len(prefix):]: value
            for key, value in consolidated["headline_speedups"].items()
            if key.startswith(prefix)
        },
        "fingerprint": consolidated["fingerprints"][name],
    }


@pytest.mark.parametrize(
    "name",
    sorted(json.loads((REPO_ROOT / "BENCH_all.json").read_text())["fingerprints"]),
)
def test_each_suite_slice_matches_the_single_suite_schema(name):
    """Each suite's part of ``BENCH_all.json`` is a valid report of its own."""
    report = _single_suite_report(name)
    assert report["sections"], f"{name} has no sections"
    problems = _common.validate_report(report)
    assert not problems, f"{name}: {problems}"


def test_validate_report_rejects_broken_reports():
    """The validator itself catches the failure modes it exists for."""
    good = _single_suite_report("flow_kernel")
    assert _common.validate_report(good) == []

    assert _common.validate_report([]) != []

    missing_env = dict(good)
    missing_env.pop("environment")
    assert any("environment" in p
               for p in _common.validate_report(missing_env))

    bad_mode = dict(good, mode="quick")
    assert any("mode" in p for p in _common.validate_report(bad_mode))

    bad_section = json.loads(json.dumps(good))
    first = next(iter(bad_section["sections"].values()))
    first.pop("speedups")
    assert any("speedups" in p
               for p in _common.validate_report(bad_section))

    # A consolidated report must namespace sections and carry per-suite
    # fingerprints; a single-suite report fails the consolidated check.
    assert _common.validate_report(good, consolidated=True) != []


def test_observational_only_report_needs_no_headline():
    """A suite with nothing timed has no speedup to headline."""
    report = dict(
        _single_suite_report("flow_kernel"),
        sections={"panel": {"metrics": {"latency": [1, 2]}}},
        headline_speedups={},
    )
    assert _common.validate_report(report) == []


def test_timed_report_without_headline_still_fails():
    report = dict(_single_suite_report("flow_kernel"), headline_speedups={})
    assert "'headline_speedups' must be non-empty" in _common.validate_report(report)
    # Adding an observational section does not excuse the timed ones.
    report["sections"] = dict(report["sections"],
                              panel={"metrics": {"latency": [1, 2]}})
    assert "'headline_speedups' must be non-empty" in _common.validate_report(report)


def test_consolidated_report_without_headline_still_fails():
    report = json.loads(_common.SMOKE_BASELINE.read_text())
    report["headline_speedups"] = {}
    assert ("'headline_speedups' must be non-empty"
            in _common.validate_report(report, consolidated=True))
