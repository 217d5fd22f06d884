"""Unit tests for the benchmark orchestrator and its regression gate.

Covers the suite registry (unknown names get did-you-mean errors,
``--only`` filtering, smoke overrides), the ratio-based comparator in
``_common.compare_reports`` (improvements and within-noise drift pass,
real regressions and missing sections trip it, overrides resolve
most-specific-first), and — end to end — that ``bench_all.py --check``
exits non-zero when a synthetic regression is injected into the fresh
report.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

import _common  # noqa: E402
import bench_all  # noqa: E402  (importing registers the real suites)


def make_report(*, mode="smoke", sections=None, fingerprints=None,
                suites=None, benchmark="all"):
    """A minimal consolidated report for comparator tests."""
    sections = sections if sections is not None else {
        "demo.solve": {
            "baseline": "reference",
            "timings_ms": {"reference": 10.0, "fast": 4.0},
            "speedups": {"fast_vs_reference": 2.5},
        },
    }
    fingerprints = (fingerprints if fingerprints is not None
                    else {"demo": "sha256:" + "0" * 32})
    suites = suites if suites is not None else {"demo": {"size": 5}}
    return {
        "schema_version": _common.SCHEMA_VERSION,
        "benchmark": benchmark,
        "description": "synthetic comparator fixture",
        "mode": mode,
        "config": {"only": None, "suites": suites},
        "environment": _common.environment_metadata(),
        "sections": sections,
        "headline_speedups": {"demo.fast_vs_reference": 2.5},
        "fingerprints": fingerprints,
    }


def with_speedup(report, value):
    clone = json.loads(json.dumps(report))
    clone["sections"]["demo.solve"]["speedups"]["fast_vs_reference"] = value
    return clone


# ------------------------------------------------------------- registry

def test_unknown_suite_gets_did_you_mean():
    with pytest.raises(_common.UnknownSuiteError) as excinfo:
        _common.get_suite("flowkernel")
    message = str(excinfo.value)
    assert "unknown benchmark suite 'flowkernel'" in message
    assert "did you mean 'flow_kernel'?" in message


def test_select_suites_filters_and_preserves_order():
    suites = _common.select_suites(["dispatch_scale", "flow_kernel"])
    assert [suite.name for suite in suites] == ["dispatch_scale",
                                               "flow_kernel"]
    every = _common.select_suites(None)
    assert {suite.name for suite in every} >= {
        "flow_kernel", "candidates", "dynamic_sessions", "dispatch_scale",
    }


def test_suite_namespace_applies_smoke_overrides():
    suite = _common.get_suite("flow_kernel")
    full = _common.suite_namespace(suite)
    smoke = _common.suite_namespace(suite, smoke=True)
    assert smoke.sizes == suite.smoke_overrides["sizes"]
    assert full.sizes != smoke.sizes
    capped = _common.suite_namespace(suite, smoke=True, repeats=1)
    assert capped.repeats == 1


def test_list_shows_every_suite(capsys):
    assert bench_all.main(["--list"]) == 0
    listed = [line.split()[0] for line in
              capsys.readouterr().out.splitlines()[1:]]
    assert listed == ["candidates", "dispatch_scale", "dynamic_sessions",
                      "e2e_counts", "figures", "flow_kernel", "resilience"]


def fake_run_py(monkeypatch, correct=True, failed=0):
    """Make ``bench_e2e_counts`` see a canned ``run.py`` result line."""
    import bench_e2e_counts

    metrics = {
        "flow.augmentations": {"value": 7, "unit": "count"},
        "candidates.topk.calls": {"value": 3, "unit": "count"},
        "flow.solve_mcf.self_pct": {"value": 12.5, "unit": "%"},
        "dispatcher.probes_per_arrival": {"value": 8.0, "unit": "probes/arrival"},
    }
    line = json.dumps({"correct": correct, "attempted": 10, "failed": failed,
                       "metrics": metrics})
    calls = []

    def run(argv, **kwargs):
        calls.append(argv)
        return argparse.Namespace(returncode=0 if correct else 1,
                                  stdout=f"host line\n{line}\n", stderr="")

    monkeypatch.setattr(bench_e2e_counts.subprocess, "run", run)
    return bench_e2e_counts, calls


def test_e2e_counts_fingerprints_only_the_count_metrics(monkeypatch):
    module, calls = fake_run_py(monkeypatch)
    namespace = _common.suite_namespace(module.SUITE, smoke=True)
    result = module.run_suite(namespace)
    assert [argv[argv.index("--workload") + 1] for argv in calls] == list(
        module.WORKLOADS)
    assert all(argv[-6:] == ["--seed", "20180416", "--seconds", "0",
                             "--trace", "1"] for argv in calls)
    counts = {"candidates.topk.calls": 3, "flow.augmentations": 7}
    assert result.fingerprint_payload == {w: counts for w in module.WORKLOADS}
    assert result.config == {"workloads": list(module.WORKLOADS),
                             "seed": 20180416}


def test_e2e_counts_stops_on_a_failed_run(monkeypatch):
    module, _ = fake_run_py(monkeypatch, correct=False)
    with pytest.raises(RuntimeError, match="paper_sparse"):
        module.traced_counts("paper_sparse", 20180416)


def test_figures_config_is_its_two_repetition_counts():
    suite = _common.get_suite("figures")
    full = _common.suite_namespace(suite, repeats=3)
    smoke = _common.suite_namespace(suite, smoke=True)
    # --repeats times implementations; it does not change the paper's
    # repetition count (and with it the fingerprint).
    assert vars(full) == {"repetitions": 30, "memory_repetitions": 1}
    assert vars(smoke) == {"repetitions": 1, "memory_repetitions": 0}


def _fake_figure_tables(monkeypatch, memory_latency):
    """Make ``bench_figures`` run a two-record fake of one experiment."""
    import bench_figures
    from repro.simulation.results import ExperimentRecord, ResultTable

    def fake_run_experiment(experiment_id, repetitions, track_memory):
        table = ResultTable(experiment_id, "x")
        for repetition in range(repetitions):
            for algorithm, latency in (("AAM", 5.0), ("LAF", 7.0)):
                if track_memory and algorithm == "LAF":
                    latency = memory_latency
                table.add(ExperimentRecord(
                    experiment_id=experiment_id, sweep_parameter="x",
                    sweep_value=1.0, algorithm=algorithm,
                    repetition=repetition, max_latency=latency,
                    completed=True, runtime_seconds=0.5,
                    peak_memory_mb=2.0 if track_memory else 0.0,
                ))
        return table

    monkeypatch.setattr(bench_figures, "run_experiment", fake_run_experiment)
    return bench_figures


def test_figures_section_holds_series_claims_and_paired_outcomes(monkeypatch):
    bench_figures = _fake_figure_tables(monkeypatch, memory_latency=7.0)
    section, witness = bench_figures.run_figure("ablation_aam_switch", 2, 1)
    metrics = section["metrics"]
    assert metrics["series"] == {
        "max_latency": {"AAM": [(1.0, 5.0)], "LAF": [(1.0, 7.0)]},
        "runtime_seconds": {"AAM": [(1.0, 0.5)], "LAF": [(1.0, 0.5)]},
        "peak_memory_mb": {"AAM": [(1.0, 2.0)], "LAF": [(1.0, 2.0)]},
    }
    assert metrics["paired_outcomes"] == {
        "AAM vs LAF": {"wins": 2, "ties": 0, "losses": 0},
    }
    assert metrics["deviations"] == []
    assert witness == [[1.0, 0, "AAM", 5.0, True], [1.0, 0, "LAF", 7.0, True],
                       [1.0, 1, "AAM", 5.0, True], [1.0, 1, "LAF", 7.0, True]]
    section, _ = bench_figures.run_figure("ablation_aam_switch", 1, 0)
    assert "peak_memory_mb" not in section["metrics"]["series"]


def test_figures_memory_pass_must_match_the_timing_pass(monkeypatch):
    bench_figures = _fake_figure_tables(monkeypatch, memory_latency=8.0)
    with pytest.raises(AssertionError, match="memory pass"):
        bench_figures.run_figure("ablation_aam_switch", 2, 1)


def test_bench_all_only_rejects_unknown_suite(capsys):
    assert bench_all.main(["--only", "flowkernel"]) == 2
    assert "did you mean 'flow_kernel'?" in capsys.readouterr().err


# ----------------------------------------------------------- comparator

def test_improvement_and_within_noise_pass():
    baseline = make_report()
    improved = _common.compare_reports(baseline, with_speedup(baseline, 3.1))
    assert improved.ok and improved.checked == 1
    assert any("improved" in note for note in improved.notes)

    drifted = _common.compare_reports(baseline, with_speedup(baseline, 2.0),
                                      noise=0.45)
    assert drifted.ok
    assert any("within noise" in note for note in drifted.notes)


def test_synthetic_regression_trips_the_gate():
    baseline = make_report()
    # floor = 2.5 * (1 - 0.45) = 1.375; 1.1x is a real regression.
    comparison = _common.compare_reports(baseline,
                                         with_speedup(baseline, 1.1))
    assert not comparison.ok
    assert any("regressed 2.50x -> 1.10x" in p for p in comparison.problems)


def test_missing_section_and_missing_speedup_are_errors():
    baseline = make_report()
    gutted = json.loads(json.dumps(baseline))
    gutted["sections"] = {"other.section": {"metrics": {"n": 1}}}
    comparison = _common.compare_reports(baseline, gutted)
    assert any("missing from the fresh report" in p
               for p in comparison.problems)

    keyless = json.loads(json.dumps(baseline))
    keyless["sections"]["demo.solve"]["speedups"] = {"other_vs_reference": 1.0}
    comparison = _common.compare_reports(baseline, keyless)
    assert any("speedup 'fast_vs_reference' is missing" in p
               for p in comparison.problems)


def test_noise_overrides_resolve_most_specific_first():
    baseline = make_report()
    fresh = with_speedup(baseline, 2.0)  # a 20% drop from 2.5x

    # Section-wide tightening to 10% makes the drop a regression...
    tight = _common.compare_reports(baseline, fresh,
                                    overrides={"demo.solve": 0.1})
    assert not tight.ok
    # ...but a per-key override wins over the section-wide one.
    loose = _common.compare_reports(
        baseline, fresh,
        overrides={"demo.solve": 0.1,
                   "demo.solve.fast_vs_reference": 0.3},
    )
    assert loose.ok


def test_parse_noise_overrides_validates_input():
    parsed = _common.parse_noise_overrides(
        ["demo.solve=0.3", "demo.solve.fast_vs_reference=0.1"])
    assert parsed == {"demo.solve": 0.3,
                      "demo.solve.fast_vs_reference": 0.1}
    with pytest.raises(ValueError):
        _common.parse_noise_overrides(["no-equals-sign"])
    with pytest.raises(ValueError):
        _common.parse_noise_overrides(["demo=1.5"])


def test_fingerprint_gate_distinguishes_config_changes():
    baseline = make_report()

    drifted = json.loads(json.dumps(baseline))
    drifted["fingerprints"]["demo"] = "sha256:" + "f" * 32
    same_config = _common.compare_reports(baseline, drifted)
    assert any("outputs drifted" in p for p in same_config.problems)

    # Same drift under a different workload config is only a note.
    drifted["config"]["suites"]["demo"] = {"size": 9}
    new_config = _common.compare_reports(baseline, drifted)
    assert new_config.ok
    assert any("configs differ" in note for note in new_config.notes)

    missing = json.loads(json.dumps(baseline))
    missing["fingerprints"] = {}
    comparison = _common.compare_reports(baseline, missing)
    assert any("fingerprint is missing" in p for p in comparison.problems)

    skipped = _common.compare_reports(baseline, missing,
                                      check_fingerprints=False)
    assert skipped.ok


def test_observational_sections_are_exempt_from_the_ratio_gate():
    sections = {"demo.shed": {"metrics": {"shed_total": 42}}}
    baseline = make_report(sections=sections)
    fresh = make_report(sections={"demo.shed": {"metrics": {"shed_total": 7}}})
    comparison = _common.compare_reports(baseline, fresh)
    assert comparison.ok and comparison.checked == 0


# ------------------------------------------------- end-to-end exit codes

def run_check_cli(tmp_path, baseline, fresh, extra=()):
    """Drive ``bench_all.py --check`` on pre-written reports."""
    baseline_path = tmp_path / "baseline.json"
    fresh_path = tmp_path / "fresh.json"
    baseline_path.write_text(json.dumps(baseline))
    fresh_path.write_text(json.dumps(fresh))
    return bench_all.main([
        "--check", "--baseline", str(baseline_path),
        "--fresh", str(fresh_path), *extra,
    ])


def test_check_passes_on_matching_reports(tmp_path, capsys):
    baseline = make_report()
    assert run_check_cli(tmp_path, baseline, baseline) == 0
    assert "gate: PASS" in capsys.readouterr().out


def test_check_exits_nonzero_on_injected_regression(tmp_path, capsys):
    baseline = make_report()
    regressed = with_speedup(baseline, 1.1)
    assert run_check_cli(tmp_path, baseline, regressed) == 1
    out = capsys.readouterr().out
    assert "gate: FAIL" in out
    assert "regressed" in out


def test_check_honours_noise_override_flags(tmp_path):
    baseline = make_report()
    fresh = with_speedup(baseline, 2.0)
    assert run_check_cli(tmp_path, baseline, fresh,
                         extra=["--noise-override", "demo.solve=0.1"]) == 1
    assert run_check_cli(tmp_path, baseline, fresh,
                         extra=["--noise-override", "demo.solve=0.3"]) == 0


def test_check_fails_prerequisites_without_baseline(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    fresh_path = tmp_path / "fresh.json"
    fresh_path.write_text(json.dumps(make_report()))
    code = bench_all.main(["--check", "--baseline", str(missing),
                           "--fresh", str(fresh_path)])
    assert code == 2
    assert "baseline report present" in capsys.readouterr().out
