"""EXPERIMENTS.md is generated, never hand-edited.

``scripts/build_experiments_md.py`` renders it from the ``figures``
sections of ``BENCH_all.json``; the committed file must be exactly what
rendering the committed report gives.
"""

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def builder():
    path = REPO_ROOT / "scripts" / "build_experiments_md.py"
    spec = importlib.util.spec_from_file_location("build_experiments_md", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def report():
    return json.loads((REPO_ROOT / "BENCH_all.json").read_text())


def test_committed_experiments_md_regenerates_byte_for_byte(builder, report):
    committed = (REPO_ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    assert builder.render(report) == committed


def test_every_experiment_has_commentary_and_a_figures_section(builder, report):
    from repro.experiments.configs import list_experiments

    commented = [experiment_id for experiment_id, _, _ in builder.SECTIONS]
    assert sorted(commented) == list_experiments()
    figures = sorted(name.split(".", 1)[1] for name in report["sections"]
                     if name.startswith("figures."))
    assert figures == list_experiments()


def test_rendering_uses_the_stored_claim_outcomes(builder, report):
    text = builder.render(report)
    for experiment_id in ("fig3_capacity", "fig4_tokyo"):
        metrics = report["sections"][f"figures.{experiment_id}"]["metrics"]
        counts = metrics["paired_outcomes"]["MCF-LTC vs Base-off"]
        assert (f"- MCF-LTC latency <= Base-off (paired over "
                f"{sum(counts.values())} instances: {counts['wins']} lower, "
                f"{counts['ties']} equal, {counts['losses']} higher)") in text
        for deviation in metrics["deviations"]:
            assert f"- {deviation}" in text
