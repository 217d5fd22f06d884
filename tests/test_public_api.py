"""Tests for the top-level public API surface."""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

import repro


class TestPublicAPI:
    def test_version_is_exposed(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_core_workflow_through_top_level_imports(self):
        instance = repro.generate_synthetic_instance(repro.SyntheticConfig(
            num_tasks=5, num_workers=120, capacity=4, error_rate=0.2,
            grid_size=70.0, seed=1,
        ))
        result = repro.get_solver("LAF").solve(instance)
        assert isinstance(result, repro.SolveResult)
        assert result.completed

    def test_available_solvers_lists_paper_algorithms(self):
        names = repro.available_solvers()
        for expected in ("MCF-LTC", "LAF", "AAM", "Base-off", "Random"):
            assert expected in names

    def test_experiment_registry_exposed(self):
        assert "fig3_tasks" in repro.list_experiments()
        assert repro.get_experiment("fig3_tasks").sweep_parameter == "|T|"

    def test_subpackages_importable(self):
        for module in (
            "repro.core", "repro.algorithms", "repro.flow", "repro.geo",
            "repro.structures", "repro.quality", "repro.datagen",
            "repro.simulation", "repro.experiments",
        ):
            importlib.import_module(module)

    def test_city_presets_exposed(self):
        assert repro.NEW_YORK.city == "New York"
        assert repro.TOKYO.city == "Tokyo"


class TestServiceSurface:
    @pytest.mark.parametrize(
        "module_name", ["repro.service", "repro.service.sharding"]
    )
    def test_all_names_resolve(self, module_name):
        module = importlib.import_module(module_name)
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == []

    @pytest.mark.parametrize("module_name", ["repro", "repro.service"])
    def test_import_does_not_load_multiprocessing(self, module_name):
        """The shard runtime is single-process; no process machinery loads."""
        src = Path(importlib.import_module("repro").__file__).parent.parent
        loaded = subprocess.run(
            [
                sys.executable, "-c",
                f"import sys; sys.path.insert(0, {str(src)!r}); "
                f"import {module_name}; "
                "print(sorted(m for m in sys.modules "
                "if m.split('.')[0] in ('multiprocessing', '_posixshmem')))",
            ],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
        assert loaded == "[]"


#: Modules kept only as test oracles and benchmark baselines: the shipped
#: package must never import them.
ORACLES = (
    "repro.core.candidates_legacy",
    "repro.geo.grid_index",
    "repro.flow.reference",
    "repro.flow.validate",
    "repro.structures.topk",
)


def test_importing_the_package_loads_no_oracle():
    """``import repro`` plus every non-oracle module under it leaves the
    oracles unloaded."""
    assert all(importlib.util.find_spec(name) for name in ORACLES)
    src = Path(importlib.import_module("repro").__file__).parent.parent
    script = (
        "import importlib, pkgutil, sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        f"oracles = {ORACLES!r}\n"
        "import repro\n"
        "for info in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
        "    if info.name not in oracles:\n"
        "        importlib.import_module(info.name)\n"
        "print(sorted(name for name in oracles if name in sys.modules))\n"
    )
    loaded = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True,
    ).stdout.strip()
    assert loaded == "[]"


class TestExamplesAreImportable:
    """The example scripts must at least import and expose a main()."""

    @pytest.mark.parametrize("module_name", [
        "quickstart", "facebook_poi_campaign", "online_checkin_stream",
        "offline_vs_online_tradeoff",
    ])
    def test_example_has_main(self, module_name):
        import sys
        from pathlib import Path

        examples_dir = Path(__file__).resolve().parent.parent / "examples"
        sys.path.insert(0, str(examples_dir))
        try:
            module = importlib.import_module(module_name)
            assert callable(getattr(module, "main"))
        finally:
            sys.path.remove(str(examples_dir))

    def test_running_example_walkthrough_is_fast_enough_for_ci(self, capsys):
        """The Facebook POI example runs end to end in-process."""
        import sys
        from pathlib import Path

        examples_dir = Path(__file__).resolve().parent.parent / "examples"
        sys.path.insert(0, str(examples_dir))
        try:
            module = importlib.import_module("facebook_poi_campaign")
            module.main()
        finally:
            sys.path.remove(str(examples_dir))
        output = capsys.readouterr().out
        assert "MCF-LTC: latency = 7" in output
        assert "AAM: latency = 6" in output
        assert "LAF: latency = 8" in output
