"""Tests for SolverSpec parsing/rendering and build_solver validation."""

import pytest

from repro.algorithms.registry import build_solver
from repro.algorithms.spec import SolverSpec


class TestParse:
    def test_bare_name(self):
        spec = SolverSpec.parse("AAM")
        assert spec.name == "AAM"
        assert spec.params == {}

    def test_single_float_parameter(self):
        spec = SolverSpec.parse("MCF-LTC?batch_multiplier=2.0")
        assert spec.name == "MCF-LTC"
        assert spec.params == {"batch_multiplier": 2.0}
        assert isinstance(spec.params["batch_multiplier"], float)

    def test_values_are_typed_by_syntax(self):
        spec = SolverSpec.parse("Random?seed=7&skip_completed=true&note=fast")
        assert spec.params == {"seed": 7, "skip_completed": True, "note": "fast"}
        assert isinstance(spec.params["seed"], int)
        assert spec.params["skip_completed"] is True

    def test_false_and_capitalised_booleans(self):
        assert SolverSpec.parse("X?a=false").params["a"] is False
        assert SolverSpec.parse("X?a=True").params["a"] is True

    def test_malformed_specs_raise(self):
        with pytest.raises(ValueError):
            SolverSpec.parse("MCF-LTC?")
        with pytest.raises(ValueError):
            SolverSpec.parse("MCF-LTC?batch_multiplier")
        with pytest.raises(ValueError):
            SolverSpec.parse("MCF-LTC?a=1&a=2")
        with pytest.raises(ValueError):
            SolverSpec.parse("")

    def test_round_trip_through_str(self):
        for text in (
            "AAM",
            "MCF-LTC?batch_multiplier=2.0",
            "Random?seed=7&skip_completed=true",
            "MCF-LTC?batch_multiplier=0.5&index_tiebreak=false&use_spatial_index=true",
        ):
            spec = SolverSpec.parse(text)
            assert SolverSpec.parse(str(spec)) == spec
            assert str(spec) == text  # params render in sorted order


class TestCoerce:
    def test_coerce_passthrough_and_string(self):
        spec = SolverSpec("LAF")
        assert SolverSpec.coerce(spec) is spec
        assert SolverSpec.coerce("LAF") == spec

    def test_coerce_dict(self):
        spec = SolverSpec.coerce(
            {"name": "MCF-LTC", "params": {"batch_multiplier": 2.0}}
        )
        assert spec == SolverSpec.parse("MCF-LTC?batch_multiplier=2.0")

    def test_dict_requires_name_and_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            SolverSpec.from_dict({"params": {}})
        with pytest.raises(ValueError):
            SolverSpec.from_dict({"name": "LAF", "kwargs": {}})

    def test_coerce_rejects_other_types(self):
        with pytest.raises(TypeError):
            SolverSpec.coerce(42)

    def test_to_dict_round_trips(self):
        spec = SolverSpec.parse("Random?seed=3")
        assert SolverSpec.from_dict(spec.to_dict()) == spec

    def test_with_params_merges(self):
        spec = SolverSpec.parse("MCF-LTC?batch_multiplier=1.0")
        updated = spec.with_params(batch_multiplier=2.0, index_tiebreak=False)
        assert updated.params == {"batch_multiplier": 2.0, "index_tiebreak": False}
        # the original spec is unchanged (specs are immutable values)
        assert spec.params == {"batch_multiplier": 1.0}

    def test_params_copied_from_caller(self):
        params = {"seed": 1}
        spec = SolverSpec("Random", params)
        params["seed"] = 99
        assert spec.params == {"seed": 1}

    def test_specs_are_hashable_value_objects(self):
        a = SolverSpec.parse("MCF-LTC?batch_multiplier=2.0")
        b = SolverSpec.parse("MCF-LTC?batch_multiplier=2.0")
        c = SolverSpec.parse("MCF-LTC?batch_multiplier=4.0")
        assert hash(a) == hash(b)
        assert {a, b, c} == {a, c}
        assert {SolverSpec.parse("AAM"): 1}[SolverSpec("AAM")] == 1

    def test_ambiguous_string_values_are_rejected(self):
        # The string syntax types values by their text, so a str that reads
        # as another type could not survive parse(str(spec)).
        for ambiguous in ("7", "2.5", "true", "False"):
            with pytest.raises(ValueError, match="re-parse"):
                SolverSpec("Random", {"tag": ambiguous})
        # unambiguous strings are fine and round-trip
        spec = SolverSpec("Random", {"tag": "fast"})
        assert SolverSpec.parse(str(spec)) == spec

    def test_unsupported_value_types_are_rejected(self):
        # e.g. JSON null / nested structures from a service request
        for bad in (None, [1, 2], {"nested": 1}):
            with pytest.raises(ValueError, match="unsupported value"):
                SolverSpec("Random", {"x": bad})
        with pytest.raises(ValueError, match="NaN"):
            SolverSpec("Random", {"x": float("nan")})
        with pytest.raises(ValueError, match="must be a string"):
            SolverSpec.from_dict({"name": 5})


class TestBuildSolver:
    def test_builds_with_parameters(self):
        solver = build_solver("MCF-LTC?batch_multiplier=2.0&use_spatial_index=false")
        assert solver.batch_multiplier == 2.0
        assert solver.use_spatial_index is False

    @pytest.mark.parametrize(
        "spec, unknown, declared",
        [
            ("MCF-LTC?batch_size=3", "batch_size", "batch_multiplier"),
            ("MCF-LTC?index_tiebreak=false", "index_tiebreak", "batch_multiplier"),
            ("MCF-LTC?backend=numpy", "backend", "batch_multiplier"),
            ("LAF?candidates=numpy", "candidates", "use_spatial_index"),
        ],
    )
    def test_unknown_parameter_lists_declared_ones(self, spec, unknown, declared):
        with pytest.raises(ValueError, match="does not accept parameter") as excinfo:
            build_solver(spec)
        message = str(excinfo.value)
        assert unknown in message
        assert declared in message

    def test_unknown_solver_name_raises_keyerror(self):
        with pytest.raises(KeyError):
            build_solver("NoSuchSolver?x=1")

    def test_accepts_spec_objects_and_dicts(self):
        assert build_solver(SolverSpec("LAF")).name == "LAF"
        assert build_solver({"name": "AAM"}).name == "AAM"
