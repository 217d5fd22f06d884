"""Conformance: MCF-LTC arrangements are byte-identical across the kernel refactor.

``tests/data/mcf_ltc_conformance.json`` was captured at commit 232a14f,
immediately *before* the flow layer was rewritten onto the array kernel
(object-graph ``FlowNetwork``, Bellman-Ford potentials, per-batch network
rebuild, float-epsilon index tie-breaking).  These tests replay the same
seeded synthetic instances through the current solver and require the
exact assignment sequence — worker and task ids in order — plus the
headline metrics to match, with the candidate engine's eligible pairs
produced by each side of its vector cutover and by a cutover that
splits the blocks between them (the ``engine_pass`` fixture).

If an intentional algorithmic change legitimately alters the optimal
arrangements, regenerate the fixture and say so in the commit message; an
unexplained diff here means the refactor changed behaviour.
"""

import json
from pathlib import Path

import pytest

from repro.algorithms.mcf_ltc import MCFLTCSolver
from repro.datagen.synthetic import SyntheticConfig, generate_synthetic_instance

FIXTURE = Path(__file__).parent / "data" / "mcf_ltc_conformance.json"


def load_cases():
    with FIXTURE.open() as fh:
        return json.load(fh)["cases"]


@pytest.mark.parametrize("case", load_cases(), ids=lambda c: f"seed{c['config']['seed']}")
class TestArrangementConformance:
    def test_assignments_identical_to_pre_refactor_capture(self, case, engine_pass):
        cfg = case["config"]
        instance = generate_synthetic_instance(
            SyntheticConfig(name=f"conformance-{cfg['seed']}", **cfg)
        )
        result = MCFLTCSolver().solve(instance)
        assignments = [[a.worker_index, a.task_id] for a in result.arrangement.assignments]
        assert assignments == case["assignments"]
        assert result.completed == case["completed"]
        assert result.max_latency == case["max_latency"]
        assert result.workers_observed == case["workers_observed"]
        assert result.extra["flow_units"] == case["flow_units"]
        assert result.extra["batches"] == case["batches"]

    def test_arrangement_satisfies_all_constraints(self, case, engine_pass):
        cfg = case["config"]
        instance = generate_synthetic_instance(
            SyntheticConfig(name=f"conformance-{cfg['seed']}", **cfg)
        )
        result = MCFLTCSolver().solve(instance)
        assert result.arrangement.constraint_violations(
            instance.workers_by_index()
        ) == []
