"""Registry-wide conformance suite.

Every registered solver — offline or online, builtin or ablation variant —
must round-trip its spec, honour the incremental Session protocol, and
produce the same arrangement whether run through ``solve()`` or driven
arrival by arrival through a session.
"""

import pytest

from repro.algorithms.registry import available_solvers, build_solver, solver_entry
from repro.algorithms.spec import SolverSpec
from repro.core.session import Session, SessionStateError
from repro.core.stream import WorkerStream
from repro.core.task import Task


def all_solver_names():
    # Exclude runtime registrations from other test modules (they may not be
    # constructible here); the builtin set is what the suite guarantees.
    builtin = {
        "MCF-LTC", "Base-off", "Random", "LAF", "AAM",
        "Exact", "LGF-only", "LRF-only",
    }
    return sorted(set(available_solvers()) & builtin)


@pytest.mark.parametrize("name", all_solver_names())
class TestRegistryConformance:
    def test_spec_round_trips(self, name):
        spec = SolverSpec(name)
        assert SolverSpec.parse(str(spec)) == spec
        assert build_solver(spec).name == name

    def test_entry_capabilities_match_solver(self, name):
        entry = solver_entry(name)
        solver = build_solver(name)
        assert entry.capabilities.online == solver.is_online

    def test_session_protocol(self, name, tiny_instance):
        session = build_solver(name).open_session(tiny_instance)
        assert isinstance(session, Session)
        assert session.algorithm == name
        assert not session.is_complete

        before = session.snapshot()
        assert before.workers_observed == 0
        assert before.num_assignments == 0
        assert before.tasks_total == tiny_instance.num_tasks

        result = session.drive(WorkerStream(tiny_instance.workers))
        after = session.snapshot()
        assert after.workers_observed == result.workers_observed
        assert after.num_assignments == result.num_assignments
        assert after.max_latency == result.max_latency
        assert after.complete == session.is_complete

        # Mid-stream submission is part of the protocol: online solvers
        # absorb the task into their live snapshot (reopening completion),
        # offline replays refuse with SessionStateError.
        if solver_entry(name).capabilities.online:
            tasks_before = session.snapshot().tasks_total
            session.submit_tasks([Task.at(99, 0.0, 0.0)])
            assert session.snapshot().tasks_total == tasks_before + 1
            assert not session.is_complete
        else:
            with pytest.raises(SessionStateError):
                session.submit_tasks([Task.at(99, 0.0, 0.0)])

    def test_solve_and_session_drive_agree(self, name, tiny_instance):
        solved = build_solver(name).solve(tiny_instance)
        driven = build_solver(name).open_session(tiny_instance).drive(
            WorkerStream(tiny_instance.workers)
        )
        assert driven.algorithm == solved.algorithm == name
        assert driven.completed == solved.completed
        assert driven.max_latency == solved.max_latency
        assert (
            {a.as_tuple() for a in driven.arrangement}
            == {a.as_tuple() for a in solved.arrangement}
        )


@pytest.mark.parametrize(
    "name", [name for name in all_solver_names() if build_solver(name).is_online]
)
def test_select_then_commit_matches_observe(name, tiny_instance):
    """An online solver's ``select`` changes nothing, and committing its
    selection assigns what a standalone ``observe`` would, also while
    tasks are posted and expired mid-stream."""
    fused = build_solver(name).open_session(tiny_instance)
    standalone = build_solver(name).open_session(tiny_instance)
    for worker in tiny_instance.workers:
        if standalone.is_complete:
            break
        if worker.index == 3:
            for session in (fused, standalone):
                session.submit_tasks([Task.at(7, 2.0, 0.0), Task.at(8, 3.0, 0.0)])
        if worker.index == 5:
            assert fused.expire_tasks([0, 8]) == standalone.expire_tasks([0, 8]) == [0, 8]
        before = fused.snapshot()
        rng = getattr(fused._online, "_rng", None)
        rng_state = None if rng is None else rng.bit_generator.state
        selection = fused.select(worker)
        assert fused.snapshot() == before
        if rng is not None:
            assert fused._online._rng.bit_generator.state == rng_state
        got = fused.on_worker(worker, selection)
        want = standalone.on_worker(worker)
        assert got == want
        if selection is None:
            assert want == []
    assert fused.result().extra == standalone.result().extra
    assert fused.snapshot() == standalone.snapshot()
