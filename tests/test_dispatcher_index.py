"""Exactness of the dispatcher's reach-box routing index.

``LTCDispatcher.feed_worker`` probes only the sessions whose reach box
covers the arrival's cell, plus an always-probe list.  The index is a
superset prefilter, so every arrival must reach exactly the sessions, in
exactly the order, that a probe of every open session would reach.  The
differential test drives the indexed dispatcher and a full-scan oracle in
lockstep through interleaved opens, task posts, expiries, closes,
adoptions and arrivals, and compares every return value and the metrics.
"""

from __future__ import annotations

import math
from typing import Dict, List

import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from repro.core.accuracy import ConstantAccuracy, SigmoidDistanceAccuracy
from repro.core.arrangement import Assignment
from repro.core.candidates import (
    CandidateFinder,
    instance_reach_radius,
    tasks_reach_bounds,
)
from repro.core.instance import LTCInstance
from repro.core.task import Task
from repro.core.worker import Worker
from repro.service import LTCDispatcher


class FullScanDispatcher(LTCDispatcher):
    """The oracle: probe every open session on every arrival."""

    def feed_worker(self, worker: Worker) -> Dict[str, List[Assignment]]:
        started = self._clock()
        self._metrics.workers_fed += 1
        deliveries: Dict[str, List[Assignment]] = {}
        for managed in self._sessions.values():
            if managed.complete:
                continue
            if not managed.candidates.has_candidates(worker):
                continue
            assignments = managed.deliver(worker)
            deliveries[managed.session_id] = assignments
            self._metrics.workers_routed += 1
            self._metrics.assignments_made += len(assignments)
            if managed.session.is_complete:
                managed.complete = True
                self._metrics.sessions_completed += 1
        if not deliveries:
            self._metrics.workers_unrouted += 1
        self._metrics.busy_seconds += self._clock() - started
        return deliveries


def arrival(index: int, x: float, y: float, accuracy: float = 0.9) -> Worker:
    return Worker.at(index, x, y, accuracy=accuracy, capacity=2)


#: Session kinds: (accuracy model, min_assignable_accuracy).  ``wide``
#: covers more cells than the index files when a narrow session set the
#: cell side; ``zero`` and ``constant`` have no finite reach radius.
KINDS = {
    "narrow": (SigmoidDistanceAccuracy(d_max=5.0), 0.66),
    "wide": (SigmoidDistanceAccuracy(d_max=400.0), 0.66),
    "zero": (SigmoidDistanceAccuracy(d_max=5.0), 0.0),
    "constant": (ConstantAccuracy(0.9), 0.66),
}

#: Cell sides the index can pick: the reach diameter of a narrow or a
#: wide session, whichever bounded kind opens first.
SIDES = [
    2.0 * instance_reach_radius(
        LTCInstance(
            tasks=[Task.at(0, 0.0, 0.0)],
            workers=[arrival(1, 0.0, 0.0)],
            error_rate=0.2,
            accuracy_model=model,
            min_assignable_accuracy=threshold,
        )
    )
    for model, threshold in (KINDS["narrow"], KINDS["wide"])
]


def make_instance(kind: str, tasks: List[Task], name: str) -> LTCInstance:
    model, threshold = KINDS[kind]
    return LTCInstance(
        tasks=tasks,
        workers=[arrival(1, 0.0, 0.0)],
        error_rate=0.2,
        accuracy_model=model,
        name=name,
        min_assignable_accuracy=threshold,
    )


def frozen_clock() -> float:
    return 0.0


class Lockstep:
    """An indexed dispatcher and the full-scan oracle, fed the same calls."""

    def __init__(self) -> None:
        self.indexed, self.oracle = self.pair()
        self.next_session = 0
        self.next_task = 0
        self.arrivals = 0
        #: Open session id -> (instance, every task, reach box or None).
        self.sessions: Dict[str, list] = {}

    def pair(self):
        return (
            LTCDispatcher(clock=frozen_clock),
            FullScanDispatcher(clock=frozen_clock),
        )

    def tasks_around(self, cx: float, cy: float, offsets) -> List[Task]:
        tasks = []
        for ox, oy in offsets:
            tasks.append(Task.at(self.next_task, cx + ox, cy + oy))
            self.next_task += 1
        return tasks

    def open(self, dispatchers, kind, solver, cx, cy, offsets) -> None:
        session_id = f"s{self.next_session}"
        self.next_session += 1
        instance = make_instance(kind, self.tasks_around(cx, cy, offsets), session_id)
        for dispatcher in dispatchers:
            assert dispatcher.submit_instance(
                instance, solver=solver, session_id=session_id
            ) == session_id
        self.sessions[session_id] = [
            instance,
            list(instance.tasks),
            tasks_reach_bounds(instance),
        ]

    def post(self, session_id, cx, cy, offsets) -> None:
        instance, posted, box = self.sessions[session_id]
        tasks = self.tasks_around(cx, cy, offsets)
        for dispatcher in (self.indexed, self.oracle):
            dispatcher.submit_tasks(session_id, tasks)
        posted.extend(tasks)
        if box is not None:
            grown = tasks_reach_bounds(instance, tasks)
            self.sessions[session_id][2] = type(box)(
                min(box.min_x, grown.min_x), min(box.min_y, grown.min_y),
                max(box.max_x, grown.max_x), max(box.max_y, grown.max_y),
            )
        self.check_metrics()

    def expire(self, session_id, task_ids) -> None:
        expired = [
            dispatcher.expire_tasks(session_id, task_ids)
            for dispatcher in (self.indexed, self.oracle)
        ]
        assert expired[0] == expired[1]
        self.check_metrics()

    def close(self, session_id) -> None:
        results = [
            dispatcher.close(session_id)
            for dispatcher in (self.indexed, self.oracle)
        ]
        assert repr(results[0].arrangement.assignments) == repr(
            results[1].arrangement.assignments
        )
        assert results[0].max_latency == results[1].max_latency
        del self.sessions[session_id]
        self.check_metrics()

    def adopt(self, draws) -> None:
        """Open sessions on a donor pair, feed them, then adopt them."""
        donors = self.pair()
        for kind, solver, cx, cy, offsets in draws["opens"]:
            self.open(donors, kind, solver, cx, cy, offsets)
        for x, y, accuracy in draws["arrivals"]:
            self.compare_feed(donors, x, y, accuracy)
        adopted = [
            receiver.adopt_sessions(donor)
            for receiver, donor in zip((self.indexed, self.oracle), donors)
        ]
        assert adopted[0] == adopted[1]
        assert donors[0].session_ids == donors[1].session_ids == []
        self.check_metrics()

    def feed(self, x, y, accuracy) -> None:
        self.compare_feed((self.indexed, self.oracle), x, y, accuracy)
        self.check_metrics()

    def compare_feed(self, dispatchers, x, y, accuracy) -> None:
        self.arrivals += 1
        worker = arrival(self.arrivals, x, y, accuracy)
        got, want = (dispatcher.feed_worker(worker) for dispatcher in dispatchers)
        assert list(got.items()) == list(want.items())

    def check_metrics(self) -> None:
        assert self.indexed.metrics == self.oracle.metrics
        assert self.indexed.session_ids == self.oracle.session_ids

    def edge_coordinates(self) -> List[float]:
        """Reach-box edges (and their float neighbours) and cell borders."""
        values = [side * k for side in SIDES for k in (-2, -1, 0, 1, 2)]
        for _, _, box in self.sessions.values():
            if box is None:
                continue
            for edge in (box.min_x, box.max_x, box.min_y, box.max_y):
                values += [edge, math.nextafter(edge, math.inf),
                           math.nextafter(edge, -math.inf)]
        return values


#: Shared centres make sessions overlap, so grown boxes reach cells that
#: newer sessions already occupy.
coordinates = st.one_of(
    st.sampled_from([-17.0, 0.0, 17.0]), st.floats(-40.0, 40.0)
)
offsets = st.lists(
    st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
    min_size=1, max_size=3,
)
open_args = st.tuples(
    st.sampled_from(["narrow", "narrow", "narrow", "wide", "zero", "constant"]),
    st.sampled_from(["AAM", "LAF"]),
    coordinates,
    coordinates,
    offsets,
)
accuracies = st.sampled_from([1.0, 0.9, 0.7])


def draw_point(data, lockstep: Lockstep):
    """A point on an edge, near a session's tasks, or anywhere."""
    where = data.draw(st.sampled_from(["edge", "tasks", "tasks", "anywhere"]))
    if where == "edge":
        edges = st.sampled_from(lockstep.edge_coordinates())
        return data.draw(edges), data.draw(st.one_of(edges, coordinates))
    if where == "tasks" and lockstep.sessions:
        session_id = data.draw(st.sampled_from(sorted(lockstep.sessions)))
        task = data.draw(st.sampled_from(lockstep.sessions[session_id][1]))
        return (task.location.x + data.draw(st.floats(-4.0, 4.0)),
                task.location.y + data.draw(st.floats(-4.0, 4.0)))
    return data.draw(coordinates), data.draw(coordinates)


OPS = ["open", "post", "post_far", "expire", "expire_all", "close", "adopt",
       "feed", "feed", "feed", "feed", "feed"]


@settings(max_examples=80, deadline=None,
          # ``engine_pass`` is set once per test, not per example.
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture],
          phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink])
@given(data=st.data())
def test_indexed_routing_matches_a_full_scan(engine_pass, data):
    lockstep = Lockstep()
    for _ in range(data.draw(st.integers(1, 3))):
        lockstep.open((lockstep.indexed, lockstep.oracle), *data.draw(open_args))
    for _ in range(data.draw(st.integers(5, 25))):
        op = data.draw(st.sampled_from(OPS))
        open_ids = sorted(lockstep.sessions)
        if op == "open" or not open_ids:
            lockstep.open((lockstep.indexed, lockstep.oracle), *data.draw(open_args))
        elif op in ("post", "post_far"):
            session_id = data.draw(st.sampled_from(open_ids))
            if op == "post":
                cx, cy = data.draw(coordinates), data.draw(coordinates)
            else:
                # Far enough to span hundreds of narrow cells, on one or
                # both axes (the latter exceeds the filed-cell cap).
                far = st.sampled_from([-2000.0, 0.0, 900.0, 2000.0])
                cx, cy = data.draw(far), data.draw(far)
            lockstep.post(session_id, cx, cy, data.draw(offsets))
        elif op in ("expire", "expire_all"):
            session_id = data.draw(st.sampled_from(open_ids))
            task_ids = [task.task_id for task in lockstep.sessions[session_id][1]]
            if op == "expire":
                task_ids = data.draw(st.lists(st.sampled_from(task_ids),
                                              unique=True))
            lockstep.expire(session_id, list(task_ids))
        elif op == "close":
            lockstep.close(data.draw(st.sampled_from(open_ids)))
        elif op == "adopt":
            lockstep.adopt({
                "opens": data.draw(st.lists(open_args, min_size=1, max_size=2)),
                "arrivals": data.draw(st.lists(
                    st.tuples(coordinates, coordinates, accuracies), max_size=4
                )),
            })
        else:
            x, y = draw_point(data, lockstep)
            lockstep.feed(x, y, data.draw(accuracies))
    for session_id in sorted(lockstep.sessions):
        lockstep.close(session_id)


# ------------------------------------------------------------ worked cases


def district(kind: str, cx: float, cy: float, tid0: int, name: str) -> LTCInstance:
    tasks = [Task.at(tid0 + i, cx + 2.0 * i, cy) for i in range(2)]
    return make_instance(kind, tasks, name)


@pytest.fixture
def probe_counter(monkeypatch):
    """Count every ``has_candidates`` probe the dispatcher makes."""
    calls = []
    original = CandidateFinder.has_candidates

    def counting(self, worker):
        calls.append(worker.index)
        return original(self, worker)

    monkeypatch.setattr(CandidateFinder, "has_candidates", counting)
    return calls


def test_an_arrival_probes_only_the_sessions_around_it(probe_counter):
    dispatcher = LTCDispatcher()
    for number, (cx, cy) in enumerate([(0.0, 0.0), (500.0, 0.0), (0.0, -500.0)]):
        dispatcher.submit_instance(
            district("narrow", cx, cy, 10 * number, f"d{number}"),
            session_id=f"d{number}",
        )
    deliveries = dispatcher.feed_worker(arrival(1, 501.0, 0.0))
    assert list(deliveries) == ["d1"]
    assert probe_counter == [1]
    # An arrival far from every box probes nothing at all.
    assert dispatcher.feed_worker(arrival(2, 250.0, 250.0)) == {}
    assert probe_counter == [1]
    assert dispatcher.metrics.workers_unrouted == 1


def test_always_probe_sessions_keep_their_submission_order(probe_counter):
    """Unbounded sessions interleave with indexed ones by submission order."""
    dispatcher = LTCDispatcher()
    opened = []
    for number, kind in enumerate(["narrow", "constant", "narrow", "zero"]):
        session_id = dispatcher.submit_instance(
            district(kind, 0.0, 0.0, 10 * number, kind), session_id=f"{number}-{kind}"
        )
        opened.append(session_id)
    deliveries = dispatcher.feed_worker(arrival(1, 1.0, 0.0))
    assert list(deliveries) == opened
    # Far away only the two unbounded sessions are probed, in order.
    far = dispatcher.feed_worker(arrival(2, 900.0, 900.0))
    assert list(far) == ["1-constant", "3-zero"]
    assert probe_counter == [1, 1, 1, 1, 2, 2]


def test_posted_tasks_grow_the_box_and_reopen_the_session():
    dispatcher = LTCDispatcher()
    session_id = dispatcher.submit_instance(district("narrow", 0.0, 0.0, 0, "d"))
    away = arrival(1, 300.0, -300.0)
    assert dispatcher.feed_worker(away) == {}
    dispatcher.expire_tasks(session_id, [0, 1])
    assert dispatcher.all_complete
    dispatcher.submit_tasks(session_id, [Task.at(7, 300.0, -301.0)])
    assert not dispatcher.all_complete
    assert list(dispatcher.feed_worker(away)) == [session_id]


def test_closed_and_adopted_sessions_leave_and_join_the_index(probe_counter):
    donor, receiver = LTCDispatcher(), LTCDispatcher()
    receiver.submit_instance(district("narrow", 0.0, 0.0, 0, "r"), session_id="r")
    donor.submit_instance(district("narrow", 0.0, 0.0, 0, "d"), session_id="d")
    assert receiver.adopt_sessions(donor) == ["d"]
    assert list(receiver.feed_worker(arrival(1, 1.0, 0.0))) == ["r", "d"]
    receiver.close("r")
    assert list(receiver.feed_worker(arrival(2, 1.0, 0.0))) == ["d"]
    # The emptied donor serves nothing, however it is fed.
    probe_counter.clear()
    assert donor.feed_worker(arrival(1, 1.0, 0.0)) == {}
    assert probe_counter == []


def test_grown_and_demoted_sessions_keep_their_submission_order():
    """A box grown into a newer session's cell, or past the filed-cell cap
    onto the always-probe list, still probes before newer sessions."""
    dispatcher = LTCDispatcher()
    dispatcher.submit_instance(district("narrow", 0.0, 0.0, 0, "old"), session_id="old")
    dispatcher.submit_instance(district("narrow", 100.0, 0.0, 10, "new"), session_id="new")
    dispatcher.submit_instance(district("constant", 0.0, 0.0, 20, "any"), session_id="any")
    dispatcher.submit_tasks("old", [Task.at(5, 100.0, 1.0)])
    expected = ["old", "new", "any"]
    assert list(dispatcher.feed_worker(arrival(1, 100.0, 0.5))) == expected
    # A task far off on both axes spans more cells than the index files.
    dispatcher.submit_tasks("old", [Task.at(6, 5000.0, 5000.0)])
    assert list(dispatcher.feed_worker(arrival(2, 100.0, 0.5))) == expected
