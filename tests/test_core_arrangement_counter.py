"""Property test for Arrangement's running open-task count.

``is_complete()`` reads a counter that ``assign``, ``add_tasks`` and
``abandon_tasks`` keep in step.  Random interleavings of the three must
leave it equal to a from-scratch rescan (``uncompleted_tasks()``) after
every step, including partly filled tasks that get abandoned and a
``delta`` below the completion tolerance (fresh tasks are then complete).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.accuracy import TabularAccuracy
from repro.core.arrangement import Arrangement
from repro.core.exceptions import CapacityExceeded, DuplicateAssignment
from repro.core.task import Task
from repro.core.worker import Worker
from repro.geo.point import Point

NUM_WORKERS = 4
INITIAL_TASKS = 4
MAX_TASKS = 10

#: Acc* of these accuracies: 0, 0.1024, 0.36, 0.81, 1 (0 never closes a task).
ACCURACIES = [0.5, 0.66, 0.8, 0.95, 1.0]

operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("assign"),
            st.integers(1, NUM_WORKERS),
            st.integers(0, MAX_TASKS - 1),
        ),
        st.tuples(st.just("add"), st.integers(1, 3)),
        st.tuples(
            st.just("abandon"),
            st.lists(st.integers(0, MAX_TASKS - 1), min_size=1, max_size=3),
        ),
    ),
    max_size=40,
)


def _task(task_id):
    return Task(task_id=task_id, location=Point(float(task_id), 0.0))


def _check_counter(arrangement):
    assert arrangement.is_complete() == (not arrangement.uncompleted_tasks())
    for tolerance in (0.0, 1e-6, 0.3):
        assert arrangement.is_complete(tolerance=tolerance) == (
            not arrangement.uncompleted_tasks(tolerance)
        )
    summary = arrangement.summary()
    completed = summary["tasks_total"] - summary["tasks_abandoned"]
    assert summary["tasks_completed"] == completed - len(
        arrangement.uncompleted_tasks()
    )


@settings(max_examples=200, deadline=None)
@given(
    delta=st.sampled_from([1e-12, 0.36, 1.0, 1.5]),
    table=st.lists(
        st.sampled_from(ACCURACIES),
        min_size=NUM_WORKERS * MAX_TASKS,
        max_size=NUM_WORKERS * MAX_TASKS,
    ),
    ops=operations,
)
def test_is_complete_matches_a_rescan_after_every_step(delta, table, ops):
    model = TabularAccuracy(
        {
            (index, task_id): table[(index - 1) * MAX_TASKS + task_id]
            for index in range(1, NUM_WORKERS + 1)
            for task_id in range(MAX_TASKS)
        }
    )
    workers = {
        index: Worker(index=index, location=Point(0.0, 0.0), accuracy=0.9, capacity=4)
        for index in range(1, NUM_WORKERS + 1)
    }
    posted = INITIAL_TASKS
    arrangement = Arrangement([_task(i) for i in range(posted)], delta, model)
    _check_counter(arrangement)

    for op in ops:
        if op[0] == "assign":
            _, index, task_id = op
            if task_id >= posted or arrangement.is_task_abandoned(task_id):
                continue
            try:
                arrangement.assign(workers[index], _task(task_id))
            except (CapacityExceeded, DuplicateAssignment):
                continue
        elif op[0] == "add":
            count = min(op[1], MAX_TASKS - posted)
            arrangement.add_tasks([_task(posted + i) for i in range(count)])
            posted += count
        else:
            task_ids = [task_id for task_id in op[1] if task_id < posted]
            blocked = any(
                arrangement.is_task_complete(task_id)
                and not arrangement.is_task_abandoned(task_id)
                for task_id in task_ids
            )
            if blocked:
                # A rejected call must leave the counter untouched.
                with pytest.raises(ValueError):
                    arrangement.abandon_tasks(task_ids)
            else:
                arrangement.abandon_tasks(task_ids)
        _check_counter(arrangement)
