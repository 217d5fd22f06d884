"""Shared fixtures for the LTC reproduction test-suite."""

from __future__ import annotations

import contextlib
import faulthandler
import os
import sys
from typing import Iterator, TextIO

import numpy as np
import pytest

from repro.core.accuracy import ConstantAccuracy, SigmoidDistanceAccuracy
from repro.core.candidate_engine import engine as engine_module
from repro.core.examples import running_example_instance
from repro.core.instance import LTCInstance
from repro.core.task import Task
from repro.core.worker import Worker
from repro.datagen.synthetic import SyntheticConfig, generate_synthetic_instance
from repro.geo.point import Point

#: Where the hang guard writes its stack dump; unset when pytest-timeout
#: enforces the per-test cap itself.
_HANG_GUARD_STREAM = pytest.StashKey[TextIO]()


def pytest_configure(config):
    if not config.pluginmanager.hasplugin("timeout"):
        # Output capture is suspended while plugins configure, so this is
        # the real stderr.  The watchdog writes from C and would otherwise
        # land in a capture file that dies with the process.
        stream = os.fdopen(os.dup(sys.stderr.fileno()), "w")
        config.stash[_HANG_GUARD_STREAM] = stream


def pytest_unconfigure(config):
    stream = config.stash.get(_HANG_GUARD_STREAM, None)
    if stream is not None:
        stream.close()


@pytest.fixture(autouse=True)
def _hang_guard(request):
    """Per-test wall-clock cap for runs without pytest-timeout.

    pyproject's ``timeout`` only takes effect through that plugin.  Without
    it, a wedged test (a deadlock in the shard runtime, say) dumps every
    thread's stack and exits the run with an error instead of hanging it.
    """
    stream = request.config.stash.get(_HANG_GUARD_STREAM, None)
    if stream is None:
        yield
        return
    seconds = float(request.config.inicfg.get("timeout", 120))
    faulthandler.dump_traceback_later(seconds, exit=True, file=stream)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()


#: A vector cutover above every block a test gathers: every query runs the
#: candidate engine's scalar loops.
SCALAR_ONLY = 1 << 30

#: A vector cutover inside the blocks the tests gather through the grid
#: (2-23 candidates on ``small_synthetic_instance``, 0-6 on a six-task
#: dispatcher campaign; see :func:`grid_gather`), so one run switches
#: between the passes query by query, as production does at the shipped
#: cutover, and the lazy numpy mirrors are built mid-run and must track
#: every ``add_tasks``/``retire_tasks`` the scalar queries saw.  A flat
#: gather's block is the whole snapshot, so there it splits by snapshot
#: size instead.
MIXED_CUTOVER = 6

#: The cutover for each way of running the candidate engine.  ``0`` sends
#: every sigmoid query, empty blocks included, through the numpy pass.
ENGINE_PASSES = {"scalar": SCALAR_ONLY, "mixed": MIXED_CUTOVER, "vector": 0}


@contextlib.contextmanager
def vector_cutover(block: int) -> Iterator[None]:
    """Set the engine's ``VECTOR_MIN_BLOCK`` for the duration."""
    saved = engine_module.VECTOR_MIN_BLOCK
    engine_module.VECTOR_MIN_BLOCK = block
    try:
        yield
    finally:
        engine_module.VECTOR_MIN_BLOCK = saved


@pytest.fixture(params=sorted(ENGINE_PASSES))
def engine_pass(request) -> Iterator[str]:
    """Run the test once per way of running the engine's vector cutover.

    Every candidate query in the test then takes the scalar pass, the
    numpy pass, or whichever of the two its block size picks at
    :data:`MIXED_CUTOVER`, so one exactness test checks all three against
    the legacy oracle or the scalar results.  The value never changes mid-test, so it is safe under
    hypothesis.
    """
    with vector_cutover(ENGINE_PASSES[request.param]):
        yield request.param


@pytest.fixture
def grid_gather(monkeypatch) -> None:
    """Send every grid-mode query through the CSR cells and the spill.

    A snapshot of at most ``SPILL_REBUILD_MIN`` tasks is otherwise queried
    by one flat scan over every position, so without this the small
    instances of the exactness tests would never reach the cells.  Below
    zero, the constant also leaves only the fractional term of the spill
    rebuild threshold, so grids are rebuilt sooner; no query result
    depends on when that happens.
    """
    monkeypatch.setattr(engine_module, "SPILL_REBUILD_MIN", -1)


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic numpy generator."""
    return np.random.default_rng(12345)


@pytest.fixture
def running_example() -> LTCInstance:
    """The paper's Tables I/II running example (3 tasks, 8 workers, eps=0.2)."""
    return running_example_instance()


@pytest.fixture
def tiny_instance() -> LTCInstance:
    """A 2-task / 6-worker instance with constant accuracy 0.9 (Acc* = 0.64).

    delta = 2*ln(1/0.2) ~= 3.22, so each task needs ceil(3.22 / 0.64) = 6
    assignments worth of work in total across both tasks; with K = 2 the
    instance is comfortably feasible.
    """
    tasks = [Task.at(0, 0.0, 0.0), Task.at(1, 5.0, 0.0)]
    workers = [
        Worker.at(index, float(index), 1.0, accuracy=0.9, capacity=2)
        for index in range(1, 7)
    ]
    return LTCInstance(
        tasks=tasks,
        workers=workers,
        error_rate=0.2,
        accuracy_model=ConstantAccuracy(0.9),
        name="tiny constant-accuracy instance",
    )


@pytest.fixture(scope="session")
def small_synthetic_instance() -> LTCInstance:
    """A small but realistic synthetic instance shared across tests.

    Session-scoped because generation plus repeated solving would otherwise
    dominate the suite's runtime; tests must not mutate it.
    """
    config = SyntheticConfig(
        num_tasks=40,
        num_workers=700,
        capacity=6,
        error_rate=0.14,
        grid_size=130.0,
        seed=101,
        name="test synthetic",
    )
    return generate_synthetic_instance(config)


@pytest.fixture
def sigmoid_model() -> SigmoidDistanceAccuracy:
    """The paper's accuracy model with the default d_max = 30."""
    return SigmoidDistanceAccuracy(d_max=30.0)


def make_worker(index: int, x: float, y: float, accuracy: float = 0.9,
                capacity: int = 2) -> Worker:
    """Helper used by several test modules."""
    return Worker(index=index, location=Point(x, y), accuracy=accuracy,
                  capacity=capacity)


def make_task(task_id: int, x: float, y: float) -> Task:
    """Helper used by several test modules."""
    return Task(task_id=task_id, location=Point(x, y))
