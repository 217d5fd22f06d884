"""Shared fixtures for the LTC reproduction test-suite."""

from __future__ import annotations

import faulthandler
import os
import sys
from typing import TextIO

import numpy as np
import pytest

from repro.core.accuracy import ConstantAccuracy, SigmoidDistanceAccuracy
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
