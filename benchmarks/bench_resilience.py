"""Benchmark: what fault tolerance costs, and what recovery buys.

The recovery layer (``repro.service.recovery``) journals every arrival a
shard observes so a crashed shard can be rebuilt byte-identically by
replay.  Journaling is pure overhead on the fault-free path, and replay
is the price of a crash — this suite measures both on the seeded replay
workload from :mod:`repro.service.loadgen`:

* **journaling** (timed) — the identical stream through the sharded
  dispatcher under ``fail-fast`` (no journal: the zero-overhead
  baseline), under ``restart`` with journaling but no faults (the
  steady-state overhead), and under ``restart`` with three seeded
  mid-stream shard crashes (overhead plus recovery, end to end).  Every
  run must produce per-session arrangements byte-identical to the
  fail-fast baseline — crashes included — asserted via fingerprints.
* **crash_recovery** (observational) — one geo shard, a single seeded
  crash swept across journal lengths; reports the replay latency per
  journal length (from :attr:`~repro.service.RecoveryEvent.duration_seconds`)
  and the deterministic replayed-arrival counts.  Replay times are
  machine-dependent and excluded from the exactness fingerprint; the
  counts and arrangement digests are included.
* **quarantine** (observational) — a seeded crash under
  ``on_shard_failure="quarantine"``: migrated session count, replayed
  arrivals and post-migration discard accounting (all deterministic, so
  all fingerprinted).

The suite registers with the shared registry in :mod:`_common` and is
run through ``benchmarks/bench_all.py`` into ``BENCH_all.json``; a
standalone run writes a scratch report under ``benchmarks/results/``.

Usage::

    PYTHONPATH=src python benchmarks/bench_resilience.py --smoke
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

import _common
from _common import BenchSuite, SuiteResult

from repro.service import (
    FaultPlan,
    FaultSpec,
    RecoveryPolicy,
    ShardedDispatcher,
    ShardPlan,
)
from repro.service.loadgen import BurstWindow, ReplayConfig, build_workload


GEO_SHARDS = [0, 1, 2, 3]  # the 2x2 grid the timed section shards over


def make_config(args) -> ReplayConfig:
    return ReplayConfig(
        seed=args.seed,
        city_cols=2,
        city_rows=2,
        city_spacing=1000.0,
        city_radius=50.0,
        campaigns_per_city=args.campaigns_per_city,
        tasks_per_campaign=args.tasks_per_campaign,
        num_workers=args.workers,
        worker_spread=1.4,
        diurnal_amplitude=0.5,
        bursts=(BurstWindow(0.4, 0.5, hot_city=3, intensity=2.5, city_bias=3.0),),
        error_rate=args.error_rate,
        capacity=args.capacity,
    )


def fingerprint(results) -> Dict[str, str]:
    return {
        session_id: _common.digest(result.arrangement.assignments)
        for session_id, result in results.items()
    }


def run_policy(workload, policy: Optional[RecoveryPolicy],
               faults: Optional[FaultPlan], queue_capacity: int) -> dict:
    plan = ShardPlan.for_region(workload.config.bounds, cols=2, rows=2)
    dispatcher = ShardedDispatcher(
        plan,
        default_solver="AAM",
        queue_capacity=queue_capacity,
        recovery=policy,
        faults=faults,
    )
    for campaign in workload.campaigns:
        dispatcher.submit_instance(campaign)
    start = time.perf_counter()
    for worker in workload.worker_stream():
        dispatcher.feed_worker(worker)
    dispatcher.drain()
    wall = time.perf_counter() - start
    results = dispatcher.close_all()
    metrics = dispatcher.metrics
    journal_entries = sum(s.journal_entries for s in dispatcher.shard_status())
    dispatcher.stop()
    return {
        "wall_s": wall,
        "offered": dispatcher.arrivals_offered,
        "restarts": metrics.restarts,
        "replayed_arrivals": metrics.replayed_arrivals,
        "journal_entries": journal_entries,
        "fingerprints": fingerprint(results),
    }


def bench_journaling(workload, repeats: int, queue_capacity: int,
                     crash_seed: int):
    """Timed: fail-fast vs journaled vs journaled-plus-recovery."""
    crash_plan = FaultPlan.seeded(
        seed=crash_seed, shard_ids=GEO_SHARDS,
        max_arrival=max(1, workload.config.num_workers // 20), crashes=3,
    )
    runners = {
        "fail_fast": lambda: run_policy(
            workload, None, None, queue_capacity),
        "journaled": lambda: run_policy(
            workload, RecoveryPolicy(on_shard_failure="restart"), None,
            queue_capacity),
        "journaled_3_crashes": lambda: run_policy(
            workload, RecoveryPolicy(on_shard_failure="restart"), crash_plan,
            queue_capacity),
    }
    times: Dict[str, List[float]] = {impl: [] for impl in runners}
    outputs: Dict[str, dict] = {}
    for _ in range(repeats):
        for impl, runner in runners.items():
            outputs[impl] = runner()
            times[impl].append(outputs[impl]["wall_s"])
    baseline = outputs["fail_fast"]
    for impl, output in outputs.items():
        if output["fingerprints"] != baseline["fingerprints"]:
            raise AssertionError(
                f"{impl} arrangements diverged from fail_fast — recovery "
                "broke exactness"
            )
    if outputs["journaled_3_crashes"]["restarts"] != 3:
        raise AssertionError(
            "expected all 3 seeded crashes to fire and recover, got "
            f"{outputs['journaled_3_crashes']['restarts']} restarts"
        )
    medians_s = {impl: statistics.median(times[impl]) for impl in runners}
    speedups = {
        f"{impl}_vs_fail_fast": _common.ratio(medians_s["fail_fast"], median)
        for impl, median in medians_s.items()
        if impl != "fail_fast"
    }
    cases = {}
    for impl, output in outputs.items():
        cases[impl] = {
            "wall_ms_median": round(medians_s[impl] * 1000, 3),
            "throughput_per_s": round(output["offered"] / medians_s[impl], 1),
            "restarts": output["restarts"],
            "replayed_arrivals": output["replayed_arrivals"],
            "journal_entries": output["journal_entries"],
            "byte_identical_to_fail_fast": True,
        }
    section = {
        "baseline": "fail_fast",
        "timings_ms": {
            impl: round(median * 1000, 3) for impl, median in medians_s.items()
        },
        "speedups": speedups,
        "cases": cases,
    }
    witness = {
        "offered": baseline["offered"],
        "fingerprints": baseline["fingerprints"],
        "crash_replayed_arrivals":
            outputs["journaled_3_crashes"]["replayed_arrivals"],
    }
    return section, witness


def bench_crash_recovery(workload, crash_arrivals, queue_capacity: int):
    """Observational: replay latency as a function of journal length.

    One geo shard covers the whole region, so the crash ordinal is the
    journal's worker count at the moment of failure.  Replay wall time is
    machine-dependent (reported, not fingerprinted); the replayed counts
    and resulting arrangements are deterministic (fingerprinted).
    """
    metrics = {}
    witness = {}
    for at_arrival in crash_arrivals:
        plan = ShardPlan.for_region(workload.config.bounds, cols=1, rows=1)
        faults = FaultPlan(
            faults=(FaultSpec(kind="crash", shard_id=0, at_arrival=at_arrival),)
        )
        dispatcher = ShardedDispatcher(
            plan,
            default_solver="AAM",
            queue_capacity=queue_capacity,
            recovery=RecoveryPolicy(on_shard_failure="restart"),
            faults=faults,
        )
        for campaign in workload.campaigns:
            dispatcher.submit_instance(campaign)
        for worker in workload.worker_stream():
            dispatcher.feed_worker(worker)
        dispatcher.drain()
        results = dispatcher.close_all()
        events = dispatcher.recovery_events
        if dispatcher.metrics.restarts != 1 or len(events) != 1:
            raise AssertionError(
                f"crash at arrival {at_arrival} did not fire exactly once "
                f"(restarts={dispatcher.metrics.restarts})"
            )
        event = events[0]
        dispatcher.stop()
        key = f"crash_at_{at_arrival}"
        metrics[key] = {
            "journal_arrivals_at_crash": event.replayed_arrivals,
            "replay_ms": round(event.duration_seconds * 1000, 3),
            "replay_us_per_arrival": round(
                event.duration_seconds * 1e6 / max(1, event.replayed_arrivals),
                2,
            ),
        }
        witness[key] = {
            "replayed_arrivals": event.replayed_arrivals,
            "fingerprints": fingerprint(results),
        }
    return {"metrics": metrics}, witness


def bench_quarantine(workload, at_arrival: int, queue_capacity: int):
    """Observational: serial quarantine — migration and shed accounting."""
    plan = ShardPlan.for_region(workload.config.bounds, cols=2, rows=2)
    faults = FaultPlan(
        faults=(FaultSpec(kind="crash", shard_id=0, at_arrival=at_arrival),)
    )
    dispatcher = ShardedDispatcher(
        plan,
        default_solver="AAM",
        queue_capacity=queue_capacity,
        recovery=RecoveryPolicy(on_shard_failure="quarantine"),
        faults=faults,
    )
    for campaign in workload.campaigns:
        dispatcher.submit_instance(campaign)
    for worker in workload.worker_stream():
        dispatcher.feed_worker(worker)
    dispatcher.drain()
    results = dispatcher.close_all()
    metrics = dispatcher.metrics
    entry = {
        "crash_at": at_arrival,
        "sessions_migrated": metrics.quarantined_sessions,
        "replayed_arrivals": metrics.replayed_arrivals,
        "arrivals_discarded": dispatcher.discarded_total,
        "restarts": metrics.restarts,
    }
    dispatcher.stop()
    witness = dict(entry, fingerprints=fingerprint(results))
    return {"metrics": {"serial_quarantine": entry}}, witness


def run_suite(args) -> SuiteResult:
    config_obj = make_config(args)
    workload = build_workload(config_obj)
    print(f"workload: {len(workload.campaigns)} campaigns over "
          f"{config_obj.num_cities} cities, {config_obj.num_workers} arrivals")

    journaling, journaling_witness = bench_journaling(
        workload, args.repeats, args.queue_capacity, args.crash_seed
    )
    for impl, entry in journaling["cases"].items():
        print(f"{impl:>20}  wall={entry['wall_ms_median']:>9.1f}ms  "
              f"throughput={entry['throughput_per_s']:>9.0f}/s  "
              f"restarts={entry['restarts']}  "
              f"journal={entry['journal_entries']}")

    crash, crash_witness = bench_crash_recovery(
        workload, args.crash_arrivals, args.queue_capacity
    )
    for key, entry in crash["metrics"].items():
        print(f"{key:>20}  replay={entry['replay_ms']:>8.2f}ms  "
              f"({entry['replay_us_per_arrival']:.1f}us/arrival over "
              f"{entry['journal_arrivals_at_crash']} arrivals)")

    quarantine, quarantine_witness = bench_quarantine(
        workload, args.quarantine_at, args.queue_capacity
    )
    entry = quarantine["metrics"]["serial_quarantine"]
    print(f"    serial_quarantine  migrated={entry['sessions_migrated']}  "
          f"replayed={entry['replayed_arrivals']}  "
          f"discarded={entry['arrivals_discarded']}")

    sections = {
        "journaling": journaling,
        "crash_recovery": crash,
        "quarantine": quarantine,
    }
    headline = {
        "journaled_vs_fail_fast":
            journaling["speedups"]["journaled_vs_fail_fast"],
        "journaled_3_crashes_vs_fail_fast":
            journaling["speedups"]["journaled_3_crashes_vs_fail_fast"],
    }
    config = {
        "cities": config_obj.num_cities,
        "campaigns": len(workload.campaigns),
        "campaigns_per_city": args.campaigns_per_city,
        "tasks_per_campaign": config_obj.tasks_per_campaign,
        "workers": config_obj.num_workers,
        "capacity": config_obj.capacity,
        "error_rate": config_obj.error_rate,
        "queue_capacity": args.queue_capacity,
        "crash_arrivals": list(args.crash_arrivals),
        "quarantine_at": args.quarantine_at,
        "crash_seed": args.crash_seed,
        "repeats": args.repeats,
        "seed": args.seed,
    }
    return SuiteResult(
        config=config,
        sections=sections,
        headline_speedups=headline,
        fingerprint_payload={
            "journaling": journaling_witness,
            "crash_recovery": crash_witness,
            "quarantine": quarantine_witness,
        },
    )


def add_arguments(parser) -> None:
    parser.add_argument("--workers", type=int, default=20_000,
                        help="length of the merged arrival stream")
    parser.add_argument("--campaigns-per-city", type=int, default=4)
    parser.add_argument("--tasks-per-campaign", type=int, default=12)
    parser.add_argument("--capacity", type=int, default=1)
    parser.add_argument("--error-rate", type=float, default=0.01)
    parser.add_argument("--queue-capacity", type=int, default=65536)
    parser.add_argument("--crash-arrivals", type=int, nargs="+",
                        default=[500, 2000, 8000],
                        help="journal lengths at which the single-shard "
                             "crash fires (crash_recovery section)")
    parser.add_argument("--quarantine-at", type=int, default=1000,
                        help="crash ordinal for the quarantine section")
    parser.add_argument("--crash-seed", type=int, default=1234,
                        help="seed for the 3-crash plan in the timed section")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=20180416)


SUITE = _common.register_suite(BenchSuite(
    name="resilience",
    description=(
        "Fault-tolerance pricing for the sharded dispatch runtime. "
        "'journaling' times the identical replay stream under fail-fast "
        "(no journal), journaled restart (steady-state overhead) and "
        "journaled restart with three seeded mid-stream shard crashes "
        "(overhead plus recovery), asserting per-session arrangements "
        "stay byte-identical throughout. 'crash_recovery' sweeps a "
        "single-shard crash across journal lengths and reports replay "
        "latency per journal length. 'quarantine' reports migration and "
        "discard accounting for a serial quarantine."
    ),
    add_arguments=add_arguments,
    run=run_suite,
    smoke_overrides={"workers": 4000, "campaigns_per_city": 2,
                     "tasks_per_campaign": 8,
                     "crash_arrivals": [200, 800], "quarantine_at": 300,
                     "repeats": 1},
))


if __name__ == "__main__":
    sys.exit(_common.suite_main(SUITE))
