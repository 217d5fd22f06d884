"""Benchmark: sharded dispatch vs a single-process dispatcher under replay load.

The :class:`~repro.service.sharding.ShardedDispatcher` partitions
campaigns and traffic geographically.  Every
:class:`~repro.service.LTCDispatcher` already probes only the sessions
whose reach box covers an arrival's cell, so sharding no longer cuts
routing work; this benchmark measures what the shard runtime costs or
buys on a seeded, replayable multi-city workload from
:mod:`repro.service.loadgen`:

* **shard_sweep** — the same worker stream through shard plans of 1, 2, 4
  and 8 geo shards, under the ``serial`` executor (single-threaded: the
  ratio prices queueing, fan-out and per-shard bookkeeping) and the
  ``thread`` executor (one drain thread per shard on top).  Every
  lossless run must produce per-session arrangements **byte-identical**
  to the single-process baseline (asserted via fingerprints);
  throughput, routed fraction and routing-latency p50/p99 land in the
  report.
* **backpressure** — a burst-heavy stream through deliberately small
  shard queues under the ``drop-oldest`` and ``reject`` policies,
  reporting shed rates (byte-identity is forfeited by design here, and the
  shed counts are thread-timing dependent, so this observational section
  is excluded from the exactness fingerprint).
* **ttl** — the latency-vs-abandonment trade: the stream is cut at a
  deadline fraction, every still-open task is expired through the TTL
  sweep, and the report shows completion vs abandonment per deadline.

The suite registers with the shared registry in :mod:`_common`, reports in
the shared schema, and is run through ``benchmarks/bench_all.py`` into
``BENCH_all.json``; a standalone run writes a scratch report under
``benchmarks/results/``.

Usage::

    PYTHONPATH=src python benchmarks/bench_dispatch_scale.py --smoke
    PYTHONPATH=src python benchmarks/bench_dispatch_scale.py \
        --workers 2000 --repeats 1
"""

from __future__ import annotations

import hashlib
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

import _common
from _common import BenchSuite, SuiteResult

from repro.service import LTCDispatcher, ShardedDispatcher, ShardPlan
from repro.service.loadgen import BurstWindow, ReplayConfig, build_workload


#: Shard-count sweep: shard count -> (cols, rows) over the 4x2 city grid.
SHARD_GRIDS: Dict[int, Tuple[int, int]] = {1: (1, 1), 2: (2, 1), 4: (2, 2), 8: (4, 2)}

#: Executors swept per shard count (both keep byte-identity).
EXECUTORS: Tuple[str, ...] = ("serial", "thread")


def make_config(args) -> ReplayConfig:
    return ReplayConfig(
        seed=args.seed,
        city_cols=4,
        city_rows=2,
        city_spacing=1000.0,
        city_radius=50.0,
        campaigns_per_city=args.campaigns_per_city,
        tasks_per_campaign=args.tasks_per_campaign,
        num_workers=args.workers,
        worker_spread=1.4,
        diurnal_amplitude=0.5,
        bursts=(BurstWindow(0.45, 0.55, hot_city=2, intensity=3.0, city_bias=4.0),),
        error_rate=args.error_rate,
        capacity=args.capacity,
    )


def fingerprint(results: Dict[str, object]) -> Dict[str, str]:
    """Per-session digest of the final arrangement (order-sensitive)."""
    return {
        session_id: hashlib.sha256(
            repr(result.arrangement.assignments).encode()
        ).hexdigest()[:16]
        for session_id, result in results.items()
    }


def run_single_process(workload) -> dict:
    dispatcher = LTCDispatcher(default_solver="AAM")
    ids = [dispatcher.submit_instance(c) for c in workload.campaigns]
    start = time.perf_counter()
    for worker in workload.worker_stream():
        dispatcher.feed_worker(worker)
    wall = time.perf_counter() - start
    statuses = dispatcher.poll()
    completed = sum(1 for s in statuses.values() if s.complete)
    results = dispatcher.close_all()
    metrics = dispatcher.metrics
    return {
        "wall_s": wall,
        "offered": metrics.workers_fed,
        "routed_fraction": metrics.routed_fraction,
        "sessions": len(ids),
        "sessions_completed": completed,
        "fingerprints": fingerprint(results),
    }


def run_sharded(workload, shards: int, executor: str, queue_capacity: int) -> dict:
    cols, rows = SHARD_GRIDS[shards]
    plan = ShardPlan.for_region(workload.config.bounds, cols=cols, rows=rows)
    dispatcher = ShardedDispatcher(
        plan,
        default_solver="AAM",
        executor=executor,
        queue_capacity=queue_capacity,
        queue_policy="block",
        record_latencies=True,
    )
    for campaign in workload.campaigns:
        dispatcher.submit_instance(campaign)
    overflow_sessions = [
        status
        for status in dispatcher.shard_status()
        if status.is_overflow and status.session_ids
    ]
    if overflow_sessions:
        raise AssertionError(
            "benchmark campaigns must pin to geo shards; "
            f"{len(overflow_sessions[0].session_ids)} landed in overflow"
        )
    start = time.perf_counter()
    for worker in workload.worker_stream():
        dispatcher.feed_worker(worker)
    dispatcher.drain()
    wall = time.perf_counter() - start
    statuses = dispatcher.poll()
    completed = sum(1 for s in statuses.values() if s.complete)
    latencies = sorted(
        sample
        for samples in dispatcher.routing_latencies().values()
        for sample in samples
    )
    dispatcher.stop()
    metrics = dispatcher.metrics
    shed = dispatcher.shed_total
    offered = dispatcher.arrivals_offered
    results = dispatcher.close_all()

    def quantile(q: float) -> float:
        if not latencies:
            return 0.0
        return latencies[min(len(latencies) - 1, int(q * len(latencies)))]

    return {
        "wall_s": wall,
        "offered": offered,
        "routed_fraction": metrics.routed_fraction,
        "shed": shed,
        "sessions_completed": completed,
        "routing_p50_us": quantile(0.50) * 1e6,
        "routing_p99_us": quantile(0.99) * 1e6,
        "fingerprints": fingerprint(results),
    }


def bench_shard_sweep(workload, shard_counts, repeats, queue_capacity):
    """The headline sweep: timings are medians over interleaved repeats."""
    runners = {"single_process": lambda: run_single_process(workload)}
    for shards in shard_counts:
        for executor in EXECUTORS:
            runners[f"{executor}_{shards}"] = (
                lambda s=shards, e=executor: run_sharded(
                    workload, s, e, queue_capacity
                )
            )
    times: Dict[str, List[float]] = {impl: [] for impl in runners}
    outputs: Dict[str, dict] = {}
    for _ in range(repeats):
        for impl, runner in runners.items():
            outputs[impl] = runner()
            times[impl].append(outputs[impl]["wall_s"])
    baseline = outputs["single_process"]
    for impl, output in outputs.items():
        if output.get("shed", 0):
            raise AssertionError(f"{impl} shed arrivals under the block policy")
        if output["fingerprints"] != baseline["fingerprints"]:
            diverged = [
                sid
                for sid, digest in output["fingerprints"].items()
                if baseline["fingerprints"].get(sid) != digest
            ]
            raise AssertionError(
                f"{impl} arrangements diverged from single_process "
                f"(sessions {diverged[:5]})"
            )
    medians_s = {impl: statistics.median(times[impl]) for impl in runners}
    cases = {
        "single_process": {
            "wall_ms_median": round(medians_s["single_process"] * 1000, 3),
            "throughput_per_s": round(
                baseline["offered"] / medians_s["single_process"], 1
            ),
            "routed_fraction": round(baseline["routed_fraction"], 4),
            "sessions": baseline["sessions"],
            "sessions_completed": baseline["sessions_completed"],
        }
    }
    speedups = {}
    for impl, output in outputs.items():
        if impl == "single_process":
            continue
        median_s = medians_s[impl]
        speedups[f"{impl}_vs_single_process"] = _common.ratio(
            medians_s["single_process"], median_s
        )
        cases[impl] = {
            "wall_ms_median": round(median_s * 1000, 3),
            "throughput_per_s": round(output["offered"] / median_s, 1),
            "speedup_vs_single_process": speedups[f"{impl}_vs_single_process"],
            "routed_fraction": round(output["routed_fraction"], 4),
            "shed": output["shed"],
            "sessions_completed": output["sessions_completed"],
            "routing_p50_us": round(output["routing_p50_us"], 1),
            "routing_p99_us": round(output["routing_p99_us"], 1),
            "byte_identical_to_single_process": True,
        }
    section = {
        "baseline": "single_process",
        "timings_ms": {
            impl: round(value * 1000, 3) for impl, value in medians_s.items()
        },
        "speedups": speedups,
        "cases": cases,
    }
    witness = {
        "sessions": baseline["sessions"],
        "sessions_completed": baseline["sessions_completed"],
        "offered": baseline["offered"],
        "fingerprints": baseline["fingerprints"],
    }
    return section, witness


def bench_backpressure(workload, queue_capacity: int) -> dict:
    """Small queues + burst traffic: shed accounting per policy."""
    metrics = {}
    for policy in ("drop-oldest", "reject"):
        cols, rows = SHARD_GRIDS[8]
        plan = ShardPlan.for_region(workload.config.bounds, cols=cols, rows=rows)
        dispatcher = ShardedDispatcher(
            plan,
            default_solver="AAM",
            executor="thread",
            queue_capacity=queue_capacity,
            queue_policy=policy,
        )
        for campaign in workload.campaigns:
            dispatcher.submit_instance(campaign)
        for worker in workload.worker_stream():
            dispatcher.feed_worker(worker)
        dispatcher.stop()
        offered = dispatcher.arrivals_offered
        shed = dispatcher.shed_total
        dispatcher.close_all()
        metrics[policy] = {
            "queue_capacity": queue_capacity,
            "offered": offered,
            "shed": shed,
            "shed_rate": round(shed / offered, 4) if offered else 0.0,
        }
    return {"metrics": metrics}


def bench_ttl(workload, deadlines) -> dict:
    """Latency-vs-abandonment: expire everything still open at a deadline."""
    metrics = {}
    total_tasks = sum(c.num_tasks for c in workload.campaigns)
    for deadline in deadlines:
        cols, rows = SHARD_GRIDS[4]
        plan = ShardPlan.for_region(workload.config.bounds, cols=cols, rows=rows)
        dispatcher = ShardedDispatcher(plan, default_solver="AAM", executor="serial")
        session_tasks = {}
        for campaign in workload.campaigns:
            session_id = dispatcher.submit_instance(campaign)
            session_tasks[session_id] = [t.task_id for t in campaign.tasks]
        cutoff = int(deadline * workload.config.num_workers)
        for worker in workload.worker_stream():
            if worker.index > cutoff:
                break
            dispatcher.feed_worker(worker)
        # The sweep offers every id; sessions abandon only the open ones.
        expired = sum(
            len(dispatcher.expire_tasks(session_id, ids))
            for session_id, ids in session_tasks.items()
        )
        statuses = dispatcher.poll()
        completed_tasks = sum(
            s.snapshot.tasks_completed for s in statuses.values()
        )
        dispatcher.stop()
        dispatcher.close_all()
        metrics[f"deadline_{deadline:g}"] = {
            "deadline_arrivals": cutoff,
            "tasks_total": total_tasks,
            "tasks_completed": completed_tasks,
            "tasks_abandoned": expired,
            "abandonment_rate": round(expired / total_tasks, 4),
        }
    return {"metrics": metrics}


def run_suite(args) -> SuiteResult:
    config_obj = make_config(args)
    workload = build_workload(config_obj)
    print(f"workload: {len(workload.campaigns)} campaigns over "
          f"{config_obj.num_cities} cities, {config_obj.num_workers} arrivals")

    sweep, sweep_witness = bench_shard_sweep(
        workload, args.shards, args.repeats, args.queue_capacity
    )
    base = sweep["cases"]["single_process"]
    print(f"single_process  wall={base['wall_ms_median']:>9.1f}ms  "
          f"throughput={base['throughput_per_s']:>9.0f}/s")
    for shards in args.shards:
        for executor in EXECUTORS:
            entry = sweep["cases"][f"{executor}_{shards}"]
            print(f"{executor:>6}_{shards}  wall={entry['wall_ms_median']:>9.1f}ms  "
                  f"throughput={entry['throughput_per_s']:>9.0f}/s  "
                  f"speedup={entry['speedup_vs_single_process']:>5.2f}x  "
                  f"p99={entry['routing_p99_us']:>7.1f}us")

    backpressure = bench_backpressure(workload, args.burst_queue_capacity)
    for policy, entry in backpressure["metrics"].items():
        print(f"backpressure {policy:>11}  shed={entry['shed']:>6} "
              f"({entry['shed_rate']:.2%} of {entry['offered']})")

    ttl = bench_ttl(workload, args.deadlines)
    for key, entry in ttl["metrics"].items():
        print(f"ttl {key:>14}  completed={entry['tasks_completed']:>5.0f}  "
              f"abandoned={entry['tasks_abandoned']:>5} "
              f"({entry['abandonment_rate']:.2%})")

    sections = {
        "shard_sweep": sweep,
        "backpressure": backpressure,
        "ttl": ttl,
    }
    headline = {
        f"{executor}_max_shards_vs_single_process":
            sweep["speedups"][f"{executor}_{max(args.shards)}_vs_single_process"]
        for executor in EXECUTORS
    }
    config = {
        "cities": config_obj.num_cities,
        "campaigns": len(workload.campaigns),
        "campaigns_per_city": args.campaigns_per_city,
        "tasks_per_campaign": config_obj.tasks_per_campaign,
        "workers": config_obj.num_workers,
        "capacity": config_obj.capacity,
        "error_rate": config_obj.error_rate,
        "shard_counts": list(args.shards),
        "queue_capacity": args.queue_capacity,
        "burst_queue_capacity": args.burst_queue_capacity,
        "deadlines": list(args.deadlines),
        "repeats": args.repeats,
        "seed": args.seed,
    }
    # The backpressure section is deliberately absent from the payload:
    # shed counts under the thread executor depend on thread timing and
    # are not reproducible across machines.
    return SuiteResult(
        config=config,
        sections=sections,
        headline_speedups=headline,
        fingerprint_payload={
            "shard_sweep": sweep_witness,
            "ttl": ttl["metrics"],
        },
    )


def add_arguments(parser) -> None:
    parser.add_argument("--workers", type=int, default=20_000,
                        help="length of the merged arrival stream")
    parser.add_argument("--campaigns-per-city", type=int, default=8)
    parser.add_argument("--tasks-per-campaign", type=int, default=20)
    parser.add_argument("--capacity", type=int, default=1)
    parser.add_argument("--error-rate", type=float, default=0.01,
                        help="per-task epsilon (small values keep sessions "
                             "open longer, sustaining routing pressure)")
    parser.add_argument("--shards", type=int, nargs="+", default=[1, 2, 4, 8],
                        choices=sorted(SHARD_GRIDS),
                        help="shard counts to sweep")
    parser.add_argument("--queue-capacity", type=int, default=65536,
                        help="per-shard queue bound for the lossless sweep")
    parser.add_argument("--burst-queue-capacity", type=int, default=64,
                        help="deliberately small bound for the backpressure "
                             "section")
    parser.add_argument("--deadlines", type=float, nargs="+",
                        default=[0.1, 0.25, 0.5, 1.0],
                        help="TTL deadlines as fractions of the stream")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=20180416)


SUITE = _common.register_suite(BenchSuite(
    name="dispatch_scale",
    description=(
        "Sharded dispatch vs a single-process dispatcher on a seeded, "
        "replayable multi-city worker stream (diurnal + burst traffic). "
        "'shard_sweep' feeds the identical stream through 1/2/4/8 geo "
        "shards under the serial executor (single-threaded: the price "
        "of shard plumbing, since each dispatcher's routing index "
        "already skips other regions' sessions) "
        "and the thread executor (plus per-shard drain threads); "
        "every lossless run is asserted byte-identical to the "
        "single-process baseline via per-session arrangement "
        "fingerprints. "
        "'backpressure' sheds burst traffic through small bounded "
        "queues; 'ttl' expires still-open tasks at a deadline and "
        "reports the completion/abandonment trade."
    ),
    add_arguments=add_arguments,
    run=run_suite,
    # Three interleaved repeats: a smoke case lasts ~0.2 s, so with one
    # repeat a host slow spell lands on single cases and moved the gated
    # ratios by up to 3x between runs.
    smoke_overrides={"workers": 4000, "campaigns_per_city": 2,
                     "tasks_per_campaign": 8, "shards": [1, 2, 4],
                     "deadlines": [0.25, 0.5], "repeats": 3},
))


if __name__ == "__main__":
    sys.exit(_common.suite_main(SUITE))
