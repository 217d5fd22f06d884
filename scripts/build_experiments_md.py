#!/usr/bin/env python
"""Render EXPERIMENTS.md from the ``figures`` sections of BENCH_all.json.

The ``figures`` suite of ``benchmarks/bench_all.py`` runs the paper's ten
experiments and stores their mean series, the deviations from the paper's
claims and the paired outcomes of each latency claim.  This script
interleaves those sections with the paper-vs-measured commentary kept
here, through the renderers ``repro-experiments`` prints with
(:mod:`repro.experiments.report`)::

    PYTHONPATH=src python benchmarks/bench_all.py
    PYTHONPATH=src python scripts/build_experiments_md.py

:func:`render` is pure: the committed EXPERIMENTS.md is exactly
``render(<committed BENCH_all.json>)``, and ``tests/test_experiments_md.py``
checks that byte for byte.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.experiments.paper_reference import PAPER_EXPECTATIONS  # noqa: E402
from repro.experiments.report import render_claims, render_panels  # noqa: E402

REPORT = ROOT / "BENCH_all.json"
OUTPUT = ROOT / "EXPERIMENTS.md"

HEADER = """\
# EXPERIMENTS — paper vs. this reproduction

This file records, for every table and figure of the paper's evaluation
(Sec. V), what the paper reports and what this reproduction measures at its
default scaled-down settings.  Everything under "Figure-by-figure record"
is rendered from the `figures` sections of `BENCH_all.json` by

```bash
PYTHONPATH=src python benchmarks/bench_all.py
PYTHONPATH=src python scripts/build_experiments_md.py
```

**How to read the comparison.**  The paper's experiments ran a GNU C++
implementation on a 40-core Xeon over 40 000–573 703 workers and repeated
every setting 30 times; this reproduction is pure Python at a configurable
fraction of those cardinalities (defaults: 5% for the synthetic sweeps, 3% /
1.5% for New York / Tokyo, 0.1% for the scalability sweep), also with 30
repetitions per setting.  Absolute latencies, runtimes and memory numbers
are therefore **not** comparable to the paper; the reproduction target is the
*shape* of each panel — which algorithm wins, how the metric moves along the
sweep, and the offline/online and proposed/baseline orderings.  Each
section ends with an automatic check of those qualitative claims
(`repro.experiments.paper_reference`), which compares sweep means with 5%
slack.  A claim that fails is listed as a deviation with its numbers; no
claim is tuned to pass.  Next to every latency claim, the paired count says
on how many (sweep value, repetition) instances the first algorithm's
latency was lower than, equal to or higher than the second's: the runner
solves every algorithm on the same instance, so the outcomes pair up.

"""

MODELLING = """\
## Modelling decisions that affect the comparison

* **Assignable pairs.**  The paper's bound analysis (Theorem 2) assumes every
  assigned pair has predicted accuracy at least the 0.66 spam threshold
  (giving Acc* ≥ 0.1); its Eq. 1 accuracy function, taken literally, would
  instead assign Acc* ≈ 1 to workers that are arbitrarily far away (accuracy
  ≈ 0).  This reproduction follows the bound analysis: a worker may only be
  assigned tasks with Acc(w, t) ≥ 0.66, which under Eq. 1 is a distance
  cut-off slightly below d_max.  This is also what makes the "nearby tasks"
  wording of the Base-off/Random baselines well-defined.
* **Random baseline.**  "Tasks nearby are assigned randomly" is implemented
  naively (as the paper's results suggest): the baseline does not look at
  completion state, so capacity spent on already-completed tasks is wasted.
  A completion-aware variant is available (`RandomOnlineSolver(skip_completed=True)`).
* **Real datasets.**  The Foursquare New York / Tokyo check-in logs cannot be
  shipped; `repro.datagen.foursquare` generates statistically similar streams
  (skewed neighbourhood popularity, chronological arrivals, POIs inside the
  check-in convex hull) at Table V's cardinalities.
* **Efficiency metrics.**  Runtime is the wall-clock seconds of an
  untraced solve call; memory is the tracemalloc peak of a second, traced
  solve of the same instance (tracing slows a solve about 12x, so it is
  never timed).  Only the relative comparison between algorithms is
  meaningful.

## Running example (Tables I–II, Examples 1–4)

| Quantity | Paper | This reproduction |
|---|---|---|
| LAF latency (Example 3) | 8 | **8** — exact trace match, including S = {3.61, 3.54, 0} after four workers. |
| AAM latency (Example 4) | 7 | **6** — Algorithm 3's avg/maxRemain rule switches to LRF already at the third worker (avg = 3.06 < maxRemain = 3.22), one arrival earlier than the Example 4 narrative; following the pseudo-code yields 6, which equals the true optimum (ExactSolver). |
| MCF-LTC latency (Example 2) | 6 | **7** — the flow drawn in Fig. 2b (workers 1–6 only) has total Acc* 10.46, but the minimum-cost flow for Table I has total Acc* 10.53 and necessarily uses worker 7 or 8; a correct SSPA with low-index tie-breaking therefore returns 7. |
| Offline optimum | 5 (Example 1, simplified sum-of-accuracy aggregation, threshold 2.92) | 6 under the Acc*/δ = 3.22 model used by Examples 2–4 (ExactSolver). |

These deviations are asserted (not just tolerated) in
`tests/test_paper_examples.py`.

## Figure-by-figure record
"""

SECTIONS = [
    ("fig3_tasks", "Fig. 3a / 3e / 3i — varying the number of tasks |T|", """\
Paper: latency grows with |T| for every algorithm; MCF-LTC beats Base-off,
AAM is the best online algorithm and can even beat MCF-LTC at large |T|
(batch effect); MCF-LTC's runtime and memory dwarf the others.
Measured: latency grows with |T| for every algorithm.  At |T| = 1000 the
scaled-down instances are tail-dominated (one worker-starved task fixes
the latency), so all five sit at 464–467; from |T| = 2000 the curves
separate, with Random clearly worst (1,078 at |T| = 5000 against 623–705)
and AAM never above LAF on any instance.  Base-off, not MCF-LTC, has the
lowest (or tied lowest) mean latency at every |T| but 5000; MCF-LTC is
within 1.2% of it on the sweep mean, but lower on only 23 of 150 paired
instances and higher on 51.  MCF-LTC's runtime grows fastest (0.013 s to
0.069 s, 5.4x, against 2.6–3.8x for the others) and is the highest at
|T| = 5000, but Random is the slowest algorithm on the mean.  MCF-LTC's
peak memory stays below Random's at every |T|, so the paper's memory gap
does not appear."""),
    ("fig3_capacity", "Fig. 3b / 3f / 3j — varying the worker capacity K", """\
Paper: latency drops as K grows, with the largest drop from K = 4 to 5;
algorithm ordering as in Fig. 3a.
Measured: the largest drop is from K = 4 to 5 for every algorithm
(Base-off 618 to 556, MCF-LTC 628 to 560, AAM 701 to 600); after it the
offline algorithms stay flat within 20 arrivals while the online ones keep
falling.  Random is worst at every K and by far at K = 4 (1,062), where
wasted capacity hurts most.  Base-off has the lowest latency at every K;
MCF-LTC is 1.6% above it on the sweep mean and lower on 27 of 150 paired
instances, higher on 63.  Random is the slowest algorithm on the mean;
MCF-LTC's runtime falls with K (0.056 s to 0.038 s) and stays below
Random's at every K, and its peak memory falls with K (0.77 to 0.41 MB)."""),
    ("fig3_accuracy_normal", "Fig. 3c / 3g / 3k — historical accuracy ~ Normal(mu, 0.05)", """\
Paper: latency decreases as the accuracy mean grows; MCF-LTC < Base-off,
AAM best online.
Measured: latency decreases monotonically with mu for every algorithm;
Random is worst (832 to 576) and AAM is at or below LAF at every mu.
Base-off is lowest at every mu, with MCF-LTC 8–25 arrivals above it
(2.7% on the sweep mean; lower on 13 of 150 paired instances, higher on
60).  Random is the slowest algorithm on the mean, and MCF-LTC is at or
below Base-off's runtime at every mu; Random has the largest, and most
variable, peak memory."""),
    ("fig3_accuracy_uniform", "Fig. 3d / 3h / 3l — historical accuracy ~ Uniform(mean)", """\
Paper: same conclusions as the normal-distribution column.
Measured: the same orderings as the normal column.  The decrease is not
strictly monotone: every algorithm but Random is flat or slightly up from
mean 0.84 to 0.86 (MCF-LTC 598 to 610).  MCF-LTC is 2.1% above Base-off
on the sweep mean and lower on 16 of 150 paired instances, higher on
71.  Random is the slowest algorithm on the mean, and MCF-LTC is below
both Random and Base-off from mean 0.84 on."""),
    ("fig4_epsilon", "Fig. 4a / 4e / 4i — varying the tolerable error rate epsilon", """\
Paper: latency drops as epsilon grows (smaller delta); orderings as before.
Measured: monotone decrease for every algorithm (the task/worker placement
is held fixed across the sweep, as in the paper); AAM and LAF stay within
about 40 arrivals of the offline algorithms and Random trails.  Base-off is
lowest at every epsilon; MCF-LTC is 2.7% above it on the sweep mean and
lower on 12 of 150 paired instances, higher on 69, the most lopsided split
of the eight figure panels.  Random is the slowest algorithm on the
mean; MCF-LTC's runtime falls with epsilon (0.061 s to 0.037 s) and
stays below Random's at every epsilon."""),
    ("fig4_scalability", "Fig. 4b / 4f / 4j — scalability in |T| (|W| = 400k in the paper)", """\
Paper: all algorithms scale linearly in latency; MCF-LTC becomes impractical
(runtime ~2500 s at |T| = 100k) while LAF/AAM stay cheap; AAM best online at
the largest sizes.
Measured: latency grows with |T|; all five coincide at |T| = 10k (75–76)
and Random doubles the others at 100k (362 against 176–188), with AAM the
best online algorithm from 30k on.  MCF-LTC's runtime grows 16x from 10k
to 100k (0.004 s to 0.066 s) against 6.5x for Base-off and 11x for LAF;
it is level with Base-off up to 20k and 2.7x slower at 100k, where its
peak memory (0.99 MB) is also the largest.  LAF stays the cheapest throughout.
MCF-LTC is lower than Base-off on 36 of 180 paired instances and higher on
63."""),
    ("fig4_newyork", "Fig. 4c / 4g / 4k — New York check-in stream, varying epsilon", """\
Paper: latency ≈ (1.85–2.3)·10^5 of 227k check-ins, decreasing in epsilon;
MCF-LTC best offline, AAM best online, Random clearly worst.
Measured (on the Foursquare-like substitute stream of 6,822 check-ins and
111 tasks): the latency is 48–87% of the stream and decreases in epsilon;
Random is clearly worst and AAM has the lowest latency of all five at
every epsilon.  MCF-LTC and Base-off are within 0.3% on the sweep mean and
split evenly instance by instance (40 lower, 55 equal, 55 higher).  The
runtime claim fails: Random, not MCF-LTC, is the slowest algorithm at
every epsilon (0.18–0.28 s against MCF-LTC's 0.10–0.16 s).  With its
batches solved by the certified network simplex (`repro.flow.simplex`),
MCF-LTC's mean runtime is 0.120 s against Base-off's 0.116 s.  MCF-LTC
also has the smallest peak memory here (0.24–0.46 MB; Random 2.4–3.3 MB),
the opposite of the paper's memory panels; no claim checks memory."""),
    ("fig4_tokyo", "Fig. 4d / 4h / 4l — Tokyo check-in stream, varying epsilon", """\
Paper: same conclusions as New York at roughly double the scale.
Measured (8,605 check-ins and 139 tasks): as for New York, latency
decreases in epsilon and Random is clearly worst.  Base-off is lowest for
epsilon up to 0.14 and AAM from 0.18 on.  MCF-LTC is 1.1% above Base-off
on the sweep mean and lower on 27 of 150 paired instances, higher on 60.
The runtime claim fails as on New York: Random is the slowest algorithm at
every epsilon (0.18–0.32 s against MCF-LTC's 0.08–0.18 s and Base-off's
0.10–0.16 s), and MCF-LTC has the smallest peak memory."""),
    ("ablation_batch_size", "Ablation — MCF-LTC batch-size multiplier (Sec. V-B1 discussion)", """\
The paper attributes MCF-LTC's occasional losses to AAM to its batch size
("a large T leads to a large batch ... MCF-LTC tends to select these workers
with large indices").  This reproduction-only ablation sweeps a multiplier on
the paper's batch size.  Measured: the paper's batch size (multiplier 1) has
the lowest mean latency (563).  Doubling the batch raises it to 630 and
quadrupling to 714, as the paper describes, while halving it also raises
it, to 590.  Runtime stays at 0.041–0.044 s up to multiplier 2 and
rises to 0.054 s at 4; peak memory grows with the batch (0.43 MB to
1.96 MB)."""),
    ("ablation_aam_switch", "Ablation — AAM vs. LGF-only / LRF-only (Sec. IV-B design choice)", """\
Quantifies the value of AAM's adaptive switch between Largest Gain First and
Largest Remaining First.  Measured: AAM's sweep means equal LGF-only's at
every |T|, so at these sizes the switch changes little, and AAM is never
above plain LAF (lower on 11 of 90 paired instances, equal on the rest).
LRF-only is the best of the four, and its lead grows with |T| (629 against
AAM's 702 at |T| = 5000).  The claim checked here is this reproduction's,
not the paper's, which discusses the switch only in prose."""),
]

FOOTER = """\
## Reproducing at larger scale

Every experiment accepts a `--scale` (CLI) or `scale=` (API) override; the
full-size settings of Table IV / Table V correspond to `scale=1.0`.  So

```bash
repro-experiments fig4_epsilon --scale 0.2 --repetitions 5 --check
```

runs a 4x-larger, 5-repetition version of the epsilon column and prints
its series, claims and paired outcomes in the form used above.
"""


def _count(number: int, noun: str) -> str:
    return f"{number} {noun}" + ("" if number == 1 else "s")


def render(report: dict) -> str:
    """EXPERIMENTS.md for a consolidated ``bench_all`` report."""
    config = report["config"]["suites"]["figures"]
    environment = report["environment"]
    repetitions = _count(config["repetitions"], "repetition")
    memory = "no memory pass"
    if config["memory_repetitions"]:
        traced = _count(config["memory_repetitions"], "traced repetition")
        memory = f"peak memory from {traced}"
    parts = [
        HEADER,
        f"The committed numbers come from a `{report['mode']}` run under "
        f"Python {environment['python']} on a {environment['cpu_count']}-CPU "
        "host.\n\n",
        MODELLING,
    ]
    for experiment_id, title, commentary in SECTIONS:
        metrics = report["sections"][f"figures.{experiment_id}"]["metrics"]
        parts.append(f"\n### {title}\n\n{commentary}\n\n")
        parts.append(f"Measured series ({repetitions} per sweep value; "
                     f"{memory}):\n\n")
        panels = render_panels(experiment_id, metrics["sweep_parameter"],
                               metrics["series"])
        parts.append(f"```text\n{panels}\n```\n\n")
        claims = render_claims(PAPER_EXPECTATIONS[experiment_id],
                               metrics["deviations"],
                               metrics["paired_outcomes"])
        parts.append(claims + "\n")
    parts.append("\n" + FOOTER)
    return "".join(parts)


def main() -> None:
    OUTPUT.write_text(render(json.loads(REPORT.read_text())))
    print(f"wrote {OUTPUT}")


if __name__ == "__main__":
    main()
