"""The struct-of-arrays candidate engine.

:class:`~repro.core.candidate_engine.engine.CandidateEngine` snapshots an
instance's tasks into flat arrays (plus a CSR-packed grid under the
sigmoid accuracy model) and answers every candidate query — eligibility
sets, MCF-LTC's batch pass (``batch_pairs``), top-``k`` ``Acc*`` selection,
the routing fallback over completed tasks (``reaches_completed``).  Small queries run scalar loops; a query
whose gathered block reaches
:data:`~repro.core.candidate_engine.engine.VECTOR_MIN_BLOCK` candidates
runs one vectorized numpy pass.  Both give identical results, ordering
included, by the contract in :mod:`repro.core.candidate_engine.engine`
and ``docs/candidates.md``.
"""

from __future__ import annotations

from repro.core.candidate_engine.engine import (
    DECISION_BAND,
    TOPK_MODES,
    TOPK_SCORE_MARGIN,
    CandidateEngine,
)


# Exists only because benchmarks/e2e/run.py imports it and prints the result.
def default_candidate_backend_name() -> str:
    return "python+numpy"


__all__ = [
    "CandidateEngine",
    "DECISION_BAND",
    "TOPK_MODES",
    "TOPK_SCORE_MARGIN",
]
