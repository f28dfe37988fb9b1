"""Chunk evaluation shared by fabric workers and the coordinator's fallback.

Training chunks run :func:`repro.search.chunkeval.evaluate_chunk` — the one
evaluator every ``search()`` dispatch uses — re-exported here: it evaluates
the candidates with global indices ``[start, stop)`` and returns a
JSON-safe payload holding the chunk's candidate count, feasible count,
bounded top-k entries and (optionally) a metrics snapshot plus trace spans.
The same code runs inside every worker process *and* inside the
coordinator when a chunk exhausts its lease retries (the serial-fallback
mirror of :func:`repro.search.faults.run_supervised`), so a degraded
cluster computes exactly what a healthy one would.  Its shipped entries
carry ``gidx = start + row`` so the coordinator's
:class:`~repro.search.merge.TopKMerge` ranks them on the global
``(-rate, gidx)`` total order.

:func:`evaluate_serve_chunk` is the serving twin over serve plans.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any

from ..hardware.system import System
from ..llm.config import LLMConfig
from ..obs import MetricsRegistry, Tracer
from ..obs.stats import M_CHUNK_SECONDS
from ..search.chunkeval import evaluate_chunk

__all__ = ["evaluate_chunk", "evaluate_serve_chunk"]


def evaluate_serve_chunk(
    llm: LLMConfig,
    system: System,
    start: int,
    stop: int,
    top_k: int,
    *,
    plans: list,
    workload: Any,
    slo: Any | None = None,
    prune: bool = True,
    max_batch: int | None = None,
    chunk_index: int = 0,
    instrument: bool = True,
    trace_id: str | None = None,
) -> dict[str, Any]:
    """Simulate serve plans with global indices ``[start, stop)``.

    The serving twin of :func:`evaluate_chunk`: the same wire-payload
    shape, with goodput as the merge rate and the serve plan dict as the
    payload — so :class:`~repro.search.merge.TopKMerge`'s ``(-rate, gidx)``
    total order reproduces serve-search's ``(-goodput, gidx)`` ranking
    bit-identically regardless of chunking (``tests/test_fabric_serve.py``).

    The payload::

        {"n": int, "simulated": int, "pruned": int, "infeasible": int,
         "violated": int,
         "top": [[goodput, gidx, plan_dict], ...],   # best first
         "snapshot": metrics-snapshot | None,
         "events": [trace spans] | None,
         "elapsed_s": float}
    """
    from ..serving.search import _serve_chunk
    from ..serving.stats import (
        M_SERVE_CANDIDATES,
        M_SERVE_INFEASIBLE,
        M_SERVE_PRUNED,
        M_SERVE_SIMULATED,
        M_SERVE_VIOLATED,
    )

    indexed = [(gidx, plans[gidx]) for gidx in range(start, stop)]
    t0 = perf_counter()
    n, simulated, pruned, infeasible, violated, top, _snap, _ev = _serve_chunk((
        llm, system, indexed, workload, slo, top_k, False, chunk_index,
        None, prune, max_batch, trace_id,
    ))
    elapsed = perf_counter() - t0
    snapshot = events = None
    if instrument:
        registry = MetricsRegistry()
        registry.inc(M_SERVE_CANDIDATES, n)
        registry.inc(M_SERVE_SIMULATED, simulated)
        registry.inc(M_SERVE_PRUNED, pruned)
        registry.inc(M_SERVE_INFEASIBLE, infeasible)
        registry.inc(M_SERVE_VIOLATED, violated)
        registry.observe(M_CHUNK_SECONDS, elapsed)
        tracer = Tracer(trace_id=trace_id)
        tracer.add_span(
            f"serve-chunk[{chunk_index}]", "serve.chunk", t0, elapsed,
            plans=n, simulated=simulated, pruned=pruned, trace_id=trace_id,
        )
        snapshot = registry.snapshot()
        events = tracer.events()
    return {
        "n": n,
        "simulated": simulated,
        "pruned": pruned,
        "infeasible": infeasible,
        "violated": violated,
        "top": [[g, gidx, plan.to_dict()] for g, gidx, plan, _stats in top],
        "snapshot": snapshot,
        "events": events,
        "elapsed_s": elapsed,
    }
