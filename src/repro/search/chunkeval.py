"""One chunk evaluator for every search dispatch.

:func:`evaluate_chunk` evaluates the candidates with global indices
``[start, stop)`` of an enumerated space and returns a JSON-safe payload:
the range's candidate count, feasible count, bounded top-k entries, the
feasible rates (on request) and, when instrumented, a metrics snapshot plus
trace spans.  ``search()``'s serial, process-pool and supervised dispatches
run it, and so do fabric workers and the fabric coordinator's serial
fallback, so every dispatch computes exactly what a single range would.

Bit-identity: the columnar body slices the global column arrays and runs
the batch stages over the slice.  Per-candidate results are independent of
batch composition (the columnar engine's equivalence contract), so the
rates produced for rows ``[start, stop)`` are bit-identical to a
whole-space run.  Local top-k selection uses the same
``lexsort((stream_rank, -rate))`` retention as ``_search_columnar``; the
shipped entries carry ``gidx = start + row`` so a
:class:`~repro.search.merge.TopKMerge` ranks them on the global
``(-rate, gidx)`` total order.  The scalar body (a slice of an
:class:`~repro.execution.strategy.ExecutionStrategy` list) is the
``columnar=False`` oracle and applies the same retention rule.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable

import numpy as np

from ..engine import comm_cache_stats, iter_evaluate, prune_threshold_for_rate
from ..engine import batch as engine_batch
from ..engine.bounds import strict_prune_threshold_for_rate
from ..hardware.system import System
from ..llm.config import LLMConfig
from ..obs import M_COMM_CACHE_HITS, M_COMM_CACHE_MISSES, MetricsRegistry, Tracer
from ..obs.stats import (
    M_BOUND_SKIPPED_BUCKETS,
    M_BOUND_TILES,
    M_CHUNK_SECONDS,
    M_SURROGATE_SEEDED,
    STAGE_NAMES,
    stage_metric,
)
from .merge import TopKMerge

__all__ = ["evaluate_chunk"]


def _chunk_trace_events(
    tracer: Tracer,
    chunk_index: int,
    registry: MetricsRegistry,
    start: float,
    elapsed: float,
    n_strategies: int,
    feasible: int,
) -> None:
    """Record one chunk span plus per-stage aggregate child spans.

    Per-candidate stage spans at sweep scale would dwarf the work being
    traced, so each chunk carries five synthetic child spans — one per
    pipeline stage, sized by the chunk's accumulated stage wall time and
    laid out sequentially from the chunk start.  They render as an in-chunk
    breakdown in Perfetto; only their durations (not their placement) are
    measurements.

    The chunk span carries the tracer's ``trace_id`` in its args, so spans
    shipped back from worker processes remain attributable to the
    coordinator's trace after stitching.
    """
    tracer.add_span(
        f"chunk[{chunk_index}]",
        "search.chunk",
        start,
        elapsed,
        candidates=n_strategies,
        feasible=feasible,
        trace_id=tracer.trace_id,
    )
    offset = start
    for stage in STAGE_NAMES:
        dur = registry.stage_total(stage_metric(stage))
        if dur <= 0.0:
            continue
        tracer.add_span(stage, "engine.stage", offset, dur, aggregate=True)
        offset += dur
    tiles = int(registry.value(M_BOUND_TILES))
    if tiles > 0:
        # Adaptive tiled pass: one synthetic span carrying the tile/skip/
        # seed counters, so traces show how hard the threshold bit.
        tracer.add_span(
            "adaptive", "engine.stage", start, elapsed, aggregate=True,
            bound_tiles=tiles,
            bound_skipped_buckets=int(registry.value(M_BOUND_SKIPPED_BUCKETS)),
            surrogate_seeded=int(registry.value(M_SURROGATE_SEEDED)),
        )


def evaluate_chunk(
    llm: LLMConfig,
    system: System,
    start: int,
    stop: int,
    top_k: int,
    *,
    cols: dict | None = None,
    strategies: list | None = None,
    chunk_index: int = 0,
    instrument: bool = True,
    trace_id: str | None = None,
    floor_rate: float = 0.0,
    keep_rates: bool = False,
    constraint: Callable[[Any], bool] | None = None,
    prune: bool = True,
) -> dict[str, Any]:
    """Evaluate global candidates ``[start, stop)``; return a wire payload.

    Exactly one of ``cols`` (full-space columnar arrays) or ``strategies``
    (the full scalar candidate list) must be provided; the slice is taken
    here so callers hold one enumeration for all their chunks.

    ``floor_rate`` is the running k-th-best rate of everything already
    merged (the dispatcher's gossip).  The columnar body seeds its adaptive
    threshold with it, so buckets provably below the already-achieved
    top-k are skipped without pricing a single comm kernel; the scalar
    body starts its prune ceiling there.  Lossless by construction: only
    candidates whose rate is *strictly* below the floor are skipped, and
    the merge could never retain those.  Non-finite or negative floors are
    ignored.

    Bound pruning engages only when the caller needs nothing beyond the
    top-k (``prune`` with ``keep_rates=False``, no ``constraint``).
    ``keep_rates`` runs the range untiled and ships every feasible rate in
    stream order.  ``constraint`` runs the range untiled and keeps only
    the materialized survivors it accepts; they alone count as feasible.

    The payload::

        {"n": int, "feasible": int,
         "top": [[rate, gidx, strategy_dict], ...],   # best first
         "rates": [rate, ...] | None,   # keep_rates only
         "floor_rate": float,   # this chunk's local k-th-best rate report
         "snapshot": metrics-snapshot | None,
         "events": [trace spans] | None,
         "elapsed_s": float}
    """
    if (cols is None) == (strategies is None):
        raise ValueError("provide exactly one of cols / strategies")
    prune = bool(prune and top_k > 0 and not keep_rates and constraint is None)
    registry = MetricsRegistry() if instrument else None
    t0 = perf_counter()
    if cols is not None:
        n, feasible, top, rates = _evaluate_columnar(
            llm, system, cols, start, stop, top_k, registry, floor_rate,
            prune, constraint, keep_rates,
        )
    else:
        n, feasible, top, rates = _evaluate_scalar(
            llm, system, strategies, start, stop, top_k, registry, floor_rate,
            prune, constraint, keep_rates,
        )
    elapsed = perf_counter() - t0
    # Local k-th-best report for threshold gossip: the shipped list is
    # ranked best-first, so a full list's tail is the chunk's k-th best.
    local_floor = float(top[-1][0]) if len(top) == top_k and top else 0.0
    snapshot = events = None
    if registry is not None:
        registry.observe(M_CHUNK_SECONDS, elapsed)
        tracer = Tracer(trace_id=trace_id)
        _chunk_trace_events(tracer, chunk_index, registry, t0, elapsed,
                            n, feasible)
        snapshot = registry.snapshot()
        events = tracer.events()
    return {
        "n": n,
        "feasible": feasible,
        "top": top,
        "rates": rates,
        "floor_rate": local_floor,
        "snapshot": snapshot,
        "events": events,
        "elapsed_s": elapsed,
    }


def _ranked(rows, rate, srank, top_k, start, strategy_at) -> list[list[Any]]:
    """The range's top-k as wire entries, ranked by ``(-rate, gidx)``.

    Ties at the k-th rate keep the earliest candidates in *stream* order
    (the scalar heap's arrival order); the kept entries are then ordered
    by rate, ties by enumeration index.
    """
    if top_k <= 0 or rows.shape[0] == 0:
        return []
    keep = np.lexsort((srank, -rate))[:top_k]
    order = np.lexsort((rows[keep], -rate[keep]))
    return [
        [float(rate[i]), start + int(rows[i]), strategy_at(int(rows[i])).to_dict()]
        for i in keep[order]
    ]


def _evaluate_columnar(
    llm, system, cols, start, stop, top_k, registry, floor_rate, prune,
    constraint, keep_rates,
):
    sub = {name: arr[start:stop] for name, arr in cols.items()}
    eb = engine_batch.EvalBatch.from_columns(llm, system, sub)
    # Best-bound-first tiling with the gossiped floor as the starting
    # threshold.  Skipped candidates are provably strictly below the floor
    # (and below this chunk's own k-th best), so the shipped top-k loses
    # nothing the merge could retain.
    plan = engine_batch.AdaptivePlan(top_k=top_k, floor_rate=floor_rate) if prune else None
    cc0 = comm_cache_stats() if registry is not None else (0, 0)
    engine_batch.run_batch(eb, prune_above=None, metrics=registry,
                           adaptive=plan)
    if registry is not None:
        cc1 = comm_cache_stats()
        registry.inc(M_COMM_CACHE_HITS, cc1[0] - cc0[0])
        registry.inc(M_COMM_CACHE_MISSES, cc1[1] - cc0[1])
    if constraint is None:
        rows, rate = eb.inp_s, eb.rate_s
        srank = eb.stream_rank[rows]
        # Bound-skipped candidates are memory-feasible by construction, so
        # they count toward feasibility exactly as fully-priced survivors do.
        feasible = int(eb.n_s) + int(eb.n_pruned)
    else:
        # iter_results streams in stream order, so the position in the
        # accepted list is the stream rank.
        kept = [
            (i, res.sample_rate)
            for i, res in engine_batch.iter_results(eb)
            if res.feasible and constraint(res)
        ]
        rows = np.array([i for i, _ in kept], dtype=np.int64)
        rate = np.array([r for _, r in kept], dtype=np.float64)
        srank = np.arange(rows.shape[0], dtype=np.int64)
        feasible = len(kept)
    top = _ranked(rows, rate, srank, top_k, start, eb.strategy_at)
    rates = rate[np.argsort(srank)].tolist() if keep_rates else None
    return int(eb.n), feasible, top, rates


def _evaluate_scalar(
    llm, system, strategies, start, stop, top_k, registry, floor_rate, prune,
    constraint, keep_rates,
):
    chunk = strategies[start:stop]
    # Retention keyed by stream position: a full merge admits a candidate
    # only when it strictly beats the k-th best, so exact ties keep the
    # earliest arrival — the columnar body's lexsort rule.
    merge = TopKMerge(top_k)
    rates: list[float] | None = [] if keep_rates else None
    feasible = 0
    prune_above = None
    if prune and chunk:
        batch = float(chunk[0].batch)
        # The gossiped floor prunes only rates strictly below it (it may
        # come from a later range, whose tied members lose to this one's);
        # the chunk's own k-th best prunes ties too, since a later arrival
        # never displaces an equal rate.
        ceiling = [strict_prune_threshold_for_rate(batch, floor_rate)]
        local_floor = 0.0

        def prune_above() -> float:
            return ceiling[0]

    stream = iter_evaluate(
        llm, system, chunk, prune=True, prune_above=prune_above,
        metrics=registry, columnar=False,
    )
    for pos, (row, res) in enumerate(stream):
        if res.pruned:
            # Memory-feasible, provably outside the top-k; counts toward
            # feasibility (the comm/assemble stages never reject) but has
            # no rate to record.
            feasible += 1
            continue
        if not res.feasible or (constraint is not None and not constraint(res)):
            continue
        feasible += 1
        if rates is not None:
            rates.append(res.sample_rate)
        if merge.add(res.sample_rate, pos, row) and prune_above is not None:
            threshold = merge.threshold()
            if threshold is not None and threshold[0] > local_floor:
                local_floor = threshold[0]
                ceiling[0] = min(
                    ceiling[0], prune_threshold_for_rate(batch, local_floor)
                )
    entries = merge.entries()
    rows = np.array([row for _, _, row in entries], dtype=np.int64)
    rate = np.array([r for r, _, _ in entries], dtype=np.float64)
    srank = np.array([pos for _, pos, _ in entries], dtype=np.int64)
    top = _ranked(rows, rate, srank, top_k, start, chunk.__getitem__)
    return len(chunk), feasible, top, rates
