"""Public entry points of the staged evaluation engine.

Three ways to run the pipeline:

* :func:`evaluate` — one candidate through every stage; the staged
  replacement for (and implementation of) ``repro.core.calculate``.
* :func:`check_feasible` — the fast path: validate + profile + memory plan
  only.  Answers "does this configuration fit?" without touching a network
  or timing formula, returning the same infeasibility reason the full model
  would.
* :func:`evaluate_many` — a batched sweep primitive: groups candidates by
  their block-profile key, profiles each distinct block once, runs the fast
  path on every candidate, and fully evaluates only the survivors.  On
  memory-constrained spaces (where most of the Table-1 space is rejected on
  capacity) this skips the expensive comm/timing stages for the rejected
  majority.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Iterable, Iterator, Sequence

from ..core.results import PerformanceResult
from ..execution.strategy import ExecutionStrategy, StrategyError
from ..hardware.system import System
from ..llm.config import LLMConfig
from ..obs import MetricsRegistry, PruneStats, Tracer
from ..obs.stats import (
    M_BOUND_EVALS,
    M_BOUND_PRUNED,
    M_BUCKET_HITS,
    M_CANDIDATES,
    M_COMM_CACHE_HITS,
    M_COMM_CACHE_MISSES,
    M_EVALUATED_FULL,
    M_MEMORY_BUCKETS,
    M_PROFILE_GROUPS,
    M_REJECT_MEMORY,
    M_REJECT_VALIDATE,
    M_SHARED_INFEASIBLE,
    stage_metric,
)
from .bounds import PrunedResult, roofline_lower_bound
from .context import EvalContext, FeasibilityReport, MemoryPlan
from .profile import profile_block, profile_key
from .stages import (
    comm_cache_stats,
    fill_scalars,
    infeasible_result,
    stage_assemble,
    stage_comm,
    stage_memory,
    stage_profile,
    stage_validate,
)


# Version of the evaluation semantics.  Bump whenever a change makes the
# engine produce different numbers for the same (llm, system, strategy) —
# checkpoint journals embed it in their run key, so a resumed sweep can
# never silently mix results from two model revisions.
ENGINE_VERSION = 1

# The full pipeline, in execution order.  Exposed for documentation and for
# tooling that wants to run/instrument the stages one at a time.
PIPELINE = (stage_validate, stage_profile, stage_memory, stage_comm, stage_assemble)

# The fast path stops after the memory plan: everything needed to decide
# feasibility, nothing priced in seconds.
FAST_PATH = (stage_validate, stage_profile, stage_memory)

# Span/metric names per stage function, e.g. stage_memory -> "memory".
STAGE_SHORT_NAMES = {fn: fn.__name__.removeprefix("stage_") for fn in PIPELINE}

# Metric-name constants are precomputed per stage so the instrumented hot
# path never formats strings.
_STAGE_METRICS = {fn: stage_metric(name) for fn, name in STAGE_SHORT_NAMES.items()}
_M_VALIDATE = stage_metric("validate")
_M_PROFILE = stage_metric("profile")
_M_MEMORY = stage_metric("memory")
_M_COMM = stage_metric("comm")
_M_ASSEMBLE = stage_metric("assemble")

# Below this many candidates the columnar path's array-construction overhead
# outweighs the vectorization win; ``columnar=None`` auto-routes around it.
_COLUMNAR_MIN_BATCH = 32


def _resolve_columnar(columnar: bool | None, n: int):
    """Decide the evaluation path: the batch module, or ``None`` for scalar.

    ``columnar=False`` always picks scalar; ``None`` auto-routes (columnar
    for batches of at least ``_COLUMNAR_MIN_BATCH`` candidates); ``True``
    insists.
    """
    if columnar is False or (columnar is None and n < _COLUMNAR_MIN_BATCH):
        return None
    from . import batch

    return batch


def evaluate(
    llm: LLMConfig,
    system: System,
    strategy: ExecutionStrategy,
    *,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
) -> PerformanceResult:
    """Run the full staged pipeline for one configuration.

    Returns an infeasible :class:`PerformanceResult` (never raises) when the
    strategy violates a constraint or exceeds a memory capacity, so search
    engines can sweep the space without exception handling.  Infeasible
    candidates stop at the stage that rejected them — capacity violations
    never pay for the comm/timing stages.

    ``tracer`` records one span per pipeline stage; ``metrics`` accumulates
    the ``engine.*`` counters and per-stage wall-time histograms.  Both
    default to ``None`` and the uninstrumented path pays only the initial
    branch — instrumentation never changes the arithmetic (the golden-
    equivalence suite holds instrumented results bit-identical).
    """
    ctx = EvalContext(llm, system, strategy)
    if tracer is None and metrics is None:
        for stage in PIPELINE:
            stage(ctx)
            if ctx.error is not None:
                return infeasible_result(ctx)
        return ctx.result

    if metrics is not None:
        metrics.inc(M_CANDIDATES)
        cc0 = comm_cache_stats()
    try:
        for stage in PIPELINE:
            t0 = perf_counter()
            if tracer is not None:
                with tracer.span(STAGE_SHORT_NAMES[stage], cat="engine.stage"):
                    stage(ctx)
            else:
                stage(ctx)
            if metrics is not None:
                metrics.observe(_STAGE_METRICS[stage], perf_counter() - t0)
            if ctx.error is not None:
                if metrics is not None:
                    rejected = (
                        M_REJECT_VALIDATE
                        if stage is stage_validate
                        else M_REJECT_MEMORY
                    )
                    metrics.inc(rejected)
                return infeasible_result(ctx)
        if metrics is not None:
            metrics.inc(M_EVALUATED_FULL)
        return ctx.result
    finally:
        if metrics is not None:
            cc1 = comm_cache_stats()
            metrics.inc(M_COMM_CACHE_HITS, cc1[0] - cc0[0])
            metrics.inc(M_COMM_CACHE_MISSES, cc1[1] - cc0[1])


def check_feasible(
    llm: LLMConfig, system: System, strategy: ExecutionStrategy
) -> FeasibilityReport:
    """The feasibility fast path: validate + profile + memory plan only.

    The returned report carries the infeasibility reason verbatim as the full
    model would produce it, plus the tier-1 memory breakdown whenever the
    memory plan ran (so callers can see how far over capacity a candidate
    lands, or how much headroom a feasible one has).
    """
    ctx = EvalContext(llm, system, strategy)
    stage_validate(ctx)
    if ctx.error is not None:
        return FeasibilityReport(feasible=False, reason=ctx.error, stage="validate")
    stage_profile(ctx)
    stage_memory(ctx)
    if ctx.error is not None:
        return FeasibilityReport(
            feasible=False,
            reason=ctx.error,
            stage="memory",
            mem1=ctx.mem.mem1_breakdown(),
            tier2_bytes=ctx.mem.tier2_used,
        )
    return FeasibilityReport(
        feasible=True,
        mem1=ctx.mem.mem1_breakdown(),
        tier2_bytes=ctx.mem.tier2_used,
    )


def iter_evaluate(
    llm: LLMConfig,
    system: System,
    strategies: Sequence[ExecutionStrategy],
    *,
    prune: bool = True,
    prune_above: float | Callable[[], float] | None = None,
    metrics: MetricsRegistry | None = None,
    columnar: bool | None = None,
) -> Iterator[tuple[int, PerformanceResult]]:
    """Evaluate a candidate list, yielding ``(index, result)`` pairs.

    Results stream in profile-group order (not input order) so sweeps can
    keep running statistics without materializing one result per candidate;
    ``index`` maps each result back to ``strategies``.  See
    :func:`evaluate_many` for the ``prune`` semantics.

    ``prune_above`` engages **bound pruning**: a batch-time threshold in
    seconds (or a zero-argument callable returning one, re-read per
    candidate so searches can tighten it as their running best improves).
    After the feasibility fast path, each memory bucket's roofline lower
    bound (:func:`~repro.engine.bounds.roofline_lower_bound`) is computed
    once; candidates whose bound is ``>= prune_above`` skip the
    comm/assembly stages entirely and yield a shared
    :class:`~repro.engine.bounds.PrunedResult` marker (``feasible=True,
    pruned=True, sample_rate == 0.0``).  Because the bound never exceeds
    the true batch time, a threshold at the caller's k-th-best batch time
    (see :func:`~repro.engine.bounds.prune_threshold_for_rate`) makes
    pruning lossless for top-k selection.  Only the batched path
    (``prune=True``) honors ``prune_above``; constraint-filtered or
    rate-histogram callers should leave it ``None`` since pruned candidates
    carry no timing breakdown.

    With ``metrics`` attached, the ``engine.*`` counters (candidates,
    per-stage rejections, profile groups, memory buckets and their hit
    counts, bounds computed/pruned, comm-kernel cache hits/misses) and
    per-stage wall-time histograms accumulate into the registry.  Timing is
    observed at the granularity the pruned path runs the work: validate per
    candidate, profile per group, memory plan per bucket, comm/assembly per
    survivor.  ``metrics=None`` (the default) costs only untaken branches.

    ``columnar`` selects the struct-of-arrays engine
    (:mod:`repro.engine.batch`) for the pruned path: ``None`` (default)
    auto-routes — columnar for batches of 32+ candidates, scalar below —
    ``True`` insists, ``False`` forces the scalar pipeline.  Outputs,
    stream order, and counters are bit-identical either way (the property
    suite enforces it); the one semantic difference is that a *callable*
    ``prune_above`` is read once per batch instead of per candidate, so a
    dynamically tightening threshold prunes no more than the scalar path
    would.  Per-stage time histograms are observed once per batch stage
    rather than per unit of work.
    """
    mx = metrics
    if not prune:
        # evaluate() does its own comm-cache delta accounting.
        for i, strategy in enumerate(strategies):
            yield i, evaluate(llm, system, strategy, metrics=mx)
        return
    batch_mod = _resolve_columnar(columnar, len(strategies))
    if mx is not None:
        cc0 = comm_cache_stats()
    try:
        if batch_mod is not None:
            yield from _iter_evaluate_columnar(
                llm, system, strategies, prune_above, mx, batch_mod
            )
        else:
            yield from _iter_evaluate_pruned(llm, system, strategies, prune_above, mx)
    finally:
        if mx is not None:
            cc1 = comm_cache_stats()
            mx.inc(M_COMM_CACHE_HITS, cc1[0] - cc0[0])
            mx.inc(M_COMM_CACHE_MISSES, cc1[1] - cc0[1])


def _iter_evaluate_columnar(
    llm: LLMConfig,
    system: System,
    strategies: Sequence[ExecutionStrategy],
    prune_above: float | Callable[[], float] | None,
    mx: MetricsRegistry | None,
    batch_mod,
) -> Iterator[tuple[int, PerformanceResult]]:
    # A callable threshold is resolved once for the whole batch: the batch
    # stages run before any result streams out, so mid-batch tightening could
    # never observe new information anyway.
    threshold = prune_above() if callable(prune_above) else prune_above
    eb = batch_mod.EvalBatch.from_strategies(llm, system, strategies)
    batch_mod.run_batch(eb, prune_above=threshold, metrics=mx)
    yield from batch_mod.iter_results(eb)


def _iter_evaluate_pruned(
    llm: LLMConfig,
    system: System,
    strategies: Sequence[ExecutionStrategy],
    prune_above: float | Callable[[], float] | None,
    mx: MetricsRegistry | None,
) -> Iterator[tuple[int, PerformanceResult]]:
    dynamic = callable(prune_above)

    # Pass 1: validate everything, reject structural violations immediately,
    # and bucket the remainder by block-profile key.
    groups: dict[tuple, list[tuple[int, ExecutionStrategy]]] = {}
    for i, strategy in enumerate(strategies):
        if mx is not None:
            mx.inc(M_CANDIDATES)
            t0 = perf_counter()
        try:
            strategy.validate(llm, system)
        except StrategyError as err:
            if mx is not None:
                mx.observe(_M_VALIDATE, perf_counter() - t0)
                mx.inc(M_REJECT_VALIDATE)
            ctx = EvalContext(llm, system, strategy, error=str(err))
            yield i, infeasible_result(ctx)
            continue
        if mx is not None:
            mx.observe(_M_VALIDATE, perf_counter() - t0)
        groups.setdefault(profile_key(strategy), []).append((i, strategy))

    # Pass 2: one profile per group; fast path per candidate; full pipeline
    # only for the survivors.  Within a group, candidates that differ only in
    # overlap knobs (tp_overlap, dp_overlap, pp_rs_ag) read the exact same
    # memory plan, so plans are computed once per bucket of memory-relevant
    # fields — and a capacity-rejected bucket shares one frozen result (every
    # field of it, including the reason string, is bucket-constant, so the
    # rejected majority of a sweep never even allocates a context).  The
    # roofline lower bound is bucket-constant too (bucket members differ only
    # in overlap knobs, which the bound excludes), so with a ``prune_above``
    # threshold it is computed once per feasible bucket and candidates it
    # disqualifies share one PrunedResult without allocating a context.
    for key, members in groups.items():
        if mx is not None:
            mx.inc(M_PROFILE_GROUPS)
            t0 = perf_counter()
        prof = profile_block(llm, system, *key)
        if mx is not None:
            mx.observe(_M_PROFILE, perf_counter() - t0)
        group_memo: dict = {}
        buckets: dict[
            tuple,
            tuple[MemoryPlan | None, PerformanceResult | None, dict, float | None],
        ] = {}
        for i, strategy in members:
            mkey = (
                strategy.pipeline_par, strategy.data_par, strategy.batch,
                strategy.pp_interleaving, strategy.pp_1f1b,
                strategy.optimizer_sharding, strategy.weight_offload,
                strategy.activation_offload, strategy.optimizer_offload,
                strategy.training,
            )
            hit = buckets.get(mkey)
            if hit is None:
                if mx is not None:
                    mx.inc(M_MEMORY_BUCKETS)
                    t0 = perf_counter()
                ctx = EvalContext(llm, system, strategy)
                fill_scalars(ctx)
                ctx.prof = prof
                stage_memory(ctx)
                if mx is not None:
                    mx.observe(_M_MEMORY, perf_counter() - t0)
                if ctx.error is not None:
                    if mx is not None:
                        mx.inc(M_REJECT_MEMORY)
                    rejected = infeasible_result(ctx)
                    buckets[mkey] = (None, rejected, {}, None)
                    yield i, rejected
                    continue
                bucket_memo: dict = {}
                bound: float | None = None
                if prune_above is not None:
                    bound = roofline_lower_bound(ctx)
                    if mx is not None:
                        mx.inc(M_BOUND_EVALS)
                buckets[mkey] = (ctx.mem, None, bucket_memo, bound)
            else:
                plan, rejected, bucket_memo, bound = hit
                if mx is not None:
                    mx.inc(M_BUCKET_HITS)
                if rejected is not None:
                    if mx is not None:
                        mx.inc(M_REJECT_MEMORY)
                        mx.inc(M_SHARED_INFEASIBLE)
                    yield i, rejected
                    continue
                ctx = None
            if bound is not None and bound >= (
                prune_above() if dynamic else prune_above
            ):
                if mx is not None:
                    mx.inc(M_BOUND_PRUNED)
                pruned = bucket_memo.get("pruned_result")
                if pruned is None:
                    pruned = PrunedResult(batch=strategy.batch, lower_bound=bound)
                    bucket_memo["pruned_result"] = pruned
                yield i, pruned
                continue
            if ctx is None:
                ctx = EvalContext(llm, system, strategy)
                fill_scalars(ctx)
                ctx.prof = prof
                ctx.mem = plan
            if mx is None:
                stage_comm(ctx, group_memo, bucket_memo)
                stage_assemble(ctx)
            else:
                t0 = perf_counter()
                stage_comm(ctx, group_memo, bucket_memo)
                t1 = perf_counter()
                stage_assemble(ctx)
                mx.observe(_M_ASSEMBLE, perf_counter() - t1)
                mx.observe(_M_COMM, t1 - t0)
                mx.inc(M_EVALUATED_FULL)
            yield i, ctx.result


def evaluate_many(
    llm: LLMConfig,
    system: System,
    strategies: Iterable[ExecutionStrategy],
    *,
    prune: bool = True,
    prune_above: float | Callable[[], float] | None = None,
    metrics: MetricsRegistry | None = None,
    stats: bool = False,
    columnar: bool | None = None,
) -> list[PerformanceResult] | tuple[list[PerformanceResult], PruneStats]:
    """Evaluate many candidates; results align with the input order.

    With ``prune=True`` (the default) candidates are grouped by their
    block-profile key and the feasibility fast path runs first: capacity
    rejections never reach the comm/timing stages, and each distinct block is
    profiled exactly once per group rather than once per candidate.  With
    ``prune=False`` every candidate runs through :func:`evaluate`
    individually — same results, no batching.

    Outputs are identical to mapping :func:`evaluate` (and therefore the
    legacy ``calculate``) over the list, including infeasibility reasons —
    except under an explicit ``prune_above`` batch-time threshold, where
    memory-feasible candidates whose roofline lower bound already exceeds
    the threshold come back as lightweight
    :class:`~repro.engine.bounds.PrunedResult` markers (see
    :func:`iter_evaluate`).

    ``stats=True`` returns ``(results, PruneStats)`` instead of discarding
    the pruning bookkeeping: how many profile groups formed, how many
    candidates shared a memory bucket, and how many were short-circuited by
    a shared rejection.  ``metrics`` accumulates into a caller-owned
    registry (e.g. one shared across a hill-climb); pass both to get the
    stats of this call while also feeding the larger aggregate.

    ``columnar`` selects the struct-of-arrays batch engine for the pruned
    path (see :func:`iter_evaluate`): ``None`` auto-routes by batch size,
    ``False`` forces the scalar pipeline, ``True`` insists on columnar.
    Results are bit-identical either way.
    """
    strategies = list(strategies)
    # With stats requested, accumulate into a fresh registry so the returned
    # PruneStats covers exactly this call, then fold into the caller's.
    reg = MetricsRegistry() if stats else metrics
    results: list[PerformanceResult | None] = [None] * len(strategies)
    for i, result in iter_evaluate(
        llm, system, strategies, prune=prune, prune_above=prune_above, metrics=reg,
        columnar=columnar,
    ):
        results[i] = result
    if stats:
        if metrics is not None:
            metrics.merge(reg.snapshot())
        return results, PruneStats.from_metrics(reg)
    return results
