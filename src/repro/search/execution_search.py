"""Optimal execution search engine (paper §5.1).

Exhaustively enumerates execution configurations for a given LLM, system and
global batch size, evaluates each with the analytical model, and returns the
best performer (by sample rate) plus distribution statistics.  The
enumeration covers the full Table-1 space; :class:`SearchOptions` restricts
any dimension for scoped studies (e.g. Fig. 5's "original optimizations").

The space is enumerated once, straight into NumPy columns, and evaluated
as global column ranges ``[start, stop)``: one range through the adaptive
columnar batch for a plain serial search, several ranges through
:func:`~repro.search.chunkeval.evaluate_chunk` when a process pool or a
per-chunk fault-tolerance feature (checkpoint, deadline, retry, fault
injection) asks for chunks.  Configurations are independent, so the sweep
parallelizes trivially — but at ~0.5-1M candidates/s per core a pool only
pays for very large spaces (see :func:`auto_workers`).
"""

from __future__ import annotations

import itertools
import logging
import math
import os
from collections.abc import Mapping
from dataclasses import dataclass, replace
from time import perf_counter
from typing import Any, Callable

import numpy as np

from ..core.results import PerformanceResult
from ..engine import batch as engine_batch
from ..engine import comm_cache_stats, evaluate
from ..execution.strategy import ExecutionStrategy, divisors, factorizations
from ..hardware.system import System
from ..llm.config import LLMConfig
from ..obs import (
    M_COMM_CACHE_HITS,
    M_COMM_CACHE_MISSES,
    EventJournal,
    MetricsRegistry,
    ProgressReporter,
    PruneStats,
    SweepStats,
    Tracer,
)
from .checkpoint import CheckpointJournal, run_key
from .chunkeval import _chunk_trace_events, evaluate_chunk
from .columns import candidate_columns
from .faults import FaultInjector, RetryPolicy, run_supervised
from .merge import TopKMerge
from .surrogate import (
    load_surrogate,
    seed_sample_size,
    store_surrogate,
    surrogate_key,
)

logger = logging.getLogger(__name__)

# Candidates per pool worker below which an extra process costs more than
# it saves.  The columnar chunk evaluator prices ~0.5-1M candidates/s per
# core, so 250k candidates are ~0.25-0.5 s of serial work — about what a
# worker adds before it contributes: forking the pool plus a duplicated
# cold block profile and enumeration in every process (~0.2-0.3 s on a
# 2-core host).  See auto_workers().
MIN_STRATEGIES_PER_WORKER = 250_000

# Chunks per worker in a chunked dispatch: enough granularity for the pool
# to balance and for checkpoints/deadlines to bite, coarse enough that each
# chunk amortizes its batch set-up.
CHUNKS_PER_WORKER = 4


@dataclass(frozen=True)
class SearchOptions:
    """Which execution dimensions to sweep (paper Table 1 "range" column).

    Each tuple lists the values tried for that dimension; fixing a dimension
    to a single value removes it from the sweep.  ``seq_par_modes`` entries
    are ``(seq_par, tp_redo_sp, pp_rs_ag)`` triples, keeping the dependent
    flags consistent by construction.
    """

    recompute: tuple[str, ...] = ("none", "attn_only", "full")
    seq_par_modes: tuple[tuple[bool, bool, bool], ...] = (
        (False, False, False),
        (True, True, True),
    )
    tp_overlap: tuple[str, ...] = ("none", "ring")
    dp_overlap: tuple[bool, ...] = (False, True)
    optimizer_sharding: tuple[bool, ...] = (False, True)
    fused_activations: tuple[bool, ...] = (False, True)
    pp_1f1b: tuple[bool, ...] = (True,)
    offload_modes: tuple[tuple[bool, bool, bool], ...] = ((False, False, False),)
    max_tensor_par: int = 64
    max_microbatch: int = 64
    microbatch_powers_of_two: bool = True
    interleaving_values: tuple[int, ...] | None = None  # None -> divisors of L/p
    training: bool = True

    @classmethod
    def megatron_baseline(cls) -> "SearchOptions":
        """The "original optimizations" regime of Fig. 5(a): full recompute,
        1F1B + microbatching, no sequence parallelism, no overlap/sharding."""
        return cls(
            recompute=("full",),
            seq_par_modes=((False, False, False),),
            tp_overlap=("none",),
            dp_overlap=(False,),
            optimizer_sharding=(False,),
            fused_activations=(False,),
        )

    @classmethod
    def seq_par_regime(cls) -> "SearchOptions":
        """Fig. 5(b): sequence parallelism + selective recompute added."""
        return cls(
            recompute=("attn_only", "full"),
            seq_par_modes=((True, True, True),),
            tp_overlap=("none",),
            dp_overlap=(False,),
            optimizer_sharding=(False,),
            fused_activations=(False,),
        )

    @classmethod
    def all_optimizations(cls) -> "SearchOptions":
        """Fig. 5(c,d): the full Table-1 space."""
        return cls()

    @classmethod
    def all_with_offload(cls) -> "SearchOptions":
        """§6: the full space plus weight+activation+optimizer offload."""
        return cls(
            offload_modes=((False, False, False), (True, True, True))
        )

    def with_offload_only(self) -> "SearchOptions":
        return replace(self, offload_modes=((True, True, True),))


@dataclass
class SearchResult:
    """Outcome of one exhaustive execution search.

    ``stats`` is populated when the search ran with ``collect_stats=True``
    or with any fault-tolerance feature active: a
    :class:`~repro.obs.SweepStats` whose engine counters are merged across
    every worker chunk and whose retry/skip/resume counters describe what
    the supervision layer did.  ``truncated`` is set when a ``deadline``
    stopped the sweep at a chunk boundary — the result is then valid but
    covers only the evaluated prefix of the space.
    """

    best: PerformanceResult | None
    best_strategy: ExecutionStrategy | None
    top: list[tuple[ExecutionStrategy, PerformanceResult]]
    num_evaluated: int
    num_feasible: int
    sample_rates: np.ndarray  # feasible configurations' sample rates
    stats: SweepStats | None = None
    truncated: bool = False

    @property
    def feasible_fraction(self) -> float:
        if self.num_evaluated == 0:
            return 0.0
        return self.num_feasible / self.num_evaluated


def candidate_strategies(
    llm: LLMConfig,
    system: System,
    batch: int,
    options: SearchOptions | None = None,
):
    """Yield every candidate :class:`ExecutionStrategy` in the option space.

    Structural constraints that need no model evaluation (t beyond the head
    count, p beyond the block count, batch divisibility) are pruned here;
    everything else is left to the model's feasibility check.
    """
    opts = options or SearchOptions()
    n = system.num_procs
    for t, p, d in factorizations(n):
        if t > min(opts.max_tensor_par, llm.attn_heads) or llm.attn_heads % t:
            continue
        if llm.hidden % t or llm.feedforward % t:
            continue
        if p > llm.num_blocks:
            continue
        if d > batch or batch % d:
            continue
        local_batch = batch // d
        microbatches = [
            m
            for m in divisors(local_batch)
            if m <= opts.max_microbatch
            and (not opts.microbatch_powers_of_two or (m & (m - 1)) == 0)
        ]
        if opts.interleaving_values is not None:
            interleavings = [
                v
                for v in opts.interleaving_values
                if v == 1 or (p > 1 and v <= math.ceil(llm.num_blocks / p))
            ]
        else:
            bpstage = math.ceil(llm.num_blocks / p)
            interleavings = [v for v in divisors(bpstage) if v == 1 or p > 1]
        for m, v in itertools.product(microbatches, interleavings):
            for rc, (sp, redo, ppsg), tpo, dpo, osh, fus, f1b, off in itertools.product(
                opts.recompute,
                opts.seq_par_modes,
                opts.tp_overlap,
                opts.dp_overlap,
                opts.optimizer_sharding,
                opts.fused_activations,
                opts.pp_1f1b,
                opts.offload_modes,
            ):
                if sp and llm.seq_size % t:
                    continue
                if sp and t == 1:
                    continue  # degenerate: SP is a no-op without TP
                yield ExecutionStrategy(
                    tensor_par=t,
                    pipeline_par=p,
                    data_par=d,
                    batch=batch,
                    microbatch=m,
                    pp_interleaving=v,
                    pp_1f1b=f1b,
                    pp_rs_ag=ppsg and sp,
                    seq_par=sp,
                    tp_redo_sp=redo and sp,
                    tp_overlap=tpo,
                    dp_overlap=dpo,
                    optimizer_sharding=osh,
                    recompute=rc,
                    fused_activations=fus,
                    weight_offload=off[0],
                    activation_offload=off[1],
                    optimizer_offload=off[2],
                    training=opts.training,
                )


def auto_workers(num_strategies: int, cpu_count: int | None = None) -> int:
    """Process count for a sweep of ``num_strategies`` candidates.

    The heuristic: one worker per :data:`MIN_STRATEGIES_PER_WORKER`
    candidates, capped at the machine's core count and floored at one.
    The columnar evaluator is fast enough that spaces of a few hundred
    thousand candidates — every paper-scale single-batch search, e.g. the
    ~100k-candidate GPT-3 175B / 4096-GPU sweep — run serially *by design*,
    even on a many-core machine: forking a pool and re-profiling in every
    worker costs more than the evaluation it would share.  Callers who
    know better pass ``workers`` explicitly.
    """
    cpus = cpu_count if cpu_count is not None else (os.cpu_count() or 1)
    return max(1, min(cpus, num_strategies // MIN_STRATEGIES_PER_WORKER))


# The enumerated space of the running search: ``(space key, cols,
# strategies)``.  search() sets it before dispatch, so forked pool workers
# inherit it; a worker started any other way enumerates once, on its first
# range, and keeps the result for the rest of the run.
_SPACE: tuple[str, dict | None, list | None] | None = None


@dataclass(frozen=True)
class _RangeRunner:
    """Evaluate one ``(index, start, stop, floor_rate)`` range task.

    Module-level and small, so a pool pickles it cheaply with every task;
    the candidate columns never travel — each process takes them from the
    per-process space cache (:data:`_SPACE`).
    """

    llm: LLMConfig
    system: System
    batch: int
    options: "SearchOptions"
    space_key: str
    columnar: bool
    top_k: int
    keep_rates: bool
    prune: bool
    constraint: Callable[[PerformanceResult], bool] | None
    instrument: bool
    trace_id: str | None
    injector: FaultInjector | None

    def space(self) -> tuple[dict | None, list | None]:
        global _SPACE
        space = _SPACE
        if space is None or space[0] != self.space_key:
            problem = (self.llm, self.system, self.batch, self.options)
            if self.columnar:
                space = (self.space_key, candidate_columns(*problem), None)
            else:
                space = (self.space_key, None, list(candidate_strategies(*problem)))
            _SPACE = space
        return space[1], space[2]

    def __call__(self, task: tuple[int, int, int, float]) -> dict[str, Any]:
        index, start, stop, floor_rate = task
        if self.injector is not None:
            self.injector.fire(index)
        cols, strategies = self.space()
        return evaluate_chunk(
            self.llm, self.system, start, stop, self.top_k,
            cols=cols, strategies=strategies, chunk_index=index,
            instrument=self.instrument, trace_id=self.trace_id,
            floor_rate=floor_rate, keep_rates=self.keep_rates,
            constraint=self.constraint, prune=self.prune,
        )


class _RangeTasks(Mapping):
    """Chunk index -> range task, read at dispatch time.

    With a ``merge`` to gossip from, every read carries its current k-th-best
    rate as the range's ``floor_rate``, so each range starts from the
    threshold everything merged before it already achieved, whichever
    dispatch path runs it.
    """

    def __init__(self, ranges: dict[int, tuple[int, int]], merge: TopKMerge | None):
        self.ranges = ranges
        self.merge = merge

    def __getitem__(self, index: int) -> tuple[int, int, int, float]:
        start, stop = self.ranges[index]
        threshold = self.merge.threshold() if self.merge is not None else None
        return index, start, stop, threshold[0] if threshold else 0.0

    def __iter__(self):
        return iter(self.ranges)

    def __len__(self) -> int:
        return len(self.ranges)


def _search_columnar(
    llm: LLMConfig,
    system: System,
    batch: int,
    cols: dict,
    engine_batch,
    *,
    top_k: int,
    keep_rates: bool,
    instrument: bool,
    collect_stats: bool,
    tracer: Tracer | None,
    progress: ProgressReporter | None,
    t_start: float,
    options: SearchOptions | None = None,
    bound_prune: bool = True,
    prune_seed: int = 0,
    surrogate: bool = True,
    floor_rate: float = 0.0,
) -> SearchResult:
    """Evaluate the whole candidate space as one vectorized columnar batch.

    No chunking and no heap: the top-k is selected from the survivor rate
    column with the scalar heap's exact retention rule (ties at the k-th
    rate keep the earliest candidates in *stream* order; the returned list
    is then ordered by rate, ties by enumeration index), and only those k
    winners are materialized as :class:`ExecutionStrategy` objects and
    re-evaluated through the scalar pipeline — bit-identical by the
    engine's columnar equivalence contract, and a few microseconds each.

    When the caller needs nothing beyond the top-k (``bound_prune`` with
    ``keep_rates=False``), evaluation runs the adaptive best-bound-first
    tiled path (:class:`repro.engine.batch.AdaptivePlan`): buckets are
    visited in roofline-bound order, the running k-th-best rate tightens a
    strict threshold between tiles, and hopeless buckets never reach the
    comm stage.  An online surrogate (``surrogate=True``) picks the tile-0
    seed sample from persisted observations of previous runs —
    ``prune_seed`` sizes that sample (its stride semantics apply only to
    the scalar chunked path).  Both tiling and seeding affect speed only:
    the retained top-k stays bit-identical to the untiled, unseeded run.
    With ``keep_rates`` every candidate's rate is needed, so the batch
    runs untiled exactly as before.
    """
    eb = engine_batch.EvalBatch.from_columns(llm, system, cols)
    n = eb.n
    if progress is not None:
        progress.set_total(n)
    registry = MetricsRegistry() if instrument else None
    plan = None
    sur = sur_key = None
    do_adaptive = bool(bound_prune and not keep_rates and top_k > 0)
    if do_adaptive:
        seed_fn = on_tile = None
        if surrogate:
            sur_key = surrogate_key(llm, system, batch,
                                    options or SearchOptions())
            sur = load_surrogate(sur_key)
            seed_n = seed_sample_size(prune_seed, top_k)
            if seed_n > 0:
                def seed_fn(batch_state):
                    return sur.seed_buckets(batch_state, seed_n)

            def on_tile(tile_b, bid_s, rate_s):
                sur.observe_tile(eb, bid_s, rate_s)

        plan = engine_batch.AdaptivePlan(
            top_k=top_k, floor_rate=floor_rate,
            seed_fn=seed_fn, on_tile=on_tile,
        )
    t_run = perf_counter()
    if registry is not None:
        cc0 = comm_cache_stats()
    try:
        engine_batch.run_batch(
            eb, prune_above=None, metrics=registry, adaptive=plan
        )
    finally:
        if registry is not None:
            cc1 = comm_cache_stats()
            registry.inc(M_COMM_CACHE_HITS, cc1[0] - cc0[0])
            registry.inc(M_COMM_CACHE_MISSES, cc1[1] - cc0[1])
    if sur is not None and sur_key is not None:
        store_surrogate(sur_key, sur)
    # Bound-pruned candidates are memory-feasible by construction — the
    # comm/assemble stages never reject — so they count toward feasibility
    # exactly as on the scalar pruned path.
    num_feasible = int(eb.n_s) + int(getattr(eb, "n_pruned", 0))
    top: list[tuple[ExecutionStrategy, PerformanceResult]] = []
    if top_k > 0 and num_feasible > 0:
        srank = eb.stream_rank[eb.sidx]
        keep = np.lexsort((srank, -eb.rate_s))[:top_k]
        order = np.lexsort((eb.sidx[keep], -eb.rate_s[keep]))
        for i in keep[order]:
            strat = eb.strategy_at(int(eb.sidx[i]))
            top.append((strat, evaluate(llm, system, strat)))
    rates = np.empty(0)
    if keep_rates and num_feasible > 0:
        rates = eb.rate_s[np.argsort(eb.stream_rank[eb.sidx])]
    if progress is not None:
        progress.update(n, num_feasible)
        progress.finish()
    if tracer is not None and registry is not None:
        _chunk_trace_events(
            tracer, 0, registry, t_run, perf_counter() - t_run, n, num_feasible,
        )
    stats = None
    if collect_stats:
        stats = SweepStats(
            engine=PruneStats.from_metrics(registry),
            elapsed=perf_counter() - t_start,
            workers=1,
            num_evaluated=n,
            num_feasible=num_feasible,
            retries=0,
            skipped=(),
            resumed_chunks=0,
            truncated=False,
        )
    best_strategy, best = (top[0][0], top[0][1]) if top else (None, None)
    return SearchResult(
        best=best,
        best_strategy=best_strategy,
        top=top,
        num_evaluated=n,
        num_feasible=num_feasible,
        sample_rates=rates,
        stats=stats,
        truncated=False,
    )


def search(
    llm: LLMConfig,
    system: System,
    batch: int,
    options: SearchOptions | None = None,
    *,
    top_k: int = 10,
    workers: int | None = None,
    keep_rates: bool = True,
    constraint=None,
    bound_prune: bool = True,
    prune_seed: int = 0,
    columnar: bool | None = None,
    surrogate: bool = True,
    tracer: Tracer | None = None,
    collect_stats: bool = False,
    progress: ProgressReporter | None = None,
    events: EventJournal | None = None,
    checkpoint: str | os.PathLike | None = None,
    resume: bool = False,
    deadline: float | None = None,
    retry_policy: RetryPolicy | None = None,
    fault_injector: FaultInjector | None = None,
) -> SearchResult:
    """Exhaustively search the execution space; return the best performer.

    Args:
        llm, system, batch: the fixed problem.
        options: sweep restrictions; defaults to the full Table-1 space.
        top_k: how many best configurations to retain.
        workers: process count; ``None`` applies :func:`auto_workers`
            (serial below ~250k candidates per core, documented there);
            0/1 forces serial.
        keep_rates: retain every feasible sample rate (Fig. 6 histograms).
        constraint: optional predicate on feasible results — return False to
            reject a configuration (e.g. a memory or MFU floor).  Must be a
            picklable (module-level) callable when ``workers > 1``.
        bound_prune: let the engine skip the comm/timing stages for
            candidates whose roofline lower bound proves they cannot enter
            the top-k (see :mod:`repro.engine.bounds`).  The retained top-k
            is bit-identical to an unpruned run.  Only engages when the
            search needs nothing but the top-k — ``keep_rates=False``, no
            ``constraint`` — because pruned candidates carry no sample rate
            for histograms and no breakdown for a predicate to inspect.
            ``num_feasible`` still counts pruned candidates (the comm and
            assembly stages never reject).
        prune_seed: sizes the surrogate-picked tile-0 seed sample of the
            single-range adaptive columnar path (0 keeps the default size,
            negative disables seeding).  Speed only: the result stays
            bit-identical.  Chunked dispatches seed each range with the
            running k-th-best rate instead.
        columnar: route evaluation through the vectorized columnar engine
            (:mod:`repro.engine.batch`).  ``None`` (the default) and
            ``True`` enumerate straight into NumPy columns and evaluate
            column ranges, materializing only the top-k winners; ``False``
            enumerates :class:`ExecutionStrategy` objects and evaluates
            them through the scalar pipeline — the test oracle.  A plain
            serial search with ``bound_prune`` and ``keep_rates=False``
            runs the adaptive best-bound-first tiled path over the whole
            space (see :func:`_search_columnar`).  Results are
            bit-identical either way.
        surrogate: let the single-range adaptive columnar path seed tile 0
            from the online learned ranking persisted in the surrogate
            store (see :mod:`repro.search.surrogate`).  Speed-only — top-k
            identical on or off; ``--no-surrogate`` maps here.
        tracer: records enumeration/chunk/stage spans (worker events merge
            onto the parent timeline; CLOCK_MONOTONIC is machine-wide).
        collect_stats: attach a :class:`~repro.obs.SweepStats` (per-stage
            rejection counts, dedup hit rates, candidates/sec) to the
            result, aggregated across chunks.
        progress: fed one update per finished chunk (its total is set to
            the candidate count once enumeration finishes).
        events: a :class:`~repro.obs.EventJournal` flight recorder; the
            search emits ``search.start``/``search.done`` plus the chunk
            lifecycle (dispatch, done, retry, timeout, fallback, skip,
            resume, truncation).
        checkpoint: path of a JSONL checkpoint journal; every completed
            chunk is journaled so an interrupted sweep can be resumed.
        resume: reload ``checkpoint`` and skip already-journaled chunks
            (bit-identical to an uninterrupted run); raises
            :class:`~repro.search.checkpoint.CheckpointMismatch` when the
            journal belongs to a different problem.
        deadline: wall-clock budget in seconds (measured from this call).
            Dispatch stops cleanly at a chunk boundary once it passes and
            the partial result is flagged ``truncated=True``.
        retry_policy: per-chunk timeout / bounded-retry / backoff policy
            (see :class:`~repro.search.faults.RetryPolicy`).  A chunk that
            fails every pool retry is re-run serially; if it still fails
            its range is recorded in ``stats.skipped`` instead of aborting.
        fault_injector: deterministic test hook that makes one chunk raise,
            hang or crash (see :class:`~repro.search.faults.FaultInjector`).

    The chunk layout depends only on ``workers`` and the per-chunk features
    (``checkpoint``, ``deadline``, ``retry_policy``, ``fault_injector``):
    one range when serial without them, else ``4 * workers`` ranges run by
    :func:`~repro.search.faults.run_supervised`.  ``events``, ``tracer``,
    ``collect_stats`` and ``progress`` only observe; they never change the
    layout or the evaluator.
    """
    if resume and checkpoint is None:
        raise ValueError("resume=True requires a checkpoint path")
    t_start = perf_counter()
    opts = options or SearchOptions()
    instrument = collect_stats or tracer is not None
    supervised = (
        checkpoint is not None
        or deadline is not None
        or retry_policy is not None
        or fault_injector is not None
    )
    # Unencodable option spaces (unknown mode names) enumerate as scalar
    # strategies, whose validate stage reports the bad name.
    cols = candidate_columns(llm, system, batch, opts) if columnar is not False else None
    strategies = None
    if cols is None:
        strategies = list(candidate_strategies(llm, system, batch, opts))
    n = int(cols["t"].shape[0]) if cols is not None else len(strategies)
    if tracer is not None:
        tracer.add_span("enumerate", "search", t_start, perf_counter() - t_start,
                        candidates=n)
    workers = max(1, auto_workers(n) if workers is None else workers)
    chunked = workers > 1 or supervised
    trace_id = tracer.trace_id if tracer is not None else None

    if not chunked and cols is not None and constraint is None:
        _emit(events, "search.start", candidates=n, workers=1, chunks=1,
              trace_id=trace_id)
        _emit(events, "chunk.dispatch", chunk=0, attempt=0, mode="serial")
        result = _search_columnar(
            llm, system, batch, cols, engine_batch,
            top_k=top_k, keep_rates=keep_rates, instrument=instrument,
            collect_stats=collect_stats, tracer=tracer,
            progress=progress, t_start=t_start,
            options=options, bound_prune=bound_prune,
            prune_seed=prune_seed, surrogate=surrogate,
        )
        seconds = perf_counter() - t_start
        _emit(events, "chunk.done", chunk=0, seconds=seconds)
        _emit(events, "search.done", seconds=seconds,
              evaluated=result.num_evaluated, feasible=result.num_feasible,
              retries=0, resumed=0, truncated=False)
        return result

    step = math.ceil(n / (workers * CHUNKS_PER_WORKER)) if chunked else n
    journal = None
    if checkpoint is not None:
        key = run_key(
            llm, system, batch, opts, kind="search",
            extra={
                # Records are evaluate_chunk wire payloads over global
                # column ranges; the tag keeps other record formats from
                # resuming.
                "format": "ranges-v2",
                "top_k": top_k,
                "keep_rates": keep_rates,
                "constraint": getattr(constraint, "__qualname__", str(constraint))
                if constraint is not None else None,
            },
        )
        journal = CheckpointJournal.open(
            checkpoint, key, resume=resume, events=events,
            meta={"step": step, "num_candidates": n, "trace_id": trace_id},
        )
        # The journal's chunk layout wins: resuming with a different worker
        # count must slice the space exactly as the original run did.
        step = int(journal.meta.get("step", step)) or step
        # So does its trace identity: a resumed run continues the original
        # trace, letting the stitched Chrome trace span both invocations.
        if tracer is not None and journal.meta.get("trace_id"):
            tracer.trace_id = trace_id = str(journal.meta["trace_id"])
    step = max(step, 1)
    ranges = {i: (lo, min(lo + step, n)) for i, lo in enumerate(range(0, n, step))}
    logger.debug("search: %d candidates, %d workers, %d chunks (supervised=%s)",
                 n, workers, len(ranges), supervised)
    _emit(events, "search.start", candidates=n, workers=workers,
          chunks=len(ranges), trace_id=trace_id)
    if progress is not None:
        progress.set_total(n)

    prune = bool(bound_prune and constraint is None and not keep_rates and top_k > 0)
    merge = TopKMerge(top_k)
    payloads: dict[int, dict] = {}

    def absorb(index: int, payload: dict) -> None:
        payloads[index] = payload
        merge.extend(payload["top"])
        if progress is not None:
            progress.update(payload["n"], payload["feasible"])

    def on_result(index: int, payload: dict) -> None:
        if journal is not None:
            journal.record(str(index), {
                key: payload[key]
                for key in ("n", "feasible", "top", "rates", "snapshot")
            })
        absorb(index, payload)

    for index in ranges:
        if journal is not None and str(index) in journal:
            absorb(index, journal.get(str(index)))
            _emit(events, "chunk.resumed", chunk=index)
    resumed = len(payloads)
    tasks = _RangeTasks({i: r for i, r in ranges.items() if i not in payloads},
                        merge if prune else None)

    runner = _RangeRunner(
        llm=llm, system=system, batch=batch, options=opts,
        space_key=run_key(llm, system, batch, opts, kind="search-space",
                          extra={"columnar": cols is not None}),
        columnar=cols is not None, top_k=top_k, keep_rates=keep_rates,
        prune=prune, constraint=constraint, instrument=instrument,
        trace_id=trace_id, injector=fault_injector,
    )
    global _SPACE
    _SPACE = (runner.space_key, cols, strategies)
    retries = 0
    truncated = False
    skipped_ranges: tuple[tuple[int, int], ...] = ()
    try:
        if chunked:
            report = run_supervised(
                runner, tasks, workers=workers, policy=retry_policy,
                deadline=t_start + deadline if deadline is not None else None,
                on_result=on_result, events=events, tracer=tracer,
            )
            retries, truncated = report.retries, report.truncated
            skipped_ranges = tuple(ranges[i] for i in report.skipped)
        else:
            # One range, in process: nothing to supervise, so a failure
            # propagates to the caller.
            for index in tasks:
                _emit(events, "chunk.dispatch", chunk=index, attempt=0,
                      mode="serial")
                on_result(index, runner(tasks[index]))
                _emit(events, "chunk.done", chunk=index,
                      seconds=payloads[index]["elapsed_s"])
    finally:
        _SPACE = None
    if progress is not None:
        progress.finish()

    results = [payloads[i] for i in sorted(payloads)]
    num_eval = sum(int(p["n"]) for p in results)
    num_feasible = sum(int(p["feasible"]) for p in results)
    rates = np.empty(0)
    if keep_rates and any(p.get("rates") for p in results):
        rates = np.concatenate(
            [np.asarray(p.get("rates") or [], dtype=float) for p in results]
        )
    # Only the winners are materialized, through the scalar pipeline —
    # bit-identical to the ranges' results by the engine's equivalence
    # contract, and a few microseconds each.
    top = []
    for _rate, _gidx, strat_dict in merge.entries():
        strat = ExecutionStrategy.from_dict(strat_dict)
        top.append((strat, evaluate(llm, system, strat)))
    best_strategy, best = top[0] if top else (None, None)

    if tracer is not None:
        for p in results:
            if p.get("events"):
                tracer.add_events(p["events"])
    stats = None
    if collect_stats or supervised or retries or skipped_ranges:
        registry = MetricsRegistry.from_snapshots(
            p["snapshot"] for p in results if p.get("snapshot") is not None
        )
        stats = SweepStats(
            engine=PruneStats.from_metrics(registry),
            elapsed=perf_counter() - t_start,
            workers=workers,
            num_evaluated=num_eval,
            num_feasible=num_feasible,
            retries=retries,
            skipped=skipped_ranges,
            resumed_chunks=resumed,
            truncated=truncated,
        )
    _emit(events, "search.done", seconds=perf_counter() - t_start,
          evaluated=num_eval, feasible=num_feasible, retries=retries,
          resumed=resumed, truncated=truncated)
    return SearchResult(
        best=best,
        best_strategy=best_strategy,
        top=top,
        num_evaluated=num_eval,
        num_feasible=num_feasible,
        sample_rates=rates,
        stats=stats,
        truncated=truncated,
    )


def _emit(events: EventJournal | None, kind: str, **fields: Any) -> None:
    """Journal one search lifecycle event; a ``None`` journal costs a branch."""
    if events is not None:
        events.emit(kind, **fields)
