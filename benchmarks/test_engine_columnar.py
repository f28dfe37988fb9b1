"""Columnar engine: adaptive best-bound-first search vs the pruned scalar path.

Acceptance criterion for the adaptive columnar core (ISSUE 10, raising
ISSUE 6's 5x): a serial top-k search over the shared GPT-3 175B / 4,096-GPU /
batch-4096 space must run >= 10x faster through the adaptive columnar path
(candidates enumerated straight into NumPy columns, buckets visited
best-bound-first in geometrically growing tiles, a strict threshold skipping
buckets between tiles) than through the *bound-pruned scalar* path — the
strongest scalar configuration, measured fresh in this process so the ratio
is same-machine.  The assertion gate sits at 8x to absorb shared-runner
scheduler noise; the measured numbers are merged into ``BENCH_engine.json``
next to the bound-pruning results.

Two bit-exactness gates guard the speed claim: the adaptive top-k must match
the pruned scalar top-k AND the *unpruned scalar oracle* top-k entry for
entry (results equal as frozen dataclasses, every float bit-for-bit), so no
layer of pruning — scalar bound-and-prune or adaptive tiling — changed the
answer.

A final instrumented columnar run checks the adaptive counters: one batch
covering the whole space, zero scalar fallbacks, at least one tile, and a
non-trivial bucket skip rate.
"""

import gc
import time
from pathlib import Path

from repro.engine import clear_caches
from repro.search import search

from _helpers import banner, gpt3_sweep_problem, merge_bench

TOP_K = 10
ROUNDS = 3  # best-of-N damps scheduler noise on shared CI runners


def _timed_search(columnar: bool):
    llm, system, batch = gpt3_sweep_problem()
    best_t = None
    result = None
    for _ in range(ROUNDS):
        clear_caches()
        gc.collect()
        t0 = time.perf_counter()
        result = search(
            llm, system, batch, top_k=TOP_K, workers=0,
            keep_rates=False, columnar=columnar,
        )
        dt = time.perf_counter() - t0
        best_t = dt if best_t is None else min(best_t, dt)
    return best_t, result


def _run():
    # columnar=False with keep_rates=False engages bound pruning — the
    # scalar reference here is the best scalar search available.
    t_scalar, scalar = _timed_search(columnar=False)
    t_col, col = _timed_search(columnar=True)

    # The unpruned scalar oracle: every candidate fully evaluated, no
    # pruning of any kind.  Run once, untimed — it exists to prove the
    # answer, not to flatter the ratio.
    clear_caches()
    gc.collect()
    llm, system, batch = gpt3_sweep_problem()
    oracle = search(
        llm, system, batch, top_k=TOP_K, workers=0,
        keep_rates=False, bound_prune=False, columnar=False,
    )

    clear_caches()
    gc.collect()
    counted = search(
        llm, system, batch, top_k=TOP_K, workers=0,
        keep_rates=False, columnar=True, collect_stats=True,
    )
    return t_scalar, scalar, t_col, col, oracle, counted


def _same_topk(a, b) -> bool:
    return len(a.top) == len(b.top) == TOP_K and all(
        s1 == s2 and r1 == r2
        for (s1, r1), (s2, r2) in zip(a.top, b.top)
    )


def test_columnar_search_speedup(benchmark):
    t_scalar, scalar, t_col, col, oracle, counted = benchmark.pedantic(
        _run, rounds=1, iterations=1
    )
    speedup = t_scalar / t_col
    stats = counted.stats.engine
    feasible_buckets = stats.bound_evals
    skip_rate = (
        stats.bound_skipped_buckets / feasible_buckets
        if feasible_buckets
        else 0.0
    )

    banner("adaptive columnar engine — GPT-3 175B, a100:4096, batch 4096, top-10")
    print(stats.summary())
    print(f"pruned scalar search  {t_scalar:.2f} s")
    print(f"adaptive columnar     {t_col:.2f} s")
    print(f"speedup               {speedup:.2f}x   (criterion: >= 10x, gate: >= 8x)")
    print(f"tiles                 {stats.bound_tiles}")
    print(f"bucket skip rate      {skip_rate:.1%}")

    # Bit-exactness gates: the adaptive columnar top-k must match both the
    # pruned scalar top-k and the unpruned scalar oracle entry for entry —
    # same strategies, results equal as frozen dataclasses (every float
    # field compared bit-for-bit).
    identical = _same_topk(scalar, col)
    identical_oracle = _same_topk(oracle, col)
    assert identical
    assert identical_oracle
    assert scalar.num_feasible == col.num_feasible == counted.num_feasible
    assert oracle.num_feasible == col.num_feasible
    assert scalar.num_evaluated == col.num_evaluated == counted.num_evaluated
    assert oracle.num_evaluated == col.num_evaluated

    # The counters must show the whole space rode the vectorized adaptive
    # path: one batch, tiled execution that actually
    # skipped buckets.
    assert stats.columnar_batches >= 1
    assert stats.columnar_candidates == counted.num_evaluated
    assert stats.bound_tiles >= 1
    assert stats.bound_skipped_buckets > 0

    assert speedup >= 8.0

    # Merge into the engine benchmark record (the bounds benchmark writes
    # the scalar baseline/pruned fields; run orders may vary, so read
    # whatever is already there).  The ratio is same-process, so it is
    # meaningful even on one core — merge_bench tags the core count so
    # trend gates can tell hosts apart.
    merge_bench(
        Path("BENCH_engine.json"),
        "columnar",
        {
            "columnar_s": t_col,
            "columnar_pruned_scalar_s": t_scalar,
            "columnar_speedup": speedup,
            "columnar_identical_topk": identical,
            "columnar_identical_oracle_topk": identical_oracle,
            "columnar_candidates": counted.num_evaluated,
            "adaptive_tiles": stats.bound_tiles,
            "adaptive_bucket_skip_rate": skip_rate,
            "adaptive_seeded_buckets": stats.surrogate_seeded,
        },
    )
