"""Columnar engine: bit-exactness against the scalar oracle, plus plumbing.

The struct-of-arrays engine (:mod:`repro.engine.batch`) promises results
**bit-identical** to the scalar staged pipeline for any candidate list —
feasible, memory-infeasible, structurally invalid, and pruned alike — with
the scalar path kept as the oracle.  This suite checks that promise on the
golden equivalence grid and on Hypothesis-generated random candidates, then
covers the plumbing around the core: the pure-columnar search path, the
exact-order columnar enumerator, the NumPy version floor, the scalar
fallback counter, cache-reset semantics, service dispatch routing, and the
cached ``System`` hash the hot comm caches key on.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import calculate
from repro.engine import (
    PrunedResult,
    clear_caches,
    comm_cache_stats,
    evaluate_many,
    iter_evaluate,
)
from repro.engine import api as engine_api
from repro.engine import batch as engine_batch
from repro.execution import ExecutionStrategy
from repro.hardware import a100_system, ddr5_offload
from repro.llm import GPT3_175B, TINY_TEST
from repro.obs import (
    M_COLUMNAR_BATCHES,
    M_COLUMNAR_CANDIDATES,
    MetricsRegistry,
    PruneStats,
    Tracer,
)
from repro.search import SearchOptions, candidate_strategies, search
from repro.search import columns as search_columns

from tests.test_engine_equivalence import GRID, OFF64, SYS64

CASES = [
    pytest.param(llm, system, id=f"{llm.name}-{system.name}-{i}")
    for i, (llm, system) in enumerate(
        [(GPT3_175B, SYS64), (GPT3_175B, OFF64), (TINY_TEST, SYS64)]
    )
]

# PruneStats fields whose values legitimately differ between the scalar and
# columnar paths: wall-clock, the columnar-path-only counters, and comm-cache
# *hits* — the columnar path deduplicates per-bucket kernel calls to one call
# per distinct argument tuple, so it performs fewer redundant cache lookups.
# Misses must still match exactly: both paths compute the same set of
# distinct kernel shapes (asserted separately below).
_PATH_DEPENDENT = {
    "stage_seconds", "columnar_batches", "columnar_candidates",
    "comm_cache_hits",
}


def _assert_comm_cache_consistent(s_stats: PruneStats, c_stats: PruneStats):
    # Same distinct kernel computations against a cleared cache...
    assert s_stats.comm_cache_misses == c_stats.comm_cache_misses
    # ...but the columnar path skips the scalar path's redundant lookups.
    assert c_stats.comm_cache_hits <= s_stats.comm_cache_hits


def _fields(result) -> dict:
    return dataclasses.asdict(result)


def _stats_fields(stats: PruneStats) -> dict:
    return {
        f.name: getattr(stats, f.name)
        for f in dataclasses.fields(stats)
        if f.name not in _PATH_DEPENDENT
    }


# -- bit-exactness on the golden grid ---------------------------------------


@pytest.mark.parametrize("llm, system", CASES)
@pytest.mark.parametrize("prune", [False, True])
def test_columnar_bit_identical_on_grid(llm, system, prune):
    clear_caches()
    scalar = evaluate_many(llm, system, GRID, prune=prune, columnar=False)
    clear_caches()
    columnar = evaluate_many(llm, system, GRID, prune=prune, columnar=True)
    assert len(scalar) == len(columnar) == len(GRID)
    for strat, s, c in zip(GRID, scalar, columnar):
        assert _fields(s) == _fields(c), strat.short_name()


@pytest.mark.parametrize("llm, system", CASES)
def test_columnar_stream_order_and_threshold(llm, system):
    """iter_evaluate yields input order either way, pruned results equal."""
    # ``prune_above`` is a batch-time ceiling: candidates whose roofline
    # lower bound is >= it are skipped.  An (effectively) zero ceiling makes
    # both paths prune every feasible candidate — and they must produce
    # bit-identical PrunedResult placeholders while doing it.
    threshold = 1e-12
    clear_caches()
    scalar = list(
        iter_evaluate(llm, system, GRID, prune_above=threshold, columnar=False)
    )
    clear_caches()
    columnar = list(
        iter_evaluate(llm, system, GRID, prune_above=threshold, columnar=True)
    )
    # The pruned iterator streams in bucket-grouped order, not input order —
    # the columnar path must reproduce that stream exactly, index for index.
    assert [i for i, _ in scalar] == [i for i, _ in columnar]
    assert sorted(i for i, _ in scalar) == list(range(len(GRID)))
    pruned = 0
    for (si, s), (ci, c) in zip(scalar, columnar):
        assert si == ci
        assert type(s) is type(c)
        assert _fields(s) == _fields(c)
        pruned += isinstance(c, PrunedResult)
    assert pruned  # the threshold must have bitten somewhere


@pytest.mark.parametrize("llm, system", CASES)
def test_columnar_stats_counters_match_scalar(llm, system):
    clear_caches()
    s_res, s_stats = evaluate_many(
        llm, system, GRID, prune=True, stats=True, columnar=False
    )
    clear_caches()
    c_res, c_stats = evaluate_many(
        llm, system, GRID, prune=True, stats=True, columnar=True
    )
    for s, c in zip(s_res, c_res):
        assert _fields(s) == _fields(c)
    # Same candidates, groups, buckets, rejections, and — because the comm
    # kernels compute the same distinct scalar keys against a cleared cache —
    # the same comm-cache misses.
    assert _stats_fields(s_stats) == _stats_fields(c_stats)
    _assert_comm_cache_consistent(s_stats, c_stats)
    assert c_stats.columnar_batches == 1
    assert c_stats.columnar_candidates == len(GRID)
    assert s_stats.columnar_batches == 0


# -- property test: random candidates ---------------------------------------

_random_strategy = st.builds(
    ExecutionStrategy,
    tensor_par=st.sampled_from([1, 2, 4, 8]),
    pipeline_par=st.sampled_from([1, 2, 4, 8]),
    data_par=st.sampled_from([1, 2, 4, 8, 16]),
    batch=st.sampled_from([32, 64, 96]),
    microbatch=st.sampled_from([1, 2, 3, 4]),
    pp_interleaving=st.sampled_from([1, 2]),
    seq_par=st.booleans(),
    tp_redo_sp=st.booleans(),
    pp_rs_ag=st.booleans(),
    tp_overlap=st.sampled_from(["none", "pipe", "ring"]),
    dp_overlap=st.booleans(),
    optimizer_sharding=st.booleans(),
    recompute=st.sampled_from(["none", "attn_only", "full"]),
    fused_activations=st.booleans(),
    weight_offload=st.booleans(),
    activation_offload=st.booleans(),
    optimizer_offload=st.booleans(),
)


@given(
    strategies=st.lists(_random_strategy, min_size=1, max_size=40),
    use_offload=st.booleans(),
)
@settings(max_examples=30, deadline=None)
def test_columnar_property_bit_identical(strategies, use_offload):
    """Random (valid or not) candidates: columnar == scalar, field for field."""
    system = OFF64 if use_offload else SYS64
    clear_caches()
    scalar, s_stats = evaluate_many(
        TINY_TEST, system, strategies, prune=True, stats=True, columnar=False
    )
    clear_caches()
    columnar, c_stats = evaluate_many(
        TINY_TEST, system, strategies, prune=True, stats=True, columnar=True
    )
    assert len(scalar) == len(columnar) == len(strategies)
    for strat, s, c in zip(strategies, scalar, columnar):
        assert _fields(s) == _fields(c), strat.short_name()
        assert s.feasible == c.feasible
        assert s.infeasibility == c.infeasibility
    assert _stats_fields(s_stats) == _stats_fields(c_stats)
    _assert_comm_cache_consistent(s_stats, c_stats)
    assert c_stats.columnar_candidates == len(strategies)


# -- columnar enumerator ----------------------------------------------------


@pytest.mark.parametrize(
    "llm, batch, opts",
    [
        (TINY_TEST, 64, SearchOptions()),
        (TINY_TEST, 96, SearchOptions(offload_modes=(
            (False, False, False), (True, True, True)))),
        (GPT3_175B, 3072, SearchOptions(max_tensor_par=8)),
    ],
    ids=["tiny", "tiny-offload", "gpt3-capped"],
)
def test_candidate_columns_matches_candidate_strategies(llm, batch, opts):
    """The vectorized enumerator reproduces candidate_strategies exactly."""
    system = a100_system(64)
    expected = list(candidate_strategies(llm, system, batch, opts))
    cols = search_columns.candidate_columns(llm, system, batch, opts)
    assert cols is not None
    want = engine_batch.columns_from_strategies(expected)
    assert set(cols) == set(want)
    for name in want:
        assert np.array_equal(cols[name], want[name]), name
    # strategy_at round-trips every row back to the original dataclass.
    eb = engine_batch.EvalBatch.from_columns(llm, system, cols)
    for i, strat in enumerate(expected):
        assert eb.strategy_at(i) == strat


def test_candidate_columns_unknown_mode_falls_back():
    opts = SearchOptions(recompute=("none", "attn_only"))
    object.__setattr__(opts, "recompute", ("none", "not-a-mode"))
    cols = search_columns.candidate_columns(TINY_TEST, SYS64, 64, opts)
    assert cols is None  # caller falls back to scalar enumeration


# -- pure-columnar search path ----------------------------------------------


def _search_pair(**kwargs):
    clear_caches()
    scalar = search(
        TINY_TEST, SYS64, 64, top_k=5, workers=0, columnar=False, **kwargs
    )
    clear_caches()
    columnar = search(
        TINY_TEST, SYS64, 64, top_k=5, workers=0, columnar=True, **kwargs
    )
    return scalar, columnar


@pytest.mark.parametrize("keep_rates", [False, True])
def test_search_columnar_bit_identical(keep_rates):
    scalar, columnar = _search_pair(keep_rates=keep_rates)
    assert scalar.num_evaluated == columnar.num_evaluated
    assert scalar.num_feasible == columnar.num_feasible
    assert len(scalar.top) == len(columnar.top)
    for (s1, r1), (s2, r2) in zip(scalar.top, columnar.top):
        assert s1 == s2
        assert _fields(r1) == _fields(r2)
    if keep_rates:
        assert np.array_equal(scalar.sample_rates, columnar.sample_rates)


def test_search_columnar_ignores_bound_prune_but_matches():
    """bound_prune is a no-op on the pure path — the answer still matches."""
    scalar, columnar = _search_pair(bound_prune=True)
    for (s1, r1), (s2, r2) in zip(scalar.top, columnar.top):
        assert s1 == s2
        assert _fields(r1) == _fields(r2)


def test_search_columnar_stats_and_trace():
    tracer = Tracer()
    clear_caches()
    res = search(
        TINY_TEST, SYS64, 64, top_k=3, workers=0, columnar=True,
        collect_stats=True, tracer=tracer,
    )
    stats = res.stats
    assert stats is not None
    assert stats.engine.columnar_batches == 1
    assert stats.engine.columnar_candidates == res.num_evaluated
    assert stats.num_evaluated == res.num_evaluated
    assert stats.workers == 1
    names = {e["name"] for e in tracer.events()}
    assert "enumerate" in names
    assert "comm" in names and "assemble" in names


def _mfu_floor(res):
    return res.mfu > 0.05


def test_search_with_constraint_runs_columnar(monkeypatch):
    """A constraint filters materialized columnar survivors: the scalar
    enumerator never runs, and the answer matches the scalar oracle."""
    from repro.search import execution_search

    clear_caches()
    oracle = search(
        TINY_TEST, SYS64, 64, top_k=3, workers=0, columnar=False,
        bound_prune=False, constraint=_mfu_floor,
    )

    def boom(*args, **kwargs):  # pragma: no cover - failure path
        raise AssertionError("scalar enumerator used on the columnar path")

    monkeypatch.setattr(execution_search, "candidate_strategies", boom)
    clear_caches()
    res = search(
        TINY_TEST, SYS64, 64, top_k=3, workers=0, columnar=True,
        constraint=_mfu_floor,
    )
    assert res.top
    assert res.num_feasible == oracle.num_feasible
    assert np.array_equal(res.sample_rates, oracle.sample_rates)
    for (s1, r1), (s2, r2) in zip(oracle.top, res.top):
        assert s1 == s2
        assert _fields(r1) == _fields(r2)


def test_search_chunked_workers_matches_serial():
    clear_caches()
    serial = search(TINY_TEST, SYS64, 64, top_k=5, workers=0, columnar=True)
    clear_caches()
    chunked = search(TINY_TEST, SYS64, 64, top_k=5, workers=2, columnar=True)
    assert serial.num_feasible == chunked.num_feasible
    for (s1, r1), (s2, r2) in zip(serial.top, chunked.top):
        assert s1 == s2
        assert _fields(r1) == _fields(r2)


# -- NumPy version floor (import gate) --------------------------------------


def test_numpy_floor_rejects_old_versions():
    with pytest.raises(ImportError) as exc:
        engine_batch.check_numpy_version("1.23.5")
    msg = str(exc.value)
    assert "1.24" in msg
    assert "columnar=False" in msg or "--no-columnar" in msg


@pytest.mark.parametrize("version", ["1.24.0", "1.26.4", "2.1.0", "2.0.0rc1"])
def test_numpy_floor_accepts_supported_versions(version):
    engine_batch.check_numpy_version(version)


def test_numpy_floor_checks_installed_version():
    engine_batch.check_numpy_version()  # the environment itself must pass


# -- auto routing -----------------------------------------------------------


def test_columnar_auto_routing_respects_size_floor():
    small = GRID[: engine_api._COLUMNAR_MIN_BATCH - 1]
    mx = MetricsRegistry()
    evaluate_many(TINY_TEST, SYS64, small, prune=True, metrics=mx)
    assert mx.value(M_COLUMNAR_BATCHES) == 0  # under the floor: scalar
    mx2 = MetricsRegistry()
    evaluate_many(TINY_TEST, SYS64, GRID, prune=True, metrics=mx2)
    assert mx2.value(M_COLUMNAR_BATCHES) == 1  # over the floor: columnar
    assert mx2.value(M_COLUMNAR_CANDIDATES) == len(GRID)


# -- cache reset (clear_caches contract) ------------------------------------


def test_clear_caches_resets_comm_cache_counters():
    clear_caches()
    assert comm_cache_stats() == (0, 0)
    evaluate_many(TINY_TEST, SYS64, GRID, prune=True, columnar=True)
    hits, misses = comm_cache_stats()
    assert misses > 0  # a cleared cache must miss before it hits
    assert hits + misses > 0
    clear_caches()
    assert comm_cache_stats() == (0, 0)


# -- service dispatch routing -----------------------------------------------


def test_microbatcher_forwards_columnar_to_default_engine_only():
    from repro.service.dispatch import MicroBatcher

    seen = []

    def fake_engine(llm, system, strategies, *, metrics=None, **kwargs):
        seen.append(kwargs)
        return [calculate(llm, system, s) for s in strategies]

    mb = MicroBatcher(window=0, engine=fake_engine, columnar=True).start()
    try:
        fut = mb.submit(TINY_TEST, SYS64, GRID[0], group="g")
        assert fut.result(timeout=10).feasible == calculate(
            TINY_TEST, SYS64, GRID[0]
        ).feasible
    finally:
        mb.stop()
    assert seen and all("columnar" not in kw for kw in seen)

    # The default engine *does* receive the knob: with columnar=False the
    # columnar counters stay 0 even for a batch over the size floor.
    mb2 = MicroBatcher(window=0.05, max_batch=len(GRID), columnar=False).start()
    try:
        futs = [mb2.submit(TINY_TEST, SYS64, s, group="g") for s in GRID]
        for f in futs:
            f.result(timeout=30)
    finally:
        mb2.stop()
    assert mb2.metrics.value(M_COLUMNAR_BATCHES) == 0


# -- stats plumbing and System hash -----------------------------------------


def test_prunestats_columnar_counters_merge_and_print():
    reg = MetricsRegistry()
    reg.inc(M_COLUMNAR_BATCHES, 2)
    reg.inc(M_COLUMNAR_CANDIDATES, 100)
    stats = PruneStats.from_metrics(reg)
    assert stats.columnar_batches == 2
    assert stats.columnar_candidates == 100
    merged = stats.merged(stats)
    assert merged.columnar_batches == 4
    assert merged.columnar_candidates == 200
    assert "columnar batches" in merged.summary()


def test_system_hash_is_cached_and_consistent():
    a = a100_system(64)
    b = a100_system(64)
    off = a100_system(64, offload=ddr5_offload(512))
    assert a == b and hash(a) == hash(b)
    assert hash(a) == hash(a)  # stable across calls (cached)
    assert a.__dict__.get("_hash") == hash(a)
    assert off != a  # different systems may hash apart; equality must differ
