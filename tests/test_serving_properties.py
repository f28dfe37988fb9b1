"""Hypothesis invariants for both serving simulators.

Covers the legacy single-queue model (``repro.inference.batching``) and
the deployment simulator (``repro.serving``): fixed-seed determinism,
latency against offered load, KV byte conservation, and percentile
ordering — the properties docs/SERVING.md promises.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.hardware.system import h100_system
from repro.inference import InferenceStrategy
from repro.inference.batching import ServingWorkload, simulate_serving
from repro.llm.config import TINY_TEST
from repro.serving import LengthDist, ServeWorkload, simulate_serve

SYS = h100_system(4, hbm_gib=8.0)
STRAT = InferenceStrategy(tensor_par=2, pipeline_par=1, data_par=2, batch=1)

rates = st.floats(min_value=0.5, max_value=200.0,
                  allow_nan=False, allow_infinity=False)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


def _serve(rate, seed, n=30):
    wl = ServeWorkload(
        arrival_rate=rate, prompt=LengthDist.uniform(32, 96),
        output=LengthDist.uniform(8, 24), num_requests=n, seed=seed,
    )
    return simulate_serve(TINY_TEST, SYS, STRAT, wl)


# -- legacy single-queue simulator (repro.inference.batching) -----------------

@settings(max_examples=15, deadline=None)
@given(rate=rates, seed=seeds)
def test_batching_fixed_seed_determinism(rate, seed):
    wl = ServingWorkload(arrival_rate=rate, prompt_len=128, generate_len=16,
                         num_requests=25, seed=seed)
    a = simulate_serving(TINY_TEST, SYS, STRAT, wl)
    b = simulate_serving(TINY_TEST, SYS, STRAT, wl)
    assert a.mean_latency == b.mean_latency
    assert a.p95_latency == b.p95_latency
    assert a.duration == b.duration


@settings(max_examples=10, deadline=None)
@given(rate=st.floats(min_value=1.0, max_value=50.0), seed=seeds)
@example(rate=27.0, seed=5863)
def test_batching_latency_never_beats_unloaded(rate, seed):
    """Offered load never makes mean latency better than serving alone.

    Mean latency is *not* monotone in the rate for this model: a request
    joins the batch only at a decode-iteration boundary, so its wait for
    the running iteration depends on where in it the request arrives, and
    compressing the same gap draws can shorten that wait.  The pinned
    example shows it: 6.850470e-4 s at 4x the load vs 6.850798e-4 s at 1x.
    What holds is the zero-load floor (docs/SERVING.md): every request
    pays its own prefill plus generate_len decode steps, and a step is
    never cheaper than the lone step at that request's context — step time
    grows with the batch and with its total context.
    """
    def run(r, n=25):
        wl = ServingWorkload(arrival_rate=r, prompt_len=128, generate_len=16,
                             num_requests=n, seed=seed)
        return simulate_serving(TINY_TEST, SYS, STRAT, wl)

    unloaded = run(rate, n=1).mean_latency
    for r in (rate, rate * 4.0):
        assert run(r).mean_latency >= unloaded * (1.0 - 1e-9)


# -- deployment simulator (repro.serving) -------------------------------------

@settings(max_examples=15, deadline=None)
@given(rate=rates, seed=seeds)
def test_serve_fixed_seed_determinism(rate, seed):
    assert _serve(rate, seed) == _serve(rate, seed)


@settings(max_examples=15, deadline=None)
@given(rate=rates, seed=seeds)
def test_serve_kv_bytes_conserved(rate, seed):
    stats = _serve(rate, seed)
    assert stats.kv_allocated_bytes == stats.kv_freed_bytes
    assert stats.kv_peak_bytes <= stats.kv_allocated_bytes


@settings(max_examples=15, deadline=None)
@given(rate=rates, seed=seeds)
def test_serve_percentiles_ordered(rate, seed):
    stats = _serve(rate, seed)
    assert stats.ttft_p50 <= stats.ttft_p95 <= stats.ttft_p99
    assert stats.tpot_p50 <= stats.tpot_p95 <= stats.tpot_p99


@settings(max_examples=10, deadline=None)
@given(rate=st.floats(min_value=1.0, max_value=50.0), seed=seeds)
def test_serve_ttft_monotone_in_rate(rate, seed):
    """Scaling every interarrival gap down never improves p95 TTFT.

    The workload sampler reuses the same exponential draws across rates,
    so the faster run sees the same requests, closer together — each
    request's wait can only grow.
    """
    slow = _serve(rate, seed)
    fast = _serve(rate * 4.0, seed)
    assert fast.ttft_p95 >= slow.ttft_p95 * (1.0 - 1e-9)
