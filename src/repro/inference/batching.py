"""Continuous-batching serving simulator.

The analytical serving model (:mod:`repro.inference.model`) answers
steady-state questions; real serving systems face *queueing*: requests
arrive stochastically, join the running batch between decode iterations
(continuous batching), and leave when their generation completes.  This
iteration-level simulator drives the analytical decode-step model with a
Poisson arrival process and measures end-to-end request latency and
sustained throughput — the numbers a capacity planner actually needs.

Marked as an extension: the paper's model covers the per-step costs; the
queueing dynamics are this reproduction's addition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..hardware.system import System
from ..llm.config import LLMConfig
from .decode import kv_cache_bytes, profile_decode_block
from .model import InferenceStrategy, calculate_inference


@dataclass(frozen=True)
class ServingWorkload:
    """The offered load."""

    arrival_rate: float  # requests per second (Poisson)
    prompt_len: int = 2048
    generate_len: int = 256
    num_requests: int = 200
    seed: int = 0

    def __post_init__(self) -> None:
        if self.arrival_rate <= 0:
            raise ValueError("arrival_rate must be positive")
        if self.prompt_len < 1 or self.generate_len < 1:
            raise ValueError("prompt_len and generate_len must be >= 1")
        if self.num_requests < 1:
            raise ValueError("num_requests must be >= 1")


@dataclass(frozen=True)
class ServingStats:
    """Measured behaviour of the simulated server."""

    completed: int
    duration: float
    throughput_rps: float  # completed requests per second
    tokens_per_second: float
    mean_latency: float
    p95_latency: float
    mean_batch: float  # average decode-batch occupancy
    max_queue: int

    def __post_init__(self) -> None:
        if self.completed < 0 or self.duration < 0:
            raise ValueError("stats must be non-negative")


def _decode_step_time(
    llm: LLMConfig, system: System, strategy: InferenceStrategy,
    batch: int, context: float,
) -> float:
    """One decode iteration for ``batch`` sequences at mean ``context`` length.

    Every context-dependent cost of the step (attention FLOPs, KV reads,
    softmax work) is linear in ``batch * context``, so pricing the batch at
    its exact mean context charges exactly the sum of the sequences' own
    contexts.
    """
    prof = profile_decode_block(
        llm, batch=batch, context=max(context, 1),
        tensor_par=strategy.tensor_par,
    )
    proc, hbm = system.processor, system.mem1
    compute = proc.compute_time("matrix", prof.flops)
    vector = proc.compute_time("vector", prof.vector_flops)
    memory = hbm.access_time(prof.traffic)
    block = max(compute + vector, memory)
    comm = 0.0
    if strategy.tensor_par > 1:
        net = system.network_for_span(strategy.tensor_par)
        comm = prof.tp_comm_count * net.collective_time(
            "all_reduce", prof.tp_comm_bytes, strategy.tensor_par
        )
    return llm.num_blocks * (block + comm)


def simulate_serving(
    llm: LLMConfig,
    system: System,
    strategy: InferenceStrategy,
    workload: ServingWorkload,
    *,
    max_batch: int | None = None,
) -> ServingStats:
    """Run the continuous-batching simulation.

    Admission control: a queued request joins the batch between iterations
    when both the batch slot and its full KV-cache reservation fit in HBM
    (weights + every active request's maximum context).  Joining charges the
    request's prefill time (chunked prefill: the batch stalls for it, a
    conservative single-queue model).

    Raises:
        ValueError: if even a single request cannot fit.
    """
    total_ctx = workload.prompt_len + workload.generate_len
    single = calculate_inference(
        llm, system, strategy,
        prompt_len=workload.prompt_len, generate_len=workload.generate_len,
    )
    if not single.feasible:
        raise ValueError(f"one request does not fit: {single.infeasibility}")

    # Capacity: how many concurrent requests' KV caches fit beside weights?
    bpstage = -(-llm.num_blocks // strategy.pipeline_par)
    per_request_cache = (
        kv_cache_bytes(llm, 1, total_ctx, strategy.tensor_par)
        * bpstage / llm.num_blocks
    )
    budget = system.mem1.capacity - single.weights_bytes
    capacity = max(1, int(budget // per_request_cache))
    if max_batch is not None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        capacity = min(capacity, max_batch)

    rng = np.random.default_rng(workload.seed)
    arrivals = np.cumsum(
        rng.exponential(1.0 / workload.arrival_rate, workload.num_requests)
    )
    prefill_each = single.prefill_time

    now = 0.0
    next_arrival = 0
    queue: list[int] = []  # request ids waiting
    active: dict[int, int] = {}  # request id -> tokens generated
    done_at: dict[int, float] = {}
    batch_occupancy_time = 0.0
    max_queue = 0

    while len(done_at) < workload.num_requests:
        # Pull in everything that has arrived by now.
        while next_arrival < workload.num_requests and arrivals[next_arrival] <= now:
            queue.append(next_arrival)
            next_arrival += 1
        max_queue = max(max_queue, len(queue))

        # Admit up to capacity; each admission charges its prefill.
        while queue and len(active) < capacity:
            rid = queue.pop(0)
            now = max(now, arrivals[rid]) + prefill_each
            active[rid] = 0

        if not active:
            # Idle: jump to the next arrival.
            if next_arrival < workload.num_requests:
                now = max(now, arrivals[next_arrival])
                continue
            break

        # One decode iteration for the whole running batch.
        # The exact mean: a truncated one under-prices a mixed-age batch's
        # KV traffic by up to one token per sequence.
        avg_ctx = workload.prompt_len + sum(active.values()) / len(active)
        step = _decode_step_time(llm, system, strategy, len(active), avg_ctx)
        now += step
        batch_occupancy_time += step * len(active)
        finished = []
        for rid in active:
            active[rid] += 1
            if active[rid] >= workload.generate_len:
                finished.append(rid)
        for rid in finished:
            del active[rid]
            done_at[rid] = now

    latencies = np.array(
        [done_at[i] - arrivals[i] for i in range(workload.num_requests)
         if i in done_at]
    )
    duration = now if now > 0 else 1e-12
    total_tokens = len(done_at) * workload.generate_len
    return ServingStats(
        completed=len(done_at),
        duration=duration,
        throughput_rps=len(done_at) / duration,
        tokens_per_second=total_tokens / duration,
        mean_latency=float(latencies.mean()) if latencies.size else 0.0,
        p95_latency=float(np.percentile(latencies, 95)) if latencies.size else 0.0,
        mean_batch=batch_occupancy_time / duration,
        max_queue=max_queue,
    )
