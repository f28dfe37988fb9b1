"""Seeded inputs for the four workloads.

Every input is a pure function of the workload seed, and every pool is
finite, so the answer references in ``refs/`` cover every input any seed
can produce.  The seed orders each pass (and draws the service's request
sequence); every run covers the same ops, because the run-to-run spread of
the end-to-end metrics must measure the program, not the draw.
budget-grid's order is fixed too (see ``BUDGET_PAIRS``).

This module imports nothing from the program: the harness, the worker and
``make_refs.py`` all share it.
"""

from __future__ import annotations

import random

# -- search-cli: paper training problems, one fresh CLI process per op ------

# (LLM preset, system spec, global batch).  GPT-3 175B is the paper's
# headline §5 problem; the Turing-530B and Megatron-1T sizes are the
# largest paper-model problems whose spaces stay within ~1.4x of it.
CLI_PROBLEMS: tuple[tuple[str, str, int], ...] = (
    ("gpt3-175b", "a100:4096", 4096),
    ("turing-530b", "a100:2240", 2240),
    ("megatron-1t", "a100:3072", 3072),
)


def cli_ops(seed: int) -> list[tuple[str, str, int]]:
    """One pass: every problem once, in a seeded order."""
    ops = list(CLI_PROBLEMS)
    random.Random(seed).shuffle(ops)
    return ops


def cli_argv(problem: tuple[str, str, int]) -> list[str]:
    """The user's command line for one problem, with default flags."""
    llm, system, batch = problem
    return ["search", llm, system, "--batch", str(batch)]


def cli_key(problem: tuple[str, str, int]) -> str:
    llm, system, batch = problem
    return f"{llm}/{system}/{batch}"


# -- budget-grid: paper §7 / Table 3 pairs ------------------------------------

BUDGET = 125e6
BUDGET_BATCH = 4096
BUDGET_LLMS = ("gpt3-175b", "turing-530b", "megatron-1t")

# A fixed stratified subset of the 48 (design x LLM) pairs: every LLM meets
# all four HBM sizes, twice without DDR offload and twice with it, visited
# in `repro budget`'s order (designs by DDR then HBM, LLMs within a design).
# This workload ignores the seed.  A pair costs 0.3-4 s, and its cost and
# the process's peak RSS depend on which pairs warmed the caches before it:
# a seeded start point moved peak RSS by 12% (410 vs 459 MB) at identical
# work, and a seeded subset would move every metric with the draw.
BUDGET_PAIRS: tuple[tuple[int, int, str], ...] = (
    (20, 0, "gpt3-175b"),
    (40, 0, "turing-530b"),
    (40, 0, "megatron-1t"),
    (80, 0, "gpt3-175b"),
    (80, 0, "megatron-1t"),
    (120, 0, "turing-530b"),
    (20, 256, "megatron-1t"),
    (80, 256, "turing-530b"),
    (40, 512, "gpt3-175b"),
    (120, 512, "megatron-1t"),
    (20, 1024, "turing-530b"),
    (120, 1024, "gpt3-175b"),
)


def budget_ops(seed: int) -> list[tuple[int, int, str]]:
    """One pass, the same for every seed (see above)."""
    return list(BUDGET_PAIRS)


def budget_key(pair: tuple[int, int, str]) -> str:
    hbm, ddr, llm = pair
    return f"{hbm}G/{ddr}G/{llm}"


# -- serve-slo: SLO serving search on GPT-3 175B / h100:16 --------------------

SERVE_LLM = "gpt3-175b"
SERVE_SYSTEM = "h100:16"
SERVE_TOP_K = 5
# (arrival rate/s, prompt low, prompt high, output low, output high,
# tpot_p95 s).  Each shape leaves a non-empty top-k and has the SLO bounds
# prune part of the serveable plans.
SERVE_SHAPES: tuple[tuple[float, int, int, int, int, float], ...] = (
    (10.0, 1024, 3072, 128, 384, 0.05),
    (8.0, 512, 2048, 64, 256, 0.04),
    (6.0, 2048, 4096, 128, 256, 0.05),
)
SERVE_TRAFFIC_SEEDS = tuple(range(8))


def serve_ops(seed: int) -> list[tuple[int, int]]:
    """One pass: every shape x traffic draw once, in a seeded order.

    Traffic draws of one shape differ in cost by up to ~20%, so every run
    covers all of them rather than a seeded pick.
    """
    ops = all_serve_ops()
    random.Random(seed).shuffle(ops)
    return ops


def serve_key(op: tuple[int, int]) -> str:
    return f"shape{op[0]}/traffic{op[1]}"


def all_serve_ops() -> list[tuple[int, int]]:
    return [(s, t) for s in range(len(SERVE_SHAPES)) for t in SERVE_TRAFFIC_SEEDS]


# -- service-mix: /evaluate over one keep-alive connection --------------------

SERVICE_LLM = "gpt3-175b"
SERVICE_SYSTEM = "a100:4096"
SERVICE_BATCH = 4096
# Share of requests that repeat an earlier strategy (cache reads).  Kept
# well away from 0.5 so the median sits inside the miss mode.
SERVICE_HIT_SHARE = 0.25
# Repeats draw from this many most recent fresh strategies, far below the
# server's default 4096-entry LRU, so a repeat is always a memory hit.
SERVICE_RECENT = 256


class ServiceMix:
    """The request sequence: which candidate each request sends.

    ``candidates`` is the number of strategies in the problem's space; fresh
    requests walk a seeded permutation of it (the caller skips candidates it
    does not want, e.g. infeasible ones, by calling :meth:`fresh` again).
    """

    def __init__(self, seed: int, candidates: int):
        self._rng = random.Random(seed)
        self._order = list(range(candidates))
        self._rng.shuffle(self._order)
        self._next = 0
        self.sent: list[int] = []

    def is_repeat(self) -> bool:
        return bool(self.sent) and self._rng.random() < SERVICE_HIT_SHARE

    def repeat(self) -> int:
        recent = self.sent[-SERVICE_RECENT:]
        return recent[self._rng.randrange(len(recent))]

    def fresh(self) -> int:
        idx = self._order[self._next]
        self._next += 1
        return idx
