"""Child process for the in-process workloads: budget-grid and serve-slo.

Usage (run from the repository root with ``src`` on ``PYTHONPATH``)::

    python perfbench/worker.py WORKLOAD --seed N --seconds S --trace 0|1 \
        [--setup-only] [--out FILE]

It imports the program, builds the seeded inputs and prints ``READY``; the
harness times set-up from spawn to that line.  With ``--setup-only`` it
exits there.  Otherwise it waits for a line on stdin, runs whole passes
over the inputs, checks each answer outside the timed section, and writes
its op log (and, traced, its spans) to ``--out`` as JSON.  After each op
it prints ``TICK`` and waits for a line on stdin, so the harness can run
its host-speed kernel and take set-up samples while the worker is idle;
the line is the op's speed factor (see ``stats.HostSpeed``).  An untraced
run logs op times scaled by it and keeps the raw ones apart; a traced run
logs raw times.  The worker exits if stdin is closed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import inputs  # noqa: E402
from stats import run_passes  # noqa: E402


def budget_setup(pairs):
    """``(ops, run, props)`` for (hbm, ddr, llm) pairs; ops are keyed."""
    from repro.llm import get_preset
    from repro.search import SystemDesign, cost

    llms = {name: get_preset(name) for name in inputs.BUDGET_LLMS}
    ops = [(inputs.budget_key(p), SystemDesign(p[0], p[1]), llms[p[2]]) for p in pairs]

    def run(op):
        # The CLI's `repro budget` defaults: serial, default options and
        # size grid.  Called through the module so a traced run sees it.
        return cost.evaluate_design(op[1], op[2], inputs.BUDGET, inputs.BUDGET_BATCH,
                                    workers=0)

    def props(entry) -> dict:
        return {"max_gpus": entry.max_gpus, "used_gpus": entry.used_gpus}

    return ops, run, props


def serve_setup(shape_traffic, **search_kwargs):
    """``(ops, run, props)`` for (shape, traffic draw) pairs; ops are keyed."""
    from repro.io import llm_from_spec, system_from_spec
    from repro.serving import search as serving_search
    from repro.serving.workload import LengthDist, ServeWorkload, SLOSpec

    llm = llm_from_spec(inputs.SERVE_LLM)
    system = system_from_spec(inputs.SERVE_SYSTEM)
    ops = []
    for shape, traffic in shape_traffic:
        rate, plo, phi, olo, ohi, tpot = inputs.SERVE_SHAPES[shape]
        workload = ServeWorkload(rate, LengthDist.uniform(plo, phi),
                                 LengthDist.uniform(olo, ohi), seed=traffic)
        ops.append((inputs.serve_key((shape, traffic)), workload, SLOSpec(tpot_p95=tpot)))

    def run(op):
        return serving_search.serve_search(llm, system, op[1], op[2],
                                           top_k=inputs.SERVE_TOP_K, **search_kwargs)

    def props(result) -> dict:
        return {"candidates": result.num_candidates, "simulated": result.num_simulated,
                "pruned": result.num_pruned, "infeasible": result.num_infeasible,
                "top_k": len(result.top)}

    return ops, run, props


# workload -> (setup, seeded pass, answer extractor, check, reference file)
WORKLOADS = {
    "budget-grid": (budget_setup, inputs.budget_ops, checks.budget_answer,
                    checks.check_budget, "budget_grid"),
    "serve-slo": (serve_setup, inputs.serve_ops, checks.serve_answer,
                  checks.check_serve, "serve_slo"),
}


def _wait_for_harness() -> str:
    line = sys.stdin.readline()
    if not line:
        raise SystemExit("perfbench worker: the harness has gone")
    return line


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    setup, pass_of, answer_of, check, ref_name = WORKLOADS[args.workload]
    ops, run, props_of = setup(pass_of(args.seed))
    sys.stdout.write("READY\n")
    sys.stdout.flush()
    if args.setup_only:
        return 0
    _wait_for_harness()

    refs = checks.load(ref_name)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()  # resolves (and imports) every target once
        tracer.uninstall()
    from repro.engine import comm_cache_stats

    walls: dict[int, float] = {}
    props: dict[str, dict] = {}
    cache = [0, 0]
    raw: list[float] = []

    def do_op(op, traced: bool):
        key = op[0]
        if traced:
            tracer.op = len(walls)
            c0 = comm_cache_stats()
            tracer.install()
        t0 = perf_counter()
        try:
            result, error = run(op), None
        except Exception as err:  # a raising op is a failed op, not a crash
            result, error = None, f"{key}: {type(err).__name__}: {err}"
        dt = perf_counter() - t0
        if traced:
            tracer.uninstall()
            walls[tracer.op] = dt
            c1 = comm_cache_stats()
            cache[0] += c1[0] - c0[0]
            cache[1] += c1[1] - c0[1]
        sys.stdout.write("TICK\n")
        sys.stdout.flush()
        factor = float(_wait_for_harness())
        if not traced:
            raw.append(dt)
            if not args.trace:
                dt *= factor
        if error is not None:
            return dt, error
        props[key] = props_of(result)
        error = check(refs[key], answer_of(result))
        return dt, None if error is None else f"{key}: {error}"

    plain, traced = run_passes(ops, args.seconds, do_op, paired=bool(args.trace))
    out = {
        "plain": plain.to_dict(),
        "traced": traced.to_dict(),
        "raw": raw,
        "props": props,
    }
    if tracer is not None:
        out["trace"] = tracer.dump()
        out["walls"] = walls
        out["comm_cache"] = cache
    with open(args.out, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
