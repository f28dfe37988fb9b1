"""Per-layer metrics of a traced run, computed from the recorded spans.

Every per-layer metric is printed on every workload; a layer a workload
does not run reads 0.  Seconds and counts are means per traced op.
"""

from __future__ import annotations

from tracer import Tracer

# (name, unit), in BENCHMARK.json order.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("cli.import_s", "s"),
    ("cli.self_s", "s"),
    ("search.enumerate_s", "s"),
    ("search.candidates", "count"),
    ("search.dispatch_s", "s"),
    ("search.workers", "count"),
    ("search.best_at_size_calls", "count"),
    ("search.surrogate_s", "s"),
    ("search.sweep_self_s", "s"),
    ("engine.build_s", "s"),
    ("engine.validate_s", "s"),
    ("engine.profile_s", "s"),
    ("engine.memory_s", "s"),
    ("engine.comm_s", "s"),
    ("engine.assemble_s", "s"),
    ("engine.bounds_s", "s"),
    ("engine.adaptive_self_s", "s"),
    ("engine.materialize_s", "s"),
    ("engine.bucket_skip_ratio", "ratio"),
    ("engine.comm_cache_hit_ratio", "ratio"),
    ("engine.evaluate_s", "s"),
    ("engine.evaluate_calls", "count"),
    ("serving.enumerate_s", "s"),
    ("serving.serveability_s", "s"),
    ("serving.infeasible_ratio", "ratio"),
    ("serving.bounds_s", "s"),
    ("serving.pruned_ratio", "ratio"),
    ("serving.simulate_s", "s"),
    ("serving.simulate_calls", "count"),
    ("serving.sim_requests_per_s", "1/s"),
    ("serving.dispatch_s", "s"),
    ("service.hit_ms", "ms"),
    ("service.miss_ms", "ms"),
    ("service.hit_ratio", "ratio"),
    ("service.request_ms", "ms"),
    ("service.batch_ms", "ms"),
    ("service.batch_size_mean", "count"),
    ("service.coalesced", "count"),
    ("service.rejected", "count"),
    ("service.transport_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
)

# Per-layer seconds: metric <- span names whose self time it sums.
SELF_SECONDS = {
    "search.enumerate_s": ("search.enumerate",),
    "search.dispatch_s": ("search.search",),
    "search.surrogate_s": ("search.surrogate",),
    "search.sweep_self_s": ("search.best_at_size", "search.evaluate_design",
                            "search.auto_workers"),
    "engine.build_s": ("engine.build",),
    "engine.validate_s": ("engine.validate",),
    "engine.profile_s": ("engine.profile",),
    "engine.memory_s": ("engine.memory",),
    "engine.comm_s": ("engine.comm",),
    "engine.assemble_s": ("engine.assemble",),
    "engine.bounds_s": ("engine.bounds",),
    "engine.adaptive_self_s": ("engine.adaptive",),
    "engine.materialize_s": ("engine.materialize",),
    "engine.evaluate_s": ("engine.evaluate",),
    "serving.enumerate_s": ("serving.enumerate",),
    "serving.serveability_s": ("serving.serveability",),
    "serving.bounds_s": ("serving.bounds",),
    "serving.simulate_s": ("serving.simulate",),
    "serving.dispatch_s": ("serving.search",),
}

# Call counts: metric <- span name; nested calls of the same name (e.g.
# evaluate_many -> iter_evaluate) count once.
CALLS = {
    "search.best_at_size_calls": "search.best_at_size",
    "engine.evaluate_calls": "engine.evaluate",
    "serving.simulate_calls": "serving.simulate",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, walls: dict[int, float], extra: dict[str, float]) -> dict:
    """Per-layer values from spans of the traced ops ``walls`` ({op: s}).

    ``extra`` supplies values measured outside the spans (service scrape,
    comm-cache counters, trace overhead, CLI import); it overrides.
    """
    ops = sorted(walls)
    n = max(len(ops), 1)
    selfs = tr.self_times()
    notes = {op: tr.notes.get(op, {}) for op in ops}

    def total(names) -> float:
        return sum(selfs.get(op, {}).get(name, 0.0) for op in ops for name in names)

    def note(key: str) -> float:
        return sum(notes[op].get(key, 0.0) for op in ops)

    out = {name: 0.0 for name, _unit in PER_LAYER}
    for metric, names in SELF_SECONDS.items():
        out[metric] = total(names) / n
    wanted = set(CALLS.values())
    opset = set(ops)
    calls = dict.fromkeys(wanted, 0)
    for op, name, _start, _dur, parent in tr.spans:
        if name in wanted and op in opset and (parent < 0 or tr.spans[parent][1] != name):
            calls[name] += 1
    for metric, name in CALLS.items():
        out[metric] = calls[name] / n

    out["search.candidates"] = note("search.candidates") / n
    out["search.workers"] = _ratio(note("search.workers"), note("search.calls"))
    out["engine.bucket_skip_ratio"] = _ratio(
        note("engine.skipped_buckets"), note("engine.feasible_buckets"))
    out["serving.infeasible_ratio"] = _ratio(
        note("serving.infeasible"), note("serving.candidates"))
    out["serving.pruned_ratio"] = _ratio(note("serving.pruned"), note("serving.candidates"))
    out["serving.sim_requests_per_s"] = _ratio(
        note("serving.sim_requests"), total(("serving.simulate",)))

    top = tr.top_level()
    out["trace.coverage"] = _ratio(sum(top.get(op, 0.0) for op in ops),
                                   sum(walls[op] for op in ops))
    out.update(extra)
    return out
