"""Span recorder that wraps the program's public functions from outside.

The program is never told it is traced: no ``tracer=``, ``collect_stats=``,
``events=`` or ``progress=`` argument is passed, because today those switch
``search()`` onto its chunked path and the trace would measure another
program.  Instead :meth:`Tracer.install` replaces each named function in
every module namespace that binds it (``from x import f`` call sites too)
and on its class for methods, and :meth:`Tracer.uninstall` puts the
originals back.

Spans live in memory as ``[op, name, start, duration, parent]`` and are
written out when the run ends.  A generator function's span accumulates
only the time spent inside its own ``next()`` calls.  A span's self time is
its duration minus that of its child spans.

Functions that run inside forked pool workers record into the worker's
copy of the tracer, which is discarded with the worker: that time is left
in the parent as the self time of ``search()``, i.e. ``search.dispatch_s``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name).  A target whose module is imported but
# whose attribute no longer resolves (a function renamed, moved or
# deleted) is listed in ``Tracer.missing``; the harness fails the traced
# run over it, since its layer would otherwise read 0 without notice.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("repro.cli", "main", "cli.main"),
    ("repro.search.execution_search", "search", "search.search"),
    ("repro.search.execution_search", "candidate_strategies", "search.enumerate"),
    ("repro.search.columns", "candidate_columns", "search.enumerate"),
    ("repro.search.execution_search", "auto_workers", "search.auto_workers"),
    ("repro.search.system_search", "best_at_size", "search.best_at_size"),
    ("repro.search.cost", "evaluate_design", "search.evaluate_design"),
    ("repro.search.surrogate", "surrogate_key", "search.surrogate"),
    ("repro.search.surrogate", "load_surrogate", "search.surrogate"),
    ("repro.search.surrogate", "store_surrogate", "search.surrogate"),
    ("repro.search.surrogate", "RateSurrogate.seed_buckets", "search.surrogate"),
    ("repro.search.surrogate", "RateSurrogate.observe_tile", "search.surrogate"),
    ("repro.engine.batch", "EvalBatch.from_columns", "engine.build"),
    ("repro.engine.batch", "EvalBatch.from_strategies", "engine.build"),
    ("repro.engine.batch", "batch_validate", "engine.validate"),
    ("repro.engine.batch", "batch_profile", "engine.profile"),
    ("repro.engine.batch", "batch_memory", "engine.memory"),
    ("repro.engine.batch", "batch_comm", "engine.comm"),
    ("repro.engine.batch", "batch_assemble", "engine.assemble"),
    ("repro.engine.batch", "batch_prune", "engine.adaptive"),
    ("repro.engine.batch", "batch_adaptive", "engine.adaptive"),
    ("repro.engine.batch", "run_batch", "engine.adaptive"),
    ("repro.engine.bounds", "batch_lower_bounds", "engine.bounds"),
    ("repro.engine.batch", "EvalBatch.strategy_at", "engine.materialize"),
    ("repro.engine.batch", "iter_results", "engine.materialize"),
    ("repro.engine.api", "evaluate", "engine.evaluate"),
    ("repro.engine.api", "evaluate_many", "engine.evaluate"),
    ("repro.engine.api", "iter_evaluate", "engine.evaluate"),
    ("repro.engine.api", "check_feasible", "engine.evaluate"),
    ("repro.serving.search", "serve_search", "serving.search"),
    ("repro.serving.search", "candidate_plans", "serving.enumerate"),
    ("repro.serving.disagg", "check_plan", "serving.serveability"),
    ("repro.serving.simulator", "check_serveability", "serving.serveability"),
    ("repro.serving.bounds", "plan_bounds", "serving.bounds"),
    ("repro.serving.disagg", "simulate_plan", "serving.simulate"),
    ("repro.serving.simulator", "simulate_serve", "serving.simulate"),
)


def _note_search(tr: "Tracer", result, args, kwargs) -> None:
    tr.note("search.candidates", getattr(result, "num_evaluated", 0))
    workers = kwargs.get("workers")
    tr.note("search.workers", tr.last_auto if workers is None else max(int(workers), 1))
    tr.note("search.calls", 1)


def _note_auto(tr: "Tracer", result, args, kwargs) -> None:
    tr.last_auto = int(result)


def _note_adaptive(tr: "Tracer", result, args, kwargs) -> None:
    tr.note("engine.skipped_buckets", getattr(result, "n_skipped_buckets", 0))
    tr.note("engine.feasible_buckets", getattr(result, "n_feasible_buckets", 0))


def _note_serve(tr: "Tracer", result, args, kwargs) -> None:
    tr.note("serving.candidates", result.num_candidates)
    tr.note("serving.pruned", result.num_pruned)
    tr.note("serving.infeasible", result.num_infeasible)
    tr.note("serving.simulated", result.num_simulated)


def _note_simulate(tr: "Tracer", result, args, kwargs) -> None:
    workload = args[3] if len(args) > 3 else kwargs.get("workload")
    tr.note("serving.sim_requests", getattr(workload, "num_requests", 0))


# Result hooks: read counts off a wrapped call's return value.
HOOKS = {
    "repro.search.execution_search.search": _note_search,
    "repro.search.execution_search.auto_workers": _note_auto,
    "repro.engine.batch.batch_adaptive": _note_adaptive,
    "repro.serving.search.serve_search": _note_serve,
    "repro.serving.disagg.simulate_plan": _note_simulate,
}


def _resolve(module: str, attr: str, load: bool):
    """``(owner, name, raw object)`` for ``module.attr``.

    Returns ``None`` if the attribute does not resolve, and ``False`` if
    ``load`` is false and the module is not imported (not a miss: the
    process never runs that module).
    """
    if load:
        try:
            owner = importlib.import_module(module)
        except ImportError:
            return None
    else:
        owner = sys.modules.get(module)
        if owner is None:
            return False
    *outer, name = attr.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    raw = owner.__dict__.get(name) if inspect.isclass(owner) else getattr(owner, name, None)
    return None if raw is None else (owner, name, raw)


class Tracer:
    """Spans and counts of the wrapped functions, per op (``self.op``)."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.notes: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.op = -1
        self.last_auto = 1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] | None = None

    # -- recording -------------------------------------------------------

    def note(self, key: str, value: float) -> None:
        self.notes[self.op][key] += value

    def _open(self, name: str, start: float) -> int:
        idx = len(self.spans)
        self.spans.append([self.op, name, start, 0.0, self._stack[-1] if self._stack else -1])
        return idx

    def add_span(self, name: str, start: float, duration: float) -> None:
        """A span measured by the caller (e.g. an import)."""
        self.spans[self._open(name, start)][3] = duration

    def _wrap(self, fn, name: str, hook):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                idx = -1
                while True:
                    t0 = perf_counter()
                    if idx < 0:
                        idx = tracer._open(name, t0)
                    tracer._stack.append(idx)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer._stack.pop()
                        tracer.spans[idx][3] += perf_counter() - t0
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            idx = tracer._open(name, t0)
            tracer._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                tracer.spans[idx][3] = perf_counter() - t0
            if hook is not None:
                hook(tracer, result, args, kwargs)
            return result
        return wrapper

    # -- patching --------------------------------------------------------

    def _plan(self, targets, load: bool) -> list[tuple[object, str, object, object]]:
        resolved = []
        for module, attr, name in targets:
            path = f"{module}.{attr}"
            found = _resolve(module, attr, load)
            if found is None:
                self.missing.append(path)
            elif found:
                resolved.append((path, name, *found))
        # Listed after resolving, which may import target modules.
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "repro" or n.startswith("repro."))]
        patches = []
        for path, name, owner, attr, raw in resolved:
            hook = HOOKS.get(path)
            if inspect.isclass(owner):
                if isinstance(raw, (staticmethod, classmethod)):
                    new = type(raw)(self._wrap(raw.__func__, name, hook))
                else:
                    new = self._wrap(raw, name, hook)
                patches.append((owner, attr, raw, new))
                continue
            new = self._wrap(raw, name, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        patches.append((mod, key, raw, new))
        return patches

    def install(self, targets=TARGETS, *, load: bool = True) -> None:
        """Wrap every target; the first call resolves them.

        ``load`` imports target modules that are not imported yet; without
        it those targets are skipped (not missing), so tracing adds no
        import time.
        """
        if self._patches is None:
            self._patches = self._plan(targets, load)
        for owner, attr, _raw, new in self._patches:
            setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, raw, _new in self._patches or ():
            setattr(owner, attr, raw)

    # -- analysis --------------------------------------------------------

    def self_times(self) -> dict[int, dict[str, float]]:
        """``{op: {span name: summed self seconds}}``."""
        child = [0.0] * len(self.spans)
        for op, _name, _start, dur, parent in self.spans:
            if parent >= 0:
                child[parent] += dur
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, (op, name, _start, dur, _parent) in enumerate(self.spans):
            out[op][name] += dur - child[i]
        return out

    def top_level(self) -> dict[int, float]:
        """``{op: summed duration of spans with no parent}``."""
        out: dict[int, float] = defaultdict(float)
        for op, _name, _start, dur, parent in self.spans:
            if parent < 0:
                out[op] += dur
        return out

    def durations(self, name: str) -> dict[int, float]:
        """``{op: summed duration of outermost spans called ``name``}``."""
        out: dict[int, float] = defaultdict(float)
        for op, span, _start, dur, parent in self.spans:
            if span == name and (parent < 0 or self.spans[parent][1] != name):
                out[op] += dur
        return out

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "notes": {str(op): dict(v) for op, v in self.notes.items()},
            "missing": self.missing,
        }

    def merge(self, data: dict, op: int | None = None, offset: int = 0) -> None:
        """Append a :meth:`dump`: all as op ``op``, or its ops + ``offset``."""
        base = len(self.spans)
        for span_op, name, start, dur, parent in data["spans"]:
            self.spans.append([span_op + offset if op is None else op, name, start, dur,
                               parent + base if parent >= 0 else -1])
        for note_op, notes in data["notes"].items():
            for key, value in notes.items():
                self.notes[int(note_op) + offset if op is None else op][key] += value
        self.missing = sorted(set(self.missing) | set(data.get("missing", ())))
