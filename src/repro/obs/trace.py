"""Span tracing with Chrome ``trace_event`` export.

A :class:`Tracer` records wall-clock spans — hierarchical by timestamp
containment, the way ``chrome://tracing`` and Perfetto render them — and
serializes to the Trace Event JSON format those viewers load directly.

Two properties matter for a tool whose hot path evaluates a candidate in
tens of microseconds:

* **Disabled is free.**  A disabled tracer returns one shared no-op context
  manager from :meth:`Tracer.span`; nothing is allocated and nothing is
  recorded.  The engine and search layers additionally gate every
  instrumentation site on ``tracer is not None``, so the default
  (un-traced) path pays only untaken branches.
* **Mergeable across processes.**  Timestamps come from
  ``time.perf_counter()`` (CLOCK_MONOTONIC on Linux, shared by every
  process on the machine), so events recorded inside
  ``ProcessPoolExecutor`` workers can be shipped back as plain dicts and
  concatenated onto the parent's timeline with :meth:`Tracer.add_events`;
  each worker's ``pid`` keeps its track separate in the viewer.

Sweep-scale caveat: per-candidate spans at 10^5+ candidates would produce
gigabyte traces, so batched evaluation records *aggregate* stage spans —
one span per pipeline stage per chunk, sized by the chunk's accumulated
stage time (see ``repro.search.chunkeval.evaluate_chunk``).  Single-candidate
:func:`repro.engine.evaluate` records real per-stage spans.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from ..fsutil import atomic_write_text

logger = logging.getLogger(__name__)

# Trace-event timestamps are microseconds.
_US = 1e6

# The HTTP header carrying a serialized TraceContext (client -> server).
TRACE_HEADER = "X-Repro-Trace"


@dataclass(frozen=True)
class TraceContext:
    """The propagated identity of a distributed trace.

    ``trace_id`` names the whole trace (one per coordinator
    :class:`Tracer`); ``parent`` optionally names the span under which the
    remote work should nest.  The context crosses process boundaries as a
    plain dict (pickled into ``multiprocessing`` chunk args) and HTTP
    boundaries as the :data:`TRACE_HEADER` header value
    (``<trace_id>`` or ``<trace_id>;<parent>``).
    """

    trace_id: str
    parent: str | None = None

    def to_header(self) -> str:
        return self.trace_id if self.parent is None else f"{self.trace_id};{self.parent}"

    @classmethod
    def from_header(cls, value: str) -> "TraceContext | None":
        value = value.strip()
        if not value:
            return None
        trace_id, _, parent = value.partition(";")
        trace_id = trace_id.strip()
        if not trace_id:
            return None
        return cls(trace_id=trace_id, parent=parent.strip() or None)

    def to_dict(self) -> dict[str, Any]:
        return {"trace_id": self.trace_id, "parent": self.parent}

    @classmethod
    def from_dict(cls, d: Any) -> "TraceContext | None":
        if not isinstance(d, dict) or not d.get("trace_id"):
            return None
        return cls(trace_id=str(d["trace_id"]), parent=d.get("parent") or None)


def new_trace_id() -> str:
    """A fresh 32-hex-char trace identifier."""
    return uuid.uuid4().hex


class _NullSpan:
    """The shared no-op context manager returned by disabled tracers."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


NULL_SPAN = _NullSpan()


class _Span:
    """One live span: records a complete ("X") event on exit."""

    __slots__ = ("_tracer", "_name", "_cat", "_args", "_start")

    def __init__(self, tracer: "Tracer", name: str, cat: str, args: dict | None):
        self._tracer = tracer
        self._name = name
        self._cat = cat
        self._args = args

    def __enter__(self) -> "_Span":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        end = time.perf_counter()
        self._tracer._record(self._name, self._cat, self._start, end - self._start,
                             self._args)


class Tracer:
    """Collects spans as Chrome trace events.

    ``span`` is the only API the instrumented code paths use::

        with tracer.span("memory", cat="engine.stage"):
            stage_memory(ctx)

    Disabled tracers (``Tracer(enabled=False)``) hand back :data:`NULL_SPAN`
    and record nothing.
    """

    def __init__(self, enabled: bool = True, trace_id: str | None = None):
        self.enabled = enabled
        self.trace_id = trace_id or new_trace_id()
        self._events: list[dict[str, Any]] = []
        self._pid = os.getpid()
        # pid -> display label for merged foreign events ("worker"/"server");
        # our own pid renders as "main".
        self._pid_labels: dict[int, str] = {}

    def context(self, parent: str | None = None) -> TraceContext:
        """The propagation context to ship across a process/HTTP boundary."""
        return TraceContext(trace_id=self.trace_id, parent=parent)

    # -- recording -----------------------------------------------------------

    def span(self, name: str, cat: str = "task", **args: Any):
        if not self.enabled:
            return NULL_SPAN
        return _Span(self, name, cat, args or None)

    def add_span(
        self,
        name: str,
        cat: str,
        start: float,
        duration: float,
        *,
        tid: int | None = None,
        **args: Any,
    ) -> None:
        """Record a span with explicit ``perf_counter`` timing.

        Used for aggregate spans (per-stage totals within a sweep chunk)
        whose extent is computed rather than measured inline.
        """
        if not self.enabled:
            return
        self._record(name, cat, start, duration, args or None, tid=tid)

    def instant(self, name: str, cat: str = "mark", **args: Any) -> None:
        """Record a zero-duration instant event (rendered as an arrowhead)."""
        if not self.enabled:
            return
        event: dict[str, Any] = {
            "name": name,
            "cat": cat,
            "ph": "i",
            "ts": time.perf_counter() * _US,
            "pid": self._pid,
            "tid": threading.get_ident(),
            "s": "t",
        }
        if args:
            event["args"] = args
        self._events.append(event)

    def _record(
        self,
        name: str,
        cat: str,
        start: float,
        duration: float,
        args: dict | None,
        *,
        tid: int | None = None,
    ) -> None:
        event: dict[str, Any] = {
            "name": name,
            "cat": cat,
            "ph": "X",
            "ts": start * _US,
            "dur": max(duration, 0.0) * _US,
            "pid": self._pid,
            "tid": threading.get_ident() if tid is None else tid,
        }
        if args:
            event["args"] = args
        self._events.append(event)

    def add_events(self, events: list[dict[str, Any]], label: str | None = None) -> None:
        """Merge raw events recorded elsewhere (typically a worker process).

        ``label`` names the originating process kind ("worker", "server");
        foreign pids keep their own timeline lane in the viewer and render as
        ``"<label> <pid>"`` (defaulting to ``"worker <pid>"``).
        """
        self._events.extend(events)
        if label is not None:
            for e in events:
                pid = e.get("pid")
                if isinstance(pid, int) and pid != self._pid:
                    self._pid_labels[pid] = label

    # -- export --------------------------------------------------------------

    def events(self) -> list[dict[str, Any]]:
        return list(self._events)

    def to_chrome(self) -> dict[str, Any]:
        """The complete JSON-object trace, ready for ``json.dump``.

        Timestamps are rebased so the earliest event starts at zero, and one
        ``process_name`` metadata event labels each pid track.  The trace
        identifier rides along both as a top-level ``otherData`` entry and in
        each metadata event, so a stitched multi-process trace is
        self-describing.
        """
        events = [dict(e) for e in self._events]
        if events:
            t0 = min(e["ts"] for e in events)
            for e in events:
                e["ts"] -= t0
        pids = sorted({e["pid"] for e in events})

        def _label(pid: int) -> str:
            if pid == self._pid:
                return "main"
            kind = self._pid_labels.get(pid, "worker")
            return f"{kind} {pid}"

        meta = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": _label(pid)},
            }
            for pid in pids
        ]
        return {
            "traceEvents": meta + events,
            "displayTimeUnit": "ms",
            "otherData": {"trace_id": self.trace_id},
        }

    def write(self, path: str | Path) -> Path:
        """Serialize the trace to ``path`` as Chrome trace-event JSON.

        The write is atomic (temp file + ``os.replace``): an interrupted
        run leaves either the previous trace or the new one, never a
        truncated file the viewer cannot load.
        """
        path = Path(path)
        atomic_write_text(path, json.dumps(self.to_chrome(), indent=1))
        logger.debug("wrote %d trace events to %s", len(self._events), path)
        return path


# ---------------------------------------------------------------------------
# Schema validation
# ---------------------------------------------------------------------------

# Required keys (and value types) per event phase we emit.
_COMPLETE_KEYS = {
    "name": str,
    "cat": str,
    "ph": str,
    "ts": (int, float),
    "dur": (int, float),
    "pid": int,
    "tid": int,
}
_METADATA_KEYS = {"name": str, "ph": str, "pid": int}
_INSTANT_KEYS = {"name": str, "ph": str, "ts": (int, float), "pid": int, "tid": int}


def validate_trace(obj: Any) -> list[str]:
    """Check a loaded trace object against the Chrome trace-event schema.

    Returns a list of human-readable problems; an empty list means the trace
    is loadable by ``chrome://tracing`` / Perfetto.  Only the JSON-object
    form (``{"traceEvents": [...]}``) and the phases this package emits
    (``X``, ``M``, ``i``) are accepted.
    """
    errors: list[str] = []
    if not isinstance(obj, dict):
        return [f"trace must be a JSON object, got {type(obj).__name__}"]
    events = obj.get("traceEvents")
    if not isinstance(events, list):
        return ["trace object must carry a 'traceEvents' list"]
    for n, event in enumerate(events):
        if not isinstance(event, dict):
            errors.append(f"event {n}: not an object")
            continue
        ph = event.get("ph")
        required = {"X": _COMPLETE_KEYS, "M": _METADATA_KEYS, "i": _INSTANT_KEYS}.get(ph)
        if required is None:
            errors.append(f"event {n}: unknown phase {ph!r}")
            continue
        for key, types in required.items():
            if key not in event:
                errors.append(f"event {n} ({ph}): missing key {key!r}")
            elif not isinstance(event[key], types):
                errors.append(
                    f"event {n} ({ph}): key {key!r} has type "
                    f"{type(event[key]).__name__}"
                )
        if ph == "X" and isinstance(event.get("dur"), (int, float)) and event["dur"] < 0:
            errors.append(f"event {n}: negative duration")
    return errors


def validate_trace_file(path: str | Path) -> list[str]:
    """Load ``path`` as JSON and run :func:`validate_trace` on it."""
    try:
        obj = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as err:
        return [f"unreadable trace file: {err}"]
    return validate_trace(obj)
