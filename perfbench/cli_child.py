"""Traced twin of ``python -m repro``: one CLI run with spans recorded.

Usage: ``python perfbench/cli_child.py SPANS.json <repro CLI arguments>``.

Times ``import repro.cli`` as the ``cli.import`` span, wraps the program's
public functions (see ``tracer.py``), runs ``repro.cli.main`` and writes
the spans and engine comm-cache counters of this process to SPANS.json.
Pool workers it forks keep their spans; their time stays in ``search()``.
"""

from __future__ import annotations

import json
import os
import sys
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import Tracer  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.op = 0
    t0 = perf_counter()
    import repro.cli
    # search() imports this lazily; importing it here lets its functions be
    # wrapped without loading modules (e.g. serving) a search never uses.
    import repro.search.columns  # noqa: F401

    tracer.add_span("cli.import", t0, perf_counter() - t0)
    from repro.engine import comm_cache_stats

    tracer.install(load=False)
    c0 = comm_cache_stats()
    try:
        code = repro.cli.main(argv)
    finally:
        c1 = comm_cache_stats()
        data = tracer.dump()
        data["comm_cache"] = [c1[0] - c0[0], c1[1] - c0[1]]
        with open(out_path, "w") as fh:
            json.dump(data, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
