"""Rebuild the answer references in ``refs/`` from the program's default path.

Usage, from the repository root::

    PYTHONPATH=src python perfbench/make_refs.py

Covers every input any seed can draw: the three CLI problems, the 12
budget-grid pairs and every serve-slo shape x traffic seed.  Run it only when
the model's answers are meant to change, and then confirm the new
references with ``python -m pytest perfbench -k oracle``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
import worker  # noqa: E402


def search_cli() -> dict:
    out = {}
    for problem in inputs.CLI_PROBLEMS:
        proc = subprocess.run([sys.executable, "-m", "repro", *inputs.cli_argv(problem)],
                              capture_output=True, text=True, check=True, env=dict(os.environ))
        out[inputs.cli_key(problem)] = checks.normalize_cli(proc.stdout)
    return out


def _answers(workload: str, all_ops) -> dict:
    setup, _pass, answer_of, _check, _ref = worker.WORKLOADS[workload]
    ops, run, _props = setup(all_ops)
    out = {}
    for op in ops:
        result = run(op)
        if workload == "serve-slo" and not (result.top and result.num_pruned):
            raise SystemExit(f"{op[0]}: empty top-k or nothing pruned")
        out[op[0]] = answer_of(result)
    return out


def budget_grid() -> dict:
    return _answers("budget-grid", inputs.BUDGET_PAIRS)


def serve_slo() -> dict:
    return _answers("serve-slo", inputs.all_serve_ops())


def main() -> int:
    for name, build in (("search_cli", search_cli), ("budget_grid", budget_grid),
                        ("serve_slo", serve_slo)):
        path = checks.REFS / f"{name}.json"
        path.write_text(json.dumps(build(), indent=1, sort_keys=True) + "\n")
        sys.stdout.write(f"wrote {path}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
