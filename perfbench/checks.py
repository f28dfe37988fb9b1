"""Answer checks against the references in ``refs/``.

Each check returns ``None`` when the answer matches and a one-line reason
when it does not; the harness counts a reason as a failed op.  The
references were built from the program's default path by ``make_refs.py``
and are confirmed once against the unpruned scalar oracle by
``test_perfbench.py``.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

REFS = Path(__file__).resolve().parent / "refs"

_ELAPSED = re.compile(r"^(evaluated .*\)) in [0-9.]+ s$")


def load(name: str) -> dict:
    return json.loads((REFS / f"{name}.json").read_text())


def normalize_cli(stdout: str) -> str:
    """The search output without its wall-clock figure."""
    return "\n".join(_ELAPSED.sub(r"\1", line) for line in stdout.strip().splitlines())


def check_cli(ref: str, stdout: str) -> str | None:
    if normalize_cli(stdout) == ref:
        return None
    return "search output differs from the reference top-10 table"


def budget_answer(entry) -> dict:
    return {"used_gpus": entry.used_gpus, "sample_rate": entry.sample_rate}


def check_budget(ref: dict, answer: dict) -> str | None:
    for field in ("used_gpus", "sample_rate"):
        if answer[field] != ref[field]:
            return f"{field} {answer[field]!r} != reference {ref[field]!r}"
    return None


def serve_answer(result) -> dict:
    return {"top": [[plan.to_dict(), stats.goodput_rps] for plan, stats in result.top]}


def check_serve(ref: dict, answer: dict) -> str | None:
    if not answer["top"]:
        return "empty top-k"
    if canonical(answer["top"]) != canonical(ref["top"]):
        return "top-k plans or goodput differ from the reference"
    return None


def canonical(value) -> str:
    """JSON text that compares NaN equal to NaN and is key-order free."""
    return json.dumps(value, sort_keys=True)


def check_service(ref_flat: str, response: dict) -> str | None:
    if "result" not in response:
        return f"no result in response: {str(response)[:120]}"
    if canonical(response["result"]) != ref_flat:
        return "service result differs from in-process engine.evaluate"
    return None
