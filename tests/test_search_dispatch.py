"""Every ``search()`` dispatch evaluates column ranges through one evaluator.

The worker count, the observers (events, tracer, stats, progress), a
checkpoint resumed after a partial run and a constraint may change how the
space is sliced and who evaluates each range — never the answer.  Each
combination must be bit-identical to the unpruned scalar oracle.
"""

import io

import pytest

from repro.hardware import a100_system
from repro.llm import LLMConfig
from repro.obs import EventJournal, ProgressReporter, Tracer, read_events
from repro.search import SearchOptions, auto_workers, execution_search, search

LLM = LLMConfig(name="dispatch-llm", hidden=2048, attn_heads=16, seq_size=1024,
                num_blocks=16)
SYS = a100_system(16)
BATCH = 32
TOP_K = 3  # the 3rd and 4th best tie exactly, with or without the cap
OPTS = SearchOptions(
    recompute=("none", "full"),
    tp_overlap=("none",),
    dp_overlap=(False,),
    fused_activations=(False,),
    max_microbatch=4,
)


def _mem_cap(res):
    """Module-level, so pool workers can unpickle it."""
    return res.mem1.total <= 2.3 * 2**30


@pytest.fixture(scope="module")
def oracles():
    return {
        constraint: search(
            LLM, SYS, BATCH, OPTS, top_k=TOP_K, workers=0, keep_rates=False,
            columnar=False, bound_prune=False, constraint=constraint,
        )
        for constraint in (None, _mem_cap)
    }


def test_oracle_constraint_is_selective(oracles):
    free, capped = oracles[None], oracles[_mem_cap]
    assert 0 < capped.num_feasible < free.num_feasible
    assert [s for s, _ in capped.top] != [s for s, _ in free.top]


@pytest.mark.parametrize("constrained", [False, True], ids=["free", "constraint"])
@pytest.mark.parametrize("resume", [False, True], ids=["fresh", "resume"])
@pytest.mark.parametrize("sinks", [False, True], ids=["no-sinks", "sinks"])
@pytest.mark.parametrize("workers", [1, 2])
def test_dispatch_matches_scalar_oracle(tmp_path, oracles, workers, sinks,
                                        resume, constrained):
    constraint = _mem_cap if constrained else None
    kw = dict(top_k=TOP_K, workers=workers, keep_rates=False,
              constraint=constraint)
    kept = 0
    if resume:
        # An interrupted run: the journal header plus half of its records.
        checkpoint = tmp_path / "ck.jsonl"
        search(LLM, SYS, BATCH, OPTS, checkpoint=checkpoint, **kw)
        header, *records = checkpoint.read_text().splitlines()
        kept = len(records) // 2
        checkpoint.write_text("\n".join([header, *records[:kept]]) + "\n")
        kw.update(checkpoint=checkpoint, resume=True)
    journal = None
    if sinks:
        journal = EventJournal(tmp_path / "ev.jsonl", source="search")
        kw.update(events=journal, tracer=Tracer(), collect_stats=True,
                  progress=ProgressReporter(stream=io.StringIO()))
    try:
        got = search(LLM, SYS, BATCH, OPTS, **kw)
    finally:
        if journal is not None:
            journal.close()

    ref = oracles[constraint]
    assert got.num_evaluated == ref.num_evaluated
    assert got.num_feasible == ref.num_feasible
    assert [s for s, _ in got.top] == [s for s, _ in ref.top]
    # Frozen dataclasses: every float of every retained result compared.
    assert [r for _, r in got.top] == [r for _, r in ref.top]
    if resume:
        assert kept > 0 and got.stats.resumed_chunks == kept
    if sinks:
        kinds = {e["kind"] for e in read_events(tmp_path / "ev.jsonl")}
        assert {"search.start", "chunk.dispatch", "chunk.done",
                "search.done"} <= kinds


def test_observers_never_change_the_layout(tmp_path):
    """A journaled, traced serial search is still one range."""
    with EventJournal(tmp_path / "ev.jsonl", source="search") as journal:
        search(LLM, SYS, BATCH, OPTS, top_k=TOP_K, workers=1,
               keep_rates=False, events=journal, tracer=Tracer(),
               collect_stats=True)
    (start,) = [e for e in read_events(tmp_path / "ev.jsonl")
                if e["kind"] == "search.start"]
    assert start["chunks"] == 1


def test_cli_default_search_never_builds_a_strategy_list(monkeypatch, capsys):
    from repro.cli import main

    calls = []
    original = execution_search.candidate_strategies

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(execution_search, "candidate_strategies", spy)
    assert main(["search", "gpt3-175b", "a100:4096", "--batch", "4096"]) == 0
    assert "evaluated 98640 configurations" in capsys.readouterr().out
    assert calls == []


@pytest.mark.parametrize("candidates", [98_640, 103_680, 133_824])
def test_auto_workers_keeps_cli_problems_serial_on_two_cores(candidates):
    # The three paper-scale CLI problems (GPT-3 175B / 4096, Turing-530B /
    # 2240, Megatron-1T / 3072 GPUs) finish serially in ~0.1-0.2 s.
    assert auto_workers(candidates, cpu_count=2) == 1
