"""Tests of the benchmark harness, and the references' oracle check.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q

``test_oracle_*`` confirm the stored references against the unpruned
scalar oracle (about two minutes); the rest take seconds.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
import stats  # noqa: E402
from layers import PER_LAYER, layer_metrics  # noqa: E402
from run import END_TO_END, Run, result_line  # noqa: E402
from tracer import Tracer  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


# -- percentile and sample-count math ----------------------------------------


def test_percentile_interpolates_like_numpy():
    xs = [float(v) for v in range(1, 11)]
    assert stats.percentile(xs, 50) == 5.5
    assert stats.percentile(xs, 0) == 1.0
    assert stats.percentile(xs, 100) == 10.0
    assert stats.percentile(xs, 90) == pytest.approx(9.1)
    assert stats.percentile([3.0, 1.0, 2.0], 50) == 2.0  # unsorted input


def test_tail_percentile_needs_ten_samples_beyond():
    assert stats.tail_percentile(99) is None
    assert stats.tail_percentile(100) == 90.0
    assert stats.tail_percentile(999) == 90.0
    assert stats.tail_percentile(1000) == 99.0
    assert stats.tail_percentile(10_000) == 99.9


def test_latency_summary_reports_count_and_tail():
    s = stats.latency_summary([0.001] * 99)
    assert s == {"n": 99, "p50_ms": 1.0}
    s = stats.latency_summary([0.001] * 90 + [0.002] * 10)
    assert s["n"] == 100 and s["p50_ms"] == 1.0 and s["p90_ms"] == pytest.approx(1.1)


def test_hodges_lehmann_is_robust_and_follows_mode_shares():
    assert stats.hodges_lehmann([1.0, 2.0, 3.0]) == 2.0
    assert stats.hodges_lehmann([0.3] * 5 + [9.0]) == 0.3  # a stray sample
    # Two modes: the median jumps from one to the other as the majority
    # flips; the estimate moves by a fraction of the gap.
    six_four = [0.3] * 6 + [0.4] * 4
    four_six = [0.3] * 4 + [0.4] * 6
    assert statistics.median(four_six) - statistics.median(six_four) == pytest.approx(0.1)
    assert stats.hodges_lehmann(four_six) - stats.hodges_lehmann(six_four) < 0.06
    with pytest.raises(ValueError):
        stats.hodges_lehmann([])


# -- ops_per_s from summed op time --------------------------------------------


def test_ops_per_second_is_ops_over_summed_op_time():
    assert stats.ops_per_second([2.0, 2.0, 0.5]) == 3 / 4.5
    # No window quantization: stretching one op by 10% moves the rate
    # smoothly; a count of ops finishing inside a fixed 6 s window would
    # jump from 3 to 2 here.
    assert stats.ops_per_second([2.0, 2.0, 2.2]) == pytest.approx(3 / 6.2)
    with pytest.raises(ValueError):
        stats.ops_per_second([])


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_run_passes_runs_whole_passes_within_the_budget(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(stats.time, "perf_counter", clock)

    def do_op(op, traced):
        clock.now += op
        return op, None

    plain, traced = stats.run_passes([1.0, 2.0, 3.0], 12.5, do_op)
    # Passes take 6 s: the third starts at 12 s and overruns to 18 s.
    assert plain.attempted == 9 and traced.attempted == 0
    plain, _ = stats.run_passes([1.0, 2.0, 3.0], 12.0, do_op)
    assert plain.attempted == 6
    plain, _ = stats.run_passes([1.0, 2.0, 3.0], 0.5, do_op)
    assert plain.attempted == 3  # the first pass always completes
    plain, _ = stats.run_passes([1.0, 2.0, 3.0], 0.5, do_op, min_passes=4)
    assert plain.attempted == 12
    plain, _ = stats.run_passes([1.0, 2.0, 3.0], 20.0, do_op, min_passes=2)
    assert plain.attempted == 12  # past the minimum, the budget decides


def test_run_passes_pairs_traced_ops_and_excludes_between_time(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(stats.time, "perf_counter", clock)
    seen = []

    def do_op(op, traced):
        clock.now += 1.0
        seen.append((op, traced))
        return 1.0, None

    plain, traced = stats.run_passes(["a", "b"], 1.0, do_op, paired=True)
    assert seen == [("a", False), ("a", True), ("b", True), ("b", False)]
    assert plain.attempted == traced.attempted == 2

    def between():
        clock.now += 5.0

    plain, traced = stats.run_passes(["x"], 3.5, do_op, between=between)
    # 5 s between ops do not count against the 3.5 s budget.
    assert plain.attempted == 4 and traced.attempted == 0


def test_setup_samples_spread_over_the_run(monkeypatch):
    import run as harness

    clock = FakeClock()
    monkeypatch.setattr(harness, "perf_counter", clock)

    def probe():
        clock.now += 0.5
        return 0.5

    class HalfSpeed:  # a host at half the reference speed
        def start(self):
            pass

        def scale(self, seconds):
            return seconds / 2

    monkeypatch.setattr(harness, "SETUP_INTERVAL", 1.0)
    setup = harness.SetupClock(probe, argparse.Namespace(seconds=8.0, trace=0), HalfSpeed())
    setup.tick()
    assert len(setup.samples) == 1
    clock.now += 0.4
    setup.tick()
    assert len(setup.samples) == 1  # less than one interval of op time
    clock.now += 2.7
    setup.tick()  # 3.1 s of op time: samples at 0, 1, 2 and 3 s
    assert len(setup.samples) == 4
    assert setup.elapsed() == pytest.approx(3.1)
    assert setup.raw == [0.5] * 4 and setup.samples == [0.25] * 4
    traced = harness.SetupClock(probe, argparse.Namespace(seconds=1.0, trace=1), HalfSpeed())
    traced.tick()
    clock.now += 10.0
    traced.tick()
    assert len(traced.samples) == 1


def test_scaled_divides_by_the_mean_kernel_time_around_the_section():
    ref = stats.CAL_REFERENCE_S
    assert stats.scaled(2.0, ref, ref) == pytest.approx(2.0)
    # A host at two thirds of reference speed: kernel 1.5x, section 1.5x.
    assert stats.scaled(3.0, 1.2 * ref, 1.8 * ref) == pytest.approx(2.0)


def test_host_speed_brackets_each_section_and_stops_its_helper(monkeypatch):
    kernels = iter([0.05, 0.07, 0.09, 0.11])
    monkeypatch.setattr(stats.HostSpeed, "_kernel", lambda self: next(kernels))
    with stats.HostSpeed() as speed:
        proc = speed.proc
        assert speed.last == 0.05
        assert speed.scale(1.0) == pytest.approx(stats.CAL_REFERENCE_S / 0.06)
        assert speed.factor() == pytest.approx(stats.CAL_REFERENCE_S / 0.08)
    assert proc.returncode == 0
    monkeypatch.undo()
    with stats.HostSpeed() as speed:  # the real helper: one positive time per request
        speed.last_at -= 10 * stats.CAL_MAX_AGE_S
        speed.start()  # stale: reruns the kernel
        assert len(speed.kernel_seconds) == 2
        speed.start()  # fresh: does not
        assert len(speed.kernel_seconds) == 2 and speed.factor() > 0
    assert speed.proc.returncode == 0


# -- failure counting -----------------------------------------------------------


def test_failed_ops_are_counted_and_excluded_from_latency():
    run = Run()
    run.setup = [0.4, 0.5, 0.6]
    run.rss_kb = 2048
    for seconds, error in ((1.0, None), (9.0, "wrong answer"), (3.0, None)):
        run.plain.record(seconds, error)
    run.traced.record(1.0, "traced op raised")
    out = result_line(run, trace=False)
    assert (out["correct"], out["attempted"], out["failed"]) == (False, 4, 2)
    m = out["metrics"]
    assert set(m) == {name for name, _unit in END_TO_END}
    assert m["op_p50_ms"] == {"value": 2000.0, "unit": "ms"}
    assert m["ops_per_s"]["value"] == 2 / 4.0
    assert m["setup_s"]["value"] == 0.5
    assert m["peak_rss_mb"]["value"] == 2.0


def test_all_ok_run_is_correct_and_log_round_trips():
    log = stats.OpLog()
    log.record(0.5, None)
    log.record(0.7, "bad")
    again = stats.OpLog.from_dict(json.loads(json.dumps(log.to_dict())))
    assert (again.attempted, again.failed, again.failures) == (2, 1, ["bad"])
    run = Run()
    run.plain.record(0.5, None)
    run.setup, run.rss_kb = [0.3], 1024
    assert result_line(run, trace=False)["correct"] is True


# -- answer checks reject perturbed answers ---------------------------------------


def test_budget_check_rejects_a_one_ulp_change():
    key, ref = next(iter(checks.load("budget_grid").items()))
    assert checks.check_budget(ref, dict(ref)) is None
    bumped = dict(ref, sample_rate=math.nextafter(ref["sample_rate"], math.inf))
    assert checks.check_budget(ref, bumped) is not None
    assert checks.check_budget(ref, dict(ref, used_gpus=ref["used_gpus"] + 8)) is not None


def test_serve_check_rejects_changed_goodput_or_plan():
    ref = next(iter(checks.load("serve_slo").values()))
    same = json.loads(json.dumps(ref))
    assert checks.check_serve(ref, same) is None
    worse = json.loads(json.dumps(ref))
    worse["top"][0][1] = math.nextafter(worse["top"][0][1], 0.0)
    assert checks.check_serve(ref, worse) is not None
    swapped = json.loads(json.dumps(ref))
    swapped["top"] = swapped["top"][::-1]
    if len(swapped["top"]) > 1:
        assert checks.check_serve(ref, swapped) is not None
    assert checks.check_serve(ref, {"top": []}) is not None


def test_cli_check_ignores_only_the_elapsed_time():
    ref = checks.load("search_cli")[inputs.cli_key(inputs.CLI_PROBLEMS[0])]
    first, *rest = ref.splitlines()
    stdout = "\n".join([first + " in 2.7 s", *rest]) + "\n"
    assert checks.check_cli(ref, stdout) is None
    # Change one digit of the winner's rate.
    row = rest[2]
    digit = next(i for i, ch in enumerate(row) if ch.isdigit() and i > row.index("|"))
    bad_row = row[:digit] + str((int(row[digit]) + 1) % 10) + row[digit + 1:]
    perturbed = "\n".join([first + " in 2.7 s", rest[0], rest[1], bad_row, *rest[3:]])
    assert checks.check_cli(ref, perturbed) is not None


def test_service_check_rejects_a_perturbed_result():
    flat = {"sample_rate": 397.5, "feasible": True, "mfu": float("nan")}
    ref = checks.canonical(flat)
    assert checks.check_service(ref, {"result": dict(flat)}) is None  # NaN == NaN
    assert checks.check_service(ref, {"result": dict(flat, sample_rate=397.50001)}) is not None
    assert checks.check_service(ref, {"error": "boom"}) is not None


# -- peak RSS comes from the program's processes -----------------------------------

ALLOC = "b = bytearray({mb} * 2**20); b[::4096] = b'x' * len(b[::4096])"

# A small harness of its own: the test process is too big to be one.
MINI_HARNESS = """
import sys
sys.path.insert(0, {here!r})
from stats import Child
ballast = bytearray({ballast} * 2**20)
ballast[::4096] = b"x" * len(ballast[::4096])
child = Child([sys.executable, "-c", {code!r}], env={{}}, timeout=60)
child.proc.stdout.read()
try:
    child.reap()
except RuntimeError:
    sys.stdout.write("refused\\n")
else:
    sys.stdout.write(f"{{child.maxrss_kb / 1024}}\\n")
"""


def _child_rss(code: str, ballast_mb: int = 0) -> str:
    script = MINI_HARNESS.format(here=str(HERE), ballast=ballast_mb, code=code)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          check=True, timeout=120)
    return proc.stdout.strip()


def test_peak_rss_is_the_childs_not_the_harness():
    assert float(_child_rss(ALLOC.format(mb=200))) >= 200
    assert 60 <= float(_child_rss(ALLOC.format(mb=60))) < 100
    # A harness as big as the child makes the figure ambiguous: refused.
    assert _child_rss("pass", ballast_mb=200) == "refused"


def test_peak_rss_includes_reaped_grandchildren():
    # A pool worker is a grandchild of the harness; the CLI reaps it.
    inner = ALLOC.format(mb=250)
    code = f"import subprocess, sys; subprocess.run([sys.executable, '-c', {inner!r}], check=True)"
    assert float(_child_rss(code)) >= 250


# -- tracing -----------------------------------------------------------------


def test_tracer_wraps_every_binding_and_restores_them():
    sys.path.insert(0, str(ROOT / "src"))
    import repro.cli
    import repro.search
    from repro.search import execution_search

    original = execution_search.search
    tr = Tracer()
    tr.install()
    try:
        assert repro.cli.search is not original
        assert repro.search.search is repro.cli.search is execution_search.search
        tr.op = 0
        from repro.llm import get_preset
        from repro.io import system_from_spec

        # workers=1: a forked pool worker's spans would stay in the worker.
        result = repro.search.search(get_preset("tiny-test"), system_from_spec("a100:8"), 16,
                                     keep_rates=False, workers=1)
    finally:
        tr.uninstall()
    assert repro.cli.search is original and repro.search.search is original
    assert result.best is not None
    names = {span[1] for span in tr.spans}
    assert {"search.search", "search.enumerate", "engine.profile"} <= names
    selfs = tr.self_times()[0]
    total = tr.durations("search.search")[0]
    assert sum(selfs.values()) == pytest.approx(total)
    assert all(v >= 0 for v in selfs.values())
    metrics = layer_metrics(tr, {0: total}, {})
    assert set(metrics) == {name for name, _unit in PER_LAYER}
    assert metrics["trace.coverage"] == pytest.approx(1.0)
    assert metrics["search.candidates"] == result.num_evaluated


def test_unresolved_trace_target_fails_the_traced_run():
    import run as harness

    sys.path.insert(0, str(ROOT / "src"))
    import repro.engine.batch  # noqa: F401

    tr = Tracer()
    tr.install([("repro.engine.batch", "batch_profile_renamed", "engine.profile"),
                ("repro.engine.batch", "batch_profile", "engine.profile"),
                ("repro.not_imported_module", "f", "x")], load=False)
    tr.uninstall()
    # An unimported module is skipped; an imported one without the name is not.
    assert tr.missing == ["repro.engine.batch.batch_profile_renamed"]
    run = Run()
    run.setup, run.rss_kb = [0.4], 1024
    run.plain.record(1.0, None)
    harness._check_targets(run, tr)
    assert run.missing == tr.missing
    assert result_line(run, trace=False)["failed"] == 1
    assert not result_line(run, trace=False)["correct"]


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    from run import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_seeded_inputs_are_deterministic_and_referenced():
    assert inputs.cli_ops(3) == inputs.cli_ops(3)
    assert sorted(inputs.cli_ops(3)) == sorted(inputs.CLI_PROBLEMS)
    assert inputs.budget_ops(5) == list(inputs.BUDGET_PAIRS)
    assert {llm for _h, d, llm in inputs.BUDGET_PAIRS if d} == set(inputs.BUDGET_LLMS)
    assert {llm for _h, d, llm in inputs.BUDGET_PAIRS if not d} == set(inputs.BUDGET_LLMS)
    budget = checks.load("budget_grid")
    assert sorted(budget) == sorted(inputs.budget_key(p) for p in inputs.BUDGET_PAIRS)
    serve = checks.load("serve_slo")
    assert sorted(serve) == sorted(inputs.serve_key(op) for op in inputs.all_serve_ops())
    for seed in range(20):
        assert sorted(inputs.serve_ops(seed)) == inputs.all_serve_ops()
    a, b = inputs.ServiceMix(7, 1000), inputs.ServiceMix(7, 1000)
    assert [a.fresh() for _ in range(5)] == [b.fresh() for _ in range(5)]


# -- the references against the unpruned scalar oracle ------------------------------


@pytest.mark.parametrize("problem", inputs.CLI_PROBLEMS, ids=inputs.cli_key)
def test_oracle_search_cli(problem):
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *inputs.cli_argv(problem), "--no-prune",
         "--no-columnar", "--workers", "1"],
        capture_output=True, text=True, env=ENV, check=True,
    )
    assert checks.check_cli(checks.load("search_cli")[inputs.cli_key(problem)],
                            proc.stdout) is None


# Two of the cheaper pairs, one with DDR offload: the scalar oracle costs
# tens of seconds per pair.
ORACLE_PAIRS = ((40, 0, "turing-530b"), (20, 256, "megatron-1t"))


@pytest.mark.parametrize("pair", ORACLE_PAIRS, ids=inputs.budget_key)
def test_oracle_budget_grid(pair, monkeypatch):
    sys.path.insert(0, str(ROOT / "src"))
    import functools

    import worker
    from repro.search import cost, system_search

    monkeypatch.setattr(cost, "best_at_size", functools.partial(
        system_search.best_at_size, columnar=False, bound_prune=False))
    ops, run, _props = worker.budget_setup([pair])
    ref = checks.load("budget_grid")[ops[0][0]]
    assert checks.check_budget(ref, checks.budget_answer(run(ops[0]))) is None


@pytest.mark.parametrize("shape", range(len(inputs.SERVE_SHAPES)))
def test_oracle_serve_slo(shape):
    sys.path.insert(0, str(ROOT / "src"))
    import worker

    ops, run, _props = worker.serve_setup([(shape, inputs.SERVE_TRAFFIC_SEEDS[shape])],
                                          prune=False)
    ref = checks.load("serve_slo")[ops[0][0]]
    assert checks.check_serve(ref, checks.serve_answer(run(ops[0]))) is None
