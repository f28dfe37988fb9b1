"""End-to-end benchmark of the program's four front doors.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md for why each exists):

* ``search-cli``  - one fresh ``python -m repro search`` process per op
* ``budget-grid`` - paper §7 / Table 3 pairs via ``evaluate_design``
* ``serve-slo``   - SLO-constrained ``serve_search`` on GPT-3 / h100:16
* ``service-mix`` - ``POST /evaluate`` to ``repro serve`` over one connection

Every answer is checked.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` wraps the program's public functions and prints per-layer
metrics.  The last stdout line is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it is the run
record (host, versions, source digest, seed, workload properties).
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
from layers import PER_LAYER, layer_metrics  # noqa: E402
from stats import CAL_REFERENCE_S, Child, HostSpeed, OpLog, latency_summary, run_passes  # noqa: E402
from tracer import Tracer  # noqa: E402

PY = sys.executable
# Fresh-process set-up samples: one before the first op, then one each time
# another SETUP_INTERVAL seconds of op time have passed, so they spread
# over the whole run and see the same host drift as the ops (the host's
# speed flips between two modes ~30% apart every few seconds; samples
# taken back to back all land in one).  Each is scaled to reference speed
# (``stats.HostSpeed``), and their Hodges-Lehmann estimate is reported
# (``stats.hodges_lehmann``): over ten runs of unscaled samples the plain
# median spread 0.19, this 0.08.
SETUP_INTERVAL = 2.5
CHILD_TIMEOUT = 150.0
# search-cli's three problems cost ~2.3, ~2.6 and ~2.9 s, and a CLI op
# varies by ~12% even at reference speed, so the median of the two passes
# that fit in 12 s sat between problems and spread 0.14 over ten runs;
# every untraced run makes at least CLI_PASSES.
CLI_PASSES = 4
# budget-grid's pairs cost 0.3-4 s each, so the median of one pass sits
# between two different pairs and moved 15% between runs; two cold passes
# put two samples of each pair around it.
COLD_PASSES = 2
END_TO_END = (("setup_s", "s"), ("op_p50_ms", "ms"), ("ops_per_s", "1/s"),
              ("peak_rss_mb", "MB"))


class HarnessError(RuntimeError):
    """The benchmark could not run (as opposed to an op failing its check)."""


class Run:
    """What a workload hands back to :func:`main`."""

    def __init__(self) -> None:
        self.plain = OpLog()
        self.traced = OpLog()
        self.setup: list[float] = []
        self.setup_raw: list[float] = []
        self.raw_seconds: list[float] = []
        self.rss_kb = 0
        self.props: dict = {}
        self.per_layer: dict = {}
        self.missing: list[str] = []


class SetupClock:
    """Set-up samples spread through a run, scaled to reference host speed.

    ``probe()`` starts a fresh program process and returns its set-up
    seconds.  :meth:`tick`, called between ops, takes samples until there
    is one per ``SETUP_INTERVAL`` of run time so far (plus the first); run
    time excludes the probes themselves, whose total is ``spent``.
    :meth:`add`, called right after the program's set-up ended, records a
    set-up the run itself measured.  ``raw`` keeps the unscaled samples.
    """

    def __init__(self, probe, args, speed: HostSpeed):
        self.probe = probe
        self.speed = speed
        # A traced run reports no set-up time; it takes only the first sample.
        self.interval = math.inf if args.trace else SETUP_INTERVAL
        self.samples: list[float] = []
        self.raw: list[float] = []
        self.spent = 0.0
        self.start = perf_counter()

    def elapsed(self) -> float:
        return perf_counter() - self.start - self.spent

    def add(self, seconds: float) -> None:
        self.raw.append(seconds)
        self.samples.append(self.speed.scale(seconds))

    def tick(self) -> None:
        while len(self.samples) < 1 + int(self.elapsed() // self.interval):
            t0 = perf_counter()
            self.speed.start()
            self.add(self.probe())
            self.spent += perf_counter() - t0


def _env() -> dict:
    env = dict(os.environ)
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _spawn_ready(argv: list[str], env: dict, **kwargs) -> tuple[Child, float]:
    """Start a child and wait for its ``READY`` line; returns seconds to it."""
    child = Child(argv, env=env, timeout=CHILD_TIMEOUT, **kwargs)
    line = child.proc.stdout.readline()
    ready = perf_counter() - child.started
    if line.strip() != "READY":
        child.proc.stdout.read()
        child.reap()
        raise HarnessError(f"{argv[1:3]} exited before READY (code {child.returncode})")
    return child, ready


def _probe(argv: list[str], env: dict) -> float:
    """Set-up seconds of one fresh process that exits after ``READY``."""
    child, ready = _spawn_ready(argv, env, measure_rss=False)
    child.proc.stdout.read()
    child.reap()
    return ready


def _overhead(run: Run) -> float:
    """Traced over untraced op time, minus 1.

    Each op is timed both ways, alternating which goes first, so the
    geometric mean of the per-op ratios cancels the warm-cache advantage
    of going second.
    """
    plain, traced = run.plain.ok_seconds, run.traced.ok_seconds
    if not plain or not traced:
        return 0.0
    logs = [math.log(t / p) for p, t in zip(plain, traced)]
    return math.exp(statistics.fmean(logs)) - 1.0


def _check_targets(run: Run, tracer: Tracer) -> None:
    """Fail the traced run once per trace target that no longer resolves."""
    run.missing = sorted(tracer.missing)
    for path in run.missing:
        run.traced.record(0.0, f"trace target {path} does not resolve")


# -- search-cli ----------------------------------------------------------------


def search_cli(args, env: dict, out: Path, speed: HostSpeed) -> Run:
    run = Run()
    probe = [PY, "-c", "import sys, repro.cli; sys.stdout.write('READY\\n')"]
    clock = SetupClock(lambda: _probe(probe, env), args, speed)
    clock.tick()
    refs = checks.load("search_cli")
    tracer = Tracer()
    walls: dict[int, float] = {}
    cache = [0, 0]
    candidates: dict[str, int] = {}

    def do_op(problem, traced: bool):
        key = inputs.cli_key(problem)
        argv = inputs.cli_argv(problem)
        spans = out / f"cli-spans-{len(walls)}.json"
        if traced:
            cmd = [PY, str(HERE / "cli_child.py"), str(spans), *argv]
        else:
            cmd = [PY, "-m", "repro", *argv]
        if not args.trace:
            speed.start()
        child = Child(cmd, env=env, timeout=CHILD_TIMEOUT)
        stdout = child.proc.stdout.read()
        code = child.reap()
        dt = perf_counter() - child.started
        if not traced:
            run.raw_seconds.append(dt)
            if not args.trace:  # a traced run compares its op pairs raw
                dt = speed.scale(dt)
        run.rss_kb = max(run.rss_kb, child.maxrss_kb)
        if code != 0:
            return dt, f"{key}: exit code {code}"
        m = re.search(r"evaluated (\d+) configurations", stdout)
        if m:
            candidates[key] = int(m.group(1))
        if traced:
            op = len(walls)
            walls[op] = dt
            data = json.loads(spans.read_text())
            tracer.merge(data, op)
            cache[0] += data["comm_cache"][0]
            cache[1] += data["comm_cache"][1]
        return dt, checks.check_cli(refs[key], stdout)

    run.plain, run.traced = run_passes(inputs.cli_ops(args.seed), args.seconds, do_op,
                                       paired=bool(args.trace), between=clock.tick,
                                       min_passes=1 if args.trace else CLI_PASSES)
    run.setup, run.setup_raw = clock.samples, clock.raw
    run.props = {"candidates": candidates}
    if args.trace:
        _check_targets(run, tracer)
        n = max(len(walls), 1)
        searched = tracer.durations("search.search")
        imported = tracer.durations("cli.import")
        run.per_layer = layer_metrics(tracer, walls, {
            "cli.import_s": sum(imported.values()) / n,
            "cli.self_s": sum(walls[op] - imported.get(op, 0.0) - searched.get(op, 0.0)
                              for op in walls) / n,
            "engine.comm_cache_hit_ratio": cache[0] / max(cache[0] + cache[1], 1),
            "trace.overhead": _overhead(run),
        })
    return run


# -- budget-grid and serve-slo (in a worker process) -----------------------------


def library(args, env: dict, out: Path, speed: HostSpeed) -> Run:
    """Run the ops in worker processes.

    budget-grid starts a fresh worker per pass, as every `repro budget`
    starts cold, and runs at least ``COLD_PASSES`` of them (one when traced:
    the per-layer figures do not need the second); serve-slo runs its
    passes in one worker.  A worker's own set-up counts as a sample; it
    then waits for a line on stdin while the harness scales that sample.
    After each op it prints ``TICK`` and waits while the harness runs the
    speed kernel and takes any set-up samples due; the reply is the op's
    speed factor.
    """
    run = Run()
    base = [PY, str(HERE / "worker.py"), args.workload, "--seed", str(args.seed),
            "--trace", str(args.trace)]
    fresh = args.workload == "budget-grid"
    seconds = ["--seconds", "0" if fresh else str(args.seconds)]
    clock = SetupClock(lambda: _probe(base + seconds + ["--setup-only"], env), args, speed)
    tracer = Tracer()
    walls: dict[int, float] = {}
    hits = misses = 0
    passes = 0
    while True:
        result = out / f"{args.workload}-{args.seed}-{args.trace}-{passes}.json"
        speed.start()
        child, ready = _spawn_ready(base + seconds + ["--out", str(result)], env,
                                    stdin=subprocess.PIPE)
        try:
            clock.add(ready)
            child.proc.stdin.write("\n")
            child.proc.stdin.flush()
            for line in iter(child.proc.stdout.readline, ""):
                if line.strip() == "TICK":
                    factor = speed.factor()
                    clock.tick()
                    child.proc.stdin.write(f"{factor!r}\n")
                    child.proc.stdin.flush()
        except BaseException:
            child.proc.kill()
            child.reap()
            raise
        if child.reap() != 0:
            raise HarnessError(f"worker exited with code {child.returncode}")
        passes += 1
        run.rss_kb = max(run.rss_kb, child.maxrss_kb)
        data = json.loads(result.read_text())
        run.plain.extend(OpLog.from_dict(data["plain"]))
        run.traced.extend(OpLog.from_dict(data["traced"]))
        run.raw_seconds += data["raw"]
        run.props.update(data["props"])
        if args.trace:
            offset = len(walls)
            tracer.merge(data["trace"], offset=offset)
            walls.update({int(k) + offset: v for k, v in data["walls"].items()})
            hits += data["comm_cache"][0]
            misses += data["comm_cache"][1]
        cold = 1 if args.trace else COLD_PASSES
        if not fresh or (passes >= cold and clock.elapsed() >= args.seconds):
            break
    run.setup, run.setup_raw = clock.samples, clock.raw
    if args.trace:
        _check_targets(run, tracer)
        run.per_layer = layer_metrics(tracer, walls, {
            "engine.comm_cache_hit_ratio": hits / max(hits + misses, 1),
            "trace.overhead": _overhead(run),
        })
    return run


# -- service-mix -----------------------------------------------------------------


class Server:
    """``repro serve`` on an ephemeral port with a memory-only cache."""

    def __init__(self, env: dict, measure_rss: bool = True):
        self.child = Child([PY, "-m", "repro", "serve", "--port", "0"], env=env,
                           timeout=CHILD_TIMEOUT, stderr=subprocess.PIPE,
                           measure_rss=measure_rss)
        banner = self.child.proc.stderr.readline()
        m = re.search(r"http://127\.0\.0\.1:(\d+)", banner)
        if not m:
            self.child.terminate()
            raise HarnessError(f"no service banner: {banner.strip()!r}")
        self.port = int(m.group(1))
        threading.Thread(target=self._drain, daemon=True).start()
        while True:
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
            try:
                conn.request("GET", "/healthz")
                resp = conn.getresponse()
                resp.read()
                if resp.status == 200:
                    break
            except OSError:
                if perf_counter() - self.child.started > 30:
                    self.child.terminate()
                    raise HarnessError("service never answered /healthz") from None
            finally:
                conn.close()
        self.ready = perf_counter() - self.child.started

    def _drain(self) -> None:
        try:
            for _line in self.child.proc.stderr:
                pass
        except (OSError, ValueError):
            pass

    def stop(self) -> int:
        return self.child.terminate()


def scrape(conn: http.client.HTTPConnection) -> dict[str, float]:
    conn.request("GET", "/metrics")
    resp = conn.getresponse()
    text = resp.read().decode()
    out = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            out[name] = float(value)
    return out


def _probe_server(env: dict) -> float:
    """Set-up seconds of one more ``repro serve``, stopped at once."""
    server = Server(env, measure_rss=False)
    if server.stop() != 0:
        raise HarnessError(f"probe service exited with code {server.child.returncode}")
    return server.ready


def service_mix(args, env: dict, out: Path, speed: HostSpeed) -> Run:
    run = Run()
    speed.start()
    server = Server(env)
    try:
        clock = SetupClock(lambda: _probe_server(env), args, speed)
        clock.add(server.ready)
        _service_ops(args, run, server, clock)
        run.setup, run.setup_raw = clock.samples, clock.raw
    finally:
        code = server.stop()
        run.rss_kb = server.child.maxrss_kb
    if code != 0:
        raise HarnessError(f"service exited with code {code} after SIGTERM")
    return run


def _service_ops(args, run: Run, server: Server, clock: SetupClock) -> None:
    """The request loop.  Nothing is traced: the per-layer figures come
    from the client's timings and the server's ``/metrics``.  Op times are
    not scaled to reference speed: ~42 of an op's ~47 ms are a TCP timer
    (see README), which the host's speed does not move."""
    sys.path.insert(0, str(Path("src").resolve()))
    from repro.engine import evaluate
    from repro.io import llm_from_spec, result_to_flat_dict, system_from_spec
    from repro.search import candidate_strategies

    llm = llm_from_spec(inputs.SERVICE_LLM)
    system = system_from_spec(inputs.SERVICE_SYSTEM)
    cands = list(candidate_strategies(llm, system, inputs.SERVICE_BATCH))
    mix = inputs.ServiceMix(args.seed, len(cands))
    refs: dict[int, str] = {}
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
    # (cache source, round trip s, client send s, headers-to-body s)
    classes: list[tuple[str, float, float, float]] = []

    def do_op(_op, _traced: bool):
        if mix.is_repeat():
            idx = mix.repeat()
        else:
            while True:  # fresh, feasible; its reference is computed here, untimed
                idx = mix.fresh()
                result = evaluate(llm, system, cands[idx])
                if result.feasible:
                    break
            refs[idx] = checks.canonical(json.loads(json.dumps(result_to_flat_dict(result))))
            mix.sent.append(idx)
        body = json.dumps({"llm": inputs.SERVICE_LLM, "system": inputs.SERVICE_SYSTEM,
                           "strategy": cands[idx].to_dict()})
        t0 = perf_counter()
        conn.request("POST", "/evaluate", body, {"Content-Type": "application/json"})
        t1 = perf_counter()
        resp = conn.getresponse()
        t2 = perf_counter()
        raw = resp.read()
        dt = perf_counter() - t0
        if resp.status != 200:
            return dt, f"HTTP {resp.status}: {raw[:120]!r}"
        data = json.loads(raw)
        classes.append((data.get("cache", "?"), dt, t1 - t0, t0 + dt - t2))
        return dt, checks.check_service(refs[idx], data)

    before = scrape(conn)
    run.plain, _ = run_passes([None], args.seconds, do_op, between=clock.tick)
    run.raw_seconds = run.plain.ok_seconds + run.plain.failed_seconds
    after = scrape(conn)
    conn.close()

    def delta(name: str) -> float:
        return after.get(name, 0.0) - before.get(name, 0.0)

    hit_t = [c[1] for c in classes if c[0] in ("memory", "disk")]
    miss_t = [c[1] for c in classes if c[0] == "miss"]
    n = max(len(classes), 1)
    body_wait_ms = statistics.median(c[3] for c in classes) * 1e3 if classes else 0.0
    run.props = {"requests": len(classes), "hit_share": len(hit_t) / n,
                 "distinct_strategies": len(mix.sent),
                 "headers_to_body_ms_p50": body_wait_ms}
    if args.trace:
        req = "repro_service_request_seconds"
        request_s = delta(req + "_sum") / max(delta(req + "_count"), 1)
        batch = "repro_service_dispatch_batch"
        wall_s = statistics.fmean(c[1] for c in classes)
        client_s = statistics.fmean(c[2] for c in classes)
        run.per_layer = layer_metrics(Tracer(), {}, {
            "service.hit_ms": statistics.median(hit_t) * 1e3 if hit_t else 0.0,
            "service.miss_ms": statistics.median(miss_t) * 1e3 if miss_t else 0.0,
            "service.hit_ratio": len(hit_t) / n,
            "service.request_ms": request_s * 1e3,
            "service.batch_ms": 1e3 * delta(batch + "_seconds_sum")
            / max(delta(batch + "_seconds_count"), 1),
            "service.batch_size_mean": delta(batch + "_size_sum")
            / max(delta(batch + "_size_count"), 1),
            "service.coalesced": delta("repro_service_coalesced"),
            "service.rejected": delta("repro_service_rejected_overload")
            + delta("repro_service_rejected_draining"),
            "service.transport_ms": (wall_s - request_s) * 1e3,
            # Measured parts of the round trip: server request time and the
            # client's send; the rest (network, TCP stalls) is unattributed.
            "trace.coverage": (request_s + client_s) / wall_s,
            # No program function is wrapped on this workload.
            "trace.overhead": 0.0,
        })


WORKLOADS = {
    "search-cli": search_cli,
    "budget-grid": library,
    "serve-slo": library,
    "service-mix": service_mix,
}


# -- run record and result -------------------------------------------------------


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(Path("src").rglob("*.py")):
        h.update(str(path).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def record(args, run: Run, speed: HostSpeed) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host_cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "setup_samples_s": run.setup,
        "setup_samples_raw_s": run.setup_raw,
        "ops": latency_summary(run.plain.ok_seconds) if run.plain.ok_seconds else {"n": 0},
        "ops_raw": latency_summary(run.raw_seconds) if run.raw_seconds else {"n": 0},
        "speed_kernel": (latency_summary(speed.kernel_seconds)
                           | {"reference_ms": CAL_REFERENCE_S * 1e3}),
        "traced_ops": (latency_summary(run.traced.ok_seconds)
                       if run.traced.ok_seconds else {"n": 0}),
        "failures": (run.plain.failures + run.traced.failures)[:20],
        "trace_missing": run.missing,
        "properties": run.props,
    }


def result_line(run: Run, trace: bool) -> dict:
    """The final JSON object; every failed op counts, traced or not."""
    attempted = run.plain.attempted + run.traced.attempted
    failed = run.plain.failed + run.traced.failed
    if trace:
        metrics = {name: {"value": float(run.per_layer[name]), "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        values = run.plain.end_to_end(run.setup, run.rss_kb)
        metrics = {name: {"value": float(values[name]), "unit": unit}
                   for name, unit in END_TO_END}
    return {"correct": failed == 0 and attempted > 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not Path("src/repro/__init__.py").is_file():
        sys.stderr.write("perfbench: run from a checkout root (src/repro not found)\n")
        return 2
    out = Path(".perfbench_out")
    out.mkdir(exist_ok=True)
    try:
        with HostSpeed() as speed:
            run = WORKLOADS[args.workload](args, _env(), out, speed)
    except HarnessError as err:
        sys.stderr.write(f"perfbench: {err}\n")
        return 2

    result = result_line(run, bool(args.trace))
    metrics = result["metrics"]
    rec = record(args, run, speed)
    (out / f"record-{args.workload}-{args.seed}-{args.trace}.json").write_text(
        json.dumps({"record": rec, "metrics": metrics, "op_seconds": run.plain.ok_seconds,
                    "traced_op_seconds": run.traced.ok_seconds}, indent=1))
    sys.stdout.write("record " + json.dumps(rec) + "\n")
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
