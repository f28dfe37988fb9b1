"""Summary math, the op loop and child-process measurement for the harness."""

from __future__ import annotations

import math
import mmap
import os
import statistics
import subprocess
import sys
import threading
import time

# Percentiles considered for the reported tail, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 90.0)
# A tail percentile is reported only with at least this many samples above it.
TAIL_MIN_BEYOND = 10


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (numpy's default method)."""
    if not values:
        raise ValueError("percentile of no samples")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int) -> float | None:
    """Highest percentile with at least ten of ``n`` samples beyond it."""
    for q in TAIL_PERCENTILES:
        if round(n * (100.0 - q) / 100.0, 9) >= TAIL_MIN_BEYOND:
            return q
    return None


def latency_summary(seconds: list[float]) -> dict:
    """Median and reportable tail of op latencies, in milliseconds."""
    ms = [s * 1e3 for s in seconds]
    out = {"n": len(ms), "p50_ms": statistics.median(ms)}
    q = tail_percentile(len(ms))
    if q is not None:
        out[f"p{q:g}_ms"] = percentile(ms, q)
    return out


def hodges_lehmann(values: list[float]) -> float:
    """Median of the means of all pairs of samples (each with itself too).

    Like the median it ignores a few stray samples, but where the samples
    fall into two modes it moves smoothly with their shares instead of
    jumping to whichever mode holds the majority.
    """
    if not values:
        raise ValueError("hodges_lehmann of no samples")
    return statistics.median((a + b) / 2 for i, a in enumerate(values) for b in values[i:])


def ops_per_second(seconds: list[float]) -> float:
    """Completed ops over the summed time of those ops.

    Unlike counting ops that finish inside a fixed window, this has no
    quantization: one slow op moves it by its own duration, not by a
    whole op.
    """
    total = sum(seconds)
    if total <= 0:
        raise ValueError("ops_per_second needs positive op times")
    return len(seconds) / total


# -- host speed --------------------------------------------------------------

# The shared host's speed drifts by up to ~30% over tens of seconds, and a
# whole run drifts with it, which no number of samples within a run removes.
# So every timed set-up and op is bracketed by a fixed calibration kernel,
# run while the program is idle, and its time is scaled to a host on which
# the kernel takes CAL_REFERENCE_S:
# ``seconds * CAL_REFERENCE_S / mean(kernel before, kernel after)``.
CAL_REFERENCE_S = 0.060
# Pages the kernel maps and touches: fresh anonymous memory, as process
# start, import and fork fault in.  Over the same ops this tracked the
# host's drift better than a pure interpreter loop.
CAL_BYTES = 64 << 20
CAL_REPEATS = 2
# A kernel run older than this is repeated before the next timed section.
CAL_MAX_AGE_S = 0.5


def _calibration_kernel() -> None:
    s = 0
    for i in range(100_000):  # interpreter-bound, allocates no containers
        s += i * i % 7
    with mmap.mmap(-1, CAL_BYTES) as m:
        for off in range(0, CAL_BYTES, mmap.PAGESIZE):
            m[off] = 1


def calibrate() -> float:
    """Seconds the calibration kernel takes now (fastest of a few)."""
    best = math.inf
    for _ in range(CAL_REPEATS):
        t0 = time.perf_counter()
        _calibration_kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` at reference speed, given the kernel's time around it."""
    return seconds * CAL_REFERENCE_S / ((before + after) / 2.0)


class HostSpeed:
    """Scales durations to the reference host speed.

    The kernel runs in a helper process (``python stats.py``), so its
    64 MiB never count towards the peak RSS of the harness, which Linux
    carries into a child spawned from it, or of the program.  Call
    :meth:`start` right before a timed section (it reruns the kernel if
    the last run is older than ``CAL_MAX_AGE_S``) and :meth:`factor` or
    :meth:`scale` right after it.  Use as a context manager; the helper is
    stopped and waited for on exit.
    """

    def __init__(self) -> None:
        self.proc = subprocess.Popen([sys.executable, os.path.abspath(__file__)],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.kernel_seconds: list[float] = []
        try:
            self.last = self._kernel()
        except BaseException:
            self.__exit__()
            raise

    def _kernel(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        seconds = float(self.proc.stdout.readline())
        self.kernel_seconds.append(seconds)
        self.last_at = time.perf_counter()
        return seconds

    def start(self) -> None:
        if time.perf_counter() - self.last_at > CAL_MAX_AGE_S:
            self.last = self._kernel()

    def factor(self) -> float:
        """Reference over measured speed since the last kernel run."""
        before, self.last = self.last, self._kernel()
        return scaled(1.0, before, self.last)

    def scale(self, seconds: float) -> float:
        return seconds * self.factor()

    def __enter__(self) -> "HostSpeed":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()


class OpLog:
    """Attempted ops, their durations, and which ones failed their check."""

    def __init__(self) -> None:
        self.ok_seconds: list[float] = []
        self.failed_seconds: list[float] = []
        self.failures: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.ok_seconds) + len(self.failures)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def record(self, seconds: float, error: str | None) -> None:
        if error is None:
            self.ok_seconds.append(seconds)
        else:
            self.failed_seconds.append(seconds)
            self.failures.append(error)

    def extend(self, other: "OpLog") -> None:
        self.ok_seconds += other.ok_seconds
        self.failed_seconds += other.failed_seconds
        self.failures += other.failures

    def to_dict(self) -> dict:
        return {"ok": self.ok_seconds,
                "failed": [list(x) for x in zip(self.failed_seconds, self.failures)]}

    @classmethod
    def from_dict(cls, data: dict) -> "OpLog":
        log = cls()
        log.ok_seconds = list(data["ok"])
        for seconds, error in data["failed"]:
            log.record(seconds, error)
        return log

    def end_to_end(self, setup_seconds: list[float], peak_rss_kb: int) -> dict:
        """The four end-to-end metrics.

        Latency and throughput count completed ops only; if every op
        failed (the run is then incorrect anyway) they fall back to all.
        """
        times = self.ok_seconds or self.failed_seconds
        return {
            "setup_s": hodges_lehmann(setup_seconds),
            "op_p50_ms": latency_summary(times)["p50_ms"],
            "ops_per_s": ops_per_second(times),
            "peak_rss_mb": peak_rss_kb / 1024.0,
        }


def current_rss_kb() -> int:
    """This process's resident set size now (Linux ``/proc``)."""
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") // 1024


class Child:
    """A program process whose peak RSS is read when it is reaped.

    ``os.wait4`` reports the child's peak RSS or, if larger, that of any
    descendant it reaped (a pool worker).  Linux also carries the
    harness's RSS at spawn time across ``exec`` into that figure, so the
    harness stays small (it imports no program code before spawning) and
    :meth:`reap` refuses a figure that the harness's own RSS could explain
    (unless ``measure_rss`` is false: a set-up probe, whose RSS no metric
    uses).  ``timeout`` kills the child if it has not exited by then.
    """

    def __init__(self, argv: list[str], *, env: dict, timeout: float,
                 stdin=None, stdout=subprocess.PIPE, stderr=None, text: bool = True,
                 measure_rss: bool = True):
        self.harness_rss_kb = current_rss_kb() if measure_rss else 0
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(argv, env=env, stdin=stdin, stdout=stdout,
                                     stderr=stderr, text=text)
        self._killer = threading.Timer(timeout, self._kill)
        self._killer.daemon = True
        self._killer.start()
        self.timed_out = False
        self.returncode: int | None = None
        self.maxrss_kb = 0

    def _kill(self) -> None:
        self.timed_out = True
        self.proc.kill()

    def reap(self) -> int:
        """Wait for exit; sets ``returncode`` and ``maxrss_kb``."""
        if self.returncode is None:
            _pid, status, usage = os.wait4(self.proc.pid, 0)
            self._killer.cancel()
            self.returncode = os.waitstatus_to_exitcode(status)
            self.proc.returncode = self.returncode
            self.maxrss_kb = int(usage.ru_maxrss)
            for stream in (self.proc.stdin, self.proc.stdout, self.proc.stderr):
                if stream is not None:
                    stream.close()
            if self.maxrss_kb <= self.harness_rss_kb:
                raise RuntimeError(
                    f"child peak RSS {self.maxrss_kb} kB is within the harness's "
                    f"{self.harness_rss_kb} kB at spawn; it cannot be attributed")
        return self.returncode

    def terminate(self) -> int:
        if self.returncode is None:
            self.proc.terminate()
        return self.reap()


def run_passes(pass_ops: list, seconds: float, do_op, *, paired: bool = False,
               between=None, min_passes: int = 1) -> tuple[OpLog, OpLog]:
    """Run complete passes over ``pass_ops`` until ``seconds`` have passed.

    ``do_op(op, traced) -> (seconds, error or None)``.  The first
    ``min_passes`` passes always run and another starts while less than
    ``seconds`` have elapsed, so every run covers whole passes and the last
    may overrun.
    ``paired`` runs each op untraced and traced, alternating which goes
    first so cache warming favours neither.  ``between()``, if given, is
    called after each op (or pair); its time does not count against
    ``seconds``.  Returns the untraced and traced logs.
    """
    plain, traced = OpLog(), OpLog()
    start = time.perf_counter()
    paused = 0.0
    n = passes = 0
    while True:
        for op in pass_ops:
            order = ((False, True) if n % 2 == 0 else (True, False)) if paired else (False,)
            for flag in order:
                dt, error = do_op(op, flag)
                (traced if flag else plain).record(dt, error)
            n += 1
            if between is not None:
                t0 = time.perf_counter()
                between()
                paused += time.perf_counter() - t0
        passes += 1
        if passes >= min_passes and time.perf_counter() - start - paused >= seconds:
            return plain, traced


if __name__ == "__main__":
    # The calibration helper: one kernel time per line read on stdin.
    for _line in sys.stdin:
        sys.stdout.write(f"{calibrate()!r}\n")
        sys.stdout.flush()
