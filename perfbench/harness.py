"""Shared plumbing of the benchmark: paths, child environment, timeouts,
spans, percentiles and the per-run bookkeeping of operations."""

from __future__ import annotations

import contextlib
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

# nproc is 2 here: the benchmark process plus one child at a time, and no
# extra BLAS/OpenMP threads in either.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")

# A regular operation takes well under a second; ten seconds means a hang.
OP_TIMEOUT_S = 10.0
# The edge slice holds known hangs, so it gets a short leash.
EDGE_TIMEOUT_S = 2.0
SETUP_REPEATS = 7


def child_env() -> dict:
    """Environment of every child: the working tree's src/ and one thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("MDPCAL_SEED", None)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


class OpTimeout(Exception):
    """An in-process operation ran past its deadline."""


class OracleMismatch(Exception):
    """An output disagreed with the benchmark's independent recomputation."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise OracleMismatch(message)


@contextlib.contextmanager
def deadline(seconds: float):
    """Raise OpTimeout in the main thread once ``seconds`` have passed.

    The alarm interrupts pure-Python loops; a single numpy call finishes
    first, which bounds it anyway.
    """
    def _expire(signum, frame):
        raise OpTimeout(f"exceeded {seconds} s")

    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


class Tracer:
    """In-memory spans: name, start, end, parent index and operation id."""

    enabled = True

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._op = 0

    @contextlib.contextmanager
    def span(self, name: str, calls: int = 1):
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None,
               "op": self._op, "calls": calls}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def op(self, name: str):
        """Root span of one workload operation; its children share its id."""
        self._op += 1
        return self.span(name)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec["parent"] is not None:
                child[rec["parent"]] += rec["end"] - rec["start"]
        return [rec["end"] - rec["start"] - c for rec, c in zip(self.spans, child)]

    def per_call(self, name: str) -> list[float]:
        """Self time per call, in seconds, of every span named ``name``."""
        selfs = self.self_times()
        return [s / rec["calls"] for rec, s in zip(self.spans, selfs) if rec["name"] == name]

    def count(self, name: str) -> int:
        return sum(1 for rec in self.spans if rec["name"] == name)


class NullTracer:
    """Tracing off: the same call sites, no records."""

    enabled = False
    _null = contextlib.nullcontext()

    def span(self, name: str, calls: int = 1):
        return self._null

    def op(self, name: str):
        return self._null


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile, q in [0, 1]."""
    s = sorted(values)
    pos = (len(s) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


class Ledger:
    """Outcome of every operation of one run: latencies, work units, failures."""

    def __init__(self):
        self.samples: list[tuple[str, float, int]] = []  # kind, seconds, units
        self.attempted = 0
        self.failures: list[str] = []

    def fail(self, what: str, exc: BaseException) -> None:
        self.attempted += 1
        self.failures.append(f"{what}: {type(exc).__name__}: {exc}")

    def run(self, what: str, units: int, op, verify, timeout: float = OP_TIMEOUT_S):
        """Time ``op()`` under a deadline, then ``verify(result)`` untimed.

        Any exception, timeout or oracle mismatch counts as one failure and
        adds no latency sample.
        """
        try:
            with deadline(timeout):
                start = time.perf_counter()
                result = op()
                elapsed = time.perf_counter() - start
            verify(result)
        except Exception as exc:  # a failed operation must not end the run
            self.fail(what, exc)
            return None
        self.attempted += 1
        self.samples.append((what, elapsed, units))
        return result

    def untimed(self, what: str, op, timeout: float = OP_TIMEOUT_S) -> None:
        """An extra checked operation outside the timed loop, e.g. a re-run."""
        try:
            with deadline(timeout):
                op()
        except Exception as exc:
            self.fail(what, exc)
            return
        self.attempted += 1

    def latencies(self, kind: str | None = None) -> list[float]:
        return [s for k, s, _ in self.samples if kind in (None, k)]

    def kinds(self) -> list[str]:
        return list(dict.fromkeys(k for k, _, _ in self.samples))

    def rate(self, *kinds: str) -> float:
        """Work units per second over the named kinds (default: all), each
        operation timed at the median latency of its kind.

        Other tenants of the machine slow it down in bursts of seconds;
        per-kind medians keep those out of the figure, which without noise
        is plain units over busy time.
        """
        units = busy = 0.0
        for kind in kinds or self.kinds():
            lat = self.latencies(kind)
            units += sum(u for k, _, u in self.samples if k == kind)
            busy += len(lat) * statistics.median(lat)
        return units / busy

    def latency_metrics(self) -> dict:
        lat = self.latencies()
        if not lat:
            raise RuntimeError("no operation succeeded")
        return {"latency_p50_ms": (percentile(lat, 0.5) * 1e3, "ms"),
                "latency_p90_ms": (percentile(lat, 0.9) * 1e3, "ms"),
                "throughput_per_s": (self.rate(), "1/s")}


def run_until(seconds: float, rounds):
    """Yield whole rounds from ``rounds`` until ``seconds`` have passed.

    Stopping only between rounds keeps each run's operation mix fixed, so
    percentiles over a mix of operation sizes do not drift with run length.
    """
    stop = time.perf_counter() + seconds
    for one in rounds:
        yield one
        if time.perf_counter() >= stop:
            return


def measure_setup(workload: str, repeats: int = SETUP_REPEATS) -> float:
    """Median seconds from spawning a fresh interpreter to its ``ready`` line."""
    cmd = [sys.executable, str(BENCH_DIR / "setup_child.py"), workload]
    env = child_env()
    # One untimed start fills the bytecode cache of a fresh checkout.
    subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, timeout=120, check=True)
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        with subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - start
                proc.wait(timeout=OP_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe for {workload} failed")
        samples.append(elapsed)
    return statistics.median(samples)


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set of this process, or of its largest waited-for child."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0
