"""cli_closed_form: the closed-form subcommands, cold and in-process.

Every argv of the seeded regular mix runs once as a cold subprocess
(``python -m mdpcal.cli`` on the working tree) and once in-process through
``mdpcal.cli.main``.  Latency percentiles cover the cold calls, throughput
the in-process calls.  A fixed edge slice of known defects runs afterwards;
its outcomes are reported but not counted in the run's ``failed``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import subprocess
import sys

import harness
from harness import check

KINDS = ("calibrate-ks", "calibrate-sign", "calibrate-chi2", "calibrate-contingency",
         "calibrate-fisher", "risk-curve", "regimes", "tables", "sanov", "truncation",
         "radius", "slopes", "triangulate", "plugin")

# NaN kappa, an n past float range, a tiny kappa and a ~1e7-df contingency
# table.  Expected outcome: exit 0 with finite output, or exit 2.
EDGE_SLICE = (
    ("calibrate", "ks", "--kappa", "nan", "--n", "1000"),
    ("calibrate", "sign", "--lambda", "nan", "--n", "1000"),
    ("truncation", "--kappa", "nan", "--n", "1000"),
    ("calibrate", "ks", "--kappa", "2", "--n", str(10 ** 400)),
    ("calibrate", "ks", "--kappa", "0.001", "--n", "1000"),
    ("calibrate", "contingency", "--r", "3200", "--c", "3200", "--n", "100000"),
)

# Share of the run spent on cold calls; the rest times in-process rounds.
COLD_SHARE = 0.6


def _g(x: float) -> str:
    return f"{x:.4g}"


def _n(rng: random.Random) -> int:
    # Sample sizes of the paper's tables: 1e2 .. 1e6, log-uniform.
    return int(10 ** rng.uniform(2.0, 6.0))


def _sanov_input(rng: random.Random, path) -> None:
    k = rng.randint(3, 8)
    support = sorted(rng.uniform(-2.0, 2.0) for _ in range(k))
    weights = [rng.randint(1, 9) for _ in range(k)]
    total = sum(weights)
    probs = [w / total for w in weights]
    mean = sum(p * s for p, s in zip(probs, support))
    shift = mean + 0.5 * (support[-1] - mean)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"support": support, "probs": probs,
                   "phi": [s - shift for s in support]}, fh)


def make_argv(kind: str, rng: random.Random, workdir, serial: int) -> list[str]:
    """One argv of ``kind`` with parameters from the paper's table ranges."""
    n = str(_n(rng))
    kappa = _g(rng.uniform(0.5, 10.0))
    rho = rng.choice(("1", "0.25"))
    if kind == "calibrate-ks":
        return ["calibrate", "ks", "--kappa", kappa, "--n", n]
    if kind == "calibrate-sign":
        return ["calibrate", "sign", "--lambda", kappa, "--n", n]
    if kind == "calibrate-chi2":
        return ["calibrate", "chi2", "--k", str(rng.randint(2, 10)), "--n", n]
    if kind == "calibrate-contingency":
        return ["calibrate", "contingency", "--r", str(rng.randint(2, 5)),
                "--c", str(rng.randint(2, 5)), "--n", n]
    if kind == "calibrate-fisher":
        return ["calibrate", "fisher", "--lambda", _g(rng.uniform(0.0, 5.0)),
                "--d", str(rng.randint(1, 5)), "--n", n]
    if kind == "risk-curve":
        return ["risk-curve", "--rho", rho, "--kappa", kappa, "--n", n, "--json"]
    if kind == "regimes":
        ns = sorted(rng.sample(range(100, 1_000_001), 5))
        return ["regimes", "--rho", rho, "--kappa", kappa, "--alpha", "0.05",
                "--n-list", ",".join(map(str, ns)), "--json"]
    if kind == "tables":
        return ["tables", "--out-dir", str(workdir / "tables")]
    if kind == "sanov":
        path = workdir / f"sanov-{serial}.json"
        _sanov_input(rng, path)
        return ["sanov", "--input", str(path)]
    if kind == "truncation":
        return ["truncation", "--kappa", kappa, "--n", n]
    if kind == "radius":
        decay = rng.choice(("--poly", "--exp"))
        return ["radius", "--rho", rho, decay, _g(rng.uniform(0.1, 5.0)), "--n", n]
    if kind == "slopes":
        thetas = sorted(round(rng.uniform(0.01, 3.0), 4) for _ in range(5))
        return ["slopes", "--theta-list", ",".join(map(str, thetas))]
    if kind == "triangulate":
        k = rng.randint(2, 10)
        weights = [rng.randint(1, 20) for _ in range(k)]
        total = sum(weights)
        counts = [rng.randint(0, 50) for _ in range(k)]
        counts[0] += 1
        return ["triangulate", "--counts", ",".join(map(str, counts)),
                "--theta0", ",".join(repr(w / total) for w in weights)]
    if kind == "plugin":
        return ["plugin", "--kappa-hat", kappa, "--rho", rho, "--n", n]
    raise ValueError(kind)


def rounds(rng: random.Random, workdir):
    """Endless rounds, each one argv of every kind in seeded order."""
    serial = 0
    while True:
        kinds = list(KINDS)
        rng.shuffle(kinds)
        batch = []
        for kind in kinds:
            serial += 1
            batch.append((kind, make_argv(kind, rng, workdir, serial)))
        yield batch


def cold(argv, timeout: float = harness.OP_TIMEOUT_S):
    """Run one cold ``python -m mdpcal.cli`` call; return (exit code, stdout)."""
    proc = subprocess.run([sys.executable, "-m", "mdpcal.cli", *argv],
                          env=harness.child_env(), cwd=harness.ROOT,
                          capture_output=True, text=True, timeout=timeout)
    return proc.returncode, proc.stdout


def inproc(main, argv):
    """Run ``main(argv)`` in this process; return (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


def _close(printed: float, exact: float) -> bool:
    # Equal at the CLI's default 6 significant digits.
    if exact == 0.0:
        return printed == 0.0
    half_unit = 0.5 * 10.0 ** (math.floor(math.log10(abs(exact))) - 5)
    return abs(printed - exact) <= half_unit * (1.0 + 1e-9)


def _arg(argv, flag: str) -> float:
    return float(argv[argv.index(flag) + 1])


def verify(argv, result) -> None:
    """Exit 0, parseable output, and closed forms at the printed precision."""
    code, out = result
    check(code == 0, f"exit code {code}")
    check(out.strip() != "", "empty output")
    cmd = argv[0]
    if cmd in ("tables", "risk-curve", "regimes", "slopes", "sanov", "triangulate"):
        if cmd != "tables":
            json.loads(out)
        return
    payload = json.loads(out)
    n = _arg(argv, "--n")
    log_n = math.log(n)
    if cmd == "calibrate":
        setting = argv[1]
        if setting == "ks":
            rho, kappa = 1.0, _arg(argv, "--kappa")
        elif setting == "sign":
            rho, kappa = 0.25, _arg(argv, "--lambda")
        elif setting == "chi2":
            rho, kappa = 0.25, _arg(argv, "--k") - 1
        elif setting == "contingency":
            rho, kappa = 0.25, (_arg(argv, "--r") - 1) * (_arg(argv, "--c") - 1)
        else:
            rho, kappa = 0.25, _arg(argv, "--lambda") + _arg(argv, "--d")
        a_star = kappa / (4.0 * rho)
        check(_close(payload["a_star"], a_star), f"a_star {payload['a_star']} != {a_star}")
        t_star = math.sqrt(a_star * log_n)
        check(_close(payload["t_star"], t_star), f"t_star {payload['t_star']} != {t_star}")
    elif cmd == "plugin":
        exact = math.sqrt(_arg(argv, "--kappa-hat") / (4.0 * _arg(argv, "--rho")) * log_n)
        check(_close(payload["threshold"], exact), "plug-in threshold")
    elif cmd == "truncation":
        check(_close(payload["level"], 0.5 * _arg(argv, "--kappa") * log_n / n), "level")
    elif cmd == "radius":
        rho = _arg(argv, "--rho")
        if "--poly" in argv:
            exact = math.sqrt(_arg(argv, "--poly") * log_n / (2.0 * rho)) / math.sqrt(n)
        else:
            exact = math.sqrt(_arg(argv, "--exp") / (2.0 * rho))
        check(_close(payload["radius"], exact), "radius")


def _finite_numbers(node) -> bool:
    if isinstance(node, dict):
        return all(_finite_numbers(v) for v in node.values())
    if isinstance(node, list):
        return all(_finite_numbers(v) for v in node)
    if isinstance(node, str):
        return node not in ("nan", "inf", "-inf")
    return not isinstance(node, float) or math.isfinite(node)


def _edge_ok(result) -> bool:
    code, out = result
    if code == 2:
        return True
    return code == 0 and _finite_numbers(json.loads(out))


def run_edge_slice(main) -> list[dict]:
    """Each edge argv cold and in-process; ok = finite output or exit 2."""
    outcomes = []
    for argv in EDGE_SLICE:
        for mode in ("cold", "inproc"):
            try:
                if mode == "cold":
                    result = cold(argv, timeout=harness.EDGE_TIMEOUT_S)
                else:
                    with harness.deadline(harness.EDGE_TIMEOUT_S):
                        result = inproc(main, argv)
                ok = _edge_ok(result)
                detail = f"exit {result[0]}" + ("" if ok else " with non-finite output")
            except (subprocess.TimeoutExpired, harness.OpTimeout):
                ok, detail = False, f"timeout after {harness.EDGE_TIMEOUT_S} s"
            except Exception as exc:  # any escape is the defect being probed
                ok, detail = False, f"{type(exc).__name__}: {exc}"
            outcomes.append({"argv": " ".join(a[:24] for a in argv), "mode": mode,
                             "ok": ok, "detail": detail})
    return outcomes


def run(seed: int, seconds: float, tracer) -> dict:
    from mdpcal.cli import main

    rng = random.Random(seed)
    workdir = harness.OUT / f"cli-{seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    gen = rounds(rng, workdir)

    def call(kind, argv, how):
        def op():
            with tracer.span(f"cli.{how}.{kind}"):
                return cold(argv) if how == "cold" else inproc(main, argv)
        return op

    def verify_cold(argv, result):
        verify(argv, result)
        with harness.deadline(harness.OP_TIMEOUT_S):
            same = inproc(main, argv) == result
        check(same, "cold and in-process outputs differ")

    # Cold phase: latency of the call a shell user makes.
    cold_ledger = harness.Ledger()
    for batch in harness.run_until(COLD_SHARE * seconds, gen):
        for kind, argv in batch:
            with tracer.op("op.cli_cold"):
                cold_ledger.run(kind, 1, call(kind, argv, "cold"),
                                lambda r: verify_cold(argv, r))

    # In-process phase: whole rounds through main(argv), for throughput.
    ledger = harness.Ledger()
    for batch in harness.run_until((1.0 - COLD_SHARE) * seconds, gen):
        for kind, argv in batch:
            with tracer.op("op.cli_inproc"):
                ledger.run(kind, 1, call(kind, argv, "main"), lambda r: verify(argv, r))

    metrics = cold_ledger.latency_metrics()
    metrics["throughput_per_s"] = (ledger.rate(), "1/s")
    return {
        "metrics": metrics,
        "attempted": cold_ledger.attempted + ledger.attempted,
        "failures": cold_ledger.failures + ledger.failures,
        "peak_rss_mb": harness.peak_rss_mb(children=True),
        "detail": {"cold_calls": len(cold_ledger.latencies()),
                   "inproc_calls": len(ledger.latencies()),
                   "inproc_p50_ms": harness.percentile(ledger.latencies(), 0.5) * 1e3},
        "edge": [] if tracer.enabled else run_edge_slice(main),
    }
