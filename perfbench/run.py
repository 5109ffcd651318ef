"""mdpcal benchmark.

One run of one workload:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``--out FILE`` also appends the full record of the run to a JSON-lines file.

Every workload, one or more seeds, with a summary table:

    python3 perfbench/run.py --all --seed 1 [--runs 10] [--out FILE]

See perfbench/README.md for the workloads, metrics and oracles.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

import harness

for _var in harness.THREAD_VARS:  # before numpy is imported
    os.environ[_var] = "1"

WORKLOADS = ("cli_closed_form", "mc_wide", "mc_long", "data_tests")


def _workload(name: str, seed: int, seconds: float, tracer) -> dict:
    if name == "cli_closed_form":
        import wl_cli
        return wl_cli.run(seed, seconds, tracer)
    if name in ("mc_wide", "mc_long"):
        import wl_mc
        return wl_mc.run(name, seed, seconds, tracer)
    import wl_data
    return wl_data.run(seed, seconds, tracer)


def accounting(name: str, plain: dict, layer: dict) -> dict:
    """Shares of an end-to-end figure that single layers account for."""
    value = {k: v for k, (v, _) in layer.items()}
    if name == "cli_closed_form":
        cold = plain["latency_p50_ms"][0] - value["cli.interpreter_ms"]
        return {"import_share_of_cold_call_past_interpreter": value["cli.import_ms"] / cold}
    if name == "mc_wide":
        substreams_ms = value["mc_engine.substream_us"] * value["mc_engine.substreams_per_call"] / 1e3
        return {"substream_share_of_sign_call":
                substreams_ms / value["mc_engine.mc_bayes_risk_sign_ms"]}
    return {}


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run; returns the record, whose ``result`` is the printed line."""
    sys.path.insert(0, str(harness.SRC))
    harness.OUT.mkdir(parents=True, exist_ok=True)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace)}

    if not trace:
        setup_s = harness.measure_setup(name)
        res = _workload(name, seed, seconds, harness.NullTracer())
        metrics = {"setup_s": (setup_s, "s"), **res["metrics"],
                   "peak_rss_mb": (res["peak_rss_mb"], "MB")}
    else:
        import layers
        # Untraced then traced halves on the same seeded inputs: the
        # difference of their end-to-end numbers is the tracing overhead.
        plain = _workload(name, seed, seconds / 2, harness.NullTracer())
        tracer = harness.Tracer()
        res = _workload(name, seed, seconds / 2, tracer)
        res["attempted"] += plain["attempted"]
        res["failures"] = plain["failures"] + res["failures"]
        record["overhead"] = {k: res["metrics"][k][0] - v for k, (v, _) in plain["metrics"].items()}
        record["module_self_ms"] = layers.module_self_times(tracer)
        metrics = layers.collect(tracer, name, seed)
        record["accounting"] = accounting(name, plain["metrics"], metrics)
        path = harness.OUT / f"trace-{name}-{seed}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": name, "seed": seed, "spans": tracer.spans}, fh)
        record["trace_file"] = str(path.relative_to(harness.ROOT))

    failed = len(res["failures"])
    record["result"] = {
        "correct": failed == 0,
        "attempted": res["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record["failures"] = res["failures"]
    record["detail"] = res["detail"]
    record["edge"] = res.get("edge", [])
    return record


def report(record: dict) -> None:
    """Human-readable lines; the JSON result line comes last."""
    name, result = record["workload"], record["result"]
    for line in record["failures"][:20]:
        print(f"FAILED {name}: {line}")
    print(f"{name} seed={record['seed']} detail: " +
          "  ".join(f"{k}={v:.6g}" for k, v in record["detail"].items()))
    if "overhead" in record:
        print(f"{name} tracing overhead (traced - untraced): " +
              "  ".join(f"{k}={v:+.4g}" for k, v in record["overhead"].items()))
        for k, v in record["accounting"].items():
            print(f"{name} {k}: {v:.3f}")
        print(f"{name} self time by module (ms, traced half): " +
              "  ".join(f"{k}={v:.1f}" for k, v in record["module_self_ms"].items()))
    edge = record["edge"]
    if edge:
        bad = [e for e in edge if not e["ok"]]
        print(f"{name} edge slice (reported, not in attempted/failed): "
              f"{len(bad)} of {len(edge)} calls failed")
        for e in bad:
            print(f"  edge FAILED [{e['mode']}] {e['argv']}: {e['detail']}")
    print(json.dumps(result))


def run_all(seed: int, runs: int, seconds: float, trace: int, out) -> int:
    """Each workload as its own process, seeds seed .. seed+runs-1."""
    import compare
    out = out or str(harness.OUT / f"all-{int(time.time())}.jsonl")
    for i in range(runs):
        order = WORKLOADS[i % len(WORKLOADS):] + WORKLOADS[:i % len(WORKLOADS)]
        for name in order:
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(seed + i),
                   "--seconds", str(seconds), "--trace", str(trace), "--out", out]
            proc = subprocess.run(cmd, cwd=harness.ROOT, capture_output=True, text=True,
                                  timeout=600)
            lines = proc.stdout.strip().splitlines()
            print(f"[{name} seed={seed + i}] exit {proc.returncode}: "
                  f"{lines[-1] if lines else proc.stderr.strip()[-500:]}", flush=True)
    print(f"records: {out}")
    compare.summary(compare.load(out))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1, help="seeds per workload with --all")
    parser.add_argument("--out", help="append the run records to this JSON-lines file")
    args = parser.parse_args(argv)

    if not (harness.SRC / "mdpcal" / "__init__.py").is_file():
        print(f"error: no mdpcal sources under {harness.SRC}", file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        with open(harness.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            seconds = json.load(fh)["run_seconds"]
    if args.all:
        return run_all(args.seed, args.runs, seconds, args.trace, args.out)
    if args.workload is None:
        parser.error("--workload or --all is required")

    record = run_one(args.workload, args.seed, seconds, bool(args.trace))
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    report(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
