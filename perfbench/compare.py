"""Summarise one result set, or compare two.

    python3 perfbench/compare.py RESULTS.jsonl
    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

A result set is the JSON-lines file ``run.py --out`` appends to.  One set:
median, quartiles and spread (quartile distance over median) of every
(workload, metric), checked against the metric's bound from BENCHMARK.json,
plus ops_failed_ratio with and without the edge slice.  Two sets: a verdict
per (workload, metric), runs paired by seed (or in run order when the
sets share no seed):

- better: the new side wins at least 9 in 10 pairs (ties count for neither)
  and the medians differ by more than the base's quartile distance;
- worse: the new median is worse than the base median by more than the bound;
- unresolved: neither, and either side spreads wider than the bound, unless
  every new run beats every base run (then better);
- unchanged: neither, with both spreads within the bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def metric_specs() -> dict:
    with open(BENCHMARK, encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}


def series(records: list[dict]) -> dict:
    """(workload, trace, metric) -> {seed: value}."""
    out: dict = {}
    for rec in records:
        for name, m in rec["result"]["metrics"].items():
            out.setdefault((rec["workload"], rec["trace"], name), {})[rec["seed"]] = m["value"]
    return out


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def summary(records: list[dict]) -> None:
    specs = metric_specs()
    print(f"{'workload':16} {'metric':38} {'unit':>5} {'n':>3} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>7} {'bound':>6}  status")
    for (workload, trace, name), by_seed in sorted(series(records).items()):
        values = list(by_seed.values())
        q1, med, q3 = quartiles(values)
        spec = specs.get(name, {})
        bound = spec.get("bound")
        s = spread(values)
        if bound is None:
            status = ""
        elif name == "setup_s":
            status = "exempt from spread"
        elif s < bound / 3:
            status = "steady"
        elif s <= bound:
            status = "within bound"
        else:
            status = "TOO WIDE"
        print(f"{workload:16} {name:38} {spec.get('unit', ''):>5} {len(values):3d} {med:12.6g} "
              f"{q1:12.6g} {q3:12.6g} {s:7.3f} {bound if bound is not None else '':>6}  {status}")
    for workload in sorted({r["workload"] for r in records}):
        recs = [r for r in records if r["workload"] == workload]
        att = sum(r["result"]["attempted"] for r in recs)
        fail = sum(r["result"]["failed"] for r in recs)
        e_att = sum(len(r.get("edge", [])) for r in recs)
        e_fail = sum(1 for r in recs for e in r.get("edge", []) if not e["ok"])
        line = f"{workload:16} ops_failed_ratio {fail}/{att} = {fail / max(att, 1):.4g}"
        if e_att:
            line += (f"; with edge slice {fail + e_fail}/{att + e_att} = "
                     f"{(fail + e_fail) / (att + e_att):.4g}")
        print(line)


def verdict(base: dict, new: dict, better: str, bound: float | None) -> tuple[str, float, float]:
    """Verdict, share of pairs won by the new side, and relative median change."""
    sign = 1.0 if better == "higher" else -1.0
    b, n = list(base.values()), list(new.values())
    bq1, bmed, bq3 = quartiles(b)
    nmed = statistics.median(n)
    change = (nmed - bmed) / abs(bmed) if bmed else 0.0
    seeds = [s for s in base if s in new]
    pairs = [(base[s], new[s]) for s in seeds] if seeds else list(zip(b, n))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    won = wins / len(pairs) if pairs else 0.0
    gain = sign * (nmed - bmed)
    if pairs and won >= 0.9 and gain > bq3 - bq1:
        return "better", won, change
    if bound is not None and -sign * change > bound:
        return "worse", won, change
    if (min(n) > max(b)) if sign > 0 else (max(n) < min(b)):
        return "better", won, change
    if bound is None or max(spread(b), spread(n)) > bound:
        return "unresolved", won, change
    return "unchanged", won, change


def compare(base_records: list[dict], new_records: list[dict]) -> None:
    specs = metric_specs()
    base, new = series(base_records), series(new_records)
    print(f"{'workload':16} {'metric':38} {'base median [q1, q3]':>34} "
          f"{'new median [q1, q3]':>34} {'change':>8} {'won':>5}  verdict")
    for key in sorted(set(base) & set(new)):
        workload, trace, name = key
        spec = specs.get(name, {"better": "lower"})
        v, won, change = verdict(base[key], new[key], spec["better"], spec.get("bound"))
        bq1, bmed, bq3 = quartiles(list(base[key].values()))
        nq1, nmed, nq3 = quartiles(list(new[key].values()))
        print(f"{workload:16} {name:38} {bmed:12.6g} [{bq1:.5g}, {bq3:.5g}]".ljust(90)
              + f"{nmed:12.6g} [{nq1:.5g}, {nq3:.5g}]".ljust(36)
              + f"{change:+8.1%} {won:5.0%}  {v}")


def main(argv) -> int:
    if len(argv) == 1:
        summary(load(argv[0]))
    elif len(argv) == 2:
        compare(load(argv[0]), load(argv[1]))
    else:
        print(__doc__, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
