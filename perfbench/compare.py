"""Summarise one result set, or compare two, per workload and end-to-end metric.

    python3 perfbench/compare.py perfbench/baseline/trace0.jsonl
    python3 perfbench/compare.py parent.jsonl change.jsonl

A result set is a JSON-lines file written by ``sweep.py``. One set: each
metric's median, quartiles and spread (quartile distance over median)
against its bound in ``BENCHMARK.json``, and, from traced runs, each
layer's share of the traced wall time. Two sets: runs pair up by
(workload, seed), and each row gets a verdict:

- ``worse``: the change's median is worse than the parent's by more than the
  bound, and either the parent's spread is within the bound or every run of
  the change is worse than every run of the parent;
- ``unresolved``: otherwise, if the parent's spread is wider than the bound
  and not every run of the change beats every run of the parent;
- ``better``: the change wins at least nine tenths of the pairs (ties count
  for neither), there are at least ten pairs, and the medians differ by more
  than the parent's quartile distance;
- ``within bound``: otherwise.

The exit status is 1 if any row is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str, trace: int = 0) -> dict[tuple[str, int], dict]:
    runs = {}
    for line in Path(path).read_text().splitlines():
        record = json.loads(line)
        if record["trace"] == trace:
            runs[record["workload"], record["seed"]] = record
    return runs


def print_layer_shares(path: str, workloads: list[str]) -> None:
    traced = load(path, trace=1)
    for workload in workloads:
        runs = [r["metrics"] for (w, _), r in sorted(traced.items()) if w == workload]
        if not runs:
            continue
        shares = {
            name[: -len("self_s")].rstrip("._"): statistics.fmean(
                m[name]["value"] / m["trace.wall_s"]["value"] for m in runs
            )
            for name in runs[0]
            if name.endswith("self_s")
        }
        top = sorted(shares.items(), key=lambda kv: -kv[1])
        print(f"{workload} traced self time ({len(runs)} runs): " + ", ".join(f"{n} {s:.1%}" for n, s in top if s >= 0.001))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return q1, q2, q3


def verdict(old: list[float], new: list[float], better: str, bound: float) -> tuple[str, str]:
    sign = 1 if better == "higher" else -1  # positive gain means better
    o1, om, o3 = quartiles(old)
    _, nm, _ = quartiles(new)
    wins = sum(sign * (n - o) > 0 for o, n in zip(old, new))
    worsening = -sign * (nm - om) / om
    pairs = f"{wins}/{len(old)} wins"
    wide = (o3 - o1) / om > bound
    # A wide parent spread hides a regression only while the two sides overlap.
    if worsening > bound and (not wide or all(sign * (n - o) < 0 for o in old for n in new)):
        return "worse", pairs
    if wide and not all(sign * (n - o) > 0 for o in old for n in new):
        return "unresolved", pairs
    if len(old) >= 10 and wins >= 0.9 * len(old) and sign * (nm - om) > o3 - o1:
        return "better", pairs
    return "within bound", pairs


def fmt(values: list[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:.6g} [{q1:.6g}, {q3:.6g}]"


def main(argv: list[str]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    sets = [load(p) for p in argv]
    workloads = [w["name"] for w in spec["workloads"]]
    status = 0
    for workload in workloads:
        keys = [k for k in sets[-1] if k[0] == workload and all(k in s for s in sets)]
        if not keys:
            continue
        keys.sort()
        runs = [[s[k] for k in keys] for s in sets]
        failed = [sum(r["failed"] for r in side) for side in runs]
        print(f"{workload}: {len(keys)} seeds, failed operations {failed}")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            values = [[r["metrics"][name]["value"] for r in side] for side in runs]
            if len(sets) == 1:
                q1, q2, q3 = quartiles(values[0])
                spread = (q3 - q1) / q2
                flag = "ok" if spread <= bound / 3 else ("wide" if spread <= bound else "OVER BOUND")
                print(f"  {name:12} {fmt(values[0]):40} spread {spread:.4f} bound {bound} {flag}")
            else:
                v, pairs = verdict(values[0], values[1], m["better"], bound)
                status |= v == "worse"
                print(f"  {name:12} {fmt(values[0]):36} -> {fmt(values[1]):36} {pairs:10} {v}")
    if len(sets) == 1:
        print_layer_shares(argv[0], workloads)
    return status


if __name__ == "__main__":
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1:]))
