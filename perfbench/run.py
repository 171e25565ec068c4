"""Run one benchmark workload against the program in ``src/`` and print its metrics.

    python3 perfbench/run.py --workload eigen --seed 1 --seconds 20 --trace 0

Closed loop, one client: every pass starts a fresh interpreter (so it pays the
cold module caches, as a ``prymsv`` command does), which runs the workload's
operations one after another; one pass runs at a time. Passes repeat until
``--seconds`` is used up. With ``--trace 0`` the last stdout line holds the
end-to-end metrics: medians over the workload's fixed number of timed
passes, of times divided by the box's slowdown while they were taken
(``calibrate.py``); later passes only check outputs. With ``--trace 1``
traced and untraced passes alternate and it holds the per-layer metrics
(means over traced passes, so that self times add up). The line before it is a stamp of
the run. Metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from calibrate import calibrate, slowdown  # noqa: E402
from inputs import WORKLOADS, make_inputs  # noqa: E402

# Set-up-only interpreter starts per run, on top of one per pass, so that
# set-up time is a median of several starts even when passes are long.
SETUP_STARTS = 5
# Untraced passes whose medians make the end-to-end metrics. The count is
# fixed, not whatever fits in --seconds, so that both sides of a comparison
# take the same number of draws. With the set-up starts, each count fills
# 11-13 s of a 20 s run on a calm 2-CPU box, and up to 19.5 s when other
# tenants slow it down 2.2x.
TIMED_PASSES = {"eigen": 3, "numtheory": 3, "atlas": 3, "flat": 7}
WORKER_TIMEOUT_S = 120


class WorkerError(RuntimeError):
    pass


def spawn(payload: dict, calibration: list[float]) -> tuple[float, dict | None]:
    """Start a worker, hand it ``payload``; return (set-up time, its result).
    Appends a calibration sample of this process, taken just before the start,
    to ``calibration``."""
    calibration.append(calibrate())
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        env=env,
        cwd=ROOT,
    )
    try:
        proc.stdin.write(json.dumps(payload) + "\n")
        proc.stdin.flush()
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return setup, json.loads(out) if payload["run"] else None


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def tail_percentile(n: int) -> int:
    """The highest of p99, p95, p90, p75 with at least ten of ``n`` operations beyond it, else p50."""
    return next((p for p in (99, 95, 90, 75) if n * (100 - p) / 100 >= 10), 50)


def stamp(workload: str, seed: int, seconds: int, trace: int, inputs: dict) -> dict:
    src = sorted((ROOT / "src" / "prymsv").glob("*.py"))
    digest = hashlib.sha256(b"".join(p.read_bytes() for p in src)).hexdigest()
    sha = None
    if (ROOT / ".git").exists():
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        sha = git.stdout.strip() or None
    sizes = {k: (len(v) if isinstance(v, (list, dict)) else v) for k, v in inputs.items()}
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "src_sha256": digest,
        "sizes": sizes,
    }


def run(workload: str, seed: int, seconds: int, trace: bool, layer_names: list[str]):
    inputs = make_inputs(workload, seed)
    base = {"workload": workload, "inputs": inputs}
    calibration: list[float] = []  # of this process, one per set-up time
    spawn({**base, "run": False}, [])  # warm-up: compiles bytecode, fills the file cache
    start = time.perf_counter()
    setups = [spawn({**base, "run": False}, calibration)[0] for _ in range(SETUP_STARTS)]
    timed = 2 if trace else TIMED_PASSES[workload]
    passes: list[dict] = []
    last = {False: 0.0, True: 0.0}  # duration of the last untraced / traced pass
    while True:
        tracing = trace and len(passes) % 2 == 1
        if len(passes) == timed:
            timed_s = time.perf_counter() - start
        if len(passes) >= timed and time.perf_counter() - start + last[tracing] > seconds:
            break
        t0 = time.perf_counter()
        setup, result = spawn(
            {**base, "run": True, "trace": tracing, "full_check": not passes}, calibration
        )
        last[tracing] = time.perf_counter() - t0
        setups.append(setup)
        result["traced"] = tracing
        passes.append(result)

    # The first pass checks every output in full; later passes must
    # reproduce its outputs exactly.
    reference = passes[0]["digests"]
    failed = 0
    for p in passes:
        mismatched = [
            i for i, (d, ref) in enumerate(zip(p["digests"], reference)) if d and d != ref
        ]
        p["failures"] += [f"{p['spans'][i][0]}: output differs from the first pass" for i in mismatched]
        failed += len(p["failures"])
    attempted = sum(len(p["spans"]) for p in passes)

    def durations(p: dict) -> list[float]:
        return [t1 - t0 for _, t0, t1, _ in p["spans"]]

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    ops = len(passes[0]["spans"])
    tail = tail_percentile(ops)
    if not trace:
        # Each operation's time is divided by the box's slowdown while it ran
        # (calibrate.py); the metrics are medians over the timed passes.
        plain = plain[:timed]
        calm = [[d / f for d, f in zip(durations(p), p["slowdown"])] for p in plain]
        calm_cpu = [[s[3] / f for s, f in zip(p["spans"], p["slowdown"])] for p in plain]
        latency = [statistics.median(op) for op in zip(*calm)]
        wall = statistics.median(map(sum, calm))
        n_setups = SETUP_STARTS + timed
        metrics = {
            "setup_s": statistics.median(setups[:n_setups]) / slowdown(calibration[:n_setups]),
            "wall_s": wall,
            "cpu_s": statistics.median(map(sum, calm_cpu)),
            "items_per_s": passes[0]["items"] / wall,
            "peak_rss_mb": statistics.median(p["peak_rss_kb"] * 1024 / 1e6 for p in plain),
            "op_p50_ms": 1000 * statistics.median(latency),
            "op_tail_ms": 1000 * percentile(latency, tail),
        }
    else:
        # A layer the workload never reached reads 0.
        metrics = {
            n: statistics.fmean(p["layers"].get(n, p["counters"].get(n, 0)) for p in traced)
            for n in layer_names
        }
        unknown = set().union(*(p["layers"] for p in traced), *(p["counters"] for p in traced))
        unknown -= set(layer_names)
        if unknown:
            raise WorkerError(f"figures {sorted(unknown)} are missing from BENCHMARK.json")
        metrics["trace.wall_s"] = statistics.fmean(sum(durations(p)) for p in traced)
        untraced_wall = statistics.fmean(sum(durations(p)) for p in plain)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced_wall
    meta = stamp(workload, seed, seconds, int(trace), inputs)
    meta.update(
        passes=len(passes),
        traced_passes=len(traced),
        ops_per_pass=ops,
        items_per_pass=passes[0]["items"],
        op_tail_percentile=tail,
        setup_samples=len(setups) if trace else SETUP_STARTS + timed,
    )
    if not trace:
        meta.update(
            timed_passes=timed,
            timed_s=timed_s,
            slowdown=[round(statistics.median(p["slowdown"]), 3) for p in plain],
            setup_slowdown=round(slowdown(calibration[:n_setups]), 3),
        )
    outcome = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    return meta, outcome, metrics, passes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "prymsv" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'prymsv'} is missing", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    layer_names = [n for n in units if n not in ("trace.wall_s", "trace.overhead_s")]
    try:
        meta, outcome, metrics, passes = run(
            args.workload, args.seed, args.seconds, bool(args.trace), layer_names
        )
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json", file=sys.stderr)
        return 1
    for p in passes:
        for failure in p["failures"]:
            print(f"FAIL {failure}", file=sys.stderr)
    if meta.get("timed_s", 0) > args.seconds:
        print(
            f"warning: the {meta['timed_passes']} timed passes took {meta['timed_s']:.1f} s,"
            f" more than --seconds {args.seconds}",
            file=sys.stderr,
        )
    # The spans of every pass, kept in memory until now.
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    trace_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    trace_file.write_text(json.dumps({"meta": meta, **outcome, "metrics": metrics, "passes": passes}))
    print(json.dumps({"meta": meta}))
    result = {**outcome, "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
