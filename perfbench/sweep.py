"""Run the benchmark over several seeds and append each result to a JSON-lines file.

    python3 perfbench/sweep.py perfbench/results/new.jsonl --seeds 1-10
    python3 perfbench/sweep.py new.jsonl --other ../parent old.jsonl

Every run measures for ``run_seconds`` of ``BENCHMARK.json``, so that every
result set is comparable with every other. With ``--other`` every
(workload, seed) runs on both checkouts, alternating which one goes first,
so that the two result sets pair up for ``compare.py``. Each checkout runs
its own copy of ``perfbench/run.py``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_one(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, "perfbench/run.py",
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]  # fmt: skip
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {workload} seed {seed} failed:\n{proc.stderr}")
    stamp, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    return {**stamp["meta"], **result}


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", type=Path)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--other", nargs=2, metavar=("CHECKOUT", "RESULTS"))
    args = parser.parse_args()
    first, last = map(int, args.seeds.split("-"))
    sides = [(ROOT, args.results)]
    if args.other:
        sides.append((Path(args.other[0]).resolve(), Path(args.other[1])))
    for seed in range(first, last + 1):
        for workload in args.workloads.split(","):
            for checkout, results in sides[:: 1 if seed % 2 else -1]:
                record = run_one(checkout, workload, seed, spec["run_seconds"], args.trace)
                with results.open("a") as fh:
                    fh.write(json.dumps(record) + "\n")
                values = {k: round(v["value"], 4) for k, v in record["metrics"].items()}
                print(f"{checkout.name} {workload} seed={seed} correct={record['correct']} {values}", flush=True)


if __name__ == "__main__":
    main()
