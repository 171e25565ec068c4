"""Planted-fault self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs each workload's operations once on small inputs, confirms that the
checks accept the genuine outputs, then plants faults (a perturbed expected
count, a failed check, a broken CSV row, a wrong estimate, ...) and confirms
that every one of them is rejected. Then checks the measurement itself: CPU
time spent in a child process shows in an operation's ``cpu_s``, a per-layer
figure naming a function the program lacks fails instead of reading 0, every
operation gets the box's slowdown from calibration samples taken around it,
and ``compare.py`` calls a clear regression ``worse`` even when the parent's
runs spread wider than the bound. Exits 1 if a genuine output is rejected,
a planted fault gets through or a measurement check fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import compare as C  # noqa: E402
import inputs as I  # noqa: E402
import worker as W  # noqa: E402

CHILD_CPU_S = 0.3


def small_inputs() -> dict[str, dict]:
    eigen_D = [101, 104, 120]
    chi = [5, 200]
    return {
        "eigen": {
            "D": eigen_D,
            "expected_checks": [
                (lambda c: c["cyl"] + c["triple"] + 3 * c["split_b0"])(I.proto_counts(D))
                for D in eigen_D
            ],
        },
        "numtheory": {
            "S_D": [100049, 20009],
            "nmax": 2000,
            "chi": chi,
            "expected_chi": {
                str(D): str(Fraction(-I.proto_counts(D)["triple"], 6))
                for D in range(chi[0], chi[1] + 1)
                if D % 4 in (0, 1) and D % 8 != 5 and D > 4 and not I.is_square(D)
            },
            "conjecture_dmax": 300,
        },
        "atlas": {
            "D": [201, 204],
            "expected_rows": [
                {k: I.proto_counts(D)[k] for k in ("cyl", "triple", "split")} for D in (201, 204)
            ],
        },
        "flat": {"d": 8, "proto": [1, 0, 1, 0], "slit": [0.11, 0.07], "radius": 6.0},
    }


def edit_json(output: tuple[int, str], change) -> tuple[int, str]:
    report = json.loads(output[1])
    change(report)
    return output[0], json.dumps(report)


def edit_lines(output: tuple[int, str], change) -> tuple[int, str]:
    lines = output[1].splitlines()
    change(lines)
    return output[0], "\n".join(lines)


def faults(workload: str, name: str, output, inputs: dict):
    """Planted faults for one operation: (description, output, inputs) triples."""
    if workload == "eigen":
        yield "one check fails", output[:-1] + [False], inputs
        bumped = {**inputs, "expected_checks": [n + 1 for n in inputs["expected_checks"]]}
        yield "expected check count perturbed", output, bumped
        yield "a check is missing", output[:-1], inputs
    elif name.startswith("S_D"):
        yield "S_D is not zero", Fraction(1, 3), inputs
    elif name.startswith("verify modular"):
        yield "a violation", edit_json(output, lambda r: r["violations"].append(9)), inputs
        yield "nonzero exit code", (1, output[1]), inputs
    elif name.startswith("chi"):
        first = min(inputs["expected_chi"], key=int)
        wrong = dict(inputs["expected_chi"], **{first: "-1/7"})
        yield "expected chi perturbed", output, {**inputs, "expected_chi": wrong}
        yield "a row is missing", edit_lines(output, lambda ls: ls.pop()), inputs
    elif name.startswith("conjecture"):
        yield "a failure", edit_json(output, lambda r: r["failures"].append(12)), inputs
        yield "a D not examined", edit_json(output, lambda r: r["checked"].pop()), inputs
    elif workload == "atlas":
        def widen_b(lines):
            D, kind, a, b, d, e = lines[1].split(",")
            lines[1] = f"{D},{kind},{a},{int(a) + 5},{d},{e}"

        yield "a row out of range", edit_lines(output, widen_b), inputs
        yield "a row is missing", edit_lines(output, lambda ls: ls.pop()), inputs
        yield "a row is duplicated", edit_lines(output, lambda ls: ls.append(ls[1])), inputs
        rows = [dict(r, cyl=r["cyl"] + 1, triple=r["triple"] + 1, split=r["split"] + 1) for r in inputs["expected_rows"]]
        yield "expected row count perturbed", output, {**inputs, "expected_rows": rows}
    elif workload == "flat":
        yield "c1 estimate off", edit_json(output, lambda r: r["estimates"].update(c1=r["estimates"]["c1"] * 1.01)), inputs
        yield "no multiplicity-3 family", edit_json(output, lambda r: r["families"].update({"3": 0})), inputs
        yield "radius differs", output, {**inputs, "radius": inputs["radius"] + 1}


def rejects(check, output) -> bool:
    try:
        check(output)
    except Exception:  # noqa: BLE001 - any exception is a rejection
        return True
    return False


def child_cpu_counted() -> bool:
    """An operation that hands its work to a child process is charged that CPU."""
    busy = f"import time\nt = time.process_time()\nwhile time.process_time() - t < {CHILD_CPU_S}: pass"
    op = lambda: subprocess.run([sys.executable, "-c", busy], check=True)  # noqa: E731
    W.WORKLOADS["child"] = lambda inputs: ([("child process", op, lambda out: None)], 1)
    try:
        ((_, _, _, cpu),) = W.run_pass("child", {}, trace=False, full_check=True)["spans"]
    finally:
        del W.WORKLOADS["child"]
    return cpu >= CHILD_CPU_S


def slowdown_per_operation() -> bool:
    """Each operation of a pass gets a slowdown factor, from samples that
    bracket it, even when a single operation fills the pass."""
    eigen = small_inputs()["eigen"]
    one = {"D": eigen["D"][:1], "expected_checks": eigen["expected_checks"][:1]}
    return all(
        len(r["slowdown"]) == len(r["spans"]) and all(f > 0 for f in r["slowdown"])
        for r in (W.run_pass("eigen", inputs, False, True) for inputs in (eigen, one))
    )


def measurement_checks():
    """(description, passed) for each check of the measurement code."""
    yield "child-process CPU counts in cpu_s", child_cpu_counted()
    yield "every operation has a slowdown factor", slowdown_per_operation()
    yield "a missing function fails its per-layer figure", rejects(W._key, "modforms.no_such_function")
    yield "a present function resolves", not rejects(W._key, "modforms.QSeries.__mul__")
    parent = [1.0, 1.0, 1.0, 1.6, 1.6, 1.6, 1.0, 1.6, 1.0, 1.6]  # spread 0.6, over any bound
    yield "a 2x regression is worse despite a wide parent spread", (
        C.verdict(parent, [3.5] * 10, "lower", 0.25)[0] == "worse"
    )
    yield "an overlapping change is unresolved", (
        C.verdict(parent, [1.7, 1.1] * 5, "lower", 0.25)[0] == "unresolved"
    )


def main() -> int:
    bad = 0
    for what, passed in measurement_checks():
        bad += not passed
        print(f"{'ok' if passed else 'FAILED'} measurement: {what}")
    for workload, inputs in small_inputs().items():
        ops, _ = W.WORKLOADS[workload](inputs)
        for name, op, check, *_ in ops:
            output = op()
            if rejects(check, output):
                print(f"REJECTED GENUINE {workload}: {name}")
                bad += 1
            position = [n for n, *_ in ops].index(name)
            for what, planted, planted_inputs in faults(workload, name, output, inputs):
                planted_check = W.WORKLOADS[workload](planted_inputs)[0][position][2]
                caught = rejects(planted_check, planted)
                bad += not caught
                print(f"{'caught' if caught else 'MISSED'} {workload}: {name}: {what}")
    print("self-test", "failed" if bad else "passed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
