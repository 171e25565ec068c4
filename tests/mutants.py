"""Planted faults that the suite must catch.

    python3 tests/mutants.py

Each entry of :data:`FAULTS` names a file under ``src/prymsv``, an exact old
text, the text that replaces it, and the tests that must catch it.  For each
entry a fresh copy of ``src/`` gets that one replacement, and ``pytest -x -q``
on the named tests, run against the copy, must fail.  An old text that does
not occur exactly once is an error.  First the named tests run once on an
unchanged copy and must pass, so that each failure is the fault's own.
Two faults run at a time.

A fault that survives is a gap in the suite: add a test that catches it, and
never weaken the fault.  A claim that some fault "fails a test" belongs here.

Standard library only; pytest does not collect this file.  Exit status 0 when
every fault is caught, 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Fault(NamedTuple):
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


EIGEN = "tests/test_eigencheck.py"
EULER = "tests/test_euler.py"
MODFORMS = "tests/test_modforms.py"
FLAT = "tests/test_flatcount.py"

FAULTS: list[Fault] = [
    # A one-row prototype group writes 0 for its b.
    Fault(
        "prototypes.py",
        'yield f"{pre}{a},{bs[0]},{d},{e}\\n"',
        'yield f"{pre}{a},0,{d},{e}\\n"',
        (
            "tests/test_prototypes.py::test_protos_csv_matches_the_objects",
            "tests/test_cli.py::test_protos_pinned",
        ),
    ),
    # A --table row whose D is no discriminant loads.
    Fault(
        "euler.py",
        'if err := admissible(D, "disc"):\n            raise ParseError',
        'if err := None:\n            raise ParseError',
        (f"{EULER}::test_load_table_parse_errors",),
    ),
    # Entry (1, 1) of T T reads t10 for t01.
    Fault(
        "eigencheck.py",
        "t10 * t01 + t11 * t11",
        "t10 * t10 + t11 * t11",
        (f"{EIGEN}::TestKernels::test_scale_plus_matches_reference",),
    ),
    # Entry (3, 3) of T T is compared with t T without its + n.
    Fault(
        "eigencheck.py",
        "== t * t33 + n",
        "== t * t33",
        (f"{EIGEN}::test_checks_are_polynomial_identities",),
    ),
    # Entry 2 of a row's Y T is compared with X without its + t Y.
    Fault(
        "eigencheck.py",
        "== x2 + t * y2",
        "== x2",
        (f"{EIGEN}::TestKernels::test_products_match_reference",),
    ),
    # Entry 1 of a row's X T reads t12 for t11.
    Fault(
        "eigencheck.py",
        "x0 * t01 + x1 * t11 + x2 * t21",
        "x0 * t01 + x1 * t12 + x2 * t21",
        (f"{EIGEN}::test_checks_are_polynomial_identities",),
    ),
    # verify_selfadjoint drops the comparison of entries (0, 3) and (3, 0) of J T.
    Fault(
        "eigencheck.py",
        " and j1 * t13 == j2 * t20",
        "",
        (EIGEN,),
    ),
    # verify_selfadjoint compares entry (0, 2) of J T with (2, 0), not its negative.
    Fault(
        "eigencheck.py",
        "-j2 * t30",
        "j2 * t30",
        (EIGEN,),
    ),
    # verify_selfadjoint's last comparison is always true.
    Fault(
        "eigencheck.py",
        "j2 * t33 == j2 * t22",
        "j2 * t33 == j2 * t33",
        (EIGEN,),
    ),
    # w3 gets the pairings of w1 and w2.
    Fault(
        "eigencheck.py",
        "return T, (1, 2), [",
        "return T, (2, 1), [",
        (f"{EIGEN}::TestSplit",),
    ),
    # _verify_endo accepts every T that passes the T^2 test.
    Fault(
        "eigencheck.py",
        "        return False\n    for (x0, x1, x2, x3)",
        "        return False\n    return True\n    for (x0, x1, x2, x3)",
        (f"{EIGEN}::TestVerifyEndoBranches::test_wrong_period_row",),
    ),
    # chi writes its header before the table loads, so a bad --table leaves output.
    Fault(
        "cli.py",
        '    rows = euler.chi_rows(args.dmin, args.dmax, _table(args))\n'
        '    write = sys.stdout.write\n'
        '    write("D,chi_w03_computed,chi_w03_table,match\\n")\n',
        '    write = sys.stdout.write\n'
        '    write("D,chi_w03_computed,chi_w03_table,match\\n")\n'
        '    rows = euler.chi_rows(args.dmin, args.dmax, _table(args))\n',
        ("tests/test_cli.py::test_repeated_table_row_is_usage_error",),
    ),
    # The degree kernel's 2-part swaps c(2^k) and sigma1(2^k).
    Fault(
        "euler.py",
        "value = 2 * q - 1 if e & 1 else q + (q >> 1)",
        "value = q + (q >> 1) if e & 1 else 2 * q - 1",
        (f"{EULER}::test_sigma1",),
    ),
    # The degree kernel reads the sieve one odd number too far.
    Fault(
        "euler.py",
        "p = spf[n >> 1] or n\n            n //= p",
        "p = spf[(n + 1) >> 1] or n\n            n //= p",
        (f"{EULER}::test_m_D_against_bruteforce",),
    ),
    # The degree kernel reads a term past the sieve's end from the sieve.
    Fault(
        "euler.py",
        "if not 0 < n < end:",
        "if not 0 < n:",
        (f"{EULER}::test_slice_is_sized_by_its_first_term",),
    ),
    # factorize reads the sieve one odd number too far.
    Fault(
        "euler.py",
        "p = spf[n >> 1] or n\n        out[p]",
        "p = spf[(n + 1) >> 1] or n\n        out[p]",
        (f"{EULER}::test_sieve_holds_smallest_prime_factor",),
    ),
    # The sieve's period-3 pattern, shifted either way.
    Fault(
        "euler.py",
        'array("H", [0, 3, 0])',
        'array("H", [3, 0, 0])',
        (f"{EULER}::test_sieve_holds_smallest_prime_factor",),
    ),
    Fault(
        "euler.py",
        'array("H", [0, 3, 0])',
        'array("H", [0, 0, 3])',
        (f"{EULER}::test_sieve_holds_smallest_prime_factor",),
    ),
    # Trial division without the prime 2.
    Fault(
        "euler.py",
        'array("i", [2])',
        'array("i", [3])',
        (f"{EULER}::test_factorize_above_sieve_cap",),
    ),
    # Trial division extends its primes from the last one plus 2, so from 2 it lists 4, 6, ...
    Fault(
        "euler.py",
        "range(last + 1 | 1, stop, 2)",
        "range(last + 2, stop, 2)",
        (f"{EULER}::test_trial_division_lists_only_primes_below_sqrt",),
    ),
    # Trial division lists its primes to the cofactor's square root in one step, not by doubling.
    Fault(
        "euler.py",
        "min(2 * last, math.isqrt(n), end - 1)",
        "min(math.isqrt(n), end - 1)",
        (f"{EULER}::test_trial_division_lists_only_primes_below_sqrt",),
    ),
    # m_D without its gcd correction.
    Fault(
        "euler.py",
        "return degree_sum(D, (e,), (1,))",
        "return degree_sum(D - e * e + 1, (1,), (1,))",
        (f"{MODFORMS}::test_divisor_recursion_term_by_term",),
    ),
    # chi_W03 weighs each e > 0 once, not once for each sign.
    Fault(
        "euler.py",
        "ws = itertools.chain((2 if first else 1,), itertools.repeat(2))",
        "ws = itertools.repeat(1)",
        (f"{EULER}::test_chi_W03_sums_both_signs_of_e",),
    ),
    # S_D weighs every e by +e, dropping psi(e).
    Fault(
        "modforms.py",
        "itertools.cycle((1, -1))",
        "itertools.cycle((1, 1))",
        (f"{MODFORMS}::test_S_D_vanishes",),
    ),
    # The sigma1 table as a C long, or shifted by one.
    Fault(
        "modforms.py",
        'return array("q", sig)',
        'return array("l", sig)',
        (f"{MODFORMS}::test_sigma1_table_is_the_divisor_sums",),
    ),
    Fault(
        "modforms.py",
        'return array("q", sig)',
        'return array("q", sig[1:] + [0])',
        (f"{MODFORMS}::test_sigma1_table_is_the_divisor_sums",),
    ),
    # S_D_sigma without its residue gate.
    Fault(
        "modforms.py",
        "    if D % 8 != 1:\n        return 0\n    total, k",
        "    total, k",
        (f"{MODFORMS}::test_closed_form_needs_residue_one",),
    ),
    # The modular closed form off by one at n = 4001.
    Fault(
        "modforms.py",
        "(root ** 3 - root)\n    return total",
        "(root ** 3 - root)\n    return total + (n == 4001)",
        ("tests/test_acceptance.py::test_criterion_3_modular_identity_vanishes",),
    ),
    # The wedge loop prunes an edge as soon as its far endpoint lies beyond R.
    Fault(
        "flatcount.py",
        "if bx * bx + by * by > R2:\n                        ax, ay",
        "if bx * bx + by * by > R2:\n                        break\n                        ax, ay",
        (f"{FLAT}::TestEnumeration::test_radius_on_a_connection",),
    ),
    # The wedge loop adds the exact step only when it is zero.
    Fault(
        "flatcount.py",
        "if kstep:",
        "if not kstep:",
        (f"{FLAT}::TestExactHolonomy::test_grouping_matches_pairwise_float_oracle",),
    ),
    # A split reads the z2 flag and the exact far vertex from the right sub-edge's row.
    Fault(
        "flatcount.py",
        "at_z2, kfar = split[e]",
        "at_z2, kfar = split[right]",
        (f"{FLAT}::TestEnumeration::test_negation_symmetry",),
    ),
    # The records sort on their length only: a run of equal lengths keeps the search's order.
    Fault(
        "flatcount.py",
        "found[start:i] = sorted(found[start:i], key=SaddleConnection.sort_key)",
        "found[start:i] = found[start:i]",
        (f"{FLAT}::test_order_is_the_sort_key_order",),
    ),
    # A family's holonomy is its last member's.
    Fault(
        "flatcount.py",
        "        rep[1] += 1\n",
        "        rep[0] = sc\n        rep[1] += 1\n",
        (f"{FLAT}::TestGrouping::test_exact_keys_group",),
    ),
    # A family's count starts at 0 for its first member.
    Fault(
        "flatcount.py",
        "reps[key] = [sc, 1]",
        "reps[key] = [sc, 0]",
        (f"{FLAT}::TestGrouping::test_exact_keys_group",),
    ),
    # group_families keys a family on its exact holonomy alone, whatever its endpoints.
    Fault(
        "flatcount.py",
        "if rep is not None and (rep[0].start != sc.start or rep[0].end != sc.end):",
        "if False:",
        (f"{FLAT}::TestGrouping::test_exact_keys_group",),
    ),
    # A connection whose endpoints differ from its key's first family's always starts a family.
    Fault(
        "flatcount.py",
        "key = (sc.start, sc.end, key)\n            rep = reps.get(key)",
        "key = (sc.start, sc.end, key)\n            rep = None",
        (f"{FLAT}::TestGrouping::test_endpoints_split_a_key_in_any_order",),
    ),
]


def _copy_src(dest: Path) -> Path:
    src = dest / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def _env(src: Path) -> dict[str, str]:
    """The environment that imports ``prymsv`` from ``src`` and writes no bytecode."""
    return {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}


def _pytest(src: Path, tests: tuple[str, ...]) -> int:
    """``pytest -x -q`` on ``tests`` with ``src`` first on the import path; its exit code."""
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=ROOT, env=_env(src), capture_output=True).returncode


def _baseline(tests: tuple[str, ...]) -> str | None:
    """Why the unchanged copy is no baseline, or ``None``."""
    with tempfile.TemporaryDirectory() as tmp:
        src = _copy_src(Path(tmp))
        where = subprocess.run(
            [sys.executable, "-c", "import prymsv; print(prymsv.__file__)"],
            env=_env(src), capture_output=True, text=True,
        ).stdout.strip()  # fmt: skip
        if not where.startswith(str(src)):
            return f"prymsv imports from {where!r}, not from the copy"
        if code := _pytest(src, tests):
            return f"the named tests fail on the unchanged copy (pytest exit code {code})"
    return None


def _run(fault: Fault) -> str:
    """``"caught"``, ``"SURVIVED"`` or an error for one fault."""
    with tempfile.TemporaryDirectory() as tmp:
        src = _copy_src(Path(tmp))
        path = src / "prymsv" / fault.file
        text = path.read_text(encoding="utf-8")
        if (count := text.count(fault.old)) != 1:
            return f"ERROR: the old text occurs {count} times"
        path.write_text(text.replace(fault.old, fault.new), encoding="utf-8")
        code = _pytest(src, fault.tests)
    if code == 1:
        return "caught"
    return "SURVIVED" if code == 0 else f"ERROR: pytest exit code {code}, not a test failure"


def main() -> int:
    started = time.perf_counter()
    if reason := _baseline(tuple(dict.fromkeys(t for f in FAULTS for t in f.tests))):
        print(f"ERROR: {reason}")
        return 1
    bad = 0
    # Two pytest processes at a time: each fault has its own copy of src/.
    with ThreadPoolExecutor(max_workers=2) as pool:
        verdicts = pool.map(_run, FAULTS)
    for fault, verdict in zip(FAULTS, verdicts):
        bad += verdict != "caught"
        print(f"{verdict:8} {fault.file}: {fault.old!r} -> {fault.new!r}", flush=True)
    print(f"{len(FAULTS) - bad} of {len(FAULTS)} faults caught in {time.perf_counter() - started:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
