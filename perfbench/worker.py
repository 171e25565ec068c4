"""One benchmark pass in a fresh interpreter.

Reads ``{"workload", "inputs", "run", "trace", "full_check"}`` as one JSON
line on stdin, imports the program, prints ``ready`` once set up, then (if ``run``)
performs the workload's operations one after another, each timed on its own,
checks every output outside the timed calls, and prints one JSON object with
the timings, failures and, for a traced pass, the per-layer figures.

``run.py`` starts this script; the check functions are also imported by
``selftest.py``.
"""

from __future__ import annotations

import contextlib
import fractions
import functools
import hashlib
import importlib
import io
import json
import math
import resource
import sys
import time

import prymsv.cli
from calibrate import calibrate, slowdown
from prymsv import eigencheck, euler, flatcount, modforms, prototypes

# ---------------------------------------------------------------------------
# Operations: each returns the output its check inspects.
# ---------------------------------------------------------------------------


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Run one ``prymsv`` command in this process; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = prymsv.cli.dispatch(argv)
    return rc, buf.getvalue()


def eigen_op(D: int) -> list[bool]:
    """The exact checks of ``prymsv verify eigen`` for one discriminant."""
    results = [eigencheck.verify_cyl_IA(p) for p in prototypes.enumerate_cyl(D)]
    if D % 8 != 5:
        results += [eigencheck.verify_triple(p) for p in prototypes.enumerate_triple(D)]
    for p in prototypes.enumerate_split(D):
        if p.b == 0:
            results += [eigencheck.verify_split_endo(p, c) for c in eigencheck.SPLIT_CASES]
    return results


class CheckFailed(Exception):
    pass


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def check_cli(output: tuple[int, str]) -> str:
    rc, text = output
    require(rc == 0, f"exit code {rc}")
    return text


# ---------------------------------------------------------------------------
# Checks: each raises CheckFailed (or any exception) on a wrong answer.
# ---------------------------------------------------------------------------


def check_eigen(results: list[bool], expected: int) -> None:
    require(len(results) == expected, f"{len(results)} checks, expected {expected}")
    require(all(results), f"{results.count(False)} checks failed")


def check_modular(output: tuple[int, str], nmax: int) -> None:
    report = json.loads(check_cli(output))
    require(report == {"N": nmax, "violations": []}, f"modular report {report}")


def check_chi(output: tuple[int, str], expected: dict[str, str]) -> None:
    lines = check_cli(output).splitlines()
    require(lines[0] == "D,chi_w03_computed,chi_w03_table,match", "chi header")
    seen = set()
    for line in lines[1:]:
        D, computed, table, match = line.split(",")
        require(computed == expected.get(D), f"chi at D={D}: {computed}, expected {expected.get(D)}")
        if table != "-":
            require(table == computed and match == "yes", f"chi table row D={D}: {line}")
        seen.add(D)
    require(seen == set(expected), f"chi rows {len(seen)}, expected {len(expected)}")


def check_conjecture(output: tuple[int, str], dmax: int) -> None:
    report = json.loads(check_cli(output))
    require(report["failures"] == [], f"conjecture failures {report['failures']}")
    checked = set(report["checked"])
    skipped = {int(D) for D in report["skipped"]}
    attempted = {D for D in range(5, dmax + 1) if D % 4 in (0, 1)}
    require(checked and not checked & skipped, "conjecture checked/skipped overlap")
    require(checked | skipped == attempted, "conjecture did not cover its range")


def check_protos(output: tuple[int, str], D: int, kind: str, expected: int) -> None:
    lines = check_cli(output).splitlines()
    require(lines[0] == "D,kind,a,b,d,e", "protos header")
    rows = lines[1:]
    require(len(rows) == expected, f"{len(rows)} {kind} rows at D={D}, expected {expected}")
    require(len(set(rows)) == len(rows), "duplicate rows")
    gcd = math.gcd
    k = 4 if kind == "split" else 8
    for row in rows:
        fields = row.split(",")
        require(fields[0] == str(D) and fields[1] == kind, f"row {row}")
        a, b, d, e = map(int, fields[2:])
        bmax = a if kind == "triple" else gcd(a, d)
        ok = (
            e * e + k * a * d == D
            and a > 0
            and d > 0
            and 0 <= b < bmax
            and gcd(gcd(a, b), gcd(d, e)) == 1
            and (kind != "split" or a > d + e)
        )
        require(ok, f"row {row} violates the {kind} relation")
    if kind == "triple":
        oracle = -6 * euler.chi_W03(D)
        require(len(rows) == oracle, f"{len(rows)} triple rows, -6 chi = {oracle}")


FLAT_AREA = 4.0  # lambda^2 + 2ad with lambda = sqrt(2), a = d = 1
CONJECTURED = (25 / 9, 3.0, 2 / 9)


def observe_flat(output: tuple[int, str]) -> dict[str, float]:
    report = json.loads(output[1])
    est = report["estimates"]
    return {
        "flatcount.families": sum(report["families"].values()),
        "flatcount.sv_max_rel_err": max(
            abs(est[f"c{k}"] - c) / c for k, c in zip((1, 2, 3), CONJECTURED)
        ),
    }


def observe_conjecture(output: tuple[int, str]) -> dict[str, float]:
    report = json.loads(output[1])
    checked, skipped = len(report["checked"]), len(report["skipped"])
    return {"svconst.checked_ratio": checked / (checked + skipped)}


def check_flat(output: tuple[int, str], inputs: dict) -> None:
    report = json.loads(check_cli(output))
    R = inputs["radius"]
    require(report["R"] == R, f"radius {report['R']}")
    fam = report["families"]
    require(fam["3"] >= 1, "no multiplicity-3 family")
    for k in (1, 2, 3):
        expect = fam[str(k)] * FLAT_AREA / (math.pi * R * R)
        require(math.isclose(report["estimates"][f"c{k}"], expect, rel_tol=1e-12), f"c{k}")
    t = complex(*inputs["slit"])
    surface = flatcount.build_slit_triple(prototypes.TripleProto(*inputs["proto"]), t)
    surface.check()
    zeros = surface.zeros()
    require(len(zeros) == 2, f"cone points {zeros}")
    for z in zeros:
        require(abs(surface.cone_angles[z] - 6 * math.pi) < 1e-9, "cone angle is not 6 pi")
    z1, z2 = zeros
    short = [
        sc
        for sc in flatcount.enumerate_sc(surface, 1.5 * abs(t))
        if (sc.start, sc.end) == (z1, z2)
    ]
    slit = [
        f
        for f in flatcount.group_families(short, 1e-9)
        if f.multiplicity == 3 and min(abs(f.holonomy - t), abs(f.holonomy + t)) < 1e-9
    ]
    require(len(slit) == 1, "no multiplicity-3 family at the slit")


# ---------------------------------------------------------------------------
# Workloads: a list of (name, operation, check[, observe]) and the count of
# work units. ``observe`` reads counters from an output in every pass.
# ---------------------------------------------------------------------------


def eigen_workload(inputs: dict):
    ops = [
        (f"eigen D={D}", lambda D=D: eigen_op(D), lambda out, n=n: check_eigen(out, n))
        for D, n in zip(inputs["D"], inputs["expected_checks"])
    ]
    return ops, sum(inputs["expected_checks"])


def numtheory_workload(inputs: dict):
    ops = [
        (f"S_D D={D}", lambda D=D: modforms.S_D(D), lambda out: require(out == 0, f"S_D = {out}"))
        for D in inputs["S_D"]
    ]
    nmax = inputs["nmax"]
    dmin, dmax = inputs["chi"]
    cdmax = inputs["conjecture_dmax"]
    ops += [
        (
            f"verify modular --nmax {nmax}",
            lambda: run_cli(["verify", "modular", "--nmax", str(nmax)]),
            lambda out: check_modular(out, nmax),
        ),
        (
            f"chi --dmin {dmin} --dmax {dmax}",
            lambda: run_cli(["chi", "--dmin", str(dmin), "--dmax", str(dmax)]),
            lambda out: check_chi(out, inputs["expected_chi"]),
        ),
        (
            f"conjecture --dmax {cdmax}",
            lambda: run_cli(["conjecture", "--dmax", str(cdmax)]),
            lambda out: check_conjecture(out, cdmax),
            observe_conjecture,
        ),
    ]
    conjecture_D = sum(1 for D in range(5, cdmax + 1) if D % 4 in (0, 1))
    return ops, len(inputs["S_D"]) + nmax + len(inputs["expected_chi"]) + conjecture_D


def atlas_workload(inputs: dict):
    ops = []
    for D, expected in zip(inputs["D"], inputs["expected_rows"]):
        for kind in ("cyl", "triple", "split"):
            if kind == "triple" and D % 8 == 5:
                continue  # no triple prototypes: the command is a usage error
            ops.append(
                (
                    f"protos --d {D} --kind {kind}",
                    lambda D=D, kind=kind: run_cli(["protos", "--d", str(D), "--kind", kind]),
                    lambda out, D=D, kind=kind, n=expected[kind]: check_protos(out, D, kind, n),
                )
            )
    return ops, sum(sum(e.values()) for e in inputs["expected_rows"])


def flat_workload(inputs: dict):
    argv = [
        "count",
        "--d", str(inputs["d"]),
        "--proto", ",".join(map(str, inputs["proto"])),
        "--slit=" + ",".join(map(repr, inputs["slit"])),
        "--radius", repr(inputs["radius"]),
    ]  # fmt: skip
    ops = [(" ".join(argv), lambda: run_cli(argv), lambda out: check_flat(out, inputs), observe_flat)]
    return ops, None  # work units: the families counted, observed in the output


WORKLOADS = {
    "eigen": eigen_workload,
    "numtheory": numtheory_workload,
    "atlas": atlas_workload,
    "flat": flat_workload,
}


# ---------------------------------------------------------------------------
# Per-layer figures from a deterministic profile of the timed calls.
# ---------------------------------------------------------------------------

LAYERS = ("cli", "exactq", "euler", "prototypes", "eigencheck", "modforms", "svconst", "flatcount")


def _key(dotted: str) -> int:
    """The profile key (code object id) of a package function named
    ``module.attr[.attr]``. Raises LookupError if the program no longer has
    it, so that a renamed or inlined function fails the traced run instead
    of reading 0 as if it were never reached."""
    module, *attrs = dotted.split(".")
    obj = importlib.import_module("prymsv." + module)
    try:
        for attr in attrs:
            obj = getattr(obj, attr)
        return id(getattr(obj, "__wrapped__", obj).__code__)  # see through SizeHooks
    except AttributeError:
        raise LookupError(f"the program has no function {dotted}") from None


def _own_layer(code, pkg_dir: str) -> str | None:
    """The layer a profiled function belongs to, or None to charge its callers."""
    filename = code.co_filename
    if filename == fractions.__file__:
        return "fraction"
    if filename.startswith(pkg_dir):
        name = filename[len(pkg_dir) :].removesuffix(".py")
        return name if name in LAYERS else None
    if filename == __file__:
        return "other"
    return None


def _is_public(code) -> bool:
    name = code.co_name
    return not name.startswith(("_", "<")) or (name.startswith("__") and name.endswith("__"))


def layer_figures(entries: list, wall: float) -> dict[str, float]:
    """Self time and public calls per layer, plus the named per-function figures.

    ``entries`` is ``cProfile.Profile.getstats()``: for each function (code
    object), its calls, self time (``inlinetime``) and cumulative time
    (``totaltime``), and the same figures for each function it called. Time
    in functions outside the package (argparse, abc, generated dataclass
    code) is charged to the layers of their callers, in proportion to the
    time each caller spent in them, so that the layer self times plus
    ``other.self_s`` (the client's own code and the profiler's unattributed
    cost) add up to ``wall``.
    """
    pkg_dir = prymsv.cli.__file__.removesuffix("cli.py")
    # Keyed by id: equal code objects (such as the generated __init__ of two
    # dataclasses with the same fields) compare equal but are distinct functions.
    stats = {id(e.code): e for e in entries}
    callers: dict = {key: {} for key in stats}  # callee -> caller -> subcall entry
    for e in entries:
        for sub in e.calls or ():
            callers.setdefault(id(sub.code), {})[id(e.code)] = sub
    own = {key: _own_layer(e.code, pkg_dir) for key, e in stats.items()}
    share = {key: {L or "other": 1.0} for key, L in own.items()}
    charged = [key for key, L in own.items() if L is None]
    for _ in range(50):  # callers may be charged functions too: iterate to a fixed point
        for key in charged:
            edges = callers[key].values()
            by_time = any(sub.inlinetime > 0 for sub in edges)
            total = sum(sub.inlinetime if by_time else sub.callcount for sub in edges)
            mix: dict[str, float] = {}
            for caller, sub in callers[key].items():
                w = (sub.inlinetime if by_time else sub.callcount) / total
                for L, s in share[caller].items():
                    mix[L] = mix.get(L, 0.0) + w * s
            share[key] = mix or {"other": 1.0}
    self_s = {L: 0.0 for L in LAYERS + ("fraction",)}
    calls = {L: 0 for L in self_s}
    for key, e in stats.items():
        for L, s in share[key].items():
            if L in self_s:
                self_s[L] += e.inlinetime * s
        if own[key] in calls and _is_public(e.code):
            calls[own[key]] += e.callcount

    def fn_calls(*names: str) -> int:
        return sum(stats[k].callcount for k in map(_key, names) if k in stats)

    def fn_cum(*names: str) -> float:
        return sum(stats[k].totaltime for k in map(_key, names) if k in stats)

    def edge_cum(callee: str, caller: str) -> float:
        sub = callers.get(_key(callee), {}).get(_key(caller))
        return sub.totaltime if sub else 0.0

    enumerators = (
        "prototypes.enumerate_cyl",
        "prototypes.enumerate_triple",
        "prototypes.enumerate_triple_e",
        "prototypes.enumerate_split",
    )
    checks = ("eigencheck.verify_cyl_IA", "eigencheck.verify_triple", "eigencheck.verify_split_endo")
    figures = {
        "exactq.self_s": self_s["exactq"],
        "exactq.calls": calls["exactq"],
        "exactq.check_discriminant_calls": fn_calls("exactq.check_discriminant"),
        "exactq.fraction_self_s": self_s["fraction"],
        "exactq.fraction_calls": calls["fraction"],
        "eigencheck.self_s": self_s["eigencheck"],
        "eigencheck.checks": fn_calls(*checks),
        "eigencheck.verify_cyl_IA_s": fn_cum(checks[0]),
        "eigencheck.verify_triple_s": fn_cum(checks[1]),
        "eigencheck.verify_split_endo_s": fn_cum(checks[2]),
        "euler.self_s": self_s["euler"],
        "euler.calls": calls["euler"],
        "euler.factorize_calls": fn_calls("euler.factorize"),
        "euler.m_D_calls": fn_calls("euler.m_D"),
        "euler.chi_W03_s": fn_cum("euler.chi_W03"),
        "modforms.self_s": self_s["modforms"],
        "modforms.S_D_calls": fn_calls("modforms.S_D"),
        "modforms.S_D_s": fn_cum("modforms.S_D"),
        "modforms.verify_vanishing_s": fn_cum("modforms.verify_vanishing"),
        "modforms.qseries_mul_s": fn_cum("modforms.QSeries.__mul__"),
        "svconst.self_s": self_s["svconst"],
        "svconst.sv_constants_calls": fn_calls("svconst.sv_constants"),
        "svconst.chi_W03_s": edge_cum("euler.chi_W03", "svconst.sv_constants"),
        "prototypes.self_s": self_s["prototypes"],
        "prototypes.enumerate_calls": fn_calls(*enumerators),
        "prototypes.enumerate_s": fn_cum(*enumerators),
        "prototypes.built": fn_calls(
            "prototypes.CylProto.__init__",
            "prototypes.TripleProto.__init__",
            "prototypes.SplitProto.__init__",
        ),
        "prototypes.protos_csv_s": fn_cum("prototypes.protos_csv"),
        "flatcount.self_s": self_s["flatcount"],
        "flatcount.build_s": fn_cum("flatcount.build_slit_triple"),
        "flatcount.enumerate_s": fn_cum("flatcount.enumerate_sc"),
        "flatcount.group_s": fn_cum("flatcount.group_families"),
        "cli.self_s": self_s["cli"],
        "cli.calls": calls["cli"],
    }
    figures["other.self_s"] = wall - sum(self_s.values())
    return figures


class SizeHooks:
    """Counts the saddle connections found and kept, by wrapping the two
    flatcount functions that produce and consume them (one call per count)."""

    def __init__(self) -> None:
        self.found = self.kept = 0
        enumerate_sc, group_families = flatcount.enumerate_sc, flatcount.group_families

        @functools.wraps(enumerate_sc)
        def counted_enumerate_sc(s, R):
            found = enumerate_sc(s, R)
            self.found += len(found)
            return found

        @functools.wraps(group_families)
        def counted_group_families(connections, tol):
            self.kept += len(connections)
            return group_families(connections, tol)

        flatcount.enumerate_sc = counted_enumerate_sc
        flatcount.group_families = counted_group_families


# ---------------------------------------------------------------------------
# The pass.
# ---------------------------------------------------------------------------


def cpu_time() -> float:
    """User + system CPU of this process and of its children that have been
    waited for, so that work handed to worker processes counts too."""
    return sum(
        u.ru_utime + u.ru_stime
        for u in map(resource.getrusage, (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    )


# Calibration samples (see calibrate.py) are taken outside the timed spans:
# CAL_BURST before the first operation and after the last, and one before any
# operation that starts CAL_GAP_S or more after the previous sample, so that
# they follow the box's speed through the pass (a few dozen samples, under 3 %
# of a pass's time).
CAL_BURST = 5
CAL_GAP_S = 0.1


def digest(output) -> str:
    text = output[1] if isinstance(output, tuple) else repr(output)
    return hashlib.sha1(text.encode()).hexdigest()


def run_pass(workload: str, inputs: dict, trace: bool, full_check: bool) -> dict:
    ops, items = WORKLOADS[workload](inputs)
    if trace:
        import cProfile  # imported here so that set-up time stays the program's alone

        profile = cProfile.Profile(builtins=False)
        hooks = SizeHooks()
    spans, failures, digests = [], [], []
    counters: dict[str, float] = {"cli.output_bytes": 0}
    cal = [[calibrate() for _ in range(CAL_BURST)]]  # samples, by the gap they were taken in
    cal_before = []  # per operation, the index of the last group taken before it
    origin = last_cal = time.perf_counter()
    for name, op, check, *observe in ops:
        if time.perf_counter() - last_cal >= CAL_GAP_S:
            cal.append([calibrate()])
            last_cal = time.perf_counter()
        cal_before.append(len(cal) - 1)
        c0 = cpu_time()
        t0 = time.perf_counter()
        try:
            if trace:
                profile.enable()
            try:
                output = op()
            finally:
                if trace:
                    profile.disable()
                t1 = time.perf_counter()
                c1 = cpu_time()
            if isinstance(output, tuple):
                counters["cli.output_bytes"] += len(output[1].encode())
                check_cli(output)
            if full_check:
                check(output)
            for obs in observe:
                counters.update(obs(output))
            digests.append(digest(output))
        except Exception as exc:  # noqa: BLE001 - every failure is counted and reported
            failures.append(f"{name}: {type(exc).__name__}: {exc}")
            digests.append(None)
        spans.append((name, t0 - origin, t1 - origin, c1 - c0))
    cal.append([calibrate() for _ in range(CAL_BURST)])
    result = {
        "spans": spans,
        # The box's slowdown during each operation: the mean of the slowdowns
        # of the samples taken just before it and of those just after it.
        "slowdown": [(slowdown(cal[k]) + slowdown(cal[k + 1])) / 2 for k in cal_before],
        "failures": failures,
        "digests": digests,
        "items": counters.get("flatcount.families", 0) if items is None else items,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "counters": counters,
    }
    if trace:
        wall = sum(t1 - t0 for _, t0, t1, _ in spans)
        figures = layer_figures(profile.getstats(), wall)
        if hooks.found:
            figures["flatcount.sc_found"] = hooks.found
            figures["flatcount.sc_kept"] = hooks.kept
            figures["flatcount.kept_ratio"] = hooks.kept / hooks.found
        result["layers"] = figures
    return result


def main() -> None:
    payload = json.loads(sys.stdin.readline())
    print("ready", flush=True)
    if not payload["run"]:
        return
    result = run_pass(payload["workload"], payload["inputs"], payload["trace"], payload["full_check"])
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
