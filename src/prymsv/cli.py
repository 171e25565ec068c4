"""Command-line interface tying the modules together.

All machine-readable output goes to stdout with deterministic ordering;
diagnostics go to stderr.  Exit codes: 0 success, 1 verification failure,
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Sequence

from . import euler, flatcount, modforms, prototypes, svconst
from .eigencheck import verification_rows
from .errors import PrymsvError
from .exactq import admissible


def _table(args: argparse.Namespace) -> euler.EulerTable:
    if args.table:
        return euler.load_table(args.table)
    return euler.BUILTIN_TABLE


def _cmd_chi(args: argparse.Namespace) -> int:
    if args.dmin > args.dmax:
        raise PrymsvError(f"--dmin {args.dmin} exceeds --dmax {args.dmax}")
    # A bad --table writes nothing; then each row is written as it is computed.
    rows = euler.chi_rows(args.dmin, args.dmax, _table(args))
    write = sys.stdout.write
    write("D,chi_w03_computed,chi_w03_table,match\n")
    ok = True
    for D, computed, expected in rows:
        match = "-" if expected is None else "yes" if computed == expected else "NO"
        ok = ok and match != "NO"
        write(f"{D},{computed},{'-' if expected is None else expected},{match}\n")
    return 0 if ok else 1


def _cmd_sv(args: argparse.Namespace) -> int:
    results = svconst.sv_constants(args.d, _table(args))
    for r in results:
        # The fields in declaration order, each Fraction as its string.
        fields = {k: str(v) if isinstance(v, Fraction) else v for k, v in vars(r).items()}
        if args.json:
            print(json.dumps(fields))
        else:  # An absent value reads "-", as in chi.
            print(" ".join(f"{k}={'-' if v is None else v}" for k, v in fields.items()))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.what == "modular":
        violations = modforms.verify_vanishing(args.nmax)
        print(json.dumps({"N": args.nmax, "violations": violations}))
        return 0 if not violations else 1
    if args.what == "identity":
        failures: list[int] = []
        checked = 0
        for D in range(1, args.dmax + 1, 8):
            if admissible(D, "S_D") is not None:
                continue
            checked += 1
            if modforms.S_D(D) != 0:
                failures.append(D)
        print(json.dumps({"dmax": args.dmax, "checked": checked, "failures": failures}))
        return 0 if not failures else 1
    # eigen: each row is written as it is checked, so none is held in memory.
    write = sys.stdout.write
    write("D,kind,a,b,d,e,check,pass\n")
    ok = True
    for p, check, passed in verification_rows(args.dmax):
        write(f"{p.D},{p.kind},{p.a},{p.b},{p.d},{p.e},{check},{'pass' if passed else 'FAIL'}\n")
        ok = ok and passed
    return 0 if ok else 1


_PROTO_FAMILIES = {
    cls.kind: cls
    for cls in (prototypes.CylProto, prototypes.TripleProto, prototypes.SplitProto)
}


def _cmd_protos(args: argparse.Namespace) -> int:
    sys.stdout.writelines(prototypes.protos_csv(_PROTO_FAMILIES[args.kind], args.d))
    return 0


def _parse_proto(text: str) -> tuple[int, int, int, int]:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("expected a,b,d,e")
    try:
        a, b, d, e = (int(x) for x in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad prototype {text!r}") from exc
    return a, b, d, e


def _parse_vec(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected re,im")
    try:
        return complex(*map(float, parts))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad number in {text!r}") from exc


def _parse_nonneg(text: str) -> int:
    """An integer bound ``>= 0``: every ``--nmax``, ``--dmin`` and ``--dmax``."""
    try:
        n = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer {text!r}") from exc
    if n < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not >= 0")
    return n


def _cmd_count(args: argparse.Namespace) -> int:
    p = prototypes.TripleProto(*args.proto)
    if p.D != args.d:
        raise PrymsvError(f"prototype {args.proto} has discriminant {p.D}, not {args.d}")
    t = args.slit if args.slit is not None else flatcount.default_slit(p)
    report = flatcount.count_report(flatcount.build_slit_triple(p, t), args.radius)
    print(json.dumps(report, sort_keys=True))
    return 0


def _cmd_conjecture(args: argparse.Namespace) -> int:
    checked, skipped, failures = svconst.check_conjecture(args.dmax, _table(args))
    reasons = {str(D): reason for D, reason in skipped.items()}  # in increasing D, as checked
    print(json.dumps({"checked": checked, "failures": failures, "skipped": reasons}))
    return 0 if not failures else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prymsv",
        description="Euler characteristics, Siegel-Veech constants and "
        "saddle-connection counts for Prym eigenform loci.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_chi = sub.add_parser("chi", help="CSV of computed chi(W_D(0^3)) over a range")
    p_chi.add_argument("--dmin", type=_parse_nonneg, required=True)
    p_chi.add_argument("--dmax", type=_parse_nonneg, required=True)
    p_chi.add_argument("--table")
    p_chi.set_defaults(func=_cmd_chi)

    p_sv = sub.add_parser("sv", help="Siegel-Veech constants for one discriminant")
    p_sv.add_argument("--d", type=int, required=True)
    p_sv.add_argument("--table")
    p_sv.add_argument("--json", action="store_true")
    p_sv.set_defaults(func=_cmd_sv)

    p_verify = sub.add_parser("verify", help="exact verification suites")
    p_verify.add_argument("what", choices=["modular", "identity", "eigen"])
    p_verify.add_argument("--nmax", type=_parse_nonneg, default=10000)
    p_verify.add_argument("--dmax", type=_parse_nonneg, default=500)
    p_verify.set_defaults(func=_cmd_verify)

    p_protos = sub.add_parser("protos", help="enumerate prototypes as CSV")
    p_protos.add_argument("--d", type=int, required=True)
    p_protos.add_argument("--kind", choices=list(_PROTO_FAMILIES), required=True)
    p_protos.set_defaults(func=_cmd_protos)

    p_count = sub.add_parser("count", help="saddle-connection counting report")
    p_count.add_argument("--d", type=int, required=True)
    p_count.add_argument("--proto", type=_parse_proto, required=True)
    p_count.add_argument("--slit", type=_parse_vec, default=None)
    p_count.add_argument("--radius", type=float, required=True)
    p_count.set_defaults(func=_cmd_count)

    p_conj = sub.add_parser("conjecture", help="check (25/9, 3, 2/9) over a range")
    p_conj.add_argument("--dmax", type=_parse_nonneg, required=True)
    p_conj.add_argument("--table")
    p_conj.set_defaults(func=_cmd_conjecture)

    return parser


#: The parser, built by the first :func:`dispatch` (not at import) and reused.
_parser: argparse.ArgumentParser | None = None


def dispatch(argv: Sequence[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except PrymsvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
