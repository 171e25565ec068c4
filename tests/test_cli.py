import argparse
import contextlib
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from prymsv import cli, eigencheck, euler, modforms
from prymsv.cli import build_parser, dispatch


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_chi(capsys):
    code, out, err = run(capsys, "chi", "--dmin", "5", "--dmax", "17")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "D,chi_w03_computed,chi_w03_table,match"
    assert "8,-1/6,-1/6,yes" in lines
    assert "17,-4/3,-4/3,yes" in lines
    # D=13 (residue 5) and D=16 (square) are skipped entirely
    assert not any(line.startswith(("13,", "16,")) for line in lines)


def test_sv_plain(capsys):
    code, out, _ = run(capsys, "sv", "--d", "12")
    assert code == 0
    assert out.strip() == (
        "D=12 component=whole c1=25/9 c2=3 c3=2/9 volume_pi2=-1/8 b_D=0"
    )
    # An absent b_D reads "-", the token chi uses, not a Python repr.
    code, out, _ = run(capsys, "sv", "--d", "17")
    assert code == 0
    assert out.splitlines() == [
        "D=17 component=plus c1=25/9 c2=3 c3=2/9 volume_pi2=-1/4 b_D=-",
        "D=17 component=minus c1=25/9 c2=3 c3=2/9 volume_pi2=-1/4 b_D=-",
    ]


def test_sv_json(capsys):
    code, out, _ = run(capsys, "sv", "--d", "17", "--json")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["component"] for r in rows] == ["plus", "minus"]
    assert all(r["c1"] == "25/9" for r in rows)


def test_sv_json_fields(capsys):
    # The fields of each SVResult in declaration order, each Fraction as its string.
    _, out, _ = run(capsys, "sv", "--d", "17", "--json")
    rows = [json.loads(line) for line in out.splitlines()]
    fields = {
        "D": 17,
        "component": "plus",
        "c1": "25/9",
        "c2": "3",
        "c3": "2/9",
        "volume_pi2": "-1/4",
        "b_D": None,
    }
    assert list(rows[0].items()) == list(fields.items())
    assert rows[1] == {**fields, "component": "minus"}


def test_sv_outside_hypotheses_is_usage_error(capsys):
    # Each refusal is exit 2, empty stdout and one error line with its reason.
    for D, reason in [
        ("8", "is too small"),
        ("52", "no table row"),
        ("13", "mod 8"),
        ("49", "is a square"),
        ("7", "not a positive discriminant"),
    ]:
        code, out, err = run(capsys, "sv", "--d", D)
        assert code == 2, D
        assert out == "", D
        assert err.startswith("error:") and err.count("error:") == 1, D
        assert err.count("\n") == 1 and reason in err, (D, err)


def test_verify_modular(capsys):
    code, out, _ = run(capsys, "verify", "modular", "--nmax", "500")
    assert code == 0
    assert json.loads(out) == {"N": 500, "violations": []}


def test_verify_identity(capsys):
    code, out, _ = run(capsys, "verify", "identity", "--dmax", "200")
    assert code == 0
    report = json.loads(out)
    assert report["failures"] == []
    assert report["checked"] == len(
        [D for D in range(17, 201, 8) if D not in (25, 49, 81, 121, 169)]
    )


def test_verify_eigen(capsys):
    code, out, _ = run(capsys, "verify", "eigen", "--dmax", "30")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "D,kind,a,b,d,e,check,pass"
    assert len(lines) > 10
    assert all(line.endswith(",pass") for line in lines[1:])


def test_verify_eigen_csv_shape(capsys):
    code, out, _ = run(capsys, "verify", "eigen", "--dmax", "20")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "D,kind,a,b,d,e,check,pass"
    assert all(line.endswith(",pass") for line in lines[1:])
    assert "8,cyl,1,0,1,0,IA,pass" in lines


def test_verify_eigen_csv_pinned(capsys):
    # SHA-256 of the whole `verify eigen --dmax 200` stdout, recorded before
    # the eigen checks became integer identities: any change of verdict shows.
    code, out, _ = run(capsys, "verify", "eigen", "--dmax", "200")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "341f5b7a73e581d07b8875233d31c136adf44d5c103a11b3fe58152f7702d425"
    )


@pytest.mark.parametrize(
    "argv,digest",
    [
        (
            ("verify", "modular", "--nmax", "20000"),
            "2813d827c1254dd0f40fc37c9799ef1f60c27e58bdf49215655a07d47c4e5757",
        ),
        (
            ("verify", "identity", "--dmax", "20000"),
            "fc708b85e31abb556ba529002a6aa11dbf95e214fbfb21ef2ee3d25e13ae4a17",
        ),
    ],
)
def test_verify_number_theory_pinned(capsys, argv, digest):
    # SHA-256 of the whole stdout, recorded while the q-series and S_D were
    # still summed in Fraction: the integer sums must print the same report.
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv,digest",
    [
        (
            ("chi", "--dmin", "5", "--dmax", "2000"),
            "d9a4995018b831b8edeb1b4ba2438b6cf03b663a6e2e8738b4abbafa1e682899",
        ),
        (
            ("conjecture", "--dmax", "2100"),
            "6863c8cd3039d5de9734767da2286e8e33f719526ce9ba26ec38b3304fa48019",
        ),
        (
            ("sv", "--d", "17", "--json"),
            "c9a9f44b711adc777536823f139ddba6044c3dcac4a3a9291e4f889b6d044892",
        ),
        (
            ("sv", "--d", "48"),
            "441503a0d07163eb29baf7613f9154cfefad4e9ec565099d4b6dbefc1b7431f5",
        ),
    ],
)
def test_euler_characteristics_pinned(capsys, argv, digest):
    # SHA-256 of the whole stdout, recorded while m_D summed c(p^(k - 2j))
    # at each prime not dividing e, before that sum became sigma1(p^k).
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_eigen_failure_exit_code(capsys, monkeypatch):
    # One failing check (the triple of D = 8) must set exit code 1.
    real = eigencheck.verify_triple
    monkeypatch.setattr(eigencheck, "verify_triple", lambda p: p.D != 8 and real(p))
    code, out, _ = run(capsys, "verify", "eigen", "--dmax", "12")
    assert code == 1
    lines = out.strip().splitlines()
    assert [line for line in lines if not line.endswith(",pass")] == [
        "8,triple,1,0,1,0,triple,FAIL"
    ]


def test_verify_identity_failure_exit_code(capsys, monkeypatch):
    # A planted S_D fault at D = 33 must set exit code 1 and list that D.
    real = modforms.S_D
    monkeypatch.setattr(modforms, "S_D", lambda D: real(D) + (D == 33))
    code, out, _ = run(capsys, "verify", "identity", "--dmax", "50")
    assert code == 1
    assert json.loads(out) == {"dmax": 50, "checked": 3, "failures": [33]}


def test_protos(capsys):
    code, out, _ = run(capsys, "protos", "--d", "17", "--kind", "cyl")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "D,kind,a,b,d,e"
    assert all(line.startswith("17,cyl,") for line in lines[1:])


@pytest.mark.parametrize(
    "argv,digest",
    [
        (
            ("protos", "--d", "2001", "--kind", "cyl"),
            "aee6cf984588664b91858aeba39cbac0bf2c8caa1bc6622c36366f151394f1c4",
        ),
        (
            ("protos", "--d", "2001", "--kind", "split"),
            "aa5130aa997314efeb0e402f74dc6ab76b770effe02eaa96f88a5530ded58df0",
        ),
        (
            ("protos", "--d", "2000", "--kind", "triple"),
            "5a55f3221b1368189a63691091c31a629a9b0fb08abac1a6146743e2645c63ab",
        ),
    ],
)
def test_protos_pinned(capsys, argv, digest):
    # SHA-256 of the whole stdout, recorded while each family had its own
    # validator and enumeration loop and the lists were sorted afterwards.
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv,digest",
    [
        (
            ("count", "--d", "8", "--proto", "1,0,1,0", "--radius", "20"),
            "49ed09f46304220d8f74eb9a9077786cbacebf912c08245149ec1b3186716091",
        ),
        (
            ("count", "--d", "17", "--proto", "2,1,1,-1", "--radius", "15"),
            "779cab2dd44877c150be2377a281c0adf3979667d0452a09e9f1df78aa81e35d",
        ),
        (
            ("count", "--d", "9", "--proto", "1,0,1,1", "--radius", "8",
             "--slit=0.25,0.125"),
            "068d411c286796188ee1eafbd93bea47baf92f23c41536e0c40e0476c27ffba9",
        ),
        (
            ("count", "--d", "16", "--proto", "1,0,2,0", "--radius", "8"),
            "d90e2da38212bcb208a9143b7dc7180501a08186c4e684624163b250836516ca",
        ),
    ],
)
def test_count_pinned(capsys, argv, digest):
    # SHA-256 of the whole stdout, recorded while enumerate_sc developed
    # wedges from both zeros and family_counts kept only the z1 -> z2 hits;
    # the square-D cases while families were float holonomies within 1e-9 * R.
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_protos_empty(capsys):
    code, out, _ = run(capsys, "protos", "--d", "5", "--kind", "cyl")
    assert code == 0
    assert out == "D,kind,a,b,d,e\n"


@pytest.mark.parametrize("D,kind", [(21, "triple"), (7, "cyl"), (4, "split")])
def test_protos_inadmissible_prints_nothing(capsys, D, kind):
    code, out, err = run(capsys, "protos", "--d", str(D), "--kind", kind)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_count(capsys):
    code, out, _ = run(
        capsys, "count", "--d", "8", "--proto", "1,0,1,0", "--radius", "3.0"
    )
    assert code == 0
    report = json.loads(out)
    assert set(report) == {"R", "estimates", "families"}
    assert report["R"] == 3.0
    assert report["families"]["3"] >= 1


def test_count_discriminant_mismatch(capsys):
    code, out, err = run(
        capsys, "count", "--d", "17", "--proto", "1,0,1,0", "--radius", "2.0"
    )
    assert code == 2
    assert "discriminant 8" in err


def test_count_bad_slit(capsys):
    code, _, err = run(
        capsys,
        "count", "--d", "8", "--proto", "1,0,1,0",
        "--slit", "0.9,0.1", "--radius", "2.0",
    )
    assert code == 2
    assert err.startswith("error:")


def test_count_slit_outside_parallelogram(capsys):
    # The half-systole gate lets this slit through (the estimate is 14.65, the
    # systole 3.16), but it leaves the fundamental parallelogram.
    code, out, err = run(
        capsys,
        "count", "--d", "801", "--proto", "100,33,1,1",
        "--radius", "5", "--slit=2.5,1.0",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "extra",
    [
        ("--radius", "0"),
        ("--radius", "-1"),
        ("--radius", "nan"),
        ("--radius", "inf"),
        ("--radius", "5", "--slit", "nan,0.1"),
        ("--radius", "1e200"),  # finite, but its square overflows: the search would never stop
        ("--radius", "1.3407807929942596e154"),  # its square is finite, but not times 1 + 1e-12
        ("--radius", "1e-160"),  # Area / (pi R^2) overflows: the estimates would read NaN
        ("--radius", "1e-300"),  # pi R^2 underflows to 0
        ("--radius", "5e-324"),  # the family tolerance 1e-9 * R underflows to 0
    ],
)
def test_count_rejects_bad_numbers(capsys, extra):
    # flatcount rejects every radius and slit it cannot use, finite or not.
    try:
        code = dispatch(["count", "--d", "8", "--proto", "1,0,1,0", *extra])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "extra,words",
    [
        (("--radius", "nan"), "radius nan"),
        (("--radius", "inf"), "got inf"),
        (("--radius", "5", "--slit=nan,0.1"), "is not finite"),
        (("--radius", "5", "--slit=1e-200,3e-200"), "too short for the lattice"),
        (("--radius", "5", "--slit=0.05,0"), "parallel to a lattice generator"),
        # Written with "=": argparse reads a bare -1e5 or -inf as an option.
        (("--radius=-1e5",), "got -100000.0"),
        (("--radius=-inf",), "got -inf"),
    ],
)
def test_count_refusal_is_one_error_line(capsys, extra, words):
    # flatcount owns the reason; dispatch prints it as one line, with no usage block.
    code, out, err = run(capsys, "count", "--d", "8", "--proto", "1,0,1,0", *extra)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert words in err


@pytest.mark.parametrize("nmax", ["-1", "-5", "1.5", "x"])
def test_verify_modular_rejects_bad_nmax(nmax):
    with pytest.raises(SystemExit) as exc:
        dispatch(["verify", "modular", "--nmax", nmax])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "identity", "--dmax", "-1"),
        ("verify", "eigen", "--dmax", "-5"),
        ("chi", "--dmin", "-1", "--dmax", "5"),
        ("chi", "--dmin", "10", "--dmax", "5"),
        ("conjecture", "--dmax", "-1"),
        ("conjecture", "--dmax", "1.5"),
    ],
)
def test_bad_range_bounds_are_usage_errors(capsys, argv):
    # A negative or reversed range is a usage error, not a vacuous success.
    try:
        code = dispatch(list(argv))
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv", [("verify", "identity", "--dmax", "0"), ("conjecture", "--dmax", "0")]
)
def test_dmax_zero_is_valid(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert json.loads(out)["failures"] == []


def test_verify_eigen_streams_rows(capsys, monkeypatch):
    # Each row is on stdout before the next one is checked: a failure after
    # three rows leaves the header and those three rows printed.
    def rows(dmax):
        yield from list(eigencheck.verification_rows(dmax))[:3]
        raise RuntimeError("row generator failed")

    monkeypatch.setattr(cli, "verification_rows", rows)
    with pytest.raises(RuntimeError):
        dispatch(["verify", "eigen", "--dmax", "30"])
    assert capsys.readouterr().out.splitlines() == [
        "D,kind,a,b,d,e,check,pass",
        "5,split,1,0,1,-1,w1,pass",
        "5,split,1,0,1,-1,w2,pass",
        "5,split,1,0,1,-1,w3,pass",
    ]


def test_chi_streams_rows():
    # chi writes each row as it is computed: with the sieve sized and the
    # command warmed, its 7,359 rows peak at a few KiB of allocations, where
    # holding them all for one join would take some 650 KiB.
    class Sink:
        def write(self, text):
            return len(text)

    argv = ["chi", "--dmin", "5", "--dmax", "20000"]
    euler.degree_sum(20001, (1,), (1,))
    with contextlib.redirect_stdout(Sink()):
        assert dispatch(argv) == 0
        tracemalloc.start()
        try:
            assert dispatch(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 64 * 1024


def test_verify_modular_accepts_nmax_zero(capsys):
    code, out, _ = run(capsys, "verify", "modular", "--nmax", "0")
    assert code == 0
    assert json.loads(out) == {"N": 0, "violations": []}


def test_conjecture(capsys):
    code, out, _ = run(capsys, "conjecture", "--dmax", "48")
    assert code == 0
    report = json.loads(out)
    assert report["failures"] == []
    assert 17 in report["checked"]
    assert "16" in report["skipped"]


def test_unreadable_table_is_usage_error(capsys, tmp_path):
    code, out, err = run(capsys, "sv", "--d", "12", "--table", str(tmp_path / "missing.csv"))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot read table")


def test_repeated_table_row_is_usage_error(capsys, tmp_path):
    table = tmp_path / "chi.csv"
    table.write_text("60,-1,-3,-1\n60,-2,-3,-1\n")
    code, out, err = run(capsys, "chi", "--dmin", "60", "--dmax", "60", "--table", str(table))
    assert code == 2
    assert out == ""
    assert err == f"error: {table}:2: D = 60 repeats line 1\n"


def test_table_override(capsys, tmp_path):
    # D = 12's row with chi(W_D(4)) = -1 and a wrong chi(W_D(0^3)) = -1/2.
    table = tmp_path / "chi.csv"
    table.write_text("D,chi_w4,chi_w2,chi_w03\n12,-1,-3/2,-1/2\n")
    code, out, err = run(capsys, "conjecture", "--dmax", "48", "--table", str(table))
    assert code == 1
    assert '"failures": [12]' in out
    assert "warning: table row D=12 overrides built-in" in err
    code, out, _ = run(capsys, "sv", "--d", "12", "--table", str(table))
    assert code == 0
    assert "c1=10/3" in out
    code, out, _ = run(capsys, "chi", "--dmin", "12", "--dmax", "12", "--table", str(table))
    assert code == 1
    assert out.splitlines()[1:] == ["12,-1/3,-1/2,NO"]


def test_deterministic_output(capsys):
    _, out1, _ = run(capsys, "verify", "eigen", "--dmax", "40")
    _, out2, _ = run(capsys, "verify", "eigen", "--dmax", "40")
    assert out1 == out2


def test_usage_errors():
    with pytest.raises(SystemExit) as exc:
        dispatch(["sv"])  # missing --d
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        dispatch(["verify", "nonsense"])
    with pytest.raises(SystemExit):
        dispatch(["count", "--d", "8", "--proto", "1,0,1", "--radius", "2"])


@pytest.mark.parametrize(
    "proto,slit", [("1,x,1,0", "0.1,0.1"), ("1,0,1,0", "x,0.1"), ("1,0,1,0", "0.1")]
)
def test_count_rejects_malformed_values(proto, slit):
    with pytest.raises(SystemExit) as exc:
        dispatch(["count", "--d", "8", "--proto", proto, "--slit", slit, "--radius", "2"])
    assert exc.value.code == 2


def _fresh_stdout(*argv):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, "-m", "prymsv.cli", *argv],
        capture_output=True, text=True, env=env, check=True,
    ).stdout


def test_parser_built_once_and_reused(capsys, monkeypatch):
    # One parser serves a usage error and then two different commands; each
    # prints what a fresh process prints.
    built = []
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    with pytest.raises(SystemExit) as exc:
        dispatch(["sv"])
    assert exc.value.code == 2
    capsys.readouterr()
    for argv in (("sv", "--d", "17", "--json"), ("protos", "--d", "33", "--kind", "split")):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == _fresh_stdout(*argv)
    assert len(built) == 1


def test_parser_prog():
    assert build_parser().prog == "prymsv"


def test_readme_says_what_each_command_shows():
    # "What a pass means" has one row per subcommand, and one per verify mode.
    parser = build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    commands = set()
    for name, sub in subparsers.choices.items():
        modes = [a.choices for a in sub._actions if not a.option_strings and a.choices]
        commands |= {f"{name} {m}" for m in modes[0]} if modes else {name}
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## What a pass means\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1].strip() for line in section.splitlines() if line.startswith("| `")]
    assert sorted(row.strip("`") for row in rows) == sorted(commands)
    assert "verify identity" in commands and "verify" not in commands
