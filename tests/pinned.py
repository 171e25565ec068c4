"""Every pinned ``prymsv`` output, written once.

    python3 tests/pinned.py

A pin is one command and what it must print: ``Pin(argv, stdin, expected,
code)``.  ``expected`` is the 64-hex SHA-256 of the whole stdout, the exact
stdout text, or ``None`` when only the exit code ``code`` is checked.  A pin
is recorded once and then only compared: recording one again is a change of
stdout, and CHANGES.md says which pin moved and why.

:data:`PINS` are the pins Tier-1 runs, in process through ``cli.dispatch``
(``tests/test_cli.py::test_pin``).  :data:`CI_PINS` are those only CI runs:
the slow ones, the ones fed on stdin and the exit-code checks.  Each value
is written here and nowhere else under ``tests/`` or ``.github/``
(``tests/test_cli.py::test_each_pin_is_written_once``).

Run as a script, this file runs both lists through the installed ``prymsv``
console script, each command in a fresh process with a 10 s timeout.  It
prints one line per mismatch and a summary line, and exits 1 on any
mismatch, 0 otherwise.  Standard library only; pytest does not collect it.
"""

from __future__ import annotations

import hashlib
import subprocess
import sys
import time
from typing import NamedTuple

TIMEOUT_S = 10


class Pin(NamedTuple):
    argv: tuple[str, ...]
    stdin: str | None
    expected: str | None
    code: int


def _count(*args: str) -> tuple[str, ...]:
    return ("count", "--d", "8", "--proto", "1,0,1,0", *args)


PINS: list[Pin] = [
    # Recorded before the eigen checks became integer identities: any change
    # of verdict shows.
    Pin(
        ("verify", "eigen", "--dmax", "200"),
        None,
        "341f5b7a73e581d07b8875233d31c136adf44d5c103a11b3fe58152f7702d425",
        0,
    ),
    # Recorded while the q-series and S_D were still summed in Fraction: the
    # integer sums must print the same report.
    Pin(
        ("verify", "modular", "--nmax", "20000"),
        None,
        "2813d827c1254dd0f40fc37c9799ef1f60c27e58bdf49215655a07d47c4e5757",
        0,
    ),
    Pin(
        ("verify", "identity", "--dmax", "20000"),
        None,
        "fc708b85e31abb556ba529002a6aa11dbf95e214fbfb21ef2ee3d25e13ae4a17",
        0,
    ),
    # Recorded while m_D summed c(p^(k - 2j)) at each prime not dividing e,
    # before that sum became sigma1(p^k).
    Pin(
        ("chi", "--dmin", "5", "--dmax", "2000"),
        None,
        "d9a4995018b831b8edeb1b4ba2438b6cf03b663a6e2e8738b4abbafa1e682899",
        0,
    ),
    Pin(
        ("conjecture", "--dmax", "2100"),
        None,
        "6863c8cd3039d5de9734767da2286e8e33f719526ce9ba26ec38b3304fa48019",
        0,
    ),
    Pin(
        ("sv", "--d", "17", "--json"),
        None,
        "c9a9f44b711adc777536823f139ddba6044c3dcac4a3a9291e4f889b6d044892",
        0,
    ),
    Pin(
        ("sv", "--d", "48"),
        None,
        "441503a0d07163eb29baf7613f9154cfefad4e9ec565099d4b6dbefc1b7431f5",
        0,
    ),
    # The plain format; an absent b_D reads "-", the token chi uses, not a
    # Python repr.
    Pin(
        ("sv", "--d", "12"),
        None,
        "D=12 component=whole c1=25/9 c2=3 c3=2/9 volume_pi2=-1/8 b_D=0\n",
        0,
    ),
    Pin(
        ("sv", "--d", "17"),
        None,
        "D=17 component=plus c1=25/9 c2=3 c3=2/9 volume_pi2=-1/4 b_D=-\n"
        "D=17 component=minus c1=25/9 c2=3 c3=2/9 volume_pi2=-1/4 b_D=-\n",
        0,
    ),
    # Recorded while each family had its own validator and enumeration loop
    # and the lists were sorted afterwards.
    Pin(
        ("protos", "--d", "2001", "--kind", "cyl"),
        None,
        "aee6cf984588664b91858aeba39cbac0bf2c8caa1bc6622c36366f151394f1c4",
        0,
    ),
    Pin(
        ("protos", "--d", "2001", "--kind", "split"),
        None,
        "aa5130aa997314efeb0e402f74dc6ab76b770effe02eaa96f88a5530ded58df0",
        0,
    ),
    Pin(
        ("protos", "--d", "2000", "--kind", "triple"),
        None,
        "5a55f3221b1368189a63691091c31a629a9b0fb08abac1a6146743e2645c63ab",
        0,
    ),
    # Recorded while enumerate_sc developed wedges from both zeros and
    # family_counts kept only the z1 -> z2 hits; the square-D cases (D = 9
    # and 16) while families were float holonomies within 1e-9 * R.
    Pin(
        _count("--radius", "20"),
        None,
        "49ed09f46304220d8f74eb9a9077786cbacebf912c08245149ec1b3186716091",
        0,
    ),
    Pin(
        ("count", "--d", "17", "--proto", "2,1,1,-1", "--radius", "15"),
        None,
        "779cab2dd44877c150be2377a281c0adf3979667d0452a09e9f1df78aa81e35d",
        0,
    ),
    Pin(
        ("count", "--d", "9", "--proto", "1,0,1,1", "--radius", "8", "--slit=0.25,0.125"),
        None,
        "068d411c286796188ee1eafbd93bea47baf92f23c41536e0c40e0476c27ffba9",
        0,
    ),
    Pin(
        ("count", "--d", "16", "--proto", "1,0,2,0", "--radius", "8"),
        None,
        "d90e2da38212bcb208a9143b7dc7180501a08186c4e684624163b250836516ca",
        0,
    ),
]

# The four digests of `verify modular --nmax 2000`, the two `count --radius 5`
# commands and `conjecture --table /dev/stdin` were recorded where CI checked
# only that these commands exit 0; the whole stdout of `chi` at 10^8 + 1
# where CI checked only its last line.
CI_PINS: list[Pin] = [
    Pin(
        ("verify", "eigen", "--dmax", "500"),
        None,
        "a22f64aad8f21a6026347cfc44fd1943376fa99cd4fb79b5ecc157a7e7098b87",
        0,
    ),
    Pin(
        ("chi", "--dmin", "5", "--dmax", "20000"),
        None,
        "34d7f17c4b53e3df6216e548147472dc2796843f8135dbb2e3bbaf3c8d80251e",
        0,
    ),
    # Past the sieve's cap: n is trial-divided.
    Pin(
        ("chi", "--dmin", "100000001", "--dmax", "100000001"),
        None,
        "D,chi_w03_computed,chi_w03_table,match\n100000001,-20576024128,-,-\n",
        0,
    ),
    # The sieve grows to its cap inside this range.
    Pin(
        ("chi", "--dmin", "79999993", "--dmax", "80000017"),
        None,
        "f6af02678eb37d4ffff62fd03eaea04dc48a27e967b8067313d53a0f0daa9c4b",
        0,
    ),
    # Two table rows on stdin override the built-in ones for D = 12 and 17.
    Pin(
        ("conjecture", "--dmax", "48", "--table", "/dev/stdin"),
        "D,chi_w4,chi_w2,chi_w03\n12,-5/6,-3/2,-1/3\n17,-10/3,-3,-4/3\n",
        "d0d81f9327dc37d16be52a2f3a61081ea3f0840cf91b3c70007e8e62deec5e9d",
        0,
    ),
    Pin(
        ("verify", "modular", "--nmax", "2000"),
        None,
        "e0c296f48057d446b4c2dc0df31bde01a059f5bf89b4c47b64442aba5fcae592",
        0,
    ),
    Pin(("verify", "modular", "--nmax", "100000"), None, '{"N": 100000, "violations": []}\n', 0),
    Pin(
        ("verify", "identity", "--dmax", "2000"),
        None,
        '{"dmax": 2000, "checked": 228, "failures": []}\n',
        0,
    ),
    Pin(
        ("verify", "identity", "--dmax", "100000"),
        None,
        '{"dmax": 100000, "checked": 12342, "failures": []}\n',
        0,
    ),
    Pin(
        _count("--radius", "5"),
        None,
        "666d40b8a7cbb866a9869345069336eea5ad57bc07e7d3a75eed876f64ba4bab",
        0,
    ),
    Pin(
        ("count", "--d", "9", "--proto", "1,0,1,1", "--radius", "5", "--slit=0.25,0.125"),
        None,
        "18ddd1d60b60c16badf2e906ee7147cd5c349a78da625d90fcaa7adfe4ac20c9",
        0,
    ),
    # Usage errors: exit 2.  A radius of nan, 1e200 or inf, if let through,
    # could keep the search running without end.
    Pin(("verify", "modular", "--nmax", "-1"), None, None, 2),
    Pin(("verify", "identity", "--dmax", "-1"), None, None, 2),
    Pin(("chi", "--dmin", "10", "--dmax", "5"), None, None, 2),
    Pin(("protos", "--d", "21", "--kind", "triple"), None, None, 2),
    Pin(_count("--radius", "nan"), None, None, 2),
    Pin(_count("--radius", "1e200"), None, None, 2),
    Pin(_count("--radius", "inf"), None, None, 2),
    Pin(_count("--radius", "5", "--slit=nan,0.1"), None, None, 2),
    Pin(_count("--radius", "5", "--slit=1e-200,3e-200"), None, None, 2),
    Pin(_count("--radius", "1e-160"), None, None, 2),
    Pin(
        ("count", "--d", "801", "--proto", "100,33,1,1", "--radius", "5", "--slit=2.5,1.0"),
        None,
        None,
        2,
    ),
    Pin(("sv", "--d", "12", "--table", "/nonexistent"), None, None, 2),
    # chi(W_D(2)) = 3 >= 0 is no valid table value.
    Pin(("sv", "--d", "12", "--table", "/dev/stdin"), "12,-5/6,3,-1/3\n", None, 2),
]


def _command(pin: Pin) -> str:
    return "prymsv " + " ".join(pin.argv)


def mismatch(pin: Pin, out: str, code: int) -> str | None:
    """One line saying how ``out`` and ``code`` differ from ``pin``, or ``None``."""
    command = _command(pin)
    if code != pin.code:
        return f"{command}: exit code {code}, expected {pin.code}"
    if pin.expected is None:
        return None
    if len(pin.expected) == 64 and all(c in "0123456789abcdef" for c in pin.expected):
        got = hashlib.sha256(out.encode()).hexdigest()
        if got != pin.expected:
            return f"{command}: stdout SHA-256 {got}, expected {pin.expected}"
    elif out != pin.expected:
        shown = out if len(out) <= 200 else out[:200] + "..."
        return f"{command}: stdout {shown!r}, expected {pin.expected!r}"
    return None


def run(pin: Pin) -> str | None:
    """Run ``pin`` through the ``prymsv`` on PATH in a fresh process; its mismatch line."""
    command = _command(pin)
    try:
        done = subprocess.run(
            ["prymsv", *pin.argv],
            input=None if pin.stdin is None else pin.stdin.encode(),
            capture_output=True,
            timeout=TIMEOUT_S,
        )
    except OSError as exc:
        return f"{command}: cannot start prymsv: {exc}"
    except subprocess.TimeoutExpired:
        return f"{command}: no exit within {TIMEOUT_S} s"
    return mismatch(pin, done.stdout.decode("utf-8", "replace"), done.returncode)


def main() -> int:
    started = time.perf_counter()
    pins = PINS + CI_PINS
    bad = 0
    for pin in pins:
        if line := run(pin):
            bad += 1
            print(line, flush=True)
    print(f"{len(pins) - bad} of {len(pins)} pins hold in {time.perf_counter() - started:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
