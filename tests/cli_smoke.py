"""CLI smoke cases: rec-persist commands at the north-star sizes and at
every documented exit code, plus four checks of the library API.

Each case is one command, the exit code it must return, the files written
to its directory before it runs and the checks made after it.  run_case
runs a case in-process through rec_persist.cli.main in a fresh temporary
directory; an uncaught exception fails it.  This module imports only the
standard library and rec_persist, so it runs against an install whose
only dependency is numpy:

    python tests/cli_smoke.py

runs every case and API check, prints one line each and exits 1 if any
fails.  Run from outside the checkout it tests the installed package; with
PYTHONPATH=src, the source tree.  The tier-1 suite runs each case and
check as one test (tests/test_sweep_cli.py).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import rec_persist
from rec_persist import (
    LossSemantics,
    RecParams,
    SimConfig,
    SystemParams,
    WorkloadClass,
    exact_symmetric_expectation,
    persistency,
    place_symmetric,
    simulate_trials,
)
from rec_persist.cli import main


@dataclass(frozen=True)
class Case:
    """A command as plain words, the exit code it must return, the files
    (name to text) written before it runs, and the checks made after it:
    each takes its stdout and stderr and returns a failure message or None."""

    argv: str
    code: int = 0
    before: dict = field(default_factory=dict)
    after: tuple = ()


def _lines(path: str, count: int):
    def check(stdout, stderr):
        found = Path(path).read_text().count("\n")
        if found != count:
            return f"{path} has {found} lines, expected {count}"
    return check


def _absent(path: str):
    def check(stdout, stderr):
        if os.path.lexists(path):
            return f"{path} exists"
    return check


def _prints(prefix: str):
    def check(stdout, stderr):
        if not any(line.startswith(prefix) for line in stdout.splitlines()):
            return f"no stdout line starts with {prefix!r}"
    return check


def _in_stderr(text: str):
    def check(stdout, stderr):
        if text not in stderr:
            return f"stderr does not say {text!r}"
    return check


_ONE_SWEEP = {"strategy": "random", "p": 1, "q": 0, "r": 2, "nodes": [48],
              "docs": 5, "trials": 2}

CASES = (
    *(Case("analytic --strategy random --p 1 --q 1 --r 2 --nodes 1000 "
           f"--docs 1000 --method {method}")
      for method in ("sum", "integral", "asymptotic", "beta-exact")),
    # an N = 1e6 survival sum, whose first block is sized to its head
    Case("analytic --strategy random --p 1 --q 0 --r 2 --nodes 1000000 "
         "--docs 1000000000 --method sum"),
    Case("simulate --strategy random --p 1 --q 0 --r 2 --nodes 48 --docs 5 "
         "--trials 20"),
    # mixed classes: the batched random path stacks one table per class
    Case("simulate --strategy random --class 1,0,2,5 --class 2,1,2,48 "
         "--nodes 48 --trials 20"),
    # a billion symmetric documents: simulate stores one period
    Case("simulate --strategy symmetric --p 2 --q 1 --r 2 --nodes 1200 "
         "--docs 1000000000 --trials 5"),
    Case("sweep --preset fig7 --points 2 --trials 2 --out sweep-out"),
    # a full symmetric grid: the exact column of all 62 points is one
    # shared quadrature
    Case("sweep --preset fig9 --trials 2 --out sweep-out",
         after=(_lines("sweep-out/fig9-symmetric-p1-q2-r1.csv", 63),)),
    # a master seed of three 32-bit entropy words
    Case("simulate --strategy random --p 2 --q 1 --r 2 --nodes 48 --docs 5 "
         "--trials 20 --seed 18446744073709551616"),
    # D past the float range exits 2, a parameter error, on the sum and
    # integral routes; the asymptotic takes any D
    *(Case("analytic --strategy random --p 1 --q 0 --r 2 --nodes 1000 "
           f"--method {method} --docs 1" + "0" * 400, code=2)
      for method in ("sum", "integral")),
    Case("analytic --strategy random --p 1 --q 0 --r 2 --nodes 1000 "
         "--method asymptotic --docs 1" + "0" * 400, after=(_prints("RESULT "),)),
    # N past the float range, and N + 1 past np.intp for the sum, exit 2
    Case("analytic --strategy symmetric --p 1 --q 0 --r 2 --docs 1 "
         "--method integral --nodes 1" + "0" * 400, code=2),
    Case("analytic --strategy random --p 1 --q 0 --r 2 --docs 1 --method sum "
         "--nodes 9223372036854775808", code=2),
    # a survival sum whose predicted head passes the term limit exits 2
    # before it holds a term
    Case("analytic --strategy random --p 1 --q 1 --r 2 "
         "--nodes 9223372036854775806 --docs 1000 --method sum", code=2),
    # beta-exact at a D whose square has no float
    Case("analytic --strategy random --p 1 --q 0 --r 2 --nodes 1000 "
         "--method beta-exact --docs 1" + "0" * 200,
         after=(_prints("RESULT "),)),
    # an --out that cannot be written exits 2
    Case("sweep --preset fig7 --points 1 --trials 2 --out not-a-dir", code=2,
         before={"not-a-dir": ""}),
    # a sweep refused before it runs exits 2 and leaves no --out behind
    Case("sweep --preset fig7 --points 1 --trials 100000000000000 "
         "--out refused-out", code=2, after=(_absent("refused-out"),)),
    # the exact baselines, one run of each --what
    *(Case(f"oracle --what {what} --p 2 --q 1 --r 2 --nodes 6")
      for what in ("symmetric-exact", "brute-symmetric", "brute-random")),
    Case("oracle --what group-poly --p 2 --q 1 --r 2"),
    # brute force places one period of 1e11 documents, not all of them
    Case("oracle --what brute-symmetric --p 1 --q 0 --r 2 --nodes 4 "
         "--docs 100000000000", after=(_prints("E[X] = 8/3 "),)),
    # 3 documents on 9 nodes do not wrap, though g = 2 does not divide 9:
    # the symmetric theory holds with power D
    Case("analytic --strategy symmetric --p 1 --q 1 --r 1 --nodes 9 --docs 3 "
         "--method integral", after=(_prints("RESULT "),)),
    Case("oracle --what symmetric-exact --p 1 --q 1 --r 1 --nodes 9 --docs 3",
         after=(_prints("E[X] = 32/7 "),)),
    # 2977 documents of g = 2 wrap onto 2977 distinct windows: the leading
    # term takes that count, and the exact routes refuse the overlap
    Case("analytic --strategy symmetric --p 1 --q 1 --r 1 --nodes 2977 "
         "--docs 2977 --method asymptotic",
         after=(_prints("RESULT strategy=symmetric method=asymptotic p=1 q=1 r=1 "
                        "nodes=2977 docs=2977 value=48.354217317977"),)),
    Case("analytic --strategy symmetric --p 1 --q 1 --r 1 --nodes 2977 "
         "--docs 2977 --method integral", code=2,
         after=(_in_stderr("symmetric placement wraps"),)),
    # kappa * power past the float range: the leading term is still finite
    Case("analytic --strategy symmetric --p 2 --q 1 --r 700 --nodes 2100 "
         "--docs 1 --method asymptotic"),
    # a sweep name too long for the file system exits 2 before any sweep
    # of the config runs, so nothing is written
    Case("sweep --config long-name.json --out long-name-out", code=2,
         before={"long-name.json": json.dumps({"schema_version": 1, "sweeps": [
             {"name": "first", **_ONE_SWEEP}, {"name": "x" * 300, **_ONE_SWEEP},
         ]})},
         after=(_absent("long-name-out"),)),
    # a repeated N would simulate one point twice from one master seed
    Case("sweep --config repeat.json --out repeat-out", code=2,
         before={"repeat.json": json.dumps({"schema_version": 1, "sweeps": [
             {"name": "repeat", **_ONE_SWEEP, "nodes": [48, 96, 48]},
         ]})},
         after=(_in_stderr("48 appears 2 times"), _absent("repeat-out"))),
    # a repeated theory overlay would compute and write one column twice
    Case("sweep --config overlays.json --out overlays-out", code=2,
         before={"overlays.json": json.dumps({"schema_version": 1, "sweeps": [
             {"name": "overlays", **_ONE_SWEEP,
              "theory": ["exact", "exact", "asymptotic", "asymptotic"]},
         ]})},
         after=(_in_stderr("'exact' appears 2 times"), _absent("overlays-out"))),
)


def label(case: Case) -> str:
    """case.argv with each long power of ten written as 1eK."""
    return re.sub(r"10{29,}", lambda m: f"1e{len(m[0]) - 1}", case.argv)


def run_case(case: Case) -> list[str]:
    """Run case in a fresh temporary directory; its failures, [] if none."""
    out, err = io.StringIO(), io.StringIO()
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, text in case.before.items():
                Path(name).write_text(text)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(case.argv.split())
            failures = [] if code == case.code else [
                f"exit code {code}, expected {case.code}; stderr: {err.getvalue()!r}"
            ]
            failures += filter(None, (check(out.getvalue(), err.getvalue())
                                      for check in case.after))
        finally:
            os.chdir(home)
    return failures


def check_simulate_trials() -> list[str]:
    """Per-trial X from the library: one value a trial, in [1, N]."""
    xs = simulate_trials(
        SimConfig("random", (WorkloadClass(RecParams(2, 1, 2), 48),), 48, 20, 0)
    )
    if xs.shape == (20,) and 1 <= xs.min() and xs.max() <= 48:
        return []
    return [f"simulate_trials gave {xs!r}"]


def check_persistency() -> list[str]:
    """persistency of a placement array, checked against its order."""
    rec = RecParams(1, 0, 2)
    table = place_symmetric(rec, SystemParams(4, 2))
    x = persistency(rec, table, [0, 1, 2, 3], LossSemantics.MULTISET)
    return [] if x == 2 else [f"persistency gave {x}, expected 2"]


def check_rule_names() -> list[str]:
    """A loss rule's name is the rule, in an oracle and in persistency."""
    rec, system = RecParams(1, 0, 2), SystemParams(4, 2)
    failures = []
    e = exact_symmetric_expectation(rec, system, "per-cluster")
    if e != Fraction(8, 3):
        failures.append(f"exact_symmetric_expectation gave {e}, expected 8/3")
    x = persistency(rec, place_symmetric(rec, system), [0, 1, 2, 3], "multiset")
    if x != 2:
        failures.append(f"persistency gave {x}, expected 2")
    return failures


def check_probe_loads() -> list[str]:
    """A fresh interpreter importing the CLI entry point loads only the
    package, cli, errors and model of rec_persist, and no numpy."""
    script = ("import sys\nfrom rec_persist.cli import main\n"
              "print(sorted(m for m in sys.modules"
              " if m.split('.')[0] == 'rec_persist' or m == 'numpy'))")
    # the package this process runs, installed or a source tree
    env = {**os.environ, "PYTHONPATH": str(Path(rec_persist.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    want = str(["rec_persist", "rec_persist.cli", "rec_persist.errors",
                "rec_persist.model"])
    got = proc.stdout.strip() if proc.returncode == 0 else proc.stderr.strip()
    return [] if got == want else [f"the CLI import loaded {got}, expected {want}"]


API_CHECKS = (check_simulate_trials, check_persistency, check_rule_names,
              check_probe_loads)


def _main() -> int:
    runs = [(label(case), lambda case=case: run_case(case)) for case in CASES]
    runs += [(check.__name__, check) for check in API_CHECKS]
    failed = 0
    for name, run in runs:
        try:
            failures = run()
        except Exception:
            failures = [traceback.format_exc()]
        print(f"{'FAIL' if failures else 'PASS'} {name}")
        for failure in failures:
            print("    " + failure.rstrip().replace("\n", "\n    "))
        failed += bool(failures)
    print(f"{len(runs) - failed}/{len(runs)} smoke checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(_main())
