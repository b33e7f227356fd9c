"""Regenerate the benchmark's pinned reference tables.

    python3 perfbench/refs.py refs     # refs.json: mpmath values, 40 digits
    python3 perfbench/refs.py pinned   # pinned.json: default-seed outputs

``refs.json`` holds, for every instance a workload can run, the exact E[X]
(and Var[X] where a simulation is checked) plus the leading-term asymptotic,
all computed with mpmath independently of the program:

* random placement, multiset rule: the survival sum
  sum_l (1 - I_{(l/N)^r}(q+1, p))^D, stopped once the remaining terms are
  provably below 1e-35 of the total (the curve is nonincreasing);
* symmetric placement, per-cluster rule: with f(x) = (1 - I_x(q+1, p)^r)^(N/g),
  E[X] = (N+1) int f and E[X^2] = 2(N+1)(N+2) int x f - E[X], integrated
  by tanh-sinh between breakpoints around the decay scale of f; for p = 1
  the Beta closed form cross-checks the quadrature.

``pinned.json`` holds what the program prints for the default-seed commands;
it is produced by the program itself and guards determinism, not accuracy.
Run from the repository root; ``pinned`` needs ``src`` importable.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import tempfile
from math import comb
from pathlib import Path

import mpmath
from mpmath import mp, mpf

import workloads as wl

DPS = 40
CUTOFF = mpf(10) ** -35
# largest relative error estimate accepted from a tanh-sinh quadrature
QUAD_REL_ERR = mpf(10) ** -25


def _complement(y, p: int, q: int):
    """1 - I_y(q+1, p): at most q of the p+q chunks are erased."""
    n = p + q
    return mpmath.fsum(comb(n, j) * y**j * (1 - y) ** (n - j) for j in range(q + 1))


def _tail(x, p: int, q: int):
    """I_x(q+1, p): at least q+1 of the p+q chunks are erased."""
    n = p + q
    return mpmath.fsum(comb(n, j) * x**j * (1 - x) ** (n - j)
                       for j in range(q + 1, n + 1))


def random_moments(code, nodes: int, docs: int) -> tuple:
    """Exact E[X] and E[X^2] under random placement, multiset rule."""
    p, q, r = code
    first = second = mpf(0)
    n = mpf(nodes)
    for l in range(nodes + 1):
        surv = _complement((l / n) ** r, p, q) ** docs
        first += surv
        second += (2 * l + 1) * surv
        # every later term is at most surv, and there are nodes - l of them
        if surv * (nodes - l) * (2 * nodes + 1) < CUTOFF * first:
            break
    return first, second


def _integrate(fn, breaks) -> mpf:
    value, err = mpmath.quad(fn, breaks, error=True, maxdegree=10)
    if err > QUAD_REL_ERR * abs(value):
        raise ArithmeticError(f"quadrature error {err} on {value}")
    return value


def symmetric_moments(code, nodes: int) -> tuple:
    """Exact E[X] and E[X^2] under symmetric placement, per-cluster rule."""
    p, q, r = code
    groups = nodes // ((p + q) * r)
    s = r * (q + 1)
    # f decays where groups * C(p+q, q+1)^r * x^s is about 1
    scale = (mpf(1) / (groups * comb(p + q, q + 1) ** r)) ** (mpf(1) / s)
    breaks = [mpf(0)] + [scale * mpf(2) ** k for k in range(-30, 40)
                         if scale * mpf(2) ** k < 1] + [mpf(1)]

    def f(x):
        return (1 - _tail(x, p, q) ** r) ** groups

    first = (nodes + 1) * _integrate(f, breaks)
    second = 2 * (nodes + 1) * (nodes + 2) * _integrate(lambda x: x * f(x), breaks) - first
    if p == 1:
        beta = (nodes + 1) / mpf(s) * mpmath.beta(mpf(nodes) / s + 1, mpf(1) / s)
        if abs(beta - first) > QUAD_REL_ERR * first:
            raise ArithmeticError(f"quadrature {first} disagrees with Beta {beta}")
    return first, second


def random_asymptotic(code, nodes: int, docs: int):
    p, q, r = code
    s = r * (q + 1)
    return (mpmath.gamma(1 + mpf(1) / s) / mpf(comb(p + q, q + 1)) ** (mpf(1) / s)
            * nodes * mpf(docs) ** (-mpf(1) / s))


def symmetric_asymptotic(code, nodes: int):
    p, q, r = code
    s = r * (q + 1)
    return (mpmath.gamma(1 + mpf(1) / s) * mpf((p + q) * r) ** (mpf(1) / s)
            / mpf(comb(p + q, q + 1)) ** (mpf(1) / (q + 1))
            * mpf(nodes) ** (1 - mpf(1) / s))


def _s(value) -> str:
    return mpmath.nstr(value, DPS - 5, min_fixed=-mpmath.inf, max_fixed=mpmath.inf)


def build_refs() -> dict:
    mp.dps = DPS
    random_cases = {}   # key -> (code, N, D, wants variance)
    for code in wl.ANALYTIC_CODES:
        for nodes in wl.RANDOM_NODES:
            for docs in wl.RANDOM_DOCS:
                random_cases[wl.random_key(code, nodes, docs)] = (code, nodes, docs, False)
    for code, nodes, docs in wl.simulate_points():
        random_cases[wl.random_key(code, nodes, docs)] = (code, nodes, docs, True)
    symmetric_cases = {}
    for code in wl.ANALYTIC_CODES:
        for nodes in wl.SYMMETRIC_NODES:
            symmetric_cases[wl.symmetric_key(code, nodes)] = (code, nodes)
    for code, nodes in wl.sweep_points():
        symmetric_cases[wl.symmetric_key(code, nodes)] = (code, nodes)

    table = {"dps": DPS, "random": {}, "symmetric": {}}
    for i, (key, (code, nodes, docs, want_var)) in enumerate(sorted(random_cases.items())):
        first, second = random_moments(code, nodes, docs)
        entry = {"exact": _s(first),
                 "asymptotic": _s(random_asymptotic(code, nodes, docs))}
        if want_var:
            entry["var"] = _s(second - first**2)
        table["random"][key] = entry
        print(f"[{i + 1}/{len(random_cases)}] {key}", file=sys.stderr, flush=True)
    for i, (key, (code, nodes)) in enumerate(sorted(symmetric_cases.items())):
        first, second = symmetric_moments(code, nodes)
        table["symmetric"][key] = {
            "exact": _s(first), "var": _s(second - first**2),
            "asymptotic": _s(symmetric_asymptotic(code, nodes)),
        }
        print(f"[{i + 1}/{len(symmetric_cases)}] {key}", file=sys.stderr, flush=True)
    return table


def _run_cli(argv: list[str]) -> str:
    from rec_persist.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    if rc != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {rc}")
    return out.getvalue()


def build_pinned() -> dict:
    sys.path.insert(0, str(wl.HERE.parent / "src"))
    pinned = {"simulate": {}, "sweep": {}}
    for code, nodes, docs in wl.simulate_points():
        argv = wl.simulate_argv(code, nodes, docs, None)
        pinned["simulate"][" ".join(argv)] = _run_cli(argv)
    out_root = wl.HERE.parent / ".perfbench-out"
    out_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_root) as out_dir:
        for cmd in wl.sweep_deck(random.Random(0), out_dir):
            preset = cmd.meta["pinned"]
            if preset is None:
                continue
            stdout = _run_cli(cmd.argv)
            csv_path = stdout.split("wrote ", 1)[1].split(" and ", 1)[0]
            pinned["sweep"][preset] = wl.sweep_sim_rows(Path(csv_path).read_text())
    return pinned


def main(argv: list[str]) -> int:
    if argv not in (["refs"], ["pinned"]):
        print(__doc__, file=sys.stderr)
        return 2
    if argv == ["refs"]:
        data, path = build_refs(), wl.REFS_PATH
    else:
        data, path = build_pinned(), wl.PINNED_PATH
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
