"""Workload decks of rec-persist CLI commands, and the checks on their output.

A workload is a *deck* of commands. The benchmark seed chooses the
simulation master seeds and, for ``simulate-random``, which node counts of
each size bin are drawn; the instances themselves come from fixed grids so
that every answer has a pinned reference (``refs.json``, regenerated by
``refs.py``). A run replays its one deck, reshuffled by the seed each time,
as often as its time allows, so every command is timed once per pass.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass, field
from typing import NamedTuple
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFS_PATH = HERE / "refs.json"
PINNED_PATH = HERE / "pinned.json"
KNOWN_DEFECTS_PATH = HERE / "known_defects.json"

WORKLOADS = ("analytic-range", "simulate-random", "sweep-symmetric")

# REC(p, p+q, r) codes of the analytic grid, as (p, q, r):
# REC(1,1,2), REC(1,2,2), REC(2,3,2), REC(1,3,1), REC(3,5,2).
ANALYTIC_CODES = ((1, 0, 2), (1, 1, 2), (2, 1, 2), (1, 2, 1), (3, 2, 2))
RANDOM_NODES = (10**3, 10**4, 10**5, 10**6)
RANDOM_DOCS = (10**3, 10**6, 10**9)
# 1200 * 10^k is a multiple of every group size g = (p+q)r in the grid.
SYMMETRIC_NODES = (1200, 12000, 120000, 1200000)
# A single N = 1e6 survival sum takes about 16 s, so sums stop at 1e5.
SUM_MAX_NODES = 10**5
# the quadrature tolerance of `analytic --method integral` and of sweep overlays
DEFAULT_TOL = 1e-10

# REC(1,1,2), where both loss rules coincide, and REC(2,3,2), where they differ.
SIM_CODES = ((1, 0, 2), (2, 1, 2))
FIG_GRID = tuple(48 * k for k in range(1, 63))
# A deck takes every SIM_STRIDE-th grid size from a seeded offset, per code
# and D rule (and every MIXED_STRIDE-th for mixed classes), so the seed
# varies N while the work of a deck stays nearly constant.
SIM_STRIDE = 2
MIXED_STRIDE = 4
SIM_DOC_RULES = ("5", "N")
SIM_TRIALS = 20

SWEEP_PRESETS = {"fig7": (2, 2, 1), "fig9": (1, 2, 1)}
SWEEP_CONFIG_CODE = (2, 1, 2)
SWEEP_CONFIG_NAME = "bench-symmetric-p2-q1-r2"
SWEEP_TRIALS = 20

# A run replays its deck at least this often, so every command has a best time.
MIN_PASSES = 2
# Simulated means must lie within this many exact standard errors.
Z_LIMIT = 5.0
# Floor of the relative tolerance used for every analytic check.
REL_FLOOR = 1e-12


def random_key(code, nodes: int, docs: int) -> str:
    p, q, r = code
    return f"random p={p} q={q} r={r} N={nodes} D={docs}"


def symmetric_key(code, nodes: int) -> str:
    p, q, r = code
    return f"symmetric p={p} q={q} r={r} N={nodes}"


def _code_flags(code) -> list[str]:
    p, q, r = code
    return ["--p", str(p), "--q", str(q), "--r", str(r)]


@dataclass
class Command:
    """One CLI invocation plus what its output is checked against."""

    argv: list[str]
    kind: str  # "analytic", "simulate" or "sweep"
    meta: dict = field(default_factory=dict)
    # files written before the command runs: name -> text
    files: dict = field(default_factory=dict)

    @property
    def key(self) -> str:
        """Names the command in reports; stable across runs and checkouts."""
        return self.meta.get("key") or " ".join(self.argv)


# ---------------------------------------------------------------- decks


def analytic_commands() -> list[Command]:
    """Every command of the analytic-range deck, in grid order."""
    sizes = ([("random", n, d) for n in RANDOM_NODES for d in RANDOM_DOCS]
             + [("symmetric", n, n) for n in SYMMETRIC_NODES])
    cmds = []
    for code in ANALYTIC_CODES:
        for strategy, nodes, docs in sizes:
            routes = ["integral"]
            if strategy == "random" and nodes <= SUM_MAX_NODES:
                routes.append("sum")
            if code[0] == 1:
                routes.append("beta-exact")
            routes.append("asymptotic")
            cmds += [_analytic(strategy, code, nodes, docs, method) for method in routes]
    return cmds


def _analytic(strategy, code, nodes, docs, method) -> Command:
    argv = ["analytic", "--strategy", strategy, *_code_flags(code),
            "--nodes", str(nodes), "--docs", str(docs), "--method", method]
    if strategy == "random":
        ref_key = random_key(code, nodes, docs)
    else:
        ref_key = symmetric_key(code, nodes)
    return Command(argv, "analytic", {
        "ref": ref_key,
        "field": "asymptotic" if method == "asymptotic" else "exact",
        "tol": DEFAULT_TOL if method == "integral" else None,
    })


def simulate_points() -> list[tuple[tuple[int, int, int], int, int]]:
    """Every single-class (code, N, D) point simulate-random can draw."""
    return [
        (code, nodes, 5 if rule == "5" else nodes)
        for code in SIM_CODES for rule in SIM_DOC_RULES for nodes in FIG_GRID
    ]


def simulate_argv(code, nodes: int, docs: int, seed: int | None) -> list[str]:
    argv = ["simulate", "--strategy", "random", *_code_flags(code),
            "--nodes", str(nodes), "--docs", str(docs),
            "--trials", str(SIM_TRIALS)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    return argv


def simulate_deck(rng: random.Random) -> list[Command]:
    cmds = []
    for code in SIM_CODES:
        for rule in SIM_DOC_RULES:
            grid = FIG_GRID[rng.randrange(SIM_STRIDE)::SIM_STRIDE]
            # one command per (code, D rule) runs on the default seed and
            # must reproduce its pinned output byte for byte
            default = rng.randrange(len(grid))
            for i, nodes in enumerate(grid):
                docs = 5 if rule == "5" else nodes
                seed = None if i == default else rng.randrange(2**31)
                cmds.append(Command(
                    simulate_argv(code, nodes, docs, seed), "simulate",
                    {"nodes": nodes, "trials": SIM_TRIALS,
                     "ref": random_key(code, nodes, docs),
                     "pinned": seed is None},
                ))
    # mixed workloads have no closed form: only the range of X is checked
    for nodes in FIG_GRID[rng.randrange(MIXED_STRIDE)::MIXED_STRIDE]:
        argv = ["simulate", "--strategy", "random",
                "--class", "1,0,2,5", "--class", f"2,1,2,{nodes}",
                "--nodes", str(nodes), "--trials", str(SIM_TRIALS),
                "--seed", str(rng.randrange(2**31))]
        cmds.append(Command(argv, "simulate",
                            {"nodes": nodes, "trials": SIM_TRIALS,
                             "ref": None, "pinned": False}))
    return cmds


def sweep_config(nodes, seed: int) -> dict:
    p, q, r = SWEEP_CONFIG_CODE
    return {
        "schema_version": 1,
        "sweeps": [{
            "name": SWEEP_CONFIG_NAME,
            "strategy": "symmetric", "p": p, "q": q, "r": r,
            "nodes": list(nodes), "docs": "N/g",
            "semantics": "per-cluster", "seed": seed,
            "theory": ["exact", "asymptotic"],
        }],
    }


def sweep_deck(rng: random.Random, out_dir: str) -> list[Command]:
    cmds = []
    for preset, code in SWEEP_PRESETS.items():
        argv = ["sweep", "--preset", preset, "--trials", str(SWEEP_TRIALS),
                "--out", out_dir]
        cmds.append(Command(argv, "sweep",
                            {"code": code, "trials": SWEEP_TRIALS, "nodes": FIG_GRID,
                             "pinned": preset, "key": " ".join(argv[:-2])}))
    seed = rng.randrange(2**31)
    config_path = str(Path(out_dir) / "sweep-config.json")
    argv = ["sweep", "--config", config_path, "--trials", str(SWEEP_TRIALS),
            "--out", out_dir]
    key = f"sweep --config {{{SWEEP_CONFIG_NAME}, seed {seed}}} --trials {SWEEP_TRIALS}"
    cmds.append(Command(argv, "sweep",
                        {"code": SWEEP_CONFIG_CODE, "trials": SWEEP_TRIALS,
                         "nodes": FIG_GRID, "pinned": None, "key": key},
                        files={config_path: json.dumps(sweep_config(FIG_GRID, seed))}))
    return cmds


def sweep_points() -> list[tuple[tuple[int, int, int], int]]:
    codes = list(SWEEP_PRESETS.values()) + [SWEEP_CONFIG_CODE]
    return [(code, nodes) for code in codes for nodes in FIG_GRID]


def decks(workload: str, seed: int, out_dir: str):
    """The workload's seeded deck, reshuffled for every pass, endlessly."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(seed)
    if workload == "analytic-range":
        cmds = analytic_commands()
    elif workload == "simulate-random":
        cmds = simulate_deck(rng)
    else:
        cmds = sweep_deck(rng, out_dir)
    while True:
        rng.shuffle(cmds)
        yield list(cmds)


def warmup_commands(workload: str, out_dir: str) -> list[Command]:
    """Small commands run before timing so lazy set-up is not timed."""
    if workload == "analytic-range":
        return [_analytic(s, (1, 1, 2), 1200, 1200, m)
                for s in ("random", "symmetric")
                for m in ("integral", "beta-exact", "asymptotic")]
    if workload == "simulate-random":
        return [Command(simulate_argv((2, 1, 2), 96, 96, 1), "simulate")]
    return [Command(["sweep", "--preset", "fig9", "--points", "2",
                     "--trials", "2", "--out", out_dir], "sweep")]


# ---------------------------------------------------------------- checks


def load_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def missing_refs(workload: str, refs: dict) -> list[str]:
    """Every reference the workload can need that refs lacks."""
    if workload == "analytic-range":
        needs = [(c.meta["ref"], (c.meta["field"],)) for c in analytic_commands()]
    elif workload == "simulate-random":
        needs = [(random_key(code, n, d), ("exact", "var"))
                 for code, n, d in simulate_points()]
    else:
        needs = [(symmetric_key(code, n), ("exact", "var", "asymptotic"))
                 for code, n in sweep_points()]
    return [f"{key} [{f}]" for key, fields in needs for f in fields
            if f not in refs.get(key.split()[0], {}).get(key, {})]


def _ref(refs: dict, key: str, name: str) -> float:
    return float(refs[key.split()[0]][key][name])


def _within(value: float, ref: float, bound: float, tol: float | None) -> bool:
    return abs(value - ref) <= bound + max(tol or 0.0, REL_FLOOR) * abs(ref)


def _parse_result_line(stdout: str) -> dict:
    for line in stdout.splitlines():
        if line.startswith("RESULT "):
            return dict(item.split("=", 1) for item in line.split()[1:])
    raise ValueError("no RESULT line")


class Problem(NamedTuple):
    """One way a command's output misses its check.

    ``id`` is stable across runs, so known_defects.json can name it.
    ``kind`` says how the output missed (``value``, ``exit 1``, ``mean``, ...)
    and ``rel_err`` how far, where that is a relative error: the distance of
    a value from its reference, or the tolerance a failed quadrature reached.
    """

    id: str
    kind: str
    rel_err: float | None
    message: str


# A check returns a list of problems; an empty list is a pass.


def check_analytic(cmd: Command, stdout: str, refs: dict) -> list[Problem]:
    fields = _parse_result_line(stdout)
    value = float(fields["value"])
    bound = 0.0 if fields["error_bound"] == "none" else float(fields["error_bound"])
    ref = _ref(refs, cmd.meta["ref"], cmd.meta["field"])
    if _within(value, ref, bound, cmd.meta["tol"]):
        return []
    rel = abs(value - ref) / abs(ref)
    return [Problem(cmd.key, "value", rel,
                    f"value {value!r} vs reference {ref!r}: relative error {rel:.3g} "
                    f"beyond error_bound={bound!r}, tol={cmd.meta['tol']!r}")]


def _z_check(mean: float, trials: int, refs: dict, key: str) -> str | None:
    mu = _ref(refs, key, "exact")
    se = math.sqrt(_ref(refs, key, "var") / trials)
    z = (mean - mu) / se
    if abs(z) <= Z_LIMIT:
        return None
    return f"mean {mean!r} is {z:+.2f} exact standard errors from {mu!r}"


def check_simulate(cmd: Command, stdout: str, refs: dict, pinned: dict) -> list[Problem]:
    lines = stdout.splitlines()
    values = dict(zip(lines[-2].split(","), lines[-1].split(",")))
    nodes, trials = cmd.meta["nodes"], cmd.meta["trials"]
    problems = []
    lo, hi = int(values["min"]), int(values["max"])
    if not 1 <= lo <= hi <= nodes:
        problems.append(("range", f"min={lo}, max={hi} outside 1 <= min <= max <= N={nodes}"))
    if int(values["trials"]) != trials:
        problems.append(("trials", f"trials={values['trials']}, expected {trials}"))
    if cmd.meta["ref"] is not None:
        problem = _z_check(float(values["mean_empirical"]), trials, refs, cmd.meta["ref"])
        if problem:
            problems.append(("mean", problem))
    if cmd.meta["pinned"] and stdout != pinned["simulate"].get(cmd.key):
        problems.append(("pinned", "default-seed output differs from its pinned output"))
    return [Problem(f"{cmd.key} :: {what}", what, None, msg) for what, msg in problems]


SWEEP_SIM_COLUMNS = ("strategy", "p", "q", "r", "N", "D", "trials", "seed",
                     "mean_empirical", "std_error", "semantics")
# theory column -> (reference field, quadrature tolerance of the overlay)
SWEEP_OVERLAYS = {"theory_exact": ("exact", DEFAULT_TOL),
                  "theory_asymptotic": ("asymptotic", None),
                  "theory_beta_exact": ("exact", None)}


def sweep_sim_rows(csv_text: str) -> list[str]:
    """The simulation columns of a sweep CSV, one string per row."""
    lines = csv_text.splitlines()
    header = lines[0].split(",")
    cols = [header.index(c) for c in SWEEP_SIM_COLUMNS]
    return [",".join(line.split(",")[i] for i in cols) for line in lines[1:]]


def check_sweep(cmd: Command, csv_text: str, refs: dict, pinned: dict) -> list[Problem]:
    lines = csv_text.splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    if [int(r["N"]) for r in rows] != list(cmd.meta["nodes"]):
        return [Problem(f"{cmd.key} :: grid", "grid", None,
                        "sweep rows do not cover the requested nodes")]
    code, trials = cmd.meta["code"], cmd.meta["trials"]
    g = (code[0] + code[1]) * code[2]
    problems = []
    for row in rows:
        nodes = int(row["N"])
        key = symmetric_key(code, nodes)
        if int(row["D"]) != nodes // g or int(row["trials"]) != trials:
            problems.append((f"N={nodes} size", "size", None,
                             f"D={row['D']}, trials={row['trials']}"))
            continue
        problem = _z_check(float(row["mean_empirical"]), trials, refs, key)
        if problem:
            problems.append((f"N={nodes} mean", "mean", None, problem))
        for column, (field_name, tol) in SWEEP_OVERLAYS.items():
            if row.get(column):
                value, ref = float(row[column]), _ref(refs, key, field_name)
                if not _within(value, ref, 0.0, tol):
                    rel = abs(value - ref) / abs(ref)
                    problems.append((f"N={nodes} {column}", "value", rel,
                                     f"{value!r} vs reference {ref!r}: relative error "
                                     f"{rel:.3g}, tol={tol!r}"))
    if cmd.meta["pinned"]:
        if sweep_sim_rows(csv_text) != pinned["sweep"][cmd.meta["pinned"]]:
            problems.append(("pinned", "pinned", None,
                             "default-seed simulation columns differ from pinned rows"))
    return [Problem(f"{cmd.key} :: {what}", kind, rel, msg)
            for what, kind, rel, msg in problems]


_REACHED_TOL = re.compile(r"reached relative tolerance ([0-9.eE+-]+)")


def check(cmd: Command, result: dict, refs: dict, pinned: dict) -> list[Problem]:
    """Every problem with the command's output."""
    if result["rc"] != 0:
        reached = _REACHED_TOL.search(result["stderr"])
        return [Problem(cmd.key, f"exit {result['rc']}",
                        float(reached.group(1)) if reached else None,
                        f"exit code {result['rc']}: {result['stderr'].strip()}")]
    try:
        if cmd.kind == "analytic":
            return check_analytic(cmd, result["stdout"], refs)
        if cmd.kind == "simulate":
            return check_simulate(cmd, result["stdout"], refs, pinned)
        return check_sweep(cmd, result["csv"], refs, pinned)
    except (KeyError, ValueError, IndexError) as exc:
        return [Problem(cmd.key, "unreadable", None,
                        f"unreadable output ({type(exc).__name__}: {exc})")]


# A known defect stays excused while it keeps its kind and its relative
# error does not grow past this many times the recorded one.
KNOWN_GROWTH_LIMIT = 10.0


def excused(problem: Problem, known: dict) -> bool:
    """Whether known_defects.json lists the problem as it is observed now."""
    entry = known.get(problem.id)
    if entry is None or entry["kind"] != problem.kind:
        return False
    if entry["rel_err"] is None:
        return problem.rel_err is None
    return (problem.rel_err is not None
            and problem.rel_err <= KNOWN_GROWTH_LIMIT * entry["rel_err"])
