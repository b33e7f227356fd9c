"""The rec-persist benchmark: one closed-loop, single-client workload per run.

    python3 perfbench/run.py --workload analytic-range --seed 1 --seconds 30 --trace 0

Run from the repository root. Workloads (see workloads.py and README.md):
``analytic-range``, ``simulate-random`` and ``sweep-symmetric``.

With ``--trace 0`` the run measures set-up time in fresh interpreters, then
replays the workload's deck of commands in one child process for
``--seconds`` and prints the end-to-end metrics, taken from each distinct
command's scaled time over the passes (see README.md). With ``--trace 1`` it runs a fixed
number of passes twice, once plain and once with every layer function
wrapped, and prints the per-layer metrics and the tracing overhead. Every command's
output is checked against the pinned references; the last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. A problem listed in known_defects.json (those found when the
benchmark was defined) is reported but not counted in ``failed`` while it
keeps its recorded kind and its error stays within ten times the recorded one.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import workloads as wl
from worker import calibrate

CHECKOUT = Path.cwd()
OUT_DIR = CHECKOUT / ".perfbench-out"
SETUP_PROBES = 7
# Every timing is scaled to the machine speed at which worker.calibrate()
# takes this long, using the calibrations taken next to it (see README.md).
CALIBRATION_NOMINAL_S = 5e-4
PROBE = "from rec_persist.cli import main"
# Seconds one pass over the deck took at the commit that defined the
# benchmark (2 cores, Python 3.11); the traced run uses round(seconds / this)
# passes, so its counts are the same on every commit for a given --seconds.
NOMINAL_DECK_S = {"analytic-range": 18.0, "simulate-random": 2.5,
                  "sweep-symmetric": 2.1}
# A worker may take this many times its nominal time (a slow machine, the
# tracing overhead) plus a fixed margin for start-up before it is stopped.
WORKER_SLACK = 3.0
WORKER_MARGIN_S = 30.0

END_TO_END = {"setup_s": "s", "cmds_per_s": "1/s", "cmd_p50_ms": "ms",
              "cmd_p90_ms": "ms", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env.pop("REC_PERSIST_THREADS", None)
    env["PYTHONPATH"] = str(CHECKOUT / "src")
    return env


def _git_commit() -> str:
    if not (CHECKOUT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=CHECKOUT,
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(versions: dict) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": versions.get("numpy"),
        "scipy": versions.get("scipy"),
        "mpmath": metadata.version("mpmath"),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "REC_PERSIST_THREADS": "unset",
    }


def scaled(seconds: float, before: float, after: float) -> float:
    """A time taken between two calibrations, at the nominal machine speed."""
    return seconds * CALIBRATION_NOMINAL_S / ((before + after) / 2)


def scaled_total(results: list[dict]) -> float:
    """Sum of the results' scaled latencies."""
    return sum(scaled(r["latency_s"], *r["calibration_s"]) for r in results)


def setup_seconds() -> list[tuple[float, float]]:
    """(wall, scaled) times for fresh interpreters to import the CLI, numpy and scipy."""
    times = []
    for _ in range(SETUP_PROBES):
        before = calibrate()
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", PROBE], cwd=CHECKOUT, env=_env(),
                              capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - start
        times.append((wall, scaled(wall, before, calibrate())))
        if proc.returncode != 0:
            raise BenchError(f"import probe failed: {proc.stderr.strip()[-500:]}")
    return times


def worker_timeout(workload: str, seconds: float, decks) -> float:
    """Seconds a worker may run: a timed run can overrun by up to one pass."""
    nominal = NOMINAL_DECK_S[workload]
    if decks is None:
        expected = max(seconds + nominal, wl.MIN_PASSES * nominal)
    else:
        expected = decks * nominal
    return WORKER_SLACK * expected + WORKER_MARGIN_S


def run_worker(workload: str, seed: int, seconds: float, decks, trace: bool) -> dict:
    spec = {"workload": workload, "seed": seed, "seconds": seconds, "decks": decks,
            "trace": trace, "out_dir": str(OUT_DIR)}
    proc = subprocess.run(
        [sys.executable, str(wl.HERE / "worker.py"), json.dumps(spec)],
        cwd=CHECKOUT, env=_env(), capture_output=True, text=True,
        timeout=worker_timeout(workload, seconds, decks))
    if proc.returncode != 0:
        raise BenchError(f"worker failed: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    return sorted_values[max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)]


def evaluate(results: list[dict], refs: dict, pinned: dict, known: dict) -> dict:
    """Check every command; split its problems into new ones and known defects.

    A command fails when it has a problem that known_defects.json does not
    excuse: one it does not list, or a listed one whose kind changed or
    whose error grew (see workloads.excused).
    """
    new, known_hit, seen = [], [], set()
    failed = defective = 0
    for res in results:
        problems = wl.check(wl.Command(res["argv"], res["kind"], res["meta"]),
                            res, refs, pinned)
        fresh = [p for p in problems if not wl.excused(p, known)]
        new += fresh
        known_hit += [p for p in problems if wl.excused(p, known)]
        seen.update(p.id for p in problems)
        failed += bool(fresh)
        defective += bool(problems)
    unseen = sorted(pid for pid in known if pid not in seen)
    return {"new": new, "known": known_hit, "unseen": unseen,
            "failed": failed, "defective": defective}


def command_times(results: list[dict]) -> dict:
    """Each distinct command's low median scaled latency over the run's
    passes (the lesser of two), with one of its results."""
    runs = {}
    for res in results:
        key = wl.Command(res["argv"], res["kind"], res["meta"]).key
        runs.setdefault(key, []).append(res)
    return {key: (statistics.median_low(scaled(r["latency_s"], *r["calibration_s"])
                                        for r in rs), rs[0])
            for key, rs in runs.items()}


def end_to_end(workload: str, report: dict,
               setup: list[tuple[float, float]]) -> tuple[dict, list[str]]:
    """End-to-end metrics from each distinct command's scaled time.

    The machine's speed changes by up to half from one second to the next,
    so every latency is scaled by its neighbouring calibrations and a
    command's time is the low median over the passes; the unscaled
    wall-clock figures over every execution are printed too.
    """
    best = command_times(report["results"])
    lat = sorted(1000.0 * t for t, _ in best.values())
    n, busy_s = len(lat), sum(lat) / 1000.0
    values = {
        "setup_s": statistics.median(t for _, t in setup),
        "cmds_per_s": n / busy_s,
        "cmd_p50_ms": nearest_rank(lat, 50),
        "cmd_p90_ms": nearest_rank(lat, 90),
        "peak_rss_mb": report["peak_rss_mb"],
    }
    beyond_p90 = sum(1 for v in lat if v > values["cmd_p90_ms"])
    passes = f"low median of {report['decks']} passes each"
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters; unscaled median "
                   f"{statistics.median(w for w, _ in setup):.6g} s",
        "cmds_per_s": f"{n} distinct commands in {busy_s:.3f} s, {passes}",
        "cmd_p50_ms": f"n={n}, {passes}",
        "cmd_p90_ms": f"n={n}, {beyond_p90} beyond, {passes}",
        "peak_rss_mb": "one workload process",
    }
    lines = [f"metric {k} = {v:.6g} {END_TO_END[k]} ({notes[k]})" for k, v in values.items()]
    if workload == "simulate-random":
        trials = sum(r["meta"]["trials"] for _, r in best.values())
        lines.append(f"metric trials_per_s = {trials / busy_s:.6g} 1/s "
                     f"({trials} trials per pass)")
    if workload == "sweep-symmetric":
        points = sum(len(r["meta"]["nodes"]) for _, r in best.values())
        lines.append(f"metric points_per_s = {points / busy_s:.6g} 1/s ({points} grid "
                     "points per pass, overlays and CSV/SVG writes included)")
    every = sorted(1000.0 * r["latency_s"] for r in report["results"])
    calibrations = [c for r in report["results"] for c in r["calibration_s"]]
    lines.append(f"unscaled wall clock: {len(every)} commands in {report['wall_s']:.3f} s, "
                 f"{len(every) / report['wall_s']:.6g} 1/s, p50 {nearest_rank(every, 50):.6g} "
                 f"ms, p90 {nearest_rank(every, 90):.6g} ms; calibration median "
                 f"{1e6 * statistics.median(calibrations):.1f} us, nominal "
                 f"{1e6 * CALIBRATION_NOMINAL_S:.1f} us")
    return values, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return _bench(args)
    except (BenchError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1


def _bench(args) -> int:
    if not (CHECKOUT / "src" / "rec_persist" / "cli.py").is_file():
        raise BenchError(f"no rec_persist sources under {CHECKOUT / 'src'}; "
                         "run from the repository root")
    refs = wl.load_json(wl.REFS_PATH)
    missing = wl.missing_refs(args.workload, refs)
    if missing:
        raise BenchError(f"{len(missing)} instances lack a reference, e.g. {missing[0]}")
    pinned = wl.load_json(wl.PINNED_PATH)
    known = wl.load_json(wl.KNOWN_DEFECTS_PATH).get(args.workload, {})

    if args.trace:
        decks = max(1, round(args.seconds / NOMINAL_DECK_S[args.workload]))
        plain = run_worker(args.workload, args.seed, args.seconds, decks, False)
        traced = run_worker(args.workload, args.seed, args.seconds, decks, True)
        results = plain["results"] + traced["results"]
        versions = traced["versions"]
    else:
        setup = setup_seconds()
        report = run_worker(args.workload, args.seed, args.seconds, None, False)
        results = report["results"]
        versions = report["versions"]

    verdict = evaluate(results, refs, pinned, known)
    env = environment(versions)
    print("ENV " + json.dumps(env, sort_keys=True))
    for problem in {p.id: p for p in verdict["known"]}.values():
        print(f"KNOWN-DEFECT {problem.id}: {problem.message}")
    for key in verdict["unseen"]:
        print(f"NOT-SEEN {key}: known defect did not occur in this run")
    for problem in verdict["new"]:
        detail = ""
        if problem.id in known:
            entry = known[problem.id]
            detail = (f" (known as kind {entry['kind']!r}, relative error "
                      f"{entry['rel_err']!r}; now {problem.kind!r}, {problem.rel_err!r})")
        print(f"FAILED {problem.id}: {problem.message}{detail}")
    attempted = len(results)
    print(f"metric failed_frac = {verdict['defective'] / attempted:.6g} frac "
          f"({verdict['defective']} of {attempted} commands miss a check; "
          f"{verdict['failed']} of them with a problem not in known_defects.json)")

    if args.trace:
        import numpy as np
        import spans

        with np.load(traced["spans"]) as data:
            data = dict(data)
        traced_wall = traced["wall_s"] - traced["calibrating_s"]
        overhead = scaled_total(traced["results"]) / scaled_total(plain["results"]) - 1.0
        layer, by_name = spans.layer_metrics(data, traced_wall, overhead)
        for name in sorted(by_name, key=by_name.get, reverse=True):
            print(f"self {by_name[name]:10.4f} s  {name}")
        for name in data["absent"].tolist():
            print(f"ABSENT-LAYER {name}: wrapped name no longer exists")
        print(f"traced {len(traced['results'])} commands in {traced['decks']} passes: "
              f"{traced_wall:.3f} s traced, {plain['wall_s'] - plain['calibrating_s']:.3f} s "
              "plain, by the wall clock outside calibrations")
        metrics = {k: {"value": float(layer[k]), "unit": u}
                   for k, u in spans.METRICS.items()}
        for k, m in metrics.items():
            print(f"metric {k} = {m['value']:.6g} {m['unit']}")
    else:
        values, lines = end_to_end(args.workload, report, setup)
        print("\n".join(lines))
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}

    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "env": env, "metrics": metrics,
               "known_defects": [p._asdict() for p in verdict["known"]],
               "failed": [p._asdict() for p in verdict["new"]], "attempted": attempted}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(summary, indent=1))
    print(json.dumps({"correct": not verdict["failed"], "attempted": attempted,
                      "failed": verdict["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
