"""Run one workload pass in this process and print its raw results as JSON.

    python3 perfbench/worker.py '{"workload": ..., "seed": ..., "seconds": ...,
                                 "decks": null, "trace": false, "out_dir": ...}'

``run.py`` starts this as a child process, so that the peak memory it
reports belongs to the workload alone. Commands call
``rec_persist.cli.main(argv)`` in-process with stdout and stderr captured.
With ``decks`` null the run replays the deck while the next pass would end
within ``seconds``, and at least ``MIN_PASSES`` times; otherwise it runs
exactly that many passes. A calibration loop runs before and after every
command. With ``trace`` true the
layer functions are wrapped first and the spans are saved to ``out_dir``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import tempfile
import time
import traceback
from pathlib import Path

import workloads as wl

CHECKOUT = wl.HERE.parent


def calibrate() -> float:
    """Seconds a fixed loop of interpreter and numpy work takes, best of two.

    The loop never calls the program, so its time follows the speed of the
    machine, which on a shared host changes from second to second.
    """
    return min(_calibration_loop() for _ in range(2))


def _calibration_loop() -> float:
    import numpy as np

    start = time.perf_counter()
    total = 0
    for i in range(8000):
        total += i * i
    np.sort(np.arange(4000.0)[::-1])
    return time.perf_counter() - start


def _run(cli, cmd: wl.Command) -> dict:
    for path, text in cmd.files.items():
        Path(path).write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(cmd.argv)
        except Exception:  # a crash is a failed command, not a failed benchmark
            rc = 1
            traceback.print_exc(file=err)
        latency = time.perf_counter() - start
    result = {"argv": cmd.argv, "kind": cmd.kind, "meta": cmd.meta, "rc": rc,
              "latency_s": latency, "stdout": out.getvalue(),
              "stderr": err.getvalue()[-2000:], "csv": None}
    if cmd.kind == "sweep" and rc == 0:
        line = result["stdout"].splitlines()[-1]
        result["csv"] = Path(line.split("wrote ", 1)[1].split(" and ", 1)[0]).read_text()
    return result


def run_pass(spec: dict) -> dict:
    os.environ.pop("REC_PERSIST_THREADS", None)
    sys.path.insert(0, str(CHECKOUT / "src"))
    import numpy
    import scipy
    from rec_persist import cli

    out_dir = Path(spec["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    results = []
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        for cmd in wl.warmup_commands(spec["workload"], tmp):
            _run(cli, cmd)
        tracer = None
        if spec["trace"]:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        done = 0
        calibrating_s = 0.0
        start = time.perf_counter()
        for deck in wl.decks(spec["workload"], spec["seed"], tmp):
            for cmd in deck:
                # calibrations bracket every command, outside its root span
                mark = time.perf_counter()
                before = calibrate()
                calibrating_s += time.perf_counter() - mark
                if tracer is not None:
                    tracer.command_id = len(results)
                    root = tracer.enter(tracer.root_id)
                    result = _run(cli, cmd)
                    tracer.exit(root)
                else:
                    result = _run(cli, cmd)
                mark = time.perf_counter()
                result["calibration_s"] = [before, calibrate()]
                calibrating_s += time.perf_counter() - mark
                results.append(result)
            done += 1
            elapsed = time.perf_counter() - start
            if (spec["decks"] is None and done >= wl.MIN_PASSES
                    and elapsed * (done + 1) / done > spec["seconds"]):
                break  # the next pass would end after the time budget
            if spec["decks"] is not None and done >= spec["decks"]:
                break
    report = {
        "results": results, "decks": done, "wall_s": elapsed,
        "calibrating_s": calibrating_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
        "spans": None,
    }
    if tracer is not None:
        path = out_dir / f"spans-{spec['workload']}.npz"
        numpy.savez(path, **tracer.arrays())
        report["spans"] = str(path)
    return report


if __name__ == "__main__":
    json.dump(run_pass(json.loads(sys.argv[1])), sys.stdout)
