"""Self-tests of the benchmark: python3 -m pytest perfbench"""

import json
import shutil
import subprocess
import sys

import pytest

import run
import spans
import workloads as wl

REPO = wl.HERE.parent
REFS = wl.load_json(wl.REFS_PATH)
PINNED = wl.load_json(wl.PINNED_PATH)
BENCHMARK = json.loads((REPO / "BENCHMARK.json").read_text())


def _result_line(value: float, error_bound: str) -> str:
    return f"E[X] = {value!r}\nRESULT method=x value={value!r} error_bound={error_bound}\n"


def _ok(stdout: str, **extra) -> dict:
    return {"rc": 0, "stdout": stdout, "stderr": "", "csv": None, **extra}


def _analytic(method: str, strategy: str = "random") -> wl.Command:
    return next(c for c in wl.analytic_commands()
                if c.argv[c.argv.index("--method") + 1] == method
                and c.argv[2] == strategy and "--tol" not in c.argv)


@pytest.mark.parametrize("method,strategy", [("sum", "random"),
                                             ("integral", "symmetric"),
                                             ("asymptotic", "random")])
def test_relative_perturbation_of_1e8_fails(method, strategy):
    cmd = _analytic(method, strategy)
    ref = float(REFS[strategy][cmd.meta["ref"]][cmd.meta["field"]])
    bound = "none" if method == "asymptotic" else "0.0"
    assert wl.check(cmd, _ok(_result_line(ref, bound)), REFS, PINNED) == []
    perturbed = _result_line(ref * (1 + 1e-8), bound)
    assert wl.check(cmd, _ok(perturbed), REFS, PINNED) != []


def test_nonzero_exit_fails():
    cmd = _analytic("integral")
    ref = float(REFS["random"][cmd.meta["ref"]]["exact"])
    result = _ok(_result_line(ref, "1.0"), rc=1, stderr="error: quadrature")
    [problem] = wl.check(cmd, result, REFS, PINNED)
    assert problem.id == cmd.key and problem.kind == "exit 1"
    assert problem.message.startswith("exit code 1")


KNOWN = wl.load_json(wl.KNOWN_DEFECTS_PATH)


def _known_value_defect():
    """A listed analytic command whose recorded problem is a wrong value."""
    key, entry = next((k, e) for k, e in KNOWN["analytic-range"].items()
                      if e["kind"] == "value")
    cmd = next(c for c in wl.analytic_commands() if c.key == key)
    ref = float(REFS[cmd.argv[2]][cmd.meta["ref"]][cmd.meta["field"]])
    return cmd, ref, entry["rel_err"]


def _verdict(cmd, result):
    res = {"argv": cmd.argv, "kind": cmd.kind, "meta": cmd.meta, **result}
    return run.evaluate([res], REFS, PINNED, KNOWN["analytic-range"])


def test_known_defect_is_excused_only_as_recorded():
    cmd, ref, rel = _known_value_defect()
    as_recorded = _verdict(cmd, _ok(_result_line(ref * (1 + rel), "0.0")))
    assert (as_recorded["failed"], as_recorded["defective"]) == (0, 1)
    much_worse = _verdict(cmd, _ok(_result_line(ref * (1 + 100 * rel), "0.0")))
    assert (much_worse["failed"], much_worse["defective"]) == (1, 1)
    crashed = _verdict(cmd, _ok("", rc=1, stderr="Traceback: ZeroDivisionError"))
    assert crashed["failed"] == 1


def test_known_quadrature_failure_is_excused_only_at_its_tolerance():
    key, entry = next((k, e) for k, e in KNOWN["analytic-range"].items()
                      if e["kind"] == "exit 1")
    cmd = next(c for c in wl.analytic_commands() if c.key == key)

    def stderr(reached):
        return f"error: quadrature reached relative tolerance {reached:.3e}, requested 1e-10"

    assert _verdict(cmd, _ok("", rc=1, stderr=stderr(entry["rel_err"])))["failed"] == 0
    assert _verdict(cmd, _ok("", rc=1, stderr=stderr(50 * entry["rel_err"])))["failed"] == 1
    assert _verdict(cmd, _ok("", rc=1, stderr="error: something else"))["failed"] == 1


def test_pinned_simulation_output_must_match_byte_for_byte():
    argv, stdout = next(iter(PINNED["simulate"].items()))
    nodes = int(argv.split("--nodes ")[1].split()[0])
    docs = int(argv.split("--docs ")[1].split()[0])
    code = tuple(int(argv.split(f"--{k} ")[1].split()[0]) for k in "pqr")
    cmd = wl.Command(argv.split(), "simulate",
                     {"nodes": nodes, "trials": wl.SIM_TRIALS,
                      "ref": wl.random_key(code, nodes, docs), "pinned": True})
    assert wl.check(cmd, _ok(stdout), REFS, PINNED) == []
    assert wl.check(cmd, _ok(stdout.replace("\n", " \n", 1)), REFS, PINNED) != []


def test_simulated_mean_far_from_reference_fails():
    code, nodes, docs = wl.simulate_points()[10]
    key = wl.random_key(code, nodes, docs)
    mean = float(REFS["random"][key]["exact"])
    se = (float(REFS["random"][key]["var"]) / wl.SIM_TRIALS) ** 0.5
    cmd = wl.Command(wl.simulate_argv(code, nodes, docs, 3), "simulate",
                     {"nodes": nodes, "trials": wl.SIM_TRIALS, "ref": key,
                      "pinned": False})

    def stdout(m):
        return (f"mean E[X] = {m!r}\nstrategy,trials,mean_empirical,min,max\n"
                f"random,{wl.SIM_TRIALS},{m!r},1,{nodes}\n")

    assert wl.check(cmd, _ok(stdout(mean + 4.9 * se)), REFS, PINNED) == []
    assert wl.check(cmd, _ok(stdout(mean + 5.1 * se)), REFS, PINNED) != []


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_every_instance_has_a_reference(workload):
    assert wl.missing_refs(workload, REFS) == []
    assert wl.missing_refs(workload, {"random": {}, "symmetric": {}})


def test_every_default_seed_command_is_pinned():
    for code, nodes, docs in wl.simulate_points():
        assert " ".join(wl.simulate_argv(code, nodes, docs, None)) in PINNED["simulate"]
    assert set(PINNED["sweep"]) == set(wl.SWEEP_PRESETS)


def test_output_names_every_metric_with_its_unit():
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert e2e == run.END_TO_END
    assert layers == spans.METRICS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(wl.WORKLOADS)
    # Two passes over 39 commands. The first ran on a machine half as fast,
    # as its calibrations show, so both passes scale to 0.01 * i s; the
    # second also ran a little slower than that, so the first gives the best.
    nominal = run.CALIBRATION_NOMINAL_S
    report = {"results": [{"argv": ["simulate", str(i)], "kind": "simulate",
                           "meta": {"trials": 20}, "latency_s": 0.01 * i * slow,
                           "calibration_s": [nominal * speed, nominal * speed]}
                          for slow, speed in ((2.0, 2.0), (1.1, 1.0))
                          for i in range(1, 40)],
              "wall_s": 2.0, "decks": 2, "peak_rss_mb": 80.0}
    values, lines = run.end_to_end("simulate-random", report,
                                   [(1.0, 1.0), (1.1, 1.2), (0.9, 0.8)])
    assert set(values) == set(e2e)
    assert values["cmd_p50_ms"] == pytest.approx(200.0)
    assert values["setup_s"] == pytest.approx(1.0)
    assert values["cmds_per_s"] == pytest.approx(39 / (0.01 * 39 * 40 / 2))
    for name, unit in e2e.items():
        assert any(line.startswith(f"metric {name} = ") and f" {unit} (" in line
                   for line in lines)


def _traced_tree(tracer):
    """Call a synthetic tree of wrapped functions inside one root span."""
    leaf = tracer.wrap("specfun:log_reg_inc_beta_complement", lambda: sum(range(2000)))
    mid = tracer.wrap("analytic:expect_random_sum", lambda: [leaf() for _ in range(3)])
    root = tracer.enter(tracer.root_id)
    mid()
    tracer.exit(root)
    return tracer.end[root] - tracer.start[root]


def test_self_times_add_up_to_the_root_span():
    tracer = spans.Tracer()
    wall = _traced_tree(tracer)
    metrics, by_name = spans.layer_metrics(tracer.arrays(), wall, 0.0)
    assert sum(by_name.values()) == pytest.approx(wall, rel=1e-9)
    assert metrics["specfun.kernel.calls"] == 3
    assert metrics["analytic.sum.terms"] == 3
    assert metrics["analytic.sum.calls"] == 1
    assert metrics["trace.self_sum_frac"] == pytest.approx(1.0, rel=1e-9)


def test_missing_layer_name_is_absent_not_a_crash():
    # in a child process, so the wrapped functions do not leak into other tests
    script = (
        "import sys; sys.path[:0] = ['src', 'perfbench']\n"
        "import rec_persist.cli, spans\n"
        "spans.LAYERS['gone'] = ('analytic:no_such_function',"
        " 'model:Placement.no_such_property')\n"
        "tracer = spans.Tracer(); tracer.install(); print(tracer.absent)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], cwd=REPO,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == (
        "['analytic:no_such_function', 'model:Placement.no_such_property']")


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(wl.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analytic-range",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
