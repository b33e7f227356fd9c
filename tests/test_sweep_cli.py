"""Sweep runner, CSV/SVG emission, and the command-line interface."""

import argparse
import csv
import json
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from rec_persist import analytic, cli, oracle, sweep
from rec_persist.cli import main
from rec_persist.errors import ParameterError
from rec_persist.analytic import Method
from rec_persist.model import (
    LossSemantics, PlacementStrategy, RecParams, SystemParams,
)
from rec_persist.selftest import run_selftest
from rec_persist.svg import Series, render_chart


def small_spec(**overrides):
    base = dict(
        name="mini",
        strategy=PlacementStrategy.RANDOM,
        p=1,
        q=0,
        r=2,
        nodes=(12, 6, 18),
        docs=2,
        trials=8,
        seed=5,
        theory=("exact", "asymptotic", "beta-exact"),
    )
    base.update(overrides)
    return sweep.SweepSpec(**base)


def x_ticks(svg_text):
    """(label value, x position) of each x-axis tick label, left to right."""
    root = ET.fromstring(svg_text)
    return [
        (float(el.text), float(el.get("x")))
        for el in root.iter("{http://www.w3.org/2000/svg}text")
        if el.get("font-size") == "11" and el.get("text-anchor") == "middle"
    ]


def evenly_spaced(positions):
    # positions are written to 0.01 px
    steps = [b - a for a, b in zip(positions, positions[1:])]
    return len(steps) >= 2 and max(steps) - min(steps) <= 0.02


class TestSweepSpec:
    def test_empty_grid_rejected(self):
        with pytest.raises(ParameterError):
            small_spec(nodes=())

    def test_bad_docs_rule_rejected(self):
        with pytest.raises(ParameterError):
            small_spec(docs="N*2")
        with pytest.raises(ParameterError):
            small_spec(docs=0)

    def test_name_bool_and_log_axes_checked(self):
        for name in ("", ".", "..", "sub/a", "../x", "a\\b"):
            with pytest.raises(ParameterError, match="name must be a file name"):
                small_spec(name=name)
        with pytest.raises(ParameterError, match="docs must be an integer"):
            small_spec(docs=True)
        for value in ("false", 0, "yes", None):
            with pytest.raises(ParameterError, match="log_axes must be"):
                small_spec(log_axes=value)
        raw = {"name": "x", "strategy": "random", "p": 1, "q": 0, "r": 1,
               "nodes": [4], "docs": 1}
        assert sweep.spec_from_dict({**raw, "log_axes": False}).log_axes is False
        assert sweep.spec_from_dict(raw).log_axes is True
        for key in ("p", "docs", "trials"):
            with pytest.raises(ParameterError, match=f"{key} must be an integer"):
                sweep.spec_from_dict({**raw, key: True})

    def test_bad_theory_rejected(self):
        with pytest.raises(ParameterError):
            small_spec(theory=("exact", "magic"))

    def test_docs_rules(self):
        assert small_spec(docs="N").docs_at(48) == 48
        assert small_spec(docs="N/g").docs_at(48) == 24
        assert small_spec(docs="N/g").docs_at(1) == 1
        assert small_spec(docs=7).docs_at(48) == 7

    def test_from_dict_unknown_key(self):
        with pytest.raises(ParameterError):
            sweep.spec_from_dict(
                {
                    "name": "x", "strategy": "random", "p": 1, "q": 0,
                    "r": 1, "nodes": [4], "docs": 1, "bogus": True,
                }
            )

    def test_from_dict_missing_key(self):
        with pytest.raises(ParameterError):
            sweep.spec_from_dict({"name": "x", "strategy": "random"})

    def test_presets_construct(self):
        for key in ("fig4", "fig5", "fig6", "fig7", "fig8", "fig9"):
            spec = sweep.preset_spec(key)
            assert len(spec.nodes) == 62
            assert spec.nodes[0] == 48
            assert spec.nodes[-1] == 48 * 62
            assert spec.trials == 500

    def test_preset_parameterizations(self):
        fig4 = sweep.preset_spec("fig4")
        assert (fig4.p, fig4.q, fig4.r, fig4.docs) == (1, 0, 2, 5)
        assert fig4.strategy is PlacementStrategy.RANDOM
        fig6 = sweep.preset_spec("fig6")
        assert (fig6.p, fig6.q, fig6.r, fig6.docs) == (1, 1, 1, "N/g")
        assert fig6.strategy is PlacementStrategy.SYMMETRIC
        fig7 = sweep.preset_spec("fig7")
        assert (fig7.p, fig7.q) == (2, 2)
        assert "beta-exact" not in fig7.theory

    def test_unknown_preset(self):
        with pytest.raises(ParameterError):
            sweep.preset_spec("fig99")


class TestLoadConfig:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "sweeps.json"
        path.write_text(
            json.dumps(
                {
                    "schema_version": 1,
                    "sweeps": [
                        {
                            "name": "tiny",
                            "strategy": "symmetric",
                            "p": 1, "q": 1, "r": 1,
                            "nodes": [8, 16],
                            "docs": "N/g",
                            "trials": 3,
                        }
                    ],
                }
            )
        )
        specs = sweep.load_config(path)
        assert len(specs) == 1
        assert specs[0].name == "tiny"
        assert specs[0].docs_at(8) == 4

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": 2, "sweeps": []}))
        with pytest.raises(ParameterError):
            sweep.load_config(path)

    @pytest.mark.parametrize(
        "version", [True, 1.0, "1"], ids=["bool", "float", "string"]
    )
    def test_version_must_be_the_integer_1(self, version, tmp_path, capsys):
        raw = {"name": "v", "strategy": "random", "p": 1, "q": 0, "r": 2,
               "nodes": [48], "docs": 5, "trials": 2, "seed": 1}
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"schema_version": version, "sweeps": [raw]}))
        argv = ["sweep", "--config", str(config), "--out", str(tmp_path)]
        assert main(argv) == 2
        assert "schema_version = 1" in capsys.readouterr().err
        assert not (tmp_path / "v.csv").exists()

    def test_unreadable(self, tmp_path):
        with pytest.raises(ParameterError):
            sweep.load_config(tmp_path / "missing.json")
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        with pytest.raises(ParameterError):
            sweep.load_config(bad)


class TestRunSweep:
    def test_rows_sorted_and_reproducible(self):
        spec = small_spec()
        rows = sweep.run_sweep(spec)
        assert [row.N for row in rows] == [6, 12, 18]
        assert rows == sweep.run_sweep(spec)

    def test_theory_cells_equal_module_calls(self):
        spec = small_spec()
        for row in sweep.run_sweep(spec):
            rec = RecParams(row.p, row.q, row.r)
            system = SystemParams(row.N, row.D)
            assert row.theory_exact == analytic.expect_random_sum(
                rec, system
            ).value
            assert row.theory_asymptotic == analytic.expect(
                PlacementStrategy.RANDOM, rec, system, Method.ASYMPTOTIC
            ).value
            assert row.theory_beta_exact == analytic.expect(
                PlacementStrategy.RANDOM, rec, system, Method.BETA_EXACT
            ).value

    def test_symmetric_out_of_theory_rows_have_empty_exact(self):
        spec = small_spec(
            name="offgrid",
            strategy=PlacementStrategy.SYMMETRIC,
            nodes=(8, 10),
            docs="N/g",
            theory=("exact", "asymptotic"),
        )
        rows = sweep.run_sweep(spec)
        by_nodes = {row.N: row for row in rows}
        assert by_nodes[8].theory_exact is not None
        # 10 is not a multiple of (p+q)*r = 2... it is; use docs too small
        assert by_nodes[10].theory_exact is not None
        spec = small_spec(
            name="offgrid2",
            strategy=PlacementStrategy.SYMMETRIC,
            nodes=(9,),
            docs="N/g",
            theory=("exact", "asymptotic"),
        )
        row = sweep.run_sweep(spec)[0]
        assert row.theory_exact is None
        assert row.theory_asymptotic is not None

    def test_quadrature_failure_leaves_exact_empty(self, starved_quadrature):
        spec = small_spec(
            name="starved",
            strategy=PlacementStrategy.SYMMETRIC,
            nodes=(8, 16),
            docs="N/g",
            theory=("exact", "asymptotic"),
        )
        rows = sweep.run_sweep(spec)
        assert [row.N for row in rows] == [8, 16]
        for row in rows:
            assert row.theory_exact is None
            assert row.theory_asymptotic is not None
            assert row.trials == spec.trials

    def test_csv_byte_identical(self, tmp_path):
        spec = small_spec()
        rows = sweep.run_sweep(spec)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        sweep.rows_to_csv(rows, a)
        sweep.rows_to_csv(sweep.run_sweep(spec), b)
        assert a.read_bytes() == b.read_bytes()
        header = a.read_text().splitlines()[0]
        assert header == ",".join(sweep.CSV_COLUMNS)

    def test_csv_cells_round_trip(self, tmp_path):
        spec = small_spec()
        rows = sweep.run_sweep(spec)
        path = tmp_path / "out.csv"
        sweep.rows_to_csv(rows, path)
        with open(path, newline="") as fh:
            parsed = list(csv.DictReader(fh))
        assert len(parsed) == len(rows)
        for row, rec in zip(rows, parsed):
            assert int(rec["N"]) == row.N
            assert float(rec["mean_empirical"]) == row.mean_empirical
            assert float(rec["theory_exact"]) == row.theory_exact
            assert rec["semantics"] == "multiset"

    def test_row_fields_follow_csv_columns(self, tmp_path):
        # the header is the row's field names, and each cell the field's
        # value: empty for None, repr for a float
        assert sweep.CSV_COLUMNS is sweep.SweepRow._fields
        rows = sweep.run_sweep(small_spec(theory=("asymptotic",)))
        path = tmp_path / "out.csv"
        sweep.rows_to_csv(rows, path)
        with open(path, newline="") as fh:
            parsed = list(csv.DictReader(fh))
        for row, rec in zip(rows, parsed, strict=True):
            assert rec == {
                name: "" if value is None
                else repr(value) if isinstance(value, float) else str(value)
                for name, value in row._asdict().items()
            }

    def test_svg_renders(self, tmp_path):
        spec = small_spec()
        rows = sweep.run_sweep(spec)
        path = tmp_path / "chart.svg"
        sweep.rows_to_svg(spec, rows, path)
        root = ET.fromstring(path.read_text())
        assert root.tag.endswith("svg")
        body = path.read_text()
        assert "polyline" in body
        assert "simulation mean" in body
        assert "asymptotic" in body

    def test_svg_linear_axes(self, tmp_path):
        nodes = (12, 24, 36, 48, 60)
        for log_axes, linear in ((False, True), (True, False)):
            spec = small_spec(nodes=nodes, log_axes=log_axes)
            path = tmp_path / f"log-{log_axes}.svg"
            sweep.rows_to_svg(spec, sweep.run_sweep(spec), path)
            labels, xs = zip(*x_ticks(path.read_text()))
            if linear:
                assert labels == (20.0, 30.0, 40.0, 50.0, 60.0)
                assert evenly_spaced(xs)
            else:
                assert labels == (20.0, 50.0)


class TestRenderChart:
    def test_log_axes_skip_nonpositive(self):
        text = render_chart(
            [Series("s", [1, 10, 100], [0.0, 5.0, 50.0], "#112233")],
            title="t",
            x_label="x",
            y_label="y",
            log=True,
        )
        ET.fromstring(text)

    def test_linear_axes_keep_zero(self):
        text = render_chart(
            [Series("s", [0, 1, 2, 3, 4], [0.0, 10.0, 20.0, 30.0, 40.0])],
            title="t",
            x_label="x",
            y_label="y",
            log=False,
        )
        labels, xs = zip(*x_ticks(text))
        assert labels == (0.0, 1.0, 2.0, 3.0, 4.0)
        assert evenly_spaced(xs)
        points = ET.fromstring(text).find("{http://www.w3.org/2000/svg}polyline")
        assert len(points.get("points").split()) == 5

    def test_empty_series_rejected(self):
        with pytest.raises(ParameterError):
            render_chart([], title="t", x_label="x", y_label="y")


class TestCliAnalytic:
    def test_symmetric_integral(self, capsys):
        code = main(
            "analytic --strategy symmetric --p 1 --q 0 --r 2 "
            "--nodes 4 --docs 2 --method integral".split()
        )
        out = capsys.readouterr().out
        assert code == 0
        result_line = [
            line for line in out.splitlines() if line.startswith("RESULT ")
        ][0]
        fields = dict(
            part.split("=", 1) for part in result_line.split()[1:]
        )
        assert float(fields["value"]) == pytest.approx(8 / 3, rel=1e-9)
        assert fields["error_bound"] == "0.0"

    def test_random_sum_value(self, capsys):
        code = main(
            "analytic --strategy random --p 1 --q 0 --r 1 "
            "--nodes 2 --docs 1 --method sum".split()
        )
        assert code == 0
        assert "E[X] = 1.5" in capsys.readouterr().out

    def test_beta_exact_matches_module(self, capsys):
        code = main(
            "analytic --strategy random --p 1 --q 0 --r 2 "
            "--nodes 48 --docs 5 --method beta-exact".split()
        )
        assert code == 0
        out = capsys.readouterr().out
        result_line = [
            line for line in out.splitlines() if line.startswith("RESULT ")
        ][0]
        value = float(dict(
            part.split("=", 1) for part in result_line.split()[1:]
        )["value"])
        assert value == analytic.expect(
            PlacementStrategy.RANDOM, RecParams(1, 0, 2), SystemParams(48, 5),
            Method.BETA_EXACT,
        ).value

    def test_precondition_violation_exits_2(self, capsys):
        code = main(
            "analytic --strategy symmetric --p 1 --q 1 --r 1 "
            "--nodes 7 --docs 7 --method integral".split()
        )
        assert code == 2
        assert "divisibility" in capsys.readouterr().err

    def test_integral_reports_quadrature(self, capsys):
        argv = ("analytic --strategy symmetric --p 2 --q 1 --r 2 "
                "--nodes 1200 --docs 200 --method integral").split()
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        result = analytic.expect(
            PlacementStrategy.SYMMETRIC, RecParams(2, 1, 2), SystemParams(1200, 200),
            Method.INTEGRAL,
        )
        assert lines[2] == (
            f"quadrature: relative error estimate {result.quadrature_error:.3e} "
            f"(tolerance 1e-10), {result.quadrature_evals} integrand evaluations"
        )
        assert lines[3] == (
            "RESULT strategy=symmetric method=integral p=2 q=1 r=2 nodes=1200 "
            f"docs=200 value={result.value!r} error_bound=0.0"
        )

    def test_sum_reports_terms(self, capsys):
        argv = ("analytic --strategy random --p 2 --q 1 --r 2 "
                "--nodes 10000 --docs 1000 --method sum").split()
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        result = analytic.expect(
            PlacementStrategy.RANDOM, RecParams(2, 1, 2), SystemParams(10000, 1000),
            Method.EXACT_SUM,
        )
        assert lines[2] == f"survival sum: {result.sum_terms} of 10001 terms"
        assert lines[3] == (
            "RESULT strategy=random method=sum p=2 q=1 r=2 nodes=10000 "
            f"docs=1000 value={result.value!r} error_bound=0.0"
        )

    @pytest.mark.parametrize("strategy", ["random", "symmetric"])
    @pytest.mark.parametrize("rule", ["multiset", "per-cluster"])
    def test_semantics_flag_follows_expect(self, strategy, rule, capsys):
        # p = 2, where the rules give different values
        argv = (f"analytic --strategy {strategy} --p 2 --q 1 --r 2 --nodes 1200 "
                f"--docs 200 --method integral --semantics {rule}").split()
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        strategy = PlacementStrategy(strategy)
        result = analytic.expect(
            strategy, RecParams(2, 1, 2), SystemParams(1200, 200),
            Method.INTEGRAL, semantics=LossSemantics(rule),
        )
        assert lines[0] == (
            f"E[X] = {result.value!r}  "
            f"[{strategy.value} placement, {rule} rule, method integral]"
        )
        assert lines[-1].endswith(
            f"value={result.value!r} error_bound={result.error_bound!r} "
            f"semantics={rule}"
        )

    @pytest.mark.parametrize("tol", ["0", "-1", "1e-16", "nan", "1"])
    def test_bad_tol_exits_2(self, tol, capsys):
        code = main(
            "analytic --strategy random --p 2 --q 1 --r 2 --nodes 1000 "
            f"--docs 1000 --method integral --tol {tol}".split()
        )
        assert code == 2
        assert "tol must lie" in capsys.readouterr().err

    def test_quadrature_failure_exits_1(self, starved_quadrature, capsys):
        code = main(
            "analytic --strategy random --p 2 --q 1 --r 2 --nodes 1000 "
            "--docs 1000 --method integral".split()
        )
        assert code == 1
        assert "quadrature reached relative tolerance" in capsys.readouterr().err

    def test_usage_error_exits_2(self):
        assert main(["analytic", "--strategy", "random"]) == 2
        assert main(["not-a-command"]) == 2

    def test_missing_route_exits_2(self, capsys):
        code = main(
            "analytic --strategy symmetric --p 1 --q 0 --r 2 "
            "--nodes 4 --docs 2 --method sum".split()
        )
        assert code == 2
        assert "symmetric placement has no sum route" in capsys.readouterr().err

    def test_beta_exact_needs_p1_exits_2(self, capsys):
        code = main(
            "analytic --strategy random --p 2 --q 1 --r 1 "
            "--nodes 12 --docs 3 --method beta-exact".split()
        )
        assert code == 2
        assert "random beta-exact requires p = 1" in capsys.readouterr().err

    def test_method_choices(self):
        # benchmark decks and scripts pass these names as --method
        sub = next(
            action for action in cli._PARSER._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        method = next(
            action for action in sub.choices["analytic"]._actions
            if action.dest == "method"
        )
        assert set(method.choices) == {"sum", "integral", "asymptotic", "beta-exact"}


class TestCliDispatch:
    """A subcommand's argv is parsed by its own parser alone, to the same
    Namespace, exit code and output as through the top-level parser."""

    ARGVS = [
        "analytic --strategy random --p 1 --q 1 --r 2 --nodes 1000 --docs 10 "
        "--method asymptotic",
        "analytic --method sum --docs 5 --nodes 48 --r 2 --q 0 --p 1 "
        "--strategy random --semantics per-cluster",
        "analytic --strategy symmetric --p 2 --q 1 --r 2 --nodes 1200 --docs 200 "
        "--meth integral --tol 1e-8",
        "analytic --strategy=random --p=1 --q=0 --r=2 --nodes=48 --docs=5 "
        "--method=sum",
        "simulate --strategy random --p 1 --q 0 --r 2 --nodes 48 --docs 5",
        "simulate --strategy random --nodes 96 --class 1,0,2,5 --class 2,1,2,3 "
        "--trials 4 --seed -3 --semantics multiset",
        "sweep --preset fig7 --points 2 --trials 2 --out x",
        "sweep --config cfg.json",
        "oracle --what group-poly --p 1 --q 0 --r 2",
        "oracle --what brute-random --p 1 --q 0 --r 1 --nodes 3 --docs 1 "
        "--semantics per-cluster",
        "selftest",
        "selftest --level full",
    ]

    @pytest.mark.parametrize("argv", ARGVS, ids=lambda a: " ".join(a.split()[:2]))
    def test_same_namespace(self, argv):
        argv = argv.split()
        expected = cli._PARSER.parse_args(argv)
        assert cli._SUBPARSERS[argv[0]].parse_args(argv[1:]) == expected
        assert cli._parse(argv) == expected

    @pytest.mark.parametrize(
        "argv",
        ["", "--help", "not-a-command", "analytic --help", "sweep -h",
         "analytic --strategy random", "analytic --strategy random --p 1 --q 0 "
         "--r 2 --nodes 48 --docs 5 --method sum --bogus 1", "selftest --level",
         "analytic --strategy random --p 1 --q 0 --r 2 --nodes 48 --docs 5 "
         "--method median"],
        ids=["empty", "help", "unknown", "analytic-help", "sweep-help",
             "missing-flag", "unrecognized", "missing-value", "bad-choice"],
    )
    def test_usage_and_errors_unchanged(self, argv, capsys):
        argv = argv.split()
        with pytest.raises(SystemExit) as exc:
            cli._PARSER.parse_args(argv)
        expected = (int(exc.value.code or 0), *capsys.readouterr())
        assert (main(argv), *capsys.readouterr()) == expected

    def test_abbreviation_runs(self, capsys):
        argv = ("analytic --strategy random --p 1 --q 1 --r 2 --nodes 1000 "
                "--docs 10 --meth asymptotic").split()
        assert main(argv) == 0
        full = [a.replace("--meth", "--method") for a in argv]
        out = capsys.readouterr().out
        assert main(full) == 0
        assert capsys.readouterr().out == out


class TestCliSimulate:
    def test_deterministic_output(self, capsys):
        argv = (
            "simulate --strategy random --p 1 --q 0 --r 2 "
            "--nodes 12 --docs 2 --trials 40 --seed 9".split()
        )
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert "mean E[X]" in first
        # seeded summaries pinned byte for byte: the README quick start, a
        # symmetric per-cluster run whose documents wrap round the nodes, and
        # a mixed-class run
        pinned = {
            "simulate --strategy random --p 1 --q 0 --r 2 --nodes 48 --docs 5 "
            "--trials 2000 --seed 7": (
                "mean E[X] = 18.699 +/- 0.19093959375737687 (std error), "
                "trials=2000, min=1, max=43\n"
                "strategy,p,q,r,N,D,trials,seed,mean_empirical,std_error,"
                "min,max,semantics\n"
                "random,1,0,2,48,5,2000,7,18.699,0.19093959375737687,1,43,"
                "multiset\n"
            ),
            "simulate --strategy symmetric --p 2 --q 1 --r 2 --nodes 24 "
            "--docs 7 --trials 200 --seed 3": (
                "mean E[X] = 10.955 +/- 0.17193803663590862 (std error), "
                "trials=200, min=5, max=16\n"
                "strategy,p,q,r,N,D,trials,seed,mean_empirical,std_error,"
                "min,max,semantics\n"
                "symmetric,2,1,2,24,7,200,3,10.955,0.17193803663590862,5,16,"
                "per-cluster\n"
            ),
            "simulate --strategy random --class 1,0,2,2 --class 2,1,1,3 "
            "--nodes 12 --trials 30 --seed 4": (
                "mean E[X] = 4.0 +/- 0.3032392174315614 (std error), "
                "trials=30, min=1, max=7\n"
                "note: no matching closed formula (mixed workload or symmetric "
                "preconditions unmet); simulation-only result\n"
                "strategy,p,q,r,N,D,trials,seed,mean_empirical,std_error,"
                "min,max,semantics\n"
                "random,1;2,0;1,2;1,12,2;3,30,4,4.0,0.3032392174315614,1,7,"
                "multiset\n"
            ),
        }
        for command, expected in pinned.items():
            assert main(command.split()) == 0
            assert capsys.readouterr().out == expected, command

    def test_mixed_classes(self, capsys):
        argv = (
            "simulate --strategy random --class 1,0,2,2 --class 2,1,1,3 "
            "--nodes 12 --trials 30 --seed 4".split()
        )
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "simulation-only" in out
        assert "1;2,0;1,2;1" in out

    def test_class_conflicts_with_scalar_flags(self, capsys):
        argv = (
            "simulate --strategy random --class 1,0,2,2 --p 1 --q 0 --r 1 "
            "--docs 1 --nodes 12".split()
        )
        assert main(argv) == 2

    def test_malformed_class(self, capsys):
        argv = "simulate --strategy random --class 1,0,2 --nodes 12".split()
        assert main(argv) == 2

    @pytest.mark.parametrize(
        "workload, message",
        [("--class 1,x,2,5", "--class expects four integers"),
         ("", "simulate needs either --p --q --r --docs or at least one --class")],
        ids=["class-not-integer", "no-workload"],
    )
    def test_workload_errors_exit_2(self, workload, message, capsys):
        argv = f"simulate --strategy random --nodes 12 {workload}".split()
        assert main(argv) == 2
        assert f"error: {message}" in capsys.readouterr().err


class TestCliSweep:
    def test_preset_with_overrides(self, tmp_path, capsys):
        argv = (
            f"sweep --preset fig4 --out {tmp_path} --trials 4 --points 3"
        ).split()
        assert main(argv) == 0
        csv_path = tmp_path / "fig4-random-p1-q0-r2-docs5.csv"
        svg_path = tmp_path / "fig4-random-p1-q0-r2-docs5.svg"
        assert csv_path.exists() and svg_path.exists()
        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(row["N"]) for row in rows] == [48, 96, 144]
        assert all(int(row["trials"]) == 4 for row in rows)
        first = csv_path.read_bytes()
        assert main(argv) == 0
        assert csv_path.read_bytes() == first

    def test_config_file(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(
            json.dumps(
                {
                    "schema_version": 1,
                    "sweeps": [
                        {
                            "name": "tiny-sym",
                            "strategy": "symmetric",
                            "p": 1, "q": 1, "r": 1,
                            "nodes": [8, 16, 24],
                            "docs": "N/g",
                            "trials": 5,
                            "theory": ["exact", "beta-exact"],
                        }
                    ],
                }
            )
        )
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path)]) == 0
        with open(tmp_path / "tiny-sym.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            system = SystemParams(int(row["N"]), int(row["D"]))
            expected = analytic.expect(
                PlacementStrategy.SYMMETRIC, RecParams(1, 1, 1), system,
                Method.INTEGRAL,
            ).value
            assert float(row["theory_exact"]) == expected
            assert row["semantics"] == "per-cluster"

    def test_theory_follows_configured_semantics(self, tmp_path, capsys):
        # REC(2,3,2), where the two loss rules differ, with each strategy
        # under the rule that is not its default
        sweeps = [
            {
                "name": f"{strategy}-{semantics}",
                "strategy": strategy,
                "p": 2, "q": 1, "r": 2,
                "nodes": [48, 96],
                "docs": docs,
                "trials": 2000,
                "seed": 6,
                "semantics": semantics,
            }
            for strategy, semantics, docs in (
                ("random", "per-cluster", 5),
                ("symmetric", "multiset", "N/g"),
            )
        ]
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"schema_version": 1, "sweeps": sweeps}))
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path)]) == 0
        for spec in sweeps:
            with open(tmp_path / f"{spec['name']}.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert len(rows) == 2
            for row in rows:
                assert row["semantics"] == spec["semantics"]
                gap = abs(float(row["theory_exact"]) - float(row["mean_empirical"]))
                assert gap <= 5 * float(row["std_error"]), row

    # simulation columns (N, D, trials, seed, mean_empirical, std_error)
    # written by the per-trial evaluator before trials were batched
    PINNED_SIM_COLUMNS = {
        "fig9-symmetric-p1-q2-r1": [
            "48,16,30,12636138104699361980,18.0,0.8944271909999159",
            "96,32,30,16560130046885250685,27.166666666666668,1.7727719273819207",
            "144,48,30,9248929795131850392,34.766666666666666,2.330055168471898",
        ],
        "cfg-p2-q1-r2": [
            "48,8,30,4495922754561874015,16.4,0.7359410271226213",
            "96,16,30,2597183348474425653,28.866666666666667,1.413996808051587",
            "144,24,30,15561232503917306277,33.5,1.9117002121539417",
        ],
        "cfg-p2-q3-r2": [
            "40,4,30,3458605122215810314,25.8,0.6598502094040546",
            "80,8,30,10112410024342082567,45.56666666666667,0.9903944800197747",
            "120,12,30,16994654315139619169,65.83333333333333,1.8023505299886011",
        ],
    }

    def test_simulation_columns_pinned(self, tmp_path, capsys):
        sweeps = [
            {
                "name": f"cfg-p2-q{q}-r2", "strategy": "symmetric",
                "p": 2, "q": q, "r": 2, "nodes": nodes, "docs": "N/g",
                "semantics": "per-cluster", "seed": seed, "theory": ["exact"],
            }
            for q, nodes, seed in (
                (1, [48, 96, 144, 192], 11), (3, [40, 80, 120, 160], 12),
            )
        ]
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"schema_version": 1, "sweeps": sweeps}))
        tail = ["--points", "3", "--trials", "30", "--out", str(tmp_path)]
        assert main(["sweep", "--preset", "fig9", *tail]) == 0
        assert main(["sweep", "--config", str(config), *tail]) == 0
        for name, pinned in self.PINNED_SIM_COLUMNS.items():
            with open(tmp_path / f"{name}.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            columns = ("N", "D", "trials", "seed", "mean_empirical", "std_error")
            assert [",".join(row[c] for c in columns) for row in rows] == pinned

    @pytest.mark.parametrize(
        "key, value",
        [("p", "two"), ("q", 1.5), ("r", None), ("trials", None), ("seed", "7"),
         ("nodes", 48), ("nodes", [48, 48.7]), ("nodes", [48, "96"]),
         ("p", True), ("docs", True), ("log_axes", "false"), ("log_axes", 0),
         ("log_axes", "yes"), ("name", ""), ("name", "."), ("name", ".."),
         ("name", "sub/a"), ("name", None), ("theory", 5), ("theory", None),
         ("strategy", "clustered"), ("semantics", "strict"),
         ("sweeps", [5]), ("sweeps", [None]), ("sweeps", [])],
        ids=["p-string", "q-float", "r-null", "trials-null", "seed-string",
             "nodes-scalar", "nodes-float", "nodes-string", "p-bool",
             "docs-bool", "log_axes-string-false", "log_axes-zero",
             "log_axes-string-yes", "name-empty", "name-dot", "name-dotdot",
             "name-subdir", "name-null", "theory-scalar", "theory-null",
             "strategy-unknown", "semantics-unknown", "sweeps-number",
             "sweeps-null", "sweeps-empty"],
    )
    def test_malformed_config_exits_2(self, key, value, tmp_path, capsys):
        # key "sweeps" replaces the whole list of sweep entries
        raw = {"name": "bad", "strategy": "random", "p": 1, "q": 0, "r": 2,
               "nodes": [48, 96], "docs": 5, "trials": 2, "seed": 1}
        sweeps = value if key == "sweeps" else [{**raw, key: value}]
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"schema_version": 1, "sweeps": sweeps}))
        argv = ["sweep", "--config", str(config), "--out", str(tmp_path)]
        assert main(argv) == 2
        assert f"error: {key} must be" in capsys.readouterr().err
        assert not (tmp_path / "bad.csv").exists()

    def test_name_outside_out_dir_exits_2(self, tmp_path, capsys):
        raw = {"name": "../x", "strategy": "random", "p": 1, "q": 0, "r": 2,
               "nodes": [48], "docs": 5, "trials": 2, "seed": 1}
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"schema_version": 1, "sweeps": [raw]}))
        out = tmp_path / "out"
        argv = ["sweep", "--config", str(config), "--out", str(out)]
        assert main(argv) == 2
        assert "error: name must be a file name" in capsys.readouterr().err
        assert not list(tmp_path.glob("x.*"))

    @pytest.mark.parametrize("flag", ["--points", "--trials"])
    def test_nonpositive_override_exits_2(self, flag, tmp_path, capsys):
        argv = ["sweep", "--preset", "fig4", "--out", str(tmp_path), flag, "0"]
        assert main(argv) == 2
        assert "must be >= 1, got 0" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_missing_config_exits_2(self, tmp_path):
        argv = ["sweep", "--config", str(tmp_path / "nope.json")]
        assert main(argv) == 2

    def test_requires_source(self):
        assert main(["sweep"]) == 2


class TestCliOracle:
    def test_symmetric_exact(self, capsys):
        argv = "oracle --what symmetric-exact --p 1 --q 0 --r 2 --nodes 4".split()
        assert main(argv) == 0
        assert "8/3" in capsys.readouterr().out

    def test_brute_random(self, capsys):
        argv = "oracle --what brute-random --p 1 --q 0 --r 2 --nodes 3".split()
        assert main(argv) == 0
        assert "22/9" in capsys.readouterr().out

    def test_brute_random_follows_semantics(self, capsys):
        # REC(2,2,2) on 3 nodes: the rules differ, and brute-random
        # defaults to the random strategy's multiset rule
        argv = "oracle --what brute-random --p 2 --q 0 --r 2 --nodes 3".split()
        for extra, want in (
            ([], "E[X] = 170/81 "),
            (["--semantics", "multiset"], "E[X] = 170/81 "),
            (["--semantics", "per-cluster"], "E[X] = 154/81 "),
        ):
            assert main(argv + extra) == 0
            assert capsys.readouterr().out.startswith(want)

    def test_group_poly(self, capsys):
        argv = "oracle --what group-poly --p 2 --q 1 --r 1".split()
        assert main(argv) == 0
        assert "1 3 0 0" in capsys.readouterr().out

    def test_group_poly_multiset_at_g24(self, capsys):
        argv = "oracle --what group-poly --p 4 --q 2 --r 4 --semantics multiset"
        assert main(argv.split()) == 0
        out = capsys.readouterr().out
        assert "t = 0..24 [multiset]" in out
        assert out.splitlines()[1].endswith(" 3840 0 0 0 0")

    @pytest.mark.parametrize(
        "what, baseline",
        [("symmetric-exact", oracle.exact_symmetric_expectation),
         ("brute-symmetric", oracle.brute_force_symmetric)],
    )
    def test_symmetric_value_matches_module(self, what, baseline, capsys):
        argv = f"oracle --what {what} --p 1 --q 1 --r 2 --nodes 8".split()
        assert main(argv) == 0
        value = baseline(
            RecParams(1, 1, 2), SystemParams(8, 2), LossSemantics.PER_CLUSTER
        )
        assert capsys.readouterr().out.startswith(
            f"E[X] = {value} = {float(value)!r}  ["
        )

    def test_nodes_required(self, capsys):
        argv = "oracle --what symmetric-exact --p 1 --q 0 --r 2".split()
        assert main(argv) == 2

    def test_size_guard_exits_2(self, capsys):
        argv = "oracle --what brute-random --p 1 --q 0 --r 2 --nodes 40".split()
        assert main(argv) == 2


class TestCliSelftest:
    def test_quick_passes(self, capsys):
        assert main(["selftest", "--level", "quick"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "beta-identity" in out

    def test_full_level_passes(self):
        # the full level adds the exact-versus-integral sweep to N = 120
        # and the simulation-versus-theory checks
        results = run_selftest(level="full")
        assert {"symmetric-exact-vs-integral-full", "simulation-agreement"} <= {
            res.name for res in results
        }
        assert [res for res in results if not res.ok] == []

    def test_failure_sets_exit_code(self, capsys, monkeypatch):
        from rec_persist.selftest import CheckResult

        monkeypatch.setattr(
            "rec_persist.cli.run_selftest",
            lambda level: [CheckResult("rigged", False, "boom")],
        )
        assert main(["selftest"]) == 1
        assert "FAIL rigged" in capsys.readouterr().out


class TestSelftestNegativeControl:
    def test_perturbed_beta_is_caught(self, monkeypatch):
        from rec_persist import selftest

        beta_real = selftest.beta_real
        monkeypatch.setattr(
            selftest, "beta_real", lambda a, b: beta_real(a, b) * (1.0 + 1e-6)
        )
        results = run_selftest(level="quick")
        failing = [res for res in results if not res.ok]
        assert failing
        assert any(res.name == "beta-identity" for res in failing)

    def test_level_validated(self):
        with pytest.raises(ValueError):
            run_selftest(level="extreme")


def test_cli_commands_do_not_import_scipy(tmp_path):
    # no command needs scipy, selftest included; the SVG writer escapes
    # text without xml.sax, which loads urllib and email
    script = f"""
import sys
from rec_persist.cli import main
base = ["--p", "2", "--q", "1", "--r", "2", "--nodes", "48"]
assert main(["simulate", "--strategy", "random", *base, "--docs", "5",
             "--trials", "3"]) == 0
for strategy in ("random", "symmetric"):
    assert main(["analytic", "--strategy", strategy, *base, "--docs", "8",
                 "--method", "integral"]) == 0
assert main(["sweep", "--preset", "fig7", "--points", "2", "--trials", "2",
             "--out", {str(tmp_path)!r}]) == 0
assert main(["selftest", "--level", "quick"]) == 0
heavy = ("scipy", "email", "urllib.request", "http.client")
print(sorted(m for m in sys.modules if m.split(".")[0] in heavy or m in heavy))
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_module_entry_point():
    proc = subprocess.run(
        [
            sys.executable, "-m", "rec_persist", "analytic",
            "--strategy", "random", "--p", "1", "--q", "0", "--r", "1",
            "--nodes", "2", "--docs", "1", "--method", "sum",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "E[X] = 1.5" in proc.stdout
