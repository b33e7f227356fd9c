"""Sweep runner, CSV/SVG emission, and the command-line interface."""

import argparse
import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rec_persist import analytic, cli, oracle, specfun, svg, sweep
from rec_persist.cli import main
from rec_persist.errors import ParameterError, QuadratureError
from rec_persist.analytic import Method
from rec_persist.model import (
    LossSemantics, PlacementStrategy, RecParams, SystemParams,
)
from rec_persist import selftest
from rec_persist.selftest import CheckResult, run_selftest
from rec_persist.svg import Series, render_chart

from cli_smoke import API_CHECKS, CASES, label, run_case


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

    def test_repeated_node_count_rejected(self):
        # a repeated N would simulate one point twice from the same master
        # seed and write two identical rows
        raw = {"name": "x", "strategy": "random", "p": 1, "q": 0, "r": 1,
               "nodes": [6, 6], "docs": 1, "trials": 3}
        with pytest.raises(ParameterError, match="nodes must be distinct, 6 appears 2"):
            sweep.spec_from_dict(raw)
        with pytest.raises(ParameterError, match="12 appears 3 times"):
            small_spec(nodes=(12, 6, 12, 18, 12))

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

    def test_name_length_limit(self):
        # 251 bytes of UTF-8 and the 4-byte suffix fill a 255-byte NAME_MAX
        assert small_spec(name="\u00e9" * 125 + "a").name.endswith("a")
        with pytest.raises(ParameterError, match="at most 251 bytes, .* got 252"):
            small_spec(name="\u00e9" * 126)

    def test_overlay_columns_are_the_theory_fields(self):
        columns = [column for column, _, _ in sweep.OVERLAYS.values()]
        theory_fields = [f for f in sweep.SweepRow._fields if f.startswith("theory_")]
        assert sorted(columns) == sorted(theory_fields)
        assert len(set(columns)) == len(columns)

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
    def test_non_spec_raises_parameter_error(self):
        with pytest.raises(ParameterError, match="run_sweep needs a SweepSpec"):
            sweep.run_sweep({"name": "fig7"})

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
        assert by_nodes[10].theory_exact is not None
        # 5 documents of g = 2 wrap around 9 nodes, which 2 does not divide
        spec = small_spec(
            name="offgrid2",
            strategy=PlacementStrategy.SYMMETRIC,
            nodes=(9,),
            docs=5,
            theory=("exact", "asymptotic"),
        )
        row = sweep.run_sweep(spec)[0]
        assert row.theory_exact is None
        assert row.theory_asymptotic is not None
        # the "N/g" rule's 4 do not wrap: 10 integral of (1 - x^2)^4
        row = sweep.run_sweep(replace(spec, docs="N/g"))[0]
        assert row.theory_exact == pytest.approx(256 / 63, rel=1e-12)

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

    @pytest.mark.parametrize("preset", ["fig7", "fig9", "per-cluster-2-1-2"])
    def test_exact_column_equals_one_integral_a_point(self, preset):
        # the exact column is one shared quadrature over the 62-point grid,
        # and each cell is the integral expect computes alone, bit for bit
        if preset in sweep.PRESETS:
            spec = replace(sweep.preset_spec(preset), trials=2)
        else:
            spec = small_spec(name=preset, strategy=PlacementStrategy.SYMMETRIC,
                              p=2, q=1, r=2, nodes=sweep._FIG_GRID, docs="N/g",
                              trials=2, semantics="per-cluster", theory=("exact",))
        rows = sweep.run_sweep(spec)
        assert len(rows) == 62
        for row in rows:
            one = analytic.expect(
                spec.strategy, spec.rec, SystemParams(row.N, row.D),
                Method.INTEGRAL, semantics=spec.semantics,
            )
            assert row.theory_exact.hex() == one.value.hex()

    @pytest.mark.parametrize("budget", ["default", "tight", "starved"])
    def test_only_failing_cells_are_empty(self, budget, request, monkeypatch):
        # 4 documents wrap around 11 nodes, which g = 3 does not divide, so
        # that cell has no theory.  The "N/g" documents never wrap, not even
        # at 8, 10 and 50 nodes, and 4 on 24 nodes fill half its groups.  Two
        # first panels and a budget of 8 let the integrals below 48 nodes
        # converge and stop the others; a starved rule stops all of them.
        # Every other cell is filled, and each cell is what expect gives
        # for its point alone
        if budget == "tight":
            monkeypatch.setattr(analytic, "_FIRST_EDGES", (0.0, 4.0))
            monkeypatch.setattr(analytic, "_MAX_PANELS", 8)
        elif budget == "starved":
            request.getfixturevalue("starved_quadrature")
        spec = small_spec(
            name="mixed", strategy=PlacementStrategy.SYMMETRIC, p=1, q=2, r=1,
            nodes=(8, 9, 10, 12, 48, 50, 96, 480, 4800), docs="N/g",
        )
        rows = sweep.run_sweep(spec)
        rows += sweep.run_sweep(replace(spec, nodes=(11, 24), docs=4))
        failed = set()
        for row in rows:
            system = SystemParams(row.N, row.D)
            for column, _, method in sweep.OVERLAYS.values():
                try:
                    want = analytic.expect(
                        spec.strategy, spec.rec, system, method or Method.INTEGRAL
                    ).value
                except (ParameterError, QuadratureError) as exc:
                    failed.add((row.N, column, type(exc)))
                    want = None
                assert getattr(row, column) == want, (row.N, column)
            assert row.theory_asymptotic is not None
        exact_fails = {
            (n, kind) for n, column, kind in failed if column == "theory_exact"
        }
        unmet = {(11, ParameterError)}
        assert {n for n, column, _ in failed if column != "theory_exact"} <= {
            n for n, _ in unmet
        }
        stopped = {"default": (), "tight": (48, 50, 96, 480, 4800),
                   "starved": (8, 9, 10, 12, 24, 48, 50, 96, 480, 4800)}[budget]
        assert exact_fails == unmet | {(n, QuadratureError) for n in stopped}

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

    def test_svg_skips_empty_cells_mid_series(self, tmp_path, monkeypatch):
        # REC(2,4,1) would wrap 100 documents on 50 and 146 nodes, so the
        # exact overlay is empty there, between filled cells
        nodes = (48, 50, 96, 100, 144, 146)
        drawn = []

        def spy(series, **kwargs):
            drawn.append((series, kwargs))
            return render_chart(series, **kwargs)

        monkeypatch.setattr(sweep, "render_chart", spy)
        for log_axes in (True, False):
            spec = small_spec(
                strategy=PlacementStrategy.SYMMETRIC, p=2, q=2, r=1, nodes=nodes,
                docs=100, trials=3, theory=("exact", "asymptotic"),
                log_axes=log_axes,
            )
            rows = sweep.run_sweep(spec)
            empty = [row.theory_exact is None for row in rows]
            assert empty == [False, True, False, False, False, True]
            path = tmp_path / f"gap-{log_axes}.svg"
            sweep.rows_to_svg(spec, rows, path)
            text = path.read_text()
            lines = ET.fromstring(text).findall("{http://www.w3.org/2000/svg}polyline")
            assert [len(el.get("points").split()) for el in lines] == [4, 6]
            # the same chart as one drawn from the filled cells alone, so the
            # empty cells move neither a line nor an axis
            series, kwargs = drawn.pop()
            filled = []
            for one in series:
                pts = [(x, y) for x, y in zip(one.xs, one.ys) if y is not None]
                if pts:
                    xs, ys = zip(*pts)
                    filled.append(replace(one, xs=xs, ys=ys))
            assert len(filled) == 3
            assert render_chart(filled, **kwargs) == text


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

    def test_missing_and_non_finite_points_are_skipped(self):
        text = render_chart(
            [Series("s", [0, 1, 2, 3, 4, 5], [0.0, None, math.nan, 3.0, math.inf, 5.0])],
            title="t", x_label="x", y_label="y",
        )
        line = ET.fromstring(text).find("{http://www.w3.org/2000/svg}polyline")
        assert len(line.get("points").split()) == 3
        # the skipped points leave the axes spanning 0..5, as the kept ones do
        kept = render_chart(
            [Series("s", [0, 3, 5], [0.0, 3.0, 5.0])],
            title="t", x_label="x", y_label="y",
        )
        assert text == kept

    def test_single_valued_linear_axis(self):
        text = render_chart(
            [Series("s", [1, 2, 3], [7.0, 7.0, 7.0])],
            title="t", x_label="x", y_label="y",
        )
        root = ET.fromstring(text)
        y_labels = [
            el.text for el in root.iter("{http://www.w3.org/2000/svg}text")
            if el.get("text-anchor") == "end"
        ]
        assert y_labels == ["7"]
        # the lone value sits mid-plot: padded by 5% of itself each side
        line = root.find("{http://www.w3.org/2000/svg}polyline")
        assert {pt.split(",")[1] for pt in line.get("points").split()} == {"276.00"}

    @pytest.mark.parametrize("log", [False, True])
    def test_no_drawable_point(self, log):
        # every point is missing, non-finite or (on log axes) not positive:
        # the frame is drawn on a unit range, with no line and no legend
        text = render_chart(
            [Series("s", [0, 1, 2], [None, math.nan, -1.0 if log else math.inf])],
            title="t", x_label="x", y_label="y", log=log,
        )
        root = ET.fromstring(text)
        assert root.find("{http://www.w3.org/2000/svg}polyline") is None
        labels = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
        assert "s" not in labels
        assert [label for label, _ in x_ticks(text)] == [1.0]

    @pytest.mark.parametrize("lo, hi, want", [
        (1.0, 1.0000000000000004, [1.0]),
        (1.0, 1.00001, [1.0, 1.00001]),
        (2976.0, 2976.0000000000005, [2976.0]),
        (0, 40, [0.0, 10.0, 20.0, 30.0, 40.0]),
        # subnormal spans: (hi - lo) / 5 or its power of ten underflows
        (0.0, 5e-324, [0.0]),
        (0.0, 1e-323, [0.0]),
        (0.0, 2.5e-323, [0.0]),
        (0.0, 5e-323, [0.0]),
        # 10**-322 rounds down to 20 subnormal units, so ten times it,
        # 9.9e-322, falls short of the 9.93e-322 a fifth of this span is
        (0.0, 4.955e-321, [0.0]),
        # a fifth of this span is 0.5, but the fifths of its ends differ by
        # 0.5000000000000001, which would take the step to 1
        (0.06968428292533371, 2.569684282925334, [0.5, 1.0, 1.5, 2.0, 2.5]),
    ])
    def test_linear_ticks_are_whole_steps_within_range(self, lo, hi, want):
        ticks = svg._linear_ticks(lo, hi)
        assert ticks == want
        assert all(lo <= t <= hi for t in ticks)
        assert len({svg._fmt(t) for t in ticks}) == len(ticks)

    @settings(deadline=None, max_examples=200)
    @given(
        st.one_of(
            st.just(0.0),
            st.floats(min_value=1e-200, max_value=1e12),
            st.floats(min_value=-1e12, max_value=-1e-200),
        ),
        st.one_of(
            st.just(0.0),
            st.floats(min_value=5e-324, max_value=1e-300),
            st.floats(min_value=1e-200, max_value=1e12),
        ),
    )
    def test_linear_ticks_stay_in_range_with_distinct_labels(self, lo, width):
        hi = lo + width
        ticks = svg._linear_ticks(lo, hi)
        assert 1 <= len(ticks) <= 6
        # the last tick may pass hi by the 1e-9 of a step the count allows
        slack = 1e-9 * (ticks[1] - ticks[0]) if len(ticks) > 1 else 0.0
        for t in ticks:
            assert lo - math.ulp(lo) <= t <= hi + slack + math.ulp(hi)
        assert len({svg._fmt(t) for t in ticks}) == len(ticks)

    def test_subnormal_linear_range_is_one_tick(self):
        text = render_chart([Series("s", [1, 2], [0.0, 5e-324])],
                            title="t", x_label="x", y_label="y", log=False)
        y_labels = [
            el.text for el in ET.fromstring(text).iter("{http://www.w3.org/2000/svg}text")
            if el.get("text-anchor") == "end"
        ]
        assert y_labels == ["0"]
        # 5% of one subnormal unit pads by 0, so the points sit on the frame;
        # a quarter of each value, kept for spans past the float range,
        # would make both values 0 and put them mid-plot
        line = ET.fromstring(text).find("{http://www.w3.org/2000/svg}polyline")
        assert line.get("points") == "104.00,504.00 744.00,48.00"

    def test_ulp_close_linear_values_end(self):
        # values a few ulps apart make a tick step below the ticks' ulp,
        # which must not stall the tick loop; the subprocess bounds the wait
        code = (
            "from rec_persist.svg import Series, render_chart; "
            "print(render_chart([Series('s', [1, 2], [1.0, 1.0000000000000004])], "
            "title='t', x_label='x', y_label='y', log=False))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        ET.fromstring(proc.stdout)

    @pytest.mark.parametrize("log, ys", [
        (False, [-1e308, 1e308]),  # hi - lo is inf
        (False, [-sys.float_info.max, sys.float_info.max]),
        (False, [0.0, sys.float_info.max]),  # only the padded span is inf
        (False, [sys.float_info.max] * 2),  # a single value, padded past it
        (True, [1.0, 1.5e308]),  # the decade past 1e308 is inf
        (True, [1.0, sys.float_info.max]),  # hi * 1.0000001 is inf
    ], ids=["span", "max-span", "padded-span", "single", "log", "log-max"])
    def test_axes_take_any_finite_value(self, log, ys):
        text = render_chart(
            [Series("s", [1, 2], ys, marker=True), Series("t", [1, 2], ys)],
            title="t", x_label="x", y_label="y", log=log,
        )
        root = ET.fromstring(text)
        coords = [
            float(el.get(name)) for el in root.iter()
            for name in ("x", "y", "x1", "y1", "x2", "y2", "cx", "cy")
            if el.get(name) is not None
        ] + [
            float(c) for el in root.iter("{http://www.w3.org/2000/svg}polyline")
            for pt in el.get("points").split() for c in pt.split(",")
        ]
        assert all(math.isfinite(c) for c in coords)
        # the two points sit 5% of the plot inside its frame, bottom left and
        # top right, or mid-height for a single value
        line = root.find("{http://www.w3.org/2000/svg}polyline")
        y0, y1 = ("483.27", "68.73") if ys[0] != ys[1] else ("276.00", "276.00")
        assert line.get("points") == f"104.00,{y0} 744.00,{y1}"
        ticks = (svg._log_ticks if log else svg._linear_ticks)(min(ys), max(ys))
        assert all(min(ys) <= t <= max(ys) for t in ticks)
        assert all(math.isfinite(t) for t in ticks)

    @pytest.mark.parametrize("lo, hi, want", [
        (1.0, 9.99999995, [1.0, 2.0, 5.0, 10.0]),  # 10 is within the slack
        (1e307, 1.5e308, [1e307, 2e307, 5e307, 1e308]),
        (3.0, 3.0, [3.0]),  # one value, between the 1-2-5 ticks
        (3.0, 4.0, [3.0, 4.0]),
        (1.0, 1e4, [1.0, 10.0, 100.0, 1000.0, 10000.0]),  # 13 ticks thin out
        (1.0, 1.5e308, [10.0**k for k in range(0, 309, 26)]),  # every 26th decade
    ])
    def test_log_ticks(self, lo, hi, want):
        assert svg._log_ticks(lo, hi) == want

    def test_single_valued_log_axes_draw_one_tick_each(self):
        text = render_chart([Series("s", [3.0], [3.0], marker=True)],
                            title="t", x_label="x", y_label="y", log=True)
        root = ET.fromstring(text)
        ns = "{http://www.w3.org/2000/svg}"
        grid = [el for el in root.iter(f"{ns}line") if el.get("stroke") == "#dddddd"]
        labels = [el.text for el in root.iter(f"{ns}text") if el.text == "3"]
        assert len(grid) == 2 and labels == ["3", "3"]

    # sha256 of each chart: one per kind of series, axis and empty chart,
    # so any change to the SVG's bytes shows here
    @pytest.mark.parametrize("series, title, log, digest", [
        (
            [Series("sim <mean> & co", [48, 96, 144], [3.0, 5.5, None],
                    "#1f77b4", marker=True),
             Series("exact", [48, 96, 144], [3.1, 5.4, 7.9], "#d62728")],
            "a & <b>", True,
            "8ab878c0326c0e09b50bca430af44b5dbb476c37a384429cc8a4a70d0f3c6dc4",
        ),
        (
            [Series("s", [0, 1, 2, 3], [-2.0, 0.0, math.nan, 40.0], marker=True),
             Series("t", [0, 1, 2, 3], [1.0, 2.0, 3.0, 4.0])],
            "lin", False,
            "7f843adaa74d0bf6cfd771696740d2dddd360f9501bc188dcbf7627589bc6326",
        ),
        (
            [Series("s", [1, 2, 3], [7.0, 7.0, 7.0])], "flat", False,
            "6043369b20935b69248c50dfe210df47d0fc9f48489d6181097191f7f3c95bd3",
        ),
        (
            [Series("s", [0, 1], [None, None])], "empty", True,
            "bf86cfa85fe0973b214c3c85592a702c64ec5a31f71c678f306e985bfdd372a3",
        ),
    ], ids=["log", "linear", "flat", "empty"])
    def test_chart_bytes_are_pinned(self, series, title, log, digest):
        text = render_chart(series, title=title, x_label="x <N>",
                            y_label="y & E", log=log)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


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
        assert "symmetric placement wraps" in capsys.readouterr().err

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

    @pytest.mark.parametrize("tol", ["5", "nan"])
    @pytest.mark.parametrize("method", ["sum", "integral", "asymptotic", "beta-exact"])
    def test_bad_tol_exits_2_on_every_method(self, method, tol, capsys):
        code = main(
            "analytic --strategy random --p 1 --q 1 --r 2 --nodes 1000 "
            f"--docs 10 --method {method} --tol {tol}".split()
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

    @pytest.mark.parametrize("method", ["sum", "integral", "beta-exact"])
    def test_docs_past_float_range_exits_2(self, method):
        # phi^D has no float exponent past 1.8e308: a typed parameter error
        proc = subprocess.run(
            [sys.executable, "-m", "rec_persist", "analytic", "--strategy",
             "random", "--p", "1", "--q", "0", "--r", "2", "--nodes", "1000",
             "--method", method, "--docs", "1" + "0" * 400],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "docs must be at most 1.79769e+308" in proc.stderr

    @pytest.mark.parametrize("strategy, method, nodes", [
        *((strategy, method, "1" + "0" * 400)
          for strategy in ("random", "symmetric")
          for method in ("integral", "asymptotic", "beta-exact")),
        ("random", "sum", "1" + "0" * 400),
        ("random", "sum", "100000000000000000000"),
        ("random", "sum", "9223372036854775808"),
    ], ids=lambda value: "1e400" if len(value) > 30 else value)
    def test_nodes_past_range_exits_2(self, strategy, method, nodes):
        # N past the float range, or N + 1 past np.intp for the sum
        proc = subprocess.run(
            [sys.executable, "-m", "rec_persist", "analytic", "--strategy",
             strategy, "--p", "1", "--q", "0", "--r", "2", "--docs", "1",
             "--method", method, "--nodes", nodes],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "nodes must be at most" in proc.stderr

    def test_sum_head_past_limit_exits_2(self):
        # an N the intp check accepts, whose predicted head of 4.6e18 terms
        # is refused before a term is held
        proc = subprocess.run(
            [sys.executable, "-m", "rec_persist", *_RUNAWAY_SUM.split()],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "above the limit of 67108864" in proc.stderr

    def test_beta_exact_at_docs_past_stirling_square_exits_0(self):
        proc = subprocess.run(
            [sys.executable, "-m", "rec_persist", "analytic", "--strategy",
             "random", "--p", "1", "--q", "0", "--r", "2", "--nodes", "1000",
             "--method", "beta-exact", "--docs", "1" + "0" * 200],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "RESULT strategy=random method=beta-exact" in proc.stdout

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

    @pytest.mark.parametrize(
        "argv, value",
        [("--strategy symmetric --p 2 --q 1 --r 700 --nodes 2100 --docs 1",
          1211.9362932880142),
         ("--strategy random --p 2 --q 1 --r 700 --nodes 2100 --docs 5 "
          "--semantics per-cluster", 1210.543853659003),
         # kappa * power = 3^645 * 10 fits no float, though 3^645 does
         ("--strategy symmetric --p 2 --q 1 --r 645 --nodes 19350 --docs 10",
          11146.82122697069)],
        ids=["symmetric-r700", "random-r700", "symmetric-r645"],
    )
    def test_asymptotic_past_float_range(self, argv, value, capsys):
        # kappa^(1/s) is moderate where kappa itself is past the float
        # range; the values are the leading term in 50-digit mpmath
        assert main(["analytic", *argv.split(), "--method", "asymptotic"]) == 0
        result = capsys.readouterr().out.splitlines()[-1]
        got = float(result.split(" value=")[1].split()[0])
        assert got == pytest.approx(value, rel=1e-12, abs=0.0)

    def test_method_choices(self):
        # benchmark decks and scripts pass these names as --method
        sub = next(
            action for action in cli._parser()._actions
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
        "selftest --level quick",
        "selftest --level full",
    ]

    @pytest.mark.parametrize("argv", ARGVS, ids=lambda a: " ".join(a.split()[:2]))
    def test_same_namespace(self, argv):
        argv = argv.split()
        expected = cli._parser().parse_args(argv)
        assert cli._build_parser(argv[0]).parse_args(argv[1:]) == expected
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
            cli._parser().parse_args(argv)
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


class TestCliSmoke:
    """The CI install job's commands and API checks (cli_smoke), run
    in-process against the source tree."""

    @pytest.mark.parametrize("case", CASES, ids=label)
    def test_case(self, case):
        assert run_case(case) == []

    @pytest.mark.parametrize("check", API_CHECKS, ids=lambda check: check.__name__)
    def test_api_check(self, check):
        assert check() == []


_CI_ARGVS = [case.argv for case in CASES]
_RUNAWAY_SUM = next(argv for argv in _CI_ARGVS if "9223372036854775806" in argv)
# the TestCliDispatch.ARGVS written otherwise than as plain pairs
_NOT_PLAIN = ("--meth ", "--strategy=", "--seed -3")

# values for the generated argv: each parser's good values plus ones that
# argparse refuses, reads as a flag, or reads as a negative number
_BAD_VALUES = st.sampled_from(["", "x", "1.5", "-", "-h", "--p", "-1", "1,2"])
_SPOILS = ["bad-value", "bad-value", "equals", "abbrev", "no-flag", "no-value", "added"]


def _good_values(action):
    if action.choices:
        return st.sampled_from(sorted(action.choices))
    if action.type is int:
        return st.integers(-3, 3000).map(str)
    if action.type is float:
        return st.sampled_from(["1e-8", "0.5", "5", "nan", "1e-12", "-0.5"])
    return st.sampled_from(["cfg.json", "out", "1,0,2,5", "2,1,2,3"])


@st.composite
def _argvs(draw):
    """A subcommand's argv as --flag value pairs from its parser's flags,
    each left out, given once or repeated, with up to two pieces spoilt: a
    bad value, --flag=value, an abbreviation, a flag or value dropped, or
    an unknown flag or -h added."""
    name = draw(st.sampled_from(sorted(cli._SUBCOMMANDS)))
    pairs = []
    for action in cli._build_parser(name)._actions:
        if action.nargs is not None:
            continue
        counts = [1, 1, 1, 1, 1, 1, 0, 2] if action.required else [1, 0, 0, 2]
        for _ in range(draw(st.sampled_from(counts))):
            flag = draw(st.sampled_from(action.option_strings))
            pairs.append([flag, draw(_good_values(action))])
    pieces = list(pairs)
    for spoil in draw(st.lists(st.sampled_from(_SPOILS), max_size=2)):
        if spoil == "added":
            pieces.append(draw(st.sampled_from([["-h"], ["--bogus", "1"]])))
        elif pairs:
            i = draw(st.integers(0, len(pairs) - 1))
            flag, value = pairs[i]
            pieces[i] = {
                "bad-value": lambda: [flag, draw(_BAD_VALUES)],
                "equals": lambda: [f"{flag}={value}"],
                "abbrev": lambda: [flag[: draw(st.integers(3, len(flag)))], value],
                "no-flag": lambda: [value],
                "no-value": lambda: [flag],
            }[spoil]()
    order = draw(st.permutations(range(len(pieces))))
    return [name, *(token for i in order for token in pieces[i])]


def _outcome(parse, argv):
    """parse(argv)'s Namespace as the repr of each value, so a nan --tol
    compares equal, or its exit code; with stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = {key: repr(value) for key, value in vars(parse(argv)).items()}
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


class TestFastPath:
    """Plain --flag value argv is read by cli._read_flags, to the Namespace
    argparse would build; anything else is left to argparse."""

    @pytest.mark.parametrize("argv", TestCliDispatch.ARGVS + _CI_ARGVS)
    def test_plain_pairs_skip_argparse(self, argv):
        plain = not any(marker in argv for marker in _NOT_PLAIN)
        argv = argv.split()
        args = cli._read_flags(argv[0], argv[1:])
        assert (args is not None) == plain
        if plain:
            assert args == cli._parser().parse_args(argv)

    @settings(deadline=None, max_examples=400)
    @given(_argvs())
    def test_same_as_argparse(self, argv):
        assert _outcome(cli._parse, argv) == _outcome(cli._parser().parse_args, argv)


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

    def test_trials_above_limit_exits_2(self, capsys):
        argv = ("simulate --strategy random --p 1 --q 0 --r 2 --docs 5 "
                "--nodes 10 --trials 100000000000000").split()
        assert main(argv) == 2
        assert "error: simulate runs at most" in capsys.readouterr().err


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
         ("name", "sub/a"), ("name", None), ("name", "a\0b"),
         ("name", "x" * 300), ("name", "\ud800"),
         ("theory", 5), ("theory", None),
         ("strategy", "clustered"), ("semantics", "strict"),
         ("sweeps", [5]), ("sweeps", [None]), ("sweeps", []),
         ("sweeps", [{"name": "bad", "strategy": "random", "p": 1, "q": 0,
                      "r": 2, "nodes": [48], "docs": 5, "trials": 2},
                     {"name": "bad", "strategy": "random", "p": 1, "q": 0,
                      "r": 2, "nodes": [96], "docs": 5, "trials": 2}])],
        ids=["p-string", "q-float", "r-null", "trials-null", "seed-string",
             "nodes-scalar", "nodes-float", "nodes-string", "p-bool",
             "docs-bool", "log_axes-string-false", "log_axes-zero",
             "log_axes-string-yes", "name-empty", "name-dot", "name-dotdot",
             "name-subdir", "name-null", "name-nul-byte", "name-too-long",
             "name-lone-surrogate", "theory-scalar",
             "theory-null", "strategy-unknown", "semantics-unknown", "sweeps-number",
             "sweeps-null", "sweeps-empty", "sweeps-same-name"],
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

    def test_long_name_refused_before_any_sweep_runs(self, tmp_path, capsys):
        raw = {"strategy": "random", "p": 1, "q": 0, "r": 2,
               "nodes": [48], "docs": 5, "trials": 2, "seed": 1}
        sweeps = [{**raw, "name": "first"}, {**raw, "name": "x" * 300}]
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"schema_version": 1, "sweeps": sweeps}))
        out = tmp_path / "out"
        argv = ["sweep", "--config", str(config), "--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: name must be at most 251 bytes" in captured.err
        assert not out.exists()

    def test_longest_name_is_written(self, tmp_path, capsys):
        name = "\u00e9" * 125 + "a"
        raw = {"name": name, "strategy": "random", "p": 1, "q": 0, "r": 2,
               "nodes": [48], "docs": 5, "trials": 2, "seed": 1}
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"schema_version": 1, "sweeps": [raw]}))
        argv = ["sweep", "--config", str(config), "--out", str(tmp_path)]
        assert main(argv) == 0
        assert (tmp_path / f"{name}.csv").exists()
        assert (tmp_path / f"{name}.svg").exists()

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

    def test_trials_above_limit_exits_2(self, tmp_path, capsys):
        argv = ["sweep", "--preset", "fig4", "--points", "1", "--out",
                str(tmp_path), "--trials", "100000000000000"]
        assert main(argv) == 2
        assert "error: simulate runs at most" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_refused_sweep_leaves_no_out_dir(self, tmp_path, capsys):
        out = tmp_path / "new-dir"
        argv = ["sweep", "--preset", "fig7", "--points", "1", "--out",
                str(out), "--trials", "100000000000000"]
        assert main(argv) == 2
        assert "error: simulate runs at most" in capsys.readouterr().err
        assert not out.exists()

    def test_out_is_a_file_exits_2(self, tmp_path, capsys):
        out = tmp_path / "afile"
        out.write_text("")
        argv = ["sweep", "--preset", "fig7", "--points", "1", "--trials", "2",
                "--out", str(out)]
        assert main(argv) == 2
        assert "error: cannot write sweep output: " in capsys.readouterr().err
        assert out.read_text() == ""

    def test_csv_path_is_a_directory_exits_2(self, tmp_path, capsys):
        csv_dir = tmp_path / "fig7-symmetric-p2-q2-r1.csv"
        csv_dir.mkdir()
        argv = ["sweep", "--preset", "fig7", "--points", "1", "--trials", "2",
                "--out", str(tmp_path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write sweep output: ")
        assert str(csv_dir) in err
        assert not list(csv_dir.iterdir())

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

    @pytest.mark.parametrize("rule", [None, "multiset", "per-cluster"])
    @pytest.mark.parametrize(
        "what, code, lines",
        [("symmetric-exact", "--p 2 --q 1 --r 2 --nodes 6",
          {"per-cluster": "E[X] = 22/5 = 4.4  [group polynomial count, per-cluster]",
           "multiset": "E[X] = 24/5 = 4.8  [group polynomial count, multiset]"}),
         ("brute-symmetric", "--p 2 --q 1 --r 2 --nodes 6",
          {"per-cluster":
               "E[X] = 22/5 = 4.4  [exhaustive subset enumeration, per-cluster]",
           "multiset":
               "E[X] = 24/5 = 4.8  [exhaustive subset enumeration, multiset]"}),
         ("brute-random", "--p 2 --q 0 --r 2 --nodes 3",
          {"multiset": "E[X] = 170/81 = 2.0987654320987654  [exhaustive "
                       "placement enumeration, random strategy, multiset]",
           "per-cluster": "E[X] = 154/81 = 1.9012345679012346  [exhaustive "
                          "placement enumeration, random strategy, per-cluster]"}),
         ("group-poly", "--p 2 --q 1 --r 2",
          {"per-cluster": "alive counts a_t for t = 0..6 [per-cluster]:\n"
                          "1 6 15 20 6 0 0",
           "multiset": "alive counts a_t for t = 0..6 [multiset]:\n"
                       "1 6 15 20 12 0 0"})],
    )
    def test_output_pinned(self, what, code, lines, rule, capsys):
        # the whole stdout of each baseline; without --semantics each takes
        # its strategy's default rule, multiset for brute-random only
        argv = ["oracle", "--what", what, *code.split()]
        if rule is not None:
            argv += ["--semantics", rule]
        default = "multiset" if what == "brute-random" else "per-cluster"
        assert main(argv) == 0
        assert capsys.readouterr().out == lines[rule or default] + "\n"

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

    def test_check_names_in_run_order(self):
        names = [
            "beta-identity", "small-x-precision",
            "monotone-shift-identity", "incomplete-beta-quadrature",
            "survival-curve-sum", "additive-error-bounds",
            "symmetric-exact-vs-integral", "brute-vs-polynomial",
            "brute-random-pinned", "pinned-values", "symmetric-d-invariance",
            "trial-seeds",
        ]
        assert [res.name for res in run_selftest("quick")] == names
        assert [res.name for res in run_selftest("full")] == names + [
            "symmetric-exact-vs-integral-full", "simulation-agreement",
        ]

    def test_failing_entry_is_reported_and_the_rest_run(self, capsys, monkeypatch):
        # entry 1 fails and entry 2 raises; both are FAILs and the rest run
        def raises():
            raise ValueError("cannot reshape")
        checks = list(selftest.CHECKS["quick"])
        name, raiser = checks[1][0], checks[2][0]
        checks[1] = (name, lambda: (False, "boom"))
        checks[2] = (raiser, raises)
        monkeypatch.setitem(selftest.CHECKS, "quick", tuple(checks))
        results = run_selftest("quick")
        assert [res.name for res in results] == [n for n, _ in checks]
        assert results[1] == CheckResult(name, False, "boom")
        assert results[2] == CheckResult(raiser, False,
                                         "raised ValueError: cannot reshape")
        assert all(res.ok for i, res in enumerate(results) if i not in (1, 2))
        assert main(["selftest"]) == 1
        out = capsys.readouterr().out
        assert f"FAIL {name}: boom\n" in out
        assert f"FAIL {raiser}: raised ValueError: cannot reshape\n" in out
        assert out.endswith(f"{len(checks) - 2}/{len(checks)} checks passed\n")

    def test_failure_sets_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "rec_persist.selftest.run_selftest",
            lambda level: [CheckResult("rigged", False, "boom")],
        )
        assert main(["selftest"]) == 1
        assert "FAIL rigged" in capsys.readouterr().out


def _nan_kernel(x, a, b):
    """log_reg_inc_beta_complement's shape and type, every value nan."""
    out = np.full(np.shape(x), math.nan)
    return out if out.ndim else float(out)


def _plus(result, **deltas):
    """result with each delta added to its field of that name."""
    return replace(result, **{k: getattr(result, k) + d for k, d in deltas.items()})


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

    def test_wrong_point_seeds_are_caught(self, monkeypatch):
        # a grid point's entropy has three ints, a trial's two
        entropy_table = selftest.simulator._entropy_table
        monkeypatch.setattr(
            selftest.simulator, "_entropy_table",
            lambda entropies: entropy_table(
                [e[::-1] if len(e) == 3 else e for e in entropies]),
        )
        ok, detail = selftest._check_trial_seeds()
        assert not ok and detail.startswith("point seed of (0, 48, 4294967296)")

    # (check, module whose name is patched, name, stand-in for the named
    # function f, detail the check must fail with): each stand-in spoils
    # the value its check compares
    FAILURE_CONTROLS = {
        "monotone-shift-identity": (
            selftest, "reg_inc_beta", lambda f: lambda x, a, b: -f(x, a, b),
            r"negative shift -\S+ at x=0\.05, p=1, q=0",
        ),
        "survival-curve-sum": (
            analytic, "survival_curve_random",
            lambda f: lambda rec, system: f(rec, system)[::-1],
            "curve not nonincreasing",
        ),
        "additive-error-bounds": (
            selftest, "expect", lambda f: lambda *args: _plus(f(*args), value=2.0),
            r"\|sum-integral\| = \d\.\d{3} at p=1 q=0 r=2 N=12 D=1",
        ),
        "brute-vs-polynomial": (
            oracle, "exact_symmetric_expectation", lambda f: lambda *args: f(*args) + 1,
            "8/3 != 11/3 at p=1 q=0 r=2 N=4 per-cluster",
        ),
        "brute-random-pinned": (
            oracle, "brute_force_random", lambda f: lambda *args: f(*args) + 1,
            r"31/9 != 22/9 \(multiset\)",
        ),
        "simulation-agreement": (
            selftest, "simulate",
            lambda f: lambda config: _plus(f(config), mean=100.0),
            r"random: \|\S+ - \S+\| > 3 SE",
        ),
        "simulation-agreement-symmetric": (
            selftest, "simulate",
            lambda f: lambda config: _plus(
                f(config), mean=100.0 * (config.strategy is selftest.SYMMETRIC)),
            r"symmetric: \|\S+ - \S+\| > 3 SE",
        ),
        "trial-seeds": (
            selftest.simulator, "_trial_seeds",
            lambda f: lambda configs: itertools.islice(f(configs), 1, None),
            "trial 0 of seed 0: numpy's state differs",
        ),
        "symmetric-d-invariance": (
            selftest, "expect",
            lambda f: lambda strategy, rec, system, method: _plus(
                f(strategy, rec, system, method), value=float(system.docs)),
            r"\S+ != \S+ across D",
        ),
    }

    @pytest.mark.parametrize("control", FAILURE_CONTROLS)
    def test_failure_branch_names_the_fault(self, control, monkeypatch):
        module, name, stand_in, detail = self.FAILURE_CONTROLS[control]
        monkeypatch.setattr(module, name, stand_in(getattr(module, name)))
        check = dict(selftest.CHECKS["full"])[control.removesuffix("-symmetric")]
        ok, got = check()
        assert not ok
        assert re.fullmatch(detail, got), got

    # (modules whose name is patched, name, nan stand-in, checks that must fail)
    NAN_CONTROLS = {
        "kernel": (
            (specfun, analytic, selftest), "log_reg_inc_beta_complement", _nan_kernel,
            {"monotone-shift-identity", "incomplete-beta-quadrature",
             "brute-random-pinned", "additive-error-bounds",
             "symmetric-exact-vs-integral", "pinned-values",
             "symmetric-d-invariance"},
        ),
        "beta_real": (
            (selftest, analytic), "beta_real", lambda a, b: math.nan,
            {"beta-identity", "additive-error-bounds", "pinned-values"},
        ),
    }

    @pytest.mark.parametrize("control", NAN_CONTROLS)
    def test_nan_fails_closed(self, control, monkeypatch, capsys):
        # a nan error must FAIL its check, not slip through max() or a
        # `>` bound, and a check that raises on it must not stop the run
        modules, name, stand_in, must_fail = self.NAN_CONTROLS[control]
        for module in modules:
            monkeypatch.setattr(module, name, stand_in)
        results = run_selftest("quick")
        assert [res.name for res in results] == [n for n, _ in selftest.CHECKS["quick"]]
        failing = {res.name for res in results if not res.ok}
        assert must_fail <= failing
        assert main(["selftest"]) == 1
        out = capsys.readouterr().out
        assert out.endswith(f"{len(results) - len(failing)}/{len(results)} "
                            "checks passed\n")

    def test_level_validated(self):
        with pytest.raises(ParameterError, match="level must be quick or full"):
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
