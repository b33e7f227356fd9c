"""Experiment sweeps: simulated points over a node grid with theory overlays,
emitted as stable CSV and a self-contained SVG chart.

Each theory overlay is one analytic.expect_many call over the whole grid,
so a symmetric sweep's exact column is one shared quadrature.  Grid point
(N, D) of sweep seed s simulates from master seed
SeedSequence([s, N, D]).generate_state(2, np.uint64)[0], which
simulator._point_seeds computes for every point of a sweep at once."""

from __future__ import annotations

import csv
import json
import os
from collections import Counter
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import NamedTuple

from .analytic import EXACT_METHOD, Method, expect_many
from .errors import ParameterError, require_int
from .model import (
    LossSemantics,
    PlacementStrategy,
    RecParams,
    SystemParams,
    default_semantics,
    require_member,
)
from .simulator import SimConfig, WorkloadClass, _point_seeds, simulate_many
from .svg import PALETTE, Series, render_chart

__all__ = [
    "SweepSpec",
    "SweepRow",
    "CSV_COLUMNS",
    "OVERLAYS",
    "PRESETS",
    "preset_spec",
    "load_config",
    "run_sweep",
    "rows_to_csv",
    "rows_to_svg",
]

SCHEMA_VERSION = 1

# theory kind -> (CSV column, chart label, route), in the order the chart
# draws them; the route None is the strategy's EXACT_METHOD
OVERLAYS: dict[str, tuple[str, str, Method | None]] = {
    "exact": ("theory_exact", "exact", None),
    "beta-exact": ("theory_beta_exact", "closed Beta form", Method.BETA_EXACT),
    "asymptotic": ("theory_asymptotic", "asymptotic", Method.ASYMPTOTIC),
}
_DOC_RULES = ("N", "N/g")
# the longest file name ext4, XFS, Btrfs, APFS and tmpfs take, in bytes
_NAME_MAX = 255


def _listed(value, name: str) -> tuple:
    if not isinstance(value, (list, tuple)):
        raise ParameterError(f"{name} must be a list, got {value!r}")
    return tuple(value)


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: a REC triple simulated across a grid of distinct node counts.

    docs is either a fixed document count or one of the rules "N"
    (one document per node) and "N/g" (the minimum covering count
    N/((p+q)*r), rounded down but at least 1).  name names the output
    files, so it must be a plain file name that stays within _NAME_MAX
    bytes with its .csv or .svg suffix.  Construction checks every
    field, turns a strategy name into its enum and the nodes and theory
    lists into tuples, and settles the loss rule as SimConfig does.
    """

    name: str
    strategy: PlacementStrategy
    p: int
    q: int
    r: int
    nodes: tuple[int, ...]
    docs: int | str
    trials: int = 500
    seed: int = 0
    theory: tuple[str, ...] = ("exact",)
    semantics: LossSemantics | None = None
    log_axes: bool = True

    def __post_init__(self):
        def put(field: str, value) -> None:
            object.__setattr__(self, field, value)

        name = self.name if isinstance(self.name, str) else ""
        if name in ("", ".", "..") or any(c in name for c in "/\\\0"):
            raise ParameterError(
                f"name must be a file name without NUL bytes, not empty, '.', "
                f"'..' or a path, got {self.name!r}"
            )
        try:
            size = len(os.fsencode(name))
        except UnicodeEncodeError:
            raise ParameterError(
                f"name must be encodable as a file name, got {self.name!r}"
            ) from None
        if size + len(".csv") > _NAME_MAX:
            raise ParameterError(
                f"name must be at most {_NAME_MAX - len('.csv')} bytes, so that "
                f"its .csv and .svg file names fit the file system, got {size}"
            )
        put("strategy", require_member(PlacementStrategy, self.strategy, "strategy"))
        put("semantics", default_semantics(self.strategy, self.semantics))
        for field, minimum in (
            ("p", 1), ("q", 0), ("r", 1), ("trials", 1), ("seed", 0)
        ):
            put(field, require_int(getattr(self, field), field, minimum))
        put("nodes", tuple(
            require_int(n, "nodes", 1) for n in _listed(self.nodes, "nodes")
        ))
        if not self.nodes:
            raise ParameterError(f"sweep {self.name!r} has an empty node grid")
        node, count = Counter(self.nodes).most_common(1)[0]
        if count > 1:
            raise ParameterError(f"nodes must be distinct, {node} appears {count} times")
        if not isinstance(self.docs, str):
            put("docs", require_int(self.docs, "docs", 1))
        elif self.docs not in _DOC_RULES:
            raise ParameterError(
                f"docs must be a positive integer or one of {_DOC_RULES}, "
                f"got {self.docs!r}"
            )
        if not isinstance(self.log_axes, bool):
            raise ParameterError(
                f"log_axes must be true or false, got {self.log_axes!r}"
            )
        put("theory", _listed(self.theory, "theory"))
        for kind in self.theory:
            if kind not in OVERLAYS:
                raise ParameterError(
                    f"unknown theory overlay {kind!r}; expected {tuple(OVERLAYS)}"
                )

    @property
    def rec(self) -> RecParams:
        return RecParams(self.p, self.q, self.r)

    def docs_at(self, nodes: int) -> int:
        if self.docs == "N":
            return nodes
        if self.docs == "N/g":
            return max(1, nodes // self.rec.fragments)
        return self.docs


class SweepRow(NamedTuple):
    """One grid point; the field names are the CSV header."""

    strategy: str
    p: int
    q: int
    r: int
    N: int
    D: int
    trials: int
    seed: int
    mean_empirical: float
    std_error: float
    theory_exact: float | None
    theory_asymptotic: float | None
    theory_beta_exact: float | None
    semantics: str


CSV_COLUMNS = SweepRow._fields


_FIG_GRID = tuple(48 * k for k in range(1, 63))

PRESETS: dict[str, dict] = {
    "fig4": {
        "name": "fig4-random-p1-q0-r2-docs5",
        "strategy": "random",
        "p": 1, "q": 0, "r": 2,
        "nodes": _FIG_GRID,
        "docs": 5,
        "theory": ["exact", "beta-exact"],
        "seed": 404,
    },
    "fig5": {
        "name": "fig5-random-p1-q0-r2-docsN",
        "strategy": "random",
        "p": 1, "q": 0, "r": 2,
        "nodes": _FIG_GRID,
        "docs": "N",
        "theory": ["exact", "beta-exact", "asymptotic"],
        "seed": 405,
    },
    "fig6": {
        "name": "fig6-symmetric-p1-q1-r1",
        "strategy": "symmetric",
        "p": 1, "q": 1, "r": 1,
        "nodes": _FIG_GRID,
        "docs": "N/g",
        "theory": ["exact", "beta-exact", "asymptotic"],
        "seed": 406,
    },
    "fig7": {
        "name": "fig7-symmetric-p2-q2-r1",
        "strategy": "symmetric",
        "p": 2, "q": 2, "r": 1,
        "nodes": _FIG_GRID,
        "docs": "N/g",
        "theory": ["exact", "asymptotic"],
        "seed": 407,
    },
    "fig8": {
        "name": "fig8-random-p1-q2-r1-docsN",
        "strategy": "random",
        "p": 1, "q": 2, "r": 1,
        "nodes": _FIG_GRID,
        "docs": "N",
        "theory": ["exact", "beta-exact", "asymptotic"],
        "seed": 408,
    },
    "fig9": {
        "name": "fig9-symmetric-p1-q2-r1",
        "strategy": "symmetric",
        "p": 1, "q": 2, "r": 1,
        "nodes": _FIG_GRID,
        "docs": "N/g",
        "theory": ["exact", "beta-exact", "asymptotic"],
        "seed": 409,
    },
}

_SPEC_KEYS = {field.name for field in fields(SweepSpec)}
_REQUIRED_KEYS = [
    field.name for field in fields(SweepSpec) if field.default is MISSING
]


def spec_from_dict(raw: dict) -> SweepSpec:
    """The SweepSpec of one config entry; SweepSpec checks the values."""
    if not isinstance(raw, dict):
        raise ParameterError(
            f"sweeps must be a list of JSON objects, got the entry {raw!r}"
        )
    unknown = set(raw) - _SPEC_KEYS
    if unknown:
        raise ParameterError(f"unknown sweep keys: {sorted(unknown)}")
    for key in _REQUIRED_KEYS:
        if key not in raw:
            raise ParameterError(f"sweep is missing required key {key!r}")
    return SweepSpec(**raw)


def preset_spec(name: str) -> SweepSpec:
    if name not in PRESETS:
        raise ParameterError(
            f"unknown preset {name!r}; available: {sorted(PRESETS)}"
        )
    return spec_from_dict(PRESETS[name])


def load_config(path: str | Path) -> list[SweepSpec]:
    """Parse a versioned JSON sweep config into SweepSpec objects."""
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ParameterError(f"cannot read sweep config {path}: {exc}") from None
    version = raw.get("schema_version") if isinstance(raw, dict) else None
    # true and 1.0 compare equal to 1, but are no version number
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ParameterError(
            f"sweep config must declare schema_version = {SCHEMA_VERSION}"
        )
    sweeps = raw.get("sweeps")
    if not isinstance(sweeps, list) or not sweeps:
        raise ParameterError(
            f"sweeps must be a non-empty list of sweeps, got {sweeps!r}"
        )
    specs = [spec_from_dict(s) for s in sweeps]
    # a sweep's name names its files, so a repeated name would overwrite them
    name, count = Counter(spec.name for spec in specs).most_common(1)[0]
    if count > 1:
        raise ParameterError(
            f"sweeps must be uniquely named: {name!r} appears {count} times"
        )
    return specs


def _theory_cells(
    spec: SweepSpec, systems: list[SystemParams]
) -> list[dict[str, float | None]]:
    """Each point's theory cells by column: the requested overlays under
    the loss rule the points simulate.

    An overlay is one expect_many call over the whole grid, so the exact
    column of a symmetric sweep is one shared quadrature.  A cell stays
    empty where expect has no route (beta-exact at p != 1), the point is
    outside the theory (symmetric windows that overlap, model.symmetric_power)
    or its quadrature fails; the other cells are unaffected.
    """
    cells = [dict.fromkeys(column for column, _, _ in OVERLAYS.values())
             for _ in systems]
    for kind in spec.theory:
        column, _, method = OVERLAYS[kind]
        if method is None:
            method = EXACT_METHOD[spec.strategy]
        results = expect_many(
            spec.strategy, spec.rec, systems, method, semantics=spec.semantics
        )
        for point, result in zip(cells, results):
            point[column] = None if result is None else result.value
    return cells


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Simulate every grid point, in one simulate_many call, and attach
    requested theory overlays.

    Rows come back sorted by (N, D); rerunning a spec reproduces them
    exactly.  A spec that is no SweepSpec raises ParameterError.
    """
    if not isinstance(spec, SweepSpec):
        raise ParameterError(f"run_sweep needs a SweepSpec, got {spec!r}")
    rec = spec.rec
    points = sorted((n, spec.docs_at(n)) for n in spec.nodes)
    systems = [SystemParams(nodes, docs) for nodes, docs in points]
    seeds = _point_seeds([(spec.seed, *point) for point in points])
    configs = [
        SimConfig(
            strategy=spec.strategy,
            classes=(WorkloadClass(rec, docs),),
            nodes=nodes,
            trials=spec.trials,
            master_seed=seed,
            semantics=spec.semantics,
        )
        for (nodes, docs), seed in zip(points, seeds)
    ]
    summaries = simulate_many(configs)
    cells = _theory_cells(spec, systems)
    return [
        SweepRow(
            strategy=spec.strategy.value,
            p=rec.p,
            q=rec.q,
            r=rec.r,
            N=system.nodes,
            D=system.docs,
            trials=config.trials,
            seed=config.master_seed,
            mean_empirical=summary.mean,
            std_error=summary.std_error,
            semantics=spec.semantics.value,
            **point,
        )
        for system, config, summary, point in zip(systems, configs, summaries, cells)
    ]


def rows_to_csv(rows: list[SweepRow], path: str | Path) -> None:
    """Write rows in the stable column order; reruns are byte-identical.

    csv writes None as an empty cell and a float by its repr.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows(rows)


def rows_to_svg(spec: SweepSpec, rows: list[SweepRow], path: str | Path) -> None:
    """Chart the simulation mean and each theory overlay against N; the chart
    leaves out an empty (None) cell, and an overlay with no cell at all."""
    xs = [row.N for row in rows]
    means = [row.mean_empirical for row in rows]
    series = [Series("simulation mean", xs, means, PALETTE[0], marker=True)]
    series += [
        Series(label, xs, [getattr(row, column) for row in rows], PALETTE[i])
        for i, (column, label, _) in enumerate(OVERLAYS.values(), 1)
    ]
    rec = spec.rec
    title = (
        f"{spec.name}: {spec.strategy.value} placement, "
        f"p={rec.p} q={rec.q} r={rec.r}"
    )
    text = render_chart(
        series,
        title=title,
        x_label="nodes N",
        y_label="expected persistency E[X]",
        log=spec.log_axes,
    )
    Path(path).write_text(text)
