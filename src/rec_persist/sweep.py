"""Experiment sweeps: simulated points over a node grid with theory overlays,
emitted as stable CSV and a self-contained SVG chart."""

from __future__ import annotations

import csv
import json
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .analytic import EXACT_METHOD, Method, expect
from .errors import ParameterError, QuadratureError, require_int
from .model import (
    LossSemantics,
    PlacementStrategy,
    RecParams,
    SystemParams,
    require_member,
)
from .simulator import SimConfig, WorkloadClass, simulate
from .svg import PALETTE, Series, render_chart

__all__ = [
    "SweepSpec",
    "SweepRow",
    "CSV_COLUMNS",
    "PRESETS",
    "preset_spec",
    "load_config",
    "run_sweep",
    "rows_to_csv",
    "rows_to_svg",
]

SCHEMA_VERSION = 1

_THEORY_KINDS = ("exact", "asymptotic", "beta-exact")
_DOC_RULES = ("N", "N/g")


def _listed(value, name: str) -> tuple:
    if not isinstance(value, (list, tuple)):
        raise ParameterError(f"{name} must be a list, got {value!r}")
    return tuple(value)


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: a REC triple simulated across a grid of node counts.

    docs is either a fixed document count or one of the rules "N"
    (one document per node) and "N/g" (the minimum covering count
    N/((p+q)*r), rounded down but at least 1).  name names the output
    files, so it must be a plain file name.  Construction checks every
    field, and turns strategy and semantics names into their enums and
    the nodes and theory lists into tuples.
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
        if name in ("", ".", "..") or "/" in name or "\\" in name:
            raise ParameterError(
                f"name must be a file name, not empty, '.', '..' or a path, "
                f"got {self.name!r}"
            )
        put("strategy", require_member(PlacementStrategy, self.strategy, "strategy"))
        if self.semantics is not None:
            put("semantics", require_member(LossSemantics, self.semantics, "semantics"))
        for field, minimum in (
            ("p", 1), ("q", 0), ("r", 1), ("trials", 1), ("seed", 0)
        ):
            put(field, require_int(getattr(self, field), field, minimum))
        put("nodes", tuple(
            require_int(n, "nodes", 1) for n in _listed(self.nodes, "nodes")
        ))
        if not self.nodes:
            raise ParameterError(f"sweep {self.name!r} has an empty node grid")
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
            if kind not in _THEORY_KINDS:
                raise ParameterError(
                    f"unknown theory overlay {kind!r}; expected {_THEORY_KINDS}"
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
    return [spec_from_dict(s) for s in sweeps]


def _point_seed(base: int, nodes: int, docs: int) -> int:
    ss = np.random.SeedSequence([base, nodes, docs])
    return int(ss.generate_state(2, dtype=np.uint64)[0])


def _theory_values(
    spec: SweepSpec, system: SystemParams, semantics: LossSemantics
) -> dict[str, float | None]:
    """The requested overlays under the loss rule the point simulates.

    A cell stays empty where expect has no route (beta-exact at p != 1),
    the point is outside the theory (symmetric preconditions unmet) or
    the quadrature fails; the run continues with the other cells.
    """
    values: dict[str, float | None] = dict.fromkeys(_THEORY_KINDS)
    for kind in spec.theory:
        method = EXACT_METHOD[spec.strategy] if kind == "exact" else Method(kind)
        try:
            values[kind] = expect(
                spec.strategy, spec.rec, system, method, semantics=semantics
            ).value
        except (ParameterError, QuadratureError):
            pass
    return values


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Simulate every grid point and attach requested theory overlays.

    Rows come back sorted by (N, D); rerunning a spec reproduces them
    exactly.
    """
    rec = spec.rec
    points = sorted((n, spec.docs_at(n)) for n in spec.nodes)
    rows = []
    for nodes, docs in points:
        system = SystemParams(nodes, docs)
        config = SimConfig(
            strategy=spec.strategy,
            classes=(WorkloadClass(rec, docs),),
            nodes=nodes,
            trials=spec.trials,
            master_seed=_point_seed(spec.seed, nodes, docs),
            semantics=spec.semantics,
        )
        summary = simulate(config)
        semantics = config.resolved_semantics
        theory = _theory_values(spec, system, semantics)
        rows.append(
            SweepRow(
                strategy=spec.strategy.value,
                p=rec.p,
                q=rec.q,
                r=rec.r,
                N=nodes,
                D=docs,
                trials=config.trials,
                seed=config.master_seed,
                mean_empirical=summary.mean,
                std_error=summary.std_error,
                theory_exact=theory["exact"],
                theory_asymptotic=theory["asymptotic"],
                theory_beta_exact=theory["beta-exact"],
                semantics=semantics.value,
            )
        )
    return rows


def rows_to_csv(rows: list[SweepRow], path: str | Path) -> None:
    """Write rows in the stable column order; reruns are byte-identical.

    csv writes None as an empty cell and a float by its repr.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows(rows)


def rows_to_svg(spec: SweepSpec, rows: list[SweepRow], path: str | Path) -> None:
    xs = [row.N for row in rows]
    series = [
        Series(
            label="simulation mean",
            xs=xs,
            ys=[row.mean_empirical for row in rows],
            color=PALETTE[0],
            marker=True,
        )
    ]
    overlays = (
        ("theory_exact", "exact"),
        ("theory_beta_exact", "closed Beta form"),
        ("theory_asymptotic", "asymptotic"),
    )
    color = 1
    for attr, label in overlays:
        pts = [
            (row.N, getattr(row, attr))
            for row in rows
            if getattr(row, attr) is not None
        ]
        if pts:
            series.append(
                Series(
                    label=label,
                    xs=[x for x, _ in pts],
                    ys=[y for _, y in pts],
                    color=PALETTE[color % len(PALETTE)],
                )
            )
        color += 1
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
