"""Experiment sweeps: simulated points over a node grid with theory overlays,
emitted as stable CSV and a self-contained SVG chart."""

from __future__ import annotations

import csv
import json
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

from .analytic import EXACT_METHOD, Method, expect
from .errors import ParameterError, QuadratureError, require_int
from .model import LossSemantics, PlacementStrategy, RecParams, SystemParams
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

CSV_COLUMNS = (
    "strategy",
    "p",
    "q",
    "r",
    "N",
    "D",
    "trials",
    "seed",
    "mean_empirical",
    "std_error",
    "theory_exact",
    "theory_asymptotic",
    "theory_beta_exact",
    "semantics",
)

_THEORY_KINDS = ("exact", "asymptotic", "beta-exact")
_DOC_RULES = ("N", "N/g")


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: a REC triple simulated across a grid of node counts.

    docs is either a fixed document count or one of the rules "N"
    (one document per node) and "N/g" (the minimum covering count
    N/((p+q)*r), rounded down but at least 1).  name names the output
    files, so it must be a plain file name.
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
        name = self.name if isinstance(self.name, str) else ""
        if name in ("", ".", "..") or "/" in name or "\\" in name:
            raise ParameterError(
                f"name must be a file name, not empty, '.', '..' or a path, "
                f"got {self.name!r}"
            )
        if not self.nodes:
            raise ParameterError(f"sweep {self.name!r} has an empty node grid")
        if not isinstance(self.docs, str):
            object.__setattr__(self, "docs", require_int(self.docs, "docs", 1))
        elif self.docs not in _DOC_RULES:
            raise ParameterError(
                f"docs must be a positive integer or one of {_DOC_RULES}, "
                f"got {self.docs!r}"
            )
        if not isinstance(self.log_axes, bool):
            raise ParameterError(
                f"log_axes must be true or false, got {self.log_axes!r}"
            )
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


@dataclass(frozen=True)
class SweepRow:
    """One CSV row: the fields are declared in CSV_COLUMNS order."""

    strategy: str
    p: int
    q: int
    r: int
    nodes: int
    docs: int
    trials: int
    seed: int
    mean_empirical: float
    std_error: float
    theory_exact: float | None
    theory_asymptotic: float | None
    theory_beta_exact: float | None
    semantics: str


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

_SPEC_KEYS = {
    "name", "strategy", "p", "q", "r", "nodes", "docs", "trials", "seed",
    "theory", "semantics", "log_axes",
}


def spec_from_dict(raw: dict) -> SweepSpec:
    unknown = set(raw) - _SPEC_KEYS
    if unknown:
        raise ParameterError(f"unknown sweep keys: {sorted(unknown)}")
    for key in ("name", "strategy", "p", "q", "r", "nodes", "docs"):
        if key not in raw:
            raise ParameterError(f"sweep is missing required key {key!r}")
    try:
        strategy = PlacementStrategy(raw["strategy"])
    except ValueError:
        raise ParameterError(f"unknown strategy {raw['strategy']!r}") from None
    semantics = raw.get("semantics")
    if semantics is not None:
        try:
            semantics = LossSemantics(semantics)
        except ValueError:
            raise ParameterError(f"unknown semantics {raw['semantics']!r}") from None
    if not isinstance(raw["nodes"], (list, tuple)):
        raise ParameterError(f"nodes must be a list of integers, got {raw['nodes']!r}")
    return SweepSpec(
        name=str(raw["name"]),
        strategy=strategy,
        p=require_int(raw["p"], "p", 1),
        q=require_int(raw["q"], "q", 0),
        r=require_int(raw["r"], "r", 1),
        nodes=tuple(require_int(n, "nodes", 1) for n in raw["nodes"]),
        docs=raw["docs"],
        trials=require_int(raw.get("trials", 500), "trials", 1),
        seed=require_int(raw.get("seed", 0), "seed", 0),
        theory=tuple(raw.get("theory", ["exact"])),
        semantics=semantics,
        log_axes=raw.get("log_axes", True),
    )


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
    if not isinstance(raw, dict) or raw.get("schema_version") != SCHEMA_VERSION:
        raise ParameterError(
            f"sweep config must declare schema_version = {SCHEMA_VERSION}"
        )
    sweeps = raw.get("sweeps")
    if not isinstance(sweeps, list) or not sweeps:
        raise ParameterError("sweep config must list at least one sweep")
    return [spec_from_dict(s) for s in sweeps]


def _point_seed(base: int, nodes: int, docs: int) -> int:
    ss = np.random.SeedSequence([base, nodes, docs])
    return int(ss.generate_state(2, dtype=np.uint64)[0])


def _theory_values(
    spec: SweepSpec, config: SimConfig, system: SystemParams
) -> dict[str, float | None]:
    """The requested overlays under the loss rule the point simulates."""
    values: dict[str, float | None] = {k: None for k in _THEORY_KINDS}
    in_theory = not config.out_of_theory
    for kind in spec.theory:
        if kind == "beta-exact" and spec.p != 1:
            continue
        if kind != "asymptotic" and not in_theory:
            continue
        method = EXACT_METHOD[spec.strategy] if kind == "exact" else Method(kind)
        try:
            values[kind] = expect(
                spec.strategy, spec.rec, system, method,
                semantics=config.resolved_semantics,
            ).value
        except QuadratureError:
            # leave the cell empty; the run continues with the other
            # points and overlays
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
        theory = _theory_values(spec, config, system)
        rows.append(
            SweepRow(
                strategy=spec.strategy.value,
                p=rec.p,
                q=rec.q,
                r=rec.r,
                nodes=nodes,
                docs=docs,
                trials=config.trials,
                seed=config.master_seed,
                mean_empirical=summary.mean,
                std_error=summary.std_error,
                theory_exact=theory["exact"],
                theory_asymptotic=theory["asymptotic"],
                theory_beta_exact=theory["beta-exact"],
                semantics=config.resolved_semantics.value,
            )
        )
    return rows


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def rows_to_csv(rows: list[SweepRow], path: str | Path) -> None:
    """Write rows in the stable column order; reruns are byte-identical."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([_cell(v) for v in astuple(row)])


def rows_to_svg(spec: SweepSpec, rows: list[SweepRow], path: str | Path) -> None:
    xs = [row.nodes for row in rows]
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
            (row.nodes, getattr(row, attr))
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
        log_x=spec.log_axes,
        log_y=spec.log_axes,
    )
    Path(path).write_text(text)
