"""Code parameters, placements, and the two document-loss semantics.

A document under REC(p, p+q, r) is split into p chunks, erasure-coded to
p+q chunks, and each chunk is stored r times, giving (p+q)*r fragments.
Fragment (j, m) is replica j of chunk m.  Replication multiset m collects
the r replicas of chunk m; replica cluster j collects the p+q chunks that
share replica index j.

Two loss rules are supported, and both are one two-level threshold over
the document's (r, p+q) fragment grid (loss_thresholds): the grid splits
into units (by_unit), a unit is hit once hit_at of its fragments are
erased, and the document is lost once lost_at of its units are hit.

* MULTISET: the units are the p+q multisets, each hit when all r of its
  replicas are erased, and q+1 hit multisets lose the document.
* PER_CLUSTER: the units are the r clusters, each hit when q+1 of its
  chunks are erased, and the document is lost once all r are hit.

They coincide for p = 1 or r = 1 and differ otherwise; a document alive
under PER_CLUSTER is always alive under MULTISET.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ParameterError, require_int

__all__ = [
    "RecParams",
    "SystemParams",
    "LossSemantics",
    "PlacementStrategy",
    "require_member",
    "Placement",
    "require_node_ids",
    "default_semantics",
    "loss_thresholds",
    "by_unit",
    "is_document_lost",
    "validate_symmetric_preconditions",
    "require_symmetric_preconditions",
]


class LossSemantics(Enum):
    """Which erasure pattern counts as losing a document."""

    MULTISET = "multiset"
    PER_CLUSTER = "per-cluster"


class PlacementStrategy(Enum):
    RANDOM = "random"
    SYMMETRIC = "symmetric"


def require_member(enum: type[Enum], value, name: str):
    """The member of enum that value is or names, or ParameterError."""
    try:
        return enum(value)
    except ValueError:
        raise ParameterError(
            f"{name} must be one of {[m.value for m in enum]}, got {value!r}"
        ) from None


def default_semantics(strategy: PlacementStrategy) -> LossSemantics:
    """Semantics each strategy's analysis is phrased in."""
    if strategy is PlacementStrategy.RANDOM:
        return LossSemantics.MULTISET
    return LossSemantics.PER_CLUSTER


@dataclass(frozen=True)
class RecParams:
    """REC(p, p+q, r): p data chunks, q parity chunks, r replicas."""

    p: int
    q: int
    r: int

    def __post_init__(self):
        object.__setattr__(self, "p", require_int(self.p, "p", 1))
        object.__setattr__(self, "q", require_int(self.q, "q", 0))
        object.__setattr__(self, "r", require_int(self.r, "r", 1))

    @property
    def chunks(self) -> int:
        return self.p + self.q

    @property
    def fragments(self) -> int:
        """Stored fragments per document, (p+q)*r; the symmetric group size."""
        return (self.p + self.q) * self.r


def loss_thresholds(rec: RecParams, semantics: LossSemantics) -> tuple[int, ...]:
    """(units, length, hit_at, lost_at): the loss rule as a two-level threshold.

    A document's (r, p+q) fragment grid splits into units of length
    fragments, its p+q columns, the replication multisets, or its r rows,
    the replica clusters (by_unit).  A unit is hit once hit_at of its
    fragments are erased, and the document is lost once lost_at of its
    units are hit.  Every loss evaluator, predicate and count derives from it.
    """
    if semantics is LossSemantics.MULTISET:
        return rec.chunks, rec.r, rec.r, rec.q + 1
    if semantics is LossSemantics.PER_CLUSTER:
        return rec.r, rec.chunks, rec.q + 1, rec.r
    raise ParameterError(f"unknown semantics {semantics!r}")


def by_unit(grid: np.ndarray, semantics: LossSemantics) -> np.ndarray:
    """grid, last two axes (r, p+q), as (unit, fragment) of loss_thresholds."""
    if semantics is LossSemantics.MULTISET:
        return grid.swapaxes(-1, -2)
    if semantics is LossSemantics.PER_CLUSTER:
        return grid
    raise ParameterError(f"unknown semantics {semantics!r}")


@dataclass(frozen=True)
class SystemParams:
    """Storage system size: node count N and document count D."""

    nodes: int
    docs: int

    def __post_init__(self):
        object.__setattr__(self, "nodes", require_int(self.nodes, "nodes", 1))
        object.__setattr__(self, "docs", require_int(self.docs, "docs", 1))


def validate_symmetric_preconditions(
    rec: RecParams, system: SystemParams
) -> str | None:
    """The first failed symmetric-theory precondition, or None when they hold.

    The closed-form symmetric results need (p+q)*r to divide N and enough
    documents to occupy every group of (p+q)*r consecutive nodes, i.e.
    D >= N / ((p+q)*r).  The message starts with the condition's name,
    "divisibility" or "document-count".
    """
    g = rec.fragments
    if system.nodes % g != 0:
        return f"divisibility: (p+q)*r = {g} does not divide nodes = {system.nodes}"
    if system.docs * g < system.nodes:
        return (
            f"document-count: docs = {system.docs} is below "
            f"nodes/((p+q)*r) = {system.nodes // g}"
        )
    return None


def require_symmetric_preconditions(rec: RecParams, system: SystemParams) -> None:
    """ParameterError naming the failed symmetric precondition, if one fails."""
    violation = validate_symmetric_preconditions(rec, system)
    if violation is not None:
        raise ParameterError(f"symmetric preconditions failed, {violation}")


@dataclass
class Placement:
    """Node assignment for every fragment of every document.

    table[k, j, m] is the node holding replica j of chunk m of document k,
    shape (docs, r, p+q), entries in [0, nodes).
    """

    rec: RecParams
    nodes: int
    table: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.nodes = require_int(self.nodes, "nodes", 1)
        table = np.asarray(self.table)
        if (
            table.ndim != 3
            or table.shape[1:] != (self.rec.r, self.rec.chunks)
            or table.shape[0] < 1
        ):
            raise ParameterError(
                f"placement table must have shape (docs >= 1, {self.rec.r}, "
                f"{self.rec.chunks}), got {table.shape}"
            )
        if not np.issubdtype(table.dtype, np.integer):
            raise ParameterError("placement table must hold integer node ids")
        require_node_ids(table, self.nodes)
        self.table = table

    @property
    def docs(self) -> int:
        return self.table.shape[0]


def require_node_ids(table: np.ndarray, nodes: int) -> None:
    """ParameterError unless every entry of the integer array table is in [0, nodes)."""
    if table.min() < 0 or table.max() >= nodes:
        raise ParameterError("placement table entries must lie in [0, nodes)")


def is_document_lost(rec: RecParams, erased, semantics: LossSemantics) -> bool:
    """Apply one loss rule to a single document's erasure flags.

    erased is a boolean array of shape (r, p+q): erased[j, m] says replica j
    of chunk m is gone.
    """
    flags = np.asarray(erased, dtype=bool)
    if flags.shape != (rec.r, rec.chunks):
        raise ParameterError(
            f"erased flags must have shape ({rec.r}, {rec.chunks}), got {flags.shape}"
        )
    _, _, hit_at, lost_at = loss_thresholds(rec, semantics)
    hit = by_unit(flags, semantics).sum(axis=1) >= hit_at
    return bool(hit.sum() >= lost_at)
