"""Code parameters, placement strategies, and the two document-loss semantics.

A document under REC(p, p+q, r) is split into p chunks, erasure-coded to
p+q chunks, and each chunk is stored r times, giving (p+q)*r fragments.
Fragment (j, m) is replica j of chunk m.  Replication multiset m collects
the r replicas of chunk m; replica cluster j collects the p+q chunks that
share replica index j.  A placement is a plain integer array of node ids,
table[k, j, m] for fragment (j, m) of document k, shape (D, r, p+q).

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

import math
from dataclasses import dataclass
from enum import Enum

from .errors import ParameterError, require_int

# typing's flag without loading typing; type checkers take it as true
TYPE_CHECKING = False
if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "RecParams",
    "SystemParams",
    "LossSemantics",
    "PlacementStrategy",
    "default_semantics",
    "loss_thresholds",
    "is_document_lost",
    "symmetric_power",
    "symmetric_period_docs",
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


def default_semantics(
    strategy: PlacementStrategy, semantics: LossSemantics | str | None = None
) -> LossSemantics:
    """The loss rule a run of strategy uses; the one place it is settled.

    semantics, a LossSemantics or its name, overrides the rule the
    strategy's analysis is phrased in and is checked by require_member;
    None keeps that rule: multiset for random, per-cluster for symmetric.
    """
    if semantics is not None:
        return require_member(LossSemantics, semantics, "semantics")
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


def loss_thresholds(rec: RecParams, semantics: LossSemantics | str) -> tuple[int, ...]:
    """(units, length, hit_at, lost_at): the loss rule as a two-level threshold.

    A document's (r, p+q) fragment grid splits into units of length
    fragments, its p+q columns, the replication multisets, or its r rows,
    the replica clusters (by_unit).  A unit is hit once hit_at of its
    fragments are erased, and the document is lost once lost_at of its
    units are hit.  Every loss evaluator, predicate and count derives from it.
    semantics is a LossSemantics or its name: a member takes its branch at
    once, and anything else re-enters through require_member.
    """
    if semantics is LossSemantics.MULTISET:
        return rec.chunks, rec.r, rec.r, rec.q + 1
    if semantics is LossSemantics.PER_CLUSTER:
        return rec.r, rec.chunks, rec.q + 1, rec.r
    return loss_thresholds(rec, require_member(LossSemantics, semantics, "semantics"))


def by_unit(grid: np.ndarray, semantics: LossSemantics | str) -> np.ndarray:
    """grid, last two axes (r, p+q), as (unit, fragment) of loss_thresholds."""
    if semantics is LossSemantics.MULTISET:
        return grid.swapaxes(-1, -2)
    if semantics is LossSemantics.PER_CLUSTER:
        return grid
    return by_unit(grid, require_member(LossSemantics, semantics, "semantics"))


@dataclass(frozen=True)
class SystemParams:
    """Storage system size: node count N and document count D."""

    nodes: int
    docs: int

    def __post_init__(self):
        object.__setattr__(self, "nodes", require_int(self.nodes, "nodes", 1))
        object.__setattr__(self, "docs", require_int(self.docs, "docs", 1))


def symmetric_power(rec: RecParams, system: SystemParams) -> int:
    """symmetric_period_docs, the power in symmetric placement's exact
    E[X] = (N+1) integral_0^1 phi^power dx, decided here for every caller:
    the documents' distinct windows of g = (p+q)*r nodes.  Disjoint ones
    (power*g <= N: no document wraps, or g divides N) survive i.i.d.
    erasures independently; overlapping ones have no exact theory, and
    raise ParameterError.
    """
    power = symmetric_period_docs(rec, system.nodes, system.docs)
    if power * rec.fragments > system.nodes:
        raise ParameterError(f"symmetric placement wraps: {power} windows of "
                             f"{rec.fragments} nodes overlap on N = {system.nodes}")
    return power


def symmetric_period_docs(rec: RecParams, nodes: int, docs: int) -> int:
    """How many of docs round-robin documents one period holds.

    Document k starts at node (start + k*g) mod N, so documents k and
    k + N/gcd(N, g) sit on the same nodes, and a repeat cannot change
    when the first document is lost: min(docs, N/gcd(N, g)).
    """
    return min(docs, nodes // math.gcd(nodes, rec.fragments))


def is_document_lost(rec: RecParams, erased, semantics: LossSemantics | str) -> bool:
    """Apply one loss rule to a single document's erasure flags.

    erased is a boolean array of shape (r, p+q): erased[j, m] says replica j
    of chunk m is gone.
    """
    import numpy as np

    flags = np.asarray(erased, dtype=bool)
    if flags.shape != (rec.r, rec.chunks):
        raise ParameterError(
            f"erased flags must have shape ({rec.r}, {rec.chunks}), got {flags.shape}"
        )
    _, _, hit_at, lost_at = loss_thresholds(rec, semantics)
    hit = by_unit(flags, semantics).sum(axis=1) >= hit_at
    return bool(hit.sum() >= lost_at)
