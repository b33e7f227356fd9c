"""Monte Carlo simulation of data persistency.

A trial places every document's fragments and draws a uniform random
removal order of the nodes; the persistency X of the trial is the number of
removals at which the first document is lost.  With rank[v] the removal
time of node v, a document's loss time is an order statistic over its
units of each unit's order statistic of its fragments' ranks (the two
levels of model.loss_thresholds), so X is the minimum of those loss times
over documents.  One evaluator, _first_loss, computes it for a batch of
trials with elementwise min/max over planes of erasure times; persistency
runs it on a batch of one.

Trials are deterministic functions of (master_seed, trial_index) and run
serially.  simulate stacks the int32 rank rows of several trials and
evaluates them together when they share a placement (the symmetric
strategy); a random placement belongs to one trial, so its batch holds one.
Node ids and ranks are int32, which caps nodes below 2^31, and a trial's
arrays are capped at TRIAL_LIMIT entries before anything is allocated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import ParameterError, SizeLimitError, require_int
from .model import (
    LossSemantics,
    Placement,
    PlacementStrategy,
    RecParams,
    SystemParams,
    default_semantics,
    loss_thresholds,
    validate_symmetric_preconditions,
)

__all__ = [
    "WorkloadClass",
    "SimConfig",
    "SimSummary",
    "place_random",
    "place_symmetric",
    "persistency",
    "simulate",
]

# int32 entries (rank rows plus erasure times) one batch of trials holds;
# with the gather's temporaries a full batch takes about 2 MiB
BUDGET = 1 << 17
# int32 entries of one trial, its rank row plus every class's placement
# table (256 MiB; the gather's int64 index copy makes the peak about four
# times that); simulate refuses larger runs before allocating
TRIAL_LIMIT = 1 << 26


def _id_dtype(nodes: int):
    # an int32 draw equals the int64 draw from the same state below 2^31
    return np.int32 if nodes < 2**31 else np.int64


def place_random(
    rec: RecParams, system: SystemParams, rng: np.random.Generator
) -> Placement:
    """Drop every fragment on an i.i.d. uniform node; collisions allowed."""
    table = rng.integers(
        0,
        system.nodes,
        size=(system.docs, rec.r, rec.chunks),
        dtype=_id_dtype(system.nodes),
    )
    return Placement(rec, system.nodes, table)


def place_symmetric(
    rec: RecParams, system: SystemParams, start: int = 0
) -> Placement:
    """Round-robin placement: document k starts at node k*(p+q)*r mod N.

    Fragments of one document go to consecutive nodes in replica-major
    order (cluster 1's chunks, then cluster 2's, ...), wrapping modulo N.
    start offsets the whole stream; it is used when several workload
    classes share one placement counter.
    """
    # entry i is (start + i) mod N: the rotated node list, repeated
    nodes = np.arange(system.nodes, dtype=_id_dtype(system.nodes))
    flat = np.resize(np.roll(nodes, -start), system.docs * rec.fragments)
    return Placement(
        rec, system.nodes, flat.reshape(system.docs, rec.r, rec.chunks)
    )


def _erasure_times(ranks: np.ndarray, table: np.ndarray) -> np.ndarray:
    """t[b, k, j, m] = ranks[b, table[k, j, m]], shape (batch, D, r, p+q).

    The gather runs through the table's (r, p+q, D) view, so each (j, m)
    plane of t is contiguous over documents and the elementwise passes in
    _first_loss stream through memory.
    """
    return ranks.take(table.transpose(1, 2, 0), axis=1).transpose(0, 3, 1, 2)


def _order_statistic(values: np.ndarray, q: int) -> np.ndarray:
    """The (q+1)-th smallest over the last axis, by insertion over its planes.

    Of n values only min(q+1, n-q) extremes matter: the q+1 smallest, whose
    largest is the answer, or the n-q largest, whose smallest is.  Each
    plane values[..., m] is inserted into that sorted list with elementwise
    min/max; the value pushed off the list's end is dropped.
    """
    n = values.shape[-1]
    if q + 1 <= n - q:
        keep, inner, outer = q + 1, np.minimum, np.maximum
    else:
        keep, inner, outer = n - q, np.maximum, np.minimum
    kept = []
    for m in range(n):
        x = values[..., m]
        for i, y in enumerate(kept):
            if i + 1 == keep:
                kept[i] = inner(y, x)
            else:
                kept[i], x = inner(y, x), outer(y, x)
        if len(kept) < keep:
            kept.append(x)
    return kept[-1]


def _first_loss(t: np.ndarray, q: int, semantics: LossSemantics) -> np.ndarray:
    """First document loss of each batch row, for erasure times t.

    t[b, k, j, m] is the erasure time of replica j of chunk m of document k
    in row b, shape (batch, D, r, p+q).  Under the rule's loss_thresholds a
    unit is hit at the hit_at-th smallest time of its fragments, and a
    document dies at the lost_at-th smallest hit time of its units.
    Returns the earliest death over documents, shape (batch,).
    """
    rec = RecParams(t.shape[3] - q, q, t.shape[2])
    unit_axis, hit_at, lost_at = loss_thresholds(rec, semantics)
    hits = _order_statistic(t.swapaxes(3 - unit_axis, 3), hit_at - 1)
    return _order_statistic(hits, lost_at - 1).min(axis=1)


def persistency(placement: Placement, order, semantics: LossSemantics) -> int:
    """Removals until the first document loss, for one removal order.

    A fragment is erased at its node's removal time, the node's 1-based
    position in order, and a document dies once its fragments' erasures
    meet the rule's loss_thresholds.  The result is the earliest death over
    documents.
    """
    order = np.asarray(order)
    if order.shape != (placement.nodes,):
        raise ParameterError(
            f"removal order must list all {placement.nodes} nodes, "
            f"got shape {order.shape}"
        )
    if (
        not np.issubdtype(order.dtype, np.integer)
        or order.min() < 0
        or order.max() >= placement.nodes
    ):
        raise ParameterError("removal order must hold node ids in [0, nodes)")
    # a rank left at 0 marks a node that order misses, so order repeats one
    rank = np.zeros((1, placement.nodes), dtype=np.int64)
    rank[0, order] = np.arange(1, placement.nodes + 1)
    if not rank.all():
        raise ParameterError("removal order must be a permutation of the nodes")
    t = _erasure_times(rank, placement.table)
    return int(_first_loss(t, placement.rec.q, semantics)[0])


@dataclass(frozen=True)
class WorkloadClass:
    """A block of documents sharing one REC parameter set."""

    rec: RecParams
    docs: int

    def __post_init__(self):
        object.__setattr__(self, "docs", require_int(self.docs, "docs", 1))


@dataclass(frozen=True)
class SimConfig:
    strategy: PlacementStrategy
    classes: tuple[WorkloadClass, ...]
    nodes: int
    trials: int
    master_seed: int
    semantics: LossSemantics | None = None

    def __post_init__(self):
        object.__setattr__(self, "classes", tuple(self.classes))
        if not self.classes:
            raise ParameterError("at least one workload class is required")
        for name, minimum in (("nodes", 1), ("trials", 1), ("master_seed", 0)):
            value = require_int(getattr(self, name), name, minimum)
            object.__setattr__(self, name, value)

    @property
    def resolved_semantics(self) -> LossSemantics:
        if self.semantics is not None:
            return self.semantics
        return default_semantics(self.strategy)

    @property
    def out_of_theory(self) -> bool:
        """True when no closed-form analysis covers this configuration.

        The analysis covers either loss rule.  Mixed workloads have no
        single-formula counterpart, and symmetric runs leave the theory
        when the divisibility or document-count preconditions fail.
        """
        if len(self.classes) > 1:
            return True
        if self.strategy is PlacementStrategy.SYMMETRIC:
            wc = self.classes[0]
            system = SystemParams(self.nodes, wc.docs)
            return validate_symmetric_preconditions(wc.rec, system) is not None
        return False


@dataclass(frozen=True)
class SimSummary:
    """The moments and range of X over a SimConfig's trials."""

    mean: float
    std_error: float
    minimum: int
    maximum: int


def _symmetric_stream(config: SimConfig) -> list[Placement]:
    # one placement counter runs across classes in declared order
    placements = []
    start = 0
    for wc in config.classes:
        placements.append(
            place_symmetric(wc.rec, SystemParams(config.nodes, wc.docs), start=start)
        )
        start = (start + wc.docs * wc.rec.fragments) % config.nodes
    return placements


def simulate(config: SimConfig) -> SimSummary:
    """Estimate E[X] over config.trials independent trials.

    The summary is a pure function of the config: trial i draws from the
    generator seeded by (master_seed, i), first the random placements of
    the classes in declared order, then the removal permutation, and the
    moments are exact integer sums.  Symmetric trials share one placement
    and are evaluated max(1, BUDGET // entries) at a time, where entries is
    one trial's rank row plus placement tables; random trials one at a
    time.  Raises SizeLimitError, before allocating, when nodes >= 2^31 or
    entries exceeds TRIAL_LIMIT.
    """
    nodes = config.nodes
    entries = nodes + sum(wc.docs * wc.rec.fragments for wc in config.classes)
    if nodes >= 2**31:
        raise SizeLimitError(f"simulate needs nodes < 2^31 for int32 ids, got {nodes}")
    if entries > TRIAL_LIMIT:
        raise SizeLimitError(
            f"one trial needs {entries} int32 entries (nodes plus "
            f"docs*(p+q)*r per class), above the limit of {TRIAL_LIMIT}"
        )
    semantics = config.resolved_semantics
    symmetric = config.strategy is PlacementStrategy.SYMMETRIC
    if symmetric:
        placements = _symmetric_stream(config)
        size = max(1, BUDGET // entries)
    else:
        size = 1  # each trial draws its own placements
    removal = np.arange(1, nodes + 1, dtype=np.int32)
    xs = []
    for first in range(0, config.trials, size):
        batch = range(first, min(first + size, config.trials))
        ranks = np.zeros((len(batch), nodes), dtype=np.int32)
        for row, trial in enumerate(batch):
            rng = np.random.default_rng(
                np.random.SeedSequence([config.master_seed, trial])
            )
            if not symmetric:
                placements = [
                    place_random(wc.rec, SystemParams(nodes, wc.docs), rng)
                    for wc in config.classes
                ]
            ranks[row, rng.permutation(nodes)] = removal
        # a rank left at 0 marks a node the permutation missed
        if not ranks.all():
            raise ParameterError("removal order must be a permutation of the nodes")
        deaths = (
            _first_loss(_erasure_times(ranks, pl.table), pl.rec.q, semantics)
            for pl in placements
        )
        xs.extend(reduce(np.minimum, deaths).tolist())

    count = len(xs)
    total = sum(xs)
    total_sq = sum(x * x for x in xs)
    mean = total / count
    if count >= 2:
        variance = (count * total_sq - total * total) / (count * (count - 1))
        std_error = math.sqrt(max(variance, 0.0) / count)
    else:
        std_error = 0.0
    return SimSummary(
        mean=mean, std_error=std_error, minimum=min(xs), maximum=max(xs)
    )
