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
serially, in batches.  simulate stacks the int32 rank rows of a batch's
trials and evaluates each class once a batch.  Symmetric trials share one
placement table, gathered through once; a random trial draws its own
tables, which go into one (batch, D, r, p+q) stack a class, checked once a
batch and gathered row by row in one call.  A symmetric class stores one
period of its documents, N/gcd(N, g), since the rest repeat its nodes.
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
    by_unit,
    default_semantics,
    loss_thresholds,
    require_member,
    require_node_ids,
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

# int32 entries (rank rows plus erasure times) one batch of trials holds; a
# random batch also holds its drawn tables, as many again, and with the
# gather's temporaries a full batch takes about 2 MiB
BUDGET = 1 << 17
# int32 entries of one trial, its rank row plus every class's placement
# table (256 MiB; the gather's int64 index copy makes the peak about four
# times that); simulate refuses larger runs before allocating, and a trial
# this large runs in a batch of its own
TRIAL_LIMIT = 1 << 26


def _id_dtype(nodes: int):
    # an int32 draw equals the int64 draw from the same state below 2^31
    return np.int32 if nodes < 2**31 else np.int64


def _draw_table(
    rec: RecParams, nodes: int, docs: int, rng: np.random.Generator
) -> np.ndarray:
    """A (docs, r, p+q) table of i.i.d. uniform node ids, drawn from rng."""
    size = (docs, rec.r, rec.chunks)
    return rng.integers(0, nodes, size=size, dtype=_id_dtype(nodes))


def place_random(
    rec: RecParams, system: SystemParams, rng: np.random.Generator
) -> Placement:
    """Drop every fragment on an i.i.d. uniform node; collisions allowed."""
    table = _draw_table(rec, system.nodes, system.docs, rng)
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


def _stacked_erasure_times(ranks: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """t[b, k, j, m] = ranks[b, stack[b, k, j, m]]: each row its own table.

    Row b's ids index the flattened ranks from b*N on.  The index is built
    in one pass, contiguous in the stack's (batch, r, p+q, D) view, so take
    copies nothing more and each plane of t is contiguous over documents,
    as in _erasure_times.
    """
    batch, nodes = ranks.shape
    offsets = np.arange(0, batch * nodes, nodes, dtype=np.intp)[:, None, None, None]
    index = np.add(stack.transpose(0, 2, 3, 1), offsets, dtype=np.intp, order="C")
    return ranks.reshape(-1).take(index).transpose(0, 3, 1, 2)


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
    _, _, hit_at, lost_at = loss_thresholds(rec, semantics)
    hits = _order_statistic(by_unit(t, semantics), hit_at - 1)
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
        if not isinstance(self.rec, RecParams):
            raise ParameterError(f"rec must be a RecParams, got {self.rec!r}")
        object.__setattr__(self, "docs", require_int(self.docs, "docs", 1))


@dataclass(frozen=True)
class SimConfig:
    """Seeded trials of one placement strategy over workload classes.

    Construction checks every field and turns strategy and semantics names
    into their enums; semantics None means default_semantics(strategy).
    """

    strategy: PlacementStrategy
    classes: tuple[WorkloadClass, ...]
    nodes: int
    trials: int
    master_seed: int
    semantics: LossSemantics | None = None

    def __post_init__(self):
        def put(field: str, value) -> None:
            object.__setattr__(self, field, value)

        put("strategy", require_member(PlacementStrategy, self.strategy, "strategy"))
        if self.semantics is not None:
            put("semantics", require_member(LossSemantics, self.semantics, "semantics"))
        put("classes", tuple(self.classes))
        if not self.classes:
            raise ParameterError("at least one workload class is required")
        for wc in self.classes:
            if not isinstance(wc, WorkloadClass):
                raise ParameterError(f"classes must hold WorkloadClasses, got {wc!r}")
        for name, minimum in (("nodes", 1), ("trials", 1), ("master_seed", 0)):
            put(name, require_int(getattr(self, name), name, minimum))

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


def _stored_docs(config: SimConfig) -> list[int]:
    """Documents each class's placement table holds, in declared order.

    A random class stores all of its documents, a symmetric class one
    period: its document k starts at node (start + k*g) mod N, so
    documents k and k + N/gcd(N, g) sit on the same nodes, and a repeat
    cannot change the first loss.
    """
    if config.strategy is PlacementStrategy.RANDOM:
        return [wc.docs for wc in config.classes]
    return [
        min(wc.docs, config.nodes // math.gcd(config.nodes, wc.rec.fragments))
        for wc in config.classes
    ]


def _symmetric_stream(config: SimConfig, stored: list[int]) -> list[Placement]:
    # one placement counter runs across classes in declared order, and
    # each class advances it by all of its documents, stored or not
    placements = []
    start = 0
    for wc, docs in zip(config.classes, stored):
        system = SystemParams(config.nodes, docs)
        placements.append(place_symmetric(wc.rec, system, start=start))
        start = (start + wc.docs * wc.rec.fragments) % config.nodes
    return placements


def simulate(config: SimConfig) -> SimSummary:
    """Estimate E[X] over config.trials independent trials.

    The summary is a pure function of the config: trial i draws from the
    generator seeded by (master_seed, i), first the random placements of
    the classes in declared order, then the removal permutation, and the
    moments are exact integer sums.  Trials are evaluated
    max(1, BUDGET // entries) at a time, where entries is one trial's rank
    row plus placement tables, which hold _stored_docs documents per class.
    Symmetric trials share one placement; random trials stack their drawn
    tables, whose ids are checked against [0, nodes) once a batch
    (ParameterError).  Raises SizeLimitError, before allocating, when
    nodes >= 2^31 or entries exceeds TRIAL_LIMIT.
    """
    nodes = config.nodes
    stored = _stored_docs(config)
    entries = nodes + sum(
        docs * wc.rec.fragments for wc, docs in zip(config.classes, stored)
    )
    if nodes >= 2**31:
        raise SizeLimitError(f"simulate needs nodes < 2^31 for int32 ids, got {nodes}")
    if entries > TRIAL_LIMIT:
        raise SizeLimitError(
            f"one trial needs {entries} int32 entries (nodes plus stored "
            f"docs*(p+q)*r per class), above the limit of {TRIAL_LIMIT}"
        )
    semantics = config.resolved_semantics
    symmetric = config.strategy is PlacementStrategy.SYMMETRIC
    if symmetric:
        placements = _symmetric_stream(config, stored)
    size = max(1, BUDGET // entries)
    removal = np.arange(1, nodes + 1, dtype=np.int32)
    xs = []
    for first in range(0, config.trials, size):
        batch = range(first, min(first + size, config.trials))
        ranks = np.zeros((len(batch), nodes), dtype=np.int32)
        # one stack of drawn tables per random class; none when symmetric
        stacks = [
            np.empty((len(batch), wc.docs, wc.rec.r, wc.rec.chunks), np.int32)
            for wc in (() if symmetric else config.classes)
        ]
        for row, trial in enumerate(batch):
            rng = np.random.default_rng(
                np.random.SeedSequence([config.master_seed, trial])
            )
            for wc, stack in zip(config.classes, stacks):
                stack[row] = _draw_table(wc.rec, nodes, wc.docs, rng)
            ranks[row, rng.permutation(nodes)] = removal
        # a rank left at 0 marks a node the permutation missed
        if not ranks.all():
            raise ParameterError("removal order must be a permutation of the nodes")
        for stack in stacks:
            require_node_ids(stack, nodes)
        if symmetric:
            times = ((_erasure_times(ranks, pl.table), pl.rec.q) for pl in placements)
        else:
            times = (
                (_stacked_erasure_times(ranks, stack), wc.rec.q)
                for wc, stack in zip(config.classes, stacks)
            )
        deaths = (_first_loss(t, q, semantics) for t, q in times)
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
