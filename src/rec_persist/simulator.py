"""Monte Carlo simulation of data persistency.

A trial places every document's fragments and draws a uniform random
removal order of the nodes; the persistency X of the trial is the number of
removals at which the first document is lost.  With rank[v] the removal
time of node v, a document's loss time is an order statistic of its
fragments' ranks (see persistency), so X is the minimum of those order
statistics over documents.  Trials are deterministic functions of
(master_seed, trial_index) and run serially.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .model import (
    LossSemantics,
    Placement,
    PlacementStrategy,
    RecParams,
    SystemParams,
    default_semantics,
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


def place_random(
    rec: RecParams, system: SystemParams, rng: np.random.Generator
) -> Placement:
    """Drop every fragment on an i.i.d. uniform node; collisions allowed."""
    table = rng.integers(
        0, system.nodes, size=(system.docs, rec.r, rec.chunks), dtype=np.int64
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
    flat = (start + np.arange(system.docs * rec.fragments, dtype=np.int64)) % (
        system.nodes
    )
    return Placement(
        rec, system.nodes, flat.reshape(system.docs, rec.r, rec.chunks)
    )


def persistency(placement: Placement, order, semantics: LossSemantics) -> int:
    """Removals until the first document loss, for one removal order.

    A fragment is erased at its node's removal time, the node's 1-based
    position in order.  A MULTISET document dies at the (q+1)-th smallest,
    over its chunks, of the chunk's latest replica time; a PER_CLUSTER
    document dies at the latest, over its replica clusters, of the cluster's
    (q+1)-th smallest chunk time.  The result is the earliest death over
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
    rank = np.zeros(placement.nodes, dtype=np.int64)
    rank[order] = np.arange(1, placement.nodes + 1)
    if not rank.all():
        raise ParameterError("removal order must be a permutation of the nodes")
    # t[j, k, m] is the erasure time of replica j of chunk m of document k,
    # replica-major because numpy reduces a short middle axis several times
    # slower than it reduces over whole contiguous planes
    t = rank.take(placement.table.transpose(1, 0, 2))
    q = placement.rec.q
    if semantics is LossSemantics.MULTISET:
        deaths = np.partition(t.max(axis=0), q, axis=1)[:, q]
    elif semantics is LossSemantics.PER_CLUSTER:
        deaths = np.partition(t, q, axis=2)[:, :, q].max(axis=0)
    else:
        raise ParameterError(f"unknown semantics {semantics!r}")
    return int(deaths.min())


@dataclass(frozen=True)
class WorkloadClass:
    """A block of documents sharing one REC parameter set."""

    rec: RecParams
    docs: int

    def __post_init__(self):
        if not isinstance(self.docs, int) or self.docs < 1:
            raise ParameterError(f"docs must be a positive integer, got {self.docs!r}")


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
        if self.nodes < 1:
            raise ParameterError(f"nodes must be >= 1, got {self.nodes}")
        if self.trials < 1:
            raise ParameterError(f"trials must be >= 1, got {self.trials}")
        if self.master_seed < 0:
            raise ParameterError(f"master_seed must be >= 0, got {self.master_seed}")

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
    mean: float
    std_error: float
    trials: int
    minimum: int
    maximum: int
    master_seed: int
    out_of_theory: bool


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
    moments are exact integer sums.
    """
    semantics = config.resolved_semantics
    symmetric = config.strategy is PlacementStrategy.SYMMETRIC
    fixed = _symmetric_stream(config) if symmetric else None
    xs = []
    for trial in range(config.trials):
        rng = np.random.default_rng(
            np.random.SeedSequence([config.master_seed, trial])
        )
        if symmetric:
            placements = fixed
        else:
            placements = [
                place_random(wc.rec, SystemParams(config.nodes, wc.docs), rng)
                for wc in config.classes
            ]
        order = rng.permutation(config.nodes)
        xs.append(min(persistency(pl, order, semantics) for pl in placements))

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
        mean=mean,
        std_error=std_error,
        trials=count,
        minimum=min(xs),
        maximum=max(xs),
        master_seed=config.master_seed,
        out_of_theory=config.out_of_theory,
    )
