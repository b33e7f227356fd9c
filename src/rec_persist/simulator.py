"""Monte Carlo simulation of data persistency.

A trial places every document's fragments and draws a uniform random
removal order of the nodes; the persistency X of the trial is the number of
removals at which the first document is lost.  With rank[v] the removal
time of node v, a document's loss time is an order statistic over its
units of each unit's order statistic of its fragments' ranks (the two
levels of model.loss_thresholds), so X is the minimum of those loss times
over documents.  One evaluator, _first_loss, computes it for a batch of
trials with elementwise min/max over planes of erasure times; persistency
runs it on a batch of one, for a placement given as a (D, r, p+q) array of
node ids, the form place_random and place_symmetric return.

Trials are deterministic functions of (master_seed, trial_index): trial i
draws from default_rng(seed), where seed stands in for
SeedSequence([master_seed, i]) with the words that _seed_words computes in
numpy uint32 arithmetic for SEED_BLOCK trials at a time (_trial_seeds), so
numpy seeds PCG64 itself without a SeedSequence object a trial.  The same
pass seeds sweep grid points (_point_seeds); trials run serially, in batches.
simulate_trials returns each trial's X; simulate summarises them, and
simulate_many summarises many configs from one seeding stream.
Each trial gathers its erasure times from one reused rank row into its
row of each class's int32 (batch, r, p+q, D) buffer, through node ids in
(r, p+q, D) layout: symmetric trials share one index, built directly in
that layout by round-robin arithmetic (_symmetric_index), and a random
trial gathers through its drawn table's transpose.
A symmetric class stores one period of its documents, N/gcd(N, g), since
the rest repeat its nodes.  Ranks are int32, which caps nodes below
2^31; a trial's arrays are capped at TRIAL_LIMIT entries, and the trial
count at TRIAL_LIMIT, before anything is allocated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import ParameterError, SizeLimitError, require_int, require_list
from .model import (
    LossSemantics,
    PlacementStrategy,
    RecParams,
    SystemParams,
    by_unit,
    default_semantics,
    loss_thresholds,
    require_member,
    symmetric_period_docs,
    symmetric_power,
)

__all__ = [
    "WorkloadClass",
    "SimConfig",
    "SimSummary",
    "place_random",
    "place_symmetric",
    "persistency",
    "simulate_trials",
    "simulate",
    "simulate_many",
]

# entries (rank row plus erasure times, int32) one batch of trials counts;
# with one random trial's drawn ids and the gather's contiguous copy of
# them a full batch takes about 1 MiB
BUDGET = 1 << 17
# entries of one trial, its rank row plus every class's placement ids
# (256 MiB as int32; a random trial's intp ids, the gather's copy of them
# and the int32 times make its peak about five times that); simulate
# refuses larger runs before allocating, and a trial this large runs alone
TRIAL_LIMIT = 1 << 26
# trials whose seed words one numpy pass computes, across configs; the
# words take 32 bytes a trial
SEED_BLOCK = 1 << 12


def _draw_table(
    rec: RecParams, nodes: int, docs: int, rng: np.random.Generator
) -> np.ndarray:
    """A (docs, r, p+q) intp table of i.i.d. uniform node ids, drawn from rng;
    below 2^32 nodes numpy draws the same values for every integer dtype."""
    size = (docs, rec.r, rec.chunks)
    return rng.integers(0, nodes, size=size, dtype=np.intp)


def _require_placement_size(rec: RecParams, docs: int) -> None:
    """The public placements hold all docs*(p+q)*r ids at once; refuse more
    than TRIAL_LIMIT, simulate's cap on one trial."""
    if docs * rec.fragments > TRIAL_LIMIT:
        raise SizeLimitError(
            f"a placement of {docs * rec.fragments} node ids (docs*(p+q)*r) "
            f"is above the limit of {TRIAL_LIMIT}"
        )


def place_random(
    rec: RecParams, system: SystemParams, rng: np.random.Generator
) -> np.ndarray:
    """(D, r, p+q) intp node ids, each fragment on an i.i.d. uniform node.

    Raises SizeLimitError, before allocating, above TRIAL_LIMIT ids.
    """
    _require_placement_size(rec, system.docs)
    return _draw_table(rec, system.nodes, system.docs, rng)


def _symmetric_index(rec: RecParams, nodes: int, docs: int, start: int) -> np.ndarray:
    """Round-robin node ids in the gather's (r, p+q, D) layout: replica j of
    chunk m of document k on node (start + k*g + j*(p+q) + m) mod N."""
    g = rec.fragments
    first = start % nodes
    fragment = np.arange(g, dtype=np.intp).reshape(rec.r, rec.chunks, 1)
    index = fragment + np.arange(first, first + docs * g, g, dtype=np.intp)
    index %= nodes
    return index


def place_symmetric(rec: RecParams, system: SystemParams) -> np.ndarray:
    """Round-robin placement: document k starts at node k*(p+q)*r mod N.

    Fragments of one document go to consecutive nodes in replica-major
    order (cluster 1's chunks, then cluster 2's, ...), wrapping modulo N.
    Returns the (D, r, p+q) intp array of node ids, a view of
    _symmetric_index; raises SizeLimitError, before allocating, above
    TRIAL_LIMIT ids.
    """
    _require_placement_size(rec, system.docs)
    index = _symmetric_index(rec, system.nodes, system.docs, 0)
    return index.transpose(2, 0, 1)


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


def _first_loss(t: np.ndarray, rec: RecParams, semantics: LossSemantics) -> np.ndarray:
    """First document loss of each batch row, for erasure times t.

    t[b, k, j, m] is the erasure time of replica j of chunk m of document k
    in row b, shape (batch, D, r, p+q) of rec.  Under the rule's
    loss_thresholds a unit is hit at the hit_at-th smallest time of its
    fragments, and a document dies at the lost_at-th smallest hit time of
    its units.  Returns the earliest death over documents, shape (batch,).
    """
    _, _, hit_at, lost_at = loss_thresholds(rec, semantics)
    hits = _order_statistic(by_unit(t, semantics), hit_at - 1)
    return _order_statistic(hits, lost_at - 1).min(axis=1)


def persistency(rec: RecParams, table, order, semantics: LossSemantics | str) -> int:
    """Removals until the first document loss, for one placement and order.

    table[k, j, m] is the node holding replica j of chunk m of document k,
    an integer array of shape (D >= 1, r, p+q) with ids in [0, N), and
    order lists the N nodes in removal order, N = len(order).  A fragment
    is erased at its node's removal time, the node's 1-based position in
    order, and a document dies once its fragments' erasures meet the
    rule's loss_thresholds.  The result is the earliest death over
    documents.  A malformed table or order raises ParameterError.
    """
    table, order = np.asarray(table), np.asarray(order)
    if table.ndim != 3 or table.shape[1:] != (rec.r, rec.chunks) or table.shape[0] < 1:
        raise ParameterError(
            f"placement table must have shape (docs >= 1, {rec.r}, "
            f"{rec.chunks}), got {table.shape}"
        )
    if not np.issubdtype(table.dtype, np.integer):
        raise ParameterError("placement table must hold integer node ids")
    if order.ndim != 1:
        raise ParameterError(
            f"removal order must list the nodes once each, got shape {order.shape}"
        )
    nodes = len(order)
    if table.min() < 0 or table.max() >= nodes:
        raise ParameterError("placement table entries must lie in [0, nodes)")
    if (
        not np.issubdtype(order.dtype, np.integer)
        or order.min() < 0
        or order.max() >= nodes
    ):
        raise ParameterError("removal order must hold node ids in [0, nodes)")
    # a rank left at 0 marks a node that order misses, so order repeats one
    rank = np.zeros((1, nodes), dtype=np.int64)
    rank[0, order] = np.arange(1, nodes + 1)
    if not rank.all():
        raise ParameterError("removal order must be a permutation of the nodes")
    # t[0, k, j, m] = rank[0, table[k, j, m]], gathered in the (r, p+q, D)
    # layout so that each (j, m) plane of t is contiguous over documents and
    # the elementwise passes in _first_loss stream through memory
    t = rank.take(table.transpose(1, 2, 0), axis=1).transpose(0, 3, 1, 2)
    return int(_first_loss(t, rec, semantics)[0])


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

    Construction checks every field, turns a strategy name into its enum
    and settles the loss rule: semantics is default_semantics(strategy,
    semantics), a LossSemantics member whether it was omitted, named or
    given as one.
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
        put("semantics", default_semantics(self.strategy, self.semantics))
        put("classes", tuple(self.classes))
        if not self.classes:
            raise ParameterError("at least one workload class is required")
        for wc in self.classes:
            if not isinstance(wc, WorkloadClass):
                raise ParameterError(f"classes must hold WorkloadClasses, got {wc!r}")
        for name, minimum in (("nodes", 1), ("trials", 1), ("master_seed", 0)):
            put(name, require_int(getattr(self, name), name, minimum))

    @property
    def out_of_theory(self) -> bool:
        """True when no closed-form analysis covers this configuration.

        The analysis covers either loss rule.  Mixed workloads have no
        single-formula counterpart, and symmetric runs leave it where
        symmetric_power raises: the documents' windows of nodes overlap.
        """
        if len(self.classes) > 1:
            return True
        if self.strategy is PlacementStrategy.SYMMETRIC:
            wc = self.classes[0]
            try:
                symmetric_power(wc.rec, SystemParams(self.nodes, wc.docs))
            except ParameterError:
                return True
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
    period of them (symmetric_period_docs).
    """
    if config.strategy is PlacementStrategy.RANDOM:
        return [wc.docs for wc in config.classes]
    return [
        symmetric_period_docs(wc.rec, config.nodes, wc.docs)
        for wc in config.classes
    ]


def _entropy_table(entropies) -> tuple[np.ndarray, np.ndarray]:
    """_seed_words' (entropy, lengths) of entropies, each a sequence of ints
    that SeedSequence takes as the little-endian 32-bit words of each int
    ([0] for 0), one entropy a column."""
    columns = [
        [(value >> at) & 0xFFFFFFFF
         for value in entropy for at in range(0, max(value.bit_length(), 1), 32)]
        for entropy in entropies
    ]
    lengths = np.array([len(words) for words in columns])
    table = np.zeros((max(4, lengths.max()), len(columns)), np.uint32)
    for c, words in enumerate(columns):
        table[: len(words), c] = words
    return table, lengths


# SeedSequence's hash constants (numpy.random.bit_generator)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """init * mult^k mod 2^32 for k = 0 .. count, as a uint32 column."""
    factors = np.array([init] + [mult] * count, np.uint32)
    return np.multiply.accumulate(factors, dtype=np.uint32)[:, None]


def _hashed(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of row i of values with consts i and i+1."""
    values = values ^ consts[:-1]
    values *= consts[1:]
    values ^= values >> 16
    return values


def _mixed(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of pool words x with hashed words y."""
    result = _MIX_L * x
    result -= _MIX_R * y
    result ^= result >> 16
    return result


def _seed_words(entropy: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """SeedSequence(column).generate_state(4, np.uint64) of each column.

    entropy is a (width >= 4, n) uint32 array whose column j holds an
    entropy of lengths[j] words, zero-padded.  SeedSequence hashes the
    first 4 words into its pool as if zero-padded to 4, and mixes each
    later word into all of the pool, with hash constants that depend only
    on the word's position; so one pass serves every length, a later word
    applied only where lengths reach it.  Every step is numpy's uint32
    arithmetic over all n columns at once; returns (4, n) uint64.
    """
    consts = _hash_consts(_INIT_A, _MULT_A, 4 * len(entropy))
    pool = _hashed(entropy[:4], consts[:5])
    at = 4
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        pool[dst] = _mixed(pool[dst], _hashed(pool[src], consts[at : at + 4]))
        at += 3
    for src in range(4, len(entropy)):
        mixed = _mixed(pool, _hashed(entropy[src], consts[at : at + 5]))
        pool = np.where(src < lengths, mixed, pool)
        at += 4
    state = _hashed(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _hash_consts(_INIT_B, _MULT_B, 8))
    state = state.astype(np.uint64)
    return state[0::2] | state[1::2] << np.uint64(32)


class _TrialSeed:
    """SeedSequence([m, t]) of one trial as default_rng uses it: PCG64
    calls only generate_state(4, np.uint64), which returns words, the
    trial's.  _trial_seeds registers the class as an ISeedSequence on
    first use, so importing this module loads no numpy.random."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.words


def _trial_seeds(configs: list[SimConfig]):
    """A _TrialSeed for every trial of configs, config by config in trial
    order, with SeedSequence([m, t])'s words for trial t of master seed m;
    one _seed_words pass serves SEED_BLOCK trials at a time, across configs."""
    np.random.bit_generator.ISeedSequence.register(_TrialSeed)
    # each config's entropy [m, 0], whose last word each trial overwrites
    # with its index, one word below TRIAL_LIMIT
    table, lengths = _entropy_table([(config.master_seed, 0) for config in configs])
    counts = [config.trials for config in configs]
    ends = np.cumsum(counts)
    starts = ends - counts
    for first in range(0, int(ends[-1]), SEED_BLOCK):
        rows = np.arange(first, min(first + SEED_BLOCK, ends[-1]))
        owner = np.searchsorted(ends, rows, side="right")
        entropy = table[:, owner]
        entropy[lengths[owner] - 1, np.arange(len(rows))] = rows - starts[owner]
        words = _seed_words(entropy, lengths[owner])
        # PCG64 reads the words through the array's data pointer, so each
        # trial gets a contiguous row, never a strided column of words
        for row in np.ascontiguousarray(words.T):
            yield _TrialSeed(row)


def _point_seeds(entropies) -> list[int]:
    """SeedSequence(e).generate_state(2, np.uint64)[0] for each e of entropies,
    from one _seed_words pass: grid point (N, D) of sweep seed s takes (s, N, D)'s."""
    return _seed_words(*_entropy_table(entropies))[0].tolist()


def _guarded_sizes(config: SimConfig) -> tuple[list[int], int]:
    """_stored_docs(config) and one trial's entries, its rank row plus
    placement tables, once config passes simulate's size guards."""
    nodes = config.nodes
    stored = _stored_docs(config)
    entries = nodes + sum(
        docs * wc.rec.fragments for wc, docs in zip(config.classes, stored)
    )
    if nodes >= 2**31:
        raise SizeLimitError(
            f"simulate needs nodes < 2^31 for int32 ranks, got {nodes}"
        )
    if entries > TRIAL_LIMIT:
        raise SizeLimitError(
            f"one trial needs {entries} entries (nodes plus stored "
            f"docs*(p+q)*r per class), above the limit of {TRIAL_LIMIT}"
        )
    if config.trials > TRIAL_LIMIT:
        raise SizeLimitError(
            f"simulate runs at most {TRIAL_LIMIT} trials, got {config.trials}"
        )
    return stored, entries


def _run_trials(
    config: SimConfig, stored: list[int], entries: int, seeds
) -> np.ndarray:
    """X of each trial of config, each drawn from default_rng of the next
    of seeds; stored and entries are config's _guarded_sizes."""
    nodes, semantics = config.nodes, config.semantics
    symmetric = config.strategy is PlacementStrategy.SYMMETRIC
    # a symmetric class's gather index, placed once
    indexes, start = [], 0
    for wc, docs in zip(config.classes, stored) if symmetric else ():
        indexes.append(_symmetric_index(wc.rec, nodes, docs, start))
        start = (start + wc.docs * wc.rec.fragments) % nodes
    size = max(1, BUDGET // entries)
    removal = np.arange(1, nodes + 1, dtype=np.int32)
    rank = np.empty(nodes, dtype=np.int32)
    # each class's erasure times in the gather's (batch, r, p+q, D) layout,
    # reused by every batch
    times = [
        np.empty((min(size, config.trials), wc.rec.r, wc.rec.chunks, docs), np.int32)
        for wc, docs in zip(config.classes, stored)
    ]
    xs = np.empty(config.trials, dtype=np.int64)
    for first in range(0, config.trials, size):
        batch = range(first, min(first + size, config.trials))
        for row in range(len(batch)):
            rng = np.random.default_rng(next(seeds))
            tables = indexes if symmetric else [
                _draw_table(wc.rec, nodes, wc.docs, rng).transpose(1, 2, 0)
                for wc in config.classes
            ]
            rank[rng.permutation(nodes)] = removal
            # clip never clips, as every id comes from integers(0, N) or a
            # residue mod N; unlike raise, it writes straight into out
            for t, index in zip(times, tables):
                rank.take(index, out=t[row], mode="clip")
            del tables, index  # before the next trial draws its own
        deaths = [
            _first_loss(t[: len(batch)].transpose(0, 3, 1, 2), wc.rec, semantics)
            for wc, t in zip(config.classes, times)
        ]
        xs[batch.start : batch.stop] = reduce(np.minimum, deaths)
    return xs


def _simulated(configs: list[SimConfig]):
    """Each config's trial X in turn, once every config is a SimConfig
    (else ParameterError) that passed the guards; one _trial_seeds stream
    seeds every trial's generator."""
    sizes = []
    for config in configs:
        if not isinstance(config, SimConfig):
            raise ParameterError(f"simulate needs a SimConfig, got {config!r}")
        sizes.append(_guarded_sizes(config))
    seeds = _trial_seeds(configs)
    for config, (stored, entries) in zip(configs, sizes):
        yield _run_trials(config, stored, entries, seeds)


def simulate_trials(config: SimConfig) -> np.ndarray:
    """X of each of config.trials trials, in trial order, as int64.

    Trial i draws from its own default_rng(SeedSequence([master_seed,
    i])): first the random placements of the classes in declared order,
    then the removal permutation.  Symmetric classes share one placement
    counter, which each advances by all of its documents.  Trials run
    max(1, BUDGET // entries) at a time, where entries is one trial's rank
    row plus placement tables (_stored_docs documents a class).  Raises
    SizeLimitError, before allocating, when nodes >= 2^31, or entries or
    trials exceeds TRIAL_LIMIT.
    """
    (xs,) = _simulated([config])
    return xs


def _summary(xs: np.ndarray) -> SimSummary:
    """The moments of xs, from exact integer sums, and its range."""
    xs = xs.tolist()
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


def simulate_many(configs) -> list[SimSummary]:
    """simulate of each config, in order, from one seeding stream.

    Every config passes the size guards before any trial runs, and the
    seed words of all their trials come SEED_BLOCK at a time, so a sweep
    seeds its points in one pass.  Each summary equals simulate(config).
    """
    return [_summary(xs) for xs in _simulated(require_list(configs, "configs"))]


def simulate(config: SimConfig) -> SimSummary:
    """Estimate E[X] over config.trials independent trials.

    The summary is a pure function of the config: its moments are exact
    integer sums over simulate_trials(config), which raises ParameterError
    and SizeLimitError as documented there.
    """
    return simulate_many([config])[0]
