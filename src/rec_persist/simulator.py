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
draws the stream of default_rng(SeedSequence([master_seed, i])).  One
reused generator is set to that start through PCG64.state, from the
SeedSequence words that _seed_words computes in numpy uint32 arithmetic
for SEED_BLOCK trials at a time (_trial_states), so the stream is numpy's
own without a SeedSequence object a trial.  They run serially, in batches.
simulate_trials returns each trial's X; simulate summarises them, and
simulate_many summarises many configs from one seeding stream.
The gather reads node ids in (r, p+q, D) layout.  Symmetric trials share
one index, built directly in that layout by round-robin arithmetic
(_symmetric_index); random trials draw their ids into one
(batch, r, p+q, D) intp buffer a class, which becomes the gather's index.
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
    require_node_ids,
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

# entries (rank rows plus erasure times, int32) one batch of trials holds;
# a random batch also holds its drawn ids, as many again but intp, and with
# the gather's temporaries a full batch takes about 2 MiB
BUDGET = 1 << 17
# entries of one trial, its rank row plus every class's placement ids
# (256 MiB as int32; a random trial's intp ids and the times gathered
# through them make its peak about three times that); simulate refuses
# larger runs before allocating, and a trial this large runs alone
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


def place_random(
    rec: RecParams, system: SystemParams, rng: np.random.Generator
) -> np.ndarray:
    """(D, r, p+q) intp node ids, each fragment on an i.i.d. uniform node."""
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
    _symmetric_index.
    """
    index = _symmetric_index(rec, system.nodes, system.docs, 0)
    return index.transpose(2, 0, 1)


def _erasure_times(ranks: np.ndarray, index: np.ndarray) -> np.ndarray:
    """t[b, k, j, m] = ranks[b, index[j, m, k]], shape (batch, D, r, p+q).

    index holds node ids in the gather's (r, p+q, D) layout; when it is
    contiguous there, each (j, m) plane of t is contiguous over documents
    and the elementwise passes in _first_loss stream through memory.
    """
    return ranks.take(index, axis=1).transpose(0, 3, 1, 2)


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
    require_node_ids(table, nodes)
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
    t = _erasure_times(rank, table.transpose(1, 2, 0))
    return int(_first_loss(t, rec.q, semantics)[0])


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
        symmetric_power raises: documents that wrap, (p+q)*r not dividing N.
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


def _entropy_words(seed: int) -> list[int]:
    """seed as the little-endian 32-bit words SeedSequence makes of an int,
    [0] for 0."""
    words = [seed & 0xFFFFFFFF]
    while seed := seed >> 32:
        words.append(seed & 0xFFFFFFFF)
    return words


# SeedSequence's hash constants (numpy.random.bit_generator) and PCG64's
# 128-bit LCG multiplier
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


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


def _trial_states(configs: list[SimConfig]):
    """The PCG64 state of every trial of configs, config by config in trial
    order, as the dict its state setter takes.

    Trial t of master seed m gets the state default_rng(SeedSequence([m,
    t])) starts from: its generate_state(4, np.uint64) words u, with
    inc = 2*(u2, u3) + 1 and state = ((u0, u1) + inc) * mult + inc mod
    2^128, PCG64's seeding.  The words of SEED_BLOCK trials at a time,
    across configs, come from one _seed_words pass.
    """
    seeds = [_entropy_words(config.master_seed) for config in configs]
    lengths = np.array([len(words) for words in seeds])
    table = np.zeros((max(4, lengths.max() + 1), len(seeds)), np.uint32)
    for c, words in enumerate(seeds):
        table[: len(words), c] = words
    counts = [config.trials for config in configs]
    ends = np.cumsum(counts)
    starts = ends - counts
    for first in range(0, int(ends[-1]), SEED_BLOCK):
        rows = np.arange(first, min(first + SEED_BLOCK, ends[-1]))
        owner = np.searchsorted(ends, rows, side="right")
        # a trial's entropy: its config's words, then the trial index
        entropy = table[:, owner]
        entropy[lengths[owner], np.arange(len(rows))] = rows - starts[owner]
        words = _seed_words(entropy, lengths[owner] + 1)
        # a column at a time: a block's words as Python ints would take
        # about 230 bytes a trial
        for column in words.T:
            u0, u1, u2, u3 = column.tolist()
            inc = ((u2 << 64 | u3) << 1 | 1) & _MASK128
            state = (((u0 << 64 | u1) + inc) * _PCG_MULT + inc) & _MASK128
            yield {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }


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


def _run_trials(config: SimConfig, rng, states) -> np.ndarray:
    """X of each trial of config, each drawn by rng from the next of states."""
    nodes = config.nodes
    stored, entries = _guarded_sizes(config)
    symmetric = config.strategy is PlacementStrategy.SYMMETRIC
    # a symmetric class's gather index, placed once
    indexes, start = [], 0
    for wc, docs in zip(config.classes, stored) if symmetric else ():
        indexes.append(_symmetric_index(wc.rec, nodes, docs, start))
        start = (start + wc.docs * wc.rec.fragments) % nodes
    drawn = () if symmetric else config.classes
    size = max(1, BUDGET // entries)
    removal = np.arange(1, nodes + 1, dtype=np.int32)
    bitgen = rng.bit_generator
    xs = np.empty(config.trials, dtype=np.int64)
    for first in range(0, config.trials, size):
        batch = range(first, min(first + size, config.trials))
        ranks = np.zeros((len(batch), nodes), dtype=np.int32)
        # one buffer of drawn ids per random class, in the gather's
        # (batch, r, p+q, D) layout; none when symmetric
        buffers = [
            np.empty((len(batch), wc.rec.r, wc.rec.chunks, wc.docs), np.intp)
            for wc in drawn
        ]
        for row in range(len(batch)):
            bitgen.state = next(states)
            # indexed, so no loop variable keeps a buffer alive
            for c, wc in enumerate(drawn):
                buffers[c][row] = _draw_table(
                    wc.rec, nodes, wc.docs, rng
                ).transpose(1, 2, 0)
            ranks[row][rng.permutation(nodes)] = removal
        # a rank left at 0 marks a node the permutation missed
        if not ranks.all():
            raise ParameterError("removal order must be a permutation of the nodes")
        offsets = np.arange(0, len(batch) * nodes, nodes, dtype=np.intp)
        deaths = []
        for c, wc in enumerate(config.classes):
            if symmetric:
                t = _erasure_times(ranks, indexes[c])
            else:
                # row b's ids index the flattened ranks from b*N on, and
                # t's planes are contiguous over documents, as in _erasure_times
                require_node_ids(buffers[c], nodes)
                buffers[c] += offsets[:, None, None, None]
                t = ranks.reshape(-1).take(buffers[c]).transpose(0, 3, 1, 2)
                buffers[c] = None
            deaths.append(_first_loss(t, wc.rec.q, config.semantics))
            del t  # before the next gather, or the next batch, allocates
        xs[batch.start : batch.stop] = reduce(np.minimum, deaths)
    return xs


def _simulated(configs: list[SimConfig]):
    """Each config's trial X in turn, once every config is a SimConfig
    (else ParameterError) that passed the guards; one generator, reseeded
    from one _trial_states stream, draws them all."""
    for config in configs:
        if not isinstance(config, SimConfig):
            raise ParameterError(f"simulate needs a SimConfig, got {config!r}")
        _guarded_sizes(config)
    rng = np.random.Generator(np.random.PCG64(0))
    states = _trial_states(configs)
    for config in configs:
        yield _run_trials(config, rng, states)


def simulate_trials(config: SimConfig) -> np.ndarray:
    """X of each of config.trials trials, in trial order, as int64.

    Trial i draws from the generator seeded by SeedSequence([master_seed,
    i]): first the random placements of the classes in declared order, then
    the removal permutation.  Symmetric classes share one placement
    counter, which each advances by all of its documents.  Trials run
    max(1, BUDGET // entries) at a time, where entries is one trial's rank
    row plus placement tables (_stored_docs documents a class).  A random
    class's drawn ids are checked against [0, nodes) once a batch
    (ParameterError).  Raises SizeLimitError, before allocating, when
    nodes >= 2^31, or entries or trials exceeds TRIAL_LIMIT.
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
