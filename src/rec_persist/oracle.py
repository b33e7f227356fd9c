"""Exact rational cross-checks for the analytic formulas.

Everything here counts: generating polynomials over one placement group,
exhaustive subset enumeration, and exhaustive placement enumeration, all in
big integers and fractions.Fraction.  None of it touches the floating-point
formula code, so agreement between the two routes is evidence, not
tautology.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .errors import ParameterError, SizeLimitError
from .model import (
    LossSemantics,
    RecParams,
    SystemParams,
    require_symmetric_preconditions,
)
from .simulator import place_symmetric

__all__ = [
    "group_polynomial",
    "symmetric_survival_l_max",
    "exact_symmetric_survival",
    "exact_symmetric_expectation",
    "brute_force_symmetric",
    "brute_force_random",
]

_MULTISET_ENUM_LIMIT = 20  # 2^((p+q)r) patterns
_SYMMETRIC_NODE_LIMIT = 120
_BRUTE_SUBSET_LIMIT = 16  # 2^N subsets
_BRUTE_PLACEMENT_LIMIT = 10**6  # N^((p+q)r) placements


def _poly_mul(a, b) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return out


def _poly_pow(base, exponent: int) -> list[int]:
    out = [1]
    for _ in range(exponent):
        out = _poly_mul(out, base)
    return out


def group_polynomial(rec: RecParams, semantics: LossSemantics) -> tuple[int, ...]:
    """Alive counts a_t of one group of g = (p+q)*r nodes, t = 0 .. g.

    a_t is the number of t-subsets of the group's nodes whose erasure
    leaves the group's documents recoverable under the given semantics;
    the other C(g, t) - a_t subsets kill it.  PER_CLUSTER comes from
    coefficient extraction: a killing pattern gives every cluster at least
    q+1 erasures, so dead counts are the coefficients of
    (sum_{s=q+1}^{p+q} C(p+q, s) z^s)^r.  MULTISET has no such product
    structure and is enumerated over all 2^((p+q)r) erasure patterns.
    """
    pq = rec.chunks
    g = rec.fragments
    if semantics is LossSemantics.PER_CLUSTER:
        inner = [0] * (pq + 1)
        for s in range(rec.q + 1, pq + 1):
            inner[s] = math.comb(pq, s)
        dead = _poly_pow(inner, rec.r)
        dead += [0] * (g + 1 - len(dead))
        return tuple(math.comb(g, t) - dead[t] for t in range(g + 1))
    if semantics is LossSemantics.MULTISET:
        if g > _MULTISET_ENUM_LIMIT:
            raise SizeLimitError(
                f"multiset enumeration is guarded at (p+q)*r <= "
                f"{_MULTISET_ENUM_LIMIT}, got {g}"
            )
        # slot (j, m) of the canonical group pattern is bit j*(p+q) + m
        multiset_masks = [
            sum(1 << (j * pq + m) for j in range(rec.r)) for m in range(pq)
        ]
        alive = [0] * (g + 1)
        for pattern in range(1 << g):
            erased = sum(
                1 for mask in multiset_masks if pattern & mask == mask
            )
            if erased <= rec.q:
                alive[pattern.bit_count()] += 1
        return tuple(alive)
    raise ParameterError(f"unknown semantics {semantics!r}")


def symmetric_survival_l_max(rec: RecParams, nodes: int) -> int:
    """The last l at which the symmetric Pr[X > l] can be nonzero.

    Pr[X > l] = 0 once l >= N*((r-1)(p+q)+q)/((p+q)r) + 1: a surviving group
    keeps at least p fragments, one per multiset it can still decode from,
    and (r-1)(p+q)+q = (p+q)r - p erasures per group is attainable.
    """
    g = rec.fragments
    if nodes % g != 0:
        raise ParameterError(f"(p+q)*r = {g} does not divide nodes = {nodes}")
    return nodes * (g - rec.p) // g + 1


def exact_symmetric_survival(
    rec: RecParams, system: SystemParams, semantics: LossSemantics
) -> tuple[Fraction, ...]:
    """Exact Pr[X > l], l = 0 .. l_max, under symmetric placement.

    Pr[X > l] = [z^l] G(z)^(N/(p+q)r) / C(N, l) with G the group survival
    polynomial.  The curve ends at the support bound
    l_max = symmetric_survival_l_max(rec, N); every later coefficient is
    zero.
    """
    require_symmetric_preconditions(rec, system)
    if system.nodes > _SYMMETRIC_NODE_LIMIT:
        raise SizeLimitError(
            f"exact symmetric expectation is guarded at nodes <= "
            f"{_SYMMETRIC_NODE_LIMIT}, got {system.nodes}"
        )
    counts = _poly_pow(group_polynomial(rec, semantics), system.nodes // rec.fragments)
    l_max = symmetric_survival_l_max(rec, system.nodes)
    if any(counts[l_max + 1 :]):
        raise RuntimeError("survival count found beyond the support bound")
    return tuple(
        Fraction(counts[l], math.comb(system.nodes, l)) for l in range(l_max + 1)
    )


def exact_symmetric_expectation(
    rec: RecParams, system: SystemParams, semantics: LossSemantics
) -> Fraction:
    """Exact E[X] under symmetric placement as a reduced fraction."""
    return sum(exact_symmetric_survival(rec, system, semantics))


def brute_force_symmetric(
    rec: RecParams, system: SystemParams, semantics: LossSemantics
) -> Fraction:
    """E[X] by enumerating all 2^N erased-node subsets.

    Works on the actual deterministic placement, with no divisibility
    requirements; where the group-polynomial preconditions hold the result
    must match exact_symmetric_expectation exactly.
    """
    nodes = system.nodes
    if nodes > _BRUTE_SUBSET_LIMIT:
        raise SizeLimitError(
            f"subset enumeration is guarded at nodes <= {_BRUTE_SUBSET_LIMIT}, "
            f"got {nodes}"
        )
    placement = place_symmetric(rec, system)
    table = placement.table.tolist()
    need = rec.q + 1
    if semantics is LossSemantics.MULTISET:
        # per document: one node mask per multiset (all replicas of chunk m)
        doc_masks = [
            [
                sum(1 << doc[j][m] for j in range(rec.r))
                for m in range(rec.chunks)
            ]
            for doc in table
        ]

        def lost(erased_mask: int) -> bool:
            for masks in doc_masks:
                full = 0
                for mask in masks:
                    if erased_mask & mask == mask:
                        full += 1
                        if full == need:
                            return True
            return False

    elif semantics is LossSemantics.PER_CLUSTER:
        def lost(erased_mask: int) -> bool:
            for doc in table:
                for row in doc:
                    hit = 0
                    for node in row:
                        hit += erased_mask >> node & 1
                    if hit < need:
                        break
                else:
                    return True
            return False

    else:
        raise ParameterError(f"unknown semantics {semantics!r}")

    alive = [0] * (nodes + 1)
    for erased_mask in range(1 << nodes):
        if not lost(erased_mask):
            alive[erased_mask.bit_count()] += 1
    return sum(
        Fraction(alive[l], math.comb(nodes, l)) for l in range(nodes + 1)
    )


def brute_force_random(
    rec: RecParams, system: SystemParams, semantics: LossSemantics
) -> Fraction:
    """E[X] for a single document by enumerating every placement.

    Averages the surviving l-subset fraction over all N^((p+q)r) fragment
    placements under the given semantics.  The count factors over
    independent units: under MULTISET the p+q multisets, each of r replica
    nodes and hit when all r are erased, with the document lost once q+1
    are hit; under PER_CLUSTER the r clusters, each of p+q chunk nodes and
    hit when q+1 are erased, with the document lost once all r are hit.
    All N^length node tuples of one unit are enumerated once per erased
    subset and the units combined by integer convolution, which counts
    exactly the same placements without materializing each one.
    """
    if system.docs != 1:
        raise ParameterError(
            f"placement enumeration is defined for docs = 1, got {system.docs}"
        )
    nodes = system.nodes
    g = rec.fragments
    if nodes > _BRUTE_SUBSET_LIMIT:
        # the erased-subset loop below is 2^N
        raise SizeLimitError(
            f"placement enumeration is guarded at nodes <= "
            f"{_BRUTE_SUBSET_LIMIT}, got {nodes}"
        )
    if nodes**g > _BRUTE_PLACEMENT_LIMIT:
        raise SizeLimitError(
            f"placement enumeration is guarded at N^((p+q)r) <= "
            f"{_BRUTE_PLACEMENT_LIMIT}, got {nodes}^{g}"
        )
    if semantics is LossSemantics.MULTISET:
        units, length, hit_at, lost_at = rec.chunks, rec.r, rec.r, rec.q + 1
    elif semantics is LossSemantics.PER_CLUSTER:
        units, length, hit_at, lost_at = rec.r, rec.chunks, rec.q + 1, rec.r
    else:
        raise ParameterError(f"unknown semantics {semantics!r}")
    # one unit's node tuples, counted by the nodes they use with multiplicity
    tuple_count: dict[tuple[int, ...], int] = {}
    for tup in itertools.product(range(nodes), repeat=length):
        key = tuple(sorted(tup))
        tuple_count[key] = tuple_count.get(key, 0) + 1
    tuples_total = nodes**length

    alive = [0] * (nodes + 1)
    for erased_mask in range(1 << nodes):
        hit_tuples = sum(
            count
            for key, count in tuple_count.items()
            if sum(erased_mask >> node & 1 for node in key) >= hit_at
        )
        # ways[k] = placements of the units handled so far with k hit
        ways = [1]
        for _ in range(units):
            nxt = [0] * (len(ways) + 1)
            for k, w in enumerate(ways):
                nxt[k] += w * (tuples_total - hit_tuples)
                nxt[k + 1] += w * hit_tuples
            ways = nxt
        alive[erased_mask.bit_count()] += sum(ways[:lost_at])

    placements_total = nodes**g
    return sum(
        Fraction(alive[l], math.comb(nodes, l) * placements_total)
        for l in range(nodes + 1)
    )
