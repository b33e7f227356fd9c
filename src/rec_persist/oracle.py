"""Exact rational cross-checks for the analytic formulas.

Everything here counts: generating polynomials over one placement group,
exhaustive subset enumeration, and exhaustive placement enumeration, all in
big integers and fractions.Fraction, with the loss rule read from
model.loss_thresholds.  None of it touches the floating-point formula
code, so agreement between the two routes is evidence, not tautology.
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
    loss_thresholds,
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


def _units(rec: RecParams, semantics: LossSemantics) -> tuple[int, int, int, int]:
    # (units, length, hit_at, lost_at): loss_thresholds with the unit count
    # and the fragments per unit
    unit_axis, hit_at, lost_at = loss_thresholds(rec, semantics)
    grid = (rec.r, rec.chunks)
    return grid[unit_axis], grid[1 - unit_axis], hit_at, lost_at


def _lost_weight(units: int, lost_at: int, hit, miss) -> list[int]:
    """sum_{k >= lost_at} C(units, k) hit^k miss^(units-k), a polynomial.

    hit and miss count one unit's outcomes that hit it and that miss it
    (polynomials in z, or constants as one-term lists); the units are
    independent, so the sum counts the outcomes of all of them that hit
    at least lost_at.
    """
    out = [0] * ((len(hit) - 1) * units + 1)  # miss is no longer than hit
    for k in range(lost_at, units + 1):
        term = _poly_mul(_poly_pow(hit, k), _poly_pow(miss, units - k))
        for t, c in enumerate(term):
            out[t] += math.comb(units, k) * c
    return out


def group_polynomial(rec: RecParams, semantics: LossSemantics) -> tuple[int, ...]:
    """Alive counts a_t of one group of g = (p+q)*r nodes, t = 0 .. g.

    a_t is the number of t-subsets of the group's nodes whose erasure
    leaves the group's documents recoverable under the given semantics;
    the other C(g, t) - a_t subsets kill it.  Under the rule's
    loss_thresholds the units are independent, so the dead counts are the
    coefficients of sum_{k >= lost_at} C(units, k) h(z)^k m(z)^(units-k),
    where h(z) = sum_{s >= hit_at} C(length, s) z^s counts the erasures
    that hit one unit of length fragments and m(z) those that miss it.
    """
    units, length, hit_at, lost_at = _units(rec, semantics)
    erased = [math.comb(length, s) for s in range(length + 1)]
    hit = [0] * hit_at + erased[hit_at:]
    miss = erased[:hit_at]
    dead = _lost_weight(units, lost_at, hit, miss)
    return tuple(math.comb(rec.fragments, t) - d for t, d in enumerate(dead))


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
    unit_axis, hit_at, lost_at = loss_thresholds(rec, semantics)
    # doc_units[k][u] lists the nodes of unit u of document k; a wrapped
    # placement can repeat a node there, and each fragment on it counts
    doc_units = placement.table.swapaxes(1, 1 + unit_axis).tolist()

    def lost(erased_mask: int) -> bool:
        for units in doc_units:
            hit = 0
            for unit in units:
                erased = 0
                for node in unit:
                    erased += erased_mask >> node & 1
                if erased >= hit_at:
                    hit += 1
                    if hit == lost_at:
                        return True
        return False

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
    placements under the given semantics.  The count factors over the
    independent units of the rule's loss_thresholds: all N^length node
    tuples of one unit are enumerated once per erased subset, the ones
    with at least hit_at erased fragments counted as hit, and the units
    combined by the binomial sum over at least lost_at hit units, which
    counts exactly the same placements without materializing each one.
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
    units, length, hit_at, lost_at = _units(rec, semantics)
    # one unit's node tuples, counted by the nodes they use with multiplicity
    tuple_count: dict[tuple[int, ...], int] = {}
    for tup in itertools.product(range(nodes), repeat=length):
        key = tuple(sorted(tup))
        tuple_count[key] = tuple_count.get(key, 0) + 1
    tuples_total = nodes**length
    placements_total = nodes**g

    alive = [0] * (nodes + 1)
    for erased_mask in range(1 << nodes):
        hit_tuples = sum(
            count
            for key, count in tuple_count.items()
            if sum(erased_mask >> node & 1 for node in key) >= hit_at
        )
        dead = _lost_weight(units, lost_at, [hit_tuples], [tuples_total - hit_tuples])
        alive[erased_mask.bit_count()] += placements_total - dead[0]

    return sum(
        Fraction(alive[l], math.comb(nodes, l) * placements_total)
        for l in range(nodes + 1)
    )
