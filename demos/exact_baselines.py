"""Rational-arithmetic baselines and where the two loss semantics split.

Everything printed here is an exact Fraction; floats appear only in the
display columns.
"""

from fractions import Fraction

from rec_persist import (
    LossSemantics,
    RecParams,
    SystemParams,
    brute_force_random,
    exact_symmetric_expectation,
    expect_random_sum,
    group_polynomial,
)

print("erasure polynomial of one placement group, REC(2,3,1):")
alive = group_polynomial(RecParams(2, 1, 1), LossSemantics.PER_CLUSTER)
print(f"  a_t (number of erased t-subsets that keep the group alive): "
      f"{list(alive)}")
# one generating function serves both rules, so g = 24 needs no 2^24 loop
alive = group_polynomial(RecParams(4, 2, 4), LossSemantics.MULTISET)
print(f"  REC(4,6,4) under multiset, g = 24: {list(alive)}")
print()

print("symmetric placement, REC(2,3,1) on 6 nodes:")
rec = RecParams(2, 1, 1)
system = SystemParams(6, 2)
exact = exact_symmetric_expectation(rec, system, LossSemantics.PER_CLUSTER)
print(f"  E[X] = {exact} = {float(exact)!r}")
assert exact == Fraction(13, 5)
print()

print("random placement by full enumeration, REC(1,1,2) on 4 nodes:")
rec = RecParams(1, 0, 2)
system = SystemParams(4, 1)
brute = brute_force_random(rec, system, LossSemantics.MULTISET)
closed = expect_random_sum(rec, system).value
print(f"  enumeration: {brute} = {float(brute)!r}")
print(f"  closed sum:  {closed!r}")
assert abs(float(brute) - closed) < 1e-12
print()

print("the two loss semantics diverge once p > 1 and r > 1:")
rec = RecParams(2, 1, 2)
system = SystemParams(6, 1)
per_cluster = exact_symmetric_expectation(
    rec, system, LossSemantics.PER_CLUSTER
)
multiset = exact_symmetric_expectation(rec, system, LossSemantics.MULTISET)
print(f"  REC(2,3,2) on 6 nodes, per-cluster: {per_cluster} "
      f"= {float(per_cluster)!r}")
print(f"  REC(2,3,2) on 6 nodes, multiset:    {multiset} "
      f"= {float(multiset)!r}")
assert per_cluster < multiset
print("  per-cluster loss happens no later, so its expectation is smaller")
rec = RecParams(2, 0, 2)
system = SystemParams(3, 1)
for semantics in LossSemantics:
    brute = brute_force_random(rec, system, semantics)
    closed = expect_random_sum(rec, system, semantics).value
    assert abs(float(brute) - closed) < 1e-12
    print(f"  random REC(2,2,2) on 3 nodes, {semantics.value}: {brute} "
          f"= {float(brute)!r}, matched by the survival sum")
print()

print("for p = 1 or r = 1 the semantics coincide:")
for rec in (RecParams(1, 1, 3), RecParams(3, 2, 1)):
    pc = group_polynomial(rec, LossSemantics.PER_CLUSTER)
    ms = group_polynomial(rec, LossSemantics.MULTISET)
    assert pc == ms
    print(f"  REC({rec.p},{rec.chunks},{rec.r}): identical polynomials "
          f"{list(pc)}")
