"""Walk through every expectation formula on one worked example.

The running example is REC(2, 3, 2): two data chunks coded into three,
each chunk stored twice, so a document occupies six fragments.
"""

import math

from rec_persist import (
    Method,
    PlacementStrategy,
    RecParams,
    SystemParams,
    expect,
    survival_curve_random,
)

RANDOM, SYMMETRIC = PlacementStrategy.RANDOM, PlacementStrategy.SYMMETRIC

rec = RecParams(p=2, q=1, r=2)
system = SystemParams(nodes=48, docs=10)

print(f"REC(p={rec.p}, p+q={rec.chunks}, r={rec.r}) on N={system.nodes} "
      f"nodes, D={system.docs} documents")
print(f"fragments per document: {rec.fragments}")
print()

print("Random placement")
for method in (Method.EXACT_SUM, Method.INTEGRAL, Method.ASYMPTOTIC):
    result = expect(RANDOM, rec, system, method)
    bound = "-" if result.error_bound is None else f"{result.error_bound:g}"
    print(f"  {result.method.value:<12} E[X] = {result.value:10.4f}   "
          f"additive error bound: {bound}")

print()
print("Symmetric placement")
for method in (Method.INTEGRAL, Method.ASYMPTOTIC):
    result = expect(SYMMETRIC, rec, system, method)
    bound = "-" if result.error_bound is None else f"{result.error_bound:g}"
    print(f"  {result.method.value:<12} E[X] = {result.value:10.4f}   "
          f"additive error bound: {bound}")

print()

# the full survival curve behind the random exact sum
curve = survival_curve_random(rec, system)
print("survival curve Pr[X > l] under random placement:")
shown = [0, 4, 8, 12, 16, 24, 32, 48]
for l in shown:
    print(f"  l = {l:2d}: {curve[l]:.6f}")
print(f"sum of the curve = E[X] = {math.fsum(curve):.4f}")

print()
print("The closed Beta form needs p = 1. REC(1, 1, 3) on the same system:")
simple = RecParams(1, 0, 3)
for method in (Method.EXACT_SUM, Method.BETA_EXACT, Method.ASYMPTOTIC):
    result = expect(RANDOM, simple, system, method)
    print(f"  {result.method.value:<12} E[X] = {result.value:10.4f}")
