"""Random versus symmetric placement at matched parameters.

Symmetric placement packs documents onto N/((p+q)r) fixed node groups,
so adding documents past one per group reuses existing groups and the
expected persistency stops depending on D.  Random placement keeps
paying for every extra document through the D^(-1/s) factor.
"""

import math

from rec_persist import (
    Method,
    PlacementStrategy,
    RecParams,
    SystemParams,
    expect,
    expect_random_sum,
    validate_symmetric_preconditions,
)

SYMMETRIC = PlacementStrategy.SYMMETRIC

rec = RecParams(p=1, q=1, r=1)

print("REC(1, 2, 1): one data chunk, one parity chunk, no replication")
print()
print("lightly loaded, D = N/2 documents (one per node group):")
print(f"{'N':>6} {'D':>6} {'random':>12} {'symmetric':>12} {'ratio':>8}")
for nodes in (16, 64, 256, 1024):
    docs = nodes // rec.fragments
    system = SystemParams(nodes, docs)
    assert validate_symmetric_preconditions(rec, system) is None
    random_value = expect_random_sum(rec, system).value
    symmetric_value = expect(SYMMETRIC, rec, system, Method.INTEGRAL).value
    print(f"{nodes:>6} {docs:>6} {random_value:>12.3f} "
          f"{symmetric_value:>12.3f} {symmetric_value / random_value:>8.3f}")
print("the two strategies are nearly interchangeable at this load")
print()

print("heavily loaded, D = N documents:")
print(f"{'N':>6} {'D':>6} {'random':>12} {'symmetric':>12} {'ratio':>8}")
for nodes in (16, 64, 256, 1024):
    system = SystemParams(nodes, nodes)
    random_value = expect_random_sum(rec, system).value
    symmetric_value = expect(SYMMETRIC, rec, system, Method.INTEGRAL).value
    print(f"{nodes:>6} {nodes:>6} {random_value:>12.3f} "
          f"{symmetric_value:>12.3f} {symmetric_value / random_value:>8.3f}")
print("doubling the documents cost the random strategy a factor ~1/sqrt(2);")
print("the symmetric value is identical in both tables")
print()

print("the symmetric side follows its closed asymptotic:")
for nodes in (1024, 4096):
    system = SystemParams(nodes, nodes)
    asym = expect(SYMMETRIC, rec, system, Method.ASYMPTOTIC).value
    print(f"  N = {nodes}: asymptotic {asym:.2f} "
          f"= Gamma(3/2) * sqrt(2N) = "
          f"{math.gamma(1.5) * math.sqrt(2 * nodes):.2f}")

print()
violation = validate_symmetric_preconditions(rec, SystemParams(17, 17))
print(f"N = 17 breaks the symmetric layout: {violation}")
