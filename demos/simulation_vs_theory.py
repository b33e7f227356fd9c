"""Seeded Monte Carlo runs against the matching closed formulas."""

from rec_persist import (
    EXACT_METHOD,
    PlacementStrategy,
    RecParams,
    SimConfig,
    SystemParams,
    WorkloadClass,
    expect,
    simulate,
)

TRIALS = 5000

print(f"{TRIALS} seeded trials per configuration; z = deviation in "
      "standard errors")
print()

cases = [
    (PlacementStrategy.RANDOM, RecParams(1, 0, 2), 48, 5),
    (PlacementStrategy.RANDOM, RecParams(2, 1, 1), 30, 10),
    (PlacementStrategy.SYMMETRIC, RecParams(1, 1, 1), 96, 48),
    (PlacementStrategy.SYMMETRIC, RecParams(2, 1, 2), 60, 10),
]

for strategy, rec, nodes, docs in cases:
    system = SystemParams(nodes, docs)
    theory = expect(strategy, rec, system, EXACT_METHOD[strategy]).value
    summary = simulate(
        SimConfig(
            strategy=strategy,
            classes=(WorkloadClass(rec, docs),),
            nodes=nodes,
            trials=TRIALS,
            master_seed=2024,
        )
    )
    z = (summary.mean - theory) / summary.std_error
    print(f"{strategy.value:>9} REC({rec.p},{rec.chunks},{rec.r}) "
          f"N={nodes:>3} D={docs:>3}: simulated {summary.mean:8.3f} "
          f"+/- {summary.std_error:.3f}, theory {theory:8.3f}, z={z:+.2f}")

print()
print("a mixed workload has no single formula; the simulator still runs it")
mixed = SimConfig(
    strategy=PlacementStrategy.RANDOM,
    classes=(
        WorkloadClass(RecParams(1, 0, 3), 20),
        WorkloadClass(RecParams(2, 1, 1), 5),
    ),
    nodes=48,
    trials=TRIALS,
    master_seed=2025,
)
summary = simulate(mixed)
print(f"  20 docs of REC(1,1,3) + 5 docs of REC(2,3,1) on 48 nodes: "
      f"E[X] ~ {summary.mean:.3f} +/- {summary.std_error:.3f} "
      f"(out_of_theory={mixed.out_of_theory})")
