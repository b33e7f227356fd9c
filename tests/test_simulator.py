"""Monte Carlo engine: placements, single-run persistency, seeded trials."""

import math

import numpy as np
import pytest

from rec_persist import analytic
from rec_persist.errors import ParameterError
from rec_persist.model import (
    LossSemantics,
    Placement,
    PlacementStrategy,
    RecParams,
    SystemParams,
    is_document_lost,
)
from rec_persist.simulator import (
    SimConfig,
    WorkloadClass,
    persistency,
    place_random,
    place_symmetric,
    simulate,
)

PC = LossSemantics.PER_CLUSTER
MS = LossSemantics.MULTISET


class TestPlaceRandom:
    def test_shape_and_range(self):
        rng = np.random.default_rng(0)
        placement = place_random(RecParams(2, 1, 2), SystemParams(7, 5), rng)
        assert placement.table.shape == (5, 2, 3)
        assert placement.table.min() >= 0
        assert placement.table.max() < 7

    def test_uniformity_chi_square(self):
        # fixed seed; statistic compared against the 99th percentile of
        # chi2 with N-1 degrees of freedom
        from scipy.stats import chi2

        nodes = 20
        rng = np.random.default_rng(1234)
        placement = place_random(
            RecParams(1, 1, 2), SystemParams(nodes, 5000), rng
        )
        counts = np.bincount(placement.table.reshape(-1), minlength=nodes)
        expected = placement.table.size / nodes
        statistic = float(((counts - expected) ** 2 / expected).sum())
        assert statistic < chi2.ppf(0.99, nodes - 1)


class TestPlaceSymmetric:
    def test_round_robin_blocks(self):
        placement = place_symmetric(RecParams(1, 0, 2), SystemParams(4, 2))
        assert placement.table.tolist() == [[[0], [1]], [[2], [3]]]

    def test_wraps_around(self):
        # g=4, N=16: documents 0 and 4 land on the same nodes
        placement = place_symmetric(RecParams(1, 1, 2), SystemParams(16, 7))
        assert placement.table[0].tolist() == [[0, 1], [2, 3]]
        assert placement.table[4].tolist() == [[0, 1], [2, 3]]
        assert placement.table[5].tolist() == [[4, 5], [6, 7]]

    def test_start_offset(self):
        placement = place_symmetric(
            RecParams(1, 0, 2), SystemParams(4, 1), start=3
        )
        assert placement.table.tolist() == [[[3], [0]]]

    def test_replica_major_layout(self):
        # row j of a document is cluster j: chunks of one coded copy
        placement = place_symmetric(RecParams(2, 1, 2), SystemParams(6, 1))
        assert placement.table[0].tolist() == [[0, 1, 2], [3, 4, 5]]


def _reference_persistency(placement, order, semantics):
    # reference implementation: scan removal prefixes and apply the loss
    # predicate from scratch
    erased_nodes = set()
    table = placement.table
    for removed, node in enumerate(order, start=1):
        erased_nodes.add(node)
        for k in range(placement.docs):
            flags = np.isin(table[k], list(erased_nodes))
            if is_document_lost(placement.rec, flags, semantics):
                return removed
    raise AssertionError("document survived all removals")


class TestPersistency:
    def test_hand_example_adjacent_order(self):
        placement = place_symmetric(RecParams(1, 0, 2), SystemParams(4, 2))
        assert persistency(placement, np.array([0, 1, 2, 3]), MS) == 2

    def test_hand_example_interleaved_order(self):
        placement = place_symmetric(RecParams(1, 0, 2), SystemParams(4, 2))
        assert persistency(placement, np.array([0, 2, 1, 3]), MS) == 3

    def test_both_semantics_match_reference(self):
        # random tables down to N = 1 and up to r = 3 put several fragments
        # of one document on a node; symmetric ones wrap from a random start
        rng = np.random.default_rng(42)
        for case in range(60):
            rec = RecParams(
                int(rng.integers(1, 4)),
                int(rng.integers(0, 3)),
                int(rng.integers(1, 4)),
            )
            nodes = int(rng.integers(1, 12))
            docs = int(rng.integers(1, 4))
            system = SystemParams(nodes, docs)
            if case % 2:
                start = int(rng.integers(0, nodes))
                placement = place_symmetric(rec, system, start=start)
            else:
                placement = place_random(rec, system, rng)
            order = rng.permutation(nodes)
            for sem in (MS, PC):
                assert persistency(placement, order, sem) == (
                    _reference_persistency(placement, order, sem)
                )

    def test_per_cluster_never_outlasts_multiset(self):
        rec = RecParams(2, 1, 2)
        rng = np.random.default_rng(7)
        strict = 0
        for _ in range(300):
            placement = place_random(rec, SystemParams(8, 2), rng)
            order = rng.permutation(8)
            x_pc = persistency(placement, order, PC)
            x_ms = persistency(placement, order, MS)
            assert x_pc <= x_ms
            strict += x_pc < x_ms
        assert strict > 0

    def test_order_validation(self):
        placement = place_symmetric(RecParams(1, 0, 2), SystemParams(4, 2))
        with pytest.raises(ParameterError):
            persistency(placement, np.array([0, 1, 2]), MS)
        for bad in ([0, 1, 2, 2], [0, 1, 2, 4], [-1, 1, 2, 3], [0.0, 1.0, 2.0, 3.0]):
            with pytest.raises(ParameterError):
                persistency(placement, np.array(bad), MS)

    def test_always_terminates_at_most_n(self):
        rng = np.random.default_rng(3)
        placement = place_random(RecParams(3, 2, 2), SystemParams(9, 2), rng)
        order = rng.permutation(9)
        for sem in (MS, PC):
            assert 1 <= persistency(placement, order, sem) <= 9


class TestSimulate:
    def test_uniform_order_mean(self):
        # one chunk, one replica: X is uniform on 1..N, mean (N+1)/2
        config = SimConfig(
            strategy=PlacementStrategy.RANDOM,
            classes=(WorkloadClass(RecParams(1, 0, 1), 1),),
            nodes=10,
            trials=4000,
            master_seed=21,
        )
        summary = simulate(config)
        assert abs(summary.mean - 5.5) <= 3 * summary.std_error
        assert summary.minimum >= 1
        assert summary.maximum <= 10
        assert not summary.out_of_theory

    def test_symmetric_matches_exact_within_3se(self):
        config = SimConfig(
            strategy=PlacementStrategy.SYMMETRIC,
            classes=(WorkloadClass(RecParams(1, 0, 2), 2),),
            nodes=4,
            trials=4000,
            master_seed=22,
        )
        summary = simulate(config)
        assert abs(summary.mean - 8 / 3) <= 3 * summary.std_error

    def test_random_matches_exact_within_3se(self):
        rec = RecParams(2, 1, 1)
        system = SystemParams(12, 3)
        exact = analytic.expect_random_sum(rec, system).value
        config = SimConfig(
            strategy=PlacementStrategy.RANDOM,
            classes=(WorkloadClass(rec, 3),),
            nodes=12,
            trials=4000,
            master_seed=23,
        )
        summary = simulate(config)
        assert abs(summary.mean - exact) <= 3 * summary.std_error

    def test_deterministic_given_seed(self):
        config = SimConfig(
            strategy=PlacementStrategy.RANDOM,
            classes=(WorkloadClass(RecParams(1, 1, 2), 3),),
            nodes=15,
            trials=200,
            master_seed=99,
        )
        assert simulate(config) == simulate(config)

    def test_seed_changes_results(self):
        base = dict(
            strategy=PlacementStrategy.RANDOM,
            classes=(WorkloadClass(RecParams(1, 1, 2), 3),),
            nodes=15,
            trials=500,
        )
        a = simulate(SimConfig(master_seed=5, **base))
        b = simulate(SimConfig(master_seed=6, **base))
        assert a.mean != b.mean

    def test_mixed_workload_is_min_over_classes(self):
        # replay the documented per-trial stream: placements drawn per
        # class in declared order, then one removal permutation
        classes = (
            WorkloadClass(RecParams(1, 0, 2), 2),
            WorkloadClass(RecParams(2, 1, 1), 3),
        )
        nodes = 9
        config = SimConfig(
            strategy=PlacementStrategy.RANDOM,
            classes=classes,
            nodes=nodes,
            trials=60,
            master_seed=77,
        )
        summary = simulate(config)
        total = 0
        smallest = None
        largest = 0
        for trial in range(60):
            rng = np.random.default_rng(
                np.random.SeedSequence([77, trial])
            )
            placements = [
                place_random(wc.rec, SystemParams(nodes, wc.docs), rng)
                for wc in classes
            ]
            order = rng.permutation(nodes)
            x = min(persistency(pl, order, MS) for pl in placements)
            total += x
            smallest = x if smallest is None else min(smallest, x)
            largest = max(largest, x)
        assert summary.mean == total / 60
        assert summary.minimum == smallest
        assert summary.maximum == largest

    def test_symmetric_mixed_classes_share_counter(self):
        config = SimConfig(
            strategy=PlacementStrategy.SYMMETRIC,
            classes=(
                WorkloadClass(RecParams(1, 0, 2), 2),
                WorkloadClass(RecParams(1, 0, 2), 2),
            ),
            nodes=8,
            trials=50,
            master_seed=1,
        )
        # equivalent single class covering all 8 nodes
        merged = SimConfig(
            strategy=PlacementStrategy.SYMMETRIC,
            classes=(WorkloadClass(RecParams(1, 0, 2), 4),),
            nodes=8,
            trials=50,
            master_seed=1,
        )
        split = simulate(config)
        unified = simulate(merged)
        assert split.mean == unified.mean
        assert split.minimum == unified.minimum
        assert split.maximum == unified.maximum

    def test_out_of_theory_tagging(self):
        mixed = SimConfig(
            strategy=PlacementStrategy.RANDOM,
            classes=(
                WorkloadClass(RecParams(1, 0, 2), 1),
                WorkloadClass(RecParams(1, 1, 1), 1),
            ),
            nodes=8,
            trials=1,
            master_seed=0,
        )
        assert mixed.out_of_theory
        bad_div = SimConfig(
            strategy=PlacementStrategy.SYMMETRIC,
            classes=(WorkloadClass(RecParams(1, 0, 2), 5),),
            nodes=5,
            trials=1,
            master_seed=0,
        )
        assert bad_div.out_of_theory
        assert simulate(bad_div).out_of_theory

    def test_semantics_override(self):
        config = SimConfig(
            strategy=PlacementStrategy.RANDOM,
            classes=(WorkloadClass(RecParams(2, 1, 2), 2),),
            nodes=10,
            trials=300,
            master_seed=13,
            semantics=PC,
        )
        assert config.resolved_semantics is PC
        default = SimConfig(
            strategy=PlacementStrategy.RANDOM,
            classes=(WorkloadClass(RecParams(2, 1, 2), 2),),
            nodes=10,
            trials=300,
            master_seed=13,
        )
        assert default.resolved_semantics is MS
        # per-trial dominance keeps the per-cluster mean at or below
        assert simulate(config).mean <= simulate(default).mean

    def test_std_error_formula(self):
        config = SimConfig(
            strategy=PlacementStrategy.RANDOM,
            classes=(WorkloadClass(RecParams(1, 0, 1), 1),),
            nodes=6,
            trials=400,
            master_seed=55,
        )
        summary = simulate(config)
        xs = []
        for trial in range(400):
            rng = np.random.default_rng(np.random.SeedSequence([55, trial]))
            placement = place_random(
                RecParams(1, 0, 1), SystemParams(6, 1), rng
            )
            order = rng.permutation(6)
            xs.append(persistency(placement, order, MS))
        mean = sum(xs) / len(xs)
        var = sum((x - mean) ** 2 for x in xs) / (len(xs) - 1)
        assert summary.std_error == pytest.approx(
            math.sqrt(var / len(xs)), rel=1e-12
        )

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            SimConfig(
                strategy=PlacementStrategy.RANDOM,
                classes=(),
                nodes=5,
                trials=1,
                master_seed=0,
            )
        with pytest.raises(ParameterError):
            SimConfig(
                strategy=PlacementStrategy.RANDOM,
                classes=(WorkloadClass(RecParams(1, 0, 1), 1),),
                nodes=5,
                trials=0,
                master_seed=0,
            )
        with pytest.raises(ParameterError):
            WorkloadClass(RecParams(1, 0, 1), 0)
