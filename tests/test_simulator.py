"""Monte Carlo engine: placements, single-run persistency, seeded trials."""

import io
import json
import math
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rec_persist import analytic, oracle, simulator
from rec_persist.cli import main
from rec_persist.errors import ParameterError, SizeLimitError
from rec_persist.model import (
    LossSemantics,
    PlacementStrategy,
    RecParams,
    SystemParams,
    is_document_lost,
)
from rec_persist.simulator import (
    SimConfig,
    SimSummary,
    WorkloadClass,
    persistency,
    place_random,
    place_symmetric,
    simulate,
    simulate_many,
    simulate_trials,
)

PC = LossSemantics.PER_CLUSTER
MS = LossSemantics.MULTISET


class TestPlaceRandom:
    def test_shape_and_range(self):
        rng = np.random.default_rng(0)
        table = place_random(RecParams(2, 1, 2), SystemParams(7, 5), rng)
        assert table.shape == (5, 2, 3)
        assert table.dtype == np.intp
        assert table.min() >= 0
        assert table.max() < 7

    def test_uniformity_chi_square(self):
        # fixed seed; statistic compared against the 99th percentile of
        # chi2 with N-1 = 19 degrees of freedom
        chi2_19_q99 = 36.19086912927004
        nodes = 20
        rng = np.random.default_rng(1234)
        table = place_random(RecParams(1, 1, 2), SystemParams(nodes, 5000), rng)
        counts = np.bincount(table.reshape(-1), minlength=nodes)
        expected = table.size / nodes
        statistic = float(((counts - expected) ** 2 / expected).sum())
        assert statistic < chi2_19_q99


def _placed_from(rec, system, start):
    """place_symmetric's array with the round-robin stream offset by start,
    as simulate_trials places a symmetric class after others."""
    index = simulator._symmetric_index(rec, system.nodes, system.docs, start)
    return index.transpose(2, 0, 1)


class TestPlaceSymmetric:
    def test_round_robin_blocks(self):
        table = place_symmetric(RecParams(1, 0, 2), SystemParams(4, 2))
        assert table.tolist() == [[[0], [1]], [[2], [3]]]

    def test_wraps_around(self):
        # g=4, N=16: documents 0 and 4 land on the same nodes
        table = place_symmetric(RecParams(1, 1, 2), SystemParams(16, 7))
        assert table[0].tolist() == [[0, 1], [2, 3]]
        assert table[4].tolist() == [[0, 1], [2, 3]]
        assert table[5].tolist() == [[4, 5], [6, 7]]

    def test_start_offset(self):
        table = _placed_from(RecParams(1, 0, 2), SystemParams(4, 1), start=3)
        assert table.tolist() == [[[3], [0]]]

    def test_wraps_from_start_offset(self):
        table = _placed_from(RecParams(2, 0, 1), SystemParams(5, 4), start=7)
        assert table.reshape(-1).tolist() == [2, 3, 4, 0, 1, 2, 3, 4]

    def test_replica_major_layout(self):
        # row j of a document is cluster j: chunks of one coded copy
        table = place_symmetric(RecParams(2, 1, 2), SystemParams(6, 1))
        assert table[0].tolist() == [[0, 1, 2], [3, 4, 5]]

    def test_equals_the_rotated_node_list_repeated(self):
        # entry i of the flattened placement is (start + i) mod N: the node
        # list rotated by start and repeated to D*g entries; D*g runs below,
        # at and above N, and the starts include 0, N - 1 and past N
        rng = np.random.default_rng(2024)
        for _ in range(60):
            rec = RecParams(*(int(rng.integers(lo, 4)) for lo in (1, 0, 1)))
            nodes, g = int(rng.integers(1, 40)), rec.fragments
            counts = {max(1, nodes // g - 1), -(-nodes // g), nodes // g + 3}
            for docs in sorted(counts):
                system = SystemParams(nodes, docs)
                for start in (0, nodes - 1, int(rng.integers(0, nodes)), nodes + 5):
                    expected = np.resize(
                        np.roll(np.arange(nodes), -start), docs * g
                    ).reshape(docs, rec.r, rec.chunks)
                    table = _placed_from(rec, system, start=start)
                    assert table.dtype == np.intp
                    assert np.array_equal(table, expected)
                assert np.array_equal(
                    place_symmetric(rec, system), _placed_from(rec, system, 0)
                )


class TestInt32Draws:
    @pytest.mark.parametrize("nodes", [48, 2976, 10**6, 2**31 - 1])
    def test_int32_draw_equals_int64_draw(self, nodes):
        # intp placement tables keep the seeded output of int32 ones only
        # while numpy draws the same values for both dtypes
        for seed in range(3):
            size = (333, 2, 3)
            wide = np.random.default_rng(seed).integers(0, nodes, size, dtype=np.int64)
            narrow = np.random.default_rng(seed).integers(0, nodes, size, dtype=np.int32)
            assert narrow.dtype == np.int32
            assert np.array_equal(narrow, wide)

    def test_place_random_keeps_the_int32_stream(self):
        rec, system = RecParams(2, 1, 2), SystemParams(2976, 40)
        rng = np.random.default_rng(8)
        table = place_random(rec, system, rng)
        narrow = np.random.default_rng(8).integers(0, 2976, (40, 2, 3), dtype=np.int32)
        assert table.dtype == np.intp
        assert np.array_equal(table, narrow)
        # and the generator is left where the int32 draw leaves it
        after = np.random.default_rng(8)
        after.integers(0, 2976, (40, 2, 3), dtype=np.int32)
        assert rng.integers(2**62) == after.integers(2**62)


def _reference_first_loss(t, q, semantics):
    if semantics is MS:
        return np.partition(t.max(axis=2), q, axis=2)[..., q].min(axis=1)
    return np.partition(t, q, axis=3)[..., q].max(axis=2).min(axis=1)


class TestFirstLoss:
    @pytest.mark.parametrize("chunks", range(1, 9))
    def test_matches_partition(self, chunks):
        # small values force ties; the plane-major copy has the memory
        # layout simulate gathers into
        rng = np.random.default_rng(chunks)
        for q in range(chunks):
            for r in (1, 2, 3):
                for batch in (1, 7):
                    t = rng.integers(1, 9, (batch, 5, r, chunks), dtype=np.int32)
                    planar = np.ascontiguousarray(t.transpose(0, 2, 3, 1))
                    selected = simulator._order_statistic(t, q)
                    assert np.array_equal(
                        selected, np.partition(t, q, axis=3)[..., q]
                    )
                    for sem in (MS, PC):
                        expected = _reference_first_loss(t, q, sem)
                        for layout in (t, planar.transpose(0, 3, 1, 2)):
                            got = simulator._first_loss(layout, q, sem)
                            assert got.shape == (batch,)
                            assert np.array_equal(got, expected)

    def test_extremes_are_min_and_max(self):
        t = np.random.default_rng(4).integers(0, 100, (3, 6, 2, 4), dtype=np.int32)
        assert np.array_equal(simulator._order_statistic(t, 0), t.min(axis=3))
        assert np.array_equal(simulator._order_statistic(t, 3), t.max(axis=3))

    def test_unknown_semantics(self):
        # a rule's name is the rule; what names none raises
        t = np.ones((1, 1, 1, 1), dtype=np.int32)
        assert simulator._first_loss(t, 0, "multiset") == simulator._first_loss(
            t, 0, LossSemantics.MULTISET)
        with pytest.raises(ParameterError, match="semantics must be one of"):
            simulator._first_loss(t, 0, "bogus")


def _reference_persistency(rec, table, order, semantics):
    # reference implementation: scan removal prefixes and apply the loss
    # predicate from scratch
    erased_nodes = set()
    for removed, node in enumerate(order, start=1):
        erased_nodes.add(node)
        for doc in table:
            flags = np.isin(doc, list(erased_nodes))
            if is_document_lost(rec, flags, semantics):
                return removed
    raise AssertionError("document survived all removals")


HAND_REC = RecParams(1, 0, 2)


class TestPersistency:
    def test_hand_example_adjacent_order(self):
        table = place_symmetric(HAND_REC, SystemParams(4, 2))
        assert persistency(HAND_REC, table, np.array([0, 1, 2, 3]), MS) == 2

    def test_hand_example_interleaved_order(self):
        table = place_symmetric(HAND_REC, SystemParams(4, 2))
        assert persistency(HAND_REC, table, np.array([0, 2, 1, 3]), MS) == 3

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
                table = _placed_from(rec, system, start=start)
            else:
                table = place_random(rec, system, rng)
            order = rng.permutation(nodes)
            for sem in (MS, PC):
                assert persistency(rec, table, order, sem) == (
                    _reference_persistency(rec, table, order, sem)
                )

    def test_per_cluster_never_outlasts_multiset(self):
        rec = RecParams(2, 1, 2)
        rng = np.random.default_rng(7)
        strict = 0
        for _ in range(300):
            table = place_random(rec, SystemParams(8, 2), rng)
            order = rng.permutation(8)
            x_pc = persistency(rec, table, order, PC)
            x_ms = persistency(rec, table, order, MS)
            assert x_pc <= x_ms
            strict += x_pc < x_ms
        assert strict > 0

    def test_order_validation(self):
        table = place_symmetric(HAND_REC, SystemParams(4, 2))
        with pytest.raises(ParameterError):
            persistency(HAND_REC, table, np.array([0, 1, 2]), MS)
        for bad in (
            [0, 1, 2, 2], [0, 1, 2, 4], [-1, 1, 2, 3], [0.0, 1.0, 2.0, 3.0],
            [[0, 1, 2, 3]], 0, [],
        ):
            with pytest.raises(ParameterError):
                persistency(HAND_REC, table, np.array(bad), MS)

    @pytest.mark.parametrize("table, message", [
        (np.zeros((3, 2), dtype=np.int64), "shape"),
        (np.zeros((3, 1, 2), dtype=float), "integer node ids"),
        (np.full((3, 1, 2), 4, dtype=np.int64), r"\[0, nodes\)"),
        (np.zeros((0, 1, 2), dtype=np.int64), "shape"),
        (np.full((3, 1, 2), -1, dtype=np.int64), r"\[0, nodes\)"),
        (np.zeros((3, 2, 1), dtype=np.int64), "shape"),
    ], ids=["2-d", "float", "id-is-N", "no-docs", "negative", "transposed"])
    def test_table_validation(self, table, message):
        # REC(1,1,1) on the 4 nodes that order lists; 4 is one past them
        with pytest.raises(ParameterError, match=message):
            persistency(RecParams(1, 1, 1), table, np.arange(4), MS)

    def test_ids_range_over_the_order(self):
        # N is len(order): an id equal to it is refused, one below it kept
        rec, table = RecParams(1, 1, 1), np.array([[[0, 2]]])
        assert persistency(rec, table, [2, 1, 0], PC) == 3
        with pytest.raises(ParameterError, match=r"\[0, nodes\)"):
            persistency(rec, table, [1, 0], PC)

    def test_always_terminates_at_most_n(self):
        rng = np.random.default_rng(3)
        rec = RecParams(3, 2, 2)
        table = place_random(rec, SystemParams(9, 2), rng)
        order = rng.permutation(9)
        for sem in (MS, PC):
            assert 1 <= persistency(rec, table, order, sem) <= 9


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
        assert not config.out_of_theory

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
        # the replay draws placements per class in declared order, then one
        # removal permutation, and takes each trial's minimum over classes
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
        xs = _persistency_loop(config)
        assert simulate_trials(config).tolist() == xs
        summary = simulate(config)
        assert summary.mean == sum(xs) / 60
        assert summary.minimum == min(xs)
        assert summary.maximum == max(xs)

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
        # the simulation still runs where no formula applies
        summary = simulate(bad_div)
        assert 1 <= summary.minimum == summary.maximum <= 5
        # 2 documents on the same 5 nodes do not wrap, so the theory holds
        assert not replace(
            bad_div, classes=(WorkloadClass(RecParams(1, 0, 2), 2),)
        ).out_of_theory

    def test_semantics_override(self):
        config = SimConfig(
            strategy=PlacementStrategy.RANDOM,
            classes=(WorkloadClass(RecParams(2, 1, 2), 2),),
            nodes=10,
            trials=300,
            master_seed=13,
            semantics=PC,
        )
        assert config.semantics is PC
        default = SimConfig(
            strategy=PlacementStrategy.RANDOM,
            classes=(WorkloadClass(RecParams(2, 1, 2), 2),),
            nodes=10,
            trials=300,
            master_seed=13,
        )
        assert default.semantics is MS
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
        xs = _persistency_loop(config)
        assert simulate_trials(config).tolist() == xs
        mean = sum(xs) / len(xs)
        var = sum((x - mean) ** 2 for x in xs) / (len(xs) - 1)
        assert summary.std_error == pytest.approx(
            math.sqrt(var / len(xs)), rel=1e-12
        )

    def test_more_than_one_block_of_trials(self):
        # symmetric N = 2976 trials hold 5952 entries, so 30 trials need two
        # batches at the default budget
        config = SimConfig(
            strategy=PlacementStrategy.SYMMETRIC,
            classes=(WorkloadClass(RecParams(2, 1, 2), 496),),
            nodes=2976,
            trials=30,
            master_seed=31,
        )
        assert simulator.BUDGET // 5952 < 30
        xs = _persistency_loop(config)
        assert simulate_trials(config).tolist() == xs
        assert simulate(config) == _summary(xs)

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

    def test_classes_must_hold_workload_classes(self):
        with pytest.raises(ParameterError, match="WorkloadClass"):
            SimConfig(
                strategy="random",
                classes=((RecParams(1, 0, 1), 3),),
                nodes=5,
                trials=1,
                master_seed=0,
            )

    def test_workload_class_needs_rec_params(self):
        with pytest.raises(ParameterError, match="rec must be a RecParams"):
            WorkloadClass("x", 3)

    def test_integer_fields(self):
        base = dict(
            strategy=PlacementStrategy.RANDOM,
            classes=(WorkloadClass(RecParams(1, 0, 1), 1),),
            nodes=5,
            trials=1,
            master_seed=0,
        )
        for field, value in (
            ("nodes", 48.0), ("trials", 2.5), ("master_seed", "1"), ("nodes", None)
        ):
            with pytest.raises(ParameterError, match=field):
                SimConfig(**{**base, field: value})
        config = SimConfig(
            **{**base, "nodes": np.int64(6), "trials": np.int32(2),
               "master_seed": np.uint64(3)}
        )
        assert (config.nodes, config.trials, config.master_seed) == (6, 2, 3)
        assert type(config.nodes) is int
        wc = WorkloadClass(RecParams(1, 0, 1), np.int64(5))
        assert wc.docs == 5 and type(wc.docs) is int
        for docs in (5.0, 2.5, "5"):
            with pytest.raises(ParameterError, match="docs"):
                WorkloadClass(RecParams(1, 0, 1), docs)

    def test_bools_are_not_integers(self):
        # True passes operator.index as 1, but it is no count
        base = dict(
            strategy=PlacementStrategy.RANDOM,
            classes=(WorkloadClass(RecParams(1, 0, 1), 1),),
            nodes=5,
            trials=1,
            master_seed=0,
        )
        for field in ("nodes", "trials", "master_seed"):
            with pytest.raises(ParameterError, match=f"{field} must be an integer"):
                SimConfig(**{**base, field: True})
        with pytest.raises(ParameterError, match="docs must be an integer"):
            WorkloadClass(RecParams(1, 0, 1), True)
        for args in ((True, 0, 1), (1, False, 1), (1, 0, True)):
            with pytest.raises(ParameterError, match="must be an integer"):
                RecParams(*args)

    def test_names_run_the_model_they_name(self):
        # a name must run the model its enum runs: the same placement, the
        # same default rule and the same theory tag
        base = dict(
            classes=(WorkloadClass(RecParams(2, 3, 2), 8),),
            nodes=48,
            trials=50,
            master_seed=1,
        )
        for strategy in PlacementStrategy:
            by_name = SimConfig(**base, strategy=strategy.value)
            by_enum = SimConfig(**base, strategy=strategy)
            assert by_name == by_enum
            assert by_name.strategy is strategy
            assert simulate(by_name) == simulate(by_enum)
        # 8 documents of g = 10 wrap around 48 nodes, which 10 does not
        # divide, so symmetric placement is out of theory
        assert SimConfig(**base, strategy="symmetric").out_of_theory
        by_name = SimConfig(**base, strategy="symmetric", semantics="multiset")
        by_enum = SimConfig(**base, strategy="symmetric", semantics=MS)
        assert by_name.semantics is MS
        assert simulate(by_name) == simulate(by_enum)

    def test_unknown_names_raise_at_construction(self):
        base = dict(
            classes=(WorkloadClass(RecParams(1, 0, 1), 1),),
            nodes=5,
            trials=1,
            master_seed=0,
            strategy="random",
        )
        for field, value in (
            ("strategy", "Random"), ("strategy", None), ("strategy", MS),
            ("semantics", "per_cluster"), ("semantics", PlacementStrategy.RANDOM),
        ):
            with pytest.raises(ParameterError, match=f"{field} must be one of"):
                SimConfig(**{**base, field: value})


def _persistency_loop(config: SimConfig) -> list[int]:
    """Each trial's X, one persistency call a class and trial.

    It replays simulate's documented stream: symmetric classes share one
    placement counter across trials; random ones draw fresh placements, in
    declared order, before the permutation.
    """
    symmetric = config.strategy is PlacementStrategy.SYMMETRIC
    tables = []
    start = 0
    for wc in config.classes if symmetric else ():
        system = SystemParams(config.nodes, wc.docs)
        tables.append(_placed_from(wc.rec, system, start=start))
        start = (start + wc.docs * wc.rec.fragments) % config.nodes
    xs = []
    for trial in range(config.trials):
        rng = np.random.default_rng(
            np.random.SeedSequence([config.master_seed, trial])
        )
        if not symmetric:
            tables = [
                place_random(wc.rec, SystemParams(config.nodes, wc.docs), rng)
                for wc in config.classes
            ]
        order = rng.permutation(config.nodes)
        xs.append(min(
            persistency(wc.rec, table, order, config.semantics)
            for wc, table in zip(config.classes, tables)
        ))
    return xs


def _summary(xs: list[int]) -> SimSummary:
    n, total, total_sq = len(xs), sum(xs), sum(x * x for x in xs)
    variance = (n * total_sq - total * total) / (n * (n - 1)) if n > 1 else 0.0
    return SimSummary(
        mean=total / n,
        std_error=math.sqrt(max(variance, 0.0) / n) if n > 1 else 0.0,
        minimum=min(xs),
        maximum=max(xs),
    )


def _config(classes, nodes, trials=10, seed=3, semantics=None, strategy="symmetric"):
    return SimConfig(
        strategy=strategy,
        classes=tuple(WorkloadClass(RecParams(*code), docs) for code, docs in classes),
        nodes=nodes,
        trials=trials,
        master_seed=seed,
        semantics=semantics,
    )


class TestEntryTypes:
    @pytest.mark.parametrize("call", [
        simulate, simulate_trials,
        lambda config: simulate_many([_config([((1, 0, 1), 1)], 4), config]),
    ], ids=["simulate", "simulate_trials", "simulate_many"])
    def test_non_config_raises_parameter_error(self, call):
        with pytest.raises(ParameterError, match="simulate needs a SimConfig"):
            call(("random", 48, 20))

    def test_a_lone_config_raises_parameter_error(self):
        with pytest.raises(ParameterError, match="configs must be an iterable"):
            simulate_many(_config([((1, 0, 1), 1)], 4))


class TestBatches:
    CONFIGS = {
        "single": _config([((2, 1, 2), 8)], 48),
        "single-multiset": _config([((2, 3, 2), 5)], 50, semantics=MS),
        "mixed": _config([((1, 0, 2), 3), ((2, 1, 1), 4)], 18),
        # the first class wraps at 13 nodes, so the second starts at node 2
        "wrapping": _config([((1, 2, 1), 5), ((2, 2, 2), 3)], 13, semantics=PC),
        # more documents than the one period, N/gcd(N, g), that simulate
        # stores: 8 at N = 48, and 25 at N = 50, which g = 6 does not divide
        "over-period": _config([((2, 1, 2), 30)], 48, semantics=MS),
        "over-period-off-grid": _config([((2, 1, 2), 60)], 50),
        # periods 14 and 7; the second class starts at node 15*5 mod 14 = 5,
        # advanced by the first class's full count, where its stored period
        # would give node 0, and its pairs then start at odd nodes only
        "over-period-wrapping": _config([((1, 4, 1), 15), ((1, 0, 2), 9)], 14),
        # random placements, drawn per trial into one stack a class: few
        # documents (late first loss), D = N (early), and mixed classes
        "random-late": _config([((2, 3, 2), 5)], 48, strategy="random"),
        "random-early-per-cluster": _config(
            [((2, 1, 2), 40)], 40, semantics=PC, strategy="random"
        ),
        "random-mixed": _config(
            [((1, 0, 2), 5), ((2, 1, 2), 48)], 48, strategy="random"
        ),
        "random-mixed-per-cluster": _config(
            [((1, 1, 2), 7), ((2, 2, 2), 3), ((3, 0, 1), 9)], 30,
            semantics=PC, strategy="random",
        ),
    }

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    @pytest.mark.parametrize("per_batch", [1, 3, None])
    def test_same_summary_as_persistency_loop(self, name, per_batch, monkeypatch):
        config = self.CONFIGS[name]
        entries = config.nodes + sum(
            docs * wc.rec.fragments
            for wc, docs in zip(config.classes, simulator._stored_docs(config))
        )
        if per_batch is None:
            per_batch = config.trials
        monkeypatch.setattr(simulator, "BUDGET", per_batch * entries + entries - 1)
        xs = _persistency_loop(config)
        trials = simulate_trials(config)
        assert trials.dtype == np.int64
        assert trials.tolist() == xs
        assert simulate(config) == _summary(xs)

    # master seeds of one, two and three 32-bit entropy words, at the edges,
    # and of four and seven, whose entropy (with the trial's word) passes
    # SeedSequence's 4-word pool and is mixed into all of it
    @pytest.mark.parametrize(
        "seed", [0, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 5, 2**96, 2**200 + 3]
    )
    @pytest.mark.parametrize("name", ["single", "random-late", "random-mixed"])
    def test_seed_words_replay_the_seed_sequence(self, seed, name):
        # simulate seeds trial t from the little-endian words of the master
        # seed and t; _persistency_loop seeds from [master_seed, t] itself
        config = replace(self.CONFIGS[name], master_seed=seed, trials=6)
        assert simulate_trials(config).tolist() == _persistency_loop(config)

    def test_simulate_many_equals_simulate_each(self, monkeypatch):
        # both strategies, master seeds of one to seven entropy words, and a
        # seed block of 4 trials, so blocks cross configs and configs cross
        # blocks, and one block holds entropies of two widths
        configs = [
            replace(self.CONFIGS[name], master_seed=seed, trials=trials)
            for name, seed, trials in (
                ("single", 5, 3),
                ("random-late", 2**64 + 5, 6),
                ("wrapping", 2**200 + 3, 2),
                ("random-mixed", 2**96, 5),
                ("over-period", 0, 1),
                ("random-early-per-cluster", 2**32, 7),
            )
        ]
        monkeypatch.setattr(simulator, "SEED_BLOCK", 4)
        assert simulate_many(configs) == [simulate(c) for c in configs]
        assert [simulate_trials(c).tolist() for c in configs] == [
            _persistency_loop(c) for c in configs
        ]
        assert simulate_many([]) == []

    def test_simulate_many_guards_every_config_first(self, monkeypatch):
        # the last config is too large, so no trial of the first one runs
        def run(*args):
            raise AssertionError("a trial ran before every guard")

        monkeypatch.setattr(simulator, "_run_trials", run)
        big = replace(self.CONFIGS["single"], trials=simulator.TRIAL_LIMIT + 1)
        with pytest.raises(SizeLimitError, match="at most"):
            simulate_many([self.CONFIGS["single"], big])

    @pytest.mark.parametrize("bad_id", [-1, 48])
    def test_random_batch_checks_node_ids(self, bad_id, monkeypatch):
        # the drawn buffer is checked once a batch, with require_node_ids
        def draw(rec, nodes, docs, rng):
            table = np.zeros((docs, rec.r, rec.chunks), dtype=np.int32)
            table[-1, -1, -1] = bad_id
            return table

        monkeypatch.setattr(simulator, "_draw_table", draw)
        with pytest.raises(ParameterError, match=r"entries must lie in \[0, nodes\)"):
            simulate(self.CONFIGS["random-mixed"])


# master seeds of one to seven 32-bit words: with the trial's word, entropies
# of two to eight words, within SeedSequence's 4-word pool and past it
SEEDS = [0, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 5, 2**96, 2**200 + 3]


def _words_of(seed: int, trials: list[int]) -> np.ndarray:
    """_seed_words of the entropies [seed's words, trial], zero-padded to at
    least 4 rows."""
    words = simulator._entropy_words(seed)
    entropy = np.zeros((max(4, len(words) + 1), len(trials)), np.uint32)
    entropy[: len(words)] = np.array(words, np.uint32)[:, None]
    entropy[len(words)] = trials
    return simulator._seed_words(entropy, np.full(len(trials), len(words) + 1))


def _seed_sequence_words(seed: int, trial: int) -> list[int]:
    return np.random.SeedSequence([seed, trial]).generate_state(4, np.uint64).tolist()


class TestTrialSeeds:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_words_are_the_seed_sequence_state(self, seed):
        block = simulator.SEED_BLOCK
        trials = [0, 1, block - 1, block, 2 * block - 1, simulator.TRIAL_LIMIT - 1]
        words = _words_of(seed, trials)
        assert words.dtype == np.uint64 and words.shape == (4, len(trials))
        assert words.T.tolist() == [_seed_sequence_words(seed, t) for t in trials]

    @settings(deadline=None, max_examples=200)
    @given(st.integers(0, 2**256 - 1), st.integers(0, simulator.TRIAL_LIMIT - 1))
    def test_words_match_for_any_seed(self, seed, trial):
        words = _words_of(seed, [trial])
        assert words[:, 0].tolist() == _seed_sequence_words(seed, trial)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_reused_generator_draws_as_default_rng(self, seed, monkeypatch):
        # blocks of 3 trials across two configs whose seeds may differ in
        # width; 21 bounded 32-bit draws leave a buffered half in PCG64,
        # which the next trial's state must clear
        monkeypatch.setattr(simulator, "SEED_BLOCK", 3)
        configs = [
            _config([((2, 1, 2), 8)], 48, trials=4, seed=master)
            for master in (seed, 2**64 - 1 - seed % 7)
        ]
        keys = [(c.master_seed, t) for c in configs for t in range(c.trials)]
        states = list(simulator._trial_states(configs))
        assert len(states) == len(keys)
        rng = np.random.Generator(np.random.PCG64(0))
        halves = []
        for (master, trial), state in zip(keys, states):
            rng.bit_generator.state = state
            want = np.random.default_rng(np.random.SeedSequence([master, trial]))
            assert rng.bit_generator.state == want.bit_generator.state
            draw = dict(size=(7, 1, 3), dtype=np.intp)
            got = rng.integers(0, 48, **draw)
            assert got.tolist() == want.integers(0, 48, **draw).tolist()
            assert rng.permutation(48).tolist() == want.permutation(48).tolist()
            halves.append(rng.bit_generator.state["has_uint32"])
        assert 1 in halves

    def test_import_leaves_numpy_random_unloaded(self):
        code = "import sys, rec_persist.cli; print('numpy.random' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert proc.stdout == "False\n", proc.stderr


KS_BOUND = 1.949  # 0.999 quantile of the Kolmogorov law; conservative when discrete


def _ks_statistic(xs: np.ndarray, survival, nodes: int) -> float:
    """sqrt(n) max_l |F_emp(l) - (1 - Pr[X > l])| over l = 0 .. nodes.

    survival lists Pr[X > l] from l = 0; later terms are zero.
    """
    exceeds = np.zeros(nodes + 1)
    exceeds[: len(survival)] = [float(s) for s in survival]
    empirical = np.cumsum(np.bincount(xs, minlength=nodes + 1)) / len(xs)
    return math.sqrt(len(xs)) * float(np.abs(empirical - (1.0 - exceeds)).max())


class TestDistribution:
    # one draw of 4000 seeded trials a case and rule, tested against the
    # exact law of X: the survival sum's curve for random placement and the
    # rational oracle's for symmetric placement
    CASES = [
        ("random", (2, 1, 2), 48, 5),
        ("random", (2, 1, 2), 48, 48),
        ("random", (2, 3, 2), 60, 60),
        ("symmetric", (2, 1, 2), 60, 10),
        # D < N/g, and then no document wrapping though g = 6 does not divide 62
        ("symmetric", (2, 1, 2), 60, 5),
        ("symmetric", (2, 1, 2), 62, 10),
        # p = 1: both rules give one law
        ("symmetric", (1, 2, 2), 96, 16),
        ("symmetric", (1, 1, 1), 96, 48),
    ]

    @staticmethod
    def _survival(strategy, rec, system, semantics):
        if strategy == "random":
            return analytic.survival_curve_random(rec, system, semantics)
        return oracle.exact_symmetric_survival(rec, system, semantics)

    @pytest.mark.parametrize("semantics", [MS, PC], ids=["multiset", "per-cluster"])
    @pytest.mark.parametrize("strategy, code, nodes, docs", CASES)
    def test_trials_follow_the_exact_law(self, strategy, code, nodes, docs, semantics):
        rec, system = RecParams(*code), SystemParams(nodes, docs)
        config = SimConfig(
            strategy=strategy,
            classes=(WorkloadClass(rec, docs),),
            nodes=nodes,
            trials=4000,
            master_seed=2024,
            semantics=semantics,
        )
        xs = simulate_trials(config)
        assert xs.shape == (4000,)
        survival = self._survival(strategy, rec, system, semantics)
        assert _ks_statistic(xs, survival, nodes) < KS_BOUND
        # negative control: where the rules differ, the other rule's law
        # must be rejected by the same trials
        other = PC if semantics is MS else MS
        if rec.p > 1 and rec.r > 1:
            wrong = self._survival(strategy, rec, system, other)
            assert _ks_statistic(xs, wrong, nodes) > KS_BOUND
        else:
            same = simulate_trials(replace(config, semantics=other))
            assert xs.tolist() == same.tolist()


class TestSeededOutput:
    PINNED = Path(__file__).resolve().parents[1] / "perfbench" / "pinned.json"

    def test_pinned_simulate_outputs_replay_byte_for_byte(self):
        # every default-seed simulate command the benchmark pins (random
        # placement, one class, D = 5 or N) must print what it printed then
        pinned = json.loads(self.PINNED.read_text())["simulate"]
        assert len(pinned) == 248
        changed = []
        for command, expected in pinned.items():
            out = io.StringIO()
            with redirect_stdout(out):
                code = main(command.split())
            if code != 0 or out.getvalue() != expected:
                changed.append(command)
        assert changed == []


class TestSizeGuard:
    def test_huge_table_exits_2_without_allocating(self, capsys):
        argv = (
            "simulate --strategy random --p 2 --q 1 --r 2 --nodes 1000 "
            "--docs 1000000000"
        ).split()
        tracemalloc.start()
        try:
            code = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert peak < 1 << 20
        assert "limit" in capsys.readouterr().err

    def test_random_batch_peak_memory(self):
        # a random batch holds one intp id buffer a class, which becomes the
        # gather's index: 6 trials of 17,856 ids take 12 bytes an id with the
        # gathered times, about 1.31 MiB in all (Python 3.11, numpy 2.4); a
        # second copy of the ids, as int32 or intp, would break the bound
        small = _config([((2, 1, 2), 4)], 8, trials=2, strategy="random")
        simulate(small)  # first-call set-up is not a batch's memory
        config = _config([((2, 1, 2), 2976)], 2976, trials=20, strategy="random")
        tracemalloc.start()
        try:
            simulate(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20

    def test_nodes_must_fit_int32(self):
        config = SimConfig(
            strategy=PlacementStrategy.SYMMETRIC,
            classes=(WorkloadClass(RecParams(1, 0, 1), 1),),
            nodes=2**31,
            trials=1,
            master_seed=0,
        )
        with pytest.raises(SizeLimitError):
            simulate(config)

    def test_limit_counts_rank_row_and_every_table(self, monkeypatch):
        config = _config([((1, 0, 2), 3), ((2, 1, 1), 4)], 18, trials=2)
        entries = 18 + 3 * 2 + 4 * 3
        monkeypatch.setattr(simulator, "TRIAL_LIMIT", entries)
        simulate(config)
        monkeypatch.setattr(simulator, "TRIAL_LIMIT", entries - 1)
        with pytest.raises(SizeLimitError):
            simulate(config)

    def test_symmetric_limit_counts_one_period(self, monkeypatch):
        # 1000 documents of g = 6 on 18 nodes store one period of 3
        config = _config([((2, 1, 2), 1000)], 18, trials=2)
        monkeypatch.setattr(simulator, "TRIAL_LIMIT", 18 + 3 * 6)
        simulate(config)
        monkeypatch.setattr(simulator, "TRIAL_LIMIT", 18 + 3 * 6 - 1)
        with pytest.raises(SizeLimitError):
            simulate(config)

    def test_trial_count_limit(self, monkeypatch):
        # one trial holds 18 + 3 * 2 = 24 entries, within the limit of 40
        monkeypatch.setattr(simulator, "TRIAL_LIMIT", 40)
        simulate(_config([((1, 0, 2), 3)], 18, trials=40))
        with pytest.raises(SizeLimitError, match="at most 40 trials, got 41"):
            simulate(_config([((1, 0, 2), 3)], 18, trials=41))

    def test_symmetric_billion_documents_in_bounded_memory(self, capsys):
        # one period of N/gcd(N, 6) = 200,000 documents stands for all 1e9:
        # 1.2e6 table entries plus the rank row, a tracemalloc peak of
        # about 30 MiB (Python 3.11, numpy 2.4) where 6e9 entries would be
        # refused
        argv = (
            "simulate --strategy symmetric --p 2 --q 1 --r 2 --nodes 1200000 "
            "--docs 1000000000 --trials 3"
        ).split()
        tracemalloc.start()
        try:
            code = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 48 << 20
        row = capsys.readouterr().out.splitlines()[-1].split(",")
        assert row[:8] == [
            "symmetric", "2", "1", "2", "1200000", "1000000000", "3", "0"
        ]
