"""Monte Carlo engine: placements, single-run persistency, seeded trials."""

import io
import json
import math
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from rec_persist import analytic, simulator
from rec_persist.cli import main
from rec_persist.errors import ParameterError, SizeLimitError
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
    SimSummary,
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
        # chi2 with N-1 = 19 degrees of freedom
        chi2_19_q99 = 36.19086912927004
        nodes = 20
        rng = np.random.default_rng(1234)
        placement = place_random(
            RecParams(1, 1, 2), SystemParams(nodes, 5000), rng
        )
        counts = np.bincount(placement.table.reshape(-1), minlength=nodes)
        expected = placement.table.size / nodes
        statistic = float(((counts - expected) ** 2 / expected).sum())
        assert statistic < chi2_19_q99


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

    def test_wraps_from_start_offset(self):
        placement = place_symmetric(
            RecParams(2, 0, 1), SystemParams(5, 4), start=7
        )
        assert placement.table.reshape(-1).tolist() == [2, 3, 4, 0, 1, 2, 3, 4]

    def test_replica_major_layout(self):
        # row j of a document is cluster j: chunks of one coded copy
        placement = place_symmetric(RecParams(2, 1, 2), SystemParams(6, 1))
        assert placement.table[0].tolist() == [[0, 1, 2], [3, 4, 5]]


class TestInt32Draws:
    @pytest.mark.parametrize("nodes", [48, 2976, 10**6, 2**31 - 1])
    def test_int32_draw_equals_int64_draw(self, nodes):
        # int32 placement tables keep seeded output only while numpy draws
        # the same values for both dtypes below 2^31
        for seed in range(3):
            size = (333, 2, 3)
            wide = np.random.default_rng(seed).integers(0, nodes, size, dtype=np.int64)
            narrow = np.random.default_rng(seed).integers(0, nodes, size, dtype=np.int32)
            assert narrow.dtype == np.int32
            assert np.array_equal(narrow, wide)

    def test_place_random_keeps_the_int64_stream(self):
        rec, system = RecParams(2, 1, 2), SystemParams(2976, 40)
        placement = place_random(rec, system, np.random.default_rng(8))
        wide = np.random.default_rng(8).integers(0, 2976, (40, 2, 3), dtype=np.int64)
        assert placement.table.dtype == np.int32
        assert np.array_equal(placement.table, wide)


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
        t = np.ones((1, 1, 1, 1), dtype=np.int32)
        with pytest.raises(ParameterError):
            simulator._first_loss(t, 0, "multiset")


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
        # the simulation still runs where no formula applies
        summary = simulate(bad_div)
        assert 1 <= summary.minimum == summary.maximum <= 5

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
        assert simulate(config) == _persistency_loop(config)

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
        # 10 does not divide 48, so symmetric placement is out of theory
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


def _persistency_loop(config: SimConfig) -> SimSummary:
    """simulate's documented stream, one persistency call a class and trial.

    Symmetric classes share one placement counter across trials; random
    ones draw fresh placements, in declared order, before the permutation.
    """
    symmetric = config.strategy is PlacementStrategy.SYMMETRIC
    placements = []
    start = 0
    for wc in config.classes if symmetric else ():
        system = SystemParams(config.nodes, wc.docs)
        placements.append(place_symmetric(wc.rec, system, start=start))
        start = (start + wc.docs * wc.rec.fragments) % config.nodes
    xs = []
    for trial in range(config.trials):
        rng = np.random.default_rng(
            np.random.SeedSequence([config.master_seed, trial])
        )
        if not symmetric:
            placements = [
                place_random(wc.rec, SystemParams(config.nodes, wc.docs), rng)
                for wc in config.classes
            ]
        order = rng.permutation(config.nodes)
        xs.append(
            min(persistency(pl, order, config.resolved_semantics) for pl in placements)
        )
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
        assert simulate(config) == _persistency_loop(config)

    @pytest.mark.parametrize("bad_id", [-1, 48])
    def test_random_batch_checks_node_ids(self, bad_id, monkeypatch):
        # the drawn stack is checked once a batch, with Placement's rule
        def draw(rec, nodes, docs, rng):
            table = np.zeros((docs, rec.r, rec.chunks), dtype=np.int32)
            table[-1, -1, -1] = bad_id
            return table

        monkeypatch.setattr(simulator, "_draw_table", draw)
        with pytest.raises(ParameterError, match=r"entries must lie in \[0, nodes\)"):
            simulate(self.CONFIGS["random-mixed"])


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

    def test_symmetric_billion_documents_in_bounded_memory(self, capsys):
        # one period of N/gcd(N, 6) = 200,000 documents stands for all 1e9:
        # 1.2e6 table entries plus the rank row, a tracemalloc peak of
        # about 28 MiB (Python 3.11, numpy 2.4) where 6e9 entries would be
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
