"""Domain model: parameter validation, preconditions, loss semantics."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rec_persist.errors import ParameterError
from rec_persist.model import (
    LossSemantics,
    PlacementStrategy,
    RecParams,
    SystemParams,
    by_unit,
    default_semantics,
    is_document_lost,
    loss_thresholds,
    symmetric_period_docs,
    symmetric_power,
)
from rec_persist.simulator import SimConfig, WorkloadClass, place_symmetric
from rec_persist.sweep import PRESETS, SweepSpec, preset_spec


class TestRecParams:
    def test_derived_counts(self):
        rec = RecParams(2, 1, 3)
        assert rec.chunks == 3
        assert rec.fragments == 9

    def test_replication_only_and_coding_only(self):
        assert RecParams(1, 0, 5).fragments == 5
        assert RecParams(3, 2, 1).fragments == 5

    @pytest.mark.parametrize("p,q,r", [(0, 0, 1), (1, -1, 1), (1, 0, 0)])
    def test_invalid(self, p, q, r):
        with pytest.raises(ParameterError):
            RecParams(p, q, r)

    def test_non_integer_rejected(self):
        with pytest.raises(ParameterError):
            RecParams(1.5, 0, 1)


class TestSystemParams:
    def test_valid(self):
        system = SystemParams(10, 3)
        assert system.nodes == 10
        assert system.docs == 3

    @pytest.mark.parametrize("nodes,docs", [(0, 1), (1, 0), (-5, 2)])
    def test_invalid(self, nodes, docs):
        with pytest.raises(ParameterError):
            SystemParams(nodes, docs)


class TestDefaultSemantics:
    def test_mapping(self):
        assert (
            default_semantics(PlacementStrategy.RANDOM)
            is LossSemantics.MULTISET
        )
        assert (
            default_semantics(PlacementStrategy.SYMMETRIC)
            is LossSemantics.PER_CLUSTER
        )

    @pytest.mark.parametrize("strategy", list(PlacementStrategy))
    @pytest.mark.parametrize("rule", list(LossSemantics))
    def test_override_by_enum_or_name(self, strategy, rule):
        assert default_semantics(strategy, rule) is rule
        assert default_semantics(strategy, rule.value) is rule

    @pytest.mark.parametrize("strategy", list(PlacementStrategy))
    def test_none_keeps_the_strategy_rule(self, strategy):
        assert default_semantics(strategy, None) is default_semantics(strategy)

    @pytest.mark.parametrize("rule", ["per_cluster", PlacementStrategy.RANDOM])
    def test_bad_rule_raises(self, rule):
        with pytest.raises(ParameterError, match="semantics must be one of"):
            default_semantics(PlacementStrategy.RANDOM, rule)

    @pytest.mark.parametrize("strategy", list(PlacementStrategy))
    def test_settled_at_construction(self, strategy):
        config = dict(
            strategy=strategy.value,
            classes=(WorkloadClass(RecParams(2, 1, 2), 2),),
            nodes=10,
            trials=1,
            master_seed=0,
        )
        spec = dict(
            name="s", strategy=strategy.value, p=2, q=1, r=2, nodes=[10], docs=2
        )
        rule = default_semantics(strategy)
        for cls, fields in ((SimConfig, config), (SweepSpec, spec)):
            omitted = cls(**fields)
            assert omitted == cls(**fields, semantics=rule)
            assert omitted == cls(**fields, semantics=rule.value)
            assert omitted.semantics is rule

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_presets_hold_a_member(self, preset):
        assert isinstance(preset_spec(preset).semantics, LossSemantics)


class TestSymmetricPreconditions:
    def test_divisibility_violation(self):
        # 7 documents wrap around 7 nodes, and g = 2 does not divide 7
        rec, system = RecParams(1, 1, 1), SystemParams(7, 7)
        with pytest.raises(ParameterError, match="symmetric placement wraps"):
            symmetric_power(rec, system)
        # the 7 documents start at distinct nodes, 7 overlapping windows
        assert symmetric_period_docs(rec, system.nodes, system.docs) == 7

    def test_document_count_violation(self):
        # 2 documents on 8 nodes sit on disjoint nodes: power D, below N/g
        rec = RecParams(1, 1, 1)
        assert symmetric_power(rec, SystemParams(8, 2)) == 2
        # and so do 4 on 9 nodes, though g does not divide 9; 5 wrap
        assert symmetric_power(rec, SystemParams(9, 4)) == 4
        with pytest.raises(ParameterError, match="symmetric placement wraps"):
            symmetric_power(rec, SystemParams(9, 5))

    def test_satisfied(self):
        assert symmetric_power(RecParams(1, 1, 1), SystemParams(8, 4)) == 4
        assert symmetric_power(RecParams(1, 0, 2), SystemParams(4, 2)) == 2
        # past one per group the documents repeat the N/g groups
        assert symmetric_power(RecParams(1, 1, 1), SystemParams(8, 10**9)) == 4

    @settings(deadline=None, max_examples=200)
    @given(st.integers(1, 3), st.integers(0, 3), st.integers(1, 3),
           st.integers(1, 40), st.data())
    def test_power_counts_the_placed_windows(self, p, q, r, nodes, data):
        # the placement's distinct rows are the period's windows, and the
        # power is refused exactly where some node holds two of their fragments
        rec = RecParams(p, q, r)
        docs = data.draw(st.integers(1, 2 * nodes), label="docs")
        system = SystemParams(nodes, docs)
        rows = np.unique(place_symmetric(rec, system).reshape(docs, -1), axis=0)
        assert len(rows) == symmetric_period_docs(rec, nodes, docs)
        if np.unique(rows).size < rows.size:
            with pytest.raises(ParameterError, match="symmetric placement wraps"):
                symmetric_power(rec, system)
        else:
            assert symmetric_power(rec, system) == len(rows)


def _lost(rec, flags, semantics):
    return is_document_lost(rec, np.array(flags, dtype=bool), semantics)


class TestIsDocumentLost:
    def test_replication_only(self):
        rec = RecParams(1, 0, 3)
        gone = [[True], [True], [True]]
        partial = [[True], [True], [False]]
        for sem in LossSemantics:
            assert _lost(rec, gone, sem)
            assert not _lost(rec, partial, sem)

    def test_coding_only(self):
        rec = RecParams(2, 1, 1)  # lose any 2 of 3 chunks and the doc is gone
        assert _lost(rec, [[True, True, False]], LossSemantics.MULTISET)
        assert _lost(rec, [[True, True, False]], LossSemantics.PER_CLUSTER)
        assert not _lost(rec, [[True, False, False]], LossSemantics.MULTISET)

    def test_semantics_divergence_witness(self):
        # p=2, q=1, r=2: cluster 0 loses chunks {0,1}, cluster 1 loses
        # {1,2}.  Every cluster is past its tolerance, but only chunk 1
        # has both replicas gone.
        rec = RecParams(2, 1, 2)
        flags = [[True, True, False], [False, True, True]]
        assert _lost(rec, flags, LossSemantics.PER_CLUSTER)
        assert not _lost(rec, flags, LossSemantics.MULTISET)

    def test_multiset_loss_implies_per_cluster_loss(self):
        # exhaustive over every erasure pattern for all shapes with
        # (p+q)*r <= 12
        for p in range(1, 4):
            for q in range(0, 3):
                for r in range(1, 4):
                    rec = RecParams(p, q, r)
                    g = rec.fragments
                    if g > 12:
                        continue
                    for bits in range(1 << g):
                        flags = np.array(
                            [(bits >> i) & 1 for i in range(g)], dtype=bool
                        ).reshape(r, rec.chunks)
                        if _lost(rec, flags, LossSemantics.MULTISET):
                            assert _lost(
                                rec, flags, LossSemantics.PER_CLUSTER
                            )

    def test_semantics_coincide_for_p1_and_r1(self):
        for p, q, r in ((1, 0, 3), (1, 2, 2), (2, 1, 1), (3, 0, 1)):
            rec = RecParams(p, q, r)
            g = rec.fragments
            for bits in range(1 << g):
                flags = np.array(
                    [(bits >> i) & 1 for i in range(g)], dtype=bool
                ).reshape(r, rec.chunks)
                assert _lost(rec, flags, LossSemantics.MULTISET) == _lost(
                    rec, flags, LossSemantics.PER_CLUSTER
                )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            _lost(RecParams(1, 1, 2), [[True, False]], LossSemantics.MULTISET)

    def test_loss_thresholds(self):
        # (units, length, hit_at, lost_at): q+1 = 3 of the p+q = 5
        # multisets with all r = 2 replicas erased, or both r = 2 clusters
        # of 5 chunks with q+1 = 3 erased each; r != p+q keeps units and
        # length apart
        rec = RecParams(3, 2, 2)
        assert loss_thresholds(rec, LossSemantics.MULTISET) == (5, 2, 2, 3)
        assert loss_thresholds(rec, LossSemantics.PER_CLUSTER) == (2, 5, 3, 2)
        rec = RecParams(4, 1, 3)
        assert loss_thresholds(rec, LossSemantics.MULTISET) == (5, 3, 3, 2)
        assert loss_thresholds(rec, LossSemantics.PER_CLUSTER) == (3, 5, 2, 3)
        # a rule's name is the rule; what names none is refused
        assert loss_thresholds(rec, "multiset") == (5, 3, 3, 2)
        for bad in ("bogus", None):
            with pytest.raises(ParameterError, match="semantics must be one of"):
                loss_thresholds(rec, bad)
            with pytest.raises(ParameterError, match="semantics must be one of"):
                _lost(rec, np.zeros((3, 5), dtype=bool), bad)

    def test_by_unit(self):
        # a multiset is a column of the (r, p+q) grid, a cluster a row, and
        # the view's last two axes are (units, length) of loss_thresholds
        rec = RecParams(3, 1, 2)
        grid = np.arange(2 * 5 * rec.fragments).reshape(2, 5, rec.r, rec.chunks)
        for sem, unit_of in (
            (LossSemantics.MULTISET, lambda u: grid[..., :, u]),
            (LossSemantics.PER_CLUSTER, lambda u: grid[..., u, :]),
        ):
            units, length, _, _ = loss_thresholds(rec, sem)
            view = by_unit(grid, sem)
            assert view.shape == (2, 5, units, length)
            assert np.shares_memory(view, grid)
            for u in range(units):
                assert np.array_equal(view[..., u, :], unit_of(u))
        assert np.array_equal(by_unit(grid, "multiset"), grid.swapaxes(-1, -2))
        for bad in ("bogus", None):
            with pytest.raises(ParameterError, match="semantics must be one of"):
                by_unit(grid, bad)

    def test_monotone_in_erasures(self):
        # erasing more never revives a document
        rec = RecParams(2, 1, 2)
        g = rec.fragments
        for sem in LossSemantics:
            for bits in range(1 << g):
                flags = np.array(
                    [(bits >> i) & 1 for i in range(g)], dtype=bool
                ).reshape(rec.r, rec.chunks)
                if not _lost(rec, flags, sem):
                    continue
                for extra in range(g):
                    more = flags.copy().reshape(-1)
                    more[extra] = True
                    assert _lost(rec, more.reshape(rec.r, rec.chunks), sem)
