"""Domain model: parameter validation, preconditions, loss semantics."""

import itertools

import numpy as np
import pytest

from rec_persist.errors import ParameterError
from rec_persist.model import (
    LossSemantics,
    Placement,
    PlacementStrategy,
    RecParams,
    SystemParams,
    by_unit,
    default_semantics,
    is_document_lost,
    loss_thresholds,
    validate_symmetric_preconditions,
)


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


class TestSymmetricPreconditions:
    def test_divisibility_violation(self):
        violation = validate_symmetric_preconditions(
            RecParams(1, 1, 1), SystemParams(7, 7)
        )
        assert violation is not None
        assert violation.startswith("divisibility: ")

    def test_document_count_violation(self):
        violation = validate_symmetric_preconditions(
            RecParams(1, 1, 1), SystemParams(8, 2)
        )
        assert violation is not None
        assert violation.startswith("document-count: ")
        assert "document" in violation

    def test_satisfied(self):
        assert (
            validate_symmetric_preconditions(
                RecParams(1, 1, 1), SystemParams(8, 4)
            )
            is None
        )
        assert (
            validate_symmetric_preconditions(
                RecParams(1, 0, 2), SystemParams(4, 2)
            )
            is None
        )


class TestPlacement:
    def test_shape_validation(self):
        rec = RecParams(1, 1, 1)
        with pytest.raises(ParameterError):
            Placement(rec, 4, np.zeros((3, 2), dtype=np.int64))
        with pytest.raises(ParameterError):
            Placement(rec, 4, np.zeros((3, 2, 2), dtype=float))
        with pytest.raises(ParameterError):
            Placement(rec, 4, np.full((3, 1, 2), 4, dtype=np.int64))
        with pytest.raises(ParameterError):
            Placement(rec, 4, np.zeros((0, 1, 2), dtype=np.int64))

    def test_docs_property(self):
        rec = RecParams(1, 0, 1)
        placement = Placement(rec, 2, np.zeros((5, 1, 1), dtype=np.int64))
        assert placement.docs == 5


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
        for bad in ("multiset", None):
            with pytest.raises(ParameterError, match="unknown semantics"):
                loss_thresholds(rec, bad)
            with pytest.raises(ParameterError, match="unknown semantics"):
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
        for bad in ("per-cluster", None):
            with pytest.raises(ParameterError, match="unknown semantics"):
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
