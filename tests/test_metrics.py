"""Metric oracles: every expected value below is computed by hand or by
an independent closed-form expression, then frozen."""
import numpy as np
import pytest

from duograph.errors import DegenerateData, EmptySet, NoRelevant
from duograph.metrics import (accuracy, ari, cluster_eval, kmeans, mrr, mrr_rows, ndcg,
                              ndcg_rows, nmi, ranked_order)
from duograph.rand import rng_for


class TestRankedOrder:
    def test_descending(self):
        assert ranked_order([0.1, 0.9, 0.5]).tolist() == [1, 2, 0]

    def test_ties_keep_index_order(self):
        assert ranked_order([0.5, 0.7, 0.5, 0.7]).tolist() == [1, 3, 0, 2]


class TestNdcg:
    def test_relevant_first_is_one(self):
        assert ndcg([3.0, 1.0, 2.0], [True, False, False]) == 1.0

    def test_relevant_second(self):
        # single relevant item at rank 2: DCG = 1/log2(3), IDCG = 1
        got = ndcg([1.0, 5.0, 0.0], [True, False, False])
        assert got == 1.0 / np.log2(3.0)

    def test_relevant_last_of_four(self):
        got = ndcg([4.0, 3.0, 2.0, 1.0], [False, False, False, True])
        assert got == 1.0 / np.log2(5.0)

    def test_two_relevant_split(self):
        # relevant at ranks 1 and 3; ideal packs them at ranks 1 and 2
        got = ndcg([9.0, 5.0, 7.0], [True, True, False])
        expect = (1.0 + 1.0 / np.log2(4.0)) / (1.0 + 1.0 / np.log2(3.0))
        assert got == pytest.approx(expect, abs=1e-15)

    def test_tie_resolved_by_index(self):
        # equal scores: index 0 ranks first, so relevant index 1 lands at rank 2
        assert ndcg([1.0, 1.0], [False, True]) == 1.0 / np.log2(3.0)

    def test_no_relevant_raises(self):
        with pytest.raises(NoRelevant):
            ndcg([1.0, 2.0], [False, False])


class TestNdcgRows:
    def test_equals_per_row_ndcg_bitwise(self):
        rng = rng_for(4, "ndcg-rows")
        scores = rng.integers(0, 4, size=(60, 9)).astype(np.float64)  # many ties
        rel = rng.random((60, 9)) < 0.3
        rel[np.arange(60), rng.integers(0, 9, size=60)] = True
        got = ndcg_rows(scores, rel)
        expected = [ndcg(scores[i], rel[i]) for i in range(60)]
        assert got.tolist() == expected

    def test_row_without_relevant_raises(self):
        with pytest.raises(NoRelevant):
            ndcg_rows([[1.0, 2.0], [2.0, 1.0]], [[True, False], [False, False]])

    def test_trailing_pads_leave_ndcg_unchanged(self):
        scores = np.array([[0.2, 0.9, -np.inf, -np.inf], [0.5, 0.1, 0.3, -np.inf]])
        rel = np.array([[True, False, False, False], [False, False, True, False]])
        assert ndcg_rows(scores, rel).tolist() == [ndcg([0.2, 0.9], [True, False]),
                                                   ndcg([0.5, 0.1, 0.3], [False, False, True])]


class TestMrrRows:
    def test_equals_per_row_mrr_bitwise(self):
        rng = rng_for(5, "mrr-rows")
        scores = rng.integers(0, 4, size=(60, 9)).astype(np.float64)  # many ties
        rel = rng.random((60, 9)) < 0.3
        rel[np.arange(60), rng.integers(0, 9, size=60)] = True
        got = mrr_rows(scores, rel)
        assert got.tolist() == [mrr(scores[i], rel[i]) for i in range(60)]

    def test_row_without_relevant_raises(self):
        with pytest.raises(NoRelevant):
            mrr_rows([[1.0, 2.0], [2.0, 1.0]], [[True, False], [False, False]])


class TestMrr:
    def test_first(self):
        assert mrr([5.0, 1.0], [True, False]) == 1.0

    def test_third(self):
        assert mrr([1.0, 2.0, 3.0], [True, False, False]) == pytest.approx(1.0 / 3.0)

    def test_best_relevant_counts(self):
        assert mrr([1.0, 2.0, 3.0], [True, True, False]) == 0.5

    def test_no_relevant_raises(self):
        with pytest.raises(NoRelevant):
            mrr([1.0], [False])


class TestAccuracy:
    def test_multi_label_membership(self):
        got = accuracy([0, 1, 2], [{0, 3}, {2}, {2, 1}])
        assert got == pytest.approx(2.0 / 3.0)

    def test_empty_raises(self):
        with pytest.raises(EmptySet):
            accuracy([], [])

    def test_misaligned_raises(self):
        with pytest.raises(EmptySet):
            accuracy([1], [{1}, {2}])

    def test_top1_tie_lowest_class(self):
        # hit@1 is a reciprocal rank of 1; tied scores rank the lower class first
        scores = np.array([[0.5, 0.5, 0.1], [0.5, 0.5, 0.1], [0.1, 0.2, 0.9]])
        rel = np.array([[True, False, False], [False, True, False], [False, False, True]])
        assert (mrr_rows(scores, rel) == 1.0).tolist() == [True, False, True]


class TestNmi:
    def test_identical_partitions(self):
        assert nmi([0, 0, 1, 1], [1, 1, 0, 0]) == pytest.approx(1.0)

    def test_independent_partitions(self):
        # every (a, b) cell has count 1: MI = 0 exactly
        assert nmi([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(0.0, abs=1e-15)

    def test_hand_value(self):
        # contingency [[2, 1], [0, 1]] over n=4
        # MI = (2/4)ln(2*4/(3*2)) + (1/4)ln(4/(3*2)) + (1/4)ln(4/2)
        # H(a) = -(3/4)ln(3/4) - (1/4)ln(1/4), H(b) likewise with 2/4, 2/4
        n = 4.0
        mi = (2 / n) * np.log(2 * n / (3 * 2)) + (1 / n) * np.log(n / (3 * 2)) \
            + (1 / n) * np.log(n / (1 * 2))
        ha = -(3 / n) * np.log(3 / n) - (1 / n) * np.log(1 / n)
        hb = -2 * (2 / n) * np.log(2 / n)
        expect = mi / ((ha + hb) / 2.0)
        assert nmi([0, 0, 0, 1], [0, 0, 1, 1]) == pytest.approx(expect, abs=1e-12)

    def test_single_cluster_both_sides(self):
        assert nmi([0, 0], [3, 3]) == 0.0


class TestAri:
    def test_identical(self):
        assert ari([0, 1, 0, 1], [5, 2, 5, 2]) == pytest.approx(1.0)

    def test_hand_value(self):
        # a = [0,0,1,1,1], b = [0,0,0,1,1]
        # pair counts: sum_ij C(n_ij,2) = C(2,2)+C(1,2)+C(0,2)+C(2,2) = 2
        # sum_i C(a_i,2) = C(2,2)+C(3,2) = 4 ; sum_j C(b_j,2) = C(3,2)+C(2,2) = 4
        # total pairs C(5,2) = 10; expected = 4*4/10 = 1.6; max = 4
        expect = (2 - 1.6) / (4 - 1.6)
        assert ari([0, 0, 1, 1, 1], [0, 0, 0, 1, 1]) == pytest.approx(expect, abs=1e-12)

    def test_degenerate_zero(self):
        # all singletons vs all one cluster: denominator is 0 by convention
        assert ari([0, 1, 2], [0, 0, 0]) == 0.0


class TestKmeans:
    def test_separated_groups_exact(self):
        rng = rng_for(11, "pts")
        centers = np.array([[0.0, 0.0], [30.0, 0.0], [0.0, 30.0], [30.0, 30.0]])
        labels = np.repeat(np.arange(4), 25)
        pts = centers[labels] + rng.normal(scale=0.3, size=(100, 2))
        _, assign, _ = kmeans(pts, 4, rng_for(11, "fit"))
        assert ari(assign, labels) == pytest.approx(1.0)

    def test_k_equals_points(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        _, assign, inertia = kmeans(pts, 3, rng_for(0, "fit"))
        assert sorted(assign.tolist()) == [0, 1, 2]
        assert inertia == pytest.approx(0.0)

    def test_too_few_distinct_points(self):
        pts = np.zeros((5, 2))
        with pytest.raises(DegenerateData):
            kmeans(pts, 2, rng_for(0, "fit"))

    def test_cluster_eval_stats(self):
        rng = rng_for(5, "pts")
        labels = np.repeat(np.arange(2), 20)
        pts = np.vstack([rng.normal(0, 0.2, (20, 3)), rng.normal(8, 0.2, (20, 3))])
        res = cluster_eval(pts, labels, k=2, repeats=5, seed=9)
        assert res.nmi_mean == pytest.approx(1.0)
        assert res.ari_mean == pytest.approx(1.0)
        assert res.nmi_std == pytest.approx(0.0, abs=1e-12)

    def test_cluster_eval_deterministic(self):
        rng = rng_for(6, "pts")
        pts = rng.normal(size=(30, 4))
        labels = rng.integers(3, size=30)
        a = cluster_eval(pts, labels, k=3, repeats=3, seed=2)
        b = cluster_eval(pts, labels, k=3, repeats=3, seed=2)
        assert a.nmi_mean == b.nmi_mean and a.ari_mean == b.ari_mean
        assert np.array_equal(a.assignments, b.assignments)
