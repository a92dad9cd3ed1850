"""Metric oracles: every expected value below is computed by hand or by
an independent closed-form expression, then frozen."""
import functools
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
from duograph import metrics
from duograph.errors import DegenerateData, EmptySet, NoRelevant
from duograph.metrics import (ClusteringResult, accuracy, ari, cluster_eval, kmeans,
                              kmeans_lockstep, mrr, mrr_rows, ndcg, ndcg_rows, nmi, ranked_order)
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


def _outcome(fn, points, k, seed, errors=(DegenerateData,)):
    """(centers, assignments, inertia) of one run, or the type of its error."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return fn(points, k, np.random.default_rng(seed))
    except errors as exc:
        return type(exc)


def _assert_same_kmeans(points, k, seed):
    """The package's k-means equals the all-pairs oracle bit for bit.

    Finite points whose squared distances overflow make the oracle's
    seeding fail with numpy's ValueError ("Probabilities contain NaN" or
    "do not sum to 1"); the package raises DegenerateData there instead.
    """
    want = _outcome(reference.kmeans, points, k, seed, (DegenerateData, ValueError))
    if want is ValueError:
        want = DegenerateData
    got = _outcome(kmeans, points, k, seed)
    if isinstance(want, type):
        assert got is want
        return
    assert not isinstance(got, type), got
    (wc, wa, wi), (gc, ga, gi) = want, got
    assert np.array_equal(gc, wc) and np.array_equal(ga, wa) and ga.dtype == wa.dtype
    assert gi == wi


def _blobs(n, d, k, scale, offset=0.0, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=scale, size=(k, d))
    return centers[rng.integers(k, size=n)] + rng.normal(size=(n, d)) + offset


# Points whose second Lloyd round empties a cluster, found by search over
# small integer grids; k=3 and rng seed 30009 reach the re-seed branch.
RESEED_POINTS = np.array([[2.0, 0.0], [2.0, 1.0], [2.0, 4.0], [1.0, 0.0],
                          [5.0, 2.0], [3.0, 5.0], [1.0, 4.0], [1.0, 0.0]])

KMEANS_CASES = {
    "separated blobs": (_blobs(200, 8, 4, 10.0), 4, 0),
    "overlapping blobs": (_blobs(300, 16, 5, 0.5, seed=1), 5, 1),
    "integer grid with exact ties": (
        np.random.default_rng(2).integers(-2, 3, size=(60, 3)).astype(float), 4, 2),
    "common offset 1e7": (_blobs(80, 4, 3, 1.0, offset=1e7, seed=3), 3, 3),
    "signed zeros": (np.random.default_rng(4).choice([0.0, -0.0, 1.0], size=(30, 2)), 3, 4),
    "every point a cluster": (np.arange(12.0).reshape(6, 2), 6, 5),
    "repeated rows": (np.repeat(_blobs(10, 3, 2, 3.0, seed=6), 4, axis=0), 5, 6),
    "tiny magnitudes": (np.random.default_rng(7).integers(0, 3, size=(40, 3)) * 1e-160, 3, 7),
    "huge magnitudes": (np.random.default_rng(8).integers(0, 3, size=(40, 3)) * 1e150, 3, 8),
    "subnormal squares": (np.array([[3], [24], [23], [35], [11], [36], [26], [35], [7],
                                    [30], [37]]) * 1e-162, 4, 7),
    "overflowing squares": (np.array([[2e154], [2e154], [3e154]]), 2, 705),
    "points near 1e154": (np.random.default_rng(13).integers(-3, 4, size=(30, 2)) * 1e154, 3, 13),
    "emptied cluster": (RESEED_POINTS, 3, 30009),
    "emptied cluster, farthest point moves with the update": (
        np.array([[2.0, 1.0], [0.0, 5.0], [4.0, 3.0], [4.0, 2.0], [2.0, 3.0], [5.0, 3.0],
                  [2.0, 4.0]]), 3, 43941),
    "fewer distinct rows than k": (np.repeat([[1.0, -0.0], [1.0, 0.0], [2.0, 2.0]], 3, axis=0),
                                   3, 9),
    "no points": (np.empty((0, 2)), 1, 10),
}


class TestKmeansMatchesOracle:
    @pytest.mark.parametrize("case", sorted(KMEANS_CASES))
    def test_table(self, case):
        points, k, seed = KMEANS_CASES[case]
        _assert_same_kmeans(points, k, seed)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.integers(1, 25), st.integers(1, 4), st.integers(1, 5),
           st.sampled_from([1.0, 0.5, 1e-3, 1e7, 1e-161, 1e154]), st.sampled_from([0.0, -3.0, 1e7]),
           st.integers(0, 2**16), st.data())
    def test_random_inputs(self, n, d, k, step, offset, seed, data):
        grid = data.draw(st.lists(st.integers(-3, 3), min_size=n * d, max_size=n * d))
        points = np.array(grid, dtype=float).reshape(n, d) * step + offset
        _assert_same_kmeans(points, k, seed)

    def test_emptied_cluster_is_reseeded_from_exact_distances(self, monkeypatch):
        # the re-seed branch hands the points array itself to `_sq_dists`;
        # undecided assignments hand it a row subset
        reseeds = []
        exact = metrics._sq_dists

        def spy(pts, centers):
            reseeds.append(pts is RESEED_POINTS)
            return exact(pts, centers)

        monkeypatch.setattr(metrics, "_sq_dists", spy)
        _assert_same_kmeans(RESEED_POINTS, 3, 30009)
        assert any(reseeds)

    def test_blob_assignments_need_no_exact_distances(self, monkeypatch):
        monkeypatch.setattr(metrics, "_sq_dists", None)
        kmeans(_blobs(500, 32, 4, 3.0, seed=11), 4, np.random.default_rng(0))


def _assert_same_lockstep(points, k, seeds, max_iter=300):
    """`kmeans_lockstep` over one generator per seed equals a loop of the
    oracle, one call per generator, bit for bit; a list with any degenerate
    repeat raises DegenerateData."""
    oracle = functools.partial(reference.kmeans, max_iter=max_iter)
    want = [_outcome(oracle, points, k, s, (DegenerateData, ValueError)) for s in seeds]
    with np.errstate(over="ignore", invalid="ignore"):
        if any(isinstance(w, type) for w in want):
            with pytest.raises(DegenerateData):
                kmeans_lockstep(points, k, [np.random.default_rng(s) for s in seeds], max_iter)
            return
        got = kmeans_lockstep(points, k, [np.random.default_rng(s) for s in seeds], max_iter)
    assert len(got) == len(want)
    for (wc, wa, wi), (gc, ga, gi) in zip(want, got):
        assert np.array_equal(gc, wc) and np.array_equal(ga, wa) and ga.dtype == wa.dtype
        assert gi == wi


def _live_counts(monkeypatch):
    """The number of repeats each Lloyd round of `kmeans_lockstep` moves."""
    counts = []
    nearest = metrics._nearest

    def spy(pts, lifted, norms, centers):
        counts.append(centers.shape[0])
        return nearest(pts, lifted, norms, centers)

    monkeypatch.setattr(metrics, "_nearest", spy)
    return counts


def _cluster_eval_loop(embeddings, labels, k, repeats, seed) -> ClusteringResult:
    """`cluster_eval` as one oracle k-means per repeat, the first lowest inertia kept."""
    runs = [reference.kmeans(embeddings, k, rng_for(seed, "kmeans", rep)) for rep in range(repeats)]
    nmis = [nmi(assign, labels) for _, assign, _ in runs]
    aris = [ari(assign, labels) for _, assign, _ in runs]
    best = 0
    for rep, (_, _, inertia) in enumerate(runs):
        if inertia < runs[best][2]:
            best = rep
    return ClusteringResult(k=k, assignments=runs[best][1], inertia=runs[best][2],
                            nmi_mean=float(np.mean(nmis)), nmi_std=float(np.std(nmis)),
                            ari_mean=float(np.mean(aris)), ari_std=float(np.std(aris)))


def _assert_same_result(got: ClusteringResult, want: ClusteringResult):
    assert got.assignments.dtype == want.assignments.dtype
    assert got.assignments.tobytes() == want.assignments.tobytes()
    assert (got.k, got.inertia, got.nmi_mean, got.nmi_std, got.ari_mean, got.ari_std) == \
        (want.k, want.inertia, want.nmi_mean, want.nmi_std, want.ari_mean, want.ari_std)


# Finite points where k-means++ seeding overflows only from the middle point:
# its squared distances sum past the float range, the others' do not.
OVERFLOW_FROM_ONE = np.array([[0.0], [1.2e154], [-0.1e154]])


class TestLockstepMatchesOracle:
    @pytest.mark.parametrize("case", sorted(KMEANS_CASES))
    def test_table(self, case):
        points, k, seed = KMEANS_CASES[case]
        _assert_same_lockstep(points, k, [seed, seed + 1, seed + 2])

    def test_repeats_stop_at_different_rounds(self, monkeypatch):
        live = _live_counts(monkeypatch)
        _assert_same_lockstep(_blobs(300, 16, 5, 0.5, seed=1), 5, range(10))
        assert live[0] == 10 and len(set(live)) > 2

    def test_one_repeat_reseeds_while_the_others_go_on(self, monkeypatch):
        live = _live_counts(monkeypatch)
        reseeds = []
        exact = metrics._sq_dists

        def spy(pts, centers):
            if pts is RESEED_POINTS:
                reseeds.append(live[-1])
            return exact(pts, centers)

        monkeypatch.setattr(metrics, "_sq_dists", spy)
        _assert_same_lockstep(RESEED_POINTS, 3, [1, 30009, 2, 3])
        assert reseeds and min(reseeds) > 1

    @pytest.mark.parametrize("max_iter", [0, 1, 2, 3])
    def test_cut_off_by_max_iter(self, monkeypatch, max_iter):
        live = _live_counts(monkeypatch)
        _assert_same_lockstep(_blobs(300, 16, 5, 0.5, seed=1), 5, range(4), max_iter)
        assert len(live) == max_iter

    def test_degenerate_seeding_in_a_later_repeat_raises(self):
        firsts = [int(np.random.default_rng(s).integers(3)) for s in range(3)]
        assert firsts[0] != 1 and 1 in firsts
        _assert_same_lockstep(OVERFLOW_FROM_ONE, 2, range(3))


class TestClusterEvalMatchesLoop:
    @pytest.mark.parametrize("n, d, k, scale, seed", [(600, 16, 4, 0.5, 0), (200, 3, 6, 2.0, 1),
                                                      (90, 1, 3, 1.0, 2), (40, 2, 5, 0.1, 3)])
    def test_equals_one_oracle_kmeans_per_repeat(self, n, d, k, scale, seed):
        points = _blobs(n, d, k, scale, seed=seed)
        labels = np.random.default_rng(seed).integers(k, size=n)
        _assert_same_result(cluster_eval(points, labels, k, repeats=10, seed=seed),
                            _cluster_eval_loop(points, labels, k, 10, seed))

    def test_degenerate_seeding_in_a_later_repeat_raises(self):
        firsts = [int(rng_for(0, "kmeans", rep).integers(3)) for rep in range(10)]
        assert firsts[0] != 1 and 1 in firsts
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DegenerateData, match="seeding"):
            cluster_eval(OVERFLOW_FROM_ONE, np.array([0, 1, 1]), k=2, repeats=10, seed=0)

    def test_bytes_do_not_depend_on_blas_threads(self):
        # a [3000, 40] distance product is wide enough for OpenBLAS to split
        # across threads; the certificate keeps the assignments exact
        script = ("import hashlib, pickle, numpy as np\n"
                  "from duograph.metrics import cluster_eval\n"
                  "rng = np.random.default_rng(0)\n"
                  "pts = rng.normal(scale=0.4, size=(4, 64))[rng.integers(4, size=3000)]\n"
                  "pts += rng.normal(size=(3000, 64))\n"
                  "res = cluster_eval(pts, rng.integers(4, size=3000), k=4, repeats=10, seed=0)\n"
                  "print(hashlib.sha256(pickle.dumps(res)).hexdigest())\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(metrics.__file__)))
        digests = []
        for threads in ("1", "2"):
            path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=path)
            digests.append(subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                          capture_output=True, text=True, timeout=60).stdout)
        assert digests[0] == digests[1] and len(digests[0]) == 65


DISTINCT_CASES = {
    "signed zeros are equal": np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, -0.0]]),
    "nan rows equal nothing": np.array([[np.nan, 1.0], [np.nan, 1.0], [2.0, 2.0]]),
    "nan next to signed zeros": np.array([[np.nan, -0.0], [np.nan, 0.0], [-0.0, 0.0],
                                          [0.0, 0.0], [0.0, 0.0]]),
    "all equal": np.ones((4, 3)),
    "no rows": np.empty((0, 2)),
    "integer grid": np.random.default_rng(12).integers(0, 2, size=(20, 3)).astype(float),
}


class TestDistinctRows:
    @pytest.mark.parametrize("case", sorted(DISTINCT_CASES))
    @pytest.mark.parametrize("k", range(7))
    def test_counts_as_unique_does(self, case, k):
        pts = DISTINCT_CASES[case]
        assert metrics._has_distinct(pts, k) == (np.unique(pts, axis=0).shape[0] >= k)


class TestNonFinitePoints:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_kmeans_rejects(self, bad):
        pts = np.arange(12.0).reshape(6, 2)
        pts[3, 1] = bad
        with pytest.raises(DegenerateData, match="not finite"):
            kmeans(pts, 2, rng_for(0, "fit"))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_cluster_eval_rejects(self, bad):
        pts = np.arange(12.0).reshape(6, 2)
        pts[0, 0] = bad
        with pytest.raises(DegenerateData, match="not finite"):
            cluster_eval(pts, np.array([0, 0, 0, 1, 1, 1]), k=2, repeats=2)

    def test_overflowing_seeding_weights_raise_degenerate_data(self):
        # finite points whose squared distances sum past the float range
        pts = np.array([[-1e154, 0.0], [1e154, 0.0], [0.0, 1e154], [0.0, -1e154]])
        with np.errstate(over="ignore"), pytest.raises(DegenerateData, match="seeding"):
            kmeans(pts, 3, rng_for(0, "fit"))
        with np.errstate(over="ignore"), pytest.raises(DegenerateData, match="seeding"):
            cluster_eval(pts, np.array([0, 0, 1, 1]), k=2, repeats=2)
