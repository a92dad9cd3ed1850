"""Ranking metrics, clustering quality scores, and a small k-means.

Ranking functions take a score vector plus a boolean relevance vector
over the same candidate list; the `_rows` forms take an [m, C] score
matrix and relevance mask and score each row. Ordering is by descending
score with ties broken by ascending candidate index, so results never
depend on sort instability.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import DegenerateData, EmptySet, NoRelevant
from .rand import rng_for


def ranked_order(scores: np.ndarray) -> np.ndarray:
    """Candidate indices from best to worst; ties keep index order."""
    return np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")


def ndcg(scores, relevant) -> float:
    """Binary-gain NDCG over the full candidate list."""
    rel = np.asarray(relevant, dtype=bool)
    if not rel.any():
        raise NoRelevant("ndcg needs at least one relevant candidate")
    order = ranked_order(scores)
    positions = np.arange(1, rel.size + 1)
    discounts = 1.0 / np.log2(positions + 1)
    dcg = float(discounts[rel[order]].sum())
    ideal = float(discounts[:rel.sum()].sum())
    return dcg / ideal


def _ranked_relevance(scores, relevant) -> np.ndarray:
    """Each row's relevance flags in its `ranked_order`, for [m, C] matrices."""
    order = np.argsort(-np.asarray(scores, dtype=np.float64), axis=1, kind="stable")
    return np.take_along_axis(np.asarray(relevant, dtype=bool), order, axis=1)


def ndcg_rows(scores, relevant) -> np.ndarray:
    """`ndcg` of every row of a score matrix against its relevance row.

    Rows whose ranked relevance pattern is the same have the same NDCG, so
    `ndcg` runs once per distinct pattern; each value equals the per-row
    call bit for bit. Trailing never-relevant cells (`-inf` pads) leave a
    row's NDCG unchanged.
    """
    patterns, which = np.unique(_ranked_relevance(scores, relevant), axis=0,
                                return_inverse=True)
    already_ranked = np.arange(patterns.shape[1], 0, -1.0)
    return np.array([ndcg(already_ranked, p) for p in patterns])[which.ravel()]


def mrr(scores, relevant) -> float:
    """Reciprocal rank of the best-ranked relevant candidate."""
    rel = np.asarray(relevant, dtype=bool)
    if not rel.any():
        raise NoRelevant("mrr needs at least one relevant candidate")
    order = ranked_order(scores)
    first = int(np.nonzero(rel[order])[0][0])
    return 1.0 / (first + 1)


def mrr_rows(scores, relevant) -> np.ndarray:
    """`mrr` of every row of a score matrix, equal to the per-row call bit
    for bit; a row's hit@1 is its reciprocal rank being 1."""
    ranked = _ranked_relevance(scores, relevant)
    if not ranked.any(axis=1).all():
        raise NoRelevant("mrr needs at least one relevant candidate")
    return 1.0 / (np.argmax(ranked, axis=1) + 1)


def accuracy(predictions, label_sets) -> float:
    """Fraction of predictions contained in the instance's label set."""
    preds = list(predictions)
    if len(preds) == 0:
        raise EmptySet("accuracy over an empty collection")
    if len(preds) != len(label_sets):
        raise EmptySet("predictions and labels must align")
    hits = sum(1 for p, labels in zip(preds, label_sets) if int(p) in labels)
    return hits / len(preds)


# partition comparison

def _contingency(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    ua, ia = np.unique(a, return_inverse=True)
    ub, ib = np.unique(b, return_inverse=True)
    table = np.zeros((ua.size, ub.size), dtype=np.int64)
    np.add.at(table, (ia, ib), 1)
    return table


def nmi(labels_a, labels_b) -> float:
    """Mutual information normalized by the arithmetic mean of entropies.

    Natural logarithms; defined as 0 when either partition has a single
    block (zero entropy).
    """
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    if a.size == 0 or a.size != b.size:
        raise EmptySet("nmi needs two aligned non-empty label vectors")
    n = a.size
    table = _contingency(a, b)
    pa = table.sum(axis=1) / n
    pb = table.sum(axis=0) / n
    ha = -np.sum(pa[pa > 0] * np.log(pa[pa > 0]))
    hb = -np.sum(pb[pb > 0] * np.log(pb[pb > 0]))
    denom = 0.5 * (ha + hb)
    if denom == 0.0:
        return 0.0
    pij = table / n
    outer = np.outer(pa, pb)
    nz = pij > 0
    mi = float(np.sum(pij[nz] * np.log(pij[nz] / outer[nz])))
    return mi / denom


def ari(labels_a, labels_b) -> float:
    """Adjusted Rand index from exact pair counts.

    Returns 0.0 when the adjustment denominator vanishes (e.g. either
    partition is a single block), the convention for degenerate inputs.
    """
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    if a.size == 0 or a.size != b.size:
        raise EmptySet("ari needs two aligned non-empty label vectors")
    n = a.size
    table = _contingency(a, b)
    sum_ij = int(sum(comb(int(v), 2) for v in table.flat))
    sum_a = int(sum(comb(int(v), 2) for v in table.sum(axis=1)))
    sum_b = int(sum(comb(int(v), 2) for v in table.sum(axis=0)))
    total = comb(n, 2)
    expected = sum_a * sum_b / total if total else 0.0
    max_index = 0.5 * (sum_a + sum_b)
    denom = max_index - expected
    if denom == 0.0:
        return 0.0
    return (sum_ij - expected) / denom


# k-means

def _sq_dists(pts: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """[n, k] squared distances, summed coordinate by coordinate."""
    return ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)


def _has_distinct(pts: np.ndarray, k: int) -> bool:
    """Whether `pts` holds k pairwise-distinct rows, counted as
    `np.unique(pts, axis=0)` counts them: -0.0 equals 0.0 and a row holding
    NaN equals no row. Picks distinct rows greedily, each pick clearing
    every row equal to it."""
    left = np.ones(pts.shape[0], dtype=bool)
    for _ in range(k):
        if not left.any():
            return False
        i = int(np.argmax(left))
        left &= (pts != pts[i]).any(axis=1)
        left[i] = False
    return True


def _nearest(pts: np.ndarray, sq: np.ndarray, norms: np.ndarray,
             centers: np.ndarray) -> np.ndarray:
    """Each point's nearest center, equal to `_sq_dists(pts, centers).argmin(axis=1)`.

    One matrix product estimates every squared distance as
    `|x|^2 - 2 x.c + |c|^2`. Both that estimate and the exact sum lie within
    `gamma * ((|x| + |c|)^2 + tiny)` of the true distance, the `tiny` term
    covering underflow. A point whose smallest estimate plus its slack lies
    strictly below every other estimate minus its slack has that center as
    its exact argmin too; the other points, near ties and NaN comparisons
    among them, get the exact distances and their lowest-index tie rule.
    """
    finfo = np.finfo(np.float64)
    gamma = 8 * (pts.shape[1] + 4) * finfo.eps
    csq = np.einsum("ij,ij->i", centers, centers)
    approx = sq[:, None] - 2.0 * (pts @ centers.T) + csq
    slack = gamma * ((norms[:, None] + np.sqrt(csq)) ** 2 + finfo.tiny)
    nearest = approx.argmin(axis=1)
    rows = np.arange(pts.shape[0])
    best = approx[rows, nearest] + slack[rows, nearest]
    others = approx - slack
    others[rows, nearest] = np.inf
    undecided = ~(others > best[:, None]).all(axis=1)
    if undecided.any():
        nearest[undecided] = _sq_dists(pts[undecided], centers).argmin(axis=1)
    return nearest


def kmeans(points: np.ndarray, k: int, rng: np.random.Generator,
           max_iter: int = 300):
    """Greedy k-means++ seeding plus Lloyd iterations.

    Stops when assignments are stable or after `max_iter` rounds. An
    emptied cluster is re-seeded with the point farthest from its center.
    Returns (centers, assignments, inertia). Raises DegenerateData for
    non-finite points, fewer than k distinct points, or finite points
    whose squared distances overflow the seeding weights.
    """
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    if not np.isfinite(pts).all():
        raise DegenerateData("k-means points are not finite")
    if not _has_distinct(pts, k):
        raise DegenerateData(f"need at least {k} distinct points")
    centers = np.empty((k, pts.shape[1]))
    centers[0] = pts[int(rng.integers(n))]
    d2 = np.sum((pts - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if not np.isfinite(total):
            raise DegenerateData("k-means seeding weights are not finite")
        probs = d2 / total if total > 0 else np.full(n, 1.0 / n)
        centers[j] = pts[int(rng.choice(n, p=probs))]
        d2 = np.minimum(d2, np.sum((pts - centers[j]) ** 2, axis=1))
    sq = np.einsum("ij,ij->i", pts, pts)
    norms = np.sqrt(sq)
    assign = np.full(n, -1, dtype=np.int64)
    for _ in range(max_iter):
        start = centers.copy()
        new_assign = _nearest(pts, sq, norms, start)
        dists = None
        for j in range(k):
            members = new_assign == j
            if members.any():
                centers[j] = pts[members].mean(axis=0)
            else:
                if dists is None:
                    dists = _sq_dists(pts, start)
                far = int(dists[np.arange(n), new_assign].argmax())
                centers[j] = pts[far]
                new_assign[far] = j
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
    inertia = float(((pts - centers[assign]) ** 2).sum())
    return centers, assign, inertia


@dataclass
class ClusteringResult:
    k: int
    assignments: np.ndarray
    inertia: float
    nmi_mean: float
    nmi_std: float
    ari_mean: float
    ari_std: float


def cluster_eval(embeddings: np.ndarray, labels, k: int, repeats: int = 10,
                 seed: int = 0) -> ClusteringResult:
    """Run k-means `repeats` times; report NMI/ARI mean and spread.

    The reported assignment comes from the lowest-inertia repeat.
    """
    if repeats < 1:
        raise EmptySet("repeats must be >= 1")
    labels = np.asarray(labels)
    nmis, aris = [], []
    best = None
    for rep in range(repeats):
        rng = rng_for(seed, "kmeans", rep)
        _, assign, inertia = kmeans(embeddings, k, rng)
        nmis.append(nmi(assign, labels))
        aris.append(ari(assign, labels))
        if best is None or inertia < best[1]:
            best = (assign, inertia)
    return ClusteringResult(
        k=k, assignments=best[0], inertia=best[1],
        nmi_mean=float(np.mean(nmis)), nmi_std=float(np.std(nmis)),
        ari_mean=float(np.mean(aris)), ari_std=float(np.std(aris)))
