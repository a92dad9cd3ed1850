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

def _contingency(labels_a, labels_b, name: str) -> np.ndarray:
    """Counts of each (block of a, block of b) pair over two aligned label vectors."""
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    if a.size == 0 or a.size != b.size:
        raise EmptySet(f"{name} needs two aligned non-empty label vectors")
    ua, ia = np.unique(a, return_inverse=True)
    ub, ib = np.unique(b, return_inverse=True)
    return np.bincount(ia * ub.size + ib, minlength=ua.size * ub.size).reshape(ua.size, ub.size)


def nmi(labels_a, labels_b) -> float:
    """Mutual information normalized by the arithmetic mean of entropies.

    Natural logarithms; defined as 0 when either partition has a single
    block (zero entropy).
    """
    return _nmi(_contingency(labels_a, labels_b, "nmi"))


def _nmi(table: np.ndarray) -> float:
    n = int(table.sum())
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
    return _ari(_contingency(labels_a, labels_b, "ari"))


def _ari(table: np.ndarray) -> float:
    sum_ij = int(sum(comb(int(v), 2) for v in table.flat))
    sum_a = int(sum(comb(int(v), 2) for v in table.sum(axis=1)))
    sum_b = int(sum(comb(int(v), 2) for v in table.sum(axis=0)))
    total = comb(int(table.sum()), 2)
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


def _nearest(pts: np.ndarray, lifted: np.ndarray, norms: np.ndarray,
             centers: np.ndarray) -> np.ndarray:
    """[a, n]: each point's nearest center in each of a repeats, where row r
    equals `_sq_dists(pts, centers[r]).argmin(axis=1)` for [a, k, d] centers.

    One matrix product, of rows `[c, |c|^2, 1]` with the columns
    `[-2x, 1, |x|^2]` of `lifted`, estimates every squared distance. The
    estimate and the exact sum differ by less than
    `gamma * ((|x| + |c|)^2 + tiny)`, whatever order the product sums in,
    the `tiny` term covering underflow; with |c| the repeat's largest
    center norm, that is one slack per point and repeat. A center whose
    estimate exceeds the smallest by more than twice the slack cannot be
    nearest, and a point left with one center has it as its exact argmin
    too. The other points, near ties and NaN comparisons among them, get
    the exact distances and their lowest-index tie rule.
    """
    finfo = np.finfo(np.float64)
    gamma = 8 * (pts.shape[1] + 4) * finfo.eps
    a, k, d = centers.shape
    flat = centers.reshape(a * k, d)
    csq = np.einsum("ij,ij->i", flat, flat)[:, None]
    approx = (np.hstack([flat, csq, np.ones_like(csq)]) @ lifted).reshape(a, k, -1)
    reach = np.sqrt(csq.reshape(a, k).max(axis=1))[:, None]
    slack = gamma * ((norms + reach) ** 2 + finfo.tiny)
    may = ~(approx > (approx.min(axis=1) + 2.0 * slack)[:, None])
    # how many centers each point may have and, where that is one, which
    count, nearest = np.moveaxis(np.array([np.ones(k), np.arange(k)], np.float32) @ may, 1, 0)
    nearest = nearest.astype(np.int64)
    undecided = count != 1
    for r in np.flatnonzero(undecided.any(axis=1)):
        rows = undecided[r]
        nearest[r, rows] = _sq_dists(pts[rows], centers[r]).argmin(axis=1)
    return nearest


def _seed(pts: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Greedy k-means++ seeding: [k, d] centers drawn from `pts`."""
    n = pts.shape[0]
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
    return centers


def _update(pts: np.ndarray, start: np.ndarray, assign: np.ndarray,
            centers: np.ndarray) -> None:
    """One repeat's Lloyd update of `centers` in place, cluster by cluster.

    A cluster's center is `pts[members].mean(axis=0)`, bit for bit: a
    contiguous slice of one stable-sorted gather, reduced the same way. An
    emptied cluster takes the point farthest from its `start` center, which
    leaves its cluster in `assign` before later clusters are averaged.
    """
    k = centers.shape[0]
    counts = np.bincount(assign, minlength=k)
    if counts.all():
        rows = np.take(pts, np.argsort(assign, kind="stable"), axis=0)
        for j, stop in enumerate(np.cumsum(counts).tolist()):
            np.add.reduce(rows[stop - counts[j]:stop], axis=0, out=centers[j])
        centers /= counts[:, None]
        return
    dists = _sq_dists(pts, start)
    for j in range(k):
        members = assign == j
        if members.any():
            centers[j] = pts[members].mean(axis=0)
        else:
            far = int(dists[np.arange(pts.shape[0]), assign].argmax())
            centers[j] = pts[far]
            assign[far] = j


def kmeans_lockstep(points: np.ndarray, k: int, rngs, max_iter: int = 300) -> list:
    """`kmeans` of `points` once per generator in `rngs`, equal to one call
    per generator bit for bit.

    The points are checked, and their squared norms taken, once. Each
    repeat is seeded from its own generator, then the Lloyd rounds of
    every repeat still moving share one distance product; a repeat leaves
    once its assignments stop changing.
    """
    pts = np.asarray(points, dtype=np.float64)
    if not np.isfinite(pts).all():
        raise DegenerateData("k-means points are not finite")
    if not _has_distinct(pts, k):
        raise DegenerateData(f"need at least {k} distinct points")
    centers = np.stack([_seed(pts, k, rng) for rng in rngs])
    sq = np.einsum("ij,ij->i", pts, pts)
    lifted, norms = np.vstack([-2.0 * pts.T, np.ones_like(sq), sq]), np.sqrt(sq)
    assign = np.full((len(centers), pts.shape[0]), -1, dtype=np.int64)
    live = np.arange(len(centers))
    for _ in range(max_iter):
        if not live.size:
            break
        start = centers[live]
        nearest = _nearest(pts, lifted, norms, start)
        for r, s, new in zip(live, start, nearest):
            _update(pts, s, new, centers[r])
        moved = (nearest != assign[live]).any(axis=1)
        assign[live] = nearest
        live = live[moved]
    return [(c, a, float(((pts - c[a]) ** 2).sum())) for c, a in zip(centers, assign)]


def kmeans(points: np.ndarray, k: int, rng: np.random.Generator,
           max_iter: int = 300):
    """Greedy k-means++ seeding plus Lloyd iterations.

    Stops when assignments are stable or after `max_iter` rounds. An
    emptied cluster is re-seeded with the point farthest from its center.
    Returns (centers, assignments, inertia). Raises DegenerateData for
    non-finite points, fewer than k distinct points, or finite points
    whose squared distances overflow the seeding weights.
    """
    return kmeans_lockstep(points, k, [rng], max_iter)[0]


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
    runs = kmeans_lockstep(embeddings, k, [rng_for(seed, "kmeans", rep) for rep in range(repeats)])
    tables = [_contingency(assign, labels, "cluster_eval") for _, assign, _ in runs]
    nmis, aris = [_nmi(t) for t in tables], [_ari(t) for t in tables]
    _, assign, inertia = min(runs, key=lambda run: run[2])
    return ClusteringResult(
        k=k, assignments=assign, inertia=inertia,
        nmi_mean=float(np.mean(nmis)), nmi_std=float(np.std(nmis)),
        ari_mean=float(np.mean(aris)), ari_std=float(np.std(aris)))
