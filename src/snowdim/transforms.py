"""Distance transforms and their exact realizations.

Three bounded concave transforms, one per host norm:

* Gaussian  G_r(t) = r * sqrt(1 - exp(-t^2/r^2))   (Euclidean targets)
* Laplace   L_r(t) = r * (1 - exp(-t/r))           (l1 targets)
* threshold T_r(t) = min(t, r)                     (l-infinity targets)

All keep small distances nearly intact and saturate near r. The identity
L_r(t) = r * G(sqrt(t/r))^2 ties the first two together.

Realizations turn a transformed metric back into coordinates. Euclidean
maps have one Gram factorizer, ``factor_gram``, and one classical MDS of
squared distances, ``classical_mds``: the l2 single-scale build factors
its clusters' closed-form Gram sum, the l2 snowflake is the classical MDS
of its summed squared per-scale distances, and ``euclidean_realization``
that of a distance matrix. l1 maps are cuts, one closed form for any l1
point set (``cut_decomposition``: the boxes of Poisson cuts on every
axis), split into the member sets and their merges, which do not depend
on r (``cut_structure``), and the weights at r, summed from them
(``cut_weights``); a build cuts its whole set once, and each cluster
traces those cuts at its scale. l-infinity maps are per-landmark
threshold coordinates.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import BadParams, ClusterTooLarge, NotEuclidean
from .points import PAIRWISE_BYTES

#: relative eigenvalue tolerance for declaring a Gram matrix non-Euclidean
EIG_RTOL = 1e-8
#: keep Gram eigenvalues above this fraction of lambda_max; sits above
#: eigh rounding noise but keeps the long low-energy tail that transformed
#: metrics of nearly collinear sets carry
EIG_KEEP_RTOL = 1e-13
#: cut weights at most this fraction of the largest L_r, over the number
#: of cuts, are dropped
CUT_RTOL = 1e-9
#: refuse a cut decomposition whose candidate cuts on one axis, times the
#: points, pass this (``cut_axes``): each cut is a row over the points.
#: 14 points pass in any number of dimensions
MAX_BOX_POINTS = 1 << 25


def _check_r(r: float) -> float:
    if not 0 < r < math.inf:
        raise BadParams(f"transform r must be positive and finite, got {r}")
    return float(r)


def gaussian_transform(t, r: float = 1.0):
    """G_r(t) = r * sqrt(1 - exp(-t^2 / r^2)), elementwise."""
    r = _check_r(r)
    t = np.asarray(t, dtype=np.float64)
    with np.errstate(over="ignore"):       # t/r overflows: exactly r
        out = r * np.sqrt(-np.expm1(-np.square(t / r)))
    return out if out.ndim else float(out)


def laplace_transform(t, r: float = 1.0):
    """L_r(t) = r * (1 - exp(-t / r)), elementwise."""
    r = _check_r(r)
    t = np.asarray(t, dtype=np.float64)
    with np.errstate(over="ignore"):       # t/r overflows: exactly r
        out = r * -np.expm1(-t / r)
    return out if out.ndim else float(out)


def threshold_transform(t, r: float):
    """T_r(t) = min(t, r), elementwise."""
    r = _check_r(r)
    t = np.asarray(t, dtype=np.float64)
    out = np.minimum(t, r)
    return out if out.ndim else float(out)


def factor_gram(gram: np.ndarray,
                keep_rtol: float = EIG_KEEP_RTOL) -> np.ndarray:
    """Rows y with y @ y.T equal to the symmetric PSD matrix ``gram``.

    Eigenvalues at or below keep_rtol * max are dropped, so y has at most
    rank(gram) columns, leading coordinates first. ``keep_rtol = 0``
    keeps every positive eigenvalue, for a Gram known to have full rank
    whose small eigenvalues are true directions. Raises NotEuclidean when
    the smallest eigenvalue lies below -EIG_RTOL * max: the matrix is no
    Gram matrix of any point set.
    """
    n = gram.shape[0]
    gram = 0.5 * (gram + gram.T)
    vals, vecs = np.linalg.eigh(gram)
    top = max(float(vals[-1]), 0.0) if n else 0.0
    if n and vals[0] < -EIG_RTOL * top:
        raise NotEuclidean(
            f"most negative Gram eigenvalue {vals[0]:.6g} below "
            f"tolerance {-EIG_RTOL * top:.6g}; the matrix is not a Gram "
            f"matrix")
    keep = vals > keep_rtol * top
    if not keep.any():
        return np.zeros((n, 0))
    # leading coordinates first; eigh sorts ascending
    y = vecs[:, keep] * np.sqrt(vals[keep])
    return np.ascontiguousarray(y[:, ::-1])


def classical_mds(d2: np.ndarray) -> np.ndarray:
    """Exact coordinates for a matrix of squared Euclidean distances.

    Classical MDS (Torgerson 1952): the centered Gram B = -1/2 J D^2 J,
    factored by ``factor_gram`` (which raises NotEuclidean on a spectrum
    too negative for any point set). B has the all-ones vector in its
    kernel, so the (n, k) result keeps k = rank(B) <= n - 1 columns, also
    when that direction's rounding noise passes the cutoff.
    """
    b = -0.5 * (d2 - d2.mean(axis=0) - d2.mean(axis=1)[:, None] + d2.mean())
    return factor_gram(b)[:, :d2.shape[0] - 1]


def euclidean_realization(dmat: np.ndarray) -> np.ndarray:
    """Exact coordinates for a Euclidean distance matrix: classical MDS."""
    dmat = np.asarray(dmat, dtype=np.float64)
    n = dmat.shape[0]
    if dmat.shape != (n, n):
        raise BadParams(f"distance matrix must be square, got {dmat.shape}")
    return classical_mds(np.square(dmat))


def cut_axes(points) -> np.ndarray:
    """The coordinates ``cut_decomposition`` cuts along, for l1 rows:
    each axis shifted to start at 0, or, when every axis is monotone in
    the order of the l1 distance t from an end of the set (any l1 line)
    and t separates every two distinct points, t alone, which measures
    every pair the same. A tie in t between distinct points, a gap below
    t's rounding, keeps the axes. Raises ClusterTooLarge
    when the candidate cuts of one axis's pass times the points pass
    MAX_BOX_POINTS: a pass crosses the member sets so far, at most
    2^n - 1 of them once merged, with the q(q + 1)/2 intervals of the
    axis's q values. A subset's count is never larger."""
    x = np.asarray(points, dtype=np.float64)
    x = x - x.min(axis=0, initial=np.inf)
    n = len(x)
    if n and x.shape[1] > 1:
        t = np.abs(x - x[np.abs(x - x[0]).sum(axis=1).argmax()]).sum(axis=1)
        order = np.argsort(t, kind="stable")
        step = np.diff(x[order], axis=0)
        apart = (np.diff(t[order]) > 0) | ~step.any(axis=1)
        if apart.all() and ((step >= 0).all(axis=0)
                            | (step <= 0).all(axis=0)).all():
            x = t[:, None]
    cand = 1
    for q in map(len, map(np.unique, x.T)):
        cand = min(cand, (1 << n) - 1) * q * (q + 1) // 2
        if cand * n > MAX_BOX_POINTS:
            raise ClusterTooLarge(
                f"the cut decomposition of {n} points crosses {cand} "
                f"candidate cuts on one axis; candidates times points "
                f"passes the cap of {MAX_BOX_POINTS}")
    return x


def _pack(sides: np.ndarray) -> np.ndarray:
    """Boolean rows as rows of little-endian 64-bit words."""
    out = np.zeros((len(sides), -(-sides.shape[1] // 64) * 8), np.uint8)
    packed = np.packbits(sides, axis=1, bitorder="little")
    out[:, :packed.shape[1]] = packed
    return out.view("<u8")


def _groups(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Equal rows of a 2-d array: each distinct row's first index,
    ascending, and each row's group, numbered in that order. A row is
    compared as one opaque value, a bytewise sort, not the
    structured-dtype sort of np.unique(axis=0). The sort need not be
    stable: a group's first index is the minimum over its run of the
    sorted order, which is half the time of np.unique's stable sort on
    64-bit keys."""
    keys = (rows[:, 0] if rows.shape[1] == 1 else np.ascontiguousarray(
        rows).view(f"V{rows.itemsize * rows.shape[1]}")[:, 0])
    perm = np.argsort(keys)
    ordered = keys[perm]
    fresh = np.ones(len(keys), dtype=bool)
    fresh[1:] = ordered[1:] != ordered[:-1]
    inverse = np.empty(len(keys), dtype=np.intp)
    inverse[perm] = np.cumsum(fresh) - 1
    first = np.minimum.reduceat(perm, np.flatnonzero(fresh))
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], rank[inverse]


class CutPass(NamedTuple):
    """One axis's pass of a ``CutStructure``: the axis's gaps (infinite
    past each end); each interval's lower and upper gap, as indices into
    them, and its span; the member sets per chunk; each chunk's bin map
    from its candidates (member set by interval) to its distinct
    nonempty sets; and the bin map merging the chunks' sets. A bin map
    (group, k) sends entries to bins 0..k-1 and dead entries to a
    dropped bin k, in the narrowest unsigned type; group is None for the
    identity."""

    gap: np.ndarray
    lo: np.ndarray
    hi1: np.ndarray
    span: np.ndarray
    step: int
    chunks: tuple
    merge: tuple


class CutStructure(NamedTuple):
    """The r-free part of an l1 cut decomposition (``cut_structure``):
    one pass per axis of ``cut_axes``, the bin map (as in ``CutPass``)
    from the last pass's sets, complemented to leave the first point
    out, to the cuts in arc order (the empty set is dead), the cuts'
    sides in that order, and the largest l1 distance."""

    n: int
    passes: tuple
    final: tuple
    sides: np.ndarray
    diam: float


def _bin_map(live: np.ndarray, group: np.ndarray, k: int) -> tuple:
    """The bin map of entries onto k bins: ``group`` on the ``live``
    ones, bin k on the others."""
    at = np.full(len(live), k, dtype=np.min_scalar_type(k))
    at[live] = group
    return (None if np.array_equal(at, np.arange(len(at))) else at), k


def _bins(bin_map: tuple, mass: np.ndarray) -> np.ndarray:
    """``mass`` summed into its bins, entries in index order; the dead
    bin is dropped."""
    group, k = bin_map
    if group is None:
        return mass
    return np.bincount(group, weights=mass, minlength=k + 1)[:k]


def cut_structure(points) -> CutStructure:
    """The cuts of ``cut_decomposition`` and how its passes merge them:
    everything but the weights, the only part that depends on r.
    ``cut_weights`` replays it at any r. Raises ClusterTooLarge as
    ``cut_axes`` does."""
    x = cut_axes(points)
    n = len(x)
    if n < 2:
        return CutStructure(n, (), (None, 0), np.zeros((0, n), dtype=bool),
                            0.0)
    words = -(-n // 64)
    full = _pack(np.ones((1, n), dtype=bool))
    keys = full
    passes = []
    for col in x.T:
        v, at = np.unique(col, return_inverse=True)
        lo, hi = np.triu_indices(len(v))
        gap = np.concatenate([[np.inf], np.diff(v), [np.inf]])
        boxes = _pack((lo[:, None] <= at) & (at <= hi[:, None]))
        step = max(1, PAIRWISE_BYTES // (8 * (words + 1) * len(lo)))
        parts, chunks = [], []
        for s in range(0, len(keys), step):
            cand = (keys[s:s + step, None] & boxes).reshape(-1, words)
            live = cand.any(axis=1)
            first, group = _groups(cand[live])
            parts.append(cand[live][first])
            chunks.append(_bin_map(live, group, len(first)))
        keys = np.concatenate(parts)
        first, group = _groups(keys)
        merge = _bin_map(np.ones(len(keys), dtype=bool), group, len(first))
        keys = keys[first]
        narrow = np.min_scalar_type(len(gap))
        passes.append(CutPass(gap, lo.astype(narrow),
                              (hi + 1).astype(narrow), v[hi] - v[lo], step,
                              tuple(chunks), merge))
    keys = np.where(keys[:, :1] & np.uint64(1), keys ^ full, keys)
    live = keys.any(axis=1)
    first, group = _groups(keys[live])
    sides = np.unpackbits(keys[live][first].view(np.uint8), axis=1, count=n,
                          bitorder="little").astype(bool)
    # arc order
    far = np.abs(x - x[0]).sum(axis=1)
    far[0] = np.inf
    pos = np.argsort(np.argsort(-far, kind="stable"))
    order = np.lexsort((np.where(sides, pos, -1).max(axis=1),
                        np.where(sides, pos, n).min(axis=1)))
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return CutStructure(n, tuple(passes),
                        _bin_map(live, rank[group], len(order)), sides[order],
                        float(np.abs(x[:, None] - x).sum(axis=2).max()))


def cut_weights(structure: CutStructure,
                r: float) -> tuple[np.ndarray, np.ndarray]:
    """``cut_decomposition`` at scale r from its ``cut_structure``.

    Each pass spreads its interval chances at r over its candidates and
    sums them into their sets, one bincount per chunk and one over the
    chunks, each in the candidates' order, so every weight is bitwise
    the one a fresh decomposition sums. The rows the CUT_RTOL rule keeps
    stay in the cached arc order, which is the order a fresh sort gives
    them: the sort is stable and reads each row alone."""
    r = _check_r(r)
    if structure.n < 2:
        return np.zeros(0), np.zeros((0, structure.n), dtype=bool)
    mass = np.ones(1)
    for p in structure.passes:
        e = np.expm1(-p.gap / r)
        prob = e[p.lo] * e[p.hi1] * np.exp(-p.span / r)
        mass = _bins(p.merge, np.concatenate([
            _bins(chunk, np.outer(mass[s:s + p.step], prob).ravel())
            for s, chunk in zip(range(0, len(mass), p.step), p.chunks)]))
    w = 0.5 * r * _bins(structure.final, mass)
    top = laplace_transform(structure.diam, r)
    keep = w > CUT_RTOL * top / len(w)
    return w[keep], structure.sides[keep]


def cut_decomposition(points, r: float) -> tuple[np.ndarray, np.ndarray]:
    """L_r of the l1 metric on the rows of ``points`` as a sum of cuts.

    Independent rate-1/r Poisson cuts on every axis leave two points in
    one cell with chance exp(-d/r), so L_r = (r/2) sum_B Pr[B is a cell]
    delta_B over the boxes B whose sides are intervals of each axis's
    sorted values (``cut_axes``). On one axis an interval is a cell with
    chance (1 - exp(-gap/r)) for each outer gap (1 past an end) times
    exp(-span/r), and a box's chance is the product over its axes. One
    pass per axis intersects the member sets so far with its intervals
    and merges equal sets; the sets are then complemented so that the
    first point lies outside, and merged again. Weights at most CUT_RTOL
    times the largest L_r over the number of cuts are dropped.

    Which sets the passes make and how they merge does not depend on r:
    that is ``cut_structure``, and ``cut_weights`` sums the weights at r
    from it. This is the two in one call; a caller that cuts one set at
    many scales keeps the structure and replays it.

    Returns the weights (K,) and the sides (K, n), row c marking the
    points of cut c, in arc order: by the first and then the last
    position of the members in the order of the first point, then the
    others by falling distance from it. On a line these are the arcs of
    Chepoi and Fichet (1998) in their circular order.
    """
    return cut_weights(cut_structure(points), r)
