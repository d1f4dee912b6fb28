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
that of a distance matrix. l1 maps are cuts (closed-form circular
splits when the source metric is a line, a cut-measure LP otherwise), and
l-infinity maps are per-landmark threshold coordinates.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import BadParams, ClusterTooLarge, Infeasible, NotEuclidean

#: relative eigenvalue tolerance for declaring a Gram matrix non-Euclidean
EIG_RTOL = 1e-8
#: keep Gram eigenvalues above this fraction of lambda_max; sits above
#: eigh rounding noise but keeps the long low-energy tail that transformed
#: metrics of nearly collinear sets carry
EIG_KEEP_RTOL = 1e-13
#: cut LP residual tolerance, relative to the largest distance per pair;
#: cut weights below it (relative to the largest weight) are dropped
CUT_RTOL = 1e-9
#: cut decomposition enumerates 2^(n-1)-1 cuts; refuse beyond this
MAX_CUT_POINTS = 14


def _check_r(r: float) -> float:
    if not r > 0:
        raise BadParams(f"transform scale r must be positive, got {r}")
    return float(r)


def gaussian_transform(t, r: float = 1.0):
    """G_r(t) = r * sqrt(1 - exp(-t^2 / r^2)), elementwise."""
    r = _check_r(r)
    t = np.asarray(t, dtype=np.float64)
    out = r * np.sqrt(-np.expm1(-np.square(t / r)))
    return out if out.ndim else float(out)


def laplace_transform(t, r: float = 1.0):
    """L_r(t) = r * (1 - exp(-t / r)), elementwise."""
    r = _check_r(r)
    t = np.asarray(t, dtype=np.float64)
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


@dataclass
class Cut:
    """One cut pseudometric: weight * [exactly one endpoint in members]."""

    weight: float
    members: frozenset


@functools.cache
def _cut_system(n: int) -> tuple[tuple[frozenset, ...], np.ndarray,
                                 np.ndarray, np.ndarray, np.ndarray]:
    """The part of the cut LP that depends on n alone, built once per n.

    Returns the cuts (as member sets of {1..n-1}; point 0 is pinned
    outside), the pair indices iu, ju, the equality matrix
    [incidence | I | -I] and the cost vector. The arrays are read-only
    because every later call with this n shares them.
    """
    iu, ju = np.triu_indices(n, k=1)
    cuts = tuple(frozenset(comb) for size in range(1, n)
                 for comb in itertools.combinations(range(1, n), size))
    a = np.zeros((len(iu), len(cuts)))
    for c, members in enumerate(cuts):
        inside = np.fromiter((i in members for i in range(n)), dtype=bool)
        a[:, c] = inside[iu] ^ inside[ju]
    npairs, ncuts = a.shape
    # vars: [gamma (ncuts), s+ (npairs), s- (npairs)], min sum(s+ + s-)
    eye = np.eye(npairs)
    a_eq = np.hstack([a, eye, -eye])
    cost = np.concatenate([np.zeros(ncuts), np.ones(2 * npairs)])
    for arr in (iu, ju, a_eq, cost):
        arr.flags.writeable = False
    return cuts, iu, ju, a_eq, cost


def cut_decomposition(dmat: np.ndarray) -> list[Cut]:
    """Write a (small) l1-embeddable metric as a weighted sum of cuts.

    The l1 build calls this for the clusters whose source metric is not a
    line, and for line clusters whose closed-form arc cuts
    (``circular_cuts``) fail their certificate; a line cluster otherwise
    never reaches it. Enumerates all 2^(n-1) - 1 nontrivial cuts and solves
    the LP
    minimizing total absolute slack; Infeasible if the best slack exceeds
    CUT_RTOL * max distance, ClusterTooLarge beyond MAX_CUT_POINTS points.
    Only the right-hand side (the pair distances) comes from ``dmat``: the
    cut list, the equality matrix and the cost are built once per size n
    and shared, read-only, by every later call of that size (about 11 MB
    of arrays for all sizes up to the cap). Returns only the cuts with
    positive weight.
    """
    from scipy.optimize import linprog     # on use: the import skips scipy

    dmat = np.asarray(dmat, dtype=np.float64)
    n = dmat.shape[0]
    if n > MAX_CUT_POINTS:
        raise ClusterTooLarge(
            f"cut decomposition enumerates all cuts; {n} points exceeds "
            f"the cap of {MAX_CUT_POINTS}")
    if n < 2:
        return []
    cuts, iu, ju, a_eq, cost = _cut_system(n)
    target = dmat[iu, ju]
    npairs, ncuts = len(target), len(cuts)
    res = linprog(cost, A_eq=a_eq, b_eq=target, bounds=(0, None),
                  method="highs")
    if not res.success:
        raise Infeasible(f"cut LP failed: {res.message}")
    slack = float(res.fun)
    scale = float(target.max()) if len(target) else 1.0
    if slack > CUT_RTOL * max(scale, 1.0) * npairs:
        raise Infeasible(
            f"metric is not l1-embeddable within tolerance: "
            f"residual slack {slack:.3g}")
    gamma = res.x[:ncuts]
    keep = gamma > CUT_RTOL * max(gamma.max(), 1.0)
    return [Cut(float(gamma[c]), cuts[c]) for c in np.flatnonzero(keep)]


def line_order(dmat: np.ndarray) -> np.ndarray | None:
    """The points of a line metric in line order, or None for any other.

    The point farthest from point 0 is an end of the line; the others
    sort by their distance from it. The metric is a line when every pair's
    distance is the gap of those sorted positions, within CUT_RTOL times
    the largest distance.
    """
    dmat = np.asarray(dmat, dtype=np.float64)
    n = dmat.shape[0]
    if n < 2:
        return np.arange(n)
    order = np.argsort(dmat[int(np.argmax(dmat[0]))], kind="stable")
    pos = dmat[order[0], order]
    gap = np.abs(dmat[np.ix_(order, order)] - np.abs(pos[:, None] - pos))
    if gap.max() > CUT_RTOL * pos[-1]:
        return None
    return order


def circular_cuts(dmat: np.ndarray, order: np.ndarray) -> list[Cut] | None:
    """Write a Kalmanson metric in circular ``order`` as a sum of arc cuts.

    Closed form (Chepoi–Fichet 1998): with the points rotated so that point
    0 comes first, the arc {i..j} of positions 1 <= i <= j < n gets weight
    (d(i-1, j) + d(i, j+1) - d(i, j) - d(i-1, j+1)) / 2, indices mod n.
    L_r of a line metric is Kalmanson in the line order, as is any concave
    transform of one. The weights are certified at the cut LP's relative
    tolerance, tol = CUT_RTOL times the largest distance: None when a
    weight lies below -tol, or when the returned cuts miss a pair by more
    than tol. Weights at most tol / (number of arcs) are dropped, so
    together they move no pair by more than tol. The n(n-1)/2 arc cuts of
    one order are linearly independent, so the weights rebuild any matrix
    up to rounding and only their signs tell a Kalmanson metric; the
    rebuild check guards the rounding and the dropped weights. Like
    cut_decomposition, point 0 lies outside every returned cut.
    """
    dmat = np.asarray(dmat, dtype=np.float64)
    n = len(order)
    if n < 2:
        return []
    order = np.roll(order, -int(np.flatnonzero(order == 0)[0]))
    d = dmat[np.ix_(order, order)]
    e = d - np.roll(d, -1, axis=1)          # e[a, b] = d(a, b) - d(a, b+1)
    rows, cols = np.triu_indices(n - 1)
    lo, hi = rows + 1, cols + 1             # the arc {lo..hi}
    w = 0.5 * (e[lo - 1, hi] - e[lo, hi])
    tol = CUT_RTOL * float(d.max())
    if w.min() < -tol:
        return None
    keep = np.flatnonzero(w > tol / len(w))
    at = np.arange(n)[:, None]
    inside = (lo[keep] <= at) & (at <= hi[keep])
    sums = inside @ w[keep]
    rebuilt = sums[:, None] + sums - 2.0 * (inside * w[keep]) @ inside.T
    if np.abs(rebuilt - d).max() > tol:
        return None
    return [Cut(float(w[c]), frozenset(order[lo[c]:hi[c] + 1].tolist()))
            for c in keep]
