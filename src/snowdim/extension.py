"""Lipschitz extension of a Euclidean-valued map.

A map with Lipschitz constant L on some subset of a metric space always
extends to further points with the same constant when its values live in
Euclidean space: for one new point x the balls B(f(s), L * d(x, s))
intersect, and a point of the intersection is a valid value f(x). Here
each target is extended in turn and then joins the constraint set, so the
finished map honors L on every pair, target-target pairs included.
The intersection point is found by minimizing the squared hinge penalty
sum_j max(0, |y - c_j| - R_j)^2 with L-BFGS; at a feasible point the
penalty is zero. Each target starts at the image of its nearest placed
point; when that start is already feasible (penalty exactly 0, so the
gradient is 0 too and L-BFGS would stop at iteration 0 with the start
unchanged) it is taken as is, with no solver call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadParams, DuplicateSources, ExtensionDidNotConverge
from .points import _pairwise

MAX_ITERS = 20000


def lipschitz_constant(src_dists: np.ndarray, images: np.ndarray) -> float:
    """max over pairs of |f(s_i) - f(s_j)| / d(s_i, s_j); 0 for < 2 points.

    Duplicate sources (zero distance) with distinct images make the
    constant infinite and raise DuplicateSources.
    """
    src_dists = np.asarray(src_dists, dtype=np.float64)
    images = np.ascontiguousarray(images, dtype=np.float64)
    n = images.shape[0]
    if src_dists.shape != (n, n):
        raise BadParams("source distance matrix shape mismatch")
    if n < 2:
        return 0.0
    iu, ju = np.triu_indices(n, k=1)
    num = _pairwise(images, 2.0)[iu, ju]
    den = src_dists[iu, ju]
    zero = den == 0
    if zero.any():
        if (num[zero] > 1e-12 * max(num.max(), 1.0)).any():
            raise DuplicateSources(
                "two sources at distance 0 have different images")
        num, den = num[~zero], den[~zero]
    return float((num / den).max()) if len(den) else 0.0


@dataclass
class ExtensionInfo:
    lip: float               # Lipschitz constant enforced
    iters: int               # projection sweeps summed over all targets
    max_violation: float     # worst residual |y - f(s)| - lip * d, <= tol


def kirszbraun_extend(dmat: np.ndarray, src_idx: np.ndarray,
                      images: np.ndarray, lip: float, tol: float,
                      max_iters: int = MAX_ITERS) -> tuple[np.ndarray, ExtensionInfo]:
    """Extend ``images`` on ``src_idx`` to all points of a metric.

    ``dmat`` is the full pairwise metric over n points; rows ``src_idx``
    carry prescribed images. Returns an (n, k) array agreeing with
    ``images`` on the sources, where every other point receives a value
    within lip * d + tol of every previously placed value. Targets are
    processed nearest-to-the-sources first and placed points become
    constraints for later ones, so the finished map is (lip + O(tol))
    Lipschitz on all pairs. Raises ExtensionDidNotConverge if a target
    cannot be driven inside its balls (e.g. ``lip`` below the true
    constant of the source data). Needs scipy, which the ``extension``
    extra installs.
    """
    from scipy.optimize import minimize    # on use: the import skips scipy

    dmat = np.asarray(dmat, dtype=np.float64)
    n = dmat.shape[0]
    images = np.ascontiguousarray(images, dtype=np.float64)
    src_idx = np.asarray(src_idx, dtype=np.intp)
    k = images.shape[1]
    if dmat.shape != (n, n):
        raise BadParams("dmat must be square")
    if images.shape[0] != len(src_idx):
        raise BadParams("one image row per source index")
    if lip < 0 or tol <= 0:
        raise BadParams("need lip >= 0 and tol > 0")
    out = np.zeros((n, k))
    placed = np.zeros(n, dtype=bool)
    out[src_idx] = images
    placed[src_idx] = True
    targets = np.flatnonzero(~placed)
    if len(targets) == 0:
        return out, ExtensionInfo(float(lip), 0, 0.0)
    if len(src_idx) == 0:
        raise BadParams("need at least one source")
    if k == 0:
        return out, ExtensionInfo(float(lip), 0, 0.0)
    # nearest-source-first order keeps early constraint sets tight
    order = targets[np.argsort(dmat[np.ix_(targets, src_idx)].min(axis=1))]
    total_iters, worst = 0, 0.0
    # radii are issued from the running constant of everything placed so
    # far (accepted residuals included), keeping each ball system exactly
    # feasible instead of letting tiny violations compound down the chain
    lip_cur = float(lip)
    for t in order:
        active = np.flatnonzero(placed)
        centers = out[active]
        dists = dmat[active, t]
        radii = lip_cur * dists
        y0 = centers[int(np.argmin(dists))]

        def penalty(y):
            diff = y[None, :] - centers
            dist = np.linalg.norm(diff, axis=1)
            excess = np.maximum(dist - radii, 0.0)
            with np.errstate(invalid="ignore", divide="ignore"):
                coef = np.where(dist > 0, excess / dist, 0.0)
            return 0.5 * float(excess @ excess), coef @ diff

        # gtol=0: opposing active balls cancel the gradient long before
        # feasibility, so only line-search exhaustion may stop the solve
        opts = {"maxiter": max_iters, "ftol": 0.0, "gtol": 0.0}
        if penalty(y0)[0] == 0.0:
            # a feasible start has gradient exactly 0, where L-BFGS-B stops
            # at iteration 0 and returns the start unchanged
            y, nit = y0, 0
        else:
            res = minimize(penalty, y0, jac=True, method="L-BFGS-B",
                           options=opts)
            nit = int(res.nit)
            y = res.x
        dist = np.linalg.norm(y[None, :] - centers, axis=1)
        residual = float((dist - radii).max())
        if residual > tol:                 # fresh memory, one retry
            res = minimize(penalty, y, jac=True, method="L-BFGS-B",
                           options=opts)
            nit += int(res.nit)
            y = res.x
            dist = np.linalg.norm(y[None, :] - centers, axis=1)
            residual = float((dist - radii).max())
        if residual > tol:
            raise ExtensionDidNotConverge(
                f"point {t}: residual {residual:.3g} > tol {tol:.3g} "
                f"after {nit} L-BFGS iterations")
        total_iters += nit
        worst = max(worst, residual)
        pos = dists > 0
        if pos.any():
            lip_cur = max(lip_cur, float((dist[pos] / dists[pos]).max()))
        out[t] = y
        placed[t] = True
    return out, ExtensionInfo(lip_cur, total_iters, worst)
