"""Lipschitz extension: constants, feasibility, whole-map bound."""

import numpy as np
import pytest
import scipy.optimize
from scipy.optimize import minimize

from snowdim import extension
from snowdim.errors import (BadParams, DuplicateSources,
                            ExtensionDidNotConverge)
from snowdim.extension import (ExtensionInfo, kirszbraun_extend,
                               lipschitz_constant)
from snowdim.points import PointSet


def test_lipschitz_constant_frozen():
    # sources 0, 1, 3 with images 0, 2, 4: ratios 2, 1, 4/3
    d = PointSet(np.array([[0.0], [1.0], [3.0]]), 2.0).distance_matrix()
    images = np.array([[0.0], [2.0], [4.0]])
    assert np.isclose(lipschitz_constant(d, images), 2.0, rtol=1e-12)
    assert lipschitz_constant(np.zeros((1, 1)), np.zeros((1, 3))) == 0.0


def test_duplicate_sources_raise():
    d = np.zeros((2, 2))
    images = np.array([[0.0], [1.0]])
    with pytest.raises(DuplicateSources):
        lipschitz_constant(d, images)


def test_midpoint_interpolation_exact():
    # line 0, 0.5, 1 with images fixed at the ends, L = 1: the midpoint
    # must land at 0.5 (unique intersection of the two balls)
    pts = np.array([[0.0], [0.5], [1.0]])
    d = PointSet(pts, 2.0).distance_matrix()
    out, info = kirszbraun_extend(d, np.array([0, 2]),
                                  np.array([[0.0], [1.0]]), lip=1.0,
                                  tol=1e-6)
    assert abs(out[1, 0] - 0.5) <= 1e-4
    assert out[0, 0] == 0.0 and out[2, 0] == 1.0
    assert info.max_violation <= 1e-6


def test_extension_whole_map_lipschitz():
    # f = coordinate projection (1-Lipschitz); extension must stay close
    # to 1-Lipschitz across every pair including target-target
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(40, 5))
    s = PointSet(pts, 2.0)
    d = s.distance_matrix()
    src = np.arange(0, 40, 3)
    images = pts[src][:, :2]
    lip = lipschitz_constant(d[np.ix_(src, src)], images)
    assert lip <= 1.0 + 1e-12
    tol = 1e-5
    out, info = kirszbraun_extend(d, src, images, lip=1.0, tol=tol)
    assert np.array_equal(out[src], images)
    iu, ju = np.triu_indices(40, k=1)
    img_d = np.linalg.norm(out[iu] - out[ju], axis=1)
    assert (img_d <= d[iu, ju] * 1.0 + 2 * tol).all()


def test_infeasible_lip_raises():
    # forcing L = 0.2 on data whose true constant is 1 cannot converge
    pts = np.array([[0.0], [1.0], [0.5]])
    d = PointSet(pts, 2.0).distance_matrix()
    with pytest.raises(ExtensionDidNotConverge):
        kirszbraun_extend(d, np.array([0, 1]), np.array([[0.0], [1.0]]),
                          lip=0.2, tol=1e-9, max_iters=500)


def test_extension_bad_params():
    d = np.zeros((3, 3))
    with pytest.raises(BadParams):
        kirszbraun_extend(d, np.array([0]), np.zeros((2, 1)), 1.0, 1e-6)
    with pytest.raises(BadParams):
        kirszbraun_extend(d, np.array([0]), np.zeros((1, 1)), 1.0, -1.0)
    with pytest.raises(BadParams):
        kirszbraun_extend(d, np.array([], dtype=int), np.zeros((0, 1)),
                          1.0, 1e-6)


def test_no_targets_passthrough():
    pts = np.array([[0.0], [2.0]])
    d = PointSet(pts, 2.0).distance_matrix()
    images = np.array([[1.0], [3.0]])
    out, info = kirszbraun_extend(d, np.array([0, 1]), images, 1.0, 1e-6)
    assert np.array_equal(out, images)
    assert info.iters == 0


def lbfgs_route(d, src, images, lip, tol):
    """The extension with an L-BFGS-B solve for every target, feasible
    start or not: same order, start, penalty and running constant."""
    out = np.zeros((len(d), images.shape[1]))
    placed = np.zeros(len(d), dtype=bool)
    out[src], placed[src] = images, True
    targets = np.flatnonzero(~placed)
    order = targets[np.argsort(d[np.ix_(targets, src)].min(axis=1))]
    lip_cur, iters, worst = float(lip), 0, 0.0
    for t in order:
        centers = out[np.flatnonzero(placed)]
        dists = d[placed, t]
        radii = lip_cur * dists

        def penalty(y):
            diff = y[None, :] - centers
            dist = np.linalg.norm(diff, axis=1)
            excess = np.maximum(dist - radii, 0.0)
            with np.errstate(invalid="ignore", divide="ignore"):
                coef = np.where(dist > 0, excess / dist, 0.0)
            return 0.5 * float(excess @ excess), coef @ diff

        res = minimize(penalty, centers[int(np.argmin(dists))], jac=True,
                       method="L-BFGS-B", options={
                           "maxiter": extension.MAX_ITERS, "ftol": 0.0,
                           "gtol": 0.0})
        dist = np.linalg.norm(res.x[None, :] - centers, axis=1)
        residual = float((dist - radii).max())
        assert residual <= tol
        iters += int(res.nit)
        worst = max(worst, residual)
        pos = dists > 0
        lip_cur = max(lip_cur, float((dist[pos] / dists[pos]).max()))
        out[t], placed[t] = res.x, True
    return out, ExtensionInfo(lip_cur, iters, worst)


@pytest.mark.parametrize("lip, solves", [(3.0, 0), (2.0, 1)])
def test_feasible_starts_skip_the_solver(monkeypatch, lip, solves):
    # 30 Gaussian points, every third a source with a 1-Lipschitz image:
    # at lip = 3 every nearest-placed start already lies in all its balls
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(30, 3))
    d = PointSet(pts, 2.0).distance_matrix()
    src = np.arange(0, 30, 3)
    images = pts[src][:, :2]
    want, want_info = lbfgs_route(d, src, images, lip, 1e-6)
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return minimize(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "minimize", counting)
    out, info = kirszbraun_extend(d, src, images, lip=lip, tol=1e-6)
    assert len(calls) == solves
    assert np.array_equal(out, want)
    assert info == want_info
