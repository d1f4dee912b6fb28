"""Distance transforms, Euclidean realization, cut decomposition."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
import scipy.optimize
from scipy.spatial.distance import pdist, squareform

from snowdim import transforms
from snowdim.errors import (BadParams, ClusterTooLarge, Infeasible,
                            NotEuclidean)
from snowdim.points import PointSet, generate
from snowdim.single_scale import _embed_cluster_l1
from snowdim.transforms import (CUT_RTOL, circular_cuts, cut_decomposition,
                                euclidean_realization, gaussian_transform,
                                laplace_transform, line_order,
                                threshold_transform)


def cut_metric(cuts, n):
    """Pairwise distances of the weighted cut sum (brute force oracle)."""
    d = np.zeros((n, n))
    for cut in cuts:
        inside = np.zeros(n, dtype=bool)
        inside[[i for i in cut.members if i < n]] = True
        sep = inside[:, None] ^ inside[None, :]
        d += cut.weight * sep
    return d


def test_transform_values_frozen():
    # hand-derived: G(1) = sqrt(1 - 1/e), L(1) = 1 - 1/e
    assert np.isclose(gaussian_transform(1.0), 0.7950600976206501, rtol=1e-14)
    assert np.isclose(gaussian_transform(3.0, r=2.0), 1.8916667522987611,
                      rtol=1e-14)
    assert np.isclose(laplace_transform(1.0), 0.6321205588285577, rtol=1e-14)
    assert np.isclose(laplace_transform(3.0, r=2.0), 1.5537396797031404,
                      rtol=1e-14)
    assert threshold_transform(3.0, 2.0) == 2.0
    assert threshold_transform(1.5, 2.0) == 1.5
    assert gaussian_transform(0.0) == 0.0
    assert laplace_transform(0.0) == 0.0


def test_transform_shapes_and_limits():
    t = np.array([[0.0, 1.0], [10.0, 100.0]])
    g = gaussian_transform(t, r=3.0)
    assert g.shape == t.shape
    # saturation at r, monotone, 1-Lipschitz near zero
    assert g.max() <= 3.0 + 1e-12
    assert np.isclose(gaussian_transform(1e9, r=3.0), 3.0)
    assert np.isclose(laplace_transform(1e9, r=3.0), 3.0)
    fine = np.linspace(0, 10, 2001)
    for f in (gaussian_transform, laplace_transform):
        v = f(fine, r=2.0)
        assert (np.diff(v) >= -1e-15).all()
        assert (np.diff(v) <= np.diff(fine) + 1e-12).all()


def test_laplace_gaussian_identity():
    # L_r(t) = r * G(sqrt(t/r))^2 with the unit Gaussian transform
    t = np.linspace(0.0, 20.0, 57)
    r = 2.5
    lhs = laplace_transform(t, r)
    rhs = r * gaussian_transform(np.sqrt(t / r)) ** 2
    assert np.allclose(lhs, rhs, rtol=1e-13, atol=1e-15)


def test_transforms_preserve_triangle_inequality():
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(12, 4))
    d = PointSet(pts, 2.0).distance_matrix()
    for f in (lambda x: gaussian_transform(x, 1.7),
              lambda x: laplace_transform(x, 1.7),
              lambda x: threshold_transform(x, 1.7)):
        td = f(d)
        n = len(td)
        for i in range(n):
            for j in range(n):
                assert (td[i, j] <= td[i] + td[:, j] + 1e-12).all()


def test_bad_transform_scale():
    with pytest.raises(BadParams):
        gaussian_transform(1.0, r=0.0)
    with pytest.raises(BadParams):
        threshold_transform(1.0, r=-2.0)


def test_realization_two_points_exact():
    d = np.array([[0.0, 3.0], [3.0, 0.0]])
    x = euclidean_realization(d)
    assert x.shape == (2, 1)
    assert np.isclose(abs(x[0, 0] - x[1, 0]), 3.0, rtol=1e-12)


def test_realization_recovers_random_euclidean():
    rng = np.random.default_rng(2)
    for trial in range(4):
        pts = rng.normal(size=(15, 6))
        d = PointSet(pts, 2.0).distance_matrix()
        x = euclidean_realization(d)
        assert x.shape[1] <= 6
        d2 = PointSet(x, 2.0).distance_matrix()
        assert np.allclose(d2, d, atol=1e-8)


def test_gaussian_transformed_euclidean_is_euclidean():
    # sqrt(1 - exp(-d^2)) of a Euclidean metric stays Euclidean
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(20, 5)) * 0.8
    d = PointSet(pts, 2.0).distance_matrix()
    g = gaussian_transform(d, r=1.3)
    x = euclidean_realization(g)
    d2 = PointSet(x, 2.0).distance_matrix()
    assert np.allclose(d2, g, atol=1e-8)


def test_realization_drops_the_null_direction_noise():
    # at r = 1.1^-25 every grid distance saturates near r, the Gram matrix
    # is r^2/2 times the centering projector, and the all-ones null
    # direction's rounding noise used to pass the keep cutoff as a 64th
    # column
    s = generate("grid", side=8, dims=2)
    g = gaussian_transform(s.distance_matrix(), r=1.1 ** -25)
    x = euclidean_realization(g)
    assert x.shape == (64, 63)
    assert np.allclose(PointSet(x, 2.0).distance_matrix(), g, rtol=1e-12,
                       atol=0.0)


def test_realization_rejects_star_metric():
    # center at distance 1 from three leaves, leaves pairwise 2: needs
    # circumradius 2/sqrt(3) > 1, impossible in any Euclidean space
    d = np.ones((4, 4)) * 2.0
    np.fill_diagonal(d, 0.0)
    d[0, 1:] = d[1:, 0] = 1.0
    with pytest.raises(NotEuclidean):
        euclidean_realization(d)


def test_realization_single_point():
    assert euclidean_realization(np.zeros((1, 1))).shape == (1, 0)


def test_realization_is_the_classical_mds_of_the_squares():
    # one classical MDS in the library: the realization's bytes are those
    # of centering the squared distances in one expression and factoring
    d = squareform(pdist(np.random.default_rng(9).standard_normal((12, 4))))
    d2 = np.square(d)
    b = d2 - d2.mean(axis=0) - d2.mean(axis=1)[:, None] + d2.mean()
    b *= -0.5
    want = transforms.factor_gram(b)[:, :11]
    assert want.shape == (12, 4)
    assert np.array_equal(euclidean_realization(d), want)
    assert np.array_equal(transforms.classical_mds(d2), want)


def test_cut_decomposition_line_frozen():
    # points 0, 1, 3 on the line; unique cut weights:
    #   {1,2}|{0} -> 1 (the 0-1 gap), {2}|{0,1} -> 2 (the 1-3 gap)
    d = np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 2.0], [3.0, 2.0, 0.0]])
    cuts = cut_decomposition(d)
    got = {cut.members: cut.weight for cut in cuts}
    assert set(got) == {frozenset({1, 2}), frozenset({2})}
    assert np.isclose(got[frozenset({1, 2})], 1.0, atol=1e-9)
    assert np.isclose(got[frozenset({2})], 2.0, atol=1e-9)
    assert np.allclose(cut_metric(cuts, 3), d, atol=1e-9)


def test_cut_decomposition_random_l1():
    rng = np.random.default_rng(5)
    for trial in range(3):
        pts = rng.uniform(size=(7, 3)) * 4
        d = PointSet(pts, 1.0).distance_matrix()
        cuts = cut_decomposition(d)
        assert np.allclose(cut_metric(cuts, 7), d, atol=1e-7)
        # one coordinate per cut, weight on its members, reproduces the
        # metric in l1
        x = np.array([[c.weight * (i in c.members) for c in cuts]
                      for i in range(7)])
        d2 = PointSet(x, 1.0).distance_matrix()
        assert np.allclose(d2, d, atol=1e-7)


def test_laplace_line_metric_is_l1():
    # concave transform of a line metric stays l1-embeddable
    pts = np.array([[0.0], [1.0], [2.0], [4.0], [7.0]])
    d = laplace_transform(PointSet(pts, 1.0).distance_matrix(), r=2.0)
    np.fill_diagonal(d, 0.0)
    cuts = cut_decomposition(d)
    assert np.allclose(cut_metric(cuts, 5), d, atol=1e-7)


def test_cut_system_is_built_once_per_size_and_read_only():
    first = transforms._cut_system(6)
    assert transforms._cut_system(6) is first
    cuts, iu, ju, a_eq, cost = first
    assert len(cuts) == 2 ** 5 - 1 and a_eq.shape == (15, 31 + 2 * 15)
    for arr in (iu, ju, a_eq, cost):
        assert not arr.flags.writeable
    with pytest.raises(ValueError):
        a_eq[0, 0] = 1.0
    # a call after the system exists returns what a fresh system gives
    d = laplace_transform(PointSet(np.arange(6.0)[:, None], 1.0)
                          .distance_matrix(), r=2.0)
    np.fill_diagonal(d, 0.0)
    again = cut_decomposition(d)
    transforms._cut_system.cache_clear()
    fresh = cut_decomposition(d)
    assert [(c.weight, c.members) for c in again] == \
        [(c.weight, c.members) for c in fresh]
    assert np.allclose(cut_metric(again, 6), d, atol=1e-7)


def test_cut_decomposition_too_large():
    d = PointSet(np.arange(15.0)[:, None], 1.0).distance_matrix()
    with pytest.raises(ClusterTooLarge):
        cut_decomposition(d)


def k23_path_metric():
    # K_{2,3}: distance 1 across the two sides, 2 within a side
    side = np.array([0, 0, 1, 1, 1])
    d = np.where(side[:, None] == side, 2.0, 1.0)
    np.fill_diagonal(d, 0.0)
    return d


@pytest.mark.parametrize("dmat, slack", [
    (k23_path_metric(), "2"),       # a metric, but not l1-embeddable
    (np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]]), "1"),
], ids=["k23", "no-triangle"])
def test_cut_decomposition_off_l1_is_infeasible(dmat, slack):
    with pytest.raises(Infeasible, match=f"residual slack {slack}$"):
        cut_decomposition(dmat)


def test_circular_cuts_frozen():
    # points at 0, 1, 3: line_order starts at the far end 3, and the
    # rotation puts point 0 first, so the circular order is 0, 3, 1
    d = PointSet(np.array([[0.0], [1.0], [3.0]]), 1.0).distance_matrix()
    order = line_order(d)
    assert order.tolist() == [2, 1, 0]
    cuts = circular_cuts(d, order)
    # the zero-weight arc {1} is dropped
    assert [(c.weight, c.members) for c in cuts] == \
        [(2.0, frozenset({2})), (1.0, frozenset({1, 2}))]
    # out of line order the arcs of a line metric carry a negative weight
    d4 = PointSet(np.arange(4.0)[:, None], 1.0).distance_matrix()
    assert circular_cuts(d4, np.array([0, 2, 1, 3])) is None
    # the corners of a square are no line
    square = PointSet(np.array([[0.0, 0.0], [1, 0], [1, 1], [0, 1]]), 1.0)
    assert line_order(square.distance_matrix()) is None


@st.composite
def l1_lines(draw):
    """A monotone staircase of 2 to 40 points in 1 to 3 dimensions, which
    l1 measures as a line, in shuffled order, rescaled by up to 2^+-12 and
    translated by up to 1e8 per coordinate; and r from 2^-8 of the
    smallest step (every pair saturated) to 2^12 of it (nearly linear)."""
    n = draw(st.integers(2, 40))
    dim = draw(st.integers(1, 3))
    steps = draw(arrays(np.float64, (n - 1, dim),
                        elements=st.integers(0, 4).map(float)))
    steps[steps.sum(axis=1) == 0, 0] = 1.0
    pts = np.vstack([np.zeros(dim), np.cumsum(steps, axis=0)])
    pts = pts[draw(st.permutations(range(n)))]
    scale = draw(st.floats(2.0 ** -12, 2.0 ** 12))
    shift = draw(arrays(np.float64, dim, elements=st.floats(-1e8, 1e8)))
    pts = pts * scale + shift
    # rounding to the translated grid must keep the points apart
    assume(pdist(pts, "cityblock").min() > 0)
    return pts, scale * 2.0 ** draw(st.floats(-8, 12))


def no_lp(*args, **kwargs):
    raise AssertionError("the cut LP ran")


@settings(max_examples=60)
@given(case=l1_lines())
def test_line_cuts_rebuild_a_pdist_oracle_without_an_lp(case):
    # scipy's distances and L_r written out, so the oracle does not rest
    # on the kernels the cuts are built from
    pts, r = case
    n = len(pts)
    want = r * (1.0 - np.exp(-squareform(pdist(pts, "cityblock")) / r))
    tol = CUT_RTOL * want.max()
    dmat = PointSet(pts, 1.0).distance_matrix()
    lr = laplace_transform(dmat, r)
    np.fill_diagonal(lr, 0.0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scipy.optimize, "linprog", no_lp)
        order = line_order(dmat)
        assert order is not None
        cuts = circular_cuts(lr, order)
        # the build's route, with every point a net point: an exact map
        coords = _embed_cluster_l1(dmat, np.arange(n), r, {})
    assert cuts and min(c.weight for c in cuts) > 0
    assert not any(0 in c.members for c in cuts)
    assert np.abs(cut_metric(cuts, n) - want).max() <= tol
    assert np.abs(pdist(coords, "cityblock")
                  - squareform(want, checks=False)).max() <= tol


def test_a_cluster_off_a_line_reaches_the_lp(monkeypatch):
    pts = np.random.default_rng(11).uniform(0, 10, (7, 3))
    dmat = PointSet(pts, 1.0).distance_matrix()
    assert line_order(dmat) is None
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return linprog(*args, **kwargs)

    linprog = scipy.optimize.linprog
    monkeypatch.setattr(scipy.optimize, "linprog", counting)
    coords = _embed_cluster_l1(dmat, np.arange(7), 2.0, {})
    assert len(calls) == 1
    want = 2.0 * (1.0 - np.exp(-pdist(pts, "cityblock") / 2.0))
    assert np.allclose(pdist(coords, "cityblock"), want, atol=1e-7)


def test_frechet_coordinates_clip_and_lipschitz():
    rng = np.random.default_rng(6)
    pts = rng.uniform(size=(25, 4)) * 6
    s = PointSet(pts, np.inf)
    d = s.distance_matrix()
    landmarks = [0, 5, 9, 17]
    r = 2.0
    # the l-infinity path's per-landmark columns T_r(d(x, landmark))
    coords = threshold_transform(d[:, landmarks], r)
    assert coords.max() <= r
    assert np.array_equal(coords, np.minimum(d[:, landmarks], r))
    # every coordinate is 1-Lipschitz wrt the host metric
    for i in range(25):
        for j in range(25):
            assert (np.abs(coords[i] - coords[j]) <= d[i, j] + 1e-12).all()
