"""Distance transforms, Euclidean realization, cut decomposition."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.distance import pdist, squareform

from snowdim import transforms
from snowdim.errors import BadParams, ClusterTooLarge, NotEuclidean
from snowdim.points import PointSet, generate
from snowdim.single_scale import _embed_cluster_l1
from snowdim.transforms import (CUT_RTOL, cut_decomposition,
                                euclidean_realization, gaussian_transform,
                                laplace_transform, threshold_transform)


def cut_metric(weights, sides):
    """Pairwise distances of the weighted cut sum (brute force oracle)."""
    d = np.zeros((sides.shape[1],) * 2)
    for weight, inside in zip(weights, sides):
        d += weight * (inside[:, None] ^ inside[None, :])
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


def test_transforms_saturate_at_a_tiny_r():
    # t/r overflows to inf, and each transform saturates at exactly r with
    # no overflow warning (tier-1 turns RuntimeWarning into an error)
    assert gaussian_transform(1.0, 1e-300) == 1e-300
    assert laplace_transform(1e10, 1e-300) == 1e-300


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
    for f in (gaussian_transform, laplace_transform, threshold_transform):
        for r in (np.inf, np.nan):
            with pytest.raises(BadParams):
                f(1.0, r=r)


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
    # points 0, 1, 3 on the line at r = 2: the arcs {2} and {1, 2} carry
    # the two gaps' Poisson weights, and {1} the chance that one cut
    # falls on each side of it
    pts = np.array([[0.0], [1.0], [3.0]])
    w, sides = cut_decomposition(pts, 2.0)
    e1, e2 = -np.expm1(-0.5), -np.expm1(-1.0)
    assert sides.tolist() == [[False, False, True], [False, True, True],
                              [False, True, False]]
    assert np.allclose(w, [e2 * (1.0 + np.exp(-0.5)), e1 * (1.0 + np.exp(-1.0)),
                           e1 * e2], rtol=1e-15)
    want = laplace_transform(squareform(pdist(pts, "cityblock")), 2.0)
    assert np.allclose(cut_metric(w, sides), want, rtol=1e-15, atol=0.0)


def test_cut_decomposition_random_l1():
    rng = np.random.default_rng(5)
    for trial in range(3):
        pts = rng.uniform(size=(7, 3)) * 4
        d = squareform(pdist(pts, "cityblock"))
        w, sides = cut_decomposition(pts, 1.5)
        assert not sides[:, 0].any() and (w > 0).all()
        assert np.allclose(cut_metric(w, sides), laplace_transform(d, 1.5),
                           rtol=1e-12, atol=0.0)
        # one coordinate per cut, weight on its members, reproduces L_r in
        # l1
        x = sides.T * w
        assert np.allclose(pdist(x, "cityblock"),
                           squareform(laplace_transform(d, 1.5), checks=False),
                           rtol=1e-12)


def test_laplace_line_metric_is_l1():
    # L_r of a line metric is a sum of arc cuts in the line order: each
    # cut is a run of the line, or the complement of one
    pts = np.array([[0.0], [1.0], [2.0], [4.0], [7.0]])
    d = laplace_transform(squareform(pdist(pts, "cityblock")), r=2.0)
    w, sides = cut_decomposition(pts, 2.0)
    assert len(w) == 5 * 4 // 2
    for row in sides:
        runs = np.flatnonzero(np.diff(row.astype(int)))
        assert len(runs) <= 2
    assert np.allclose(cut_metric(w, sides), d, rtol=1e-14, atol=0.0)


def test_cut_decomposition_too_large():
    # 60 points in 2-d cross the 1830 intervals of one axis with the 1830
    # of the other; an l1 line of 60 points has 1830 on one axis, whatever
    # its number of coordinates and whichever way each of them runs
    pts = np.random.default_rng(3).uniform(0, 10, (60, 2))
    with pytest.raises(ClusterTooLarge,
                       match="crosses 3348900 candidate cuts on one axis"):
        cut_decomposition(pts, 1.0)
    i = np.arange(60.0)
    for line in (np.c_[i, 2 * i], np.c_[i, 59 - i], np.c_[i, -i, i]):
        assert transforms.cut_axes(line[::-1]).shape == (60, 1)
        assert len(cut_decomposition(line, 1e3)[0]) == 60 * 59 // 2
    # a bend is no line, and stays on its two axes
    assert transforms.cut_axes(np.c_[i, abs(i - 30)][::6]).shape == (10, 2)


def test_a_gap_below_the_rounding_of_t_keeps_the_axes(monkeypatch):
    # the set is monotone in the order of t, the l1 distance from (0, 1),
    # but t rounds the first and last points to the same value: cut along
    # t, their L_r of 2.64e-59 read 0. Along the axes every pair keeps its
    # L_r of scipy's distances to rounding (with no weight dropped, since
    # this one is far below CUT_RTOL of the largest)
    pts = np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 0.5], [2.64e-59, 0.0]])
    assert transforms.cut_axes(pts).shape == (4, 2)
    monkeypatch.setattr(transforms, "CUT_RTOL", 0.0)
    w, sides = cut_decomposition(pts, 1.5)
    want = squareform(1.5 * -np.expm1(-pdist(pts, "cityblock") / 1.5))
    assert want[0, 3] > 0.0
    assert np.allclose(cut_metric(w, sides), want, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("n, dim", [(3, 10), (14, 5)])
def test_small_sets_in_many_dimensions_decompose(n, dim):
    # each pass merges its candidates into at most 2^n - 1 member sets, so
    # a few points stay under the cap in any number of dimensions
    pts = np.random.default_rng(n).uniform(0, 10, (n, dim))
    d = pdist(pts, "cityblock")
    w, sides = cut_decomposition(pts, 5.0)
    assert (np.abs(cut_metric(w, sides) - squareform(5.0 * -np.expm1(-d / 5.0)))
            .max() <= CUT_RTOL * 5.0 + 1e-12 * d.max())


def test_circular_cuts_frozen():
    # points at 0, 1, 3, listed as 1, 3, 0: the first point lies outside
    # every cut, and the cuts come in the circular order that lists it
    # first and the others by falling distance from it (3, then 0), by
    # first and then last position (Chepoi-Fichet's arcs)
    pts = np.array([[1.0], [3.0], [0.0]])
    w, sides = cut_decomposition(pts, 2.0)
    assert [np.flatnonzero(row).tolist() for row in sides] == \
        [[1], [1, 2], [2]]
    # an end point's arc is the interval of its own value or the
    # complement of the others'; {3, 0} straddles the first point and is
    # the complement of its interval alone
    e1, e2 = -np.expm1(-0.5), -np.expm1(-1.0)
    assert np.allclose(w, [e2 * (1.0 + np.exp(-0.5)), e1 * e2,
                           e1 * (1.0 + np.exp(-1.0))], rtol=1e-15)
    want = laplace_transform(squareform(pdist(pts, "cityblock")), 2.0)
    assert np.allclose(cut_metric(w, sides), want, rtol=1e-14, atol=0.0)


@st.composite
def l1_lines(draw):
    """A staircase of 2 to 40 points in 1 to 3 dimensions, each coordinate
    rising or falling, which l1 measures as a line, in shuffled order, rescaled by up to 2^+-12 and
    translated by up to 1e8 per coordinate; and r from 2^-8 of the
    smallest step (every pair saturated) to 2^12 of it (nearly linear)."""
    n = draw(st.integers(2, 40))
    dim = draw(st.integers(1, 3))
    steps = draw(arrays(np.float64, (n - 1, dim),
                        elements=st.integers(0, 4).map(float)))
    steps[steps.sum(axis=1) == 0, 0] = 1.0
    pts = np.vstack([np.zeros(dim), np.cumsum(steps, axis=0)])
    pts *= draw(arrays(np.float64, dim, elements=st.sampled_from([-1.0, 1.0])))
    pts = pts[draw(st.permutations(range(n)))]
    scale = draw(st.floats(2.0 ** -12, 2.0 ** 12))
    shift = draw(arrays(np.float64, dim, elements=st.floats(-1e8, 1e8)))
    pts = pts * scale + shift
    # rounding to the translated grid must keep the points apart
    assume(pdist(pts, "cityblock").min() > 0)
    return pts, scale * 2.0 ** draw(st.floats(-8, 12))


@settings(max_examples=60)
@given(case=l1_lines())
def test_line_cuts_rebuild_a_pdist_oracle_without_an_lp(case):
    # a staircase is cut along one axis, the distance from an end: its
    # cuts are the n(n-1)/2 arcs at most, and the cluster map built from
    # them rebuilds scipy's distances through L_r, written out so that the
    # oracle does not rest on the kernels the cuts are built from
    pts, r = case
    n = len(pts)
    want = r * (1.0 - np.exp(-squareform(pdist(pts, "cityblock")) / r))
    tol = CUT_RTOL * want.max()
    assert transforms.cut_axes(pts).shape == (n, 1)
    w, sides = cut_decomposition(pts, r)
    # the build's route, with every point a net point: an exact map
    coords = _embed_cluster_l1((w, sides), np.arange(n), np.arange(n))
    assert 0 < len(w) <= n * (n - 1) // 2 and w.min() > 0
    assert not sides[:, 0].any()
    assert np.abs(cut_metric(w, sides) - want).max() <= tol
    assert np.abs(pdist(coords, "cityblock")
                  - squareform(want, checks=False)).max() <= tol


@st.composite
def l1_sets(draw):
    """2 to 30 points in 1 or 2 dimensions, or 2 to 10 in 3, whose
    coordinates come from up to 8 values per axis (so that points share
    values, with uneven gaps), rescaled by up to 2^+-12 and translated by
    up to 1e6 per coordinate; and r from 2^-8 to 2^8 of the diameter."""
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(2, 30 if dim < 3 else 10))
    values = [draw(st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8,
                            unique=True)) for _ in range(dim)]
    cells = draw(st.lists(st.tuples(*[st.integers(0, 7)] * dim),
                          min_size=n, max_size=n, unique=True))
    scale = draw(st.floats(2.0 ** -12, 2.0 ** 12))
    shift = draw(arrays(np.float64, dim, elements=st.floats(-1e6, 1e6)))
    pts = np.array([[values[c][i] for c, i in enumerate(cell)]
                    for cell in cells]) * scale + shift
    assume(pdist(pts, "cityblock").min() > 0)
    return pts, pdist(pts, "cityblock").max() * 2.0 ** draw(st.floats(-8, 8))


@settings(max_examples=80, deadline=None)
@given(case=l1_sets())
def test_box_cuts_rebuild_a_pdist_oracle(case):
    # with no weight dropped, the box cuts rebuild L_r of scipy's l1
    # distances to rounding; the drop rule then moves no pair by more
    # than CUT_RTOL of the largest L_r
    pts, r = case
    d = pdist(pts, "cityblock")
    want = squareform(r * -np.expm1(-d / r))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transforms, "CUT_RTOL", 0.0)
        w, sides = cut_decomposition(pts, r)
    assert np.abs(cut_metric(w, sides) - want).max() <= 1e-12 * d.max()
    w, sides = cut_decomposition(pts, r)
    assert not sides[:, 0].any() and w.min() > 0
    assert (np.abs(cut_metric(w, sides) - want).max()
            <= CUT_RTOL * want.max() + 1e-12 * d.max())


@st.composite
def traced_clusters(draw):
    """An ``l1_sets`` case with a cluster C of 2 or more of its points, in
    any order, and a nonempty net inside C, as positions in C."""
    pts, r = draw(l1_sets())
    c = np.array(draw(st.lists(st.integers(0, len(pts) - 1), min_size=2,
                               max_size=len(pts), unique=True)))
    net = np.array(sorted(draw(st.lists(st.integers(0, len(c) - 1),
                                        min_size=1, max_size=len(c),
                                        unique=True))))
    return pts, r, c, net


@settings(max_examples=80, deadline=None)
@given(case=traced_clusters())
def test_traced_cluster_maps_match_a_pdist_oracle(case):
    # f_C from the whole set's cuts traced on C puts C's first member at
    # the origin, keeps every image within r and is 1-Lipschitz against
    # L_r of scipy's distances, written out, and isometric to it on the
    # net up to the drop rule. With no weight dropped it is the map of C's
    # own decomposition to rounding, column by column: a whole-set box
    # meets C in one of C's boxes, and the chances of those that meet it
    # in the same one sum to that box's chance
    pts, r, c, net = case
    whole = r * (1.0 - np.exp(-squareform(pdist(pts, "cityblock")) / r))
    top = whole.max()
    want = whole[np.ix_(c, c)]
    f = _embed_cluster_l1(cut_decomposition(pts, r), c, net)
    assert not f[0].any() and f.any(axis=0).all()
    assert np.abs(f).sum(axis=1).max() <= r * (1.0 + 1e-12)
    got = squareform(pdist(f, "cityblock"))
    assert (got - want).max() <= 1e-12 * top
    assert np.abs(got - want)[np.ix_(net, net)].max() <= CUT_RTOL * top
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transforms, "CUT_RTOL", 0.0)
        f = _embed_cluster_l1(cut_decomposition(pts, r), c, net)
        own = _embed_cluster_l1(cut_decomposition(pts[c], r),
                                np.arange(len(c)), net)
    # the columns are the net traces, each map in its own order. C's own
    # decomposition cuts C along the distance from an end where C is an
    # l1 line, and a gap below that distance's rounding is lost there, so
    # a trace one map lacks is a zero column of it
    traced, alone = ({(m[net, j] > 0).tobytes(): m[:, j]
                      for j in range(m.shape[1])} for m in (f, own))
    zero = np.zeros(len(c))
    assert max(np.abs(traced.get(key, zero) - alone.get(key, zero)).max()
               for key in traced.keys() | alone.keys()) <= 1e-12 * top


def one_pass_cuts(points, r):
    """The box cuts summed as their sets are made, pass by pass, with
    the drop and the arc order applied to the result: the reference a
    replayed cut structure matches bit for bit."""
    x = transforms.cut_axes(points)
    n = len(x)
    words = -(-n // 64)
    full = transforms._pack(np.ones((1, n), dtype=bool))

    def merge(keys, mass):
        first, group = transforms._groups(keys)
        return keys[first], np.bincount(group, weights=mass,
                                        minlength=len(first))

    keys, mass = full, np.ones(1)
    for col in x.T:
        v, at = np.unique(col, return_inverse=True)
        lo, hi = np.triu_indices(len(v))
        gap = np.concatenate([[np.inf], np.diff(v), [np.inf]])
        prob = (np.expm1(-gap[lo] / r) * np.expm1(-gap[hi + 1] / r)
                * np.exp(-(v[hi] - v[lo]) / r))
        boxes = transforms._pack((lo[:, None] <= at) & (at <= hi[:, None]))
        step = max(1, transforms.PAIRWISE_BYTES
                   // (8 * (words + 1) * len(lo)))
        parts = []
        for s in range(0, len(keys), step):
            cand = (keys[s:s + step, None] & boxes).reshape(-1, words)
            live = cand.any(axis=1)
            parts.append(merge(cand[live], np.outer(mass[s:s + step],
                                                    prob).ravel()[live]))
        keys, mass = merge(*map(np.concatenate, zip(*parts)))
    keys = np.where(keys[:, :1] & np.uint64(1), keys ^ full, keys)
    live = keys.any(axis=1)
    keys, mass = merge(keys[live], mass[live])
    w = 0.5 * r * mass
    top = laplace_transform(np.abs(x[:, None] - x).sum(axis=2).max(), r)
    keep = w > CUT_RTOL * top / len(w)
    sides = np.unpackbits(keys[keep].view(np.uint8), axis=1, count=n,
                          bitorder="little").astype(bool)
    far = np.abs(x - x[0]).sum(axis=1)
    far[0] = np.inf
    pos = np.argsort(np.argsort(-far, kind="stable"))
    order = np.lexsort((np.where(sides, pos, -1).max(axis=1),
                        np.where(sides, pos, n).min(axis=1)))
    return w[keep][order], sides[order]


@st.composite
def cut_shapes(draw):
    """2 to 12 points in 1 or 2 dimensions, or 2 to 10 in 3, on 8
    integer values per axis with uneven gaps, so that points share
    coordinates; or a 3-d staircase of 2 to 20 points whose second
    coordinate falls, an l1 line. Scaled by 1/2 to 4 and translated by
    up to 1e3 per coordinate; and scales r from 1e-3 to 1e3, one per
    decade and some drawn."""
    if draw(st.booleans()):
        dim = draw(st.integers(1, 3))
        n = draw(st.integers(2, 12 if dim < 3 else 10))
        values = [sorted(draw(st.lists(st.integers(0, 15), min_size=8,
                                       max_size=8, unique=True)))
                  for _ in range(dim)]
        cells = draw(st.lists(st.tuples(*[st.integers(0, 7)] * dim),
                              min_size=n, max_size=n, unique=True))
        pts = np.array([[values[c][i] for c, i in enumerate(cell)]
                        for cell in cells], dtype=np.float64)
    else:
        n = draw(st.integers(2, 20))
        steps = np.array(draw(st.lists(
            st.tuples(*[st.integers(0, 1)] * 3).filter(any),
            min_size=n - 1, max_size=n - 1)), dtype=np.float64)
        pts = np.vstack([np.zeros(3), np.cumsum(steps.reshape(-1, 3)
                                                * [1, -1, 1], axis=0)])
    shift = draw(arrays(np.float64, pts.shape[1],
                        elements=st.floats(-1e3, 1e3)))
    pts = pts * draw(st.floats(0.5, 4.0)) + shift
    rs = [*np.geomspace(1e-3, 1e3, 7), *draw(st.lists(st.floats(1e-3, 1e3),
                                                     max_size=4))]
    return pts, rs


@pytest.mark.parametrize("pairwise_bytes", [None, 1],
                         ids=["one-chunk", "a-chunk-per-set"])
@settings(max_examples=80, deadline=None)
@given(case=cut_shapes())
def test_a_cut_structure_replays_a_fresh_decomposition(pairwise_bytes,
                                                        case):
    # one structure, replayed at many scales, gives bitwise the weights
    # and sides of a fresh decomposition at each, and of the cuts summed
    # as their sets are made; with a pass budget of 1 byte every member
    # set of a pass is a chunk of its own on the next. At r = 1e-3 a cut
    # with two points on each side weighs less than the CUT_RTOL drop
    pts, rs = case
    with pytest.MonkeyPatch.context() as mp:
        if pairwise_bytes is not None:
            mp.setattr(transforms, "PAIRWISE_BYTES", pairwise_bytes)
        structure = transforms.cut_structure(pts)
        if pairwise_bytes is not None and len(structure.passes) > 1:
            first, second = structure.passes[:2]
            assert len(second.chunks) == len(first.lo)
        for r in rs:
            w, sides = transforms.cut_weights(structure, r)
            for fresh_w, fresh_sides in (cut_decomposition(pts, r),
                                         one_pass_cuts(pts, r)):
                assert w.tobytes() == fresh_w.tobytes()
                assert (sides.dtype == bool
                        and sides.shape == fresh_sides.shape)
                assert np.array_equal(sides, fresh_sides)
    inside = structure.sides.sum(axis=1)
    if ((inside >= 2) & (inside <= len(pts) - 2)).any():
        assert len(transforms.cut_weights(structure, 1e-3)[0]) < len(inside)


def stable_groups(keys):
    # the reference: np.unique's stable sort gives each key's first index
    _, first, inverse = np.unique(keys, return_index=True,
                                  return_inverse=True)
    order = np.argsort(first, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], rank[inverse]


@pytest.mark.parametrize("width", [0, 1, 3])
def test_groups_match_a_stable_unique(width):
    # the unstable sort's first indices and group numbers equal those of
    # a stable sort, for one-word and multi-word rows, byte-string object
    # keys and no rows, with every group repeated many times
    rng = np.random.default_rng(width)
    for n in (0, 1, 7, 500):
        rows = rng.integers(0, 4, (n, max(width, 1)), dtype=np.uint64)
        keys = rows[:, 0] if width < 2 else np.ascontiguousarray(
            rows).view(f"V{8 * width}")[:, 0]
        if width == 0:
            keys = np.array([r.tobytes() for r in rows], dtype=object)
        got = transforms._groups(keys[:, None])
        for g, w in zip(got, stable_groups(keys), strict=True):
            assert g.dtype == np.intp and np.array_equal(g, w)


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
