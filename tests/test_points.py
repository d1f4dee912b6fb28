"""Metric core: point sets, normalization, nets, doubling estimates, IO."""

import json

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.distance import pdist, squareform

from snowdim import points
from snowdim.errors import (BadParams, DuplicatePoints, EmptyInput,
                            HeaderMismatch, UnknownKind)
from snowdim.points import (PointSet, _pairwise, estimate_doubling, generate,
                            greedy_net, loads_csv, loads_json, dumps_csv,
                            dumps_json, normalize, norm_tag)


def brute_pairwise(pts, p):
    # independent reference: plain double loop
    n = len(pts)
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            diff = np.abs(np.asarray(pts[i]) - np.asarray(pts[j]))
            if p == 1:
                d[i, j] = diff.sum()
            elif p == 2:
                d[i, j] = np.sqrt((diff ** 2).sum())
            else:
                d[i, j] = diff.max()
    return d


def test_pairwise_matches_brute_force():
    rng = np.random.default_rng(42)
    pts = rng.normal(size=(23, 5))
    for p in (1.0, 2.0, np.inf):
        s = PointSet(pts.copy(), p)
        assert np.allclose(s.distance_matrix(), brute_pairwise(pts, p),
                           atol=1e-10)


def broadcast_pairwise(pts, norm):
    # the reference: one n x n x k difference tensor, reduced over its last
    # axis
    diff = np.abs(pts[:, None, :] - pts[None, :, :])
    return diff.sum(axis=2) if norm == 1.0 else diff.max(axis=2)


def test_pair_kernel_is_bitwise_the_broadcast_kernel(monkeypatch):
    rng = np.random.default_rng(7)
    # a budget of a few difference rows splits every call into many chunks
    monkeypatch.setattr(points, "PAIRWISE_BYTES", 3 * 8 * 40)
    for n, k in ((2, 1), (10, 3), (23, 40), (31, 97)):
        pts = rng.standard_normal((n, k)) * 10.0 ** rng.uniform(-6, 6, (n, k))
        for norm in (1.0, np.inf):
            assert np.array_equal(_pairwise(pts, norm),
                                  broadcast_pairwise(pts, norm))


def test_linf_pair_kernel_memory_stays_within_its_chunks(peak_traced):
    # the broadcast kernel holds a 32 x 32 x 40,000 tensor, 328 MB
    pts = np.random.default_rng(3).standard_normal((32, 40_000))
    d, peak = peak_traced(_pairwise, pts, np.inf)
    assert peak <= 3 * points.PAIRWISE_BYTES + d.nbytes + 64 * 1024
    assert np.array_equal(d[:4, :4], broadcast_pairwise(pts[:4], np.inf))


@st.composite
def rescaled_sets(draw):
    """Distinct integer points (min distance >= 1 in every norm), rescaled
    by up to 2^+-12, and a translation of up to 1e8 per coordinate."""
    n = draw(st.integers(2, 8))
    dim = draw(st.integers(1, 4))
    base = draw(arrays(np.float64, (n, dim),
                       elements=st.integers(-50, 50).map(float)))
    assume(len(np.unique(base, axis=0)) == n)
    scale = draw(st.floats(2.0 ** -12, 2.0 ** 12))
    shift = draw(arrays(np.float64, dim, elements=st.floats(-1e8, 1e8)))
    return base * scale, shift


@settings(max_examples=200)
@given(sets=rescaled_sets(), norm=st.sampled_from((1.0, 2.0, np.inf)))
def test_pairwise_matches_pdist(sets, norm):
    # scipy measures the stored floats directly, with no Gram trick, so it
    # is an oracle independent of _pairwise
    pts, shift = sets
    metric = {1.0: "cityblock", 2.0: "euclidean", np.inf: "chebyshev"}[norm]
    assert np.allclose(_pairwise(pts, norm), squareform(pdist(pts, metric)),
                       rtol=1e-9, atol=0.0)
    # source sets may sit anywhere: distance_matrix centers l2 rows first
    moved = pts + shift
    assert np.allclose(PointSet(moved, norm).distance_matrix(),
                       squareform(pdist(moved, metric)), rtol=1e-9, atol=0.0)


def test_translated_grid_normalizes_like_the_grid():
    # the Gram trick on rows near 1e8 cancels every bit of a unit distance
    grid = generate("grid", side=8, dims=2)
    moved = normalize(PointSet(grid.points + 1e8))
    assert moved.min_distance() == 1.0
    assert np.allclose(moved.distance_matrix(),
                       normalize(grid).distance_matrix(), rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind, params", [
    ("line", dict(n=4)), ("ball", dict(n=4, dim=2)),
    ("subspace", dict(n=4, ambient_dim=3, intrinsic_dim=2)),
])
def test_generate_refuses_a_negative_seed(kind, params):
    with pytest.raises(BadParams, match="seed"):
        generate(kind, seed=-1, **params)


def test_norm_tag_aliases():
    assert norm_tag("l1") == 1.0
    assert norm_tag("L2") == 2.0
    assert norm_tag("linf") == np.inf
    assert norm_tag(2) == 2.0
    assert norm_tag("inf") == np.inf
    with pytest.raises(BadParams):
        norm_tag("l3")


def test_normalize_line_frozen():
    # {0, 2, 10} on the line: min gap 2, so scaled gaps are 1, 4, 5
    s = PointSet(np.array([[0.0], [2.0], [10.0]]), 2.0)
    t = normalize(s)
    d = t.distance_matrix()
    assert np.isclose(d[0, 1], 1.0)
    assert np.isclose(d[1, 2], 4.0)
    assert np.isclose(d[0, 2], 5.0)
    assert np.isclose(t.min_distance(), 1.0)
    assert np.isclose(t.scale, 2.0)   # one normalized unit = 2 original units
    assert t.is_normalized()


def test_normalize_errors():
    with pytest.raises(EmptyInput):
        normalize(PointSet(np.zeros((1, 2)), 2.0))
    dup = PointSet(np.array([[1.0, 0.0], [1.0, 0.0], [3.0, 0.0]]), 2.0)
    with pytest.raises(DuplicatePoints):
        normalize(dup)
    # too far from the origin for float64 to keep unit distances
    base = generate("subspace", n=60, ambient_dim=8, intrinsic_dim=2, seed=0)
    for shift in (1e7, 1e9, 1e12):
        with pytest.raises(BadParams, match="nearer the origin"):
            normalize(PointSet(base.points + shift))


def test_non_finite_points_rejected():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(BadParams):
            PointSet([[0.0], [bad], [2.0]])
    # a set whose points turn non-finite after construction
    s = PointSet([[0.0], [1.0], [2.0]])
    s.points[1, 0] = np.nan
    with pytest.raises(BadParams):
        normalize(s)
    with pytest.raises(BadParams):
        loads_csv("# norm=2 scale=1\n0\nnan\n2\n")


def test_greedy_net_line_frozen():
    # integers 0..9 at spacing 1, radius 2: first-fit keeps 0,2,4,6,8
    s = PointSet(np.arange(10.0)[:, None], 2.0)
    net = greedy_net(s, 2.0)
    assert net.members.tolist() == [0, 2, 4, 6, 8]
    # every point within radius of some member, members 2-separated
    d = s.distance_matrix()
    assert (d[:, net.members].min(axis=1) < 2.0).all()
    sub = d[np.ix_(net.members, net.members)]
    off = sub[~np.eye(len(net.members), dtype=bool)]
    assert off.min() >= 2.0
    for bad in (0.0, -1.0, np.nan):
        with pytest.raises(BadParams):
            greedy_net(s, bad)


def _first_fit_net(d, radius):
    # the reference: the loop over points in index order
    members = []
    for i in range(d.shape[0]):
        if not members or d[i, members].min() >= radius:
            members.append(i)
    return members


def test_greedy_net_at_or_below_the_min_distance_is_every_point():
    rng = np.random.default_rng(4)
    for norm in (1.0, 2.0, np.inf):
        s = PointSet(rng.uniform(size=(30, 3)) * 10, norm)
        d = s.distance_matrix()
        dmin = s.min_distance()
        for radius in (0.5 * dmin, dmin, np.nextafter(dmin, np.inf)):
            net = greedy_net(s, radius)
            assert net.members.dtype == np.intp
            assert net.members.tolist() == _first_fit_net(d, radius)
        # just past the min distance the loop drops a point of the closest pair
        assert greedy_net(s, np.nextafter(dmin, np.inf)).size == s.n - 1
    one = PointSet(np.zeros((1, 2)))
    assert greedy_net(one, 5.0).members.tolist() == [0]


def test_greedy_net_covers_random_sets():
    rng = np.random.default_rng(3)
    for trial in range(5):
        pts = rng.uniform(size=(40, 3)) * 10
        s = PointSet(pts, 2.0)
        r = 1.5
        net = greedy_net(s, r)
        d = s.distance_matrix()
        assert (d[:, net.members].min(axis=1) < r).all()
        m = net.members
        if len(m) > 1:
            sub = d[np.ix_(m, m)][~np.eye(len(m), dtype=bool)]
            assert sub.min() >= r


def brute_cover_count(d, radius):
    # greedy max-coverage cover, lowest index on ties
    n = d.shape[0]
    todo = set(range(n))
    count = 0
    while todo:
        best, best_hit = None, -1
        for c in range(n):
            hit = sum(1 for i in todo if d[c, i] <= radius)
            if hit > best_hit:
                best, best_hit = c, hit
        todo -= {i for i in todo if d[best, i] <= radius}
        count += 1
    return count


def test_doubling_line_vs_grid():
    line = normalize(generate("line", n=64))
    grid = normalize(generate("grid", side=16, dims=2))
    dl = estimate_doubling(line)
    dg = estimate_doubling(grid)
    assert 0.5 <= dl.dim_hat <= 1.5
    assert dl.lambda_hat == 2.0
    assert 1.5 <= dg.dim_hat <= 3.5
    assert dg.dim_hat > dl.dim_hat


@pytest.mark.parametrize("kind, params", [
    ("grid", dict(side=8, dims=2)),
    ("ultrametric", dict(depth=6)),
    ("subspace", dict(n=80, ambient_dim=10, intrinsic_dim=3, seed=2)),
])
def test_doubling_covers_each_distinct_ball_once(monkeypatch, kind, params):
    # the reference covers the ball of every center at every radius; the
    # estimate covers each distinct ball once per radius and finds the
    # same worst count
    s = normalize(generate(kind, **params))
    d = s.distance_matrix()
    want, rho, balls, distinct = 1, 2.0 * s.min_distance(), 0, 0
    while True:
        seen = set()
        for x in range(s.n):
            ball = np.flatnonzero(d[x] <= rho)
            want = max(want, points._greedy_cover_count(d[np.ix_(ball, ball)],
                                                        rho / 2.0))
            balls += 1
            distinct += ball.tobytes() not in seen
            seen.add(ball.tobytes())
        if rho >= s.diameter():
            break
        rho *= 2.0
    calls = []
    cover = points._greedy_cover_count

    def counting(dsub, radius):
        calls.append(radius)
        return cover(dsub, radius)

    monkeypatch.setattr(points, "_greedy_cover_count", counting)
    assert estimate_doubling(s).lambda_hat == want
    assert 0 < len(calls) <= distinct < balls


def test_ultrametric_tree_is_ultrametric_and_exact():
    s = generate("ultrametric", depth=4, base=3.0)
    d = s.distance_matrix()
    n = s.n
    assert n == 16
    # strong triangle inequality
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert d[i, j] <= max(d[i, k], d[k, j]) + 1e-9
    # leaf pair distance is base^(depth - lca_depth) exactly
    for i in range(n):
        for j in range(i + 1, n):
            lca = 4
            a, b = i, j
            while a != b:
                a //= 2
                b //= 2
                lca -= 1
            assert np.isclose(d[i, j], 3.0 ** (4 - lca), rtol=1e-12)


def test_generators_shapes_and_errors():
    assert generate("line", n=7).n == 7
    assert generate("grid", side=4, dims=3).n == 64
    s = generate("subspace", seed=1, n=30, ambient_dim=10, intrinsic_dim=2)
    assert s.dim == 10
    assert generate("ball", seed=2, n=12, dim=4).points.shape == (12, 4)
    with pytest.raises(UnknownKind):
        generate("torus", n=5)
    with pytest.raises(BadParams):
        generate("line", n=0)
    with pytest.raises(BadParams):
        generate("grid", side=3, dims=0)


def test_generate_deterministic_per_seed():
    a = generate("ball", seed=9, n=20, dim=3)
    b = generate("ball", seed=9, n=20, dim=3)
    c = generate("ball", seed=10, n=20, dim=3)
    assert np.array_equal(a.points, b.points)
    assert not np.array_equal(a.points, c.points)


def test_subspace_intrinsic_rank():
    s = generate("subspace", seed=5, n=50, ambient_dim=12, intrinsic_dim=3,
                 noise=0.0)
    centered = s.points - s.points.mean(axis=0)
    sv = np.linalg.svd(centered, compute_uv=False)
    assert sv[3] < 1e-9 * sv[0]


def test_csv_roundtrip_exact():
    s = generate("ball", seed=7, n=15, dim=3, norm="l1")
    s2 = loads_csv(dumps_csv(s))
    assert np.array_equal(s.points, s2.points)
    assert s2.norm == 1.0
    assert s2.scale == s.scale


def test_json_roundtrip_exact():
    s = normalize(generate("subspace", seed=3, n=10, ambient_dim=5,
                           intrinsic_dim=2))
    s2 = loads_json(dumps_json(s))
    assert np.array_equal(s.points, s2.points)
    assert s2.norm == s.norm
    assert s2.scale == s.scale
    doc = json.loads(dumps_json(s))
    assert set(doc) == {"norm", "scale", "points"}


@pytest.mark.parametrize("loads, text, error", [
    (loads_csv, "# norm\n0,1\n", HeaderMismatch),
    (loads_csv, "# norm=2 scale=abc\n0\n1\n", HeaderMismatch),
    (loads_csv, "# norm=2 scale=1\n0,abc\n", BadParams),
    (loads_csv, "# norm=2 scale=1\n0,1\n2\n", BadParams),
    (loads_csv, "# norm=2 scale=nan\n0\n1\n", BadParams),
    (loads_json, '{"norm": "2", "points": [[0], [1]', HeaderMismatch),
    (loads_json, '[[0], [1]]', HeaderMismatch),
    (loads_json, '{"norm": "2", "scale": "abc", "points": [[0], [1]]}',
     HeaderMismatch),
    (loads_json, '{"norm": "2", "points": [[0, "x"]]}', BadParams),
    (loads_json, '{"norm": "2", "points": [[0, 1], [2]]}', BadParams),
    (loads_json, '{"norm": "2", "scale": -1, "points": [[0], [1]]}',
     BadParams),
], ids=["csv-header-field", "csv-scale", "csv-cell", "csv-ragged",
        "csv-nan-scale", "json-syntax", "json-not-object", "json-scale",
        "json-cell", "json-ragged", "json-negative-scale"])
def test_malformed_point_files_raise_typed_errors(loads, text, error):
    with pytest.raises(error):
        loads(text)


def test_binary_point_file_raises_header_mismatch(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_bytes(b"# norm=2 scale=1\n\xff\xfe\n")
    with pytest.raises(HeaderMismatch, match="UTF-8"):
        points.load(path)


@pytest.mark.parametrize("scale", [np.nan, np.inf, 0.0, -1.0])
def test_point_set_scale_must_be_positive_and_finite(scale):
    with pytest.raises(BadParams, match="scale"):
        PointSet([[0.0], [1.0]], scale=scale)


@pytest.mark.parametrize("side, dims", [(3, 4), (8, 2), (4, 1), (2, 10),
                                        (1, 3)])
def test_grid_rows_are_the_ij_mesh(side, dims):
    mesh = np.meshgrid(*[np.arange(side, dtype=np.float64)] * dims,
                       indexing="ij")
    want = np.stack([m.ravel() for m in mesh], axis=1)
    got = generate("grid", side=side, dims=dims).points
    assert got.tobytes() == want.tobytes() and got.shape == want.shape


@pytest.mark.parametrize("dims", [33, 65])
def test_one_point_grid_in_many_dimensions(dims):
    # numpy's meshgrid stops at 32 dimensions; a one-point grid has none
    s = generate("grid", side=1, dims=dims)
    assert s.points.shape == (1, dims) and not s.points.any()
