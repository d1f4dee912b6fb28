import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.distance import pdist

import snowdim
from snowdim import (decomposition, extension, points, single_scale,
                     transforms)
from snowdim import snowflake as snowflake_mod
from snowdim.decomposition import batch_size, padding_audit
from snowdim.errors import BadParams, HeaderMismatch, PaddingUnachievable
from snowdim.points import PointSet, generate, greedy_net, normalize
from snowdim.single_scale import (EPS_PAD, RESCALE_C, SingleScaleParams,
                                  _embed_cluster_l1, _linf_block,
                                  build_single_scale, contract_audit, dumps,
                                  loads_coords, theory_dimension)
from snowdim.snowflake import build_snowflake
from snowdim.transforms import (cut_structure, cut_weights,
                                gaussian_transform, laplace_transform,
                                threshold_transform)

G_1 = 0.7950600976206501          # G_1(1) = sqrt(1 - e^-1)
L_1 = 0.6321205588285577          # L_1(1) = 1 - e^-1


def line_pair():
    return normalize(PointSet(np.array([[0.0], [1.0]])))


# --- frozen two-point oracles: the whole pipeline collapses to one cluster,
# --- weight 1, no projection, so the image distance is transform(1)/(1+C*eps)


def test_two_point_l2_oracle():
    e = build_single_scale(line_pair(), SingleScaleParams(1.0, 0.1, 0.1, seed=4))
    d = np.linalg.norm(e.coords[0] - e.coords[1])
    assert abs(d - G_1 / 5.0) < 1e-12


def test_two_point_l1_oracle():
    s = normalize(PointSet(np.array([[0.0], [1.0]]), norm=1.0))
    e = build_single_scale(s, SingleScaleParams(1.0, 0.1, 0.1, seed=4))
    d = np.abs(e.coords[0] - e.coords[1]).sum()
    assert abs(d - L_1 / 5.0) < 1e-12


def test_two_point_linf_oracle():
    s = normalize(PointSet(np.array([[0.0], [1.0]]), norm=np.inf))
    e = build_single_scale(s, SingleScaleParams(1.0, 0.2, 0.01, seed=4))
    d = np.abs(e.coords[0] - e.coords[1]).max()
    assert abs(d - 1.0 / 1.2) < 1e-12          # T_1(1)/(1+2*sqrt(0.01))


def test_two_point_linf_singletons_have_no_columns():
    # at a scale far below the spacing every carving is all singletons, so
    # the scale has width 0 and its audit measures 0-column images
    s = normalize(PointSet(np.array([[0.0], [1.0]]), norm=np.inf))
    e = build_single_scale(s, SingleScaleParams(1e-6, 0.1, 0.0025, seed=4))
    assert e.k == 0 and e.coords.shape == (2, 0)
    assert np.array_equal(e.image_distance_matrix(), np.zeros((2, 2)))
    rep = contract_audit(e)
    assert rep.passed and rep.extras["concrete_k"] == 0


# --- contracts on a full build


def test_grid_contracts():
    s = normalize(generate("grid", side=8, dims=2))
    p = SingleScaleParams(1.0, 0.1, 0.1, seed=3)
    e = build_single_scale(s, p)
    rep = contract_audit(e)
    ex = rep.extras
    assert ex["max_lipschitz"] <= 1.0 + 1e-9
    assert ex["max_image_norm"] <= 1.0 * (1 + 0.01) * (1 + 1e-9)
    assert rep.passed
    assert rep.ratio_min >= 1.0 / (1.0 + 45 * 0.1)
    assert rep.ratio_max <= 1.0 + 1e-9
    # every net pair here (net = whole set), single perfectly padded cluster
    assert np.isclose(rep.ratio_min, 0.2, atol=1e-12)
    assert np.isclose(rep.ratio_max, 0.2, atol=1e-12)


def test_grid_cluster_invariants():
    s = normalize(generate("grid", side=8, dims=2))
    e = build_single_scale(s, SingleScaleParams(1.0, 0.1, 0.1, seed=3))
    ex = contract_audit(e).extras
    assert ex["max_cluster_image_norm"] <= 1.0 + 1e-9
    assert ex["same_cluster_excess"] <= 1e-9
    assert ex["transform_vs_source_excess"] <= 1e-9
    assert ex["smoothing_excess"] <= 1e-12
    assert ex["product_rule_max"] <= 1.1 + 1e-9


def test_ultrametric_multi_cluster():
    s = normalize(generate("ultrametric", depth=7, base=2.0))
    e = build_single_scale(s, SingleScaleParams(1.0, 0.1, 0.1, seed=3))
    rep = contract_audit(e)
    assert rep.passed
    assert rep.extras["max_lipschitz"] <= 1.0 + 1e-9
    assert rep.extras["smoothing_excess"] <= 1e-12
    # tree balls are unions of subtrees: padding never fails
    assert e.decomposition.padded_fraction.min() == 1.0


# --- coarse scales: an (eps*delta*r)-net would be sparser than the set


def test_coarse_l2_scale_decomposes_every_point():
    s = normalize(generate("grid", side=8, dims=2))
    p = SingleScaleParams(200.0, 0.1, 0.1, seed=7)
    assert greedy_net(s, p.net_radius(s.norm)).size < s.n
    e = build_single_scale(s, p)
    assert e.net is None
    assert e.decomposition.n == s.n
    rep = contract_audit(e)
    assert rep.passed
    assert rep.extras["max_lipschitz"] <= 1.0 + 1e-9


def test_l2_build_runs_no_net_and_no_extension(monkeypatch):
    originals = {"greedy_net": points.greedy_net,
                 "kirszbraun_extend": extension.kirszbraun_extend}
    calls = dict.fromkeys(originals, 0)

    def counting(name):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return originals[name](*args, **kwargs)
        return wrapped

    # every module that holds a reference, so no lookup escapes the count
    for mod in (snowdim, points, single_scale, snowflake_mod, extension):
        for name in originals:
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counting(name))
    grid = normalize(generate("grid", side=8, dims=2))
    for r in (0.05, 2.0, 200.0):
        build_single_scale(grid, SingleScaleParams(r, 0.1, 0.1, seed=7))
    # the counters see only the scales built in this process
    monkeypatch.setattr(snowflake_mod, "_worker_count", lambda: 1)
    build_snowflake(normalize(generate("line", n=16)), 0.5, 0.1, seed=0)
    assert calls == {"greedy_net": 0, "kirszbraun_extend": 0}
    # the counter does see the nets the l1 path reads
    line = normalize(generate("line", n=6, norm="l1"))
    build_single_scale(line, SingleScaleParams(1.0, 0.1, 0.1, seed=0))
    assert calls == {"greedy_net": 1, "kirszbraun_extend": 0}


def test_l2_single_scale_keeps_the_tail_of_its_spectrum():
    # its nonzero rows factored with no relative cutoff, a single-scale l2
    # build writes the pair distances the snowflake reads off the same
    # scale's Gram; the cutoff used to drop a tail worth up to 4.5e-9 of
    # a distance on a 200-point subspace set
    s = normalize(generate("grid", side=8, dims=2))
    e = build_snowflake(s, 0.5, 0.1, seed=0)
    checked = 0
    for t, i in enumerate(e.plan.scale_indices):
        one = build_single_scale(s, snowflake_mod._scale_params(e, i))
        if not e.scale_k[t]:
            assert one.k == 0
            continue
        w = (1.0 + 0.1) ** (-i * 0.5)
        np.testing.assert_allclose(pdist(one.coords) / one.rescale,
                                   e.scale_dists[t] / w, rtol=1e-11,
                                   atol=0.0)
        checked += 1
    assert checked > 100


@pytest.mark.parametrize("kind, params, r, delta", [
    ("ultrametric", dict(depth=7, base=2.0), 0.03, 0.1),
    ("subspace", dict(n=80, ambient_dim=10, intrinsic_dim=3, seed=2), 0.02,
     0.1),
    ("ball", dict(n=40, dim=3, norm="linf", seed=1), 0.001, 0.0025),
])
def test_smoothing_h_is_the_per_cluster_masked_min(carvings, kind, params, r,
                                                   delta):
    s = normalize(generate(kind, **params))
    e = build_single_scale(s, SingleScaleParams(r, 0.1, delta, seed=3))
    dmat = s.distance_matrix()
    by_members = {c.members.tobytes(): c for c in e.clusters}
    multi = 0
    for _, clusters, _ in carvings(e.decomposition):
        multi += len(clusters) > 1
        for members in clusters:
            # the gather over each cluster's outside, one cluster at a time
            if len(members) < s.n:
                outside = np.ones(s.n, dtype=bool)
                outside[members] = False
                want = dmat[np.ix_(members, np.flatnonzero(outside))].min(axis=1)
            else:
                want = np.full(len(members), np.inf)
            got = by_members[members.tobytes()]
            assert np.array_equal(got.h_values, capped(want, e.params))
            assert np.array_equal(got.weights,
                                  np.minimum(1.0, (delta / r) * want))
    assert multi > 0


def capped(h, p):
    # h where it lowers the weight below 1, inf at or past the cap r/delta
    return np.where((p.delta / p.r) * h < 1.0, h, np.inf)


def reference_scale_clusters(carvings, dec, dmat, p):
    # the dedupe one cluster at a time: every carving's clusters keyed by
    # their member bytes, in order of first appearance, the counts adding
    # up over the carvings (a certain decomposition's one row counts m
    # times), and h one masked row-min over each carving's new clusters,
    # uncapped
    entry_order, entries = {}, []
    for lab, clusters, _ in carvings(dec):
        fresh = []
        for members in clusters:
            at = entry_order.get(members.tobytes())
            if at is None:
                fresh.append(members)
            else:
                entries[at][1] += 1
        if not fresh:
            continue
        rows = np.concatenate(fresh)
        h_rows = np.where(lab[rows, None] == lab[None, :], np.inf,
                          dmat[rows]).min(axis=1)
        w_rows = np.minimum(1.0, (p.delta / p.r) * h_rows)
        lo = 0
        for members in fresh:
            hi = lo + len(members)
            entry_order[members.tobytes()] = len(entries)
            entries.append([members, 1, w_rows[lo:hi], h_rows[lo:hi]])
            lo = hi
    return entries


def test_scale_clusters_match_the_per_cluster_reference(monkeypatch,
                                                        carvings):
    # seeded l1, l2 and l-infinity sets at sampled, one-cluster and
    # all-singleton scales, carved in one chunk and in many, and once with
    # a key under which every cluster of a size collides: the columnar
    # dedupe gives the reference's members, counts, weights, h and order
    exact_calls = []
    exact_groups = single_scale._exact_groups

    def counting_exact(*args):
        exact_calls.append(True)
        return exact_groups(*args)

    monkeypatch.setattr(single_scale, "_exact_groups", counting_exact)
    l1 = normalize(PointSet(np.random.default_rng(5).uniform(0, 10, (12, 2)),
                            norm=1.0))
    l2 = normalize(generate("subspace", n=60, ambient_dim=8, intrinsic_dim=2,
                            seed=4))
    linf = normalize(generate("ball", n=30, dim=3, norm="linf", seed=2))
    cases = [(s, r, delta, seed) for s, delta, radii in (
        (l1, 0.1, (0.002, 0.05, 0.2, 50.0)),
        (l2, 0.1, (0.001, 0.05, 0.2, 50.0)),
        (linf, 0.0025, (0.00005, 0.0005, 5.0)))
        for r in radii for seed in range(2)]
    seen = set()
    for chunk, collide in ((None, False), (3 * 8 * 60 * 60, False),
                           (None, True)):
        if chunk is not None:
            monkeypatch.setattr(decomposition, "PAIRWISE_BYTES", chunk)
        if collide:
            monkeypatch.setattr(single_scale, "_point_keys",
                                lambda n: np.zeros(n, dtype=np.uint64))
        for s, r, delta, seed in cases:
            sc = single_scale.scale_clusters(
                s, SingleScaleParams(r, 0.1, delta, seed=seed))
            want = reference_scale_clusters(carvings, sc.decomposition,
                                            s.distance_matrix(), sc.params)
            got = sc.clusters
            assert len(got) == len(want)
            for g, (members, count, weights, h) in zip(got, want):
                assert g.members.dtype == np.intp
                assert np.array_equal(g.members, members)
                assert type(g.count) is int and g.count == count
                assert np.array_equal(g.weights, weights)
                assert np.array_equal(g.h_values, capped(h, sc.params))
            if len(got) == 1:
                seen.add((s.norm, "one cluster"))
            elif len(got) == s.n:
                seen.add((s.norm, "all singletons"))
            elif max(c.count for c in got) > 1:
                seen.add((s.norm, "sampled, repeats"))
        if not collide:
            assert exact_calls == []
    assert exact_calls
    assert seen == {(norm, kind) for norm in (1.0, 2.0, np.inf) for kind in
                    ("one cluster", "all singletons", "sampled, repeats")}


def test_distinct_matches_the_exact_grouping(monkeypatch):
    # singleton candidates are grouped by their point and the others by
    # key; on an all-singleton batch, a mixed one and one with no
    # singleton, the result is the exact grouping by member bytes. Under a
    # key where every candidate of a size collides, a mixed batch still
    # reaches the exact grouping, with its candidates of two or more
    # points only
    rng = np.random.default_rng(3)
    n = 12
    pool = [np.sort(rng.choice(n, int(k), replace=False))
            for k in rng.integers(2, 6, 20)] + [np.array([p]) for p in
                                                range(n)]
    batches = {"all singletons": rng.integers(20, len(pool), 60),
               "mixed": rng.integers(0, len(pool), 80),
               "no singleton": rng.integers(0, 20, 40)}
    exact_sizes = []
    exact_groups = single_scale._exact_groups

    def recording_exact(flat, starts, sizes):
        exact_sizes.append(sizes)
        return exact_groups(flat, starts, sizes)

    monkeypatch.setattr(single_scale, "_exact_groups", recording_exact)
    for collide in (False, True):
        if collide:
            monkeypatch.setattr(single_scale, "_point_keys",
                                lambda n: np.zeros(n, dtype=np.uint64))
        for pick in batches.values():
            flat = np.concatenate([pool[i] for i in pick])
            sizes = np.array([len(pool[i]) for i in pick])
            exact_sizes.clear()
            want = exact_groups(flat, np.cumsum(sizes) - sizes, sizes)
            got = single_scale._distinct(flat, sizes, n)
            for g, w in zip(got, want, strict=True):
                assert g.dtype == np.intp and np.array_equal(g, w)
            if not collide or (sizes == 1).all():
                assert exact_sizes == []
            else:
                [multi] = exact_sizes
                assert np.array_equal(multi, sizes[sizes > 1])


# grids, trees, lines and l-infinity balls repeat their distances, so a
# prefix often ends inside a run of ties; with dim_hat = 1 these ratios
# r/delta carve scales whose cap reaches past the nearest neighbours
TIE_HEAVY = [
    (generate("grid", side=8, dims=2), 0.1, (1.2, 1.5)),
    (generate("ultrametric", depth=7, base=2.0), 0.1, (1.5, 8.0)),
    (generate("line", n=10, norm="l1"), 0.1, (1.125, 1.2)),
    (generate("ball", n=30, dim=3, norm="linf", seed=2), 0.0025, (1.5, 2.0)),
]


@pytest.mark.parametrize("chunk", [None, 8 * 7])
def test_tie_heavy_sets_keep_the_reference_weights(monkeypatch, carvings,
                                                   chunk):
    # also with the prefixes scanned a few neighbours at a time
    if chunk is not None:
        monkeypatch.setattr(single_scale, "PAIRWISE_BYTES", chunk)
    below = 0
    for pts, delta, ratios in TIE_HEAVY:
        s = normalize(pts)
        for ratio, seed in [(x, seed) for x in ratios for seed in range(3)]:
            sc = single_scale.scale_clusters(s, SingleScaleParams(
                ratio * delta, 0.1, delta, seed=seed, dim_hat=1.0))
            want = reference_scale_clusters(carvings, sc.decomposition,
                                            s.distance_matrix(), sc.params)
            for g, (members, _, weights, h) in zip(sc.clusters, want,
                                                   strict=True):
                assert np.array_equal(g.members, members)
                assert np.array_equal(g.weights, weights)
                assert np.array_equal(g.h_values, capped(h, sc.params))
            below += np.isfinite(sc.h_values).sum()
    assert below > 0


def test_a_neighbour_exactly_at_the_cap_leaves_the_weight_one(carvings):
    # on a unit-spaced l1 line, r = delta makes delta/r exactly 1, so an
    # outside neighbour at distance 1 sits on the cap: its weight is
    # min(1, 1.0) = 1, and h is stored as inf
    s = normalize(generate("line", n=10, norm="l1"))
    p = SingleScaleParams(0.1, 0.1, 0.1, seed=0, dim_hat=1.0)
    assert (p.delta / p.r) * 1.0 == 1.0
    sc = single_scale.scale_clusters(s, p)
    want = reference_scale_clusters(carvings, sc.decomposition,
                                    s.distance_matrix(), sc.params)
    on_cap = np.concatenate([h for *_, h in want]) == 1.0
    assert on_cap.any()
    assert np.all(sc.h_values[on_cap] == np.inf)
    assert np.all(sc.weights[on_cap] == 1.0)
    assert np.array_equal(sc.weights,
                          np.concatenate([w for _, _, w, _ in want]))


def test_smoothing_excess_sees_every_wrong_h():
    s = normalize(generate("grid", side=8, dims=2))
    e = build_single_scale(s, SingleScaleParams(0.12, 0.1, 0.1, seed=0,
                                                dim_hat=1.0))
    assert contract_audit(e).extras["smoothing_excess"] == 0.0
    below = next(c for c in e.clusters if np.isfinite(c.h_values).any())
    j = int(np.flatnonzero(np.isfinite(below.h_values))[0])
    past = next(c for c in e.clusters if np.isinf(c.h_values).any())
    i = int(np.flatnonzero(np.isinf(past.h_values))[0])
    true_h = below.h_values[j]
    # above the truth, below it, inf under the cap, finite past the cap
    for entry, at, wrong in ((below, j, true_h + 0.25),
                             (below, j, true_h - 0.25),
                             (below, j, np.inf), (past, i, 100.0)):
        kept = entry.h_values[at]
        entry.h_values[at] = wrong
        assert contract_audit(e).extras["smoothing_excess"] > 0.0
        entry.h_values[at] = kept
    assert contract_audit(e).extras["smoothing_excess"] == 0.0


# --- l1 specifics


def test_l1_merged_cuts_isometric_on_net():
    rng = np.random.default_rng(5)
    s = normalize(PointSet(rng.uniform(0, 10, (10, 2)), norm=1.0))
    p = SingleScaleParams(1.0, 0.1, 0.1, seed=2)
    e = build_single_scale(s, p)
    net_mask = np.zeros(s.n, dtype=bool)
    net_mask[e.net.members] = True
    gdmat = s.distance_matrix()
    checked = 0
    for entry in e.clusters:
        mem = entry.members
        net_loc = np.flatnonzero(net_mask[mem])
        for a in range(len(net_loc)):
            for b in range(a + 1, len(net_loc)):
                x, y = mem[net_loc[a]], mem[net_loc[b]]
                raw = np.abs(entry.coords[net_loc[a]]
                             - entry.coords[net_loc[b]]).sum()
                want = laplace_transform(gdmat[x, y], 1.0)
                assert abs(raw - want) <= 1e-9
                checked += 1
    assert checked > 10


def test_l1_all_pairs_one_lipschitz():
    rng = np.random.default_rng(5)
    s = normalize(PointSet(rng.uniform(0, 10, (10, 2)), norm=1.0))
    e = build_single_scale(s, SingleScaleParams(1.0, 0.1, 0.1, seed=2))
    ex = contract_audit(e).extras
    assert ex["max_lipschitz"] <= 1.0 + 1e-9
    assert ex["same_cluster_excess"] <= 1e-9


# --- l-infinity specifics


def test_linf_exact_frechet():
    rng = np.random.default_rng(7)
    s = normalize(PointSet(rng.uniform(0, 40, (60, 3)), norm=np.inf))
    p = SingleScaleParams(20.0, 0.2, 0.01, seed=2)
    e = build_single_scale(s, p)
    rep = contract_audit(e)
    assert rep.passed
    assert rep.extras["max_lipschitz"] <= 1.0 + 1e-12
    # net = whole set here, so every pair is a net pair: the raw map is an
    # exact isometry onto T_r and the final one is exactly that / (1+2*sqrt(d))
    dmat = s.distance_matrix()
    img = e.image_distance_matrix()
    iu, ju = np.triu_indices(s.n, k=1)
    want = threshold_transform(dmat[iu, ju], 20.0) / 1.2
    assert np.max(np.abs(img[iu, ju] - want)) <= 1e-12


@st.composite
def linf_scale_records(draw):
    """A scale's columnar cluster record over a random l-infinity set:
    clusters may overlap (they come from different carvings), include
    singletons, and the net mask may leave clusters without a net point
    or hold every point."""
    n = draw(st.integers(1, 9))
    pts = draw(arrays(np.float64, (n, draw(st.integers(1, 3))),
                      elements=st.floats(-40.0, 40.0, width=32)))
    masks = draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n)
                          .filter(any), min_size=1, max_size=6))
    clusters = [np.flatnonzero(m) for m in masks]
    members = np.concatenate(clusters)
    weights = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=len(members),
                                     max_size=len(members))))
    in_net = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    r = draw(st.floats(0.01, 100.0))
    sc = SimpleNamespace(params=SimpleNamespace(r=r), members=members,
                         sizes=np.array([len(c) for c in clusters]))
    dmat = PointSet(pts, norm=np.inf).distance_matrix()
    return sc, dmat, in_net, weights


@settings(max_examples=300)
@given(linf_scale_records(), st.floats(0.5, 1.0), st.floats(0.5, 1.0))
def test_linf_block_is_the_per_cluster_route(linf_clusters_reference, rec,
                                             combine, rescale):
    sc, dmat, in_net, weights = rec
    ends = np.cumsum(sc.sizes)
    clusters = [(sc.members[hi - size:hi], weights[hi - size:hi])
                for hi, size in zip(ends, sc.sizes)]
    want = linf_clusters_reference(dmat, clusters, in_net, sc.params.r,
                                   combine, rescale)
    got = _linf_block(sc, dmat, in_net, weights * combine * rescale)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def linf_groups():
    # four groups of eight points, 1e10 apart: each group is a cluster at
    # r = 3e4, whose net radius 15 leaves 19 of the 32 points in the net
    rng = np.random.default_rng(0)
    pts = np.concatenate([rng.uniform(0, 20, (8, 2)) + off
                          for off in (0, 1e10, 2e10, 3e10)])
    return normalize(PointSet(pts, norm=np.inf))


def linf_segments():
    # two 20-point segments far apart: two clusters, the whole set in the net
    pts = np.concatenate([np.arange(20.0), 10000.0 + np.arange(20.0)])
    return normalize(PointSet(pts[:, None], norm=np.inf))


def linf_ball():
    return normalize(generate("ball", n=100, dim=4, norm="linf", seed=1))


# c is the l-infinity rescale constant: the map is divided by 1 + c * eps
@pytest.mark.parametrize("points,r,c,clusters,net", [
    (linf_ball, 20.0, 0.0, 1, 100),     # one cluster, every point a net point
    (linf_ball, 2500.0, 0.0, 1, 98),    # one cluster, a coarse net
    (linf_segments, 0.04, 0.0, 2, 40),
    (linf_groups, 3e4, 0.0, 4, 19),     # several clusters, a coarse net
])
def test_linf_scale_matches_the_per_cluster_reference(linf_reference, points,
                                                      r, c, clusters, net):
    s = points()
    e = build_single_scale(s, SingleScaleParams(r=r, eps=0.2, delta=0.01,
                                                seed=1))
    assert e.rescale == 1.0 / (1.0 + c * 0.2)
    assert (len(e.clusters), e.net.size) == (clusters, net)
    assert all(c.coords is None for c in e.clusters)
    want = linf_reference(e)
    assert e.coords.shape == want.shape and e.k == want.shape[1]
    assert np.array_equal(e.coords, want)
    assert contract_audit(e).passed


def test_linf_requires_small_delta(monkeypatch):
    # refused from the set's norm, before any decomposition
    calls = []
    monkeypatch.setattr(single_scale, "build_decomposition",
                        lambda *a, **k: calls.append(a))
    s = normalize(PointSet(np.array([[0.0], [1.0]]), norm=np.inf))
    with pytest.raises(BadParams, match="eps\\^2/4"):
        build_single_scale(s, SingleScaleParams(1.0, 0.2, 0.2))
    assert calls == []


def test_linf_multi_cluster_path(carvings):
    # two short segments far apart: every carve radius covers a whole
    # segment but never bridges the gap, so each partition is exactly the
    # two segments -- multi-cluster, perfectly padded, deterministic
    pts = np.concatenate([np.arange(20.0), 10000.0 + np.arange(20.0)])
    s = normalize(PointSet(pts[:, None], norm=np.inf))
    p = SingleScaleParams(0.04, 0.2, 0.01, seed=5)
    e = build_single_scale(s, p)
    assert all(len(clusters) == 2
               for _, clusters, _ in carvings(e.decomposition))
    assert len(e.clusters) == 2
    assert e.decomposition.padded_fraction.min() == 1.0
    ex = contract_audit(e).extras
    assert ex["max_lipschitz"] <= 1.0 + 1e-9
    assert ex["max_image_norm"] <= 0.04 * (1 + 0.2 * 0.01) * (1 + 1e-9)


# --- scales whose carving or cluster metrics carry no geometry


def saturated_build():
    # G_r(1) == r to the last bit at r = 0.05, and delta_dec = 24 * 0.05 /
    # 0.1 = 12 carves the 40-point line into clusters of many sizes
    s = normalize(generate("line", n=40))
    p = SingleScaleParams(r=0.05, eps=0.1, delta=0.1, seed=3, dim_hat=1.0)
    assert gaussian_transform(1.0, p.r) == p.r
    return build_single_scale(s, p)


def test_saturated_scale_shares_the_general_realization(l2_reference):
    # every cluster of one size has the same transformed metric here; the
    # one-Gram build must still give each its own place in the direct sum,
    # as the general route (each cluster realized on its own) does.
    # A point that is every cluster's origin sits at 0 in the reference
    e = saturated_build()
    assert len({len(entry.members) for entry in e.clusters}) > 5
    assert all(entry.coords is None for entry in e.clusters)
    ref = l2_reference(e.source, e)
    tiny = 1e-12 * e.params.r
    assert np.allclose(pdist(e.coords), pdist(ref), rtol=1e-9, atol=tiny)
    assert np.allclose(np.linalg.norm(e.coords, axis=1),
                       np.linalg.norm(ref, axis=1), rtol=1e-9, atol=tiny)
    assert e.k <= e.n
    assert contract_audit(e).passed


@st.composite
def l2_scales(draw):
    """A random l2 set of 2..60 points, one real scale's clusters of it,
    and a scatter cap from 2 to one below its largest cluster (1 where no
    cluster has three points). r runs from all-singleton scales (under
    1/120 for delta = 0.1 and dim_hat = 1) to one-cluster scales (over
    diameter/60). The larger sets are drawn first."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = 62 - draw(st.integers(2, 60))
    s = normalize(PointSet(rng.uniform(0.0, 10.0,
                                       (n, draw(st.integers(1, 4))))))
    lo, hi = math.log(1 / 150), math.log(s.diameter() / 50)
    r = math.exp(lo + draw(st.floats(0.0, 1.0)) * (hi - lo))
    p = SingleScaleParams(r=r, eps=0.1, delta=0.1,
                          seed=draw(st.integers(0, 100)), dim_hat=1.0)
    try:
        sc = single_scale.scale_clusters(s, p)
    except PaddingUnachievable:
        assume(False)
    top = int(sc.sizes.max())
    mid = draw(st.integers(2, top - 1)) if top > 2 else 1
    return s, sc, mid


@settings(max_examples=80)
@given(l2_scales())
def test_scale_gram_split_agrees_with_the_dense_and_reference_routes(
        l2_reference, scale):
    # the Gram with no cluster scattered, some and all, and the Gram of
    # the direct sum realized cluster by cluster, to 1e-12 of its largest
    # entry; the scatter cut into chunks of one cluster changes no bit
    s, sc, mid = scale
    dmat = s.distance_matrix()
    grams = []
    for cap in (1, mid, s.n):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(single_scale, "_scatter_max", lambda n, cap=cap: cap)
            grams.append(single_scale._scale_gram(sc, dmat))
            # one cluster a chunk adds the same entries in the same order
            mp.setattr(single_scale, "PAIRWISE_BYTES", 1)
            chunked = single_scale._scale_gram(sc, dmat)
            assert chunked[0] == grams[-1][0]
            assert np.array_equal(chunked[1], grams[-1][1])
    rescale = 1.0 / (1.0 + RESCALE_C[2.0] * sc.params.eps)
    ref = l2_reference(s, sc) / rescale
    k = min(s.n, int((sc.sizes - 1).sum()))
    if not k:
        assert grams == [(0, None)] * 3 and not ref.any()
        return
    want = ref @ ref.T
    tol = 1e-12 * np.abs(want).max()
    for got_k, got in grams:
        assert got_k == k
        assert np.abs(got - want).max() <= tol
        assert np.abs(got - grams[0][1]).max() <= tol


def test_saturated_scale_realizes_each_size_once(monkeypatch):
    # the clusters of many sizes are realized together: the build factors
    # the scale's one summed Gram and realizes no cluster on its own
    calls = {"euclidean_realization": 0, "factor_gram": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for name in calls:
        wrapped = counting(name, getattr(transforms, name))
        for mod in (transforms, single_scale):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, wrapped)
    e = saturated_build()
    assert len({len(entry.members) for entry in e.clusters}) > 5
    assert calls == {"euclidean_realization": 0, "factor_gram": 1}


def test_l2_audit_factors_each_distinct_cluster_gram_once(monkeypatch):
    # the audit measures an l2 cluster through its factored closed-form
    # Gram; clusters with the same Gram bytes share one factor
    e = saturated_build()
    dmat = e.source.distance_matrix()
    grams = set()
    for entry in e.clusters:
        t = np.square(gaussian_transform(
            dmat[np.ix_(entry.members, entry.members)], e.params.r))
        grams.add((0.5 * (t[:, :1] + t[:1, :] - t)).tobytes())
    factored = []
    factor_gram = transforms.factor_gram

    def counting(gram):
        factored.append(gram.tobytes())
        return factor_gram(gram)

    monkeypatch.setattr(single_scale, "factor_gram", counting)
    assert contract_audit(e).passed
    assert len(e.clusters) > len(grams) > 5
    assert sorted(factored) == sorted(grams)


def test_all_singleton_scale(carvings):
    # delta_dec / 2 = 0.6 < 1: no carve radius reaches a neighbour
    s = normalize(generate("grid", side=5, dims=2))
    p = SingleScaleParams(r=0.005, eps=0.1, delta=0.1, seed=2, dim_hat=1.0)
    e = build_single_scale(s, p)
    dec = e.decomposition
    assert dec.delta / 2.0 < 1.0
    assert e.k == 0
    assert len(list(carvings(dec))) == e.m
    for labels, clusters, _ in carvings(dec):
        assert [c.tolist() for c in clusters] == [[i] for i in range(s.n)]
        assert np.array_equal(labels, np.arange(s.n))
    assert padding_audit(s, dec).passed
    assert contract_audit(e).passed
    # the batch a sampled carving would draw, whose random carvings give,
    # as sets, the same clusters and the same padded bits
    assert dec.m == batch_size(EPS_PAD, s.n, dec.dim_hat)
    dmat = s.distance_matrix()
    close = (dmat <= dec.pad_radius) & ~np.eye(s.n, dtype=bool)
    *batch, padded = decomposition._sample(dmat, dec.delta, np.nonzero(close),
                                           dec.m, dec.seed, 0)
    for _, clusters, _ in carvings(batch):
        assert sorted(c.tolist() for c in clusters) == \
            [[i] for i in range(s.n)]
    assert np.array_equal(padded, dec.padded)


def test_single_scale_targets_the_input_norm():
    s = normalize(generate("ball", n=12, dim=2, norm="linf", seed=1))
    e = build_single_scale(s, SingleScaleParams(r=8.0, eps=0.1,
                                                delta=0.0025))
    assert e.rescale == 1.0
    assert contract_audit(e).passed
    # the l-infinity rule delta <= eps^2/4 is read off the set's norm
    with pytest.raises(BadParams, match="eps\\^2/4"):
        build_single_scale(s, SingleScaleParams(r=8.0, eps=0.1, delta=0.01))


# --- degenerate cluster helpers


def test_singleton_and_empty_net_clusters(linf_cluster):
    one = np.zeros((1, 1))
    none = np.array([], dtype=np.intp)
    cuts = cut_weights(cut_structure(one), 1.0)
    assert _embed_cluster_l1(cuts, np.array([0]), none).shape == (1, 0)
    assert _embed_cluster_l1(cuts, np.array([0]), np.array([0])).shape == (1, 0)
    assert linf_cluster(one, none, 1.0).shape == (1, 0)
    pair = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert linf_cluster(pair, none, 1.0).shape == (2, 0)
    # T_r(0) = 0: a singleton's own net point would write an all-zero column
    assert linf_cluster(one, np.array([0]), 1.0).shape == (1, 0)
    # the library's scatter gives neither a singleton nor a cluster
    # without a net point a column
    sc = SimpleNamespace(params=SimpleNamespace(r=1.0),
                         members=np.array([0, 0, 1]), sizes=np.array([1, 2]))
    assert _linf_block(sc, pair, np.array([True, False]),
                       np.ones(3)).shape == (2, 1)
    assert _linf_block(sc, pair, np.zeros(2, dtype=bool),
                       np.ones(3)).shape == (2, 0)


# --- parameters, determinism, serialization


def test_param_validation():
    for r in (0.0, math.inf, math.nan):
        with pytest.raises(BadParams):
            SingleScaleParams(r, 0.1, 0.1)
    with pytest.raises(BadParams):
        SingleScaleParams(1.0, 0.25, 0.1)
    with pytest.raises(BadParams):
        SingleScaleParams(1.0, 0.1, 0.3)


@pytest.mark.parametrize("bad", [dict(seed=-1), dict(dim_hat=math.inf),
                                 dict(dim_hat=math.nan),
                                 dict(dim_hat=-5.0)],
                         ids=["seed", "inf", "nan", "negative"])
def test_a_negative_seed_or_a_bad_dim_hat_is_refused(bad):
    # an all-certain build never samples, so only this check refuses a
    # negative seed there
    with pytest.raises(BadParams):
        SingleScaleParams(2.0, 0.1, 0.01, **bad)
    # estimate_doubling gives 0 for lambda = 1, so 0 stays valid
    assert SingleScaleParams(2.0, 0.1, 0.01, dim_hat=0.0).dim_hat == 0.0


def test_unnormalized_input_rejected():
    s = PointSet(np.array([[0.0], [0.25]]))
    with pytest.raises(BadParams):
        build_single_scale(s, SingleScaleParams(1.0, 0.1, 0.1))


def test_dump_roundtrip_and_determinism():
    s = normalize(generate("grid", side=5, dims=2))
    p = dict(r=1.0, eps=0.1, delta=0.1, seed=9)
    e1 = build_single_scale(s, SingleScaleParams(**p))
    e2 = build_single_scale(s, SingleScaleParams(**p))
    b1, b2 = dumps(e1), dumps(e2)
    assert b1 == b2
    header, coords = loads_coords(b1)
    assert header["n"] == s.n and header["k"] == e1.k
    assert header["norm"] == "2"
    assert np.array_equal(coords, e1.coords)
    # different seed still identical here: a single padded cluster has no
    # sampling or projection randomness left
    e3 = build_single_scale(s, SingleScaleParams(r=1.0, eps=0.1, delta=0.1, seed=10))
    assert np.allclose(e3.coords, e1.coords)


def test_truncated_dump_raises_header_mismatch():
    e = build_single_scale(line_pair(), SingleScaleParams(1.0, 0.1, 0.1,
                                                          seed=1))
    blob = dumps(e)
    assert e.k > 0
    # a cut inside the length field, the JSON header or the body
    for cut in (blob[:2], blob[:10], blob[:-3]):
        with pytest.raises(HeaderMismatch):
            loads_coords(cut)
    # every prefix either fails cleanly or is the whole dump
    for c in range(len(blob) + 1):
        try:
            header, coords = loads_coords(blob[:c])
        except HeaderMismatch:
            continue
        assert c == len(blob)
        assert np.array_equal(coords, e.coords)
    # a header that parses but does not describe the body
    hlen = int.from_bytes(blob[:4], "little")
    # (or a shape no array holds), with the body and with none
    for bad in (b'[1]', b'{"n":2}', b'{"n":-1,"k":0}', b'{"n":2.0,"k":1}',
                b'{"n":0,"k":9223372036854775808}'):
        for body in (blob[4 + hlen:], b""):
            doctored = len(bad).to_bytes(4, "little") + bad + body
            with pytest.raises(HeaderMismatch):
                loads_coords(doctored)


def test_audit_report_serializes():
    s = normalize(generate("grid", side=5, dims=2))
    e = build_single_scale(s, SingleScaleParams(1.0, 0.1, 0.1, seed=9))
    rep = contract_audit(e)
    blob = rep.dumps_json()
    assert '"passed":true' in blob
    assert rep.dumps_csv().startswith("pair_i,pair_j,")


def test_theory_dimension_independent_of_n():
    k1 = theory_dimension(0.1, 0.1, 0.36, 3.0, 2.0)
    k2 = theory_dimension(0.1, 0.1, 0.36, 3.0, 2.0)
    assert k1 == k2 > 0
    s_small = normalize(generate("grid", side=5, dims=2))
    s_big = normalize(generate("grid", side=7, dims=2))
    e_small = build_single_scale(s_small, SingleScaleParams(1.0, 0.1, 0.1, seed=1, dim_hat=2.0))
    e_big = build_single_scale(s_big, SingleScaleParams(1.0, 0.1, 0.1, seed=1, dim_hat=2.0))
    assert e_small.theory_k == e_big.theory_k
