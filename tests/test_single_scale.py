import math

import numpy as np
import pytest
from scipy.spatial.distance import pdist

import snowdim
from snowdim import (decomposition, extension, points, single_scale,
                     transforms)
from snowdim import snowflake as snowflake_mod
from snowdim.decomposition import batch_size, padding_audit
from snowdim.errors import BadParams, HeaderMismatch
from snowdim.points import PointSet, generate, greedy_net, normalize
from snowdim.single_scale import (EPS_PAD, SingleScaleParams,
                                  _embed_cluster_l1, _embed_cluster_linf,
                                  build_single_scale, contract_audit, dumps,
                                  loads_coords, theory_dimension)
from snowdim.snowflake import build_snowflake
from snowdim.transforms import (circular_cuts, cut_decomposition,
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
    e = build_single_scale(s, SingleScaleParams(1.0, 0.1, 0.1, norm=1.0, seed=4))
    d = np.abs(e.coords[0] - e.coords[1]).sum()
    assert abs(d - L_1 / 5.0) < 1e-12


def test_two_point_linf_oracle():
    s = normalize(PointSet(np.array([[0.0], [1.0]]), norm=np.inf))
    e = build_single_scale(s, SingleScaleParams(1.0, 0.2, 0.01, norm=np.inf, seed=4))
    d = np.abs(e.coords[0] - e.coords[1]).max()
    assert abs(d - 1.0 / 1.2) < 1e-12          # T_1(1)/(1+2*sqrt(0.01))


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
    assert greedy_net(s, p.net_radius).size < s.n
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
    for sc in e.scales:
        one = build_single_scale(s, SingleScaleParams(
            sc.r, 0.1, e.plan.delta, seed=sc.seed, rescale_c=0.0,
            dim_hat=e.dim_hat))
        if sc.dists is None:
            assert one.k == 0
            continue
        w = (1.0 + 0.1) ** (-sc.i * 0.5)
        np.testing.assert_allclose(pdist(one.coords), sc.dists / w,
                                   rtol=1e-11, atol=0.0)
        checked += 1
    assert checked > 100


@pytest.mark.parametrize("kind, params, r, delta", [
    ("ultrametric", dict(depth=7, base=2.0), 0.03, 0.1),
    ("subspace", dict(n=80, ambient_dim=10, intrinsic_dim=3, seed=2), 0.02,
     0.1),
    ("ball", dict(n=40, dim=3, norm="linf", seed=1), 0.001, 0.0025),
])
def test_smoothing_h_is_the_per_cluster_masked_min(kind, params, r, delta):
    s = normalize(generate(kind, **params))
    e = build_single_scale(s, SingleScaleParams(r, 0.1, delta, seed=3))
    dmat = s.distance_matrix()
    by_members = {c.members.tobytes(): c for c in e.clusters}
    multi = 0
    for part in e.decomposition.partitions:
        multi += part.size > 1
        for members in part.clusters:
            # the gather over each cluster's outside, one cluster at a time
            if len(members) < s.n:
                outside = np.ones(s.n, dtype=bool)
                outside[members] = False
                want = dmat[np.ix_(members, np.flatnonzero(outside))].min(axis=1)
            else:
                want = np.full(len(members), np.inf)
            assert np.array_equal(by_members[members.tobytes()].h_values,
                                  want)
    assert multi > 0


def reference_scale_clusters(dec, dmat, p):
    # the dedupe one cluster at a time: every carving's clusters keyed by
    # their member bytes, in order of first appearance, the counts adding
    # up over the carvings (a certain decomposition's one view counts m
    # times), and h one masked row-min over each carving's new clusters
    runs = {}
    for part in dec.partitions:
        runs.setdefault(id(part), [part, 0])[1] += 1
    entry_order, entries = {}, []
    for part, times in runs.values():
        fresh = []
        for members in part.clusters:
            at = entry_order.get(members.tobytes())
            if at is None:
                fresh.append(members)
            else:
                entries[at][1] += times
        if not fresh:
            continue
        rows = np.concatenate(fresh)
        lab = part.labels
        h_rows = np.where(lab[rows, None] == lab[None, :], np.inf,
                          dmat[rows]).min(axis=1)
        w_rows = np.minimum(1.0, (p.delta / p.r) * h_rows)
        lo = 0
        for members in fresh:
            hi = lo + len(members)
            entry_order[members.tobytes()] = len(entries)
            entries.append([members, times, w_rows[lo:hi], h_rows[lo:hi]])
            lo = hi
    return entries


def test_scale_clusters_match_the_per_cluster_reference(monkeypatch):
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
            want = reference_scale_clusters(sc.decomposition,
                                            s.distance_matrix(), sc.params)
            got = sc.clusters
            assert len(got) == len(want)
            for g, (members, count, weights, h) in zip(got, want):
                assert g.members.dtype == np.intp
                assert np.array_equal(g.members, members)
                assert type(g.count) is int and g.count == count
                assert np.array_equal(g.weights, weights)
                assert np.array_equal(g.h_values, h)
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


# --- l1 specifics


def test_l1_merged_cuts_isometric_on_net():
    rng = np.random.default_rng(5)
    s = normalize(PointSet(rng.uniform(0, 10, (10, 2)), norm=1.0))
    p = SingleScaleParams(1.0, 0.1, 0.1, norm=1.0, seed=2)
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
    e = build_single_scale(s, SingleScaleParams(1.0, 0.1, 0.1, norm=1.0, seed=2))
    ex = contract_audit(e).extras
    assert ex["max_lipschitz"] <= 1.0 + 1e-9
    assert ex["same_cluster_excess"] <= 1e-9


# --- l-infinity specifics


def test_linf_exact_frechet():
    rng = np.random.default_rng(7)
    s = normalize(PointSet(rng.uniform(0, 40, (60, 3)), norm=np.inf))
    p = SingleScaleParams(20.0, 0.2, 0.01, norm=np.inf, seed=2)
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


def test_linf_requires_small_delta():
    with pytest.raises(BadParams):
        SingleScaleParams(1.0, 0.2, 0.2, norm=np.inf)


def test_linf_multi_cluster_path():
    # two short segments far apart: every carve radius covers a whole
    # segment but never bridges the gap, so each partition is exactly the
    # two segments -- multi-cluster, perfectly padded, deterministic
    pts = np.concatenate([np.arange(20.0), 10000.0 + np.arange(20.0)])
    s = normalize(PointSet(pts[:, None], norm=np.inf))
    p = SingleScaleParams(0.04, 0.2, 0.01, norm=np.inf, seed=5)
    e = build_single_scale(s, p)
    assert all(part.size == 2 for part in e.decomposition.partitions)
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


@pytest.mark.parametrize("kind, r, delta, dim_hat, saturated", [
    # a snowflake scale (its delta at eps 0.1, alpha 0.5): L_r(1) == r, so
    # the 27 multi-point clusters have one metric per size, 4 in all
    ("line", 1.1 ** -92, 1.1 ** -75, None, True),
    # L_r(1) < r: 29 multi-point clusters, translates of 4 runs of the line
    ("line", 0.05, 0.2, 1.0, False),
    # the same scale on a 12-point l1 ball: 11 multi-point clusters of
    # sizes 2 to 4; a pair is a line, the larger metrics go to the LP
    ("ball", 1.1 ** -92, 1.1 ** -75, None, True),
], ids=["saturated", "translated", "ball"])
def test_l1_scale_solves_one_cut_lp_per_distinct_metric(
        monkeypatch, kind, r, delta, dim_hat, saturated):
    # a line cluster's cuts come in closed form, any other cluster's from
    # the LP; either way each distinct transformed metric is decomposed
    # once, and the LP runs only where no closed form was found
    if kind == "line":
        s = normalize(generate("line", n=10, norm="l1"))
    else:
        s = normalize(generate("ball", n=12, dim=3, norm="l1"))
    p = SingleScaleParams(r=r, eps=0.1, delta=delta, seed=3, dim_hat=dim_hat)
    assert (laplace_transform(1.0, r) == r) == saturated
    closed, solved = [], []

    def closed_form(lr, order):
        cuts = circular_cuts(lr, order)
        if cuts is not None:
            closed.append(lr.tobytes())
        return cuts

    def counting(lr):
        solved.append(lr.tobytes())
        return cut_decomposition(lr)

    monkeypatch.setattr(single_scale, "circular_cuts", closed_form)
    monkeypatch.setattr(single_scale, "cut_decomposition", counting)
    e = build_single_scale(s, p)
    decomposed = closed + solved
    dmat = s.distance_matrix()
    metrics = []
    for entry in e.clusters:
        mem = entry.members
        if len(mem) > 1:
            lr = laplace_transform(dmat[np.ix_(mem, mem)], e.params.r)
            np.fill_diagonal(lr, 0.0)
            metrics.append(lr.tobytes())
        # the per-cluster route, with nothing shared, gives the same map
        alone = _embed_cluster_l1(dmat[np.ix_(mem, mem)],
                                  np.flatnonzero(np.isin(mem, e.net.members)),
                                  e.params.r, {})
        assert np.array_equal(entry.coords, alone)
    assert len(metrics) > len(set(metrics)) > 1
    assert sorted(decomposed) == sorted(set(metrics))
    if kind == "line":
        assert solved == []
    else:
        assert len(solved) > 1
    assert contract_audit(e).passed


def test_all_singleton_scale():
    # delta_dec / 2 = 0.6 < 1: no carve radius reaches a neighbour
    s = normalize(generate("grid", side=5, dims=2))
    p = SingleScaleParams(r=0.005, eps=0.1, delta=0.1, seed=2, dim_hat=1.0)
    e = build_single_scale(s, p)
    dec = e.decomposition
    assert dec.delta / 2.0 < 1.0
    assert e.k == 0
    assert len(dec.partitions) == e.m
    for part in dec.partitions:
        assert [c.tolist() for c in part.clusters] == [[i] for i in range(s.n)]
        assert np.array_equal(part.labels, np.arange(s.n))
    assert padding_audit(s, dec).passed
    assert contract_audit(e).passed
    # the batch a sampled carving would draw, whose random carvings give,
    # as sets, the same clusters and the same padded bits
    assert dec.m == batch_size(EPS_PAD, s.n, dec.dim_hat)
    dmat = s.distance_matrix()
    close = (dmat <= dec.pad_radius) & ~np.eye(s.n, dtype=bool)
    *batch, padded = decomposition._sample(dmat, dec.delta, np.nonzero(close),
                                           dec.m, dec.seed, 0)
    for part in decomposition.partition_views(*batch):
        assert sorted(c.tolist() for c in part.clusters) == \
            [[i] for i in range(s.n)]
    assert np.array_equal(padded, dec.padded)


def test_single_scale_targets_the_input_norm():
    s = normalize(generate("ball", n=12, dim=2, norm="linf", seed=1))
    e = build_single_scale(s, SingleScaleParams(r=8.0, eps=0.1,
                                                delta=0.0025))
    assert e.params.norm == np.inf
    assert e.params.rescale_c == 0.0
    assert contract_audit(e).passed
    # the l-infinity rule delta <= eps^2/4 holds for a resolved norm too
    with pytest.raises(BadParams, match="eps\\^2/4"):
        build_single_scale(s, SingleScaleParams(r=8.0, eps=0.1, delta=0.01))


# --- degenerate cluster helpers


def test_singleton_and_empty_net_clusters():
    one = np.zeros((1, 1))
    none = np.array([], dtype=np.intp)
    assert _embed_cluster_l1(one, none, 1.0, {}).shape == (1, 0)
    assert _embed_cluster_l1(one, np.array([0]), 1.0, {}).shape == (1, 0)
    assert _embed_cluster_linf(one, none, 1.0).shape == (1, 0)
    pair = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert _embed_cluster_linf(pair, none, 1.0).shape == (2, 0)
    # T_r(0) = 0: a singleton's own net point would write an all-zero column
    assert _embed_cluster_linf(one, np.array([0]), 1.0).shape == (1, 0)


# --- parameters, determinism, serialization


def test_param_validation():
    with pytest.raises(BadParams):
        SingleScaleParams(0.0, 0.1, 0.1)
    with pytest.raises(BadParams):
        SingleScaleParams(1.0, 0.25, 0.1)
    with pytest.raises(BadParams):
        SingleScaleParams(1.0, 0.1, 0.3)


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
    for bad in (b'[1]', b'{"n":2}', b'{"n":-1,"k":0}', b'{"n":2.0,"k":1}'):
        doctored = len(bad).to_bytes(4, "little") + bad + blob[4 + hlen:]
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
