import dataclasses
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.distance import pdist, squareform

import snowdim.single_scale as single_scale
import snowdim.snowflake as snowflake
import snowdim.transforms as transforms
from snowdim.errors import (BadParams, ClusterTooLarge, EmptyInput,
                            NotEuclidean)
from snowdim.decomposition import build_decomposition
from snowdim.labeling import dls_build, dumps_labels
from snowdim.points import PointSet, generate, greedy_net, normalize
from snowdim.single_scale import (SingleScaleParams, build_single_scale,
                                  contract_audit, loads_coords)
from snowdim.points import norm_label
from snowdim.snowflake import (band_center, build_snowflake, compute_M,
                               distortion_audit, dumps, scale_count,
                               scale_plan)

G_1 = 0.7950600976206501          # G_1(1) = sqrt(1 - e^-1)


def line_pair():
    return normalize(PointSet(np.array([[0.0], [1.0]])))


def small_grid():
    return normalize(generate("grid", side=4, dims=2))


def direct_sum_distances(e):
    """Pair distances of the l2 direct sum of e's scales, normalized: the
    root of the summed per-scale squared distances over M."""
    return np.sqrt(np.square(e.scale_dists).sum(axis=0) / e.plan.M)


# --- plan parameters


def test_scale_count_frozen():
    # ceil((3/(1-alpha)) * ceil(log_{1+eps}(1/eps))); ceil(log_1.1 10) = 25
    assert scale_count(0.5, 0.1) == 150
    assert scale_count(0.7, 0.1) == 250
    assert scale_count(0.9, 0.1) == 750


def test_plan_two_points():
    plan = scale_plan(line_pair(), 0.5, 0.1)
    # eps^5 <= 1.1^i <= eps^-5 * diam with diam = 1
    assert (plan.i_lo, plan.i_hi) == (-120, 120)
    assert plan.p == 150
    assert abs(plan.delta - 1.1 ** -75) < 1e-18
    assert 0.1 ** 4 <= plan.delta <= 0.1 ** 2


def test_plan_validation():
    with pytest.raises(BadParams):
        scale_plan(line_pair(), 1.0, 0.1)
    with pytest.raises(BadParams):
        scale_plan(line_pair(), 0.5, 0.3)
    with pytest.raises(EmptyInput):
        scale_plan(normalize(PointSet(np.zeros((1, 1)))), 0.5, 0.1)
    with pytest.raises(BadParams):
        scale_plan(PointSet(np.array([[0.0], [2.0]])), 0.5, 0.1)


@settings(max_examples=200, deadline=None)
@given(alpha=st.floats(0.05, 0.95), eps=st.floats(0.01, 0.2499))
def test_every_plan_meets_the_linf_delta_rule(alpha, eps):
    # every accepted plan's delta is within the l-infinity single-scale
    # rule delta <= eps^2/4, so scale_clusters never refuses a snowflake
    # scale on it
    s = normalize(PointSet(np.array([[0.0], [1.0]]), norm=np.inf))
    try:
        plan = scale_plan(s, alpha, eps)
    except BadParams:
        return
    assert plan.delta <= eps ** 2 / 4


# --- the normalizer M


def test_compute_M_p2_expansion():
    # two terms b in {0, 1}: G(1)^2 + ((1+eps) * G(1/(1+eps)))^2
    for eps in (0.05, 0.1, 0.2):
        g0 = 1.0 - math.exp(-1.0)
        g1 = (1.0 + eps) ** 2 * (1.0 - math.exp(-(1.0 + eps) ** -2))
        assert abs(compute_M(eps, 2) - (g0 + g1)) < 1e-14
        assert compute_M(eps, 2) > 0


def test_compute_M_against_high_precision_oracle():
    mp = pytest.importorskip("mpmath")
    mp.mp.prec = 256
    for eps, p in ((0.1, 150), (0.1, 250), (0.2, 36)):
        tot = mp.mpf(0)
        for b in range(p // 2 - p + 1, p // 2 + 1):
            t = (1 + mp.mpf(eps)) ** (-b)
            tot += ((1 + mp.mpf(eps)) ** b) ** 2 * (1 - mp.e ** (-t * t))
        assert abs(compute_M(eps, p) - float(tot)) <= 1e-12 * float(tot)


def test_normalizer_other_norms():
    # l-infinity combines by max: min(1, (1+eps)^b) peaks at exactly 1
    assert compute_M(0.1, 150, np.inf) == 1.0
    # l1 mirror is a positive sum dominated by its ~p/2 near-unit terms
    m1 = compute_M(0.1, 150, 1.0)
    assert 0 < m1 < 150
    assert band_center(0.1, 150, 0.5, np.inf) == 1.0


def test_a_scale_sum_past_extended_precision_is_refused():
    # at alpha = 0.999 the window holds p = 594,000 groups at eps = 0.02
    # and 1,389,000 at 0.01, and the largest l2 terms overflow extended
    # precision: the plan refuses, naming p, before any scale is built
    # and without a warning. p < 1 is refused before anything is summed
    s = normalize(generate("line", n=4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BadParams, match="p = 594000 "):
            build_snowflake(s, 0.999, 0.02)
        with pytest.raises(BadParams, match="p = 1389000 "):
            scale_plan(s, 0.999, 0.01)
        for norm in (2.0, 1.0, np.inf):
            with pytest.raises(BadParams, match="got 0"):
                compute_M(0.1, 0, norm)


# --- build + band


def test_two_point_band_and_center():
    e = build_snowflake(line_pair(), 0.5, 0.1, seed=3)
    d = float(np.linalg.norm(e.coords[0] - e.coords[1]))
    # d = 1 so the ratio is the image distance itself; the predicted
    # center is a constant of (eps, alpha, p) only
    assert abs(d / e.plan.center - 1.0) < 0.05
    # one output column for the direct sum of the nonempty scales
    assert e.k == 1 < e.assembled_k
    assert np.allclose(pdist(e.coords), direct_sum_distances(e),
                       rtol=1e-12, atol=0.0)
    rep = distortion_audit(e)
    assert rep.passed
    assert rep.pair_count == 1


def test_small_grid_band():
    e = build_snowflake(small_grid(), 0.5, 0.1, seed=1)
    rep = distortion_audit(e)
    assert rep.passed and not rep.violations
    ex = rep.extras
    assert ex["band_width"] <= 1.0 + 16.0 * 0.1
    assert ex["band_width"] < 1.05          # measured ~1.0005
    assert ex["max_tail_ratio"] <= 1.0
    assert ex["min_dominant_ratio"] >= 0.45
    assert ex["padded_dominant_pairs"] > 0


def test_alpha_07_band():
    e = build_snowflake(small_grid(), 0.7, 0.1, seed=1)
    rep = distortion_audit(e)
    assert rep.passed
    assert rep.extras["band_width"] < 1.05
    # ratios concentrate near the alpha-dependent center
    assert abs(rep.ratio_mean / e.plan.center - 1.0) < 0.05


def test_group_structure_and_dimension():
    s = small_grid()
    e = build_snowflake(s, 0.5, 0.1, seed=1)
    plan = e.plan
    # l2 keeps each scale's pair distances, not a block, as one row of the
    # embedding's (scales x pairs) array, which a scale of singletons
    # leaves zero; its width is the rank bound
    # min(n, sum over distinct clusters of |C| - 1)
    assert e.scale_dists.shape == (len(e.scale_k), e.n * (e.n - 1) // 2)
    assert np.array_equal(e.scale_dists.any(axis=1), e.scale_k > 0)
    assert ((0 <= e.scale_k) & (e.scale_k <= e.n)).all()
    for i in plan.scale_indices[::25]:
        sp = snowflake._scale_params(e, i)
        clusters = single_scale.scale_clusters(s, sp).clusters
        assert e.scale_k[i - plan.i_lo] == min(
            e.n, sum(len(c.members) - 1 for c in clusters))
    # direct sum: total width is the sum of the scale widths
    assert e.assembled_k == e.scale_k.sum()
    # the l2 output is that sum rewritten in at most n - 1 coordinates
    assert np.allclose(pdist(e.coords), direct_sum_distances(e),
                       rtol=1e-12, atol=0.0)
    assert e.k == e.coords.shape[1] <= e.n - 1 < e.assembled_k
    assert e.theory_k == plan.p * e.theory_k_scale


def linf_snowflake():
    s = normalize(generate("ball", n=12, dim=2, norm="linf", seed=1))
    return s, build_snowflake(s, 0.5, 0.1, seed=3)


def test_linf_keeps_per_scale_distances_and_writes_n_columns():
    # the l-infinity twin of the l2 record: no scale keeps its block, each
    # keeps its pair distances as a row of scale_dists, which a scale of
    # width 0 leaves zero; the output is the n-column Frechet map of their
    # max, a symmetric matrix with a zero diagonal
    s, e = linf_snowflake()
    assert e.scale_dists.shape == (len(e.scale_k), e.n * (e.n - 1) // 2)
    assert (e.scale_k == 0).any()
    assert np.array_equal(e.scale_dists.any(axis=1), e.scale_k > 0)
    assert e.coords.shape == (e.n, e.n) and e.k == e.n
    assert np.array_equal(e.coords, e.coords.T)
    assert not np.diagonal(e.coords).any()
    assert e.assembled_k == e.scale_k.sum() > e.k
    assert distortion_audit(e).passed


def linf_sets():
    return {
        "ball12": normalize(generate("ball", n=12, dim=2, norm="linf",
                                     seed=1)),
        "grid5": normalize(generate("grid", side=5, dims=2, norm="linf")),
        "line12": normalize(generate("line", n=12, norm="linf")),
    }


def within_block_rounding(got, want, block) -> bool:
    """Whether every distance in ``got`` lies within 2 ulps of the
    block's largest entry of ``want``, the block's own distances: a
    closed-form record skips the rounding of the block's subtraction."""
    return bool(np.abs(got - want).max() <= 2 * np.spacing(block.max()))


def test_linf_scale_distances_match_the_per_cluster_blocks(linf_reference):
    # every scale of a ball, a grid and a line rebuilt on its own and
    # written cluster by cluster: the record is scipy's Chebyshev pdist of
    # its block up to the block's rounding, its width is the block's, and
    # the max of the records is the pdist of the output exactly; the
    # coarse scales of one cluster read a net that leaves points out
    for s in linf_sets().values():
        e = build_snowflake(s, 0.5, 0.1, seed=3)
        plan = e.plan
        coarse = 0
        for t, i in enumerate(plan.scale_indices):
            sp = snowflake._scale_params(e, i)
            block = linf_reference(build_single_scale(s, sp))
            block *= (1.0 + plan.eps) ** (-i * (1.0 - plan.alpha))
            assert block.shape[1] == e.scale_k[t]
            if not e.scale_k[t]:
                assert not e.scale_dists[t].any()
                continue
            assert within_block_rounding(e.scale_dists[t],
                                         pdist(block, "chebyshev"), block)
            coarse += sp.one_cluster(s, e.dim_hat) and e.scale_k[t] < e.n
        assert coarse
        assert np.array_equal(pdist(e.coords, "chebyshev"),
                              e.scale_dists.max(axis=0))


@pytest.mark.parametrize("name", list(linf_sets()))
def test_linf_dists_match_the_blocks_at_forced_weights_and_radii(
        linf_clusters_reference, name):
    # weights forced below 1 on some members of a decomposed scale, and on
    # one cluster of every point: a pair of unequal weights takes no
    # closed form and scans its cluster's net columns. The same clusters
    # are also read at an r past the set's diameter, where every member's
    # farthest net point lies below r and comes from its sorted row's
    # prefix. Every case must give the block's distances
    s = linf_sets()[name]
    e = build_snowflake(s, 0.5, 0.1, seed=3)
    dmat = s.distance_matrix()
    iu, ju = np.triu_indices(s.n, k=1)
    rng = np.random.default_rng(0)
    checked = 0
    for i in e.plan.scale_indices[::7]:
        sp = snowflake._scale_params(e, i)
        sc = single_scale.scale_clusters(s, sp)
        in_net = snowflake._in_net(s, sc.params)
        w = snowflake._scale_weight(e.plan, i)
        combine = single_scale._linf_combine(sp.delta)
        for members, sizes, weights, rows in [
                (sc.members, sc.sizes, sc.weights,
                 (sc.decomposition.labels, sc.positions)),
                (sc.members, sc.sizes,
                 np.where(rng.random(len(sc.members)) < 0.3, 0.75, 1.0)
                 * sc.weights,
                 (sc.decomposition.labels, sc.positions)),
                (np.arange(s.n), np.array([s.n]),
                 np.where(np.arange(s.n) % 3 == 1, 0.5, 1.0), (None, None))]:
            for r in (sp.r, 2.0 * s.diameter()):
                k, got = snowflake._linf_dists(s, members, sizes,
                                               weights * combine, in_net, r,
                                               w, iu, ju, *rows)
                cuts = np.cumsum(sizes)[:-1]
                clusters = zip(np.split(members, cuts),
                               np.split(weights, cuts))
                block = w * linf_clusters_reference(dmat, clusters, in_net,
                                                    r, combine, 1.0)
                assert k == block.shape[1]
                if k:
                    checked += 1
                    assert within_block_rounding(
                        got, pdist(block, "chebyshev"), block)
    assert checked


def test_linf_one_cluster_scans_match_the_block_bit_for_bit():
    # a scale of one cluster whose net leaves two or more points out scans
    # its net columns for every pair with no net point, with the block's own
    # expression and subtraction: there the record is scipy's Chebyshev
    # pdist of the block (``_linf_block`` times w) exactly, not within the
    # block's rounding
    checked = 0
    for s in linf_sets().values():
        e = build_snowflake(s, 0.5, 0.1, seed=3)
        dmat = s.distance_matrix()
        iu, ju = np.triu_indices(s.n, k=1)
        for t, i in enumerate(e.plan.scale_indices):
            sp = snowflake._scale_params(e, i)
            in_net = snowflake._in_net(s, sp)
            scanned = ~(in_net[iu] | in_net[ju])
            if not scanned.any() or not sp.one_cluster(s, e.dim_hat):
                continue
            sc = single_scale.scale_clusters(s, sp)
            assert len(sc.sizes) == 1
            w = snowflake._scale_weight(e.plan, i)
            block = w * single_scale._linf_block(
                sc, dmat, in_net, single_scale._block_weights(sc, np.inf)[1])
            assert e.scale_k[t] == block.shape[1]
            assert np.array_equal(e.scale_dists[t][scanned],
                                  pdist(block, "chebyshev")[scanned])
            checked += 1
    assert checked


def test_l1_scale_distances_match_the_single_scale_blocks():
    # the l1 twin: no scale keeps its block, and every scale rebuilt on its
    # own by build_single_scale gives the record as scipy's cityblock
    # pdist of its block, up to the order of each row's sum; the line's
    # clusters are cut along one axis, the ball's along two
    for s in (normalize(generate("line", n=10, norm="l1")),
              normalize(generate("ball", n=7, dim=2, norm="l1", seed=1))):
        e = build_snowflake(s, 0.5, 0.1, seed=3)
        plan = e.plan
        assert e.scale_dists.shape == (len(e.scale_k),
                                       e.n * (e.n - 1) // 2)
        want = np.zeros_like(e.scale_dists)
        for t, i in enumerate(plan.scale_indices):
            one = build_single_scale(s, snowflake._scale_params(e, i))
            block = one.coords / one.rescale
            assert block.shape[1] == e.scale_k[t]
            if e.scale_k[t]:
                w = (1.0 + plan.eps) ** (-i * (1.0 - plan.alpha))
                want[t] = pdist(block * w, "cityblock")
        assert (e.scale_k == 0).any()
        np.testing.assert_allclose(e.scale_dists, want, rtol=1e-14, atol=0.0)
        assert distortion_audit(e).passed


@pytest.mark.parametrize("s", [
    normalize(generate("line", n=2, norm="l1")),
    normalize(generate("line", n=10, norm="l1", seed=0)),
    normalize(generate("line", n=70, norm="l1", seed=0)),     # two words
    normalize(generate("ball", n=12, dim=2, norm="l1", seed=0)),
    normalize(generate("grid", side=4, dims=2, norm="l1")),
], ids=["line2", "line10", "line70", "ball12", "grid4"])
def test_l1_output_is_the_direct_sum_one_column_per_cut(s):
    # the output's pair distances are the summed per-scale distances over
    # M; every column is a cut, taking one positive value on its members
    # and 0 elsewhere, and no two columns cut the points the same way
    e = build_snowflake(s, 0.5, 0.1, seed=0)
    np.testing.assert_allclose(pdist(e.coords, "cityblock"),
                               e.scale_dists.sum(axis=0) / e.plan.M,
                               rtol=1e-12, atol=0.0)
    cols = e.coords.T
    w = cols.max(axis=1)
    assert (w > 0).all()
    assert ((cols == 0) | (cols == w[:, None])).all()
    sides = cols > 0
    # complementing the sets that hold point 0 makes two complementary
    # sets equal
    sides[sides[:, 0]] ^= True
    assert len(np.unique(sides, axis=0)) == len(sides)
    assert distortion_audit(e).passed


def test_threshold_cuts_write_a_cut_and_its_complement_as_one():
    # {0} and {1, 2} are one cut metric: both are kept as the set that
    # leaves point 0 out, within the n points, so they share one key; the
    # bool row keeps the cut first written, {1, 2}, whose gap comes first
    block = np.array([[2.0, 0.0], [0.0, 3.0], [0.0, 3.0]])
    keys, w, sides = snowflake._threshold_cuts(block)
    assert np.array_equal(keys, transforms._pack(np.array([[0, 1, 1]],
                                                          dtype=bool)))
    assert np.array_equal(w, [5.0])
    assert np.array_equal(sides, [[False, True, True]])


def test_l2_snowflake_realizes_no_cluster_and_squeezes_no_block(monkeypatch):
    import snowdim
    import snowdim.projection as projection
    import snowdim.transforms as transforms
    originals = {"euclidean_realization": transforms.euclidean_realization,
                 "exact_reduce": projection.exact_reduce}
    calls = dict.fromkeys(originals, 0)

    def counting(name):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return originals[name](*args, **kwargs)
        return wrapped

    # every module that holds a reference, so no lookup escapes the count
    for mod in (snowdim, transforms, projection, single_scale, snowflake):
        for name in originals:
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counting(name))
    # the counters see only the scales built in this process
    monkeypatch.setattr(snowflake, "_worker_count", lambda: 1)
    e = build_snowflake(small_grid(), 0.5, 0.1, seed=1)
    assert distortion_audit(e).passed
    # nor does an l2 single-scale build, which factors the same Gram
    build_single_scale(small_grid(), SingleScaleParams(2.0, 0.1, 0.1))
    assert calls == {"euclidean_realization": 0, "exact_reduce": 0}
    # the counters do see a call
    snowdim.euclidean_realization(np.array([[0.0, 1.0], [1.0, 0.0]]))
    snowdim.exact_reduce(np.eye(2))
    assert calls == {"euclidean_realization": 1, "exact_reduce": 1}


def test_each_sample_makes_one_generator_and_spawns_no_seed(monkeypatch):
    import snowdim.decomposition as decomposition
    # generators and spawns count only while a _sample call is running
    calls = {"_sample": 0, "default_rng": 0, "spawn": 0}
    inside = []
    sample, default_rng = decomposition._sample, np.random.default_rng

    class CountingSeedSequence(np.random.SeedSequence):
        def spawn(self, n_children):
            calls["spawn"] += len(inside)
            return super().spawn(n_children)

    def counting_rng(seed=None):
        calls["default_rng"] += len(inside)
        return default_rng(seed)

    def counting_sample(*args):
        calls["_sample"] += 1
        inside.append(True)
        try:
            return sample(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(np.random, "SeedSequence", CountingSeedSequence)
    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    monkeypatch.setattr(decomposition, "_sample", counting_sample)
    # the counters see only the scales built in this process
    monkeypatch.setattr(snowflake, "_worker_count", lambda: 1)
    e = build_snowflake(small_grid(), 0.5, 0.1, seed=1)
    assert distortion_audit(e).passed
    assert calls["_sample"] > 0
    assert calls == {"_sample": calls["_sample"],
                     "default_rng": calls["_sample"], "spawn": 0}


def test_theory_k_independent_of_n():
    a = build_snowflake(normalize(generate("grid", side=4, dims=2)),
                        0.5, 0.1, seed=1, dim_hat=2.0)
    b = build_snowflake(normalize(generate("grid", side=6, dims=2)),
                        0.5, 0.1, seed=1, dim_hat=2.0)
    assert a.theory_k == b.theory_k
    assert a.k != b.k                      # concrete count does move


def test_scale_covariance_via_normalization():
    # doubling the raw coordinates only changes the recorded unit scale;
    # the normalized build is identical and original-unit snowflaked
    # distances pick up exactly 2^alpha through scale^alpha
    raw = np.array([[0.0], [1.0], [3.0], [7.0]])
    s1 = normalize(PointSet(raw))
    s2 = normalize(PointSet(2.0 * raw))
    e1 = build_snowflake(s1, 0.5, 0.1, seed=2)
    e2 = build_snowflake(s2, 0.5, 0.1, seed=2)
    assert np.array_equal(e1.coords, e2.coords)
    assert abs(s2.scale / s1.scale - 2.0) < 1e-12
    d1 = e1.image_distance_matrix() * s1.scale ** 0.5
    d2 = e2.image_distance_matrix() * s2.scale ** 0.5
    assert np.allclose(d2, d1 * 2.0 ** 0.5, rtol=1e-12)


def test_l1_and_linf_smoke():
    raw = normalize(PointSet(np.array([[0.0], [1.0], [2.5], [4.0], [6.0]]),
                             norm=1.0))
    e = build_snowflake(raw, 0.5, 0.1, seed=2, norm=1.0)
    rep = distortion_audit(e)
    assert rep.extras["band_width"] < 1.3
    assert rep.extras["min_dominant_ratio"] >= 0.45
    assert rep.extras["max_tail_ratio"] <= 1.0
    # direct sum: its width is the sum of the scale widths, and the output
    # writes it with one column per distinct cut
    assert e.assembled_k == e.scale_k.sum() > e.k

    s_inf = normalize(PointSet(np.array([[0.0], [1.0], [2.5], [4.0]]),
                               norm=np.inf))
    e_inf = build_snowflake(s_inf, 0.5, 0.1, seed=2, norm=np.inf)
    # max combination: the output is the Frechet map of the max of the
    # per-scale distances, n columns; the layout of one block per scale
    # it replaces is assembled_k wide
    assert e_inf.k == e_inf.n
    assert e_inf.assembled_k == e_inf.scale_k.sum()
    rep_inf = distortion_audit(e_inf)
    assert rep_inf.extras["band_width"] < 1.3
    assert rep_inf.extras["min_dominant_ratio"] >= 0.45


def test_target_norm_defaults_to_the_input_norm():
    # with no norm argument an l-infinity input is embedded into
    # l-infinity
    s = normalize(generate("ball", n=12, dim=2, norm="linf", seed=1))
    e = build_snowflake(s, 0.5, 0.1)
    assert e.plan.norm == np.inf
    assert distortion_audit(e).passed


def _dominant_pairs_per_partition(dec, carvings):
    # the reference: one n x n product per partition, and-ed together
    n = dec.n
    ok = np.ones((n, n), dtype=bool)
    for t, (lab, _, _) in enumerate(carvings(dec)):
        pad = dec.padded[t]
        ok &= (lab[:, None] == lab[None, :]) & (pad[:, None] & pad[None, :])
    return ok


def test_dominant_pair_mask_matches_the_per_partition_products(carvings):
    # five runs of five points with uneven gaps: carvings merge runs in
    # some partitions and split them in others, and points near a gap
    # lose their padding in some
    pts = np.concatenate([c + np.arange(5.0) for c in (0, 30, 45, 100, 160)])
    s = normalize(PointSet(pts[:, None]))
    iu, ju = np.triu_indices(s.n, k=1)
    shared = unpadded = 0
    for seed in range(20):
        dec = build_decomposition(s, (60.0, 80.0, 120.0)[seed % 3], 3.0, 0.9,
                                  seed=seed, dim_hat=1.0)
        e = SimpleNamespace(decomposition=dec, n=s.n)
        want = _dominant_pairs_per_partition(dec, carvings)
        assert np.array_equal(snowflake._dominant_pair_mask(e, iu, ju),
                              want[iu, ju])
        shared += int(want.sum() - np.trace(want))
        unpadded += int((~dec.padded.all(axis=0)).sum())
    assert shared > 0 and unpadded > 0
    # a built scale whose one partition repeats m times
    grid = normalize(generate("grid", side=5, dims=2))
    sc = single_scale.scale_clusters(grid,
                                     SingleScaleParams(2.0, 0.1, 0.1, seed=0))
    iu, ju = np.triu_indices(grid.n, k=1)
    want = _dominant_pairs_per_partition(sc.decomposition, carvings)
    assert np.array_equal(snowflake._dominant_pair_mask(sc, iu, ju),
                          want[iu, ju])


def test_scale_errors_name_the_scale_and_chain(monkeypatch):
    cause = NotEuclidean("Gram spectrum too negative")

    def fail(s, params):
        raise cause

    # the l2 path decomposes each scale with scale_clusters
    monkeypatch.setattr(snowflake, "scale_clusters", fail)
    with pytest.raises(NotEuclidean) as info:
        build_snowflake(line_pair(), 0.5, 0.1, seed=0)
    assert str(info.value).startswith("scale i=")
    assert str(info.value).endswith(": Gram spectrum too negative")
    assert info.value.__cause__ is cause
    assert cause.args == ("Gram spectrum too negative",)

    # anything that is not a library error passes through untouched
    other = MemoryError("out of memory")

    def crash(s, params):
        raise other

    monkeypatch.setattr(snowflake, "scale_clusters", crash)
    with pytest.raises(MemoryError) as info:
        build_snowflake(line_pair(), 0.5, 0.1, seed=0)
    assert info.value is other
    assert other.args == ("out of memory",)


# --- the scales split over processes


def snowflake_bytes(s) -> list[bytes]:
    """The seed-0 dump, report JSON and, for l2, label bytes."""
    e = build_snowflake(s, 0.5, 0.1, seed=0)
    out = [dumps(e), distortion_audit(e).dumps_json().encode()]
    if e.plan.norm == 2.0:
        out.append(dumps_labels(dls_build(e, 0.1)))
    return out


@pytest.mark.parametrize("kind, params", [
    ("line", dict(n=10, norm="l1", seed=0)),
    ("ball", dict(n=12, dim=2, norm="l1", seed=0)),
    ("grid", dict(side=8, dims=2)),
    ("ball", dict(n=32, dim=4, norm="linf", seed=0)),
], ids=["l1-line", "l1-ball", "l2-grid", "linf-ball"])
def test_the_bytes_do_not_depend_on_the_worker_count(monkeypatch, kind,
                                                     params):
    # the caller merges the scales in scale order, whichever process built
    # them, and every helper is gone when the build returns
    got = []
    for w in (1, 2, 3):
        monkeypatch.setattr(snowflake, "_worker_count", lambda w=w: w)
        got.append(snowflake_bytes(normalize(generate(kind, **params))))
        assert multiprocessing.active_children() == []
    assert got[0] == got[1] == got[2]


def counting_scale_clusters(calls: list):
    scale_clusters = single_scale.scale_clusters

    def counting(s, params):
        calls.append(params.r)
        return scale_clusters(s, params)
    return counting


def decomposed_scales(e) -> list[float]:
    """The r of every scale of e that scale_clusters decomposes: all but
    those of one cluster, which l2 and l-infinity write in closed form
    and l1 builds from the whole set's cuts alone."""
    params = [snowflake._scale_params(e, i) for i in e.plan.scale_indices]
    return [sp.r for sp in params if not sp.one_cluster(e.source, e.dim_hat)]


def blas_threads() -> list[int]:
    return [get() for get, _ in snowflake._openblas_pools()]


def test_the_caller_builds_every_wth_scale(monkeypatch):
    threads = blas_threads()
    assert threads
    calls = []
    monkeypatch.setattr(snowflake, "scale_clusters",
                        counting_scale_clusters(calls))
    monkeypatch.setattr(snowflake, "_worker_count", lambda: 1)
    e = build_snowflake(small_grid(), 0.5, 0.1, seed=1)
    assert calls == decomposed_scales(e)
    # with two CPUs a helper builds every other decomposed scale; this
    # process the rest
    calls.clear()
    monkeypatch.setattr(snowflake, "_worker_count", lambda: 2)
    e = build_snowflake(small_grid(), 0.5, 0.1, seed=1)
    assert calls == decomposed_scales(e)[::2]
    assert multiprocessing.active_children() == []
    # OpenBLAS is held to one thread only while the helpers run
    assert blas_threads() == threads


@pytest.mark.parametrize("at, error", [
    (1, NotEuclidean("Gram spectrum too negative")),
    (1, MemoryError("out of memory")),
    (2, NotEuclidean("Gram spectrum too negative")),
], ids=["helper", "helper-other", "caller"])
def test_a_failing_scale_stops_every_helper(monkeypatch, at, error):
    # with two CPUs scale t is built by process t mod 2: t = 1 by the
    # helper, whose error comes back through its pipe, and t = 2 by the
    # caller while the helper still runs
    plan = scale_plan(small_grid(), 0.5, 0.1)
    i = plan.i_lo + at
    r = (1.0 + 0.1) ** i
    scale_clusters = single_scale.scale_clusters

    def fail_at(s, params):
        if params.r == r:
            raise error
        return scale_clusters(s, params)

    monkeypatch.setattr(snowflake, "scale_clusters", fail_at)
    monkeypatch.setattr(snowflake, "_worker_count", lambda: 2)
    threads = blas_threads()
    with pytest.raises(type(error)) as info:
        build_snowflake(small_grid(), 0.5, 0.1, seed=1)
    assert multiprocessing.active_children() == []
    assert blas_threads() == threads
    if isinstance(error, NotEuclidean):
        assert str(info.value) == (
            f"scale i={i} (r={r:.6g}): Gram spectrum too negative")
    else:
        assert info.value.args == error.args
    notes = getattr(info.value, "__notes__", [])
    assert any("raised in a scale helper" in n for n in notes) == (at == 1)
    # a library error is chained to its original, also across the pipe
    cause = info.value.__cause__
    if isinstance(error, NotEuclidean):
        assert type(cause) is NotEuclidean and cause.args == error.args
    else:
        assert cause is None


def test_an_error_that_cannot_be_pickled_comes_back_as_its_traceback(
        monkeypatch):
    class Unsendable(Exception):
        pass                        # a local class does not pickle

    plan = scale_plan(small_grid(), 0.5, 0.1)
    r = (1.0 + 0.1) ** (plan.i_lo + 1)
    scale_clusters = single_scale.scale_clusters

    def fail_at(s, params):
        if params.r == r:
            raise Unsendable("no way back")
        return scale_clusters(s, params)

    monkeypatch.setattr(snowflake, "scale_clusters", fail_at)
    monkeypatch.setattr(snowflake, "_worker_count", lambda: 2)
    with pytest.raises(RuntimeError, match="cannot be sent back") as info:
        build_snowflake(small_grid(), 0.5, 0.1, seed=1)
    assert "Unsendable: no way back" in str(info.value)
    assert multiprocessing.active_children() == []


def test_a_helper_that_dies_is_named_at_its_scale(monkeypatch):
    plan = scale_plan(small_grid(), 0.5, 0.1)
    r = (1.0 + 0.1) ** (plan.i_lo + 1)
    scale_clusters = single_scale.scale_clusters

    def die_at(s, params):
        if params.r == r:
            os._exit(3)
        return scale_clusters(s, params)

    monkeypatch.setattr(snowflake, "scale_clusters", die_at)
    monkeypatch.setattr(snowflake, "_worker_count", lambda: 2)
    with pytest.raises(RuntimeError, match=(
            rf"a scale helper exited \(code 3\) before sending scale "
            rf"i={plan.i_lo + 1}$")):
        build_snowflake(small_grid(), 0.5, 0.1, seed=1)
    assert multiprocessing.active_children() == []


def test_without_sched_getaffinity_the_caller_builds_every_scale(
        monkeypatch):
    # os.sched_getaffinity is Linux-only; elsewhere the build stays serial
    want = dumps(build_snowflake(small_grid(), 0.5, 0.1, seed=1))
    calls = []
    monkeypatch.setattr(snowflake, "scale_clusters",
                        counting_scale_clusters(calls))
    monkeypatch.delattr(os, "sched_getaffinity")
    e = build_snowflake(small_grid(), 0.5, 0.1, seed=1)
    assert dumps(e) == want
    assert calls == decomposed_scales(e)


def test_builds_in_two_threads_at_once_stay_in_the_process(monkeypatch):
    # forking beside another thread could copy a lock it holds, and two
    # builds would interleave the BLAS thread-count hold, so neither forks
    monkeypatch.setattr(snowflake, "_worker_count", lambda: 2)
    e = build_snowflake(small_grid(), 0.5, 0.1, seed=1)
    want = dumps(e)
    threads = blas_threads()
    calls = []
    monkeypatch.setattr(snowflake, "scale_clusters",
                        counting_scale_clusters(calls))
    start = threading.Barrier(2)
    got = [None, None]

    def build(j):
        start.wait()
        got[j] = dumps(build_snowflake(small_grid(), 0.5, 0.1, seed=1))

    workers = [threading.Thread(target=build, args=(j,)) for j in (0, 1)]
    for t in workers:
        t.start()
    for t in workers:
        t.join(timeout=120)
    assert got == [want, want]
    assert sorted(calls) == sorted(2 * decomposed_scales(e))
    assert multiprocessing.active_children() == []
    assert blas_threads() == threads


def _build_in_a_pool_worker() -> tuple[bytes, bool]:
    # runs in the worker process, so the patch stays there
    calls = []
    snowflake.scale_clusters = counting_scale_clusters(calls)
    e = build_snowflake(small_grid(), 0.5, 0.1, seed=1)
    return dumps(e), calls == decomposed_scales(e)


def test_a_daemonic_caller_builds_every_scale_itself(monkeypatch):
    # a Pool worker is daemonic and may start no process of its own
    monkeypatch.setattr(snowflake, "_worker_count", lambda: 2)
    want = dumps(build_snowflake(small_grid(), 0.5, 0.1, seed=1))
    with multiprocessing.get_context("fork").Pool(1) as pool:
        got, all_in_the_worker = pool.apply_async(
            _build_in_a_pool_worker).get(timeout=120)
    assert got == want
    assert all_in_the_worker


def test_l1_above_the_cut_cap_is_refused_before_any_scale(monkeypatch):
    # the coarser scales keep all 60 points of the ball in one cluster,
    # whose 1830 x 1830 candidate cuts on its second axis pass the cut
    # decomposition's cap: the whole ladder could never finish. The
    # single-scale build refuses it the same way
    calls = []
    monkeypatch.setattr(snowflake, "scale_clusters",
                        counting_scale_clusters(calls))
    monkeypatch.setattr(single_scale, "scale_clusters",
                        counting_scale_clusters(calls))
    s = normalize(generate("ball", n=60, dim=2, norm="l1", seed=0))
    with pytest.raises(ClusterTooLarge, match="crosses 3348900 candidate cuts"):
        build_snowflake(s, 0.5, 0.1)
    with pytest.raises(ClusterTooLarge, match="crosses 3348900 candidate cuts"):
        build_single_scale(s, SingleScaleParams(r=1.0, eps=0.1, delta=0.1))
    assert calls == []


def test_a_foreign_target_norm_is_refused_before_any_scale(monkeypatch):
    # every build embeds its input into its own norm: for every ordered
    # pair of distinct norms, build_snowflake refuses the target before
    # any scale is decomposed, even on a line, which every norm measures
    # alike; the input's own norm, given explicitly, still builds
    calls = []
    monkeypatch.setattr(snowflake, "scale_clusters",
                        counting_scale_clusters(calls))
    pairs = 0
    for source in ("l1", "l2", "linf"):
        s = normalize(generate("line", n=4, norm=source))
        for target in {1.0, 2.0, np.inf} - {s.norm}:
            msg = (f"^a build embeds its input into the input's own norm: "
                   f"this l{norm_label(s.norm)} input cannot target "
                   f"l{norm_label(target)}$")
            with pytest.raises(BadParams, match=msg):
                build_snowflake(s, 0.5, 0.1, norm=target)
            pairs += 1
    assert pairs == 6 and calls == []
    s = normalize(generate("line", n=4, norm="l1"))
    e = build_snowflake(s, 0.5, 0.1, seed=0, norm=s.norm)
    assert e.plan.norm == 1.0 and distortion_audit(e).passed


@pytest.mark.parametrize("points", [
    small_grid,
    lambda: normalize(generate("line", n=6, norm="l1")),
    lambda: normalize(generate("ball", n=8, dim=2, norm="linf", seed=1)),
], ids=["l2", "l1", "linf"])
def test_every_norm_builds_its_scales_from_the_cluster_arrays(monkeypatch,
                                                              points):
    # one scale_clusters call per decomposed scale and no single-scale
    # embedding, on every norm and through every module that holds the
    # builder
    import snowdim
    calls, built = [], []
    monkeypatch.setattr(snowflake, "scale_clusters",
                        counting_scale_clusters(calls))
    for mod in (snowdim, single_scale, snowflake):
        if hasattr(mod, "build_single_scale"):
            monkeypatch.setattr(mod, "build_single_scale",
                                lambda s, params: built.append(params))
    # the counters see only the scales built in this process
    monkeypatch.setattr(snowflake, "_worker_count", lambda: 1)
    e = build_snowflake(points(), 0.5, 0.1, seed=1)
    assert built == []
    assert calls == decomposed_scales(e)
    assert distortion_audit(e).passed


def test_an_linf_snowflake_builds_no_block(monkeypatch):
    # every l-infinity scale's distances are read off its cluster arrays:
    # the build writes no block and measures no pair over one; the audit
    # then measures the output's pairs once
    import snowdim.points as points
    calls = []

    def counting(name, f):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return f(*args, **kwargs)
        return wrapped

    # the source's own distances are measured before the counting starts
    s = normalize(generate("ball", n=12, dim=2, norm="linf", seed=1))
    s.distance_matrix()
    for mod, name in ((single_scale, "_linf_block"),
                      (points, "_pair_distances"),
                      (snowflake, "_pair_distances")):
        monkeypatch.setattr(mod, name, counting(name, getattr(mod, name)))
    monkeypatch.setattr(snowflake, "_worker_count", lambda: 1)
    e = build_snowflake(s, 0.5, 0.1, seed=3)
    assert calls == []
    assert distortion_audit(e).passed
    assert calls == ["_pair_distances"]


def test_an_l1_snowflake_measures_no_pair_before_its_audit(monkeypatch):
    # every l1 scale's distances are summed from its cut measure: the
    # build measures no pair over a block; the audit then measures the
    # output's pairs once
    import snowdim.points as points
    calls = []
    s = normalize(generate("ball", n=12, dim=2, norm="l1", seed=1))
    s.distance_matrix()
    for mod in (points, snowflake):
        def wrapped(*args, f=mod._pair_distances, name=mod.__name__,
                    **kwargs):
            calls.append(name)
            return f(*args, **kwargs)
        monkeypatch.setattr(mod, "_pair_distances", wrapped)
    monkeypatch.setattr(snowflake, "_worker_count", lambda: 1)
    e = build_snowflake(s, 0.5, 0.1, seed=3)
    assert calls == []
    assert distortion_audit(e).passed
    assert calls == ["snowdim.snowflake"]


@pytest.mark.parametrize("kind, params", [
    ("line", dict(n=10)), ("ball", dict(n=12, dim=2)),
    ("ball", dict(n=20, dim=2))], ids=["line10", "ball12", "ball20"])
def test_l1_scale_rows_match_an_fsum_oracle(monkeypatch, kind, params):
    # the oracle rebuilds each scale's block from its clusters and sums
    # |b_x - b_y| over the block's columns exactly, never reading the cut
    # measure the build sums; the build runs on one CPU and on two
    s = normalize(generate(kind, norm="l1", seed=0, **params))
    builds = []
    for w in (1, 2):
        monkeypatch.setattr(snowflake, "_worker_count", lambda: w)
        builds.append(build_snowflake(s, 0.5, 0.1, seed=0))
    e = builds[0]
    iu, ju = np.triu_indices(s.n, k=1)
    structure = single_scale.require_source(s)
    for t, i in enumerate(e.plan.scale_indices):
        sp = snowflake._scale_params(e, i)
        sc = single_scale.scale_clusters(s, sp)
        block = snowflake._scale_weight(e.plan, i) * single_scale._l1_block(
            sc.members, sc.sizes, snowflake._in_net(s, sp),
            single_scale._block_weights(sc, 1.0)[1],
            transforms.cut_weights(structure, sp.r))[0]
        want = np.array([math.fsum(row) for row in
                         np.abs(block[iu] - block[ju]).tolist()])
        for b in builds:
            assert b.scale_k[t] == block.shape[1]
            assert np.abs(b.scale_dists[t] - want).max() <= (
                1e-14 * want.max())


@pytest.mark.parametrize("scalar", ["alpha", "eps", "dim_hat", "seed"])
def test_numpy_scalar_parameters_dump_as_python_numbers(scalar):
    # a NumPy float32 or int64 builds, and the dump records it as the
    # Python number it stands for
    s = normalize(generate("line", n=6))
    args = dict(alpha=0.5, eps=0.1, dim_hat=1.0, seed=3)
    args[scalar] = (np.int64 if scalar == "seed" else np.float32)(
        args[scalar])
    e = build_snowflake(s, args["alpha"], args["eps"], seed=args["seed"],
                        dim_hat=args["dim_hat"])
    header = loads_coords(dumps(e))[0]
    assert header[scalar] == float(args[scalar])
    assert type(header[scalar]) is (int if scalar == "seed" else float)
    p = SingleScaleParams(r=np.float32(2.0), eps=np.float32(0.1),
                          delta=np.float32(0.01), seed=np.int64(3),
                          dim_hat=np.float32(1.0))
    header = loads_coords(single_scale.dumps(build_single_scale(s, p)))[0]
    assert [type(header[k]) for k in ("r", "eps", "delta", "seed")] == [
        float, float, float, int]


def closed_form_sets():
    return [
        ("grid8", normalize(generate("grid", side=8, dims=2))),
        ("ultra128", normalize(generate("ultrametric", depth=7, seed=0))),
        ("subspace60", normalize(generate("subspace", n=60, ambient_dim=10,
                                          intrinsic_dim=3, seed=0))),
        ("line8", normalize(generate("line", n=8))),
        ("linf-ball32", normalize(generate("ball", n=32, dim=4, norm="linf",
                                           seed=0))),
        ("l1-line10", normalize(generate("line", n=10, norm="l1", seed=0))),
        ("l1-ball12", normalize(generate("ball", n=12, dim=2, norm="l1",
                                         seed=0))),
    ]


def l1_decomposed_scale(job, sc, i):
    """(k, dists, part) of an l1 scale built from its decomposition: the
    width of the block of its clusters' traced cuts, the pair distances
    of the block's threshold cuts and those cuts."""
    sp = sc.params
    block = snowflake._scale_weight(job.plan, i) * single_scale._l1_block(
        sc.members, sc.sizes, snowflake._in_net(job.s, sp),
        single_scale._block_weights(sc, 1.0)[1],
        transforms.cut_weights(job.structure, sp.r))[0]
    keys, value, sides = snowflake._threshold_cuts(block)
    return (block.shape[1], snowflake._cut_dists(job, sides, value),
            (keys, value))


@pytest.mark.parametrize("name", [name for name, _ in closed_form_sets()])
def test_one_cluster_scales_match_their_decomposed_build(monkeypatch, name):
    # a scale the caller writes in closed form is the scale _build_scale
    # decomposes into one certain cluster: the same row (l-infinity: up to
    # the block's rounding), width and padded pairs, and the shared
    # predicate holds at exactly the scales whose first decomposition is
    # that one cluster. The width is the rank bound n - 1 in l2, and the
    # net's size in l-infinity. An l1 one-cluster scale is built by
    # _build_scale with no decomposition, with the width, row and
    # threshold cuts of its decomposed build bit for bit, with full and
    # partial nets, and again in chunks of a few pairs. So l2 and
    # l-infinity call _build_scale's decomposed build, l1 its
    # one-cluster build
    import snowdim.points as points
    s = dict(closed_form_sets())[name]
    e = build_snowflake(s, 0.5, 0.1, seed=0)
    plan = e.plan
    iu, ju = np.triu_indices(s.n, k=1)
    pair_d = s.distance_matrix()[iu, ju]
    job = snowflake._ScaleJob(s, plan, 0, e.dim_hat, iu, ju, pair_d,
                              snowflake._anchors(plan, pair_d),
                              single_scale.require_source(s))
    taken, nets = 0, set()
    for t, i in enumerate(plan.scale_indices):
        sp = snowflake._scale_params(job, i)
        sc = single_scale.scale_clusters(s, sp)
        dec = sc.decomposition
        certain_one = (dec.copies == dec.m and dec.sizes[0, 0] == s.n
                       and dec.seed == sp.seed * 31)
        assert sp.one_cluster(s, e.dim_hat) == certain_one
        if not certain_one:
            continue
        taken += 1
        k, dists, dom, part = snowflake._build_scale(job, i, sp,
                                                     s.norm == 1.0)
        if s.norm == 2.0:
            assert np.allclose(e.scale_dists[t], dists, rtol=1e-12,
                               atol=0.0)
            assert e.scale_k[t] == k == s.n - 1 and part is None
        elif s.norm == 1.0:
            nets.add(bool(snowflake._in_net(s, sp).all()))
            want_k, want_dists, want_part = l1_decomposed_scale(job, sc, i)
            assert e.scale_k[t] == k == want_k > 0
            assert np.array_equal(e.scale_dists[t], dists)
            assert dists.tobytes() == want_dists.tobytes()
            assert all(a.tobytes() == b.tobytes()
                       for a, b in zip(part, want_part))
            with monkeypatch.context() as mp:
                for mod in (snowflake, points):
                    mp.setattr(mod, "PAIRWISE_BYTES", 8 << 8)
                small = snowflake._build_scale(job, i, sp, True)
                assert small[1].tobytes() == dists.tobytes()
                assert l1_decomposed_scale(job, sc, i)[1].tobytes() == (
                    dists.tobytes())
        else:
            net = greedy_net(s, sp.net_radius(s.norm)).members
            assert e.scale_k[t] == k == len(net) and part is None
            assert np.abs(e.scale_dists[t] - dists).max() <= (
                2 * np.spacing(dists.max()))
        anchored = job.anchors == i
        assert (dom is None) == (not anchored.any())
        if dom is not None:
            assert dom.all() and e.padded_dom[anchored].all()
    assert taken > len(plan.scale_indices) // 2
    assert s.norm != 1.0 or nets == {True, False}


@pytest.mark.parametrize("name", ["grid4", "linf-ball12"])
def test_padded_pairs_are_each_anchor_scales_mask(name):
    # the reference takes each anchor scale's mask over every pair, from
    # its clusters rebuilt on their own, and keeps the pairs it anchors:
    # those at distance (1+eps)^{i*} <= d < (1+eps)^{i*+1}
    s = {"grid4": small_grid(),
         "linf-ball12": normalize(generate("ball", n=12, dim=2, norm="linf",
                                           seed=1))}[name]
    e = build_snowflake(s, 0.5, 0.1, seed=0)
    iu, ju = np.triu_indices(s.n, k=1)
    d = s.distance_matrix()[iu, ju]
    anchors = np.floor(np.log(d) / np.log1p(0.1) + 1e-9).astype(int)
    want = np.zeros(len(iu), dtype=bool)
    for i in np.unique(anchors):
        sc = single_scale.scale_clusters(s, snowflake._scale_params(e, i))
        sel = anchors == i
        want[sel] = snowflake._dominant_pair_mask(sc, iu, ju)[sel]
    assert want.any()
    assert np.array_equal(e.padded_dom, want)


@pytest.mark.parametrize("w", [1, 2])
def test_scale_clusters_runs_only_for_the_decomposed_scales(monkeypatch,
                                                            tmp_path, w):
    # every process appends the r of each scale it decomposes to one
    # file, so the helper's calls are counted with the caller's
    log = tmp_path / "calls"
    scale_clusters = single_scale.scale_clusters

    def logging(s, params):
        with open(log, "a") as f:
            f.write(f"{params.r!r}\n")
        return scale_clusters(s, params)

    monkeypatch.setattr(snowflake, "scale_clusters", logging)
    monkeypatch.setattr(snowflake, "_worker_count", lambda: w)
    s = normalize(generate("grid", side=8, dims=2))
    e = build_snowflake(s, 0.5, 0.1, seed=0)
    calls = [float(line) for line in log.read_text().split()]
    want = decomposed_scales(e)
    assert sorted(calls) == sorted(want)
    assert 0 < len(want) < len(e.scale_k) // 2
    assert distortion_audit(e).passed


@pytest.mark.parametrize("w", [1, 2])
@pytest.mark.parametrize("name", ["grid4", "ultra32"])
def test_l2_scales_ship_no_gram_and_the_output_is_their_mds(monkeypatch,
                                                            tmp_path, name,
                                                            w):
    # every process logs each scale it builds, whether it is one cluster
    # and whether a part of the output came with it, so the helper's
    # scales are checked with the caller's; the output is the shared
    # classical MDS of the summed squared per-scale distances, bit for bit
    log = tmp_path / "parts"
    build_scale = snowflake._build_scale

    def logging(job, i, sp, one):
        *_, part = out = build_scale(job, i, sp, one)
        with open(log, "a") as f:
            f.write(f"{i} {one} {part is None}\n")
        return out

    monkeypatch.setattr(snowflake, "_build_scale", logging)
    monkeypatch.setattr(snowflake, "_worker_count", lambda: w)
    s = {"grid4": small_grid(),
         "ultra32": normalize(generate("ultrametric", depth=5, seed=0))}[name]
    e = build_snowflake(s, 0.5, 0.1, seed=0)
    logged = [line.split() for line in log.read_text().splitlines()]
    assert sorted(int(i) for i, *_ in logged) == list(e.plan.scale_indices)
    assert sorted(snowflake._scale_params(e, int(i)).r
                  for i, one, _ in logged if one == "False") == sorted(
        decomposed_scales(e))
    assert logged and all(none == "True" for *_, none in logged)
    squares = np.zeros(e.scale_dists.shape[1])
    for row in e.scale_dists:
        squares += np.square(row)
    want = transforms.classical_mds(squareform(squares / e.plan.M))
    assert np.array_equal(e.coords, want)
    assert distortion_audit(e).passed


def test_a_negative_seed_or_a_bad_dim_hat_is_refused_up_front(monkeypatch):
    calls = []
    monkeypatch.setattr(snowflake, "scale_clusters",
                        counting_scale_clusters(calls))
    for kwargs in (dict(seed=-1), dict(dim_hat=math.inf),
                   dict(dim_hat=math.nan), dict(dim_hat=-5.0)):
        with pytest.raises(BadParams):
            build_snowflake(small_grid(), 0.5, 0.1, **kwargs)
    assert calls == []
    # estimate_doubling gives 0 for lambda = 1, so 0 stays valid
    e = build_snowflake(line_pair(), 0.5, 0.1, dim_hat=0.0)
    assert e.dim_hat == 0.0 and distortion_audit(e).passed


def test_l1_line_past_the_cut_cap_builds_without_an_lp(monkeypatch):
    # a staircase of 20 points in 3-d whose second coordinate falls is an
    # l1 line: the distance from its end cuts it, and every cluster of
    # it, along one axis
    steps = np.random.default_rng(4).integers(0, 2, (19, 3))
    steps[steps.sum(axis=1) == 0, 0] = 1
    pts = np.vstack([np.zeros(3), np.cumsum(steps * [1, -1, 1], axis=0)])
    axes = []

    def one_axis(rel):
        axes.append(transforms.cut_axes(rel).shape[1])
        return transforms.cut_structure(rel)

    monkeypatch.setattr(single_scale, "cut_structure", one_axis)
    s = normalize(PointSet(pts, norm=1.0))
    e = build_snowflake(s, 0.5, 0.1, seed=0)
    assert axes and set(axes) == {1}
    assert distortion_audit(e).passed


@pytest.mark.parametrize("params, scales", [
    (dict(kind="line", n=10, norm="l1", seed=0), 264),
    (dict(kind="ball", n=12, dim=2, norm="l1", seed=0), 270),
], ids=["l1-line", "l1-ball"])
def test_an_l1_build_cuts_the_whole_set_once(monkeypatch, params, scales):
    # a build cuts the whole set once, and weighs its cuts once per
    # scale, for every cluster of that scale to trace; only the scales of
    # more than one cluster are decomposed
    monkeypatch.setattr(snowflake, "_worker_count", lambda: 1)
    built, weighed, decomposed = [], [], []

    def structure(points):
        built.append(points)
        return transforms.cut_structure(points)

    def weights(cuts, r):
        weighed.append(r)
        return transforms.cut_weights(cuts, r)

    monkeypatch.setattr(single_scale, "cut_structure", structure)
    for mod in (single_scale, snowflake):
        monkeypatch.setattr(mod, "cut_weights", weights)
    monkeypatch.setattr(snowflake, "scale_clusters",
                        counting_scale_clusters(decomposed))
    s = normalize(generate(**params))
    e = build_snowflake(s, 0.5, 0.1, seed=0)
    assert len(built) == 1 and built[0] is s.points
    assert weighed == [snowflake._scale_params(e, i).r
                       for i in e.plan.scale_indices]
    assert len(weighed) == len(e.scale_k) == scales
    assert decomposed == decomposed_scales(e)
    assert 0 < len(decomposed) < scales // 2
    built.clear()
    weighed.clear()
    sp = snowflake._scale_params(e, e.plan.i_lo + 20)
    assert len(build_single_scale(s, sp).clusters) > 1
    assert len(built) == 1 and weighed == [sp.r]


def test_small_l1_sets_build_in_many_dimensions():
    # few points pass the cut cap in any number of dimensions, up front
    # and per cluster; so does a 60-point anti-diagonal, cut as a line
    rng = np.random.default_rng(0)
    e = build_snowflake(normalize(PointSet(rng.random((3, 10)), norm=1.0)),
                        0.5, 0.1, seed=0)
    assert distortion_audit(e).passed
    i = np.arange(60.0)
    for pts in (rng.random((14, 5)), np.c_[i, 59 - i]):
        s = normalize(PointSet(pts, norm=1.0))
        one = SingleScaleParams(s.diameter(), 0.1, 0.1, seed=0)
        e = build_single_scale(s, one)
        assert len(e.clusters) == 1 and contract_audit(e).passed


def test_l1_sets_off_a_line_build_with_no_scipy():
    # l1 sets off a line build from box cuts alone, with no scipy loaded
    code = (
        "import sys\n"
        "from snowdim import build_snowflake, distortion_audit, generate, "
        "normalize\n"
        "for s in (generate('grid', side=4, dims=2, norm='l1'),\n"
        "          generate('ball', n=12, dim=2, norm='l1', seed=0)):\n"
        "    e = build_snowflake(normalize(s), 0.5, 0.1, seed=0)\n"
        "    assert distortion_audit(e).passed\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(
                              [str(Path(snowflake.__file__).parents[1])]
                              + sys.path)))
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout == "[]\n"


def test_band_over_the_limit_fails_the_audit():
    # l-infinity has no per-pair envelope; stretching one point's image
    # widens the band far past 1 + 16 eps without any tail or dominant
    # breach
    s = normalize(generate("line", n=4, norm="linf"))
    e = build_snowflake(s, 0.5, 0.1, seed=0, norm=np.inf)
    assert distortion_audit(e).passed
    e.coords[0] *= 4.0
    rep = distortion_audit(e)
    assert rep.extras["band_width"] > rep.extras["band_limit"]
    assert [v["check"] for v in rep.violations] == ["band"]
    assert not rep.passed


def tail_oracle(e):
    """The audit's tail checks, pair by pair in plain Python: for each pair
    and each scale row t of its window, the sum from 0 of the same-residue
    mates t - p, t + p, t - 2p, ... on the ladder, in that order. Returns
    the breaches as the report lists them (by row, then pair) and the
    largest mass over its bound, 0 where no window meets the ladder. The
    anchors and the bounds are the module's own: they are inputs of the
    check, not what the chunking computes."""
    plan = e.plan
    eps, p = plan.eps, plan.p
    rows = len(e.scale_k)
    iu, ju = np.triu_indices(e.n, k=1)
    anchors = snowflake._anchors(
        plan, e.source.distance_matrix()[iu, ju]).tolist()
    bound = (snowflake.TAIL_SLACK * eps * (1.0 + eps) ** (
        np.arange(plan.i_lo, plan.i_hi + 1) * (1.0 - plan.alpha))).tolist()
    q = math.ceil(math.log(1.0 / eps) / math.log1p(eps)) + 2
    mates = [[m for k in range(1, rows // p + 1)
              for m in (t - k * p, t + k * p) if 0 <= m < rows]
             for t in range(rows)]
    found, top = [], 0.0
    for pair, anchor in enumerate(anchors):
        col = e.scale_dists[:, pair].tolist()
        first = max(anchor - q + 1 - plan.i_lo, 0)
        last = min(anchor + p - q - plan.i_lo, rows - 1)
        for t in range(first, last + 1):
            mass = 0.0
            for m in mates[t]:
                mass += col[m]
            if mass > bound[t]:
                found.append((t, pair, mass))
            top = max(top, mass / bound[t])
    found.sort()
    return [{"check": "tail", "i": int(iu[pair]), "j": int(ju[pair]),
             "scale_i": plan.i_lo + t, "mass": mass, "bound": bound[t]}
            for t, pair, mass in found], top


def audit_in_chunks_is_the_oracle(e, tail, top, monkeypatch):
    """The whole report JSON, its tail breaches and max_tail_ratio taken
    from the oracle, for chunks of 1 pair, 7 pairs and every pair."""
    rows, pairs = e.scale_dists.shape
    want = None
    for chunk in (1, 7, pairs):
        monkeypatch.setattr(snowflake, "PAIRWISE_BYTES", 8 * rows * chunk)
        rep = distortion_audit(e)
        if want is None:
            want = dataclasses.replace(
                rep, violations=tail + [v for v in rep.violations
                                        if v["check"] != "tail"],
                extras={**rep.extras, "max_tail_ratio": top}).dumps_json()
        assert rep.dumps_json() == want


def oracle_inputs():
    lines = [(f"line8-{norm}-{alpha}", alpha,
              normalize(generate("line", n=8, norm=norm, seed=0)))
             for norm in ("l1", "l2", "linf")
             for alpha in (0.1, 0.2, 0.3, 0.4)]
    far = [("l2-0-1-1000", 0.2, [[0.0], [1.0], [1000.0]], 2.0),
           ("l1-0-1-3-5000", 0.2, [[0.0], [1.0], [3.0], [5000.0]], 1.0),
           ("linf-far", 0.2, [[0.0, 0.0], [1.0, 0.0], [0.0, 2000.0]], np.inf)]
    return ([("subspace200", 0.5, None)] + lines
            + [(name, alpha, normalize(PointSet(np.array(pts), norm)))
               for name, alpha, pts, norm in far])


@pytest.mark.parametrize("name", [name for name, _, _ in oracle_inputs()])
def test_tail_checks_match_a_pair_by_pair_oracle(name, monkeypatch,
                                                  subspace200):
    alpha, s = {n: (a, s) for n, a, s in oracle_inputs()}[name]
    e = (subspace200 if s is None
         else build_snowflake(s, alpha, 0.1, seed=0))
    tail, top = tail_oracle(e)
    if name == "line8-l2-0.2":
        assert len(tail) == 350
    if name.endswith(("1000", "5000", "far")):
        assert len(e.scale_k) > 3 * e.plan.p
    audit_in_chunks_is_the_oracle(e, tail, top, monkeypatch)


@pytest.mark.parametrize("name", ["line8-l2-0.2", "l2-0-1-1000"])
def test_tail_checks_match_the_oracle_on_random_terms(name, monkeypatch):
    # random per-scale terms, drawn so that each window row's mates sum to
    # 0.5 to 2 times its bound with full mantissas: about half the rows of
    # every window breach, its first and last among them, so a mass summed
    # in another order or a window row off by one shows in the report.
    # The last row of pair 0's window holds a mass equal to its bound,
    # which is no breach
    alpha, s = {n: (a, s) for n, a, s in oracle_inputs()}[name]
    e = build_snowflake(s, alpha, 0.1, seed=0)
    rows, pairs = e.scale_dists.shape
    plan, p = e.plan, e.plan.p
    bound = snowflake.TAIL_SLACK * plan.eps * (1.0 + plan.eps) ** (
        np.arange(plan.i_lo, plan.i_hi + 1) * (1.0 - plan.alpha))
    q = math.ceil(math.log(1.0 / plan.eps) / math.log1p(plan.eps)) + 2
    iu, ju = np.triu_indices(s.n, k=1)
    first = snowflake._anchors(plan, s.distance_matrix()[iu, ju]) - (
        q - 1 + plan.i_lo)
    rng = np.random.default_rng(1)
    terms = rng.uniform(0.0, 1.0, (rows, pairs))
    for pair in range(pairs):
        for t in range(max(first[pair], 0), min(first[pair] + p, rows)):
            mates = np.r_[t - p:-1:-p, t + p:rows:p]
            share = rng.dirichlet(np.ones(len(mates)))
            terms[mates, pair] = bound[t] * rng.uniform(0.5, 2.0) * share
    t = first[0] + p - 1
    terms[t % p::p, 0] = 0.0
    terms[t - p, 0] = bound[t]
    e = dataclasses.replace(e, scale_dists=terms)
    tail, top = tail_oracle(e)
    assert pairs * p // 4 < len(tail) < pairs * p * 3 // 4 and top > 1.0
    pair_of = {(i, j): pair for pair, (i, j) in enumerate(zip(iu, ju))}
    offsets = [(pair_of[v["i"], v["j"]], v["scale_i"] - plan.i_lo
                - first[pair_of[v["i"], v["j"]]]) for v in tail]
    assert {0, p - 1} <= {offset for _, offset in offsets}
    assert (0, p - 1) not in offsets
    audit_in_chunks_is_the_oracle(e, tail, top, monkeypatch)


def test_the_audit_holds_no_scales_by_pairs_array(monkeypatch, peak_traced):
    # 1,770 pairs over 278 scales, 3.9 MB of stored distances, in chunks
    # of 16 pairs: the audit holds a chunk's buffer and its masks, and a
    # few dozen floats per pair besides. The first audit of a process
    # also pays for numpy's lazy imports, so it runs untraced first
    s = normalize(generate("subspace", n=60, ambient_dim=10,
                           intrinsic_dim=3, seed=0))
    e = build_snowflake(s, 0.5, 0.1, seed=0)
    rows, pairs = e.scale_dists.shape
    monkeypatch.setattr(snowflake, "PAIRWISE_BYTES", 8 * rows * 16)
    want = distortion_audit(e).dumps_json()
    rep, peak = peak_traced(distortion_audit, e)
    assert rep.passed and rep.dumps_json() == want
    assert peak <= 3 * snowflake.PAIRWISE_BYTES + 24 * 8 * pairs
    assert peak < e.scale_dists.nbytes / 4


def test_dump_roundtrip_and_determinism():
    s = small_grid()
    e1 = build_snowflake(s, 0.5, 0.1, seed=9)
    e2 = build_snowflake(s, 0.5, 0.1, seed=9)
    b1, b2 = dumps(e1), dumps(e2)
    assert b1 == b2
    header, coords = loads_coords(b1)
    assert header["kind"] == "snowflake"
    assert header["alpha"] == 0.5 and header["p"] == 150
    assert header["norm"] == "2"
    assert len(header["scale_k"]) == header["i_hi"] - header["i_lo"] + 1
    assert np.array_equal(coords, e1.coords)
    rep1 = distortion_audit(e1)
    rep2 = distortion_audit(e2)
    assert rep1.dumps_json() == rep2.dumps_json()


@st.composite
def moved_sets(draw):
    """Distinct integer points, rescaled by up to 2^+-12 and translated by
    up to 1e8 per coordinate."""
    n = draw(st.integers(2, 8))
    dim = draw(st.integers(1, 3))
    base = draw(arrays(np.float64, (n, dim),
                       elements=st.integers(-20, 20).map(float)))
    assume(len(np.unique(base, axis=0)) == n)
    scale = draw(st.floats(2.0 ** -12, 2.0 ** 12))
    shift = draw(arrays(np.float64, dim, elements=st.floats(-1e8, 1e8)))
    return base * scale + shift


@pytest.mark.parametrize("norm", (1.0, 2.0, np.inf))
@settings(max_examples=4)
@given(pts=moved_sets())
def test_band_width_matches_a_pdist_oracle(norm, pts):
    # scipy measures both the source and the image, so the band does not
    # rest on the kernels the audit uses
    s = normalize(PointSet(pts, norm))
    e = build_snowflake(s, 0.5, 0.1, seed=0)
    metric = {1.0: "cityblock", 2.0: "euclidean", np.inf: "chebyshev"}[norm]
    ratio = pdist(e.coords, metric) / pdist(s.points, metric) ** 0.5
    band = ratio.max() / ratio.min()
    assert math.isclose(distortion_audit(e).extras["band_width"], band,
                        rel_tol=1e-9)


@pytest.mark.parametrize("norm", (1.0, 2.0, np.inf))
@settings(max_examples=4)
@given(pts=moved_sets(), r=st.sampled_from((0.29, 1.7, 3.1)))
def test_contract_audit_matches_a_pdist_oracle(norm, pts, r):
    # the transforms in closed form and scipy's distances, so the in-window
    # ratios and the Lipschitz maximum do not rest on the audited kernels
    s = normalize(PointSet(pts, norm))
    delta = 0.0025 if norm == np.inf else 0.1
    e = build_single_scale(s, SingleScaleParams(r, 0.1, delta, seed=0))
    metric = {1.0: "cityblock", 2.0: "euclidean", np.inf: "chebyshev"}[norm]
    src = pdist(s.points, metric)
    img = pdist(e.coords, metric)
    if norm == 2.0:
        ref = r * np.sqrt(1.0 - np.exp(-(src / r) ** 2))
        hi = r / delta
    elif norm == 1.0:
        ref = r * (1.0 - np.exp(-src / r))
        hi = r / delta
    else:
        ref = np.minimum(src, r)
        hi = r / math.sqrt(delta)
    live = (src >= delta * r) & (src <= hi)
    rep = contract_audit(e)
    assert rep.pair_count == live.sum() > 0
    ratio = img[live] / ref[live]
    assert math.isclose(rep.ratio_min, ratio.min(), rel_tol=1e-9)
    assert math.isclose(rep.ratio_max, ratio.max(), rel_tol=1e-9)
    assert math.isclose(rep.extras["max_lipschitz"], (img / src).max(),
                        rel_tol=1e-9)
