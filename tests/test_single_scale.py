import math

import numpy as np
import pytest

from snowdim import single_scale
from snowdim.decomposition import build_decomposition, padding_audit
from snowdim.errors import BadParams, HeaderMismatch
from snowdim.points import PointSet, generate, greedy_net, normalize
from snowdim.single_scale import (EPS_PAD, SingleScaleParams,
                                  _embed_cluster_l1, _embed_cluster_l2,
                                  _embed_cluster_linf, build_single_scale,
                                  contract_audit, dumps, loads_coords,
                                  theory_dimension)
from snowdim.transforms import (euclidean_realization, gaussian_transform,
                                laplace_transform, threshold_transform)

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


# --- extension path (net coarser than the set)


def test_extension_on_coarse_net():
    s = normalize(generate("grid", side=8, dims=2))
    p = SingleScaleParams(200.0, 0.1, 0.1, seed=7)
    e = build_single_scale(s, p)
    assert e.net.size < s.n
    assert e.extension is not None
    ex = contract_audit(e).extras
    assert ex["max_lipschitz"] <= e.lip_net * (1 + 2e-6)
    assert e.extension.max_violation <= 0.1 * 1e-6 * e.lip_net * 1.0


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
        cm = entry.map
        mem = cm.members
        net_loc = np.flatnonzero(net_mask[e.ground[mem]])
        for a in range(len(net_loc)):
            for b in range(a + 1, len(net_loc)):
                x, y = mem[net_loc[a]], mem[net_loc[b]]
                raw = np.abs(cm.coords[net_loc[a]] - cm.coords[net_loc[b]]).sum()
                want = laplace_transform(gdmat[e.ground[x], e.ground[y]], 1.0)
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


def test_saturated_scale_shares_the_general_realization():
    e = saturated_build()
    gdmat = e.source.distance_matrix()[np.ix_(e.ground, e.ground)]
    by_size = {}
    for entry in e.clusters:
        mem = entry.members
        g = gaussian_transform(gdmat[np.ix_(mem, mem)], e.params.r)
        np.fill_diagonal(g, 0.0)
        x = euclidean_realization(g)
        assert np.array_equal(entry.map.coords, x - x[0])
        # row-major, so BLAS products in the audit keep their bits
        assert entry.map.coords.flags.c_contiguous
        by_size.setdefault(len(mem), []).append(entry.map.coords)
    assert len(e.clusters) > len(by_size) > 5
    for maps in by_size.values():
        assert all(c is maps[0] for c in maps)
        assert not maps[0].flags.writeable
    assert contract_audit(e).passed


def test_saturated_scale_realizes_each_size_once(monkeypatch):
    calls = []

    def counting(g):
        calls.append(g.shape[0])
        return euclidean_realization(g)

    monkeypatch.setattr(single_scale, "euclidean_realization", counting)
    e = saturated_build()
    sizes = {len(entry.members) for entry in e.clusters}
    assert sorted(calls) == sorted(sizes)


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
    gset = s.subset(e.ground)
    assert padding_audit(gset, dec).passed
    assert contract_audit(e).passed
    # the sampler draws the same m and, as sets, the same clusters
    sampled = build_decomposition(gset, dec.delta, dec.pad_radius, EPS_PAD,
                                  seed=dec.seed, dim_hat=dec.dim_hat)
    assert sampled.m == dec.m
    assert all(part.size == s.n for part in sampled.partitions)
    assert np.array_equal(sampled.padded, dec.padded)


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
    p = SingleScaleParams(1.0, 0.1, 0.1, norm=1.0, seed=0)
    one = np.zeros((1, 1))
    assert _embed_cluster_l1(one, np.array([], dtype=np.intp), p).k == 0
    assert _embed_cluster_l1(one, np.array([0]), p).k == 0
    assert _embed_cluster_linf(one, np.array([], dtype=np.intp), p).k == 0
    cm = _embed_cluster_l2(one, p, np.array([0]))
    assert cm.k == 0


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
