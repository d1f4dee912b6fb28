"""End-to-end verification of every published guarantee, at desk scale.

One test per guarantee, each measuring exhaustively (all pairs, all
clusters, all scales) at the stated tolerances: distance-transform
identities, Gram realization accuracy, the three l2 single-scale
contracts and the one-Gram build against a cluster-by-cluster reference,
the per-cluster invariants, coarse scales decomposed whole,
the snowflake band and its dimension accounting (an l2 output in at
most n - 1 coordinates), per-scale mass
localization, exact l-infinity Frechet properties, the l1 cut path,
distance-label estimates and sizes, and byte-level determinism.
"""

import functools
import math
import time

import numpy as np
from scipy.spatial.distance import pdist

import snowdim.labeling as labeling
import snowdim.single_scale as single_scale
import snowdim.snowflake as snowflake
from snowdim.cli import main as cli_main
from snowdim.points import generate, normalize
from snowdim.single_scale import SingleScaleParams, build_single_scale, contract_audit
from snowdim.snowflake import build_snowflake, distortion_audit
from snowdim.transforms import (cut_decomposition, euclidean_realization,
                                gaussian_transform, laplace_transform,
                                threshold_transform)

EPS = 0.1
CORPUS = ("grid8", "subspace200", "ultra128")
L2_SCALES = (2.0, 200.0)      # inside the distance spectrum, and above it
SEEDS = (0, 1, 2)
ALPHAS = (0.5, 0.7)


@functools.lru_cache(maxsize=None)
def corpus_set(name):
    if name == "grid8":
        s = generate("grid", side=8, dims=2)
    elif name == "line40":
        s = generate("line", n=40)
    elif name == "subspace200":
        s = generate("subspace", n=200, ambient_dim=50, intrinsic_dim=3,
                     seed=0)
    else:
        s = generate("ultrametric", depth=7, base=2.0)
    return normalize(s)


@functools.lru_cache(maxsize=None)
def l2_build(name, seed, r):
    s = corpus_set(name)
    t0 = time.perf_counter()
    e = build_single_scale(s, SingleScaleParams(r=r, eps=EPS, delta=EPS,
                                                seed=seed))
    rep = contract_audit(e)
    return e, rep, time.perf_counter() - t0


@functools.lru_cache(maxsize=None)
def snowflake_run(name, alpha):
    s = corpus_set(name)
    t0 = time.perf_counter()
    e = build_snowflake(s, alpha, EPS, seed=0)
    rep = distortion_audit(e)
    return e, rep, time.perf_counter() - t0


def pairwise_l2(y):
    return np.linalg.norm(y[:, None, :] - y[None, :, :], axis=-1)


# 1. transform identities on dense log grids


def test_transform_identities_on_log_grids():
    t0 = time.perf_counter()
    t = np.logspace(-6.0, 6.0, 10_000)
    for r in (0.5, 1.0, 7.3):
        g = gaussian_transform(t, r)
        assert np.all(g <= np.minimum(t, r) * (1 + 1e-9))
        ratio = g / t
        assert np.all(ratio[1:] <= ratio[:-1] * (1 + 1e-9))
        ell = laplace_transform(t, r)
        ident = r * gaussian_transform(np.sqrt(t / r), 1.0) ** 2
        assert np.all(np.abs(ell - ident) <= 1e-9 * np.maximum(ell, 1e-300))
        for eta in (0.05, 0.1, 0.2, 0.3):
            tt = np.logspace(math.log10(1e-3 * r), math.log10(1e3 * r),
                             10_000)
            lift = gaussian_transform((1 + eta) * tt, r) / gaussian_transform(tt, r)
            assert np.all(lift <= (1 + 3 * eta) * (1 + 1e-9))
    assert time.perf_counter() - t0 < 1.0


# 2. Gram realization of the Gaussian transform


def test_gram_realization_matches_gaussian_transform():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    for _ in range(100):
        m = int(rng.integers(2, 41))
        d = int(rng.integers(1, 65))
        pts = rng.normal(size=(m, d))
        r = float(10.0 ** rng.uniform(-1.0, 1.0)) * math.sqrt(d)
        dmat = pairwise_l2(pts)
        tf = np.asarray(gaussian_transform(dmat, r))
        np.fill_diagonal(tf, 0.0)
        # Gram anchored at point 0 must be (numerically) positive
        sq = tf ** 2
        gram = 0.5 * (sq[0][:, None] + sq[0][None, :] - sq)
        vals = np.linalg.eigvalsh(0.5 * (gram + gram.T))
        assert vals.min() >= -1e-9 * max(vals.max(), 1e-30)
        y = euclidean_realization(tf)
        got = pairwise_l2(y)
        off = ~np.eye(m, dtype=bool)
        rel = np.abs(got - tf)[off] / tf[off]
        assert rel.max() <= 1e-7
    assert time.perf_counter() - t0 < 10.0


# 3. l2 single-scale contracts: contraction, window band, norm bound


def test_l2_single_scale_contracts_on_corpus():
    for name in CORPUS:
        total = 0.0
        for seed in SEEDS:
            for r in L2_SCALES:
                e, rep, dt = l2_build(name, seed, r)
                total += dt
                ex = rep.extras
                assert ex["max_lipschitz"] <= 1.0 + 1e-9
                assert ex["max_image_norm"] <= ex["norm_bound"] * (1 + 1e-9)
                assert rep.violations == []
                assert rep.window == (EPS * r, r / EPS)
                if r == 2.0:
                    assert rep.pair_count > 0   # the band was actually hit
        assert total < 300.0


def test_l2_single_scale_matches_the_cluster_reference(l2_reference):
    # the one-Gram build against every cluster realized on its own, from
    # scales of many singletons through saturated ones to a single cluster;
    # pairs that are singletons everywhere sit at 0 in the reference
    for name in CORPUS + ("line40",):
        for r in (0.02, 0.05, 0.3, 2.0, 200.0):
            e, rep, _ = l2_build(name, 0, r)
            ref = l2_reference(e.source, e)
            assert np.allclose(pdist(e.coords), pdist(ref), rtol=1e-9,
                               atol=1e-12 * r)
            assert np.allclose(np.linalg.norm(e.coords, axis=1),
                               np.linalg.norm(ref, axis=1), rtol=0.0,
                               atol=1e-9 * r)
            assert e.k <= e.n
            assert rep.passed


# 4. per-cluster invariants, exhaustively on every l2 build


def test_cluster_level_checks_hold_on_every_build():
    for name in CORPUS:
        for seed in SEEDS:
            for r in L2_SCALES:
                _, rep, _ = l2_build(name, seed, r)
                ex = rep.extras
                assert ex["max_cluster_image_norm"] <= \
                    ex["cluster_norm_bound"] * (1 + 1e-9)
                assert ex["same_cluster_excess"] <= 1e-9 * r
                assert ex["transform_vs_source_excess"] <= 1e-9 * r
                assert ex["smoothing_excess"] <= 1e-12 * r
                assert ex["product_rule_max"] <= \
                    ex["product_rule_bound"] * (1 + 1e-9)


# 5. coarse scales decompose every point and stay 1-Lipschitz


def test_coarse_scales_decompose_every_point():
    r = L2_SCALES[-1]
    for name in CORPUS:
        s = corpus_set(name)
        for seed in SEEDS:
            e, rep, _ = l2_build(name, seed, r)
            assert e.net is None
            assert e.decomposition.n == s.n
            assert rep.passed
            assert rep.extras["max_lipschitz"] <= 1.0 + 1e-9


# 6. snowflake band width and dimension accounting


def test_snowflake_band_and_reported_dimension():
    for name in CORPUS:
        for alpha in ALPHAS:
            e, rep, dt = snowflake_run(name, alpha)
            assert dt < 1800.0
            assert rep.extras["band_width"] <= 1.0 + 16.0 * EPS
            assert rep.passed
            assert e.theory_k == e.plan.p * e.theory_k_scale
    # doubling n at fixed intrinsic structure leaves the target dimension
    # untouched (the concrete column count may differ)
    small = build_snowflake(normalize(generate("line", n=64)), 0.5, EPS,
                            seed=0, dim_hat=1.0)
    big = build_snowflake(normalize(generate("line", n=128)), 0.5, EPS,
                          seed=0, dim_hat=1.0)
    assert small.theory_k == big.theory_k
    assert small.theory_k == small.plan.p * small.theory_k_scale


def direct_sum_distances(e):
    """Pair distances of the l2 direct sum of e's scales, normalized: the
    root of the summed per-scale squared distances over M."""
    return np.sqrt(np.square(e.scale_dists).sum(axis=0) / e.plan.M)


def test_l2_snowflakes_write_at_most_n_minus_1_coordinates():
    for name in CORPUS:
        e, rep, _ = snowflake_run(name, 0.5)
        assert e.k == e.coords.shape[1] <= e.n - 1
        assert rep.extras["concrete_k"] == e.k
        assert rep.extras["assembled_k"] == e.assembled_k > e.k
        # the output keeps the direct sum's pair distances
        assert np.allclose(pdist(e.coords), direct_sum_distances(e),
                           rtol=1e-12, atol=0.0)
    assert snowflake_run("grid8", 0.5)[0].k == 63


def scale_kinds(e_i):
    """The kinds of one scale: all singletons, or a saturated transform
    (G_r(1) == r), or a decomposition sampled from distinct carvings; the
    last two can hold together."""
    if all(len(c.members) == 1 for c in e_i.clusters):
        return {"singletons"}
    kinds = set()
    if gaussian_transform(1.0, e_i.params.r) == e_i.params.r:
        kinds.add("saturated")
    if len(e_i.decomposition.labels) > 1:
        kinds.add("sampled")
    return kinds


def test_l2_scale_distances_match_the_single_scale_blocks(l2_reference):
    # each scale's stored distances come from its Gram matrix; the oracle
    # realizes every cluster on its own and writes the wide direct sum.
    # The coarsest scale of each kind is checked, finest last.
    alpha = 0.5
    # the reference carries build_single_scale's global rescale
    rescale = 1.0 / (1.0 + single_scale.RESCALE_C[2.0] * EPS)
    for name in CORPUS:
        e, _, _ = snowflake_run(name, alpha)
        s, plan = e.source, e.plan
        todo = {"singletons", "saturated", "sampled"}
        for t, i in reversed(list(enumerate(plan.scale_indices))):
            clusters = single_scale.scale_clusters(
                s, snowflake._scale_params(e, i))
            kinds = scale_kinds(clusters) & todo
            if not kinds:
                continue
            todo -= kinds
            w = (1.0 + EPS) ** (-i * (1.0 - alpha))
            want = w * pdist(l2_reference(s, clusters)) / rescale
            if kinds == {"singletons"}:
                assert e.scale_k[t] == 0 and not e.scale_dists[t].any()
                assert not want.any()
            else:
                assert e.scale_k[t] > 0
                assert np.allclose(e.scale_dists[t], want, rtol=1e-9,
                                   atol=0.0)
            if not todo:
                break
        assert not todo, (name, todo)


# 7. per-scale mass localization: geometric tails, dominant-term floor


def test_scale_mass_localization_bounds():
    for name in CORPUS:
        for alpha in ALPHAS:
            _, rep, _ = snowflake_run(name, alpha)
            checks = {v.get("check") for v in rep.violations}
            assert "tail" not in checks
            assert "dominant" not in checks
            ex = rep.extras
            assert ex["max_tail_ratio"] <= 1.0
            assert ex["padded_dominant_pairs"] > 0
            assert ex["min_dominant_ratio"] >= ex["dominant_floor"]


# 8. l-infinity: exact Frechet properties plus the window band


def test_linf_frechet_embedding_exact_properties():
    eps, delta = 0.2, 0.01
    back = 1.0 + 2.0 * math.sqrt(delta)
    # last config: net radius exceeds the min spacing, so a couple of points
    # ride on net anchors rather than their own coordinates
    configs = [(0, 20.0, False), (0, 1000.0, False),
               (1, 20.0, False), (1, 2500.0, True)]
    for seed, r, coarse in configs:
        s = normalize(generate("ball", n=100, dim=4, norm="linf", seed=seed))
        src = s.distance_matrix()
        e = build_single_scale(s, SingleScaleParams(
            r=r, eps=eps, delta=delta, seed=seed))
        rep = contract_audit(e)
        assert rep.violations == []
        assert rep.pair_count > 0
        img = e.image_distance_matrix()
        iu, ju = np.triu_indices(s.n, k=1)
        # 1-Lipschitz on every pair
        assert np.all(img[iu, ju] <= src[iu, ju] * (1 + 1e-12))
        # exactly the threshold transform on net pairs
        net = e.net.members
        tsub = threshold_transform(src[np.ix_(net, net)], r)
        isub = img[np.ix_(net, net)] * back
        assert np.abs(isub - tsub).max() <= 1e-12 * r
        assert (len(net) < s.n) == coarse


# 9. l1: bounded clusters, box-cut reconstruction, merged coordinates


def _cut_reconstruction(points, r):
    weights, sides = cut_decomposition(points, r)
    recon = np.zeros((len(points),) * 2)
    for weight, inside in zip(weights, sides):
        recon += weight * (inside[:, None] ^ inside[None, :])
    return recon


def test_l1_cut_embedding_small_clusters():
    runs = (
        (generate("line", n=10, norm="l1"), 2.0),
        (generate("ball", n=12, dim=2, norm="l1", seed=1), 1.0),
        (generate("line", n=12, norm="l1"), 0.03),
    )
    multi = 0
    for raw, r in runs:
        s = normalize(raw)
        e = build_single_scale(s, SingleScaleParams(r=r, eps=EPS, delta=EPS,
                                                    seed=0))
        rep = contract_audit(e)
        assert rep.extras["max_lipschitz"] <= 1.0 + 1e-9
        assert rep.violations == []
        dmat = s.distance_matrix()
        net = set(int(v) for v in e.net.members)
        multi += len(e.clusters) > 1
        for entry in e.clusters:
            members = entry.members
            assert len(members) <= 12
            if len(members) < 2:
                continue
            dsub = dmat[np.ix_(members, members)]
            lr = np.asarray(laplace_transform(dsub, r))
            np.fill_diagonal(lr, 0.0)
            # the cluster's box cuts reproduce the transformed metric
            assert np.abs(_cut_reconstruction(s.points[members], r)
                          - lr).max() <= 1e-6
            # merged columns: isometric on net pairs, contracting elsewhere
            raw_pd = np.abs(entry.coords[:, None, :]
                            - entry.coords[None, :, :]).sum(axis=-1)
            loc_net = np.flatnonzero(np.isin(members, list(net)))
            if len(loc_net) > 1:
                sel = np.ix_(loc_net, loc_net)
                assert np.abs(raw_pd[sel] - lr[sel]).max() <= 1e-6
            assert np.all(raw_pd <= lr + 1e-6)
            assert np.all(raw_pd <= dsub + 1e-6)
    assert multi >= 1   # at least one run splits into several clusters


# 10. distance labels: estimate band and label size


def test_distance_label_estimates_and_size():
    for name in CORPUS:
        e, _, _ = snowflake_run(name, 0.5)
        ls = labeling.dls_build(e, EPS)
        src = e.source.distance_matrix()
        iu, ju = np.triu_indices(e.n, k=1)
        dist = src[iu, ju]
        half = np.sqrt(dist)
        ints = ls.ints.astype(np.float64) * ls.header.q
        est = pdist(ints)    # scipy measures, the library is not trusted here
        slack = math.sqrt(ls.header.k) * ls.header.q / half
        band = (1 + 3 * EPS) * (1 + slack)
        ratio = est / half
        assert np.all(ratio <= band)
        assert np.all(ratio >= 1.0 / band)
        measured = labeling.measured_label_bits(ls)
        ref = labeling.theory_label_bits(ls.header.k,
                                         e.source.diameter(), EPS)
        assert ref / 2 <= measured <= 2 * ref


# 11. reruns with the same seed are byte-identical


def test_reruns_are_byte_identical(tmp_path):
    s = corpus_set("grid8")
    e1, rep1, _ = l2_build("grid8", 0, 2.0)
    e2 = build_single_scale(s, SingleScaleParams(r=2.0, eps=EPS, delta=EPS,
                                                 seed=0))
    rep2 = contract_audit(e2)
    assert single_scale.dumps(e1) == single_scale.dumps(e2)
    assert rep1.dumps_json() == rep2.dumps_json()
    assert rep1.dumps_csv() == rep2.dumps_csv()

    f1, frep1, _ = snowflake_run("grid8", 0.5)
    f2 = build_snowflake(s, 0.5, EPS, seed=0)
    frep2 = distortion_audit(f2)
    assert snowflake.dumps(f1) == snowflake.dumps(f2)
    assert frep1.dumps_json() == frep2.dumps_json()
    assert labeling.dumps_labels(labeling.dls_build(f1, EPS)) == \
        labeling.dumps_labels(labeling.dls_build(f2, EPS))

    pts = tmp_path / "pts.csv"
    assert cli_main(["gen", "line", "--n", "6", "--out", str(pts)]) == 0
    arts = []
    for tag in ("a", "b"):
        rep_path = tmp_path / f"{tag}.csv"
        dump_path = tmp_path / f"{tag}.bin"
        code = cli_main(["embed-scale", str(pts), "--r", "2.0", "--seed",
                         "3", "--out", str(rep_path), "--dump",
                         str(dump_path)])
        assert code == 0
        arts.append((rep_path.read_bytes(),
                     (tmp_path / f"{tag}.json").read_bytes(),
                     dump_path.read_bytes()))
    assert arts[0] == arts[1]
