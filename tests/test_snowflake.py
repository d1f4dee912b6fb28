import math
import multiprocessing
import os
import threading
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.distance import pdist

import snowdim.single_scale as single_scale
import snowdim.snowflake as snowflake
from snowdim.errors import (BadParams, ClusterTooLarge, EmptyInput,
                            NotEuclidean)
from snowdim.decomposition import build_decomposition
from snowdim.labeling import dls_build, dumps_labels
from snowdim.points import PointSet, generate, normalize
from snowdim.single_scale import (SingleScaleParams, build_single_scale,
                                  contract_audit, loads_coords)
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
    b2 = sum(sc.dists ** 2 for sc in e.scales if sc.dists is not None)
    return np.sqrt(b2 / e.plan.M)


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
    assert e.scale_dists.shape == (len(e.scales), e.n * (e.n - 1) // 2)
    for t, sc in enumerate(e.scales):
        assert sc.coords is None
        assert (sc.dists is None) == (sc.k == 0)
        if sc.k:
            assert np.shares_memory(sc.dists, e.scale_dists[t])
        else:
            assert not e.scale_dists[t].any()
        assert 0 <= sc.k <= e.n
    for sc in e.scales[::25]:
        sp = SingleScaleParams(r=sc.r, eps=0.1, delta=plan.delta, norm=2.0,
                               seed=sc.seed, rescale_c=0.0, dim_hat=e.dim_hat)
        clusters = single_scale.scale_clusters(s, sp).clusters
        assert sc.k == min(e.n, sum(len(c.members) - 1 for c in clusters))
    # direct sum: total width is the sum of the scale widths
    assert e.assembled_k == sum(sc.k for sc in e.scales)
    # the l2 output is that sum rewritten in at most n - 1 coordinates
    assert np.allclose(pdist(e.coords), direct_sum_distances(e),
                       rtol=1e-12, atol=0.0)
    assert e.k == e.coords.shape[1] <= e.n - 1 < e.assembled_k
    assert e.theory_k == plan.p * e.theory_k_scale


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


def test_lp_smoke():
    raw = normalize(PointSet(np.array([[0.0], [1.0], [2.5], [4.0], [6.0]]),
                             norm=1.0))
    e = build_snowflake(raw, 0.5, 0.1, seed=2, norm=1.0)
    rep = distortion_audit(e)
    assert rep.extras["band_width"] < 1.3
    assert rep.extras["min_dominant_ratio"] >= 0.45
    assert rep.extras["max_tail_ratio"] <= 1.0
    assert e.k == e.assembled_k           # l1 keeps the grouped layout
    # grouped layout: total width is the sum of the maxima per residue
    # class i mod p
    widths = {}
    for sc in e.scales:
        widths[sc.i % e.plan.p] = max(widths.get(sc.i % e.plan.p, 0), sc.k)
    assert e.assembled_k == sum(widths.values())

    s_inf = normalize(PointSet(np.array([[0.0], [1.0], [2.5], [4.0]]),
                               norm=np.inf))
    e_inf = build_snowflake(s_inf, 0.5, 0.1, seed=2, norm=np.inf)
    # max combination: every nonzero scale keeps its own block
    assert e_inf.k == e_inf.assembled_k == sum(sc.k for sc in e_inf.scales)
    rep_inf = distortion_audit(e_inf)
    assert rep_inf.extras["band_width"] < 1.3
    assert rep_inf.extras["min_dominant_ratio"] >= 0.45


def test_target_norm_defaults_to_the_input_norm():
    # with no norm argument an l-infinity input is embedded into
    # l-infinity; an l2 target would fail the Gram realization
    s = normalize(generate("ball", n=12, dim=2, norm="linf", seed=1))
    e = build_snowflake(s, 0.5, 0.1)
    assert e.plan.norm == np.inf
    assert distortion_audit(e).passed


def _dominant_pairs_per_partition(dec):
    # the reference: one n x n product per partition, and-ed together
    n = dec.n
    ok = np.ones((n, n), dtype=bool)
    for t, part in enumerate(dec.partitions):
        lab = part.labels
        pad = dec.padded[t]
        ok &= (lab[:, None] == lab[None, :]) & (pad[:, None] & pad[None, :])
    return ok


def test_dominant_pair_mask_matches_the_per_partition_products():
    # five runs of five points with uneven gaps: carvings merge runs in
    # some partitions and split them in others, and points near a gap
    # lose their padding in some
    pts = np.concatenate([c + np.arange(5.0) for c in (0, 30, 45, 100, 160)])
    s = normalize(PointSet(pts[:, None]))
    shared = unpadded = 0
    for seed in range(20):
        dec = build_decomposition(s, (60.0, 80.0, 120.0)[seed % 3], 3.0, 0.9,
                                  seed=seed, dim_hat=1.0)
        e = SimpleNamespace(decomposition=dec, n=s.n)
        want = _dominant_pairs_per_partition(dec)
        assert np.array_equal(snowflake._dominant_pair_mask(e), want)
        shared += int(want.sum() - np.trace(want))
        unpadded += int((~dec.padded.all(axis=0)).sum())
    assert shared > 0 and unpadded > 0
    # a built scale whose one partition repeats m times
    grid = normalize(generate("grid", side=5, dims=2))
    e = build_single_scale(grid, SingleScaleParams(2.0, 0.1, 0.1, seed=0))
    assert np.array_equal(snowflake._dominant_pair_mask(e),
                          _dominant_pairs_per_partition(e.decomposition))


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
    ("grid", dict(side=8, dims=2)),
    ("ball", dict(n=32, dim=4, norm="linf", seed=0)),
], ids=["l1-line", "l2-grid", "linf-ball"])
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
    assert calls == [sc.r for sc in e.scales]
    # with two CPUs a helper builds the odd scales; this process the rest
    calls.clear()
    monkeypatch.setattr(snowflake, "_worker_count", lambda: 2)
    e = build_snowflake(small_grid(), 0.5, 0.1, seed=1)
    assert calls == [sc.r for sc in e.scales[::2]]
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
    assert calls == [sc.r for sc in e.scales]


def test_builds_in_two_threads_at_once_stay_in_the_process(monkeypatch):
    # forking beside another thread could copy a lock it holds, and two
    # builds would interleave the BLAS thread-count hold, so neither forks
    monkeypatch.setattr(snowflake, "_worker_count", lambda: 2)
    want = dumps(build_snowflake(small_grid(), 0.5, 0.1, seed=1))
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
    plan = scale_plan(small_grid(), 0.5, 0.1)
    assert len(calls) == 2 * len(plan.scale_indices)
    assert multiprocessing.active_children() == []
    assert blas_threads() == threads


def _build_in_a_pool_worker() -> tuple[bytes, bool]:
    # runs in the worker process, so the patch stays there
    calls = []
    snowflake.scale_clusters = counting_scale_clusters(calls)
    e = build_snowflake(small_grid(), 0.5, 0.1, seed=1)
    return dumps(e), calls == [sc.r for sc in e.scales]


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
    # the coarser scales keep all 16 grid points in one cluster, which is
    # no line, so only the cut LP could write it, and the LP refuses it:
    # the whole ladder could never finish
    calls = []
    monkeypatch.setattr(snowflake, "build_single_scale",
                        lambda s, params: calls.append(params))
    s = normalize(generate("grid", side=4, dims=2, norm="l1"))
    with pytest.raises(ClusterTooLarge, match="cap is 14 points"):
        build_snowflake(s, 0.5, 0.1)
    assert calls == []


def test_l1_line_past_the_cut_cap_builds_without_an_lp(monkeypatch):
    # every cluster of a line is a line, so its cuts come in closed form
    def no_lp(lr):
        raise AssertionError("the cut LP ran on a line cluster")

    monkeypatch.setattr(single_scale, "cut_decomposition", no_lp)
    s = normalize(generate("line", n=20, norm="l1"))
    e = build_snowflake(s, 0.5, 0.1, seed=0)
    assert distortion_audit(e).passed


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
