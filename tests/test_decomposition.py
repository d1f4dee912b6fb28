"""Padded decompositions: carving invariants, padding audit, failure mode."""

import copy

import numpy as np
import pytest

from snowdim import decomposition
from snowdim.decomposition import (batch_size, build_decomposition,
                                   padding_audit)
from snowdim.errors import BadParams, EmptyInput, PaddingUnachievable
from snowdim.points import PointSet, generate, normalize


def grid10():
    return normalize(generate("grid", side=10, dims=2))


def brute_padded(s, dec, carvings):
    # independent recomputation of the padded indicator matrix
    d = s.distance_matrix()
    out = np.zeros((dec.m, s.n), dtype=bool)
    for t, (labels, _, _) in enumerate(carvings(dec)):
        for i in range(s.n):
            ok = True
            for j in range(s.n):
                if d[i, j] <= dec.pad_radius and labels[j] != labels[i]:
                    ok = False
                    break
            out[t, i] = ok
    return out


@pytest.mark.parametrize("delta", [24.0, 1e6], ids=["sampled", "certain"])
def test_a_negative_seed_is_refused(delta):
    with pytest.raises(BadParams, match="seed"):
        build_decomposition(grid10(), delta=delta, pad_radius=1.0,
                            eps_pad=0.36, seed=-1)


def test_partition_invariants_and_padded_oracle(carvings):
    s = grid10()
    dec = build_decomposition(s, delta=24.0, pad_radius=1.0, eps_pad=0.36,
                              seed=0)
    d = s.distance_matrix()
    for labels, clusters, radius in carvings(dec):
        # cover, disjoint, diameter <= delta, radius in [delta/4, delta/2]
        assert sorted(np.concatenate(clusters).tolist()) == list(range(s.n))
        assert dec.delta / 4 <= radius <= dec.delta / 2
        for cid, members in enumerate(clusters):
            assert (labels[members] == cid).all()
            if len(members) > 1:
                assert d[np.ix_(members, members)].max() <= dec.delta
    assert np.array_equal(dec.padded, brute_padded(s, dec, carvings))
    assert dec.padded_fraction.min() >= 1 - dec.eps_pad


def reference_sample(dmat, delta, pad_pairs, m, seed, attempt):
    # the sampler one carving at a time: one (seed, attempt) generator
    # draws all m radii, then all m center orders; points join the first
    # center that reaches them, labels rank those centers in carving order
    # and clusters are the label classes, laid end to end in the member
    # row and sized by label
    n = dmat.shape[0]
    rng = np.random.default_rng(np.random.SeedSequence((seed, attempt)))
    radii = rng.uniform(delta / 4.0, delta / 2.0, size=m)
    orders = rng.permuted(np.tile(np.arange(n), (m, 1)), axis=1)
    labels = np.empty((m, n), dtype=np.intp)
    members = np.empty((m, n), dtype=np.intp)
    sizes = np.zeros((m, n), dtype=np.intp)
    padded = np.ones((m, n), dtype=bool)
    nbr_i, nbr_j = pad_pairs
    for t in range(m):
        rho, order = float(radii[t]), orders[t]
        first = (dmat[order, :] <= rho).argmax(axis=0)
        lab = labels[t] = np.unique(first, return_inverse=True)[1]
        clusters = [np.flatnonzero(lab == k) for k in range(lab.max() + 1)]
        members[t] = np.concatenate(clusters)
        sizes[t, :len(clusters)] = [len(c) for c in clusters]
        if len(nbr_i):
            cut = lab[nbr_i] != lab[nbr_j]
            np.logical_and.at(padded[t], nbr_i[cut], False)
    return (labels, members, sizes, radii), padded


def chunk_bytes(carvings, d, delta, pairs):
    # PAIRWISE_BYTES that holds the given number of carvings a chunk: one
    # 8-byte value per carving and point, pad pair and close pair
    close = decomposition._close_pairs(d, delta)
    per = len(d) + len(pairs[0]) + (0 if close is None else len(close[0]))
    return carvings * 8 * per


def scan_length(first):
    # the steps the prefix scan takes over a chunk whose first centers sit
    # at these positions: it stops after a step that left no pair, or
    # resolved no more pairs than the chunk has carvings
    c, n = first.shape
    before = c * n
    for k in range(n):
        left = np.count_nonzero(first > k)
        if not left or before - left <= c:
            return k + 1
        before = left
    return n


def test_sample_matches_the_per_carving_reference(monkeypatch):
    # seeded property: the batched sampler gives the reference's label,
    # member and size rows, radii and padded bits exactly, for set sizes
    # 1..60, pad radii from none to every pair, retries, carvings from the
    # prefix scan and from the close pairs, tree and integer-grid sets
    # whose distances tie, and batches of either form cut into chunks
    rng = np.random.default_rng(11)
    cases = []
    for trial in range(40):
        n = trial + 1 if trial < 20 else int(rng.integers(1, 61))
        s = PointSet(rng.uniform(0, 20, (n, int(rng.integers(1, 4)))))
        pad = (0.0, s.diameter(), float(rng.uniform(0.5, 8.0)))[trial % 3]
        cases.append((s, float(rng.uniform(0.5, 40.0)), pad,
                      int(rng.integers(1, 40)), trial % 2, None))
    s = PointSet(rng.uniform(0, 20, (60, 2)))
    # 291 carvings a chunk, so 700 take three
    cases.append((s, 12.0, 3.0, 700, 1, 291))
    # chunks of 3 carvings: 25 take nine, the last one short, from the
    # prefix scan and from the close pairs
    cases.append((s, 12.0, 3.0, 25, 0, 3))
    cases.append((s, 4.0, 1.0, 25, 0, 3))
    # a 32-leaf tree (distances 2, 4, .., 32) and a 6 x 6 integer grid
    tree, grid = generate("ultrametric", depth=5), generate("grid", side=6)
    for t, s in enumerate((tree, grid)):
        for delta in (5.0, 12.0, 40.0) if s is tree else (2.5, 4.5, 9.0):
            pad = delta / 8 if delta < 10 else 0.0
            cases.append((s, delta, pad, 30, t, None))
            cases.append((s, delta, pad, 30, t, 4))
    seen = set()
    default_bytes = decomposition.PAIRWISE_BYTES
    for seed, (s, delta, pad, m, attempt, chunk) in enumerate(cases):
        d = s.distance_matrix()
        pairs = np.nonzero((d <= pad) & ~np.eye(s.n, dtype=bool))
        monkeypatch.setattr(decomposition, "PAIRWISE_BYTES", default_bytes
                            if chunk is None else
                            chunk_bytes(chunk, d, delta, pairs))
        *got, got_padded = decomposition._sample(d, delta, pairs, m, seed,
                                                 attempt)
        want, want_padded = reference_sample(d, delta, pairs, m, seed,
                                             attempt)
        sparse = decomposition._close_pairs(d, delta) is not None
        form = "sparse" if sparse else "dense"
        seen.add(f"{form} carving")
        if chunk is not None and m > chunk:
            seen.add(f"{form} chunks")
        if s is tree or s is grid:
            seen.add(f"{form} carving, tied distances")
        if s.n > 1:
            seen.add({0: "no pad pair", s.n * (s.n - 1): "all pad pairs"}
                     .get(len(pairs[0]), "some pad pairs"))
        seen.add("pad-ball cut" if not want_padded.all() else "all padded")
        assert len(got[3]) == m
        assert np.array_equal(got_padded, want_padded)
        for g, w in zip(got, want, strict=True):
            assert g.dtype == w.dtype and np.array_equal(g, w)
    # the first-center routine alone, each radius exactly a pair distance
    # (the largest one delta/2, so the close pairs end on it): a point at
    # that distance is reached. 40 carvings a chunk; the pass over the
    # pairs the prefix scan leaves runs 3 pairs a piece, once per form
    # with every close pair (CLOSE_PAIR_SHARE = 1) and the prefix scan
    monkeypatch.setattr(decomposition, "CLOSE_PAIR_SHARE", 1)
    for s in (tree, grid, PointSet(rng.uniform(0, 20, (60, 2)))):
        d = s.distance_matrix()
        monkeypatch.setattr(decomposition, "PAIRWISE_BYTES", 3 * 8 * s.n)
        dist = np.unique(d[d > 0])
        for top in dist[[0, len(dist) // 8, len(dist) // 2, -1]]:
            rho = rng.choice(dist[dist <= top], 40)
            rho[0] = top
            order = rng.permuted(np.tile(np.arange(s.n), (40, 1)), axis=1)
            want = np.stack([(d[o] <= r).argmax(axis=0)
                             for o, r in zip(order, rho)])
            close = decomposition._close_pairs(d, 2 * top)
            assert close[2][-1] == top
            for form, arg in (("sparse", close), ("dense", None)):
                got = decomposition._first_centers(d, rho, order, arg)
                assert got.dtype == np.min_scalar_type(s.n)
                assert np.array_equal(got, want)
                seen.add(f"{form} radius on a pair distance")
            if (want >= scan_length(want)).any():
                seen.add("first center past the prefix")
    assert seen == {"no pad pair", "all pad pairs", "some pad pairs",
                    "pad-ball cut", "all padded", "sparse carving",
                    "dense carving", "sparse chunks", "dense chunks",
                    "sparse carving, tied distances",
                    "dense carving, tied distances",
                    "sparse radius on a pair distance",
                    "dense radius on a pair distance",
                    "first center past the prefix"}


class RecordingGenerator:
    # a generator that keeps what each of its draws returned
    def __init__(self, gen):
        self.gen, self.draws = gen, {}

    def __getattr__(self, name):
        def draw(*args, **kwargs):
            out = getattr(self.gen, name)(*args, **kwargs)
            self.draws.setdefault(name, []).append(out)
            return out
        return draw


def test_one_batch_draws_distinct_orders_and_spread_radii(monkeypatch,
                                                          carvings):
    # the draws themselves, read off the sampler's generator rather than
    # re-derived from its stream: 600 carvings of 20 points
    made = []
    default_rng = np.random.default_rng

    def recording(seed):
        made.append(RecordingGenerator(default_rng(seed)))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", recording)
    s = PointSet(np.random.RandomState(3).uniform(0, 20, (20, 2)))
    d, delta, m = s.distance_matrix(), 12.0, 600
    pairs = np.nonzero((d <= 3.0) & ~np.eye(s.n, dtype=bool))
    *batch, padded = decomposition._sample(d, delta, pairs, m, 7, 0)
    parts = list(carvings(batch))
    assert len(made) == 1
    (orders,) = [out for outs in made[0].draws.values() for out in outs
                 if np.shape(out) == (m, s.n)]
    # every row a permutation, no two rows alike (not one order broadcast)
    assert (np.sort(orders, axis=1) == np.arange(s.n)).all()
    assert len(np.unique(orders, axis=0)) == m
    # each carving's first center wins at least itself: cluster 0
    assert all(lab[o[0]] == 0 for (lab, _, _), o in zip(parts, orders))
    radii = np.array([rho for *_, rho in parts])
    lo, hi = delta / 4, delta / 2
    assert ((lo <= radii) & (radii <= hi)).all()
    assert radii.min() <= lo + 0.1 * (hi - lo)
    assert radii.max() >= hi - 0.1 * (hi - lo)
    # the batch does not depend on how it is chunked: 3 carvings a chunk
    monkeypatch.setattr(decomposition, "PAIRWISE_BYTES", 3 * 8 * s.n * s.n)
    *chunked, chunked_padded = decomposition._sample(d, delta, pairs, m, 7,
                                                     0)
    assert chunked_padded.tobytes() == padded.tobytes()
    for g, w in zip(chunked, batch, strict=True):
        assert g.tobytes() == w.tobytes()


def test_padding_audit_passes_and_detects_tampering():
    s = grid10()
    dec = build_decomposition(s, delta=24.0, pad_radius=1.0, eps_pad=0.36,
                              seed=1)
    audit = padding_audit(s, dec)
    assert audit.passed
    assert audit.min_fraction >= 1 - dec.eps_pad
    assert audit.max_cluster_diameter <= dec.delta
    # tamper: flip one padded bit
    dec.padded[0, 0] = not dec.padded[0, 0]
    assert not padding_audit(s, dec).padded_consistent


def tampered(dec, how):
    # a copy of the batch with one of its rows or bounds corrupted
    bad = copy.deepcopy(dec)
    if how == "repeat":
        # the last point of row 0 replaced by its first, which sits in
        # another cluster: the row holds that point twice
        bad.members[0, -1] = bad.members[0, 0]
    elif how == "label":
        # one point's label moved off the cluster its member slice gives
        bad.labels[0, 0] = (bad.labels[0, 0] + 1) % (bad.labels[0].max() + 1)
    else:
        bad.delta = padding_audit(grid10(), dec).max_cluster_diameter / 2
    return bad


@pytest.mark.parametrize("how, flag", [("repeat", "disjoint_ok"),
                                       ("label", "cover_ok"),
                                       ("delta", "diameter_ok")])
def test_padding_audit_detects_each_corruption(how, flag):
    s = grid10()
    dec = build_decomposition(s, delta=24.0, pad_radius=1.0, eps_pad=0.36,
                              seed=1)
    assert np.count_nonzero(dec.sizes[0]) > 1
    audit = padding_audit(s, tampered(dec, how))
    assert not getattr(audit, flag)
    assert not audit.passed
    assert padding_audit(s, dec).passed


def test_deterministic_per_seed():
    s = grid10()
    a = build_decomposition(s, 24.0, 1.0, 0.36, seed=5)
    b = build_decomposition(s, 24.0, 1.0, 0.36, seed=5)
    c = build_decomposition(s, 24.0, 1.0, 0.36, seed=6)
    assert np.array_equal(a.labels, b.labels)
    assert any(not np.array_equal(la, lc)
               for la, lc in zip(a.labels, c.labels))


def test_tight_delta_is_unachievable():
    # delta = 8 * pad on the 10x10 grid leaves ~23% of pad-balls cut;
    # resampling cannot push the minimum above 0.9
    s = grid10()
    with pytest.raises(PaddingUnachievable):
        build_decomposition(s, delta=8.0, pad_radius=1.0, eps_pad=0.1, seed=3)


def test_padding_audit_flags_tampered_eps_pad():
    # a batch whose recorded failure budget its padding does not meet
    s = grid10()
    dec = build_decomposition(s, delta=24.0, pad_radius=1.0, eps_pad=0.36,
                              seed=1)
    worst = dec.padded_fraction.min()
    assert worst < 1.0
    dec.eps_pad = (1.0 - worst) / 2.0
    audit = padding_audit(s, dec)
    assert audit.padded_consistent and audit.cover_ok and audit.diameter_ok
    assert audit.min_fraction == worst < 1.0 - dec.eps_pad
    assert not audit.passed


def test_single_cluster_when_delta_covers_diameter(carvings):
    # rho >= delta/4 >= diam forces one cluster; padding is then perfect
    s = grid10()
    delta = 4.0 * s.diameter()
    dec = build_decomposition(s, delta, pad_radius=2.0, eps_pad=0.36, seed=2)
    assert all(len(clusters) == 1 for _, clusters, _ in carvings(dec))
    assert dec.padded_fraction.min() == 1.0
    assert dec.attempts == 1
    # the sampler's random carvings give the same partition and padding
    d = s.distance_matrix()
    close = (d <= dec.pad_radius) & ~np.eye(s.n, dtype=bool)
    *batch, padded = decomposition._sample(d, delta, np.nonzero(close), dec.m,
                                           dec.seed, 0)
    for (got, clusters, _), (want, _, _) in zip(carvings(batch),
                                                carvings(dec), strict=True):
        assert np.array_equal(got, want)
        assert [c.tolist() for c in clusters] == [list(range(s.n))]
    assert np.array_equal(padded, dec.padded)


def test_certain_partition_cutting_a_pad_ball_raises_unsampled(monkeypatch):
    # delta/2 = 0.9 < 1 = min distance: every carving is all singletons,
    # and a pad radius of 1 reaches each point's grid neighbours
    calls = []
    monkeypatch.setattr(decomposition, "_sample",
                        lambda *args: calls.append(args))
    with pytest.raises(PaddingUnachievable):
        build_decomposition(grid10(), delta=1.8, pad_radius=1.0,
                            eps_pad=0.36, seed=0)
    assert calls == []


def test_ultrametric_always_padded():
    # carving an ultrametric never cuts a ball smaller than the carve radius
    s = generate("ultrametric", depth=5, base=3.0)
    dec = build_decomposition(s, delta=36.0, pad_radius=8.0, eps_pad=0.36,
                              seed=4)
    assert dec.padded_fraction.min() == 1.0


def test_batch_size_formula():
    # ceil(4 * eps^-2 * ln(2n)) vs ceil(2 * eps^-1 * dim * max(1, ln dim))
    assert batch_size(0.36, 100, 3.0) == 164
    assert batch_size(0.36, 100, 0.0) == 164
    assert batch_size(0.1, 4, 40.0) == max(np.ceil(400 * np.log(8)),
                                           np.ceil(20 * 40 * np.log(40)))


def test_bad_params():
    s = grid10()
    with pytest.raises(EmptyInput):
        build_decomposition(PointSet(np.zeros((0, 2)), 2.0), 1.0, 0.5, 0.3, 0)
    for delta, pad_radius in ((-1.0, 0.5), (np.nan, 0.5), (8.0, np.nan),
                              (8.0, 0.0)):
        with pytest.raises(BadParams):
            build_decomposition(s, delta, pad_radius, 0.3, 0)
    with pytest.raises(BadParams):
        build_decomposition(s, 8.0, 1.0, 1.5, 0)
