"""Padded decompositions: carving invariants, padding audit, failure mode."""

import numpy as np
import pytest

from snowdim.decomposition import (_carve, batch_size, build_decomposition,
                                   padding_audit)
from snowdim.errors import BadParams, EmptyInput, PaddingUnachievable
from snowdim.points import PointSet, generate, normalize


def grid10():
    return normalize(generate("grid", side=10, dims=2))


def brute_padded(s, dec):
    # independent recomputation of the padded indicator matrix
    d = s.distance_matrix()
    out = np.zeros((dec.m, s.n), dtype=bool)
    for t, part in enumerate(dec.partitions):
        for i in range(s.n):
            ok = True
            for j in range(s.n):
                if d[i, j] <= dec.pad_radius and part.labels[j] != part.labels[i]:
                    ok = False
                    break
            out[t, i] = ok
    return out


def test_partition_invariants_and_padded_oracle():
    s = grid10()
    dec = build_decomposition(s, delta=24.0, pad_radius=1.0, eps_pad=0.36,
                              seed=0)
    d = s.distance_matrix()
    for part in dec.partitions:
        # cover, disjoint, diameter <= delta, radius in [delta/4, delta/2]
        assert sorted(np.concatenate(part.clusters).tolist()) == list(range(s.n))
        assert dec.delta / 4 <= part.radius <= dec.delta / 2
        for cid, members in enumerate(part.clusters):
            assert (part.labels[members] == cid).all()
            if len(members) > 1:
                assert d[np.ix_(members, members)].max() <= dec.delta
    assert np.array_equal(dec.padded, brute_padded(s, dec))
    assert dec.padded_fraction.min() >= 1 - dec.eps_pad


def test_carve_clusters_are_the_label_classes():
    # seeded property: the sort-based extraction equals one flatnonzero
    # per label, members ascending
    rng = np.random.default_rng(11)
    for trial in range(40):
        n = int(rng.integers(1, 60))
        s = PointSet(rng.uniform(0, 20, (n, int(rng.integers(1, 4)))))
        delta = float(rng.uniform(0.5, 40.0))
        part = _carve(s.distance_matrix(), delta, np.random.default_rng(trial))
        want = [np.flatnonzero(part.labels == k) for k in range(part.size)]
        assert part.labels.dtype == np.intp
        assert len(part.clusters) == len(want)
        for got, ref in zip(part.clusters, want):
            assert got.dtype == np.intp and np.array_equal(got, ref)


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


def test_deterministic_per_seed():
    s = grid10()
    a = build_decomposition(s, 24.0, 1.0, 0.36, seed=5)
    b = build_decomposition(s, 24.0, 1.0, 0.36, seed=5)
    c = build_decomposition(s, 24.0, 1.0, 0.36, seed=6)
    assert all(np.array_equal(pa.labels, pb.labels)
               for pa, pb in zip(a.partitions, b.partitions))
    assert any(not np.array_equal(pa.labels, pc.labels)
               for pa, pc in zip(a.partitions, c.partitions))


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


def test_single_cluster_when_delta_covers_diameter():
    # rho >= delta/4 >= diam forces one cluster; padding is then perfect
    s = grid10()
    delta = 4.0 * s.diameter()
    dec = build_decomposition(s, delta, pad_radius=2.0, eps_pad=0.36, seed=2)
    assert all(p.size == 1 for p in dec.partitions)
    assert dec.padded_fraction.min() == 1.0


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
    with pytest.raises(BadParams):
        build_decomposition(s, -1.0, 0.5, 0.3, 0)
    with pytest.raises(BadParams):
        build_decomposition(s, 8.0, 1.0, 1.5, 0)
