"""Shared test settings, a decomposition's carvings one by one, and the l2
and l-infinity single-scale references.

Every Hypothesis test runs derandomized and without a deadline: the same
examples on every run, and no flaky failures from slow examples. A test
sets only its own ``max_examples``.
"""

import math

import numpy as np
import pytest
from hypothesis import settings

from snowdim.single_scale import RESCALE_C
from snowdim.transforms import (euclidean_realization, gaussian_transform,
                                threshold_transform)

settings.register_profile("snowdim", deadline=None, derandomize=True)
settings.load_profile("snowdim")


def carvings_of(dec):
    """Each carving of a decomposition as (labels, clusters, radius), the
    clusters slices of its member row in label order. ``dec`` is a
    ``PaddedDecomposition``, whose certain row is repeated ``copies``
    times, or the (labels, members, sizes, radii) rows of a sampled
    batch."""
    rows, copies = dec, 1
    if not isinstance(dec, (list, tuple)):
        rows = dec.labels, dec.members, dec.sizes, dec.radii
        copies = dec.copies
    for labels, row, size, rho in zip(*rows[:3], rows[3].tolist()):
        ends = np.cumsum(size[size > 0]).tolist()
        clusters = [row[lo:hi] for lo, hi in zip([0] + ends[:-1], ends)]
        for _ in range(copies):
            yield labels, clusters, rho


@pytest.fixture(scope="session")
def carvings():
    return carvings_of


def l2_reference_coords(s, sc) -> np.ndarray:
    """The l2 map of one scale, realized cluster by cluster.

    ``sc`` is the scale's ``ScaleClusters`` or its built embedding. Each
    distinct cluster is realized from its Gaussian-transformed distances
    by ``euclidean_realization``, its first member moved to the origin,
    and scaled by its smoothing weights times sqrt(count / m) times the
    global rescale, in a column block of its own. This is the direct sum
    the library's one-Gram build factors, written out the long way."""
    p = sc.params
    rescale = 1.0 / (1.0 + RESCALE_C[p.norm] * p.eps)
    dmat = s.distance_matrix()
    blocks = []
    for c in sc.clusters:
        g = gaussian_transform(dmat[np.ix_(c.members, c.members)], p.r)
        x = euclidean_realization(g)
        coeff = math.sqrt(c.count / sc.m) * rescale
        blocks.append((c.members, (x - x[0]) * (c.weights[:, None] * coeff)))
    out = np.zeros((s.n, sum(b.shape[1] for _, b in blocks)))
    col = 0
    for members, b in blocks:
        out[members, col:col + b.shape[1]] = b
        col += b.shape[1]
    return out


@pytest.fixture
def l2_reference():
    return l2_reference_coords


def linf_cluster_map(dmat_c, net_local, r) -> np.ndarray:
    """One l-infinity cluster's raw map: T_r of its members' distances to
    its net points (``net_local`` indexes the cluster's rows). A singleton
    gets no column: its own would be T_r(0) = 0."""
    if dmat_c.shape[0] < 2:
        return np.zeros((1, 0))
    return threshold_transform(dmat_c[:, net_local], r)


def linf_reference_coords(dmat, clusters, in_net, r, coeff,
                          rescale) -> np.ndarray:
    """The l-infinity map of one scale, written cluster by cluster.

    ``clusters`` lists (members, weights) pairs. Each cluster's raw map
    (``linf_cluster_map`` of its net points) is scaled by its weights
    times ``coeff`` times ``rescale``, in that order, and placed in a
    column block of its own, in cluster order."""
    blocks = []
    for members, weights in clusters:
        raw = linf_cluster_map(dmat[np.ix_(members, members)],
                               np.flatnonzero(in_net[members]), r)
        blocks.append((members, raw * (weights[:, None] * coeff * rescale)))
    out = np.zeros((dmat.shape[0], sum(b.shape[1] for _, b in blocks)))
    col = 0
    for members, b in blocks:
        out[members, col:col + b.shape[1]] = b
        col += b.shape[1]
    return out


def linf_scale_reference(e) -> np.ndarray:
    """``linf_reference_coords`` of a built l-infinity single-scale
    embedding's own clusters, net and scaling."""
    dmat = e.source.distance_matrix()
    in_net = np.zeros(e.n, dtype=bool)
    in_net[e.net.members] = True
    return linf_reference_coords(
        dmat, [(c.members, c.weights) for c in e.clusters], in_net,
        e.params.r, e.combine_scale, e.rescale)


@pytest.fixture(scope="session")
def linf_reference():
    return linf_scale_reference


@pytest.fixture(scope="session")
def linf_cluster():
    return linf_cluster_map


@pytest.fixture(scope="session")
def linf_clusters_reference():
    return linf_reference_coords
