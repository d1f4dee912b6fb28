"""Random padded decompositions by shifted ball carving.

A decomposition is a batch of m independent partitions of a point set into
clusters of diameter <= delta. Each partition carves balls of one shared
random radius rho ~ U[delta/4, delta/2] around the points in a fresh uniform
random order; a point joins the first center that reaches it. Padding is a
measured quantity: the fraction of partitions in which a point's whole
pad_radius-ball lands inside its own cluster. The builder resamples with a
doubled batch until the worst point clears 1 - eps_pad, or gives up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParams, EmptyInput, PaddingUnachievable
from .points import PointSet, estimate_doubling

#: Chernoff-style constant for the batch size m (the ln(2 n) term)
C_M = 4.0
#: constant for the doubling-dimension floor on m
C_0 = 2.0
#: resampling attempts before giving up (each doubles m)
MAX_RETRIES = 4


@dataclass
class Partition:
    """One carving: cluster label per point plus the clusters themselves."""

    labels: np.ndarray                 # (n,) cluster id per point, 0..t-1
    clusters: list[np.ndarray]         # member indices, nonempty, by id
    radius: float                      # the carve radius rho used

    @property
    def size(self) -> int:
        return len(self.clusters)


@dataclass
class PaddedDecomposition:
    delta: float
    pad_radius: float
    eps_pad: float
    seed: int
    m: int
    partitions: list[Partition]
    padded: np.ndarray                 # (m, n) bool: point's pad-ball uncut
    padded_fraction: np.ndarray        # (n,) mean over partitions
    dim_hat: float
    attempts: int = 1

    @property
    def n(self) -> int:
        return len(self.padded_fraction)


def batch_size(eps_pad: float, n: int, dim_hat: float) -> int:
    """Number of partitions to sample for one decomposition."""
    a = math.ceil(C_M * eps_pad ** -2 * math.log(2 * n))
    b = math.ceil(C_0 * eps_pad ** -1 * dim_hat * max(1.0, math.log(dim_hat))) if dim_hat > 0 else 0
    return max(a, b, 1)


def _carve(dmat: np.ndarray, delta: float, rng) -> Partition:
    n = dmat.shape[0]
    rho = float(rng.uniform(delta / 4.0, delta / 2.0))
    order = rng.permutation(n)
    hit = dmat[order, :] <= rho           # row k: points reachable by the k-th center
    first = hit.argmax(axis=0)            # every point reaches itself, so a hit exists
    centers, labels = np.unique(first, return_inverse=True)
    labels = labels.astype(np.intp)
    # one stable sort groups the members of each cluster, ascending
    members = np.argsort(labels, kind="stable")
    bounds = np.cumsum(np.bincount(labels, minlength=len(centers)))[:-1]
    return Partition(labels, np.split(members, bounds), rho)


def _sample(dmat, delta, pad_pairs, m, seed, attempt):
    """Draw m carvings plus the padded indicator matrix."""
    n = dmat.shape[0]
    children = np.random.SeedSequence(entropy=(int(seed), int(attempt))).spawn(m)
    partitions, padded = [], np.empty((m, n), dtype=bool)
    nbr_i, nbr_j = pad_pairs
    for t in range(m):
        part = _carve(dmat, delta, np.random.default_rng(children[t]))
        partitions.append(part)
        ok = np.ones(n, dtype=bool)
        if len(nbr_i):
            cut = part.labels[nbr_i] != part.labels[nbr_j]
            np.logical_and.at(ok, nbr_i[cut], False)
        padded[t] = ok
    return partitions, padded


def build_decomposition(s: PointSet, delta: float, pad_radius: float,
                        eps_pad: float, seed: int,
                        dim_hat: float | None = None) -> PaddedDecomposition:
    """Sample a padded decomposition of ``s``.

    Carves with radius U[delta/4, delta/2]; the intended regime is
    pad_radius <= delta/4 (larger values are allowed but will usually fail
    the audit). The batch is resampled with doubled m until
    min padded_fraction >= 1 - eps_pad, raising PaddingUnachievable after
    MAX_RETRIES.
    """
    if s.n == 0:
        raise EmptyInput("cannot decompose an empty set")
    if delta <= 0 or pad_radius <= 0:
        raise BadParams("delta and pad_radius must be positive")
    if not 0 < eps_pad < 1:
        raise BadParams(f"eps_pad must lie in (0, 1), got {eps_pad}")
    if dim_hat is None:
        dim_hat = estimate_doubling(s).dim_hat
    dmat = s.distance_matrix()
    # pairs (i, j != i) with d <= pad_radius: the membership that must not split
    close = (dmat <= pad_radius) & ~np.eye(s.n, dtype=bool)
    pad_pairs = np.nonzero(close)
    m0 = batch_size(eps_pad, s.n, dim_hat)
    m, attempt = m0, 0
    while True:
        partitions, padded = _sample(dmat, delta, pad_pairs, m, seed, attempt)
        frac = padded.mean(axis=0)
        if frac.min() >= 1.0 - eps_pad:
            break
        attempt += 1
        if attempt > MAX_RETRIES:
            raise PaddingUnachievable(
                f"min padded fraction {frac.min():.4f} < {1 - eps_pad:.4f} "
                f"after {MAX_RETRIES} retries (delta={delta:.6g}, "
                f"pad_radius={pad_radius:.6g}, dim_hat={dim_hat:.3g})")
        m *= 2
    return PaddedDecomposition(float(delta), float(pad_radius), float(eps_pad),
                               int(seed), m, partitions, padded, frac,
                               float(dim_hat), attempt + 1)


@dataclass
class PaddingAudit:
    min_fraction: float
    mean_fraction: float
    max_cluster_diameter: float
    diameter_ok: bool
    cover_ok: bool
    disjoint_ok: bool
    padded_consistent: bool
    passed: bool


def padding_audit(s: PointSet, dec: PaddedDecomposition) -> PaddingAudit:
    """Recompute every decomposition invariant from scratch.

    Checks each partition covers the set with disjoint nonempty clusters of
    diameter <= delta, and recomputes the padded indicators bit-exactly.
    """
    dmat = s.distance_matrix()
    n = s.n
    recomputed = np.empty((len(dec.partitions), n), dtype=bool)
    max_diam, diam_ok, cover_ok, disjoint_ok, consistent = 0.0, True, True, True, True
    for t, part in enumerate(dec.partitions):
        seen = np.zeros(n, dtype=bool)
        for cid, members in enumerate(part.clusters):
            if len(members) == 0:
                cover_ok = False
                continue
            if seen[members].any():
                disjoint_ok = False
            seen[members] = True
            if (part.labels[members] != cid).any():
                cover_ok = False
            if len(members) > 1:
                diam = float(dmat[np.ix_(members, members)].max())
                max_diam = max(max_diam, diam)
                if diam > dec.delta:
                    diam_ok = False
        if not seen.all():
            cover_ok = False
        for i in range(n):
            nbrs = np.flatnonzero(dmat[i] <= dec.pad_radius)
            recomputed[t, i] = (part.labels[nbrs] == part.labels[i]).all()
        if not np.array_equal(recomputed[t], dec.padded[t]):
            consistent = False
    frac = recomputed.mean(axis=0)
    if not np.array_equal(frac, dec.padded_fraction):
        consistent = False
    passed = (diam_ok and cover_ok and disjoint_ok and consistent
              and frac.min() >= 1.0 - dec.eps_pad)
    return PaddingAudit(float(frac.min()), float(frac.mean()), max_diam,
                        diam_ok, cover_ok, disjoint_ok, consistent, passed)
