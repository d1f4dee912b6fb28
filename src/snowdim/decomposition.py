"""Random padded decompositions by shifted ball carving.

A decomposition is a batch of m independent partitions of a point set into
clusters of diameter <= delta. Each partition carves balls of one shared
random radius rho ~ U[delta/4, delta/2] around the points in a fresh uniform
random order; a point joins the first center that reaches it. Padding is a
measured quantity: the fraction of partitions in which a point's whole
pad_radius-ball lands inside its own cluster. The builder resamples with a
doubled batch until the worst point clears 1 - eps_pad, or gives up.

One generator per (seed, attempt) draws the batch's m radii in one call and
then its m center orders in another, before any carving runs, so the batch
is fixed by (seed, attempt, m) alone and not by how it is chunked. The
carving itself runs for many partitions at once, a chunk of carvings at a
time (bounded by points.PAIRWISE_BYTES): the distances compared with each
carving's radius and gathered in its center order, the first reaching
center of every point by argmax, labels ranked by a cumulative sum over
the centers that won a point, members by one stable sort of the label
rows, and the padded bits by one comparison over the pad pairs.

Two outcomes are certain and are returned without sampling: one cluster
when delta/4 >= diameter (every carve radius reaches every point), and all
singletons when delta/2 < min distance (none reaches another point).

The batch is kept as arrays, one row per carving: the labels, the members
sorted by label (stable, so ascending within each cluster) and the
cluster sizes by label. A cluster is a slice of its member row between
consecutive cumulative sizes, and nothing on the build path makes one
object per cluster. A certain outcome keeps its one row once, standing for
all m carvings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParams, EmptyInput, PaddingUnachievable
from .points import PAIRWISE_BYTES, PointSet, estimate_doubling, require_seed

#: Chernoff-style constant for the batch size m (the ln(2 n) term)
C_M = 4.0
#: constant for the doubling-dimension floor on m
C_0 = 2.0
#: resampling attempts before giving up (each doubles m)
MAX_RETRIES = 4


@dataclass
class PaddedDecomposition:
    """A batch of m carvings, as rows of arrays.

    Row t of ``labels`` is carving t's cluster id per point (0..t-1 in
    order of the cluster's first center), row t of ``members`` the points
    stably sorted by that label and row t of ``sizes`` the cluster sizes by
    id, zero past the last cluster. A certain outcome has one row standing
    for all m carvings (``copies == m``); a sampled batch has m rows.
    ``padded`` always has m rows."""

    delta: float
    pad_radius: float
    eps_pad: float
    seed: int
    m: int
    labels: np.ndarray                 # (m or 1, n) cluster id per point
    members: np.ndarray                # (m or 1, n) points sorted by label
    sizes: np.ndarray                  # (m or 1, n) cluster size by id
    radii: np.ndarray                  # (m or 1,) carve radius rho
    padded: np.ndarray                 # (m, n) bool: point's pad-ball uncut
    padded_fraction: np.ndarray        # (n,) mean over partitions
    dim_hat: float
    attempts: int = 1

    @property
    def n(self) -> int:
        return len(self.padded_fraction)

    @property
    def copies(self) -> int:
        """The number of carvings each row stands for: 1, or m if certain."""
        return self.m // len(self.labels)


def batch_size(eps_pad: float, n: int, dim_hat: float) -> int:
    """Number of partitions to sample for one decomposition."""
    a = math.ceil(C_M * eps_pad ** -2 * math.log(2 * n))
    b = math.ceil(C_0 * eps_pad ** -1 * dim_hat * max(1.0, math.log(dim_hat))) if dim_hat > 0 else 0
    return max(a, b, 1)


def one_cluster(s: PointSet, delta: float) -> bool:
    """Whether every carving at ``delta`` is one cluster: the smallest
    carve radius, delta/4, reaches across the whole set."""
    return delta / 4.0 >= s.diameter()


def _certain_labels(s: PointSet, delta: float) -> np.ndarray | None:
    """The labels every carving yields, when the radius range forces them."""
    if one_cluster(s, delta):
        return np.zeros(s.n, dtype=np.intp)
    if delta / 2.0 < s.min_distance():
        return np.arange(s.n, dtype=np.intp)
    return None


def _sample(dmat, delta, pad_pairs, m, seed, attempt):
    """Draw m carvings: their label, member and size rows, their radii and
    the padded indicator matrix.

    One generator seeded by (seed, attempt) draws all m radii, then all m
    center orders (row t of each belongs to carving t). The carvings
    themselves run batched, a chunk at a time; a chunk holds as many
    carvings as one 8-byte value per carving and point pair fits in
    PAIRWISE_BYTES.
    """
    n = dmat.shape[0]
    rng = np.random.default_rng(
        np.random.SeedSequence((int(seed), int(attempt))))
    radii = rng.uniform(delta / 4.0, delta / 2.0, size=m)
    orders = rng.permuted(np.tile(np.arange(n), (m, 1)), axis=1)
    labels = np.empty((m, n), dtype=np.intp)
    members = np.empty((m, n), dtype=np.intp)
    sizes = np.empty((m, n), dtype=np.intp)
    padded = np.ones((m, n), dtype=bool)
    nbr_i, nbr_j = pad_pairs
    key_type = np.min_scalar_type(-n)
    step = max(1, PAIRWISE_BYTES // (8 * n * n))
    for a in range(0, m, step):
        b = min(a + step, m)
        c, rho, order = b - a, radii[a:b], orders[a:b]
        # gathered in center order, entry [t, k, j] says that carving t's
        # k-th center reaches point j; every point reaches itself, so each
        # point has a first reaching center
        reach = dmat <= rho[:, None, None]
        first = reach[np.arange(c)[:, None], order].argmax(axis=1)
        # a point's label is the rank of its first center among the centers
        # that won a point
        won = np.zeros((c, n), dtype=bool)
        np.put_along_axis(won, first, True, axis=1)
        lab = labels[a:b] = np.take_along_axis(
            np.cumsum(won, axis=1, dtype=np.intp) - 1, first, axis=1)
        # one stable sort per row groups the members of each cluster,
        # ascending; a cluster is a slice of its row between consecutive
        # cumulative cluster sizes. The labels lie in 0..n-1, so the
        # narrowest signed type holds them, and numpy sorts 8- and 16-bit
        # keys stably by radix
        sizes[a:b] = np.bincount((np.arange(c)[:, None] * n + lab).ravel(),
                                 minlength=c * n).reshape(c, n)
        members[a:b] = np.argsort(lab.astype(key_type), axis=1,
                                  kind="stable")
        if len(nbr_i):
            # a point is padded unless one of its pad pairs is cut
            cut_t, cut_p = np.nonzero(lab[:, nbr_i] != lab[:, nbr_j])
            cuts = np.bincount(cut_t * n + nbr_i[cut_p], minlength=c * n)
            padded[a:b] = (cuts == 0).reshape(c, n)
    return labels, members, sizes, radii, padded


def build_decomposition(s: PointSet, delta: float, pad_radius: float,
                        eps_pad: float, seed: int,
                        dim_hat: float | None = None) -> PaddedDecomposition:
    """Sample a padded decomposition of ``s``.

    Carves with radius U[delta/4, delta/2]; the intended regime is
    pad_radius <= delta/4 (larger values are allowed but will usually fail
    the audit). The batch is resampled with doubled m until
    min padded_fraction >= 1 - eps_pad, raising PaddingUnachievable after
    MAX_RETRIES. A certain outcome (see the module docstring) is one row
    standing for m carvings, with radius delta/4, and draws no random
    numbers; no resample can change it, so one that misses 1 - eps_pad
    raises at once.
    """
    if s.n == 0:
        raise EmptyInput("cannot decompose an empty set")
    if not (delta > 0 and pad_radius > 0):
        raise BadParams("delta and pad_radius must be positive")
    if not 0 < eps_pad < 1:
        raise BadParams(f"eps_pad must lie in (0, 1), got {eps_pad}")
    require_seed(seed)
    if dim_hat is None:
        dim_hat = estimate_doubling(s).dim_hat
    m, attempt = batch_size(eps_pad, s.n, dim_hat), 0
    certain = _certain_labels(s, delta)
    if certain is not None:
        # one cluster cuts no pad-ball; all singletons cut every pad-ball
        # that holds a second point, and cut none if no pair is that close
        if certain.any() and pad_radius >= s.min_distance():
            raise PaddingUnachievable(
                f"every carving at delta={delta:.6g} gives all singletons, "
                f"and a pad-ball of radius {pad_radius:.6g} holds two points")
        padded = np.ones((m, s.n), dtype=bool)
        return PaddedDecomposition(
            float(delta), float(pad_radius), float(eps_pad), int(seed), m,
            certain[None, :], np.arange(s.n)[None, :],
            np.bincount(certain, minlength=s.n)[None, :],
            np.array([delta / 4.0]), padded, padded.mean(axis=0),
            float(dim_hat))
    dmat = s.distance_matrix()
    # pairs (i, j != i) with d <= pad_radius: the membership that must not split
    close = (dmat <= pad_radius) & ~np.eye(s.n, dtype=bool)
    pad_pairs = np.nonzero(close)
    while True:
        *batch, padded = _sample(dmat, delta, pad_pairs, m, seed, attempt)
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
                               int(seed), m, *batch, padded, frac,
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

    Checks each carving covers the set with disjoint nonempty clusters of
    diameter <= delta, and recomputes the padded indicators bit-exactly:
    a point is padded when no point of its pad-ball carries another label,
    one n x n comparison per carving. The carvings are read row by row,
    each cluster a slice of its member row.
    """
    dmat = s.distance_matrix()
    n = s.n
    in_pad = dmat <= dec.pad_radius
    recomputed = np.empty((len(dec.labels), n), dtype=bool)
    max_diam, diam_ok, cover_ok, disjoint_ok = 0.0, True, True, True
    for t, (lab, row, size) in enumerate(zip(dec.labels, dec.members,
                                             dec.sizes)):
        seen = np.zeros(n, dtype=bool)
        ends = np.cumsum(size[size > 0]).tolist()
        for cid, (lo, hi) in enumerate(zip([0] + ends[:-1], ends)):
            members = row[lo:hi]
            if seen[members].any():
                disjoint_ok = False
            seen[members] = True
            if (lab[members] != cid).any():
                cover_ok = False
            if len(members) > 1:
                diam = float(dmat[np.ix_(members, members)].max())
                max_diam = max(max_diam, diam)
                if diam > dec.delta:
                    diam_ok = False
        if not seen.all():
            cover_ok = False
        recomputed[t] = ~(in_pad & (lab[:, None] != lab[None, :])).any(axis=1)
    # each row stands for dec.copies carvings
    recomputed = np.repeat(recomputed, dec.copies, axis=0)
    consistent = np.array_equal(recomputed, dec.padded)
    frac = recomputed.mean(axis=0)
    if not np.array_equal(frac, dec.padded_fraction):
        consistent = False
    passed = (diam_ok and cover_ok and disjoint_ok and consistent
              and frac.min() >= 1.0 - dec.eps_pad)
    return PaddingAudit(float(frac.min()), float(frac.mean()), max_diam,
                        diam_ok, cover_ok, disjoint_ok, consistent, passed)
