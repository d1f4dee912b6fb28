"""Single-scale embedding: padded decomposition, per-cluster transform
maps, smoothing, direct sum.

For a scale r the pipeline is: sample a padded decomposition of the whole
set; map each cluster through its transformed metric (the Gaussian
transform for l2, trace-merged cuts for l1, per-net-point threshold
coordinates for l-infinity, where the l1 and l-infinity maps read a net
of radius eps*delta*r, a quarter of that for l-infinity); fade each
cluster map to zero near the cluster boundary with the smoothing weight
min(1, (delta/r) * dist(x, outside)); direct-sum the partitions with the
norm's combining scale and apply the final global rescale. Every point is
decomposed, so no point needs an extension. A weight is below 1 only
where fl((delta/r) * h) < 1, so the smoothing reads only the neighbours y
with fl((delta/r) * d(x, y)) < 1: a prefix of x's sorted distance row
(sorted once per point set), scanned for every member row of the scale's
new clusters in one flat batch. h is kept below the cap r/delta and is
inf at or past it.

l2 realizes no cluster: the Gram of the scale's direct sum is summed in
closed form from its clusters (``_scale_gram``), and one ``factor_gram``
writes at most n coordinates. l-infinity writes the whole scale in one
scatter (``_linf_block``): one column per net point of each cluster of
two or more points. l1 writes each distinct cluster's map in a column
block of its own (``_l1_block``) from the whole set's box cuts at r,
restricted to the cluster and merged on their net traces. The cuts are
Poisson cuts of all of R^d, so a cluster's cut measure is the whole
set's restricted to it. Their sets do not depend on r: a build cuts the
whole set once (``cut_structure``, which ``require_source`` returns) and
replays it at each scale's r (``cut_weights``).
``scale_clusters`` is the first half alone: the decomposition and each
distinct cluster's count and smoothing. It reads the carvings' clusters
off the decomposition's member and size rows and finds the distinct
ones with array operations (a 64-bit key per cluster, every match
confirmed member by member), so no object is made per carving or per
cluster. The three maps are built from those arrays; the snowflake
calls the l2 and l1 functions for each scale it decomposes, and reads an
l-infinity scale's distances off the arrays with no block. ``_l1_block``
takes the arrays alone, and ``_one_cluster_block`` gives them for a
scale of one cluster with no decomposition, so the snowflake builds such
a scale without ``scale_clusters``.

The finished embedding keeps everything needed for the audit: the
distinct clusters with their smoothing weights (and, in l1, their raw
maps), the net the l1 and l-infinity maps read, and the fully scaled
coordinate matrix whose rows are the images of every input point.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import report as report_mod
from .decomposition import (PaddedDecomposition, batch_size,
                            build_decomposition, one_cluster)
from .errors import (BadParams, EmptyInput, HeaderMismatch,
                     PaddingUnachievable)
from .points import (PAIRWISE_BYTES, Net, PointSet, _pairwise,
                     estimate_doubling, greedy_net, norm_label,
                     require_normalized, require_seed, vector_norm)
from .transforms import (CutStructure, _groups, _pack, cut_structure,
                         cut_weights, factor_gram, gaussian_transform,
                         laplace_transform, threshold_transform)

#: delta_decomp = 3 * C_PAD * max(1, dim_hat) * r / delta
C_PAD = 8.0
#: global rescale constant per norm: final map divided by (1 + C * eps)
RESCALE_C = {1.0: 40.0, 2.0: 40.0, np.inf: 0.0}
#: padding failure budget
EPS_PAD = 0.36
#: doublings of the decomposition diameter before giving up
DELTA_RETRIES = 3


def transform_for(norm: float):
    if norm == 2.0:
        return gaussian_transform
    if norm == 1.0:
        return laplace_transform
    return threshold_transform


@dataclass
class SingleScaleParams:
    r: float
    eps: float
    delta: float
    seed: int = 0
    dim_hat: float | None = None            # None: estimate from the data

    def __post_init__(self):
        # Python floats, so a NumPy scalar serializes as one
        self.r, self.eps, self.delta = map(float, (self.r, self.eps, self.delta))
        if not 0 < self.r < math.inf:
            raise BadParams(f"r must be positive and finite, got {self.r}")
        if not 0 < self.eps < 0.25:
            raise BadParams(f"eps must lie in (0, 1/4), got {self.eps}")
        if not 0 < self.delta < 0.25:
            raise BadParams(f"delta must lie in (0, 1/4), got {self.delta}")
        self.seed = require_seed(self.seed)
        self.dim_hat = None if self.dim_hat is None else float(self.dim_hat)
        if self.dim_hat is not None and not 0.0 <= self.dim_hat < math.inf:
            raise BadParams(
                f"dim_hat must lie in [0, inf), got {self.dim_hat}")

    def net_radius(self, norm: float) -> float:
        # The max-norm path reads distances off net anchors, so a pair at the
        # bottom of the audit window (source distance delta*r) pays twice the
        # net radius in approximation error.  A quarter-radius net keeps that
        # loss within the eps/(1+eps) allowance of the lower band edge; the
        # other norms absorb it in their wider band.
        if norm == np.inf:
            return 0.25 * self.eps * self.delta * self.r
        return self.eps * self.delta * self.r

    @property
    def pad_radius(self) -> float:
        return 3.0 * self.r / self.delta

    def decomposition_diameter(self, dim_hat: float) -> float:
        return 3.0 * C_PAD * max(1.0, dim_hat) * self.r / self.delta

    def one_cluster(self, s: PointSet, dim_hat: float) -> bool:
        """Whether ``scale_clusters`` decomposes ``s`` at this scale into
        one cluster of every point, with no sampling and no retry: the
        first decomposition diameter carves the whole set in one piece.
        That cluster has no outside, so all its smoothing weights are 1."""
        return one_cluster(s, self.decomposition_diameter(dim_hat))


def require_source(s: PointSet) -> CutStructure | None:
    """What every scale of a build over ``s`` reads of its source: for an
    l1 set, the whole set's ``cut_structure``, which refuses a set past
    the cut cap (ClusterTooLarge) before any scale; None in the other
    norms."""
    return cut_structure(s.points) if s.norm == 1.0 else None


@dataclass
class ClusterEntry:
    """One distinct cluster with its multiplicity across the m partitions.

    The direct sum over partitions regroups exactly into per-cluster
    blocks: the smoothing distance h(x) = d(x, X minus C) depends
    only on the cluster itself, so two partitions sharing C contribute
    identical blocks and only the multiplicity matters (squared weights
    add for l2, linear for l1, and the max is idempotent for l-infinity).
    ``h_values`` holds h(x) where it is below the cap r/delta, and inf
    where it is at or past the cap or C has no outside: there the weight
    min(1, (delta/r) * h) is exactly 1.

    ``members``, ``weights`` and ``h_values`` are slices of the scale's
    columnar record (``ScaleClusters``), which the build itself reads;
    the entries serve the API and the audit.
    ``coords`` is the raw l1 cluster map f_C (before smoothing and
    scaling), rows aligned with ``members`` (indices into the point set),
    with the first member at the origin, keeping every image norm at most
    r. ``build_single_scale`` fills it in for l1 only; ``contract_audit``
    measures the l2 and l-infinity maps from a factored Gram and from the
    net.
    """
    members: np.ndarray
    count: int                             # partitions containing the cluster
    weights: np.ndarray                    # smoothing weight per member
    h_values: np.ndarray                   # h below the cap r/delta, else inf
    coords: np.ndarray | None = None


@dataclass
class ScaleClusters:
    """A scale's padded decomposition and its distinct clusters, each with
    its count and smoothing, before any cluster map is realized.

    The clusters are kept as arrays, in order of first appearance across
    the carvings: ``members`` concatenates their member indices, each
    cluster's ascending, ``sizes`` and ``counts`` hold one entry per
    cluster, and ``weights`` and ``h_values`` are aligned with
    ``members``. ``clusters`` is the same record as ``ClusterEntry``
    objects, made on first use. ``group`` holds the distinct cluster of
    each cluster of each label row, rows in order and each row's
    clusters in label order."""
    params: SingleScaleParams
    dim_hat: float
    decomposition: PaddedDecomposition
    members: np.ndarray                    # distinct clusters, concatenated
    sizes: np.ndarray                      # (K,) members per cluster
    counts: np.ndarray                     # (K,) carvings holding it
    weights: np.ndarray                    # smoothing weight per member
    h_values: np.ndarray                   # h below the cap r/delta, else inf
    group: np.ndarray                      # distinct cluster per row cluster

    @property
    def m(self) -> int:
        return self.decomposition.m

    @cached_property
    def positions(self) -> np.ndarray:
        """Shaped like the decomposition's labels: where in ``members``
        each point sits within its cluster of that label row. A row's
        cluster lists its members ascending, as its distinct cluster
        does, so a point's rank in the one is its rank in the other."""
        dec = self.decomposition
        flat = dec.members.ravel()
        row_sizes = dec.sizes[dec.sizes > 0]
        starts = np.cumsum(self.sizes) - self.sizes
        rank = np.arange(len(flat)) - np.repeat(
            np.cumsum(row_sizes) - row_sizes, row_sizes)
        out = np.empty(dec.labels.shape, dtype=np.intp)
        out.ravel()[np.arange(len(flat)) // dec.n * dec.n + flat] = (
            np.repeat(starts[self.group], row_sizes) + rank)
        return out

    @cached_property
    def clusters(self) -> list[ClusterEntry]:
        ends = np.cumsum(self.sizes).tolist()
        return [ClusterEntry(self.members[lo:hi], count,
                             self.weights[lo:hi], self.h_values[lo:hi])
                for lo, hi, count in zip([0] + ends[:-1], ends,
                                         self.counts.tolist())]


@dataclass
class SingleScaleEmbedding:
    params: SingleScaleParams
    source: PointSet
    net: Net | None                        # read by the l1/linf maps only
    dim_hat: float
    decomposition: PaddedDecomposition
    clusters: list[ClusterEntry]
    m: int
    k: int                                 # concrete coordinate count
    theory_k: int
    combine_scale: float                   # m^-1/2, m^-1 or (1+2*sqrt(delta))^-1
    rescale: float                         # 1 / (1 + C*eps)
    coords: np.ndarray                     # (n, k) final images, all scaling in
    empty_net_clusters: int                # l1/linf clusters with no net point

    @property
    def n(self) -> int:
        return self.source.n

    def image_distance_matrix(self) -> np.ndarray:
        return _pairwise(self.coords, self.source.norm)


def theory_dimension(eps: float, delta: float, eps_pad: float,
                     dim_hat: float, norm: float) -> int:
    """Input-size-independent target dimension from the parameters alone.

    Uses the doubling-driven part of the partition budget
    m_hat = ceil(2 * eps_pad^-1 * d * max(1, ln d)) with d = max(1, dim_hat),
    and a per-cluster dimension from the cluster-cardinality bound
    |C ∩ N| <= lambda^ceil(log2(Delta / net_radius)):
    k_hat = ceil(8 * eps^-2 * ln(cardinality bound)) for l2,
    the cardinality bound itself for l-infinity, and 2^min(cardinality, 20)
    capped for l1. Reported alongside the concrete coordinate count, which
    does depend on n through the sampled batch size.
    """
    d = max(1.0, dim_hat)
    m_hat = max(1, math.ceil(2.0 * d * max(1.0, math.log(d)) / eps_pad))
    ratio = (3.0 * C_PAD * d / delta) / (eps * delta)
    log_card = math.ceil(math.log2(max(ratio, 2.0))) * d * math.log(2.0)
    if norm == 2.0:
        k_hat = math.ceil(8.0 * eps ** -2 * max(log_card, math.log(2.0)))
    elif norm == np.inf:
        k_hat = math.ceil(math.exp(min(log_card, 50.0)))
    else:
        k_hat = 2 ** min(int(math.ceil(math.exp(min(log_card, 50.0)))), 20)
    return m_hat * k_hat


def _embed_cluster_l1(cuts: tuple[np.ndarray, np.ndarray],
                      members: np.ndarray,
                      net_local: np.ndarray) -> np.ndarray:
    """A cluster's raw l1 map f_C from ``cuts``, the whole set's weights
    and sides at the scale (``cut_weights``). Their restrictions to C are
    C's own cuts: each is complemented so that C's first member lies
    outside, the empty ones are dropped, and the weights are summed over
    the cuts of each trace on C's net points (``net_local``, positions
    in ``members``)."""
    nc = len(members)
    if nc < 2 or len(net_local) == 0:
        return np.zeros((nc, 0))
    weights, sides = cuts
    sides = sides[:, members]
    sides ^= sides[:, :1]
    live = sides.any(axis=1)
    weights, sides = weights[live], sides[live]
    # one coordinate per distinct trace A ∩ (C ∩ N), in order of first
    # appearance; summing same-trace cuts is 1-Lipschitz and exactly
    # isometric on the net points. The first member lies outside every
    # cut, so it sits at the origin
    first, col = _groups(_pack(sides[:, net_local]))
    cut, row = np.nonzero(sides)
    k = len(first)
    return np.bincount(row * k + col[cut], weights=weights[cut],
                       minlength=nc * k).reshape(nc, k)


def _linf_block(sc: ScaleClusters, dmat: np.ndarray, in_net: np.ndarray,
                scaled_w: np.ndarray) -> np.ndarray:
    """An l-infinity scale's coordinates, written in one scatter.

    Each cluster of two or more points gets one column per net member z,
    clusters in order and each one's net members ascending; the column
    holds T_r(d(x, z)) times ``scaled_w`` (aligned with ``sc.members``) on
    the cluster's rows x and zero elsewhere. A singleton has no column:
    its own would be T_r(0) = 0 and carry no distance."""
    sizes = sc.sizes
    starts = np.cumsum(sizes) - sizes
    # the position in sc.members of each column's net point, and its cluster
    at = np.flatnonzero(in_net[sc.members] & np.repeat(sizes > 1, sizes))
    cluster = np.repeat(np.arange(len(sizes)), sizes)[at]
    lens = sizes[cluster]
    # every (member, column) pair of a cluster, column by column
    col = np.repeat(np.arange(len(at)), lens)
    pos = np.arange(len(col)) - np.repeat(np.cumsum(lens) - lens
                                          - starts[cluster], lens)
    rows = sc.members[pos]
    out = np.zeros((dmat.shape[0], len(at)))
    out[rows, col] = (threshold_transform(dmat[rows, sc.members[at][col]],
                                          sc.params.r) * scaled_w[pos])
    return out


def _l1_block(members: np.ndarray, sizes: np.ndarray, in_net: np.ndarray,
              scaled_w: np.ndarray, cuts: tuple[np.ndarray, np.ndarray]
              ) -> tuple[np.ndarray, list[np.ndarray]]:
    """An l1 scale's coordinates, and each distinct cluster's raw map f_C
    (``_embed_cluster_l1``), all from ``cuts``, the whole set's cuts
    weighed at the scale's r (``cut_weights``). The clusters are laid end
    to end in ``members`` with the given ``sizes``, as in
    ``ScaleClusters``: one cluster of every point for a scale that is not
    decomposed. Each f_C times ``scaled_w`` (aligned with ``members``)
    fills a column block of its own on the cluster's rows, clusters in
    order."""
    ends = np.cumsum(sizes).tolist()
    blocks = []
    for lo, hi in zip([0] + ends[:-1], ends):
        c = members[lo:hi]
        blocks.append((c, scaled_w[lo:hi, None], _embed_cluster_l1(
            cuts, c, np.flatnonzero(in_net[c]))))
    out = np.zeros((len(in_net), sum(f.shape[1] for _, _, f in blocks)))
    col = 0
    for c, w, f in blocks:
        out[c, col:col + f.shape[1]] = f * w
        col += f.shape[1]
    return out, [f for _, _, f in blocks]


def _linf_combine(delta: float) -> float:
    """The l-infinity combining scale 1 / (1 + 2 sqrt(delta))."""
    return 1.0 / (1.0 + 2.0 * math.sqrt(delta))


def _member_factors(norm: float, delta: float, m: int, weights: np.ndarray,
                    sizes: np.ndarray,
                    counts: np.ndarray) -> tuple[float, np.ndarray]:
    """An l1 or l-infinity scale's combining scale, 1/m or
    1/(1 + 2 sqrt(delta)), and each member's factor in its block: its
    smoothing weight times the combining scale (in l1, times its
    cluster's count first). The members are laid out as in
    ``ScaleClusters``."""
    if norm == np.inf:
        combine = _linf_combine(delta)
        return combine, weights * combine
    combine = 1.0 / m
    return combine, weights * np.repeat(counts * combine, sizes)


def _block_weights(sc: ScaleClusters,
                   norm: float) -> tuple[float, np.ndarray]:
    """``_member_factors`` of a decomposed scale (aligned with
    ``sc.members``)."""
    return _member_factors(norm, sc.params.delta, sc.m, sc.weights,
                           sc.sizes, sc.counts)


def _one_cluster_block(n: int, delta: float, dim_hat: float, norm: float
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The members, sizes and ``_block_weights`` factors of an l1 or
    l-infinity scale of one cluster (``SingleScaleParams.one_cluster``),
    with no decomposition: ``scale_clusters`` would give one cluster of
    every point, held by all m = ``batch_size`` carvings, with every
    smoothing weight 1."""
    m = batch_size(EPS_PAD, n, dim_hat)
    sizes = np.array([n])
    return np.arange(n), sizes, _member_factors(
        norm, delta, m, np.ones(n), sizes, np.array([m]))[1]


def _point_keys(n: int) -> np.ndarray:
    """A fixed 64-bit key per point index: splitmix64 of index + 1."""
    x = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _exact_groups(flat: np.ndarray, starts: np.ndarray,
                  sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group candidate clusters by their member bytes."""
    keys = np.array([flat[lo:lo + size].tobytes() for lo, size
                     in zip(starts.tolist(), sizes.tolist())], dtype=object)
    return _groups(keys[:, None])


def _keyed_groups(flat: np.ndarray, sizes: np.ndarray,
                  n: int) -> tuple[np.ndarray, np.ndarray]:
    """``_distinct`` by a 64-bit key per candidate: the sum of fixed
    per-point keys over the members mixed with the size. Every grouped
    candidate is then compared member by member with its group's first;
    any mismatch sends the whole set to the exact grouping by member
    bytes, so the result never rests on the keys being distinct."""
    starts = np.cumsum(sizes) - sizes
    csum = np.zeros(len(flat) + 1, dtype=np.uint64)
    np.cumsum(_point_keys(n)[flat], out=csum[1:])
    key = (csum[starts + sizes] - csum[starts]
           + sizes.astype(np.uint64) * np.uint64(0xD6E8FEB86659FD93))
    first, inverse = _groups(key[:, None])
    lead = first[inverse]
    same = np.array_equal(sizes[lead], sizes)
    if same:
        shift = np.repeat(starts[lead] - starts, sizes)
        same = np.array_equal(flat[np.arange(len(flat)) + shift], flat)
    if not same:
        return _exact_groups(flat, starts, sizes)
    return first, inverse


def _distinct(flat: np.ndarray, sizes: np.ndarray,
              n: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct clusters among candidate clusters of points 0..n-1,
    laid end to end in ``flat`` with the given sizes.

    Returns each distinct cluster's first candidate, ascending, and each
    candidate's distinct cluster, numbered in that order. A singleton
    candidate is its point, so singletons are grouped by point with no
    key: each point's first singleton candidate is the minimum candidate
    index over its singletons. Only the candidates of two or more points
    are grouped by ``_keyed_groups``. A candidate's group is named by its
    first candidate, and the first candidates are those that name
    themselves."""
    one = sizes == 1
    lead = np.empty(len(sizes), dtype=np.intp)
    single, multi = np.flatnonzero(one), np.flatnonzero(~one)
    in_one = np.repeat(one, sizes)
    point = flat[in_one]
    by_point = np.full(n, len(sizes), dtype=np.intp)
    np.minimum.at(by_point, point, single)
    lead[single] = by_point[point]
    first, inverse = _keyed_groups(flat[~in_one], sizes[multi], n)
    lead[multi] = multi[first[inverse]]
    fresh = lead == np.arange(len(sizes))
    return np.flatnonzero(fresh), np.cumsum(fresh)[lead] - 1


def _runs(lens: np.ndarray):
    """Lay runs of the given lengths end to end, a chunk of whole runs at
    a time, at most PAIRWISE_BYTES / 8 entries (or one run) per chunk.
    Yields (lo, hi, run, j, starts): runs lo..hi-1, each entry's run and
    its offset in that run, and each run's first entry in the chunk."""
    ends = np.cumsum(lens)
    step = max(1, PAIRWISE_BYTES // 8)
    lo = 0
    while lo < len(lens):
        base = ends[lo] - lens[lo]
        hi = max(lo + 1, int(np.searchsorted(ends, base + step, "right")))
        seg = lens[lo:hi]
        starts = ends[lo:hi] - seg - base
        run = np.repeat(np.arange(lo, hi), seg)
        yield lo, hi, run, np.arange(len(run)) - np.repeat(starts, seg), starts
        lo = hi


def _capped_h(s: PointSet, labels: np.ndarray, rows: np.ndarray,
              carving: np.ndarray, c: float) -> np.ndarray:
    """For each point rows[j], its distance h to the nearest point with
    another label in carving row carving[j] of ``labels``, wherever
    fl(c * h) < 1; inf where h is at or past that cap, or no point has
    another label.

    The neighbours y of x with fl(c * d(x, y)) < 1 are a prefix of x's
    sorted distance row, since the product is monotone in d; only that
    prefix is read, and its first label mismatch is the nearest outside
    point. x itself sits in the prefix with its own label, so no column
    is taken to be x, and ties need no care. The prefixes of all rows are
    laid end to end and scanned as one flat batch, in chunks (``_runs``)
    of at most PAIRWISE_BYTES / 8 neighbours."""
    h = np.full(len(rows), np.inf)
    if not len(rows):
        return h
    order, dsorted = s._sorted_rows()
    n = s.n
    lens = np.count_nonzero(c * dsorted < 1.0, axis=1)[rows]
    flat_labels = labels.ravel()
    own = flat_labels[carving * n + rows]
    for lo, hi, seg, pos, seg_starts in _runs(lens):
        nbr = order[rows[seg], pos]
        other = flat_labels[carving[seg] * n + nbr] != own[seg]
        hit = np.minimum.reduceat(np.where(other, pos, n), seg_starts)
        found = hit < lens[lo:hi]
        h[lo:hi][found] = dsorted[rows[lo:hi][found], hit[found]]
    return h


def scale_clusters(s: PointSet, params: SingleScaleParams) -> ScaleClusters:
    """Decompose the whole set at one scale and list its distinct clusters.

    An l-infinity set with delta > eps^2/4 is refused (BadParams) before
    the decomposition. Clusters are listed in order of first appearance
    across the carvings (carving by carving, each in label order), each
    with the number of carvings that contain it. The candidates are read
    off the decomposition's member and size rows, and the distinct ones
    found by ``_distinct``; a certain decomposition's one row counts m
    times."""
    require_normalized(s, "build_single_scale")
    if s.n == 0:
        raise EmptyInput("single-scale embedding of an empty set")
    p = params
    if s.norm == np.inf and p.delta > p.eps ** 2 / 4:
        raise BadParams(f"l-infinity path requires delta <= eps^2/4 "
                        f"({p.eps ** 2 / 4:.6g}), got {p.delta}")
    dim_hat = p.dim_hat if p.dim_hat is not None else estimate_doubling(s).dim_hat

    # --- padded decomposition of the whole set, doubling the diameter on failure
    delta_dec = p.decomposition_diameter(dim_hat)
    for attempt in range(DELTA_RETRIES + 1):
        try:
            dec = build_decomposition(s, delta_dec, p.pad_radius, EPS_PAD,
                                      seed=p.seed * 31 + attempt,
                                      dim_hat=dim_hat)
            break
        except PaddingUnachievable:
            if attempt == DELTA_RETRIES:
                raise
            delta_dec *= 2.0

    # --- each distinct cluster once, counting its multiplicity; the
    # candidates are every carving's clusters, carving by carving
    flat = dec.members.ravel()
    nonempty = dec.sizes > 0
    cand_sizes = dec.sizes[nonempty]
    first, group = _distinct(flat, cand_sizes, s.n)
    counts = np.bincount(group, minlength=len(first)) * dec.copies
    fresh = np.zeros(len(cand_sizes), dtype=bool)
    fresh[first] = True
    members = flat[np.repeat(fresh, cand_sizes)]
    sizes = cand_sizes[first]

    # smoothing: h(x) = distance to the nearest point outside x's cluster
    # where that lowers the weight, inf where the weight is 1; a cluster
    # of all n points has no outside and is not scanned
    c = p.delta / p.r
    h = np.full(len(members), np.inf)
    scan = np.repeat(sizes < s.n, sizes)
    carving = np.repeat(np.nonzero(nonempty)[0][first], sizes)
    h[scan] = _capped_h(s, dec.labels, members[scan], carving[scan], c)
    w = np.minimum(1.0, c * h)
    return ScaleClusters(p, dim_hat, dec, members, sizes, counts, w, h,
                         group)


def _scatter_max(n: int) -> int:
    """The largest cluster ``_scale_gram`` scatters on n points, by the
    cost rule |C|^2 <= n. A serial sweep over every decomposed scale of
    the seed-0 subspace sets (ambient dimension 50, intrinsic 3) summed
    these Gram times (largest scattered cluster: seconds; none is the two
    dense products alone):
    n = 200: 4: 0.25, 8: 0.17, 14: 0.16, 32: 0.21, 64: 0.32, none: 0.33;
    n = 400: 4: 1.26, 8: 0.87, 20: 0.64, 32: 0.65, 64: 0.86, none: 1.93.
    """
    return math.isqrt(n)


def _scale_gram(sc: ScaleClusters,
                dmat: np.ndarray) -> tuple[int, np.ndarray | None]:
    """The Gram matrix of one l2 scale's map, with its rank bound.

    Cluster C's Gaussian-transform map, with member c0 = C[0] at the
    origin, has the closed-form Gram Gamma_C = (T[C, c0] + T[c0, C] -
    T[C, C]) / 2 with T = G_r(d)^2; it is positive semidefinite because
    the Gaussian kernel is positive definite (Schoenberg, 1938). The
    scale's Gram is the sum over distinct clusters of
    (count_C / m) (w_C w_C^T) * Gamma_C, elementwise in the product.

    Clusters of more than ``_scatter_max(n)`` points are multiplied: with
    u_C the weights and v_C the weights times T[., c0] on C's rows (zero
    elsewhere), their sum is (Q + Q^T - T * P) / 2 for
    Q = sum_C c_C u_C v_C^T and P = sum_C c_C u_C u_C^T, two dense
    products over those clusters. The smaller ones, most of a fine
    scale's, are scattered: the |C| x |C| blocks of the clusters of one
    size are formed together, a chunk of PAIRWISE_BYTES / 8 entries at a
    time, and added into the Gram at their (row, column) entries by
    ``np.add.at``, which touches those entries alone (a bincount would
    pass over all n^2 bins once per size). Both
    forms evaluate an entry in the same order of operations, so a pair
    that shares one cluster gets the same bits either way. T is taken
    over every pair only when some cluster is multiplied. Singletons add
    nothing and are skipped. The rank bound is min(n, sum_C (|C| - 1)),
    0 exactly when no cluster has two points, and then there is no Gram
    (None).
    """
    n = dmat.shape[0]
    r = sc.params.r
    multi = sc.sizes > 1
    sizes = sc.sizes[multi]
    k = min(n, int((sizes - 1).sum()))
    if not k:
        return 0, None
    # per member of a cluster of two or more, cluster by cluster: its
    # weight w, w times the cluster's coefficient count / m, and w times
    # T to the cluster's first member
    keep = np.repeat(multi, sc.sizes)
    rows = sc.members[keep]
    starts = np.cumsum(sizes) - sizes
    w = sc.weights[keep]
    wc = w * np.repeat(sc.counts[multi].astype(np.float64) / sc.m, sizes)
    roots = np.repeat(rows[starts], sizes)
    small = sizes <= _scatter_max(n)
    if small.all():
        t = None
        wt = w * np.square(gaussian_transform(dmat[rows, roots], r))
        gram = np.zeros((n, n))
    else:
        t = np.square(gaussian_transform(dmat, r))
        wt = w * t[rows, roots]
        big = np.repeat(~small, sizes)
        nbig = len(sizes) - int(small.sum())
        cols = np.repeat(np.arange(nbig), sizes[~small])
        u = np.zeros((n, nbig))
        v = np.zeros_like(u)
        uc = np.zeros_like(u)
        u[rows[big], cols] = w[big]
        v[rows[big], cols] = wt[big]
        uc[rows[big], cols] = wc[big]
        q = uc @ v.T
        gram = 0.5 * (q + q.T - t * (uc @ u.T))
    flat = gram.ravel()
    for size in np.flatnonzero(np.bincount(sizes[small])).tolist():
        # entry [g, a, b] of a block is members a and b of cluster g
        first = starts[small & (sizes == size)]
        step = max(1, PAIRWISE_BYTES // (8 * size * size))
        for lo in range(0, len(first), step):
            at = first[lo:lo + step, None] + np.arange(size)
            ia, ib = rows[at][:, :, None], rows[at][:, None, :]
            t_ab = (np.square(gaussian_transform(dmat[ia, ib], r))
                    if t is None else t[ia, ib])
            q = wc[at][:, :, None] * wt[at][:, None, :]
            p = wc[at][:, :, None] * w[at][:, None, :]
            np.add.at(flat, ia * n + ib,
                      0.5 * (q + q.transpose(0, 2, 1) - t_ab * p))
    return k, gram


def build_single_scale(s: PointSet, params: SingleScaleParams) -> SingleScaleEmbedding:
    """Assemble the embedding; see the module docstring for the pipeline.

    The map is built in the norm of ``s``. A source the maps cannot be
    built from (``require_source``), or parameters its norm rejects
    (``scale_clusters``), are refused before the decomposition. The map
    is divided by 1 + C * eps, C = ``RESCALE_C`` of the norm."""
    require_normalized(s, "build_single_scale")
    structure = require_source(s)
    sc = scale_clusters(s, params)
    p, entries, m = params, sc.clusters, sc.m
    n, norm = s.n, s.norm
    dmat = s.distance_matrix()
    rescale = 1.0 / (1.0 + RESCALE_C[norm] * p.eps)
    net, empty_net = None, 0
    if norm == 2.0:
        # the direct sum's Gram, rescaled; factored uncentered, so every
        # image keeps its norm, which the audit bounds. A point that is
        # only ever a singleton or its cluster's first member has a zero
        # row and sits at the origin. The other rows have full rank (the
        # Gaussian kernel is strictly positive definite), so they are
        # factored with no relative cutoff: a cutoff would drop true
        # directions of the tail, and no rounding-level direction reaches
        # the zero rows
        combine = 1.0 / math.sqrt(m)
        k, gram = _scale_gram(sc, dmat)
        coords = np.zeros((n, 0))
        if k:
            act = np.flatnonzero(np.diagonal(gram) > 0.0)
            y = factor_gram(rescale ** 2 * gram[np.ix_(act, act)],
                            keep_rtol=0.0)
            coords = np.zeros((n, y.shape[1]))
            coords[act] = y
    else:
        # the l1 and l-infinity maps read the net
        net = greedy_net(s, p.net_radius(norm))
        in_net = np.zeros(n, dtype=bool)
        in_net[net.members] = True
        starts = np.cumsum(sc.sizes) - sc.sizes
        empty_net = int(np.count_nonzero(
            ~np.logical_or.reduceat(in_net[sc.members], starts)))
        combine, scaled_w = _block_weights(sc, norm)
        scaled_w *= rescale
        if norm == np.inf:
            coords = _linf_block(sc, dmat, in_net, scaled_w)
        else:
            coords, maps = _l1_block(sc.members, sc.sizes, in_net, scaled_w,
                                     cut_weights(structure, p.r))
            for c, f in zip(entries, maps):
                c.coords = f
    return SingleScaleEmbedding(
        p, s, net, sc.dim_hat, sc.decomposition, entries, m, coords.shape[1],
        theory_dimension(p.eps, p.delta, EPS_PAD, sc.dim_hat, norm),
        combine, rescale, coords, empty_net)


# ---------------------------------------------------------------------------
# audit


def contract_audit(e: SingleScaleEmbedding) -> report_mod.DistortionReport:
    """Exhaustively re-measure the three contracts plus the per-cluster
    invariants. The returned report's ratios are image / transform(source)
    over the audited window; extras carry the Lipschitz maximum, the image
    norm maximum, and the cluster-level check results."""
    p = e.params
    s = e.source
    dmat = s.distance_matrix()
    img = e.image_distance_matrix()
    iu, ju = np.triu_indices(s.n, k=1)
    src = dmat[iu, ju]
    dst = img[iu, ju]
    tf = transform_for(s.norm)
    ref = np.asarray(tf(src, p.r))
    if s.norm == np.inf:
        window = (p.delta * p.r, p.r / math.sqrt(p.delta))
        # theorem band for image / T_r after the (1+2*sqrt(delta)) division
        bounds = (1.0 / ((1.0 + p.eps) * (1.0 + 2.0 * math.sqrt(p.delta))),
                  1.0 + 1e-9)
    else:
        window = (p.delta * p.r, p.r / p.delta)
        bounds = (1.0 / (1.0 + 45.0 * p.eps), 1.0 + 1e-9)
    rep = report_mod.from_pairs(
        {2.0: "G_r", 1.0: "L_r", np.inf: "T_r"}[s.norm],
        iu, ju, src, dst, ref_dist=ref, window=window, bounds=bounds)
    with np.errstate(divide="ignore", invalid="ignore"):
        lip = np.where(src > 0, dst / src, 0.0)
    norms = vector_norm(e.coords, s.norm)
    lemma = _cluster_checks(e)
    rep.extras.update({
        "max_lipschitz": float(lip.max()) if len(lip) else 0.0,
        "max_image_norm": float(norms.max()) if s.n else 0.0,
        "norm_bound": p.r * (1.0 + p.eps * p.delta),
        "lip_target": 1.0,
        "lower_target": 1.0 / (1.0 + p.eps),
        "theory_k": e.theory_k,
        "concrete_k": e.k,
        "empty_net_clusters": e.empty_net_clusters,
        **lemma,
    })
    return rep


def _cluster_checks(e: SingleScaleEmbedding) -> dict:
    """Lemma-style per-cluster invariants, measured exhaustively:
    (i) raw cluster images stay within norm r;
    (ii) same-cluster raw image distances never exceed the transformed
        distance (slack: realization rounding and dropped cut weights),
        which never exceeds the source distance;
    (iii) the smoothing h is the distance hmin to the nearest point
        outside the cluster wherever fl((delta/r) * hmin) < 1, and inf
        elsewhere (hmin recomputed here from the distance matrix, inf for
        a cluster of every point);
    product rule: the smoothed per-cluster map is (1 + delta)-Lipschitz.
    An l2 cluster is measured through its factored closed-form Gram;
    clusters with the same Gram (translates, or any at a saturated scale)
    share one factor. An l-infinity cluster's raw map is rebuilt from the
    net: T_r of the distances to its net points.
    """
    p, norm = e.params, e.source.norm
    dmat = e.source.distance_matrix()
    tf = transform_for(norm)
    max_f_norm = 0.0
    worst_ii = -np.inf        # max of |f(x)-f(y)| - transform(d), want <= slack
    worst_tf = -np.inf        # max of transform(d) - d, want <= float noise
    worst_iii = 0.0           # max of |h(x) - capped hmin(x)|, want == 0
    worst_product = 0.0       # max smoothed same-cluster Lipschitz ratio
    factors: dict[bytes, np.ndarray] = {}
    in_net = np.zeros(e.n, dtype=bool)
    if e.net is not None:
        in_net[e.net.members] = True
    for entry in e.clusters:
        members = entry.members
        dsub = dmat[np.ix_(members, members)]
        raw = entry.coords
        if norm == np.inf:
            # l-infinity keeps no cluster map: threshold the distances to
            # the cluster's net points (a singleton has none to keep)
            raw = tf(dsub[:, np.flatnonzero(in_net[members]
                                            & (len(members) > 1))], p.r)
        elif raw is None:
            # l2 keeps no cluster map: factor its closed-form Gram, a map
            # isometric to it with the first member at the origin
            t = np.square(gaussian_transform(dsub, p.r))
            gram = 0.5 * (t[:, :1] + t[:1, :] - t)
            key = gram.tobytes()
            raw = factors.get(key)
            if raw is None:
                raw = factors[key] = factor_gram(gram)
        if raw.shape[1]:
            max_f_norm = max(max_f_norm,
                             float(vector_norm(raw, norm).max()))
        if len(members) > 1:
            fsub = _pairwise(raw, norm)
            tsub = np.asarray(tf(dsub, p.r))
            np.fill_diagonal(tsub, 0.0)
            offd = ~np.eye(len(members), dtype=bool)
            worst_ii = max(worst_ii, float((fsub - tsub)[offd].max()))
            worst_tf = max(worst_tf, float((tsub - dsub)[offd].max()))
            smoothed = _pairwise(raw * entry.weights[:, None], norm)
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(dsub > 0, smoothed / dsub, 0.0)
            worst_product = max(worst_product, float(ratios.max()))
        hmin = np.full(len(members), np.inf)
        if len(members) < e.n:
            mask = np.ones(e.n, dtype=bool)
            mask[members] = False
            hmin = dmat[np.ix_(members, np.flatnonzero(mask))].min(axis=1)
        want = np.where((p.delta / p.r) * hmin < 1.0, hmin, np.inf)
        off = entry.h_values != want               # equal infs are no gap
        worst_iii = max(worst_iii, float(
            np.abs(entry.h_values[off] - want[off]).max(initial=0.0)))
    return {
        "max_cluster_image_norm": max_f_norm,
        "cluster_norm_bound": p.r,
        "same_cluster_excess": worst_ii,
        "transform_vs_source_excess": worst_tf,
        "smoothing_excess": worst_iii,
        "product_rule_max": worst_product,
        "product_rule_bound": 1.0 + p.delta,
    }


# ---------------------------------------------------------------------------
# serialization: 4-byte little-endian header length, JSON header, then the
# (n, k) coordinate block as little-endian float64, row-major


_HLEN = struct.Struct("<I")
_LAYOUT = "rows are points in input order; float64 little-endian"


def _dumps_coords(header: dict, coords: np.ndarray) -> bytes:
    """The dump envelope around ``header`` (which must carry n and k)."""
    blob = json.dumps({**header, "layout": _LAYOUT}, sort_keys=True,
                      separators=(",", ":")).encode()
    body = np.ascontiguousarray(coords, dtype="<f8").tobytes()
    return _HLEN.pack(len(blob)) + blob + body


def dumps(e: SingleScaleEmbedding) -> bytes:
    """Embedding dump: the scale's parameters and the final coordinates."""
    p = e.params
    return _dumps_coords({
        "kind": "single-scale",
        "n": e.n,
        "k": e.k,
        "theory_k": e.theory_k,
        "norm": norm_label(e.source.norm),
        "r": p.r,
        "eps": p.eps,
        "delta": p.delta,
        "seed": p.seed,
        "m": e.m,
        "dim_hat": e.dim_hat,
        "combine_scale": e.combine_scale,
        "rescale": e.rescale,
    }, e.coords)


def loads_coords(data: bytes) -> tuple[dict, np.ndarray]:
    """Read back a single-scale or snowflake dump: (header, coords).

    Raises HeaderMismatch when the bytes are truncated, the header is not a
    JSON object with non-negative integer n and k that an array can hold,
    or the body does not hold exactly n * k float64 values.
    """
    if len(data) < _HLEN.size:
        raise HeaderMismatch("dump shorter than its header length field")
    (hlen,) = _HLEN.unpack_from(data, 0)
    start = _HLEN.size + hlen
    if len(data) < start:
        raise HeaderMismatch(f"dump truncated inside its {hlen}-byte header")
    try:
        header = json.loads(data[_HLEN.size:start].decode())
        n, k = header["n"], header["k"]
    except (ValueError, KeyError, TypeError) as exc:
        raise HeaderMismatch(f"bad dump header: {exc}") from exc
    if not (type(n) is int and type(k) is int and n >= 0 and k >= 0):
        raise HeaderMismatch(f"bad dump shape n={n!r}, k={k!r}")
    if len(data) - start != 8 * n * k:
        raise HeaderMismatch(
            f"dump body holds {len(data) - start} bytes, expected "
            f"{8 * n * k} for {n} x {k} float64")
    try:
        coords = np.frombuffer(data[start:], dtype="<f8").reshape(n, k)
    except ValueError as exc:
        raise HeaderMismatch(f"no array holds a {n} x {k} dump: {exc}") from exc
    return header, coords.copy()
