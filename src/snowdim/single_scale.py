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
decomposed, so no point needs an extension.

l2 realizes no cluster: the Gram of the scale's direct sum is summed in
closed form from its clusters (``_scale_gram``, which the l2 snowflake
sums across scales too), and one ``factor_gram`` writes at most n
coordinates. l1 and l-infinity build each distinct cluster's map in its
own column block. The l1 cuts of a cluster whose source
metric is a line are closed-form arcs in the line order
(``circular_cuts``); every other l1 cluster gets the cut LP's cuts
(``cut_decomposition``), which stops at 14 points. ``scale_clusters`` is
the first half alone: the decomposition and each distinct cluster's
count and smoothing. It reads the carvings' clusters off the
decomposition's member and size rows and finds the distinct ones with
array operations (a 64-bit key per cluster, every match confirmed member
by member), so no object is made per carving or per cluster; the l2
Gram is summed from the same arrays.

The finished embedding keeps everything needed for the audit: the
distinct clusters with their smoothing weights (and, in l1 and
l-infinity, their raw maps) and the fully scaled coordinate matrix whose
rows are the images of every input point.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import report as report_mod
from .decomposition import PaddedDecomposition, build_decomposition
from .errors import BadParams, EmptyInput, HeaderMismatch, PaddingUnachievable
from .points import (Net, PointSet, _pairwise, estimate_doubling, greedy_net,
                     norm_label, norm_tag, require_normalized, vector_norm)
from .transforms import (Cut, circular_cuts, cut_decomposition, factor_gram,
                         gaussian_transform, laplace_transform, line_order,
                         threshold_transform)

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
    norm: float | None = None               # None: the input's norm
    seed: int = 0
    rescale_c: float | None = None          # None: per-norm default
    dim_hat: float | None = None            # None: estimate from the data

    def __post_init__(self):
        if not self.r > 0:
            raise BadParams(f"scale r must be positive, got {self.r}")
        if not 0 < self.eps < 0.25:
            raise BadParams(f"eps must lie in (0, 1/4), got {self.eps}")
        if not 0 < self.delta < 0.25:
            raise BadParams(f"delta must lie in (0, 1/4), got {self.delta}")
        if self.norm is None:
            return                          # checked once build_single_scale sets it
        self.norm = norm_tag(self.norm)
        if self.norm == np.inf and self.delta > self.eps ** 2 / 4:
            raise BadParams(
                f"l-infinity path requires delta <= eps^2/4 "
                f"({self.eps ** 2 / 4:.6g}), got {self.delta}")
        if self.rescale_c is None:
            self.rescale_c = RESCALE_C[self.norm]

    @property
    def net_radius(self) -> float:
        # The max-norm path reads distances off net anchors, so a pair at the
        # bottom of the audit window (source distance delta*r) pays twice the
        # net radius in approximation error.  A quarter-radius net keeps that
        # loss within the eps/(1+eps) allowance of the lower band edge; the
        # other norms absorb it in their wider band.
        if self.norm == np.inf:
            return 0.25 * self.eps * self.delta * self.r
        return self.eps * self.delta * self.r

    @property
    def pad_radius(self) -> float:
        return 3.0 * self.r / self.delta

    def decomposition_diameter(self, dim_hat: float) -> float:
        return 3.0 * C_PAD * max(1.0, dim_hat) * self.r / self.delta


@dataclass
class ClusterEntry:
    """One distinct cluster with its multiplicity across the m partitions.

    The direct sum over partitions regroups exactly into per-cluster
    blocks: the smoothing distance h(x) = d(x, X minus C) depends
    only on the cluster itself, so two partitions sharing C contribute
    identical blocks and only the multiplicity matters (squared weights
    add for l2, linear for l1, and the max is idempotent for l-infinity).

    ``members``, ``weights`` and ``h_values`` are slices of the scale's
    columnar record (``ScaleClusters``), which the build itself reads;
    the entries serve the API, the audit and the per-cluster l1 and
    l-infinity maps. ``coords`` is the raw cluster map f_C (before
    smoothing and scaling), rows aligned with ``members`` (indices into
    the point set); the l1 map puts the first member at the origin,
    keeping every image norm at most r. ``scale_clusters`` leaves it None
    and ``build_single_scale`` fills it in for l1 and l-infinity. On l2 it
    stays None: the build sums the clusters' closed-form Grams instead,
    and ``contract_audit`` factors each cluster's Gram to measure its map.
    """
    members: np.ndarray
    count: int                             # partitions containing the cluster
    weights: np.ndarray                    # smoothing weight per member
    h_values: np.ndarray                   # distance-to-outside, inf if none
    coords: np.ndarray | None = None

    @property
    def k(self) -> int:
        return self.coords.shape[1]


@dataclass
class ScaleClusters:
    """A scale's padded decomposition and its distinct clusters, each with
    its count and smoothing, before any cluster map is realized.

    The clusters are kept as arrays, in order of first appearance across
    the carvings: ``members`` concatenates their member indices, each
    cluster's ascending, ``sizes`` and ``counts`` hold one entry per
    cluster, and ``weights`` and ``h_values`` are aligned with
    ``members``. ``clusters`` is the same record as ``ClusterEntry``
    objects, made on first use."""
    params: SingleScaleParams              # norm resolved
    dim_hat: float
    decomposition: PaddedDecomposition
    members: np.ndarray                    # distinct clusters, concatenated
    sizes: np.ndarray                      # (K,) members per cluster
    counts: np.ndarray                     # (K,) carvings holding it
    weights: np.ndarray                    # smoothing weight per member
    h_values: np.ndarray                   # distance-to-outside per member

    @property
    def m(self) -> int:
        return self.decomposition.m

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
        return _pairwise(self.coords, self.params.norm)


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


def _embed_cluster_l1(dmat_c, net_local: np.ndarray, r: float,
                      cuts_by_metric: dict[bytes, list[Cut]]) -> np.ndarray:
    nc = dmat_c.shape[0]
    if nc < 2 or len(net_local) == 0:
        return np.zeros((nc, 0))
    lr = laplace_transform(dmat_c, r)
    np.fill_diagonal(lr, 0.0)
    # a cluster of a line gets closed-form arc cuts in the line order of
    # its source metric (L_r saturates, so its own order can tie); any
    # other cluster, or one whose arcs fail their certificate, gets the
    # LP. Both are functions of the matrix alone: clusters with the same
    # transformed metric (any cluster at a saturated scale, translated
    # runs of an evenly spaced set) share one decomposition; the trace
    # grouping below depends on the cluster's net points and stays per
    # cluster
    key = lr.tobytes()
    cuts = cuts_by_metric.get(key)
    if cuts is None:
        order = line_order(dmat_c)
        if order is not None:
            cuts = circular_cuts(lr, order)
        if cuts is None:
            cuts = cut_decomposition(lr)
        cuts_by_metric[key] = cuts
    net_set = frozenset(int(v) for v in net_local)
    # one coordinate per distinct trace A ∩ (C ∩ N); summing same-trace
    # cuts is 1-Lipschitz and exactly isometric on the net points
    traces: dict[frozenset, list] = {}
    for cut in cuts:
        traces.setdefault(cut.members & net_set, []).append(cut)
    coords = np.zeros((nc, len(traces)))
    for col, group in enumerate(traces.values()):
        for cut in group:
            idx = [i for i in cut.members]
            coords[idx, col] += cut.weight
    return coords - coords[0]


def _embed_cluster_linf(dmat_c, net_local: np.ndarray, r: float) -> np.ndarray:
    # a singleton's one column would be T_r(0) = 0, carrying no distance
    if dmat_c.shape[0] < 2:
        return np.zeros((1, 0))
    return threshold_transform(dmat_c[:, net_local], r)


def _point_keys(n: int) -> np.ndarray:
    """A fixed 64-bit key per point index: splitmix64 of index + 1."""
    x = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _exact_groups(flat: np.ndarray, starts: np.ndarray,
                  sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group candidate clusters by their member bytes, one at a time."""
    group_of: dict[bytes, int] = {}
    first, inverse = [], np.empty(len(sizes), dtype=np.intp)
    for j, (lo, size) in enumerate(zip(starts.tolist(), sizes.tolist())):
        key = flat[lo:lo + size].tobytes()
        g = group_of.get(key)
        if g is None:
            g = group_of[key] = len(first)
            first.append(j)
        inverse[j] = g
    return np.array(first, dtype=np.intp), inverse


def _distinct(flat: np.ndarray, sizes: np.ndarray,
              n: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct clusters among candidate clusters of points 0..n-1,
    laid end to end in ``flat`` with the given sizes.

    Returns each distinct cluster's first candidate, ascending, and each
    candidate's distinct cluster, numbered in that order. Candidates are
    grouped by a 64-bit key, the sum of fixed per-point keys over the
    members mixed with the size, and every grouped candidate is then
    compared member by member with its group's first; any mismatch sends
    the whole set to the exact grouping by member bytes, so the result
    never rests on the keys being distinct."""
    starts = np.cumsum(sizes) - sizes
    csum = np.zeros(len(flat) + 1, dtype=np.uint64)
    np.cumsum(_point_keys(n)[flat], out=csum[1:])
    key = (csum[starts + sizes] - csum[starts]
           + sizes.astype(np.uint64) * np.uint64(0xD6E8FEB86659FD93))
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    lead = first[inverse]
    same = np.array_equal(sizes[lead], sizes)
    if same:
        shift = np.repeat(starts[lead] - starts, sizes)
        same = np.array_equal(flat[np.arange(len(flat)) + shift], flat)
    if not same:
        return _exact_groups(flat, starts, sizes)
    # renumber the groups in order of first appearance
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], rank[inverse]


def scale_clusters(s: PointSet, params: SingleScaleParams) -> ScaleClusters:
    """Decompose the whole set at one scale and list its distinct clusters.

    ``params.norm = None`` targets the input's own norm (``s.norm``).
    Clusters are listed in order of first appearance across the
    carvings (carving by carving, each in label order), each with the
    number of carvings that contain it. The candidates are read off the
    decomposition's member and size rows, and the distinct ones found by
    ``_distinct``; a certain decomposition's one row counts m times."""
    require_normalized(s, "build_single_scale")
    if s.n == 0:
        raise EmptyInput("single-scale embedding of an empty set")
    p = params if params.norm is not None else replace(params, norm=s.norm)
    dmat = s.distance_matrix()
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
    # (inf when it has none), one masked row-min per carving over the
    # members of its new clusters
    cand_row = np.nonzero(nonempty)[0]
    rows_with, at = np.unique(cand_row[first], return_index=True)
    bounds = (np.cumsum(sizes) - sizes)[at].tolist() + [len(members)]
    h = np.empty(len(members))
    for t, lo, hi in zip(rows_with.tolist(), bounds[:-1], bounds[1:]):
        rows, lab = members[lo:hi], dec.labels[t]
        h[lo:hi] = np.where(lab[rows, None] == lab[None, :], np.inf,
                            dmat[rows]).min(axis=1)
    w = np.minimum(1.0, (p.delta / p.r) * h)
    return ScaleClusters(p, dim_hat, dec, members, sizes, counts, w, h)


def _scale_gram(sc: ScaleClusters,
                dmat: np.ndarray) -> tuple[int, np.ndarray | None]:
    """The Gram matrix of one l2 scale's map, with its rank bound.

    Cluster C's Gaussian-transform map, with member c0 = C[0] at the
    origin, has the closed-form Gram Gamma_C = (T[C, c0] + T[c0, C] -
    T[C, C]) / 2 with T = G_r(d)^2; it is positive semidefinite because
    the Gaussian kernel is positive definite (Schoenberg, 1938). The
    scale's Gram is the sum over distinct clusters of
    (count_C / m) (w_C w_C^T) * Gamma_C, elementwise in the product. With
    u_C the weights and v_C the weights times T[., c0] on C's rows (zero
    elsewhere), that sum is (Q + Q^T - T * P) / 2 for Q = sum_C c_C u_C
    v_C^T and P = sum_C c_C u_C u_C^T: two dense products over the
    clusters, where a scatter per cluster would loop in Python.
    Singletons add nothing and are skipped. The rank bound is
    min(n, sum_C (|C| - 1)), 0 exactly when no cluster has two points,
    and then there is no Gram (None).
    """
    n = dmat.shape[0]
    multi = sc.sizes > 1
    sizes = sc.sizes[multi]
    k = min(n, int((sizes - 1).sum()))
    if not k:
        return 0, None
    t = np.square(gaussian_transform(dmat, sc.params.r))
    at = np.repeat(multi, sc.sizes)
    rows = sc.members[at]
    cols = np.repeat(np.arange(len(sizes)), sizes)
    roots = np.repeat(sc.members[(np.cumsum(sc.sizes) - sc.sizes)[multi]],
                      sizes)
    w = sc.weights[at]
    coef = sc.counts[multi].astype(np.float64) / sc.m
    u = np.zeros((n, len(sizes)))
    v = np.zeros((n, len(sizes)))
    u[rows, cols] = w
    v[rows, cols] = w * t[rows, roots]
    uc = u * coef
    q = uc @ v.T
    return k, 0.5 * (q + q.T - t * (uc @ u.T))


def build_single_scale(s: PointSet, params: SingleScaleParams) -> SingleScaleEmbedding:
    """Assemble the embedding; see the module docstring for the pipeline.

    ``params.norm = None`` targets the input's own norm (``s.norm``)."""
    sc = scale_clusters(s, params)
    p, entries, m = sc.params, sc.clusters, sc.m
    n = s.n
    rescale = 1.0 / (1.0 + p.rescale_c * p.eps)
    th_k = theory_dimension(p.eps, p.delta, EPS_PAD, sc.dim_hat, p.norm)
    if p.norm == 2.0:
        # the direct sum's Gram, rescaled; factored uncentered, so every
        # image keeps its norm, which the audit bounds. A point that is
        # only ever a singleton or its cluster's first member has a zero
        # row and sits at the origin. The other rows have full rank (the
        # Gaussian kernel is strictly positive definite), so they are
        # factored with no relative cutoff: a cutoff would drop true
        # directions of the tail, and no rounding-level direction reaches
        # the zero rows
        k, gram = _scale_gram(sc, s.distance_matrix())
        coords = np.zeros((n, 0))
        if k:
            act = np.flatnonzero(np.diagonal(gram) > 0.0)
            y = factor_gram(rescale ** 2 * gram[np.ix_(act, act)],
                            keep_rtol=0.0)
            coords = np.zeros((n, y.shape[1]))
            coords[act] = y
        return SingleScaleEmbedding(p, s, None, sc.dim_hat, sc.decomposition,
                                    entries, m, coords.shape[1], th_k,
                                    1.0 / math.sqrt(m), rescale, coords, 0)

    # --- embed each distinct cluster; the l1 and l-infinity maps read the net
    net = greedy_net(s, p.net_radius)
    dmat = s.distance_matrix()
    cuts_by_metric: dict[bytes, list[Cut]] = {}
    in_net = np.zeros(n, dtype=bool)
    in_net[net.members] = True
    empty_net = 0
    for c in entries:
        members = c.members
        dmat_c = dmat[np.ix_(members, members)]
        net_local = np.flatnonzero(in_net[members])
        empty_net += len(net_local) == 0
        if p.norm == 1.0:
            c.coords = _embed_cluster_l1(dmat_c, net_local, p.r,
                                         cuts_by_metric)
        else:
            c.coords = _embed_cluster_linf(dmat_c, net_local, p.r)

    # --- direct sum with the norm's combining scale, then the global rescale
    if p.norm == 1.0:
        combine = 1.0 / m
        coeffs = [c.count * combine for c in entries]
    else:
        combine = 1.0 / (1.0 + 2.0 * math.sqrt(p.delta))
        coeffs = [combine for c in entries]
    k = sum(c.k for c in entries)
    coords = np.zeros((n, k))
    col = 0
    for c, coeff in zip(entries, coeffs):
        if c.k:
            block = c.coords * (c.weights[:, None] * coeff * rescale)
            coords[c.members, col:col + c.k] = block
        col += c.k
    return SingleScaleEmbedding(p, s, net, sc.dim_hat, sc.decomposition,
                                entries, m, k, th_k, combine, rescale, coords,
                                empty_net)


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
    tf = transform_for(p.norm)
    ref = np.asarray(tf(src, p.r))
    if p.norm == np.inf:
        window = (p.delta * p.r, p.r / math.sqrt(p.delta))
        # theorem band for image / T_r after the (1+2*sqrt(delta)) division
        bounds = (1.0 / ((1.0 + p.eps) * (1.0 + 2.0 * math.sqrt(p.delta))),
                  1.0 + 1e-9)
    else:
        window = (p.delta * p.r, p.r / p.delta)
        bounds = (1.0 / (1.0 + 45.0 * p.eps), 1.0 + 1e-9)
    rep = report_mod.from_pairs(
        {2.0: "G_r", 1.0: "L_r", np.inf: "T_r"}[p.norm],
        iu, ju, src, dst, ref_dist=ref, window=window, bounds=bounds)
    with np.errstate(divide="ignore", invalid="ignore"):
        lip = np.where(src > 0, dst / src, 0.0)
    norms = vector_norm(e.coords, p.norm)
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
        distance (slack: realization/LP tolerance), which never exceeds the
        source distance;
    (iii) the smoothing h never exceeds the distance to any point outside
        the cluster (h is that minimum, recomputed here);
    product rule: the smoothed per-cluster map is (1 + delta)-Lipschitz.
    An l2 cluster is measured through its factored closed-form Gram;
    clusters with the same Gram (translates, or any at a saturated scale)
    share one factor.
    """
    p = e.params
    dmat = e.source.distance_matrix()
    tf = transform_for(p.norm)
    max_f_norm = 0.0
    worst_ii = -np.inf        # max of |f(x)-f(y)| - transform(d), want <= slack
    worst_tf = -np.inf        # max of transform(d) - d, want <= float noise
    worst_iii = -np.inf       # max of h(x) - min_outside d(x, y), want == 0
    worst_product = 0.0       # max smoothed same-cluster Lipschitz ratio
    factors: dict[bytes, np.ndarray] = {}
    for entry in e.clusters:
        members = entry.members
        dsub = dmat[np.ix_(members, members)]
        raw = entry.coords
        if raw is None:
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
                             float(vector_norm(raw, p.norm).max()))
        if len(members) > 1:
            fsub = _pairwise(raw, p.norm)
            tsub = np.asarray(tf(dsub, p.r))
            np.fill_diagonal(tsub, 0.0)
            offd = ~np.eye(len(members), dtype=bool)
            worst_ii = max(worst_ii, float((fsub - tsub)[offd].max()))
            worst_tf = max(worst_tf, float((tsub - dsub)[offd].max()))
            smoothed = _pairwise(raw * entry.weights[:, None], p.norm)
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(dsub > 0, smoothed / dsub, 0.0)
            worst_product = max(worst_product, float(ratios.max()))
        if len(members) < e.n:
            mask = np.ones(e.n, dtype=bool)
            mask[members] = False
            hmin = dmat[np.ix_(members, np.flatnonzero(mask))].min(axis=1)
            worst_iii = max(worst_iii,
                            float((entry.h_values - hmin).max()))
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
        "norm": norm_label(p.norm),
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
    JSON object with non-negative integer n and k, or the body does not hold
    exactly n * k float64 values.
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
    coords = np.frombuffer(data[start:], dtype="<f8").reshape(n, k).copy()
    return header, coords
