"""Single-scale embedding: net, padded decomposition, per-cluster transform
embeddings, smoothing, direct sum, extension.

For a scale r the pipeline is: take an (eps*delta*r)-net; sample a padded
decomposition (of the net for Euclidean targets, of the whole set for
l1/l-infinity); realize the transformed metric of each cluster exactly and
compress it (verified random projection for l2, trace-merged cuts for l1,
per-net-point threshold coordinates for l-infinity); fade each cluster map
to zero near the cluster boundary with the smoothing weight
min(1, (delta/r) * dist(x, outside)); direct-sum the partitions with the
norm's combining scale; extend to non-net points (l2 only) and apply the
final global rescale.

The finished embedding keeps everything needed for the audit: the raw
per-cluster maps, the smoothing weights, and the fully scaled coordinate
matrix whose rows are the images of every input point.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, replace

import numpy as np

from . import report as report_mod
from .decomposition import (PaddedDecomposition, Partition, batch_size,
                            build_decomposition)
from .errors import BadParams, HeaderMismatch, PaddingUnachievable
from .extension import ExtensionInfo, kirszbraun_extend, lipschitz_constant
from .points import (Net, PointSet, _pairwise, estimate_doubling, greedy_net,
                     norm_label, norm_tag, require_normalized, vector_norm)
from .projection import exact_reduce, jl_dimension, jl_project
from .transforms import (cut_decomposition, euclidean_realization,
                         gaussian_transform, laplace_transform,
                         threshold_transform)

#: delta_decomp = 3 * C_PAD * max(1, dim_hat) * r / delta
C_PAD = 8.0
#: global rescale constant per norm: final map divided by (1 + C * eps)
RESCALE_C = {1.0: 40.0, 2.0: 40.0, np.inf: 0.0}
#: padding failure budget
EPS_PAD = 0.36
#: doublings of the decomposition diameter before giving up
DELTA_RETRIES = 3
#: Kirszbraun extension slack, relative to the net's Lipschitz constant
EXTENSION_TOL = 1e-6


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
class ClusterMap:
    """Raw per-cluster embedding f_C (before smoothing and scaling).

    ``coords`` rows align with ``members`` (indices into the decomposed
    ground set); the map is translated so its first member sits at the
    origin (l2/l1), keeping every image norm at most r.
    """
    members: np.ndarray
    coords: np.ndarray
    net_count: int | None = None           # |C ∩ N| on the l1/linf paths

    @property
    def k(self) -> int:
        return self.coords.shape[1]


@dataclass
class ClusterEntry:
    """One distinct cluster with its multiplicity across the m partitions.

    The direct sum over partitions regroups exactly into per-cluster
    blocks: the smoothing distance h(x) = d(x, ground minus C) depends
    only on the cluster itself, so two partitions sharing C contribute
    identical blocks and only the multiplicity matters (squared weights
    add for l2, linear for l1, and the max is idempotent for l-infinity).
    """
    map: ClusterMap
    count: int                             # partitions containing the cluster
    weights: np.ndarray                    # smoothing weight per member
    h_values: np.ndarray                   # distance-to-outside, inf if none

    @property
    def members(self) -> np.ndarray:
        return self.map.members


@dataclass
class SingleScaleEmbedding:
    params: SingleScaleParams
    source: PointSet
    net: Net
    ground: np.ndarray                     # indices of the decomposed set
    dim_hat: float
    decomposition: PaddedDecomposition
    clusters: list[ClusterEntry]
    m: int
    k: int                                 # concrete coordinate count
    theory_k: int
    combine_scale: float                   # m^-1/2, m^-1 or (1+2*sqrt(delta))^-1
    rescale: float                         # 1 / (1 + C*eps)
    coords: np.ndarray                     # (n, k) final images, all scaling in
    lip_net: float                         # Lipschitz constant before extension
    extension: ExtensionInfo | None
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


def _cluster_seed(seed: int, members: np.ndarray) -> int:
    ss = np.random.SeedSequence(entropy=(int(seed), 0xC1) + tuple(int(v) for v in members))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _certain_decomposition(part: Partition, delta_dec: float, pad: float,
                           seed: int, m: int,
                           dim_hat: float) -> PaddedDecomposition:
    """m copies of the one partition every draw of the carving yields.

    That happens when delta/4 >= diameter (every carve radius reaches every
    point: one cluster) and when delta/2 < min distance (no carve radius
    reaches another point: all singletons, and pad <= delta/8 keeps every
    pad-ball whole). Either way sampling is redundant."""
    n = len(part.labels)
    padded = np.ones((m, n), dtype=bool)
    return PaddedDecomposition(delta_dec, pad, EPS_PAD, seed, m,
                               [part] * m, padded, padded.mean(axis=0),
                               dim_hat)


def _embed_cluster_l2(dmat_c, p: SingleScaleParams,
                      members: np.ndarray) -> ClusterMap:
    g = gaussian_transform(dmat_c, p.r)
    np.fill_diagonal(g, 0.0)
    x = euclidean_realization(g)
    if jl_dimension(p.eps, len(members)) < x.shape[1]:
        # only a projection reads the seed, so only then is it derived
        x, _ = jl_project(x, p.eps, _cluster_seed(p.seed, members))
    # row-major like a projection's output: BLAS products over the map (the
    # audit's pairwise distances) round differently for another layout
    x = np.ascontiguousarray(x)
    return ClusterMap(members, x - x[0])   # first member at the origin


def _embed_cluster_l1(dmat_c, net_local: np.ndarray,
                      p: SingleScaleParams) -> ClusterMap:
    if len(net_local) == 0:
        return ClusterMap(np.empty(0, dtype=np.intp),
                          np.zeros((dmat_c.shape[0], 0)), 0)
    if dmat_c.shape[0] < 2:
        return ClusterMap(np.empty(0, dtype=np.intp),
                          np.zeros((dmat_c.shape[0], 0)),
                          len(net_local))
    lr = laplace_transform(dmat_c, p.r)
    np.fill_diagonal(lr, 0.0)
    cuts = cut_decomposition(lr)
    nc = dmat_c.shape[0]
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
    coords = coords - coords[0]
    return ClusterMap(np.empty(0, dtype=np.intp), coords,
                      len(net_local))


def _embed_cluster_linf(dmat_c, net_local: np.ndarray,
                        p: SingleScaleParams) -> ClusterMap:
    if len(net_local) == 0:
        return ClusterMap(np.empty(0, dtype=np.intp),
                          np.zeros((dmat_c.shape[0], 0)), 0)
    coords = threshold_transform(dmat_c[:, net_local], p.r)
    return ClusterMap(np.empty(0, dtype=np.intp), coords,
                      len(net_local))


def build_single_scale(s: PointSet, params: SingleScaleParams) -> SingleScaleEmbedding:
    """Assemble the embedding; see the module docstring for the pipeline.

    ``params.norm = None`` targets the input's own norm (``s.norm``)."""
    require_normalized(s, "build_single_scale")
    p = params if params.norm is not None else replace(params, norm=s.norm)
    net = greedy_net(s, p.net_radius)
    dmat = s.distance_matrix()
    if p.norm == 2.0:
        ground = net.members
    else:
        ground = np.arange(s.n, dtype=np.intp)
    gset = s.subset(ground)
    gdmat = dmat[np.ix_(ground, ground)]
    dim_hat = p.dim_hat if p.dim_hat is not None else estimate_doubling(gset).dim_hat
    net_in_ground = np.isin(ground, net.members)
    dmin = np.inf
    if gset.n > 1:
        dmin = float(gdmat[~np.eye(gset.n, dtype=bool)].min())

    # --- padded decomposition of the ground set, doubling the diameter on failure
    pad = p.pad_radius
    diam = float(gdmat.max()) if gset.n else 0.0
    dec = None
    certain = None                          # the partition every draw yields
    delta_dec = p.decomposition_diameter(dim_hat)
    for attempt in range(DELTA_RETRIES + 1):
        seed = p.seed * 31 + attempt
        if delta_dec / 4.0 >= diam:
            certain = Partition(np.zeros(gset.n, dtype=np.intp),
                                [np.arange(gset.n)], delta_dec / 4.0)
        elif delta_dec / 2.0 < dmin:
            certain = Partition(np.arange(gset.n),
                                list(np.arange(gset.n)[:, None]),
                                delta_dec / 4.0)
        if certain is not None:
            m = batch_size(EPS_PAD, gset.n, dim_hat)
            dec = _certain_decomposition(certain, delta_dec, pad, seed, m,
                                         dim_hat)
            break
        try:
            dec = build_decomposition(gset, delta_dec, pad, EPS_PAD,
                                      seed=seed, dim_hat=dim_hat)
            break
        except PaddingUnachievable:
            if attempt == DELTA_RETRIES:
                raise
            delta_dec *= 2.0
    m = dec.m

    # --- embed each distinct cluster once, counting its multiplicity. At a
    # saturated l2 scale G_r maps every ground pair to exactly r, so all
    # clusters of one size share a bitwise-identical transformed metric and
    # one (read-only) realization; a closed-form simplex would not do, since
    # its rotation changes the sums across scales of one residue class.
    saturated = p.norm == 2.0 and gaussian_transform(dmin, p.r) == p.r
    shared: dict[int, np.ndarray] = {}
    runs = ([(certain, m)] if certain is not None
            else [(part, 1) for part in dec.partitions])
    entry_order: dict[bytes, int] = {}
    entries: list[ClusterEntry] = []
    empty_net = 0
    for part, times in runs:
        for members in part.clusters:
            key = members.tobytes()
            at = entry_order.get(key)
            if at is not None:
                entries[at].count += times
                continue
            if p.norm == 2.0:
                coords = shared.get(len(members))
                if coords is not None:
                    cm = ClusterMap(members, coords)
                else:
                    cm = _embed_cluster_l2(gdmat[np.ix_(members, members)],
                                           p, members)
                    # fewer columns than the projection target: no
                    # projection ran, so the map is the size's alone
                    if saturated and cm.k < jl_dimension(p.eps, len(members)):
                        cm.coords.flags.writeable = False
                        shared[len(members)] = cm.coords
            else:
                dmat_c = gdmat[np.ix_(members, members)]
                net_local = np.flatnonzero(net_in_ground[members])
                if p.norm == 1.0:
                    cm = _embed_cluster_l1(dmat_c, net_local, p)
                else:
                    cm = _embed_cluster_linf(dmat_c, net_local, p)
                if cm.net_count == 0:
                    empty_net += 1
                cm.members = members
            # smoothing: h(x) = distance to the nearest ground point
            # outside the cluster; a whole-set cluster has nothing outside
            if len(members) < gset.n:
                mask = np.ones(gset.n, dtype=bool)
                mask[members] = False
                h = gdmat[np.ix_(members, np.flatnonzero(mask))].min(axis=1)
            else:
                h = np.full(len(members), np.inf)
            w = np.minimum(1.0, (p.delta / p.r) * h)
            w[np.isinf(h)] = 1.0
            entry_order[key] = len(entries)
            entries.append(ClusterEntry(cm, times, w, h))

    # --- direct sum with the norm's combining scale, then the global rescale
    rescale = 1.0 / (1.0 + p.rescale_c * p.eps)
    if p.norm == 2.0:
        combine = 1.0 / math.sqrt(m)
        coeffs = [math.sqrt(c.count) * combine for c in entries]
    elif p.norm == 1.0:
        combine = 1.0 / m
        coeffs = [c.count * combine for c in entries]
    else:
        combine = 1.0 / (1.0 + 2.0 * math.sqrt(p.delta))
        coeffs = [combine for c in entries]
    k = sum(c.map.k for c in entries)
    gcoords = np.zeros((gset.n, k))
    col = 0
    for c, coeff in zip(entries, coeffs):
        cm = c.map
        if cm.k:
            block = cm.coords * (c.weights[:, None] * coeff * rescale)
            gcoords[cm.members, col:col + cm.k] = block
        col += cm.k

    # an n-point l2 assembly never needs more than n coordinates; squeezing
    # the block-diagonal layout down keeps wide multi-partition builds small
    if p.norm == 2.0 and k > gset.n:
        gcoords = exact_reduce(gcoords)
        k = gcoords.shape[1]

    # --- place ground images; extend to the rest (l2 only has a remainder)
    coords = np.zeros((s.n, k))
    coords[ground] = gcoords
    lip_net = 0.0
    if gset.n > 1:
        lip_net = lipschitz_constant(gdmat, gcoords)
    ext_info = None
    if len(ground) < s.n:
        # only the l2 path leaves non-net points without images
        lip_used = max(lip_net, 1e-12) * (1.0 + EXTENSION_TOL)
        tol_abs = 0.1 * EXTENSION_TOL * max(lip_net, 1e-12) * s.min_distance()
        coords, ext_info = kirszbraun_extend(dmat, ground, gcoords,
                                             lip_used, tol_abs)
    th_k = theory_dimension(p.eps, p.delta, EPS_PAD, dim_hat, p.norm)
    return SingleScaleEmbedding(p, s, net, ground, dim_hat, dec, entries, m,
                                k, th_k, combine, rescale, coords, lip_net,
                                ext_info, empty_net)


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
        "lip_net": e.lip_net,
        "extension_max_violation":
            e.extension.max_violation if e.extension else 0.0,
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
        distance (slack: projection/LP tolerance), which never exceeds the
        source distance;
    (iii) the smoothing h never exceeds the distance to any point outside
        the cluster (h is that minimum, recomputed here);
    product rule: the smoothed per-cluster map is (1 + delta)-Lipschitz.
    """
    p = e.params
    ground = e.ground
    gdmat = e.source.distance_matrix()[np.ix_(ground, ground)]
    n_ground = len(ground)
    tf = transform_for(p.norm)
    max_f_norm = 0.0
    worst_ii = -np.inf        # max of |f(x)-f(y)| - transform(d), want <= slack
    worst_tf = -np.inf        # max of transform(d) - d, want <= float noise
    worst_iii = -np.inf       # max of h(x) - min_outside d(x, y), want == 0
    worst_product = 0.0       # max smoothed same-cluster Lipschitz ratio
    for entry in e.clusters:
        cm = entry.map
        members = cm.members
        raw = cm.coords
        if cm.k:
            max_f_norm = max(max_f_norm,
                             float(vector_norm(raw, p.norm).max()))
        if len(members) > 1:
            dsub = gdmat[np.ix_(members, members)]
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
        if len(members) < n_ground:
            mask = np.ones(n_ground, dtype=bool)
            mask[members] = False
            hmin = gdmat[np.ix_(members, np.flatnonzero(mask))].min(axis=1)
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
        "lip_net": e.lip_net,
        "net_size": int(len(e.net.members)),
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
