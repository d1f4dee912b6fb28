"""Snowflake embedding: the metric d^alpha with a 1 + O(eps) distortion band.

Scales r_i = (1+eps)^i over a bounded index window I are embedded
independently at one shared per-scale delta, every map is divided by
(1+eps)^{i(1-alpha)}, the maps are combined, and the result is divided by
the normalizer M (its square root in l2). The band of image distance /
d^alpha then has width 1 + O(eps). Its location is a computable constant
of (eps, alpha, p) alone, exposed as ``band_center`` so consumers that need
unit calibration (distance labels) can rescale; the guarantee itself is on
the width.

Every norm builds a scale the same way (but for the one-cluster scales
below): ``scale_clusters`` decomposes it and finds its distinct
clusters, and its condensed pair distances are read off their arrays
where the scale is built. l2 and l1 go through the map that
``build_single_scale`` writes too (``_scale_gram`` or ``_l1_block``; l1
cuts the whole set once per build and weighs the cuts once per scale);
l-infinity writes no map (``_linf_dists``). A scale keeps three things
for the audit: its width (an entry of ``scale_k``), those distances (a
row of ``scale_dists``), and, for the pairs it anchors, whether each is
padded in every partition (``padded_dom``). A scale whose first
decomposition diameter carves the whole set in one piece
(``SingleScaleParams.one_cluster``, most of the coarse half of the
ladder) is not decomposed at all: its one cluster
(``_one_cluster_block``) has all weights 1, and every pair is padded in
it. ``build_snowflake`` evaluates the predicate once per scale and
hands it to ``_build_scale``. l2 and l-infinity write such a scale in
closed form (below). l1 builds it from the whole set's cuts at its r:
where its net holds every point, each cut is a column of its own, and
its distances and threshold cuts are read off the cuts with no block
(``_full_net_cuts``), bit for bit. How the maps are combined depends on
the norm:

* l2 is the direct sum of the scales, written in at most n - 1
  coordinates as the classical MDS (``classical_mds``) of the summed
  squared per-scale distances; no cluster is realized.
  ``assembled_k`` is the direct sum's width, the sum of the per-scale
  rank bounds. A one-cluster scale's map is G_r of the source metric,
  so its pair distances are w * G_r(d) and its rank bound is n - 1.
* l1 is the direct sum of the scales as well, written as its cut
  measure: each scale's weighted block is split into threshold cuts
  (``_threshold_cuts``), the equal cuts of all scales are summed in
  scale order, and the output has one column per distinct cut, holding
  its weight over M on its members. Every l1 metric is such a sum, so
  the width depends on n alone (l1 has no dimension-free reduction).
  ``assembled_k`` is the direct sum's width, the sum of the block widths.
* l-infinity combines by max. A scale's block (``_linf_block``, one
  column per net point of each cluster) is not written: its pair
  distances come from the clusters' farthest net points, from the
  pairs' own distances, and from scans of the net columns of the few
  clusters that need them (``_linf_dists``), to 2 ulps of the block's
  largest entry. A one-cluster scale reads the net of the whole set.
  The image distance D is the max of the per-scale distances. The
  output is D's Frechet map: n columns, column z of row x holding
  D(x, z). The l-infinity distance of rows x and y is D(x, y): column y
  gives it exactly, and the triangle inequality caps every other
  column, up to the rounding of one subtraction. ``assembled_k`` is the
  sum of the block widths, the net points of the clusters of two or
  more points.

``theory_k`` is the paper's grouped count p * k_scale for every norm, a
formula of the parameters alone. No concrete output needs the grouping:
each is exact, and narrower than it on every input measured.

The scales are independent work: each one's seed derives from (seed, i)
alone. The l2 and l-infinity one-cluster scales are written by the
caller alone, after the helpers fork; ``build_snowflake`` splits the
other scales, l1's one-cluster scales among them, over the w CPUs the
process may run on. The t-th of them is built by process
t mod w: the caller builds every w-th, and one forked helper per extra
CPU builds the others, reading the inputs copy-on-write. The caller
merges every result in scale order, so the l1 cuts are summed and
ordered the same for any w, and the dump, report and label bytes do not
depend on the CPU count. With one CPU (or where the system cannot say:
``os.sched_getaffinity`` is Linux-only), in a daemonic process, without
the fork start method, or while another Python thread runs, every scale
is built in the calling process.

The audit measures every pair against d^alpha and the per-scale bucket
diagnostics: write B_i for the per-scale image distance divided by
(1+eps)^{i(1-alpha)} and anchor the size-p window
A = {i*-q+1, ..., i*+p-q}, q = ceil(log_{1+eps}(1/eps)) + 2, at the pair's
dominant scale (1+eps)^{i*} <= d < (1+eps)^{i*+1} (``_anchors``, which the
build reads too). The guarantees hold for
any size-p interval, but the anchor matters for the per-scale tail check: a
window centered at i* puts its bottom edge ~p/2 below i*, where the
same-residue mate at i+p still carries mass ~d/(1+eps)^{(i+p)(1-alpha)},
exceeding the eps * (1+eps)^{i(1-alpha)} budget by up to 1/eps. Keeping only
q scales below i* leaves the bottom mate mass below the budget with an
order-of-magnitude margin. For every in-window i the same-residue
out-of-window mass must stay below eps * (1+eps)^{i(1-alpha)} * 1.1, and
B_{i*} must stay above 0.45 * (1+eps)^{i*(1-alpha)} whenever the pair is
padded at its dominant scale (same cluster, both pad-balls uncut, in every
partition). The tail check keeps the paper's residue classes for every
norm; the l1 and l2 direct sums add no same-residue cross terms, so there
it bounds the per-scale masses the grouping would have added.

The tail check reads ``scale_dists`` in place and holds no scales x pairs
array of its own. It runs over chunks of PAIRWISE_BYTES / (8 * scales)
pairs, one buffer for all of them, and sums a chunk's out-of-window
masses only on its window envelope: the scale rows from the lowest of its
pairs' windows to the highest, clipped to the ladder. Each mass is summed
from 0 in the order i - p, i + p, i - 2p, ..., the same bits for any
chunk size. The rows outside a pair's own window are zeroed, the
breaches are listed by scale row and then by pair, and ``max_tail_ratio``
is the largest per-row running max of the masses over its row's bound.
"""

from __future__ import annotations

import math
import os
import signal
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import report as report_mod
from .errors import BadParams, EmptyInput, SnowdimError
from .points import (PAIRWISE_BYTES, PointSet, _pair_distances, _pairwise,
                     estimate_doubling, greedy_net, norm_label, norm_tag,
                     require_normalized, require_seed)
from .single_scale import (EPS_PAD, ScaleClusters, SingleScaleParams,
                           _block_weights, _dumps_coords, _l1_block,
                           _one_cluster_block, _runs, _scale_gram,
                           require_source, scale_clusters, theory_dimension)
from .transforms import (CutStructure, _groups, _pack, classical_mds,
                         cut_weights, gaussian_transform)

#: offset added to the scale index when deriving per-scale seeds, so the
#: seed entropy stays nonnegative for any sane index window
SCALE_SALT = 1 << 20
#: slack factor allowed on the geometric-tail bound eps * (1+eps)^{i(1-alpha)}
TAIL_SLACK = 1.1
#: lower bound on the dominant term, in units of (1+eps)^{i*(1-alpha)}
DOMINANT_FLOOR = 0.45


def scale_count(alpha: float, eps: float) -> int:
    """The paper's group count p = ceil((3/(1-alpha)) * ceil(log_{1+eps}
    (1/eps))): the audit's window size and the factor of ``theory_k``."""
    j = math.ceil(math.log(1.0 / eps) / math.log1p(eps))
    # guard the ceil against float noise when 3j/(1-alpha) is an integer
    return math.ceil(3.0 * j / (1.0 - alpha) - 1e-9)


def _window_sum(eps: float, p: int, alpha: float, norm: float) -> float:
    """sum over the p integers -p/2 < b <= p/2 of (1+eps)^{2 b alpha} *
    G((1+eps)^-b)^2, G(t) = sqrt(1 - exp(-t^2)), in extended precision,
    smallest terms first; in l1 its linear mirror with L(t) = 1 - exp(-t),
    in l-infinity the max analog. Raises BadParams when p < 1, and when
    the sum overflows, before any scale is built."""
    if p < 1:
        raise BadParams(f"p must be a positive integer, got {p}")
    norm = norm_tag(norm)
    b = np.arange(p // 2 - p + 1, p // 2 + 1).astype(np.longdouble)
    e1 = np.longdouble(1.0 + eps)
    with np.errstate(over="ignore", invalid="ignore"):
        if norm == np.inf:
            total = np.where(b >= 0, e1 ** (-b * (1.0 - alpha)),
                             e1 ** (b * alpha)).max()
        else:
            k = 2 if norm == 2.0 else 1
            total = np.sort(e1 ** (k * b * alpha)
                            * -np.expm1(-(e1 ** (-k * b)))).sum()
    if not np.isfinite(total):
        raise BadParams(f"the scale sum over p = {p} groups overflows; "
                        f"raise eps or lower alpha")
    return float(total)


def compute_M(eps: float, p: int, norm: float = 2.0) -> float:
    """Normalizer for the grouped scale sum: the window sum at alpha = 1,
    exactly 1 in l-infinity (max_b min(1, (1+eps)^b))."""
    return _window_sum(eps, p, 1.0, norm)


def band_center(eps: float, p: int, alpha: float, norm: float = 2.0) -> float:
    """Predicted location of image distance / d^alpha, a constant of the
    parameters only.

    For a pair at distance (1+eps)^u the in-window per-scale terms are
    B_{u+b} ~ (1+eps)^{(u+b)alpha} * G((1+eps)^{-b}), so the squared image
    distance is ~ d^{2alpha} times T = sum_b (1+eps)^{2 b alpha} G(...)^2,
    and after the 1/sqrt(M) normalization the ratio sits near sqrt(T/M).
    The same computation with the l1 transform gives T1/M1; the l-infinity
    max analog is exactly 1.
    """
    norm = norm_tag(norm)
    ratio = _window_sum(eps, p, alpha, norm) / compute_M(eps, p, norm)
    return math.sqrt(ratio) if norm == 2.0 else ratio


@dataclass
class SnowflakePlan:
    """Derived build parameters for one (alpha, eps, norm) configuration."""

    alpha: float
    eps: float
    p: int
    delta: float
    i_lo: int
    i_hi: int
    M: float
    center: float
    norm: float = 2.0

    @property
    def scale_indices(self) -> range:
        return range(self.i_lo, self.i_hi + 1)


def scale_plan(s: PointSet, alpha: float, eps: float) -> SnowflakePlan:
    """Fix p, the per-scale delta, and the scale window
    I = {i : eps^5 <= (1+eps)^i <= eps^-5 * diam}, in the input's own
    norm."""
    require_normalized(s, "scale_plan")
    if s.n < 2:
        raise EmptyInput("snowflake plan needs at least two points")
    if not 0 < alpha < 1:
        raise BadParams(f"alpha must lie in (0, 1), got {alpha}")
    if not 0 < eps < 0.25:
        raise BadParams(f"eps must lie in (0, 1/4), got {eps}")
    p = scale_count(alpha, eps)
    delta = (1.0 + eps) ** (-p * (1.0 - alpha))
    # p rounding keeps delta near eps^3; far outside means alpha/eps are
    # too extreme for the single-scale preconditions downstream
    if not eps ** 4 <= delta <= eps ** 2:
        raise BadParams(
            f"per-scale delta {delta:.3g} outside [eps^4, eps^2] "
            f"for alpha={alpha}, eps={eps}")
    lg = math.log1p(eps)
    i_lo = math.ceil(5.0 * math.log(eps) / lg)
    i_hi = math.floor(math.log(s.diameter() / eps ** 5) / lg)
    return SnowflakePlan(alpha, eps, p, delta, i_lo, i_hi,
                         compute_M(eps, p, s.norm),
                         band_center(eps, p, alpha, s.norm), s.norm)


def _scale_seed(seed: int, i: int) -> int:
    ss = np.random.SeedSequence(entropy=(int(seed), SCALE_SALT + int(i)))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _anchors(plan: SnowflakePlan, d: np.ndarray) -> np.ndarray:
    """Each distance's anchor scale i*, with (1+eps)^{i*} <= d <
    (1+eps)^{i*+1} up to 1e-9 of a step, clipped to the plan's window."""
    i = np.floor(np.log(d) / math.log1p(plan.eps) + 1e-9).astype(np.int64)
    return np.clip(i, plan.i_lo, plan.i_hi)


@dataclass
class SnowflakeEmbedding:
    """A built snowflake; its per-scale state is three arrays, scales in
    plan order and pairs in ``scipy.spatial.distance.pdist`` order."""

    plan: SnowflakePlan
    source: PointSet
    seed: int
    dim_hat: float
    k: int                           # concrete coordinate count
    assembled_k: int                 # the sum of the scale widths
    theory_k: int                    # p * theory_k_scale
    theory_k_scale: int
    coords: np.ndarray               # (n, k) final images, all scaling in
    scale_k: np.ndarray              # (scales,) width; l2: rank bound
    scale_dists: np.ndarray          # (scales, pairs): the audit's B_i
    padded_dom: np.ndarray           # (pairs,) padded at the anchor scale

    @property
    def n(self) -> int:
        return self.source.n

    def image_distance_matrix(self) -> np.ndarray:
        return _pairwise(self.coords, self.plan.norm)


def _dominant_pair_mask(sc: ScaleClusters, iu: np.ndarray,
                        ju: np.ndarray) -> np.ndarray:
    """For each pair (iu[t], ju[t]), whether it is same-cluster with both
    pad-balls uncut in every partition of the scale's decomposition.

    Two points share a cluster in every partition exactly when their label
    columns across the partitions are equal, so one id per distinct column
    replaces a comparison per partition. A certain decomposition's one
    label row stands for all of its partitions."""
    dec = sc.decomposition
    pad = dec.padded.all(axis=0)
    col = _groups(dec.labels.T)[1]
    return (col[iu] == col[ju]) & pad[iu] & pad[ju]


@dataclass(frozen=True)
class _ScaleJob:
    """What every scale of one snowflake reads, set up before any scale is
    built and never changed after; the scale helpers inherit it through
    fork."""

    s: PointSet
    plan: SnowflakePlan
    seed: int
    dim_hat: float
    iu: np.ndarray                   # the pairs i < j
    ju: np.ndarray
    pair_d: np.ndarray               # their source distances
    anchors: np.ndarray              # each pair's anchor scale
    structure: CutStructure | None   # l1: the whole set's cuts, else None


def _scale_params(job: _ScaleJob | SnowflakeEmbedding,
                  i: int) -> SingleScaleParams:
    """Scale i's single-scale parameters, from the plan, seed and
    doubling estimate of a job or of the embedding it built."""
    plan = job.plan
    return SingleScaleParams(r=(1.0 + plan.eps) ** i, eps=plan.eps,
                             delta=plan.delta, seed=_scale_seed(job.seed, i),
                             dim_hat=job.dim_hat)


def _scale_weight(plan: SnowflakePlan, i: int) -> float:
    """The factor 1 / (1+eps)^{i(1-alpha)} on scale i's map."""
    return (1.0 + plan.eps) ** (-i * (1.0 - plan.alpha))


def _threshold_cuts(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cut measure of an l1 block: a column u with sorted values
    v_1 <= ... <= v_n is sum_j (v_{j+1} - v_j) 1[u > v_j], one cut
    {u > v_j} per positive gap. Returns the distinct cuts, packed
    (``_pack``) and complemented where they hold point 0, in order of
    first appearance, and each one's summed weight."""
    v = np.sort(block, axis=0)
    gap = np.diff(v, axis=0)
    j, c = np.nonzero(gap > 0)
    keys = _pack(block.T[c] > v[j, c, None])
    # the complement within the n points, not the whole word: the padding
    # bits stay 0, so each set has one key
    full = _pack(np.ones((1, len(block)), dtype=bool))
    keys = np.where(keys[:, :1] & np.uint64(1), keys ^ full, keys)
    first, group = _groups(keys)
    return keys[first], np.bincount(group, weights=gap[j, c])


def _linf_dists(s: PointSet, members: np.ndarray, sizes: np.ndarray,
                sw: np.ndarray, in_net: np.ndarray, r: float, w: float,
                iu: np.ndarray, ju: np.ndarray, labels: np.ndarray | None,
                positions: np.ndarray | None
                ) -> tuple[int, np.ndarray | None]:
    """An l-infinity scale's width and pair distances, from its distinct
    clusters (``members`` and ``sizes`` as in ``ScaleClusters``, ``sw``
    each member's factor) and its label rows (``labels``, and each
    point's ``ScaleClusters.positions``), with no block.

    The block (``_linf_block`` times w) has a column per net point z of
    each cluster C of two or more points, holding g_x(z) = w * (T_r(d(x,
    z)) * sw_x) on C's rows and 0 elsewhere. Its width is returned, and
    a pair's distance is the max over the columns of |g_x(z) - g_y(z)|:

    * C holds x alone: rounding is monotone, so the max over C's columns
      is a_C(x) = w * (T_r(max_z d(x, z)) * sw_x) bit for bit. The max is
      r or more unless all of C's net points lie in the prefix of x's
      sorted distance row below r, so only that prefix is read. Each
      label row that separates the pair gives the larger of its points'
      a_C.
    * C holds both, and x or y is a net point: if sw_x = sw_y, the column
      of the other is w * (T_r(d(x, y)) * sw_x), which caps every other
      (|T_r(a) - T_r(b)| <= T_r(|a - b|)) up to the rounding of the
      block's subtraction, 2 ulps of its largest entry. A pair that a
      label row keeps in a uniform cluster (every member's factor the
      scale's largest) takes this closed form in the same pass.
    * Any other pair that C holds scans C's columns as the block does.

    The distances are None where the width is 0."""
    n = s.n
    dmat = s.distance_matrix()
    cluster = np.repeat(np.arange(len(sizes)), sizes)
    net_pos = np.flatnonzero(in_net[members] & (sizes > 1)[cluster])
    if not len(net_pos):
        return 0, None
    knet = np.bincount(cluster[net_pos], minlength=len(sizes))
    net_start = np.cumsum(knet) - knet
    in_block = knet[cluster] > 0
    # the clusters whose members all carry the largest factor c
    c = sw.max()
    uniform = np.ones(len(sizes), dtype=bool)
    uniform[cluster[sw != c]] = False

    flat = dmat.reshape(-1)
    net_pts = members[net_pos]

    def g(p, z):
        # member p's entry in the column of point z
        return w * (np.minimum(flat.take(members[p] * n + z), r) * sw[p])

    closed = w * (np.minimum(dmat[iu, ju], r) * c)
    closed *= in_net[iu] | in_net[ju]
    if labels is None:
        dists = closed if uniform[0] else np.zeros(len(iu))
    else:
        p = np.flatnonzero(in_block)
        pts = members[p]
        # a label row holding each cluster, and each member's label there
        home = np.empty(len(sizes), dtype=np.intp)
        home[cluster[positions]] = np.arange(len(labels))[:, None]
        home = home[cluster[p]] * n
        own = labels.reshape(-1)[home + pts]
        order, dsorted = s._sorted_rows()
        lens = np.count_nonzero(dsorted < r, axis=1)[pts]
        far = np.empty(len(p))
        for lo, hi, run, j, starts in _runs(lens):
            y = order[pts[run], j]
            near = in_net[y] & (labels.reshape(-1)[home[run] + y] == own[run])
            count = np.add.reduceat(near, starts, dtype=np.intp)
            top = np.maximum.reduceat(
                np.where(near, dsorted[pts[run], j], 0.0), starts)
            far[lo:hi] = np.where(count < knet[cluster[p[lo:hi]]], r, top)
        a = np.zeros(len(members))
        a[p] = w * (np.minimum(far, r) * sw[p])
        # the label rows point by point, each point's values contiguous;
        # point x's pairs (x, y > x) are one run of the condensed order
        a = np.ascontiguousarray(a[positions].T)
        lab = np.ascontiguousarray(labels.T, dtype=np.min_scalar_type(n))
        kept = (None if uniform.all()
                else np.ascontiguousarray(uniform[cluster[positions]].T))
        dists = np.empty(len(iu))
        lo = 0
        for x in range(n - 1):
            hi = lo + n - 1 - x
            apart = lab[x + 1:] != lab[x]
            cross = np.maximum(a[x + 1:], a[x])
            cross *= apart
            out = dists[lo:hi]
            cross.max(axis=1, out=out)
            shared = (~apart.all(axis=1) if kept is None
                      else (~apart & kept[x]).any(axis=1))
            np.maximum(out, closed[lo:hi] * shared, out=out)
            lo = hi

    # every other pair a cluster holds: each pair of members of a cluster
    # that is not uniform, and each pair of non-net members of one that is
    q = np.flatnonzero(in_block & ~(uniform[cluster] & in_net[members]))
    ends = np.cumsum(np.bincount(cluster[q], minlength=len(sizes)))
    for _, _, run, j, _ in _runs(ends[cluster[q]] - np.arange(len(q)) - 1):
        px, py = q[run], q[run + 1 + j]
        x, y = members[px], members[py]
        terms = g(px, y)
        scan = np.flatnonzero(~((in_net[x] | in_net[y])
                                & (sw[px] == sw[py])))
        # the max over the net points z of the pair's cluster
        cl = cluster[px[scan]]
        for lo, hi, item, k, starts in _runs(knet[cl]):
            z = net_pts[net_start[cl[item]] + k]
            t = scan[item]
            terms[scan[lo:hi]] = np.maximum.reduceat(
                np.abs(g(px[t], z) - g(py[t], z)), starts)
        np.maximum.at(dists, x * n - x * (x + 1) // 2 + y - x - 1, terms)
    return len(net_pos), dists


def _in_net(s: PointSet, sp: SingleScaleParams) -> np.ndarray:
    """Which points the net of scale ``sp`` holds."""
    in_net = np.zeros(s.n, dtype=bool)
    in_net[greedy_net(s, sp.net_radius(s.norm)).members] = True
    return in_net


def _full_net_cuts(job: _ScaleJob, cuts: tuple[np.ndarray, np.ndarray],
                   factor: float, w: float) -> tuple:
    """(k, dists, part) of an l1 scale of one cluster whose net holds
    every point, in closed form: the width, pair distances and threshold
    cuts of its block, bit for bit, with no block written. Each of the
    whole set's cuts c is a trace of its own, so the block has a column
    per cut, holding value_c = w * (weight_c * factor) on c's members and
    0 elsewhere. A pair's distance is the sum along a row of value_c
    wherever c separates the pair: the row ``_pair_distances`` sums,
    entry for entry, in a C-ordered array of chunks of at most
    PAIRWISE_BYTES, so the sums have its bits. The block's threshold cuts
    are its columns, stably ordered by falling size (the order of their
    one positive gap in ``_threshold_cuts``), each weighted value_c. Two
    or more points keep at least one cut, the heaviest of those that
    separate the farthest pair, so k > 0."""
    weights, sides = cuts
    k = len(weights)
    value = w * (weights * factor)
    sides_t = np.ascontiguousarray(sides.T)
    dists = np.empty(len(job.iu))
    step = max(1, PAIRWISE_BYTES // (8 * k))
    for lo in range(0, len(job.iu), step):
        apart = sides_t[job.iu[lo:lo + step]]
        apart ^= sides_t[job.ju[lo:lo + step]]
        (apart * value).sum(axis=1, out=dists[lo:lo + step])
    order = np.argsort(-sides.sum(axis=1), kind="stable")
    return k, dists, (_pack(sides[order]), value[order])


def _build_scale(job: _ScaleJob, i: int, sp: SingleScaleParams,
                 one: bool) -> tuple:
    """Scale i as (k, dists, dom, part): its width, its pair distances,
    the ``_dominant_pair_mask`` of the pairs it anchors and, on l1, the
    cut measure of its block (``_threshold_cuts``); each of the last
    three is None where the scale has none. The map is the one
    ``build_single_scale`` writes, without its global rescale, and
    everything is divided by (1+eps)^{i(1-alpha)}. ``sp`` is the
    scale's ``_scale_params``, and ``one`` says whether the scale is one
    cluster (``SingleScaleParams.one_cluster``): it is then not
    decomposed, its cluster is ``_one_cluster_block``, and every pair it
    anchors is padded. A library error is re-raised as the same type with
    the scale named in front of its message."""
    plan = job.plan
    s = job.s
    w = _scale_weight(plan, i)
    dists = part = None
    try:
        sc = None if one else scale_clusters(s, sp)
        if plan.norm == 2.0 and one:
            # the map is G_r of the source metric, of rank at most n - 1
            k = s.n - 1
            dists = w * gaussian_transform(job.pair_d, sp.r)
        elif plan.norm == 2.0:
            k, gram = _scale_gram(sc, s.distance_matrix())
            if k:
                diag = np.diag(gram)
                dists = w * np.sqrt(np.maximum(
                    diag[job.iu] + diag[job.ju] - 2.0 * gram[job.iu, job.ju],
                    0.0))
        else:
            members, sizes, scaled_w = (
                _one_cluster_block(s.n, sp.delta, job.dim_hat, plan.norm)
                if one else
                (sc.members, sc.sizes, _block_weights(sc, plan.norm)[1]))
            in_net = _in_net(s, sp)
            if plan.norm == np.inf:
                # one cluster has a column per net point, and no label
                # row that separates a pair
                k, dists = _linf_dists(
                    s, members, sizes, scaled_w, in_net, sp.r, w, job.iu,
                    job.ju, None if one else sc.decomposition.labels,
                    None if one else sc.positions)
            elif one and in_net.all():
                k, dists, part = _full_net_cuts(
                    job, cut_weights(job.structure, sp.r), scaled_w[0], w)
            else:
                block = w * _l1_block(members, sizes, in_net, scaled_w,
                                      cut_weights(job.structure, sp.r))[0]
                k = block.shape[1]
                if k:
                    dists = _pair_distances(block, 1.0, job.iu, job.ju)
                    part = _threshold_cuts(block)
    except SnowdimError as err:
        raise type(err)(f"scale i={i} (r={sp.r:.6g}): {err}") from err
    anchored = job.anchors == i
    dom = None
    if k and anchored.any():
        dom = (np.ones(np.count_nonzero(anchored), dtype=bool) if one
               else _dominant_pair_mask(sc, job.iu[anchored],
                                        job.ju[anchored]))
    return k, dists, dom, part


def _worker_count() -> int:
    """The CPUs this process may run on; 1 where the system cannot say
    (``os.sched_getaffinity`` exists on Linux only), so that the build
    stays in the calling process there."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _openblas_pools() -> list[tuple]:
    """The (get, set) thread-count functions of every OpenBLAS loaded into
    this process, found through /proc/self/maps; empty where none is found
    (another BLAS, or no /proc)."""
    import ctypes
    try:
        with open("/proc/self/maps") as f:
            fields = [line.split(maxsplit=5) for line in f]
    except OSError:
        return []
    paths = sorted({f[5].strip() for f in fields if len(f) == 6
                    and "openblas" in f[5].rpartition("/")[2]})
    pools = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get, put = (f"{name}_{op}_num_threads{suffix}"
                            for op in ("get", "set"))
                if hasattr(lib, get) and hasattr(lib, put):
                    get, put = getattr(lib, get), getattr(lib, put)
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    pools.append((get, put))
    return pools


def _scale_helper(job: _ScaleJob, scales: list[tuple], conn) -> None:
    """A forked helper's loop: build the given scales, (i, sp, one) for
    ``_build_scale``, in order and send each result as (True, result),
    or the first error as (False, error, its cause), through ``conn``.
    ``send`` blocks until the caller reads, so at most one result waits
    at a time. An error that cannot be pickled is sent as a RuntimeError
    holding its traceback. A SIGTERM handler inherited from the caller is
    dropped, so the caller can always stop it."""
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    try:
        for x in scales:
            conn.send((True, _build_scale(job, *x)))
    except BaseException as err:
        tb = traceback.format_exc()
        if hasattr(err, "add_note"):        # Python 3.11 and later
            err.add_note("raised in a scale helper:\n" + tb)
        try:
            conn.send((False, err, err.__cause__))
        except Exception:
            conn.send((False, RuntimeError(
                "a scale helper raised an error that cannot be sent "
                f"back:\n{tb}"), None))
    finally:
        conn.close()


@contextmanager
def _scale_results(job: _ScaleJob, scales: list[tuple]):
    """Yield an iterator over ``_build_scale`` of the given scales, (i,
    sp, one) each, in their order.

    With w CPUs (capped by the scale count), the t-th of the scales is
    built by process t mod w: the caller builds its own share, and w - 1
    helpers forked here build the rest, sharing the inputs copy-on-write.
    The caller reads each helper's results in scale order, so the merge
    sees the same sequence for any w. The scales are built in this
    process alone with one CPU, inside a daemonic process (which may not
    start children), without the fork start method, or while another
    Python thread runs: a fork copies any lock that thread holds into the
    helper, and two builds at once would interleave the thread-count
    hold below. While the helpers run, every OpenBLAS found is held to
    one thread in every process (the helpers inherit it), so the w
    processes share the CPUs instead of w BLAS pools each contending for
    all of them; another BLAS keeps its own setting. A helper's error is
    re-raised at its scale's turn, chained to the cause it was raised
    from. On any error every helper is terminated, and every helper is
    joined before this returns or raises."""
    w = min(_worker_count(), len(scales))
    if w > 1:
        import multiprocessing
        import threading
        if (multiprocessing.current_process().daemon
                or "fork" not in multiprocessing.get_all_start_methods()
                or threading.active_count() > 1):
            w = 1
    if w <= 1:
        yield (_build_scale(job, *x) for x in scales)
        return
    ctx = multiprocessing.get_context("fork")
    pools = _openblas_pools()
    threads = [get() for get, _ in pools]
    helpers = []
    try:
        for _, put in pools:
            put(1)
        for h in range(1, w):
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_scale_helper,
                               args=(job, scales[h::w], send), daemon=True)
            proc.start()
            send.close()
            helpers.append((proc, recv))
        yield _merge_order(job, scales, helpers)
    except BaseException:
        for proc, _ in helpers:
            proc.terminate()
        raise
    finally:
        for proc, recv in helpers:
            proc.join()
            recv.close()
        for (_, put), n in zip(pools, threads):
            put(n)


def _merge_order(job: _ScaleJob, scales: list[tuple], helpers: list):
    w = len(helpers) + 1
    for t, x in enumerate(scales):
        if t % w == 0:
            yield _build_scale(job, *x)
            continue
        # a helper holds the only write end of its pipe, so its exit
        # reads as EOF here
        proc, conn = helpers[t % w - 1]
        try:
            ok, out, *cause = conn.recv()
        except EOFError:
            proc.join()
            raise RuntimeError(
                f"a scale helper exited (code {proc.exitcode}) before "
                f"sending scale i={x[0]}") from None
        if not ok:
            raise out from cause[0]
        yield out


def build_snowflake(s: PointSet, alpha: float, eps: float, seed: int = 0,
                    norm: float | None = None,
                    dim_hat: float | None = None) -> SnowflakeEmbedding:
    """Assemble the embedding; see the module docstring for the pipeline.

    The doubling estimate is taken once and shared by every scale, so the
    reported theory dimension depends only on the parameters and that
    estimate (pass ``dim_hat`` to pin it). The input is embedded into its
    own norm: ``norm`` may be None or ``s.norm``. The scales are split
    over the CPUs this process may use, with the same output bytes for
    any CPU count. A library error from one scale is re-raised as the same type
    with the scale named in front of its message, chained to the
    original; any other exception passes through with its type and
    message. From a helper, the error carries the helper's traceback as
    a note, and its cause is a copy of the original; an error that
    cannot be pickled comes back as a RuntimeError holding its
    traceback. Another target norm (BadParams), or an l1 source whose
    boxes pass the cut decomposition's cap (``require_source``, which
    cuts an l1 set once for every scale), is refused before any scale is
    built. A negative seed, or a ``dim_hat`` that is not finite or lies
    below 0, is refused (BadParams).
    """
    require_seed(seed)
    if dim_hat is not None and not 0.0 <= dim_hat < math.inf:
        raise BadParams(f"dim_hat must lie in [0, inf), got {dim_hat}")
    plan = scale_plan(s, alpha, eps)
    if norm is not None and norm_tag(norm) != s.norm:
        raise BadParams(f"a build embeds its input into the input's own "
                        f"norm: this l{norm_label(s.norm)} input cannot "
                        f"target l{norm_label(norm_tag(norm))}")
    structure = require_source(s)
    if dim_hat is None:
        dim_hat = estimate_doubling(s).dim_hat
    n = s.n
    iu, ju = np.triu_indices(n, k=1)
    pair_d = s.distance_matrix()[iu, ju]
    job = _ScaleJob(s, plan, seed, dim_hat, iu, ju, pair_d,
                    _anchors(plan, pair_d), structure)
    indices = plan.scale_indices
    params = [(i, _scale_params(job, i)) for i in indices]
    scales = [(i, sp, sp.one_cluster(s, dim_hat)) for i, sp in params]
    # the caller writes the l2 and l-infinity scales of one cluster, in
    # closed form, while the helpers build; every other scale is split
    # over the CPUs, l1's one-cluster scales among them: their full-net
    # rows cost pairs x cuts
    closed = plan.norm != 1.0
    mine = [x for x in scales if x[2] and closed]
    split = [x for x in scales if not (x[2] and closed)]
    # every scale's width and pair distances, written in place: the audit
    # reads them whole, and a scale of width 0 keeps its zero row
    scale_k = np.zeros(len(indices), dtype=np.int64)
    scale_dists = np.zeros((len(indices), len(iu)))
    padded_dom = np.zeros(len(iu), dtype=bool)
    # l1: every scale's distinct cuts and their weights, in scale order
    cuts = [(np.zeros((0, -(-n // 64)), dtype=np.uint64), np.zeros(0))]
    # every scale's smoothing reads the sorted distance rows: sort them
    # here, before any helper forks, so the helpers share them
    s._sorted_rows()
    with _scale_results(job, split) as results:
        for (i, *_), (k, dists, dom, part) in chain(
                ((x, _build_scale(job, *x)) for x in mine),
                zip(split, results)):
            t = i - plan.i_lo
            scale_k[t] = k
            if dists is not None:
                scale_dists[t] = dists
            if dom is not None:
                padded_dom[job.anchors == i] = dom
            if part is not None:
                cuts.append(part)

    if plan.norm == 1.0:
        # the l1 direct sum as its cut measure: the equal cuts of all
        # scales summed, one column per distinct cut holding its weight
        # over M on its members
        keys, weights = map(np.concatenate, zip(*cuts))
        first, group = _groups(keys)
        sides = np.unpackbits(keys[first].view(np.uint8), axis=1, count=n,
                              bitorder="little")
        out = np.ascontiguousarray(
            sides.T * (np.bincount(group, weights=weights) / plan.M))
    else:
        # read off the per-scale distances. l2 is the direct sum of the
        # scales, normalized: its squared pair distances are the sum of
        # the rows' squares (in scale order) over M, and their classical
        # MDS writes it in at most n - 1 coordinates. l-infinity is the
        # Frechet map of D, the max of the rows: row x is (D(x, z))_z, and
        # |D(x, z) - D(y, z)| <= D(x, y), with equality at z = y
        out = np.zeros((n, n))
        out[iu, ju] = out[ju, iu] = (
            scale_dists.max(axis=0) if plan.norm == np.inf
            else sum(np.square(row) for row in scale_dists) / plan.M)
        if plan.norm == 2.0:
            out = classical_mds(out)
    theory_k_scale = theory_dimension(eps, plan.delta, EPS_PAD, dim_hat, plan.norm)
    return SnowflakeEmbedding(plan, s, seed, dim_hat, out.shape[1],
                              int(scale_k.sum()), plan.p * theory_k_scale,
                              theory_k_scale, out, scale_k, scale_dists,
                              padded_dom)


# ---------------------------------------------------------------------------
# audit


def distortion_audit(e: SnowflakeEmbedding) -> report_mod.DistortionReport:
    """Exhaustive pair ratios against d^alpha plus the per-scale bucket
    diagnostics (geometric tails and the dominant-term floor). Tail or
    dominant breaches, and a band width above the 1 + 16 eps limit, are
    appended to the violations list with a ``check`` tag, so ``passed``
    covers all four properties.

    The tail check streams chunks of pairs (see the module docstring):
    each chunk's out-of-window masses fill one reused buffer on the rows
    its pairs' windows span, so the audit's memory beyond the stored
    distances is that buffer and a few arrays per pair. The report has
    the same bytes for any chunk size."""
    plan = e.plan
    s = e.source
    eps, alpha, p = plan.eps, plan.alpha, plan.p
    dmat = s.distance_matrix()
    iu, ju = np.triu_indices(s.n, k=1)
    src = dmat[iu, ju]
    img = _pair_distances(e.coords, plan.norm, iu, ju)
    target = src ** alpha
    bounds = None
    if plan.norm == 2.0:
        # envelope around the predicted center; the band width itself is
        # checked below, since the envelope admits a wider band
        bounds = (plan.center * (1.0 - 2.0 * eps) / (1.0 + eps) ** 2,
                  plan.center * (1.0 + 4.0 * eps) ** 2)
    rep = report_mod.from_pairs("d^alpha", iu, ju, src, img,
                                ref_dist=target, window=None, bounds=bounds)

    # per-scale terms B_i = per-scale image distance / (1+eps)^{i(1-alpha)};
    # the stored distances already carry the division and are read in place
    n_pairs = len(src)
    n_scales = len(e.scale_k)
    b_terms = e.scale_dists
    ivals = np.arange(plan.i_lo, plan.i_hi + 1)

    # each pair's window as rows of the ladder, first and last
    istar = _anchors(plan, src)
    q = math.ceil(math.log(1.0 / eps) / math.log1p(eps)) + 2
    win_lo = istar - q + 1 - plan.i_lo
    win_hi = istar + p - q - plan.i_lo
    tail_bound = TAIL_SLACK * eps * (1.0 + eps) ** (ivals * (1.0 - alpha))

    # same-residue mass outside the window, a chunk of pairs at a time on
    # the rows of the chunk's windows: the mates of i are the other scales
    # of its residue class, i - p, i + p, i - 2p, ..., added in that order
    # from 0 (the rows are the consecutive scales i_lo..i_hi), always
    # outside an anchored window containing i. A pair's rows outside its
    # own window are zeroed: a zero breaches no bound, and every row's
    # largest mass is at least 0
    step = max(1, PAIRWISE_BYTES // (8 * n_scales))
    buf = np.empty(n_scales * min(step, n_pairs))
    rows = np.arange(n_scales)[:, None]
    row_max = np.zeros(n_scales)
    breaches = []
    for lo in range(0, n_pairs, step):
        cols = slice(lo, min(lo + step, n_pairs))
        a = max(int(win_lo[cols].min()), 0)
        z = min(int(win_hi[cols].max()) + 1, n_scales)
        mass = buf[:(z - a) * (cols.stop - lo)].reshape(z - a, -1)
        mass.fill(0.0)
        for shift in range(p, n_scales, p):
            if z > shift:
                top = max(a, shift)
                mass[top - a:] += b_terms[top - shift:z - shift, cols]
            if a + shift < n_scales:
                end = min(z, n_scales - shift)
                mass[:end - a] += b_terms[a + shift:end + shift, cols]
        in_window = rows[a:z] >= win_lo[cols]
        in_window &= rows[a:z] <= win_hi[cols]
        mass *= in_window
        np.maximum(row_max[a:z], mass.max(axis=1), out=row_max[a:z])
        bad = mass > tail_bound[a:z, None]
        if bad.any():
            t, pair = np.nonzero(bad)
            breaches.append((t + a, pair + lo, mass[t, pair]))

    # dominant term at the anchor scale, for pairs padded there
    b_dom = b_terms[istar - plan.i_lo, np.arange(n_pairs)]
    dom_bound = DOMINANT_FLOOR * (1.0 + eps) ** (istar * (1.0 - alpha))
    dom_bad = e.padded_dom & (b_dom < dom_bound)

    if breaches:
        # in the order of the scale rows, then of the pairs
        bad_t, bad_pair, bad_mass = map(np.concatenate, zip(*breaches))
        order = np.lexsort((bad_pair, bad_t))
        for t, pair, mass in zip(bad_t[order].tolist(),
                                 bad_pair[order].tolist(),
                                 bad_mass[order].tolist()):
            rep.violations.append({
                "check": "tail", "i": int(iu[pair]), "j": int(ju[pair]),
                "scale_i": int(ivals[t]), "mass": mass,
                "bound": float(tail_bound[t]),
            })
    for pair in np.flatnonzero(dom_bad):
        rep.violations.append({
            "check": "dominant", "i": int(iu[pair]), "j": int(ju[pair]),
            "scale_i": int(istar[pair]), "term": float(b_dom[pair]),
            "bound": float(dom_bound[pair]),
        })

    band_width = rep.ratio_max / rep.ratio_min
    band_limit = 1.0 + 16.0 * eps
    if band_width > band_limit:
        rep.violations.append({"check": "band", "width": band_width,
                               "limit": band_limit})

    dom_ratio = b_dom / ((1.0 + eps) ** (istar * (1.0 - alpha)))
    rep.extras.update({
        "alpha": alpha,
        "p": p,
        "delta": plan.delta,
        "M": plan.M,
        "center": plan.center,
        "band_width": band_width,
        "band_limit": band_limit,
        # division by a positive bound is monotone: each row's largest
        # ratio is its largest mass over its bound
        "max_tail_ratio": float((row_max / tail_bound).max()),
        "tail_bound_slack": TAIL_SLACK,
        "padded_dominant_pairs": int(e.padded_dom.sum()),
        "min_dominant_ratio": (float(dom_ratio[e.padded_dom].min())
                               if e.padded_dom.any() else None),
        "dominant_floor": DOMINANT_FLOOR,
        "theory_k": e.theory_k,
        "theory_k_scale": e.theory_k_scale,
        "concrete_k": e.k,
        "assembled_k": e.assembled_k,
        "scale_count": n_scales,
    })
    return rep


# ---------------------------------------------------------------------------
# serialization: the single-scale dump envelope with a scale manifest


def dumps(e: SnowflakeEmbedding) -> bytes:
    """Embedding dump: the plan, the per-scale widths and the final
    coordinates; ``single_scale.loads_coords`` reads it back.

    ``scale_k`` lists each scale's width. In l1 that is its block's
    column count; in l-infinity, the count its block would have (one
    column per net point of each cluster of two or more points), though
    no block is written. In l2 no block is written either, and it is the
    bound min(n, sum over distinct clusters C of |C| - 1) on the rank of
    the scale's map, read without factoring; it is 0 exactly on scales of
    singletons. ``assembled_k`` is their sum, the width of the direct sum
    or of the one-block-per-scale layout."""
    plan = e.plan
    return _dumps_coords({
        "kind": "snowflake",
        "n": e.n,
        "k": e.k,
        "theory_k": e.theory_k,
        "theory_k_scale": e.theory_k_scale,
        "norm": norm_label(plan.norm),
        "alpha": plan.alpha,
        "eps": plan.eps,
        "p": plan.p,
        "delta": plan.delta,
        "M": plan.M,
        "center": plan.center,
        "seed": e.seed,
        "dim_hat": e.dim_hat,
        "i_lo": plan.i_lo,
        "i_hi": plan.i_hi,
        "scale_k": e.scale_k.tolist(),
    }, e.coords)
