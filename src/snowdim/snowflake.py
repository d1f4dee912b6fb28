"""Snowflake embedding: the metric d^alpha with a 1 + O(eps) distortion band.

Scales r_i = (1+eps)^i over a bounded index window I are embedded
independently at one shared per-scale delta, every map is divided by
(1+eps)^{i(1-alpha)}, the maps are combined, and the result is divided by
the normalizer M (its square root in l2). The band of image distance /
d^alpha then has width 1 + O(eps). Its location is a computable constant
of (eps, alpha, p) alone, exposed as ``band_center`` so consumers that need
unit calibration (distance labels) can rescale; the guarantee itself is on
the width.

How the maps are combined depends on the norm:

* l2 sums the scales directly through one Gram matrix. Each scale's Gram
  is the one its single-scale build factors, summed in closed form from
  its distinct clusters (``single_scale._scale_gram``), so no cluster is
  realized and no per-scale block is written; the scale keeps only its
  pair distances, for the audit. One ``factor_gram`` of the
  double-centered total writes the output in at most n - 1 coordinates
  with the direct sum's pair distances. ``assembled_k`` is the direct
  sum's width, the sum of the per-scale rank bounds.
* l1 keeps the paper's round-robin grouping: scales of one residue class
  i mod p are summed coordinate-wise and the p groups are direct-summed.
  l1 has no exact dimension-free reduction, so the layout is the output.
* l-infinity combines by max, so every scale keeps its own block.

``theory_k`` is the paper's grouped count p * k_scale for every norm, a
formula of the parameters alone. The concrete l2 width does not need the
grouping: the exact n - 1 output is narrower than any grouped layout.

The scales are independent work: each one's seed derives from (seed, i)
alone. ``build_snowflake`` splits them over the w CPUs the process may
run on. Scale t is built by process t mod w: the caller builds every w-th
scale, and one forked helper per extra CPU builds the others, reading the
inputs copy-on-write. The caller merges every result in scale order, so
the floating-point sums are the same for any w, and the dump, report and
label bytes do not depend on the CPU count. With one CPU (or where the
system cannot say: ``os.sched_getaffinity`` is Linux-only), in a daemonic
process, without the fork start method, or while another Python thread
runs, every scale is built in the calling process.

The audit measures every pair against d^alpha and the per-scale bucket
diagnostics: write B_i for the per-scale image distance divided by
(1+eps)^{i(1-alpha)} and anchor the size-p window
A = {i*-q+1, ..., i*+p-q}, q = ceil(log_{1+eps}(1/eps)) + 2, at the pair's
dominant scale (1+eps)^{i*} <= d <= (1+eps)^{i*+1}. The guarantees hold for
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
norm; in l2, whose direct sum adds no same-residue cross terms, it bounds
the per-scale masses the grouping would have added.
"""

from __future__ import annotations

import math
import os
import signal
import traceback
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import report as report_mod
from .errors import BadParams, ClusterTooLarge, EmptyInput, SnowdimError
from .points import (PointSet, _pair_distances, _pairwise, estimate_doubling,
                     norm_label, norm_tag, require_normalized)
from .single_scale import (EPS_PAD, ScaleClusters, SingleScaleEmbedding,
                           SingleScaleParams, _dumps_coords, _scale_gram,
                           build_single_scale, scale_clusters,
                           theory_dimension)
from .transforms import MAX_CUT_POINTS, factor_gram, line_order

#: offset added to the scale index when deriving per-scale seeds, so the
#: seed entropy stays nonnegative for any sane index window
SCALE_SALT = 1 << 20
#: slack factor allowed on the geometric-tail bound eps * (1+eps)^{i(1-alpha)}
TAIL_SLACK = 1.1
#: lower bound on the dominant term, in units of (1+eps)^{i*(1-alpha)}
DOMINANT_FLOOR = 0.45


def scale_count(alpha: float, eps: float) -> int:
    """Number of round-robin groups p = ceil((3/(1-alpha)) * ceil(log_{1+eps}(1/eps)))."""
    j = math.ceil(math.log(1.0 / eps) / math.log1p(eps))
    # guard the ceil against float noise when 3j/(1-alpha) is an integer
    return math.ceil(3.0 * j / (1.0 - alpha) - 1e-9)


def _b_range(p: int) -> np.ndarray:
    # the p integers b with -p/2 < b <= p/2
    return np.arange(p // 2 - p + 1, p // 2 + 1, dtype=np.int64)


def compute_M(eps: float, p: int, norm: float = 2.0) -> float:
    """Normalizer for the grouped scale sum, by direct summation in
    extended precision, smallest terms first.

    Euclidean: sum over b of ((1+eps)^b * G((1+eps)^-b))^2 with
    G(t) = sqrt(1 - exp(-t^2)); l1 mirrors it linearly with
    L(t) = 1 - exp(-t); l-infinity combines by max, whose analog
    max_b min(1, (1+eps)^b) is exactly 1.
    """
    if p < 1:
        raise BadParams(f"p must be a positive integer, got {p}")
    norm = norm_tag(norm)
    b = _b_range(p).astype(np.longdouble)
    e1 = np.longdouble(1.0 + eps)
    if norm == np.inf:
        return float(np.minimum(e1 ** b, 1.0).max())
    if norm == 2.0:
        terms = e1 ** (2 * b) * (-np.expm1(-(e1 ** (-2 * b))))
    else:
        terms = e1 ** b * (-np.expm1(-(e1 ** (-b))))
    return float(np.sort(terms).sum())


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
    m_val = compute_M(eps, p, norm)
    b = _b_range(p).astype(np.longdouble)
    e1 = np.longdouble(1.0 + eps)
    if norm == np.inf:
        t = np.where(b >= 0, e1 ** (-b * (1.0 - alpha)), e1 ** (b * alpha))
        return float(t.max() / m_val)
    if norm == 2.0:
        t = e1 ** (2 * b * alpha) * (-np.expm1(-(e1 ** (-2 * b))))
        return math.sqrt(float(np.sort(t).sum()) / m_val)
    t = e1 ** (b * alpha) * (-np.expm1(-(e1 ** (-b))))
    return float(np.sort(t).sum()) / m_val


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


def scale_plan(s: PointSet, alpha: float, eps: float,
               norm: float | None = None) -> SnowflakePlan:
    """Fix p, the per-scale delta, and the scale window
    I = {i : eps^5 <= (1+eps)^i <= eps^-5 * diam}. The target norm
    defaults to the input's own norm."""
    require_normalized(s, "scale_plan")
    if s.n < 2:
        raise EmptyInput("snowflake plan needs at least two points")
    if not 0 < alpha < 1:
        raise BadParams(f"alpha must lie in (0, 1), got {alpha}")
    if not 0 < eps < 0.25:
        raise BadParams(f"eps must lie in (0, 1/4), got {eps}")
    norm = norm_tag(s.norm if norm is None else norm)
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
                         compute_M(eps, p, norm),
                         band_center(eps, p, alpha, norm), norm)


def _scale_seed(seed: int, i: int) -> int:
    ss = np.random.SeedSequence(entropy=(int(seed), SCALE_SALT + int(i)))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@dataclass
class ScaleEntry:
    """One built scale: what the audit reads of it.

    l1 and l-infinity keep the scale's coordinate block; l2 writes no
    block and keeps only the scale's condensed pair distances
    (``scipy.spatial.distance.pdist`` order), read off its Gram matrix,
    as a row of the embedding's ``scale_dists``. Both carry the division
    by (1+eps)^{i(1-alpha)}."""

    i: int
    r: float
    seed: int
    k: int                           # block width; l2: its rank bound
    coords: np.ndarray | None        # (n, k) block; None on l2
    dists: np.ndarray | None         # l2 only, and None if k == 0
    dom_pairs: np.ndarray | None     # (n, n) bool: padded in every partition


@dataclass
class SnowflakeEmbedding:
    plan: SnowflakePlan
    source: PointSet
    seed: int
    dim_hat: float
    scales: list[ScaleEntry]
    k: int                           # concrete coordinate count
    assembled_k: int                 # layout width before reduction
    theory_k: int                    # p * theory_k_scale
    theory_k_scale: int
    coords: np.ndarray               # (n, k) final images, all scaling in
    scale_dists: np.ndarray | None   # l2: (scales, pairs); rows are .dists

    @property
    def n(self) -> int:
        return self.source.n

    def image_distance_matrix(self) -> np.ndarray:
        return _pairwise(self.coords, self.plan.norm)


def _dominant_pair_mask(
        e: ScaleClusters | SingleScaleEmbedding) -> np.ndarray:
    """Pairs that are same-cluster with both pad-balls uncut in every
    partition of the scale's decomposition.

    Two points share a cluster in every partition exactly when their label
    columns across the partitions are equal, so one id per distinct column
    replaces a comparison per partition. A certain decomposition's one
    label row stands for all of its partitions."""
    dec = e.decomposition
    pad = dec.padded.all(axis=0)
    labels = np.ascontiguousarray(dec.labels.T)
    # each contiguous row read as one opaque value: a bytewise sort, not
    # the structured-dtype sort of np.unique(axis=0)
    rows = labels.view(np.dtype((np.void, labels.shape[1] * labels.itemsize)))
    col = np.unique(rows.ravel(), return_inverse=True)[1]
    return (col[:, None] == col[None, :]) & (pad[:, None] & pad[None, :])


@dataclass
class _ScaleJob:
    """What every scale of one snowflake reads, set up before any scale is
    built; the scale helpers inherit it through fork."""

    s: PointSet
    plan: SnowflakePlan
    seed: int
    dim_hat: float
    istar_top: int                   # the finest scale that can anchor a pair
    iu: np.ndarray                   # the pairs i < j
    ju: np.ndarray


def _build_scale(job: _ScaleJob,
                 i: int) -> tuple[ScaleEntry, np.ndarray | None]:
    """Scale i's entry and, on l2, its weighted Gram (None on l1 and
    l-infinity, or when the scale is all singletons).

    Everything is already divided by (1+eps)^{i(1-alpha)}: the l1 or
    l-infinity block, the l2 pair distances, and the l2 Gram by its
    square. A library error is re-raised as the same type with the scale
    named in front of its message."""
    plan = job.plan
    eps = plan.eps
    sp = SingleScaleParams(r=(1.0 + eps) ** i, eps=eps, delta=plan.delta,
                           norm=plan.norm, seed=_scale_seed(job.seed, i),
                           rescale_c=0.0, dim_hat=job.dim_hat)
    l2 = plan.norm == 2.0
    try:
        e_i = (scale_clusters(job.s, sp) if l2
               else build_single_scale(job.s, sp))
    except SnowdimError as err:
        raise type(err)(f"scale i={i} (r={sp.r:.6g}): {err}") from err
    w = (1.0 + eps) ** (-i * (1.0 - plan.alpha))
    coords = dists = g_w = None
    if l2:
        k_i, g_i = _scale_gram(e_i, job.s.distance_matrix())
        if k_i:
            g_w = (w * w) * g_i
            diag = np.diag(g_i)
            dists = w * np.sqrt(np.maximum(
                diag[job.iu] + diag[job.ju] - 2.0 * g_i[job.iu, job.ju], 0.0))
    else:
        k_i, coords = e_i.k, e_i.coords * w
    dom = None
    if 0 <= i <= job.istar_top and k_i:
        dom = _dominant_pair_mask(e_i)
    return ScaleEntry(i, sp.r, sp.seed, k_i, coords, dists, dom), g_w


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


def _scale_helper(job: _ScaleJob, indices: range, conn) -> None:
    """A forked helper's loop: build the given scales in order and send
    each result as (True, result), or the first error as (False, error,
    its cause), through ``conn``. ``send`` blocks until the caller reads,
    so at most one result waits at a time. An error that cannot be
    pickled is sent as a RuntimeError holding its traceback. A SIGTERM
    handler inherited from the caller is dropped, so the caller can
    always stop it."""
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    try:
        for i in indices:
            conn.send((True, _build_scale(job, i)))
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
def _scale_results(job: _ScaleJob):
    """Yield an iterator over ``_build_scale`` of every scale, in scale
    order.

    With w CPUs (capped by the scale count), scale t is built by process
    t mod w: the caller builds its own share, and w - 1 helpers forked
    here build the rest, sharing the inputs copy-on-write. The caller
    reads each helper's results in scale order, so the merge sees the
    same sequence for any w. The scales are built in this process alone
    with one CPU, inside a daemonic process (which may not start
    children), without the fork start method, or while another Python
    thread runs: a fork copies any lock that thread holds into the
    helper, and two builds at once would interleave the thread-count
    hold below. While the helpers run, every OpenBLAS found is held to
    one thread in every process (the helpers inherit it), so the w
    processes share the CPUs instead of w BLAS pools each contending for
    all of them; another BLAS keeps its own setting. A helper's error is
    re-raised at its scale's turn, chained to the cause it was raised
    from. On any error every helper is terminated, and every helper is
    joined before this returns or raises."""
    indices = job.plan.scale_indices
    w = min(_worker_count(), len(indices))
    if w > 1:
        import multiprocessing
        import threading
        if (multiprocessing.current_process().daemon
                or "fork" not in multiprocessing.get_all_start_methods()
                or threading.active_count() > 1):
            w = 1
    if w <= 1:
        yield (_build_scale(job, i) for i in indices)
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
                               args=(job, indices[h::w], send), daemon=True)
            proc.start()
            send.close()
            helpers.append((proc, recv))
        yield _merge_order(job, indices, helpers)
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


def _merge_order(job: _ScaleJob, indices: range, helpers: list):
    w = len(helpers) + 1
    for t, i in enumerate(indices):
        if t % w == 0:
            yield _build_scale(job, i)
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
                f"sending scale i={i}") from None
        if not ok:
            raise out from cause[0]
        yield out


def build_snowflake(s: PointSet, alpha: float, eps: float, seed: int = 0,
                    norm: float | None = None,
                    dim_hat: float | None = None) -> SnowflakeEmbedding:
    """Assemble the embedding; see the module docstring for the pipeline.

    The doubling estimate is taken once and shared by every scale, so the
    reported theory dimension depends only on the parameters and that
    estimate (pass ``dim_hat`` to pin it). The target norm defaults to
    the input's own norm (``s.norm``). Per-scale seeds derive from
    (seed, i), so any scale can be rebuilt independently, and the scales
    are split over the CPUs this process may use: the caller builds
    every w-th scale and one forked helper per extra CPU builds each of
    the others, and the caller merges all of them in scale order. The
    output bytes do not depend on the CPU count. A library error from
    one scale is re-raised as the same type with the scale named in
    front of its message, chained to the original; any other exception
    passes through with its type and message. From a helper, the error
    carries the helper's traceback as a note, and its cause is a copy of
    the original; an error that cannot be pickled comes back as a
    RuntimeError holding its traceback. An l1 target above the cut LP's MAX_CUT_POINTS whose metric is
    not a line raises ClusterTooLarge before any scale is built.
    """
    plan = scale_plan(s, alpha, eps, norm)
    # every scale coarser than the carving range keeps all n points in one
    # cluster, and the l1 path writes each cluster as a sum of cuts: in
    # closed form for a line, by the cut LP for anything else
    if (plan.norm == 1.0 and s.n > MAX_CUT_POINTS
            and line_order(s.distance_matrix()) is None):
        raise ClusterTooLarge(
            f"an l1 snowflake of {s.n} points off a line puts all of them "
            f"in one cluster at its coarser scales; the cut LP's cap is "
            f"{MAX_CUT_POINTS} points")
    if dim_hat is None:
        dim_hat = estimate_doubling(s).dim_hat
    n = s.n
    # dominant-pair masks are only consulted at scales that can anchor a
    # pair: 0 <= i* <= log_{1+eps} diam
    istar_top = math.floor(math.log(s.diameter()) / math.log1p(eps)) + 1
    l2 = plan.norm == 2.0
    job = _ScaleJob(s, plan, seed, dim_hat, istar_top,
                    *np.triu_indices(n, k=1))
    scale_dists = None
    if l2:
        gram = np.zeros((n, n))
        # every scale's pair distances, written in place: the audit reads
        # this array whole, and a scale of singletons keeps its zero row
        scale_dists = np.zeros((len(plan.scale_indices), len(job.iu)))
    entries: list[ScaleEntry] = []
    with _scale_results(job) as results:
        for t, (entry, g_w) in enumerate(results):
            if g_w is not None:
                gram += g_w
                scale_dists[t] = entry.dists
                entry.dists = scale_dists[t]
            entries.append(entry)

    if l2:
        # the direct sum of the scales, normalized, has Gram gram / M; its
        # double-centered form spans at most n - 1 directions, and the cap
        # drops the all-ones null direction should its noise pass the cutoff
        gram /= plan.M
        gram -= gram.mean(axis=0)
        gram -= gram.mean(axis=1)[:, None]
        out = factor_gram(gram)[:, :n - 1]
        assembled_k = sum(e.k for e in entries)
    else:
        out = _grouped_layout(entries, plan)
        assembled_k = out.shape[1]
    theory_k_scale = theory_dimension(eps, plan.delta, EPS_PAD, dim_hat, plan.norm)
    return SnowflakeEmbedding(plan, s, seed, dim_hat, entries, out.shape[1],
                              assembled_k, plan.p * theory_k_scale,
                              theory_k_scale, out, scale_dists)


def _grouped_layout(entries: list[ScaleEntry],
                    plan: SnowflakePlan) -> np.ndarray:
    """The l1 and l-infinity output: one shared block per residue class
    i mod p (maps in a class are summed, zero-padded to the widest), except
    l-infinity, where the max combination keeps every scale in its own
    block; l1 divides by its normalizer."""
    if plan.norm == np.inf:
        keys = list(range(len(entries)))
    else:
        keys = [e.i % plan.p for e in entries]
    widths: dict[int, int] = {}
    for key, e in zip(keys, entries):
        widths[key] = max(widths.get(key, 0), e.k)
    offsets = {}
    col = 0
    for key in sorted(widths):
        offsets[key] = col
        col += widths[key]
    coords = np.zeros((entries[0].coords.shape[0], col))
    for key, e in zip(keys, entries):
        if e.k:
            coords[:, offsets[key]:offsets[key] + e.k] += e.coords
    if plan.norm == 1.0:
        coords /= plan.M
    return coords


# ---------------------------------------------------------------------------
# audit


def distortion_audit(e: SnowflakeEmbedding) -> report_mod.DistortionReport:
    """Exhaustive pair ratios against d^alpha plus the per-scale bucket
    diagnostics (geometric tails and the dominant-term floor). Tail or
    dominant breaches, and a band width above the 1 + 16 eps limit, are
    appended to the violations list with a ``check`` tag, so ``passed``
    covers all four properties."""
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
    # the stored blocks and l2 distances already carry the division, and
    # the l2 distances are read in place
    n_pairs = len(src)
    n_scales = len(e.scales)
    b_terms = e.scale_dists
    if b_terms is None:
        b_terms = np.zeros((n_scales, n_pairs))
        for t, sc in enumerate(e.scales):
            if sc.k:
                b_terms[t] = _pair_distances(sc.coords, plan.norm, iu, ju)
    ivals = np.array([sc.i for sc in e.scales])

    lg = math.log1p(eps)
    istar = np.floor(np.log(src) / lg + 1e-9).astype(np.int64)
    istar = np.clip(istar, plan.i_lo, plan.i_hi)
    q = math.ceil(math.log(1.0 / eps) / lg) + 2
    win_lo = istar - q + 1
    win_hi = istar + p - q
    in_window = (ivals[:, None] >= win_lo) & (ivals[:, None] <= win_hi)

    # same-residue mass outside the window: the mates of i are the other
    # scales of its residue class, i +- p, i +- 2p, ... (the rows are the
    # consecutive scales i_lo..i_hi), always outside an anchored window
    # containing i
    out_mass = np.zeros((n_scales, n_pairs))
    for shift in range(p, n_scales, p):
        out_mass[shift:] += b_terms[:-shift]
        out_mass[:-shift] += b_terms[shift:]
    tail_bound = TAIL_SLACK * eps * (1.0 + eps) ** (ivals * (1.0 - alpha))
    tail_bad = in_window & (out_mass > tail_bound[:, None])

    # dominant term at the anchor scale, for pairs padded there
    istar_idx = istar - plan.i_lo
    b_dom = b_terms[istar_idx, np.arange(n_pairs)]
    dom_bound = DOMINANT_FLOOR * (1.0 + eps) ** (istar * (1.0 - alpha))
    padded_dom = np.zeros(n_pairs, dtype=bool)
    for t in np.unique(istar_idx):
        sel = istar_idx == t
        dp = e.scales[t].dom_pairs
        if dp is not None:
            padded_dom[sel] = dp[iu[sel], ju[sel]]
    dom_bad = padded_dom & (b_dom < dom_bound)

    for t, pair in zip(*np.nonzero(tail_bad)):
        rep.violations.append({
            "check": "tail", "i": int(iu[pair]), "j": int(ju[pair]),
            "scale_i": int(ivals[t]), "mass": float(out_mass[t, pair]),
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

    with np.errstate(invalid="ignore", divide="ignore"):
        tail_ratio = np.where(in_window, out_mass / tail_bound[:, None], 0.0)
        dom_ratio = b_dom / ((1.0 + eps) ** (istar * (1.0 - alpha)))
    rep.extras.update({
        "alpha": alpha,
        "p": p,
        "delta": plan.delta,
        "M": plan.M,
        "center": plan.center,
        "band_width": band_width,
        "band_limit": band_limit,
        "max_tail_ratio": float(tail_ratio.max()) if tail_ratio.size else 0.0,
        "tail_bound_slack": TAIL_SLACK,
        "padded_dominant_pairs": int(padded_dom.sum()),
        "min_dominant_ratio":
            float(dom_ratio[padded_dom].min()) if padded_dom.any() else None,
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

    ``scale_k`` lists each scale's width. In l1 and l-infinity that is
    its block's column count. In l2 no block is written, and it is the
    bound min(n, sum over distinct clusters C of |C| - 1) on the rank of
    the scale's map, read without factoring; it is 0 exactly on scales of
    singletons. The l2 ``assembled_k`` is their sum, the width of the
    direct sum of the scales."""
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
        "scale_k": [int(sc.k) for sc in e.scales],
    }, e.coords)
