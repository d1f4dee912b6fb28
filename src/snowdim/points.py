"""Finite point sets in l1 / l2 / linf with nets and doubling estimates.

All embedding machinery downstream assumes a *normalized* set: minimum
interpoint distance 1, with the original unit recorded in ``scale``. The
synthetic generators cover the shapes used throughout the test corpus
(lines, grids, low-dimensional subspace samples, balls, ultrametrics).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadParams,
    DuplicatePoints,
    EmptyInput,
    HeaderMismatch,
    UnknownKind,
)

_NORM_TAGS = {
    "1": 1.0, "l1": 1.0, 1: 1.0, 1.0: 1.0,
    "2": 2.0, "l2": 2.0, 2: 2.0, 2.0: 2.0,
    "inf": np.inf, "linf": np.inf, np.inf: np.inf, "infinity": np.inf,
}

#: relative tolerance on the normalization invariant (min distance == 1)
NORMALIZATION_RTOL = 1e-9
#: bytes of one gathered block: the l1 / l-infinity pair kernel's
#: differences, ``decomposition._sample``'s chunks and the ``_capped_h`` scans
PAIRWISE_BYTES = 8 << 20
#: centers sampled by the doubling estimate
MAX_CENTERS = 128


def norm_tag(norm) -> float:
    """Canonicalise a norm spec ("l1", 2, "inf", ...) to 1.0, 2.0 or inf."""
    key = norm.lower() if isinstance(norm, str) else norm
    try:
        return _NORM_TAGS[key]
    except (KeyError, TypeError):
        raise BadParams(f"unknown norm tag: {norm!r}") from None


def norm_label(norm: float) -> str:
    if math.isinf(norm):
        return "inf"
    return "1" if float(norm) == 1.0 else "2"


def _pair_distances(points: np.ndarray, norm: float, iu: np.ndarray,
                    ju: np.ndarray) -> np.ndarray:
    """Distances of the pairs (iu[t], ju[t]) of rows of ``points``.

    l1 and l-infinity gather the pairs in chunks of at most PAIRWISE_BYTES
    of differences, so no n x n x k tensor is ever formed; each distance is
    a sum or max over one contiguous row, bit for bit what a broadcast over
    all pairs gives. l2 reads the pairs off the dense Gram-trick matrix.
    """
    if norm == 2.0:
        return _pairwise(points, norm)[iu, ju]
    out = np.empty(len(iu))
    step = max(1, PAIRWISE_BYTES // (8 * max(points.shape[1], 1)))
    for lo in range(0, len(iu), step):
        diff = points[iu[lo:lo + step]]
        diff -= points[ju[lo:lo + step]]
        np.abs(diff, out=diff)
        out[lo:lo + step] = (diff.sum(axis=1) if norm == 1.0
                             else diff.max(axis=1, initial=0.0))
    return out


def _pairwise(points: np.ndarray, norm: float) -> np.ndarray:
    """Dense pairwise distance matrix; l1 and l-infinity measure each pair
    i < j once, chunked to bound peak memory."""
    n = points.shape[0]
    if norm == 2.0:
        sq = np.einsum("ij,ij->i", points, points)
        d2 = sq[:, None] + sq[None, :] - 2.0 * (points @ points.T)
        np.maximum(d2, 0.0, out=d2)
        d = np.sqrt(d2)
        np.fill_diagonal(d, 0.0)
        # symmetrise away rounding asymmetry from the Gram trick
        return 0.5 * (d + d.T)
    iu, ju = np.triu_indices(n, k=1)
    out = np.zeros((n, n))
    out[iu, ju] = out[ju, iu] = _pair_distances(points, norm, iu, ju)
    return out


@dataclass
class PointSet:
    """n points in R^d under a fixed norm.

    Parameters
    ----------
    points : (n, d) float array
    norm : 1.0, 2.0 or inf
    scale : original unit per normalized unit (1.0 for raw sets)
    """

    points: np.ndarray
    norm: float = 2.0
    scale: float = 1.0
    _dmat: np.ndarray | None = field(default=None, repr=False, compare=False)
    _dmin: float | None = field(default=None, repr=False, compare=False)
    _sorted: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.points = np.ascontiguousarray(np.asarray(self.points, dtype=np.float64))
        if self.points.ndim != 2:
            raise BadParams(f"points must be 2-d, got shape {self.points.shape}")
        if not np.isfinite(self.points).all():
            raise BadParams("points must be finite; got NaN or infinity")
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise BadParams(f"scale must be positive and finite, got {self.scale}")
        self.norm = norm_tag(self.norm)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def distance_matrix(self) -> np.ndarray:
        if self._dmat is None:
            pts = self.points
            if self.norm == 2.0 and self.n:
                # the Gram trick cancels the squared norms: centering keeps
                # them at the set's own spread, not its offset from 0
                pts = pts - pts.mean(axis=0)
            self._dmat = _pairwise(pts, self.norm)
        return self._dmat

    def _sorted_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Each distance-matrix row's stable argsort and its distances in
        that order: (order, sorted), both (n, n)."""
        if self._sorted is None:
            d = self.distance_matrix()
            order = np.argsort(d, axis=1, kind="stable")
            self._sorted = order, np.take_along_axis(d, order, axis=1)
        return self._sorted

    def diameter(self) -> float:
        return float(self.distance_matrix().max()) if self.n > 1 else 0.0

    def min_distance(self) -> float:
        if self.n < 2:
            raise EmptyInput("min distance needs at least two points")
        if self._dmin is None:
            d = self.distance_matrix().copy()
            np.fill_diagonal(d, np.inf)
            self._dmin = float(d.min())
        return self._dmin

    def is_normalized(self) -> bool:
        if self.n < 2:
            return True
        return abs(self.min_distance() - 1.0) <= NORMALIZATION_RTOL


def vector_norm(diff: np.ndarray, norm: float) -> np.ndarray:
    """Norm of row vector(s) under the set's norm."""
    diff = np.atleast_2d(diff)
    if norm == 2.0:
        return np.linalg.norm(diff, axis=1)
    if norm == 1.0:
        return np.abs(diff).sum(axis=1)
    return np.abs(diff).max(axis=1, initial=0.0)


def normalize(s: PointSet) -> PointSet:
    """Rescale so the minimum interpoint distance is exactly 1.

    Raises
    ------
    EmptyInput
        fewer than two points.
    DuplicatePoints
        some pair coincides (min distance is zero).
    BadParams
        the result's minimum distance is off 1 by more than
        NORMALIZATION_RTOL (coordinates too large next to d_min).
    """
    if s.n < 2:
        raise EmptyInput("normalize needs at least two points")
    dmin = _require_distinct(s)
    out = PointSet(s.points / dmin, s.norm, s.scale * dmin)
    if not out.is_normalized():
        raise BadParams(
            f"normalize measured a minimum distance of "
            f"{out.min_distance():.10g}, not 1 within {NORMALIZATION_RTOL:g}: "
            f"the largest |coordinate| is {np.abs(s.points).max() / dmin:.3g}"
            f" times d_min; move the set nearer the origin")
    return out


def _require_distinct(s: PointSet) -> float:
    """The minimum distance of ``s``; DuplicatePoints where it is zero."""
    dmin = s.min_distance()
    if dmin == 0.0:
        raise DuplicatePoints("coincident points: minimum distance is zero")
    return dmin


def require_normalized(s: PointSet, who: str = "operation"):
    if not s.is_normalized():
        raise BadParams(f"{who} requires a normalized point set (min distance 1)")


def require_seed(seed: int) -> None:
    if seed < 0:
        raise BadParams(f"seed must be a non-negative integer, got {seed}")


@dataclass
class Net:
    """Greedy epsilon-net: members pack at >= radius and cover at < radius."""

    radius: float
    members: np.ndarray          # indices into the parent set, ascending

    @property
    def size(self) -> int:
        return len(self.members)


def greedy_net(s: PointSet, radius: float) -> Net:
    """First-fit net in point-index order.

    A point joins the net iff no earlier member is within ``radius`` of it.
    At a radius no larger than the (cached) minimum distance every point
    joins, and the loop is skipped.
    """
    if s.n == 0:
        raise EmptyInput("net of an empty set")
    if not radius > 0:
        raise BadParams(f"net radius must be positive, got {radius}")
    if s.n < 2 or radius <= s.min_distance():
        return Net(float(radius), np.arange(s.n, dtype=np.intp))
    d = s.distance_matrix()
    members: list[int] = []
    for i in range(s.n):
        if not members or d[i, members].min() >= radius:
            members.append(i)
    return Net(float(radius), np.array(members, dtype=np.intp))


@dataclass
class DoublingEstimate:
    lambda_hat: int
    dim_hat: float


def _greedy_cover_count(dsub: np.ndarray, radius: float) -> int:
    """Greedy set cover of the sub-metric by `radius`-balls around its points."""
    n = dsub.shape[0]
    covered = np.zeros(n, dtype=bool)
    within = dsub <= radius
    count = 0
    while not covered.all():
        gains = (within & ~covered[None, :]).sum(axis=1)
        count += 1
        covered |= within[np.argmax(gains)]
    return count


def estimate_doubling(s: PointSet) -> DoublingEstimate:
    """Upper-estimate the doubling constant by greedy half-radius covers.

    Scans radii on a power-of-two grid and (a sample of) centers; for each
    ball B(x, rho) it greedily covers the ball with rho/2-balls centered at
    its own points, once per distinct ball at each radius. lambda_hat is
    the worst count seen, dim_hat = log2 of it. The radii start at twice
    the minimum distance, so coincident points raise DuplicatePoints.
    """
    if s.n == 0:
        raise EmptyInput("doubling estimate of an empty set")
    if s.n == 1:
        return DoublingEstimate(1, 0.0)
    d = s.distance_matrix()
    dmin, diam = _require_distinct(s), s.diameter()
    centers = np.arange(s.n) if s.n <= MAX_CENTERS else \
        np.unique(np.linspace(0, s.n - 1, MAX_CENTERS).astype(np.intp))
    lam = 1
    rho = 2.0 * dmin
    while True:
        # the cover count is a function of the ball's members, so a ball
        # met again from another center at this radius is covered once
        seen: set[bytes] = set()
        for x in centers:
            ball = np.flatnonzero(d[x] <= rho)
            # a smaller ball can never need more half-balls than members
            if len(ball) <= lam or (key := ball.tobytes()) in seen:
                continue
            seen.add(key)
            lam = max(lam, _greedy_cover_count(d[np.ix_(ball, ball)], rho / 2.0))
        if rho >= diam:
            break
        rho *= 2.0
    return DoublingEstimate(int(lam), float(np.log2(lam)) if lam > 1 else 0.0)


# ---------------------------------------------------------------------------
# synthetic generators


def _gen_line(n: int) -> np.ndarray:
    return np.arange(n, dtype=np.float64)[:, None]


def _gen_grid(side: int, dims: int) -> np.ndarray:
    # row m holds the base-side digits of m, most significant first: the
    # rows of an "ij" meshgrid, in any number of dimensions
    return (np.arange(side ** dims)[:, None] // side ** np.arange(
        dims - 1, -1, -1) % side).astype(np.float64)


def _gen_subspace(rng, n, ambient_dim, intrinsic_dim, noise):
    basis, _ = np.linalg.qr(rng.standard_normal((ambient_dim, intrinsic_dim)))
    # uniform in the intrinsic ball, radius chosen so spacing ~ O(1)
    direc = rng.standard_normal((n, intrinsic_dim))
    direc /= np.linalg.norm(direc, axis=1, keepdims=True)
    radii = rng.uniform(0.0, 1.0, n) ** (1.0 / intrinsic_dim)
    r_ball = n ** (1.0 / intrinsic_dim)
    coeffs = direc * (radii * r_ball)[:, None]
    pts = coeffs @ basis.T
    if noise > 0:
        pts = pts + rng.uniform(-noise, noise, pts.shape)
    return pts


def _gen_ball(rng, n, dim):
    direc = rng.standard_normal((n, dim))
    direc /= np.linalg.norm(direc, axis=1, keepdims=True)
    radii = rng.uniform(0.0, 1.0, n) ** (1.0 / dim)
    return direc * radii[:, None] * n ** (1.0 / dim)


def _gen_ultrametric(depth: int, base: float, leaves: int | None) -> np.ndarray:
    """Balanced binary tree ultrametric, embedded isometrically into l2.

    Leaf pair at lowest common ancestor depth m is at distance base^(D-m).
    Each non-root node owns one coordinate; the weight telescope makes the
    embedded l2 distances reproduce the tree distances exactly.
    """
    n_leaves = 2 ** depth if leaves is None else int(leaves)
    if not 2 <= n_leaves <= 2 ** depth:
        raise BadParams(f"leaves must be in [2, 2^{depth}]")
    b2 = base * base
    # node at depth t (1..D) gets weight w_t with 2*sum_{t>m} w_t^2 = base^(2(D-m))
    w = np.empty(depth + 1)
    w[depth] = math.sqrt(b2 / 2.0)
    for t in range(depth - 1, 0, -1):
        w[t] = math.sqrt(b2 ** (depth - t) * (b2 - 1.0) / 2.0)
    n_nodes = 2 ** (depth + 1) - 1  # heap-indexed complete tree, root = 1
    pts = np.zeros((n_leaves, n_nodes - 1))
    for leaf in range(n_leaves):
        node = leaf + 2 ** depth  # heap index of the leaf
        t = depth
        while node > 1:
            pts[leaf, node - 2] = w[t]
            node //= 2
            t -= 1
    return pts


def generate(kind: str, seed: int = 0, **params) -> PointSet:
    """Build a synthetic point set.

    Kinds: "line" (n), "grid" (side, dims=2), "subspace" (n, ambient_dim,
    intrinsic_dim, noise=0), "ball" (n, dim), "ultrametric" (depth, base=2,
    leaves=None). Common: norm ("l1"/"l2"/"linf", default l2).
    """
    require_seed(seed)
    norm = norm_tag(params.pop("norm", 2.0))
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0xD06)))
    def positive(name, value):
        if value < 1:
            raise BadParams(f"generator {kind!r} needs {name} >= 1, got {value}")
        return value

    try:
        if kind == "line":
            pts = _gen_line(positive("n", int(params.pop("n"))))
        elif kind == "grid":
            pts = _gen_grid(positive("side", int(params.pop("side"))),
                            positive("dims", int(params.pop("dims", 2))))
        elif kind == "subspace":
            n = positive("n", int(params.pop("n")))
            amb = positive("ambient_dim", int(params.pop("ambient_dim")))
            intr = positive("intrinsic_dim", int(params.pop("intrinsic_dim")))
            if intr > amb:
                raise BadParams("intrinsic_dim cannot exceed ambient_dim")
            pts = _gen_subspace(rng, n, amb, intr, float(params.pop("noise", 0.0)))
        elif kind == "ball":
            pts = _gen_ball(rng, positive("n", int(params.pop("n"))),
                            positive("dim", int(params.pop("dim"))))
        elif kind == "ultrametric":
            depth = positive("depth", int(params.pop("depth")))
            base = float(params.pop("base", 2.0))
            if base <= 1.0:
                raise BadParams("ultrametric base must exceed 1")
            pts = _gen_ultrametric(depth, base, params.pop("leaves", None))
        else:
            raise UnknownKind(f"unknown generator kind {kind!r}")
    except KeyError as exc:
        raise BadParams(f"generator {kind!r} missing parameter {exc}") from None
    if params:
        raise BadParams(f"generator {kind!r} got unexpected parameters {sorted(params)}")
    return PointSet(pts, norm)


# ---------------------------------------------------------------------------
# serialization: CSV with a `# norm=p scale=s` header, or the JSON variant


def dumps_csv(s: PointSet) -> str:
    buf = io.StringIO()
    buf.write(f"# norm={norm_label(s.norm)} scale={s.scale:.17g}\n")
    writer = csv.writer(buf, lineterminator="\n")
    for row in s.points:
        writer.writerow([f"{float(v):.17g}" for v in row])
    return buf.getvalue()


def loads_csv(text: str) -> PointSet:
    """Read ``dumps_csv`` text. A bad header raises HeaderMismatch; a cell
    that is no number, or rows of unequal length, raise BadParams."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("#"):
        raise HeaderMismatch("point-set CSV must start with a '# norm=.. scale=..' header")
    try:
        fields = dict(part.split("=", 1)
                      for part in lines[0].lstrip("# ").split())
        norm = norm_tag(fields["norm"])
        scale = float(fields["scale"])
    except (KeyError, ValueError) as exc:
        raise HeaderMismatch(f"bad point-set CSV header: {lines[0]!r}") from exc
    try:
        rows = [[float(v) for v in row] for row in csv.reader(lines[1:]) if row]
    except ValueError as exc:
        raise BadParams(f"bad point-set CSV cell: {exc}") from exc
    if not rows:
        raise EmptyInput("point-set CSV has no data rows")
    if len({len(row) for row in rows}) > 1:
        raise BadParams("point-set CSV rows differ in length")
    return PointSet(np.array(rows), norm, scale)


def dumps_json(s: PointSet) -> str:
    doc = {
        "norm": norm_label(s.norm),
        "scale": s.scale,
        "points": [[float(v) for v in row] for row in s.points],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def loads_json(text: str) -> PointSet:
    """Read ``dumps_json`` text. Invalid JSON, a missing key, or a bad
    norm or scale raise HeaderMismatch; points that are no numeric
    matrix raise BadParams."""
    try:
        doc = json.loads(text)
        rows = doc["points"]
        norm = norm_tag(doc["norm"])
        scale = float(doc.get("scale", 1.0))
    except (KeyError, TypeError, ValueError) as exc:
        raise HeaderMismatch(f"bad point-set JSON document: {exc}") from exc
    try:
        pts = np.array(rows, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise BadParams(f"bad point-set JSON points: {exc}") from exc
    return PointSet(pts, norm, scale)


def load(path) -> PointSet:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise HeaderMismatch(f"point-set file {path} is not UTF-8 text") from exc
    return loads_json(text) if text.lstrip().startswith("{") else loads_csv(text)
