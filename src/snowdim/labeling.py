"""Compact distance labels built from a snowflake embedding.

Each point gets a short label: its embedding coordinates divided by the
predicted band center (so label distances estimate d**alpha directly) and
rounded to the nearest multiple of a step q = eps * r_ref / (2k), where
r_ref is the largest coordinate magnitude over the whole set.  Two labels
alone then recover the snowflaked distance up to the embedding band times
an additive quantization term sqrt(k) * q, and the original distance via
the 1/alpha power and the recorded unit scale.

The serialized form is binary, little-endian: a fixed header
{magic "SNFL", version u16, k u32, n u64, q f64, alpha f64, M f64,
scale f64} followed by exactly n records {id u64, k x i32}, one per point.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import BadParams, HeaderMismatch
from .snowflake import SnowflakeEmbedding

MAGIC = b"SNFL"
VERSION = 2

_HEADER = struct.Struct("<4sHIQdddd")

# rounding to the nearest multiple of q keeps every coordinate within q/2
_I32_MAX = np.iinfo(np.int32).max


@dataclass(frozen=True)
class LabelHeader:
    """Shared metadata every label in one set carries.

    k     : label length (coordinates per point)
    q     : quantization step, in band-calibrated units
    alpha : snowflake exponent of the source embedding
    M     : normalizer the embedding divided by (recorded for provenance)
    scale : original distance units per normalized unit
    """

    k: int
    q: float
    alpha: float
    M: float
    scale: float


@dataclass(frozen=True)
class DistanceLabel:
    """One point's label: an id plus k quantized coordinates."""

    point_id: int
    ints: np.ndarray  # (k,) int32
    header: LabelHeader


@dataclass
class LabelSet:
    """All labels of one embedding, stored as a single integer matrix."""

    header: LabelHeader
    ids: np.ndarray    # (n,) uint64
    ints: np.ndarray   # (n, k) int32

    @property
    def n(self) -> int:
        return self.ints.shape[0]

    def label(self, i: int) -> DistanceLabel:
        return DistanceLabel(int(self.ids[i]), self.ints[i], self.header)


def quantize(coords: np.ndarray, q: float) -> np.ndarray:
    """Round each entry to the nearest multiple of q, returned as int32."""
    if q <= 0.0:
        raise BadParams(f"quantization step must be positive, got {q}")
    ints = np.rint(np.asarray(coords, dtype=np.float64) / q)
    if np.abs(ints).max(initial=0.0) > _I32_MAX:
        raise BadParams("coordinates overflow int32 at this step size")
    return ints.astype(np.int32)


def dequantize(ints: np.ndarray, q: float) -> np.ndarray:
    """Inverse of quantize up to the rounding error, which is at most q/2."""
    return np.asarray(ints, dtype=np.float64) * q


def dls_build(e: SnowflakeEmbedding, eps: float) -> LabelSet:
    """Quantize a snowflake embedding into a distance-label set.

    Coordinates are first divided by the plan's predicted band center so
    that label distances sit on d**alpha rather than center * d**alpha;
    the step q = eps * r_ref / (2k) then caps the per-point l2 rounding
    error at sqrt(k) * q / 2 <= eps * r_ref / 4.
    """
    if e.plan.norm != 2.0:
        raise BadParams("distance labels need an l2 embedding; "
                        f"got norm={e.plan.norm}")
    if not 0.0 < eps < 0.25:
        raise BadParams(f"eps must lie in (0, 1/4), got {eps}")
    coords = e.coords / e.plan.center
    k = coords.shape[1]
    r_ref = float(np.abs(coords).max(initial=0.0))
    if r_ref == 0.0:
        r_ref = 1.0  # degenerate all-zero image; any positive step works
    q = eps * r_ref / (2.0 * k)
    header = LabelHeader(k=k, q=q, alpha=e.plan.alpha, M=e.plan.M,
                         scale=e.source.scale)
    ids = np.arange(e.n, dtype=np.uint64)
    return LabelSet(header, ids, quantize(coords, q))


def dls_query(a: DistanceLabel, b: DistanceLabel) -> tuple[float, float]:
    """Distance estimates from two labels alone.

    Returns (snowflaked estimate, original-distance estimate): the first
    is the l2 distance of the dequantized labels and tracks d**alpha in
    normalized units; the second is its 1/alpha power times the recorded
    unit scale, so it tracks the distance of the raw input points.
    """
    if a.header != b.header:
        raise HeaderMismatch("labels come from different label sets")
    h = a.header
    diff = dequantize(a.ints.astype(np.int64) - b.ints.astype(np.int64), h.q)
    snow = float(np.linalg.norm(diff))
    return snow, snow ** (1.0 / h.alpha) * h.scale


def quantization_slack(header: LabelHeader, dist: float) -> float:
    """Worst-case relative error a query adds on a pair at distance dist.

    Each dequantized coordinate is off by at most q/2, so two labels are
    each off by at most sqrt(k) * q / 2 in l2 and the estimate by
    sqrt(k) * q; dist is the true snowflaked distance it is relative to.
    """
    if dist <= 0.0:
        raise BadParams("slack is relative to a positive distance")
    return math.sqrt(header.k) * header.q / dist


def measured_label_bits(ls: LabelSet) -> int:
    """Actual bits one label needs for its k stored integers."""
    span = int(ls.ints.max(initial=0)) - int(ls.ints.min(initial=0))
    return ls.header.k * math.ceil(math.log2(span + 2))


def theory_label_bits(k: int, aspect: float, eps: float) -> float:
    """Reference label size k * log2(R / (eps / 2k)) for aspect ratio R."""
    if aspect < 1.0 or not 0.0 < eps < 1.0:
        raise BadParams("need aspect >= 1 and 0 < eps < 1")
    return k * math.log2(aspect / (eps / (2.0 * k)))


def dumps_labels(ls: LabelSet) -> bytes:
    """Serialize a label set; byte-identical for identical inputs."""
    h = ls.header
    rec = np.empty(ls.n, dtype=[("id", "<u8"), ("c", "<i4", (h.k,))])
    rec["id"] = ls.ids
    rec["c"] = ls.ints
    return _HEADER.pack(MAGIC, VERSION, h.k, ls.n, h.q, h.alpha, h.M,
                        h.scale) + rec.tobytes()


def loads_labels(buf: bytes) -> LabelSet:
    """Parse bytes produced by dumps_labels.

    Raises HeaderMismatch on a short or foreign header, a label length k of
    zero, a step q, normalizer M or unit scale that is not a positive
    finite number, an alpha outside (0, 1), or a body that does not hold
    exactly the n records the header declares.
    """
    if len(buf) < _HEADER.size:
        raise HeaderMismatch("label buffer shorter than its header")
    magic, version, k, n, q, alpha, m_norm, scale = _HEADER.unpack_from(buf, 0)
    if magic != MAGIC:
        raise HeaderMismatch(f"bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise HeaderMismatch(f"unsupported label version {version}")
    if k == 0:
        raise HeaderMismatch("label header declares k = 0 coordinates")
    for name, value, top in (("q", q, math.inf), ("alpha", alpha, 1.0),
                             ("M", m_norm, math.inf),
                             ("scale", scale, math.inf)):
        if not 0.0 < value < top:
            raise HeaderMismatch(f"label header declares {name} = {value}, "
                                 f"outside (0, {top})")
    body = buf[_HEADER.size:]
    size = 8 + 4 * k                        # id u64, then k x i32
    if len(body) != n * size:
        raise HeaderMismatch(f"label body has {len(body)} bytes, header "
                             f"declares {n} records of {size}")
    rows = np.frombuffer(body, dtype=np.uint8).reshape(n, size)
    header = LabelHeader(k=k, q=q, alpha=alpha, M=m_norm, scale=scale)
    return LabelSet(header, rows[:, :8].copy().view("<u8")[:, 0],
                    rows[:, 8:].copy().view("<i4"))
