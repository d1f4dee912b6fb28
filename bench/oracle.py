"""Correctness checks that do not use snowdim's own distance kernels.

Distances come from ``scipy.spatial.distance.pdist``; the bounds are the
ones the README advertises.  ``distortion_audit`` reports ``passed``
without checking the band limit for every norm, so the band limit is
checked here directly.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial.distance import pdist

METRIC = {"l1": "cityblock", "l2": "euclidean", "linf": "chebyshev"}

#: relative disagreement allowed between the audit's band and the oracle's
AUDIT_AGREEMENT_RTOL = 1e-6


def source_distances(points: np.ndarray, norm: str) -> np.ndarray:
    """Condensed pair distances of the (normalized) source points."""
    return pdist(points, METRIC[norm])


def band_width(src: np.ndarray, coords: np.ndarray, norm: str,
               alpha: float) -> float:
    """max/min over all pairs of image distance / source distance^alpha."""
    ratio = pdist(coords, METRIC[norm]) / src ** alpha
    return float(ratio.max() / ratio.min())


def band_limit(eps: float) -> float:
    return 1.0 + 16.0 * eps


def embedding_problems(src: np.ndarray, coords: np.ndarray, norm: str,
                       alpha: float, eps: float, audit_passed: bool,
                       audit_band: float) -> tuple[float, list[str]]:
    """The oracle's band width and every reason to fail the embedding."""
    band = band_width(src, coords, norm, alpha)
    problems = []
    if not audit_passed:
        problems.append("distortion_audit reported violations")
    if not band <= band_limit(eps):
        problems.append(f"band {band:.6g} exceeds {band_limit(eps):.6g}")
    if not abs(audit_band - band) <= AUDIT_AGREEMENT_RTOL * band:
        problems.append(f"audit band {audit_band!r} != oracle band {band!r}")
    return band, problems


def label_misses(src: np.ndarray, estimates: np.ndarray, k: int, q: float,
                 alpha: float, eps: float) -> int:
    """Pairs whose label estimate leaves the advertised band around d^alpha.

    ``estimates`` is condensed like ``src``.  The band is
    (1 + 3 eps)(1 + slack) with slack = sqrt(k) q / d^alpha, the relative
    error quantization to step q can add to a k-coordinate label distance.
    """
    target = src ** alpha
    band = (1.0 + 3.0 * eps) * (1.0 + math.sqrt(k) * q / target)
    ratio = estimates / target
    return int(np.count_nonzero(~((ratio <= band) & (ratio >= 1.0 / band))))
