"""Verified random projection.

A Gaussian projection is drawn, measured against every pairwise distance,
and post-scaled so the largest expansion is exactly 1; it is accepted only
if the worst contraction then stays within 1/(1+eps). Draws that miss are
retried, and after enough misses the target dimension is bumped. When the
requested dimension already matches the source rank the identity is
returned: no sample can be certified to beat it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParams
from .transforms import factor_gram

#: fresh Gaussian draws per target dimension before bumping it
MAX_TRIES = 64
#: dimension growth factor after MAX_TRIES misses
BUMP = 1.25


def jl_dimension(eps: float, n: int) -> int:
    """Dimension sufficient for a (1+eps)-faithful projection of n points:
    ceil(8 * eps^-2 * ln(max(n, 2)))."""
    if not 0 < eps < 1:
        raise BadParams(f"eps must lie in (0, 1), got {eps}")
    return math.ceil(8.0 * eps ** -2 * math.log(max(n, 2)))


@dataclass
class ProjectionInfo:
    in_dim: int
    out_dim: int
    scale: float            # post-scale applied after the Gaussian map
    tries: int              # total draws, 0 for the identity path
    identity: bool
    max_ratio: float        # after post-scaling; 1.0 when certified
    min_ratio: float


def exact_reduce(x: np.ndarray) -> np.ndarray:
    """Rewrite rows of ``x`` in at most ``rank(x)`` coordinates, exactly.

    n points always fit isometrically in n-1 dimensions, so wide matrices
    (k >> n) built from block-diagonal assemblies carry mostly redundant
    columns. The Gram matrix x @ x.T is factored instead (``factor_gram``).
    Pairwise distances survive to float precision, which makes this safe
    ahead of any distance-based audit.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    return factor_gram(x @ x.T)


def jl_project(x: np.ndarray, eps: float, seed: int,
               out_dim: int | None = None) -> tuple[np.ndarray, ProjectionInfo]:
    """Project rows of ``x`` to ``out_dim`` coordinates, certified on x.

    Contract on the output rows y: for every pair,
    ``|x_i - x_j| / (1+eps) <= |y_i - y_j| <= |x_i - x_j|``. Default
    out_dim is min(x.shape[1], jl_dimension(eps, n)). If out_dim covers the
    source dimension the map is the identity (already exact), and a
    search that bumps the dimension up to the source's returns the
    identity too.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    n, k = x.shape
    if out_dim is None:
        out_dim = min(k, jl_dimension(eps, n))
    if out_dim <= 0 and k > 0:
        raise BadParams(f"out_dim must be positive, got {out_dim}")
    if out_dim >= k:
        return x.copy(), ProjectionInfo(k, k, 1.0, 0, True, 1.0, 1.0)
    iu, ju = np.triu_indices(n, k=1)
    src = np.linalg.norm(x[iu] - x[ju], axis=1)
    live = src > 0
    floor = 1.0 / (1.0 + eps)
    ss = np.random.SeedSequence(entropy=(int(seed), 0x11))
    tries = 0
    dim = out_dim
    while dim < k:
        for _ in range(MAX_TRIES):
            rng = np.random.default_rng(ss.spawn(1)[0])
            g = rng.standard_normal((k, dim)) / math.sqrt(dim)
            y = x @ g
            tries += 1
            dst = np.linalg.norm(y[iu] - y[ju], axis=1)
            if not live.any():
                return y, ProjectionInfo(k, dim, 1.0, tries, False, 1.0, 1.0)
            ratio = dst[live] / src[live]
            hi = float(ratio.max())
            if hi <= 0:
                continue
            lo = float(ratio.min()) / hi
            if lo >= floor:
                return y / hi, ProjectionInfo(k, dim, 1.0 / hi, tries, False,
                                              1.0, lo)
        dim = min(k, math.ceil(dim * BUMP) if math.ceil(dim * BUMP) > dim
                  else dim + 1)
    # fell through to full dimension: identity is exact
    return x.copy(), ProjectionInfo(k, k, 1.0, tries, True, 1.0, 1.0)
