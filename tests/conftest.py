"""Shared test settings and the l2 single-scale reference.

Every Hypothesis test runs derandomized and without a deadline: the same
examples on every run, and no flaky failures from slow examples. A test
sets only its own ``max_examples``.
"""

import math

import numpy as np
import pytest
from hypothesis import settings

from snowdim.transforms import euclidean_realization, gaussian_transform

settings.register_profile("snowdim", deadline=None, derandomize=True)
settings.load_profile("snowdim")


def l2_reference_coords(s, sc) -> np.ndarray:
    """The l2 map of one scale, realized cluster by cluster.

    ``sc`` is the scale's ``ScaleClusters`` or its built embedding. Each
    distinct cluster is realized from its Gaussian-transformed distances
    by ``euclidean_realization``, its first member moved to the origin,
    and scaled by its smoothing weights times sqrt(count / m) times the
    global rescale, in a column block of its own. This is the direct sum
    the library's one-Gram build factors, written out the long way."""
    p = sc.params
    rescale = 1.0 / (1.0 + p.rescale_c * p.eps)
    dmat = s.distance_matrix()
    blocks = []
    for c in sc.clusters:
        g = gaussian_transform(dmat[np.ix_(c.members, c.members)], p.r)
        x = euclidean_realization(g)
        coeff = math.sqrt(c.count / sc.m) * rescale
        blocks.append((c.members, (x - x[0]) * (c.weights[:, None] * coeff)))
    out = np.zeros((s.n, sum(b.shape[1] for _, b in blocks)))
    col = 0
    for members, b in blocks:
        out[members, col:col + b.shape[1]] = b
        col += b.shape[1]
    return out


@pytest.fixture
def l2_reference():
    return l2_reference_coords
