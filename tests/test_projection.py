"""Verified random projection: contract, identity path, determinism."""

import numpy as np
import pytest

from snowdim.errors import BadParams, NotEuclidean
from snowdim.projection import (exact_reduce, factor_gram, jl_dimension,
                                jl_project)


def test_jl_dimension_frozen():
    # ceil(8 * eps^-2 * ln(max(n, 2)))
    assert jl_dimension(0.3, 100) == 410
    assert jl_dimension(0.5, 30) == 109
    assert jl_dimension(0.2, 20) == 600
    assert jl_dimension(0.1, 1) == 555   # n clamps at 2
    with pytest.raises(BadParams):
        jl_dimension(0.0, 10)
    with pytest.raises(BadParams):
        jl_dimension(1.5, 10)


def test_identity_when_budget_covers_rank():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(20, 5))
    y, info = jl_project(x, eps=0.2, seed=1)
    assert info.identity
    assert info.out_dim == 5
    assert np.array_equal(y, x)


def test_projection_contract_and_shape():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(30, 200))
    eps = 0.5
    y, info = jl_project(x, eps=eps, seed=7)
    assert info.out_dim < 200
    assert not info.identity
    iu, ju = np.triu_indices(30, k=1)
    src = np.linalg.norm(x[iu] - x[ju], axis=1)
    dst = np.linalg.norm(y[iu] - y[ju], axis=1)
    ratio = dst / src
    assert ratio.max() <= 1.0 + 1e-9
    assert ratio.min() >= 1.0 / (1.0 + eps) - 1e-9


def test_projection_deterministic():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(25, 150))
    y1, i1 = jl_project(x, eps=0.5, seed=3)
    y2, i2 = jl_project(x, eps=0.5, seed=3)
    assert np.array_equal(y1, y2)
    assert i1.tries == i2.tries


def test_explicit_out_dim_identity_fallback():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(10, 6))
    y, info = jl_project(x, eps=0.1, seed=0, out_dim=6)
    assert info.identity
    y, info = jl_project(x, eps=0.1, seed=0, out_dim=9)
    assert info.identity and info.out_dim == 6


def test_degenerate_all_equal_points():
    x = np.ones((8, 40))
    y, info = jl_project(x, eps=0.3, seed=0, out_dim=5)
    assert y.shape == (8, 5)
    d = np.linalg.norm(y[:, None, :] - y[None, :, :], axis=2)
    assert np.allclose(d, 0.0)


def test_exact_reduce_preserves_distances():
    # 40 points scattered into a wide block layout: rank is at most 40
    rng = np.random.default_rng(7)
    x = np.zeros((40, 900))
    for i in range(40):
        lo = 20 * (i % 9)
        x[i, lo:lo + 20] = rng.normal(size=20)
    y = exact_reduce(x)
    assert y.shape[1] <= 40
    iu, ju = np.triu_indices(40, k=1)
    src = np.linalg.norm(x[iu] - x[ju], axis=1)
    dst = np.linalg.norm(y[iu] - y[ju], axis=1)
    assert np.allclose(dst, src, rtol=1e-9, atol=1e-12)


def test_exact_reduce_zero_input():
    y = exact_reduce(np.zeros((6, 50)))
    assert y.shape == (6, 0)


def test_factor_gram_rebuilds_a_psd_gram_and_refuses_an_indefinite_one():
    # positive coordinates keep every Gram entry far from zero, so a
    # relative tolerance applies to each entry
    rng = np.random.default_rng(3)
    x = rng.uniform(1.0, 2.0, size=(30, 12))
    gram = x @ x.T
    y = factor_gram(gram)
    assert y.shape == (30, 12)
    assert np.allclose(y @ y.T, gram, rtol=1e-12, atol=0.0)
    indefinite = gram - 0.01 * np.abs(gram).max() * np.eye(30)
    with pytest.raises(NotEuclidean):
        factor_gram(indefinite)
    # a one-point negative direction is no rounding noise either
    with pytest.raises(NotEuclidean):
        factor_gram(np.diag([1.0, 0.0, -1e-6]))
