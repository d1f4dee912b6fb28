"""
Distance transforms, Gram realization, random projection
========================================================

The three saturating transforms behind every embedding here, plus the
two coordinate engines: exact Gram realization (a transformed l2 metric
is again l2; the l2 builds factor the same kind of Gram, summed over
their clusters in closed form), and a certified random projection, a
standalone utility that no build calls: every l2 output is factored
exactly in at most n columns.
"""

import numpy as np

from snowdim import euclidean_realization, gaussian_transform, generate, \
    jl_dimension, jl_project, laplace_transform, threshold_transform

t = np.logspace(-3, 3, 7)
r = 2.0
print("t          ", " ".join(f"{v:9.4f}" for v in t))
print("G_r(t)     ", " ".join(f"{v:9.4f}" for v in gaussian_transform(t, r)))
print("L_r(t)     ", " ".join(f"{v:9.4f}" for v in laplace_transform(t, r)))
print("T_r(t)     ", " ".join(f"{v:9.4f}" for v in threshold_transform(t, r)))

# L_r is G squared in disguise: L_r(t) = r * G_1(sqrt(t/r))^2
lhs = laplace_transform(t, r)
rhs = r * np.asarray(gaussian_transform(np.sqrt(t / r), 1.0)) ** 2
print(f"\nL_r(t) = r*G_1(sqrt(t/r))^2, max gap {np.abs(lhs - rhs).max():.2e}")

# G_r of an l2 metric is realizable as an l2 metric, exactly
pts = np.random.default_rng(5).normal(size=(30, 6))
d = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1))
g = np.asarray(gaussian_transform(d, r))
np.fill_diagonal(g, 0.0)
y = euclidean_realization(g)
d2 = np.sqrt(((y[:, None] - y[None, :]) ** 2).sum(-1))
off = ~np.eye(30, dtype=bool)
print(f"realized G_r metric in {y.shape[1]} coordinates, "
      f"max rel error {(np.abs(d2 - g)[off] / g[off]).max():.2e}")

# random projection with a post-hoc certificate: ratios land in
# [1/(1+eps), 1] or the draw is rejected and redrawn
eps = 0.5
wide = np.random.default_rng(6).normal(size=(30, 400))
z, info = jl_project(wide, eps, seed=0)
dw = np.sqrt(((wide[:, None] - wide[None, :]) ** 2).sum(-1))
dz = np.sqrt(((z[:, None] - z[None, :]) ** 2).sum(-1))
ratio = dz[off] / dw[off]
print(f"projected 400 -> {z.shape[1]} dims "
      f"(bound for 30 points: {jl_dimension(eps, 30)}): "
      f"ratios in [{ratio.min():.4f}, {ratio.max():.4f}], "
      f"floor {1 / (1 + eps):.4f}, draws {info.tries}")
