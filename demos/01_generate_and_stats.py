"""
Point sets, doubling structure, and normalization
=================================================

Every pipeline in snowdim starts from a PointSet: an (n, d) float array
plus the norm its distances live in. This script generates each built-in
kind, prints the numbers the other demos lean on (diameter, min distance,
doubling estimate), and shows what normalize() does to the scale.
"""

import numpy as np

from snowdim import estimate_doubling, generate, greedy_net, normalize

# the five generators; all are deterministic in (kind, seed)
sets = {
    "line":       generate("line", n=32),
    "grid":       generate("grid", side=8),
    "ball":       generate("ball", n=100, dim=4, seed=7),
    "subspace":   generate("subspace", n=200, ambient_dim=50,
                           intrinsic_dim=3, seed=0),
    "ultrametric": generate("ultrametric", depth=7, base=2.0),
}

for name, s in sets.items():
    d = s.distance_matrix()
    iu, ju = np.triu_indices(s.n, k=1)
    pd = d[iu, ju]
    est = estimate_doubling(s)
    print(f"{name:11s} n={s.n:4d} dim={s.points.shape[1]:3d} "
          f"diam={pd.max():9.3f} min={pd.min():.4f} "
          f"doubling lambda~{est.lambda_hat} dim~{est.dim_hat:.2f}")

# normalize rescales so the closest pair sits at distance 1; the original
# scale is kept on the set so estimates can be mapped back
s = sets["ball"]
ns = normalize(s)
print(f"\nnormalize: scale={ns.scale:.4f} "
      f"min distance {ns.distance_matrix()[np.triu_indices(ns.n, k=1)].min():.6f}")

# greedy nets anchor the l1 and l-infinity cluster maps: centers are at
# least radius apart and every point has a center within radius
for radius in (1.0, 2.0, 4.0):
    net = greedy_net(ns, radius)
    print(f"net radius {radius}: {len(net.members)} centers")
