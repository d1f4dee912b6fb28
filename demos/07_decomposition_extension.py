"""
Padded decompositions and Lipschitz extension
=============================================

build_decomposition carves the set into clusters of bounded diameter
with randomly shifted ball carving, the first stage of every scale;
padding_audit recomputes every invariant (cover, disjointness,
diameters, padded bits) from scratch. kirszbraun_extend, a standalone
utility that no build calls, takes a map defined on net points only and
extends it to everything, keeping the Lipschitz constant within a hair
of the net-only constant.
"""

import numpy as np

from snowdim import build_decomposition, generate, greedy_net, \
    kirszbraun_extend, lipschitz_constant, normalize, padding_audit

s = normalize(generate("subspace", n=200, ambient_dim=50, intrinsic_dim=3,
                       seed=0))
dmat = s.distance_matrix()

# clusters of diameter <= 4, padding radius 0.05: most points should sit
# 0.05-deep inside their cluster in most of the m copies
dec = build_decomposition(s, delta=4.0, pad_radius=0.05, eps_pad=0.2, seed=0)
audit = padding_audit(s, dec)
print(f"{dec.m} partition copies, "
      f"{np.count_nonzero(dec.sizes) * dec.copies} "
      f"clusters total, max diameter {audit.max_cluster_diameter:.3f} (<= 4)")
print(f"padded fraction: min {audit.min_fraction:.3f} "
      f"mean {audit.mean_fraction:.3f} (floor 0.8), "
      f"audit passed={audit.passed}")

# extension: map only the net somewhere, then extend to all points
net = greedy_net(s, 2.0)
rng = np.random.default_rng(0)
proj = rng.normal(size=(s.points.shape[1], 3)) / np.sqrt(3)
f_net = s.points[net.members] @ proj
dsub = dmat[np.ix_(net.members, net.members)]
lip_net = lipschitz_constant(dsub, f_net)
full, info = kirszbraun_extend(dmat, net.members, f_net, lip_net, tol=1e-6)
lip_all = lipschitz_constant(dmat, full)
print(f"\nnet {len(net.members)}/{s.n}: Lipschitz {lip_net:.6f} on the net, "
      f"{lip_all:.6f} after extension "
      f"(growth {max(lip_all / lip_net - 1, 0):.2e}, allowed 2e-06)")
print(f"extension sweeps {info.iters}, max residual {info.max_violation:.2e}")
