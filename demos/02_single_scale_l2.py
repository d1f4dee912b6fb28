"""
Single-scale l2 embedding and its contract audit
================================================

One scale r at a time: the map contracts every pair, never sends a point
past r(1+eps*delta), and inside the window (delta*r, r/delta) tracks the
saturating transform G_r(d) = r*sqrt(1 - exp(-d^2/r^2)) to within a fixed
band. contract_audit re-measures all of that from the coordinates, pair
by pair.
"""

import numpy as np

from snowdim import SingleScaleParams, build_single_scale, contract_audit, \
    generate, normalize

s = normalize(generate("subspace", n=200, ambient_dim=50, intrinsic_dim=3,
                       seed=0))
eps = delta = 0.1

# r inside the distance spectrum: the whole set fits in one decomposition
# cluster, so in-window pairs ride the transform exactly (up to the fixed
# 1/(1+40*eps) rescale the audit divides out)
e = build_single_scale(s, SingleScaleParams(r=2.0, eps=eps, delta=delta,
                                            seed=0))
rep = contract_audit(e)
ex = rep.extras
print(f"r=2: k={e.coords.shape[1]} audit passed={rep.passed} "
      f"in-window pairs={rep.pair_count}")
print(f"  max Lipschitz ratio {ex['max_lipschitz']:.6f} (contract: <= 1)")
print(f"  max image norm {ex['max_image_norm']:.6f} "
      f"(contract: <= {ex['norm_bound']:.4f})")
print(f"  window ratio to G_r in [{rep.ratio_min:.6f}, {rep.ratio_max:.6f}]"
      f" (floor {1 / (1 + 45 * eps):.4f})")

# r far below the diameter: the padded decomposition goes multi-cluster
# and the m shifted partition copies do real work; no pair lands in the
# (tiny) window, but every contract still has to hold
e2 = build_single_scale(s, SingleScaleParams(r=0.02, eps=eps, delta=delta,
                                             seed=0))
rep2 = contract_audit(e2)
sizes = [len(c.members) for c in e2.clusters]
print(f"\nr=0.02: {e2.m} partition copies, {len(e2.clusters)} distinct "
      f"clusters (largest {max(sizes)}), k={e2.k}")
print(f"  audit passed={rep2.passed} in-window pairs={rep2.pair_count}")
print(f"  max image norm {rep2.extras['max_image_norm']:.6f} "
      f"(contract: <= {rep2.extras['norm_bound']:.6f})")
print(f"  worst same-cluster (image - transform) gap: "
      f"{rep2.extras['same_cluster_excess']:.2e}  (<= 0 means exact)")
