"""
l-infinity path: threshold coordinates off net anchors
======================================================

Under the max norm the single-scale map writes one coordinate per net
anchor z: x maps to min(d(x, z), r), scaled by 1/(1+2*sqrt(delta)).
That map is 1-Lipschitz on every pair, exactly the threshold transform
T_r on net pairs, and inside the window (delta*r, r/sqrt(delta)) its
ratio to T_r stays above 1/((1+eps)(1+2*sqrt(delta))).
"""

import math

import numpy as np

from snowdim import SingleScaleParams, build_single_scale, contract_audit, \
    generate, normalize, threshold_transform

eps, delta = 0.2, 0.01          # the max-norm path wants delta <= eps^2/4
back = 1.0 + 2.0 * math.sqrt(delta)

s = normalize(generate("ball", n=100, dim=4, norm="linf", seed=1))
src = s.distance_matrix()
iu, ju = np.triu_indices(s.n, k=1)

for r in (20.0, 2500.0):
    e = build_single_scale(s, SingleScaleParams(r=r, eps=eps, delta=delta,
                                                seed=1))
    rep = contract_audit(e)
    img = e.image_distance_matrix()
    net = e.net.members
    lip = (img[iu, ju] / src[iu, ju]).max()
    gap = np.abs(img[np.ix_(net, net)] * back
                 - threshold_transform(src[np.ix_(net, net)], r)).max()
    print(f"r={r:6.0f}: net {len(net)}/{s.n} anchors, k={e.k}, "
          f"audit passed={rep.passed}")
    print(f"  max Lipschitz ratio {lip:.12f} (<= 1)")
    print(f"  net-pair gap to T_r {gap:.2e} (exact up to float)")
    print(f"  {rep.pair_count} window pairs, ratio to T_r in "
          f"[{rep.ratio_min:.4f}, {rep.ratio_max:.4f}] "
          f"(floor {1 / ((1 + eps) * back):.4f})")
