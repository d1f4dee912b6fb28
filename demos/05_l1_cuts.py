"""
l1 path: cut metrics instead of Gram matrices
=============================================

An l1 metric on a handful of points is exactly a weighted sum of cut
pseudometrics, and there are two ways to find the weights. When the
source metric is a line, L_r of it is circular decomposable in the line
order, and circular_cuts writes the arc weights in closed form
(Chepoi-Fichet). Any other metric goes to cut_decomposition, a linear
program over all 2^(n-1) - 1 cuts, capped at 14 points. The single-scale
l1 build picks the route per decomposition cluster, merges the cut
coordinates along shared net points, and keeps the map 1-Lipschitz with
net pairs exact.
"""

import numpy as np

from snowdim import SingleScaleParams, build_single_scale, contract_audit, \
    cut_decomposition, generate, laplace_transform, normalize
from snowdim.transforms import circular_cuts, line_order


def rebuild(cuts, n):
    out = np.zeros((n, n))
    for c in cuts:
        side = np.array([i in c.members for i in range(n)])
        out += c.weight * (side[:, None] != side[None, :])
    return out


# a 10-point line under l1, distances saturated at r by L_r
s = normalize(generate("line", n=10, norm="l1"))
r = 2.0
d = s.distance_matrix()
lr = np.asarray(laplace_transform(d, r))

arcs = circular_cuts(lr, line_order(d))
lp = cut_decomposition(lr)
for name, cuts in (("closed-form arc", arcs), ("LP", lp)):
    print(f"{len(cuts)} {name} cuts reconstruct L_r of the line metric; "
          f"max error {np.abs(rebuild(cuts, s.n) - lr).max():.2e}")

# a 2-d l1 set is no line: its clusters go to the LP
print(f"line order of a 3x3 grid: "
      f"{line_order(generate('grid', side=3, dims=2, norm='l1').distance_matrix())}")

# the full l1 build: cluster, decompose into cuts, merge on net traces
e = build_single_scale(s, SingleScaleParams(r=r, eps=0.1, delta=0.1,
                                            norm=1.0, seed=0))
rep = contract_audit(e)
img = e.image_distance_matrix()
net = e.net.members
print(f"build: k={e.k} coordinates, {len(e.clusters)} distinct clusters, "
      f"audit passed={rep.passed}")
print(f"max Lipschitz ratio {rep.extras['max_lipschitz']:.6f} (<= 1)")

# net pairs are hit exactly (after the fixed rescale is divided out)
isub = img[np.ix_(net, net)] / e.rescale
tsub = lr[np.ix_(net, net)]
print(f"net-pair gap to L_r: {np.abs(isub - tsub).max():.2e} "
      f"over {len(net)} net points")
