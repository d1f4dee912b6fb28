"""
l1 path: cut metrics instead of Gram matrices
=============================================

L_r of an l1 metric is exactly a weighted sum of cut pseudometrics, with
weights in closed form. Drop independent rate-1/r Poisson cuts on every
axis: two points share a cell with chance exp(-d/r), so L_r is r/2 times
the chance-weighted sum of the cuts of every box whose sides are
intervals of the sorted coordinate values. cut_decomposition writes those
cuts for any l1 point set. On a line (also a staircase or an
anti-diagonal in several coordinates) they are the arcs of Chepoi and
Fichet; off a line they are boxes. The single-scale l1 build cuts each
decomposition cluster, merges the cut coordinates along shared net
points, and keeps the map 1-Lipschitz with net pairs exact.
"""

import numpy as np

from snowdim import SingleScaleParams, build_single_scale, contract_audit, \
    cut_decomposition, generate, laplace_transform, normalize


def rebuild(weights, sides):
    out = np.zeros((sides.shape[1],) * 2)
    for w, side in zip(weights, sides):
        out += w * (side[:, None] != side[None, :])
    return out


r = 2.0
for name, s in (("10-point line", normalize(generate("line", n=10,
                                                     norm="l1"))),
                ("3x3 grid", normalize(generate("grid", side=3, dims=2,
                                                norm="l1")))):
    lr = np.asarray(laplace_transform(s.distance_matrix(), r))
    np.fill_diagonal(lr, 0.0)
    weights, sides = cut_decomposition(s.points, r)
    print(f"{name}: {len(weights)} box cuts reconstruct L_r; max error "
          f"{np.abs(rebuild(weights, sides) - lr).max():.2e}")

# the full l1 build: cluster, cut each cluster, merge on net traces
s = normalize(generate("line", n=10, norm="l1"))
lr = np.asarray(laplace_transform(s.distance_matrix(), r))
e = build_single_scale(s, SingleScaleParams(r=r, eps=0.1, delta=0.1, seed=0))
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
