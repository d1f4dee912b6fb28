"""
Snowflake embedding: d^alpha in one shot
========================================

build_snowflake stacks single-scale maps over a geometric ladder of
scales (1+eps)^i. In l2 it takes their direct sum, the classical MDS of
the summed squared per-scale distances, written exactly in at most
n - 1 columns; l1 takes the direct sum too, one column per distinct cut
of the scales. The result tracks d^alpha for every pair
at once: the band max/min of ||Phi(x)-Phi(y)|| / d^alpha stays under
1 + 16*eps. The reported theory dimension is still the paper's grouped
count p * k_scale. distortion_audit re-measures the band and the
per-scale mass bookkeeping behind it.
"""

from snowdim import build_snowflake, distortion_audit, generate, normalize

s = normalize(generate("grid", side=8))
eps = 0.1

for alpha in (0.5, 0.7):
    e = build_snowflake(s, alpha=alpha, eps=eps, seed=0)
    rep = distortion_audit(e)
    ex = rep.extras
    # the direct sum of the scales is written exactly in at most n - 1
    # columns; the theory count is the paper's grouped p * k_scale
    print(f"alpha={alpha}: scales={ex['scale_count']} p={e.plan.p} "
          f"k={ex['concrete_k']} (direct sum {ex['assembled_k']}, "
          f"grouped theory {ex['theory_k']})")
    print(f"  band width {ex['band_width']:.4f} "
          f"(must stay <= {ex['band_limit']:.1f}), passed={rep.passed}")
    # per-scale mass: at every pair the in-window scales dominate and the
    # out-of-window tail stays under its geometric budget
    print(f"  worst tail ratio {ex['max_tail_ratio']:.4f} (<= 1), "
          f"dominant-scale floor {ex['min_dominant_ratio']:.4f} "
          f"(>= {ex['dominant_floor']:.2f}) over "
          f"{ex['padded_dominant_pairs']} padded pairs")

# doubling the set at the same intrinsic structure must not move the
# reported target dimension: it depends on (eps, delta, dim_hat) only
a, b = (normalize(generate("line", n=n)) for n in (64, 128))
ka = build_snowflake(a, alpha=0.5, eps=eps, seed=0, dim_hat=1.0).theory_k
kb = build_snowflake(b, alpha=0.5, eps=eps, seed=0, dim_hat=1.0).theory_k
print(f"\ntarget dimension, 64-pt line vs 128-pt line: {ka} vs {kb} "
      f"(n-free: {ka == kb})")
