"""The benchmark's named workloads.

Every workload embeds generated point sets with eps = 0.1 and
alpha = 0.5.  The seed of each input goes to ``generate`` and to
``build_snowflake``; the ``line`` and ``ultrametric`` generators have no
randomness, so on those workloads the seed moves only the build.  Why each
workload is in the set is written in BENCHMARK.json and bench/README.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field

EPS = 0.1
ALPHA = 0.5


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                      # generator kind passed to snowdim.generate
    norm: str                      # "l1", "l2" or "linf"
    params: dict = field(default_factory=dict)
    inputs: int = 1                # distinct inputs a run cycles through

    def input_seed(self, seed: int, j: int) -> int:
        """Seed of a run's j-th input, for ``generate`` and the build."""
        return seed * self.inputs + j

    @property
    def labels(self) -> bool:
        """Distance labels exist for l2 embeddings only."""
        return self.norm == "l2"


WORKLOADS = {w.name: w for w in (
    Workload("l2-subspace200", "subspace", "l2",
             {"n": 200, "ambient_dim": 50, "intrinsic_dim": 3}),
    Workload("l2-ultra128", "ultrametric", "l2", {"depth": 7}),
    # n = 32 is deliberate: the audit's pairwise l-infinity kernel grows
    # with n^2 * k, and a 60-point ball peaks at about 6.4 GB.  The build
    # time of one ball differs by up to 20% from seed to seed, so a run
    # cycles through five balls and reports medians over them
    Workload("linf-ball32", "ball", "linf", {"n": 32, "dim": 4}, inputs=5),
    # 10 points stay under the cut LP's 14-point cluster cap.  The line
    # itself is fixed, but the seed moves the build, and the audit time of
    # one build differs by up to a third from seed to seed, so a run
    # cycles through three builds and reports medians over them
    Workload("l1-line10", "line", "l1", {"n": 10}, inputs=3),
    # not in BENCHMARK.json: a seconds-long input for the self-tests
    Workload("smoke-grid4", "grid", "l2", {"side": 4}),
)}
