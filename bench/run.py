"""snowdim benchmark: time to an audited snowflake embedding.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each workload runs in a fresh worker
process (bench/worker.py) so its peak RSS is its own; set-up is timed in
SETUP_REPEATS further fresh processes.  Every process gets one BLAS thread.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The lines before it give each metric with its sample
count, the plain wall-clock times, the label and query figures, and the
output digests.  End-to-end times are calibrated seconds: wall time
corrected for the host's speed while it was measured (bench/calibrate.py).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
#: the whole run, set-up processes included, ends within this many seconds
DEADLINE_S = 170.0
#: BLAS threads per process, fixed below the 2 cores of the reference box
#: and reported with every run
BLAS_THREADS = "1"


def _child(args: list[str], deadline: float) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS,
               OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS,
               PYTHONHASHSEED="0")
    done = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          stdout=subprocess.PIPE, text=True, env=env,
                          timeout=max(1.0, deadline - time.monotonic()),
                          check=True)
    return json.loads(done.stdout.splitlines()[-1])


def high_percentile(samples: list[float]) -> str:
    """The highest percentile with at least ten samples above it."""
    n = len(samples)
    if n < 20:
        return f"n={n}, no percentile above the median has 10 samples beyond it"
    q = math.floor(100 * (n - 10) / n)
    return f"n={n}, p{q}={statistics.quantiles(samples, n=100)[q - 1]:.6g}"


def end_to_end(setup: list[dict], result: dict) -> dict[str, list[float]]:
    ok = [r for r in result["iterations"] if "solve_s" in r]
    if not ok:
        raise RuntimeError("no build of this run finished")
    samples = {key: [s[key] for s in setup]
               for key in ("setup_s", "setup_wall_s")}
    samples["peak_rss_mb"] = [result["peak_rss_mb"]]
    for key in ("build_s", "audit_s", "solve_s", "build_wall_s",
                "audit_wall_s", "solve_wall_s", "k_out", "band_width",
                "label_s", "query_per_s", "label_bytes"):
        values = [r[key] for r in ok if key in r]
        if values:
            samples[key] = values
    return samples


def _print_iterations(result: dict) -> None:
    print(f"blas_threads={result['blas_threads']} "
          f"peak_rss_mb={result['peak_rss_mb']:.1f}")
    for it, rec in enumerate(result["iterations"]):
        flags = " traced" if rec.get("traced") else ""
        print(f"iteration {it}{flags} input {rec['input']}: "
              f"attempted={rec['attempted']} "
              f"failed={rec['failed']} dump_sha256={rec.get('dump_sha256')} "
              f"labels_sha256={rec.get('labels_sha256')}")
        for problem in rec["problems"]:
            print(f"  problem: {problem}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "snowdim" / "__init__.py").is_file():
        print(f"no snowdim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{args.workload}-seed{args.seed}.tsv"

    setup = [] if args.trace else [
        _child(["setup", args.workload, str(args.seed)], deadline)
        for _ in range(SETUP_REPEATS)]
    result = _child(["run", args.workload, str(args.seed), str(args.seconds),
                     str(args.trace), str(spans)], deadline)
    _print_iterations(result)
    attempted = sum(r["attempted"] for r in result["iterations"])
    failed = sum(r["failed"] for r in result["iterations"])
    print(f"failed_frac={failed / attempted:.6g} ({failed}/{attempted})")

    if args.trace:
        layers = result["layers"]
        values = {name: statistics.median(d[name] for d in layers)
                  for name in layers[0]}
        untraced = result["iterations"][0].get("solve_wall_s")
        traced = [r["solve_wall_s"] for r in result["iterations"][1:]
                  if "solve_wall_s" in r]
        values["trace.overhead_ratio"] = (
            statistics.median(traced) / untraced if untraced and traced
            else 0.0)
        for name in sorted(values):
            print(f"{name} = {values[name]:.6g}")
        print(f"spans written to {spans.relative_to(ROOT)}")
    else:
        samples = end_to_end(setup, result)
        values = {k: statistics.median(v) for k, v in samples.items()}
        for name in sorted(samples):
            print(f"{name} = {values[name]:.6g} "
                  f"({high_percentile(samples[name])})")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
