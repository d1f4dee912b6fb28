"""One benchmark process, started by bench/run.py.

    python3 bench/worker.py setup WORKLOAD SEED
    python3 bench/worker.py run WORKLOAD SEED SECONDS TRACE SPANS_PATH

``setup`` times importing snowdim plus ``generate`` and ``normalize``.
``run`` runs the workload's closed loop over its inputs: one build at a time, each
followed by its audit, the report, the dump and (for l2) the label round
trip and every pair query, all checked by bench/oracle.py.  With TRACE 1
the first iteration runs untraced and the rest run under the tracer.
Either mode prints one JSON object as its last line of standard output.
Times ending in ``_s`` are calibrated (bench/calibrate.py); the same
times ending in ``_wall_s`` are plain wall-clock seconds.  numpy and
snowdim are imported inside the functions because ``setup`` times their
import.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

from calibrate import (SpeedProbe, build_kernel,  # noqa: E402
                       numpy_kernel, timed)
from workloads import ALPHA, EPS, WORKLOADS  # noqa: E402

#: untraced, distortion_audit runs at least AUDIT_MIN times per build and
#: until AUDIT_BUDGET_S seconds of audits have passed in each pass over the
#: workload's inputs; audit_s is their median.  One audit takes 0.01-0.5 s,
#: too short to time once.
AUDIT_MIN = 3
AUDIT_BUDGET_S = 2.5


def setup(w, seed: int) -> dict:
    with SpeedProbe() as probe:
        t0 = time.perf_counter()
        import snowdim
        snowdim.normalize(snowdim.generate(w.kind, seed=w.input_seed(seed, 0),
                                           norm=w.norm, **w.params))
        wall = time.perf_counter() - t0
    return {"setup_s": probe.calibrated(wall), "setup_wall_s": wall}


def _sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def _labels(sd, e, src, rec: dict) -> None:
    """Label round trip and every pair query, checked against the oracle."""
    import numpy as np

    import oracle

    n = e.n
    t0 = time.perf_counter()
    blob = sd.dumps_labels(sd.dls_build(e, EPS))
    ls = sd.loads_labels(blob)
    t1 = time.perf_counter()
    labels = [ls.label(i) for i in range(n)]
    est = np.empty(n * (n - 1) // 2)
    p = 0
    t2 = time.perf_counter()
    for i in range(n):
        a = labels[i]
        for j in range(i + 1, n):
            est[p] = sd.dls_query(a, labels[j])[0]
            p += 1
    t3 = time.perf_counter()
    rec.update(label_s=t1 - t0, query_per_s=p / (t3 - t2),
               label_bytes=len(blob), labels_sha256=_sha256(blob))
    misses = oracle.label_misses(src, est, ls.header.k, ls.header.q,
                                 ALPHA, EPS)
    if misses:
        rec["problems"].append(f"{misses} label queries outside the band")
    rec["failed"] += misses


def iteration(sd, w, s, seed: int, src, audit_min: int,
              audit_budget_s: float) -> dict:
    """One closed-loop step; every failure is counted, none is raised."""
    import oracle

    n_pairs = len(src)
    rec = {"attempted": 1 + (n_pairs if w.labels else 0), "failed": 0,
           "problems": []}
    try:
        e, build_s, build_wall_s = timed(build_kernel,
                                         sd.build_snowflake, s, ALPHA, EPS,
                                         seed=seed, norm=s.norm)
        audits = []
        while (len(audits) < audit_min
               or sum(wall for _, wall in audits) < audit_budget_s):
            rep, *times = timed(numpy_kernel, sd.distortion_audit, e)
            audits.append(times)
        rep.dumps_json()
        dump = sd.snowflake.dumps(e)
    except Exception:  # a failed build or audit is a failed operation
        traceback.print_exc(file=sys.stderr)
        rec["failed"] = rec["attempted"]
        rec["problems"].append("build or audit raised")
        return rec
    audit_s, audit_wall_s = (statistics.median(col) for col in zip(*audits))
    rec.update(build_s=build_s, audit_s=audit_s, solve_s=build_s + audit_s,
               build_wall_s=build_wall_s, audit_wall_s=audit_wall_s,
               solve_wall_s=build_wall_s + audit_wall_s,
               k_out=e.k, dump_sha256=_sha256(dump))
    band, problems = oracle.embedding_problems(
        src, e.coords, w.norm, ALPHA, EPS, rep.passed,
        rep.extras["band_width"])
    rec["band_width"] = band
    if problems:
        rec["failed"] += 1
        rec["problems"] += problems
    if w.labels:
        try:
            _labels(sd, e, src, rec)
        except Exception:  # every query of a failed round trip fails
            traceback.print_exc(file=sys.stderr)
            rec["failed"] += n_pairs
            rec["problems"].append("label round trip raised")
    return rec


def run(w, seed: int, seconds: float, trace: bool, spans_path: str) -> dict:
    import snowdim as sd

    import oracle
    from tracing import Tracer

    # a traced run stays on its first input, so that its traced iterations
    # can be compared byte for byte with the untraced one
    inputs = []
    for j in range(1 if trace else w.inputs):
        s = sd.normalize(sd.generate(w.kind, seed=w.input_seed(seed, j),
                                     norm=w.norm, **w.params))
        inputs.append((w.input_seed(seed, j), s,
                       oracle.source_distances(s.points, w.norm)))
    tracer = Tracer() if trace else None
    records, durations = [], []
    start = time.perf_counter()
    while True:
        it = len(records)
        sub, s, src = inputs[it % len(inputs)]
        t0 = time.perf_counter()
        if tracer is not None and it > 0:
            tracer.iteration = it
            with tracer:
                rec = iteration(sd, w, s, sub, src, 1, 0.0)
        else:
            rec = iteration(sd, w, s, sub, src, AUDIT_MIN,
                            AUDIT_BUDGET_S / len(inputs))
        durations.append(time.perf_counter() - t0)
        rec["input"] = it % len(inputs)
        rec["traced"] = tracer is not None and it > 0
        records.append(rec)
        if it + 1 < len(inputs) or (tracer is not None and it == 0):
            continue    # one pass over every input; and one traced iteration
        left = seconds - (time.perf_counter() - start)
        if left < statistics.median(durations):
            break
    _check_repeats(records)
    out = {"blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
           "peak_rss_mb":
               resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "iterations": records}
    if tracer is not None:
        tracer.write(spans_path)
        out["layers"] = [tracer.layer_metrics(r) for r in range(1, len(records))]
    return out


def _check_repeats(records: list) -> None:
    """Reruns of one input must dump identical bytes within a run."""
    first: dict = {}
    for rec in records:
        for key in ("dump_sha256", "labels_sha256"):
            if key not in rec:
                continue
            digest = first.setdefault((rec["input"], key), rec[key])
            if rec[key] != digest:
                rec["failed"] += 1
                rec["problems"].append(f"{key} differs from the first run "
                                       "of this input")


def main(argv: list[str]) -> int:
    mode, name, seed = argv[0], argv[1], int(argv[2])
    w = WORKLOADS[name]
    if mode == "setup":
        out = setup(w, seed)
    else:
        out = run(w, seed, float(argv[3]), argv[4] == "1", argv[5])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
