"""Self-tests of the benchmark harness.

    python -m pytest -q bench/test_bench.py

They use the smoke-grid4 workload (16 points), so the whole file runs in
well under a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(HERE))

import snowdim  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
from workloads import ALPHA, EPS, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def smoke_snowflake():
    w = WORKLOADS["smoke-grid4"]
    s = snowdim.normalize(snowdim.generate(w.kind, seed=0, norm=w.norm,
                                           **w.params))
    e = snowdim.build_snowflake(s, ALPHA, EPS, seed=0)
    return s, e, snowdim.distortion_audit(e)


def test_benchmark_json_names_known_workloads():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    for w in SPEC["workloads"]:
        assert w["name"] in WORKLOADS
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"),
                                           ("1", "per_layer")])
def test_smoke_run_emits_every_metric(trace, section):
    done = _bench("--workload", "smoke-grid4", "--seed", "3", "--seconds",
                  "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
        if section == "end_to_end":
            assert m["value"] > 0, name


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _bench("--workload", "smoke-grid4", "--seed", "0", "--seconds",
                  "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_oracle_accepts_the_embedding_and_flags_corruption(smoke_snowflake):
    s, e, rep = smoke_snowflake
    src = oracle.source_distances(s.points, "l2")
    band, problems = oracle.embedding_problems(
        src, e.coords, "l2", ALPHA, EPS, rep.passed, rep.extras["band_width"])
    assert problems == []
    assert band == pytest.approx(rep.extras["band_width"], rel=1e-9)

    bad = e.coords.copy()
    bad[-1] += 10.0 * np.abs(bad).max()    # one point pushed far away
    band_bad, problems = oracle.embedding_problems(
        src, bad, "l2", ALPHA, EPS, rep.passed, rep.extras["band_width"])
    assert band_bad > oracle.band_limit(EPS)
    assert any("exceeds" in p for p in problems)
    assert any("audit band" in p for p in problems)


def test_oracle_flags_corrupted_label_estimates(smoke_snowflake):
    s, e, _ = smoke_snowflake
    ls = snowdim.dls_build(e, EPS)
    src = oracle.source_distances(s.points, "l2")
    est = np.array([snowdim.dls_query(ls.label(i), ls.label(j))[0]
                    for i in range(s.n) for j in range(i + 1, s.n)])
    assert oracle.label_misses(src, est, ls.header.k, ls.header.q,
                               ALPHA, EPS) == 0
    est[:5] *= 2.0
    assert oracle.label_misses(src, est, ls.header.k, ls.header.q,
                               ALPHA, EPS) == 5


def _function_attrs():
    return {(name, attr): obj
            for name, mod in sys.modules.items()
            if name == "snowdim" or name.startswith("snowdim.")
            for attr, obj in vars(mod).items() if callable(obj)}


def test_tracer_wraps_caller_attributes_and_restores_them():
    before = _function_attrs()
    original = snowdim.single_scale.build_decomposition
    tracer = tracing.Tracer()
    with tracer:
        wrapped = snowdim.single_scale.build_decomposition
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert snowdim.decomposition.build_decomposition is wrapped
        assert "cli.main" not in tracer.names
        snowdim.gaussian_transform(np.array([1.0]), 2.0)
    assert _function_attrs() == before
    assert [sp[0] for sp in tracer.spans] == ["transforms.gaussian_transform"]


def test_layer_metrics_self_time_and_ratios():
    names = ["snowflake.build_snowflake", "single_scale.build_single_scale",
             "decomposition.build_decomposition", "labeling.dls_query",
             "projection.jl_project"]
    spans = [
        ("snowflake.build_snowflake", 0, 100, -1, 1),
        ("single_scale.build_single_scale", 10, 60, 0, 1),
        ("decomposition.build_decomposition", 20, 30, 1, 1),
        ("single_scale.build_single_scale", 60, 90, 0, 1),
        ("labeling.dls_query", 200, 210, -1, 1),
        ("snowflake.build_snowflake", 0, 7, -1, 2),    # another iteration
    ]
    counts = {"decomposition.attempts": 2.0, "single_scale.scales": 2.0,
              "single_scale.empty_scales": 1.0}
    m = tracing.layer_metrics(spans, names, counts, 1)
    assert m["snowflake.build_snowflake.s"] == pytest.approx(100e-9)
    assert m["snowflake.self_s"] == pytest.approx(20e-9)
    assert m["single_scale.self_s"] == pytest.approx(70e-9)
    assert m["single_scale.build_single_scale.calls"] == 2
    assert m["decomposition.first_try_ratio"] == 0.5
    assert m["single_scale.useful_scale_ratio"] == 0.5
    assert m["projection.jl_identity_ratio"] == 0.0
    assert m["labeling.queries"] == 1
    assert m["extension.iters"] == 0.0
