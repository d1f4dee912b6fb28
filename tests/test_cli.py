import argparse
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from snowdim import points, report, single_scale
from snowdim.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def gen_line(tmp_path, n=4, name="pts.csv"):
    path = tmp_path / name
    assert main(["gen", "line", "--n", str(n), "--out", str(path)]) == 0
    return str(path)


# --- gen / stats


def test_gen_csv_suffix_inference(tmp_path, capsys):
    path = gen_line(tmp_path, n=5)
    text = open(path).read()
    assert text.startswith("# norm=2 scale=1")
    s = points.load(path)
    assert s.n == 5 and s.dim == 1


def test_gen_json_stdout_deterministic(capsys):
    argv = ("gen", "ball", "--n", "6", "--dim", "3", "--seed", "7",
            "--format", "json")
    code, out1, _ = run(capsys, *argv)
    assert code == 0
    code, out2, _ = run(capsys, *argv)
    assert code == 0 and out1 == out2
    doc = json.loads(out1)
    assert len(doc["points"]) == 6
    assert len(doc["points"][0]) == 3


def test_unread_flags_are_refused(capsys):
    for argv in (("stats", "pts.csv", "--alpha", "0.3"),
                 ("cluster-demo", "pts.csv", "--format", "csv"),
                 ("embed-snowflake", "pts.csv", "--norm", "l1"),
                 ("embed-scale", "pts.csv", "--r", "2.0", "--alpha", "0.3"),
                 ("embed-snowflake", "pts.csv", "--delta", "0.01")):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert "unrecognized arguments" in err


def test_unknown_command_exits_1(capsys):
    for command in ("frobnicate", "audit-report"):
        code, _, err = run(capsys, command)
        assert code == 1
        assert "invalid choice" in err


def test_stats_reports_metric_facts(tmp_path, capsys):
    path = gen_line(tmp_path, n=4)
    code, out, _ = run(capsys, "stats", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 4
    assert doc["diameter"] == 3.0
    assert doc["min_distance"] == 1.0
    assert doc["doubling_dim_hat"] >= 1.0


@pytest.mark.parametrize("text", [
    "# norm\n0,1\n",
    "# norm=2 scale=1\n0,abc\n",
    "# norm=2 scale=1\n0,1\n2\n",
    '{"norm": "2", "points": [[0], [1]',
    '{"norm": "2", "points": [[0, "x"]]}',
    '{"norm": "2", "scale": "abc", "points": [[0], [1]]}',
], ids=["header", "cell", "ragged", "json", "json-cell", "json-scale"])
def test_stats_refuses_a_malformed_file_without_traceback(tmp_path, capsys,
                                                          text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    code, out, err = run(capsys, "stats", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("snowdim: error: ")
    assert "Traceback" not in err


def test_stats_refuses_coincident_points(tmp_path):
    # the doubling estimate doubles its radius from twice the minimum
    # distance; at 0 it never grew. In its own interpreter, so a hang
    # fails at the timeout instead of stopping the suite
    path = tmp_path / "twice.csv"
    path.write_text("# norm=2 scale=1\n0,0\n0,0\n1,0\n")
    src = str(Path(points.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "snowdim.cli", "stats", str(path)],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([src] + sys.path)))
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr == ("snowdim: error: coincident points: minimum "
                           "distance is zero\n")


@pytest.mark.parametrize("argv", [
    ("gen", "line", "--n", "4", "--seed", "-1"),
    ("embed-snowflake", "{path}", "--seed", "-1"),
    ("dls", "build", "{path}", "{labels}", "--seed", "-1"),
    ("embed-snowflake", "{path}", "--dim-hat", "inf"),
    ("embed-snowflake", "{path}", "--dim-hat", "nan"),
    ("embed-snowflake", "{path}", "--dim-hat", "-1"),
], ids=["gen-seed", "snowflake-seed", "dls-seed", "dim-hat-inf",
        "dim-hat-nan", "dim-hat-negative"])
def test_a_negative_seed_or_a_bad_dim_hat_exits_1_without_traceback(
        tmp_path, capsys, argv):
    # argparse refuses a negative seed; --dim-hat is read as a plain
    # float, and build_snowflake refuses it outside [0, inf)
    path = gen_line(tmp_path)
    capsys.readouterr()
    argv = [a.format(path=path, labels=tmp_path / "lab.bin") for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert "Traceback" not in err
    if "--dim-hat" in argv:
        assert err == (f"snowdim: error: dim_hat must lie in [0, inf), got "
                       f"{float(argv[-1])}\n")
    else:
        assert "error: argument" in err


def test_a_dim_hat_of_0_builds_the_two_point_line(tmp_path, capsys):
    # stats reports doubling_dim_hat 0 for two points, and the snowflake
    # command takes that estimate back
    path = gen_line(tmp_path, n=2)
    capsys.readouterr()
    code, out, _ = run(capsys, "stats", str(path))
    assert code == 0 and json.loads(out)["doubling_dim_hat"] == 0.0
    code, out, err = run(capsys, "embed-snowflake", str(path),
                         "--dim-hat", "0")
    assert code == 0 and err == ""


# --- embeddings


def test_embed_scale_csv_with_json_sidecar(tmp_path, capsys):
    path = gen_line(tmp_path)
    out_csv = tmp_path / "rep.csv"
    code, _, _ = run(capsys, "embed-scale", path, "--r", "2.0",
                     "--out", str(out_csv))
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "pair_i,pair_j,source_dist,image_dist,ratio,window_flag"
    assert len(lines) == 1 + 4 * 3 // 2
    side = json.loads((tmp_path / "rep.json").read_text())
    assert side["passed"] is True
    assert side["reference"] == "G_r"


def test_embed_scale_rejects_bad_eps(tmp_path, capsys):
    # the range check is the library's: SingleScaleParams raises BadParams
    path = gen_line(tmp_path)
    code, _, err = run(capsys, "embed-scale", path, "--r", "2.0",
                       "--eps", "0.5")
    assert code == 1
    assert "eps" in err


@pytest.mark.parametrize("norm", ["l1", "l2", "linf"])
def test_embed_scale_refuses_an_infinite_scale(tmp_path, capsys, norm):
    # r = inf used to end in numpy's LinAlgError (l2), an empty audit
    # (l1) or NaN coordinates that passed (l-infinity)
    path = tmp_path / "ball.csv"
    assert main(["gen", "ball", "--n", "8", "--dim", "2", "--norm", norm,
                 "--out", str(path)]) == 0
    capsys.readouterr()
    code, out, err = run(capsys, "embed-scale", str(path), "--r", "inf")
    assert code == 1 and out == ""
    assert err == "snowdim: error: r must be positive and finite, got inf\n"


def test_embed_scale_exit_2_on_violation(tmp_path, capsys, monkeypatch):
    path = gen_line(tmp_path)

    def broken_audit(e):
        return report.from_pairs("G_r", [0], [1], [1.0], [9.0],
                                 bounds=(0.5, 2.0))

    monkeypatch.setattr(single_scale, "contract_audit", broken_audit)
    code, out, _ = run(capsys, "embed-scale", path, "--r", "2.0")
    assert code == 2
    assert json.loads(out)["passed"] is False


def test_embed_snowflake_report_and_dump(tmp_path, capsys):
    path = gen_line(tmp_path)
    dump = tmp_path / "emb.bin"
    out_json = tmp_path / "rep.json"
    code, _, _ = run(capsys, "embed-snowflake", path, "--out", str(out_json),
                     "--dump", str(dump))
    assert code == 0
    doc = json.loads(out_json.read_text())
    assert doc["reference"] == "d^alpha"
    assert doc["passed"] is True
    assert doc["extras"]["band_width"] <= 1 + 16 * 0.1
    first = dump.read_bytes()
    # identical command + seed: byte-identical artifacts
    code, _, _ = run(capsys, "embed-snowflake", path, "--out", str(out_json),
                     "--dump", str(dump))
    assert code == 0
    assert dump.read_bytes() == first


def test_embed_snowflake_targets_the_input_norm(tmp_path, capsys):
    path = str(tmp_path / "ball.csv")
    assert main(["gen", "ball", "--n", "8", "--dim", "2", "--norm", "linf",
                 "--out", path]) == 0
    code, out, _ = run(capsys, "embed-snowflake", path)
    assert code == 0
    assert '"passed":true' in out


def test_audit_report_single_scale_stdout_csv(tmp_path, capsys):
    path = gen_line(tmp_path)
    code, out, _ = run(capsys, "embed-scale", path, "--r", "2.0",
                       "--format", "csv")
    assert code == 0
    assert out.splitlines()[0].startswith("pair_i,pair_j,")


# --- labels


def test_dls_build_query_cycle(tmp_path, capsys):
    path = gen_line(tmp_path)
    labels = str(tmp_path / "lab.bin")
    code, out, _ = run(capsys, "dls", "build", path, labels)
    assert code == 0
    info = json.loads(out)
    assert info["n"] == 4
    assert info["label_bits"] <= 2 * info["label_bits_reference"]

    code, out, _ = run(capsys, "dls", "query", labels, "0", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["snowflaked_estimate"] == pytest.approx(math.sqrt(3.0),
                                                       rel=0.05)
    assert doc["original_estimate"] == pytest.approx(3.0, rel=0.1)

    code, out, _ = run(capsys, "dls", "query", labels, "2", "2")
    assert json.loads(out)["original_estimate"] == 0.0

    code, _, err = run(capsys, "dls", "query", labels, "0", "99")
    assert code == 1
    assert "99" in err


# --- clustering demo


def test_cluster_demo_deterministic(tmp_path, capsys):
    path = gen_line(tmp_path, n=6)
    code, out1, _ = run(capsys, "cluster-demo", path, "--clusters", "2",
                        "--seed", "5")
    assert code == 0
    code, out2, _ = run(capsys, "cluster-demo", path, "--clusters", "2",
                        "--seed", "5")
    assert out1 == out2
    doc = json.loads(out1)
    assert len(doc["centers"]) == 2
    assert len(set(doc["assignment"])) <= 2
    assert doc["image_radius"] > 0


# --- the parser


class ReadRecorder(argparse.Namespace):
    """Namespace that, once ``reads`` is set, records every attribute read."""

    reads = None

    def __getattribute__(self, name):
        reads = object.__getattribute__(self, "reads")
        if reads is not None:
            reads.add(name)
        return object.__getattribute__(self, name)


def leaf_parsers(parser, path=()):
    subs = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
        return
    for name, child in subs[0].choices.items():
        yield from leaf_parsers(child, path + (name,))


def test_every_accepted_option_is_read(tmp_path, capsys):
    path = gen_line(tmp_path)
    labels = str(tmp_path / "lab.bin")
    runs = {
        ("gen",): [["gen", "line", "--n", "4"]],
        ("stats",): [["stats", path]],
        ("embed-scale",): [["embed-scale", path, "--r", "2.0"]],
        ("embed-snowflake",): [["embed-snowflake", path]],
        ("dls", "build"): [["dls", "build", path, labels]],
        ("dls", "query"): [["dls", "query", labels, "0", "3"]],
        ("cluster-demo",): [["cluster-demo", path]],
    }
    parser = build_parser()
    leaves = dict(leaf_parsers(parser))
    assert set(leaves) == set(runs)
    for key, argvs in runs.items():
        read = set()
        for argv in argvs:
            args = parser.parse_args(argv, namespace=ReadRecorder())
            args.reads = read
            assert args.func(args) == 0
        capsys.readouterr()
        dests = {a.dest for a in leaves[key]._actions
                 if a.option_strings and a.dest != "help"}
        assert dests <= read, (key, dests - read)


def test_the_readme_command_table_matches_the_parser():
    # each `| Subcommand | Flags |` row: the lower-case words of the
    # subcommand cell are its path, its --flag tokens the leaf's options
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| Subcommand | Flags |\n|---|---|\n", 1)[1]
    rows = {}
    for line in table.splitlines():
        if not line.startswith("|"):
            break
        command, flags = line.strip("|").split("|", 1)
        path = tuple(re.findall(r"\b[a-z][a-z-]*\b", command))
        rows[path] = set(re.findall(r"--[a-z][a-z-]*", flags))
    leaves = dict(leaf_parsers(build_parser()))
    assert set(rows) == set(leaves)
    for path, leaf in leaves.items():
        options = {o for a in leaf._actions for o in a.option_strings
                   if a.dest != "help"}
        assert rows[path] == options, path
