import argparse
import json
import math

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
                 ("embed-snowflake", "pts.csv", "--norm", "l1")):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert "unrecognized arguments" in err


def test_unknown_command_exits_1(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1
    assert "error" in err


def test_stats_reports_metric_facts(tmp_path, capsys):
    path = gen_line(tmp_path, n=4)
    code, out, _ = run(capsys, "stats", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 4
    assert doc["diameter"] == 3.0
    assert doc["min_distance"] == 1.0
    assert doc["doubling_dim_hat"] >= 1.0


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
    code, out, _ = run(capsys, "audit-report", path, "--r", "2.0",
                       "--format", "csv")
    assert code == 0
    assert out.splitlines()[0].startswith("pair_i,pair_j,")


def test_audit_report_is_embed_shorthand(tmp_path, capsys):
    path = gen_line(tmp_path)
    for extra, command in ((("--r", "2.0"), "embed-scale"),
                           ((), "embed-snowflake")):
        short = run(capsys, "audit-report", path, *extra)
        full = run(capsys, command, path, *extra)
        assert short == full
        assert short[0] == 0 and '"passed":true' in short[1]


def test_audit_report_refuses_the_flag_its_audit_does_not_read(tmp_path,
                                                               capsys):
    path = gen_line(tmp_path)
    for extra, flag in ((("--r", "2.0", "--alpha", "0.3"), "--alpha"),
                        (("--r", "2.0", "--alpha", "0.5"), "--alpha"),
                        (("--delta", "0.01"), "--delta")):
        code, out, err = run(capsys, "audit-report", path, *extra)
        assert code == 1 and out == ""
        assert flag in err
    code, out, _ = run(capsys, "audit-report", path, "--alpha", "0.3")
    assert code == 0 and '"alpha":0.3' in out.replace(" ", "")


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
        ("audit-report",): [["audit-report", path, "--r", "2.0"],
                            ["audit-report", path]],
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
