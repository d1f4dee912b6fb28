"""Command-line interface.

Subcommands cover the whole pipeline: generate synthetic sets, inspect
their metric statistics, build single-scale or snowflake embeddings with
their exhaustive audits (the per-pair reports with ``--format csv``),
build and query distance-label files, and run a greedy k-center demo in
the embedded space.
Embeddings target the norm recorded in the input file's header.

Exit codes: 0 on success, 2 when an audit finds pairs outside the declared
bounds, 1 on usage or runtime errors.  Identical command lines with the
same --seed produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import labeling, points, report, single_scale, snowflake
from .errors import BadParams, SnowdimError


# --- argument validation --------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; this CLI reserves 2 for audit
    violations, so usage errors exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _int_at_least(low: int):
    def integer(text: str) -> int:
        v = int(text)
        if v < low:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {low}, got {text}")
        return v
    return integer


# --- shared plumbing --------------------------------------------------------


def _write_text(text: str, out: str | None):
    if not text.endswith("\n"):
        text += "\n"
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _fmt(args) -> str:
    """--format wins; otherwise the --out suffix decides, defaulting to json."""
    if args.format:
        return args.format
    if args.out not in (None, "-"):
        suffix = Path(args.out).suffix.lower()
        if suffix == ".csv":
            return "csv"
    return "json"


def _emit_doc(doc: dict, out: str | None) -> None:
    """Key/value summary, always JSON."""
    _write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")), out)


def _emit_report(rep: report.DistortionReport, args) -> None:
    """Report emission: JSON summary, or per-pair CSV with the JSON summary
    written alongside when the CSV goes to a file."""
    if _fmt(args) == "csv":
        _write_text(rep.dumps_csv(), args.out)
        if args.out not in (None, "-"):
            side = Path(args.out).with_suffix(".json")
            side.write_text(rep.dumps_json(), encoding="utf-8")
    else:
        _write_text(rep.dumps_json(), args.out)


def _default_delta(eps: float, norm: float) -> float:
    # the l-infinity path needs delta <= eps^2/4; elsewhere eps^2 works
    return eps * eps / 4.0 if norm == np.inf else eps * eps


# --- subcommands ------------------------------------------------------------


def cmd_gen(args) -> int:
    params = {name: getattr(args, name)
              for name in ("n", "side", "dim", "dims", "ambient_dim",
                           "intrinsic_dim", "depth", "leaves", "noise", "base")
              if getattr(args, name) is not None}
    s = points.generate(args.kind, seed=args.seed, norm=args.norm, **params)
    text = points.dumps_csv(s) if _fmt(args) == "csv" else points.dumps_json(s)
    _write_text(text, args.out)
    return 0


def cmd_stats(args) -> int:
    s = points.load(args.input)
    est = points.estimate_doubling(s)
    dmin = s.min_distance()
    diam = s.diameter()
    _emit_doc({
        "n": s.n,
        "dim": s.dim,
        "norm": points.norm_label(s.norm),
        "scale": s.scale,
        "diameter": diam,
        "min_distance": dmin,
        "aspect_ratio": diam / dmin,
        "doubling_lambda_hat": est.lambda_hat,
        "doubling_dim_hat": est.dim_hat,
    }, args.out)
    return 0


def cmd_embed_scale(args) -> int:
    s = points.normalize(points.load(args.input))
    delta = args.delta if args.delta is not None else _default_delta(args.eps,
                                                                     s.norm)
    params = single_scale.SingleScaleParams(
        r=args.r, eps=args.eps, delta=delta, norm=s.norm, seed=args.seed)
    e = single_scale.build_single_scale(s, params)
    rep = single_scale.contract_audit(e)
    if args.dump:
        Path(args.dump).write_bytes(single_scale.dumps(e))
    _emit_report(rep, args)
    return 0 if rep.passed else 2


def cmd_embed_snowflake(args) -> int:
    s = points.normalize(points.load(args.input))
    e = snowflake.build_snowflake(s, args.alpha, args.eps, seed=args.seed,
                                  dim_hat=args.dim_hat)
    rep = snowflake.distortion_audit(e)
    if args.dump:
        Path(args.dump).write_bytes(snowflake.dumps(e))
    _emit_report(rep, args)
    return 0 if rep.passed else 2


def cmd_dls_build(args) -> int:
    s = points.normalize(points.load(args.input))
    if s.norm != 2.0:
        raise BadParams("distance labels need an l2 point set")
    e = snowflake.build_snowflake(s, args.alpha, args.eps, seed=args.seed)
    ls = labeling.dls_build(e, args.eps)
    Path(args.labels).write_bytes(labeling.dumps_labels(ls))
    bits = labeling.measured_label_bits(ls)
    ref = labeling.theory_label_bits(ls.header.k, s.diameter(), args.eps)
    _emit_doc({
        "n": ls.n,
        "k": ls.header.k,
        "q": ls.header.q,
        "alpha": ls.header.alpha,
        "label_bits": bits,
        "label_bits_reference": ref,
        "file": args.labels,
    }, args.out)
    return 0


def cmd_dls_query(args) -> int:
    ls = labeling.loads_labels(Path(args.labels).read_bytes())
    idx = {}
    for point_id in (args.a, args.b):
        hits = np.flatnonzero(ls.ids == point_id)
        if hits.size == 0:
            raise BadParams(f"no label with id {point_id} in {args.labels}")
        idx[point_id] = int(hits[0])
    snow, orig = labeling.dls_query(ls.label(idx[args.a]), ls.label(idx[args.b]))
    _emit_doc({
        "a": args.a,
        "b": args.b,
        "snowflaked_estimate": snow,
        "original_estimate": orig,
    }, args.out)
    return 0


def _greedy_k_center(dist: np.ndarray, k: int, start: int):
    """Farthest-point traversal: classic 2-approximation for k-center."""
    n = dist.shape[0]
    centers = [start]
    nearest = dist[start].copy()
    while len(centers) < min(k, n):
        nxt = int(nearest.argmax())
        centers.append(nxt)
        nearest = np.minimum(nearest, dist[nxt])
    return centers, nearest


def cmd_cluster_demo(args) -> int:
    s = points.normalize(points.load(args.input))
    e = snowflake.build_snowflake(s, args.alpha, args.eps, seed=args.seed)
    image = e.image_distance_matrix()
    rng = np.random.default_rng(np.random.SeedSequence((args.seed, 0xC147)))
    start = int(rng.integers(s.n))
    centers, nearest = _greedy_k_center(image, args.clusters, start)
    src = s.distance_matrix()
    src_radius = float(src[centers].min(axis=0).max())
    assign = np.asarray(centers)[image[:, centers].argmin(axis=1)]
    _emit_doc({
        "clusters": args.clusters,
        "centers": list(map(int, centers)),
        "image_radius": float(nearest.max()),
        "source_radius": src_radius,
        "assignment": [int(c) for c in assign],
    }, args.out)
    return 0


# --- parser -----------------------------------------------------------------

#: options shared by several subcommands; each subcommand adds only those
#: its handler reads
_OPTIONS = {
    "seed": {"type": _int_at_least(0), "default": 0},
    "eps": {"type": float, "default": 0.1},
    "delta": {"type": float, "default": None,
              "help": "default: eps^2, or eps^2/4 for an l-infinity input"},
    "alpha": {"type": float, "default": 0.5},
    "out": {"default": None, "help": "output file ('-' or omitted: stdout)"},
    "format": {"choices": ("csv", "json"), "default": None,
               "help": "default: json, or csv when --out ends in .csv"},
}


def _add(parser: argparse.ArgumentParser, *names: str):
    for name in names:
        parser.add_argument(f"--{name}", **_OPTIONS[name])


def build_parser() -> _Parser:
    parser = _Parser(prog="snowdim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic point set")
    p.add_argument("kind", choices=("line", "grid", "subspace", "ball",
                                    "ultrametric"))
    p.add_argument("--n", type=int)
    p.add_argument("--side", type=int)
    p.add_argument("--dim", type=int)
    p.add_argument("--dims", type=int)
    p.add_argument("--ambient-dim", type=int, dest="ambient_dim")
    p.add_argument("--intrinsic-dim", type=int, dest="intrinsic_dim")
    p.add_argument("--noise", type=float)
    p.add_argument("--depth", type=int)
    p.add_argument("--base", type=float)
    p.add_argument("--leaves", type=int)
    p.add_argument("--norm", choices=("l1", "l2", "linf"), default="l2")
    _add(p, "seed", "out", "format")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("stats", help="metric statistics and doubling estimate")
    p.add_argument("input")
    _add(p, "out")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("embed-scale",
                       help="single-scale embedding plus contract audit")
    p.add_argument("input")
    p.add_argument("--r", type=float, required=True,
                   help="scale parameter of the distance transform")
    p.add_argument("--dump", default=None,
                   help="also write the binary coordinate dump here")
    _add(p, "seed", "eps", "delta", "out", "format")
    p.set_defaults(func=cmd_embed_scale)

    p = sub.add_parser("embed-snowflake",
                       help="snowflake embedding plus distortion audit")
    p.add_argument("input")
    p.add_argument("--dim-hat", type=float, dest="dim_hat",
                   default=None, help="override the doubling-dimension estimate")
    p.add_argument("--dump", default=None,
                   help="also write the binary coordinate dump here")
    _add(p, "seed", "eps", "alpha", "out", "format")
    p.set_defaults(func=cmd_embed_snowflake)

    p = sub.add_parser("dls", help="distance labeling scheme")
    dls_sub = p.add_subparsers(dest="dls_command", required=True)
    b = dls_sub.add_parser("build", help="embed, quantize, write label file")
    b.add_argument("input")
    b.add_argument("labels", help="output label file (binary)")
    _add(b, "seed", "eps", "alpha", "out")
    b.set_defaults(func=cmd_dls_build)
    q = dls_sub.add_parser("query", help="estimate distances from two labels")
    q.add_argument("labels", help="label file from 'dls build'")
    q.add_argument("a", type=int, help="first point id")
    q.add_argument("b", type=int, help="second point id")
    _add(q, "out")
    q.set_defaults(func=cmd_dls_query)

    p = sub.add_parser("cluster-demo",
                       help="greedy 2-approximate k-center in the image space")
    p.add_argument("input")
    p.add_argument("--clusters", type=_int_at_least(1), default=3)
    _add(p, "seed", "eps", "alpha", "out")
    p.set_defaults(func=cmd_cluster_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except SnowdimError as exc:
        print(f"snowdim: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"snowdim: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
