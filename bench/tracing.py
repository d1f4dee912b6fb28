"""Spans around every call into the public functions of snowdim's layers.

``Tracer.install`` replaces each public function of a layer module with a
timing wrapper, in every snowdim module that holds a reference to it, so
the attribute a caller looks up (``snowdim.single_scale.build_decomposition``
as well as ``snowdim.decomposition.build_decomposition``) is the wrapped
one.  ``restore`` puts the originals back.  Untraced runs never install it.

A span is (name, start_ns, end_ns, parent span id, iteration).  Spans stay
in memory until ``write``.  Counters are read from the values the wrapped
functions return, at the same boundaries.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict

PACKAGE = "snowdim"
#: snowdim modules whose public functions are traced; ``cli`` is argparse
#: and file I/O around the same calls, and ``errors`` does no work
LAYERS = ("points", "decomposition", "transforms", "projection", "extension",
          "single_scale", "snowflake", "labeling", "report")


def _count_single_scale(count, args, out):
    count("single_scale.scales", 1)
    count("single_scale.empty_scales", out.k == 0)
    count("single_scale.clusters", len(out.clusters))
    count("single_scale.singleton_clusters",
          sum(len(c.members) == 1 for c in out.clusters))


def _count_decomposition(count, args, out):
    count("decomposition.attempts", out.attempts)


def _count_jl(count, args, out):
    count("projection.jl_identity", out[1].identity)


def _count_extension(count, args, out):
    count("extension.iters", out[1].iters)


def _count_snowflake(count, args, out):
    count("snowflake.assembled_k", out.k)
    count("snowflake.coords_bytes", out.n * out.k * 8)


def _count_audit(count, args, out):
    e = args[0]
    count("snowflake.audit_bytes", e.n * (e.n - 1) // 2 * e.k * 8)


#: counters reported as 0 where no call adds to them
COUNTER_NAMES = (
    "single_scale.scales", "single_scale.empty_scales",
    "single_scale.clusters", "single_scale.singleton_clusters",
    "decomposition.attempts", "projection.jl_identity", "extension.iters",
    "snowflake.assembled_k", "snowflake.coords_bytes",
    "snowflake.audit_bytes", "snowflake.dump_bytes", "labeling.label_bytes")

COUNTERS = {
    "single_scale.build_single_scale": _count_single_scale,
    "decomposition.build_decomposition": _count_decomposition,
    "projection.jl_project": _count_jl,
    "extension.kirszbraun_extend": _count_extension,
    "snowflake.build_snowflake": _count_snowflake,
    "snowflake.distortion_audit": _count_audit,
    "snowflake.dumps": lambda count, args, out: count(
        "snowflake.dump_bytes", len(out)),
    "labeling.dumps_labels": lambda count, args, out: count(
        "labeling.label_bytes", len(out)),
}


class Tracer:
    def __init__(self):
        self.iteration = 0
        self.spans: list = []
        self.counts: dict = defaultdict(lambda: defaultdict(float))
        self.names: list[str] = []
        self._stack: list[int] = []
        self._patched: list = []

    def count(self, name: str, value) -> None:
        self.counts[self.iteration][name] += float(value)

    def _wrap(self, name: str, fn):
        spans, stack, counter = self.spans, self._stack, COUNTERS.get(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                self.count(f"{name}.raised", 1)
                raise
            finally:
                spans[sid] = (name, start, clock(), parent, self.iteration)
                stack.pop()
            if counter is not None:
                counter(self.count, args, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrapped[obj] = self._wrap(f"{layer}.{attr}", obj)
                    self.names.append(f"{layer}.{attr}")
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
                    self._patched.append((mod, attr, obj))

    def restore(self) -> None:
        while self._patched:
            mod, attr, obj = self._patched.pop()
            setattr(mod, attr, obj)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    def write(self, path) -> None:
        """One tab-separated line per span; times in ns from the first."""
        t0 = min((sp[1] for sp in self.spans), default=0)
        with open(path, "w") as fh:
            fh.write("id\tname\tstart_ns\tend_ns\tparent\titeration\n")
            for sid, (name, start, end, parent, it) in enumerate(self.spans):
                fh.write(f"{sid}\t{name}\t{start - t0}\t{end - t0}\t"
                         f"{parent}\t{it}\n")

    def layer_metrics(self, iteration: int) -> dict[str, float]:
        """Busy time, self time and calls per function, plus counters and
        ratios, for one iteration."""
        return layer_metrics(self.spans, self.names,
                             dict(self.counts[iteration]), iteration)


def layer_metrics(spans, names, counts: dict, iteration: int) -> dict:
    """Per-layer metrics of one iteration from its spans and counters.

    A span's self time is its duration minus its children's durations;
    spans nest strictly because the traced code runs in one thread.
    """
    busy = dict.fromkeys(names, 0.0)
    own = dict.fromkeys(names, 0.0)
    calls = dict.fromkeys(names, 0)
    child = defaultdict(int)
    for name, start, end, parent, it in spans:
        if it == iteration and parent >= 0:
            child[parent] += end - start
    for sid, (name, start, end, parent, it) in enumerate(spans):
        if it != iteration:
            continue
        busy[name] += (end - start) * 1e-9
        own[name] += (end - start - child[sid]) * 1e-9
        calls[name] += 1
    out = {}
    for name in names:
        out[f"{name}.s"] = busy[name]
        out[f"{name}.calls"] = calls[name]
    for name in ("snowflake", "single_scale"):
        out[f"{name}.self_s"] = own[f"{name}.build_{name}"]
    out.update(dict.fromkeys(COUNTER_NAMES, 0.0))
    out.update(counts)
    out["labeling.queries"] = calls["labeling.dls_query"]

    def ratio(num, den):
        return num / den if den else 0.0

    out["projection.jl_identity_ratio"] = ratio(
        counts.get("projection.jl_identity", 0.0),
        calls["projection.jl_project"])
    # a call that raised PaddingUnachievable returned no attempt count
    out["decomposition.first_try_ratio"] = ratio(
        calls["decomposition.build_decomposition"]
        - counts.get("decomposition.build_decomposition.raised", 0.0),
        counts.get("decomposition.attempts", 0.0))
    scales = counts.get("single_scale.scales", 0.0)
    out["single_scale.useful_scale_ratio"] = ratio(
        scales - counts.get("single_scale.empty_scales", 0.0), scales)
    return out
