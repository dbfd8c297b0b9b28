"""Spans and counters around calls into the rtmtools modules, from outside.

`Tracer.install` replaces each traced public function, in every rtmtools
module that holds it (several modules import `push_down` and `rref` by
name), by a wrapper that records one span per call: name, start, end,
parent span and command id.  `PullbackNetwork` is timed through its
`__init__`, so the class itself, and `isinstance` checks against it, stay
untouched.  `uninstall` puts every original back.  No module of the package
is edited, and the wrapped functions return exactly what they returned.

A span's self time is its duration minus the durations of its child spans.
The harness opens the root span `cli.main` around each command, so
`cli.self_s` is command time covered by no traced call: argument parsing,
file reads and output formatting.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "textio", "algebra", "trees", "network", "ggm", "structure", "oracle")


def _count_parse(c, args, result):
    c["textio.bytes_parsed"] += len(args[0])


def _count_network(c, args, result):
    net = args[0]
    c["network.net_vertices"] += len(net.vertices)
    c["network.net_edges"] += len(net.edges)


def _count_triangles(c, args, result):
    c["network.triangle_count"] += len(result)


def _count_ggms(c, args, result):
    c["ggm.ggms_emitted"] += len(result)


def _count_hom_span(c, args, result):
    maps, rank = result
    c["ggm.span_rank"] += rank
    c["ggm.span_maps"] += len(maps)


def _count_decompose(c, args, result):
    c["structure.summands_minus_one"] += len(result) - 1


def _count_hom_space(c, args, result):
    m1, m2 = args[0], args[1]
    quiver = m1.codomain.quiver
    c["oracle.hom_space.unknowns"] += sum(m2.dim(q) * m1.dim(q) for q in m1.basis)
    c["oracle.hom_space.equations"] += sum(
        m2.dim(quiver.target(a)) * m1.dim(quiver.source(a)) for a in quiver.arrows
    )


def _count_rref(c, args, result):
    c["oracle.rref.cells"] += getattr(args[0], "size", 0)


def _count_scan(c, args, result):
    basis = args[0]
    if not result.available:
        c["oracle.scan_unavailable"] += 1
    elif basis.dimension:
        c["oracle.scan_space"] += basis.basis[0].prime ** basis.dimension


# (module, attribute, counter hook, outermost calls only)
TARGETS = (
    ("textio", "parse_document", _count_parse, False),
    ("algebra", "check_locally_bound", None, False),
    ("trees", "validate_tree_over_q", None, False),
    ("trees", "push_down", None, False),
    ("network", "PullbackNetwork", _count_network, False),
    ("network", "two_cover", None, False),
    ("network", "triangles", _count_triangles, False),
    ("network", "maximal_r_free_traversals", None, False),
    ("ggm", "enumerate_ggms", _count_ggms, False),
    ("ggm", "ggm_matrix", None, False),
    ("ggm", "hom_span", _count_hom_span, False),
    ("structure", "first_certificate", None, False),
    ("structure", "embeds", None, True),
    ("structure", "split", None, False),
    ("structure", "decompose_fully", _count_decompose, True),
    ("oracle", "hom_space", _count_hom_space, False),
    ("oracle", "rref", _count_rref, False),
    ("oracle", "nullspace", None, False),
    ("oracle", "has_nontrivial_idempotent", _count_scan, False),
    ("oracle", "verify_iso", None, False),
)


class Tracer:
    """Spans kept in memory; counters summed over the traced commands."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index or -1, command id]
        self.counters: dict = defaultdict(float)
        self.cmd = -1
        self._open: list = []
        self._depth: dict = defaultdict(int)
        self._patched: list = []

    def call(self, name: str, fn, args=(), kwargs=None, hook=None, outermost=False):
        """Run fn inside a span named `name`."""
        kwargs = kwargs or {}
        if outermost and self._depth[name]:
            return fn(*args, **kwargs)  # recursive call: busy time counts once
        index = len(self.spans)
        span = [name, perf_counter(), 0.0, self._open[-1] if self._open else -1, self.cmd]
        self.spans.append(span)
        self._open.append(index)
        self._depth[name] += 1
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._open.pop()
            self._depth[name] -= 1
        if hook is not None:
            hook(self.counters, args, result)
        return result

    def _wrapper(self, name, fn, hook, outermost):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, hook, outermost)

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "rtmtools" or n.startswith("rtmtools.")]
        for module_name, attr, hook, outermost in TARGETS:
            name = f"{module_name}.{attr}"
            original = getattr(sys.modules[f"rtmtools.{module_name}"], attr)
            if isinstance(original, type):
                init = original.__init__
                self._patched.append((original, "__init__", init))
                original.__init__ = self._wrapper(name, init, hook, outermost)
                continue
            traced = self._wrapper(name, original, hook, outermost)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, traced)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def summary(self) -> dict:
        """Per span name: calls, total duration and self time."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["busy_s"] += end - start
            row["self_s"] += end - start - child[i]
        return out


# Per-layer metrics.  Times and counts are per traced pass of the workload's
# command list, so they compare across runs of different lengths.
_CALLS_AND_SELF = (
    "textio.parse_document",
    "algebra.check_locally_bound",
    "trees.validate_tree_over_q",
    "trees.push_down",
    "network.PullbackNetwork",
    "network.two_cover",
    "network.triangles",
    "network.maximal_r_free_traversals",
    "ggm.enumerate_ggms",
    "ggm.ggm_matrix",
    "structure.first_certificate",
    "structure.embeds",
    "structure.split",
    "oracle.hom_space",
    "oracle.rref",
    "oracle.has_nontrivial_idempotent",
    "oracle.verify_iso",
)
_COUNTERS = (
    "textio.bytes_parsed",
    "network.net_vertices",
    "network.net_edges",
    "network.triangle_count",
    "ggm.ggms_emitted",
    "oracle.hom_space.unknowns",
    "oracle.hom_space.equations",
    "oracle.rref.cells",
    "oracle.scan_space",
    "oracle.scan_unavailable",
)
_RATIOS = ("trees.validations_per_cmd", "ggm.rank_per_ggm", "structure.split_useful_ratio")


def _unit(name: str) -> str:
    if name == "textio.bytes_parsed":
        return "bytes"
    if name in _RATIOS:
        return "ratio"
    if name.startswith("trace.cmds_per_s"):
        return "1/s"
    return "s" if name.endswith("_s") else "count"


def per_layer_metrics(tracer: Tracer, passes: int, commands: int, traced: float, untraced: float) -> dict:
    """Every per-layer metric as {"value", "unit"}; `traced` and `untraced`
    are the throughputs of the run's traced and untraced passes."""
    rows = tracer.summary()
    c = tracer.counters
    totals = {"cli.self_s": rows["cli.main"]["self_s"]}
    for name in _CALLS_AND_SELF:
        totals[f"{name}.calls"] = rows[name]["calls"]
        totals[f"{name}.self_s"] = rows[name]["self_s"]
    totals["ggm.hom_span.self_s"] = rows["ggm.hom_span"]["self_s"]
    totals["oracle.nullspace.self_s"] = rows["oracle.nullspace"]["self_s"]
    totals["structure.decompose_fully.busy_s"] = rows["structure.decompose_fully"]["busy_s"]
    totals.update({key: c[key] for key in _COUNTERS})
    for layer in LAYERS[1:]:
        totals[f"{layer}.layer_self_s"] = sum(
            row["self_s"] for name, row in rows.items() if name.startswith(layer + ".")
        )
    totals["trace.cmd_s"] = rows["cli.main"]["busy_s"]
    totals["trace.spans"] = len(tracer.spans)
    values = {k: v / passes for k, v in totals.items()}
    # A ratio whose code never runs on the workload reads 0.
    values["trees.validations_per_cmd"] = rows["trees.validate_tree_over_q"]["calls"] / (commands * passes)
    values["ggm.rank_per_ggm"] = c["ggm.span_rank"] / c["ggm.span_maps"] if c["ggm.span_maps"] else 0.0
    splits = rows["structure.split"]["calls"]
    values["structure.split_useful_ratio"] = c["structure.summands_minus_one"] / splits if splits else 0.0
    values["trace.cmds_per_s_traced"] = traced
    values["trace.cmds_per_s_untraced"] = untraced
    return {k: {"value": v, "unit": _unit(k)} for k, v in values.items()}
