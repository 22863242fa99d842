"""Outside-in tracing: spans around the calls between cubedeform's modules.

The child process wraps, after import, every public function that one
cubedeform module binds from another (including the names ``cli`` binds),
``CubeComplex.bounded_geometry_statistic`` and the ``numpy.linalg`` entry
points the package uses.  Calls inside a module are left alone: wrapping
those (75k ``canonicalize`` calls on one input) costs more than it shows.

Spans stay in memory and are written as JSON lines when the command ends.
``run.py`` turns them into per-layer metrics with :func:`layer_metrics`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

LAYERS = ("cli", "core", "differential", "parallelism", "symbols",
          "deformation", "fredholm", "linalg")
MODULES = ("core", "differential", "parallelism", "symbols", "deformation",
           "fredholm", "generate", "cli")
LINALG = ("solve", "eigh", "eigvalsh", "svd", "norm")

# (metric, span name): `_s` metrics are the inclusive time of the named
# function's outermost spans, `.calls` count all its spans.
FUNCTION_METRICS = (
    ("core.parse_cxc_s", "core.parse_cxc"),
    ("core.bounded_geometry_statistic_s", "core.bounded_geometry_statistic"),
    ("differential.d_matrix_s", "differential.d_matrix"),
    ("differential.wedge_matrix_s", "differential.wedge_matrix"),
    ("differential.wedge_matrix.calls", "differential.wedge_matrix"),
    ("differential.laplacian_matrix_s", "differential.laplacian_matrix"),
    ("differential.cohomology_ranks_s", "differential.cohomology_ranks"),
    ("symbols.ps_d_matrix_s", "symbols.ps_d_matrix"),
    ("symbols.ps_laplacian_s", "symbols.ps_laplacian"),
    ("symbols.symbol_of_pair.calls", "symbols.symbol_of_pair"),
    ("parallelism.enumerate_classes_s", "parallelism.enumerate_classes"),
    ("parallelism.nearest_in_class.calls", "parallelism.nearest_in_class"),
    ("deformation.pairing_value_s", "deformation.pairing_value"),
    ("deformation.pairing_value.calls", "deformation.pairing_value"),
    ("deformation.u_t_matrix_s", "deformation.u_t_matrix"),
    ("deformation.gram_matrix_s", "deformation.gram_matrix"),
    ("deformation.w_step_matrix.calls", "deformation.w_step_matrix"),
    ("fredholm.inv_sqrt_integral_s", "fredholm.inv_sqrt_integral"),
    ("fredholm.resolvent_bounds_s", "fredholm.resolvent_bounds"),
    ("linalg.solve.calls", "linalg.solve"),
    ("linalg.svd_s", "linalg.svd"),
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in output order."""
    units = {}
    for layer in LAYERS:
        units[layer + ".self_s"] = "s"
        units[layer + ".calls"] = "count"
    for metric, _ in FUNCTION_METRICS:
        units[metric] = "count" if metric.endswith(".calls") else "s"
    units["differential.out_mb"] = "MB"
    units["linalg.flops_computed"] = "flop"
    units["linalg.max_n"] = "count"
    units["trace.overhead_frac"] = "ratio"
    return units


class Tracer:
    """Records one span per wrapped call: name, start, end, parent, extras."""

    def __init__(self):
        # [name, start_ns, end_ns, parent, n, flops, bytes returned]
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0, stack[-1] if stack else -1, 0, 0, 0]
            if layer == "linalg":
                rec[4], rec[5] = _dense_size(name, args, kwargs)
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            if layer in ("differential", "symbols"):
                rec[6] = getattr(result, "nbytes", 0)
            return result

        return traced

    def install(self) -> None:
        """Wrap every cross-module binding, the statistic and numpy.linalg."""
        import numpy as np

        from cubedeform.core import CubeComplex

        mods = {m: importlib.import_module("cubedeform." + m) for m in MODULES}
        for mod in mods.values():
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ == mod.__name__
                        or not obj.__module__.startswith("cubedeform.")):
                    continue
                setattr(mod, name, self.wrap(obj.__module__.split(".")[1] + "." + name, obj))
        CubeComplex.bounded_geometry_statistic = self.wrap(
            "core.bounded_geometry_statistic", CubeComplex.bounded_geometry_statistic)
        for name in LINALG:
            setattr(np.linalg, name, self.wrap("linalg." + name, getattr(np.linalg, name)))

    def dump(self, fh, command_id: int) -> None:
        """Append the spans as JSON lines; spans of one command share an id."""
        for i, (name, start, end, parent, n, flops, nbytes) in enumerate(self.spans):
            fh.write(json.dumps({"id": command_id, "span": i, "name": name, "start": start,
                                 "end": end, "parent": parent, "n": n, "flops": flops,
                                 "bytes": nbytes}) + "\n")


def _dense_size(name: str, args: tuple, kwargs: dict) -> tuple[int, int]:
    """Matrix size n of a numpy.linalg call, and n**3 if it factorises."""
    shape = getattr(args[0], "shape", ()) if args else ()
    n = max(shape[-2:], default=0)
    if name == "linalg.norm":
        order = args[1] if len(args) > 1 else kwargs.get("ord")
        cubic = len(shape) >= 2 and order in (2, -2)
    else:
        cubic = True
    return n, n ** 3 if cubic else 0


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover, in s.

    ``spans`` are one command's records, indexed by their ``span`` field.
    """
    children = defaultdict(list)
    for s in spans:
        if s["parent"] >= 0:
            children[s["parent"]].append((s["start"], s["end"]))
    out = []
    for s in spans:
        covered, reach = 0, s["start"]
        for start, end in sorted(children.get(s["span"], ())):
            start, end = max(start, reach), min(end, s["end"])
            if end > start:
                covered += end - start
                reach = end
        out.append((s["end"] - s["start"] - covered) / 1e9)
    return out


def layer_metrics(commands: list[list[dict]]) -> dict[str, float]:
    """Per-layer metrics over a set of commands' spans (all but the overhead)."""
    values: dict[str, float] = defaultdict(float)
    by_name_s: dict[str, float] = defaultdict(float)
    by_name_calls: dict[str, int] = defaultdict(int)
    flops = out_bytes = max_n = 0
    for spans in commands:
        selfs = self_times(spans)
        for s, self_s in zip(spans, selfs):
            name = s["name"]
            layer = name.split(".", 1)[0]
            values[layer + ".self_s"] += self_s
            values[layer + ".calls"] += 1
            by_name_calls[name] += 1
            if not _inside_same_name(spans, s):
                by_name_s[name] += (s["end"] - s["start"]) / 1e9
            max_n = max(max_n, s["n"])
            flops += s["flops"]
            out_bytes += s["bytes"]
    out = {}
    for layer in LAYERS:
        out[layer + ".self_s"] = values[layer + ".self_s"]
        out[layer + ".calls"] = values[layer + ".calls"]
    for metric, name in FUNCTION_METRICS:
        out[metric] = by_name_calls[name] if metric.endswith(".calls") else by_name_s[name]
    out["differential.out_mb"] = out_bytes / 2**20
    out["linalg.flops_computed"] = float(flops)
    out["linalg.max_n"] = float(max_n)
    return out


def _inside_same_name(spans: list[dict], span: dict) -> bool:
    parent = span["parent"]
    while parent >= 0:
        if spans[parent]["name"] == span["name"]:
            return True
        parent = spans[parent]["parent"]
    return False
