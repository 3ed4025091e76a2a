"""Per-layer tracing of toricctl from outside the package.

``Tracer.install`` replaces every public function of the layer modules, at
every module attribute that is bound to it, by a wrapper that records a span
(name, start, end, parent span, command id).  Callers inside the package
resolve these names at call time, so ``varieties.validate_fan``,
``cones.inward_normals`` and the ``det``/``adjugate`` bindings in ``cones``,
``quotients`` and ``varieties`` all reach the wrappers.  Private helpers are
not wrapped: their time lands in the calling span.  Spans live in flat arrays
until ``write_spans`` stores them once, at the end of a run.

A layer's self time is the time inside its spans minus the time covered by
their child spans.  Spans nest strictly in one thread, so the self times of
all layers add up to the duration of the root spans.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
from array import array
from time import perf_counter

PACKAGE = "toricctl"
LAYERS = ("cli", "cones", "lattice", "quotients", "varieties", "sl2", "reference")
# Public methods that get spans, as (layer, class, method).
METHODS = (("sl2", "Poly", "substitute"),)
# Private helpers that are counted but get no span: (layer, name, metric).
COUNTED = (("cones", "_intersection_is_common_face", "cones.validate_fan.pairs"),)

INCLUSIVE = (
    "cones.validate_fan",
    "cones.is_complete",
    "cones.load_fan",
    "lattice.smith_normal_form",
    "quotients.normalize_type",
    "quotients.is_terminal",
    "varieties.build_wps_fan",
    "varieties.solve_linking_equations",
    "varieties.fan_lattice_equivalent",
    "sl2.verify_invariant_ideal",
)
CALLS = (
    "cones.inward_normals",
    "lattice.det",
    "lattice.adjugate",
    "lattice.smith_normal_form",
    "quotients.quotient_type",
    "sl2.Poly.substitute",
)


class Tracer:
    """Span recorder; install it around the calls to trace, then uninstall."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.command_id = array("i")
        self.command = -1  # id stamped on new spans; set by the caller
        self.counts: dict[str, int] = {metric: 0 for _, _, metric in COUNTED}
        self.max_r = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module(PACKAGE)]
        modules += [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and not attr.startswith("_")
                    and value.__module__ == module.__name__
                ):
                    wrappers[id(value)] = self._span_wrapper(f"{layer}.{attr}", value)
            for name, helper, metric in COUNTED:
                if name == layer:
                    value = getattr(module, helper)
                    wrappers[id(value)] = self._count_wrapper(metric, value)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and inspect.isfunction(value):
                    self._patch(module, attr, wrappers[id(value)])
        for layer, cls_name, method in METHODS:
            cls = getattr(importlib.import_module(f"{PACKAGE}.{layer}"), cls_name)
            original = cls.__dict__[method]
            self._patch(cls, method, self._span_wrapper(f"{layer}.{cls_name}.{method}", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def _span_wrapper(self, name: str, fn):
        name_id = self.name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        stack, names, starts, ends = self._stack, self.span_name, self.start, self.end
        parents, commands = self.parent, self.command_id
        observe_r = name == "quotients.quotient_type"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            commands.append(self.command)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()
            if observe_r:
                self.max_r = max(self.max_r, getattr(result, "r", 0))
            return result

        return wrapper

    def _count_wrapper(self, metric: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- analysis -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Self time per layer, inclusive times, call counts and counters."""
        n = len(self.start)
        duration = array("d", (end - start for start, end in zip(self.start, self.end)))
        covered = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += duration[i]
        self_s = {layer: 0.0 for layer in LAYERS}
        calls: dict[str, int] = {}
        inclusive = {name: 0.0 for name in INCLUSIVE}
        for i in range(n):
            name = self.names[self.span_name[i]]
            self_s[name.split(".", 1)[0]] += duration[i] - covered[i]
            calls[name] = calls.get(name, 0) + 1
            if name in inclusive and not self._has_ancestor_named(i, self.span_name[i]):
                inclusive[name] += duration[i]
        metrics: dict[str, float] = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
        metrics.update({f"{name}.s": value for name, value in inclusive.items()})
        metrics.update({f"{name}.calls": calls.get(name, 0) for name in CALLS})
        metrics.update(self.counts)
        metrics["quotients.max_r"] = self.max_r
        metrics["trace.wall_s"] = sum(duration[i] for i in range(n) if self.parent[i] < 0)
        metrics["trace.spans"] = n
        return metrics

    def _has_ancestor_named(self, index: int, name_id: int) -> bool:
        p = self.parent[index]
        while p >= 0:
            if self.span_name[p] == name_id:
                return True
            p = self.parent[p]
        return False

    def write_spans(self, path: str) -> None:
        """Write every span, one tab-separated line each, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            header = {"names": self.names, "columns": ["name", "start", "end", "parent", "command"]}
            out.write(json.dumps(header) + "\n")
            for i in range(len(self.start)):
                out.write(
                    f"{self.span_name[i]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}\t"
                    f"{self.parent[i]}\t{self.command_id[i]}\n"
                )
