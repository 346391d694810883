"""Spans around the public functions of signbase's layers, for the traced run.

Each wrapper records one span per call: the function's name, its parent
span, start and end times, and one number taken from the call (a result
length, a truth value or a power index).  Spans stay in memory in flat
arrays and are written out when the run ends.  A wrapper is installed on
every module name that binds the function, such as ``signbase.signed.mat_mul``
as well as ``signbase.gsign.mat_mul``, so calls through any import are seen.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array

LAYERS = ("cli", "sdgio", "report", "signed", "digraph", "gsign", "families")

#: Methods traced besides module functions: (module, class, method).
METHODS = (("signed", "SignedDigraph", "power"), ("signed", "SignedDigraph", "power_trace"))

#: The number a span keeps from its call, by span name.
_VALUE_OF = {
    "digraph.is_primitive": lambda args, result: int(result),
    "signed.is_powerful": lambda args, result: int(result),
    "digraph.enumerate_cycles": lambda args, result: len(result),
    "signed.distinguished_pairs": lambda args, result: len(result),
    "signed.power": lambda args, result: args[1],
}

SAMPLER = "families.random_primitive_nonpowerful"

#: Per-layer metrics: name, unit.  Counts and times are per attempted op.
PER_LAYER = (
    ("gsign.mat_mul.calls", "count"),
    ("gsign.mat_mul.self_ms", "ms"),
    ("gsign.power_sequence_base.self_ms", "ms"),
    ("signed.power.calls", "count"),
    ("signed.power.max_index", "count"),
    ("signed.upper_base_table.self_ms", "ms"),
    ("signed.kth_upper_base.self_ms", "ms"),
    ("signed.is_powerful.self_ms", "ms"),
    ("signed.cycles.count", "count"),
    ("digraph.enumerate_cycles.self_ms", "ms"),
    ("signed.distinguished_pairs.self_ms", "ms"),
    ("signed.distinguished_pairs.count", "count"),
    ("signed.bound_sssd_pair.self_ms", "ms"),
    ("signed.bound_common_vertices.self_ms", "ms"),
    ("digraph.multiexponent_table.self_ms", "ms"),
    ("digraph.upper_multiexponent.calls", "count"),
    ("digraph.upper_multiexponent.self_ms", "ms"),
    ("families.sample_nonpowerful_population.self_ms", "ms"),
    ("families.random_primitive_nonpowerful.self_ms", "ms"),
    ("families.sampler.attempts", "count"),
    ("families.sampler.rejected_nonprimitive", "count"),
    ("families.sampler.rejected_powerful", "count"),
    ("families.sampler.accept_ratio", "ratio"),
    ("digraph.is_primitive.calls", "count"),
    ("digraph.isomorphic_to.self_ms", "ms"),
    ("report.build_report.self_ms", "ms"),
    ("report.report_json.self_ms", "ms"),
    ("sdgio.load_sdg.self_ms", "ms"),
    ("cli.main.ms", "ms"),
    ("trace.overhead", "ratio"),
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.value = array("q")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        value_of = _VALUE_OF.get(name)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.value.append(-1)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if value_of is not None:
                self.value[idx] = value_of(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self) -> None:
        """Wrap every public function of the layers, on every binding."""
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"signbase.{layer}"]
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not inspect.isgeneratorfunction(obj)
                ):
                    wrappers[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
        for name, mod in list(sys.modules.items()):
            if name != "signbase" and not name.startswith("signbase."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._patch(mod, attr, wrappers[id(obj)])
        for layer, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"signbase.{layer}"], cls_name)
            self._patch(cls, meth, self.wrap(f"{layer}.{meth}", cls.__dict__[meth]))

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive and self seconds, value sum and
        max; sampler attempts and rejections by parent span."""
        count = len(self.start)
        child = [0.0] * count
        parent, start, end = self.parent, self.start, self.end
        for i in range(count):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        stats = {
            name: {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "value_sum": 0, "value_max": 0}
            for name in self.names
        }
        sampler = {"attempts": 0, "rejected_nonprimitive": 0, "rejected_powerful": 0}
        sampler_ids = {i for i, n in enumerate(self.names) if n == SAMPLER}
        names = self.names
        for i in range(count):
            name = names[self.name_id[i]]
            dur = end[i] - start[i]
            s = stats[name]
            s["calls"] += 1
            s["incl_s"] += dur
            s["self_s"] += dur - child[i]
            v = self.value[i]
            if v >= 0:
                s["value_sum"] += v
                s["value_max"] = max(s["value_max"], v)
            p = parent[i]
            if p >= 0 and self.name_id[p] in sampler_ids:
                if name == "digraph.is_primitive":
                    sampler["attempts"] += 1
                    sampler["rejected_nonprimitive"] += v == 0
                elif name == "signed.is_powerful":
                    sampler["rejected_powerful"] += v == 1
        stats["families.sampler"] = sampler
        return stats

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "name_id": self.name_id.tolist(),
                    "parent": self.parent.tolist(),
                    "start": self.start.tolist(),
                    "end": self.end.tolist(),
                    "value": self.value.tolist(),
                },
                fh,
            )


def layer_metrics(summary: dict, ops: int, overhead: float) -> dict[str, float]:
    """The PER_LAYER metrics from a tracer summary over ``ops`` operations."""

    def per_op(name: str, key: str, scale: float = 1.0) -> float:
        return summary.get(name, {}).get(key, 0) * scale / ops

    sampler = summary["families.sampler"]
    attempts = sampler["attempts"]
    accepted = attempts - sampler["rejected_nonprimitive"] - sampler["rejected_powerful"]
    values = {
        "signed.power.max_index": summary.get("signed.power", {}).get("value_max", 0),
        "signed.cycles.count": per_op("digraph.enumerate_cycles", "value_sum"),
        "signed.distinguished_pairs.count": per_op("signed.distinguished_pairs", "value_sum"),
        "families.sampler.attempts": attempts / ops,
        "families.sampler.rejected_nonprimitive": sampler["rejected_nonprimitive"] / ops,
        "families.sampler.rejected_powerful": sampler["rejected_powerful"] / ops,
        "families.sampler.accept_ratio": accepted / attempts if attempts else 0.0,
        "cli.main.ms": per_op("cli.main", "incl_s", 1000.0),
        "trace.overhead": overhead,
    }
    for metric, _unit in PER_LAYER:
        if metric in values:
            continue
        span, _, what = metric.rpartition(".")
        if what == "calls":
            values[metric] = per_op(span, "calls")
        elif what == "self_ms":
            values[metric] = per_op(span, "self_s", 1000.0)
        else:
            raise ValueError(f"no rule for per-layer metric {metric}")
    return values
