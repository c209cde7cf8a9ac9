"""Per-layer tracing from outside the library.

A Tracer replaces each traced library function, in every bracelab module
that holds it, with a wrapper that records a span (name, start, end,
parent) and per-call counts. Replacing the function at each name a caller
looks up (``enumeration.regular_subgroups``, ``series.is_ideal``, ...)
catches calls between library modules, not only the benchmark's own. Spans
stay in memory until ``write_spans``; self time is a span's duration minus
the time its child spans cover, accumulated as spans close.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional


@dataclass(frozen=True)
class Layer:
    span: str  # <module>.<function>, the metric name prefix
    module: str  # bracelab submodule defining the function
    attr: str  # its name there
    counts: Optional[Callable] = None  # (args, kwargs, result) -> {stat: value}
    extras: dict = field(default_factory=dict)  # stat -> "higher" | "lower"


def _len_arg(args) -> int:
    return len(args[0]) if hasattr(args[0], "__len__") else 0


# Stats ending in "_ratio" are summed per call and reported divided by calls.
LAYERS = (
    # census-24
    Layer("enumeration.regular_subgroups", "enumeration", "regular_subgroups",
          lambda a, k, r: {"maps": len(r), "useful_ratio": bool(r)},
          {"maps": "higher", "useful_ratio": "higher"}),
    Layer("enumeration.reduce_by_aut_conjugation", "enumeration", "reduce_by_aut_conjugation",
          lambda a, k, r: {"in": _len_arg(a), "out": len(r)}, {"in": "lower", "out": "lower"}),
    # The census and groups_of_order both reach the group census through
    # this cached helper; it recurses through the divisor orders.
    Layer("enumeration.groups_of_order", "enumeration", "_groups_of_order"),
    Layer("groups.all_automorphisms", "groups", "all_automorphisms"),
    Layer("groups.isomorphic_groups", "groups", "isomorphic_groups"),
    Layer("enumeration.brace_from_lambda_map", "enumeration", "brace_from_lambda_map"),
    Layer("enumeration.dedup_braces", "enumeration", "dedup_braces"),
    Layer("enumeration.brace_fingerprint", "enumeration", "brace_fingerprint"),
    Layer("brace.isomorphic", "brace", "isomorphic",
          lambda a, k, r: {"hit_ratio": r is not None}, {"hit_ratio": "higher"}),
    # analyze-24
    Layer("serialize.read_catalog", "serialize", "read_catalog",
          lambda a, k, r: {"bytes": Path(a[0]).stat().st_size}, {"bytes": "lower"}),
    Layer("groups.verify_group", "groups", "verify_group"),
    Layer("brace.verify_skew_brace", "brace", "verify_skew_brace"),
    Layer("brace.classify_flags", "brace", "classify_flags"),
    Layer("brace.quotient", "brace", "quotient"),
    Layer("series.nilpotency_report", "series", "nilpotency_report"),
    Layer("series.series", "series", "series",
          lambda a, k, r: {"terms": len(r.chain)}, {"terms": "lower"}),
    Layer("substructures.is_ideal", "substructures", "is_ideal"),
    Layer("substructures.star_sets", "substructures", "star_sets"),
    Layer("substructures.commutator", "substructures", "commutator"),
    Layer("substructures.invariant_substructures", "substructures", "invariant_substructures"),
    Layer("substructures.subbrace_lattice", "substructures", "subbrace_lattice",
          lambda a, k, r: {"members": len(r)}, {"members": "lower"}),
    Layer("substructures.radical", "substructures", "radical"),
    # equivalence-5
    Layer("enumeration.enumerate_involutive_solutions", "enumeration",
          "enumerate_involutive_solutions"),
    Layer("enumeration.sample_involutive_solutions", "enumeration", "sample_involutive_solutions",
          lambda a, k, r: {"returned": len(r)}, {"returned": "higher"}),
    Layer("ybe.equivalence_check", "ybe", "equivalence_check"),
    Layer("ybe.retract", "ybe", "retract"),
    Layer("ybe.multipermutation_level", "ybe", "multipermutation_level"),
    Layer("ybe.permutation_brace", "ybe", "permutation_brace",
          lambda a, k, r: {"elements": r[0].n}, {"elements": "lower"}),
    Layer("campaigns.run_suite", "campaigns", "run_suite"),
)

# series() spans are named by kind; these are the kinds nilpotency_report runs.
SERIES_KINDS = ("left", "right", "strong", "annihilator", "gamma", "gamma_bracket")

# Whole-run diagnostics reported with the layers: CPU seconds of the
# untraced passes, the traced pass's wall time, and its excess over the
# untraced wall time (the tracing overhead).
DIAGNOSTICS = (
    ("process.cpu_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _span_names(layer: Layer) -> list[str]:
    if layer.span == "series.series":
        return [f"series.series.{kind}" for kind in SERIES_KINDS]
    return [layer.span]


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for layer in LAYERS:
        for span in _span_names(layer):
            out.append((f"{span}.calls", "count", "lower"))
            out.append((f"{span}.self_s", "s", "lower"))
            for stat, better in layer.extras.items():
                unit = "ratio" if stat.endswith("_ratio") else "bytes" if stat == "bytes" else "count"
                out.append((f"{span}.{stat}", unit, better))
    return out + list(DIAGNOSTICS)


class Tracer:
    def __init__(self) -> None:
        self.recording = False
        self.spans: list[Optional[tuple[str, float, float, int]]] = []
        self.stats: dict[str, dict[str, float]] = {}
        self._stack: list[tuple[int, list[float]]] = []

    def install(self) -> None:
        """Wrap every LAYERS function wherever a bracelab module binds it.
        A function the library no longer has is skipped; its metrics read 0."""
        modules = [m for name, m in sys.modules.items()
                   if name == "bracelab" or name.startswith("bracelab.")]
        for layer in LAYERS:
            target = getattr(sys.modules.get(f"bracelab.{layer.module}"), layer.attr, None)
            if target is None:
                continue
            wrapper = self._wrap(layer, target)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is target:
                        setattr(mod, attr, wrapper)

    def _wrap(self, layer: Layer, fn: Callable) -> Callable:
        by_kind = layer.span == "series.series"
        spans, stack, stats = self.spans, self._stack, self.stats
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            if by_kind:
                name = f"series.series.{args[1] if len(args) > 1 else kwargs['kind']}"
            else:
                name = layer.span
            sid = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            child = [0.0]
            stack.append((sid, child))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent)
                if stack:
                    stack[-1][1][0] += end - start
                st = stats.get(name)
                if st is None:
                    st = stats[name] = {"calls": 0, "self_s": 0.0}
                st["calls"] += 1
                st["self_s"] += end - start - child[0]
            if layer.counts is not None:
                for stat, value in layer.counts(args, kwargs, result).items():
                    st[stat] = st.get(stat, 0) + value
            return result

        return traced

    def metrics(self) -> dict[str, float]:
        """Per-layer values for every name in per_layer_metrics() except the
        diagnostics; layers the workload never called read 0."""
        out: dict[str, float] = {}
        for name, _, _ in per_layer_metrics()[: -len(DIAGNOSTICS)]:
            span, stat = name.rsplit(".", 1)
            st = self.stats.get(span, {})
            value = st.get(stat, 0)
            if stat.endswith("_ratio") and st.get("calls"):
                value = value / st["calls"]
            out[name] = value
        return out

    def write_spans(self, path: Path) -> None:
        """One JSON line per span: id, name, start, end, parent id (-1 at top)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for sid, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps([sid, name, start, end, parent]) + "\n")
