"""Spans around calls into tsl's public functions, and the per-layer metrics.

The benchmark records spans from its own files only; nothing inside
`src/` is changed.  `instrument` swaps each traced function for a
recording wrapper in every loaded `tsl` module namespace that holds it,
so calls tsl makes internally (a repro check calling `construct`,
`prefix_density` calling `log_weight_sum`) are recorded as well, and
puts the originals back on exit.  Spans stay in memory until the run
ends.  This module uses the standard library only, so the parent
process can derive metrics without importing tsl.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import itertools
import math
import statistics
import sys
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Iterator

# a visit counts as certified when its error is at most VISIT_GATE / l_k,
# the gate the certify workload and the orbit-visits check both apply
VISIT_GATE = 10.0

ROOT_SPAN = "harness.run"
CONTROL_SPAN = "harness.control"
LAYERS = ("polybank", "constructor", "series", "means", "densities", "verify", "repro", "harness")

REPRO_CHECKS = (
    "rs-bound",
    "star-bound",
    "shift-telescoping",
    "parseval",
    "density-separation",
    "growth-gamma05-p2",
    "growth-gamma0-p2",
    "critical-u2-p2",
    "orbit-visits",
    "lemma-oracles",
    "determinism",
)

# span names whose summed duration is reported as "<name>.s"
TIMED_SPANS = (
    "polybank.enumerate_targets",
    "constructor.construct",
    "constructor.plan_blocks",
    "constructor.visit_set",
    "series.json_roundtrip",
    "means.means_table.p1",
    "means.means_table.pinf",
    "means.means_table.p2",
    "means.fit_growth_exponent",
    "means.dyadic_mean2_profile",
    "densities.prefix_density_profile",
    "densities.log_weight_sum",
    "densities.separating_set",
    "verify.run_power_sum_suite",
    "verify.run_abel_suite",
) + tuple(f"repro.{name}" for name in REPRO_CHECKS)

# every per-layer metric, with its unit; BENCHMARK.json lists the same
PER_LAYER_UNITS: dict[str, str] = {
    **{f"{name}.s": "s" for name in TIMED_SPANS},
    "constructor.construct.built_blocks": "count",
    "series.json_bytes": "bytes",
    "means.means_table.fft_points": "count",
    "means.means_table.rows": "count",
    "means.dyadic_mean2_profile.radii": "count",
    "means.means_table.threads_nproc.s": "s",
    "means.dyadic_mean2_profile.threads_nproc.s": "s",
    "densities.prefix_density_profile.horizons": "count",
    "densities.prefix_density_profile.per_horizon_ms": "ms",
    "densities.prefix_density_profile.per_horizon_ms.p90": "ms",
    "verify.check_visit.ms": "ms",
    "verify.check_visit.ms.p90": "ms",
    "verify.check_visit.calls": "count",
    "verify.check_visit.certified_ratio": "ratio",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.run_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)


class Tracer:
    """In-memory span recorder; each thread keeps its own stack of open spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        stack = self._local.__dict__.setdefault("stack", [])
        rec = Span(next(self._ids), name, 0.0, stack[-1].id if stack else None)
        self.spans.append(rec)
        stack.append(rec)
        rec.start = time.perf_counter()
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            stack.pop()

    def dump(self) -> list[dict[str, Any]]:
        return [asdict(s) for s in self.spans]


class NullTracer:
    """Stands in for Tracer when tracing is off; records nothing."""

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        yield Span(0, name, 0.0, None)


def _p_label(p_list: list[float]) -> str:
    return "-".join(sorted({"pinf" if p == math.inf else f"p{p:g}" for p in p_list}))


def _means_table(args: dict[str, Any], result: Any, attrs: dict[str, Any]) -> str:
    attrs["rows"] = len(result.rows)
    attrs["fft_points"] = sum(row.quadrature_size for row in result.rows)
    return "." + _p_label(args["p_list"])


def _check_visit(args: dict[str, Any], result: float, attrs: dict[str, Any]) -> str:
    l_bound = args["targets"].entry(args["k"]).l_bound
    attrs["certified"] = bool(result <= VISIT_GATE / l_bound)
    return ""


# a hook reads the call's bound arguments and result, fills the span's
# attrs and returns a suffix for the span name
Hook = Callable[[dict[str, Any], Any, dict[str, Any]], str]


def _set(key: str, value: Callable[[dict[str, Any], Any], Any]) -> Hook:
    def hook(args: dict[str, Any], result: Any, attrs: dict[str, Any]) -> str:
        attrs[key] = value(args, result)
        return ""

    return hook


TRACED: dict[tuple[str, str], Hook | None] = {
    ("polybank", "enumerate_targets"): None,
    ("constructor", "construct"): _set("built_blocks", lambda a, r: len(r[1].built())),
    ("constructor", "plan_blocks"): None,
    ("constructor", "visit_set"): None,
    ("means", "means_table"): _means_table,
    ("means", "fit_growth_exponent"): None,
    ("means", "dyadic_mean2_profile"): _set("radii", lambda a, r: len(a["j_list"])),
    ("densities", "prefix_density_profile"): _set("horizons", lambda a, r: len(a["horizons"])),
    ("densities", "log_weight_sum"): None,
    ("densities", "separating_set"): None,
    ("verify", "check_visit"): _check_visit,
    ("verify", "run_power_sum_suite"): None,
    ("verify", "run_abel_suite"): None,
}


def _wrap(tracer: Tracer, name: str, fn: Callable, hook: Hook | None) -> Callable:
    sig = inspect.signature(fn)

    def traced(*args: Any, **kwargs: Any) -> Any:
        with tracer.span(name) as rec:
            result = fn(*args, **kwargs)
        if hook is not None:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            rec.name += hook(bound.arguments, result, rec.attrs)
        return result

    return traced


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Record a span around every TRACED function while the block runs."""
    importlib.import_module("tsl.repro")  # binds every public name it uses
    patches = []
    for (module_name, fn_name), hook in TRACED.items():
        fn = getattr(importlib.import_module(f"tsl.{module_name}"), fn_name)
        wrapper = _wrap(tracer, f"{module_name}.{fn_name}", fn, hook)
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "tsl" or mod_name.startswith("tsl."):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        patches.append((module, attr, fn, wrapper))
    for module, attr, _, wrapper in patches:
        setattr(module, attr, wrapper)
    try:
        yield
    finally:
        for module, attr, fn, _ in patches:
            setattr(module, attr, fn)


def _family(name: str) -> str:
    """Span name without a label suffix: means.means_table.p1 -> means.means_table."""
    return ".".join(name.split(".")[:2])


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[8]


def op_metrics(spans: list[dict[str, Any]]) -> dict[str, float]:
    """Per-layer totals, counts and self times of one traced operation.

    Times sum every span of a name, set-up included; self times cover
    only the subtree of the ROOT_SPAN, so together they equal its
    duration, trace.run_s.
    """
    total: dict[str, float] = defaultdict(float)
    attrs: dict[tuple[str, str], float] = defaultdict(float)
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        seconds = s["end"] - s["start"]
        total[s["name"]] += seconds
        if s["parent"] is not None:
            covered[s["parent"]] += seconds
        for key, value in s["attrs"].items():
            attrs[_family(s["name"]), key] += value
    by_id = {s["id"]: s for s in spans}
    in_run: dict[int, bool] = {}
    self_s = dict.fromkeys(LAYERS, 0.0)
    run_s = 0.0
    visits = certified = 0
    for s in spans:  # in start order, so a parent comes before its children
        parent = s["parent"]
        in_run[s["id"]] = s["name"] == ROOT_SPAN or in_run.get(parent, False)
        if s["name"] == ROOT_SPAN:
            run_s = s["end"] - s["start"]
        if in_run[s["id"]]:
            self_s[s["name"].split(".")[0]] += s["end"] - s["start"] - covered[s["id"]]
        if s["name"] == "verify.check_visit":
            if parent is None or by_id[parent]["name"] != CONTROL_SPAN:
                visits += 1
                certified += bool(s["attrs"]["certified"])
    out = {f"{name}.s": total[name] for name in TIMED_SPANS}
    out.update(
        {
            "constructor.construct.built_blocks": attrs["constructor.construct", "built_blocks"],
            "series.json_bytes": attrs["series.json_roundtrip", "json_bytes"],
            "means.means_table.fft_points": attrs["means.means_table", "fft_points"],
            "means.means_table.rows": attrs["means.means_table", "rows"],
            "means.dyadic_mean2_profile.radii": attrs["means.dyadic_mean2_profile", "radii"],
            "densities.prefix_density_profile.horizons": attrs[
                "densities.prefix_density_profile", "horizons"
            ],
            "verify.check_visit.calls": float(sum(s["name"] == "verify.check_visit" for s in spans)),
            "verify.check_visit.certified_ratio": certified / visits if visits else 0.0,
            "trace.run_s": run_s,
        }
    )
    out.update({f"{layer}.self_s": seconds for layer, seconds in self_s.items()})
    return out


def layer_metrics(
    traced_ops: list[list[dict[str, Any]]],
    threaded_op: list[dict[str, Any]],
    untraced_run_s: float,
) -> dict[str, float]:
    """Every per-layer metric of a traced run.

    Totals, counts and self times come from the traced operation with the
    median run time, so its self times add up to its trace.run_s.
    Per-call times pool the calls of all traced operations.  The
    threads_nproc times come from one more operation run with
    TSL_THREADS set to the core count.
    """
    per_op = sorted((op_metrics(spans) for spans in traced_ops), key=lambda m: m["trace.run_s"])
    out = dict(per_op[(len(per_op) - 1) // 2])
    spans = [s for op in traced_ops for s in op]
    visit_ms = [1e3 * (s["end"] - s["start"]) for s in spans if s["name"] == "verify.check_visit"]
    horizon_ms = [
        1e3 * (s["end"] - s["start"]) / s["attrs"]["horizons"]
        for s in spans
        if s["name"] == "densities.prefix_density_profile" and s["attrs"]["horizons"]
    ]
    threaded = defaultdict(float)
    for s in threaded_op:
        threaded[_family(s["name"])] += s["end"] - s["start"]
    out.update(
        {
            "verify.check_visit.ms": _median(visit_ms),
            "verify.check_visit.ms.p90": _p90(visit_ms),
            "densities.prefix_density_profile.per_horizon_ms": _median(horizon_ms),
            "densities.prefix_density_profile.per_horizon_ms.p90": _p90(horizon_ms),
            "means.means_table.threads_nproc.s": threaded["means.means_table"],
            "means.dyadic_mean2_profile.threads_nproc.s": threaded["means.dyadic_mean2_profile"],
            "trace.overhead_s": out["trace.run_s"] - untraced_run_s,
        }
    )
    return out
