"""Outside-in span tracing of a fleet run, layer by layer.

The traced run wraps the public entry points of each layer (a class
attribute, or a module-level binding such as ``place_jobs`` as imported by
``repro.simulation.simulator``) from the benchmark's own code, so nothing
under ``src/`` is edited.  ``FleetSimulator.run_until`` is the root span:
each root opens one window step, and its span id is the step id that every
span under it carries.  Calls made outside a root (set-up) are not traced.

Spans live in memory as parallel columns and are written out once, when the
run ends.  A layer's self time is its spans' time minus the time their
direct child spans cover; its busy time counts only spans with no enclosing
span of the same layer, so recursion through a layer is not double counted.

An entry point that no longer exists (or is now only inherited) is reported
absent instead of failing the run; its layer's metrics read zero.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

ROOT_LAYER = "fleet.simulator"


def _count_schedule(counters: Counter, plan: object) -> None:
    """Sum the thief's work counters off every planned window's schedule."""
    schedule = getattr(plan, "schedule", None)
    if schedule is not None:
        counters["core.thief.iterations"] += schedule.iterations
        counters["core.thief.pick_configs_evaluations"] += (
            schedule.pick_configs_evaluations
        )


@dataclass(frozen=True)
class EntryPoint:
    """One wrapped callable: ``module.owner.attr`` (or ``module.attr``)."""

    layer: str
    module: str
    owner: Optional[str]
    attr: str
    #: Called with the tracer's counters and the entry point's return value.
    observe: Optional[Callable[[Counter, object], None]] = None

    @property
    def label(self) -> str:
        owner = f"{self.owner}." if self.owner else ""
        return f"{self.module}.{owner}{self.attr}"


ENTRY_POINTS: Tuple[EntryPoint, ...] = (
    EntryPoint(ROOT_LAYER, "repro.fleet.simulator", "FleetSimulator", "run_until"),
    EntryPoint("fleet.calendar", "repro.fleet.calendar", "EventCalendar", "schedule"),
    EntryPoint("fleet.calendar", "repro.fleet.calendar", "EventCalendar", "pop"),
    EntryPoint("core.controller", "repro.core.controller", "EkyaPolicy", "prepare_request"),
    EntryPoint(
        "core.microprofiler", "repro.core.microprofiler", "OracleProfileSource", "profile"
    ),
    EntryPoint(
        "core.microprofiler", "repro.core.microprofiler", "SharedProfileOracle", "profile"
    ),
    EntryPoint(
        "profiles.dynamics", "repro.profiles.dynamics", "AnalyticDynamics", "start_accuracy"
    ),
    EntryPoint(
        "profiles.dynamics",
        "repro.profiles.dynamics",
        "AnalyticDynamics",
        "candidate_post_accuracy",
    ),
    EntryPoint(
        "profiles.dynamics", "repro.profiles.dynamics", "AnalyticDynamics", "commit_window"
    ),
    EntryPoint(
        "datasets.drift", "repro.datasets.drift", "AppearanceDrift", "offsets_for_window"
    ),
    EntryPoint("core.thief", "repro.core.thief", "ThiefScheduler", "schedule"),
    EntryPoint(
        "core.thief", "repro.core.batched_planner", "BatchedThiefScheduler", "schedule_cohort"
    ),
    EntryPoint("cluster.placement", "repro.simulation.simulator", None, "place_jobs"),
    EntryPoint(
        "simulation.simulator.plan_window",
        "repro.simulation.simulator",
        "Simulator",
        "plan_window",
        observe=_count_schedule,
    ),
    EntryPoint(
        "simulation.simulator.settle_stream",
        "repro.simulation.simulator",
        "Simulator",
        "settle_stream",
    ),
    EntryPoint("fleet.controller", "repro.fleet.controller", "FleetController", "rebalance"),
    EntryPoint("fleet.controller", "repro.fleet.controller", "FleetController", "fail_site"),
    EntryPoint(
        "fleet.controller", "repro.fleet.controller", "FleetController", "spawn_streams"
    ),
    EntryPoint("fleet.telemetry", "repro.fleet.telemetry", "TelemetryPlane", "record_event"),
    EntryPoint(
        "fleet.telemetry", "repro.fleet.telemetry", "TelemetryPlane", "record_site_stats"
    ),
    EntryPoint(
        "fleet.telemetry", "repro.fleet.telemetry", "TelemetryPlane", "observe_streams"
    ),
    EntryPoint("profiles.fleet_store", "repro.profiles.fleet_store", "FleetProfileStore", "push"),
)

#: Layers in report order; the root first.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(ep.layer for ep in ENTRY_POINTS))

#: Per-layer metric suffixes with their unit and better direction.
LAYER_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("calls", "count", "lower"),
    ("busy_s", "s", "lower"),
    ("self_s", "s", "lower"),
    ("self_share", "fraction", "lower"),
)

#: Metrics of single layers beyond the four every layer reports.
EXTRA_METRICS: Dict[str, Tuple[str, str]] = {
    "profiles.dynamics.queries_per_stream_window": ("ratio", "lower"),
    "datasets.drift.calls_per_stream_window": ("ratio", "lower"),
    "core.thief.pick_configs_evaluations": ("count", "lower"),
    "core.thief.iterations": ("count", "lower"),
    "fleet.calendar.events": ("count", "lower"),
    "core.thief.ms_p50": ("ms", "lower"),
    "core.thief.ms_p90": ("ms", "lower"),
    "simulation.simulator.plan_window.ms_p50": ("ms", "lower"),
    "simulation.simulator.plan_window.ms_p90": ("ms", "lower"),
    "fleet.controller.migrations": ("count", "lower"),
    "fleet.controller.scans_skipped": ("count", "higher"),
    "fleet.controller.migrations_rejected": ("count", "lower"),
    "fleet.faults.transfers_failed": ("count", "lower"),
    "fleet.faults.transfer_retries": ("count", "lower"),
    "fleet.telemetry.events_dropped": ("count", "lower"),
    "fleet.telemetry.ring_occupancy": ("count", "lower"),
    "trace.coverage": ("fraction", "higher"),
    "trace.overhead": ("ratio", "lower"),
}

#: ``FleetResult.summary()`` counts reported as per-layer metrics.
SUMMARY_COUNTS: Dict[str, str] = {
    "fleet.controller.migrations": "migration_count",
    "fleet.controller.scans_skipped": "control_scans_skipped",
    "fleet.controller.migrations_rejected": "migrations_rejected",
    "fleet.faults.transfers_failed": "transfers_failed",
    "fleet.faults.transfer_retries": "transfer_retries",
    "fleet.telemetry.events_dropped": "telemetry_events_dropped",
    "fleet.telemetry.ring_occupancy": "telemetry_ring_occupancy",
}


def per_layer_metrics() -> Dict[str, Tuple[str, str]]:
    """Every per-layer metric name with its (unit, better), in report order."""
    metrics = {
        f"{layer}.{suffix}": (unit, better)
        for layer in LAYERS
        for suffix, unit, better in LAYER_METRICS
    }
    metrics.update(EXTRA_METRICS)
    return metrics


#: Metrics that are exact counts (or ratios of exact counts): they must
#: repeat bit for bit across runs of one seed.
EXACT_METRICS: Tuple[str, ...] = tuple(
    [f"{layer}.calls" for layer in LAYERS]
    + [name for name, (unit, _) in EXTRA_METRICS.items() if unit == "count"]
    + [
        "profiles.dynamics.queries_per_stream_window",
        "datasets.drift.calls_per_stream_window",
    ]
)


def _resolve(entry: EntryPoint) -> Optional[object]:
    """The object whose own namespace defines the entry point, or ``None``."""
    try:
        owner: object = importlib.import_module(entry.module)
    except ImportError:
        return None
    if entry.owner is not None:
        owner = getattr(owner, entry.owner, None)
        if owner is None:
            return None
    # Only wrap what the owner defines itself: wrapping an inherited
    # attribute would double-wrap the base class's entry point.
    if not callable(vars(owner).get(entry.attr)):
        return None
    return owner


class Tracer:
    """Installs span wrappers on enter and removes them on exit."""

    def __init__(self) -> None:
        #: Labels of entry points not found at install time.
        self.absent: List[str] = []
        self.counters: Counter = Counter()
        # Span columns, indexed by span id (ids are assigned at span start,
        # so a parent's id is always below its children's).
        self.entry: List[int] = []
        self.parent: List[int] = []
        self.step: List[int] = []
        self.start: List[float] = []
        self.end: List[float] = []
        self._stack: List[int] = []
        self._installed: List[Tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for index, entry in enumerate(ENTRY_POINTS):
            owner = _resolve(entry)
            if owner is None:
                self.absent.append(entry.label)
                continue
            original = vars(owner)[entry.attr]
            setattr(owner, entry.attr, self._wrap(index, entry, original))
            self._installed.append((owner, entry.attr, original))
        return self

    def __exit__(self, *exc_info: object) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _wrap(self, index: int, entry: EntryPoint, fn: Callable) -> Callable:
        root = entry.layer == ROOT_LAYER
        observe = entry.observe
        counters = self.counters
        spans_entry, spans_parent, spans_step = self.entry, self.parent, self.step
        spans_start, spans_end, stack = self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack and not root:
                return fn(*args, **kwargs)
            span = len(spans_entry)
            spans_entry.append(index)
            spans_parent.append(stack[-1] if stack else -1)
            spans_step.append(stack[0] if stack else span)
            spans_end.append(0.0)
            stack.append(span)
            spans_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                spans_end[span] = clock()
                stack.pop()
            if observe is not None:
                observe(counters, result)
            return result

        return traced

    # ---------------------------------------------------------------- analysis
    def layer_metrics(self, stream_windows: int) -> Dict[str, float]:
        """Per-layer calls, busy/self time and latency percentiles."""
        layer_index = {layer: i for i, layer in enumerate(LAYERS)}
        entry_layer = [layer_index[ep.layer] for ep in ENTRY_POINTS]
        layer = [entry_layer[e] for e in self.entry]
        parent = self.parent
        duration = np.asarray(self.end) - np.asarray(self.start)
        layer_arr = np.asarray(layer, dtype=np.int64)
        parent_arr = np.asarray(parent, dtype=np.int64)
        has_parent = parent_arr >= 0
        child_time = np.bincount(
            parent_arr[has_parent], weights=duration[has_parent], minlength=len(layer)
        )
        self_time = duration - child_time
        # outermost[i]: no enclosing span belongs to span i's layer.
        ancestors = [0] * len(layer)
        outermost = np.ones(len(layer), dtype=bool)
        for span, up in enumerate(parent):
            if up >= 0:
                mask = ancestors[up] | (1 << layer[up])
                ancestors[span] = mask
                outermost[span] = not (mask >> layer[span]) & 1
        root_total = float(duration[layer_arr == layer_index[ROOT_LAYER]].sum())
        metrics: Dict[str, float] = {}
        for i, name in enumerate(LAYERS):
            mine = layer_arr == i
            self_s = float(self_time[mine].sum())
            metrics[f"{name}.calls"] = int(mine.sum())
            metrics[f"{name}.busy_s"] = float(duration[mine & outermost].sum())
            metrics[f"{name}.self_s"] = self_s
            metrics[f"{name}.self_share"] = self_s / root_total if root_total else 0.0
        metrics["trace.coverage"] = (
            1.0 - metrics[f"{ROOT_LAYER}.self_s"] / root_total if root_total else 0.0
        )
        calls = Counter(self.entry)
        queries = sum(
            calls[e]
            for e, ep in enumerate(ENTRY_POINTS)
            if ep.layer == "profiles.dynamics"
            and ep.attr in ("start_accuracy", "candidate_post_accuracy")
        )
        per_window = max(stream_windows, 1)
        metrics["profiles.dynamics.queries_per_stream_window"] = queries / per_window
        metrics["datasets.drift.calls_per_stream_window"] = (
            metrics["datasets.drift.calls"] / per_window
        )
        metrics["core.thief.iterations"] = self.counters["core.thief.iterations"]
        metrics["core.thief.pick_configs_evaluations"] = self.counters[
            "core.thief.pick_configs_evaluations"
        ]
        for name in ("core.thief", "simulation.simulator.plan_window"):
            samples = duration[(layer_arr == layer_index[name]) & outermost] * 1e3
            for q in (50, 90):
                metrics[f"{name}.ms_p{q}"] = (
                    float(np.percentile(samples, q)) if samples.size else 0.0
                )
        return metrics

    def write(self, path: Path) -> None:
        """Write every span to ``path`` (compressed ``.npz`` columns)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.start[0] if self.start else 0.0
        np.savez_compressed(
            path,
            entry_points=np.asarray([ep.label for ep in ENTRY_POINTS]),
            layers=np.asarray([ep.layer for ep in ENTRY_POINTS]),
            absent=np.asarray(self.absent, dtype=str),
            entry=np.asarray(self.entry, dtype=np.int16),
            parent=np.asarray(self.parent, dtype=np.int64),
            step=np.asarray(self.step, dtype=np.int64),
            start=np.asarray(self.start) - origin,
            end=np.asarray(self.end) - origin,
        )
