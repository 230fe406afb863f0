"""Workload shapes and the untraced measurement of one fleet run.

A workload is a fleet shape driven through the public fleet API
(``make_fleet``, ``Scenario``, ``ChaosInjector``, ``FleetSimulator.run_until``).
One *repetition* builds the fleet from the workload seed, then advances it
one *window step* at a time: step ``k`` is ``run_until(k * STEP_SECONDS)``.
Every step is one operation; it fails if it raises or if
``check_invariants`` reports a violation after it.

Engine rule: a workload sets only the shape, ``seed``, ``gpus_per_site``,
``window_duration``, ``admission``, ``control_policy``, ``profile_sharing``
and ``wan_faults`` on ``make_fleet``, and only ``scenario`` and
``control_interval`` on ``FleetSimulator``.  It never selects an engine
flag (``batched_planning``, ``preemptive_sites``, ``sanitize``,
``verify_placement``, ``clock``), so the benchmark always measures the
production default engine.
"""

from __future__ import annotations

import dataclasses
import gc
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import ContextManager, Dict, List, Optional, Tuple, Union

from hostspeed import SpeedProbe
from repro.fleet import (
    ChaosInjector,
    FlashCrowd,
    FleetController,
    FleetResult,
    FleetSimulator,
    Scenario,
    check_invariants,
    make_fleet,
)

#: Simulated seconds one window step advances (the reference window).
STEP_SECONDS = 200.0
GPUS_PER_SITE = 4
FLASH_CROWD_DATASET = "urban_traffic"


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a fleet shape plus the events injected into it."""

    name: str
    why: str
    num_sites: int
    streams_per_site: int
    steps: int
    window_duration: Union[float, Tuple[float, ...]] = STEP_SECONDS
    control_policy: str = "greedy"
    control_interval: Optional[float] = None
    profile_sharing: bool = False
    #: ``ChaosInjector`` intensity; 0 injects no faults and no WAN loss.
    chaos_intensity: float = 0.0
    #: Streams of ``FLASH_CROWD_DATASET`` arriving at a third of the horizon.
    flash_crowd_streams: int = 0

    @property
    def initial_streams(self) -> int:
        return self.num_sites * self.streams_per_site

    def shape(self) -> Dict[str, object]:
        """JSON-friendly description of the shape, printed with every result."""
        shape = dataclasses.asdict(self)
        shape.pop("why")
        return shape


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="long_horizon",
            why=(
                "2 sites x 10 streams, 50 windows, greedy control: the drift "
                "oracle replays its walk from window 0, so per-window cost "
                "grows with the horizon"
            ),
            num_sites=2,
            streams_per_site=10,
            steps=50,
        ),
        Workload(
            name="wide_fleet",
            why=(
                "16 sites x 25 streams, 12 windows: 16 same-instant boundaries "
                "of 25-stream thief solves give the largest planner share, and "
                "the short horizon keeps drift replay cheap"
            ),
            num_sites=16,
            streams_per_site=25,
            steps=12,
        ),
        Workload(
            name="churn",
            why=(
                "6 sites x 6 streams, 150/200/250 s windows over 27 steps, chaos "
                "faults, a flash crowd, predictive 50 s control, profile "
                "sharing: migrations and restarts mutate what the oracle reads"
            ),
            num_sites=6,
            streams_per_site=6,
            steps=27,
            window_duration=(150.0, 200.0, 250.0),
            control_policy="predictive",
            control_interval=50.0,
            profile_sharing=True,
            chaos_intensity=2.0,
            flash_crowd_streams=12,
        ),
    )
}


def build(workload: Workload, seed: int) -> Tuple[FleetController, FleetSimulator]:
    """Generate the workload's inputs from ``seed`` and build the simulator.

    This is the benchmark's set-up: ``make_fleet``, scenario compile and
    ``FleetSimulator`` construction.
    """
    injector = ChaosInjector(seed=seed, intensity=workload.chaos_intensity)
    controller = make_fleet(
        workload.num_sites,
        workload.streams_per_site,
        seed=seed,
        gpus_per_site=GPUS_PER_SITE,
        window_duration=workload.window_duration,
        control_policy=workload.control_policy,
        profile_sharing=workload.profile_sharing,
        wan_faults=injector.wan_faults(),
    )
    scenario = injector.compile(
        [site.name for site in controller.sites],
        window_duration=STEP_SECONDS,
        num_windows=workload.steps,
        gpus_per_site=GPUS_PER_SITE,
    )
    events = list(scenario.events)
    if workload.flash_crowd_streams:
        events.append(
            FlashCrowd(
                at_seconds=workload.steps * STEP_SECONDS / 3.0,
                num_streams=workload.flash_crowd_streams,
                dataset=FLASH_CROWD_DATASET,
            )
        )
    simulator = FleetSimulator(
        controller,
        Scenario(events),
        control_interval=workload.control_interval,
    )
    return controller, simulator


@dataclass
class Repetition:
    """Host times and outcomes of one full workload run.

    Each host time is kept raw and at reference speed (``hostspeed``).
    """

    setup_s: float
    setup_ref_s: float
    #: Host seconds of each window step, in step order.
    step_s: List[float]
    step_ref_s: List[float]
    #: Stream-window outcomes settled during each window step.
    step_stream_windows: List[int]
    attempted: int
    failed: int
    violations: List[str]
    #: ``summary()`` of the cumulative result without host-time fields: a
    #: pure function of the seed (empty if the first step raised).
    summary: Dict[str, object]
    #: Stream-window outcomes settled over the whole horizon.
    stream_windows: int
    #: Events the telemetry plane recorded over the whole horizon.
    events_recorded: int


def timed_setup(
    workload: Workload, seed: int, speed: SpeedProbe
) -> Tuple[Tuple[FleetController, FleetSimulator], float, float]:
    """Build the workload; returns it with its raw and reference-speed set-up time."""
    gc.collect()
    start = time.perf_counter()
    built = build(workload, seed)
    elapsed = time.perf_counter() - start
    return built, elapsed, speed.scale(elapsed)


def run_repetition(
    workload: Workload,
    seed: int,
    speed: SpeedProbe,
    *,
    around_steps: Optional[ContextManager] = None,
) -> Repetition:
    """Set up and run every window step of ``workload`` once.

    ``around_steps`` is an optional context manager entered after set-up
    and held across the steps (the traced run installs its wrappers with it).
    Only the ``run_until`` calls are timed as steps; the speed probe and the
    invariant check after each step are not.
    """
    (controller, simulator), setup_s, setup_ref_s = timed_setup(workload, seed, speed)
    windows: List = []
    latest: Optional[FleetResult] = None
    step_s: List[float] = []
    step_ref_s: List[float] = []
    step_stream_windows: List[int] = []
    settled = 0
    violations: List[str] = []
    failed = 0
    with around_steps if around_steps is not None else nullcontext():
        for k in range(1, workload.steps + 1):
            start = time.perf_counter()
            try:
                step = simulator.run_until(k * STEP_SECONDS)
            except Exception as exc:  # one failed operation; the run cannot go on
                violations.append(f"step {k}: {type(exc).__name__}: {exc}")
                failed += 1
                break
            elapsed = time.perf_counter() - start
            step_s.append(elapsed)
            step_ref_s.append(speed.scale(elapsed))
            windows.extend(step.windows)
            total = sum(len(window.stream_outcomes) for window in windows)
            step_stream_windows.append(total - settled)
            settled = total
            # Cycles are returned once but keep accumulating late events, so
            # the cumulative result is the list of every cycle object so far,
            # stamped with the latest (cumulative) telemetry and control gauges.
            latest = dataclasses.replace(step, windows=list(windows))
            problems = check_invariants(
                controller, latest, initial_streams=workload.initial_streams
            )
            if problems:
                failed += 1
                violations.extend(f"step {k}: {problem}" for problem in problems)
    summary: Dict[str, object] = {}
    if latest is not None:
        summary = latest.summary()
        summary.pop("wall_clock_seconds")  # host time, not a simulated outcome
    return Repetition(
        setup_s=setup_s,
        setup_ref_s=setup_ref_s,
        step_s=step_s,
        step_ref_s=step_ref_s,
        step_stream_windows=step_stream_windows,
        attempted=len(step_s) + (1 if len(step_s) < workload.steps else 0),
        failed=failed,
        violations=violations,
        summary=summary,
        stream_windows=settled,
        events_recorded=simulator.telemetry.events_recorded,
    )
