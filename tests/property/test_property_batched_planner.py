"""Property suite: the batched planner equals the scalar oracle bit for bit.

The :class:`~repro.core.batched_planner.BatchedThiefScheduler` — the only
planner :class:`~repro.core.controller.EkyaPolicy` runs — stacks every
stream's lattice into one numpy evaluation, but its contract is *decision
equivalence*: identical decisions, iteration and PickConfigs-evaluation
counters and estimated accuracies to :class:`~repro.core.ThiefScheduler` on
any request.  The scalar thief is the reference oracle — these properties
fuzz randomized problems (pruned grids, hand-built accuracy landscapes) and
whole fleets under chaos (degraded and empty sites, per-site windows, flash
crowds, both control policies), and compare the two paths field by field
with ``==``, never with tolerances.
"""

from contextlib import contextmanager, nullcontext
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import EdgeServerSpec
from repro.configs import (
    ConfigurationSpace,
    InferenceConfig,
    RetrainingConfig,
    default_inference_configs,
    default_retraining_grid,
)
from repro.core import (
    EkyaPolicy,
    OracleProfileSource,
    ScheduleRequest,
    StreamWindowInput,
    ThiefScheduler,
)
from repro.core import controller as controller_module
from repro.core.batched_planner import BatchedThiefScheduler
from repro.datasets import make_workload
from repro.fleet import ChaosInjector, FlashCrowd, Scenario
from repro.fleet.calendar import ScenarioTrigger
from repro.fleet.factory import make_fleet
from repro.fleet.simulator import FleetSimulator
from repro.profiles import AnalyticDynamics, RetrainingEstimate, StreamWindowProfile
from repro.utils.clock import ManualClock

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def assert_schedules_identical(scalar, batched):
    """The equivalence contract, field by field, all exact."""
    assert batched.decisions == scalar.decisions
    assert batched.iterations == scalar.iterations
    assert batched.pick_configs_evaluations == scalar.pick_configs_evaluations
    assert batched.estimated_average_accuracy == scalar.estimated_average_accuracy


def build_oracle_request(num_streams, num_gpus, seed, grid, inference_configs, delta):
    """A randomized oracle-profiled scheduling problem (one fleet window)."""
    space = ConfigurationSpace(
        retraining_configs=grid, inference_configs=inference_configs
    )
    streams = make_workload("cityscapes", num_streams, seed=seed)
    spec = EdgeServerSpec(num_gpus=num_gpus, delta=delta, window_duration=200.0)
    policy = EkyaPolicy(
        OracleProfileSource(AnalyticDynamics(seed=seed), seed=seed),
        space,
        steal_quantum=delta,
    )
    return policy.build_request(streams, 0, spec)


class TestRandomizedRequests:
    """Scalar-vs-batched over randomized oracle problems."""

    @settings(
        max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        num_streams=st.integers(min_value=1, max_value=8),
        num_gpus=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=10_000),
        epochs=st.sampled_from([(5,), (5, 15), (5, 15, 30)]),
        layers=st.sampled_from([(1.0,), (0.5, 1.0)]),
        fractions=st.sampled_from([(1.0,), (0.2, 1.0), (0.2, 0.5, 1.0)]),
        sampling=st.sampled_from([(1.0,), (1.0, 0.5), (1.0, 0.5, 0.25)]),
        prune=st.integers(min_value=1, max_value=18),
        delta=st.sampled_from([0.1, 0.25, 0.5]),
    )
    def test_decisions_bit_identical(
        self, num_streams, num_gpus, seed, epochs, layers, fractions, sampling, prune, delta
    ):
        """Any grid shape x fleet size x pruning depth: exact equivalence.

        ``prune`` truncates the retraining grid the way ``max_configs``
        pruning does before a request is built, so degenerate one-config
        lattices and ragged stacks are all exercised.
        """
        grid = default_retraining_grid(
            epochs=epochs, layers_trained=layers, data_fractions=fractions
        )[:prune]
        inference_configs = default_inference_configs(sampling_rates=sampling)
        request = build_oracle_request(
            num_streams, num_gpus, seed, grid, inference_configs, delta
        )
        scalar = ThiefScheduler(steal_quantum=delta).schedule(request)
        batched = BatchedThiefScheduler(steal_quantum=delta).schedule(request)
        assert_schedules_identical(scalar, batched)


def _stream_input(name, start, post, cost):
    """A hand-built stream: one retraining estimate, three inference tiers."""
    profile = StreamWindowProfile(stream_name=name, window_index=0, start_accuracy=start)
    profile.add(
        RetrainingEstimate(
            config=RetrainingConfig(epochs=15),
            post_retraining_accuracy=post,
            gpu_seconds=cost,
        )
    )
    inference_configs = [
        InferenceConfig(frame_sampling_rate=1.0, gpu_demand=0.25),
        InferenceConfig(frame_sampling_rate=0.5, gpu_demand=0.1),
        InferenceConfig(frame_sampling_rate=0.25, resolution_scale=0.5, gpu_demand=0.03),
    ]
    return StreamWindowInput(
        stream_name=name, profile=profile, inference_configs=inference_configs
    )


class TestHandBuiltLandscapes:
    """Equivalence on synthetic accuracy landscapes the oracle never makes."""

    stream_spec = st.tuples(unit, unit, st.floats(min_value=5.0, max_value=150.0))

    @settings(max_examples=25, deadline=None)
    @given(
        stream_specs=st.lists(stream_spec, min_size=1, max_size=5),
        num_gpus=st.integers(min_value=1, max_value=4),
        quantum=st.sampled_from([0.1, 0.25, 0.5]),
    )
    def test_arbitrary_profiles_bit_identical(self, stream_specs, num_gpus, quantum):
        streams = {
            f"cam-{i}": _stream_input(f"cam-{i}", start, post, cost)
            for i, (start, post, cost) in enumerate(stream_specs)
        }
        request = ScheduleRequest(
            window_index=0,
            window_seconds=200.0,
            total_gpus=float(num_gpus),
            delta=0.1,
            a_min=0.3,
            streams=streams,
        )
        scalar = ThiefScheduler(steal_quantum=quantum).schedule(request)
        batched = BatchedThiefScheduler(steal_quantum=quantum).schedule(request)
        assert_schedules_identical(scalar, batched)


class TestUnderProvisionedRelease:
    """Pin the level-*dependent* post-retraining factor path.

    The retraining share rejoins inference after retraining, so the factor
    applied after it depends on the level only when even the
    post-window GPU share under-provisions the chosen inference config —
    the one region where the batched path must fall back from its collapsed
    ``(row, config)`` arithmetic to the full ``(row, level, config)`` tensor
    and run the scalar power law per under-provisioned level.  A config
    demanding a full GPU on a small lattice forces that region.
    """

    @staticmethod
    def _greedy_stream(name, demand):
        profile = StreamWindowProfile(
            stream_name=name, window_index=0, start_accuracy=0.5
        )
        profile.add(
            RetrainingEstimate(
                config=RetrainingConfig(epochs=15),
                post_retraining_accuracy=0.95,
                gpu_seconds=60.0,
            )
        )
        profile.add(
            RetrainingEstimate(
                config=RetrainingConfig(epochs=30),
                post_retraining_accuracy=0.9,
                gpu_seconds=30.0,
            )
        )
        return StreamWindowInput(
            stream_name=name,
            profile=profile,
            inference_configs=[
                InferenceConfig(frame_sampling_rate=1.0, gpu_demand=demand)
            ],
        )

    @settings(max_examples=20, deadline=None)
    @given(
        num_streams=st.integers(min_value=1, max_value=4),
        demand=st.floats(min_value=0.5, max_value=2.0),
        quantum=st.sampled_from([0.1, 0.25, 0.5]),
    )
    def test_under_provisioned_levels_bit_identical(self, num_streams, demand, quantum):
        streams = {
            f"cam-{i}": self._greedy_stream(f"cam-{i}", demand)
            for i in range(num_streams)
        }
        request = ScheduleRequest(
            window_index=0,
            window_seconds=200.0,
            total_gpus=2.0,
            delta=0.25,
            a_min=0.3,
            streams=streams,
        )
        scalar = ThiefScheduler(steal_quantum=quantum).schedule(request)
        batched = BatchedThiefScheduler(steal_quantum=quantum).schedule(request)
        assert_schedules_identical(scalar, batched)


class TestObjectiveTieBreak:
    """Pin the tie-break: equal objectives resolve to the earliest candidate.

    The scalar ``_sequential_select`` automaton only replaces the incumbent
    on a *strictly* better objective, so among tied candidates the first in
    scan order wins.  That ordering is observable in the decisions, and the
    batched argmax must reproduce it — a ``>=`` in the wrong place would
    flip winners silently without moving any accuracy.
    """

    def _tied_request(self):
        profile = StreamWindowProfile(
            stream_name="tied", window_index=0, start_accuracy=0.5
        )
        # Two distinct configs with identical outcomes: a perfect objective
        # tie between scan positions 0 and 1.
        profile.add(
            RetrainingEstimate(
                config=RetrainingConfig(epochs=15),
                post_retraining_accuracy=0.9,
                gpu_seconds=40.0,
            )
        )
        profile.add(
            RetrainingEstimate(
                config=RetrainingConfig(epochs=30),
                post_retraining_accuracy=0.9,
                gpu_seconds=40.0,
            )
        )
        stream = StreamWindowInput(
            stream_name="tied",
            profile=profile,
            inference_configs=[InferenceConfig(frame_sampling_rate=1.0, gpu_demand=0.25)],
        )
        return ScheduleRequest(
            window_index=0,
            window_seconds=200.0,
            total_gpus=2.0,
            delta=0.25,
            a_min=0.3,
            streams={"tied": stream},
        )

    def test_tied_candidates_resolve_to_first_in_scan_order(self):
        request = self._tied_request()
        scalar = ThiefScheduler(steal_quantum=0.25).schedule(request)
        batched = BatchedThiefScheduler(steal_quantum=0.25).schedule(request)
        assert_schedules_identical(scalar, batched)
        decision = batched.decisions["tied"]
        if decision.retraining_config is not None:
            assert decision.retraining_config == RetrainingConfig(epochs=15)

    def test_tie_break_is_pinned_even_when_retraining_wins(self):
        """With ample GPU the tied retraining pair is chosen — and it must
        be the epochs=15 entry (scan position 0), under both schedulers."""
        request = self._tied_request()
        for scheduler in (
            ThiefScheduler(steal_quantum=0.25),
            BatchedThiefScheduler(steal_quantum=0.25),
        ):
            decision = scheduler.schedule(request).decisions["tied"]
            assert decision.retraining_config == RetrainingConfig(epochs=15)


#: Fleet horizon of the differential test, in 200 s reference windows.
DIFFERENTIAL_WINDOWS = 4
DIFFERENTIAL_HORIZON = DIFFERENTIAL_WINDOWS * 200.0


@contextmanager
def scalar_oracle_planner():
    """Build fleets whose ``EkyaPolicy`` plans with the scalar thief.

    Production has no planner option; the oracle side of the differential
    test swaps the class ``EkyaPolicy`` constructs, for construction only.
    """
    with mock.patch.object(controller_module, "BatchedThiefScheduler", ThiefScheduler):
        yield


def run_differential_fleet(
    *,
    seed,
    num_sites,
    streams_per_site,
    gpus_per_site,
    window_duration,
    control_policy,
    control_interval,
    profile_sharing,
    chaos_seed,
    chaos_intensity,
    flash_crowd_streams,
    degrade=False,
    scalar=False,
):
    """One fleet run under chaos; returns the simulator and its result."""
    clock = ManualClock()
    injector = ChaosInjector(seed=chaos_seed, intensity=chaos_intensity)
    with scalar_oracle_planner() if scalar else nullcontext():
        controller = make_fleet(
            num_sites,
            streams_per_site,
            gpus_per_site=gpus_per_site,
            window_duration=window_duration,
            seed=seed,
            clock=clock,
            control_policy=control_policy,
            profile_sharing=profile_sharing,
            wan_faults=injector.wan_faults(),
        )
    expected = ThiefScheduler if scalar else BatchedThiefScheduler
    assert all(type(site.policy.scheduler) is expected for site in controller.sites)
    if degrade and gpus_per_site > 1:
        controller.sites[0].degrade_gpus(1)
    events = list(
        injector.compile(
            [site.name for site in controller.sites],
            window_duration=200.0,
            num_windows=DIFFERENTIAL_WINDOWS,
            gpus_per_site=gpus_per_site,
        ).events
    )
    if flash_crowd_streams:
        events.append(
            FlashCrowd(at_seconds=DIFFERENTIAL_HORIZON / 3.0, num_streams=flash_crowd_streams)
        )
    simulator = FleetSimulator(
        controller, Scenario(events), clock=clock, control_interval=control_interval
    )
    return simulator, simulator.run_until(DIFFERENTIAL_HORIZON)


def site_window_counters(result):
    """Each planned site-window's thief work counters, in cycle order."""
    return [
        (
            window.window_index,
            site,
            site_result.schedule.iterations,
            site_result.schedule.pick_configs_evaluations,
        )
        for window in result.windows
        for site, site_result in window.site_results.items()
    ]


#: Every event kind a fleet run dispatches; scenario triggers count by payload.
ALL_EVENT_KINDS = {
    "ControlTick",
    "FlashCrowd",
    "GpuFailure",
    "GpuRecovered",
    "InferenceReconfigured",
    "MigrationStarted",
    "ProfilePush",
    "RetrainingComplete",
    "SiteFailure",
    "SiteRecovery",
    "TransferArrival",
    "TransferFailed",
    "WanDegradation",
    "WanRestore",
    "WindowBoundary",
}


def event_kinds(simulator):
    """Event types a run dispatched; scenario triggers by their payload."""
    kinds = set()
    for event in simulator.event_trace:
        if isinstance(event, ScenarioTrigger) and event.event is not None:
            kinds.add(type(event.event).__name__)
        else:
            kinds.add(type(event).__name__)
    return kinds


def assert_fleet_runs_identical(**params):
    """The batched fleet reproduces the scalar-oracle fleet bit for bit."""
    oracle_sim, oracle = run_differential_fleet(scalar=True, **params)
    batched_sim, batched = run_differential_fleet(**params)
    assert batched.summary() == oracle.summary()
    assert [w.mean_accuracy for w in batched.windows] == [
        w.mean_accuracy for w in oracle.windows
    ]
    assert site_window_counters(batched) == site_window_counters(oracle)
    assert batched_sim.event_trace == oracle_sim.event_trace
    return event_kinds(batched_sim)


class TestRandomizedFleets:
    """Whole fleets under chaos: the batched planner vs the scalar oracle."""

    @settings(
        max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        num_sites=st.integers(min_value=2, max_value=3),
        streams_per_site=st.integers(min_value=0, max_value=3),
        gpus_per_site=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=1_000),
        window_duration=st.sampled_from([200.0, (150.0, 200.0, 250.0), (100.0, 200.0)]),
        control_policy=st.sampled_from(["greedy", "predictive"]),
        control_interval=st.sampled_from([None, 50.0, 120.0]),
        profile_sharing=st.booleans(),
        chaos_seed=st.integers(min_value=0, max_value=10_000),
        chaos_intensity=st.sampled_from([0.0, 1.0, 2.0]),
        flash_crowd_streams=st.integers(min_value=0, max_value=4),
        degrade=st.booleans(),
    )
    def test_fleet_summaries_bit_identical(self, **params):
        """Randomized fleets — empty sites, degraded GPUs, per-site window
        lengths, chaos faults, flash crowds, both control policies on their
        own cadence, profile sharing — summarize, average per window and
        count thief work identically under the batched planner and the
        scalar oracle."""
        assert_fleet_runs_identical(**params)

    def test_heterogeneous_window_cohorts_bit_identical(self):
        """Staggered per-site calendars with chaos and a flash crowd: sites
        whose boundaries coincide plan one after another, and the result
        still matches the scalar oracle.  The fixture reaches every event
        kind the engine dispatches, so each one is covered by the
        differential check."""
        kinds = assert_fleet_runs_identical(
            seed=11,
            num_sites=3,
            streams_per_site=3,
            gpus_per_site=3,
            window_duration=(150.0, 200.0, 250.0),
            control_policy="predictive",
            control_interval=50.0,
            profile_sharing=True,
            chaos_seed=0,
            chaos_intensity=2.0,
            flash_crowd_streams=4,
        )
        assert kinds == ALL_EVENT_KINDS
