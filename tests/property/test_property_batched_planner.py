"""Property suite: the batched planner equals the scalar oracle bit for bit.

The :class:`~repro.core.batched_planner.BatchedThiefScheduler` stacks every
stream's lattice into one numpy evaluation, but its contract is *decision
equivalence*: identical decisions, iteration and PickConfigs-evaluation
counters and estimated accuracies to :class:`~repro.core.ThiefScheduler` on
any request.  The scalar thief is the reference oracle — these properties
fuzz randomized problems (fleet shapes, pruned grids, degraded sites, empty
sites, hand-built accuracy landscapes) and compare the two
paths field by field with ``==``, never with tolerances.
"""

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
from repro.core.batched_planner import BatchedThiefScheduler
from repro.datasets import make_workload
from repro.fleet.factory import make_fleet
from repro.fleet.simulator import FleetSimulator
from repro.profiles import AnalyticDynamics, RetrainingEstimate, StreamWindowProfile

#: Deterministic fleet-summary fields (seed-fixed, no wall-clock content):
#: the batched path must reproduce each one bit for bit.
FLEET_PARITY_FIELDS = (
    "mean_accuracy",
    "p10_worst_stream_accuracy",
    "migration_count",
    "mean_utilization",
    "mean_allocation_loss",
)

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

    With ``release_retraining_gpu_to_inference`` (the default), the factor
    applied after retraining depends on the level only when even the
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


class TestRandomizedFleets:
    """Whole-fleet cohort planning vs the scalar event loop, bit for bit."""

    @settings(
        max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        num_sites=st.integers(min_value=1, max_value=3),
        streams_per_site=st.integers(min_value=0, max_value=3),
        gpus_per_site=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=1_000),
        degrade=st.booleans(),
    )
    def test_fleet_summaries_bit_identical(
        self, num_sites, streams_per_site, gpus_per_site, seed, degrade
    ):
        """Randomized fleets — including empty sites (``streams_per_site=0``)
        and degraded GPUs — summarize identically with cohort batching on and
        off."""
        summaries = {}
        windows = {}
        for batched in (False, True):
            controller = make_fleet(
                num_sites,
                streams_per_site,
                gpus_per_site=gpus_per_site,
                seed=seed,
                batched_planning=batched,
            )
            if degrade and gpus_per_site > 1:
                controller.sites[0].degrade_gpus(1)
            result = FleetSimulator(controller).run(2)
            summaries[batched] = result.summary()
            windows[batched] = [w.mean_accuracy for w in result.windows]
        for field in FLEET_PARITY_FIELDS:
            assert summaries[True][field] == summaries[False][field]
        assert windows[True] == windows[False]

    def test_heterogeneous_window_cohorts_bit_identical(self):
        """Staggered per-site calendars: cohorts form only where boundaries
        truly coincide, and the result still matches the scalar path."""
        summaries = {}
        for batched in (False, True):
            controller = make_fleet(
                3,
                2,
                gpus_per_site=2,
                window_duration=(100.0, 200.0, 100.0),
                seed=11,
                batched_planning=batched,
            )
            result = FleetSimulator(controller).run_for(600.0)
            summaries[batched] = result.summary()
        for field in FLEET_PARITY_FIELDS:
            assert summaries[True][field] == summaries[False][field]
