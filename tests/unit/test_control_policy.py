"""Unit tests for the pluggable control-policy plane.

Pins the plane's contracts: the greedy default is the controller's policy
unless asked otherwise, its no-op-scan skip is output-identical (same
``MigrationEvent`` sequence bit for bit, only the skip counter moves), the
predictive policy is deterministic with name-based tie-breaks, rejects
whole scans when no candidate clears ``min_profit``, validates its knobs,
and the proactive-cancellation channel degrades to a counted no-op without
a simulator hook.  The departure hook must fire exactly once per
mid-window migration — double-firing would double-cancel and double-reclaim.
The predictive scan's memos (the store's best point, the scan-scoped score
memo) are differential-tested against their uncached references.
"""

from unittest import mock

import pytest

from repro.exceptions import FleetError
from repro.fleet import (
    ChaosInjector,
    FlashCrowd,
    FleetSimulator,
    GreedyRebalancePolicy,
    POLICY_NAMES,
    PredictiveProfitPolicy,
    Scenario,
    build_policy,
    make_fleet,
)
from repro.fleet.admission import AccuracyGreedyAdmission
from repro.fleet.policy.ab import AbScenario, run_policy_scenario
from repro.profiles import FleetProfileStore
from repro.utils.clock import ManualClock

SEED = 0

#: A calendar that actually trips greedy's overload threshold: five extra
#: streams on one 4-stream / 2-GPU site push its load past 1.5x the mean.
BURST = Scenario(events=[FlashCrowd(at_seconds=250.0, num_streams=5, site="site-0")])


def _run(policy, scenario=BURST, *, num_windows=4, control_interval=50.0, **kwargs):
    clock = ManualClock()
    controller = make_fleet(
        3,
        4,
        gpus_per_site=2,
        seed=SEED,
        clock=clock,
        control_policy=policy,
        **kwargs,
    )
    simulator = FleetSimulator(
        controller, scenario, clock=clock, control_interval=control_interval
    )
    return controller, simulator.run(num_windows)


def _migration_tuples(result):
    return [
        (e.stream_name, e.source, e.destination, e.window_index, e.transfer_seconds, e.reason)
        for window in result.windows
        for e in window.migrations
    ]


class TestFactoryAndDefaults:
    def test_policy_names_and_build_policy(self):
        assert POLICY_NAMES == ("greedy", "predictive")
        assert isinstance(build_policy("greedy"), GreedyRebalancePolicy)
        assert isinstance(build_policy("predictive"), PredictiveProfitPolicy)
        with pytest.raises(FleetError):
            build_policy("thompson")

    def test_default_fleet_policy_is_greedy(self):
        controller = make_fleet(2, 2, seed=SEED)
        assert isinstance(controller.control_policy, GreedyRebalancePolicy)
        assert controller.control_policy.name == "greedy"
        assert controller.control_policy.wants_signals is False

    def test_policy_instance_passes_through(self):
        policy = PredictiveProfitPolicy(min_profit=0.25)
        controller = make_fleet(2, 2, seed=SEED, control_policy=policy)
        assert controller.control_policy is policy


class TestGreedyScanSkip:
    def test_skip_is_output_identical(self):
        """The satellite pin: skipping no-op scans changes no MigrationEvent.

        Same fleet, same burst calendar, mid-window control ticks; the only
        summary difference allowed is the ``control_scans_skipped`` counter.
        """
        _, skipping = _run(GreedyRebalancePolicy(skip_no_op_scans=True))
        _, scanning = _run(GreedyRebalancePolicy(skip_no_op_scans=False))
        assert _migration_tuples(skipping) == _migration_tuples(scanning)
        skipped = skipping.summary()
        scanned = scanning.summary()
        assert skipped["control_scans_skipped"] > 0
        assert scanned["control_scans_skipped"] == 0
        for key in skipped:
            if key == "control_scans_skipped":
                continue
            assert skipped[key] == scanned[key], key

    def test_mutation_invalidates_the_idle_cache(self):
        """A burst right after an idle scan must not be skipped past.

        If the cached idle key survived the flash crowd, the overloaded
        site would sit unbalanced until some other mutation; the migrations
        above prove the cache invalidates (the load vector changed)."""
        _, result = _run(GreedyRebalancePolicy(skip_no_op_scans=True))
        assert result.summary()["migration_count"] > 0


class TestPredictivePolicy:
    def test_knob_validation(self):
        with pytest.raises(FleetError):
            PredictiveProfitPolicy(wan_cost_weight=-0.1)
        with pytest.raises(FleetError):
            PredictiveProfitPolicy(cancellation_cost_weight=-1.0)
        with pytest.raises(FleetError):
            PredictiveProfitPolicy(backlog_limit=0)
        with pytest.raises(FleetError):
            PredictiveProfitPolicy(cancellation_pay_threshold=1.5)

    def test_deterministic_replay(self):
        """Same seed, same calendar: bit-identical summaries and events.

        The policy's tie-breaks are all name-based, so nothing in a scan
        depends on dict iteration order or object identity."""
        spec = AbScenario(
            name="replay",
            events=(FlashCrowd(at_seconds=250.0, num_streams=5, site="site-0"),),
        )
        first = run_policy_scenario(spec, "predictive")
        second = run_policy_scenario(spec, "predictive")
        assert first == second

    def test_all_negative_profit_rejects_the_scan(self):
        """An unclearable min_profit: no migrations, counted rejections."""
        policy = PredictiveProfitPolicy(min_profit=1000.0)
        controller, result = _run(policy, profile_sharing=True)
        summary = result.summary()
        assert summary["migration_count"] == 0
        assert summary["migrations_rejected"] > 0
        assert controller.control_counters["migrations_rejected"] == (
            summary["migrations_rejected"]
        )

    def test_migrations_carry_the_predictive_reason(self):
        _, result = _run(PredictiveProfitPolicy(), profile_sharing=True)
        summary = result.summary()
        assert summary["control_policy"] == "predictive"
        assert summary["migration_count"] > 0
        for event_tuple in _migration_tuples(result):
            assert event_tuple[-1] in {"predictive", "evacuation"}


class TestDepartureAndCancellationHooks:
    def test_departure_hook_fires_exactly_once_per_migration(self):
        """Every mid-window move notifies the hook once — never zero, never
        twice (twice would double-cancel the in-flight retraining)."""
        clock = ManualClock()
        controller = make_fleet(
            3,
            4,
            gpus_per_site=2,
            seed=SEED,
            clock=clock,
            profile_sharing=True,
            control_policy="predictive",
        )
        simulator = FleetSimulator(controller, BURST, clock=clock, control_interval=50.0)
        calls = []
        inner = controller._departure_hook
        assert inner is not None, "every simulator installs the hook"
        controller.set_departure_hook(
            lambda stream, source, reason: (
                calls.append((stream, source, reason)),
                inner(stream, source, reason),
            )[-1]
        )
        result = simulator.run(4)
        moves = _migration_tuples(result)
        assert moves, "the burst must trigger at least one migration"
        assert len(calls) == len(moves)
        assert calls == [(m[0], m[1], m[5]) for m in moves]
        assert len(set(calls)) == len(calls)

    def test_request_cancellation_without_hook_is_a_counted_noop(self):
        controller = make_fleet(2, 2, seed=SEED)
        assert controller.request_cancellation("site-0", "cityscapes-0") is False
        assert controller.control_counters["proactive_cancellations"] == 0

    def test_request_cancellation_counts_only_actual_cancels(self):
        controller = make_fleet(2, 2, seed=SEED)
        controller.set_cancellation_hook(lambda site, stream, reason: False)
        assert controller.request_cancellation("site-0", "cityscapes-0") is False
        assert controller.control_counters["proactive_cancellations"] == 0
        controller.set_cancellation_hook(lambda site, stream, reason: True)
        assert controller.request_cancellation("site-0", "cityscapes-0") is True
        assert controller.control_counters["proactive_cancellations"] == 1


class TestAbScenarioValidation:
    def test_rejects_single_site_and_zero_windows(self):
        with pytest.raises(FleetError):
            AbScenario(name="lonely", num_sites=1)
        with pytest.raises(FleetError):
            AbScenario(name="instant", num_windows=0)


def _uncached_best_candidate(store, key):
    """The store lookup as it was before its memo: an argmax per call."""
    curves = store.curves_for(key)
    if not curves:
        return None
    config = min(curves, key=lambda cfg: (-curves[cfg][1], curves[cfg][0], cfg.key()))
    cost, accuracy = curves[config]
    return (config, cost, accuracy)


class _MemolessScorer(AccuracyGreedyAdmission):
    """A scan scorer without the score memo: every cell runs the estimator."""

    def __init__(self, dynamics, *, shared_profiles):
        super().__init__(dynamics, shared_profiles=shared_profiles)
        self.estimates = 0

    def _estimate(self, *key):
        self.estimates += 1
        return super()._estimate(*key)


def _chaos_run(seed, *, window_duration=200.0, decay_half_life=None, num_windows=6):
    """Predictive control with sharing, chaos faults and a flash crowd."""
    injector = ChaosInjector(seed=seed, intensity=2.0)
    clock = ManualClock()
    policy = PredictiveProfitPolicy()
    controller = make_fleet(
        4,
        4,
        gpus_per_site=2,
        seed=seed,
        clock=clock,
        window_duration=window_duration,
        control_policy=policy,
        profile_sharing=True,
        profile_decay_half_life=decay_half_life,
        wan_faults=injector.wan_faults(),
    )
    scenario = injector.compile(
        [site.name for site in controller.sites],
        window_duration=200.0,
        num_windows=num_windows,
        gpus_per_site=2,
    )
    crowd = FlashCrowd(at_seconds=350.0, num_streams=6, site="site-0")
    simulator = FleetSimulator(
        controller,
        Scenario([*scenario.events, crowd]),
        clock=clock,
        control_interval=50.0,
    )
    result = simulator.run_until(num_windows * 200.0)
    return policy, result, tuple(simulator.event_trace)


def _reference_chaos_run(seed, **kwargs):
    with mock.patch.object(
        FleetProfileStore, "best_candidate", _uncached_best_candidate
    ), mock.patch("repro.fleet.policy.predictive._ScanScorer", _MemolessScorer):
        return _chaos_run(seed, **kwargs)


#: Estimator evaluations of the memoised scan on ``_chaos_run(1)``; the
#: memo-less reference runs 2074 on the same calendar.
PINNED_SCORE_ESTIMATES = 1336


class TestScanMemoDifferential:
    """The memoised scan decides exactly what the uncached scan decides."""

    @pytest.mark.parametrize(
        "seed, kwargs",
        [
            (1, {}),
            (4, {"decay_half_life": 300.0}),
            (7, {"window_duration": (150.0, 200.0, 250.0, 200.0)}),
        ],
    )
    def test_memoised_scan_matches_the_uncached_reference(self, seed, kwargs):
        policy, result, trace = _chaos_run(seed, **kwargs)
        ref_policy, reference, ref_trace = _reference_chaos_run(seed, **kwargs)
        assert result.summary() == reference.summary()
        assert [w.mean_accuracy for w in result.windows] == [
            w.mean_accuracy for w in reference.windows
        ]
        assert [e for w in result.windows for e in w.migrations] == [
            e for w in reference.windows for e in w.migrations
        ]
        assert result.migrations_rejected == reference.migrations_rejected
        assert result.proactive_cancellations == reference.proactive_cancellations
        assert trace == ref_trace
        assert result.summary()["migration_count"] > 0  # the scan did move streams
        assert 0 < policy.score_estimates <= ref_policy.score_estimates

    def test_score_estimates_pinned_on_a_fixed_fixture(self):
        policy, _, _ = _chaos_run(1)
        ref_policy, _, _ = _reference_chaos_run(1)
        assert policy.score_estimates == PINNED_SCORE_ESTIMATES
        assert policy.score_estimates < ref_policy.score_estimates
