"""Unit tests for the batched planner's API surface.

The equivalence guarantees live in the property suite
(``tests/property/test_property_batched_planner.py``); this module pins
the plumbing around them — the policy and fleet always plan with the
batched thief, the prepare/solve split, and scheduler reuse across
requests.
"""

from repro.cluster import EdgeServerSpec
from repro.configs import ConfigurationSpace
from repro.core import EkyaPolicy, OracleProfileSource, ThiefScheduler
from repro.core.batched_planner import BatchedThiefScheduler
from repro.datasets import make_workload
from repro.fleet.factory import make_fleet
from repro.profiles import AnalyticDynamics


def _policy(seed=0, **kwargs):
    return EkyaPolicy(
        OracleProfileSource(AnalyticDynamics(seed=seed), seed=seed),
        ConfigurationSpace.small(),
        steal_quantum=0.25,
        **kwargs,
    )


def _problem(num_streams=3, seed=0):
    streams = make_workload("cityscapes", num_streams, seed=seed)
    spec = EdgeServerSpec(num_gpus=2, delta=0.25, window_duration=200.0)
    return streams, spec


class TestPolicyWiring:
    def test_policy_always_plans_with_the_batched_scheduler(self):
        assert isinstance(_policy().scheduler, BatchedThiefScheduler)
        assert not hasattr(_policy(), "batched_planning")

    def test_fixed_resources_skips_the_thief(self):
        # The fixed-resource ablation picks configurations over a static
        # split: one pick_configs pass, no steal sweep.
        streams, spec = _problem()
        policy = _policy(fixed_resources=True)
        schedule = policy.plan_window(streams, 0, spec)
        assert schedule.iterations == 1
        assert set(schedule.decisions) == {stream.name for stream in streams}

    def test_prepare_request_then_solve_matches_plan_window(self):
        streams, spec = _problem()
        policy = _policy()
        request = policy.prepare_request(streams, 0, spec)
        solved = policy.scheduler.schedule(request)
        direct = _policy().plan_window(streams, 0, spec)
        assert solved.decisions == direct.decisions
        assert solved.estimated_average_accuracy == direct.estimated_average_accuracy


class TestSchedulerReuse:
    def test_reused_scheduler_matches_fresh_schedules(self):
        # One scheduler plans every site of a fleet in turn; its scratch
        # buffers carry over between requests of different sizes, so each
        # schedule must match a fresh scheduler's and the scalar oracle's.
        policy = _policy()
        for seed, num_streams in ((0, 2), (7, 4), (3, 1)):
            streams, spec = _problem(num_streams=num_streams, seed=seed)
            request = policy.prepare_request(streams, 0, spec)
            reused = policy.scheduler.schedule(request)
            fresh = BatchedThiefScheduler(steal_quantum=0.25).schedule(request)
            scalar = ThiefScheduler(steal_quantum=0.25).schedule(request)
            for other in (fresh, scalar):
                assert reused.decisions == other.decisions
                assert reused.iterations == other.iterations
                assert reused.pick_configs_evaluations == other.pick_configs_evaluations
                assert reused.estimated_average_accuracy == other.estimated_average_accuracy


class TestFleetWiring:
    def test_make_fleet_sites_plan_with_the_batched_scheduler(self):
        controller = make_fleet(2, 1, gpus_per_site=2, seed=0)
        for site in controller.sites:
            assert isinstance(site.policy.scheduler, BatchedThiefScheduler)
        assert not hasattr(controller, "batched_planning")
