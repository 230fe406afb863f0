"""Integration acceptance test for the predictive control plane.

The ISSUE's bar: replaying the three committed reference scenarios on
identical seeded calendars, the predictive profit policy must improve the
p10 worst-stream accuracy AND reduce wasted GPU-seconds versus the greedy
default on at least two of them.  ``benchmarks/bench_policy.py`` gates
the same table against the committed
``policy_baseline.json``; this test is the in-tree statement of the
criterion itself.
"""

from repro.fleet.policy.ab import reference_scenarios, run_policy_ab

#: The regimes prediction is expected to win outright (flash_crowd ties on
#: waste: neither arm cancels anything there).
EXPECTED_WINNERS = {"wan_degradation", "gpu_flaps"}


class TestPolicyAbAcceptance:
    def test_predictive_wins_at_least_two_of_three_scenarios(self):
        comparisons = run_policy_ab()
        assert [c.scenario for c in comparisons] == [
            spec.name for spec in reference_scenarios()
        ]
        wins = {c.scenario for c in comparisons if c.predictive_wins}
        assert len(wins) >= 2, (
            f"predictive won only {sorted(wins)} of "
            f"{[c.scenario for c in comparisons]}"
        )
        assert EXPECTED_WINNERS <= wins
        for comparison in comparisons:
            if comparison.scenario not in wins:
                continue
            deltas = comparison.deltas
            assert deltas["p10_worst_stream_accuracy"] > 0.0
            assert deltas["wasted_gpu_seconds"] < 0.0

    def test_predictive_never_regresses_the_fleet_mean(self):
        """Weaker but universal: on every reference calendar the profit
        policy's fleet mean is at least the greedy arm's."""
        for comparison in run_policy_ab():
            assert (
                comparison.deltas["mean_accuracy"] >= -1e-9
            ), comparison.scenario
