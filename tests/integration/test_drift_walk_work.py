"""Exact work counter: a fleet run's drift walks cost O(W), not O(W²).

Wall-clock ratios between a long and a short horizon are too noisy to gate
on a shared machine, so this counts the work instead.  Every walk generator
the drift module creates is swapped for a counting subclass of
:class:`numpy.random.Generator` (same bit generator, same draws), and every
window the run asks a drift model about is recorded.  A memoised walk draws
each step once, so a stream's walk draws equal its highest queried window
plus one; replaying the walk from window 0 on every query draws far more.
"""

from __future__ import annotations

from collections import Counter, defaultdict

import numpy as np

from repro.datasets import drift as drift_module
from repro.datasets.drift import AppearanceDrift, ClassDistributionDrift
from repro.fleet import FleetSimulator, make_fleet

WINDOWS = 40


def test_walk_draws_are_linear_in_the_horizon(monkeypatch):
    draws: Counter = Counter()  # integer seed -> normal() calls
    highest: dict = defaultdict(lambda: -1)  # drift model -> highest window queried

    class CountingGenerator(np.random.Generator):
        def normal(self, *args, **kwargs):
            draws[self.seed] += 1
            return super().normal(*args, **kwargs)

    real_ensure_rng = drift_module.ensure_rng

    def counting_ensure_rng(seed=None):
        if isinstance(seed, int):
            rng = CountingGenerator(np.random.PCG64(seed))
            rng.seed = seed
            return rng
        return real_ensure_rng(seed)

    def record(method, *window_args):
        def wrapper(self, *args):
            for position in window_args:
                highest[self] = max(highest[self], args[position])
            return method(self, *args)

        return wrapper

    monkeypatch.setattr(drift_module, "ensure_rng", counting_ensure_rng)
    for owner, name, window_args in (
        (AppearanceDrift, "offsets_for_window", (0,)),
        (AppearanceDrift, "drift_magnitude", (0, 1)),
        (ClassDistributionDrift, "distribution_for_window", (0,)),
    ):
        monkeypatch.setattr(owner, name, record(getattr(owner, name), *window_args))

    controller = make_fleet(2, 10, gpus_per_site=2, seed=0)
    FleetSimulator(controller).run(WINDOWS)

    streams = [stream for site in controller.sites for stream in site.streams]
    assert len(streams) == 20
    assert max(highest.values()) >= WINDOWS - 1
    for stream in streams:
        for model in (stream._appearance_drift, stream._distribution_drift):
            walk_draws = draws[model._root_seed]
            assert walk_draws == highest[model] + 1, (stream.name, type(model).__name__)
