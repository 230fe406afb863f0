"""Unit tests for the fleet-wide profile store and its stream keying."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.configs import RetrainingConfig
from repro.datasets import DriftProfile, make_stream
from repro.profiles import (
    FleetProfileStore,
    RetrainingEstimate,
    StreamWindowProfile,
    regime_key,
    stream_profile_key,
)


def _profile(stream="cam", window=0, accuracies=(0.7, 0.85), costs=(10.0, 60.0)):
    profile = StreamWindowProfile(
        stream_name=stream, window_index=window, start_accuracy=0.6
    )
    for epochs, accuracy, cost in zip((5, 30), accuracies, costs):
        profile.add(
            RetrainingEstimate(
                config=RetrainingConfig(epochs=epochs),
                post_retraining_accuracy=accuracy,
                gpu_seconds=cost,
                profiling_gpu_seconds=cost / 10.0,
            )
        )
    return profile


KEY = ("cityscapes", "regime-a")


class TestStreamKeying:
    def test_regime_key_distinguishes_drift_profiles(self):
        a = DriftProfile(distribution_volatility=0.3)
        b = DriftProfile(distribution_volatility=0.4)
        assert regime_key(a) != regime_key(b)
        assert regime_key(a) == regime_key(DriftProfile(distribution_volatility=0.3))

    def test_generated_streams_of_one_dataset_share_a_key(self):
        first = stream_profile_key(make_stream("cityscapes", 0, seed=0))
        second = stream_profile_key(make_stream("cityscapes", 7, seed=3))
        assert first == second
        assert first[0] == "cityscapes"

    def test_datasets_get_distinct_keys(self):
        assert stream_profile_key(make_stream("cityscapes", 0, seed=0)) != (
            stream_profile_key(make_stream("urban_traffic", 0, seed=0))
        )

    def test_non_indexed_names_fall_back_to_the_full_name(self):
        from repro.datasets import VideoStream

        stream = VideoStream(
            name="lone-camera-feed",
            drift_profile=DriftProfile(),
            samples_per_window=120,
            eval_samples_per_window=80,
            seed=0,
        )
        assert stream_profile_key(stream)[0] == "lone-camera-feed"


class TestFleetProfileStore:
    def test_empty_store(self):
        store = FleetProfileStore()
        assert len(store) == 0
        assert store.num_pushes == 0
        assert KEY not in store
        assert store.curves_for(KEY) == {}
        assert store.best_candidate(KEY) is None

    def test_push_aggregates_means(self):
        store = FleetProfileStore()
        store.push(KEY, _profile(accuracies=(0.7, 0.85), costs=(10.0, 60.0)))
        store.push(KEY, _profile(accuracies=(0.8, 0.95), costs=(20.0, 80.0)))
        assert KEY in store
        assert store.pushes_for(KEY) == 2
        curves = store.curves_for(KEY)
        cost, accuracy = curves[RetrainingConfig(epochs=5)]
        assert cost == pytest.approx(15.0)
        assert accuracy == pytest.approx(0.75)
        cost, accuracy = curves[RetrainingConfig(epochs=30)]
        assert cost == pytest.approx(70.0)
        assert accuracy == pytest.approx(0.90)

    def test_keys_are_isolated(self):
        store = FleetProfileStore()
        other = ("waymo", "regime-b")
        store.push(KEY, _profile())
        store.push(other, _profile(accuracies=(0.5, 0.6)))
        assert store.curves_for(KEY)[RetrainingConfig(epochs=30)][1] == pytest.approx(0.85)
        assert store.curves_for(other)[RetrainingConfig(epochs=30)][1] == pytest.approx(0.6)
        assert store.keys() == sorted([KEY, other])

    def test_best_candidate_prefers_accuracy_then_cost(self):
        store = FleetProfileStore()
        store.push(KEY, _profile(accuracies=(0.7, 0.85), costs=(10.0, 60.0)))
        config, cost, accuracy = store.best_candidate(KEY)
        assert config == RetrainingConfig(epochs=30)
        assert cost == pytest.approx(60.0)
        assert accuracy == pytest.approx(0.85)
        # A full accuracy tie resolves toward the cheaper configuration.
        tied = FleetProfileStore()
        tied.push(KEY, _profile(accuracies=(0.85, 0.85), costs=(10.0, 60.0)))
        config, cost, _ = tied.best_candidate(KEY)
        assert config == RetrainingConfig(epochs=5)
        assert cost == pytest.approx(10.0)

    def test_curves_shape_matches_history_for(self):
        """curves_for must be drop-in for ProfileStore.history_for pruning."""
        from repro.profiles import ProfileStore

        local = ProfileStore()
        profile = _profile(stream="cam", window=0)
        local.put(profile)
        store = FleetProfileStore()
        store.push(KEY, profile)
        assert store.curves_for(KEY) == local.history_for("cam", up_to_window=1)

    def test_dict_round_trip_through_json(self):
        store = FleetProfileStore()
        store.push(KEY, _profile())
        store.push(KEY, _profile(accuracies=(0.8, 0.9)))
        store.push(("waymo", "regime-b"), _profile())
        payload = json.loads(json.dumps(store.as_dict()))
        restored = FleetProfileStore.from_dict(payload)
        assert restored.keys() == store.keys()
        assert restored.num_pushes == store.num_pushes
        for key in store.keys():
            assert restored.curves_for(key) == store.curves_for(key)
            assert restored.best_candidate(key) == store.best_candidate(key)


class TestStaleCurveDecay:
    """Exponential aging of pushed curves (``decay_half_life``)."""

    def test_default_store_never_decays(self):
        """Weight-1.0-forever is the default: arrival times change nothing."""
        plain = FleetProfileStore()
        plain.push(KEY, _profile(accuracies=(0.9, 0.9)))
        plain.push(KEY, _profile(accuracies=(0.3, 0.3)))
        timed = FleetProfileStore()
        timed.push(KEY, _profile(accuracies=(0.9, 0.9)), at_seconds=0.0)
        timed.push(KEY, _profile(accuracies=(0.3, 0.3)), at_seconds=1e6)
        assert plain.curves_for(KEY) == timed.curves_for(KEY)
        config = RetrainingConfig(epochs=5)
        assert plain.curves_for(KEY)[config][1] == pytest.approx(0.6)

    def test_invalid_half_life_rejected(self):
        from repro.exceptions import ProfilingError

        with pytest.raises(ProfilingError):
            FleetProfileStore(decay_half_life=0.0)
        with pytest.raises(ProfilingError):
            FleetProfileStore(decay_half_life=-10.0)

    def test_old_regime_curve_decays_below_a_fresh_push(self):
        """The ROADMAP item: an old regime's curves must age out.

        An early push says config reaches 0.9; ten half-lives later a fresh
        push says 0.3.  The weighted mean must land near the fresh value,
        not the 0.6 midpoint an undecayed store reports.
        """
        store = FleetProfileStore(decay_half_life=100.0)
        store.push(KEY, _profile(accuracies=(0.9, 0.9)), at_seconds=0.0)
        store.push(KEY, _profile(accuracies=(0.3, 0.3)), at_seconds=1000.0)
        config = RetrainingConfig(epochs=5)
        _, accuracy = store.curves_for(KEY)[config]
        # weight of the old push is 2**-10: mean = (0.9/1024 + 0.3) / (1/1024 + 1)
        assert accuracy == pytest.approx((0.9 / 1024 + 0.3) / (1 / 1024 + 1))
        assert accuracy < 0.31  # the old regime no longer dominates
        undecayed = FleetProfileStore()
        undecayed.push(KEY, _profile(accuracies=(0.9, 0.9)))
        undecayed.push(KEY, _profile(accuracies=(0.3, 0.3)))
        assert undecayed.curves_for(KEY)[config][1] == pytest.approx(0.6)

    def test_same_instant_pushes_share_full_weight(self):
        store = FleetProfileStore(decay_half_life=50.0)
        store.push(KEY, _profile(accuracies=(0.8, 0.8)), at_seconds=200.0)
        store.push(KEY, _profile(accuracies=(0.4, 0.4)), at_seconds=200.0)
        config = RetrainingConfig(epochs=5)
        assert store.curves_for(KEY)[config][1] == pytest.approx(0.6)

    def test_out_of_order_arrival_does_not_inflate(self):
        """A late-arriving push must not resurrect already-decayed curves."""
        store = FleetProfileStore(decay_half_life=100.0)
        store.push(KEY, _profile(accuracies=(0.9, 0.9)), at_seconds=500.0)
        store.push(KEY, _profile(accuracies=(0.3, 0.3)), at_seconds=100.0)
        config = RetrainingConfig(epochs=5)
        # Negative elapsed clamps to zero: equal weights, plain mean.
        assert store.curves_for(KEY)[config][1] == pytest.approx(0.6)
        assert store._last_push_at[KEY] == 500.0

    def test_decay_round_trips_through_json(self):
        store = FleetProfileStore(decay_half_life=100.0)
        store.push(KEY, _profile(accuracies=(0.9, 0.9)), at_seconds=0.0)
        store.push(KEY, _profile(accuracies=(0.3, 0.3)), at_seconds=250.0)
        payload = json.loads(json.dumps(store.as_dict()))
        # The half-life itself round-trips (via the payload's _meta entry):
        # a plain from_dict keeps decaying, no kwarg required.
        restored = FleetProfileStore.from_dict(payload)
        assert restored.decay_half_life == 100.0
        assert restored.curves_for(KEY) == store.curves_for(KEY)
        # Continuing to push after the round trip decays from the same state.
        fresh = _profile(accuracies=(0.5, 0.5))
        store.push(KEY, fresh, at_seconds=400.0)
        restored.push(KEY, fresh, at_seconds=400.0)
        assert restored.curves_for(KEY) == store.curves_for(KEY)

    def test_undecayed_payload_shape_is_unchanged(self):
        """Default stores serialise exactly as before the decay feature."""
        store = FleetProfileStore()
        store.push(KEY, _profile())
        (entry,) = store.as_dict().values()
        assert "last_push_at" not in entry


_CONFIGS = tuple(RetrainingConfig(epochs=epochs) for epochs in (5, 10, 30))
_KEYS = (KEY, ("cityscapes", "regime-b"), ("waymo", "regime-a"))


def _reference_best(store, key):
    """The uncached argmax ``best_candidate`` must always agree with."""
    curves = store.curves_for(key)
    if not curves:
        return None
    config = min(curves, key=lambda cfg: (-curves[cfg][1], curves[cfg][0], cfg.key()))
    cost, accuracy = curves[config]
    return (config, cost, accuracy)


#: One push: a key, one to three ``(config, accuracy, cost)`` estimates
#: drawn from two-value sets (so accuracy and cost ties are common) and an
#: arrival time drawn in any order (so arrivals are often out of order).
_PUSH = st.tuples(
    st.just("push"),
    st.sampled_from(_KEYS),
    st.lists(
        st.tuples(
            st.sampled_from(_CONFIGS),
            st.sampled_from((0.6, 0.8)),
            st.sampled_from((10.0, 20.0)),
        ),
        min_size=1,
        max_size=3,
        unique_by=lambda estimate: estimate[0],
    ),
    st.sampled_from((0.0, 50.0, 100.0, 400.0)),
)
_STEP = st.one_of(_PUSH, st.just(("round_trip",)))


class TestBestCandidateMemo:
    """``best_candidate`` is memoised per key and popped by ``push``."""

    @given(half_life=st.sampled_from((None, 100.0)), steps=st.lists(_STEP, max_size=25))
    def test_memo_matches_the_uncached_argmax_after_every_step(self, half_life, steps):
        store = FleetProfileStore(decay_half_life=half_life)
        for step in steps:
            if step[0] == "push":
                _, key, estimates, at_seconds = step
                profile = StreamWindowProfile(
                    stream_name="cam", window_index=0, start_accuracy=0.5
                )
                for config, accuracy, cost in estimates:
                    profile.add(
                        RetrainingEstimate(
                            config=config,
                            post_retraining_accuracy=accuracy,
                            gpu_seconds=cost,
                            profiling_gpu_seconds=cost / 10.0,
                        )
                    )
                store.push(key, profile, at_seconds=at_seconds)
            else:
                store = FleetProfileStore.from_dict(json.loads(json.dumps(store.as_dict())))
            # Every key is queried after every step, so each push lands on
            # a populated memo entry for its key.
            for key in _KEYS:
                assert store.best_candidate(key) == _reference_best(store, key)
