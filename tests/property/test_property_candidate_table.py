"""Property tests: the vectorised Algorithm 2 equals the scalar reference.

The thief's hot path runs PickConfigs through
:class:`repro.core.candidate_table.CandidateTable` (numpy masks + argmax over
precomputed candidate arrays, memoised per lattice column).  The scalar
implementation in :mod:`repro.core.pick_configs` is retained as the reference
oracle; these properties assert the two are equivalent decision-for-decision
— same inference configuration, same retraining configuration, identical
estimated accuracy — on randomised profiles, configuration grids and lattice
allocations, and that the vectorised batch estimator matches the scalar
estimator element-wise.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.configs import InferenceConfig, RetrainingConfig
from repro.core import (
    CandidateTable,
    ScheduleRequest,
    StreamWindowInput,
    estimate_batch_average_accuracy,
    pick_configs_for_stream,
)
from repro.profiles import RetrainingEstimate, StreamWindowProfile

# Values are drawn on coarse grids so that equal candidates are *exactly*
# equal (the oracle's tie-breaks are then well-defined) while distinct
# candidates differ by far more than the search's 1e-12 epsilon.
accuracy_6dp = st.integers(min_value=0, max_value=1_000_000).map(lambda n: n / 1_000_000)
cost_1dp = st.integers(min_value=1, max_value=4000).map(lambda n: n / 10)
demand_2dp = st.integers(min_value=2, max_value=100).map(lambda n: n / 100)

retraining_candidate = st.tuples(accuracy_6dp, cost_1dp)
inference_candidate = st.tuples(
    st.sampled_from([1.0, 0.75, 0.5, 0.25, 0.1]),
    st.sampled_from([1.0, 0.75, 0.5]),
    demand_2dp,
)


def _build_stream(retraining_specs, inference_specs, start_accuracy):
    profile = StreamWindowProfile(
        stream_name="cam", window_index=0, start_accuracy=start_accuracy
    )
    for index, (post, cost) in enumerate(retraining_specs):
        profile.add(
            RetrainingEstimate(
                config=RetrainingConfig(epochs=index + 1),
                post_retraining_accuracy=post,
                gpu_seconds=cost,
            )
        )
    inference_configs = [
        InferenceConfig(
            frame_sampling_rate=sampling, resolution_scale=resolution, gpu_demand=demand
        )
        for sampling, resolution, demand in inference_specs
    ]
    return StreamWindowInput(
        stream_name="cam", profile=profile, inference_configs=inference_configs
    )


class TestVectorisedEqualsScalar:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(retraining_candidate, min_size=0, max_size=10),
        st.lists(inference_candidate, min_size=1, max_size=6),
        accuracy_6dp,
        st.integers(min_value=0, max_value=20),
        st.integers(min_value=0, max_value=20),
        st.sampled_from([0.05, 0.1, 0.25, 1.0 / 3.0]),
        st.sampled_from([0.0, 0.3, 0.4, 0.6, 0.9]),
    )
    def test_decision_matches_reference_oracle(
        self,
        retraining_specs,
        inference_specs,
        start_accuracy,
        inference_units,
        retraining_units,
        quantum,
        a_min,
    ):
        total_units = inference_units + retraining_units
        if total_units == 0:
            total_units = 1
        stream = _build_stream(retraining_specs, inference_specs, start_accuracy)
        table = CandidateTable(
            stream,
            window_seconds=200.0,
            a_min=a_min,
            quantum=quantum,
            total_units=total_units,
        )
        vectorised = table.decision(inference_units, retraining_units)
        scalar = pick_configs_for_stream(
            stream,
            inference_units * quantum,
            retraining_units * quantum,
            window_seconds=200.0,
            a_min=a_min,
        )
        assert vectorised.inference_config == scalar.inference_config
        assert vectorised.retraining_config == scalar.retraining_config
        assert vectorised.inference_gpu == scalar.inference_gpu
        assert vectorised.retraining_gpu == scalar.retraining_gpu
        assert (
            vectorised.estimated_average_accuracy == scalar.estimated_average_accuracy
        )

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(retraining_candidate, min_size=1, max_size=8),
        accuracy_6dp,
        accuracy_6dp,
        st.integers(min_value=1, max_value=40),
        st.sampled_from([0.0, 0.4, 0.8]),
    )
    def test_batch_estimator_matches_scalar_estimator(
        self, retraining_specs, start_accuracy, factor_after, retraining_units, a_min
    ):
        quantum = 0.1
        retraining_gpu = retraining_units * quantum
        inference_config = InferenceConfig(frame_sampling_rate=1.0, gpu_demand=0.25)
        # Scalar reference, candidate by candidate.  ``accuracy_during`` is
        # what the scalar estimator derives for a saturated inference job.
        accuracy_during = min(
            max(start_accuracy * inference_config.accuracy_factor(), 0.0), 1.0
        )
        post = np.array([spec[0] for spec in retraining_specs])
        gpu_seconds = np.array([spec[1] for spec in retraining_specs])
        batch = estimate_batch_average_accuracy(
            accuracy_during=accuracy_during,
            post_retraining_accuracies=post,
            retraining_gpu_seconds=gpu_seconds,
            inference_factor_after=factor_after,
            retraining_gpu=retraining_gpu,
            window_seconds=200.0,
            a_min=a_min,
        )
        for index, (post_accuracy, cost) in enumerate(retraining_specs):
            duration = cost / retraining_gpu
            completes = cost > 0 and duration < 200.0
            assert bool(batch.completes[index]) == completes
            if completes:
                after = min(max(post_accuracy * factor_after, 0.0), 1.0)
                expected = (
                    duration * accuracy_during + (200.0 - duration) * after
                ) / (duration + (200.0 - duration))
                assert float(batch.average_accuracy[index]) == expected
                assert bool(batch.meets_minimum[index]) == (
                    min(accuracy_during, after) + 1e-9 >= a_min
                )
            else:
                assert float(batch.average_accuracy[index]) == accuracy_during


class TestTableAgainstFullRequest:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(accuracy_6dp, accuracy_6dp, cost_1dp), min_size=1, max_size=4
        ),
        st.integers(min_value=1, max_value=3),
    )
    def test_every_lattice_point_of_small_requests_matches(self, stream_specs, num_gpus):
        """Exhaustive sweep of a small lattice: table == oracle everywhere."""
        quantum = 0.5
        streams = {}
        for index, (start, post, cost) in enumerate(stream_specs):
            name = f"cam-{index}"
            profile = StreamWindowProfile(
                stream_name=name, window_index=0, start_accuracy=start
            )
            profile.add(
                RetrainingEstimate(
                    config=RetrainingConfig(epochs=15),
                    post_retraining_accuracy=post,
                    gpu_seconds=cost,
                )
            )
            streams[name] = StreamWindowInput(
                stream_name=name,
                profile=profile,
                inference_configs=[
                    InferenceConfig(frame_sampling_rate=1.0, gpu_demand=0.25),
                    InferenceConfig(frame_sampling_rate=0.25, gpu_demand=0.05),
                ],
            )
        request = ScheduleRequest(
            window_index=0,
            window_seconds=200.0,
            total_gpus=float(num_gpus),
            delta=quantum,
            a_min=0.3,
            streams=streams,
        )
        total_units = int(round(num_gpus / quantum))
        for name, stream_input in request.streams.items():
            table = CandidateTable(
                stream_input,
                window_seconds=request.window_seconds,
                a_min=request.a_min,
                quantum=quantum,
                total_units=total_units,
            )
            for inference_units in range(total_units + 1):
                for retraining_units in range(total_units - inference_units + 1):
                    vectorised = table.decision(inference_units, retraining_units)
                    scalar = pick_configs_for_stream(
                        stream_input,
                        inference_units * quantum,
                        retraining_units * quantum,
                        window_seconds=request.window_seconds,
                        a_min=request.a_min,
                    )
                    assert vectorised.retraining_config == scalar.retraining_config
                    assert (
                        vectorised.estimated_average_accuracy
                        == scalar.estimated_average_accuracy
                    )
