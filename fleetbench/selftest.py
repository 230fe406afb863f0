#!/usr/bin/env python3
"""Self-test of the fleet benchmark on tiny shapes of every workload.

Run from the repository root::

    python3 fleetbench/selftest.py

Checks, for each workload shrunk to a few streams and windows:

* every metric ``BENCHMARK.json`` names is emitted, with its unit in the
  result and its better direction in the ``info`` header;
* no metric the file does not name is emitted;
* every metric name matches ``[A-Za-z0-9_.-]+``;
* the run is correct, with no failed operation;
* every exact counter of the traced run repeats across two runs.

Then it calibrates the reference-speed host times (``hostspeed.py``): it adds
a fixed busy loop of ``CALIBRATION_SHARE`` of a median window step to every
step of ``long_horizon`` and checks that ``window_ms_p50`` and the total step
time move by that loop's own reference-speed cost, within
``CALIBRATION_RATIO``.  So dividing by the speed probe neither hides nor
inflates a real slowdown of the program.

Exits 0 when every check passes and 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import re
import statistics
import sys
import time
from typing import Dict, List, Tuple

import run as bench

NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: Tiny shapes: each keeps its workload's mechanism (horizon, width, churn).
TINY_SHAPES: Dict[str, Dict[str, object]] = {
    "long_horizon": {"streams_per_site": 3, "steps": 4},
    "wide_fleet": {"num_sites": 4, "streams_per_site": 3, "steps": 2},
    "churn": {"num_sites": 3, "streams_per_site": 2, "steps": 6, "flash_crowd_streams": 2},
}


def declared() -> Tuple[List[str], Dict[str, Tuple[str, str]], Dict[str, Tuple[str, str]]]:
    """Workload names and (unit, better) of each metric kind in BENCHMARK.json."""
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())

    def table(kind: str) -> Dict[str, Tuple[str, str]]:
        return {m["name"]: (m["unit"], m["better"]) for m in spec[kind]}

    return [w["name"] for w in spec["workloads"]], table("end_to_end"), table("per_layer")


def check_emitted(
    label: str,
    header: Dict[str, object],
    result: Dict[str, object],
    named: Dict[str, Tuple[str, str]],
) -> List[str]:
    failures = []
    if not result["correct"] or result["failed"]:
        failures.append(f"{label}: run not correct ({result['failed']} failed)")
    emitted = result["metrics"]
    for name in named.keys() - emitted.keys():
        failures.append(f"{label}: {name} named in BENCHMARK.json but not emitted")
    for name in emitted.keys() - named.keys():
        failures.append(f"{label}: {name} emitted but not named in BENCHMARK.json")
    for name, metric in emitted.items():
        if not NAME.fullmatch(name):
            failures.append(f"{label}: metric name {name!r} has invalid characters")
        if name in named and metric["unit"] != named[name][0]:
            failures.append(
                f"{label}: {name} emitted in {metric['unit']}, "
                f"BENCHMARK.json says {named[name][0]}"
            )
        if name in named and header["better"].get(name) != named[name][1]:
            failures.append(
                f"{label}: {name} emitted as {header['better'].get(name)} is better, "
                f"BENCHMARK.json says {named[name][1]}"
            )
        if not isinstance(metric["value"], (int, float)):
            failures.append(f"{label}: {name} value {metric['value']!r} is not a number")
    return failures


#: Busy work added to every window step, as a share of the median step.
CALIBRATION_SHARE = 0.3
#: Accepted range of (metric moved) / (busy work's reference-speed cost).
CALIBRATION_RATIO = (0.8, 1.25)
#: Baseline and loaded runs alternate this many times; medians are compared.
CALIBRATION_ROUNDS = 3


def _spin(iterations: int) -> int:
    total = 0
    for i in range(iterations):
        total += i * i % 7
    return total


def calibrate() -> List[str]:
    """Checks that a known amount of extra step work moves the metrics by itself."""
    from hostspeed import SpeedProbe
    from repro.fleet import FleetSimulator
    from workloads import WORKLOADS

    workload = dataclasses.replace(WORKLOADS["long_horizon"], steps=30)
    speed = SpeedProbe()

    def spin_ref_s(iterations: int) -> float:
        start = time.perf_counter()
        _spin(iterations)
        return speed.scale(time.perf_counter() - start)

    def measure() -> Tuple[float, float]:
        """(window_ms_p50, host seconds of all window steps) of one run."""
        (metrics, info), _, problems = bench.measure_end_to_end(workload, 3, 0.01)
        assert not problems, problems
        steps_s = info["stream_windows_per_repetition"] / metrics["stream_windows_per_s"]
        return metrics["window_ms_p50"], steps_s

    per_iteration = statistics.median(spin_ref_s(200_000) for _ in range(5)) / 200_000
    iterations = int(CALIBRATION_SHARE * measure()[0] * 1e-3 / per_iteration)
    extra_s = statistics.median(spin_ref_s(iterations) for _ in range(9))
    original = FleetSimulator.run_until

    def loaded_run_until(self, *args, **kwargs):
        _spin(iterations)
        return original(self, *args, **kwargs)

    base, loaded = [], []
    for _ in range(CALIBRATION_ROUNDS):
        base.append(measure())
        FleetSimulator.run_until = loaded_run_until
        try:
            loaded.append(measure())
        finally:
            FleetSimulator.run_until = original
    moved = [
        statistics.median(x[i] for x in loaded) - statistics.median(x[i] for x in base)
        for i in (0, 1)
    ]
    ratios = {
        "window_ms_p50": moved[0] / (extra_s * 1e3),
        "total step time": moved[1] / (extra_s * workload.steps),
    }
    low, high = CALIBRATION_RATIO
    failures = []
    for name, ratio in ratios.items():
        print(
            f"calibration: {name} moved by {ratio:.3f} x the added work "
            f"({extra_s * 1e3:.2f} ms per step at reference speed)",
            file=sys.stderr,
        )
        if not low <= ratio <= high:
            failures.append(f"calibration: {name} moved {ratio:.3f} x the added work")
    return failures


def main() -> int:
    bench.pin_threads()
    bench.load_program()
    from spans import EXACT_METRICS
    from workloads import WORKLOADS

    names, end_to_end, per_layer = declared()
    failures: List[str] = []
    if sorted(names) != sorted(WORKLOADS):
        failures.append(f"BENCHMARK.json workloads {names} != code {sorted(WORKLOADS)}")
    for name, workload in WORKLOADS.items():
        tiny = dataclasses.replace(workload, **TINY_SHAPES[name])
        plain = bench.run(tiny, seed=3, seconds=0.01, trace=False)
        failures += check_emitted(f"{name} --trace 0", *plain, end_to_end)
        traced = [bench.run(tiny, seed=3, seconds=0.01, trace=True) for _ in range(2)]
        failures += check_emitted(f"{name} --trace 1", *traced[0], per_layer)
        for metric in EXACT_METRICS:
            values = [r["metrics"].get(metric, {}).get("value") for _, r in traced]
            if values[0] != values[1]:
                failures.append(f"{name}: exact counter {metric} changed: {values}")
        print(f"{name}: checked", file=sys.stderr)
    failures += calibrate()
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    print("selftest " + ("failed" if failures else "passed"), file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
