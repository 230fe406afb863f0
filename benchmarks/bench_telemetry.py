"""Telemetry-plane memory and throughput benchmark.

The point of the bounded-memory telemetry plane is that observability cost
is a function of its *configuration*, not of how long the simulation runs:
the event ring, per-stream series rings and the stats table are fixed-size
(or grow with the stream/site population, never with the window count).
This benchmark proves it at the fleet sweep's largest point — 16 sites ×
400 streams — by running 3 and 30 windows and asserting the telemetry
footprint stays flat within 10 %, while also reporting events/sec through
the ring and the process peak RSS::

    PYTHONPATH=src python benchmarks/bench_telemetry.py

``run_benchmarks.py --quick`` runs the smaller committed-baseline shape
(``benchmarks/baselines/telemetry_baseline.json``) as a CI memory-bound
gate.  Running this file records nothing; ``run_benchmarks.py
--fleet-output PATH`` appends the full point to a fleet trajectory under a
``telemetry`` key.
"""

from __future__ import annotations

import resource
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_io import load_json_if_exists  # noqa: E402
from fleet_bench_core import build_fleet_simulator  # noqa: E402

TELEMETRY_BASELINE_PATH = Path(__file__).resolve().parent / "baselines" / "telemetry_baseline.json"

#: The fleet sweep's largest point: 16 sites × 25 streams/site = 400 streams.
FULL_SITES = 16
FULL_STREAMS_PER_SITE = 25
#: Window counts the flatness assertion compares (10× more simulated time
#: must not grow the telemetry footprint by more than the bound below).
FULL_WINDOWS = (3, 30)
#: Maximum allowed footprint growth ratio between the two window counts.
FLATNESS_BOUND = 1.10


def peak_rss_kb() -> int:
    """Peak resident set size of this process so far, in KiB (Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def measure_telemetry_point(
    num_sites: int, streams_per_site: int, num_windows: int
) -> Dict:
    """Run one fleet shape and report the telemetry plane's accounting."""
    simulator = build_fleet_simulator(num_sites, streams_per_site)
    result = simulator.run(num_windows)
    wall = result.wall_clock_seconds
    report = simulator.telemetry.memory_report()
    events = report["events_recorded"]
    return {
        "num_sites": num_sites,
        "num_streams": num_sites * streams_per_site,
        "num_windows": num_windows,
        "wall_clock_seconds": wall,
        "events_recorded": events,
        "events_per_second": events / wall if wall > 0 else 0.0,
        "events_dropped": report["events_dropped"],
        "ring_occupancy": report["ring_occupancy"],
        "ring_capacity": report["ring_capacity"],
        "site_stat_rows": report["site_stat_rows"],
        "sampled_series_streams": report["sampled_series_streams"],
        "telemetry_bytes": report["telemetry_bytes"],
        "peak_rss_kb": peak_rss_kb(),
    }


def measure_telemetry_scaling(
    *,
    num_sites: int = FULL_SITES,
    streams_per_site: int = FULL_STREAMS_PER_SITE,
    windows: Sequence[int] = FULL_WINDOWS,
) -> Dict:
    """Telemetry footprint across window counts at one fleet shape."""
    points = [
        measure_telemetry_point(num_sites, streams_per_site, num_windows)
        for num_windows in windows
    ]
    smallest, largest = points[0], points[-1]
    return {
        "points": points,
        "footprint_growth_ratio": largest["telemetry_bytes"] / smallest["telemetry_bytes"],
    }


def check_telemetry_bound(scaling: Dict, baseline: Dict) -> List[str]:
    """Memory-bound assertions for a measured telemetry scaling result.

    Three gates: the footprint must stay flat across window counts (within
    the committed growth ratio), stay under the committed absolute byte
    bound, and the default-sized ring must not have evicted anything (the
    parity gates rely on ``event_trace`` staying complete at these scales).
    """
    failures = []
    max_growth = baseline.get("max_growth_ratio", FLATNESS_BOUND)
    growth = scaling["footprint_growth_ratio"]
    if growth > max_growth:
        small, large = scaling["points"][0], scaling["points"][-1]
        failures.append(
            f"telemetry footprint grew {growth:.3f}x from "
            f"{small['num_windows']} to {large['num_windows']} windows "
            f"({small['telemetry_bytes']} -> {large['telemetry_bytes']} bytes; "
            f"bound {max_growth:.2f}x) — the plane is no longer bounded"
        )
    max_bytes = baseline.get("max_telemetry_bytes")
    for point in scaling["points"]:
        if max_bytes is not None and point["telemetry_bytes"] > max_bytes:
            failures.append(
                f"telemetry footprint {point['telemetry_bytes']} bytes at "
                f"{point['num_windows']} windows exceeds the committed bound "
                f"{max_bytes}"
            )
        if point["events_dropped"] != 0:
            failures.append(
                f"default-sized ring evicted {point['events_dropped']} events "
                f"at {point['num_sites']} sites x {point['num_windows']} "
                f"windows — event_trace completeness (and the parity gates "
                f"reading it) is no longer guaranteed at benchmark scales"
            )
    return failures


def load_telemetry_baseline(path: Optional[Path] = None) -> Optional[Dict]:
    return load_json_if_exists(path if path is not None else TELEMETRY_BASELINE_PATH)


def check_quick_telemetry_bound(path: Optional[Path] = None) -> List[str]:
    """The ``run_benchmarks.py --quick`` gate: committed quick-shape bound."""
    baseline = load_telemetry_baseline(path)
    if baseline is None:
        return []
    quick = baseline["quick"]
    scaling = measure_telemetry_scaling(
        num_sites=quick["num_sites"],
        streams_per_site=quick["streams_per_site"],
        windows=quick["windows"],
    )
    return check_telemetry_bound(scaling, quick)


def main(argv=None) -> int:
    print(
        f"measuring telemetry footprint at {FULL_SITES} sites x "
        f"{FULL_SITES * FULL_STREAMS_PER_SITE} streams, windows {FULL_WINDOWS}..."
    )
    scaling = measure_telemetry_scaling()
    for point in scaling["points"]:
        print(
            f"  {point['num_windows']:3d} windows: "
            f"{point['telemetry_bytes'] / 1024:7.0f} KiB telemetry | "
            f"{point['events_recorded']:6d} events "
            f"({point['events_per_second']:8.0f}/s) | "
            f"ring {point['ring_occupancy']}/{point['ring_capacity']} "
            f"({point['events_dropped']} dropped) | "
            f"peak RSS {point['peak_rss_kb'] / 1024:.0f} MiB"
        )
    print(f"  footprint growth ratio {scaling['footprint_growth_ratio']:.3f}x")
    failures = check_telemetry_bound(scaling, {"max_growth_ratio": FLATNESS_BOUND})
    if failures:
        print("TELEMETRY MEMORY BOUND VIOLATED:")
        for message in failures:
            print(f"  - {message}")
        return 1
    print(f"telemetry footprint flat within {FLATNESS_BOUND:.2f}x across windows")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
