#!/usr/bin/env python3
"""Fleet-simulator benchmark: end-to-end host time and simulated accuracy.

Run from the repository root::

    python3 fleetbench/run.py --workload long_horizon --seed 1 --seconds 30 --trace 0

``--trace 0`` repeats the untraced workload for about ``--seconds`` seconds
and reports the end-to-end metrics.  ``--trace 1`` alternates untraced and
traced repetitions (two traced ones at least) and reports the per-layer metrics (see ``spans.py``); the
spans of the last traced repetition are written to ``.fleetbench/``.

End-to-end metrics (untraced; host times at reference speed, see
``hostspeed.py``), pooled over every repetition of the run:

* ``setup_s``: median set-up time (``make_fleet``, scenario compile,
  ``FleetSimulator`` construction) over at least ``SETUP_SAMPLES`` set-ups;
* ``stream_windows_per_s``: stream-window outcomes settled, divided by the
  host seconds of all window steps;
* ``window_ms_p50``: median host time of one window step, each step scaled
  to the mean step size in settled stream-windows (a heterogeneous-window
  step settles anywhere from a few to twice the mean; on fixed-window fleets
  the scale is 1);
* ``horizon_growth``: host time per settled stream-window in the last third
  of the window steps over that in the first third; flat cost reads 1;
* ``peak_rss_mib``: peak resident set of this process;
* ``mean_accuracy`` and ``p10_stream_accuracy``: the simulated fleet-mean
  and p10 worst-stream accuracy from ``FleetResult.summary()``.

The ``info`` line printed before the result gives each metric's better
direction, the host-time metrics raw, the machine, the workload shape, the
seed and the sample counts.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

The command exits non-zero when an operation fails, when the simulated
outcomes of one seed differ between repetitions, or when the traced and
untraced outcomes differ.  Everything runs in this one process on one
thread: the BLAS thread pools are pinned to one thread before numpy loads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".fleetbench"
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Set-up is cheap and noisy, so it is sampled at least this many times.
SETUP_SAMPLES = 9

#: End-to-end metrics with their (unit, better direction), in report order.
END_TO_END_METRICS: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "stream_windows_per_s": ("1/s", "higher"),
    "window_ms_p50": ("ms", "lower"),
    "horizon_growth": ("ratio", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
    "mean_accuracy": ("fraction", "higher"),
    "p10_stream_accuracy": ("fraction", "higher"),
}


def pin_threads() -> None:
    """Pin BLAS thread pools to one thread; must run before numpy is imported."""
    for variable in BLAS_THREAD_VARIABLES:
        os.environ[variable] = "1"


def load_program() -> None:
    """Import the simulator from ``src`` and warm the interpreter up.

    Raises :class:`FileNotFoundError` when the checkout has no simulator.
    """
    if not (SRC / "repro" / "fleet").is_dir():
        raise FileNotFoundError(f"no fleet simulator sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro.fleet  # noqa: F401  (import cost is not part of any metric)
    from hostspeed import probe

    for _ in range(5):
        probe()


def fingerprint() -> Dict[str, object]:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARIABLES},
    }


def _repeat(seconds: float, once, minimum: int = 1) -> List:
    """Call ``once()`` until another call as long as the longest would overrun.

    ``once`` is called at least ``minimum`` times and returns a list of
    repetitions; stops early on a failed one.
    """
    done: List = []
    begin = time.perf_counter()
    longest = 0.0
    calls = 0
    while True:
        start = time.perf_counter()
        reps = once()
        calls += 1
        done.extend(reps)
        longest = max(longest, time.perf_counter() - start)
        if any(rep.failed for rep in reps):
            return done
        if calls >= minimum and time.perf_counter() - begin + longest > seconds:
            return done


def _determinism_problems(reps: Sequence, label: str) -> List[str]:
    """Simulated outcomes of one seed must repeat bit for bit."""
    first = reps[0].summary
    problems = []
    for index, rep in enumerate(reps[1:], start=1):
        if rep.summary != first:
            changed = sorted(k for k in first if rep.summary.get(k) != first[k])
            problems.append(f"{label} repetition {index} differs from the first in {changed}")
    return problems


def measure_end_to_end(workload, seed: int, seconds: float):
    """Untraced repetitions for ``seconds``; returns (metrics, info), reps, problems."""
    from hostspeed import SpeedProbe
    from workloads import run_repetition, timed_setup

    speed = SpeedProbe()
    reps = _repeat(seconds, lambda: [run_repetition(workload, seed, speed)])
    problems = [v for rep in reps for v in rep.violations]
    if problems:
        return None, reps, problems
    problems = _determinism_problems(reps, "untraced")
    setups = [(rep.setup_s, rep.setup_ref_s) for rep in reps]
    for _ in range(SETUP_SAMPLES - len(setups)):
        setups.append(timed_setup(workload, seed, speed)[1:])

    settled = [rep.step_stream_windows for rep in reps]
    third = max(1, workload.steps // 3)

    def host_metrics(setup: List[float], steps: List[List[float]]) -> Dict[str, float]:
        # Steps settle different numbers of stream-windows (heterogeneous
        # windows, arrivals), which made the raw per-step median and growth
        # depend on the seed's event schedule; per stream-window they do not.
        pairs = [list(zip(s, n)) for s, n in zip(steps, settled)]
        mean_size = sum(map(sum, settled)) / sum(map(len, settled))

        def per_stream_window(part: slice) -> float:
            chosen = [pair for rep in pairs for pair in rep[part]]
            return sum(t for t, _ in chosen) / sum(n for _, n in chosen)

        return {
            "setup_s": statistics.median(setup),
            "stream_windows_per_s": sum(map(sum, settled)) / sum(map(sum, steps)),
            "window_ms_p50": statistics.median(
                t * mean_size / n for rep in pairs for t, n in rep if n
            )
            * 1e3,
            "horizon_growth": per_stream_window(slice(-third, None))
            / per_stream_window(slice(None, third)),
        }

    metrics = host_metrics([ref for _, ref in setups], [r.step_ref_s for r in reps])
    metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["mean_accuracy"] = reps[0].summary["mean_accuracy"]
    metrics["p10_stream_accuracy"] = reps[0].summary["p10_worst_stream_accuracy"]
    info = {
        "repetitions": len(reps),
        "setup_samples": len(setups),
        "window_steps": sum(len(r.step_s) for r in reps),
        "stream_windows_per_repetition": reps[0].stream_windows,
        "raw_host_time": host_metrics([raw for raw, _ in setups], [r.step_s for r in reps]),
    }
    return (metrics, info), reps, problems


def measure_per_layer(workload, seed: int, seconds: float):
    """Alternating untraced/traced repetitions; returns (metrics, info), reps, problems."""
    from hostspeed import SpeedProbe
    from spans import EXACT_METRICS, SUMMARY_COUNTS, Tracer
    from workloads import run_repetition

    speed = SpeedProbe()
    per_rep: List[Dict[str, float]] = []
    last_tracer: Optional[Tracer] = None

    def pair() -> List:
        nonlocal last_tracer
        plain = run_repetition(workload, seed, speed)
        tracer = Tracer()
        traced = run_repetition(workload, seed, speed, around_steps=tracer)
        if not traced.failed:
            # Reduce the spans now and keep only the latest repetition's.
            metrics = tracer.layer_metrics(traced.stream_windows)
            metrics["fleet.calendar.events"] = traced.events_recorded
            for name, key in SUMMARY_COUNTS.items():
                metrics[name] = traced.summary[key]
            metrics["trace.overhead"] = sum(traced.step_ref_s) / sum(plain.step_ref_s) - 1.0
            per_rep.append(metrics)
            last_tracer = tracer
        return [plain, traced]

    # Two traced repetitions at least, however short --seconds is, so the
    # check that the exact counters repeat always has something to compare.
    reps = _repeat(seconds, pair, minimum=2)
    problems = [v for rep in reps for v in rep.violations]
    if problems:
        return None, reps, problems
    problems = _determinism_problems(reps, "traced/untraced")
    for name in EXACT_METRICS:
        values = {m[name] for m in per_rep}
        if len(values) > 1:
            problems.append(f"exact counter {name} differs across runs: {sorted(values)}")
    metrics = {name: statistics.median(m[name] for m in per_rep) for name in per_rep[0]}
    last_tracer.write(TRACE_DIR / f"spans-{workload.name}-seed{seed}.npz")
    info = {
        "repetitions": len(per_rep),
        "absent_entry_points": last_tracer.absent,
        "spans_per_repetition": len(last_tracer.entry),
    }
    return (metrics, info), reps, problems


def run(workload, seed: int, seconds: float, trace: bool) -> Tuple[Dict, Dict]:
    """Measure one workload; returns the ``info`` header and the result object.

    The result object's metrics carry value and unit only; the header names
    each metric's better direction under ``better``.
    """
    from spans import per_layer_metrics

    measure = measure_per_layer if trace else measure_end_to_end
    measured, reps, problems = measure(workload, seed, seconds)
    names = per_layer_metrics() if trace else END_TO_END_METRICS
    header = {
        "workload": workload.name,
        "seed": seed,
        "shape": workload.shape(),
        "machine": fingerprint(),
        "better": {name: better for name, (_, better) in names.items()},
    }
    if measured is not None:
        header["samples"] = measured[1]
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    metrics = {}
    if measured is not None:
        metrics = {
            name: {"value": measured[0][name], "unit": unit}
            for name, (unit, _) in names.items()
        }
    result = {
        "correct": not problems,
        "attempted": sum(rep.attempted for rep in reps),
        "failed": sum(rep.failed for rep in reps),
        "metrics": metrics,
    }
    return header, result


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    pin_threads()
    try:
        load_program()
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: cannot load the fleet simulator: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    header, result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print("info " + json.dumps(header, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
