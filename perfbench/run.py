"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig1_sweep --seed 1 --seconds 10
    python3 perfbench/run.py --workload serve_mixed --seed 1 --trace 1

With ``--trace 0`` the result carries every end-to-end metric named in
``BENCHMARK.json``; with ``--trace 1`` it carries every per-layer
metric from a separate traced run.  Human-readable notes come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed
correctness check, or any operation that failed or did not halt,
prints ``"correct": false`` and exits with status 1.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from common import scaled
from hostspeed import HostSpeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig1_sweep", "seed_batch", "serve_mixed")

#: Set-up is measured this many times per run (one in this process,
#: the rest in fresh interpreters) and reported as the median.
SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 120

#: Units of per-layer metrics that host speed scales (see hostspeed.py).
TIME_UNITS = ("s", "ms", "ns")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="time one cold set-up, print it, and exit")
    return parser.parse_args(argv)


def load_catalog():
    """Metric names and units, from ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def timed_setup(workload, workdir, speed, start: float):
    """Set up once, timed from ``start``; returns the seconds scaled to
    the reference host speed and as measured, and the set-up state."""
    state = workload.setup(workdir)
    end = time.perf_counter()
    return (scaled(speed, start, end), end - start), state


def probe_setup(name: str):
    """One cold set-up in a fresh interpreter: (scaled, unscaled) s."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
         "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, check=True,
        timeout=PROBE_TIMEOUT_S)
    return tuple(map(float, done.stdout.strip().splitlines()[-1].split()))


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"error: no repro package under {src}; run from a full "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    # The program's result cache and temporary files stay in the checkout.
    os.environ.pop("REPRO_RESULT_CACHE", None)
    work_root = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    tempfile.tempdir = workdir
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass  # another run still uses it


def run(args, workdir: str) -> int:
    workload = importlib.import_module(args.workload)
    end_to_end, per_layer = load_catalog()
    if workload.ONE_CPU:
        # One busy thread: it and the host speed sampler share one CPU,
        # so the sampler times the CPU the work runs on.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # Nothing has imported numpy yet: the sampler imports it on entry,
    # so the set-up time includes numpy's import like the program's.
    start = time.perf_counter()
    with HostSpeed() as speed:
        sample, state = timed_setup(workload, workdir, speed, start)
        try:
            if args.setup_probe:
                print(*map(repr, sample))
                return 0
            # A traced run reports no setup_s, so it sets up only once.
            samples = [sample] + [
                probe_setup(args.workload)
                for _ in range(0 if args.trace else SETUP_SAMPLES - 1)]
            outcome = workload.run(args.seed, args.seconds,
                                   bool(args.trace), state, speed)
        finally:
            workload.teardown(state)
    return report(args, outcome, samples,
                  per_layer if args.trace else end_to_end)


def report(args, outcome, samples, catalog) -> int:
    """Scale host times to the reference speed, check, and print."""
    if args.trace:
        idle = sorted(set(catalog) - set(outcome.metrics))
        outcome.metrics.update(dict.fromkeys(idle, 0.0))
        if idle:
            outcome.notes.append(f"idle on {args.workload}: "
                                 f"{', '.join(idle)}")
    else:
        outcome.metrics["setup_s"] = statistics.median(s for s, _ in samples)
        outcome.raw["setup_s"] = statistics.median(r for _, r in samples)
        outcome.metrics["success_rate"] = outcome.success_rate
        outcome.notes.append(
            f"setup_s is the median of {len(samples)} set-ups: "
            f"{', '.join(f'{s:.3f}' for s, _ in samples)}")
    unknown = set(outcome.metrics) - set(catalog)
    missing = set(catalog) - set(outcome.metrics)
    if unknown or missing:
        raise SystemExit(f"metric set differs from BENCHMARK.json: "
                         f"unknown {sorted(unknown)}, missing "
                         f"{sorted(missing)}")
    if args.trace:
        # End-to-end metrics come scaled from the workloads; the layer
        # times take the factor of the whole traced window.
        for name, unit in catalog.items():
            if unit in TIME_UNITS:
                outcome.raw[name] = outcome.metrics[name]
                outcome.metrics[name] *= outcome.speed
    outcome.notes.append(
        f"host speed factor {outcome.speed:.3f} over the measured window; "
        f"times and rates are scaled to the reference speed, with the "
        f"unscaled value in parentheses")

    for note in outcome.notes:
        print(f"{args.workload}: {note}")
    for mismatch in outcome.mismatches:
        print(f"{args.workload}: CHECK FAILED: {mismatch}")
    for name in catalog:
        unscaled = (f" (unscaled {outcome.raw[name]:.6g})"
                    if name in outcome.raw else "")
        print(f"{args.workload}: {name} = {outcome.metrics[name]:.6g} "
              f"{catalog[name]}{unscaled}")
    correct = not outcome.mismatches and not outcome.failed
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": float(outcome.metrics[name]),
                           "unit": catalog[name]} for name in catalog},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
