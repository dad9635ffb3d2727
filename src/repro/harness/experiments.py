"""One driver per paper table/figure (the reproduction's entry points).

Each function returns plain data (lists of dicts) so the benchmark
suite, the examples and EXPERIMENTS.md all consume the same numbers.

Every sweep driver builds its :class:`~repro.harness.parallel.SweepPoint`
list once and runs it through one :func:`~repro.harness.parallel.
run_points` call (``jobs`` worker processes; the disk cache of
``cache_dir``, else of ``$REPRO_RESULT_CACHE``).  Outcomes are memoized
per point for the life of the process: several figures share runs.

Sweeps are crash-isolated: every point runs through
:func:`~repro.harness.runner.run_kernel_safe` under an instruction
budget, so a single trapping or runaway configuration cannot abort a
figure.  Each row carries ``status`` ('ok', 'trap', 'budget_exceeded'
or 'error') and ``detail``; failed points keep their metric fields as
``None`` and are skipped by the per-figure averages.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, List, Optional, Tuple

from ..fp.formats import supported_vector_formats
from ..kernels import BENCHMARK_NAMES, KERNELS
from ..sim.memory import LATENCY_LEVELS
from .parallel import SweepPoint, resolve_cache, run_points
from .runner import (KernelExecutionError, KernelRun, SafeRunOutcome,
                     kernel_profile)

#: Lane counts per C type keyword at FLEN = 32.
_LANES = {"float16": 2, "float16alt": 2, "float8": 4}

#: Default per-point watchdog for figure sweeps.
DEFAULT_POINT_BUDGET = 50_000_000

_MEMO: Dict[SweepPoint, SafeRunOutcome] = {}
_MEMO_LOCK = threading.Lock()


def _reset_memo_in_child() -> None:
    """Give forked children a private, empty memo and a fresh lock.

    A child inheriting the parent's memo could serve rows the parent is
    concurrently inserting (a fork can land mid-update), and a lock
    held at fork time would deadlock the child forever.  Parallel
    sweep workers therefore always start clean; shared points come from
    the keyed disk cache instead.
    """
    global _MEMO_LOCK
    _MEMO_LOCK = threading.Lock()
    _MEMO.clear()


if hasattr(os, "register_at_fork"):  # POSIX only
    os.register_at_fork(after_in_child=_reset_memo_in_child)


def _sweep(points: List[SweepPoint], jobs: int = 1,
           cache_dir: Optional[str] = None
           ) -> Dict[SweepPoint, SafeRunOutcome]:
    """The outcome of every point: memoized ones from this process,
    the rest from one :func:`run_points` call."""
    with _MEMO_LOCK:
        found = {p: _MEMO[p] for p in points if p in _MEMO}
    missing = [p for p in points if p not in found]
    if missing:
        results = run_points(missing, jobs=jobs,
                             cache=resolve_cache(cache_dir))
        # setdefault keeps the first writer's row, so concurrent callers
        # of the same point always observe one identical object.
        with _MEMO_LOCK:
            for point, outcome in results.items():
                found[point] = _MEMO.setdefault(point, outcome)
    return found


def _require(outcome: SafeRunOutcome, point: SweepPoint) -> KernelRun:
    """The run of a point that must have completed."""
    if not outcome.ok:
        raise KernelExecutionError(
            f"{point.name} [{point.ftype}, {point.mode}, "
            f"latency={point.mem_latency}] ended with "
            f"{outcome.status}: {outcome.detail}",
            exit_reason=outcome.status, trap=outcome.trap,
        )
    return outcome.run


def cached_run(name: str, ftype: str, mode: str, mem_latency: int = 1,
               seed: int = 0) -> KernelRun:
    """The memoized run of one point (figures share configurations).

    Raises :class:`KernelExecutionError` if the point did not complete.
    """
    point = SweepPoint(name, ftype, mode, mem_latency, seed,
                       DEFAULT_POINT_BUDGET)
    return _require(_sweep([point])[point], point)


def clear_cache() -> None:
    """Forget every memoized point outcome of this process."""
    with _MEMO_LOCK:
        _MEMO.clear()


def _point_row(outcome: SafeRunOutcome) -> Dict:
    """The status fields every sweep row carries."""
    return {"status": outcome.status,
            "detail": outcome.detail if not outcome.ok else ""}


# ----------------------------------------------------------------------
# Fig. 1 -- speedup of smallFloat types vs float (auto vs manual + ideal)
# ----------------------------------------------------------------------
def ideal_speedup(baseline: KernelRun, lanes: int) -> float:
    """Analytic best case (the dashed bar segment of Fig. 1).

    In the limit, vectorization runs every data-loop instruction --
    FP work, memory accesses, address arithmetic and loop control --
    ``lanes`` elements at a time with no prologue/epilogue remainder.
    Only genuinely serial work (calls/returns, CSR accesses, iterative
    divides) stays scalar.  Measured speedups fall short of this bound
    through epilogue loops, non-vectorizable statements and per-lane
    reduction unpacking.
    """
    breakdown = baseline.trace.by_category
    serial = (
        breakdown.get("jump", 0)
        + breakdown.get("csr", 0)
        + breakdown.get("div", 0)
    )
    vectorizable = baseline.trace.instret - serial
    ideal_instr = serial + vectorizable / lanes
    # Scale cycles proportionally to the instruction reduction.
    return baseline.trace.instret / ideal_instr


def fig1_points(
    benchmarks: Optional[List[str]] = None,
    ftypes: Tuple[str, ...] = ("float16", "float16alt", "float8"),
    seed: int = 0,
    instruction_budget: int = DEFAULT_POINT_BUDGET,
) -> List[SweepPoint]:
    """The exact point set :func:`fig1_speedup` runs."""
    benchmarks = benchmarks or list(BENCHMARK_NAMES)
    points: List[SweepPoint] = []
    for bench in benchmarks:
        spec = KERNELS[bench]
        points.append(SweepPoint(bench, "float", "scalar", 1, seed,
                                 instruction_budget))
        for ftype in ftypes:
            points.append(SweepPoint(bench, ftype, "auto", 1, seed,
                                     instruction_budget))
            if spec.manual_source_fn is not None:
                points.append(SweepPoint(bench, ftype, "manual", 1, seed,
                                         instruction_budget))
    return points


def fig1_speedup(
    benchmarks: Optional[List[str]] = None,
    ftypes: Tuple[str, ...] = ("float16", "float16alt", "float8"),
    seed: int = 0,
    instruction_budget: int = DEFAULT_POINT_BUDGET,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
) -> List[Dict]:
    """Speedup of each smallFloat type over float, auto vs manual.

    Returns one row per (benchmark, type, mode) with measured and ideal
    speedups, plus per-type/mode averages under benchmark ``"average"``.
    Points that trap or exceed the instruction budget stay in the output
    with their ``status``/``detail`` set and ``None`` metrics; the sweep
    itself always completes.

    ``jobs`` computes the points in that many worker processes;
    ``cache_dir`` additionally persists them for other processes.
    """
    benchmarks = benchmarks or list(BENCHMARK_NAMES)
    points = fig1_points(benchmarks, ftypes, seed, instruction_budget)
    done = _sweep(points, jobs, cache_dir)
    rows: List[Dict] = []
    sums: Dict[Tuple[str, str], List[float]] = {}
    for point in points:
        if point.mode == "scalar":  # each benchmark's float baseline
            base_outcome = done[point]
            base = base_outcome.run if base_outcome.ok else None
            continue
        row = {"benchmark": point.name, "ftype": point.ftype,
               "mode": point.mode, "cycles": None, "base_cycles": None,
               "speedup": None, "ideal": None}
        if base is None:
            row.update(status=base_outcome.status,
                       detail=f"baseline: {base_outcome.detail}")
            rows.append(row)
            continue
        outcome = done[point]
        row.update(_point_row(outcome))
        if outcome.ok:
            speedup = base.cycles / outcome.run.cycles
            row.update({
                "cycles": outcome.run.cycles,
                "base_cycles": base.cycles,
                "speedup": speedup,
                "ideal": ideal_speedup(base, _LANES[point.ftype]),
            })
            sums.setdefault((point.ftype, point.mode), []).append(speedup)
        rows.append(row)
    for (ftype, mode), values in sorted(sums.items()):
        rows.append({
            "benchmark": "average",
            "ftype": ftype,
            "mode": mode,
            "speedup": sum(values) / len(values),
            "ideal": None,
            "cycles": None,
            "base_cycles": None,
            "status": "ok",
            "detail": "",
        })
    return rows


# ----------------------------------------------------------------------
# Fig. 2 -- speedup for increasing memory latencies (manual builds)
# ----------------------------------------------------------------------
def _manual_benchmarks() -> List[str]:
    """The paper benchmarks that have a hand-vectorized form."""
    return [b for b in BENCHMARK_NAMES if KERNELS[b].manual_source_fn]


def fig23_points(
    benchmarks: Optional[List[str]] = None,
    ftypes: Tuple[str, ...] = ("float16", "float8"),
    seed: int = 0,
) -> List[SweepPoint]:
    """The latency-sweep point set shared by Figs. 2 and 3."""
    benchmarks = benchmarks or _manual_benchmarks()
    points: List[SweepPoint] = []
    for bench in benchmarks:
        for latency in LATENCY_LEVELS.values():
            points.append(SweepPoint(bench, "float", "scalar", latency, seed,
                                     DEFAULT_POINT_BUDGET))
            for ftype in ftypes:
                points.append(SweepPoint(bench, ftype, "manual", latency,
                                         seed, DEFAULT_POINT_BUDGET))
    return points


def _latency_rows(benchmarks, ftypes, seed, jobs, cache_dir,
                  blank: Dict, score) -> List[Dict]:
    """One Fig. 2/3 row per (benchmark, latency level, type).

    ``blank`` holds the row's metric fields; a completed point fills
    them with ``score(float_run, run)`` at the same latency.
    """
    benchmarks = benchmarks or _manual_benchmarks()
    done = _sweep(fig23_points(benchmarks, ftypes, seed), jobs, cache_dir)
    rows: List[Dict] = []
    for bench in benchmarks:
        for level, latency in LATENCY_LEVELS.items():
            base = done[SweepPoint(bench, "float", "scalar", latency, seed,
                                   DEFAULT_POINT_BUDGET)]
            for ftype in ftypes:
                row = {"benchmark": bench, "ftype": ftype, "level": level,
                       "latency": latency, **blank}
                if not base.ok:
                    row.update(status=base.status,
                               detail=f"baseline: {base.detail}")
                    rows.append(row)
                    continue
                outcome = done[SweepPoint(bench, ftype, "manual", latency,
                                          seed, DEFAULT_POINT_BUDGET)]
                row.update(_point_row(outcome))
                if outcome.ok:
                    row.update(score(base.run, outcome.run))
                rows.append(row)
    return rows


def fig2_latency_speedup(
    benchmarks: Optional[List[str]] = None,
    ftypes: Tuple[str, ...] = ("float16", "float8"),
    seed: int = 0,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
) -> List[Dict]:
    """Speedup vs the float baseline *at the same latency level*.

    Only manually vectorized builds, only float16 (float16alt behaves
    identically) -- exactly the paper's protocol from Fig. 2 on.
    """
    return _latency_rows(
        benchmarks, ftypes, seed, jobs, cache_dir, {"speedup": None},
        lambda base, run: {"speedup": base.cycles / run.cycles})


def fig2_latency_gains(rows: Optional[List[Dict]] = None) -> Dict[str, Dict[str, float]]:
    """Average relative speedup gain of L2/L3 over L1 per type.

    The paper reports +7.4 % (L2) and +10.65 % (L3) for float16, and
    +4.75 % / +8.01 % for float8.
    """
    rows = rows if rows is not None else fig2_latency_speedup()
    gains: Dict[str, Dict[str, float]] = {}
    ftypes = sorted({r["ftype"] for r in rows})
    for ftype in ftypes:
        per_level: Dict[str, List[float]] = {}
        for row in rows:
            if row["ftype"] == ftype and row["speedup"] is not None:
                per_level.setdefault(row["level"], []).append(row["speedup"])
        avg = {lvl: sum(v) / len(v) for lvl, v in per_level.items()}
        gains[ftype] = {
            "L2_vs_L1": avg["L2"] / avg["L1"] - 1.0,
            "L3_vs_L1": avg["L3"] / avg["L1"] - 1.0,
        }
    return gains


# ----------------------------------------------------------------------
# Fig. 3 -- energy normalized to float, for increasing latencies
# ----------------------------------------------------------------------
def fig3_energy(
    benchmarks: Optional[List[str]] = None,
    ftypes: Tuple[str, ...] = ("float16", "float8"),
    seed: int = 0,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
) -> List[Dict]:
    """Energy of the manual smallFloat builds normalized to float."""
    return _latency_rows(
        benchmarks, ftypes, seed, jobs, cache_dir,
        {"energy_pj": None, "normalized": None},
        lambda base, run: {"energy_pj": run.energy.total,
                           "normalized": run.energy.total
                           / base.energy.total})


def fig3_average_savings(rows: Optional[List[Dict]] = None) -> Dict[str, Dict[str, float]]:
    """Average energy saving vs float per type per latency level.

    The paper's headline: ~30 % for the 16-bit types and ~50 % for
    binary8 with data in L1.
    """
    rows = rows if rows is not None else fig3_energy()
    out: Dict[str, Dict[str, float]] = {}
    for ftype in sorted({r["ftype"] for r in rows}):
        out[ftype] = {}
        for level in ("L1", "L2", "L3"):
            values = [
                1.0 - r["normalized"]
                for r in rows
                if r["ftype"] == ftype and r["level"] == level
                and r["normalized"] is not None
            ]
            out[ftype][level] = sum(values) / len(values)
    return out


# ----------------------------------------------------------------------
# Table II -- supported vector formats per FLEN
# ----------------------------------------------------------------------
def table2_vector_formats() -> Dict[int, Dict[str, Optional[int]]]:
    """The full Table II matrix (FLEN in {16, 32, 64})."""
    return {flen: supported_vector_formats(flen) for flen in (64, 32, 16)}


# ----------------------------------------------------------------------
# Table III -- SQNR per benchmark per type
# ----------------------------------------------------------------------
def table3_sqnr(
    benchmarks: Optional[List[str]] = None,
    ftypes: Tuple[str, ...] = ("float16", "float16alt", "float8"),
    seed: int = 0,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
) -> List[Dict]:
    """SQNR (dB) of program outputs vs the binary64 reference."""
    benchmarks = benchmarks or list(BENCHMARK_NAMES)
    points = [SweepPoint(bench, ftype, "scalar", 1, seed,
                         DEFAULT_POINT_BUDGET)
              for bench in benchmarks for ftype in ftypes]
    done = _sweep(points, jobs, cache_dir)
    rows: List[Dict] = []
    for point in points:
        outcome = done[point]
        row = {"benchmark": point.name, "ftype": point.ftype,
               "sqnr_db": None}
        row.update(_point_row(outcome))
        if outcome.ok:
            row["sqnr_db"] = outcome.run.sqnr_db()
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Format shootout -- QoR/energy across registered storage formats
# ----------------------------------------------------------------------
def format_shootout(
    benchmarks: Optional[List[str]] = None,
    ftypes: Tuple[str, ...] = ("float8", "posit8", "mx8"),
    seed: int = 0,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
) -> List[Dict]:
    """Accuracy vs energy for competing storage formats, per kernel.

    Every format is driven through the identical scalar pipeline --
    compile, simulate, score against the binary64 reference, price with
    the energy model -- so the comparison has no per-format special
    cases: any name in :func:`repro.fp.registry.kernel_ftypes` works.
    ``energy_vs_float`` normalizes to the binary32 build of the same
    kernel (< 1.0 means the narrow format saves energy).
    """
    benchmarks = benchmarks or list(BENCHMARK_NAMES)
    points = [SweepPoint(bench, ftype, "scalar", 1, seed,
                         DEFAULT_POINT_BUDGET)
              for bench in benchmarks for ftype in ("float",) + tuple(ftypes)]
    done = _sweep(points, jobs, cache_dir)
    rows: List[Dict] = []
    for bench in benchmarks:
        base = done[SweepPoint(bench, "float", "scalar", 1, seed,
                               DEFAULT_POINT_BUDGET)]
        for ftype in ftypes:
            outcome = done[SweepPoint(bench, ftype, "scalar", 1, seed,
                                      DEFAULT_POINT_BUDGET)]
            row = {"benchmark": bench, "ftype": ftype, "sqnr_db": None,
                   "cycles": None, "energy_pj": None,
                   "energy_vs_float": None}
            row.update(_point_row(outcome))
            if outcome.ok:
                run = outcome.run
                row["sqnr_db"] = run.sqnr_db()
                row["cycles"] = run.trace.cycles
                row["energy_pj"] = run.energy.total
                if base.ok:
                    row["energy_vs_float"] = (run.energy.total
                                              / base.run.energy.total)
            rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Fig. 4 -- SVM instruction-count breakdown under mixed precision
# ----------------------------------------------------------------------
def _svm_runs(variants: Dict[str, Tuple[str, str, str]], seed: int,
              jobs: int, cache_dir: Optional[str]) -> Dict[str, KernelRun]:
    """The run of each ``label -> (kernel, ftype, mode)`` SVM variant;
    raises :class:`KernelExecutionError` if one did not complete."""
    points = {label: SweepPoint(name, ftype, mode, 1, seed,
                                DEFAULT_POINT_BUDGET)
              for label, (name, ftype, mode) in variants.items()}
    done = _sweep(list(points.values()), jobs, cache_dir)
    return {label: _require(done[point], point)
            for label, point in points.items()}


def fig4_breakdown(seed: int = 0, jobs: int = 1,
                   cache_dir: Optional[str] = None
                   ) -> Dict[str, Dict[str, int]]:
    """Instruction mixes: original float vs auto vs manual mixed SVM."""
    runs = _svm_runs({"original": ("svm", "float", "scalar"),
                      "auto": ("svm_mixed", "float16", "auto"),
                      "manual": ("svm_mixed", "float16", "manual")},
                     seed, jobs, cache_dir)
    return {label: dict(run.trace.merged_breakdown())
            for label, run in runs.items()}


# ----------------------------------------------------------------------
# Fig. 5 -- auto vs manual vectorization of the dot-product loop
# ----------------------------------------------------------------------
_FIG5_AUTO_SRC = """
float dot(float16 *a, float16 *b, int n) {
    float sum = 0.0;
    for (int i = 0; i < n; i = i + 1) {
        sum = sum + a[i] * b[i];
    }
    return sum;
}
"""

_FIG5_MANUAL_SRC = """
float dot(float16v *a, float16v *b, int n2) {
    float sum = 0.0;
    for (int i = 0; i < n2; i = i + 1) {
        sum = __dotpex_f16(sum, a[i], b[i]);
    }
    return sum;
}
"""


def fig5_codegen() -> Dict[str, object]:
    """The Fig. 5 comparison: auto-vectorized vs manually vectorized
    dot product.  Returns both assembly listings and the inner-loop
    instruction counts (the paper reports a 25 % reduction)."""
    from ..compiler import compile_source

    auto = compile_source(_FIG5_AUTO_SRC, vectorize_loops=True)
    manual = compile_source(_FIG5_MANUAL_SRC)

    def loop_body_len(asm: str, label_hint: str) -> int:
        lines = [line.strip() for line in asm.splitlines()]
        start = next(i for i, l in enumerate(lines)
                     if l.startswith(f"L_dot_{label_hint}"))
        end = next(i for i, l in enumerate(lines[start + 1:], start + 1)
                   if l.endswith(":"))
        return sum(1 for l in lines[start + 1:end] if l and not l.endswith(":"))

    auto_count = loop_body_len(auto.asm, "for_1")
    manual_count = loop_body_len(manual.asm, "for_1")
    return {
        "auto_asm": auto.asm,
        "manual_asm": manual.asm,
        "auto_loop_instructions": auto_count,
        "manual_loop_instructions": manual_count,
        "reduction": 1.0 - manual_count / auto_count,
    }


# ----------------------------------------------------------------------
# Fig. 6 -- mixed-precision case study: speedup, energy, accuracy
# ----------------------------------------------------------------------
def fig6_mixed_precision(seed: int = 0, jobs: int = 1,
                         cache_dir: Optional[str] = None) -> List[Dict]:
    """Speedup/energy/accuracy of SVM precision schemes vs float.

    Rows: float (baseline), uniform float16, uniform float8, and the
    tuned mixed scheme (auto + manual).  The paper's claim: mixed
    precision matches float16's speedup and energy at float's accuracy.
    """
    runs = _svm_runs({"float": ("svm", "float", "scalar"),
                      "float16": ("svm", "float16", "auto"),
                      "float8": ("svm", "float8", "auto"),
                      "mixed(auto)": ("svm_mixed", "float16", "auto"),
                      "mixed(manual)": ("svm_mixed", "float16", "manual")},
                     seed, jobs, cache_dir)
    base = runs["float"]
    return [{
        "scheme": label,
        "cycles": run.cycles,
        "speedup": base.cycles / run.cycles,
        "energy_normalized": run.energy.total / base.energy.total,
        "classification_error": run.classification_error(),
        "sqnr_db": run.sqnr_db("scores"),
    } for label, run in runs.items()]


# ----------------------------------------------------------------------
# Profiled sweeps -- one cycle-attribution payload per sweep point
# ----------------------------------------------------------------------
def profile_sweep(
    out_dir: str,
    benchmarks: Optional[List[str]] = None,
    ftypes: Tuple[str, ...] = ("float16", "float8"),
    modes: Tuple[str, ...] = ("scalar", "auto"),
    mem_latency: int = 1,
    seed: int = 0,
) -> List[Dict]:
    """Profile a sweep matrix, one JSON payload per point.

    Writes ``<bench>_<ftype>_<mode>.profile.json`` (the schema of
    ``repro profile --json``; see ``docs/profiling.md``) plus an
    ``index.json`` of summary rows into ``out_dir``, and returns the
    rows.  Every point runs crash-isolated through one
    :func:`run_points` call (the disk cache of ``$REPRO_RESULT_CACHE``
    applies) and is profiled afterwards from its trace; points that
    fail keep their ``status``/``detail`` and write no payload -- the
    sweep itself always completes.
    """
    import json

    os.makedirs(out_dir, exist_ok=True)
    points = [SweepPoint(bench, ftype, mode, mem_latency, seed,
                         DEFAULT_POINT_BUDGET)
              for bench in benchmarks or BENCHMARK_NAMES
              for ftype in ftypes for mode in modes]
    done = run_points(points, cache=resolve_cache(None))
    rows: List[Dict] = []
    for point in points:
        outcome = done[point]
        row = {"benchmark": point.name, "ftype": point.ftype,
               "mode": point.mode, "mem_latency": mem_latency,
               "cycles": None, "file": None, "status": "ok", "detail": ""}
        if not outcome.ok:
            row.update(_point_row(outcome))
            rows.append(row)
            continue
        name = f"{point.name}_{point.ftype}_{point.mode}.profile.json"
        with open(os.path.join(out_dir, name), "w") as handle:
            json.dump(kernel_profile(outcome.run, seed).to_payload(),
                      handle, indent=2)
        row.update(cycles=outcome.run.cycles, file=name)
        rows.append(row)
    with open(os.path.join(out_dir, "index.json"), "w") as handle:
        json.dump(rows, handle, indent=2)
    return rows
