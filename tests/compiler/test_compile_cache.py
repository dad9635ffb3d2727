"""The per-process compile cache under ``compile_source``."""

import hashlib
import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro.analysis.lints import lint_program
from repro.compiler import (
    COMPILE_CACHE_SIZE,
    ParseError,
    compile_cache_clear,
    compile_cache_info,
    compile_source,
)
from repro.compiler import pipeline
from repro.faults import FaultInjector, fault_space_of, make_plan
from repro.fp import registry
from repro.harness.runner import (build_inputs, build_kernel, build_points,
                                  run_kernel)
from repro.kernels import KERNELS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def _findings(result):
    return [f.to_dict() for f in result.findings]


def _unique_source(tag):
    """A tiny program no other test compiles."""
    return f"int f_{tag}(int a) {{ return a * 3 + {len(tag)}; }}"


# ----------------------------------------------------------------------
# (a) cached == cold over the build matrix
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_cached_compile_matches_cold_compile(name):
    spec = KERNELS[name]
    for _, ftype, mode in build_points(registry.kernel_ftypes(), [name]):
        label = f"{name}/{ftype}/{mode}"
        source, opts = build_inputs(spec, ftype, mode)
        cold = pipeline._compile(
            source, opts["vectorize_loops"], pipeline.TEXT_BASE,
            pipeline.DATA_BASE, opts.get("expanding_reductions", False))
        cold_lint = lint_program(cold.program,
                                 vector_report=cold.vector_report,
                                 source=cold.asm)
        for _ in range(2):  # the first call may fill the entry
            cached = build_kernel(spec, ftype, mode)
            assert cached.asm == cold.asm, label
            assert cached.program.words == cold.program.words, label
            assert cached.program.data == cold.program.data, label
            assert cached.program.symbols == cold.program.symbols, label
            assert _findings(cached.lint_result) == _findings(cold_lint), \
                label


# ----------------------------------------------------------------------
# (b) a faulty run cannot poison the shared program
# ----------------------------------------------------------------------
def _digest(run):
    blob = {"cycles": run.cycles, "instret": run.instret,
            "exit": run.exit_reason,
            "outputs": {name: hashlib.sha256(
                np.ascontiguousarray(out).tobytes()).hexdigest()
                for name, out in sorted(run.outputs.items())}}
    return json.dumps(blob, sort_keys=True)


FRESH_PROCESS = """
import hashlib, json
import numpy as np
from repro.harness.runner import run_kernel
from repro.kernels import KERNELS
run = run_kernel(KERNELS["atax"], "float16", "auto", seed=5)
print(json.dumps({"cycles": run.cycles, "instret": run.instret,
    "exit": run.exit_reason,
    "outputs": {name: hashlib.sha256(
        np.ascontiguousarray(out).tobytes()).hexdigest()
        for name, out in sorted(run.outputs.items())}}, sort_keys=True))
"""


def test_text_flips_leave_cached_program_intact():
    spec = KERNELS["atax"]
    clean = run_kernel(spec, "float16", "auto", seed=5)
    kernel = compile_source(spec.source_fn("float16"), vectorize_loops=True)
    words, data = list(kernel.program.words), bytes(kernel.program.data)

    space = fault_space_of(clean, ("instr",))
    injector = FaultInjector(make_plan(space, seed=3, n_flips=16,
                                       targets=("instr",)))
    run_kernel(spec, "float16", "auto", seed=5, injector=injector,
               trap_ok=True)
    assert injector.applied, "no flip was delivered"

    again = compile_source(spec.source_fn("float16"), vectorize_loops=True)
    assert again is kernel
    assert kernel.program.words == words
    assert bytes(kernel.program.data) == data

    rerun = run_kernel(spec, "float16", "auto", seed=5)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    fresh = subprocess.run([sys.executable, "-c", FRESH_PROCESS], env=env,
                           capture_output=True, text=True, check=True,
                           timeout=120)
    assert _digest(rerun) == _digest(clean)
    assert _digest(rerun) == fresh.stdout.strip().splitlines()[-1]


# ----------------------------------------------------------------------
# (c) concurrency and the LRU bound
# ----------------------------------------------------------------------
def _run_threads(threads):
    """Start and join ``threads`` with a short switch interval, so the
    threads interleave inside the cache as often as possible."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)


def test_concurrent_callers_share_one_compile():
    source = _unique_source("threads")
    before = compile_cache_info()
    barrier = threading.Barrier(8)
    results = [None] * 8

    def worker(index):
        barrier.wait()
        results[index] = compile_source(source)

    _run_threads([threading.Thread(target=worker, args=(i,))
                  for i in range(8)])
    after = compile_cache_info()
    assert all(result is results[0] for result in results)
    assert results[0].lint_result is not None
    assert after.misses - before.misses == 1
    assert after.hits - before.hits == 7
    assert after.lints - before.lints == 1


def test_lru_bound_holds_under_concurrent_fills(monkeypatch):
    monkeypatch.setattr(pipeline, "COMPILE_CACHE_SIZE", 4)
    compile_cache_clear()
    sources = [_unique_source(f"lru{i}") for i in range(12)]

    def worker(chunk):
        for source in chunk:
            compile_source(source, lint=False)

    _run_threads([threading.Thread(target=worker, args=(sources[i::3],))
                  for i in range(3)])
    info = compile_cache_info()
    assert info.entries == 4 and info.maxsize == 4
    assert info.misses == 12

    # Least recently used goes first: touching one keeps it resident.
    compile_cache_clear()
    first, second = sources[:2]
    for source in sources[:4]:
        compile_source(source, lint=False)
    compile_source(first, lint=False)               # hit; now most recent
    compile_source(_unique_source("lrunew"), lint=False)  # evicts second
    before = compile_cache_info()
    compile_source(first, lint=False)
    compile_source(second, lint=False)
    after = compile_cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (1, 1)
    compile_cache_clear()


def test_default_bound_and_clear():
    assert compile_cache_info().maxsize == COMPILE_CACHE_SIZE
    compile_source(_unique_source("clear"), lint=False)
    compile_cache_clear()
    assert compile_cache_info() == (0, 0, 0, 0, COMPILE_CACHE_SIZE)


# ----------------------------------------------------------------------
# (d) failures are never cached
# ----------------------------------------------------------------------
def test_failing_source_raises_every_time():
    source = "int broken( { return 1; }"
    before = compile_cache_info()
    for _ in range(3):
        with pytest.raises(ParseError):
            compile_source(source)
    after = compile_cache_info()
    assert after.misses - before.misses == 3
    assert after.hits == before.hits
    assert after.entries <= before.entries


# ----------------------------------------------------------------------
# (e) lint=False never carries a lint result
# ----------------------------------------------------------------------
def test_lint_false_never_returns_lint_result():
    source = _unique_source("nolint")
    before = compile_cache_info()
    assert compile_source(source, lint=False).lint_result is None
    linted = compile_source(source)
    assert linted.lint_result is not None
    assert compile_source(source) is linted
    plain = compile_source(source, lint=False)
    assert plain.lint_result is None
    assert plain.program is linted.program
    after = compile_cache_info()
    assert after.lints - before.lints == 1
    assert after.misses - before.misses == 1
