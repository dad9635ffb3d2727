"""The process-wide block cache: shared blocks never change a result.

Blocks are keyed by their start PC, instruction words, timing costs,
FLEN and register-file layout, and shared by every simulator.  These
tests run the same program under different timing configurations, after
a corrupted run of it, and from several threads at once, and require
every result to equal a run on a cold cache.
"""

import sys
import threading

import pytest

from repro.harness.runner import run_kernel
from repro.isa import assemble
from repro.kernels import KERNELS
from repro.sim import Simulator, TimingConfig
from repro.sim.blocks import (BLOCK_CACHE_SIZE, Memo, block_cache_clear,
                              block_cache_info)

DATA = 0x3000

# A loop over loads, FP arithmetic (the flags accrue), stores, an
# integer divide and a taken branch: every cost class of the timing
# model appears in one block.
LOOP = f"""
    li t0, {DATA}
    li t1, 12
    li t2, 7
loop:
    lh a0, 0(t0)
    lh a1, 2(t0)
    fadd.h a2, a0, a1
    fmul.h a3, a2, a1
    sh a3, 4(t0)
    div t3, t1, t2
acc:
    add a4, a4, t3
    addi t0, t0, 2
    addi t1, t1, -1
    bnez t1, loop
    ret
"""
VALUES = bytes.fromhex("003c0040004200440045004600470048"
                       "0049804900400042004400450046")


def _snapshot(sim, result):
    trace = result.trace
    return (result.exit_reason, trace.cycles, trace.instret,
            list(trace.by_mnemonic.items()), list(trace.pc_counts.items()),
            trace.mem_accesses, trace.branches_taken,
            list(sim.machine.xregs), sim.machine.csr.fcsr,
            sim.machine.memory.read_block(DATA, 32))


def _run(program, **options):
    sim = Simulator(program, **options)
    sim.machine.memory.write_block(DATA, VALUES)
    return _snapshot(sim, sim.run(0))


TIMINGS = [dict(mem_latency=1), dict(mem_latency=10),
           dict(timing=TimingConfig(int_div_cycles=3,
                                    branch_taken_penalty=4))]


def test_timing_configurations_share_nothing_they_bake_in():
    program = assemble(LOOP)
    cold = []
    for options in TIMINGS:
        block_cache_clear()
        cold.append(_run(program, **options))
    assert len({snap[1] for snap in cold}) == len(TIMINGS)  # cycles differ

    block_cache_clear()
    for _ in range(2):  # the second round hits every block
        for options, expected in zip(TIMINGS, cold):
            assert _run(program, **options) == expected
    info = block_cache_info()
    assert info.hits > 0
    # Costs are arguments of the generated code: one source per block
    # serves all three timing configurations.
    assert info.compiled * len(TIMINGS) == info.misses


def test_corrupted_run_leaves_the_clean_program_alone():
    program = assemble(LOOP)
    block_cache_clear()
    clean = _run(program)

    # Flip `add a4, a4, t3` into `sub a4, a4, t3` mid-loop.
    addr = program.address_of("acc")
    sub = assemble("sub a4, a4, t3").words[0]
    flipped = []
    for fast in (False, True):
        sim = Simulator(program, fast_path=fast)
        sim.machine.memory.write_block(DATA, VALUES)
        sim.run(0)  # warm this simulator's view with the clean blocks
        sim.machine.memory.write_block(DATA, VALUES)
        sim.machine.memory.write_u32(addr, sub)
        sim.invalidate_decode(addr)
        flipped.append(_snapshot(sim, sim.run(0)))
    assert flipped[0] == flipped[1]  # reference == block engine
    assert flipped[1][7] != clean[7]  # the flip changed the registers

    assert _run(program) == clean


def _kernel_snapshot(name, ftype, mode):
    run = run_kernel(KERNELS[name], ftype, mode, params={"n": 6}
                     if name == "gemm" else None, seed=3)
    trace = run.trace
    return (run.exit_reason, trace.cycles, list(trace.by_mnemonic.items()),
            list(trace.pc_counts.items()),
            {key: value.tobytes() for key, value in run.outputs.items()})


def _in_threads(jobs, timeout=300):
    """Run ``jobs`` (callables) on one thread each, switching often."""
    errors = []

    def guarded(job):
        try:
            job()
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(job,))
               for job in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors


def test_threads_running_different_kernels_match_serial_runs():
    points = [("gemm", "float16", "auto"), ("atax", "float8", "scalar"),
              ("gemm", "float16alt", "scalar"), ("svm", "float16", "auto")]
    block_cache_clear()
    serial = [_kernel_snapshot(*point) for point in points]

    for _round in range(2):
        block_cache_clear()  # the threads build blocks concurrently
        results = [None] * len(points)

        def job(index):
            return lambda: results.__setitem__(
                index, _kernel_snapshot(*points[index]))

        _in_threads([job(index) for index in range(len(points))])
        assert results == serial


def test_memo_counts_every_lookup_and_stays_bounded():
    memo = Memo(64)
    lookups, keys = 2000, 200

    def job(seed):
        def run():
            for n in range(lookups):
                key = (seed * 7 + n) % keys
                if memo.get(key) is None:
                    assert memo.put(key, (key,)) == (key,)
        return run

    _in_threads([job(seed) for seed in range(6)])
    assert memo.hits + memo.misses == 6 * lookups
    assert len(memo) == 64


def test_block_cache_info_counts_and_clears():
    program = assemble(LOOP)
    block_cache_clear()
    assert block_cache_info() == (0, 0, 0, 0, BLOCK_CACHE_SIZE)
    _run(program)
    first = block_cache_info()
    assert first.hits == 0 and first.misses == first.entries > 0
    assert first.compiled == first.misses
    _run(program)  # a fresh simulator: its view misses, the cache hits
    second = block_cache_info()
    assert second.hits == first.entries
    assert second.misses == first.misses and second.compiled == first.compiled
    block_cache_clear()
    assert block_cache_info().entries == 0


@pytest.mark.parametrize("flen,merged", [(32, False), (64, True)])
def test_other_register_layouts_get_their_own_blocks(flen, merged):
    program = assemble("fadd.s a0, a1, a2\nret")
    block_cache_clear()
    Simulator(program).run(0)
    before = block_cache_info()
    Simulator(program, flen=flen, merged_regfile=merged).run(0)
    after = block_cache_info()
    assert after.hits == before.hits
    assert after.misses == before.misses + 1
