"""Cached-block invalidation when instruction memory is corrupted.

The block engine caches predecoded straight-line runs; a fault injector
that flips a byte of the text section calls
:meth:`Simulator.invalidate_decode`, which must drop not only the
per-address decode cache entry but every cached *block* containing that
address -- otherwise the stale pre-bound closure keeps executing the
old instruction.  These tests corrupt memory mid-block between runs and
require the fast path to track the reference interpreter exactly, each
once with a fresh :class:`~repro.sim.tracer.Trace` per run and once with
one ``Trace`` shared by the runs around the corruption (so one trace
holds both decode epochs of the corrupted address); the full traces of
the two paths must match, Counter insertion order included.
"""

from repro.isa import assemble
from repro.sim import Simulator, Trace

SRC = """
addi a0, zero, 0
addi a0, a0, 10
addi a0, a0, 10
addi a0, a0, 10
ret
"""


def _pair():
    return (Simulator(assemble(SRC), fast_path=False),
            Simulator(assemble(SRC), fast_path=True))


def _traces(shared):
    """The ``trace`` argument of every run on each path: None (a fresh
    trace per run) or one ``Trace`` per path shared by all its runs."""
    return (Trace(), Trace()) if shared else (None, None)


def _assert_same_trace(r1, r2):
    t1, t2 = r1.trace, r2.trace
    assert (t1.instret, t1.cycles, t1.mem_accesses, t1.branches_taken) == (
        t2.instret, t2.cycles, t2.mem_accesses, t2.branches_taken)
    for name in ("by_mnemonic", "by_category", "pc_counts", "pc_taken"):
        assert (list(getattr(t1, name).items())
                == list(getattr(t2, name).items())), name
    # Every retire counted once, however many runs the trace saw.
    assert (sum(t1.by_mnemonic.values()) == sum(t1.pc_counts.values())
            == t1.instret)


def _corrupt(sim, addr, word):
    sim.machine.memory.write_u32(addr, word)
    sim.invalidate_decode(addr)


def test_mid_block_corruption_reexecutes_correctly():
    for shared in (False, True):
        (ref, fast), (t1, t2) = _pair(), _traces(shared)
        assert (ref.run(0, trace=t1).trace.instret
                == fast.run(0, trace=t2).trace.instret)
        assert fast.machine.xregs[10] == 30

        # Flip the middle addi (word 2, at 0x8) into addi a0, a0, 1.
        new_word = assemble("addi a0, a0, 1").words[0]
        for sim in (ref, fast):
            _corrupt(sim, 0x8, new_word)
        r1, r2 = ref.run(0, trace=t1), fast.run(0, trace=t2)
        assert ref.machine.xregs[10] == fast.machine.xregs[10] == 21
        assert r1.trace.cycles == r2.trace.cycles
        _assert_same_trace(r1, r2)


def test_corruption_to_illegal_word_traps():
    for shared in (False, True):
        (ref, fast), (t1, t2) = _pair(), _traces(shared)
        clean = ref.run(0, trace=t1).trace.instret
        fast.run(0, trace=t2)
        for sim in (ref, fast):
            _corrupt(sim, 0x8, 0xFFFFFFFF)
        r1, r2 = ref.run(0, trace=t1), fast.run(0, trace=t2)
        assert r1.exit_reason == r2.exit_reason == "trap"
        assert r1.trap.cause == r2.trap.cause
        assert r1.trap.mepc == r2.trap.mepc == 0x8
        assert (r1.trace.instret == r2.trace.instret
                == 2 + (clean if shared else 0))
        _assert_same_trace(r1, r2)


def test_corrupting_block_terminator():
    for shared in (False, True):
        (ref, fast), (t1, t2) = _pair(), _traces(shared)
        ref.run(0, trace=t1), fast.run(0, trace=t2)
        # Turn the final ret (word 4, at 0x10) into another addi; the
        # run then falls off the end into unmapped decode space and
        # traps -- identically on both paths.
        new_word = assemble("addi a0, a0, 5").words[0]
        for sim in (ref, fast):
            _corrupt(sim, 0x10, new_word)
        r1, r2 = ref.run(0, trace=t1), fast.run(0, trace=t2)
        assert r1.exit_reason == r2.exit_reason
        assert r1.trace.instret == r2.trace.instret
        assert ref.machine.xregs[10] == fast.machine.xregs[10]
        _assert_same_trace(r1, r2)


def test_invalidate_all():
    for shared in (False, True):
        (ref, fast), (t1, t2) = _pair(), _traces(shared)
        ref.run(0, trace=t1), fast.run(0, trace=t2)
        new_word = assemble("addi a0, a0, 2").words[0]
        for sim in (ref, fast):
            sim.machine.memory.write_u32(0x4, new_word)
            sim.invalidate_decode()  # no address: drop everything
        r1, r2 = ref.run(0, trace=t1), fast.run(0, trace=t2)
        assert ref.machine.xregs[10] == fast.machine.xregs[10] == 22
        _assert_same_trace(r1, r2)


def test_compressed_boundary_invalidation():
    # A corruption address may fall on the second half of a 4-byte
    # instruction; invalidate_decode(addr) must still kill the block.
    for shared in (False, True):
        (ref, fast), (t1, t2) = _pair(), _traces(shared)
        ref.run(0, trace=t1), fast.run(0, trace=t2)
        new_word = assemble("addi a0, a0, 1").words[0]
        for sim in (ref, fast):
            sim.machine.memory.write_u32(0x8, new_word)
            sim.invalidate_decode(0xA)  # upper parcel of the word at 0x8
        r1, r2 = ref.run(0, trace=t1), fast.run(0, trace=t2)
        assert ref.machine.xregs[10] == fast.machine.xregs[10]
        assert r1.trace.cycles == r2.trace.cycles
        _assert_same_trace(r1, r2)


# ``main`` jumps back to ``target``: the block at ``main`` follows the
# jump, so it also holds ``target``'s words, which lie below its start.
SUPERBLOCK_SRC = """
target:
addi a0, a0, 10
addi a0, a0, 10
ret
main:
addi a0, zero, 1
j target
"""


def test_corruption_below_a_superblock_start_drops_it():
    for shared in (False, True):
        program = assemble(SUPERBLOCK_SRC)
        ref = Simulator(program, fast_path=False)
        fast = Simulator(program, fast_path=True)
        t1, t2 = _traces(shared)
        main = program.address_of("main")
        ref.run(main, trace=t1), fast.run(main, trace=t2)
        assert fast._engine().block(main).ranges == [(0xC, 0x14),
                                                     (0x0, 0xC)]
        assert fast.machine.xregs[10] == 21
        # Flip the second addi (at 0x4, under the superblock's start).
        new_word = assemble("addi a0, a0, 1").words[0]
        for sim in (ref, fast):
            _corrupt(sim, 0x4, new_word)
        r1, r2 = ref.run(main, trace=t1), fast.run(main, trace=t2)
        assert ref.machine.xregs[10] == fast.machine.xregs[10] == 12
        _assert_same_trace(r1, r2)
