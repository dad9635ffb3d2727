"""Fast-path vs reference differential: bit-identical or it's a bug.

The block engine (:mod:`repro.sim.blocks`) promises *bit-identical*
architectural and micro-architectural results: cycles, instret, every
trace counter (including dict insertion order, which the energy model's
float summation depends on), fcsr flags, exit reasons and trap state.
This suite enforces that promise over the full kernel matrix and over
hand-built programs that exercise the engine's edges: traps taken
mid-block, compressed streams, CSR reads inside loops, and exhausted
instruction budgets.
"""

import pytest

from repro.isa import assemble
from repro.kernels import KERNELS
from repro.sim import Simulator

MASK32 = 0xFFFFFFFF


# ----------------------------------------------------------------------
# Comparison helpers
# ----------------------------------------------------------------------
def assert_traces_identical(ref, fast, label=""):
    """Every Trace field, including Counter insertion order."""
    assert ref.cycles == fast.cycles, f"{label}: cycles"
    assert ref.instret == fast.instret, f"{label}: instret"
    assert list(ref.by_mnemonic.items()) == list(fast.by_mnemonic.items()), (
        f"{label}: by_mnemonic (values or insertion order)")
    assert list(ref.by_category.items()) == list(fast.by_category.items()), (
        f"{label}: by_category")
    assert list(ref.pc_counts.items()) == list(fast.pc_counts.items()), (
        f"{label}: pc_counts")
    assert ref.mem_accesses == fast.mem_accesses, f"{label}: mem_accesses"
    assert ref.branches_taken == fast.branches_taken, (
        f"{label}: branches_taken")
    assert sorted(ref.pc_taken.items()) == sorted(fast.pc_taken.items()), (
        f"{label}: pc_taken")


def assert_results_identical(ref_sim, ref_res, fast_sim, fast_res, label=""):
    assert ref_res.exit_reason == fast_res.exit_reason, f"{label}: exit"
    assert ref_res.detail == fast_res.detail, f"{label}: detail"
    if ref_res.trap is None:
        assert fast_res.trap is None, label
    else:
        assert fast_res.trap is not None, label
        assert ref_res.trap.cause == fast_res.trap.cause, f"{label}: cause"
        assert ref_res.trap.mepc == fast_res.trap.mepc, f"{label}: mepc"
        assert ref_res.trap.mtval == fast_res.trap.mtval, f"{label}: mtval"
    assert_traces_identical(ref_res.trace, fast_res.trace, label)
    assert ref_sim.machine.pc == fast_sim.machine.pc, f"{label}: pc"
    assert ref_sim.machine.xregs == fast_sim.machine.xregs, f"{label}: xregs"
    assert ref_sim.machine.fregs == fast_sim.machine.fregs, f"{label}: fregs"
    assert ref_sim.machine.csr.fcsr == fast_sim.machine.csr.fcsr, (
        f"{label}: fcsr")


def run_both(source_or_program, entry=0, args=None, max_instructions=50_000,
             label="", poke_words=None, data=()):
    """Run a program through both paths and compare everything.

    ``poke_words`` maps word index -> raw value, overwriting assembled
    text before loading (the assembler rejects raw words in ``.text``,
    but undecodable streams are exactly what the trap tests need).
    ``data`` holds ``(address, bytes)`` pairs written to memory first.
    """
    program = (assemble(source_or_program)
               if isinstance(source_or_program, str) else source_or_program)
    for index, word in (poke_words or {}).items():
        program.words[index] = word
    ref_sim = Simulator(program, fast_path=False)
    fast_sim = Simulator(program, fast_path=True)
    for sim in (ref_sim, fast_sim):
        for addr, chunk in data:
            sim.machine.memory.write_block(addr, chunk)
    ref = ref_sim.run(entry, args=dict(args or {}),
                      max_instructions=max_instructions)
    fast = fast_sim.run(entry, args=dict(args or {}),
                        max_instructions=max_instructions)
    assert_results_identical(ref_sim, ref, fast_sim, fast, label)
    assert_memory_contents_identical(ref_sim.machine.memory,
                                     fast_sim.machine.memory, label)
    return ref, fast


# ----------------------------------------------------------------------
# Full kernel matrix (scalar and vector modes, all FP formats)
# ----------------------------------------------------------------------
MATRIX = [
    (name, ftype, mode)
    for name in KERNELS
    for ftype in ("float", "float16", "float16alt", "float8")
    for mode in ("scalar", "auto")
] + [
    # Guest formats take the vectorized codec too: auto mode, which
    # every kernel compiles for them.
    (name, ftype, "auto")
    for name in KERNELS
    for ftype in ("posit8", "posit16", "mx8")
] + [
    (name, ftype, "manual")
    for name, spec in KERNELS.items()
    if spec.manual_source_fn is not None
    for ftype in ("float16", "float8")
]


@pytest.mark.parametrize("name,ftype,mode", MATRIX,
                         ids=[f"{n}-{t}-{m}" for n, t, m in MATRIX])
def test_kernel_matrix_bit_identical(name, ftype, mode):
    from repro.harness.runner import run_kernel

    ref = run_kernel(KERNELS[name], ftype, mode, trap_ok=True,
                     fast_path=False)
    fast = run_kernel(KERNELS[name], ftype, mode, trap_ok=True,
                      fast_path=True)
    label = f"{name}/{ftype}/{mode}"
    assert ref.exit_reason == fast.exit_reason, label
    assert_traces_identical(ref.trace, fast.trace, label)
    assert repr(ref.energy) == repr(fast.energy), f"{label}: energy"
    for out in ref.outputs:
        assert (ref.outputs[out] == fast.outputs[out]).all(), (
            f"{label}: output {out}")


# ----------------------------------------------------------------------
# Trap exits taken from inside cached blocks
# ----------------------------------------------------------------------
def test_illegal_instruction_mid_block():
    run_both("""
    addi a0, zero, 1
    addi a1, zero, 2
    nop
    addi a2, zero, 3
    ret
    """, poke_words={2: 0xFFFFFFFF}, label="illegal")


def test_memory_fault_mid_block():
    # Load far outside mapped memory after a few retired instructions.
    run_both("""
    addi a0, zero, 7
    lui a1, 0xfffff
    lw a2, 0(a1)
    ret
    """, label="memfault")


def test_store_fault_mid_block():
    run_both("""
    addi a0, zero, 7
    lui a1, 0xfffff
    sw a0, 0(a1)
    ret
    """, label="storefault")


def test_ecall_exit():
    run_both("""
    addi a0, zero, 42
    ecall
    """, label="ecall")


def test_ebreak_exit():
    run_both("""
    addi a0, zero, 42
    ebreak
    """, label="ebreak")


def test_budget_exhausted_mid_block():
    # An infinite loop; every budget value must cut off at the exact
    # same instruction (and cycle) on both paths, including budgets
    # that land in the middle of a straight-line run.
    src = """
    addi a0, zero, 0
    loop:
    addi a0, a0, 1
    addi a0, a0, 1
    addi a0, a0, 1
    j loop
    """
    for budget in (1, 2, 3, 4, 5, 6, 7, 97, 256):
        run_both(src, max_instructions=budget, label=f"budget={budget}")


def test_budget_exact_on_block_boundary():
    src = """
    addi a0, zero, 5
    loop:
    addi a0, a0, -1
    bne a0, zero, loop
    ret
    """
    for budget in range(1, 14):
        run_both(src, max_instructions=budget, label=f"budget={budget}")


# A loop of the compiler's shape: a top-test ``bge``, then the body and
# a ``j`` back to the test.  The block engine follows the ``j`` into the
# test, so the body's block ends at the ``bge`` whose fall-through is the
# body's start, and loops in place.
TOP_TEST_LOOP = """
addi a0, zero, 0
addi a1, zero, 5
head:
bge a0, a1, done
addi a0, a0, 1
addi a2, a2, 3
j head
done:
ret
"""


def test_budget_expires_at_every_pass_of_an_in_place_loop():
    for budget in range(1, 30):
        run_both(TOP_TEST_LOOP, max_instructions=budget,
                 label=f"top-test budget={budget}")


def test_in_place_loop_runs_as_one_block_call():
    sim = Simulator(assemble(TOP_TEST_LOOP))
    body = sim._engine().block(0xC)
    assert [pc for _instr, pc in body.entries] == [0xC, 0x10, 0x14]
    assert body.jumps == {0x14} and body.term.pc == 0x8
    assert body.ranges == [(0xC, 0x18), (0x8, 0xC)]
    assert "while True:" in body.source
    result = sim.run(0)
    assert result.trace.pc_taken[0x14] == result.trace.pc_counts[0x14] == 5


def test_fault_in_a_later_pass_of_an_in_place_loop():
    # The loaded address climbs a page per pass and runs off the top of
    # memory in the fourth pass: the earlier passes stay counted.
    run_both("""
    lui a0, 0xffffd
    addi a0, a0, -2
    lui a1, 1
    loop:
    lw a2, 0(a0)
    add a0, a0, a1
    bne a0, zero, loop
    ret
    """, label="loop-fault")


def test_superblock_stops_before_its_own_start():
    # The block at ``main`` follows ``j top``, and ``top`` falls through
    # into ``main`` again: the block must end there, or ``main``'s load
    # would be two entries and a fault in the first resolve to the
    # second.
    source = """
    top:
    lw a2, 0(a1)
    addi a3, a3, 1
    main:
    lw a4, 0(a0)
    addi a0, zero, -1
    j top
    """
    program = assemble(source)
    main = program.address_of("main")
    block = Simulator(program)._engine().block(main)
    assert [pc for _instr, pc in block.entries] == [main, main + 4,
                                                    main + 8, 0, 4]
    for a0 in (0x2000, MASK32):  # faults in the second or first pass
        ref, fast = run_both(program, entry=main,
                             args={10: a0, 11: 0x2000},
                             label=f"a0={a0:#x}")
        assert (fast.trap.mepc, fast.trap.mtval) == (main, MASK32)


# ----------------------------------------------------------------------
# Loads and stores at the edges of the page map
# ----------------------------------------------------------------------
ACCESSES = {"lb": 1, "lbu": 1, "lh": 2, "lhu": 2, "lw": 4,
            "sb": 1, "sh": 2, "sw": 4}
LOAD_BACK = {"sb": "lbu", "sh": "lhu", "sw": "lw"}
#: ``(address, staged)``: across a page boundary (from every offset),
#: within a page just below one, on a page nothing touched, and at the
#: top of memory, staged or not.
EDGE_ADDRESSES = [(0x2FFC, True), (0x2FFD, True), (0x2FFE, True),
                  (0x2FFF, True), (0x7001, False), (0x7FFF, False),
                  (0xFFFFFFFC, True), (0xFFFFFFFD, True),
                  (0xFFFFFFFE, True), (0xFFFFFFFF, True),
                  (0xFFFFFFFF, False)]


@pytest.mark.parametrize("addr,staged", EDGE_ADDRESSES,
                         ids=[f"{a:#x}-{'staged' if s else 'unmapped'}"
                              for a, s in EDGE_ADDRESSES])
@pytest.mark.parametrize("op", sorted(ACCESSES))
def test_access_at_page_edges(op, addr, staged):
    size = ACCESSES[op]
    if op in LOAD_BACK:  # store, then read the bytes back
        access = f"{op} a1, 0(a0)\n{LOAD_BACK[op]} a2, 0(a0)"
    else:
        access = f"{op} a2, 0(a0)"
    low = min(addr & ~7, (1 << 32) - 16) - 8
    data = [(low, bytes(range(0x81, 0x81 + 24))[:(1 << 32) - low])]
    ref, fast = run_both(f"""
    addi a3, zero, 3
    {access}
    addi a4, zero, 4
    ret
    """, args={10: addr, 11: 0x89ABCDEF}, data=data if staged else (),
        label=f"{op} at {addr:#x}")
    if addr + size > 1 << 32:  # off the top of memory: exact trap
        cause = 7 if op in LOAD_BACK else 5
        assert (fast.exit_reason, fast.trap.cause, fast.trap.mepc,
                fast.trap.mtval) == ("trap", cause, 4, addr)
        assert fast.trace.instret == 1
    else:
        assert fast.exit_reason == "halt"


# ----------------------------------------------------------------------
# Dynamic rounding mode: looked up once per block, trapping in place
# ----------------------------------------------------------------------
def test_reserved_frm_traps_at_the_second_fp_instruction():
    # The first FP instruction has a static mode and retires; the second
    # reads the reserved frm and traps, mid-block.
    ref, fast = run_both("""
    addi t0, zero, 6
    csrw frm, t0
    li a2, 0x3c00
    li a3, 0x0001
    fadd.h fa4, fa2, fa3, rne
    fmul.h fa5, fa2, fa3
    ret
    """, label="reserved-frm")
    assert (fast.exit_reason, fast.trap.cause, fast.trap.mepc) == (
        "trap", 2, 0x18)
    assert fast.trace.by_mnemonic["fadd.h"] == 1


# ----------------------------------------------------------------------
# CSR reads inside loops (blocks must keep live counters exact)
# ----------------------------------------------------------------------
def test_rdcycle_in_loop():
    run_both("""
    addi a0, zero, 8
    addi a2, zero, 0
    loop:
    csrr a1, cycle
    add a2, a2, a1
    addi a0, a0, -1
    bne a0, zero, loop
    mv a0, a2
    ret
    """, label="rdcycle")


def test_rdinstret_in_loop():
    run_both("""
    addi a0, zero, 8
    addi a2, zero, 0
    loop:
    csrr a1, instret
    add a2, a2, a1
    addi a0, a0, -1
    bne a0, zero, loop
    mv a0, a2
    ret
    """, label="rdinstret")


def test_frm_change_between_blocks():
    # csrw terminates a block; FP ops afterwards must round with the
    # new dynamic mode (RTZ == 1) on both paths.  The machine uses the
    # merged regfile, so li into a2/a3 stages fa2/fa3 directly.
    run_both("""
    addi t0, zero, 1
    csrw frm, t0
    li a2, 0x3c00
    li a3, 0x0001
    fadd.h fa4, fa2, fa3
    csrr a0, fflags
    ret
    """, label="frm-change")


# ----------------------------------------------------------------------
# Compressed streams
# ----------------------------------------------------------------------
DATA_ADDR = 0x2000


def _compressed_sim(fast_path):
    sim = Simulator(fast_path=fast_path)
    mem = sim.machine.memory
    mem.write_u32(DATA_ADDR, 123)
    mem.write_u16(0x0, 0x4515)  # c.li a0, 5
    mem.write_u16(0x2, 0x0505)  # c.addi a0, 1
    mem.write_u16(0x4, 0x4188)  # c.lw a0, 0(a1)
    mem.write_u16(0x6, 0x8082)  # c.jr ra (halt)
    result = sim.run(0, args={11: DATA_ADDR})
    return sim, result


def test_compressed_stream_bit_identical():
    ref_sim, ref = _compressed_sim(fast_path=False)
    fast_sim, fast = _compressed_sim(fast_path=True)
    assert_results_identical(ref_sim, ref, fast_sim, fast, "compressed")
    assert "c.li" in ref.trace.by_mnemonic  # canonical RVC mnemonics kept


# ----------------------------------------------------------------------
# FP exception flags accrue identically
# ----------------------------------------------------------------------
def test_fcsr_flags_overflow():
    # float16 max (0x7bff) + itself overflows: OF|NX.
    ref, fast = run_both("""
    li a2, 0x7bff
    fadd.h fa3, fa2, fa2
    csrr a0, fflags
    ret
    """, label="overflow")
    assert ref.machine.xregs[10] != 0  # flags actually raised


def test_fcsr_flags_invalid():
    # +inf + -inf in binary16: NV.
    run_both("""
    li a2, 0x7c00
    li a3, 0xfc00
    fadd.h fa4, fa2, fa3
    csrr a0, fflags
    ret
    """, label="invalid")


def test_fcsr_flags_underflow():
    # Smallest subnormal squared underflows to zero: UF|NX.
    run_both("""
    li a2, 0x0001
    fmul.h fa3, fa2, fa2
    csrr a0, fflags
    ret
    """, label="underflow")


def test_static_rounding_mode_operand():
    # Instruction-encoded static rm (rtz) against the dynamic default.
    run_both("""
    li a2, 0x3c00
    li a3, 0x0001
    fadd.h fa4, fa2, fa3, rtz
    fadd.h fa5, fa2, fa3, rne
    csrr a0, fflags
    ret
    """, label="static-rm")


# ----------------------------------------------------------------------
# Lockstep batched engine vs per-point execution
# ----------------------------------------------------------------------
# The batched engine (:mod:`repro.sim.lockstep`) extends the fast-path
# promise across lanes: every lane of a lockstep run must be
# bit-identical -- registers, memory contents, fcsr, traps, and every
# trace counter -- to the same point executed alone.


def assert_memory_contents_identical(ref_mem, got_mem, label=""):
    """Content equality with absent pages reading as zeros.

    Page *materialization* differs legitimately between the engines
    (the scalar ``Memory`` creates pages on read, the batched one
    promotes pages on scatter), but an absent page and an all-zero
    page are indistinguishable to the guest.
    """
    zero = bytes(4096)
    ref_pages, got_pages = ref_mem.pages, got_mem.pages
    for pno in set(ref_pages) | set(got_pages):
        assert bytes(ref_pages.get(pno, zero)) == \
            bytes(got_pages.get(pno, zero)), f"{label}: page {pno:#x}"


def assert_lane_identical(ref_sim, ref_res, got_res, label=""):
    assert ref_res.exit_reason == got_res.exit_reason, f"{label}: exit"
    assert ref_res.detail == got_res.detail, f"{label}: detail"
    if ref_res.trap is None:
        assert got_res.trap is None, label
    else:
        assert got_res.trap is not None, label
        for field in ("cause", "mepc", "mtval"):
            assert getattr(ref_res.trap, field) == \
                getattr(got_res.trap, field), f"{label}: trap.{field}"
    assert_traces_identical(ref_res.trace, got_res.trace, label)
    ref_m, got_m = ref_sim.machine, got_res.machine
    assert ref_m.pc == got_m.pc, f"{label}: pc"
    assert ref_m.xregs == got_m.xregs, f"{label}: xregs"
    assert ref_m.fregs == got_m.fregs, f"{label}: fregs"
    assert ref_m.csr.fcsr == got_m.csr.fcsr, f"{label}: fcsr"
    assert_memory_contents_identical(ref_m.memory, got_m.memory, label)


def run_lockstep_both(source_or_program, lane_args, entry=0,
                      max_instructions=50_000, label=""):
    """Run lanes batched and each lane alone; compare everything.
    Returns the batched results and the engine's split, merge and
    drain counts."""
    from repro.sim.lockstep import Lane, LockstepEngine

    program = (assemble(source_or_program)
               if isinstance(source_or_program, str) else source_or_program)
    lanes = [Lane(dict(args)) for args in lane_args]
    engine = LockstepEngine(Simulator(program))
    results = engine.run(lanes, entry=entry,
                         max_instructions=max_instructions)
    for index, args in enumerate(lane_args):
        ref_sim = Simulator(program)
        ref_res = ref_sim.run(entry, args=dict(args),
                              max_instructions=max_instructions)
        assert_lane_identical(ref_sim, ref_res, results[index],
                              f"{label}/lane{index}")
    return results, engine.events


@pytest.fixture
def split_batches_stay(monkeypatch):
    """Keep split sub-batches in lockstep at any width: the tests that
    use it check splits and re-convergence, not the width rule (a
    narrow split of an RNE batch otherwise finishes on the block
    engine)."""
    from repro.sim import lockstep

    monkeypatch.setattr(lockstep, "LOCKSTEP_MIN_WIDTH", 1)


def drains(events):
    """The drain counts of ``events``, by reason."""
    return {key[len("drain."):]: count for key, count in events.items()
            if key.startswith("drain.")}


LOCKSTEP_MATRIX = [
    (name, ftype, mode)
    for name in KERNELS
    for ftype in ("float8", "float16", "float16alt")
    for mode in ("scalar", "auto")
] + [
    # Guest formats take the vectorized codec too: auto mode, which
    # every kernel compiles for them.
    (name, ftype, "auto")
    for name in KERNELS
    for ftype in ("posit8", "posit16", "mx8")
] + [
    (name, ftype, "manual")
    for name, spec in KERNELS.items()
    if spec.manual_source_fn is not None
    for ftype in ("float8", "float16", "float16alt")
]


#: Rows whose lanes branch on data and split (svm's ``acc > bestv``
#: update, nn_mlp_train's ReLU gradient); svm's mx8 seeds all branch
#: alike.
SPLIT_MATRIX = [(name, ftype, mode) for name, ftype, mode in LOCKSTEP_MATRIX
                if name in ("svm", "svm_mixed", "nn_mlp_train")
                and (name, ftype) != ("svm", "mx8")]


def run_lockstep_kernel(name, ftype, mode):
    """Run three seeds of a kernel config batched and each alone;
    compare everything.  Returns the engine's event counts."""
    import numpy as np

    from repro.compiler import compile_source
    from repro.harness.runner import _stage_args
    from repro.sim.lockstep import Lane, LockstepEngine

    spec = KERNELS[name]
    if mode == "manual":
        kernel = compile_source(spec.manual_source_fn(ftype))
    else:
        kernel = compile_source(spec.source_fn(ftype),
                                vectorize_loops=(mode == "auto"))
    lanes, staged = [], []
    for seed in range(3):
        run_params = dict(spec.params)
        data = spec.make_data(run_params, np.random.default_rng(seed))
        regs, stores, _ = _stage_args(spec, ftype, run_params, data)
        staged.append((regs, stores))
        lanes.append(Lane(regs, stores))
    engine = LockstepEngine(Simulator(kernel.program))
    results = engine.run(lanes, entry=spec.entry,
                         max_instructions=50_000_000)
    for index, (regs, stores) in enumerate(staged):
        ref_sim = Simulator(kernel.program)
        for addr, chunk in stores:
            ref_sim.machine.memory.write_block(addr, chunk)
        ref_res = ref_sim.run(spec.entry, args=dict(regs),
                              max_instructions=50_000_000)
        assert_lane_identical(ref_sim, ref_res, results[index],
                              f"{name}/{ftype}/{mode}/lane{index}")
    return engine.events


@pytest.mark.parametrize("name,ftype,mode", LOCKSTEP_MATRIX,
                         ids=[f"{n}-{t}-{m}" for n, t, m in LOCKSTEP_MATRIX])
def test_lockstep_kernel_matrix_bit_identical(name, ftype, mode):
    run_lockstep_kernel(name, ftype, mode)


@pytest.mark.usefixtures("split_batches_stay")
@pytest.mark.parametrize("name,ftype,mode", SPLIT_MATRIX,
                         ids=[f"{n}-{t}-{m}" for n, t, m in SPLIT_MATRIX])
def test_lockstep_kernel_matrix_bit_identical_when_splits_stay(
        name, ftype, mode):
    # At the default width a three-lane RNE run drains both sides of its
    # first split; here every sub-batch stays, so real compiled kernels
    # split, re-merge and reorder lanes in lockstep.
    events = run_lockstep_kernel(name, ftype, mode)
    assert events["split"] and drains(events) == {"halt": 1}


@pytest.mark.usefixtures("split_batches_stay")
def test_lockstep_loop_divergence():
    # Data-dependent trip counts: lanes split at the branch and
    # re-converge; each must retire exactly its scalar schedule.
    run_lockstep_both("""
    addi a1, zero, 0
    loop:
    addi a1, a1, 1
    bne a1, a0, loop
    mv a0, a1
    ret
    """, [{10: n} for n in (3, 9, 9, 17, 1)], label="loop-div")


def test_lockstep_trap_in_one_lane():
    # Lane 1 faults on the load; the others halt cleanly.
    run_lockstep_both("""
    lw a1, 0(a0)
    mv a0, a1
    ret
    """, [{10: 0x2000}, {10: 0xFFFFF000}, {10: 0x2000}],
        label="trap-one-lane")


@pytest.mark.usefixtures("split_batches_stay")
def test_lockstep_budget_exhausted_in_one_lane():
    # Lane 1 spins past the budget; lanes 0/2 halt under it.
    run_lockstep_both("""
    addi a1, zero, 0
    loop:
    addi a1, a1, 1
    bne a1, a0, loop
    ret
    """, [{10: 4}, {10: 100000}, {10: 6}], max_instructions=50,
        label="budget-one-lane")


def test_lockstep_budget_exhausted_all_lanes():
    run_lockstep_both("""
    loop:
    addi a1, a1, 1
    j loop
    """, [{10: 1}, {10: 2}], max_instructions=37, label="budget-all")


def test_lockstep_frm_divergence_forces_fallback():
    # Lanes write different dynamic rounding modes; the vectorized RNE
    # fast path only covers some of them, so divergent frm must fall
    # back without disturbing per-lane flags.
    run_lockstep_both("""
    csrw frm, a0
    li a2, 0x3c00
    li a3, 0x0001
    fadd.h fa4, fa2, fa3
    csrr a0, fflags
    ret
    """, [{10: 0}, {10: 1}, {10: 0}, {10: 4}], label="frm-div")


def test_lockstep_uniform_non_rne_frm():
    # Uniform RTZ: the whole batch must round to zero, not nearest.
    run_lockstep_both("""
    addi t0, zero, 1
    csrw frm, t0
    fadd.h fa4, fa2, fa3
    fmul.h fa5, fa2, fa3
    csrr a0, fflags
    ret
    """, [{12: 0x3c00, 13: 0x0001}, {12: 0x4000, 13: 0x3c01},
          {12: 0x7bff, 13: 0x7bff}], label="frm-rtz-uniform")


def test_lockstep_fflags_accrue_per_lane():
    # Overflow, invalid, underflow and exact lanes side by side: each
    # lane's fcsr must accrue only its own exceptions.
    run_lockstep_both("""
    fadd.h fa4, fa2, fa3
    fmul.h fa5, fa2, fa3
    csrr a0, fflags
    ret
    """, [{12: 0x7bff, 13: 0x7bff}, {12: 0x7c00, 13: 0xfc00},
          {12: 0x0001, 13: 0x0001}, {12: 0x3c00, 13: 0x3c00}],
        label="fflags-mix")


@pytest.mark.usefixtures("split_batches_stay")
def test_lockstep_live_counters_in_loop():
    # cycle/instret reads inside a divergent loop stay exact per lane.
    run_lockstep_both("""
    addi a0, zero, 0
    addi a3, zero, 0
    loop:
    csrr a1, cycle
    csrr a2, instret
    add a3, a3, a1
    add a3, a3, a2
    addi a0, a0, 1
    bne a0, a4, loop
    mv a0, a3
    ret
    """, [{14: 3}, {14: 5}, {14: 3}], label="csr-cycle")


def test_lockstep_ecall_exit():
    run_lockstep_both("""
    addi a0, zero, 42
    ecall
    """, [{11: 1}, {11: 2}], label="ecall")


def test_lockstep_store_vector_value():
    # Uniform address, lane-divergent value: the store must scatter
    # per-lane values and the reload must gather them back.
    run_lockstep_both("""
    sw a1, 0(a0)
    lw a2, 0(a0)
    mv a0, a2
    ret
    """, [{10: 0x3000, 11: 5}, {10: 0x3000, 11: 9}],
        label="store-vec-value")


def test_lockstep_drain_inside_a_superblock():
    # The block after ``csrw`` follows ``j`` into the ``fadd.h``, which
    # reads the reserved frm and drains the batch: the drained prefix
    # records the jump as taken.
    results, _ = run_lockstep_both("""
    addi t0, zero, 6
    csrw frm, t0
    addi a0, a0, 1
    j next
    addi a0, a0, 100
    next:
    fadd.h fa4, fa2, fa3
    ret
    """, [{10: 1}, {10: 2}], label="superblock-drain")
    for result in results:
        assert result.exit_reason == "trap"
        assert result.trace.pc_taken[0xC] == 1


@pytest.mark.usefixtures("split_batches_stay")
def test_lockstep_runs_superblocks_without_draining():
    # Direct jumps are no-ops inside a superblock: the divergent loop
    # below drains each batch only when it halts.
    source = TOP_TEST_LOOP.replace("addi a1, zero, 5", "mv a1, a4")
    _, events = run_lockstep_both(source, [{14: n} for n in (3, 7, 7)],
                                  label="superblock-loop")
    assert events["split"] and set(drains(events)) == {"halt"}


# Lanes with a0 < 4 leave for ``short``; the others loop 3 or 5 times
# (a4), and a split at the third back-edge re-merges at the loop exit.
NARROW_SPLIT = """
    li t0, 4
    blt a0, t0, short
    li a1, 0
    li a2, 0x3c00
loop:
    addi a1, a1, 3
    fadd.h a2, a2, a3
    fmul.h a5, a2, a3
    addi a4, a4, -1
    bnez a4, loop
    add a0, a1, a5
    ret
short:
    fadd.h a2, a3, a3
    add a0, a0, a2
    ret
"""
NARROW_LANES = [{10: lane, 13: 0x3c00 + 7 * lane, 14: 3 + 2 * (lane & 1)}
                for lane in range(32)]


def test_lockstep_narrow_side_of_a_wide_run_stays_and_remerges():
    # 40 lanes, wider than the lockstep width: lanes 0-3 loop twice more
    # than the rest, so the third back-edge splits them off.  They could
    # still re-merge into a wide batch, so they stay, loop and re-merge.
    _, events = run_lockstep_both(NARROW_SPLIT, [
        {10: 4 + lane, 13: 0x3c00 + 7 * lane, 14: 5 if lane < 4 else 3}
        for lane in range(40)], label="wide-run")
    assert drains(events) == {"halt": 1}
    assert events["split"] == 1 and events["merge"] == 1


# Lanes 0-7 halt first; the other 32 loop 3 or 5 times by the parity
# of a0.
HALT_THEN_SPLIT = """
    li t0, 8
    bge a0, t0, main
    fadd.h a2, a3, a3
    ret
main:
    li a1, 0
    li a2, 0x3c00
loop:
    addi a1, a1, 3
    fadd.h a2, a2, a3
    addi a4, a4, -1
    bnez a4, loop
    add a0, a1, a2
    ret
"""


def test_lockstep_wide_run_keeps_its_splits_after_lanes_halt():
    # The split rule is fixed for the run: 40 lanes are wider than the
    # lockstep width, so once the 8-lane side halts, the 32 left still
    # keep both sides of their 16/16 split in lockstep.
    _, events = run_lockstep_both(HALT_THEN_SPLIT, [
        {10: lane, 13: 0x3c00 + 7 * lane, 14: 3 + 2 * (lane & 1)}
        for lane in range(40)], label="halt-then-split")
    assert drains(events) == {"halt": 2}
    assert events["split"] == 2 and events["merge"] == 1


# Lanes with a0 < 4 switch to RNE and finish at ``short``; the others
# keep SR and loop 3 or 5 times (a4), re-merging at the loop exit.
MIXED_MODE_SPLIT = """
    li t6, 5
    csrw frm, t6
    li t0, 4
    bge a0, t0, long
    csrw frm, zero
    bgez a0, short
short:
    fadd.h a2, a3, a3
    add a0, a0, a2
    ret
long:
    li a1, 0
    li a2, 0x3c00
loop:
    addi a1, a1, 3
    fadd.h a2, a2, a3
    fmul.h a5, a2, a3
    addi a4, a4, -1
    bnez a4, loop
    add a0, a1, a5
    ret
"""


def test_lockstep_narrow_split_drains_while_the_rest_remerges():
    # 32 lanes: the 4-lane side, now RNE, drains at its next block
    # boundary; the 28-lane SR side stays, splits in its loop and
    # re-merges.  Drained and batched lanes each match their solo run.
    _, events = run_lockstep_both(MIXED_MODE_SPLIT, NARROW_LANES,
                                  label="narrow-mixed")
    assert drains(events) == {"narrow": 1, "halt": 1}
    assert events["split"] == 2 and events["merge"] == 1


def test_lockstep_stochastic_splits_stay_batched():
    # Under SR the serial lanes would round on the softfloat core, so a
    # narrow split stays in lockstep; the short side halts on its own.
    _, events = run_lockstep_both("li t6, 5\ncsrw frm, t6" + NARROW_SPLIT,
                                  NARROW_LANES, label="narrow-sr")
    assert drains(events) == {"halt": 2}
    assert events["split"] == 2 and events["merge"] == 1


def test_lockstep_narrow_run_that_never_splits_stays_batched():
    # Three lanes are far under the lockstep width, but only a split
    # drains a batch early.
    _, events = run_lockstep_both(NARROW_SPLIT, [
        {10: 5, 13: 0x3c00 + lane, 14: 3} for lane in range(3)],
        label="narrow-run")
    assert drains(events) == {"halt": 1} and not events["split"]


def test_lockstep_narrow_splits_drain_at_the_default_width():
    # 32 lanes at the default width: both sides of the first split are
    # narrower than the run, so both finish on the block engine.
    _, events = run_lockstep_both(NARROW_SPLIT, NARROW_LANES,
                                  label="narrow-default")
    assert drains(events) == {"narrow": 2}
    assert events["split"] == 1 and not events["merge"]


def test_lockstep_store_divergent_address():
    run_lockstep_both("""
    sw a1, 0(a0)
    ret
    """, [{10: 0x3000, 11: 5}, {10: 0x4000, 11: 9}],
        label="store-div-addr")
