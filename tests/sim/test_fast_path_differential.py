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
             label="", poke_words=None):
    """Run a program through both paths and compare everything.

    ``poke_words`` maps word index -> raw value, overwriting assembled
    text before loading (the assembler rejects raw words in ``.text``,
    but undecodable streams are exactly what the trap tests need).
    """
    program = (assemble(source_or_program)
               if isinstance(source_or_program, str) else source_or_program)
    for index, word in (poke_words or {}).items():
        program.words[index] = word
    ref_sim = Simulator(program, fast_path=False)
    fast_sim = Simulator(program, fast_path=True)
    ref = ref_sim.run(entry, args=dict(args or {}),
                      max_instructions=max_instructions)
    fast = fast_sim.run(entry, args=dict(args or {}),
                        max_instructions=max_instructions)
    assert_results_identical(ref_sim, ref, fast_sim, fast, label)
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
    ref_pages, got_pages = ref_mem._pages, got_mem._pages
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
    """Run lanes batched and each lane alone; compare everything."""
    from repro.sim.lockstep import Lane, run_lockstep

    program = (assemble(source_or_program)
               if isinstance(source_or_program, str) else source_or_program)
    lanes = [Lane(dict(args)) for args in lane_args]
    results = run_lockstep(program, lanes, entry=entry,
                           max_instructions=max_instructions)
    for index, args in enumerate(lane_args):
        ref_sim = Simulator(program)
        ref_res = ref_sim.run(entry, args=dict(args),
                              max_instructions=max_instructions)
        assert_lane_identical(ref_sim, ref_res, results[index],
                              f"{label}/lane{index}")
    return results


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


@pytest.mark.parametrize("name,ftype,mode", LOCKSTEP_MATRIX,
                         ids=[f"{n}-{t}-{m}" for n, t, m in LOCKSTEP_MATRIX])
def test_lockstep_kernel_matrix_bit_identical(name, ftype, mode):
    import numpy as np

    from repro.compiler import compile_source
    from repro.harness.runner import _stage_args
    from repro.sim.lockstep import Lane, run_lockstep

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
    results = run_lockstep(kernel.program, lanes, entry=spec.entry,
                           max_instructions=50_000_000)
    for index, (regs, stores) in enumerate(staged):
        ref_sim = Simulator(kernel.program)
        for addr, chunk in stores:
            ref_sim.machine.memory.write_block(addr, chunk)
        ref_res = ref_sim.run(spec.entry, args=dict(regs),
                              max_instructions=50_000_000)
        assert_lane_identical(ref_sim, ref_res, results[index],
                              f"{name}/{ftype}/{mode}/lane{index}")


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


def test_lockstep_store_divergent_address():
    run_lockstep_both("""
    sw a1, 0(a0)
    ret
    """, [{10: 0x3000, 11: 5}, {10: 0x4000, 11: 9}],
        label="store-div-addr")
