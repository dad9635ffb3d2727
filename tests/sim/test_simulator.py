"""End-to-end simulator runs: programs, cycles, latency, smallFloat."""

import pytest

from repro.fp import BINARY16, BINARY32
from repro.fp.convert import from_double, to_double
from repro.isa import assemble
from repro.sim import SimulationError, Simulator


def run_asm(src, args=None, **kw):
    sim = Simulator(assemble(src), **kw)
    return sim, sim.run("main" if "main:" in src else 0, args=args or {})


class TestBasicExecution:
    def test_addi_and_halt(self):
        sim, result = run_asm("li a0, 41\naddi a0, a0, 1\nret")
        assert sim.machine.read_x(10) == 42
        assert result.exit_reason == "halt"

    def test_arith_chain(self):
        sim, _ = run_asm(
            "li t0, 6\nli t1, 7\nmul t2, t0, t1\nsub a0, t2, t0\nret"
        )
        assert sim.machine.read_x(10) == 36

    def test_x0_stays_zero(self):
        sim, _ = run_asm("li x0, 5\naddi x0, x0, 3\nret")
        assert sim.machine.read_x(0) == 0

    def test_loop_sum(self):
        # sum 1..10
        src = """
        main:
            li a0, 0
            li t0, 10
        loop:
            add a0, a0, t0
            addi t0, t0, -1
            bnez t0, loop
            ret
        """
        sim, _ = run_asm(src)
        assert sim.machine.read_x(10) == 55

    def test_function_call(self):
        src = """
        main:
            addi sp, sp, -4
            sw ra, 0(sp)
            li a0, 5
            call double_it
            addi a0, a0, 1
            lw ra, 0(sp)
            addi sp, sp, 4
            ret
        double_it:
            add a0, a0, a0
            ret
        """
        sim, _ = run_asm(src)
        assert sim.machine.read_x(10) == 11

    def test_memory_roundtrip(self):
        src = """
        .data
        buf: .word 0
        .text
        main:
            la t0, buf
            li t1, 0x1234
            sw t1, 0(t0)
            lw a0, 0(t0)
            ret
        """
        sim, _ = run_asm(src)
        assert sim.machine.read_x(10) == 0x1234

    def test_signed_loads(self):
        src = """
        .data
        b: .byte 0xff
        .text
        main:
            la t0, b
            lb a0, 0(t0)
            lbu a1, 0(t0)
            ret
        """
        sim, _ = run_asm(src)
        assert sim.machine.read_x(10) == 0xFFFFFFFF
        assert sim.machine.read_x(11) == 0xFF

    def test_args_passed_in_registers(self):
        sim, _ = run_asm("add a0, a0, a1\nret", args={10: 30, 11: 12})
        assert sim.machine.read_x(10) == 42

    def test_ecall_exits(self):
        _, result = run_asm("li a0, 3\necall")
        assert result.exit_reason == "ecall"

    def test_runaway_guard(self):
        """Exhausting the budget ends the run instead of raising."""
        result = Simulator(assemble("spin: j spin")).run(
            0, max_instructions=100)
        assert result.exit_reason == "budget_exceeded"
        assert "100 instructions" in result.detail

    def test_run_without_program_raises(self):
        with pytest.raises(SimulationError):
            Simulator().run("main")


class TestTimingConfigOwnership:
    def test_caller_config_not_mutated(self):
        """Regression: Simulator used to write mem_latency into the
        caller's TimingConfig object."""
        from repro.sim import TimingConfig

        shared = TimingConfig(mem_latency=7)
        sim = Simulator(assemble("ret"), mem_latency=3, timing=shared)
        assert shared.mem_latency == 7  # caller's object untouched
        assert sim.timing.config.mem_latency == 3
        assert sim.machine.memory.latency == 3

    def test_latency_dicts_not_aliased(self):
        from repro.sim import TimingConfig

        shared = TimingConfig()
        sim = Simulator(assemble("ret"), timing=shared)
        sim.timing.config.fdiv_cycles["s"] = 99
        assert shared.fdiv_cycles["s"] != 99

    def test_timing_config_supplies_mem_latency(self):
        """With no explicit mem_latency, the TimingConfig's value wins
        for both the cycle model and the memory."""
        from repro.sim import TimingConfig

        sim = Simulator(assemble("ret"),
                        timing=TimingConfig(mem_latency=10))
        assert sim.timing.config.mem_latency == 10
        assert sim.machine.memory.latency == 10


class TestDivisionSemantics:
    def test_signed_div(self):
        sim, _ = run_asm("li a0, -7\nli a1, 2\ndiv a0, a0, a1\nret")
        assert sim.machine.read_x_signed(10) == -3  # truncates toward zero

    def test_div_by_zero(self):
        sim, _ = run_asm("li a0, 5\nli a1, 0\ndiv a0, a0, a1\nret")
        assert sim.machine.read_x(10) == 0xFFFFFFFF

    def test_rem_by_zero_returns_dividend(self):
        sim, _ = run_asm("li a0, 5\nli a1, 0\nrem a0, a0, a1\nret")
        assert sim.machine.read_x(10) == 5

    def test_div_overflow(self):
        sim, _ = run_asm("li a0, 0x80000000\nli a1, -1\ndiv a0, a0, a1\nret")
        assert sim.machine.read_x(10) == 0x80000000

    def test_mulh(self):
        sim, _ = run_asm("li a0, -2\nli a1, 3\nmulh a0, a0, a1\nret")
        assert sim.machine.read_x(10) == 0xFFFFFFFF  # high word of -6


class TestCyclesAndCounters:
    def test_cycle_counter_csr(self):
        sim, _ = run_asm("nop\nnop\ncsrr a0, cycle\nret")
        assert sim.machine.read_x(10) == 2

    def test_instret_csr(self):
        sim, _ = run_asm("nop\nnop\nnop\ncsrr a0, instret\nret")
        assert sim.machine.read_x(10) == 3

    def test_load_costs_mem_latency(self):
        src = "lw a0, 0(zero)\nret"
        cycles_l1 = Simulator(assemble(src), mem_latency=1).run(0).cycles
        cycles_l2 = Simulator(assemble(src), mem_latency=10).run(0).cycles
        assert cycles_l2 - cycles_l1 == 9

    def test_taken_branch_penalty(self):
        taken = Simulator(assemble("beq x0, x0, t\nnop\nt: ret")).run(0)
        not_taken = Simulator(assemble("bne x0, x0, t\nnop\nt: ret")).run(0)
        assert taken.instret < not_taken.instret  # skipped the nop
        assert taken.cycles > not_taken.cycles  # ...but paid the flush

    def test_fflags_accrue(self):
        src = """
        main:
            li t0, 0x3c00      # 1.0 in binary16
            li t1, 0x0001      # min subnormal
            fadd.h a0, t0, t1  # inexact
            csrr a0, fflags
            ret
        """
        sim, _ = run_asm(src)
        assert sim.machine.read_x(10) & 0b1  # NX


class TestSmallFloatExecution:
    def test_scalar_fadd_h(self):
        a = from_double(1.5, BINARY16)
        b = from_double(2.25, BINARY16)
        sim, _ = run_asm("fadd.h a0, a0, a1\nret", args={10: a, 11: b})
        assert to_double(sim.machine.read_f(10, 16), BINARY16) == 3.75

    def test_vector_vfadd_h(self):
        lo = from_double(1.0, BINARY16)
        hi = from_double(2.0, BINARY16)
        packed = (hi << 16) | lo
        sim, _ = run_asm("vfadd.h a0, a0, a1\nret",
                         args={10: packed, 11: packed})
        reg = sim.machine.read_f(10)
        assert to_double(reg & 0xFFFF, BINARY16) == 2.0
        assert to_double(reg >> 16, BINARY16) == 4.0

    def test_fig5_manual_dot_product(self):
        """The manually vectorized Fig. 5 kernel computes a dot product
        with expanding accumulation."""
        src = """
        main:
        loop:
            lw   a5, 0(a0)
            lw   a6, 0(a1)
            vfdotpex.s.h a4, a5, a6
            addi a0, a0, 4
            addi a1, a1, 4
            addi a2, a2, -1
            bnez a2, loop
            mv a0, a4
            ret
        """
        program = assemble(src)
        sim = Simulator(program)
        # a = [1, 2, 3, 4], b = [10, 20, 30, 40] as packed binary16 pairs
        base_a, base_b = 0x2000, 0x3000
        for idx, value in enumerate([1.0, 2.0, 3.0, 4.0]):
            sim.machine.memory.write_u16(base_a + 2 * idx,
                                         from_double(value, BINARY16))
        for idx, value in enumerate([10.0, 20.0, 30.0, 40.0]):
            sim.machine.memory.write_u16(base_b + 2 * idx,
                                         from_double(value, BINARY16))
        sim.run(0, args={10: base_a, 11: base_b, 12: 2, 14: 0})
        result = to_double(sim.machine.read_f(10, 32), BINARY32)
        assert result == 10.0 + 40.0 + 90.0 + 160.0

    def test_fmacex_expanding_accumulate(self):
        a = from_double(0.5, BINARY16)
        b = from_double(0.25, BINARY16)
        acc = from_double(10.0, BINARY32)
        sim, _ = run_asm("fmacex.s.h a0, a1, a2\nret",
                         args={10: acc, 11: a, 12: b})
        assert to_double(sim.machine.read_f(10, 32), BINARY32) == 10.125

    def test_cast_and_pack(self):
        a = from_double(1.5, BINARY32)
        b = from_double(-2.0, BINARY32)
        sim, _ = run_asm("vfcpka.h.s a0, a1, a2\nret",
                         args={10: 0, 11: a, 12: b})
        reg = sim.machine.read_f(10)
        assert to_double(reg & 0xFFFF, BINARY16) == 1.5
        assert to_double(reg >> 16, BINARY16) == -2.0

    def test_alt_format_rounds_via_fcsr(self):
        """fadd.ah rounds with fcsr.frm (here RUP)."""
        from repro.fp import BINARY16ALT

        one = from_double(1.0, BINARY16ALT)
        tiny = from_double(2.0 ** -20, BINARY16ALT)
        src = """
        main:
            li t0, 3           # RUP
            csrw frm, t0
            fadd.ah a0, a0, a1
            ret
        """
        sim, _ = run_asm(src, args={10: one, 11: tiny})
        from repro.fp import BINARY16ALT

        assert (
            to_double(sim.machine.read_f(10, 16), BINARY16ALT)
            == 1.0 + 2.0 ** -7
        )

    def test_flh_fsh_roundtrip(self):
        value = from_double(3.5, BINARY16)
        src = """
        main:
            flh a0, 0(a1)
            fsh a0, 4(a1)
            lhu a2, 4(a1)
            ret
        """
        program = assemble(src)
        sim = Simulator(program)
        sim.machine.memory.write_u16(0x2000, value)
        sim.run(0, args={11: 0x2000})
        assert sim.machine.read_x(12) == value


class TestCompressedExecution:
    def test_mixed_compressed_stream(self):
        """Hand-placed RVC parcels execute and advance PC by 2."""
        sim = Simulator()
        mem = sim.machine.memory
        mem.write_u16(0x0, 0x4515)  # c.li a0, 5
        mem.write_u16(0x2, 0x0505)  # c.addi a0, 1
        mem.write_u16(0x4, 0x8082)  # c.jr ra (ret)
        result = sim.run(0)
        assert sim.machine.read_x(10) == 6
        assert result.instret == 3

    def test_separate_fp_regfile_mode(self):
        """Standard RV32F behaviour with a split register file."""
        src = """
        main:
            flw fa0, 0(a1)
            fadd.s fa0, fa0, fa0
            fsw fa0, 4(a1)
            ret
        """
        sim = Simulator(assemble(src), merged_regfile=False)
        sim.machine.memory.write_u32(0x2000, from_double(2.5, BINARY32))
        sim.run(0, args={11: 0x2000})
        out = sim.machine.memory.read_u32(0x2004)
        assert to_double(out, BINARY32) == 5.0
        # a1 (x11) untouched by FP writes in split mode
        assert sim.machine.read_x(11) == 0x2000


class TestTraceBreakdown:
    def test_category_counts(self):
        src = """
        main:
            lw t0, 0(zero)
            fadd.h t1, t1, t1
            vfmul.h t2, t2, t2
            sw t0, 4(zero)
            ret
        """
        _, result = run_asm(src)
        bd = result.trace.breakdown()
        assert bd["load"] == 1
        assert bd["store"] == 1
        assert bd["fp16"] == 1
        assert bd["vfp16"] == 1
        assert bd["jump"] == 1  # the final ret

    def test_merged_breakdown_groups(self):
        src = "fmacex.s.h t0, t1, t2\nret"
        _, result = run_asm(src)
        merged = result.trace.merged_breakdown()
        assert merged["expand"] == 1
