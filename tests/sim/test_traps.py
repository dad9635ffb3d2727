"""Architectural trap semantics: every guest fault becomes a RunResult
with ``exit_reason='trap'`` and latched mcause/mepc/mtval -- no host
exception escapes ``Simulator.run``."""

from repro.isa import assemble
from repro.sim import (
    CAUSE_ILLEGAL_INSTRUCTION,
    CAUSE_LOAD_ACCESS_FAULT,
    CAUSE_STORE_ACCESS_FAULT,
    Simulator,
)
from repro.sim.csr import CSR_MCAUSE, CSR_MEPC, CSR_MTVAL


def run_asm(src, args=None, **kw):
    sim = Simulator(assemble(src), **kw)
    return sim, sim.run("main" if "main:" in src else 0, args=args or {})


class TestIllegalInstruction:
    def test_undecodable_word_traps(self):
        sim = Simulator()
        sim.machine.memory.write_u32(0x0, 0xFFFF_FFFF)
        result = sim.run(0)
        assert result.exit_reason == "trap"
        assert result.trap.cause == CAUSE_ILLEGAL_INSTRUCTION
        assert result.trap.mepc == 0
        assert result.trap.mtval == 0xFFFF_FFFF
        assert sim.machine.csr.mcause == CAUSE_ILLEGAL_INSTRUCTION
        assert sim.machine.csr.mepc == 0
        assert sim.machine.csr.mtval == 0xFFFF_FFFF

    def test_all_zeros_word_traps(self):
        sim = Simulator()
        sim.machine.memory.write_u32(0x0, 0)
        result = sim.run(0)
        assert result.exit_reason == "trap"
        assert result.trap.cause == CAUSE_ILLEGAL_INSTRUCTION

    def test_illegal_csr_access_traps(self):
        sim, result = run_asm("nop\ncsrr a0, 0x123\nret")
        assert result.exit_reason == "trap"
        assert result.trap.cause == CAUSE_ILLEGAL_INSTRUCTION
        assert result.trap.mepc == 4  # the csrr, after the nop
        assert sim.machine.csr.mepc == 4
        # mtval holds the faulting instruction word.
        assert result.trap.mtval == result.trap.mtval & 0xFFFFFFFF
        assert "CSR" in result.trap.detail

    def test_reserved_rounding_mode_traps(self):
        # frm=6 is reserved (5 is stochastic rounding since the Xfsr
        # extension); a dynamic-rm FP op must trap.
        src = """
        main:
            li t0, 6
            csrw frm, t0
            fadd.h a0, a0, a1
            ret
        """
        _, result = run_asm(src)
        assert result.exit_reason == "trap"
        assert result.trap.cause == CAUSE_ILLEGAL_INSTRUCTION

    def test_trap_diagnostic_includes_disassembly(self):
        _, result = run_asm("csrr a0, 0x123\nret")
        assert result.trap.instruction is not None
        assert "csrr" in result.trap.instruction
        text = str(result.trap)
        assert "illegal instruction" in text
        assert "pc=0x00000000" in text


class TestAccessFaults:
    def test_out_of_range_load_traps(self):
        sim, result = run_asm("li a0, -2\nlw a1, 0(a0)\nret")
        assert result.exit_reason == "trap"
        assert result.trap.cause == CAUSE_LOAD_ACCESS_FAULT
        assert result.trap.mtval == 0xFFFF_FFFE
        assert result.trap.mepc == 4
        assert sim.machine.csr.mcause == CAUSE_LOAD_ACCESS_FAULT

    def test_out_of_range_store_traps(self):
        _, result = run_asm("li a0, -2\nsw a1, 0(a0)\nret")
        assert result.exit_reason == "trap"
        assert result.trap.cause == CAUSE_STORE_ACCESS_FAULT
        assert result.trap.mtval == 0xFFFF_FFFE

    def test_fp_store_fault(self):
        _, result = run_asm("li a0, -1\nfsh a1, 0(a0)\nret")
        assert result.exit_reason == "trap"
        assert result.trap.cause == CAUSE_STORE_ACCESS_FAULT


class TestTrapCsrs:
    def test_guest_can_read_trap_csrs(self):
        """mepc/mcause/mtval/mscratch are real CSRs guest code can use."""
        src = """
        main:
            li t0, 0x42
            csrw mscratch, t0
            csrr a0, mscratch
            csrr a1, mcause
            ret
        """
        sim, result = run_asm(src)
        assert result.exit_reason == "halt"
        assert sim.machine.read_x(10) == 0x42
        assert sim.machine.read_x(11) == 0

    def test_csr_file_set_trap(self):
        from repro.sim import CsrFile

        csr = CsrFile()
        csr.set_trap(5, 0x1234, 0xdeadbeef)
        assert csr.read(CSR_MCAUSE) == 5
        assert csr.read(CSR_MEPC) == 0x1234
        assert csr.read(CSR_MTVAL) == 0xdeadbeef


class TestNormalExitsUnaffected:
    def test_halt_reports_no_trap(self):
        _, result = run_asm("li a0, 1\nret")
        assert result.exit_reason == "halt"
        assert result.trap is None
        assert result.ok

    def test_ecall_and_ebreak_still_voluntary(self):
        _, r1 = run_asm("ecall")
        _, r2 = run_asm("ebreak")
        assert (r1.exit_reason, r2.exit_reason) == ("ecall", "ebreak")
        assert r1.ok and r2.ok

    def test_budget_exceeded_is_not_ok(self):
        result = Simulator(assemble("spin: j spin")).run(
            0, max_instructions=10)
        assert result.exit_reason == "budget_exceeded"
        assert not result.ok
        assert result.trap is None
