"""The engines' exception fence: guest faults trap, host bugs propagate.

Every engine catches exactly ``GUEST_FAULTS``.  A reserved rounding
mode or a vector form that does not exist at FLEN is the guest's fault
(:class:`repro.fp.GuestIllegal`) and becomes an illegal-instruction
trap with the same ``mcause``/``mtval`` in every engine.  A plain
``ValueError`` raised inside an FP operation is a host bug: it must
reach the caller instead of being disguised as a guest trap.
"""

import pytest

from repro.fp import GuestIllegal
from repro.fp.formats import FloatFormat
from repro.isa import assemble
from repro.isa.instructions import encode, spec_by_mnemonic
from repro.sim import CAUSE_ILLEGAL_INSTRUCTION, Simulator
from repro.sim.executor import GUEST_FAULTS
from repro.sim.lockstep import Lane, run_lockstep

ENGINES = ("reference", "block", "lockstep")

# Under RTZ the lockstep engine runs fdiv through the scalar handler
# inside its own fence (not its vectorized RNE path), so every engine's
# fence sees the exception.
HOST_BUG_PROGRAM = """
addi t0, zero, 1
csrw frm, t0
fdiv.h a0, a2, a3
ret
"""
ARGS = {12: 0x3C00, 13: 0x3C01}  # 1.0 and 1.0009765625 (binary16)


def _run(engine, program, args, flen=32):
    """Run one point on ``engine``; the (result, machine) it left."""
    if engine == "lockstep":
        results = run_lockstep(program, [Lane(args), Lane(args)])
        assert results[0].trap == results[1].trap
        return results[0], results[0].machine
    sim = Simulator(program, fast_path=(engine == "block"), flen=flen)
    result = sim.run(0, args=args)
    return result, sim.machine


def test_fence_catches_guest_illegal_not_value_error():
    assert GuestIllegal in GUEST_FAULTS
    assert ValueError not in GUEST_FAULTS
    assert issubclass(GuestIllegal, ValueError)


@pytest.fixture
def broken_round_pack(monkeypatch):
    """Make every IEEE rounding step fail the way a host bug would."""
    def round_pack(self, sign, sig, exp, rm):
        raise ValueError("host bug in round_pack")

    monkeypatch.setattr(FloatFormat, "round_pack", round_pack)


@pytest.mark.parametrize("engine", ENGINES)
def test_host_value_error_propagates(broken_round_pack, engine):
    with pytest.raises(ValueError, match="host bug") as info:
        _run(engine, assemble(HOST_BUG_PROGRAM), ARGS)
    assert not isinstance(info.value, GuestIllegal)


def test_block_engine_ran_the_faulting_block(broken_round_pack):
    sim = Simulator(assemble(HOST_BUG_PROGRAM), fast_path=True)
    with pytest.raises(ValueError, match="host bug"):
        sim.run(0, args=ARGS)
    assert sim._engine().cached_blocks() >= 1


@pytest.mark.parametrize("frm", (6, 7))
@pytest.mark.parametrize("engine", ENGINES)
def test_reserved_dynamic_frm_traps_with_instruction_word(engine, frm):
    # frm=7 (DYN) is reserved in fcsr too.  ARGS sum inexactly, so a
    # mode that leaked through would reach the rounding step.
    program = assemble(f"""
    addi t0, zero, {frm}
    csrw frm, t0
    fadd.h a0, a2, a3
    ret
    """)
    result, machine = _run(engine, program, ARGS)
    assert result.exit_reason == "trap"
    assert result.trap.cause == CAUSE_ILLEGAL_INSTRUCTION
    assert result.trap.mepc == 8
    assert result.trap.mtval == machine.memory.read_u32(8)
    assert "RoundingMode" in result.trap.detail


@pytest.mark.parametrize("engine", ENGINES)
def test_reserved_static_rm_traps_with_instruction_word(engine):
    # The assembler only emits valid modes; patch rm=6 into the word.
    program = assemble("nop\nfadd.s a0, a2, a3\nret")
    word = encode(spec_by_mnemonic("fadd.s"), rd=10, rs1=12, rs2=13, rm=6)
    program.words[1] = word
    result, _ = _run(engine, program, ARGS)
    assert result.exit_reason == "trap"
    assert result.trap.cause == CAUSE_ILLEGAL_INSTRUCTION
    assert result.trap.mepc == 4
    assert result.trap.mtval == word


@pytest.mark.parametrize("engine", ("reference", "block"))
def test_missing_vector_form_traps(engine):
    program = assemble("vfadd.s a0, a2, a3\nret")
    result, machine = _run(engine, program, ARGS, flen=32)
    assert result.exit_reason == "trap"
    assert result.trap.cause == CAUSE_ILLEGAL_INSTRUCTION
    assert result.trap.mtval == machine.memory.read_u32(0)
    assert "no vector form" in result.trap.detail
