"""Random-program differential: block and lockstep engines against the
reference interpreter.

Hypothesis generates short, terminating programs: straight-line runs of
instructions drawn from every ``alu``, ``upper``, ``load``, ``store`` and
``fp`` kind in :data:`repro.sim.semantics.SEMANTICS` (random registers,
``x0`` included; static rounding modes, SR and DYN among them), runs
separated by CSR accesses (``frm`` writes, ``cycle``/``instret`` reads,
now and then an illegal counter write), sometimes an out-of-range load
or store at a random position, all inside a bounded backward-branch loop.
Each program runs on the reference interpreter, on the block engine
(whose blocks are shared process-wide, so later examples also reuse
blocks an earlier one built) and as three divergent lockstep lanes;
registers, memory, fcsr, trap CSRs, exit and the whole
:class:`~repro.sim.tracer.Trace` -- Counter insertion order included --
must be identical.  A failure hypothesis shrinks is pinned in this file
as a regression test next to the properties.
"""

from collections import defaultdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fp.rounding import set_sr_key
from repro.isa import assemble
from repro.isa.instructions import all_specs, encode, spec_by_mnemonic
from repro.sim import Simulator
from repro.sim.csr import CSR_CYCLE, CSR_FRM, CSR_INSTRET
from repro.sim.lockstep import Lane, run_lockstep
from repro.sim.semantics import SEMANTICS, access_size, formats

MASK32 = 0xFFFFFFFF
DATA = 0x4000     #: data window the in-range loads and stores hit
DATA_REG = 30     #: holds DATA; never a random destination
FAULT_REG = 29    #: holds 0xFFFFFFFF, so a 2+ byte access faults
LOOP_REG = 31     #: the loop counter; never a random destination
SR_KEY = 0x5EED   #: the stochastic-rounding key of a run
RESERVED = (1, FAULT_REG, DATA_REG, LOOP_REG)  # ra and the three above
DESTINATIONS = [r for r in range(32) if r not in RESERVED]
SHAPES = ("alu", "upper", "load", "store", "fp")


def _always_traps(spec):
    """A vector form with no lanes at FLEN=32 (tested one by one in
    ``test_semantics_table.py``; here it would only end programs)."""
    return (SEMANTICS[spec.kind].shape == "fp" and spec.vec
            and formats(spec, 32).fmt.width >= 32)


SPECS_BY_KIND = defaultdict(list)
for _spec in all_specs():
    if SEMANTICS[_spec.kind].shape in SHAPES and not _always_traps(_spec):
        SPECS_BY_KIND[_spec.kind].append(_spec)
KINDS = sorted(SPECS_BY_KIND)
FAULTING = [spec for kind in KINDS for spec in SPECS_BY_KIND[kind]
            if SEMANTICS[kind].shape in ("load", "store")
            and access_size(spec, 32) >= 2]

# Register values: small integers, sign edges and encodings of the
# special FP values of every format (zeros, ones, infinities, NaNs).
SPECIAL = (0, 1, 2, 3, 31, 32, MASK32, 0x80000000, 0x7FFFFFFF, 0x3C00,
           0x3F800000, 0x7F800000, 0xFF800000, 0x7FC00000, 0x7C00, 0xFC00,
           0x7E00, 0x38, 0x78, 0x7C, 0x3F80, 0x7F80, 0x3C003C00, 0x38383838)
values = st.one_of(st.sampled_from(SPECIAL), st.integers(0, MASK32))


@st.composite
def instructions(draw):
    """One random word from an alu/upper/load/store/fp kind."""
    kind = draw(st.sampled_from(KINDS))
    spec = draw(st.sampled_from(SPECS_BY_KIND[kind]))
    shape = SEMANTICS[kind].shape
    fields = {"rd": draw(st.sampled_from(DESTINATIONS + [0])),
              "rs1": draw(st.integers(0, 31)),
              "rs2": draw(st.integers(0, 31)),
              "rs3": draw(st.integers(0, 31)),
              "imm": draw(st.integers(-2048, 2047))}
    if shape in ("load", "store"):
        fields["rs1"] = DATA_REG
        fields["imm"] = draw(st.integers(-16, 48))
    elif spec.form == "SHIFT":
        fields["imm"] = draw(st.integers(0, 31))
    elif spec.form == "U":
        fields["imm"] = draw(st.integers(0, (1 << 20) - 1))
    if spec.has_rm:
        # The static modes (SR is 5) and DYN (7).
        fields["rm"] = draw(st.sampled_from((0, 1, 2, 3, 4, 5, 7)))
    return encode(spec, **fields)


@st.composite
def programs(draw):
    """``(words, frm, budget)`` for one looping program."""
    runs = draw(st.lists(st.lists(instructions(), min_size=1, max_size=8),
                         min_size=1, max_size=4))
    body = []
    for index, run in enumerate(runs):
        if index:
            body.append(draw(separators()))
        body.extend(run)
    if draw(st.integers(0, 3)) == 3:  # shrinks towards no fault
        spec = draw(st.sampled_from(FAULTING))
        fault = encode(spec, rd=5, rs1=FAULT_REG, rs2=6, imm=0)
        body.insert(draw(st.integers(0, len(body))), fault)
    words = body + _loop_tail(len(body))
    frm = draw(st.integers(0, 5))
    budget = draw(st.one_of(st.just(10_000), st.integers(1, 120)))
    return words, frm, budget


@st.composite
def points(draw):
    """One run's inputs: ``(registers, data window bytes)``."""
    args = {reg: draw(values) for reg in DESTINATIONS}
    args.update({FAULT_REG: MASK32, DATA_REG: DATA,
                 LOOP_REG: draw(st.integers(1, 3))})
    return args, draw(st.binary(min_size=64, max_size=64))


@st.composite
def separators(draw):
    """A CSR access: it ends a block and observes or changes state."""
    choice = draw(st.integers(0, 9))
    if choice < 6:  # csrwi frm, <mode>
        return encode(spec_by_mnemonic("csrrwi"), rd=0,
                      rs1=draw(st.integers(0, 5)), imm=CSR_FRM)
    if choice < 9:  # csrr rd, cycle|instret
        return encode(spec_by_mnemonic("csrrs"),
                      rd=draw(st.sampled_from(DESTINATIONS)), rs1=0,
                      imm=draw(st.sampled_from((CSR_CYCLE, CSR_INSTRET))))
    # csrw cycle, t0: a read-only counter, so an illegal-instruction trap
    return encode(spec_by_mnemonic("csrrw"), rd=0, rs1=5, imm=CSR_CYCLE)


def _loop_tail(body_len):
    """``addi t6, t6, -1; bne t6, zero, <body start>; ret``."""
    addi = encode(spec_by_mnemonic("addi"), rd=LOOP_REG, rs1=LOOP_REG,
                  imm=-1)
    back = -4 * (body_len + 1)
    bne = encode(spec_by_mnemonic("bne"), rs1=LOOP_REG, rs2=0, imm=back)
    return [addi, bne, assemble("ret").words[0]]


def _program(words):
    program = assemble("nop\n" * len(words))
    program.words[:] = words
    return program


def snapshot(result):
    """A run's complete observable state."""
    machine, trace, trap = result.machine, result.trace, result.trap
    csr = machine.csr
    return {
        "exit": (result.exit_reason, result.detail),
        "trap": None if trap is None else (trap.cause, trap.mepc,
                                           trap.mtval, trap.instruction),
        "trap_csrs": (csr.mcause, csr.mepc, csr.mtval),
        "trace": (trace.cycles, trace.instret,
                  list(trace.by_mnemonic.items()),
                  list(trace.by_category.items()),
                  list(trace.pc_counts.items()),
                  sorted(trace.pc_taken.items()),
                  trace.mem_accesses, trace.branches_taken),
        "pc": machine.pc,
        "xregs": list(machine.xregs),
        "fcsr": csr.fcsr,
        "memory": machine.memory.read_block(DATA - 32, 128),
    }


def run_engine(program, point, fast, key=SR_KEY):
    words, frm, budget = program
    args, data = point
    sim = Simulator(_program(words), fast_path=fast)
    sim.machine.memory.write_block(DATA - 16, data + data[:16])
    sim.machine.csr.frm = frm
    previous = set_sr_key(key)
    try:
        return snapshot(sim.run(0, args=dict(args),
                                max_instructions=budget))
    finally:
        set_sr_key(previous)


def assert_same(got, expected, label):
    for key in expected:
        assert got[key] == expected[key], (label, key)


@settings(max_examples=150, deadline=None)
@given(programs(), points())
def test_block_engine_agrees_with_reference(program, point):
    assert_same(run_engine(program, point, fast=True),
                run_engine(program, point, fast=False), "block")


@settings(max_examples=50, deadline=None)
@given(programs(), st.lists(points(), min_size=3, max_size=3),
       st.lists(st.sampled_from((SR_KEY, SR_KEY + 1)), min_size=3,
                max_size=3))
def test_lockstep_lanes_agree_with_reference(program, lane_points, keys):
    # Lanes differ in registers, data, loop trip counts and SR keys, so
    # batches split, re-merge and drain.
    words, frm, budget = program
    lanes = [Lane(args, [(DATA - 16, data + data[:16])], sr_key=key)
             for (args, data), key in zip(lane_points, keys)]
    results = run_lockstep(_program(words), lanes, max_instructions=budget,
                           frm=frm)
    for index, (point, key, result) in enumerate(
            zip(lane_points, keys, results)):
        assert_same(snapshot(result),
                    run_engine(program, point, fast=False, key=key),
                    f"lockstep lane {index}")
