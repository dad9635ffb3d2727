"""Random-program differential: block and lockstep engines against the
reference interpreter.

Hypothesis generates short, terminating programs: straight-line runs of
instructions drawn from every ``alu``, ``upper``, ``load``, ``store`` and
``fp`` kind in :data:`repro.sim.semantics.SEMANTICS` (random registers,
``x0`` included; static rounding modes, SR and DYN among them) mixed
with RVC parcels (``c.addi``, ``c.mv``, ``c.add``, ``c.lw``, ``c.sw``,
``c.flw``, ``c.fsw``),
runs separated by CSR accesses (``frm`` writes, ``cycle``/``instret``
reads, now and then an illegal counter write), forward conditional
branches on random registers, ``c.beqz``/``c.bnez`` and ``jal``/``c.j``
skips inside the body, inner loops of the compiler's shape (a top-test
branch out, a body, a backward ``jal``/``c.j`` to the test) run a
lane-dependent number of times, sometimes an out-of-range load or store
at a random position, all inside a bounded backward-branch loop.  The
forward skips make first-retire order depart from address order and
make lockstep lanes diverge; the ``x0``-linking jumps make the block
engine build superblocks, and the inner loops make them loop in place,
under random budgets that often run out mid-loop.
Each program runs on the reference interpreter, on the block engine
(whose blocks are shared process-wide, so later examples also reuse
blocks an earlier one built) and as three divergent lockstep lanes;
registers, memory, fcsr, trap CSRs, exit and the whole
:class:`~repro.sim.tracer.Trace` -- Counter insertion order included --
must be identical.  A failure hypothesis shrinks is pinned in this file
as a regression test next to the properties.
"""

import struct
from collections import defaultdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fp import batch as fpbatch
from repro.fp.rounding import set_sr_key
from repro.isa import assemble
from repro.isa.encoding import is_compressed
from repro.isa.instructions import all_specs, encode, spec_by_mnemonic
from repro.sim import Simulator
from repro.sim.csr import CSR_CYCLE, CSR_FRM, CSR_INSTRET
from repro.sim import lockstep
from repro.sim.lockstep import Lane, run_lockstep
from repro.sim.semantics import SEMANTICS, access_size, formats

MASK32 = 0xFFFFFFFF
DATA = 0x4000     #: data window the in-range loads and stores hit
DATA_REG = 8      #: holds DATA (``c.lw``/``c.sw`` reach x8-x15 only)
FAULT_REG = 29    #: holds 0xFFFFFFFF, so a 2+ byte access faults
LOOP_REG = 31     #: the loop counter; never a random destination
INNER_REG = 30    #: the inner loops' counter
TWO_REG = 28      #: holds 2, for branches on the loop counter
SR_KEY = 0x5EED   #: the stochastic-rounding key of a run
#: ra and the registers above.
RESERVED = (1, FAULT_REG, DATA_REG, LOOP_REG, INNER_REG, TWO_REG)
DESTINATIONS = [r for r in range(32) if r not in RESERVED]
SHAPES = ("alu", "upper", "load", "store", "fp")
BRANCHES = ("beq", "bne", "blt", "bge", "bltu", "bgeu")


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
# special FP values of every format (zeros, ones, infinities, NaNs), the
# guest ones as single lanes and replicated across lanes: posit NaR,
# maxpos and minpos (posit8, posit16); the MX8 element NaN and largest
# finite values, and MX8 blocks whose E8M0 scale byte (the top byte) is
# NaN, the largest or the smallest scale.
SPECIAL = (0, 1, 2, 3, 31, 32, MASK32, 0x80000000, 0x7FFFFFFF, 0x3C00,
           0x3F800000, 0x7F800000, 0xFF800000, 0x7FC00000, 0x7C00, 0xFC00,
           0x7E00, 0x38, 0x78, 0x7C, 0x3F80, 0x7F80, 0x3C003C00, 0x38383838,
           0x80, 0x8000, 0x7F, 0x7FFF, 0x80808080, 0x80008000, 0x7F7F7F7F,
           0x01010101, 0x7FFF7FFF, 0x00010001, 0xFF, 0x7E, 0xFE, 0x7E7E7E7E,
           0xFF383838, 0xFE7E7E7E, 0x00010101, 0x7F7F0038)
# Operands that steer the directed and stochastic rounding paths to
# their edges: subnormal results (the smallest normals and subnormals),
# overflow (the largest finite values), exact cancellation (+-1.0 and
# +-2^-100, so RDN's -0 shows), addends too far apart for a 63-bit
# significand (2^102 against 2^-100), and binary32 products far below
# the subnormal range (2^-100 squared discards more than 64 bits).
EDGES = (0x00800000, 0x00000003, 0x7F7FFFFF, 0xBF800000, 0x0D800000,
         0x8D800000, 0x72800000, 0x0400, 0x0003, 0x7BFF, 0xBC00, 0x0080,
         0x7F7F, 0x04, 0x7B, 0xBC, 0x04040404, 0x7B7B7B7B, 0x04000400)
values = st.one_of(st.sampled_from(SPECIAL + EDGES), st.integers(0, MASK32))


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


#: funct3 of the RVC word loads and stores (quadrant 0).
MEMORY_RVC = {"c.lw": 0b010, "c.flw": 0b011, "c.sw": 0b110, "c.fsw": 0b111}


@st.composite
def compressed(draw):
    """One RVC parcel: ``c.addi``, ``c.mv``, ``c.add``, or ``c.lw`` /
    ``c.sw`` / ``c.flw`` / ``c.fsw`` at a word offset from
    ``DATA_REG``."""
    form = draw(st.sampled_from(("c.addi", "c.mv", "c.add")
                                + tuple(MEMORY_RVC)))
    if form in MEMORY_RVC:
        offset = 4 * draw(st.integers(0, 15))
        loads = form in ("c.lw", "c.flw")
        reg = draw(st.integers(9, 15) if loads else st.integers(8, 15))
        return (MEMORY_RVC[form] << 13
                | (offset >> 3 & 7) << 10 | (DATA_REG - 8) << 7
                | (offset >> 2 & 1) << 6 | (offset >> 6 & 1) << 5
                | (reg - 8) << 2)
    rd = draw(st.sampled_from(DESTINATIONS))
    if form == "c.addi":
        imm = draw(st.integers(-32, 31).filter(bool)) & 0x3F
        return (imm >> 5) << 12 | rd << 7 | (imm & 0x1F) << 2 | 0b01
    funct4 = 0b1000 if form == "c.mv" else 0b1001
    return funct4 << 12 | rd << 7 | draw(st.integers(1, 31)) << 2 | 0b10


def c_j(offset):
    """``c.j offset``."""
    o = offset & 0xFFF
    return (0b101 << 13 | (o >> 11 & 1) << 12 | (o >> 4 & 1) << 11
            | (o >> 8 & 3) << 9 | (o >> 10 & 1) << 8 | (o >> 6 & 1) << 7
            | (o >> 7 & 1) << 6 | (o >> 1 & 7) << 3 | (o >> 5 & 1) << 2
            | 0b01)


def c_branch(form, reg, offset):
    """``c.beqz``/``c.bnez reg, offset`` (``reg`` in x8-x15)."""
    o = offset & 0x1FF
    return ((0b110 if form == "c.beqz" else 0b111) << 13
            | (o >> 8 & 1) << 12 | (o >> 3 & 3) << 10 | (reg - 8) << 7
            | (o >> 6 & 3) << 5 | (o >> 1 & 3) << 3 | (o >> 5 & 1) << 2
            | 0b01)


@st.composite
def skips(draw):
    """A forward jump over the next ``skip`` body items: ``jal`` or
    ``c.j``, or a conditional branch on the loop counter against
    ``TWO_REG`` (its outcome changes between iterations, so first-retire
    order departs from address order), on two random registers, or
    ``c.beqz``/``c.bnez`` on a random register of x8-x15."""
    form = draw(st.integers(0, 4))
    skip = draw(st.integers(0, 6))
    if form == 0:
        return ("jal", draw(st.sampled_from(DESTINATIONS + [0])), skip)
    if form == 1:
        return ("c.j", skip)
    if form == 2:
        return (draw(st.sampled_from(("c.beqz", "c.bnez"))),
                draw(st.integers(8, 15)), skip)
    if form == 3:
        rs1, rs2 = draw(st.permutations((LOOP_REG, TWO_REG)))
    else:
        rs1, rs2 = draw(st.integers(0, 31)), draw(st.integers(0, 31))
    return (draw(st.sampled_from(BRANCHES)), rs1, rs2, skip)


@st.composite
def loops(draw):
    """An inner loop of the compiler's shape, as parcels: ``INNER_REG``
    set to the low two bits of a random register (negated when counting
    up), a top-test ``bge``/``beq`` out of the loop, a short body, the
    counter step and a backward ``jal x0``/``c.j`` to the test."""
    src = draw(st.sampled_from(DESTINATIONS))
    up = draw(st.booleans())
    body = draw(st.lists(st.one_of(instructions(), compressed()),
                         max_size=4))
    init = [encode(spec_by_mnemonic("andi"), rd=INNER_REG, rs1=src, imm=3)]
    if up:
        init.append(encode(spec_by_mnemonic("sub"), rd=INNER_REG, rs1=0,
                           rs2=INNER_REG))
    step = encode(spec_by_mnemonic("addi"), rd=INNER_REG, rs1=INNER_REG,
                  imm=1 if up else -1)
    compressed_back = draw(st.booleans())
    back = -(4 + sum(_size(p) for p in body) + 4)
    leave = -back + (2 if compressed_back else 4)
    if up:  # leave once the count reaches zero
        test = encode(spec_by_mnemonic("bge"), rs1=INNER_REG, rs2=0,
                      imm=leave)
    else:
        test = encode(spec_by_mnemonic(draw(st.sampled_from(("bge", "beq")))),
                      rs1=0, rs2=INNER_REG, imm=leave)
    jump = (c_j(back) if compressed_back
            else encode(spec_by_mnemonic("jal"), rd=0, imm=back))
    return init + [test] + body + [step, jump]


@st.composite
def programs(draw):
    """``(parcels, frm, budget)`` for one looping program."""
    item = st.one_of(instructions(), instructions(), compressed())
    runs = draw(st.lists(st.lists(item, min_size=1, max_size=8),
                         min_size=1, max_size=4))
    body = []
    for index, run in enumerate(runs):
        if index:
            body.append(draw(separators()))
        body.extend(run)
    for loop in draw(st.lists(loops(), max_size=2)):
        body.insert(draw(st.integers(0, len(body))), loop)
    for skip in draw(st.lists(skips(), max_size=3)):
        body.insert(draw(st.integers(0, len(body))), skip)
    if draw(st.integers(0, 3)) == 3:  # shrinks towards no fault
        spec = draw(st.sampled_from(FAULTING))
        fault = encode(spec, rd=5, rs1=FAULT_REG, rs2=6, imm=0)
        body.insert(draw(st.integers(0, len(body))), fault)
    frm = draw(st.integers(0, 5))
    budget = draw(st.one_of(st.just(10_000), st.integers(1, 120)))
    return _layout(body), frm, budget


@st.composite
def points(draw):
    """One run's inputs: ``(registers, data window bytes)``."""
    args = {reg: draw(values) for reg in DESTINATIONS}
    args.update({FAULT_REG: MASK32, DATA_REG: DATA, TWO_REG: 2,
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


def _size(parcel):
    return 2 if is_compressed(parcel & 0xFFFF) else 4


def _item_size(item):
    if type(item) is list:  # an inner loop's parcels
        return sum(map(_size, item))
    if type(item) is tuple:  # a skip
        return 2 if item[0].startswith("c.") else 4
    return _size(item)


def _layout(body):
    """The body's parcels with every skip resolved to a forward offset
    (at most to the loop tail), then the loop tail: ``addi t6, t6, -1;
    bne t6, zero, <body start>; ret``."""
    sizes = [_item_size(item) for item in body]
    starts = [sum(sizes[:index]) for index in range(len(body) + 1)]
    parcels = []
    for index, item in enumerate(body):
        if type(item) is list:
            parcels.extend(item)
            continue
        if type(item) is tuple:
            target = starts[min(index + 1 + item[-1], len(body))]
            offset = target - starts[index]
            if item[0] == "jal":
                item = encode(spec_by_mnemonic("jal"), rd=item[1],
                              imm=offset)
            elif item[0] == "c.j":
                item = c_j(offset)
            elif item[0].startswith("c."):
                item = c_branch(item[0], item[1], offset)
            else:
                item = encode(spec_by_mnemonic(item[0]), rs1=item[1],
                              rs2=item[2], imm=offset)
        parcels.append(item)
    addi = encode(spec_by_mnemonic("addi"), rd=LOOP_REG, rs1=LOOP_REG,
                  imm=-1)
    back = -(starts[-1] + 4)
    bne = encode(spec_by_mnemonic("bne"), rs1=LOOP_REG, rs2=0, imm=back)
    return parcels + [addi, bne, assemble("ret").words[0]]


def _program(parcels):
    """A program whose text is ``parcels``, padded with ``c.nop`` to a
    whole number of words."""
    text = b"".join(struct.pack("<H" if _size(p) == 2 else "<I", p)
                    for p in parcels)
    if len(text) % 4:
        text += struct.pack("<H", 0x0001)
    words = list(struct.unpack(f"<{len(text) // 4}I", text))
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
    parcels, frm, budget = program
    args, data = point
    sim = Simulator(_program(parcels), fast_path=fast)
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


def check_lockstep_lanes(min_width, program, lane_points, keys):
    # Lanes differ in registers, data, loop trip counts and SR keys, so
    # batches split, re-merge and drain; every lane has its own key.
    # The integer rounding path runs at any width here (it normally
    # waits for EXACT_MIN_LANES lanes, a speed threshold).
    parcels, frm, budget = program
    lanes = [Lane(args, [(DATA - 16, data + data[:16])], sr_key=key)
             for (args, data), key in zip(lane_points, keys)]
    min_lanes, fpbatch.EXACT_MIN_LANES = fpbatch.EXACT_MIN_LANES, 1
    width, lockstep.LOCKSTEP_MIN_WIDTH = lockstep.LOCKSTEP_MIN_WIDTH, min_width
    try:
        results = run_lockstep(_program(parcels), lanes,
                               max_instructions=budget, frm=frm)
    finally:
        fpbatch.EXACT_MIN_LANES = min_lanes
        lockstep.LOCKSTEP_MIN_WIDTH = width
    for index, (point, key, result) in enumerate(
            zip(lane_points, keys, results)):
        assert_same(snapshot(result),
                    run_engine(program, point, fast=False, key=key),
                    f"lockstep lane {index}")


LANE_CASES = dict(program=programs(),
                  lane_points=st.lists(points(), min_size=3, max_size=3),
                  keys=st.permutations((SR_KEY, SR_KEY + 1, SR_KEY + 2)))


@settings(max_examples=50, deadline=None)
@given(**LANE_CASES)
def test_lockstep_lanes_agree_with_reference(program, lane_points, keys):
    # At the default width an RNE sub-batch drains at its first split.
    check_lockstep_lanes(lockstep.LOCKSTEP_MIN_WIDTH, program,
                         lane_points, keys)


@settings(max_examples=50, deadline=None)
@given(**LANE_CASES)
def test_lockstep_lanes_agree_with_reference_when_splits_stay(
        program, lane_points, keys):
    # At width 1 every split stays in lockstep.
    check_lockstep_lanes(1, program, lane_points, keys)
