"""The semantics table: one row per kind, and three engines that agree.

Every instruction kind is declared once in :mod:`repro.sim.semantics`
and the reference, block and lockstep engines derive their handlers
from it.  This suite checks the table is complete, pins the integer
kinds against values worked out by hand (the engines share one copy of
the integer semantics, so agreeing with each other proves nothing
there), and runs every registered instruction on tiny programs through
all three engines -- random operands with zero, subnormal, infinity and
NaN encodings, every static and dynamic rounding mode including
stochastic rounding, lockstep at three lanes with divergent values and
SR keys -- diffing registers, fcsr, memory, exit reason and the trace.
"""

import random
from collections import defaultdict

import pytest

from repro.fp.convert import from_double
from repro.fp.rounding import set_sr_key
from repro.isa import assemble
from repro.isa.instructions import all_specs, encode
from repro.sim import Simulator
from repro.sim.lockstep import Lane, run_lockstep
from repro.sim.semantics import SEMANTICS, formats, fp_operands

MASK32 = 0xFFFFFFFF
DATA = 0x2000  # scratch data window for loads and stores
BUDGET = 64
LANES = 3
SEED = 20190325


def test_every_kind_has_exactly_one_row():
    kinds = {spec.kind for spec in all_specs()}
    assert kinds == set(SEMANTICS)
    assert all(row.kind == kind for kind, row in SEMANTICS.items())


# ----------------------------------------------------------------------
# Integer kinds against hand-derived values
# ----------------------------------------------------------------------
def _neg(value):
    return value & MASK32


INT_CASES = [
    # kind, rs1, rs2 or immediate, expected rd
    ("div", 7, 2, 3),
    ("div", _neg(-7), 2, _neg(-3)),
    ("div", 7, _neg(-2), _neg(-3)),
    ("div", 7, 0, MASK32),
    ("div", 0x80000000, MASK32, 0x80000000),
    ("divu", _neg(-7), 2, 0x7FFFFFFC),
    ("divu", 7, 0, MASK32),
    ("rem", _neg(-7), 2, _neg(-1)),
    ("rem", 7, _neg(-2), 1),
    ("rem", 7, 0, 7),
    ("rem", _neg(-7), 0, _neg(-7)),
    ("rem", 0x80000000, MASK32, 0),
    ("remu", _neg(-7), 2, 1),
    ("remu", 7, 0, 7),
    ("mul", 0x10000, 0x10000, 0),
    ("mul", _neg(-3), 5, _neg(-15)),
    ("mulh", _neg(-1), _neg(-1), 0),
    ("mulh", 0x80000000, 0x80000000, 0x40000000),
    ("mulh", _neg(-2), 3, MASK32),
    ("mulh", 0x7FFFFFFF, 0x7FFFFFFF, 0x3FFFFFFF),
    ("mulhsu", _neg(-1), MASK32, MASK32),
    ("mulhsu", 2, MASK32, 1),
    ("mulhsu", 0x80000000, 0x80000000, 0xC0000000),
    ("mulhu", MASK32, MASK32, 0xFFFFFFFE),
    ("mulhu", 0x80000000, 2, 1),
    ("sra", 0x80000000, 4, 0xF8000000),
    ("sra", 0x80000000, 33, 0xC0000000),
    ("sra", 0x40000000, 30, 1),
    ("srl", 0x80000000, 33, 0x40000000),
    ("sll", 1, 35, 8),
    ("srai", 0x80000000, 31, MASK32),
    ("srai", 0x7FFFFFFF, 31, 0),
    ("srli", 0x80000000, 31, 1),
    ("slli", 3, 31, 0x80000000),
    ("slt", _neg(-1), 0, 1),
    ("slt", 0, _neg(-1), 0),
    ("slt", 0x80000000, 0x7FFFFFFF, 1),
    ("sltu", _neg(-1), 0, 0),
    ("sltu", 0, _neg(-1), 1),
    ("slti", _neg(-2), -1, 1),
    ("slti", 0, -1, 0),
    ("sltiu", 5, -1, 1),  # the immediate sign-extends to 0xFFFFFFFF
    ("sltiu", MASK32, -1, 0),
    ("addi", MASK32, 1, 0),
    ("xori", 0x0F0F0F0F, -1, 0xF0F0F0F0),
    ("andi", MASK32, -2048, 0xFFFFF800),
    ("sub", 0, 1, MASK32),
]


def _int_program(kind, b):
    spec = next(s for s in all_specs() if s.kind == kind)
    if "rs2" in spec.syntax:
        return assemble(f"{kind} a0, a1, a2\nret"), {11: None, 12: b}
    return assemble(f"{kind} a0, a1, {b}\nret"), {11: None}


@pytest.mark.parametrize("kind,a,b,expected", INT_CASES,
                         ids=[f"{c[0]}-{i}" for i, c in enumerate(INT_CASES)])
def test_integer_kinds_match_hand_values(kind, a, b, expected):
    program, args = _int_program(kind, b)
    args[11] = a
    for fast in (False, True):
        sim = Simulator(program, fast_path=fast)
        assert sim.run(0, args=dict(args)).exit_reason == "halt"
        assert sim.machine.read_x(10) == expected, (kind, fast)
    lanes = run_lockstep(program, [Lane(dict(args)), Lane({**args, 11: 0})])
    assert lanes[0].machine.read_x(10) == expected, (kind, "lockstep")


# ----------------------------------------------------------------------
# Every instruction on every engine
# ----------------------------------------------------------------------
INT_POOL = (0, 1, 2, 31, 32, MASK32, 0x80000000, 0x7FFFFFFF, 0x80000001)
CSRS = (0x001, 0x002, 0x003, 0x340, 0xC00, 0x123)


def _fp_pool(fmt):
    """Encodings that reach every special path of ``fmt``."""
    pool = {0, fmt.sign_mask, 1, fmt.sign_mask | 1, fmt.bits_mask,
            fmt.quiet_nan, fmt.inf(0), fmt.inf(1), fmt.inf(0) | 1,
            fmt.max_finite_signed(0), fmt.max_finite_signed(1)}
    for value in (1.0, -1.5, 3.0, 0.1):
        pool.add(from_double(value, fmt))
    return sorted(bits & fmt.bits_mask for bits in pool)


def _fp_value(fmt, rng):
    """A 32-bit register of ``fmt`` lanes from the special pool, mixed
    with random patterns (upper bits of narrow scalars included)."""
    if fmt.width >= 32:
        return rng.choice(_fp_pool(fmt) + [rng.getrandbits(32)]) & MASK32
    value = 0
    for shift in range(0, 32, fmt.width):
        lane = (rng.choice(_fp_pool(fmt)) if rng.random() < 0.75
                else rng.getrandbits(fmt.width))
        value |= lane << shift
    return value


def _operand_formats(spec):
    """Register -> number format of the FP operands ``spec`` reads."""
    F = formats(spec, 32)
    sources, _dest = fp_operands(spec, F)
    row = SEMANTICS[spec.kind]
    out = {}
    for index, (file, field, _width) in enumerate(sources):
        if file == "f":
            acc = row.acc and index == 0
            out[field] = F.dst if (acc and row.expands) else (
                F.fmt if acc else F.src)
    return out


def _lane_args(spec, rng):
    args = {reg: rng.choice(INT_POOL + (rng.getrandbits(32),))
            for reg in (10, 11, 12, 13)}
    row = SEMANTICS[spec.kind]
    if row.shape == "fp":
        for field, fmt in _operand_formats(spec).items():
            args[{"rd": 10, "rs1": 11, "rs2": 12, "rs3": 13}[field]] = (
                _fp_value(fmt, rng))
    elif row.shape in ("load", "store"):
        args[11] = DATA + rng.randrange(0, 32)
    elif row.shape == "jump":
        args[11] = rng.choice((0, 8, 12, 13, rng.getrandbits(32)))
    return args


def _fields(spec, rng, rm):
    row = SEMANTICS[spec.kind]
    fields = {"rd": 10, "rs1": 11, "rs2": 12, "rs3": 13,
              "imm": rng.randrange(-16, 16)}
    if row.shape == "branch" or spec.kind == "jal":
        fields["imm"] = 8
    elif row.shape == "csr":
        fields["imm"] = rng.choice(CSRS)
        if spec.syntax[-1] == "zimm":
            fields["rs1"] = rng.choice((0, 1, 5, 31))
    elif spec.form == "SHIFT":
        fields["imm"] = rng.randrange(32)
    elif spec.form == "U":
        fields["imm"] = rng.getrandbits(20)
    if rm is not None:
        fields["rm"] = rm
    return fields


def _cases(spec, rng):
    """``(static rm or None, frm)`` pairs covering the rounding modes."""
    row = SEMANTICS[spec.kind]
    if not row.rounds:
        return [(None, rng.randrange(6)) for _ in range(2)]
    dynamic = [(None, frm) for frm in range(8)]  # 6 and 7 are reserved
    if spec.has_rm:
        return [(rm, rng.randrange(6)) for rm in range(7)] + [
            (7, frm) for frm in range(8)]
    return dynamic


def _program(spec, fields):
    program = assemble("nop\nnop\nnop\nret")
    program.words[0] = encode(spec, **fields)
    return program


def _snapshot(result, sim_machine=None):
    machine = sim_machine or result.machine
    trace = result.trace
    trap = result.trap
    return {
        "exit": (result.exit_reason, result.detail),
        "trap": None if trap is None else (trap.cause, trap.mepc, trap.mtval),
        "trace": (trace.cycles, trace.instret,
                  list(trace.by_mnemonic.items()),
                  list(trace.by_category.items()),
                  list(trace.pc_counts.items()),
                  trace.mem_accesses, trace.branches_taken),
        "pc": machine.pc,
        "xregs": list(machine.xregs),
        "fcsr": machine.csr.fcsr,
        "memory": machine.memory.read_block(DATA - 16, 80),
    }


def _run_scalar(program, args, data, frm, key, fast):
    sim = Simulator(program, fast_path=fast)
    sim.machine.memory.write_block(DATA, data)
    sim.machine.csr.frm = frm
    previous = set_sr_key(key)
    try:
        result = sim.run(0, args=dict(args), max_instructions=BUDGET)
    finally:
        set_sr_key(previous)
    return _snapshot(result, sim.machine)


SPECS_BY_KIND = defaultdict(list)
for _spec in all_specs():
    SPECS_BY_KIND[_spec.kind].append(_spec)


@pytest.mark.parametrize("kind", sorted(SPECS_BY_KIND))
def test_engines_agree_on_every_instruction(kind):
    rng = random.Random(f"{SEED}-{kind}")
    for spec in SPECS_BY_KIND[kind]:
        for case, (rm, frm) in enumerate(_cases(spec, rng)):
            fields = _fields(spec, rng, rm)
            program = _program(spec, fields)
            lane_args = [_lane_args(spec, rng) for _ in range(LANES)]
            data = [bytes(rng.getrandbits(8) for _ in range(48))
                    for _ in range(LANES)]
            keys = (7, 7, 7) if case % 2 else (7, 8, 9)
            lanes = [Lane(args, [(DATA, chunk)], sr_key=key)
                     for args, chunk, key in zip(lane_args, data, keys)]
            batched = run_lockstep(program, lanes, max_instructions=BUDGET,
                                   frm=frm)
            for index in range(LANES):
                label = (f"{spec.mnemonic} rm={rm} frm={frm} "
                         f"lane{index} {lane_args[index]}")
                ref = _run_scalar(program, lane_args[index], data[index],
                                  frm, keys[index], fast=False)
                block = _run_scalar(program, lane_args[index], data[index],
                                    frm, keys[index], fast=True)
                assert block == ref, f"block engine: {label}"
                assert _snapshot(batched[index]) == ref, f"lockstep: {label}"
