"""Each instruction's class is declared once, on its semantics row.

Timing, the Fig. 4 instruction mix, energy, the profile and the
analyses all read :func:`repro.sim.semantics.spec_info`; these tests pin
what it derives from the rows.
"""

import pytest

from repro.analysis.dataflow import ACCUMULATE_KINDS
from repro.isa.instructions import Instr, all_specs, spec_by_mnemonic
from repro.sim import CATEGORIES, classify
from repro.sim.semantics import SEMANTICS, spec_info


@pytest.mark.parametrize("mnemonic, category", [
    # Guest formats bucket by width, like the paper formats.
    ("fadd.p8", "fp8"),
    ("fadd.p16", "fp16"),
    ("fadd.mx", "fp8"),
    ("vfadd.p8", "vfp8"),
    ("vfadd.p16", "vfp16"),
    # The MX block dot product expands into a binary32 accumulator.
    ("vfdotpmx.s.mx", "expand"),
    ("fadd.s", "fp32"),
    ("fadd.h", "fp16"),
    ("fadd.ah", "fp16alt"),
    ("fadd.b", "fp8"),
    ("vfmac.h", "vfp16"),
    ("vfadd.ah", "vfp16alt"),
    ("vfadd.b", "vfp8"),
    ("vfdotpex.s.h", "expand"),
    ("fmacex.s.b", "expand"),
    ("fcvt.s.h", "conv"),
    ("vfcpka.h.s", "conv"),
    ("fmv.x.h", "conv"),
    ("flh", "load"),
    ("mulhu", "mul"),
    ("remu", "div"),
    ("csrrw", "csr"),
    ("lui", "alu"),
])
def test_fig4_category(mnemonic, category):
    assert classify(Instr(spec=spec_by_mnemonic(mnemonic))) == category


def test_every_spec_lands_in_a_fig4_category():
    for spec in all_specs():
        assert spec_info(spec).category in CATEGORIES, spec.mnemonic


def test_expand_class_is_exactly_the_expanding_rows():
    for kind, row in SEMANTICS.items():
        assert (row.cls == "expand") == row.expands, kind


def test_shapes_that_name_a_class_are_their_own_class():
    for kind, row in SEMANTICS.items():
        if row.shape in ("load", "store", "branch", "jump", "csr"):
            assert row.cls == row.shape, kind


def test_accumulating_kinds_are_the_acc_rows():
    assert ACCUMULATE_KINDS == {"fmacex", "vfmac", "vfdotpex", "vfdotpmx",
                                "vfcpka", "vfcpkb"}


@pytest.mark.parametrize("mnemonic, size", [
    ("lb", 1), ("lhu", 2), ("sw", 4), ("flb", 1), ("fsb", 1), ("flh", 2),
    ("fsh", 2), ("flw", 4), ("fsw", 4), ("add", 0), ("fadd.h", 0),
])
def test_access_size(mnemonic, size):
    assert spec_info(spec_by_mnemonic(mnemonic)).size == size
