"""CycleBreakdown mirrors TimingModel.cycles() for every instruction.

The profiler's stall attribution is only trustworthy if the split path
and the fast path can never disagree -- so every registered spec and
every RVC alias spec is checked, taken and not taken, at every paper
latency level.
"""

import pytest

from repro.isa import assemble
from repro.isa.compressed import (C_BASE_MNEMONICS, compressed_alias_spec,
                                  compressed_base_spec)
from repro.isa.instructions import Instr, all_specs
from repro.sim import Simulator
from repro.sim.timing import (
    STALL_CAUSES,
    CycleBreakdown,
    TimingConfig,
    TimingModel,
)


def _alias_specs():
    """The spec the decoder gives each canonical ``c.*`` parcel."""
    return [compressed_alias_spec(name, compressed_base_spec(name))
            for name in C_BASE_MNEMONICS]


@pytest.mark.parametrize("latency", [1, 10, 100])
def test_breakdown_total_matches_cycles_for_every_spec(latency):
    model = TimingModel(TimingConfig(mem_latency=latency))
    for spec in all_specs() + _alias_specs():
        instr = Instr(spec=spec)
        for taken in (False, True):
            split = model.breakdown(instr, taken=taken)
            assert split.total == model.cycles(instr, taken=taken), \
                (spec.mnemonic, taken)
            assert split.base == 1
            assert split.base + split.stall == split.total
            if split.stall:
                assert split.cause in STALL_CAUSES
            else:
                assert split.cause is None, spec.mnemonic


def test_config_is_optional():
    assert TimingModel().config.mem_latency == 1
    assert TimingModel(None).config.mem_latency == 1


class TestCauseAttribution:
    def _split(self, mnemonic, taken=False, **config):
        from repro.isa.instructions import spec_by_mnemonic

        model = TimingModel(TimingConfig(**config))
        return model.breakdown(Instr(spec=spec_by_mnemonic(mnemonic)),
                               taken=taken)

    def test_load_at_l2_charges_mem(self):
        split = self._split("lw", mem_latency=10)
        assert (split.cause, split.stall, split.total) == ("mem", 9, 10)

    def test_load_at_l1_has_no_stall(self):
        """A 1-cycle hit is all base: no cause, no stall."""
        split = self._split("lw", mem_latency=1)
        assert split == CycleBreakdown(1)

    def test_taken_branch_charges_control(self):
        assert self._split("beq", taken=True).cause == "control"
        assert self._split("beq", taken=False) == CycleBreakdown(1)

    def test_jump_charges_control(self):
        split = self._split("jal")
        assert (split.cause, split.stall) == ("control", 1)

    def test_integer_divide_charges_div(self):
        split = self._split("div")
        assert (split.cause, split.stall, split.total) == ("div", 31, 32)

    def test_fp_divide_charges_fp_per_format(self):
        assert self._split("fdiv.s").total == 11
        assert self._split("fdiv.b").total == 4
        for mnemonic in ("fdiv.s", "fdiv.b", "fsqrt.h", "vfdiv.b"):
            assert self._split(mnemonic).cause == "fp"


@pytest.mark.parametrize("latency", [1, 10, 100])
def test_compressed_aliases_cost_like_their_expansions(latency):
    model = TimingModel(TimingConfig(mem_latency=latency))
    for alias in _alias_specs():
        base = Instr(spec=compressed_base_spec(alias.mnemonic))
        for taken in (False, True):
            assert (model.breakdown(Instr(spec=alias), taken)
                    == model.breakdown(base, taken)), (alias.mnemonic, taken)


def test_reference_loop_sees_a_mutated_config():
    """The cycle table is rebuilt when the configuration changes
    between two runs of one simulator."""
    program = assemble("li a1, 0x2000\n"
                       "lw a0, 0(a1)\n"
                       "fdiv.s f5, f6, f7\n"
                       "ret\n")
    sim = Simulator(program, fast_path=False)
    # lui 1 + lw 1 + fdiv.s 11 + ret (a jump) 2
    assert sim.run(0).cycles == 15
    sim.timing.config.mem_latency = 10
    sim.timing.config.fdiv_cycles["s"] = 20
    assert sim.run(0).cycles == 1 + 10 + 20 + 2
