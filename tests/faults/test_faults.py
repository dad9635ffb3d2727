"""Fault injection: deterministic plans, injector semantics, campaigns."""

import pytest

from repro.faults import (
    BitFlip,
    FaultError,
    FaultInjector,
    FaultSpace,
    derive_trial_seed,
    make_plan,
    run_campaign,
)
from repro.harness import run_kernel, run_kernel_safe
from repro.isa import assemble
from repro.kernels import KERNELS
from repro.sim import Simulator


class TestPlanDeterminism:
    SPACE = FaultSpace(
        n_instructions=10_000,
        mem_ranges=((0x2000, 256),),
        text_range=(0, 64),
    )

    def test_same_seed_same_plan(self):
        a = make_plan(self.SPACE, seed=7, n_flips=8,
                      targets=("xreg", "freg", "mem", "instr"))
        b = make_plan(self.SPACE, seed=7, n_flips=8,
                      targets=("xreg", "freg", "mem", "instr"))
        assert a == b

    def test_different_seed_different_plan(self):
        a = make_plan(self.SPACE, seed=7, n_flips=8)
        b = make_plan(self.SPACE, seed=8, n_flips=8)
        assert a != b

    def test_plan_respects_surfaces(self):
        plan = make_plan(self.SPACE, seed=1, n_flips=64,
                         targets=("xreg", "freg", "mem", "instr"))
        for flip in plan:
            assert 0 <= flip.at_instruction < self.SPACE.n_instructions
            if flip.target == "xreg":
                assert 1 <= flip.index < 32 and 0 <= flip.bit < 32
            elif flip.target == "freg":
                assert 0 <= flip.index < 32 and 0 <= flip.bit < 32
            elif flip.target == "mem":
                assert 0x2000 <= flip.index < 0x2100 and 0 <= flip.bit < 8
            else:
                assert 0 <= flip.index < 64 and 0 <= flip.bit < 8

    def test_unknown_target_rejected(self):
        with pytest.raises(FaultError, match="unknown fault target"):
            make_plan(self.SPACE, seed=0, targets=("pc",))

    def test_unsupported_surface_rejected(self):
        space = FaultSpace(n_instructions=100)  # no mem, no text
        with pytest.raises(FaultError, match="no surface"):
            make_plan(space, seed=0, targets=("mem",))


class TestInjectorSemantics:
    def test_xreg_flip_changes_result(self):
        # a0 = 1; flipping bit 3 of a0 before the add gives 9 + 1 = 10.
        src = "li a0, 1\nnop\naddi a0, a0, 1\nret"
        injector = FaultInjector([BitFlip(2, "xreg", 10, 3)])
        sim = Simulator(assemble(src))
        result = sim.run(0, step_hook=injector)
        assert result.exit_reason == "halt"
        assert sim.machine.read_x(10) == 10
        assert injector.applied == injector.flips

    def test_instr_flip_invalidates_decode_cache(self):
        # Loop body executes twice; the text flip turns the second
        # iteration's addi a0, a0, 1 into addi a0, a0, 3 (imm bit 1).
        src = """
        main:
            li a0, 0
            li t0, 2
        loop:
            addi a0, a0, 1
            addi t0, t0, -1
            bnez t0, loop
            ret
        """
        sim = Simulator(assemble(src))
        clean = sim.run(0)
        assert sim.machine.read_x(10) == 2
        # addi a0, a0, 1 sits at 0x8; imm starts at bit 20 -> byte 2 bit 5.
        sim = Simulator(assemble(src))
        injector = FaultInjector([BitFlip(5, "instr", 0x8 + 2, 5)])
        result = sim.run(0, step_hook=injector)
        assert result.exit_reason == "halt"
        assert sim.machine.read_x(10) == 1 + 3  # first clean, second flipped
        assert clean.instret == result.instret

    def test_instr_flip_opens_a_decode_epoch(self):
        # The flips change what two PCs hold mid-run: from the second
        # iteration the addi at 0x8 is xori (funct3 bit 14: byte 1 bit
        # 6), from the third the addi at 0xc is lb (opcode bit 4), so
        # a load appears.  Each epoch counts under its own mnemonic and
        # category; the values were read before the trace was derived
        # from per-PC records.
        src = """
        main:
            li a0, 0
            li t0, 3
        loop:
            addi a0, a0, 1
            addi a1, a0, 0
            addi t0, t0, -1
            bnez t0, loop
            ret
        """
        sim = Simulator(assemble(src))
        injector = FaultInjector([BitFlip(5, "instr", 0x9, 6),
                                  BitFlip(10, "instr", 0xC, 4)])
        result = sim.run(0, step_hook=injector)
        trace = result.trace
        assert result.exit_reason == "halt"
        assert (sim.machine.read_x(10), sim.machine.read_x(11)) == (1, 5)
        assert list(trace.by_mnemonic.items()) == [
            ("addi", 8), ("bne", 3), ("xori", 2), ("lb", 1), ("jalr", 1)]
        assert list(trace.by_category.items()) == [
            ("alu", 10), ("branch", 3), ("load", 1), ("jump", 1)]
        assert list(trace.pc_counts.items()) == [
            (0x0, 1), (0x4, 1), (0x8, 3), (0xC, 3), (0x10, 3), (0x14, 3),
            (0x18, 1)]
        assert dict(trace.pc_taken) == {0x14: 2, 0x18: 1}
        assert (trace.mem_accesses, trace.branches_taken) == (1, 3)
        assert (trace.instret, trace.cycles) == (15, 20)

    def test_mem_flip_applied_once(self):
        src = "lw a0, 0(a1)\nret"
        sim = Simulator(assemble(src))
        sim.machine.memory.write_u32(0x2000, 0)
        injector = FaultInjector([BitFlip(0, "mem", 0x2001, 0)])
        sim.run(0, args={11: 0x2000}, step_hook=injector)
        assert sim.machine.read_x(10) == 1 << 8
        assert len(injector.applied) == 1

    def test_flips_after_exit_never_delivered(self):
        src = "li a0, 1\nret"
        injector = FaultInjector([
            BitFlip(0, "xreg", 10, 0),
            BitFlip(100, "xreg", 10, 1),  # scheduled past the run's end
        ])
        sim = Simulator(assemble(src))
        result = sim.run(0, step_hook=injector)
        assert result.exit_reason == "halt"
        assert injector.applied == [injector.flips[0]]


class TestCampaigns:
    def test_campaign_is_bit_reproducible(self):
        kw = dict(ftype="float16", mode="scalar", runs=5, flips_per_run=1,
                  targets=("freg", "mem", "instr"), seed=11,
                  params={"n": 6})
        a = run_campaign("gemm", **kw)
        b = run_campaign("gemm", **kw)
        assert a.trials == b.trials  # schedules, statuses and QoR
        assert a.summary() == b.summary()

    def test_trial_seeds_are_stable(self):
        assert derive_trial_seed(0, 0) == derive_trial_seed(0, 0)
        seeds = {derive_trial_seed(3, t) for t in range(100)}
        assert len(seeds) == 100  # no collisions across trials

    def test_campaign_statuses_valid(self):
        campaign = run_campaign(
            "gemm", ftype="float8", runs=6, flips_per_run=2,
            targets=("xreg", "instr"), seed=5, params={"n": 6})
        assert len(campaign.trials) == 6
        for trial in campaign.trials:
            assert trial.status in ("ok", "trap", "budget_exceeded",
                                    "error")
            assert len(trial.flips) == 2
        summary = campaign.summary()
        assert summary["ok"] + summary["trap"] + \
            summary["budget_exceeded"] + summary["error"] == 6

    def test_masked_trials_match_reference_bits(self):
        campaign = run_campaign(
            "gemm", ftype="float16", runs=8, flips_per_run=1,
            targets=("freg",), seed=2, params={"n": 6})
        reference = run_kernel(KERNELS["gemm"], "float16", "scalar",
                               params={"n": 6})
        for trial in campaign.trials:
            if not trial.masked:
                continue
            assert trial.status == "ok"
            assert trial.sqnr_drop_db == 0.0
            assert trial.sqnr_db == reference.sqnr_db()


class TestSafeRunner:
    def test_safe_run_ok(self):
        outcome = run_kernel_safe(KERNELS["gemm"], "float16", "scalar",
                                  params={"n": 6})
        assert outcome.ok and outcome.status == "ok"
        assert outcome.run is not None
        assert outcome.run.arrays  # layout exposed for fault planning
        assert outcome.run.text_range[1] > 0

    def test_safe_run_budget(self):
        outcome = run_kernel_safe(KERNELS["gemm"], "float16", "scalar",
                                  params={"n": 6}, max_instructions=50)
        assert outcome.status == "budget_exceeded"
        assert outcome.run is not None  # partial run still returned

    def test_safe_run_config_error(self):
        outcome = run_kernel_safe(KERNELS["gemm"], "float16", "bogus")
        assert outcome.status == "error"
        assert "mode" in outcome.detail

    def test_unsafe_run_raises_on_budget(self):
        from repro.harness import KernelExecutionError

        with pytest.raises(KernelExecutionError) as info:
            run_kernel(KERNELS["gemm"], "float16", "scalar",
                       params={"n": 6}, max_instructions=50)
        assert info.value.exit_reason == "budget_exceeded"


class TestSweepIsolation:
    def test_fig1_style_sweep_survives_bad_points(self):
        """A sweep over points that trap/runaway still completes and
        reports per-point status."""
        from repro.harness.experiments import clear_cache, fig1_speedup

        clear_cache()
        try:
            rows = fig1_speedup(benchmarks=["gemm"],
                                ftypes=("float16",),
                                instruction_budget=200)
        finally:
            clear_cache()
        assert rows  # completed despite every point blowing the budget
        point_rows = [r for r in rows if r["benchmark"] != "average"]
        assert point_rows
        for row in point_rows:
            assert row["status"] == "budget_exceeded"
            assert row["speedup"] is None

    def test_fig1_rows_carry_ok_status(self):
        from repro.harness.experiments import fig1_speedup

        rows = fig1_speedup(benchmarks=["gemm"], ftypes=("float16",))
        assert all(r["status"] == "ok" for r in rows)
        assert any(r["speedup"] and r["speedup"] > 1.0 for r in rows)
