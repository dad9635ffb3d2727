"""Post-run profiles: no drift, context, timeline, raw streams, loops."""

import json

import pytest

from repro.harness import run_kernel
from repro.harness.runner import build_kernel
from repro.isa import assemble
from repro.kernels import KERNELS
from repro.profile import TimelineRecorder, build_profile
from repro.sim import Simulator


def timeline_run(name, ftype, mode, mem_latency=1, max_events=100_000):
    """A profiled run with a timeline recorder as its step hook."""
    recorder = TimelineRecorder(build_kernel(KERNELS[name], ftype,
                                             mode).program, max_events)
    run = run_kernel(KERNELS[name], ftype=ftype, mode=mode,
                     mem_latency=mem_latency, profile=True,
                     injector=recorder)
    recorder.finish(run.trace)
    return run, recorder


class TestGuardedHook:
    def test_profiling_is_off_by_default(self):
        run = run_kernel(KERNELS["atax"], ftype="float16", mode="scalar")
        assert run.profile is None

    def test_profiled_run_matches_unprofiled_cycles_exactly(self):
        """Profiling is computed after the run: zero cycle-count drift."""
        plain = run_kernel(KERNELS["gemm"], ftype="float16", mode="auto")
        profiled = run_kernel(KERNELS["gemm"], ftype="float16", mode="auto",
                              profile=True)
        assert profiled.cycles == plain.cycles
        assert profiled.instret == plain.instret
        assert profiled.trace.by_category == plain.trace.by_category
        assert profiled.trace.by_mnemonic == plain.trace.by_mnemonic

    def test_profile_totals_match_run_result(self, gemm_run):
        profile = gemm_run.profile
        assert profile.cycles == gemm_run.cycles
        assert profile.instret == gemm_run.instret
        assert profile.exit_reason == gemm_run.exit_reason


class TestContext:
    def test_harness_context_is_carried(self, gemm_profile):
        assert gemm_profile.context == {
            "kernel": "gemm", "ftype": "float16", "mode": "auto",
            "mem_latency": 1, "seed": 0,
        }

    def test_machine_facts_are_recorded(self, gemm_profile):
        assert gemm_profile.flen == 32
        assert gemm_profile.mem_latency == 1
        assert gemm_profile.mem_level == "L1"


class TestTimeline:
    def test_block_events_cover_the_run(self):
        run, recorder = timeline_run("gemm", "float16", "auto")
        assert recorder.block_events and not recorder.truncated
        for block, t0, t1 in recorder.block_events:
            assert 0 <= t0 <= t1 <= run.cycles
        assert recorder.block_events[-1][2] == run.cycles

    def test_event_cap_truncates(self):
        run, recorder = timeline_run("gemm", "float16", "auto",
                                     max_events=4)
        assert len(recorder.block_events) == 4
        assert recorder.truncated
        # Truncation only loses timeline detail, never accounting.
        assert run.profile.instret + run.profile.stall_cycles \
            == run.profile.cycles

    def test_timeline_off_collects_no_events(self, gemm_profile):
        """Without a recorder there is no timeline, and recording one
        (on the reference loop) leaves the profile unchanged."""
        payload = gemm_profile.to_payload()
        assert "timeline" not in payload
        run, _ = timeline_run("gemm", "float16", "auto")
        assert json.dumps(run.profile.to_payload()) == json.dumps(payload)

    def test_mem_stall_events_at_high_latency(self):
        run, recorder = timeline_run("atax", "float16", "scalar",
                                     mem_latency=10)
        assert recorder.stall_events
        total = sum(dur for _, _, dur in recorder.stall_events)
        assert total == run.profile.stall_totals["mem"]


class TestRawStreams:
    def test_programless_collector_attributes_unmapped(self):
        """Hand-placed RVC parcels profile flat (no CFG to map onto)."""
        sim = Simulator()
        mem = sim.machine.memory
        mem.write_u16(0x0, 0x4515)  # c.li a0, 5
        mem.write_u16(0x2, 0x0505)  # c.addi a0, 1
        mem.write_u16(0x4, 0x8082)  # c.jr ra (halt)
        result = sim.run(0)
        profile = build_profile(None, result.trace, sim.timing,
                                exit_reason=result.exit_reason,
                                fetch=sim.instruction_at)
        assert profile.cycles == result.cycles
        assert profile.instret == result.instret == 3
        assert profile.blocks == [] and profile.loops == []
        assert profile.unmapped_cycles == profile.cycles
        assert profile.unmapped_instret == profile.instret
        assert profile.instret + profile.stall_cycles == profile.cycles
        # The per-PC table keeps the canonical compressed mnemonics.
        assert profile.pc_table[0x0][0] == "c.li"
        assert profile.pc_table[0x2][0] == "c.addi"
        assert profile.pc_table[0x4][0] == "c.jr"


class TestLoopCounts:
    @pytest.mark.parametrize("fast_path", [True, False],
                             ids=["block", "reference"])
    def test_single_block_loop_counts_every_iteration(self, fast_path):
        """A loop whose body is one CFG block still counts each pass."""
        program = assemble("li t0, 10\n"
                           "loop:\n"
                           "addi t0, t0, -1\n"
                           "bnez t0, loop\n"
                           "ret\n")
        sim = Simulator(program, fast_path=fast_path)
        result = sim.run(0)
        assert result.trace.pc_counts[0x4] == 10
        assert result.trace.pc_taken[0x8] == 9
        profile = build_profile(program, result.trace, sim.timing,
                                exit_reason=result.exit_reason)
        (loop,) = profile.loops
        assert (loop.name, loop.iterations) == ("loop@0x4", 10)
        body = next(b for b in profile.blocks if b.start == 0x4)
        assert body.visits == 10
        assert profile.instret + profile.stall_cycles == profile.cycles


class TestRoofline:
    def test_fp16_work_lands_on_binary16(self, gemm_profile):
        roofline = gemm_profile.roofline
        assert set(roofline.flops_by_format) == {"binary16"}
        assert roofline.flops_by_format["binary16"] > 0
        assert roofline.bytes_total > 0
        assert roofline.intensity("binary16") == roofline.intensity()

    def test_fp_half_and_byte_accesses_count_their_width(self):
        """flh/fsh move two bytes and flb one, not a word each."""
        program = assemble("flh f5, 0(a0)\n"
                           "fsh f5, 2(a0)\n"
                           "flb f6, 0(a0)\n"
                           "ret\n")
        sim = Simulator(program)
        result = sim.run(0, args={10: 0x2000})
        assert result.exit_reason == "halt"
        profile = build_profile(program, result.trace, sim.timing)
        assert profile.roofline.bytes_total == 5

    def test_vector_mode_does_not_lose_flops(self):
        """Per-lane counting: the auto build's flops match scalar's."""
        scalar = run_kernel(KERNELS["gemm"], ftype="float16", mode="scalar",
                            profile=True).profile
        vector = run_kernel(KERNELS["gemm"], ftype="float16", mode="auto",
                            profile=True).profile
        assert scalar.roofline.flops_total \
            == vector.roofline.flops_total > 0
