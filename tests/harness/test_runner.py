"""The run harness: staging, measurement, and mode/latency effects."""

import pytest

from repro.harness import HarnessError, run_kernel
from repro.kernels import KERNELS

PARAMS = {"n": 8}


class TestRunKernel:
    def test_scalar_float_run(self):
        run = run_kernel(KERNELS["gemm"], "float", "scalar", params=PARAMS)
        assert run.cycles > 0
        assert run.instret > 0
        assert run.outputs["C"].shape == (64,)
        assert run.energy.total > 0

    def test_unknown_mode_rejected(self):
        with pytest.raises(HarnessError, match="mode"):
            run_kernel(KERNELS["gemm"], "float", "warp-speed")

    def test_manual_mode_needs_manual_source(self):
        with pytest.raises(HarnessError, match="manual"):
            run_kernel(KERNELS["svm"], "float16", "manual")

    def test_auto_mode_is_faster_for_smallfloat(self):
        scalar = run_kernel(KERNELS["gemm"], "float16", "scalar",
                            params=PARAMS)
        auto = run_kernel(KERNELS["gemm"], "float16", "auto", params=PARAMS)
        assert auto.cycles < scalar.cycles

    def test_manual_beats_auto(self):
        """The paper's ~10-12% additional gain from manual code."""
        auto = run_kernel(KERNELS["gemm"], "float16", "auto", params=PARAMS)
        manual = run_kernel(KERNELS["gemm"], "float16", "manual",
                            params=PARAMS)
        assert manual.cycles < auto.cycles

    def test_float8_faster_than_float16(self):
        f16 = run_kernel(KERNELS["gemm"], "float16", "auto", params=PARAMS)
        f8 = run_kernel(KERNELS["gemm"], "float8", "auto", params=PARAMS)
        assert f8.cycles < f16.cycles

    def test_memory_latency_increases_cycles(self):
        l1 = run_kernel(KERNELS["gemm"], "float", "scalar", mem_latency=1,
                        params=PARAMS)
        l2 = run_kernel(KERNELS["gemm"], "float", "scalar", mem_latency=10,
                        params=PARAMS)
        l3 = run_kernel(KERNELS["gemm"], "float", "scalar", mem_latency=100,
                        params=PARAMS)
        assert l1.cycles < l2.cycles < l3.cycles
        # Instruction count is latency-independent.
        assert l1.instret == l2.instret == l3.instret

    def test_vectorization_reduces_memory_traffic(self):
        scalar = run_kernel(KERNELS["gemm"], "float16", "scalar",
                            params=PARAMS)
        auto = run_kernel(KERNELS["gemm"], "float16", "auto", params=PARAMS)
        assert auto.trace.mem_accesses < scalar.trace.mem_accesses

    def test_trace_categories_match_mode(self):
        auto = run_kernel(KERNELS["gemm"], "float16", "auto", params=PARAMS)
        breakdown = auto.trace.breakdown()
        assert breakdown["vfp16"] > 0
        assert breakdown["fp32"] == 0

    def test_asm_is_reported(self):
        run = run_kernel(KERNELS["gemm"], "float16", "manual", params=PARAMS)
        assert "vfmac.r.h" in run.asm or "vfadd.h" in run.asm \
            or "vfmul.r.h" in run.asm

    def test_sqnr_all_outputs_vs_single(self):
        run = run_kernel(KERNELS["atax"], "float16", "scalar",
                         params={"m": 4, "n": 4})
        assert run.sqnr_db() == pytest.approx(run.sqnr_db(), rel=1e-9)
        assert isinstance(run.sqnr_db("y"), float)


class TestExperiments:
    def test_fig1_rows_have_required_fields(self):
        from repro.harness.experiments import clear_cache, fig1_speedup

        clear_cache()
        rows = fig1_speedup(benchmarks=["gemm"], ftypes=("float16",))
        benches = {r["benchmark"] for r in rows}
        assert benches == {"gemm", "average"}
        for row in rows:
            if row["benchmark"] != "average":
                assert row["speedup"] > 1.0
                assert row["ideal"] >= row["speedup"] * 0.5

    def test_table2_matches_fp_layer(self):
        from repro.fp import supported_vector_formats
        from repro.harness.experiments import table2_vector_formats

        table = table2_vector_formats()
        assert table[32] == supported_vector_formats(32)
        assert table[64]["binary8"] == 8

    def test_fig5_reduction_near_25_percent(self):
        """Fig. 5: manual vectorization removes the conversion
        instructions, 'reducing by 25% the instruction count'."""
        from repro.harness.experiments import fig5_codegen

        result = fig5_codegen()
        assert result["manual_loop_instructions"] < \
            result["auto_loop_instructions"]
        assert 0.15 <= result["reduction"] <= 0.45
        assert "vfdotpex.s.h" in result["manual_asm"]
        assert "fcvt.s.h" in result["auto_asm"]

    def test_cached_run_reuses_results(self):
        from repro.harness.experiments import cached_run, clear_cache

        clear_cache()
        a = cached_run("gemm", "float16", "auto")
        b = cached_run("gemm", "float16", "auto")
        assert a is b
