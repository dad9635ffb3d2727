"""The NN workload suite: goldens, QoR, expanding accumulation, SR.

The six ``nn_*`` kernels are ordinary :class:`KernelSpec` entries, so
the generic differential / lockstep / lint matrices already cover them;
these tests pin down the NN-specific claims -- binary32 runs match the
numpy references, auto-vectorization emits the expanding dot product,
expanding beats narrow accumulation, and SR improves training loss
trajectories.
"""

import dataclasses

import numpy as np
import pytest

from repro import nn
from repro.compiler import compile_source
from repro.fp import RoundingMode
from repro.harness.runner import build_kernel, run_kernel
from repro.kernels import KERNELS
from repro.metrics import loss_divergence, max_abs_err
from repro.nn import sources

NN_NAMES = list(nn.NN_KERNEL_NAMES)

#: Kernels whose inner loops are smallFloat-product reductions the
#: auto-vectorizer turns into ``vfdotpex.s.*`` (softmax / layernorm
#: have no eligible reduction: their loop bodies widen element-wise).
REDUCTION_NAMES = ["nn_mlp_fwd", "nn_mlp_train", "nn_conv2d",
                   "nn_attention"]

#: Worst acceptable binary32 SQNR -- the algorithm itself in f32 vs the
#: binary64 reference.
FLOAT_SQNR_FLOOR = 100.0


class TestRegistration:
    def test_all_six_registered(self):
        for name in NN_NAMES:
            assert name in KERNELS

    def test_specs_request_expanding_reductions(self):
        for name in NN_NAMES:
            assert KERNELS[name].compile_opts.get("expanding_reductions")


class TestGoldens:
    @pytest.mark.parametrize("name", NN_NAMES)
    def test_float_matches_reference(self, name):
        run = run_kernel(KERNELS[name], "float", "scalar")
        assert run.sqnr_db() > FLOAT_SQNR_FLOOR, name

    @pytest.mark.parametrize("name,floor", [
        ("nn_mlp_fwd", 15.0), ("nn_conv2d", 15.0), ("nn_softmax", 12.0),
        ("nn_layernorm", 10.0), ("nn_attention", 15.0),
    ])
    def test_float8_qor_floor(self, name, floor):
        run = run_kernel(KERNELS[name], "float8", "scalar")
        assert run.sqnr_db() > floor, name

    @pytest.mark.parametrize("name", NN_NAMES)
    def test_float16_beats_float8(self, name):
        f16 = run_kernel(KERNELS[name], "float16", "scalar")
        f8 = run_kernel(KERNELS[name], "float8", "scalar")
        assert f16.sqnr_db() > f8.sqnr_db()

    def test_train_loss_decreases(self):
        run = run_kernel(KERNELS["nn_mlp_train"], "float", "scalar")
        losses = run.outputs["losses"]
        assert losses[-1] < losses[0]
        ref = run.golden["losses"]
        np.testing.assert_allclose(losses, ref, rtol=1e-4)


class TestAutoVectorization:
    """Satellite: reduction loops compile to ``vfdotpex.s.*`` when the
    spec opts in via ``compile_opts={'expanding_reductions': True}``."""

    @pytest.mark.parametrize("name", REDUCTION_NAMES)
    def test_auto_emits_vfdotpex(self, name):
        k = build_kernel(KERNELS[name], "float8", "auto", lint=False)
        assert "vfdotpex.s.b" in k.asm

    def test_without_opt_in_no_vfdotpex(self):
        spec = KERNELS["nn_mlp_fwd"]
        k = compile_source(spec.source_fn("float8"), vectorize_loops=True)
        assert "vfdotpex" not in k.asm
        assert "vfmul.b" in k.asm  # vectorized, just not expanding

    @pytest.mark.parametrize("name", REDUCTION_NAMES)
    def test_auto_runs_fewer_instructions(self, name):
        scalar = run_kernel(KERNELS[name], "float8", "scalar")
        auto = run_kernel(KERNELS[name], "float8", "auto")
        assert auto.trace.instret < scalar.trace.instret

    def test_auto_qor_close_to_scalar(self):
        # Expanding SIMD accumulates in a different order than the
        # scalar chain, so bits differ; quality must not.
        for name in REDUCTION_NAMES:
            scalar = run_kernel(KERNELS[name], "float8", "scalar")
            auto = run_kernel(KERNELS[name], "float8", "auto")
            assert abs(scalar.sqnr_db() - auto.sqnr_db()) < 6.0, name

    def test_manual_mlp_uses_intrinsic(self):
        run = run_kernel(KERNELS["nn_mlp_fwd"], "float8", "manual")
        assert "vfdotpex.s.b" in run.asm
        assert run.sqnr_db() > 15.0


class TestExpandingVsNarrow:
    def test_expanding_beats_narrow_8bit(self):
        # The headline claim, pinned at the registered default shape:
        # binary32 expanding accumulation beats narrow accumulation on
        # MLP-forward SQNR for both 8-bit formats.
        spec = KERNELS["nn_mlp_fwd"]
        narrow = dataclasses.replace(
            spec,
            source_fn=lambda t: sources.narrow_source("nn_mlp_fwd", t),
            manual_source_fn=None, compile_opts={})
        for ftype in ("float8", "posit8"):
            wide_run = run_kernel(spec, ftype, "scalar")
            narrow_run = run_kernel(narrow, ftype, "scalar")
            assert wide_run.sqnr_db() > narrow_run.sqnr_db(), ftype


class TestStochasticRoundingTraining:
    def test_sr_improves_float8_loss_trajectory(self):
        spec = KERNELS["nn_mlp_train"]
        params = dict(spec.params, steps=8)
        ref = run_kernel(spec, "float", "scalar", params=params)
        rne = run_kernel(spec, "float8", "scalar", params=params)
        sr_divs = []
        for key in (1, 2, 3):
            sr = run_kernel(spec, "float8", "scalar", params=params,
                            frm=int(RoundingMode.SR), sr_key=key)
            sr_divs.append(loss_divergence(ref.outputs["losses"],
                                           sr.outputs["losses"]))
        rne_div = loss_divergence(ref.outputs["losses"],
                                  rne.outputs["losses"])
        assert float(np.mean(sr_divs)) < rne_div


class TestMetrics:
    def test_max_abs_err(self):
        assert max_abs_err(np.array([1.0, 2.0]),
                           np.array([1.5, 2.0])) == 0.5
        with pytest.raises(ValueError):
            max_abs_err(np.array([1.0]), np.array([1.0, 2.0]))

    def test_loss_divergence(self):
        ref = np.array([1.0, 0.5])
        assert loss_divergence(ref, ref) == 0.0
        got = np.array([1.1, 0.5])
        assert loss_divergence(ref, got) == pytest.approx(0.05)


class TestSources:
    def test_narrow_source_only_for_mlp_fwd(self):
        with pytest.raises(ValueError):
            sources.narrow_source("nn_softmax", "float8")

    def test_manual_source_rejects_binary32(self):
        with pytest.raises(ValueError):
            sources.manual_source("nn_mlp_fwd", "float")

    def test_source_unknown_kernel(self):
        with pytest.raises(KeyError):
            sources.source("nn_nope", "float8")
