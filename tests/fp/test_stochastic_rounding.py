"""Stochastic rounding: determinism, unbiasedness and kernel plumbing.

SR is a keyed PRF over the exact value being rounded (see
``repro.fp.rounding``): the same (value, key) pair must always round
the same way, and across keys the up-probability must equal the
dropped fraction, making the expectation over keys exactly the input.
"""

import numpy as np
import pytest

from repro.fp import BINARY8, BINARY16, RoundingMode
from repro.fp.convert import from_double, to_double
from repro.fp.rounding import get_sr_key, set_sr_key
from repro.harness.runner import run_kernel
from repro.kernels import KERNELS


class _key:
    """Context manager installing an ambient SR key."""

    def __init__(self, key):
        self.key = key

    def __enter__(self):
        self.prev = set_sr_key(self.key)

    def __exit__(self, *exc):
        set_sr_key(self.prev)


class TestDeterminism:
    def test_same_key_same_bits(self):
        values = [0.1, 0.3, -0.7, 1.9, 3.3, -13.7]
        with _key(42):
            first = [from_double(v, BINARY8, RoundingMode.SR)
                     for v in values]
        with _key(42):
            again = [from_double(v, BINARY8, RoundingMode.SR)
                     for v in values]
        assert first == again

    def test_keys_change_decisions(self):
        # Over a spread of inexact values, at least one rounding
        # decision must differ between two keys.
        values = [0.1 + 0.05 * i for i in range(16)]
        outs = {}
        for key in (1, 2):
            with _key(key):
                outs[key] = [from_double(v, BINARY8, RoundingMode.SR)
                             for v in values]
        assert outs[1] != outs[2]

    def test_key_restore(self):
        prev = get_sr_key()
        with _key(123):
            assert get_sr_key() == 123
        assert get_sr_key() == prev


class TestUnbiasedness:
    def test_exact_values_never_perturbed(self):
        # Representable values have nothing to round: every key must
        # return them unchanged.
        for v in (0.0, 1.0, -1.5, 0.25, 2.0):
            rne = from_double(v, BINARY8)
            for key in range(8):
                with _key(key):
                    assert from_double(v, BINARY8, RoundingMode.SR) == rne

    def test_mean_over_keys_approaches_value(self):
        # x sits strictly between binary8 neighbours; E[SR(x)] == x, so
        # the sample mean over many keys converges to x.
        for x in (1.1, 0.3, -2.3):
            lo = to_double(from_double(x, BINARY8, RoundingMode.RDN)
                           if x > 0 else
                           from_double(x, BINARY8, RoundingMode.RUP),
                           BINARY8)
            draws = []
            for key in range(400):
                with _key(key):
                    draws.append(to_double(
                        from_double(x, BINARY8, RoundingMode.SR), BINARY8))
            mean = float(np.mean(draws))
            step = abs(x - lo)
            assert len(set(draws)) == 2  # both neighbours occur
            # A binomial over 400 draws: 4 sigma is comfortably inside
            # half a quantization step.
            assert abs(mean - x) < 0.25 * max(step, abs(x) * 0.125)

    def test_up_probability_matches_dropped_fraction(self):
        # binary16 has 10 mantissa bits; x = lo + f * ulp with f = 1/4
        # must round up with probability ~1/4 over keys.
        lo = to_double(from_double(1.0, BINARY16), BINARY16)
        ulp = 2.0 ** -10
        x = lo + 0.25 * ulp
        ups = 0
        n = 800
        for key in range(n):
            with _key(key):
                ups += to_double(
                    from_double(x, BINARY16, RoundingMode.SR),
                    BINARY16) > lo
        p = ups / n
        assert 0.18 < p < 0.32  # 4 sigma ~ 0.061 around 0.25


class TestKernelPlumbing:
    def test_run_kernel_sr_is_reproducible(self):
        spec = KERNELS["nn_softmax"]
        a = run_kernel(spec, "float8", "scalar",
                       frm=int(RoundingMode.SR), sr_key=5)
        b = run_kernel(spec, "float8", "scalar",
                       frm=int(RoundingMode.SR), sr_key=5)
        np.testing.assert_array_equal(a.outputs["Y"], b.outputs["Y"])

    def test_run_kernel_sr_key_changes_result(self):
        spec = KERNELS["nn_softmax"]
        a = run_kernel(spec, "float8", "scalar",
                       frm=int(RoundingMode.SR), sr_key=1)
        b = run_kernel(spec, "float8", "scalar",
                       frm=int(RoundingMode.SR), sr_key=2)
        assert not np.array_equal(a.outputs["Y"], b.outputs["Y"])

    def test_sr_differs_from_rne_but_stays_close(self):
        spec = KERNELS["nn_layernorm"]
        rne = run_kernel(spec, "float8", "scalar")
        sr = run_kernel(spec, "float8", "scalar",
                        frm=int(RoundingMode.SR), sr_key=3)
        assert not np.array_equal(rne.outputs["Y"], sr.outputs["Y"])
        # Same algorithm, same data: only rounding differs.
        assert float(np.max(np.abs(rne.outputs["Y"] - sr.outputs["Y"]))) < 0.5

    @pytest.mark.parametrize("kernel", ["nn_mlp_fwd", "nn_conv2d"])
    def test_sr_scalar_matches_lockstep(self, kernel):
        # The lockstep engine re-keys the PRF per lane: each lane must
        # retire bit-identical results to a solo scalar run of its key.
        from repro.harness.runner import run_kernel_batch

        spec = KERNELS[kernel]
        keys = [11, 22, 33]
        batch = run_kernel_batch(spec, "float8", "scalar", seeds=[0, 0, 0],
                                 frm=int(RoundingMode.SR), sr_keys=keys)
        for key, run in zip(keys, batch):
            solo = run_kernel(spec, "float8", "scalar",
                              frm=int(RoundingMode.SR), sr_key=key)
            for out in spec.outputs:
                np.testing.assert_array_equal(
                    solo.outputs[out], run.outputs[out],
                    err_msg=f"{kernel} output {out} diverged for key {key}")


class TestAbsintSoundnessUnderSR:
    def test_sr_replay_is_sound(self):
        # The static verdict's 1-ulp error model covers every rounding
        # mode; replaying under SR must not produce any violation.
        from repro.analysis.absint_validate import validate_kernel

        report = validate_kernel("nn_softmax", "float8", "scalar",
                                 frm=int(RoundingMode.SR), sr_key=7)
        assert report.ok, report.render()
        assert report.checked_values > 0


def test_lockstep_batches_distinct_sr_keys_without_draining(monkeypatch):
    """32 lanes, 32 SR keys: the batch rounds each lane with its own key
    in lockstep (no lane is handed to a scalar simulator before it
    halts) and every lane equals its solo run."""
    from repro.harness.runner import run_kernel_batch
    from repro.sim.simulator import HALT_ADDRESS, Simulator

    resumed_at = []
    resume = Simulator.resume

    def spy(self, *args, **kwargs):
        resumed_at.append(self.machine.pc)
        return resume(self, *args, **kwargs)

    monkeypatch.setattr(Simulator, "resume", spy)
    spec = KERNELS["nn_mlp_train"]
    seeds = list(range(32))
    keys = [0x9E37 * (seed + 1) for seed in seeds]
    batch = run_kernel_batch(spec, "float8", "auto", seeds=seeds,
                             frm=int(RoundingMode.SR), sr_keys=keys)
    assert resumed_at == [HALT_ADDRESS] * 32
    for seed, key, run in zip(seeds, keys, batch):
        solo = run_kernel(spec, "float8", "auto", seed=seed,
                          frm=int(RoundingMode.SR), sr_key=key)
        assert run.trace.cycles == solo.trace.cycles
        assert run.trace.by_mnemonic == solo.trace.by_mnemonic
        for out in spec.outputs:
            np.testing.assert_array_equal(solo.outputs[out],
                                          run.outputs[out])
