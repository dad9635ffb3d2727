"""Auto-vectorizer: transformations, rejections, and execution parity."""

import numpy as np
import pytest

from repro.compiler import compile_source
from repro.fp import BINARY8, BINARY16, BINARY32
from repro.fp.convert import from_double, to_double
from repro.sim import Simulator

A_BASE, B_BASE, C_BASE = 0x2000, 0x4000, 0x6000


def write_fmt(sim, base, values, fmt):
    size = fmt.width // 8
    for i, v in enumerate(values):
        sim.machine.memory.write(base + size * i, from_double(v, fmt), size)


def read_fmt(sim, base, count, fmt):
    size = fmt.width // 8
    return [
        to_double(sim.machine.memory.read(base + size * i, size), fmt)
        for i in range(count)
    ]


def compile_both(src):
    return (compile_source(src, vectorize_loops=False),
            compile_source(src, vectorize_loops=True))


def run(kernel, entry, args, setup=None):
    sim = Simulator(kernel.program)
    if setup:
        setup(sim)
    result = sim.run(entry, args=args)
    return sim, result


class TestElementwiseMap:
    SRC = """
    void scale(float16 *a, float16 *c, float16 alpha, int n) {
        for (int i = 0; i < n; i = i + 1) {
            c[i] = a[i] * alpha;
        }
    }
    """

    def test_loop_is_vectorized(self):
        _, vec = compile_both(self.SRC)
        assert vec.vector_report.vectorized_loops == 1
        assert "vfmul.r.h" in vec.asm  # broadcast via the .r variant

    def test_epilogue_loop_remains(self):
        _, vec = compile_both(self.SRC)
        assert "fmul.h" in vec.asm  # scalar remainder

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8])
    def test_matches_scalar_for_all_remainders(self, n):
        scalar, vec = compile_both(self.SRC)
        data = [float(i) * 0.5 for i in range(n)]
        alpha = from_double(3.0, BINARY16)

        def setup(sim):
            write_fmt(sim, A_BASE, data, BINARY16)

        sim_s, _ = run(scalar, "scale", {10: A_BASE, 11: C_BASE, 12: alpha,
                                         13: n}, setup)
        sim_v, _ = run(vec, "scale", {10: A_BASE, 11: C_BASE, 12: alpha,
                                      13: n}, setup)
        out_s = read_fmt(sim_s, C_BASE, n, BINARY16)
        out_v = read_fmt(sim_v, C_BASE, n, BINARY16)
        assert out_s == out_v

    def test_vectorized_is_faster(self):
        scalar, vec = compile_both(self.SRC)
        n = 64
        data = [1.0] * n

        def setup(sim):
            write_fmt(sim, A_BASE, data, BINARY16)

        args = {10: A_BASE, 11: C_BASE, 12: from_double(2.0, BINARY16), 13: n}
        _, rs = run(scalar, "scale", args, setup)
        _, rv = run(vec, "scale", args, setup)
        assert rv.cycles < rs.cycles
        # Two lanes per op: speedup should be meaningfully above 1.2x.
        assert rs.cycles / rv.cycles > 1.2


class TestBinary8Vectorization:
    SRC = """
    void add8(float8 *a, float8 *b, float8 *c, int n) {
        for (int i = 0; i < n; i = i + 1) {
            c[i] = a[i] + b[i];
        }
    }
    """

    def test_four_lane_vectorization(self):
        _, vec = compile_both(self.SRC)
        assert "vfadd.b" in vec.asm

    def test_results_match(self):
        scalar, vec = compile_both(self.SRC)
        n = 13
        a = [float(i % 5) for i in range(n)]
        b = [1.0] * n

        def setup(sim):
            write_fmt(sim, A_BASE, a, BINARY8)
            write_fmt(sim, B_BASE, b, BINARY8)

        args = {10: A_BASE, 11: B_BASE, 12: C_BASE, 13: n}
        sim_s, rs = run(scalar, "add8", args, setup)
        sim_v, rv = run(vec, "add8", args, setup)
        assert read_fmt(sim_s, C_BASE, n, BINARY8) == read_fmt(
            sim_v, C_BASE, n, BINARY8
        )
        assert rv.cycles < rs.cycles


class TestReduction:
    SRC = """
    float dot(float16 *a, float16 *b, int n) {
        float sum = 0.0;
        for (int i = 0; i < n; i = i + 1) {
            sum = sum + a[i] * b[i];
        }
        return sum;
    }
    """

    def test_reduction_uses_unpack_pattern(self):
        """The auto-vectorizer emits the inefficient Fig. 5 pattern:
        vector multiply, then per-lane srli + fcvt.s.h + fadd.s."""
        _, vec = compile_both(self.SRC)
        assert "vfmul.h" in vec.asm
        assert "srli" in vec.asm
        assert "fcvt.s.h" in vec.asm
        assert "fadd.s" in vec.asm
        assert "vfdotpex" not in vec.asm  # that's the *manual* upgrade

    def test_reduction_value(self):
        _, vec = compile_both(self.SRC)
        n = 9
        a = [float(i + 1) for i in range(n)]
        b = [2.0] * n

        def setup(sim):
            write_fmt(sim, A_BASE, a, BINARY16)
            write_fmt(sim, B_BASE, b, BINARY16)

        sim, _ = run(vec, "dot", {10: A_BASE, 11: B_BASE, 12: n}, setup)
        got = to_double(sim.machine.read_f(10, 32), BINARY32)
        assert got == 2.0 * sum(a)

    def test_float16_accumulator_reduction(self):
        src = self.SRC.replace("float sum", "float16 sum").replace(
            "float dot", "float16 dot"
        )
        scalar, vec = compile_both(src)
        assert vec.vector_report.vectorized_loops == 1
        assert "fadd.h" in vec.asm  # lane accumulation stays in fp16


class TestRejections:
    def test_float32_loop_not_vectorized(self):
        src = """
        void f(float *a, float *c, int n) {
            for (int i = 0; i < n; i = i + 1) c[i] = a[i] * a[i];
        }
        """
        kernel = compile_source(src, vectorize_loops=True)
        assert kernel.vector_report.vectorized_loops == 0
        assert kernel.vector_report.rejected_loops == 1

    def test_stride_2_not_vectorized(self):
        src = """
        void f(float16 *a, float16 *c, int n) {
            for (int i = 0; i < n; i = i + 1) c[i] = a[i * 2];
        }
        """
        kernel = compile_source(src, vectorize_loops=True)
        assert kernel.vector_report.vectorized_loops == 0

    def test_control_flow_in_body_not_vectorized(self):
        src = """
        void f(float16 *a, int n) {
            for (int i = 0; i < n; i = i + 1) {
                if (i > 2) { a[i] = (float16)0.0; }
            }
        }
        """
        kernel = compile_source(src, vectorize_loops=True)
        assert kernel.vector_report.vectorized_loops == 0

    def test_mixed_formats_not_vectorized(self):
        src = """
        void f(float16 *a, float8 *b, int n) {
            for (int i = 0; i < n; i = i + 1) b[i] = (float8)a[i];
        }
        """
        kernel = compile_source(src, vectorize_loops=True)
        assert kernel.vector_report.vectorized_loops == 0

    def test_manual_intrinsic_loop_left_alone(self):
        src = """
        float f(float16v *a, float16v *b, int n2) {
            float s = 0.0;
            for (int i = 0; i < n2; i = i + 1)
                s = __dotpex_f16(s, a[i], b[i]);
            return s;
        }
        """
        kernel = compile_source(src, vectorize_loops=True)
        assert kernel.vector_report.vectorized_loops == 0
        assert "vfdotpex.s.h" in kernel.asm

    def test_non_unit_step_not_vectorized(self):
        src = """
        void f(float16 *a, int n) {
            for (int i = 0; i < n; i = i + 2) a[i] = (float16)1.0;
        }
        """
        kernel = compile_source(src, vectorize_loops=True)
        assert kernel.vector_report.vectorized_loops == 0


class TestNestedLoops:
    SRC = """
    void gemm(int n, float16 *a, float16 *b, float16 *c) {
        for (int i = 0; i < n; i = i + 1) {
            for (int k = 0; k < n; k = k + 1) {
                float16 av = a[i * n + k];
                for (int j = 0; j < n; j = j + 1) {
                    c[i * n + j] = c[i * n + j] + av * b[k * n + j];
                }
            }
        }
    }
    """

    def test_only_innermost_vectorized(self):
        kernel = compile_source(self.SRC, vectorize_loops=True)
        assert kernel.vector_report.vectorized_loops == 1

    def test_gemm_matches_numpy(self):
        from repro.fp.numpy_backend import quantize

        n = 6
        rng = np.random.default_rng(3)
        a = quantize(rng.standard_normal((n, n)), BINARY16)
        b = quantize(rng.standard_normal((n, n)), BINARY16)

        for vec in (False, True):
            kernel = compile_source(self.SRC, vectorize_loops=vec)
            sim = Simulator(kernel.program)
            write_fmt(sim, A_BASE, a.ravel(), BINARY16)
            write_fmt(sim, B_BASE, b.ravel(), BINARY16)
            sim.run("gemm", args={10: n, 11: A_BASE, 12: B_BASE, 13: C_BASE})
            got = np.array(read_fmt(sim, C_BASE, n * n, BINARY16))
            # Reference: same operation order, quantized after each op.
            ref = np.zeros((n, n))
            for i in range(n):
                for k in range(n):
                    ref[i] = quantize(ref[i] + quantize(a[i, k] * b[k],
                                                        BINARY16), BINARY16)
            assert np.array_equal(got, ref.ravel()), f"vectorize={vec}"
