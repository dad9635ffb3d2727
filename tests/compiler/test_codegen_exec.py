"""Compile-and-run tests: generated code must compute correct results."""

import pytest

from repro.compiler import CodegenError, compile_source
from repro.fp import BINARY8, BINARY16, BINARY16ALT, BINARY32
from repro.fp.convert import from_double, to_double
from repro.fp.numpy_backend import quantize
from repro.sim import Simulator


def run_kernel(source, entry, args, setup=None, vectorize=False, **simkw):
    """Compile, load, optionally stage memory, run; returns (sim, result)."""
    kernel = compile_source(source, vectorize_loops=vectorize)
    sim = Simulator(kernel.program, **simkw)
    if setup:
        setup(sim)
    result = sim.run(entry, args=args)
    return sim, result


def write_f16(sim, base, values):
    for i, v in enumerate(values):
        sim.machine.memory.write_u16(base + 2 * i, from_double(v, BINARY16))


def read_f16(sim, base, count):
    return [
        to_double(sim.machine.memory.read_u16(base + 2 * i), BINARY16)
        for i in range(count)
    ]


def a0_float(sim):
    return to_double(sim.machine.read_f(10, 32), BINARY32)


class TestIntegerKernels:
    def test_return_constant(self):
        sim, _ = run_kernel("int f() { return 42; }", "f", {})
        assert sim.machine.read_x(10) == 42

    def test_arith(self):
        sim, _ = run_kernel("int f(int a, int b) { return a * b - 3; }",
                            "f", {10: 6, 11: 7})
        assert sim.machine.read_x(10) == 39

    def test_sum_loop(self):
        src = """
        int sum_to(int n) {
            int acc = 0;
            for (int i = 1; i <= n; i = i + 1) acc = acc + i;
            return acc;
        }
        """
        sim, _ = run_kernel(src, "sum_to", {10: 100})
        assert sim.machine.read_x(10) == 5050

    def test_if_else(self):
        src = "int mx(int a, int b) { if (a > b) return a; else return b; }"
        sim, _ = run_kernel(src, "mx", {10: 3, 11: 9})
        assert sim.machine.read_x(10) == 9
        sim, _ = run_kernel(src, "mx", {10: 9, 11: 3})
        assert sim.machine.read_x(10) == 9

    def test_while_countdown(self):
        src = """
        int f(int n) {
            int c = 0;
            while (n > 0) { n = n - 1; c = c + 2; }
            return c;
        }
        """
        sim, _ = run_kernel(src, "f", {10: 7})
        assert sim.machine.read_x(10) == 14

    def test_modulo_and_division(self):
        src = "int f(int a, int b) { return a / b + a % b; }"
        sim, _ = run_kernel(src, "f", {10: 17, 11: 5})
        assert sim.machine.read_x(10) == 3 + 2

    def test_array_store_load(self):
        src = """
        int f(int *a, int n) {
            for (int i = 0; i < n; i = i + 1) a[i] = i * i;
            return a[n - 1];
        }
        """
        sim, _ = run_kernel(src, "f", {10: 0x2000, 11: 5})
        assert sim.machine.read_x(10) == 16
        assert sim.machine.memory.read_u32(0x2000 + 4 * 3) == 9

    def test_logical_ops(self):
        src = "int f(int a, int b) { return (a > 0) && (b > 0); }"
        sim, _ = run_kernel(src, "f", {10: 1, 11: 0})
        assert sim.machine.read_x(10) == 0

    def test_many_locals_spill_to_stack(self):
        decls = "".join(f"int v{i} = {i};" for i in range(20))
        uses = " + ".join(f"v{i}" for i in range(20))
        src = f"int f() {{ {decls} return {uses}; }}"
        sim, _ = run_kernel(src, "f", {})
        assert sim.machine.read_x(10) == sum(range(20))


class TestFloatKernels:
    def test_float32_arith(self):
        src = "float f(float a, float b) { return a * b + 1.5; }"
        sim, _ = run_kernel(src, "f", {10: from_double(2.0, BINARY32),
                                       11: from_double(3.0, BINARY32)})
        assert a0_float(sim) == 7.5

    def test_float16_scalar_kernel(self):
        src = """
        float16 axpy(float16 a, float16 x, float16 y) {
            return a * x + y;
        }
        """
        args = {10: from_double(2.0, BINARY16),
                11: from_double(3.0, BINARY16),
                12: from_double(0.5, BINARY16)}
        sim, _ = run_kernel(src, "axpy", args)
        assert to_double(sim.machine.read_f(10, 16), BINARY16) == 6.5

    def test_float16_quantization_is_visible(self):
        """Arithmetic happens in binary16, not in a wider hidden type."""
        src = "float16 f(float16 a, float16 b) { return a + b; }"
        args = {10: from_double(2048.0, BINARY16),
                11: from_double(1.0, BINARY16)}
        sim, _ = run_kernel(src, "f", args)
        assert to_double(sim.machine.read_f(10, 16), BINARY16) == 2048.0

    def test_float8_arith(self):
        src = "float8 f(float8 a, float8 b) { return a * b; }"
        args = {10: from_double(1.25, BINARY8), 11: from_double(2.0, BINARY8)}
        sim, _ = run_kernel(src, "f", args)
        assert to_double(sim.machine.read_f(10, 8), BINARY8) == 2.5

    def test_float16alt_range(self):
        src = "float16alt f(float16alt a) { return a * a; }"
        args = {10: from_double(1000.0, BINARY16ALT)}
        sim, _ = run_kernel(src, "f", args)
        got = to_double(sim.machine.read_f(10, 16), BINARY16ALT)
        assert got == float(quantize(float(quantize(1000.0, BINARY16ALT)) ** 2,
                                     BINARY16ALT))

    def test_float_compare_branches(self):
        src = """
        int f(float16 a, float16 b) {
            if (a < b) return 1;
            return 0;
        }
        """
        args = {10: from_double(1.0, BINARY16), 11: from_double(2.0, BINARY16)}
        sim, _ = run_kernel(src, "f", args)
        assert sim.machine.read_x(10) == 1

    def test_explicit_conversions_emit_fcvt(self):
        src = "float f(float16 h) { return (float)h * 2.0; }"
        kernel = compile_source(src)
        assert "fcvt.s.h" in kernel.asm
        sim = Simulator(kernel.program)
        sim.run("f", args={10: from_double(1.5, BINARY16)})
        assert a0_float(sim) == 3.0

    def test_float_literal_quantized_to_type(self):
        # 0.1 is inexact in binary16; literal must hold the rounded bits.
        src = "float16 f() { return (float16)0.1; }"
        sim, _ = run_kernel(src, "f", {})
        got = to_double(sim.machine.read_f(10, 16), BINARY16)
        assert got == float(quantize(0.1, BINARY16))

    def test_sqrt_intrinsic(self):
        src = "float16 f(float16 x) { return __sqrt_f16(x); }"
        sim, _ = run_kernel(src, "f", {10: from_double(9.0, BINARY16)})
        assert to_double(sim.machine.read_f(10, 16), BINARY16) == 3.0

    def test_negation(self):
        src = "float16 f(float16 x) { return -x; }"
        sim, _ = run_kernel(src, "f", {10: from_double(2.5, BINARY16)})
        assert to_double(sim.machine.read_f(10, 16), BINARY16) == -2.5


class TestVectorKernels:
    def test_manual_vector_add(self):
        src = """
        void vadd(float16v *a, float16v *b, float16v *c, int n2) {
            for (int i = 0; i < n2; i = i + 1) c[i] = a[i] + b[i];
        }
        """
        def setup(sim):
            write_f16(sim, 0x2000, [1.0, 2.0, 3.0, 4.0])
            write_f16(sim, 0x3000, [10.0, 20.0, 30.0, 40.0])

        sim, _ = run_kernel(src, "vadd",
                            {10: 0x2000, 11: 0x3000, 12: 0x4000, 13: 2},
                            setup=setup)
        assert read_f16(sim, 0x4000, 4) == [11.0, 22.0, 33.0, 44.0]

    def test_lane_extract_and_insert(self):
        src = """
        float16v f(float16v v, float16 x) {
            v[1] = x;
            return v;
        }
        """
        lo = from_double(1.0, BINARY16)
        hi = from_double(2.0, BINARY16)
        args = {10: (hi << 16) | lo, 11: from_double(9.0, BINARY16)}
        sim, _ = run_kernel(src, "f", args)
        reg = sim.machine.read_f(10)
        assert to_double(reg & 0xFFFF, BINARY16) == 1.0
        assert to_double(reg >> 16, BINARY16) == 9.0

    def test_cast_and_pack_intrinsic(self):
        src = """
        float16v pack(float a, float b) { return __cpk_f16(a, b); }
        """
        args = {10: from_double(1.5, BINARY32), 11: from_double(2.5, BINARY32)}
        sim, _ = run_kernel(src, "pack", args)
        reg = sim.machine.read_f(10)
        assert to_double(reg & 0xFFFF, BINARY16) == 1.5
        assert to_double(reg >> 16, BINARY16) == 2.5

    def test_dotpex_intrinsic_kernel(self):
        src = """
        float dot(float16v *a, float16v *b, int n2) {
            float s = 0.0;
            for (int i = 0; i < n2; i = i + 1) s = __dotpex_f16(s, a[i], b[i]);
            return s;
        }
        """
        def setup(sim):
            write_f16(sim, 0x2000, [1.0, 2.0, 3.0, 4.0])
            write_f16(sim, 0x3000, [1.0, 1.0, 1.0, 1.0])

        sim, _ = run_kernel(src, "dot", {10: 0x2000, 11: 0x3000, 12: 2},
                            setup=setup)
        assert a0_float(sim) == 10.0


class TestCodegenLimits:
    def test_too_many_params(self):
        params = ", ".join(f"int p{i}" for i in range(9))
        with pytest.raises(CodegenError, match="parameters"):
            compile_source(f"void f({params}) {{ }}")
