"""Unit tests for the vectorizer's dependence/stride analysis."""

from repro.compiler.astnodes import BinOp, FloatLit, IntLit, Var
from repro.compiler.optimize import fold_constants
from repro.compiler.parser import parse
from repro.compiler.semantic import analyze
from repro.compiler.typesys import FLOAT16, INT
from repro.compiler.vectorize import _is_invariant, _stride


def var(name):
    node = Var(name)
    node.ty = INT
    return node


def lit(value):
    node = IntLit(value)
    node.ty = INT
    return node


def add(a, b):
    node = BinOp("+", a, b)
    node.ty = INT
    return node


def sub(a, b):
    node = BinOp("-", a, b)
    node.ty = INT
    return node


def mul(a, b):
    node = BinOp("*", a, b)
    node.ty = INT
    return node


class TestStride:
    def test_bare_induction_var(self):
        assert _stride(var("i"), "i", set()) == 1

    def test_invariant_is_stride_zero(self):
        assert _stride(var("n"), "i", set()) == 0
        assert _stride(lit(7), "i", set()) == 0

    def test_offset_forms(self):
        assert _stride(add(var("base"), var("i")), "i", set()) == 1
        assert _stride(add(var("i"), lit(1)), "i", set()) == 1
        assert _stride(sub(add(var("i"), var("n")), lit(1)), "i", set()) == 1

    def test_two_dimensional_row_major(self):
        # i*n + j with j the induction variable: stride 1.
        index = add(mul(var("i"), var("n")), var("j"))
        assert _stride(index, "j", set()) == 1
        # ...but stride None in i (appears scaled).
        assert _stride(index, "i", set()) is None

    def test_scaled_induction_rejected(self):
        assert _stride(mul(var("i"), lit(2)), "i", set()) is None

    def test_doubled_via_addition_detected(self):
        assert _stride(add(var("i"), var("i")), "i", set()) == 2

    def test_subtracted_induction_rejected(self):
        assert _stride(sub(var("n"), var("i")), "i", set()) is None

    def test_mutated_variable_poisons_invariance(self):
        assert _stride(add(var("acc"), var("i")), "i", {"acc"}) is None


class TestInvariance:
    def test_literals_and_free_vars(self):
        assert _is_invariant(lit(3), "i", set())
        assert _is_invariant(var("n"), "i", set())

    def test_induction_var_not_invariant(self):
        assert not _is_invariant(var("i"), "i", set())

    def test_mutated_var_not_invariant(self):
        assert not _is_invariant(var("s"), "i", {"s"})

    def test_compound_expressions(self):
        assert _is_invariant(mul(var("n"), lit(4)), "i", set())
        assert not _is_invariant(mul(var("n"), var("i")), "i", set())

    def test_float_literal(self):
        f = FloatLit(0.5)
        f.ty = FLOAT16
        assert _is_invariant(f, "i", set())


class TestConstantFolding:
    def _body(self, src):
        mod = fold_constants(analyze(parse(src)))
        return mod.function("f").body.stmts

    def test_cast_of_float_literal_folds(self):
        stmts = self._body("void f(float16 *a) { a[0] = (float16)0.5; }")
        value = stmts[0].value
        assert isinstance(value, FloatLit)
        assert value.ty == FLOAT16

    def test_cast_of_int_literal_to_float_folds(self):
        stmts = self._body("void f(float16 x) { x = (float16)3; }")
        assert isinstance(stmts[0].value, FloatLit)
        assert stmts[0].value.value == 3.0

    def test_int_arithmetic_folds(self):
        stmts = self._body("void f(int x) { x = 2 * 3 + 1; }")
        assert isinstance(stmts[0].value, IntLit)
        assert stmts[0].value.value == 7

    def test_negative_literal_folds(self):
        stmts = self._body("void f(int x) { x = -4; }")
        assert isinstance(stmts[0].value, IntLit)
        assert stmts[0].value.value == -4

    def test_division_truncates_toward_zero(self):
        stmts = self._body("void f(int x) { x = -7 / 2; }")
        assert stmts[0].value.value == -3

    def test_folding_enables_broadcast_vectorization(self):
        from repro.compiler import compile_source

        src = """
        void f(float16 *a, int n) {
            for (int i = 0; i < n; i = i + 1) {
                a[i] = a[i] * (float16)0.5;
            }
        }
        """
        kernel = compile_source(src, vectorize_loops=True)
        assert kernel.vector_report.vectorized_loops == 1
        assert "vfmul.r.h" in kernel.asm
        assert "fcvt" not in kernel.asm  # the cast folded away
