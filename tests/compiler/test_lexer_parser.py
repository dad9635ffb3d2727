"""Lexer and parser unit tests."""

import pytest

from repro.compiler.astnodes import (
    Assign,
    BinOp,
    Call,
    Cast,
    Decl,
    For,
    If,
    Index,
    Return,
    While,
)
from repro.compiler.lexer import LexError, tokenize
from repro.compiler.parser import ParseError, parse
from repro.compiler.typesys import FLOAT16, INT, PtrType


class TestLexer:
    def test_keywords_vs_identifiers(self):
        toks = tokenize("float16 foo")
        assert toks[0].kind == "keyword" and toks[0].value == "float16"
        assert toks[1].kind == "ident" and toks[1].value == "foo"

    def test_numbers(self):
        toks = tokenize("42 0x2a 1.5 2e3 7f")
        assert [t.value for t in toks[:-1]] == [42, 42, 1.5, 2000.0, 7.0]
        assert toks[2].kind == "float"

    def test_operators_maximal_munch(self):
        toks = tokenize("a+=b<=c==d")
        ops = [t.value for t in toks if t.kind == "op"]
        assert ops == ["+=", "<=", "=="]

    def test_comments(self):
        toks = tokenize("a // line\n/* block\nmore */ b")
        idents = [t.value for t in toks if t.kind == "ident"]
        assert idents == ["a", "b"]

    def test_line_tracking(self):
        toks = tokenize("a\nb")
        assert toks[0].line == 1
        assert toks[1].line == 2

    def test_bad_character(self):
        with pytest.raises(LexError):
            tokenize("a @ b")

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize("/* never ends")


class TestParser:
    def test_function_signature(self):
        mod = parse("void f(int n, float16 *a) { }")
        fn = mod.function("f")
        assert fn.params[0].ty == INT
        assert isinstance(fn.params[1].ty, PtrType)
        assert fn.params[1].ty.elem == FLOAT16

    def test_declarations_and_assignment(self):
        mod = parse("void f() { int x = 3; x = x + 1; }")
        body = mod.function("f").body.stmts
        assert isinstance(body[0], Decl)
        assert isinstance(body[1], Assign)

    def test_compound_assignment_desugars(self):
        mod = parse("void f(int x) { x += 2; }")
        stmt = mod.function("f").body.stmts[0]
        assert isinstance(stmt, Assign)
        assert isinstance(stmt.value, BinOp) and stmt.value.op == "+"

    def test_precedence(self):
        mod = parse("void f(int a, int b, int c) { a = a + b * c; }")
        value = mod.function("f").body.stmts[0].value
        assert value.op == "+"
        assert isinstance(value.right, BinOp) and value.right.op == "*"

    def test_for_loop_shape(self):
        mod = parse("void f(int n) { for (int i = 0; i < n; i = i + 1) { } }")
        loop = mod.function("f").body.stmts[0]
        assert isinstance(loop, For)
        assert isinstance(loop.init, Decl)
        assert loop.cond.op == "<"

    def test_if_else(self):
        mod = parse("void f(int x) { if (x < 3) { x = 1; } else x = 2; }")
        stmt = mod.function("f").body.stmts[0]
        assert isinstance(stmt, If)
        assert stmt.otherwise is not None

    def test_while(self):
        mod = parse("void f(int x) { while (x > 0) x = x - 1; }")
        assert isinstance(mod.function("f").body.stmts[0], While)

    def test_cast_expression(self):
        mod = parse("void f(float x) { float16 h = (float16)x; }")
        decl = mod.function("f").body.stmts[0]
        assert isinstance(decl.init, Cast)
        assert decl.init.target == FLOAT16

    def test_cast_vs_paren(self):
        mod = parse("void f(int x) { x = (x) + 1; }")
        value = mod.function("f").body.stmts[0].value
        assert value.op == "+"

    def test_array_index_chain(self):
        mod = parse("void f(int *a, int i) { a[i + 1] = 0; }")
        target = mod.function("f").body.stmts[0].target
        assert isinstance(target, Index)
        assert target.index.op == "+"

    def test_intrinsic_call(self):
        mod = parse(
            "float f(float s, float16v a, float16v b)"
            "{ return __dotpex_f16(s, a, b); }"
        )
        ret = mod.function("f").body.stmts[0]
        assert isinstance(ret, Return)
        assert isinstance(ret.value, Call)
        assert len(ret.value.args) == 3

    def test_unary_minus(self):
        mod = parse("void f(int x) { x = -x + 1; }")
        value = mod.function("f").body.stmts[0].value
        assert value.op == "+"

    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse("void f() { int x = 3 }")

    def test_assignment_to_rvalue(self):
        with pytest.raises(ParseError):
            parse("void f(int x) { x + 1 = 2; }")

    def test_multiple_functions(self):
        mod = parse("void f() { } void g() { }")
        assert [fn.name for fn in mod.functions] == ["f", "g"]
