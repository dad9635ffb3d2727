"""Recursive-descent parser for the kernel language."""

from __future__ import annotations

import copy
from typing import List, Optional

from .. import ReproError
from .astnodes import (
    Assign,
    BinOp,
    Block,
    Call,
    Cast,
    Decl,
    Expr,
    ExprStmt,
    FloatLit,
    For,
    Function,
    If,
    Index,
    IntLit,
    Module,
    Param,
    Return,
    Stmt,
    UnOp,
    Var,
    While,
)
from .lexer import Token, tokenize
from .typesys import TYPE_KEYWORDS, PtrType, Type


class ParseError(ReproError):
    """A syntax error with source position."""


class Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0

    # ------------------------------------------------------------------
    # Token plumbing
    # ------------------------------------------------------------------
    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def _peek(self, offset: int = 1) -> Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def _error(self, message: str) -> ParseError:
        tok = self.current
        return ParseError(f"line {tok.line}, col {tok.col}: {message} "
                          f"(found {tok.value!r})")

    def _advance(self) -> Token:
        tok = self.current
        self.pos += 1
        return tok

    def _accept(self, kind: str, value=None) -> Optional[Token]:
        tok = self.current
        if tok.kind != kind:
            return None
        if value is not None and tok.value != value:
            return None
        return self._advance()

    def _expect(self, kind: str, value=None) -> Token:
        tok = self._accept(kind, value)
        if tok is None:
            want = value if value is not None else kind
            raise self._error(f"expected {want!r}")
        return tok

    def _at_type(self) -> bool:
        return (self.current.kind == "keyword"
                and self.current.value in TYPE_KEYWORDS)

    # ------------------------------------------------------------------
    # Grammar
    # ------------------------------------------------------------------
    def parse_module(self) -> Module:
        functions = []
        while self.current.kind != "eof":
            functions.append(self.parse_function())
        return Module(functions)

    def _parse_type(self) -> Type:
        tok = self._expect("keyword")
        if tok.value not in TYPE_KEYWORDS:
            raise self._error(f"expected a type, got {tok.value!r}")
        ty: Type = TYPE_KEYWORDS[tok.value]
        while self._accept("op", "*"):
            ty = PtrType(f"{ty.name}*", elem=ty)
        return ty

    def parse_function(self) -> Function:
        return_type = self._parse_type()
        name = self._expect("ident").value
        self._expect("op", "(")
        params: List[Param] = []
        if not self._accept("op", ")"):
            while True:
                ty = self._parse_type()
                pname = self._expect("ident").value
                params.append(Param(pname, ty))
                if self._accept("op", ")"):
                    break
                self._expect("op", ",")
        body = self.parse_block()
        return Function(name, params, return_type, body)

    def parse_block(self) -> Block:
        self._expect("op", "{")
        stmts: List[Stmt] = []
        while not self._accept("op", "}"):
            stmts.append(self.parse_stmt())
        return Block(stmts)

    def parse_stmt(self) -> Stmt:
        if self.current.kind == "op" and self.current.value == "{":
            return self.parse_block()
        if self._at_type():
            return self._parse_decl()
        if self.current.kind == "keyword":
            kw = self.current.value
            if kw == "if":
                return self._parse_if()
            if kw == "for":
                return self._parse_for()
            if kw == "while":
                return self._parse_while()
            if kw == "return":
                self._advance()
                if self._accept("op", ";"):
                    return Return(None)
                value = self.parse_expr()
                self._expect("op", ";")
                return Return(value)
        stmt = self._parse_simple()
        self._expect("op", ";")
        return stmt

    def _parse_decl(self) -> Decl:
        ty = self._parse_type()
        name = self._expect("ident").value
        init = None
        if self._accept("op", "="):
            init = self.parse_expr()
        self._expect("op", ";")
        return Decl(name, ty, init)

    def _parse_if(self) -> If:
        self._expect("keyword", "if")
        self._expect("op", "(")
        cond = self.parse_expr()
        self._expect("op", ")")
        then = self._stmt_as_block()
        otherwise = None
        if self._accept("keyword", "else"):
            otherwise = self._stmt_as_block()
        return If(cond, then, otherwise)

    def _stmt_as_block(self) -> Block:
        stmt = self.parse_stmt()
        return stmt if isinstance(stmt, Block) else Block([stmt])

    def _parse_for(self) -> For:
        self._expect("keyword", "for")
        self._expect("op", "(")
        init: Optional[Stmt] = None
        if not self._accept("op", ";"):
            if self._at_type():
                ty = self._parse_type()
                name = self._expect("ident").value
                value = None
                if self._accept("op", "="):
                    value = self.parse_expr()
                init = Decl(name, ty, value)
            else:
                init = self._parse_simple()
            self._expect("op", ";")
        cond = None
        if not self._accept("op", ";"):
            cond = self.parse_expr()
            self._expect("op", ";")
        step = None
        if not self._accept("op", ")"):
            step = self._parse_simple()
            self._expect("op", ")")
        body = self._stmt_as_block()
        return For(init, cond, step, body)

    def _parse_while(self) -> While:
        self._expect("keyword", "while")
        self._expect("op", "(")
        cond = self.parse_expr()
        self._expect("op", ")")
        return While(cond, self._stmt_as_block())

    def _parse_simple(self) -> Stmt:
        """Assignment (possibly compound) or a bare expression."""
        expr = self.parse_expr()
        for op in ("=", "+=", "-=", "*=", "/="):
            if self._accept("op", op):
                if not isinstance(expr, (Var, Index)):
                    raise self._error("assignment target must be a variable "
                                      "or array element")
                value = self.parse_expr()
                if op != "=":
                    value = BinOp(op[0], copy.deepcopy(expr), value)
                return Assign(expr, value)
        return ExprStmt(expr)

    # ------------------------------------------------------------------
    # Expressions (precedence climbing)
    # ------------------------------------------------------------------
    def parse_expr(self) -> Expr:
        return self._parse_logical_or()

    def _parse_logical_or(self) -> Expr:
        left = self._parse_logical_and()
        while self._accept("op", "||"):
            left = BinOp("||", left, self._parse_logical_and())
        return left

    def _parse_logical_and(self) -> Expr:
        left = self._parse_equality()
        while self._accept("op", "&&"):
            left = BinOp("&&", left, self._parse_equality())
        return left

    def _parse_equality(self) -> Expr:
        left = self._parse_relational()
        while True:
            for op in ("==", "!="):
                if self._accept("op", op):
                    left = BinOp(op, left, self._parse_relational())
                    break
            else:
                return left

    def _parse_relational(self) -> Expr:
        left = self._parse_additive()
        while True:
            for op in ("<=", ">=", "<", ">"):
                if self._accept("op", op):
                    left = BinOp(op, left, self._parse_additive())
                    break
            else:
                return left

    def _parse_additive(self) -> Expr:
        left = self._parse_multiplicative()
        while True:
            for op in ("+", "-"):
                if self._accept("op", op):
                    left = BinOp(op, left, self._parse_multiplicative())
                    break
            else:
                return left

    def _parse_multiplicative(self) -> Expr:
        left = self._parse_unary()
        while True:
            for op in ("*", "/", "%"):
                if self._accept("op", op):
                    left = BinOp(op, left, self._parse_unary())
                    break
            else:
                return left

    def _parse_unary(self) -> Expr:
        if self._accept("op", "-"):
            return UnOp("-", self._parse_unary())
        if self._accept("op", "!"):
            return UnOp("!", self._parse_unary())
        # Cast: '(' typename ... ')'
        if (self.current.kind == "op" and self.current.value == "("
                and self._peek().kind == "keyword"
                and self._peek().value in TYPE_KEYWORDS):
            self._advance()
            target = self._parse_type()
            self._expect("op", ")")
            return Cast(target, self._parse_unary())
        return self._parse_postfix()

    def _parse_postfix(self) -> Expr:
        expr = self._parse_primary()
        while self._accept("op", "["):
            index = self.parse_expr()
            self._expect("op", "]")
            expr = Index(expr, index)
        return expr

    def _parse_primary(self) -> Expr:
        tok = self.current
        if tok.kind == "int":
            self._advance()
            return IntLit(tok.value)
        if tok.kind == "float":
            self._advance()
            return FloatLit(tok.value)
        if tok.kind == "ident":
            self._advance()
            if self._accept("op", "("):
                args: List[Expr] = []
                if not self._accept("op", ")"):
                    while True:
                        args.append(self.parse_expr())
                        if self._accept("op", ")"):
                            break
                        self._expect("op", ",")
                return Call(tok.value, args)
            return Var(tok.value)
        if self._accept("op", "("):
            expr = self.parse_expr()
            self._expect("op", ")")
            return expr
        raise self._error("expected an expression")


def parse(source: str) -> Module:
    """Parse a translation unit into a :class:`Module`."""
    return Parser(tokenize(source)).parse_module()
