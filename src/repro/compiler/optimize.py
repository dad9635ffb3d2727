"""Middle-end optimizations: constant folding.

Folding casts of literals matters beyond tidiness: ``(float16)0.5``
must become a float16 literal so (a) no conversion instruction is spent
on a compile-time constant and (b) the auto-vectorizer sees a broadcast
constant rather than an opaque cast.
"""

from __future__ import annotations

from typing import Optional

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
    If,
    Index,
    IntLit,
    LaneRef,
    Module,
    Return,
    Stmt,
    UnOp,
    While,
)
from .typesys import FloatType, IntType


def _fold(expr: Expr) -> Expr:
    if isinstance(expr, BinOp):
        expr.left = _fold(expr.left)
        expr.right = _fold(expr.right)
        if (isinstance(expr.left, IntLit) and isinstance(expr.right, IntLit)
                and isinstance(expr.ty, IntType)):
            left, right = expr.left.value, expr.right.value
            value: Optional[int] = None
            if expr.op == "+":
                value = left + right
            elif expr.op == "-":
                value = left - right
            elif expr.op == "*":
                value = left * right
            elif expr.op == "/" and right != 0:
                value = int(left / right)
            elif expr.op == "%" and right != 0:
                value = left - int(left / right) * right
            if value is not None:
                lit = IntLit(value)
                lit.ty = expr.ty
                return lit
        return expr
    if isinstance(expr, UnOp):
        expr.operand = _fold(expr.operand)
        if expr.op == "-" and isinstance(expr.operand, IntLit):
            lit = IntLit(-expr.operand.value)
            lit.ty = expr.ty
            return lit
        if expr.op == "-" and isinstance(expr.operand, FloatLit):
            lit = FloatLit(-expr.operand.value)
            lit.ty = expr.ty
            return lit
        return expr
    if isinstance(expr, Cast):
        expr.operand = _fold(expr.operand)
        inner = expr.operand
        if isinstance(expr.ty, FloatType):
            if isinstance(inner, FloatLit):
                lit = FloatLit(inner.value)
                lit.ty = expr.ty  # re-typed; codegen quantizes the bits
                return lit
            if isinstance(inner, IntLit):
                lit = FloatLit(float(inner.value))
                lit.ty = expr.ty
                return lit
        if isinstance(expr.ty, IntType) and isinstance(inner, IntLit):
            return inner
        if isinstance(expr.ty, IntType) and isinstance(inner, FloatLit):
            lit = IntLit(int(inner.value))
            lit.ty = expr.ty
            return lit
        return expr
    if isinstance(expr, Index):
        expr.base = _fold(expr.base)
        expr.index = _fold(expr.index)
        return expr
    if isinstance(expr, LaneRef):
        expr.base = _fold(expr.base)
        return expr
    if isinstance(expr, Call):
        expr.args = [_fold(arg) for arg in expr.args]
        return expr
    return expr


def _fold_stmt(stmt: Stmt) -> None:
    if isinstance(stmt, Block):
        for inner in stmt.stmts:
            _fold_stmt(inner)
    elif isinstance(stmt, Decl):
        if stmt.init is not None:
            stmt.init = _fold(stmt.init)
    elif isinstance(stmt, Assign):
        stmt.target = _fold(stmt.target)
        stmt.value = _fold(stmt.value)
    elif isinstance(stmt, If):
        stmt.cond = _fold(stmt.cond)
        _fold_stmt(stmt.then)
        if stmt.otherwise is not None:
            _fold_stmt(stmt.otherwise)
    elif isinstance(stmt, While):
        stmt.cond = _fold(stmt.cond)
        _fold_stmt(stmt.body)
    elif isinstance(stmt, For):
        if stmt.init is not None:
            _fold_stmt(stmt.init)
        if stmt.cond is not None:
            stmt.cond = _fold(stmt.cond)
        if stmt.step is not None:
            _fold_stmt(stmt.step)
        _fold_stmt(stmt.body)
    elif isinstance(stmt, Return):
        if stmt.value is not None:
            stmt.value = _fold(stmt.value)
    elif isinstance(stmt, ExprStmt):
        stmt.expr = _fold(stmt.expr)


def fold_constants(module: Module) -> Module:
    """Fold literal arithmetic and literal casts across the module."""
    for fn in module.functions:
        _fold_stmt(fn.body)
    return module
