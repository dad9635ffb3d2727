"""Semantic analysis: scopes, type checking, implicit conversions.

Walks the AST filling every expression's ``ty`` and inserting implicit
:class:`~repro.compiler.astnodes.Cast` nodes where the extended
conversion rules allow it.  Explicit casts in source map 1:1 to
conversion instructions, implicit ones likewise -- so the cost the paper
attributes to conversions is visible in the generated code.
"""

from __future__ import annotations

from typing import Dict, Optional

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
    LaneRef,
    Module,
    Return,
    Stmt,
    UnOp,
    Var,
    While,
)
from .. import ReproError
from .intrinsics import INTRINSICS
from .typesys import (
    FLOAT,
    INT,
    VOID,
    FloatType,
    IntType,
    PtrType,
    Type,
    TypeError_,
    VecType,
    can_convert,
    is_float,
    is_vector,
    promote,
)

_ARITH_OPS = {"+", "-", "*", "/"}
_CMP_OPS = {"==", "!=", "<", "<=", ">", ">="}
_LOGIC_OPS = {"&&", "||"}


class SemanticError(ReproError):
    """A type or scope error in the kernel source."""


class _Scope:
    def __init__(self, parent: Optional["_Scope"] = None):
        self.parent = parent
        self.names: Dict[str, Type] = {}

    def declare(self, name: str, ty: Type) -> None:
        if name in self.names:
            raise SemanticError(f"redeclaration of {name!r}")
        self.names[name] = ty

    def lookup(self, name: str) -> Type:
        scope: Optional[_Scope] = self
        while scope is not None:
            if name in scope.names:
                return scope.names[name]
            scope = scope.parent
        raise SemanticError(f"undeclared identifier {name!r}")


def _convert(expr: Expr, target: Type) -> Expr:
    """Wrap ``expr`` in an implicit cast to ``target`` if needed."""
    if expr.ty == target:
        return expr
    if not can_convert(expr.ty, target):
        raise SemanticError(f"cannot convert {expr.ty} to {target}")
    cast = Cast(target, expr, implicit=True)
    cast.ty = target
    return cast


class Analyzer:
    """Type-checks one function at a time."""

    def __init__(self):
        self._fn: Optional[Function] = None

    # ------------------------------------------------------------------
    def analyze(self, module: Module) -> Module:
        for fn in module.functions:
            self._fn = fn
            scope = _Scope()
            for param in fn.params:
                scope.declare(param.name, param.ty)
            self._block(fn.body, scope)
        return module

    # ------------------------------------------------------------------
    def _block(self, block: Block, parent: _Scope) -> None:
        scope = _Scope(parent)
        for index, stmt in enumerate(block.stmts):
            block.stmts[index] = self._stmt(stmt, scope)

    def _stmt(self, stmt: Stmt, scope: _Scope) -> Stmt:
        if isinstance(stmt, Block):
            self._block(stmt, scope)
            return stmt
        if isinstance(stmt, Decl):
            if stmt.init is not None:
                self._expr(stmt.init, scope)
                stmt.init = _convert(stmt.init, stmt.ty)
            scope.declare(stmt.name, stmt.ty)
            return stmt
        if isinstance(stmt, Assign):
            target_ty = self._expr(stmt.target, scope)
            if isinstance(stmt.target, Var) and isinstance(
                scope.lookup(stmt.target.name), PtrType
            ):
                raise SemanticError("cannot assign to an array parameter")
            self._expr(stmt.value, scope)
            stmt.value = _convert(stmt.value, target_ty)
            return stmt
        if isinstance(stmt, If):
            self._cond(stmt.cond, scope)
            self._block(stmt.then, scope)
            if stmt.otherwise is not None:
                self._block(stmt.otherwise, scope)
            return stmt
        if isinstance(stmt, While):
            self._cond(stmt.cond, scope)
            self._block(stmt.body, scope)
            return stmt
        if isinstance(stmt, For):
            inner = _Scope(scope)
            if stmt.init is not None:
                stmt.init = self._stmt(stmt.init, inner)
            if stmt.cond is not None:
                self._cond(stmt.cond, inner)
            if stmt.step is not None:
                stmt.step = self._stmt(stmt.step, inner)
            self._block(stmt.body, inner)
            return stmt
        if isinstance(stmt, Return):
            want = self._fn.return_type
            if stmt.value is None:
                if want != VOID:
                    raise SemanticError(
                        f"{self._fn.name}: missing return value"
                    )
            else:
                if want == VOID:
                    raise SemanticError(
                        f"{self._fn.name}: void function returns a value"
                    )
                self._expr(stmt.value, scope)
                stmt.value = _convert(stmt.value, want)
            return stmt
        if isinstance(stmt, ExprStmt):
            self._expr(stmt.expr, scope)
            return stmt
        raise SemanticError(f"unhandled statement {type(stmt).__name__}")

    def _cond(self, expr: Expr, scope: _Scope) -> None:
        ty = self._expr(expr, scope)
        if not isinstance(ty, IntType):
            raise SemanticError(
                "conditions must be integer-typed (use a comparison)"
            )

    # ------------------------------------------------------------------
    def _expr(self, expr: Expr, scope: _Scope) -> Type:
        if expr.ty is not None:
            return expr.ty
        ty = self._expr_inner(expr, scope)
        expr.ty = ty
        return ty

    def _expr_inner(self, expr: Expr, scope: _Scope) -> Type:
        if isinstance(expr, IntLit):
            return INT
        if isinstance(expr, FloatLit):
            return FLOAT
        if isinstance(expr, Var):
            return scope.lookup(expr.name)
        if isinstance(expr, Index):
            base_ty = self._expr(expr.base, scope)
            if isinstance(base_ty, VecType):
                if not isinstance(expr.index, IntLit):
                    raise SemanticError("vector lanes need constant indices")
                if not 0 <= expr.index.value < base_ty.lanes:
                    raise SemanticError(
                        f"lane {expr.index.value} out of range for {base_ty}"
                    )
                # Rewrite in place into a LaneRef.
                lane_ref = LaneRef(expr.base, expr.index.value)
                lane_ref.ty = base_ty.elem
                expr.__class__ = LaneRef
                expr.__dict__.clear()
                expr.__dict__.update(lane_ref.__dict__)
                return base_ty.elem
            if not isinstance(base_ty, PtrType):
                raise SemanticError(f"cannot index a {base_ty}")
            index_ty = self._expr(expr.index, scope)
            if not isinstance(index_ty, IntType):
                raise SemanticError("array indices must be integers")
            return base_ty.elem
        if isinstance(expr, LaneRef):
            base_ty = self._expr(expr.base, scope)
            return base_ty.elem
        if isinstance(expr, UnOp):
            operand_ty = self._expr(expr.operand, scope)
            if expr.op == "-":
                if not (isinstance(operand_ty, IntType) or is_float(operand_ty)
                        or is_vector(operand_ty)):
                    raise SemanticError(f"cannot negate {operand_ty}")
                return operand_ty
            if expr.op == "!":
                if not isinstance(operand_ty, IntType):
                    raise SemanticError("'!' needs an integer operand")
                return INT
            raise SemanticError(f"unknown unary operator {expr.op!r}")
        if isinstance(expr, BinOp):
            return self._binop(expr, scope)
        if isinstance(expr, Cast):
            self._expr(expr.operand, scope)
            src, dst = expr.operand.ty, expr.target
            scalar = (IntType, FloatType)
            if isinstance(src, scalar) and isinstance(dst, scalar):
                return dst
            if src == dst:
                return dst
            # Pointer reinterpretation, e.g. (float16v*)C for manual
            # vectorization over a scalar array.
            if isinstance(src, PtrType) and isinstance(dst, PtrType):
                return dst
            raise SemanticError(f"invalid cast from {src} to {dst}")
        if isinstance(expr, Call):
            return self._call(expr, scope)
        raise SemanticError(f"unhandled expression {type(expr).__name__}")

    def _binop(self, expr: BinOp, scope: _Scope) -> Type:
        left_ty = self._expr(expr.left, scope)
        right_ty = self._expr(expr.right, scope)
        op = expr.op
        if op in _LOGIC_OPS:
            if not (isinstance(left_ty, IntType)
                    and isinstance(right_ty, IntType)):
                raise SemanticError(f"{op!r} needs integer operands")
            return INT
        if op == "%":
            if not (isinstance(left_ty, IntType)
                    and isinstance(right_ty, IntType)):
                raise SemanticError("'%' needs integer operands")
            return INT
        if op in _ARITH_OPS:
            # Pointer arithmetic: ptr +/- int (and int + ptr), scaled by
            # the element size in codegen, as in C.
            if isinstance(left_ty, PtrType) and isinstance(right_ty, IntType):
                if op not in ("+", "-"):
                    raise SemanticError(f"{op!r} is not pointer arithmetic")
                return left_ty
            if (op == "+" and isinstance(left_ty, IntType)
                    and isinstance(right_ty, PtrType)):
                expr.left, expr.right = expr.right, expr.left
                return right_ty
            if is_vector(left_ty) or is_vector(right_ty):
                if left_ty == right_ty:
                    return left_ty
                # Vector op scalar-of-element-type: a broadcast, served
                # by the ``.r`` replicating instruction variants.  The
                # scalar must sit in rs2, so commutative ops commute.
                vec, scalar_side = (
                    (left_ty, "right") if is_vector(left_ty)
                    else (right_ty, "left")
                )
                scalar_expr = expr.right if scalar_side == "right" else expr.left
                if scalar_expr.ty == vec.elem or (
                    isinstance(scalar_expr.ty, (IntType, FloatType))
                    and can_convert(scalar_expr.ty, vec.elem)
                ):
                    converted = _convert(scalar_expr, vec.elem)
                    if scalar_side == "left":
                        if op not in ("+", "*"):
                            raise SemanticError(
                                f"broadcast scalar must be the right "
                                f"operand of {op!r}"
                            )
                        expr.left, expr.right = expr.right, converted
                    else:
                        expr.right = converted
                    expr.repl = True
                    return vec
                raise SemanticError(
                    f"vector arithmetic needs matching types "
                    f"({left_ty} vs {right_ty})"
                )
            try:
                common = promote(left_ty, right_ty)
            except TypeError_ as exc:
                raise SemanticError(str(exc)) from None
            expr.left = _convert(expr.left, common)
            expr.right = _convert(expr.right, common)
            return common
        if op in _CMP_OPS:
            if is_vector(left_ty) or is_vector(right_ty):
                raise SemanticError("vector comparisons are not supported "
                                    "in expressions")
            try:
                common = promote(left_ty, right_ty)
            except TypeError_ as exc:
                raise SemanticError(str(exc)) from None
            expr.left = _convert(expr.left, common)
            expr.right = _convert(expr.right, common)
            return INT
        raise SemanticError(f"unknown operator {op!r}")

    def _call(self, expr: Call, scope: _Scope) -> Type:
        intr = INTRINSICS.get(expr.name)
        if intr is None:
            raise SemanticError(f"unknown function or intrinsic {expr.name!r}")
        if len(expr.args) != len(intr.params):
            raise SemanticError(
                f"{expr.name} expects {len(intr.params)} arguments, "
                f"got {len(expr.args)}"
            )
        for index, (arg, want) in enumerate(zip(expr.args, intr.params)):
            self._expr(arg, scope)
            expr.args[index] = _convert(arg, want)
        return intr.result


def analyze(module: Module) -> Module:
    """Run semantic analysis, mutating and returning the module."""
    return Analyzer().analyze(module)
