"""The auto-vectorization pass (Section IV of the paper).

Transforms eligible innermost counted loops over smallFloat arrays into
packed-SIMD loops plus a scalar epilogue.  The pass deliberately mirrors
the code-generation strategy of the paper's extended GCC auto-vectorizer,
*including its documented inefficiencies*:

* reductions are implemented by unpacking vector lanes with shifts and
  scalar conversions (the ``vfmul.h / srli / fcvt.s.h / fadd.s`` pattern
  on the left of paper Fig. 5) rather than the Xfaux expanding dot
  product a human would write;
* the scalar epilogue loop always remains, which is what "creates
  significant additional overhead to handle the prologue/epilogue loops"
  for triangular nested loops (Section V-B).

Eligibility for one innermost ``for (v = init; v < limit; v = v + 1)``:

* the body is straight-line assignments (no control flow);
* every array access is stride-1 in the induction variable and every
  vectorized operand shares one smallFloat element type;
* loop-invariant scalars and literals may appear as broadcast operands
  (codegen uses the ``.r`` replicating instruction variants);
* reductions accumulate a vectorizable product chain into a scalar.

Arrays are assumed non-aliasing (C ``restrict`` semantics), as in the
paper's benchmark builds.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from .astnodes import (
    Assign,
    BinOp,
    Block,
    Call,
    Cast,
    Decl,
    Expr,
    FloatLit,
    For,
    If,
    Index,
    IntLit,
    LaneRef,
    Module,
    Stmt,
    UnOp,
    Var,
    While,
)
from .typesys import (
    FLOAT,
    INT,
    FloatType,
    IntType,
    Type,
    VEC_OF,
    VecType,
    is_float,
)

def _vectorizable(name: str) -> bool:
    """A scalar type is vectorizable iff it has a derived vector type
    (sub-32-bit lanes and a format with packed-SIMD instruction forms)."""
    from .typesys import TYPE_KEYWORDS

    ty = TYPE_KEYWORDS.get(name)
    return isinstance(ty, FloatType) and ty in VEC_OF


def _dotp_intrinsic(vec_ty: VecType):
    """The expanding dot-product intrinsic taking two ``vec_ty`` vectors
    into a binary32 accumulator, or None if the format has no such op."""
    from .intrinsics import INTRINSICS

    for intr in INTRINSICS.values():
        if (intr.style == "dotp" and len(intr.params) == 3
                and intr.params[0] == FLOAT
                and intr.params[1] == vec_ty and intr.params[2] == vec_ty):
            return intr
    return None


@dataclass
class VectorizeReport:
    """What the pass did, for diagnostics and tests."""

    vectorized_loops: int = 0
    rejected_loops: int = 0


# ----------------------------------------------------------------------
# Analysis helpers
# ----------------------------------------------------------------------
def _vars_in(expr: Expr, out: Set[str]) -> None:
    if isinstance(expr, Var):
        out.add(expr.name)
    elif isinstance(expr, Index):
        _vars_in(expr.base, out)
        _vars_in(expr.index, out)
    elif isinstance(expr, LaneRef):
        _vars_in(expr.base, out)
    elif isinstance(expr, BinOp):
        _vars_in(expr.left, out)
        _vars_in(expr.right, out)
    elif isinstance(expr, UnOp):
        _vars_in(expr.operand, out)
    elif isinstance(expr, Cast):
        _vars_in(expr.operand, out)
    elif isinstance(expr, Call):
        for arg in expr.args:
            _vars_in(arg, out)


def _assigned_names(body: Block) -> Set[str]:
    names: Set[str] = set()
    for stmt in body.stmts:
        if isinstance(stmt, Assign) and isinstance(stmt.target, Var):
            names.add(stmt.target.name)
        if isinstance(stmt, Decl):
            names.add(stmt.name)
    return names


def _is_invariant(expr: Expr, loop_var: str, mutated: Set[str]) -> bool:
    """Loop-invariant: no induction var, no mutated vars, no loads."""
    if isinstance(expr, (IntLit, FloatLit)):
        return True
    if isinstance(expr, Var):
        return expr.name != loop_var and expr.name not in mutated
    if isinstance(expr, BinOp):
        return (_is_invariant(expr.left, loop_var, mutated)
                and _is_invariant(expr.right, loop_var, mutated))
    if isinstance(expr, UnOp):
        return _is_invariant(expr.operand, loop_var, mutated)
    if isinstance(expr, Cast):
        return _is_invariant(expr.operand, loop_var, mutated)
    return False


def _stride(index: Expr, loop_var: str, mutated: Set[str]) -> Optional[int]:
    """Coefficient of the induction variable in a linear index, or None."""
    if isinstance(index, Var) and index.name == loop_var:
        return 1
    if _is_invariant(index, loop_var, mutated):
        return 0
    if isinstance(index, BinOp) and index.op == "+":
        left = _stride(index.left, loop_var, mutated)
        right = _stride(index.right, loop_var, mutated)
        if left is None or right is None:
            return None
        return left + right
    if isinstance(index, BinOp) and index.op == "-":
        left = _stride(index.left, loop_var, mutated)
        right = _stride(index.right, loop_var, mutated)
        if left is None or right != 0:
            return None
        return left
    return None


# ----------------------------------------------------------------------
# The pass
# ----------------------------------------------------------------------
class _Rejected(Exception):
    """Internal: this loop cannot be vectorized."""


class Vectorizer:
    def __init__(self, expanding: bool = False):
        self.report = VectorizeReport()
        self.expanding = expanding
        self._tmp_counter = 0

    # ------------------------------------------------------------------
    def run(self, module: Module) -> VectorizeReport:
        for fn in module.functions:
            self._block(fn.body)
        return self.report

    def _block(self, block: Block) -> None:
        out: List[Stmt] = []
        for stmt in block.stmts:
            out.extend(self._stmt(stmt))
        block.stmts = out

    def _stmt(self, stmt: Stmt) -> List[Stmt]:
        if isinstance(stmt, Block):
            self._block(stmt)
            return [stmt]
        if isinstance(stmt, If):
            self._block(stmt.then)
            if stmt.otherwise is not None:
                self._block(stmt.otherwise)
            return [stmt]
        if isinstance(stmt, While):
            self._block(stmt.body)
            return [stmt]
        if isinstance(stmt, For):
            if self._is_innermost(stmt):
                replacement = self._try_vectorize(stmt)
                if replacement is not None:
                    self.report.vectorized_loops += 1
                    return replacement
                self.report.rejected_loops += 1
                return [stmt]
            self._block(stmt.body)
            return [stmt]
        return [stmt]

    @staticmethod
    def _is_innermost(loop: For) -> bool:
        return not any(isinstance(s, (For, While, If, Block))
                       for s in loop.body.stmts)

    # ------------------------------------------------------------------
    def _try_vectorize(self, loop: For) -> Optional[List[Stmt]]:
        try:
            return self._vectorize(loop)
        except _Rejected:
            return None

    def _vectorize(self, loop: For) -> List[Stmt]:
        loop_var, init_expr = self._canonical_induction(loop)
        if loop.cond is None or not (
            isinstance(loop.cond, BinOp) and loop.cond.op == "<"
            and isinstance(loop.cond.left, Var)
            and loop.cond.left.name == loop_var
        ):
            raise _Rejected
        limit = loop.cond.right
        mutated = _assigned_names(loop.body) | {loop_var}
        if not _is_invariant(limit, loop_var, mutated - {loop_var}):
            raise _Rejected

        mutated_wo_loopvar = mutated - {loop_var}

        # Determine the element type and build the vector body.
        elem_ty = self._find_element_type(loop.body, loop_var,
                                          mutated_wo_loopvar)
        vec_ty = VEC_OF[elem_ty]
        vf = vec_ty.lanes

        vec_body: List[Stmt] = []
        for stmt in loop.body.stmts:
            vec_body.extend(
                self._vectorize_stmt(stmt, loop_var, mutated_wo_loopvar,
                                     elem_ty, vec_ty)
            )

        # Assemble: hoisted induction + limit, vector loop, epilogue.
        out: List[Stmt] = []
        induction_decl = Decl(loop_var, INT, init_expr)
        out.append(induction_decl)

        vlimit_name = self._fresh("vlimit")
        vlimit_expr = BinOp("-", copy.deepcopy(limit), _int_lit(vf - 1))
        vlimit_expr.ty = INT
        vlimit_expr.left.ty = INT
        out.append(Decl(vlimit_name, INT, vlimit_expr))

        vec_cond = _cmp_lt(_var(loop_var, INT), _var(vlimit_name, INT))
        vec_step = _increment(loop_var, vf)
        out.append(For(None, vec_cond, vec_step, Block(vec_body)))

        epi_cond = _cmp_lt(_var(loop_var, INT), copy.deepcopy(limit))
        epi_step = _increment(loop_var, 1)
        out.append(For(None, epi_cond, epi_step,
                       Block(copy.deepcopy(loop.body.stmts))))
        return out

    def _canonical_induction(self, loop: For) -> Tuple[str, Expr]:
        """Extract (var, init) from ``for (v = e; ...; v = v + 1)``."""
        init = loop.init
        if isinstance(init, Decl) and isinstance(init.ty, IntType):
            name, init_expr = init.name, init.init or _int_lit(0)
        elif (isinstance(init, Assign) and isinstance(init.target, Var)
              and isinstance(init.target.ty, IntType)):
            name, init_expr = init.target.name, init.value
        else:
            raise _Rejected
        step = loop.step
        if not (
            isinstance(step, Assign) and isinstance(step.target, Var)
            and step.target.name == name
            and isinstance(step.value, BinOp) and step.value.op == "+"
            and isinstance(step.value.left, Var)
            and step.value.left.name == name
            and isinstance(step.value.right, IntLit)
            and step.value.right.value == 1
        ):
            raise _Rejected
        return name, init_expr

    # ------------------------------------------------------------------
    def _find_element_type(self, body: Block, loop_var: str,
                           mutated: Set[str]) -> FloatType:
        """All stride-1 accesses must share one smallFloat type."""
        found: Set[str] = set()

        def walk(expr: Expr) -> None:
            if isinstance(expr, Index):
                if isinstance(expr.ty, FloatType):
                    found.add(expr.ty.name)
                walk(expr.index)
            elif isinstance(expr, BinOp):
                walk(expr.left)
                walk(expr.right)
            elif isinstance(expr, (UnOp, Cast)):
                walk(expr.operand if isinstance(expr, UnOp) else expr.operand)
            elif isinstance(expr, Call):
                raise _Rejected  # intrinsics mean manual code; leave it

        for stmt in body.stmts:
            if isinstance(stmt, Assign):
                walk(stmt.target)
                walk(stmt.value)
            elif isinstance(stmt, Decl) and stmt.init is not None:
                walk(stmt.init)
            else:
                raise _Rejected
        if len(found) != 1:
            raise _Rejected
        name = found.pop()
        if not _vectorizable(name):
            raise _Rejected
        from .typesys import TYPE_KEYWORDS

        return TYPE_KEYWORDS[name]

    # ------------------------------------------------------------------
    def _vectorize_stmt(self, stmt: Stmt, loop_var: str, mutated: Set[str],
                        elem_ty: FloatType, vec_ty: VecType) -> List[Stmt]:
        if isinstance(stmt, Assign) and isinstance(stmt.target, Index):
            target = self._vec_index(stmt.target, loop_var, mutated, elem_ty,
                                     vec_ty)
            kind, value = self._vec_expr(stmt.value, loop_var, mutated,
                                         elem_ty, vec_ty)
            if kind != "vec":
                # A constant store broadcasts for free: the packed
                # literal is materialized with a single li.
                if isinstance(value, FloatLit):
                    value.ty = vec_ty
                    kind = "vec"
                else:
                    raise _Rejected
            return [Assign(target, value)]
        if (isinstance(stmt, Assign) and isinstance(stmt.target, Var)
                and stmt.target.name not in (loop_var,)):
            return self._vectorize_reduction(stmt, loop_var, mutated, elem_ty,
                                             vec_ty)
        raise _Rejected

    def _vectorize_reduction(self, stmt: Assign, loop_var: str,
                             mutated: Set[str], elem_ty: FloatType,
                             vec_ty: VecType) -> List[Stmt]:
        """``acc = acc + <vectorizable>`` -> multiply-then-unpack lanes.

        This is the auto-vectorizer's documented inefficiency: each lane
        is extracted (``srli``), converted (``fcvt.s.h``) and accumulated
        with a scalar add, instead of one ``vfdotpex``.
        """
        acc = stmt.target
        value = stmt.value
        if not (isinstance(value, BinOp) and value.op == "+"):
            raise _Rejected
        if not (isinstance(value.left, Var) and value.left.name == acc.name):
            raise _Rejected
        acc_ty = acc.ty
        if not is_float(acc_ty):
            raise _Rejected
        contribution = value.right
        # The accumulated term may carry an implicit widening cast
        # (float16 product assigned to a float accumulator).
        if isinstance(contribution, Cast) and contribution.implicit:
            contribution = contribution.operand
        expanded = self._try_expanding_dotp(acc, contribution, loop_var,
                                            mutated, elem_ty, vec_ty)
        if expanded is not None:
            return expanded
        kind, vec_value = self._vec_expr(contribution, loop_var, mutated,
                                         elem_ty, vec_ty)
        if kind != "vec":
            raise _Rejected

        tmp_name = self._fresh("vred")
        stmts: List[Stmt] = [Decl(tmp_name, vec_ty, vec_value)]
        for lane in range(vec_ty.lanes):
            lane_ref = LaneRef(_var(tmp_name, vec_ty), lane)
            lane_ref.ty = elem_ty
            term: Expr = lane_ref
            if acc_ty != elem_ty:
                term = Cast(acc_ty, lane_ref, implicit=True)
                term.ty = acc_ty
            add = BinOp("+", _var(acc.name, acc_ty), term)
            add.ty = acc_ty
            stmts.append(Assign(_var(acc.name, acc_ty), add))
        return stmts

    def _try_expanding_dotp(self, acc, contribution, loop_var: str,
                            mutated: Set[str], elem_ty: FloatType,
                            vec_ty: VecType) -> Optional[List[Stmt]]:
        """``acc += a[i] * b[i]`` with a binary32 accumulator -> one
        ``vfdotpex.s.*`` per vector step (the Xfaux form a human would
        write), when the pass runs with ``expanding_reductions``.

        Only engaged opt-in: the default pass keeps the paper's
        documented multiply-then-unpack inefficiency, which Fig. 5 and
        the committed baselines measure.
        """
        if not self.expanding or acc.ty != FLOAT:
            return None
        if not (isinstance(contribution, BinOp) and contribution.op == "*"):
            return None
        intr = _dotp_intrinsic(vec_ty)
        if intr is None:
            return None
        try:
            lkind, left = self._vec_expr(contribution.left, loop_var,
                                         mutated, elem_ty, vec_ty)
            rkind, right = self._vec_expr(contribution.right, loop_var,
                                          mutated, elem_ty, vec_ty)
        except _Rejected:
            return None
        if lkind != "vec" or rkind != "vec":
            return None  # broadcast operands have no dotp form
        call = Call(intr.name, [_var(acc.name, FLOAT), left, right])
        call.ty = FLOAT
        return [Assign(_var(acc.name, FLOAT), call)]

    # ------------------------------------------------------------------
    def _vec_index(self, expr: Index, loop_var: str, mutated: Set[str],
                   elem_ty: FloatType, vec_ty: VecType) -> Index:
        if expr.ty != elem_ty:
            raise _Rejected
        if _stride(expr.index, loop_var, mutated) != 1:
            raise _Rejected
        clone = copy.deepcopy(expr)
        clone.ty = vec_ty
        return clone

    def _vec_expr(self, expr: Expr, loop_var: str, mutated: Set[str],
                  elem_ty: FloatType, vec_ty: VecType
                  ) -> Tuple[str, Expr]:
        """Returns ('vec', node) or ('scalar', node).

        Scalar results are loop-invariant values of the element type,
        legal only as broadcast (``.r``) operands.
        """
        if isinstance(expr, Index):
            return "vec", self._vec_index(expr, loop_var, mutated, elem_ty,
                                          vec_ty)
        if isinstance(expr, (Var, FloatLit)):
            if expr.ty != elem_ty:
                raise _Rejected
            if not _is_invariant(expr, loop_var, mutated):
                raise _Rejected
            return "scalar", copy.deepcopy(expr)
        if isinstance(expr, Cast):
            # Only implicit no-op casts survive constant folding here.
            raise _Rejected
        if isinstance(expr, UnOp) and expr.op == "-":
            kind, operand = self._vec_expr(expr.operand, loop_var, mutated,
                                           elem_ty, vec_ty)
            node = UnOp("-", operand)
            node.ty = vec_ty if kind == "vec" else elem_ty
            return kind, node
        if isinstance(expr, BinOp) and expr.op in ("+", "-", "*", "/"):
            lkind, left = self._vec_expr(expr.left, loop_var, mutated,
                                         elem_ty, vec_ty)
            rkind, right = self._vec_expr(expr.right, loop_var, mutated,
                                          elem_ty, vec_ty)
            if lkind == rkind == "scalar":
                node = BinOp(expr.op, left, right)
                node.ty = elem_ty
                return "scalar", node
            if lkind == "scalar":
                if expr.op in ("+", "*"):
                    left, right = right, left  # commute: scalar to rs2
                    lkind, rkind = rkind, lkind
                else:
                    raise _Rejected  # scalar - vec / scalar / vec: no .r form
            node = BinOp(expr.op, left, right, repl=(rkind == "scalar"))
            node.ty = vec_ty
            return "vec", node
        raise _Rejected

    def _fresh(self, hint: str) -> str:
        self._tmp_counter += 1
        return f"__{hint}_{self._tmp_counter}"


# ----------------------------------------------------------------------
# Small typed-node constructors
# ----------------------------------------------------------------------
def _int_lit(value: int) -> IntLit:
    node = IntLit(value)
    node.ty = INT
    return node


def _var(name: str, ty: Type) -> Var:
    node = Var(name)
    node.ty = ty
    return node


def _cmp_lt(left: Expr, right: Expr) -> BinOp:
    node = BinOp("<", left, right)
    node.ty = INT
    return node


def _increment(name: str, amount: int) -> Assign:
    add = BinOp("+", _var(name, INT), _int_lit(amount))
    add.ty = INT
    return Assign(_var(name, INT), add)


def vectorize(module: Module, expanding: bool = False) -> VectorizeReport:
    """Run the auto-vectorizer over a type-checked module.

    ``expanding`` additionally rewrites binary32-accumulator reductions
    over smallFloat products into the Xfaux expanding dot product
    (``vfdotpex.s.*``) instead of the multiply-then-unpack pattern.
    """
    return Vectorizer(expanding=expanding).run(module)
