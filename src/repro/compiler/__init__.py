"""Kernel compiler with smallFloat type-system and vector support.

The GCC-extension substitute (paper Section IV): a C-subset compiler
exposing ``float16`` / ``float16alt`` / ``float8`` keywords, extended
conversion rules, an auto-vectorization pass and intrinsics for the
Xfvec / Xfaux instructions.
"""

from .astnodes import Module
from .codegen import CodegenError, generate
from .intrinsics import INTRINSICS, Intrinsic, lookup_intrinsic
from .lexer import LexError, tokenize
from .optimize import fold_constants
from .parser import ParseError, parse
from .pipeline import (
    COMPILE_CACHE_SIZE,
    CompileCacheInfo,
    CompiledKernel,
    compile_cache_clear,
    compile_cache_info,
    compile_source,
)
from .semantic import SemanticError, analyze
from .typesys import (
    FLOAT,
    FLOAT8,
    FLOAT8V,
    FLOAT16,
    FLOAT16ALT,
    FLOAT16V,
    INT,
    TypeError_,
)
from .vectorize import VectorizeReport, vectorize

__all__ = [
    "Module",
    "CodegenError",
    "generate",
    "INTRINSICS",
    "Intrinsic",
    "lookup_intrinsic",
    "LexError",
    "tokenize",
    "fold_constants",
    "ParseError",
    "parse",
    "COMPILE_CACHE_SIZE",
    "CompileCacheInfo",
    "CompiledKernel",
    "compile_cache_clear",
    "compile_cache_info",
    "compile_source",
    "SemanticError",
    "analyze",
    "FLOAT",
    "FLOAT8",
    "FLOAT8V",
    "FLOAT16",
    "FLOAT16ALT",
    "FLOAT16V",
    "INT",
    "TypeError_",
    "VectorizeReport",
    "vectorize",
]
