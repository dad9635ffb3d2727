"""The compile() driver: source text -> assembled Program.

Mirrors the paper's three build configurations:

* ``vectorize=False`` -- scalar code (possibly using smallFloat scalar
  instructions, depending on the source's types);
* ``vectorize=True``  -- the auto-vectorizer pass rewrites eligible
  loops (Section IV);
* manual vectorization needs no flag: the programmer writes vector
  types and intrinsics directly (Fig. 5 right).

Like the paper's flow, which builds each benchmark once per (type,
vectorization) and then runs that binary many times, every distinct
program is compiled (and linted) once per process: ``compile_source``
memoizes its results in a bounded LRU.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

from ..isa.assembler import DATA_BASE, TEXT_BASE, Program, assemble
from .astnodes import Module
from .codegen import generate
from .optimize import fold_constants
from .parser import parse
from .semantic import analyze
from .vectorize import VectorizeReport, vectorize


@dataclass
class CompiledKernel:
    """The result of compiling one translation unit."""

    asm: str
    program: Program
    module: Module
    vector_report: Optional[VectorizeReport] = None
    #: Static-analysis result over the assembled output (populated when
    #: compiling with ``lint=True``, the default).  Typed loosely to
    #: keep the compiler importable without the analysis package.
    lint_result: Optional[object] = None

    def entry(self, name: str) -> int:
        """Address of a compiled function."""
        return self.program.address_of(name)

    @property
    def lint_findings(self) -> list:
        """Lint findings from compilation ([] when linting was off)."""
        if self.lint_result is None:
            return []
        return list(self.lint_result.findings)


#: Distinct programs kept per process; the least recently used entry
#: is dropped past this bound.
COMPILE_CACHE_SIZE = 256


class CompileCacheInfo(NamedTuple):
    """Counters of the :func:`compile_source` cache."""

    hits: int       #: calls answered from a cached entry
    misses: int     #: calls that ran parse -> assemble
    entries: int    #: programs held now
    lints: int      #: lint runs (at most one per entry)
    maxsize: int    #: the entry bound, :data:`COMPILE_CACHE_SIZE`


class _Entry:
    """One cached compile: filled under ``lock`` by the first caller."""

    __slots__ = ("lock", "plain", "linted")

    def __init__(self):
        self.lock = threading.Lock()
        self.plain: Optional[CompiledKernel] = None   # lint_result None
        self.linted: Optional[CompiledKernel] = None  # lint_result set


_cache: "OrderedDict[tuple, _Entry]" = OrderedDict()
_cache_lock = threading.Lock()
_counts = {"hits": 0, "misses": 0, "lints": 0}


def compile_cache_info() -> CompileCacheInfo:
    """Hit, miss, entry and lint-run counts of :func:`compile_source`."""
    with _cache_lock:
        return CompileCacheInfo(entries=len(_cache),
                                maxsize=COMPILE_CACHE_SIZE, **_counts)


def compile_cache_clear() -> None:
    """Drop every cached program and zero the counters."""
    with _cache_lock:
        _cache.clear()
        _counts.update(dict.fromkeys(_counts, 0))


def _count(name: str) -> None:
    with _cache_lock:
        _counts[name] += 1


def _entry_for(key: tuple) -> _Entry:
    """The entry for ``key``, created (and the LRU trimmed) if absent."""
    with _cache_lock:
        entry = _cache.get(key)
        if entry is None:
            entry = _cache[key] = _Entry()
            while len(_cache) > COMPILE_CACHE_SIZE:
                _cache.popitem(last=False)
        else:
            _cache.move_to_end(key)
        return entry


def _drop(key: tuple, entry: _Entry) -> None:
    with _cache_lock:
        if _cache.get(key) is entry:
            del _cache[key]


def _compile(source: str, vectorize_loops: bool, text_base: int,
             data_base: int, expanding_reductions: bool) -> CompiledKernel:
    """parse -> semantic -> (vectorize) -> codegen -> assemble."""
    module = parse(source)
    analyze(module)
    fold_constants(module)
    report = None
    if vectorize_loops:
        report = vectorize(module, expanding=expanding_reductions)
    asm = "\n".join(generate(fn) for fn in module.functions)
    program = assemble(asm, text_base=text_base, data_base=data_base)
    return CompiledKernel(asm=asm, program=program, module=module,
                          vector_report=report)


def compile_source(
    source: str,
    vectorize_loops: bool = False,
    text_base: int = TEXT_BASE,
    data_base: int = DATA_BASE,
    lint: bool = True,
    expanding_reductions: bool = False,
) -> CompiledKernel:
    """Compile kernel source down to an assembled program.

    With ``lint=True`` (the default) the static analyzer runs over the
    assembled output and its findings ride along on
    :attr:`CompiledKernel.lint_result`; compiled code should be clean,
    so anything it reports points at a codegen regression.  With
    ``lint=False`` the result's ``lint_result`` is always ``None``.

    ``expanding_reductions`` upgrades the auto-vectorizer's reduction
    strategy from multiply-then-unpack to the Xfaux expanding dot
    product for binary32 accumulators (only meaningful together with
    ``vectorize_loops``; the default keeps the paper's GCC behaviour).

    Results are memoized per process, keyed on everything the compile
    reads: ``(source, vectorize_loops, expanding_reductions, text_base,
    data_base)``.  Each distinct key is compiled once, linted at most
    once (by the first ``lint=True`` caller), and kept in an LRU of
    :data:`COMPILE_CACHE_SIZE` entries; concurrent callers of one key
    wait for a single compile.  A source that fails to compile is not
    cached and raises on every call.  The returned kernel -- its
    ``program``, ``module``, ``vector_report`` and ``lint_result`` -- is
    shared by every caller of the key and must be treated as read-only:
    :meth:`repro.sim.Simulator.load` copies text and data into the
    machine's memory, so runs (and fault flips, which hit that memory)
    never write to it.  :func:`compile_cache_info` reports the counters.
    """
    key = (source, vectorize_loops, expanding_reductions, text_base,
           data_base)
    entry = _entry_for(key)
    with entry.lock:
        if entry.plain is None:
            try:
                entry.plain = _compile(source, vectorize_loops, text_base,
                                       data_base, expanding_reductions)
            except BaseException:
                _drop(key, entry)
                raise
            finally:
                _count("misses")
        else:
            _count("hits")
        if not lint:
            return entry.plain
        if entry.linted is None:
            # Imported here: the analysis package depends on repro.isa
            # only, but keeping the compiler core import-light is still
            # worthwhile.
            from ..analysis.lints import lint_program

            kernel = entry.plain
            entry.linted = replace(kernel, lint_result=lint_program(
                kernel.program, vector_report=kernel.vector_report,
                source=kernel.asm))
            _count("lints")
        return entry.linted
