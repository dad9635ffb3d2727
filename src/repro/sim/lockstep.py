"""Batched lockstep execution engine.

Runs N sweep points ("lanes") of the *same program* simultaneously.  All
lanes of a batch sit at the same PC and execute the same instruction
stream; only data differs between lanes, held as numpy arrays along the
batch axis (or plain python ints while still uniform).  Counters
(``cycles``, ``instret``, per-block execution counts) are kept uniform as
plain ints while every lane shares one history and promoted to per-lane
arrays after batches with different histories re-converge.

Dispatch reuses the predecoded basic blocks of :mod:`repro.sim.blocks`:
each block is bound once into a list of batched entry closures plus a
terminator, then executed once per batch instead of once per point.
Every kind binds from its :mod:`repro.sim.semantics` row, one binder per
operand shape: uniform operands take the row's scalar compute once,
divergent ones the row's numpy batch form where it has one (for FP,
:mod:`repro.fp.batch`: exact flags for binary32 and every format of 16
bits or less under RNE, and for the IEEE formats under every rounding
mode, stochastic rounding keyed per lane included),
and everything else runs lanewise over the same scalar compute.

Divergence (different branch outcomes) splits a batch into sub-batches.
Live batches are scheduled min-PC-first off a heap; batches that meet at
the same PC are merged back into one ("re-convergence"), so short
data-dependent diamonds -- an ``if (x > best)`` update inside a loop --
cost two scheduler round-trips instead of fragmenting the batch for good.
Lanes that cannot continue in lockstep at all (traps, budget exhaustion,
reserved rounding modes, unsupported situations) are *drained*: their
state is materialized into a fresh scalar
:class:`~repro.sim.simulator.Simulator` which resumes execution on the
existing fast path.  A dispatch costs about the same at any width, so
in a run no wider than :data:`LOCKSTEP_MIN_WIDTH`, a sub-batch that a
split left narrower than the run drains too, at the block boundary
where it is popped, when its rounding mode is one whose serial lanes
round on the scalar face (:data:`SCALAR_FACE_MODES`, RNE): it could
not re-merge into a batch that beats its serial runs, so its lanes
finish faster one after another.  A run that never splits, and a run
wider than that width, keeps every sub-batch in lockstep.
:attr:`LockstepEngine.events` counts splits, merges and drains by
reason.  The contract is bit-identical per point: traces
(including Counter insertion order), registers, memory, fcsr, exit reason
and detail strings match a per-point run exactly.
"""

from __future__ import annotations

import heapq
from collections import Counter
from typing import Dict, List, Optional

import numpy as np

from ..fp import batch as fpbatch
from ..fp.flags import GuestIllegal
from ..fp.rounding import RoundingMode, set_sr_key
from .blocks import expand_records
from .csr import (CSR_CYCLE, CSR_CYCLEH, CSR_FCSR, CSR_FFLAGS, CSR_FRM,
                  CSR_INSTRET, CSR_INSTRETH, CSR_MHARTID, MASK32, CsrFile,
                  _RM_BY_VALUE)
from .executor import GUEST_FAULTS
from .semantics import (SEMANTICS, access_size, bind_in_xregs, formats,
                        static_rm)
from .simulator import (HALT_ADDRESS, STACK_TOP, RunResult, SimulationError,
                        Simulator)
from .tracer import Trace

_SENTINEL = HALT_ADDRESS
_U32 = np.uint32
_U8 = np.uint8

#: Narrowest batch that runs in lockstep: a run of fewer lanes, or a
#: sub-batch a split left narrower than a run no wider than this (see
#: :data:`SCALAR_FACE_MODES`), runs its lanes one after another on the
#: block engine.  Measured on a 2-vCPU VM, one process, min of 3 runs
#: of lockstep wall over serial block-engine wall (below 1, lockstep
#: wins):
#:
#:   config                    w=2    w=4   w=8   w=16  w=24  w=32
#:   atax float16 auto         7.48   3.33  2.03  1.19  0.80  0.58
#:   gemm float16 auto         9.23   4.64  2.44  1.31  0.90  0.72
#:   svm float16 auto          1.20   1.01  1.08  1.04  0.96  0.95
#:   syrk float8 manual        9.61   4.90  2.64  1.39  0.99  0.65
#:   nn_softmax posit16 auto   7.85   4.17  2.20  1.12  0.77  0.53
#:
#: Most configs cross between 16 and 24 lanes, gemm near 24, so batches
#: start at 32.  svm splits on its first sample at any width and then
#: runs on the block engine.  Under RNE, a split rule bounding only the
#: sub-batch at 8, 16, 24 or 32 lanes read the same within noise in
#: 32-lane runs (``docs/performance.md``), so one width serves both
#: rules.
#: ``benchmarks/bench_host_perf.py`` gates the gemm and svm rows.
LOCKSTEP_MIN_WIDTH = 32

#: Dynamic rounding modes whose serial lanes round on ``fp/batch``'s
#: scalar face.  Under these a sub-batch that a split left narrower
#: than a run of at most :data:`LOCKSTEP_MIN_WIDTH` lanes drains to the
#: block engine; under the others (stochastic and directed rounding)
#: the serial path is the softfloat core, and keeping narrow
#: sub-batches to re-merge costs less.
SCALAR_FACE_MODES = frozenset({RoundingMode.RNE})


class _Drain(Exception):
    """Raised by a binder when the batch cannot continue in lockstep.

    Must be raised *before* any batch state is mutated: the drain path
    re-executes the faulting instruction per lane on a fresh scalar
    simulator, so partial batched effects would double-apply.
    """


class _SplitMask:
    """Returned by a branch terminator when lanes diverge."""

    __slots__ = ("mask", "target")

    def __init__(self, mask: np.ndarray, target: int) -> None:
        self.mask = mask          # True = branch taken
        self.target = target


def _is_uniform(v) -> bool:
    return type(v) is int


def _devec(v):
    """Collapse a vector back to a python int if all lanes agree."""
    if type(v) is int:
        return v
    if v.size and (v == v[0]).all():
        return int(v[0])
    return v


_PAGE_BITS = 12
_PAGE_SIZE = 1 << _PAGE_BITS
_PAGE_MASK = _PAGE_SIZE - 1

_U16 = np.uint16


def _compose(chunk: np.ndarray, size: int) -> np.ndarray:
    """Little-endian compose a (b, size) uint8 byte block into (b,)
    uint32 values (sizes 1/2/4 reinterpret in place; odd sizes -- page
    straddle fragments -- fold byte by byte)."""
    if size == 4:
        return np.ascontiguousarray(chunk).view(_U32).ravel()
    if size == 2:
        return np.ascontiguousarray(chunk).view(_U16).ravel().astype(_U32)
    if size == 1:
        return chunk.ravel().astype(_U32)
    v = np.zeros(chunk.shape[0], dtype=_U32)
    for k in range(size):
        v |= chunk[:, k].astype(_U32) << _U32(8 * k)
    return v


def _decompose(value, size: int):
    """Value (int or (b,) uint32) -> little-endian uint8 byte rows that
    broadcast against a (b, size) destination."""
    if type(value) is int:
        return np.frombuffer(value.to_bytes(size, "little"), dtype=_U8)
    return np.ascontiguousarray(value).view(_U8).reshape(-1, 4)[:, :size]


class BatchMemory:
    """Sparse paged memory shared by *all* lanes of a lockstep run.

    Pages start as shared ``bytearray`` copies of the template machine's
    memory (uniform across lanes) and are promoted to ``(n, 4096)`` uint8
    arrays on the first divergent write.  Sub-batches address their rows
    through a global lane-index array (``idx``; ``None`` means the root
    batch covering every lane in order), so splitting and re-merging
    batches never copies memory.
    """

    def __init__(self, n: int, template_pages: Dict[int, bytearray]) -> None:
        self.n = n
        self.pages: Dict[int, object] = {
            pno: bytearray(pg) for pno, pg in template_pages.items()
        }
        self._all_lanes = np.arange(n)

    # -- helpers -----------------------------------------------------------

    def _promote(self, pno: int) -> np.ndarray:
        pg = self.pages.get(pno)
        if isinstance(pg, np.ndarray):
            return pg
        if pg is None:
            arr = np.zeros((self.n, _PAGE_SIZE), dtype=_U8)
        else:
            arr = np.tile(np.frombuffer(bytes(pg), dtype=_U8), (self.n, 1))
        self.pages[pno] = arr
        return arr

    # -- reads -------------------------------------------------------------

    def read(self, addr: int, size: int, idx=None):
        """Read ``size`` bytes at a uniform address for the lanes ``idx``
        (``None`` = every lane).

        Returns an int when the bytes are uniform across the addressed
        lanes, else a uint32 array of shape (len(idx),).
        """
        if addr + size > 1 << 32:
            raise _Drain()
        pno = addr >> _PAGE_BITS
        off = addr & _PAGE_MASK
        if off + size <= _PAGE_SIZE:
            pg = self.pages.get(pno)
            if pg is None:
                return 0
            if isinstance(pg, bytearray):
                return int.from_bytes(pg[off:off + size], "little")
            chunk = (pg[:, off:off + size] if idx is None
                     else pg[idx, off:off + size])
            return _devec(_compose(chunk, size))
        lo_sz = _PAGE_SIZE - off
        lo = self.read(addr, lo_sz, idx)
        hi = self.read(addr + lo_sz, size - lo_sz, idx)
        if _is_uniform(lo) and _is_uniform(hi):
            return lo | hi << (8 * lo_sz)
        b = self.n if idx is None else idx.size
        lo_v = lo if not _is_uniform(lo) else np.full(b, lo, dtype=_U32)
        hi_v = hi if not _is_uniform(hi) else np.full(b, hi, dtype=_U32)
        return lo_v | hi_v << _U32(8 * lo_sz)

    def gather(self, addrs: np.ndarray, size: int, idx=None):
        """Per-lane reads at divergent addresses.

        ``addrs`` is a (b,) uint32 array, one address per addressed lane
        (``idx``; ``None`` = every lane).  Returns the composed values,
        collapsed to an int when they happen to be uniform.
        """
        if int(addrs.max()) + size > 1 << 32:
            raise _Drain()  # some lane faults: scalar core raises it
        lanes = self._all_lanes if idx is None else idx
        offs = addrs & _U32(_PAGE_MASK)
        if int(offs.max()) + size <= _PAGE_SIZE:
            pnos = addrs >> _U32(_PAGE_BITS)
            if (pnos == pnos[0]).all():
                pg = self.pages.get(int(pnos[0]))
                if pg is None:
                    return 0
                cols = offs[:, None] + np.arange(size, dtype=_U32)
                if isinstance(pg, bytearray):
                    chunk = np.frombuffer(pg, dtype=_U8)[cols]
                else:
                    chunk = pg[lanes[:, None], cols]
                return _devec(_compose(chunk, size))
        # Lanes straddle pages (or an element crosses a page boundary):
        # resolve byte-by-byte, grouping lanes by page.
        out = np.zeros(addrs.size, dtype=_U32)
        a64 = addrs.astype(np.int64)
        for k in range(size):
            a = a64 + k
            pk = a >> _PAGE_BITS
            ok = a & _PAGE_MASK
            for pno in np.unique(pk):
                m = pk == pno
                pg = self.pages.get(int(pno))
                if pg is None:
                    continue
                if isinstance(pg, bytearray):
                    vals = np.frombuffer(pg, dtype=_U8)[ok[m]]
                else:
                    vals = pg[lanes[m], ok[m]]
                out[m] |= vals.astype(_U32) << _U32(8 * k)
        return _devec(out)

    # -- writes ------------------------------------------------------------

    def write(self, addr: int, value, size: int, idx=None) -> None:
        """Write ``size`` bytes at a uniform address for the lanes
        ``idx``; ``value`` is an int or a (len(idx),) uint32 array."""
        if addr + size > 1 << 32:
            raise _Drain()
        pno = addr >> _PAGE_BITS
        off = addr & _PAGE_MASK
        if off + size <= _PAGE_SIZE:
            if _is_uniform(value) and idx is None:
                pg = self.pages.get(pno)
                if pg is None:
                    pg = self.pages[pno] = bytearray(_PAGE_SIZE)
                if isinstance(pg, bytearray):
                    pg[off:off + size] = value.to_bytes(size, "little")
                    return
                pg[:, off:off + size] = _decompose(value, size)
                return
            # A sub-batch writes only its own rows (other lanes keep
            # the old bytes) and divergent values differ per row, so
            # the page must be per-lane either way.
            pg = self._promote(pno)
            if idx is None:
                pg[:, off:off + size] = _decompose(value, size)
            else:
                pg[idx, off:off + size] = _decompose(value, size)
            return
        lo_sz = _PAGE_SIZE - off
        if _is_uniform(value):
            self.write(addr, value & ((1 << (8 * lo_sz)) - 1), lo_sz, idx)
            self.write(addr + lo_sz, value >> (8 * lo_sz), size - lo_sz, idx)
        else:
            self.write(addr, value & _U32((1 << (8 * lo_sz)) - 1), lo_sz,
                       idx)
            self.write(addr + lo_sz, value >> _U32(8 * lo_sz),
                       size - lo_sz, idx)

    def scatter(self, addrs: np.ndarray, value, size: int, idx=None) -> None:
        """Per-lane writes at divergent addresses.

        ``addrs`` is (b,) uint32 for the lanes ``idx`` (``None`` = every
        lane); ``value`` is an int (uniform) or a (b,) uint32 array.
        Divergent addresses make the touched pages lane-dependent, so
        they are always promoted.
        """
        if int(addrs.max()) + size > 1 << 32:
            raise _Drain()  # some lane faults: scalar core raises it
        lanes = self._all_lanes if idx is None else idx
        uniform = type(value) is int
        offs = addrs & _U32(_PAGE_MASK)
        if int(offs.max()) + size <= _PAGE_SIZE:
            pnos = addrs >> _U32(_PAGE_BITS)
            if (pnos == pnos[0]).all():
                pg = self._promote(int(pnos[0]))
                cols = offs[:, None] + np.arange(size, dtype=_U32)
                pg[lanes[:, None], cols] = _decompose(value, size)
                return
        a64 = addrs.astype(np.int64)
        for k in range(size):
            a = a64 + k
            pk = a >> _PAGE_BITS
            ok = a & _PAGE_MASK
            if uniform:
                byte = (value >> (8 * k)) & 0xFF
            else:
                byte = ((value >> _U32(8 * k)) & _U32(0xFF)).astype(_U8)
            for pno in np.unique(pk):
                m = pk == pno
                pg = self._promote(int(pno))
                pg[lanes[m], ok[m]] = byte if uniform else byte[m]

    def write_lane(self, lane: int, addr: int, data: bytes) -> None:
        """Write raw bytes into a single lane (staging only)."""
        pos = 0
        while pos < len(data):
            a = addr + pos
            pno = a >> _PAGE_BITS
            off = a & _PAGE_MASK
            chunk = min(len(data) - pos, _PAGE_SIZE - off)
            pg = self._promote(pno)
            pg[lane, off:off + chunk] = np.frombuffer(
                data[pos:pos + chunk], dtype=_U8)
            pos += chunk

    def write_block_uniform(self, addr: int, data: bytes) -> None:
        pos = 0
        while pos < len(data):
            a = addr + pos
            pno = a >> _PAGE_BITS
            off = a & _PAGE_MASK
            chunk = min(len(data) - pos, _PAGE_SIZE - off)
            pg = self.pages.get(pno)
            if pg is None:
                pg = self.pages[pno] = bytearray(_PAGE_SIZE)
            if isinstance(pg, bytearray):
                pg[off:off + chunk] = data[pos:pos + chunk]
            else:
                pg[:, off:off + chunk] = np.frombuffer(
                    data[pos:pos + chunk], dtype=_U8)[None, :]
            pos += chunk

    def lane_pages(self, lane: int) -> Dict[int, bytearray]:
        """Materialize one lane's scalar page dict (``lane`` is global)."""
        out: Dict[int, bytearray] = {}
        for pno, pg in self.pages.items():
            if isinstance(pg, bytearray):
                out[pno] = bytearray(pg)
            else:
                out[pno] = bytearray(pg[lane].tobytes())
        return out


class _Batch:
    """A set of lanes executing the same instruction stream in lockstep.

    Counters are *hybrid*: a plain int while uniform across lanes (the
    batch never re-converged from divergent histories), an (n,) int64
    array otherwise.  Per-block counts follow the same convention, and
    ``orders`` tracks each lane's first-execution block order (tuples,
    shared structurally between lanes until they diverge).
    """

    __slots__ = ("n", "lane_ids", "midx", "pc", "xregs", "mem", "fflags",
                 "frm", "trap_csrs", "cycles", "instret", "executed",
                 "counts", "orders")

    def __init__(self, n: int, lane_ids: np.ndarray, pc: int,
                 mem: BatchMemory) -> None:
        self.n = n
        self.lane_ids = lane_ids
        self.midx = None  # memory row index; None = all lanes in order
        self.pc = pc
        self.xregs: List[object] = [0] * 32
        self.mem = mem
        self.fflags = 0            # int or (n,) uint8
        self.frm = 0
        self.trap_csrs = {"mstatus": 0, "mtvec": 0, "mscratch": 0,
                          "mepc": 0, "mcause": 0, "mtval": 0}
        self.cycles = 0            # int or (n,) int64
        self.instret = 0
        self.executed = 0
        # counts[start_pc] = [execs, takens], each int or (n,) int64;
        # orders[lane] = tuple of start pcs in first-execution order.
        self.counts: Dict[int, List[object]] = {}
        self.orders: List[tuple] = [()] * n

    def write_x(self, rd: int, value) -> None:
        if rd != 0:
            self.xregs[rd] = value

    def read_x_vec(self, rs: int) -> np.ndarray:
        v = self.xregs[rs]
        if _is_uniform(v):
            return np.full(self.n, v, dtype=_U32)
        return v

    def accrue(self, flags) -> None:
        if _is_uniform(flags):
            if flags:
                if _is_uniform(self.fflags):
                    self.fflags |= flags & 31
                else:
                    self.fflags |= _U8(flags & 31)
        else:
            fl = flags.astype(_U8) & _U8(31)
            if not fl.any():
                return
            if _is_uniform(self.fflags):
                self.fflags = _U8(self.fflags) | fl
            else:
                self.fflags = self.fflags | fl

    def select(self, mask: np.ndarray) -> "_Batch":
        """Partition off the lanes where ``mask`` is True."""
        child = _Batch.__new__(_Batch)
        child.n = int(mask.sum())
        child.lane_ids = self.lane_ids[mask]
        child.pc = self.pc
        child.xregs = [
            _devec(v[mask]) if not _is_uniform(v) else v for v in self.xregs
        ]
        child.mem = self.mem
        child.midx = child.lane_ids
        child.fflags = (self.fflags if _is_uniform(self.fflags)
                        else _devec_u8(self.fflags[mask]))
        child.frm = self.frm
        child.trap_csrs = dict(self.trap_csrs)
        child.cycles = _slice_ctr(self.cycles, mask)
        child.instret = _slice_ctr(self.instret, mask)
        child.executed = _slice_ctr(self.executed, mask)
        child.counts = {
            k: [_slice_ctr(v[0], mask), _slice_ctr(v[1], mask)]
            for k, v in self.counts.items()
        }
        idx = np.nonzero(mask)[0]
        child.orders = [self.orders[l] for l in idx]
        return child


def _devec_u8(v: np.ndarray):
    if v.size and (v == v[0]).all():
        return int(v[0])
    return v


def _slice_ctr(v, mask: np.ndarray):
    """Partition a hybrid (int or per-lane array) counter."""
    return v if type(v) is int else v[mask]


def _ctr_low(v):
    """Low 32 bits of a hybrid counter, as int or uint32 vector."""
    if type(v) is int:
        return v & MASK32
    return _devec((v & np.int64(MASK32)).astype(_U32))


def _ctr_high(v):
    if type(v) is int:
        return (v >> 32) & MASK32
    return _devec((v >> np.int64(32)).astype(_U32))


def _merge_ctr(va, vb, na: int, nb: int):
    if type(va) is int and type(vb) is int and va == vb:
        return va
    av = np.full(na, va, dtype=np.int64) if type(va) is int else va
    bv = np.full(nb, vb, dtype=np.int64) if type(vb) is int else vb
    return np.concatenate([av, bv])


def _merge_reg(va, vb, na: int, nb: int, dtype):
    if type(va) is int and type(vb) is int:
        if va == vb:
            return va
        out = np.empty(na + nb, dtype=dtype)
        out[:na] = va
        out[na:] = vb
        return out
    av = va if type(va) is not int else np.full(na, va, dtype=dtype)
    bv = vb if type(vb) is not int else np.full(nb, vb, dtype=dtype)
    return np.concatenate([av, bv])


def _merge_batches(a: _Batch, b: _Batch) -> _Batch:
    """Re-converge two batches that met at the same PC (same frm and
    trap CSRs; checked by the scheduler)."""
    na, nb = a.n, b.n
    bt = _Batch.__new__(_Batch)
    bt.n = na + nb
    bt.lane_ids = np.concatenate([a.lane_ids, b.lane_ids])
    bt.pc = a.pc
    bt.xregs = [_merge_reg(va, vb, na, nb, _U32)
                for va, vb in zip(a.xregs, b.xregs)]
    bt.mem = a.mem
    bt.midx = bt.lane_ids
    bt.fflags = _merge_reg(a.fflags, b.fflags, na, nb, _U8)
    bt.frm = a.frm
    bt.trap_csrs = dict(a.trap_csrs)
    bt.cycles = _merge_ctr(a.cycles, b.cycles, na, nb)
    bt.instret = _merge_ctr(a.instret, b.instret, na, nb)
    bt.executed = _merge_ctr(a.executed, b.executed, na, nb)
    counts: Dict[int, List[object]] = {}
    for pc, va in a.counts.items():
        vb = b.counts.get(pc, (0, 0))
        counts[pc] = [_merge_ctr(va[0], vb[0], na, nb),
                      _merge_ctr(va[1], vb[1], na, nb)]
    for pc, vb in b.counts.items():
        if pc not in counts:
            counts[pc] = [_merge_ctr(0, vb[0], na, nb),
                          _merge_ctr(0, vb[1], na, nb)]
    bt.counts = counts
    bt.orders = a.orders + b.orders
    return bt


_I64 = np.int64
_RNE = RoundingMode.RNE
_SR = RoundingMode.SR
_SR_KEY_MASK = (1 << 64) - 1


def _nop_entry(bt) -> None:
    return None


def _drain_entry(bt) -> None:
    raise _Drain()


def _lift(v):
    """A batch value as numpy: uniform ints become uint32 scalars."""
    return _U32(v & MASK32) if type(v) is int else v


class _LockBlock:
    __slots__ = ("sblock", "entries", "term_fn")

    def __init__(self, sblock, entries, term_fn):
        self.sblock = sblock
        self.entries = entries
        self.term_fn = term_fn


_UNBUILDABLE = object()


class LockstepEngine:
    """Batched dispatcher over one template :class:`Simulator`."""

    def __init__(self, template: Simulator):
        m = template.machine
        if not m.merged_regfile or m.flen != 32:
            raise SimulationError(
                "lockstep requires the merged register file at FLEN=32")
        self.tpl = template
        self._tpl_engine = template._engine()
        self._blocks: Dict[int, object] = {}
        self._budget = 0
        #: Each lane's stochastic-rounding key (uint64, by lane id).
        self._sr_keys = np.zeros(0, dtype=np.uint64)
        #: True when lanes hold different keys: uniform operands then
        #: no longer share one stochastically rounded result.
        self._keys_differ = False
        #: Splits, merges and drains so far; a drain counts under
        #: ``"drain."`` and its reason: ``narrow`` (a split left the
        #: batch under the lockstep width), ``budget`` (the budget edge),
        #: ``unbuildable`` (no block at the PC), ``binder`` (a binder
        #: raised :class:`_Drain`) or ``halt``.
        self.events: Counter = Counter()

    # ------------------------------------------------------------------
    # Public entry point
    # ------------------------------------------------------------------
    def run(self, lanes, entry=0, max_instructions: int = 50_000_000,
            frm: int = 0):
        """Run every lane to completion; returns per-lane RunResults.

        ``lanes`` is a sequence of :class:`Lane` staging records.  The
        result list is ordered like ``lanes`` and each element is
        bit-identical to a dedicated :meth:`Simulator.run` of that
        point.  ``frm`` seeds every lane's dynamic rounding mode (the
        value a harness would ``csrw frm`` before calling the kernel);
        per-lane ``Lane.sr_key`` values seed stochastic rounding; each
        lane's SR-rounded results draw from its own key, batched like
        every other mode.
        """
        tpl = self.tpl
        n = len(lanes)
        self._budget = max_instructions
        self._tpl_engine._check_timing_epoch()
        entry_pc = tpl.address_of(entry)

        keys = [getattr(lane, "sr_key", 0) & _SR_KEY_MASK
                for lane in lanes]
        self._sr_keys = np.array(keys, dtype=np.uint64)
        self._keys_differ = len(set(keys)) > 1

        bt = _Batch(n, np.arange(n), entry_pc,
                    BatchMemory(n, tpl.machine.memory.pages))
        bt.frm = frm & 0b111
        bt.xregs[1] = HALT_ADDRESS
        bt.xregs[2] = STACK_TOP
        regs = set()
        for lane in lanes:
            regs.update(lane.args)
        for r in sorted(regs):
            if r == 0:
                continue
            vals = [(lane.args[r] & MASK32) if r in lane.args
                    else bt.xregs[r] for lane in lanes]
            first = vals[0]
            if all(v == first for v in vals):
                bt.xregs[r] = first
            else:
                bt.xregs[r] = np.array(vals, dtype=_U32)
        first_stores = lanes[0].stores
        if all(lane.stores == first_stores for lane in lanes):
            for addr, data in first_stores:
                bt.mem.write_block_uniform(addr, bytes(data))
        else:
            for idx, lane in enumerate(lanes):
                for addr, data in lane.stores:
                    bt.mem.write_lane(idx, addr, bytes(data))

        out: List[Optional[RunResult]] = [None] * n
        heap = self._heap = []
        self._seq = 0
        self._push(bt)
        # In a run no wider than the lockstep width, a split sub-batch
        # (narrower than the run) runs faster serially.
        narrow = n if n <= LOCKSTEP_MIN_WIDTH else 0
        prev_key = set_sr_key(keys[0] if keys else 0)
        try:
            with fpbatch.quiet_errors():
                while heap:
                    cur = heapq.heappop(heap)[2]
                    # Re-convergence: merge every compatible batch
                    # waiting at the same PC before running.
                    while heap and heap[0][0] == cur.pc:
                        peer = heap[0][2]
                        if (peer.frm != cur.frm
                                or peer.trap_csrs != cur.trap_csrs):
                            break
                        heapq.heappop(heap)
                        cur = _merge_batches(cur, peer)
                        self.events["merge"] += 1
                    if cur.n < narrow and cur.frm in SCALAR_FACE_MODES:
                        self._drain_all(cur, out, "narrow")
                        continue
                    # With other batches pending, step one block at a
                    # time so diverged batches can catch up and
                    # re-merge; otherwise run the tight loop.
                    self._run_batch(cur, out, single=bool(heap))
        finally:
            set_sr_key(prev_key)
        return out

    def _push(self, bt: _Batch) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (bt.pc, self._seq, bt))

    # ------------------------------------------------------------------
    # Batch dispatch loop (mirrors BlockEngine.run)
    # ------------------------------------------------------------------
    def _run_batch(self, bt: _Batch, out, single: bool = False) -> None:
        budget = self._budget
        while bt.pc != _SENTINEL:
            pc = bt.pc
            executed = bt.executed
            if type(executed) is not int:
                executed = int(executed.max())
            if executed >= budget:
                self._drain_all(bt, out, "budget")  # resume reports it
                return
            lb = self._get_block(pc)
            if lb is None:
                self._drain_all(bt, out, "unbuildable")  # reference loop
                return
            sb = lb.sblock
            if executed + sb.total_len > budget:
                self._drain_all(bt, out, "budget")  # edge: step scalar
                return
            rec = bt.counts.get(pc)
            if rec is None:
                rec = bt.counts[pc] = [0, 0]
                orders = bt.orders
                for l in range(bt.n):
                    orders[l] = orders[l] + (pc,)
            elif type(rec[0]) is not int and not rec[0].all():
                # Re-converged lanes may see this block for the first
                # time: their Counter insertion order starts here.
                orders = bt.orders
                for l in np.nonzero(rec[0] == 0)[0]:
                    orders[l] = orders[l] + (pc,)

            entries = lb.entries
            drained = False
            for idx in range(len(entries)):
                try:
                    entries[idx](bt)
                except _Drain:
                    bt.pc = sb.entries[idx][1]
                    self._drain_all(bt, out, "binder", idx, sb)
                    drained = True
                    break
            if drained:
                return

            n = sb.n_entries
            bt.instret += n
            bt.cycles += sb.static_cycles
            bt.executed += n
            if lb.term_fn is None:
                bt.pc = sb.end
                rec[0] += 1
            else:
                term = sb.term
                try:
                    res = lb.term_fn(bt)
                except _Drain:
                    bt.instret -= n
                    bt.cycles -= sb.static_cycles
                    bt.executed -= n
                    bt.pc = term.pc
                    self._drain_all(bt, out, "binder", n, sb)
                    return

                cost_nt, cost_tk = term.cost_ntaken, term.cost_taken
                if isinstance(res, _SplitMask):
                    rec[0] += 1
                    bt.instret += 1
                    bt.executed += 1
                    self.events["split"] += 1
                    taken = bt.select(res.mask)
                    taken.cycles += cost_tk
                    taken.counts[pc][1] += 1
                    taken.pc = res.target
                    fall = bt.select(~res.mask)
                    fall.cycles += cost_nt
                    fall.pc = term.fallthrough
                    self._push(taken)
                    self._push(fall)
                    return
                if res is not None:
                    bt.cycles += cost_tk
                    rec[1] += 1
                    bt.pc = res
                else:
                    bt.cycles += cost_nt
                    bt.pc = term.fallthrough
                bt.instret += 1
                rec[0] += 1
                bt.executed += 1

            if single and bt.pc != _SENTINEL:
                self._push(bt)  # let lagging batches catch up and merge
                return

        self._drain_all(bt, out, "halt")  # resume returns immediately

    # ------------------------------------------------------------------
    # Block binding
    # ------------------------------------------------------------------
    def _get_block(self, pc: int) -> Optional[_LockBlock]:
        lb = self._blocks.get(pc)
        if lb is None:
            sb = self._tpl_engine.block(pc)
            if sb is None:
                lb = _UNBUILDABLE
            else:
                entries = [self._bind_entry(instr, epc)
                           for instr, epc in sb.entries]
                term_fn = (self._bind_term(sb.term)
                           if sb.term is not None else None)
                lb = _LockBlock(sb, entries, term_fn)
            self._blocks[pc] = lb
        return None if lb is _UNBUILDABLE else lb

    # ------------------------------------------------------------------
    # Binders: one per operand shape, every kind derived from its
    # semantics row
    # ------------------------------------------------------------------
    def _bind_entry(self, i, epc: int):
        row = SEMANTICS.get(i.kind)
        shape = row.shape if row is not None else None
        if shape == "alu":
            return _bind_alu(i, row)
        if shape == "upper":
            return _bind_const(i.rd, row.op(epc, i.imm) & MASK32)
        if shape == "load":
            return _bind_load(i, access_size(i.spec, 32),
                              0x80 << (8 * row.size - 8) if row.signed
                              else 0)
        if shape == "store":
            size = access_size(i.spec, 32)
            return _bind_store(i, size, (1 << (8 * size)) - 1)
        if shape == "fp":
            return self._bind_fp(i, row)
        if shape == "jump" or (shape == "sys" and i.spec.cf is None):
            # A fence, or a direct jump a superblock followed: the block
            # goes on at its target, and it links nothing.
            return _nop_entry
        return _drain_entry  # unknown kinds: scalar core decides

    def _bind_fp(self, i, row):
        """FP kinds: uniform operands take the scalar compute; vector
        operands take the row's batch form and patch the lanes it
        cannot handle; anything else runs lanewise over the scalar
        compute.  Under stochastic rounding with keys that differ
        between lanes, uniform operands are vector operands too."""
        fn, regs, masks, scale, dmask = bind_in_xregs(i)
        F = formats(i.spec, 32)
        umasks = [_U32(k) for k in masks]
        vector = row.batch(F) if row.batch is not None else None
        rounds, flagged = row.rounds, row.flags
        static = None
        if rounds:
            try:
                static = static_rm(i)
            except GuestIllegal:
                return _drain_entry  # the scalar core traps
        rd = i.rd
        engine = self

        def scalar(columns, rm, keys):
            """The scalar compute over operand columns, each lane under
            its own SR key when ``keys`` is given: one int array each
            of results and flags."""
            try:
                if keys is not None:
                    prev = set_sr_key(0)
                    try:
                        outs = []
                        for ops, key in zip(zip(*columns), keys.tolist()):
                            set_sr_key(key)
                            outs.append(fn(*ops, rm))
                    finally:
                        set_sr_key(prev)
                elif rounds:
                    outs = [fn(*ops, rm) for ops in zip(*columns)]
                else:
                    outs = [fn(*ops) for ops in zip(*columns)]
            except GUEST_FAULTS:
                raise _Drain() from None
            if flagged:
                outs = np.array(outs, dtype=_I64).reshape(-1, 2)
                return outs[:, 0] & dmask, outs[:, 1]
            return np.array(outs, dtype=_I64) & dmask, 0

        def run(bt):
            rm = keys = None
            if rounds:
                rm = static if static is not None else _RM_BY_VALUE.get(bt.frm)
                if rm is None:
                    raise _Drain()  # a reserved frm traps on the scalar core
                if rm is _SR:
                    keys = engine._sr_keys[bt.lane_ids]
            x = bt.xregs
            vals = [x[r] for r in regs]
            for v in vals:
                if type(v) is not int:
                    break
            else:
                if keys is None or not engine._keys_differ:
                    args = [v & k for v, k in zip(vals, masks)]
                    args[-1] *= scale
                    try:
                        out = fn(*args, rm) if rounds else fn(*args)
                    except GUEST_FAULTS:
                        raise _Drain() from None
                    if flagged:
                        out, flags = out
                        bt.accrue(flags)
                    if rd:
                        x[rd] = out & dmask
                    return
            arrays = [bt.read_x_vec(r) & k for r, k in zip(regs, umasks)]
            if scale != 1:
                arrays[-1] = arrays[-1] * _U32(scale)
            if vector is not None:
                if rounds:
                    bits, flags, fallback = vector(*arrays, rm=rm, keys=keys)
                else:
                    bits, flags, fallback = vector(*arrays)
                if fallback is not None and fallback.any():
                    lanes = np.nonzero(fallback)[0]
                    bits[lanes], flags[lanes] = scalar(
                        [a[lanes].tolist() for a in arrays], rm,
                        None if keys is None else keys[lanes])
            else:
                bits, flags = scalar([a.tolist() for a in arrays], rm, keys)
                bits = bits.astype(_U32)
                flags = flags.astype(_U8) if flagged else 0
            bt.accrue(flags)
            if rd:
                x[rd] = bits
        return run

    # ------------------------------------------------------------------
    # Terminators
    # ------------------------------------------------------------------
    def _bind_term(self, term):
        i, tpc, link = term.instr, term.pc, term.fallthrough
        row = SEMANTICS.get(i.kind)
        shape = row.shape if row is not None else None
        if shape == "branch":
            return _bind_branch(i, row, (tpc + i.imm) & MASK32)
        if shape == "jump":
            return _bind_jump(i, row, tpc, link)
        if shape == "csr":
            return self._bind_csr_term(i, row)
        return _drain_entry  # ecall/ebreak: scalar core decides

    def _bind_csr_term(self, i, row):
        num, rd, rs1 = i.imm, i.rd, i.rs1
        op = row.op
        writes = not (row.skip_x0 and rs1 == 0)
        immediate = i.spec.syntax[-1] == "zimm"

        def run(bt):
            old = self._csr_read(bt, num)
            if writes:
                value = rs1 if immediate else bt.xregs[rs1]
                if type(old) is int and type(value) is int:
                    self._csr_write(bt, num, op(old, value))
                else:
                    self._csr_write(bt, num, op(_lift(old), _lift(value)))
            if rd:
                bt.xregs[rd] = old
            return None
        return run

    def _csr_read(self, bt, num: int):
        if num == CSR_FFLAGS:
            f = bt.fflags
            return f if type(f) is int else f.astype(_U32)
        if num == CSR_FRM:
            return bt.frm
        if num == CSR_FCSR:
            f = bt.fflags
            if type(f) is int:
                return (bt.frm << 5) | f
            return _U32(bt.frm << 5) | f.astype(_U32)
        if num == CSR_CYCLE:
            return _ctr_low(bt.cycles)
        if num == CSR_CYCLEH:
            return _ctr_high(bt.cycles)
        if num == CSR_INSTRET:
            return _ctr_low(bt.instret)
        if num == CSR_INSTRETH:
            return _ctr_high(bt.instret)
        if num == CSR_MHARTID:
            return 0
        name = CsrFile._TRAP_RW.get(num)
        if name is not None:
            return bt.trap_csrs[name]
        raise _Drain()  # unimplemented CSR: IllegalCsr on the scalar path

    def _csr_write(self, bt, num: int, value) -> None:
        if num == CSR_FFLAGS:
            if type(value) is int:
                bt.fflags = value & 31
            else:
                bt.fflags = _devec_u8((value & _U32(31)).astype(_U8))
        elif num == CSR_FRM:
            value = _devec(value)
            if type(value) is not int:
                raise _Drain()  # divergent frm: lanes must run scalar
            bt.frm = value & 0b111
        elif num == CSR_FCSR:
            if type(value) is int:
                bt.fflags = value & 31
                bt.frm = (value >> 5) & 0b111
            else:
                frm_v = _devec((value >> _U32(5)) & _U32(7))
                if type(frm_v) is not int:
                    raise _Drain()
                bt.frm = frm_v
                bt.fflags = _devec_u8((value & _U32(31)).astype(_U8))
        else:
            name = CsrFile._TRAP_RW.get(num)
            if name is None:
                raise _Drain()  # read-only or unknown CSR: traps scalar
            value = _devec(value)
            if type(value) is not int:
                raise _Drain()
            bt.trap_csrs[name] = value & MASK32

    # ------------------------------------------------------------------
    # Draining: hand lanes to per-point scalar simulators
    # ------------------------------------------------------------------
    def _lane_trace(self, bt: _Batch, ln: int, expanded: dict) -> Trace:
        """One lane's trace: its counts, and its block records expanded
        in that lane's first-execution order, as the block engine
        expands them, already tallied.  Lanes with the same order and
        uniform block counts share one expansion and its tally, kept
        in ``expanded``."""
        def lane(value):
            return value if type(value) is int else int(value[ln])

        counts, order = bt.counts, bt.orders[ln]
        shared = expanded.get(order)
        if shared is None:
            shared = Trace()
            expand_records(shared.records, [
                (self._blocks[start].sblock,
                 (lane(counts[start][0]), lane(counts[start][1])))
                for start in order])
            shared.tally()
            if all(type(c) is int for start in order for c in counts[start]):
                expanded[order] = shared
        return shared.tallied_copy(lane(bt.instret), lane(bt.cycles))

    def _drain_all(self, bt: _Batch, out, reason: str, prefix: int = 0,
                   sblock=None) -> None:
        """Materialize every lane of ``bt`` into a scalar simulator and
        run it to completion from ``bt.pc``; ``reason`` names the drain
        in :attr:`events`.

        ``prefix`` straight-line entries of ``sblock`` (already applied
        to the batch state but not to its block records) are
        recorded entry by entry, reproducing the scalar engine's
        mid-block bookkeeping before the resume takes over.
        """
        self.events["drain." + reason] += 1
        tpl = self.tpl
        exec_base = bt.executed
        expanded: dict = {}
        for ln in range(bt.n):
            t = self._lane_trace(bt, ln, expanded)
            executed = (exec_base if type(exec_base) is int
                        else int(exec_base[ln])) + prefix
            for k in range(prefix):
                instr, epc = sblock.entries[k]
                t.record(instr, sblock.costs[k], epc in sblock.jumps,
                         pc=epc)
            sim = Simulator(merged_regfile=tpl.machine.merged_regfile,
                            flen=tpl.machine.flen,
                            timing=tpl.timing.config,
                            fast_path=tpl.fast_path)
            sim.program = tpl.program
            sim._decode_cache = tpl._decode_cache
            m = sim.machine
            m.pc = bt.pc
            xr = m.xregs
            for r in range(1, 32):
                v = bt.xregs[r]
                xr[r] = v if type(v) is int else int(v[ln])
            m.memory.pages = bt.mem.lane_pages(int(bt.lane_ids[ln]))
            csr = m.csr
            csr.fflags = (bt.fflags if type(bt.fflags) is int
                          else int(bt.fflags[ln]))
            csr.frm = bt.frm
            for name, val in bt.trap_csrs.items():
                setattr(csr, name, val)
            lane_id = int(bt.lane_ids[ln])
            prev = set_sr_key(int(self._sr_keys[lane_id]))
            try:
                out[lane_id] = sim.resume(
                    t, executed=executed, max_instructions=self._budget)
            finally:
                set_sr_key(prev)


# ----------------------------------------------------------------------
# Module-level binder helpers (no engine state needed)
# ----------------------------------------------------------------------
def _bind_alu(i, row):
    rd, rs1, rs2 = i.rd, i.rs1, i.rs2
    if rd == 0:
        return _nop_entry
    op, vector = row.op, row.batch
    reg = "rs2" in i.spec.syntax
    imm = i.imm & MASK32
    imm_u32 = _U32(imm)

    def run(bt):
        x = bt.xregs
        a = x[rs1]
        b = x[rs2] if reg else imm
        if type(a) is int and type(b) is int:
            x[rd] = op(a, b) & MASK32
        elif vector is not None:
            x[rd] = vector(_lift(a), _lift(b) if reg else imm_u32)
        else:
            av, bv = np.broadcast_arrays(_lift(a), _lift(b))
            x[rd] = np.array([op(int(p), int(q)) & MASK32
                              for p, q in zip(av, bv)], dtype=_U32)
    return run


def _bind_branch(i, row, target):
    rs1, rs2, op, vector = i.rs1, i.rs2, row.op, row.batch

    def run(bt):
        a, b = bt.xregs[rs1], bt.xregs[rs2]
        if type(a) is int and type(b) is int:
            return target if op(a, b) else None
        mask = vector(_lift(a), _lift(b))
        if mask.all():
            return target
        if not mask.any():
            return None
        return _SplitMask(mask, target)
    return run


def _bind_jump(i, row, tpc, link):
    rd, rs1, imm, op = i.rd, i.rs1, i.imm, row.op
    indirect = "rs1" in i.spec.syntax

    if not indirect:
        target = op(tpc, 0, imm)

        def run(bt):
            if rd:
                bt.xregs[rd] = link
            return target
        return run

    def run(bt):
        base = _devec(bt.xregs[rs1])
        if type(base) is not int:
            raise _Drain()  # indirect-jump divergence
        target = op(tpc, base, imm)
        if rd:
            bt.xregs[rd] = link
        return target
    return run


def _bind_const(rd, value):
    if rd == 0:
        return _nop_entry

    def run(bt, rd=rd, value=value):
        bt.xregs[rd] = value
    return run


def _bind_load(i, size, sign_bits):
    rd, rs1, imm = i.rd, i.rs1, i.imm

    def run(bt, rd=rd, rs1=rs1, imm=imm, size=size, sign_bits=sign_bits):
        base = bt.xregs[rs1]
        if type(base) is not int:
            base = _devec(base)
        if type(base) is int:
            addr = (base + imm) & MASK32
            value = bt.mem.read(addr, size, bt.midx)
        else:
            addrs = base + _U32(imm & MASK32)
            value = bt.mem.gather(addrs, size, bt.midx)
        if sign_bits:
            if type(value) is int:
                if value & sign_bits:
                    value = (value - (sign_bits << 1)) & MASK32
            else:
                value = np.where(value & _U32(sign_bits),
                                 value - _U32((sign_bits << 1) & MASK32),
                                 value)
        if rd:
            bt.xregs[rd] = value
    return run


def _bind_store(i, size, mask):
    rs1, rs2, imm = i.rs1, i.rs2, i.imm

    def run(bt, rs1=rs1, rs2=rs2, imm=imm, size=size, mask=mask):
        base = bt.xregs[rs1]
        if type(base) is not int:
            base = _devec(base)
        value = bt.xregs[rs2]
        value = value & mask if type(value) is int else value & _U32(mask)
        if type(base) is int:
            addr = (base + imm) & MASK32
            bt.mem.write(addr, value, size, bt.midx)
        else:
            addrs = base + _U32(imm & MASK32)
            bt.mem.scatter(addrs, value, size, bt.midx)
    return run


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------
class Lane:
    """Staging record for one lockstep lane.

    ``args`` maps integer register numbers to initial values (like the
    ``args`` parameter of :meth:`Simulator.run`); ``stores`` is a list
    of ``(addr, bytes)`` bulk writes applied before execution (the
    harness stages input arrays this way).  ``sr_key`` seeds the
    stochastic-rounding PRF for this lane (only consulted when the run
    rounds with ``RoundingMode.SR``).
    """

    __slots__ = ("args", "stores", "sr_key")

    def __init__(self, args=None, stores=None, sr_key=0):
        self.args = dict(args or {})
        self.stores = list(stores or [])
        self.sr_key = sr_key


def run_lockstep(program, lanes, entry=0, max_instructions: int = 50_000_000,
                 mem_latency=None, timing=None, fast_path=None, frm: int = 0):
    """Run ``lanes`` of ``program`` in lockstep; per-lane RunResults.

    Each element of ``lanes`` is a :class:`Lane`.  Every result is
    bit-identical (trace counters and their insertion order, registers,
    memory, fcsr, exit reason, detail) to a dedicated
    :meth:`Simulator.run` of the same point with the same ``frm`` and
    SR key installed.
    """
    template = Simulator(program=program, mem_latency=mem_latency,
                         timing=timing, fast_path=fast_path)
    engine = LockstepEngine(template)
    return engine.run(lanes, entry=entry, max_instructions=max_instructions,
                      frm=frm)
