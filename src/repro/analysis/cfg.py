"""Control-flow graph construction over assembled :class:`Program` objects.

The builder decodes the text section back into :class:`Instr` records
(the assembler emits one 4-byte word per instruction, so decode is a
faithful inverse -- a property the round-trip tests in
``tests/isa/test_roundtrip.py`` pin down), splits it into basic blocks
at branch/jump boundaries and targets, and recovers:

* intra-procedural edges (branch taken/fall-through, unconditional
  jumps),
* call-graph edges (``jal``/``jalr`` with a link register),
* entry points (function symbols), and
* unreachable blocks, dominators and natural loops.

Control-flow classification comes from :attr:`InstrSpec.cf` metadata,
not from mnemonic string matching, so new control-flow instructions
registered in :mod:`repro.isa` are picked up automatically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from ..isa.assembler import Program
from ..isa.instructions import Instr, UnknownInstruction, decode
from ..sim.semantics import SEMANTICS

#: Block terminator classes a :class:`BasicBlock` can end with.
TERMINATORS = ("fallthrough", "branch", "jump", "call", "return",
               "indirect-call", "indirect-jump", "halt", "undecodable",
               "end-of-text")

#: x1 is the standard RISC-V link register.
LINK_REG = 1


@dataclass
class Site:
    """One decoded instruction together with its static location."""

    addr: int
    word: int
    instr: Optional[Instr]  #: ``None`` when the word does not decode
    line: Optional[int]  #: 1-based assembly source line, when known

    @property
    def mnemonic(self) -> str:
        return self.instr.mnemonic if self.instr is not None else ".word"

    @property
    def kind(self) -> str:
        return self.instr.kind if self.instr is not None else ""

    @property
    def shape(self) -> str:
        return SEMANTICS[self.instr.kind].shape if self.instr else ""


@dataclass
class BasicBlock:
    """A maximal straight-line run of instructions."""

    start: int
    sites: List[Site] = field(default_factory=list)
    succs: List[int] = field(default_factory=list)
    preds: List[int] = field(default_factory=list)
    terminator: str = "fallthrough"
    labels: List[str] = field(default_factory=list)

    @property
    def last(self) -> Optional[Site]:
        return self.sites[-1] if self.sites else None

    @property
    def end(self) -> int:
        """First address past the block."""
        return self.start + 4 * len(self.sites)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"BasicBlock({self.start:#x}..{self.end:#x}, "
                f"{self.terminator}, succs={[hex(s) for s in self.succs]})")


@dataclass
class Loop:
    """A natural loop: a back edge and the blocks it encloses."""

    header: int
    back_edge: Tuple[int, int]
    body: Set[int]

    def __contains__(self, block_start: int) -> bool:
        return block_start in self.body


class CFG:
    """Basic blocks, edges and derived structure for one program."""

    def __init__(self, program: Program, blocks: Dict[int, BasicBlock],
                 entries: List[int], calls: List[Tuple[int, int]]):
        self.program = program
        self.blocks = blocks
        self.order = sorted(blocks)
        #: Entry-point block addresses (function symbols / explicit roots).
        self.entries = entries
        #: ``(call-site address, callee address)`` pairs.
        self.calls = calls
        self._doms: Optional[Dict[int, Set[int]]] = None

    # ------------------------------------------------------------------
    def block_at(self, start: int) -> BasicBlock:
        return self.blocks[start]

    def block_of(self, addr: int) -> Optional[BasicBlock]:
        """The block containing instruction address ``addr``."""
        for start in self.order:
            block = self.blocks[start]
            if block.start <= addr < block.end:
                return block
        return None

    def sites(self) -> Iterable[Site]:
        for start in self.order:
            yield from self.blocks[start].sites

    def function_of(self, addr: int) -> Optional[str]:
        """Name of the function (entry symbol) an address falls under."""
        best: Tuple[int, Optional[str]] = (-1, None)
        for name, sym_addr in self.program.symbols.items():
            if sym_addr <= addr and sym_addr > best[0] and \
                    sym_addr in self.entries:
                best = (sym_addr, name)
        return best[1]

    # ------------------------------------------------------------------
    def reachable(self) -> Set[int]:
        """Blocks reachable from any entry, following CFG + call edges."""
        call_targets = {callee for _, callee in self.calls}
        worklist = [e for e in self.entries if e in self.blocks]
        worklist += [c for c in call_targets if c in self.blocks]
        seen: Set[int] = set()
        while worklist:
            start = worklist.pop()
            if start in seen:
                continue
            seen.add(start)
            worklist.extend(s for s in self.blocks[start].succs
                            if s not in seen)
        return seen

    def unreachable_blocks(self) -> List[BasicBlock]:
        live = self.reachable()
        return [self.blocks[s] for s in self.order if s not in live]

    # ------------------------------------------------------------------
    def dominators(self) -> Dict[int, Set[int]]:
        """Iterative dominator sets over the reachable subgraph.

        A virtual super-entry precedes every root, so multi-function
        programs are handled in one pass.
        """
        if self._doms is not None:
            return self._doms
        live = self.reachable()
        ordered = [s for s in self.order if s in live]
        roots = set(self.entries) | {c for _, c in self.calls}
        roots &= live
        universe = set(ordered)
        doms: Dict[int, Set[int]] = {}
        for start in ordered:
            doms[start] = {start} if start in roots else set(universe)
        changed = True
        while changed:
            changed = False
            for start in ordered:
                if start in roots:
                    continue
                preds = [p for p in self.blocks[start].preds if p in live]
                if preds:
                    new = set.intersection(*(doms[p] for p in preds))
                else:
                    new = set()
                new = new | {start}
                if new != doms[start]:
                    doms[start] = new
                    changed = True
        self._doms = doms
        return doms

    def back_edges(self) -> List[Tuple[int, int]]:
        """Edges ``u -> h`` where the head dominates the tail."""
        doms = self.dominators()
        edges = []
        for start, dom in doms.items():
            for succ in self.blocks[start].succs:
                if succ in dom and succ in doms:
                    edges.append((start, succ))
        return edges

    def natural_loops(self) -> List[Loop]:
        """One :class:`Loop` per back edge (bodies may overlap/nest)."""
        loops = []
        for tail, header in self.back_edges():
            body = {header, tail}
            stack = [tail]
            while stack:
                node = stack.pop()
                for pred in self.blocks[node].preds:
                    if pred not in body and node != header:
                        body.add(pred)
                        stack.append(pred)
            loops.append(Loop(header=header, back_edge=(tail, header),
                              body=body))
        return loops

    # ------------------------------------------------------------------
    # Attribution helpers (the profiler's PC -> block -> loop mapping)
    # ------------------------------------------------------------------
    def pc_block_map(self) -> Dict[int, int]:
        """Instruction address -> start of its containing block.

        A dictionary (rather than the linear :meth:`block_of` scan) so
        per-PC and per-step consumers -- the cycle-attribution profile
        and its timeline recorder -- pay one hash lookup each.
        """
        mapping: Dict[int, int] = {}
        for start in self.order:
            for site in self.blocks[start].sites:
                mapping[site.addr] = start
        return mapping

    def merged_loops(self) -> List[Loop]:
        """Natural loops with same-header bodies unioned.

        A loop with two back edges (e.g. a ``continue`` inside it)
        yields two overlapping natural loops; for attribution purposes
        they are one loop.  The representative back edge kept is the
        first in :meth:`back_edges` order.
        """
        by_header: Dict[int, Loop] = {}
        for loop in self.natural_loops():
            kept = by_header.get(loop.header)
            if kept is None:
                by_header[loop.header] = Loop(
                    header=loop.header, back_edge=loop.back_edge,
                    body=set(loop.body))
            else:
                kept.body |= loop.body
        return [by_header[h] for h in sorted(by_header)]

    def loop_attribution(self) -> Tuple[Dict[int, Optional[int]],
                                        Dict[int, int]]:
        """Innermost-loop header and nesting depth per block.

        Returns ``(innermost, depth)``: ``innermost[block]`` is the
        header of the smallest merged loop whose body contains the
        block (``None`` outside any loop), and ``depth[block]`` counts
        the distinct loops containing it.  This is how profile cycles
        roll up to loop-level hot spots without double counting -- each
        block's cycles are *self* cycles of exactly one loop.
        """
        loops = self.merged_loops()
        innermost: Dict[int, Optional[int]] = {}
        depth: Dict[int, int] = {}
        for start in self.order:
            containing = [lp for lp in loops if start in lp.body]
            depth[start] = len(containing)
            if containing:
                innermost[start] = min(
                    containing, key=lambda lp: (len(lp.body), lp.header)
                ).header
            else:
                innermost[start] = None
        return innermost, depth


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------
def _decode_sites(program: Program) -> List[Site]:
    sites = []
    for index, word in enumerate(program.words):
        addr = program.text_base + 4 * index
        line = program.lines[index] if index < len(program.lines) else None
        try:
            instr = decode(word)
        except UnknownInstruction:
            instr = None
        sites.append(Site(addr=addr, word=word, instr=instr, line=line))
    return sites


def _classify_terminator(site: Site) -> Tuple[str, List[int]]:
    """Terminator class and static successor addresses of one site."""
    instr = site.instr
    if instr is None:
        return "undecodable", []
    cf = instr.spec.cf
    fallthrough = site.addr + 4
    if cf == "branch":
        target = site.addr + instr.imm
        return "branch", [target, fallthrough]
    if cf == "jump":  # jal
        target = site.addr + instr.imm
        if instr.rd == 0:
            return "jump", [target]
        return "call", [fallthrough]
    if cf == "ijump":  # jalr
        if instr.rd != 0:
            return "indirect-call", [fallthrough]
        if instr.rs1 == LINK_REG and instr.imm == 0:
            return "return", []
        return "indirect-jump", []
    if cf == "halt":
        return "halt", []
    return "fallthrough", [fallthrough]


def build_cfg(program: Program,
              entries: Optional[Sequence[Union[str, int]]] = None) -> CFG:
    """Build a :class:`CFG` from an assembled program.

    ``entries`` names the program's entry points (symbols or addresses).
    When omitted, entry points are inferred: the text base, every call
    target, and every text symbol that is never the target of a local
    branch or jump (loop labels are branch targets; function labels are
    not).
    """
    sites = _decode_sites(program)
    by_addr = {site.addr: site for site in sites}
    text_end = program.text_base + 4 * len(sites)

    def in_text(addr: int) -> bool:
        return program.text_base <= addr < text_end and addr % 4 == 0

    # Pass 1: leaders, branch targets, call edges.
    leaders: Set[int] = set()
    branch_targets: Set[int] = set()
    calls: List[Tuple[int, int]] = []
    if sites:
        leaders.add(program.text_base)
    for site in sites:
        terminator, succs = _classify_terminator(site)
        if terminator == "call" and site.instr is not None:
            target = site.addr + site.instr.imm
            if in_text(target):
                calls.append((site.addr, target))
                leaders.add(target)
        if terminator != "fallthrough":
            leaders.add(site.addr + 4)
            for succ in succs:
                if succ != site.addr + 4 and in_text(succ):
                    leaders.add(succ)
                    branch_targets.add(succ)
    for addr in program.symbols.values():
        if in_text(addr):
            leaders.add(addr)
    leaders = {addr for addr in leaders if addr in by_addr}

    # Pass 2: carve blocks.
    labels_at: Dict[int, List[str]] = {}
    for name, addr in program.symbols.items():
        labels_at.setdefault(addr, []).append(name)
    blocks: Dict[int, BasicBlock] = {}
    current: Optional[BasicBlock] = None
    for site in sites:
        if site.addr in leaders or current is None:
            current = BasicBlock(start=site.addr,
                                 labels=sorted(labels_at.get(site.addr, [])))
            blocks[site.addr] = current
        current.sites.append(site)
        terminator, _ = _classify_terminator(site)
        if terminator != "fallthrough":
            current.terminator = terminator
            current = None

    # Pass 3: edges.
    for block in blocks.values():
        last = block.last
        assert last is not None
        terminator, succs = _classify_terminator(last)
        if terminator == "fallthrough" and last.addr + 4 >= text_end:
            block.terminator = "end-of-text"
            succs = []
        block.succs = [s for s in succs if s in blocks]
        for succ in block.succs:
            blocks[succ].preds.append(block.start)

    # Entry points.
    roots: List[int] = []
    if entries is not None:
        for entry in entries:
            addr = (program.address_of(entry) if isinstance(entry, str)
                    else entry)
            if addr in blocks:
                roots.append(addr)
    else:
        call_targets = {callee for _, callee in calls}
        for name, addr in sorted(program.symbols.items(), key=lambda s: s[1]):
            if addr in blocks and (addr in call_targets
                                   or addr not in branch_targets):
                roots.append(addr)
        if program.text_base in blocks and program.text_base not in roots:
            roots.append(program.text_base)
    if not roots and sites:
        roots = [sites[0].addr]

    return CFG(program, blocks, entries=sorted(set(roots)), calls=calls)
