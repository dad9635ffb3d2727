"""Chrome-trace timeline capture: a step hook on the reference loop.

The profile itself is built after the run from the
:class:`~repro.sim.tracer.Trace` (:func:`repro.profile.build_profile`)
and needs no hook.  A timeline needs *when* each basic block ran, which
no engine counter keeps, so :class:`TimelineRecorder` is a
``step_hook``: pass it as ``run_kernel(..., injector=recorder)`` (the
run then takes the reference loop, as fault injection does), call
:meth:`TimelineRecorder.finish` with the run's trace, and hand it to
:func:`repro.profile.to_chrome_trace`.  ``repro profile --trace FILE``
is the only caller.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..isa.assembler import Program
    from ..sim.simulator import Simulator
    from ..sim.tracer import Trace


class TimelineRecorder:
    """Records one event per basic-block visit and one per memory stall.

    Each list keeps at most ``max_events`` entries: long runs truncate
    rather than exhaust memory, and ``truncated`` says when block
    events were dropped.  Times are simulated cycles.
    """

    def __init__(self, program: "Program", max_events: int = 100_000):
        from ..analysis.cfg import build_cfg

        self.max_events = max_events
        self._pc_to_block = build_cfg(program).pc_block_map()
        self.block_events: List[Tuple[int, int, int]] = []  # (block, t0, t1)
        self.stall_events: List[Tuple[int, int, int]] = []  # (pc, t0, dur)
        self.truncated = False
        self._sim: Optional["Simulator"] = None
        self._current: Optional[int] = None
        self._block_t0 = 0
        #: (pc, cycles before it, instructions before it) of the
        #: instruction about to run; it is accounted once it retired.
        self._pending: Optional[Tuple[int, int, int]] = None

    def __call__(self, sim: "Simulator", executed: int) -> None:
        """The step hook: called before every fetch."""
        now = sim.machine.csr.cycle_source()
        if self._pending is not None:
            self._retired(*self._pending[:2])
        self._sim = sim
        self._pending = (sim.machine.pc, now, executed)

    def finish(self, trace: "Trace") -> None:
        """Close the timeline at the end of the run that made ``trace``."""
        if self._pending is not None:
            pc, now, executed = self._pending
            if trace.instret > executed:  # the last instruction retired
                self._retired(pc, now)
            self._pending = None
        if self._current is not None:
            self._close_block(trace.cycles)

    # ------------------------------------------------------------------
    def _retired(self, pc: int, now: int) -> None:
        block = self._pc_to_block.get(pc)
        if block is not None and block != self._current:
            if self._current is not None:
                self._close_block(now)
            self._current = block
            self._block_t0 = now
        sim = self._sim
        split = sim.timing.breakdown(sim.instruction_at(pc))
        if split.cause == "mem" and len(self.stall_events) < self.max_events:
            self.stall_events.append((pc, now + split.base, split.stall))

    def _close_block(self, now: int) -> None:
        if len(self.block_events) < self.max_events:
            self.block_events.append((self._current, self._block_t0, now))
        else:
            self.truncated = True
        self._current = None
