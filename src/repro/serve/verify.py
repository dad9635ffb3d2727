"""Static admission verification for the kernel service.

``POST /v1/kernel?verify=1`` asks the server to prove the requested
configuration numerically safe *before* it spends a queue slot and
simulation time on it.  The program the point would execute -- built by
:func:`~repro.harness.runner.build_kernel`, as the run builds it -- is
pushed through the full lint suite -- including the abstract-
interpretation checks from :mod:`repro.analysis.absint` -- and any
**error**-severity finding rejects the request with a structured 422
carrying the findings, so a client learns *why* its type map is unsafe
without a single simulated instruction.

Verdicts are cached by :func:`~repro.harness.parallel.
program_fingerprint` -- the same digest the disk result cache keys on
-- so one verification covers every later request for the same
(kernel, ftype, mode) program regardless of seed or memory latency.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..analysis.absint import AbsintConfig
from ..analysis.lints import LintConfig, lint_program, severity_at_least
from ..harness.parallel import SweepPoint, program_fingerprint
from ..harness.runner import build_kernel
from ..kernels import KERNELS

#: Findings at or above this severity refuse admission.
REJECT_SEVERITY = "error"


@dataclass(frozen=True)
class Verdict:
    """Outcome of statically verifying one compiled program."""

    fingerprint: str
    ok: bool
    findings: Tuple[Dict, ...] = ()  #: rendered LintFinding payloads
    finding_count: int = 0  #: all findings, not just rejecting ones
    detail: str = ""

    def payload(self) -> Dict:
        return {
            "fingerprint": self.fingerprint,
            "ok": self.ok,
            "findings": list(self.findings),
            "finding_count": self.finding_count,
        }


@dataclass
class StaticVerifier:
    """Compile-and-lint gate with a per-program verdict cache."""

    config: Optional[LintConfig] = None
    _lock: threading.Lock = field(default_factory=threading.Lock)
    _verdicts: Dict[str, Verdict] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.config is None:
            self.config = LintConfig(absint=AbsintConfig())

    def verify(self, point: SweepPoint) -> Tuple[Verdict, bool]:
        """Verdict for a point plus whether it came from the cache."""
        fingerprint = program_fingerprint(point.name, point.ftype,
                                          point.mode)
        with self._lock:
            cached = self._verdicts.get(fingerprint)
        if cached is not None:
            return cached, True
        verdict = self._compute(point, fingerprint)
        with self._lock:
            self._verdicts[fingerprint] = verdict
        return verdict, False

    # ------------------------------------------------------------------
    def _compute(self, point: SweepPoint, fingerprint: str) -> Verdict:
        try:
            kernel = build_kernel(KERNELS[point.name], point.ftype,
                                  point.mode, lint=False)
        except Exception as exc:  # compile failure is itself a verdict
            return Verdict(fingerprint=fingerprint, ok=False,
                           detail=f"compilation failed: {exc}")
        result = lint_program(kernel.program, source=kernel.asm,
                              vector_report=kernel.vector_report,
                              config=self.config)
        rejecting: List[Dict] = [
            f.to_dict() for f in result.findings
            if severity_at_least(f.severity, REJECT_SEVERITY)
        ]
        if rejecting:
            return Verdict(
                fingerprint=fingerprint, ok=False,
                findings=tuple(rejecting),
                finding_count=len(result.findings),
                detail=f"{len(rejecting)} {REJECT_SEVERITY}-severity "
                       f"finding(s) from the static precision verifier")
        return Verdict(fingerprint=fingerprint, ok=True,
                       finding_count=len(result.findings))
