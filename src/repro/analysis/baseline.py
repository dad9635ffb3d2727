"""Lint baseline over every built-in kernel build configuration.

``compute_baseline`` builds each benchmark kernel in every valid
(type x vectorization) configuration with :func:`repro.harness.runner.
build_kernel` -- the builder :func:`run_kernel` uses, so the snapshot
covers the programs that run -- lints the assembled output and returns
a deterministic summary: per-configuration finding counts by check and
severity, plus each finding's identity (check, line, suggestion).
The committed snapshot lives at ``benchmarks/results/lint_baseline.json``;
the regression test in ``tests/analysis/test_baseline.py`` recomputes
it and checks it with :func:`repro.analysis.serialize.check_baseline`,
so any codegen change that alters what the analyzer sees shows up as a
reviewable baseline diff rather than silent drift.  To regenerate,
delete the snapshot, rerun the test and review the diff.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional

#: The ftypes of the build matrix; unbuildable points are skipped.
FTYPES = ("float", "float16", "float16alt", "float8")


def _config_key(kernel: str, ftype: str, mode: str) -> str:
    return f"{kernel}/{ftype}/{mode}"


def compute_baseline(
    kernels: Optional[List[str]] = None,
    ftypes: Optional[List[str]] = None,
    modes: Optional[List[str]] = None,
) -> Dict[str, object]:
    """Lint every requested configuration; returns the baseline payload."""
    from ..harness.runner import MODES, build_kernel, build_points
    from ..kernels import KERNELS
    from .lints import lint_program

    configs: Dict[str, object] = {}
    totals: Counter = Counter()
    severity_totals: Counter = Counter()
    for name, ftype, mode in build_points(ftypes or FTYPES, kernels,
                                          modes or MODES):
        kernel = build_kernel(KERNELS[name], ftype, mode, lint=False)
        result = lint_program(kernel.program,
                              vector_report=kernel.vector_report,
                              source=kernel.asm)
        by_check = Counter(f.check for f in result.findings)
        by_severity = Counter(f.severity for f in result.findings)
        findings = []
        for finding in result.findings:
            entry = {"check": finding.check, "severity": finding.severity,
                     "line": finding.line}
            if finding.suggestion is not None:
                entry["suggestion"] = finding.suggestion
            findings.append(entry)
        configs[_config_key(name, ftype, mode)] = {
            "findings": findings,
            "by_check": dict(sorted(by_check.items())),
            "by_severity": dict(sorted(by_severity.items())),
            "blocks": len(result.cfg.blocks),
        }
        totals.update(by_check)
        severity_totals.update(by_severity)
    return {
        "configs": configs,
        "totals_by_check": dict(sorted(totals.items())),
        "totals_by_severity": dict(sorted(severity_totals.items())),
        "config_count": len(configs),
    }
