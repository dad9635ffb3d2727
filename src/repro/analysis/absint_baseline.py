"""Abstract-interpretation baseline over every kernel configuration.

``compute_absint_baseline`` runs :func:`repro.analysis.absint.
analyze_program` over the same kernel x ftype x mode build matrix the
lint baseline covers and snapshots, per configuration, the analysis
summary (site counts, widened headers, the largest finite error bound)
plus every risk's identity.  The committed snapshot lives at
``benchmarks/results/absint_baseline.json``; the drift test in
``tests/analysis/test_absint_baseline.py`` recomputes it and checks it
with :func:`repro.analysis.serialize.check_baseline`, so a
transfer-function or widening change shows up as a reviewable baseline
diff rather than silent drift.  To regenerate, delete the snapshot,
rerun the test and review the diff.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional

from .baseline import FTYPES, _config_key


def compute_absint_baseline(
    kernels: Optional[List[str]] = None,
    ftypes: Optional[List[str]] = None,
    modes: Optional[List[str]] = None,
) -> Dict[str, object]:
    """Analyze every requested configuration; returns the payload."""
    from ..harness.runner import MODES, build_kernel, build_points
    from ..kernels import KERNELS
    from .absint import analyze_program, collect_risks

    configs: Dict[str, object] = {}
    kind_totals: Counter = Counter()
    for name, ftype, mode in build_points(ftypes or FTYPES, kernels,
                                          modes or MODES):
        kernel = build_kernel(KERNELS[name], ftype, mode, lint=False)
        result = analyze_program(kernel.program)
        risks = collect_risks(result)
        by_kind = Counter(risk.kind for risk in risks)
        entries = []
        for risk in risks:
            entry: Dict[str, object] = {"kind": risk.kind,
                                        "line": risk.site.line,
                                        "mnemonic": risk.site.mnemonic}
            if risk.fmt is not None:
                entry["fmt"] = risk.fmt
            if risk.suggestion is not None:
                entry["suggestion"] = risk.suggestion
            entries.append(entry)
        configs[_config_key(name, ftype, mode)] = {
            "risks": entries,
            "by_kind": dict(sorted(by_kind.items())),
            "summary": result.summary(),
        }
        kind_totals.update(by_kind)
    return {
        "configs": configs,
        "totals_by_kind": dict(sorted(kind_totals.items())),
        "config_count": len(configs),
    }
