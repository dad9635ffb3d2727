"""Shared helper for the per-figure/table benchmark harness.

Every figure, table and ablation bench checks its payload against the
snapshot committed under ``results/`` with
:func:`repro.analysis.serialize.check_baseline`; none rewrites one.  To
regenerate a snapshot, delete it, rerun its bench (which writes the
file and fails) and review the diff.
"""

import os


def result_path(name):
    """The committed snapshot ``results/<name>.json``."""
    return os.path.join(os.path.dirname(__file__), "results", f"{name}.json")
