"""One canonical JSON serializer for every committed baseline.

The lint baseline, the absint baseline and the benchmark result
snapshots are all committed to git and diffed by CI, so they must
serialize identically everywhere: keys sorted, two-space indent,
a trailing newline, and non-JSON values (paths, numpy scalars)
stringified rather than crashing the writer.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Union


def dumps_canonical(payload: object) -> str:
    """Render ``payload`` as deterministic, diff-stable JSON."""
    return json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n"


def write_canonical(path: Union[str, Path], payload: object) -> Path:
    """Write ``payload`` to ``path`` in the canonical encoding."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(dumps_canonical(payload))
    return path


def read_canonical(path: Union[str, Path]) -> Optional[object]:
    """The payload written at ``path``, or ``None`` if there is none yet."""
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError:
        return None
