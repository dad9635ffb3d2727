"""One canonical JSON serializer and one drift gate for every snapshot.

The lint baseline, the absint baseline and the benchmark result
snapshots are all committed to git and diffed by CI, so they must
serialize identically everywhere: keys sorted, two-space indent,
a trailing newline, and non-JSON values (paths, numpy scalars)
stringified rather than crashing the writer.

:func:`check_baseline` is the only way a deterministic snapshot is
compared.  To regenerate one, delete the file, rerun its test or bench
(which writes it and fails), and review the ``git diff``.  Host
measurement records (``BENCH_*.json``) are not deterministic: their
benches gate ratios against :func:`committed_record`, which never
rewrites a committed record either.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Optional, Union

#: How many differing values a failed check names before summarising.
MAX_REPORTED = 20


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


def committed_record(path: Union[str, Path], payload: object) -> object:
    """The measurement record committed at ``path``, for a bench to
    gate ``payload`` against.

    The record is only read: a run never resets the baseline the next
    run is gated against.  A missing record is written from
    ``payload`` and the call fails, as in :func:`check_baseline`.  The
    bench's ``__main__`` re-records on purpose.
    """
    path = Path(path)
    committed = read_canonical(path)
    if committed is None:
        write_canonical(path, payload)
        raise AssertionError(
            f"{path.stem}: no committed record; wrote {path}, "
            f"review and commit it")
    return committed


def check_baseline(path: Union[str, Path], payload: object) -> None:
    """Fail unless ``payload`` equals the snapshot committed at ``path``.

    ``payload`` is compared in its canonical JSON form, exactly, floats
    included; the failure names the snapshot and each differing value by
    its flattened key path, ``old -> new``.  A missing snapshot is
    written canonically and the check still fails, so a new or
    regenerated snapshot always goes through review.
    """
    path = Path(path)
    committed = read_canonical(path)
    if committed is None:
        write_canonical(path, payload)
        raise AssertionError(
            f"{path.stem}: no committed snapshot; wrote {path}, "
            f"review and commit it")
    diffs: List[str] = []
    _diff(committed, json.loads(dumps_canonical(payload)), "", diffs)
    if diffs:
        shown = diffs[:MAX_REPORTED]
        if len(diffs) > MAX_REPORTED:
            shown.append(f"... and {len(diffs) - MAX_REPORTED} more")
        raise AssertionError(
            f"{path.stem}: {len(diffs)} value(s) differ from {path}\n  "
            + "\n  ".join(f"{path.stem}: {line}" for line in shown))


def _diff(old: object, new: object, where: str, out: List[str]) -> None:
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            _diff_member(old, new, key, _join(where, key), out)
    elif isinstance(old, list) and isinstance(new, list):
        labels = _row_labels(old) + _row_labels(new)[len(old):]
        for index, label in enumerate(labels):
            _diff_member(old, new, index, _join(where, label), out)
    elif not _same(old, new):
        out.append(f"{where or '<root>'}: {_show(old)} -> {_show(new)}")


def _diff_member(old, new, key, where: str, out: List[str]) -> None:
    has_old = key in old if isinstance(old, dict) else key < len(old)
    has_new = key in new if isinstance(new, dict) else key < len(new)
    if has_old and has_new:
        _diff(old[key], new[key], where, out)
    elif has_old:
        out.append(f"{where}: {_show(old[key])} -> <removed>")
    else:
        out.append(f"{where}: <absent> -> {_show(new[key])}")


def _row_labels(rows: list) -> List[str]:
    """Name each row by its identifying string fields, else its index.

    A row list is a list of objects; its identifying fields are the
    string fields whose value varies between rows (``benchmark``,
    ``ftype``, ``mode``, but not an all-``"ok"`` ``status``).  A label
    shared by several rows gets its index appended.
    """
    indexed = [f"[{index}]" for index in range(len(rows))]
    if not rows or not all(isinstance(row, dict) for row in rows):
        return indexed
    keys = sorted(
        key for key in set.intersection(*(set(row) for row in rows))
        if all(isinstance(row[key], str) for row in rows)
        and len({row[key] for row in rows}) > 1)
    if not keys:
        return indexed
    labels = ["/".join(row[key] for key in keys) for row in rows]
    return [label if labels.count(label) == 1 else label + suffix
            for label, suffix in zip(labels, indexed)]


def _join(where: str, step: str) -> str:
    if step.startswith("[") or not where:
        return where + step
    return f"{where}.{step}"


def _same(old: object, new: object) -> bool:
    # ``10`` and ``10.0`` (or ``1`` and ``true``) are different JSON.
    return type(old) is type(new) and old == new


def _show(value: object) -> str:
    text = json.dumps(value, sort_keys=True)
    return text if len(text) <= 80 else text[:77] + "..."
