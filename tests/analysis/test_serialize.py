"""check_baseline: the one drift gate for every committed snapshot;
committed_record: the read-only baseline of a host measurement."""

import re

import numpy as np
import pytest

from repro.analysis.serialize import (
    check_baseline,
    committed_record,
    dumps_canonical,
    write_canonical,
)

ROWS = [
    {"benchmark": "gemm", "ftype": "float8", "mode": "auto",
     "status": "ok", "speedup": 2.5},
    {"benchmark": "atax", "ftype": "float16", "mode": "auto",
     "status": "ok", "speedup": 1.6},
]


def _committed(tmp_path, payload, name="snap"):
    return write_canonical(tmp_path / f"{name}.json", payload)


def _failure(path, payload):
    with pytest.raises(AssertionError) as excinfo:
        check_baseline(path, payload)
    return str(excinfo.value)


def test_equal_payload_passes(tmp_path):
    payload = {"rows": ROWS, "total": 3}
    check_baseline(_committed(tmp_path, payload), payload)


def test_changed_nested_float_names_its_path(tmp_path):
    path = _committed(tmp_path, {"a": {"b": {"c": 0.1}}})
    message = _failure(path, {"a": {"b": {"c": 0.1 + 1e-12}}})
    assert "snap: a.b.c: 0.1 -> 0.100000000001" in message


def test_changed_row_cell_names_the_row_fields(tmp_path):
    path = _committed(tmp_path, ROWS, name="fig1_speedup")
    rows = [dict(row) for row in ROWS]
    rows[0]["speedup"] = 2.75
    message = _failure(path, rows)
    # The constant ``status``/``mode`` fields do not identify a row.
    assert "fig1_speedup: gemm/float8.speedup: 2.5 -> 2.75" in message
    assert "float16" not in message


def test_added_and_removed_keys_fail(tmp_path):
    path = _committed(tmp_path, {"kept": 1, "old": 2})
    assert "new: <absent> -> 3" in _failure(path, {"kept": 1, "old": 2,
                                                   "new": 3})
    assert "old: 2 -> <removed>" in _failure(path, {"kept": 1})


def test_int_and_float_of_equal_value_differ(tmp_path):
    path = _committed(tmp_path, {"cycles": 10})
    assert "cycles: 10 -> 10.0" in _failure(path, {"cycles": 10.0})


def test_payload_equals_its_committed_json_form(tmp_path):
    # Int keys, tuples and numpy scalars compare as a write renders them,
    # whatever the committed file's layout.
    path = tmp_path / "snap.json"
    path.write_text('{"64": {"lanes": [2, 4], "x": 0.5},'
                    ' "32": {"lanes": [1], "x": null}}')
    check_baseline(path, {64: {"lanes": (2, 4), "x": np.float64(0.5)},
                          32: {"lanes": (1,), "x": None}})


def test_mismatch_leaves_the_file_untouched(tmp_path):
    path = _committed(tmp_path, {"a": 1})
    before = path.read_bytes()
    _failure(path, {"a": 2})
    assert path.read_bytes() == before


def test_missing_file_is_written_canonically_and_fails(tmp_path):
    path = tmp_path / "results" / "fresh.json"
    payload = {"b": [1, 2], "a": (3,)}
    message = _failure(path, payload)
    assert re.match(r"fresh: no committed snapshot", message)
    assert path.read_text() == dumps_canonical(payload)
    check_baseline(path, payload)


def test_committed_record_is_read_and_never_rewritten(tmp_path):
    path = _committed(tmp_path, {"ratio": 2.5}, name="BENCH_x")
    before = path.read_bytes()
    assert committed_record(path, {"ratio": 1.0}) == {"ratio": 2.5}
    assert path.read_bytes() == before


def test_missing_record_is_written_and_fails(tmp_path):
    path = tmp_path / "results" / "BENCH_fresh.json"
    with pytest.raises(AssertionError, match="BENCH_fresh: no committed "
                       "record"):
        committed_record(path, {"ratio": 3.0})
    assert path.read_text() == dumps_canonical({"ratio": 3.0})
    assert committed_record(path, {"ratio": 1.0}) == {"ratio": 3.0}
