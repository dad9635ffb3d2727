"""Versioned request/response schemas for the kernel-execution service.

Every request body is validated against an explicit, versioned schema
before it can reach the queue: unknown fields, out-of-range values and
unsupported schema versions are rejected with a structured 400 instead
of surfacing later as a worker error.  The version handshake is
deliberately strict -- a client built against schema N+1 gets a clear
``unsupported_schema`` error from a schema-N server, never a silently
misinterpreted request.

Responses carry the same version stamp so clients can assert on it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .. import ReproError
from ..harness.parallel import SweepPoint
from ..fp import registry
from ..harness.runner import MODES, SafeRunOutcome, build_error
from ..kernels import KERNELS

#: Bump on any incompatible change to request or response bodies.
SERVE_SCHEMA_VERSION = 1

#: FP types the harness accepts (mirrors the CLI choices).  Sourced
#: from the format registry so guest extensions (posit8, mx8...) are
#: servable without schema edits; the tuple is built at import, after
#: ``repro.fp`` has registered every built-in format.
FTYPES = tuple(registry.kernel_ftypes())

#: Request priorities, best first.  Interactive kernel calls preempt
#: queued sweep batch work.
PRIORITIES = ("interactive", "batch")

#: Caps that bound what one request may ask of the service.
MAX_INSTRUCTION_BUDGET = 10_000_000_000
MAX_MEM_LATENCY = 10_000
MAX_DEADLINE_MS = 3_600_000
MAX_SWEEP_POINTS = 1024


class RequestValidationError(ReproError):
    """A request body failed schema validation (maps to HTTP 400)."""


@dataclass(frozen=True)
class KernelRequest:
    """One validated ``POST /v1/kernel`` body."""

    point: SweepPoint
    deadline_ms: Optional[int] = None
    priority: str = "interactive"
    profile: bool = False
    verify: bool = False


@dataclass(frozen=True)
class SweepRequest:
    """One validated ``POST /v1/sweep`` body."""

    points: Tuple[SweepPoint, ...]
    deadline_ms: Optional[int] = None
    priority: str = "batch"


def error_payload(type_: str, detail: str, **extra) -> Dict:
    """The uniform error body: ``{"error": {"type", "detail", ...}}``."""
    body = {"type": type_, "detail": detail}
    body.update(extra)
    return {"error": body}


def _require_mapping(payload, where: str) -> Dict:
    if not isinstance(payload, dict):
        raise RequestValidationError(
            f"{where}: expected a JSON object, got "
            f"{type(payload).__name__}")
    return payload


def _check_schema_version(payload: Dict, where: str) -> None:
    version = payload.get("schema", SERVE_SCHEMA_VERSION)
    if version != SERVE_SCHEMA_VERSION:
        raise RequestValidationError(
            f"{where}: unsupported schema version {version!r} "
            f"(this server speaks {SERVE_SCHEMA_VERSION})")


def _int_field(payload: Dict, name: str, default: int, lo: int, hi: int,
               where: str) -> int:
    value = payload.get(name, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise RequestValidationError(
            f"{where}: {name} must be an integer, got {value!r}")
    if not lo <= value <= hi:
        raise RequestValidationError(
            f"{where}: {name}={value} out of range [{lo}, {hi}]")
    return value


def _choice_field(payload: Dict, name: str, default: str, choices,
                  where: str) -> str:
    value = payload.get(name, default)
    if value not in choices:
        raise RequestValidationError(
            f"{where}: {name}={value!r} not one of {sorted(choices)}")
    return value


_POINT_FIELDS = {"kernel", "ftype", "mode", "mem_latency", "seed",
                 "instruction_budget"}
_KERNEL_FIELDS = _POINT_FIELDS | {"schema", "deadline_ms", "priority",
                                  "profile", "verify"}
_SWEEP_FIELDS = {"schema", "points", "deadline_ms", "priority"}


def _reject_unknown(payload: Dict, allowed, where: str) -> None:
    unknown = sorted(set(payload) - set(allowed))
    if unknown:
        raise RequestValidationError(
            f"{where}: unknown field(s) {', '.join(unknown)} "
            f"(schema version {SERVE_SCHEMA_VERSION})")


def parse_point(payload, where: str = "point") -> SweepPoint:
    """Validate the sweep-point core shared by kernel and sweep bodies."""
    payload = _require_mapping(payload, where)
    kernel = payload.get("kernel")
    if not isinstance(kernel, str) or kernel not in KERNELS:
        raise RequestValidationError(
            f"{where}: kernel={kernel!r} unknown "
            f"(choose from {sorted(KERNELS)})")
    ftype = _choice_field(payload, "ftype", "float16", FTYPES, where)
    mode = _choice_field(payload, "mode", "auto", MODES, where)
    problem = build_error(KERNELS[kernel], ftype, mode)
    if problem is not None:
        raise RequestValidationError(f"{where}: {problem}")
    return SweepPoint(
        name=kernel,
        ftype=ftype,
        mode=mode,
        mem_latency=_int_field(payload, "mem_latency", 1, 1,
                               MAX_MEM_LATENCY, where),
        seed=_int_field(payload, "seed", 0, 0, 2**32 - 1, where),
        instruction_budget=_int_field(payload, "instruction_budget",
                                      50_000_000, 1,
                                      MAX_INSTRUCTION_BUDGET, where),
    )


def _deadline_field(payload: Dict, where: str) -> Optional[int]:
    if "deadline_ms" not in payload or payload["deadline_ms"] is None:
        return None
    return _int_field(payload, "deadline_ms", 0, 1, MAX_DEADLINE_MS, where)


def parse_kernel_request(payload) -> KernelRequest:
    """Validate a ``POST /v1/kernel`` body."""
    where = "kernel request"
    payload = _require_mapping(payload, where)
    _check_schema_version(payload, where)
    _reject_unknown(payload, _KERNEL_FIELDS, where)
    profile = payload.get("profile", False)
    if not isinstance(profile, bool):
        raise RequestValidationError(
            f"{where}: profile must be a boolean, got {profile!r}")
    verify = payload.get("verify", False)
    if not isinstance(verify, bool):
        raise RequestValidationError(
            f"{where}: verify must be a boolean, got {verify!r}")
    return KernelRequest(
        point=parse_point({k: v for k, v in payload.items()
                           if k in _POINT_FIELDS}, where),
        deadline_ms=_deadline_field(payload, where),
        priority=_choice_field(payload, "priority", "interactive",
                               PRIORITIES, where),
        profile=profile,
        verify=verify,
    )


def parse_sweep_request(payload) -> SweepRequest:
    """Validate a ``POST /v1/sweep`` body."""
    where = "sweep request"
    payload = _require_mapping(payload, where)
    _check_schema_version(payload, where)
    _reject_unknown(payload, _SWEEP_FIELDS, where)
    points = payload.get("points")
    if not isinstance(points, list) or not points:
        raise RequestValidationError(
            f"{where}: points must be a non-empty list")
    if len(points) > MAX_SWEEP_POINTS:
        raise RequestValidationError(
            f"{where}: {len(points)} points exceeds the per-sweep cap "
            f"of {MAX_SWEEP_POINTS}")
    parsed = []
    for index, entry in enumerate(points):
        entry = _require_mapping(entry, f"{where}: points[{index}]")
        _reject_unknown(entry, _POINT_FIELDS, f"{where}: points[{index}]")
        parsed.append(parse_point(entry, f"{where}: points[{index}]"))
    return SweepRequest(
        points=tuple(parsed),
        deadline_ms=_deadline_field(payload, where),
        priority=_choice_field(payload, "priority", "batch", PRIORITIES,
                               where),
    )


# ----------------------------------------------------------------------
# Response payloads
# ----------------------------------------------------------------------
def point_payload(point: SweepPoint) -> Dict:
    return {
        "kernel": point.name,
        "ftype": point.ftype,
        "mode": point.mode,
        "mem_latency": point.mem_latency,
        "seed": point.seed,
        "instruction_budget": point.instruction_budget,
    }


def outcome_payload(outcome: SafeRunOutcome,
                    profile_payload: Optional[Dict] = None) -> Dict:
    """JSON-safe projection of one crash-isolated kernel outcome.

    Output arrays are summarised as SHA-256 digests of their raw bytes
    (plus dtype/shape): two runs of the same point are bit-identical
    exactly when their digests match, without shipping megabytes of
    array data per response.
    """
    body: Dict = {"status": outcome.status, "detail": outcome.detail or ""}
    run = outcome.run
    if run is not None:
        try:
            sqnr = round(float(run.sqnr_db()), 4)
        except Exception:
            sqnr = None  # no FP outputs (or a degenerate partial run)
        outputs = {}
        for name, array in run.outputs.items():
            data = np.ascontiguousarray(array)
            outputs[name] = {
                "sha256": hashlib.sha256(data.tobytes()).hexdigest(),
                "dtype": str(data.dtype),
                "shape": list(data.shape),
            }
        body["run"] = {
            "kernel": run.spec_name,
            "ftype": run.ftype,
            "mode": run.mode,
            "mem_latency": run.mem_latency,
            "exit_reason": run.exit_reason,
            "cycles": run.cycles,
            "instret": run.instret,
            "energy_pj": {
                "total": round(run.energy.total, 3),
                "op": round(run.energy.op_energy, 3),
                "mem": round(run.energy.mem_energy, 3),
                "background": round(run.energy.background_energy, 3),
            },
            "sqnr_db": sqnr,
            "sim_seconds": round(run.sim_seconds, 6),
            "guest_mips": round(run.guest_mips, 4),
            "outputs": outputs,
        }
    if profile_payload is not None:
        body["profile"] = profile_payload
    return body
