"""Exporters: JSON schema, text report, Chrome trace, annotated asm."""

import json

import pytest

from repro.harness import run_kernel
from repro.harness.runner import build_kernel
from repro.isa import assemble
from repro.kernels import KERNELS
from repro.profile import (
    PROFILE_SCHEMA_VERSION,
    ProfilePayloadError,
    TimelineRecorder,
    annotate_disassembly,
    render_text,
    to_chrome_trace,
    validate_payload,
)
from repro.profile.export import CHROME_TRACE_VERSION


@pytest.fixture()
def payload(gemm_profile):
    # Round-trip through the serializer: the validator must accept what
    # `repro profile --json` actually emits.
    return json.loads(json.dumps(gemm_profile.to_payload()))


class TestJsonSchema:
    def test_payload_is_schema_versioned(self, payload):
        assert payload["schema"] == {"name": "repro.profile",
                                     "version": PROFILE_SCHEMA_VERSION}

    def test_payload_validates(self, payload):
        assert validate_payload(payload) is payload

    def test_missing_key_is_rejected(self, payload):
        del payload["totals"]
        with pytest.raises(ProfilePayloadError, match="totals"):
            validate_payload(payload)

    def test_unsupported_version_is_rejected(self, payload):
        payload["schema"]["version"] = PROFILE_SCHEMA_VERSION + 1
        with pytest.raises(ProfilePayloadError, match="version"):
            validate_payload(payload)

    def test_broken_accounting_is_rejected(self, payload):
        payload["totals"]["cycles"] += 1
        with pytest.raises(ProfilePayloadError, match="equal cycles"):
            validate_payload(payload)

    def test_block_drift_is_rejected(self, payload):
        payload["blocks"][0]["cycles"] += 1
        payload["blocks"][0]["instret"] += 1
        with pytest.raises(ProfilePayloadError, match="block cycles"):
            validate_payload(payload)

    def test_alien_stall_cause_is_rejected(self, payload):
        payload["totals"]["stalls"]["cache"] = 0
        with pytest.raises(ProfilePayloadError, match="causes"):
            validate_payload(payload)

    def test_non_object_is_rejected(self):
        with pytest.raises(ProfilePayloadError):
            validate_payload([1, 2, 3])


class TestTextReport:
    def test_report_names_the_configuration(self, gemm_profile):
        text = render_text(gemm_profile)
        assert "kernel=gemm" in text
        assert "ftype=float16" in text

    def test_report_has_the_hot_spot_tables(self, gemm_profile):
        text = render_text(gemm_profile)
        assert "hot loops" in text
        assert "hot blocks" in text
        assert "stall control" in text
        assert "flops/byte" in text

    def test_top_limits_table_rows(self, gemm_profile):
        text = render_text(gemm_profile, top=1)
        assert text.count("loop@") == 1


@pytest.fixture(scope="module")
def chrome_trace():
    """``(trace, profile)`` of one gemm float16/auto timeline run."""
    timeline = TimelineRecorder(
        build_kernel(KERNELS["gemm"], "float16", "auto").program)
    run = run_kernel(KERNELS["gemm"], ftype="float16", mode="auto",
                     profile=True, injector=timeline)
    timeline.finish(run.trace)
    return to_chrome_trace(run.profile, timeline), run.profile


class TestChromeTrace:
    def test_trace_is_loadable_json(self, chrome_trace):
        trace = json.loads(json.dumps(chrome_trace[0]))
        assert isinstance(trace["traceEvents"], list)
        assert trace["otherData"]["version"] == CHROME_TRACE_VERSION

    def test_duration_events_stay_inside_the_run(self, chrome_trace):
        trace, profile = chrome_trace
        slices = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert slices
        for event in slices:
            assert event["dur"] > 0
            assert 0 <= event["ts"] <= event["ts"] + event["dur"] \
                <= profile.cycles

    def test_threads_are_named(self, chrome_trace):
        trace = chrome_trace[0]
        names = {e["args"]["name"] for e in trace["traceEvents"]
                 if e["name"] == "thread_name"}
        assert names == {"basic blocks", "memory stalls"}


class TestAnnotatedDisassembly:
    def test_margins_carry_execution_counts(self, gemm_run):
        program = assemble(gemm_run.asm)
        text = annotate_disassembly(gemm_run.profile, program)
        lines = text.splitlines()
        assert "instret" in lines[0] and "cycles" in lines[0]
        # Every instruction of the program appears, labels interleaved.
        instr_lines = [l for l in lines[1:] if not l.endswith(":")]
        assert len(instr_lines) == len(program.words)
        # The hottest instruction's count appears somewhere.
        hottest = max(r[1] for r in gemm_run.profile.pc_table.values())
        assert any(str(hottest) in l for l in instr_lines)

    def test_unexecuted_instructions_have_blank_margins(self, gemm_run):
        program = assemble(gemm_run.asm)
        text = annotate_disassembly(gemm_run.profile, program)
        executed = {f"{pc:#08x}" for pc in gemm_run.profile.pc_table}
        for line in text.splitlines()[1:]:
            if line.endswith(":"):
                continue
            addr = next(t for t in line.split() if t.startswith("0x"))
            if addr not in executed:
                assert line.startswith(" " * 30)
