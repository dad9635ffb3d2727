"""The static admission gate: ``POST /v1/kernel`` with ``verify``.

A verified request is linted and abstractly interpreted before it is
allowed anywhere near the execution queue.  Error-severity findings
produce a structured 422 carrying the findings; verdicts are cached by
program digest so the analysis runs once per (kernel, ftype, mode).
"""

import contextlib
import threading

import pytest

from repro.analysis.absint import AbsintConfig
from repro.analysis.lints import LintConfig
from repro.harness.runner import SafeRunOutcome
from repro.serve import ReproServeApp, ServeClient, ServeClientError
from repro.serve.schema import RequestValidationError, parse_kernel_request
from repro.serve.server import make_server
from repro.serve.verify import StaticVerifier

# Rejects everything FP-valued: an impossible error budget makes every
# store exceed it at error severity.
STRICT_CONFIG = LintConfig(absint=AbsintConfig(error_budget=1e-12))


def instant_runner(point, max_instructions=None, profile=False):
    return SafeRunOutcome(status="ok")


def kernel_body(**extra):
    body = {"schema": 1, "kernel": "atax", "ftype": "float8",
            "mode": "auto"}
    body.update(extra)
    return body


@contextlib.contextmanager
def serving(**app_kwargs):
    app = ReproServeApp(**app_kwargs)
    server = make_server(app)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    client = ServeClient(f"http://127.0.0.1:{server.server_address[1]}",
                         timeout=60.0)
    try:
        yield app, client
    finally:
        server.shutdown()
        thread.join(timeout=5.0)
        server.server_close()
        app.queue.close()
        app.executor.drain(timeout=10.0)
        app.close()


class TestSchema:
    def test_verify_defaults_off(self):
        request = parse_kernel_request(kernel_body())
        assert request.verify is False

    def test_verify_accepts_booleans_only(self):
        assert parse_kernel_request(kernel_body(verify=True)).verify
        with pytest.raises(RequestValidationError):
            parse_kernel_request(kernel_body(verify=1))
        with pytest.raises(RequestValidationError):
            parse_kernel_request(kernel_body(verify="yes"))


class TestVerifier:
    def test_clean_kernel_passes_and_caches(self):
        verifier = StaticVerifier(None)
        point = parse_kernel_request(kernel_body()).point
        verdict, cached = verifier.verify(point)
        assert verdict.ok and not cached
        again, cached = verifier.verify(point)
        assert cached
        assert again.fingerprint == verdict.fingerprint

    def test_strict_budget_rejects_with_findings(self):
        verifier = StaticVerifier(STRICT_CONFIG)
        point = parse_kernel_request(kernel_body()).point
        verdict, _ = verifier.verify(point)
        assert not verdict.ok
        assert verdict.finding_count > 0
        assert all(f["severity"] == "error" for f in verdict.findings)
        assert any(f["check"] == "error-budget-exceeded"
                   for f in verdict.findings)


class TestAdmissionGate:
    def test_pass_path_annotates_and_caches(self):
        app = ReproServeApp(workers=1, runner=instant_runner)
        try:
            request = parse_kernel_request(kernel_body(verify=True))
            status, _, payload = app.run_kernel(request)
            assert status == 200
            verified = payload["verified"]
            assert verified["cached_verdict"] is False
            # finding_count reports *all* findings (the default config
            # surfaces overflow warnings here); none rose to error, or
            # the request would have been rejected.
            assert verified["finding_count"] > 0
            assert verified["fingerprint"]
            # Same program again: the verdict cache answers.
            status, _, payload = app.run_kernel(request)
            assert status == 200
            assert payload["verified"]["cached_verdict"] is True
            assert app.metrics.verifications == 2
            assert app.metrics.verification_rejects == 0
            assert app.metrics.verification_cache_hits == 1
        finally:
            app.queue.close()
            app.executor.drain(timeout=10.0)
            app.close()

    def test_reject_path_is_structured_422(self):
        app = ReproServeApp(workers=1, runner=instant_runner,
                            verify_config=STRICT_CONFIG)
        try:
            request = parse_kernel_request(kernel_body(verify=True))
            status, _, payload = app.run_kernel(request)
            assert status == 422
            error = payload["error"]
            assert error["type"] == "verification_failed"
            assert error["fingerprint"]
            assert error["findings"]
            assert all(f["check"] == "error-budget-exceeded"
                       for f in error["findings"])
            assert app.metrics.verification_rejects == 1
        finally:
            app.queue.close()
            app.executor.drain(timeout=10.0)
            app.close()

    def test_unverified_requests_skip_the_gate(self):
        # Even a config that rejects everything is never consulted
        # unless the request opts in.
        app = ReproServeApp(workers=1, runner=instant_runner,
                            verify_config=STRICT_CONFIG)
        try:
            request = parse_kernel_request(kernel_body())
            status, _, payload = app.run_kernel(request)
            assert status == 200
            assert "verified" not in payload
            assert app.metrics.verifications == 0
        finally:
            app.queue.close()
            app.executor.drain(timeout=10.0)
            app.close()


class TestOverHTTP:
    def test_query_parameter_arms_the_gate(self):
        with serving(workers=1, runner=instant_runner,
                     verify_config=STRICT_CONFIG) as (app, client):
            # Body flag and ?verify=1 are equivalent; use the query
            # form via a raw path to mirror curl usage.
            with pytest.raises(ServeClientError) as exc_info:
                client._request("POST", "/v1/kernel?verify=1",
                                kernel_body())
            assert exc_info.value.status == 422
            assert exc_info.value.error_type == "verification_failed"

    def test_client_verify_flag_round_trips(self):
        with serving(workers=1, runner=instant_runner) as (app, client):
            payload = client.run_kernel("atax", ftype="float8",
                                        mode="auto", verify=True)
            assert payload["verified"]["cached_verdict"] is False
            assert payload["verified"]["fingerprint"]

    def test_unbuildable_point_is_400_before_verification(self):
        # No hand-vectorized source exists for a guest format, so the
        # point has no program to verify or run.
        with serving(workers=1, runner=instant_runner) as (app, client):
            with pytest.raises(ServeClientError) as exc_info:
                client._request("POST", "/v1/kernel?verify=1", kernel_body(
                    kernel="gemm", ftype="posit8", mode="manual"))
            assert exc_info.value.status == 400
            assert exc_info.value.error_type == "invalid_request"
            assert app.metrics.verifications == 0
