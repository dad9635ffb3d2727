"""One builder turns a (kernel, ftype, mode) point into its program.

Every surface that checks a kernel build -- the ``?verify=1`` serve
gate, ``repro lint``/``analyze --kernel`` and both committed baselines
-- must check the program :func:`run_kernel` actually runs, points
with no program must be refused up front, and the cache key must
cover everything the build reads.
"""

import dataclasses

import pytest

import repro.compiler as compiler
from repro import cli
from repro.analysis.absint_baseline import compute_absint_baseline
from repro.analysis.baseline import compute_baseline
from repro.fp import registry
from repro.harness import parallel, runner
from repro.harness.parallel import (DiskResultCache, SweepPoint,
                                    program_fingerprint, run_points)
from repro.harness.runner import (HarnessError, build_error, build_kernel,
                                  build_points)
from repro.kernels import KERNELS
from repro.serve.schema import RequestValidationError, parse_point
from repro.serve.verify import StaticVerifier

#: Kernels whose builds carry spec-level compiler options.
OPTED = [name for name, spec in sorted(KERNELS.items()) if spec.compile_opts]

#: Every build of those kernels.
OPTED_POINTS = list(build_points(registry.kernel_ftypes(), OPTED))

#: No hand-vectorized source exists for a guest format.
UNBUILDABLE = ("gemm", "posit8", "manual")


class _Compiled(BaseException):
    """Carries the first program a surface compiles out of it."""

    def __init__(self, kernel):
        super().__init__()
        self.kernel = kernel


@pytest.fixture
def first_program(monkeypatch):
    """``asm_of(surface, *args)``: the program ``surface`` compiles.

    Both ``compile_source`` names a caller may resolve are replaced by
    one that compiles for real, then stops the surface, so each surface
    costs a single (cached) compile.
    """
    real = compiler.compile_source

    def stop(*args, **kwargs):
        raise _Compiled(real(*args, **kwargs))

    monkeypatch.setattr(compiler, "compile_source", stop)
    monkeypatch.setattr(runner, "compile_source", stop)

    def asm_of(surface, *args, **kwargs):
        with pytest.raises(_Compiled) as caught:
            surface(*args, **kwargs)
        return caught.value.kernel.asm

    return asm_of


@pytest.mark.parametrize("name,ftype,mode", OPTED_POINTS,
                         ids=["/".join(point) for point in OPTED_POINTS])
def test_checked_program_is_run_program(first_program, name, ftype, mode):
    spec = KERNELS[name]
    ran = first_program(runner.run_kernel, spec, ftype, mode)
    flags = ["--kernel", name, "--ftype", ftype, "--mode", mode]
    checked = {
        "verify": first_program(StaticVerifier().verify,
                                SweepPoint(name, ftype, mode)),
        "lint": first_program(cli.main, ["lint", *flags]),
        "analyze": first_program(cli.main, ["analyze", *flags]),
        "lint baseline": first_program(compute_baseline, [name], [ftype],
                                       [mode]),
        "absint baseline": first_program(compute_absint_baseline, [name],
                                         [ftype], [mode]),
    }
    for surface, asm in checked.items():
        assert asm == ran, f"{surface} checks another program"


# ----------------------------------------------------------------------
# Unbuildable points are refused at the edge
# ----------------------------------------------------------------------
def test_build_error_names_the_missing_form():
    assert build_error(KERNELS["gemm"], "float8", "manual") is None
    assert "posit8" in build_error(KERNELS[UNBUILDABLE[0]], *UNBUILDABLE[1:])
    assert "no manual-vectorized form" in build_error(
        KERNELS["svm"], "float8", "manual")
    assert "unknown mode" in build_error(KERNELS["gemm"], "float8", "simd")
    with pytest.raises(HarnessError):
        build_kernel(KERNELS[UNBUILDABLE[0]], *UNBUILDABLE[1:])


def test_schema_rejects_unbuildable_point():
    kernel, ftype, mode = UNBUILDABLE
    with pytest.raises(RequestValidationError, match="posit8"):
        parse_point({"kernel": kernel, "ftype": ftype, "mode": mode})


@pytest.mark.parametrize("command", [
    ["kernel", UNBUILDABLE[0]],
    ["lint", "--kernel", UNBUILDABLE[0]],
    ["analyze", "--kernel", UNBUILDABLE[0]],
    ["profile", UNBUILDABLE[0]],
])
def test_cli_rejects_unbuildable_point(capsys, command):
    argv = command + ["--ftype", UNBUILDABLE[1], "--mode", UNBUILDABLE[2]]
    assert cli.main(argv) == 2
    assert "no manual-vectorized form" in capsys.readouterr().err


def test_cached_sweep_returns_row_for_unbuildable_point(tmp_path):
    point = SweepPoint(*UNBUILDABLE)
    results = run_points([point], cache=DiskResultCache(str(tmp_path)))
    assert results[point].status == "error"
    assert "no manual-vectorized form" in results[point].detail


def test_verifier_refuses_unbuildable_point():
    verdict, cached = StaticVerifier().verify(SweepPoint(*UNBUILDABLE))
    assert not verdict.ok and not cached
    assert "no manual-vectorized form" in verdict.detail


# ----------------------------------------------------------------------
# The cache key covers what the build reads
# ----------------------------------------------------------------------
def test_fingerprint_covers_compile_opts(monkeypatch):
    monkeypatch.setattr(parallel, "_FINGERPRINTS", {})
    with_opts = program_fingerprint("nn_mlp_fwd", "float8", "auto")
    spec = dataclasses.replace(KERNELS["nn_mlp_fwd"], compile_opts={})
    monkeypatch.setitem(KERNELS, "nn_mlp_fwd", spec)
    parallel._FINGERPRINTS.clear()
    assert program_fingerprint("nn_mlp_fwd", "float8", "auto") != with_opts
