"""Lockstep batches on concurrent threads keep numpy's FP warnings off.

numpy's error state is per thread, so a :class:`repro.fp.batch.quiet_errors`
region on one thread must not let another thread skip its own
``errstate``.  The inputs are scaled so binary16 overflows: the batch
path then casts infinities, which warns unless that thread is quiet.
"""

import dataclasses
import threading
import warnings

import numpy as np

from repro.fp import batch as fpbatch
from repro.harness.runner import run_kernel, run_kernel_batch
from repro.kernels import KERNELS

SEEDS = ([1, 2, 3, 4], [5, 6, 7, 8])
PARAMS = {"n": 4}


def _overflowing(spec, factor=1e5):
    def make_data(params, rng):
        data = spec.make_data(params, rng)
        return {name: value * factor
                if isinstance(value, (np.ndarray, float)) else value
                for name, value in data.items()}

    return dataclasses.replace(spec, make_data=make_data)


def _on_threads(*targets):
    """Run each target on its own thread, started together; re-raise
    the first exception any of them hit."""
    barrier = threading.Barrier(len(targets))
    errors = []

    def body(target):
        barrier.wait()
        try:
            target()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    threads = [threading.Thread(target=body, args=(t,)) for t in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120.0)
    assert not any(thread.is_alive() for thread in threads)
    if errors:
        raise errors[0]


def test_concurrent_batches_raise_no_fp_warnings():
    spec = _overflowing(KERNELS["gemm"])
    results = {}

    def batch(seeds):
        return lambda: results.__setitem__(tuple(seeds), run_kernel_batch(
            spec, "float16", "auto", seeds=seeds, params=PARAMS))

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _on_threads(*(batch(seeds) for seeds in SEEDS))

    for seeds in SEEDS:
        for seed, run in zip(seeds, results[tuple(seeds)]):
            solo = run_kernel(spec, "float16", "auto", seed=seed,
                              params=PARAMS)
            assert run.cycles == solo.cycles
            for out in spec.outputs:
                np.testing.assert_array_equal(run.outputs[out],
                                              solo.outputs[out])


def test_quiet_region_covers_only_its_own_thread():
    inside, done = threading.Event(), threading.Event()

    def hold_region():
        with fpbatch.quiet_errors():
            inside.set()
            assert done.wait(30.0)

    holder = threading.Thread(target=hold_region)
    holder.start()
    try:
        assert inside.wait(30.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            cast = fpbatch._cast(np.array([1e10]), np.float16)
        assert np.isinf(cast[0])
    finally:
        done.set()
        holder.join(timeout=30.0)
    assert not holder.is_alive()
