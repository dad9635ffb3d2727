"""The stochastic-rounding key is per thread.

A server runs kernels on worker threads at once.  Each SR run installs
its own lane key around the simulation, so two concurrent runs with
different keys must each produce exactly what they produce alone.
"""

import threading

import numpy as np

from repro.fp.rounding import RoundingMode, get_sr_key, set_sr_key
from repro.harness.runner import run_kernel
from repro.kernels import KERNELS

SPEC = KERNELS["nn_mlp_train"]
KEYS = (11, 22)


def _run(key):
    return run_kernel(SPEC, "float8", "auto", seed=3,
                      frm=int(RoundingMode.SR), sr_key=key)


def test_concurrent_sr_runs_match_solo_runs():
    solo = {key: _run(key) for key in KEYS}
    assert any(not np.array_equal(solo[KEYS[0]].outputs[out],
                                  solo[KEYS[1]].outputs[out])
               for out in SPEC.outputs), "keys must round differently"

    barrier = threading.Barrier(len(KEYS))
    results, errors = {}, []

    def body(key):
        barrier.wait()
        try:
            results[key] = _run(key)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    threads = [threading.Thread(target=body, args=(key,)) for key in KEYS]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300.0)
    assert not any(thread.is_alive() for thread in threads)
    if errors:
        raise errors[0]

    for key in KEYS:
        assert results[key].cycles == solo[key].cycles
        for out in SPEC.outputs:
            np.testing.assert_array_equal(results[key].outputs[out],
                                          solo[key].outputs[out])


def test_key_set_on_one_thread_is_invisible_to_another():
    seen = []
    previous = set_sr_key(99)
    try:
        thread = threading.Thread(target=lambda: seen.append(get_sr_key()))
        thread.start()
        thread.join()
    finally:
        set_sr_key(previous)
    assert seen == [0]
