"""Ablation: expanding accumulation vs convert-and-accumulate (Xfaux).

Measures what the ``fmacex.s.h`` scalar expanding MAC buys over the
explicit ``fcvt.s.h`` + ``fmadd.s`` sequence it replaces ("making
explicit conversion instruction cycles unnecessary", Section III-C),
and confirms both produce bit-identical results.
"""

from conftest import result_path

from repro.analysis.serialize import check_baseline
from repro.compiler import compile_source
from repro.fp import BINARY16, BINARY32
from repro.fp.convert import from_double, to_double
from repro.sim import Simulator

WITH_MACEX = """
float acc(float16 *a, float16 *b, int n) {
    float s = 0.0;
    for (int i = 0; i < n; i = i + 1) {
        s = __macex_f16(s, a[i], b[i]);
    }
    return s;
}
"""

#: The same computation with explicit widening conversions.
WITHOUT_MACEX = """
float acc(float16 *a, float16 *b, int n) {
    float s = 0.0;
    for (int i = 0; i < n; i = i + 1) {
        s = s + (float)a[i] * (float)b[i];
    }
    return s;
}
"""


def _run(source, n=64):
    kernel = compile_source(source)
    sim = Simulator(kernel.program)
    for i in range(n):
        sim.machine.memory.write_u16(0x2000 + 2 * i,
                                     from_double(0.125 * i, BINARY16))
        sim.machine.memory.write_u16(0x3000 + 2 * i,
                                     from_double(1.0 + 0.25 * (i % 4),
                                                 BINARY16))
    result = sim.run("acc", args={10: 0x2000, 11: 0x3000, 12: n})
    value = to_double(sim.machine.read_f(10, 32), BINARY32)
    return result, value, kernel.asm


def test_ablation_expanding_mac(benchmark):
    with_ex, value_a, asm_a = benchmark.pedantic(
        lambda: _run(WITH_MACEX), rounds=1, iterations=1
    )
    without_ex, value_b, asm_b = _run(WITHOUT_MACEX)

    rows = {
        "with_fmacex": {"cycles": with_ex.cycles,
                        "instret": with_ex.instret},
        "without_fmacex": {"cycles": without_ex.cycles,
                           "instret": without_ex.instret},
        "cycle_saving": 1.0 - with_ex.cycles / without_ex.cycles,
    }
    check_baseline(result_path("ablation_expanding"), rows)
    print("\nAblation -- expanding MAC vs convert+fma")
    print(f"  with fmacex.s.h: {with_ex.cycles} cycles")
    print(f"  convert + mul + add: {without_ex.cycles} cycles")
    print(f"  saving: {rows['cycle_saving']:.0%}")

    # fmacex fuses what takes 4 instructions otherwise...
    assert "fmacex.s.h" in asm_a
    assert "fcvt.s.h" in asm_b
    assert with_ex.cycles < without_ex.cycles
    # ...at (at least) matching numerics: the binary16 -> binary32
    # conversion is exact and fmacex is single-rounded.
    assert value_a == value_b or abs(value_a - value_b) <= abs(value_b) * 1e-6
