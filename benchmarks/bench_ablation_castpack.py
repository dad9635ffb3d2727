"""Ablation: cast-and-pack vs convert-then-assemble (Section III-B).

The paper motivates ``vfcpk`` because "convert scalars and assemble
vectors" operations emerged as a main bottleneck of transprecision
computing.  This ablation builds the same binary32->packed-binary16
conversion loop both ways and measures the difference the instruction
makes.
"""

from conftest import result_path

from repro.analysis.serialize import check_baseline
from repro.compiler import compile_source
from repro.energy import EnergyModel
from repro.fp import BINARY32
from repro.fp.convert import from_double
from repro.sim import Simulator

#: With vfcpka: one instruction converts two scalars into a vector.
WITH_CPK = """
void pack(float *src, float16 *dst, int n2) {
    float16v *dv = (float16v*)dst;
    for (int i = 0; i < n2; i = i + 1) {
        dv[i] = __cpk_f16(src[i * 2], src[i * 2 + 1]);
    }
}
"""

#: Without it: convert each scalar and store it element-wise.
WITHOUT_CPK = """
void pack(float *src, float16 *dst, int n2) {
    for (int i = 0; i < n2; i = i + 1) {
        dst[i * 2] = (float16)src[i * 2];
        dst[i * 2 + 1] = (float16)src[i * 2 + 1];
    }
}
"""


def _run(source, n=64):
    kernel = compile_source(source)
    sim = Simulator(kernel.program)
    for i in range(n):
        sim.machine.memory.write_u32(
            0x2000 + 4 * i, from_double(0.25 * i, BINARY32)
        )
    result = sim.run("pack", args={10: 0x2000, 11: 0x4000, 12: n // 2})
    energy = EnergyModel().estimate(result.trace, 1)
    packed = sim.machine.memory.read_block(0x4000, 2 * n)
    return result, energy, packed


def test_ablation_cast_and_pack(benchmark):
    with_cpk, with_energy, out_a = benchmark.pedantic(
        lambda: _run(WITH_CPK), rounds=1, iterations=1
    )
    without_cpk, without_energy, out_b = _run(WITHOUT_CPK)

    rows = {
        "with_vfcpk": {"cycles": with_cpk.cycles,
                       "instret": with_cpk.instret,
                       "energy_pj": with_energy.total},
        "without_vfcpk": {"cycles": without_cpk.cycles,
                          "instret": without_cpk.instret,
                          "energy_pj": without_energy.total},
        "cycle_saving": 1.0 - with_cpk.cycles / without_cpk.cycles,
    }
    check_baseline(result_path("ablation_castpack"), rows)
    print("\nAblation -- cast-and-pack vs convert-then-assemble")
    print(f"  with vfcpka:    {with_cpk.cycles:6d} cycles, "
          f"{with_cpk.instret} instructions")
    print(f"  without:        {without_cpk.cycles:6d} cycles, "
          f"{without_cpk.instret} instructions")
    print(f"  saving: {rows['cycle_saving']:.0%}")

    # Identical results, meaningfully fewer cycles and less energy.
    assert out_a == out_b
    assert with_cpk.cycles < without_cpk.cycles * 0.9
    assert with_energy.total < without_energy.total
    # The conversion bottleneck: without vfcpk, fcvt ops dominate.
    assert without_cpk.trace.by_mnemonic["fcvt.h.s"] == 64
    assert with_cpk.trace.by_mnemonic["vfcpka.h.s"] == 32
