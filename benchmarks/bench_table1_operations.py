"""Table I: the operation classes of the smallFloat extensions.

Regenerates the table's rows from the live instruction registry and
times the encode/decode machinery they rely on.
"""

from conftest import result_path

from repro.analysis.serialize import check_baseline
from repro.isa import decode, encode, spec_by_mnemonic

#: (operation class, example mnemonic, extension) -- paper Table I.
TABLE1 = [
    ("Arithmetic", "fadd.h", "Xf16"),
    ("Conversions", "fcvt.h.s", "Xf16"),
    ("Vector Arith.", "vfadd.h", "Xfvec"),
    ("Vector Conv.", "vfcvt.x.h", "Xfvec"),
    ("Cast-and-Pack", "vfcpka.h.s", "Xfvec"),
    ("Expanding", "fmacex.s.h", "Xfaux"),
    ("Other", "vfdotpex.s.h", "Xfaux"),
]


def _regenerate():
    rows = []
    for op_class, mnemonic, ext in TABLE1:
        spec = spec_by_mnemonic(mnemonic)
        assert spec.ext == ext, (mnemonic, spec.ext)
        word = encode(spec, rd=1, rs1=2, rs2=3, rs3=4, rm=0)
        assert decode(word).mnemonic == mnemonic
        rows.append({
            "class": op_class,
            "instruction": mnemonic,
            "extension": ext,
            "encoding": f"{word:#010x}",
        })
    return rows


def test_table1_operations(benchmark):
    rows = benchmark(_regenerate)
    assert len(rows) == len(TABLE1)
    check_baseline(result_path("table1_operations"), rows)
    print("\nTable I -- common operations in the smallFloat extensions")
    for row in rows:
        print(f"  {row['class']:<14s} {row['instruction']:<14s} "
              f"{row['extension']:<6s} {row['encoding']}")
