#!/usr/bin/env python3
"""Degree-based indices: preset tables, increments, and the two evaluators.

Run:  python demos/02_index_tables.py
"""

from fractions import Fraction

from polychain import (
    DEGREE_PAIRS,
    IndexFunction,
    evaluate_direct,
    evaluate_recursive,
    increment_table,
    load_custom_index,
    preset,
)

print("=" * 72)
print("PRESET TABLES")
print("=" * 72)
print()
print("An index is a symmetric function of the two endpoint degrees; on")
print("polyomino chains only the six pairs over {2,3,4} occur.")
print()
header = "  ".join(f"f{p}" for p in DEGREE_PAIRS)
print(f"{'index':<18} {header}")
for name in ("azi", "zagreb1", "zagreb2", "harmonic", "randic", "abc", "ga"):
    f = preset(name)
    row = "  ".join(str(f.value(a, b)) for a, b in DEGREE_PAIRS)
    print(f"{f.name:<18} {row}")
print()

print("=" * 72)
print("ATTACHMENT INCREMENTS")
print("=" * 72)
print()
print("Gluing one more square changes the index by an amount that depends")
print("only on the previous link and the new link.  The five increments")
print("(plus the two-square base value) determine the index on every chain,")
print("and they always satisfy g2 + g21 == g11 + g12.")
print()
for name in ("azi", "zagreb2", "harmonic"):
    gt = increment_table(preset(name))
    print(f"{name}:")
    print(f"   g11={gt.g11}  g12={gt.g12}  g21={gt.g21}  g22={gt.g22}  g2={gt.g2}")
    print(f"   base={gt.base}   identity check: {gt.g2 + gt.g21} == {gt.g11 + gt.g12}")
print()

print("=" * 72)
print("TWO EVALUATORS, ONE ANSWER")
print("=" * 72)
print()
azi = preset("azi")
for word in ((), (1,), (2,), (1, 2, 2, 1)):
    direct = evaluate_direct(word, azi)
    rec = evaluate_recursive(word, azi)
    assert direct == rec
    print(f"   chain {','.join(map(str, word)) or '(empty)':<12} AZI = {direct} = {float(direct):.6f}")
print()
print("evaluate_direct walks the corner graph's table and sums edge terms;")
print("evaluate_recursive adds increments.  They agree on every chain.")
print()

print("=" * 72)
print("CUSTOM INDEX DOCUMENTS")
print("=" * 72)
print()
doc = {
    "name": "forgotten",
    "mode": "rational",
    "values": {
        "2,2": "4", "2,3": "1", "2,4": "0",
        "3,3": "-2", "3,4": "1/3", "4,4": "-8/5",
    },
}
f = load_custom_index(doc)
gt = increment_table(f)
print(f"loaded {f.name!r}: f(3,4) = {f.value(3, 4)}, increments "
      f"g11={gt.g11} g2={gt.g2}")
print(f"value on 1,2,2,1: {evaluate_direct((1, 2, 2, 1), f)}")
print()
print("Building a table in code works too, including negative entries:")
weird = IndexFunction("weird", {p: Fraction(i - 3, 2) for i, p in enumerate(DEGREE_PAIRS)})
print(f"   {weird.name}: base = {increment_table(weird).base}")
