#!/usr/bin/env python3
"""Extremal search: optimum values, witnesses, ties, and the classifier.

Run:  python demos/03_extremal_search.py
"""

from polychain import (
    classify,
    enumerate_maximal,
    maximize,
    minimize,
    negate,
    preset,
    run_dp,
)

print("=" * 72)
print("ONE FORWARD PASS PER INDEX")
print("=" * 72)
print()
print("The optimum over n-square chains ending in each link type obeys a")
print("two-state recurrence, so a single linear pass computes the optimum")
print("for every square count, a witness chain, and the number of optimal chains.")
print()

azi = preset("azi")
for n in (5, 6, 7, 8, 12):
    res = maximize(azi, n)
    print(f"AZI max, n={n:>2}: {str(res.value):>18} = {float(res.value):<12.6f} "
          f"witness {res.witness.to_string():<22} maximizers {res.labeled_count}")
print()

res = minimize(azi, 10)
print(f"AZI min, n=10: {res.value} = {float(res.value):.6f} at {res.witness.to_string()}")
print()

print("=" * 72)
print("ENUMERATING EVERY MAXIMIZER")
print("=" * 72)
print()
print("Ties recorded during the pass span the full set of maximizers;")
print("enumeration walks them back in output-sensitive time.")
print()
for n in (8, 12):
    chains = list(enumerate_maximal(azi, n))
    table = run_dp(azi, n)
    print(f"n={n}: {len(chains)} labeled maximizers "
          f"(end-1 count {table.labeled_count(n, 1)}, end-2 count {table.labeled_count(n, 2)})")
    for c in chains:
        print(f"   {c.to_string()}")
    merged = list(enumerate_maximal(azi, n, dedup=True))
    print(f"   -> {len(merged)} up to mirror symmetry")
print()

print("=" * 72)
print("PER-SQUARE-COUNT TABLE FROM ONE PASS")
print("=" * 72)
print()
table = run_dp(azi, 12)
print(" n   best(n,1)      best(n,2)      winner  count(1) count(2)")
for n in range(3, table.n + 1):
    b1, b2 = table.value(n, 1), table.value(n, 2)
    winner = "1" if b1 > b2 else ("2" if b2 > b1 else "tie")
    print(f"{n:>2}   {float(b1):<14.6f} {float(b2):<14.6f} {winner:<7} "
          f"{table.labeled_count(n, 1):<8} {table.labeled_count(n, 2)}")
print()

print("=" * 72)
print("THE LINEAR/ZIGZAG SUFFICIENT CONDITION")
print("=" * 72)
print()
print("When one increment dominates, the extremal chain is known without")
print("any search: linear always, linear from n=4, or zigzag up to a")
print("threshold n* and linear afterwards.")
print()
for name in ("harmonic", "ga", "randic", "azi"):
    v = classify(preset(name))
    extra = f", n*={v.n_star}" if v.n_star else ""
    print(f"maximize {name:<18} -> {v.case}{extra}")
v = classify(negate(azi))
print(f"minimize azi (negated)      -> {v.case}, n*={v.n_star}, tie at n*: {v.tie_at_threshold}")
