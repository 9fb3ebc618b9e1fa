"""Dynamic program: values, ties, witnesses, enumeration, classifier."""

import math
import random
import tracemalloc
from fractions import Fraction
from itertools import islice, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polychain.dp as dp_mod
from polychain.azi import azi_max_closed_form
from polychain.chains import LinkVector, az1_chain, linear_chain, zigzag_chain
from polychain.dp import (
    CASE_LINEAR_ALWAYS,
    CASE_LINEAR_FROM_4,
    CASE_NOT_APPLICABLE,
    CASE_ZIGZAG_THEN_LINEAR,
    DPTable,
    classify,
    enumerate_maximal,
    maximize,
    minimize,
    run_dp,
)
from polychain.indices import (
    DEGREE_PAIRS,
    FLOAT,
    PRESET_NAMES,
    IndexFunction,
    evaluate_direct,
    force_float,
    increment_table,
    negate,
    preset,
    values_equal,
)
from polychain.oracle import cross_check as cross_check_oracle
from polychain.oracle import exhaustive
from reference_graph import assert_checked_word

AZI = preset("azi")

ALL_PRESETS = [
    preset("azi"),
    preset("zagreb1"),
    preset("zagreb2"),
    preset("harmonic"),
    preset("randic"),
    preset("abc"),
    preset("ga"),
]


def constant_index():
    # every chain scores (3n+1)*c, so every chain ties
    return IndexFunction("const", {p: Fraction(5, 3) for p in DEGREE_PAIRS})


def small_range_index():
    # entries in {0, 1, 2}: half the predecessor codes are ties, at varied counts
    values = (0, 0, 1, 1, 2, 1)
    return IndexFunction("small-range", {p: Fraction(v) for p, v in zip(DEGREE_PAIRS, values)})


def seeded_float_tables(seed, count):
    rng = random.Random(seed)
    return [
        IndexFunction(f"float{t}", {p: rng.uniform(-5, 5) for p in DEGREE_PAIRS}, mode=FLOAT)
        for t in range(count)
    ]


def near_integer_float_tables(seed, count, eps):
    # entries a few eps off {0, 1, 2}: float ties that need not be transitive,
    # so an optimal set can miss the mirror image of one of its chains
    rng = random.Random(seed)
    return [
        IndexFunction(f"near{t}", {p: rng.randrange(3) + rng.uniform(-5, 5) * eps
                                   for p in DEGREE_PAIRS}, mode=FLOAT, eps=eps)
        for t in range(count)
    ]


RATIONAL_PRESETS = [preset(name) for name in ("azi", "zagreb1", "zagreb2", "harmonic")]
RULE_CORPUS = [
    *(preset(name) for name in ("azi", "zagreb1", "zagreb2", "harmonic", "randic",
                                "abc", "ga", "sum_connectivity")),
    *(force_float(f) for f in RATIONAL_PRESETS),
    *seeded_float_tables(44, 8),
]

_CODE_SETS = {1: frozenset((1,)), 2: frozenset((2,)), 3: frozenset((1, 2))}


def reference_rows(f, n):
    """The tie rule straight from its statement: per end, both candidates
    as exact sums (Fractions of a float table's IEEE entries), a tie when
    |a - b| <= eps * max(1, |a|, |b|) (eps 0 for rationals), the larger
    one kept.  Returns the rule and, per row k = 3..n, the exact values,
    the predecessor sets (empty at row 3) and the tie counts."""
    gt = increment_table(IndexFunction(f.name, {p: Fraction(v) for p, v in f.values.items()}))
    eps = Fraction(f.eps) if f.mode == FLOAT else 0

    def ties(a, b):
        return abs(a - b) <= eps * max(1, abs(a), abs(b))

    m, t = (gt.initial(1), gt.initial(2)), (0, 0)
    rows = [(m, (frozenset(), frozenset()), t)]
    for _ in range(n - 3):
        cands = [(m[0] + gt.step(1, i), m[1] + gt.step(2, i)) for i in (1, 2)]
        codes = tuple(3 if ties(a, b) else 1 if a > b else 2 for a, b in cands)
        m = tuple(max(a, b) for a, b in cands)
        t = tuple(1 + t[0] + t[1] if c == 3 else t[c - 1] for c in codes)
        rows.append((m, tuple(_CODE_SETS[c] for c in codes), t))
    return ties, rows


def reference_pass(f, n):
    """`reference_rows` as per-row (values, predecessor sets, tie counts)
    for k = 4..n, a float table's values as the floats nearest them."""
    return [(tuple(map(float, m)) if f.mode == FLOAT else m, preds, t)
            for m, preds, t in reference_rows(f, n)[1][1:]]


def reference_iso(f, k, end, ref=None):
    """The optimal words of k squares up to mirror symmetry, |S| - (B - P)/2,
    by the row-by-row inward walk over the predecessor sets of
    `reference_rows` (see `DPTable.iso_count`); ``ref`` is
    `reference_rows(f, n)` for some n >= k, computed when omitted."""
    ties, rows = ref or reference_rows(f, k)
    (m1, m2), _, counts = rows[k - 3]
    ends = (end,) if end else (1, 2) if ties(m1, m2) else (1,) if m1 > m2 else (2,)
    # v_x: half words w_3..w_l ending in link x whose every step is an edge
    # both forwards (squares l, l + 1) and mirrored (squares r - 1, r)
    v1, v2 = int(1 in ends), int(2 in ends)
    s = (k - 3) // 2
    for l in range(3, 3 + s):
        (a1, a2), (z1, z2) = rows[l - 2][1], rows[k - l][1]  # rows l + 1 and r = k + 3 - l
        v1, v2 = (v1 * (1 in a1 and 1 in z1) + v2 * (2 in a1 and 1 in z2),
                  v1 * (1 in a2 and 2 in z1) + v2 * (2 in a2 and 2 in z2))
    if k % 2:  # the halves share the middle square
        both, pal = v1 * v1 + v2 * v2, v1 + v2
    else:  # the edge between the middle squares, read both ways
        mid1, mid2 = rows[s + 1][1]  # row s + 4
        o11, o22, o12 = 1 in mid1, 2 in mid2, 2 in mid1 and 1 in mid2
        both, pal = v1 * v1 * o11 + v2 * v2 * o22 + 2 * v1 * v2 * o12, v1 * o11 + v2 * o22
    return sum(counts[e - 1] + 1 for e in ends) - (both - pal) // 2


def reference_links(ref):
    """Per row k, at k - 3, of ``ref`` = `reference_rows(f, n)`: indexed by
    the link of square k, the links square k - 1 may take, link 1 first."""
    return [(None, *(tuple(sorted(p)) for p in preds)) for _, preds, _ in ref[1]]


def reference_words(links, k, end):
    """The optimal words of k squares ending in link `end`, one byte per
    link, by a depth-first walk over `reference_links` row by row: link 1
    first at each tie, and the tie met last reopened first."""
    if k == 3:
        yield bytes((end,))
        return
    buf = bytearray(k - 2)  # buf[j - 3]: the link of square j
    buf[-1] = end
    stack = [iter(links[k - 3][end])]
    while stack:
        link = next(stack[-1], None)
        if link is None:
            stack.pop()
            continue
        j = k - len(stack)  # the square whose link is fixed
        buf[j - 3] = link
        if j == 3:
            yield bytes(buf)
        else:
            stack.append(iter(links[j - 3][link]))


def first_tie_row(t):
    """The first row of table t with a tie at either end, read through
    `predecessors`; t.n + 1 when no row ties."""
    return next((k for k in range(4, t.n + 1) for e in (1, 2) if len(t.predecessors(k, e)) == 2),
                t.n + 1)


def brute_force_max(f, n):
    return max(evaluate_direct(links, f) for links in product((1, 2), repeat=n - 2))


def all_readers(t, k):
    """Every reader of table t at row k, for each end where it takes one;
    the chains capped at 12 a query."""
    ends = (None, 1, 2)
    return (
        [(t.value(k, e), t.predecessors(k, e)) for e in (1, 2)],
        t.best_value(k),
        [t.labeled_count(k, e) for e in ends],
        [t.iso_count(k, e) for e in ends],
        [t.witness(k, e) for e in ends],
        [list(t.chains(k, e, dedup, limit=12)) for e in ends for dedup in (False, True)],
    )


class TestRunDP:
    def test_needs_three_squares(self):
        with pytest.raises(ValueError, match="n >= 3"):
            run_dp(AZI, 2)

    def test_float_overflow_refused(self):
        # finite increments; every chain has 3n + 1 edges of weight 1e306
        f = IndexFunction("huge", {p: 1e306 for p in DEGREE_PAIRS}, mode=FLOAT)
        assert values_equal(run_dp(f, 50).best_value(), 151e306)
        for table in (f, negate(f)):
            for keep in (True, False):
                with pytest.raises(ValueError, match="float overflow: the optimum at n = 100"):
                    run_dp(table, 100, keep_table=keep)

    def test_four_square_anchor(self):
        # independently: the four 4-square chains, scored edge-by-edge
        expected = brute_force_max(AZI, 4)
        assert expected == Fraction(513013, 4000)
        t = run_dp(AZI, 4)
        assert t.value(4, 1) == t.value(4, 2) == expected
        assert t.predecessors(4, 1) == frozenset({2})
        assert t.predecessors(4, 2) == frozenset({1})
        assert t.best_value(4) == expected
        assert t.labeled_count(4) == t.labeled_count(4, 1) + t.labeled_count(4, 2)  # both ends win

    def test_five_square_values(self):
        t = run_dp(AZI, 5)
        assert t.value(5, 1) == Fraction(329717, 2000) == brute_force_max(AZI, 5)
        assert t.value(5, 1) > t.value(5, 2)
        assert t.best_value() == t.value(5, 1)
        assert t.labeled_count() == t.labeled_count(5, 1)  # end 1 alone wins

    def test_base_states(self):
        t = run_dp(AZI, 3)
        assert t.value(3, 1) == Fraction(1497, 16)
        assert t.value(3, 2) == Fraction(11456, 125)
        assert t.predecessors(3, 1) == frozenset()
        assert t.labeled_count(3, 1) == t.labeled_count(3, 2) == 1

    def test_azi_tie_pattern(self):
        t = run_dp(AZI, 20)
        assert t.labeled_count(7, 1) == 1
        assert t.labeled_count(7, 2) == 2
        for n in range(5, 21):
            if n % 2 == 1:
                assert t.labeled_count(n, 1) == 1
            else:
                assert t.labeled_count(n, 1) - 1 == (n - 6) // 2

    def test_tie_recursion_invariant(self):
        for f in (AZI, preset("zagreb1"), preset("abc")):
            t = run_dp(f, 30)
            for k in range(4, 31):
                for i in (1, 2):
                    preds = t.predecessors(k, i)
                    assert preds  # nonempty from k=4 on
                    if len(preds) == 2:
                        assert t.labeled_count(k, i) == t.labeled_count(k - 1, 1) + t.labeled_count(k - 1, 2)
                    else:
                        (j,) = preds
                        assert t.labeled_count(k, i) == t.labeled_count(k - 1, j)

    def test_end_link_validated(self):
        t = run_dp(AZI, 5)
        with pytest.raises(ValueError, match="end link"):
            t.value(5, 3)

    def test_streaming_matches_table(self):
        for f in (AZI, preset("abc")):
            full = run_dp(f, 40)
            slim = run_dp(f, 40, keep_table=False)
            for i in (1, 2):
                assert values_equal(slim.value(40, i), full.value(40, i), f.eps)
                assert slim.labeled_count(40, i) == full.labeled_count(40, i)
                assert slim.predecessors(40, i) == full.predecessors(40, i)

    def test_matches_reference_tie_rule(self):
        n = 500
        for f in RULE_CORPUS:
            for g in (f, negate(f)):
                t = run_dp(g, n)
                for k, (vals, preds, ties) in enumerate(reference_pass(g, n), start=4):
                    for i in (1, 2):
                        assert t.predecessors(k, i) == preds[i - 1], (g.name, k, i)
                        assert t.labeled_count(k, i) - 1 == ties[i - 1], (g.name, k, i)
                        assert values_equal(t.value(k, i), vals[i - 1], g.eps), (g.name, k, i)

    def test_tie_keeps_larger_candidate(self):
        # at a loose tolerance many steps tie; keeping one fixed candidate
        # on a tie instead of the larger drifts the optimum far below it
        for f in (*RATIONAL_PRESETS, preset("ga"), *seeded_float_tables(45, 4)):
            g = force_float(f, 1e-3)
            for h in (g, negate(g)):
                gt = increment_table(h)
                t = run_dp(h, 2000)
                for k in range(4, 2001):
                    for i in (1, 2):
                        best = max(t.value(k - 1, j) + gt.step(j, i) for j in (1, 2))
                        assert values_equal(t.value(k, i), best), (h.name, k, i)

    def test_float_mode_matches_rational_on_integer_ties(self):
        # integer-valued tables: float arithmetic is exact, so both modes
        # see the same ties and must give the same DAG
        n = 2000
        for f in (constant_index(), small_range_index()):
            for g in (f, negate(f)):
                exact, approx = run_dp(g, n), run_dp(force_float(g), n)
                for k in range(3, n + 1):
                    for i in (1, 2):
                        assert approx.predecessors(k, i) == exact.predecessors(k, i), (g.name, k)
                        assert approx.labeled_count(k, i) == exact.labeled_count(k, i), (g.name, k)

    def test_keep_table_false_reads_every_row(self):
        # keep_table is ignored: the table equals a kept one on every reader
        tables = {}
        for f in (*chain_corpus(), *(preset(name) for name in PRESET_NAMES),
                  preset("randic", -1)):
            for g in (f, negate(f)):
                tables.setdefault((g.mode, g.eps, *g.values.items()), g)
        for g in tables.values():
            for n in (10, 60):
                slim, kept = run_dp(g, n, keep_table=False), run_dp(g, n)
                for k in range(3, n + 1):
                    assert all_readers(slim, k) == all_readers(kept, k), (g.name, n, k)

    def test_prefix_states_independent_of_horizon(self):
        # the table built to 14 answers every query the table built to 9 does;
        # the chain counts of each are powered through its own segments
        for f in (AZI, constant_index(), small_range_index()):
            long, short = run_dp(f, 14), run_dp(f, 9)
            for k in range(3, 10):
                for i in (1, 2):
                    assert long.value(k, i) == short.value(k, i)
                    assert long.predecessors(k, i) == short.predecessors(k, i)
                    carried = run_dp(f, k, keep_table=False).labeled_count(k, i)
                    assert long.labeled_count(k, i) == short.labeled_count(k, i) == carried
            assert list(long.chains(9)) == list(short.chains(9))


class TestMaximize:
    def test_six_square_anchor(self):
        res = maximize(AZI, 6)
        assert res.value == Fraction(10790359, 54000) == brute_force_max(AZI, 6)
        assert res.witness == LinkVector([1, 2, 2, 1])
        assert res.labeled_count == 1
        assert res.iso_count is None

    def test_seven_square_unique_witness(self):
        res = maximize(AZI, 7)
        assert res.witness == az1_chain(3)
        assert res.labeled_count == 1

    def test_eight_square_tie(self):
        res = maximize(AZI, 8, count_iso=True)
        assert res.labeled_count == 2
        assert res.iso_count == 1

    def test_iso_count_formula(self, monkeypatch):
        f = constant_index()
        res = maximize(f, 12, count_iso=True)
        assert (res.labeled_count, res.iso_count) == (2**10, 528)

        def refuse(*args, **kwargs):
            raise AssertionError("no chain may be enumerated")

        monkeypatch.setattr(DPTable, "chains", refuse)
        # every word ties: 2**18 words, 2**9 of them palindromes
        assert maximize(f, 20, count_iso=True).iso_count == (2**18 + 2**9) // 2 == 131328
        # words ending with link 1: 2**16 of them also start with it, 2**8 palindromes
        res = minimize(f, 20, end=1, count_iso=True)
        assert res.iso_count == 2**17 - (2**16 - 2**8) // 2 == 98432
        assert maximize(f, 20).labeled_count == 2**18

    def test_four_square_double_end(self):
        res = maximize(AZI, 4, count_iso=True)
        assert res.value == Fraction(513013, 4000)
        assert res.labeled_count == 2
        assert res.iso_count == 1
        assert res.witness == LinkVector([2, 1])  # end 1 preferred, then link 1

    def test_end_restriction(self):
        t = run_dp(AZI, 7)
        res = maximize(AZI, 7, end=2)
        assert res.value == t.value(7, 2)
        assert res.labeled_count == 2  # one tie on the end-2 problem
        assert res.witness[-1] == 2

    def test_per_end_values(self):
        res = maximize(AZI, 9)
        assert res.per_end[1] == res.value
        assert res.per_end[2] < res.value

    def test_witness_value_sound(self):
        rng = random.Random(17)
        for f in ALL_PRESETS:
            for _ in range(4):
                n = rng.randrange(3, 30)
                res = maximize(f, n)
                assert values_equal(evaluate_direct(res.witness, f), res.value, f.eps)

    def test_matches_brute_force_all_presets(self):
        for f in ALL_PRESETS:
            for n in range(3, 11):
                assert values_equal(maximize(f, n).value, brute_force_max(f, n), f.eps)

    def test_tolerance_flag(self):
        assert maximize(AZI, 5).tolerance_dependent is False
        assert maximize(preset("abc"), 5).tolerance_dependent is True


class TestMinimize:
    def test_azi_minimum_witnesses(self):
        assert minimize(AZI, 8).witness == linear_chain(8)
        assert minimize(AZI, 4).witness == zigzag_chain(4)
        assert minimize(AZI, 5).witness == zigzag_chain(5)
        assert minimize(AZI, 6).witness == linear_chain(6)

    def test_duality(self):
        rng = random.Random(29)
        for f in ALL_PRESETS:
            n = rng.randrange(3, 25)
            res = minimize(f, n)
            dual = maximize(negate(f), n)
            assert res.value == -dual.value
            assert res.per_end == {1: -dual.per_end[1], 2: -dual.per_end[2]}
            assert res.objective == "min"

    def test_minimum_matches_brute_force(self):
        for f in ALL_PRESETS:
            for n in range(3, 10):
                expected = min(evaluate_direct(links, f) for links in product((1, 2), repeat=n - 2))
                assert values_equal(minimize(f, n).value, expected, f.eps)


class TestEnumeration:
    def test_eight_square_pair(self):
        chains = {tuple(c) for c in enumerate_maximal(AZI, 8)}
        assert chains == {(1, 2, 2, 1, 2, 1), (1, 2, 1, 2, 2, 1)}

    def test_dedup_merges_mirrors(self):
        assert sum(1 for _ in enumerate_maximal(AZI, 8, dedup=True)) == 1
        assert sum(1 for _ in enumerate_maximal(AZI, 4, dedup=True)) == 1

    def test_nine_square_unique(self):
        assert list(enumerate_maximal(AZI, 9)) == [az1_chain(4)]

    def test_first_chain_is_witness(self):
        for f in ALL_PRESETS:
            for n in (5, 8, 12):
                first = next(iter(enumerate_maximal(f, n)))
                assert first == maximize(f, n).witness

    def test_limit(self):
        assert len(list(enumerate_maximal(AZI, 20, limit=3))) == 3
        assert len(list(enumerate_maximal(AZI, 20))) == run_dp(AZI, 20).labeled_count(20, 1)

    def test_emission_count_equals_labeled_count(self):
        for f in ALL_PRESETS:
            for n in range(3, 12):
                res = maximize(f, n)
                assert sum(1 for _ in enumerate_maximal(f, n)) == res.labeled_count

    def test_matches_exhaustive_argmax(self):
        for f in ALL_PRESETS:
            for n in range(3, 12):
                expected = {c.links for c in exhaustive(f, n).argmax}
                actual = {c.links for c in enumerate_maximal(f, n)}
                assert actual == expected, (f.name, n)

    def test_prefix_values_are_tablewise_optimal(self):
        # every prefix of an optimal chain is optimal for its own end link
        t = run_dp(AZI, 12)
        for chain in t.chains():
            links = chain.links
            for j in range(3, 13):
                prefix = links[: j - 2]
                assert evaluate_direct(prefix, AZI) == t.value(j, prefix[-1])

    def test_deterministic_order(self):
        runs = [[tuple(c) for c in enumerate_maximal(AZI, 14)] for _ in range(2)]
        assert runs[0] == runs[1]


def iso_corpus():
    rng = random.Random(45)
    small = [IndexFunction(f"small{t}", {p: Fraction(rng.randrange(3)) for p in DEGREE_PAIRS})
             for t in range(20)]
    tables = [
        *ALL_PRESETS,
        *(force_float(f) for f in RATIONAL_PRESETS),
        constant_index(),
        *small,
        *near_integer_float_tables(46, 12, 1e-9),
        *near_integer_float_tables(47, 12, 0.05),
    ]
    return tables + [negate(f) for f in tables]


def fibonacci(*ms):
    """{m: F(m)} for each m given, F(1) = F(2) = 1, by one plain loop."""
    want, out, a, b = set(ms), {}, 0, 1  # a, b: F(m), F(m + 1)
    for m in range(max(ms) + 1):
        if m in want:
            out[m] = a
        a, b = b, a + b
    return out


class TestIsoCount:
    def test_equals_dedup_enumeration(self):
        open_sets = 0  # float optimal sets not closed under reversal
        for f in iso_corpus():
            t = run_dp(f, 16)
            for k in range(3, 17):
                for end in (None, 1, 2):
                    expected = sum(1 for _ in t.chains(k, end=end, dedup=True))
                    assert t.iso_count(k, end) == expected, (f.name, k, end)
                words = {c.links for c in t.chains(k)}
                if f.mode == FLOAT and any(w[::-1] not in words for w in words):
                    open_sets += 1
        assert open_sets > 0

    def test_paper_counts(self):
        # AZI maximizers: one at odd n, (n - 6)/2 + 1 at even n in ceil(n/4 - 1) classes
        t = run_dp(AZI, 400)
        for n in range(5, 401):
            expected = 1 if n % 2 else -(-n // 4) - 1
            assert t.iso_count(n) == expected, n

    @pytest.mark.parametrize("corpus", ["iso", "periodic", "float-runs"])
    def test_equals_reference_walk(self, corpus):
        # every k <= 400: pieces of the walk start and end in transients, runs
        # of either parity and the middle join of both lengths
        tables = {"iso": iso_corpus, "periodic": lambda: PERIODIC_CORPUS,
                  "float-runs": lambda: FLOAT_RUN_CORPUS}[corpus]()
        for f in tables:
            t, ref = run_dp(f, 400), reference_rows(f, 400)
            for k in range(3, 401):
                for end in (None, 1, 2):
                    assert t.iso_count(k, end) == reference_iso(f, k, end, ref), (f.name, k, end)

    def test_constant_index_is_burnside(self):
        # every word is optimal: the mirror classes of 2**(k - 2) words, 2**ceil((k - 2) / 2)
        # of them palindromes; k = 40000 and 40001 end on the two middle joins
        t = run_dp(constant_index(), 40001)
        for k in (3, 4, 5, 40000, 40001):
            assert t.iso_count(k) == (2 ** (k - 2) + 2 ** ((k - 1) // 2)) // 2, k

    def test_identity_middle_equals_the_general_formula(self):
        # odd rows join the halves by the identity, None, and square each v_x;
        # even rows by a mirror map: seeded walks of up to 4 000 bits, each end set
        def general(walk, m, ends):
            ((x1, x2), (y1, y2)), (s1, s2) = walk, (1 in ends, 2 in ends)
            v1, v2 = x1 * s1 + x2 * s2, y1 * s1 + y2 * s2
            w1, w2 = m[0][0] * v1 + m[0][1] * v2, m[1][0] * v1 + m[1][1] * v2
            return (v1 * w1 + v2 * w2 - m[0][0] * v1 - m[1][1] * v2) // 2

        rng = random.Random(47)
        middles = [dp_mod._mirror_map(c, c) for c in product(range(4), repeat=2)]
        for bits in (1, 2, 64, 1500, 4000):
            for _ in range(25):
                walk = tuple(tuple(rng.getrandbits(rng.randint(1, bits)) for _ in "xy") for _ in "xy")
                m = rng.choice(middles)
                for ends in ((1,), (2,), (1, 2)):
                    assert dp_mod._pairs((walk, None), ends) == general(walk, ((1, 0), (0, 1)), ends)
                    assert dp_mod._pairs((walk, m), ends) == general(walk, m, ends)
        t = run_dp(constant_index(), 12)
        for k in (11, 12):
            rec = t._row(k)[0]
            t._mirror_pairs(rec, (1, 2))
            assert (rec[dp_mod._WALK][1] is None) == (k % 2 == 1), k

    def test_counts_without_per_row_codes(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("no word may be walked")

        monkeypatch.setattr(DPTable, "_words", refuse)
        n = 10**5
        assert run_dp(AZI, n).iso_count() == -(-n // 4) - 1  # even n, see test_paper_counts
        # randic:-1 has F(n - 2) maximizers, F(1) = F(2) = 1, and P palindromes among
        # them; the odd size ends on the other middle join
        fib = fibonacci(n - 2, n - 1, (n - 2) // 2, (n + 2) // 2)
        for m, palindromes in ((n, fib[(n - 2) // 2]), (n + 1, fib[(n + 2) // 2])):
            t = run_dp(preset("randic", -1), m)
            labeled = fib[m - 2]
            assert (t.labeled_count(), t.iso_count()) == (labeled, (labeled + palindromes) // 2), m
        assert run_dp(constant_index(), n).iso_count() == (2 ** (n - 2) + 2 ** ((n - 1) // 2)) // 2

    def test_keep_table_false_counts_mirror_classes(self):
        for f in (AZI, negate(AZI), constant_index(), preset("randic", -1)):
            for n in (12, 10**4 + 1):
                slim, kept = run_dp(f, n, keep_table=False), run_dp(f, n)
                for k in (3, 4, n // 2, n - 1, n):
                    for end in (None, 1, 2):
                        assert slim.iso_count(k, end) == kept.iso_count(k, end), (f.name, n, k)

    def test_validates_arguments(self):
        t = run_dp(AZI, 12)
        with pytest.raises(ValueError, match="end link"):
            t.iso_count(12, 3)
        with pytest.raises(ValueError, match="outside table range"):
            t.iso_count(13)


def chain_corpus():
    """`iso_corpus`, `PERIODIC_CORPUS`, `FLOAT_RUN_CORPUS`, `RULE_CORPUS`
    and their negations, each table once."""
    tables = {}
    for f in (*iso_corpus(), *PERIODIC_CORPUS, *FLOAT_RUN_CORPUS, *RULE_CORPUS):
        for g in (f, negate(f)):
            tables.setdefault((g.mode, g.eps, *g.values.items()), g)
    return list(tables.values())


# (end, dedup, limit): two of them a square count, in turn
CHAIN_QUERIES = [(end, dedup, limit) for end in (None, 1, 2) for dedup in (False, True)
                 for limit in (None, 0, 1, 7)]


def assert_chains_match(t, ref, links, k, cap):
    """t.chains at k squares against `reference_words`, reading at most
    `cap` words per end: in order for each end, and for two of
    `CHAIN_QUERIES` chosen by k."""
    words = {e: [LinkVector(w) for w in islice(reference_words(links, k, e), cap)]
             for e in (1, 2)}
    for e in (1, 2):
        assert list(islice(t.chains(k, e), cap)) == words[e], (k, e)
    (m1, m2), _, _ = ref[1][k - 3]
    winners = (1, 2) if ref[0](m1, m2) else (1,) if m1 > m2 else (2,)
    for end, dedup, limit in (CHAIN_QUERIES[k % 24], CHAIN_QUERIES[(k + 11) % 24]):
        ends = (end,) if end else winners
        want = words[ends[0]]  # the first words the walk yields
        complete = len(want) < cap
        if complete and len(ends) == 2:
            want = want + words[2]
            complete = len(words[2]) < cap
        if dedup:  # the first word of each mirror class
            first = {}
            for c in want:
                first.setdefault(min(c, c.reverse()), c)
            want = list(first.values())
        got = t.chains(k, end, dedup, limit)
        if limit is not None:
            want = want[:limit]  # an incomplete want holds cap / 2 >= 7 classes or more
        elif not complete:
            got = islice(got, len(want))
        assert list(got) == want, (k, end, dedup, limit)


class TestChainOrder:
    """`chains` descends the table's segments; it must yield the words of
    the row-by-row walk in the same order, under every end, dedup and
    limit."""

    def test_equals_reference_walk(self):
        # 24 words reopen at least the last four ties; 500 at the top two sizes, eight
        for f in chain_corpus():
            t, ref = run_dp(f, 120), reference_rows(f, 120)
            links = reference_links(ref)
            for k in range(3, 121):
                assert_chains_match(t, ref, links, k, 500 if k > 118 else 24)

    def test_first_chain_is_the_witness_at_large_n(self):
        for name in PRESET_NAMES:
            for f in (preset(name), negate(preset(name))):
                for n in (10**6, 10**6 - 1):
                    t = run_dp(f, n)
                    for e in (1, 2):
                        assert t.witness(n, e) == next(t.chains(n, e)), (f.name, n, e)


class TestWordPieces:
    """A word is joined from pieces: stepped links, a run's repeated stretch
    as whole chunks of 4 * `_CHUNK` links, a remainder of blocks and a
    head, and on a reopen the kept squares above as a view of the word
    before.  Witnesses and first chains where the stretch is a multiple of
    a chunk, give or take up to 4 links, must be the row-by-row walk's."""

    @staticmethod
    def indices():
        const = IndexFunction("const", {p: Fraction(7, 3) for p in DEGREE_PAIRS})  # every row ties
        for f in (AZI, preset("zagreb1"), preset("randic", -1), const, preset("abc")):
            yield from (f, negate(f))

    def test_stretches_across_chunk_multiples(self):
        chunk = 4 * dp_mod._CHUNK
        for f in self.indices():
            n = 2 * chunk + 120
            t, ref = run_dp(f, n), reference_rows(f, n)
            links = reference_links(ref)
            lo = t._segments[-1][0]  # the run reaching n; a descent from row k
            assert lo < 20, f.name  # repeats the squares lo - 1 .. k - 7
            for k in (lo + 5 + m * chunk + d for m in (1, 2) for d in range(-4, 5)):
                (m1, m2), _, _ = ref[1][k - 3]
                winners = (1, 2) if ref[0](m1, m2) else (1,) if m1 > m2 else (2,)
                # 40 words an end give the first 20 words and mirror classes of any query
                words = {e: list(islice(reference_words(links, k, e), 40)) for e in (1, 2)}
                for end in (None, 1, 2):
                    ends = (end,) if end else winners
                    raw = [w for e in ends for w in words[e]]
                    first = {}
                    for w in raw:
                        first.setdefault(min(w, w[::-1]), w)
                    assert len(first) >= 20 or all(len(words[e]) < 40 for e in ends)
                    want = [LinkVector(w) for w in raw[:20]]
                    classes = [LinkVector(w) for w in list(first.values())[:20]]
                    assert t.witness(k, end) == want[0], (f.name, k, end)
                    assert list(islice(t.chains(k, end), 20)) == want, (f.name, k, end)
                    assert list(islice(t.chains(k, end, dedup=True), 20)) == classes, (f.name, k, end)


class TestEngineWords:
    """The witness and the chains are built from links 1 and 2 and kept
    without the input check: each must be what the checked constructor
    would build, and the witness the plain walk's word."""

    def test_words_at_small_n(self):
        for f in chain_corpus():
            t = run_dp(f, 60)
            for k in range(3, 61):
                for e in (1, 2):
                    w = t.witness(k, e)
                    assert_checked_word(w)
                    assert w == plain_witness(t, k, e), (f.name, k, e)
                for dedup in (False, True):
                    for w in t.chains(k, dedup=dedup, limit=20):
                        assert_checked_word(w)

    def test_words_of_the_presets_at_large_n(self):
        for name in PRESET_NAMES:
            for f in (preset(name), negate(preset(name))):
                t = run_dp(f, 10**5)
                for e in (1, 2):
                    assert_checked_word(t.witness(end=e))
                    for w in t.chains(end=e, limit=3):
                        assert_checked_word(w)

    def test_words_skip_the_input_check(self, monkeypatch):
        def refuse(self, links=()):
            raise AssertionError("an engine word went through the input check")

        monkeypatch.setattr(LinkVector, "__init__", refuse)
        assert len(run_dp(AZI, 10**5).witness()) == 10**5 - 2
        assert len(list(run_dp(constant_index(), 40).chains(limit=20))) == 20


class TestCountReadOrder:
    """A row's counts are carried from the last row read when that lies
    below it, through the segments between, else from row 3: every read
    order must give the counts of `reference_rows`."""

    def test_in_order_reversed_and_interleaved(self):
        rng = random.Random(22)
        rows = list(range(3, 121))
        for f in chain_corpus():
            ties, ref = reference_rows(f, 120)
            want = {}
            for k in rows:
                (m1, m2), _, (t1, t2) = ref[k - 3]
                winners = (1, 2) if ties(m1, m2) else (1,) if m1 > m2 else (2,)
                want[k] = (sum((t1, t2)[e - 1] + 1 for e in winners), t1 + 1, t2 + 1)
            shuffled = rng.sample(rows, len(rows))
            for order in (rows, rows[::-1], shuffled):
                t = run_dp(f, 120)  # no row read yet: counts start at row 3
                for k in order:
                    if order is shuffled:  # iso_count reads counts elsewhere first, value none
                        other = rng.choice(rows)
                        if rng.random() < 0.5:
                            t.iso_count(other)
                        else:
                            t.value(other, rng.choice((1, 2)))
                    got = (t.labeled_count(k), t.labeled_count(k, 1), t.labeled_count(k, 2))
                    assert got == want[k], (f.name, k, order is shuffled)


class TestRowRecord:
    """Every reader of row k answers from the row's record, made on the
    first read of k and carried one step from the kept records of rows
    k - 1 and k - 2: any read order, and any order of the readers within
    a row, must give what a fresh table answers at that row."""

    @staticmethod
    def tables():
        """(table, last row): `chain_corpus` to row 200, and the presets,
        randic:-1 and a small-range table, with their negations, to row 400."""
        extra = [*(preset(name) for name in PRESET_NAMES), preset("randic", -1), small_range_index()]
        tables = {}
        for f, hi in (*((f, 200) for f in chain_corpus()),
                      *((f, 400) for g in extra for f in (g, negate(g)))):
            tables[f.mode, f.eps, *f.values.items()] = (f, hi)
        return list(tables.values())

    @staticmethod
    def answers(t, k, rng=None):
        """Row k's values, counts and mirror classes for ends 1, 2 and both,
        and first chains, read in the readers' order or shuffled by rng."""
        readers = [lambda e=e: t.value(k, e) for e in (1, 2)] + [lambda: t.best_value(k)]
        for e in (None, 1, 2):
            readers += [lambda e=e: t.labeled_count(k, e), lambda e=e: t.iso_count(k, e),
                        lambda e=e: next(t.chains(k, e))]
        order = list(range(len(readers)))
        if rng is not None:
            rng.shuffle(order)
        got = {i: readers[i]() for i in order}
        return [got[i] for i in range(len(readers))]

    def test_any_read_order_gives_a_fresh_tables_answers(self):
        rng = random.Random(45)
        for f, hi in self.tables():
            rows = list(range(3, hi + 1))
            fresh = {k: self.answers(run_dp(f, k), k) for k in rows}
            orders = {"in order": rows, "reversed": rows[::-1],
                      "shuffled": rng.sample(rows, len(rows))}
            for name, order in orders.items():
                t = run_dp(f, hi)
                for k in order:
                    got = self.answers(t, k, rng if name == "shuffled" else None)
                    assert got == fresh[k], (f.name, k, name)


class TestTableWithoutCounts:
    """`run_dp` builds decisions and values only; chain counts are carried
    when read, so values at any n cost the table's runs, not its counts."""

    @staticmethod
    def indices():
        return [*(preset(name) for name in PRESET_NAMES), preset("randic", -1)]

    def test_build_carries_no_counts(self, monkeypatch):
        calls = [0]
        real = dp_mod._carry

        def counted(*args):
            calls[0] += 1
            return real(*args)

        monkeypatch.setattr(dp_mod, "_carry", counted)
        const = IndexFunction("const", {p: Fraction(7, 3) for p in DEGREE_PAIRS})
        for f in (*self.indices(), const):
            for keep in (True, False):
                t = run_dp(f, 5000, keep_table=keep)
                assert calls[0] == 0, (f.name, keep)
                t.labeled_count()  # a count read carries from the first tie row on
                assert (calls[0] > 0) == (first_tie_row(t) <= 5000), (f.name, keep)
                calls[0] = 0

    def test_first_count_carries_from_row_3(self, monkeypatch):
        # one carry per segment from the first tie row through k's, none for
        # the rows below it, whose counts are row 3's
        carried = []
        real = dp_mod._carry

        def counted(seg, *args):
            carried.append(seg[0])
            return real(seg, *args)

        monkeypatch.setattr(dp_mod, "_carry", counted)
        const = IndexFunction("const", {p: Fraction(7, 3) for p in DEGREE_PAIRS})
        for f in (*self.indices(), const):
            tie = first_tie_row(run_dp(f, 5000))
            for k in (3, 4, 5, 9, 40, 5000):
                t = run_dp(f, 5000)
                t.labeled_count(k)
                want = [seg[0] for seg in t._segments if tie <= seg[0] <= k]
                assert carried == want, (f.name, k)
                carried.clear()

    def test_values_at_a_googol_in_small_memory(self):
        n = 10**100
        for f in self.indices():
            for g in (f, negate(f)):
                tracemalloc.start()
                try:
                    t = run_dp(g, n, keep_table=False)
                    for end in (1, 2):
                        t.value(n, end)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak < 2**20, (g.name, peak)

    def test_azi_at_a_googol(self):
        for n in (10**100, 10**100 + 1):
            assert run_dp(AZI, n).best_value() == azi_max_closed_form(n), n
        n = 10**100
        assert run_dp(AZI, n, keep_table=False).labeled_count() == (n - 6) // 2 + 1


def tie_corpus():
    """`chain_corpus`, the presets and their negations, and 30 seeded
    tables over {0, 1, 2}, each table once."""
    presets = [*(preset(name) for name in PRESET_NAMES), preset("randic", -1)]
    tables = {}
    for g in (*chain_corpus(), *presets, *map(negate, presets), *seeded_small_tables(61, 30)):
        tables.setdefault((g.mode, g.eps, *g.values.items()), g)
    return list(tables.values())


class TestCountsBelowTheFirstTie:
    """Below a table's first tie row every code names one predecessor, so
    each count there is 1 and is read without a carry."""

    def test_counts_around_the_first_tie_row(self):
        # a fresh table reads the rows next to its first tie first, so carries
        # start above, below and at it; then every row in order
        for f in tie_corpus():
            ties, ref = reference_rows(f, 400)
            tie = next((k for k, (_, preds, _) in enumerate(ref, 3)
                        if any(len(p) == 2 for p in preds)), 401)
            t = run_dp(f, 400)
            assert t._tie == tie, f.name
            near = [k for k in (tie + 1, tie - 1, tie) if 3 <= k <= 400]
            for k in (*near, *range(3, 401)):
                (m1, m2), _, (t1, t2) = ref[k - 3]
                winners = (1, 2) if ties(m1, m2) else (1,) if m1 > m2 else (2,)
                want = {None: sum((t1, t2)[e - 1] + 1 for e in winners), 1: t1 + 1, 2: t2 + 1}
                for e in (None, 1, 2):
                    assert t.labeled_count(k, e) == want[e], (f.name, k, e)
            for k in {*near, tie + 2, tie - 2, 3, 4, *range(5, 401, 25)} & set(range(3, 401)):
                for e in (None, 1, 2):
                    assert t.iso_count(k, e) == reference_iso(f, k, e, (ties, ref)), (f.name, k, e)

    def test_tie_free_table_carries_nothing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("no count may be carried")

        monkeypatch.setattr(dp_mod, "_carry", refuse)
        f, n = preset("zagreb1"), 10**6
        t = run_dp(f, n)
        assert t._tie == n + 1
        for k in (3, 4, 5, 1000, n - 1, n):
            assert [t.labeled_count(k, e) for e in (1, 2)] == [1, 1], k
        res = maximize(f, n, count_iso=True)
        assert (res.labeled_count, res.iso_count) == (1, 1)


def assert_result_matches_readers(f, n, objective, end, plain=False):
    """`maximize`/`minimize` of f at n with `count_iso`, every field
    against the public readers of `run_dp` of f, or of its negation for
    the minimum; with `plain` also the result without `count_iso`."""
    search, sign, g = (maximize, 1, f) if objective == "max" else (minimize, -1, negate(f))
    res = search(f, n, end, count_iso=True)
    t = run_dp(g, n)
    best = t.best_value(n) if end is None else t.value(n, end)
    assert res.objective == objective and res.n == n, (f.name, n)
    assert res.value == sign * best, (f.name, n, objective, end)
    assert res.per_end == {e: sign * t.value(n, e) for e in (1, 2)}, (f.name, n, objective, end)
    assert res.witness == t.witness(n, end), (f.name, n, objective, end)
    assert res.labeled_count == t.labeled_count(n, end), (f.name, n, objective, end)
    assert res.iso_count == t.iso_count(n, end), (f.name, n, objective, end)
    assert (res.index_name, res.mode, res.tolerance_dependent) == (f.name, f.mode, f.mode == FLOAT)
    if plain:
        assert search(f, n, end) == res._replace(iso_count=None), (f.name, n, objective, end)


class TestExtremalFields:
    """An extremal result does only its answer's work; each field is
    still what the table's public readers give."""

    # the objective and the end turn with n, and at large n with the table too

    def test_small_n(self):
        for f in tie_corpus():
            for n in range(3, 61):
                assert_result_matches_readers(f, n, ("max", "min")[n % 2], (None, 1, 2)[n % 3],
                                              plain=True)

    def test_large_n(self):
        for i, f in enumerate(tie_corpus()):
            for j, n in enumerate((10**4, 10**5 + 1, 10**6)):
                assert_result_matches_readers(f, n, ("max", "min")[(i + j) % 2],
                                              (None, 1, 2)[(i + j) % 3])


class TestMirrorReadOrder:
    """`iso_count` at k carries the mirror walk of row k - 2 when that was
    the last row of its parity read, with the same ends, and rows k - s .. k
    lie in one segment, and `_pass` carries it so from row to row of a
    window, with the counts one code step from the row before's: every
    read order, and every window of the pass, must give a fresh table's
    answers."""

    @staticmethod
    def tables():
        tables = {}
        extra = [preset(name) for name in PRESET_NAMES]
        extra += [preset("randic", -1), small_range_index()]
        extra += [force_float(preset("randic", -1)), force_float(small_range_index())]
        for f in (*chain_corpus(), *extra, *(negate(f) for f in extra)):
            tables.setdefault((f.mode, f.eps, *f.values.items()), f)
        return list(tables.values())

    @staticmethod
    def windows(t, hi, rng):
        """Rows 3..hi, 3..3 and hi..hi, three other one-row windows, and
        windows that start at, just inside and in the middle of a segment
        and run across the next segment's first row, each within 3..hi."""
        out = {(3, hi), (3, 3), (hi, hi), *((k, k) for k in rng.sample(range(3, hi + 1), 3))}
        for lo, top, _ in t._segments:
            for start in (lo, lo + 1, (lo + top) // 2):
                if start <= hi:
                    out.add((start, min(hi, top + 1 + rng.randrange(6))))
        return sorted(out)

    def test_in_order_reversed_shuffled_and_interleaved(self):
        rng, windows_rng = random.Random(27), random.Random(46)
        rows, hi = list(range(3, 201)), 200
        for f in self.tables():
            fresh = {}
            for k in rows:
                t = run_dp(f, k)  # reads at one row never carry
                for end in (None, 1, 2):
                    fresh[k, end] = t.iso_count(k, end)
                fresh[k] = (t.best_value(k), t.labeled_count(k), fresh[k, None])
            reads = [(k, end) for end in (None, 1, 2) for k in rows]
            orders = {"in order": reads, "reversed": reads[::-1],
                      "shuffled": rng.sample(reads, len(reads)), "interleaved": reads}
            for name, order in orders.items():
                t = run_dp(f, hi)
                for k, end in order:
                    if name == "interleaved":  # another read at another row first
                        other, which = rng.choice(rows), rng.randrange(3)
                        if which == 0:
                            t.value(other, rng.choice((1, 2)))
                        elif which == 1:
                            t.labeled_count(other, rng.choice((None, 1, 2)))
                        else:
                            t.iso_count(other, rng.choice((None, 1, 2)))
                    assert t.iso_count(k, end) == fresh[k, end], (f.name, k, end, name)
            # in order, a window at a time, in one pass: values, counts and mirror
            # classes of the winning ends, and the same values and counts when
            # the pass reads fewer of them
            t = run_dp(f, hi)
            for lo, top in self.windows(t, hi, windows_rng):
                got = list(t._pass(lo, top, count=True, iso=True))
                assert [(f.read(raw), count, iso) for raw, count, iso in got] == [
                    fresh[k] for k in range(lo, top + 1)], (f.name, lo, top, "pass")
                assert list(t._pass(lo, top, count=True)) == [
                    (raw, count, None) for raw, count, _ in got], (f.name, lo, top)
                assert list(t._pass(lo, top)) == [(raw, None, None) for raw, _, _ in got], (f.name, lo, top)


class TestCountMaximal:
    def test_anchors(self):
        assert run_dp(AZI, 10).labeled_count(10, 1) == 3
        assert run_dp(AZI, 7).labeled_count(7, 1) == 1
        assert run_dp(AZI, 7).labeled_count(7, 2) == 2
        assert run_dp(AZI, 3).labeled_count(3, 1) == 1
        assert run_dp(AZI, 3).labeled_count(3, 2) == 1

    def test_validates_arguments(self):
        with pytest.raises(ValueError, match="end link"):
            run_dp(AZI, 5).labeled_count(5, 0)
        with pytest.raises(ValueError, match="n >= 3"):
            run_dp(AZI, 2).labeled_count(2, 1)


def fibonacci_pair(m):
    """(F(m), F(m + 1)) by fast doubling: F(2j) = F(j)(2F(j + 1) - F(j)) and
    F(2j + 1) = F(j)**2 + F(j + 1)**2."""
    if m == 0:
        return 0, 1
    a, b = fibonacci_pair(m // 2)
    c, d = a * (2 * b - a), a * a + b * b
    return (d, c + d) if m % 2 else (c, d)


def power(m, e, v):
    """The vector v under `dp._power(m, e)`, the map m raised to e."""
    return dp_mod._apply(dp_mod._power(m, e), v)


class TestCountPower:
    """`dp._power` raises a 2x2 count map by Cayley-Hamilton: checked against
    e-fold application and against counts known in closed form."""

    def test_equals_repeated_application(self):
        rng = random.Random(31)
        for entries in product(range(5), repeat=4):
            m = (entries[:2], entries[2:])
            v = (rng.getrandbits(300), -rng.getrandbits(200))
            want, stretch = v, ((1, 0), (0, 1))
            for e in range(71):
                assert power(m, e, v) == want, (m, e)
                assert dp_mod._power(m, e) == stretch, (m, e)
                want, stretch = dp_mod._apply(m, want), dp_mod._compose(m, stretch)

    def test_bounded_maps_at_a_huge_exponent(self):
        e, v = 10**100, (3**200, 5**150)
        x, y = v
        assert power(((0, 1), (1, 0)), e, v) == v  # a permutation, order 2
        assert power(((0, 1), (1, 0)), e + 1, v) == (y, x)
        assert power(((0, 1), (0, 0)), e, v) == (0, 0)  # nilpotent
        assert power(((1, 1), (0, 1)), e, v) == (x + e * y, y)  # unipotent
        assert power(((1, 0), (1, 1)), e + 1, v) == (x, (e + 1) * x + y)
        assert power(((1, 0), (0, 1)), e, v) == v
        assert power(((1, 0), (0, 0)), e, v) == (x, 0)  # a projection: singular

    def test_stretch_alternates_its_two_maps(self):
        maps = [(entries[:2], entries[2:]) for entries in product(range(3), repeat=4)]
        rng = random.Random(32)
        for _ in range(200):
            first, second = rng.choice(maps), rng.choice(maps)
            want = first
            for rows in range(1, 12):
                assert dp_mod._stretch(first, second, rows) == want, (first, second, rows)
                want = dp_mod._compose((first, second)[rows % 2], want)

    def test_constant_index_counts_every_word(self):
        const = IndexFunction("const", {p: Fraction(7, 3) for p in DEGREE_PAIRS})
        for n in (10**4, 10**5):
            assert run_dp(const, n).labeled_count() == 2 ** (n - 2)

    def test_randic_minus_one_counts_fibonacci(self):
        n = 10**4
        assert run_dp(preset("randic", -1), n).labeled_count() == fibonacci_pair(n - 2)[0]


class TestDegenerateAndRandomTables:
    def test_constant_index_ties_everywhere(self):
        const = constant_index()
        for n in range(3, 11):
            ok, detail = cross_check_oracle(const, n)
            assert ok, (n, detail)
            assert maximize(const, n).labeled_count == 2 ** (n - 2)
        assert run_dp(const, 10).labeled_count(10, 1) == 2**7

    def test_tie_heavy_memory_is_linear(self):
        # 2**(k-2) maximizers at every k: per-row tie counts would hold
        # Theta(n**2) bits, about 3.8x per doubling of n, for the optimum
        # at n and for one interior row alike
        const = constant_index()

        def peak(query, n):
            tracemalloc.start()
            try:
                query(n)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        for query in (lambda n: maximize(const, n), lambda n: run_dp(const, n).labeled_count(n // 2, 1)):
            assert peak(query, 2 * 10**4) / peak(query, 10**4) < 2.5

    def test_periodic_table_stores_codes_not_values(self):
        # a table is its stepped rows and runs, eight segments here, with no
        # per-row codes or values: about 8 kB
        tracemalloc.start()
        try:
            run_dp(AZI, 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**6

    def test_witness_memory(self):
        # the witness is built in one n-byte buffer and kept as n bytes
        tracemalloc.start()
        try:
            maximize(AZI, 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_random_tables_cross_check(self):
        rng = random.Random(42)
        for trial in range(15):
            values = {p: Fraction(rng.randrange(-20, 21), rng.randrange(1, 7)) for p in DEGREE_PAIRS}
            f = IndexFunction(f"rand{trial}", values)
            for n in (6, 9):
                ok, detail = cross_check_oracle(f, n)
                assert ok, (trial, n, values, detail)

    def test_tie_heavy_tables_cross_check(self):
        # tiny value range forces frequent accidental ties
        rng = random.Random(43)
        for trial in range(10):
            values = {p: Fraction(rng.randrange(0, 3)) for p in DEGREE_PAIRS}
            f = IndexFunction(f"tie{trial}", values)
            for n in (7, 10):
                ok, detail = cross_check_oracle(f, n)
                assert ok, (trial, n, values, detail)


def zero_index():
    # every chain scores 0: the periodic tail has shift 0
    return IndexFunction("zero", {p: Fraction(0) for p in DEGREE_PAIRS})


def late_repeat_index():
    # self-loop means g11 = 3 and g22 = 3 - 1/10**4, 2-cycle far below:
    # d = m1 - m2 climbs by 1/10**4 a row from 45.8 until end 2 turns to
    # take link 1 after it, so d first repeats near row 1000, after a tie
    values = {(2, 2): Fraction(0), (2, 3): Fraction(0), (2, 4): Fraction(-109, 10),
              (3, 3): Fraction(1), (3, 4): Fraction(-10),
              (4, 4): Fraction(248, 10) - Fraction(1, 10**4)}
    return IndexFunction("late-repeat", values)


def seeded_small_tables(seed, count):
    rng = random.Random(seed)
    return [IndexFunction(f"small{t}", {p: Fraction(rng.randrange(3)) for p in DEGREE_PAIRS})
            for t in range(count)]


def wide_rational_tables(seed, count):
    # entries in about [-5, 20) over denominators up to 10**6
    rng = random.Random(seed)
    out = []
    for t in range(count):
        den_max = round(10 ** (6 * (t + 1) / count))
        out.append(IndexFunction(f"wide{t}", {
            p: Fraction(round(rng.uniform(-5, 20) * den), den)
            for p in DEGREE_PAIRS
            for den in [rng.randrange(max(1, den_max // 2), den_max + 1)]}))
    return out


def plain_witness(table, k, end):
    """Walk the predecessor sets back from square k, link 1 first."""
    out, cur = [end], end
    for j in range(k, 3, -1):
        cur = min(table.predecessors(j, cur))
        out.append(cur)
    return LinkVector(reversed(out))


def d_at(table, k):
    return table.value(k, 1) - table.value(k, 2)


def assert_matches_reference(g, n, ref, rows, witness=True):
    """run_dp(g, n) against reference rows at the given square counts,
    a streaming run at row n, and both witnesses against a plain walk."""
    table = run_dp(g, n)
    slim = run_dp(g, n, keep_table=False)
    for k in rows:
        if k == 3:
            continue
        vals, preds, ties = ref[k - 4]
        for i in (1, 2):
            assert table.value(k, i) == vals[i - 1], (g.name, n, k, i)
            assert table.predecessors(k, i) == preds[i - 1], (g.name, n, k, i)
            assert table.labeled_count(k, i) - 1 == ties[i - 1], (g.name, n, k, i)
            if k == n:
                assert slim.value(n, i) == vals[i - 1], (g.name, n, i)
                assert slim.predecessors(n, i) == preds[i - 1], (g.name, n, i)
                assert slim.labeled_count(n, i) - 1 == ties[i - 1], (g.name, n, i)
    for e in (1, 2) if witness else ():
        assert table.witness(end=e) == plain_witness(table, n, e), (g.name, n, e)


PERIODIC_CORPUS = [
    *(g for name in ("azi", "zagreb1", "zagreb2", "harmonic")
      for g in (preset(name), negate(preset(name)))),
    constant_index(),
    zero_index(),
    *(g for f in seeded_small_tables(46, 12) for g in (f, negate(f))),
    *(g for f in wide_rational_tables(47, 8) for g in (f, negate(f))),
    late_repeat_index(),
    negate(late_repeat_index()),
]


class TestPeriodicTail:
    """The forward pass jumps each steady run of a rational table, the last
    one to row n, and writes its codes down; it must agree with the plain
    loop."""

    def test_every_size_through_the_tail(self):
        n_max = 2001
        for g in PERIODIC_CORPUS:
            period = run_dp(g, n_max).period
            assert period is not None, g.name  # the fast path ran
            start = period[0]
            ref = reference_pass(g, n_max)
            for n in range(3, start + 7):
                # the rows below start - 4 come out of the loop whatever n
                # is, and so does the witness while d has not repeated
                assert_matches_reference(g, n, ref, range(max(3, min(n, start) - 4), n + 1),
                                         witness=n <= 40 or n >= start - 4)
            for n in (start + 6, 500, n_max):
                assert_matches_reference(g, n, ref, range(3, n + 1))

    def test_period_is_the_first_repeat_of_d(self):
        for g in PERIODIC_CORPUS:
            t = run_dp(g, 1200)
            start, c = t.period
            assert d_at(t, start + 1) == d_at(t, start - 1), g.name
            assert all(d_at(t, k) != d_at(t, k - 2) for k in range(5, start + 1)), g.name
            assert (c == 1) == (d_at(t, start) == d_at(t, start + 1)), g.name
            shift = t.value(start + c, 1) - t.value(start, 1)
            for k in range(start, 1201 - c):
                for i in (1, 2):
                    assert t.value(k + c, i) - t.value(k, i) == shift, (g.name, k, i)
                    assert t.predecessors(k + c, i) == t.predecessors(k, i), (g.name, k, i)

    def test_period_of_the_presets(self):
        assert run_dp(AZI, 100).period == (6, 2)
        assert run_dp(negate(AZI), 100).period == (8, 1)
        assert run_dp(constant_index(), 100).period == (4, 1)
        assert run_dp(late_repeat_index(), 1010).period == (1004, 1)

    def test_no_period_without_a_repeat(self):
        # the exact sums of AZI's IEEE entries tie where AZI's own do
        assert run_dp(force_float(AZI), 500).period == run_dp(AZI, 500).period
        late = late_repeat_index()
        assert run_dp(late, 1005).period is None  # d repeats at row 1005 = n
        assert run_dp(late, 1006).period == (1004, 1)
        assert run_dp(AZI, 3).period is None

    def test_streaming_takes_the_same_exit(self):
        slim = run_dp(constant_index(), 10**5, keep_table=False)
        assert slim.period == (4, 1)
        assert slim.labeled_count(10**5, 1) == 2 ** (10**5 - 3)
        assert slim.labeled_count() == 2 ** (10**5 - 2)

    def test_drift_run_is_jumped(self):
        # d climbs by 1/10**4 a row for about 1000 rows: one jumped run
        for keep in (True, False):
            table = run_dp(late_repeat_index(), 10**6, keep_table=keep)
            assert table.steps < 50, keep
            assert table.period == (1004, 1)

    def test_witness_inside_the_table(self):
        for g in (AZI, negate(AZI), late_repeat_index(), *seeded_small_tables(49, 6)):
            t = run_dp(g, 1200)
            start = t.period[0]  # T + 10 .. T + 13: every phase of the four-row block
            for k in (3, 4, 7, 12, 13, 600, 1009, 1010, 1011, 1199, *range(start + 10, start + 14)):
                for e in (1, 2):
                    assert t.witness(k, e) == plain_witness(t, k, e), (g.name, k, e)


small_integer_tables = st.builds(
    lambda entries: IndexFunction("hyp", {p: Fraction(v) for p, v in zip(DEGREE_PAIRS, entries)}),
    st.lists(st.integers(-3, 3), min_size=6, max_size=6),
)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(small_integer_tables, st.integers(3, 400))
def test_periodic_tail_matches_reference(f, n):
    ref = reference_pass(f, n)
    assert_matches_reference(f, n, ref, range(3, n + 1))


PROBE = IndexFunction("probe", dict(zip(DEGREE_PAIRS, (
    -5.240707458162173, 0.8845845059190367, -2.6008966690384145,
    2.0784007719238886, 2.5144060821610807, -8.689422815203738))),
    mode=FLOAT, eps=0.6002183446019408)


def assert_candidate_rule(f, n):
    """Each entry of run_dp(f, n) against the row before it: end i's sums
    a and b tie exactly when `values_equal` says so, otherwise the larger
    one wins, and the entry holds the larger one.  Float tables are
    checked against `reference_pass`, which takes the sums exactly."""
    table = run_dp(f, n)
    if f.mode == FLOAT:
        for k, (vals, preds, _) in enumerate(reference_pass(f, n), start=4):
            for i in (1, 2):
                assert table.predecessors(k, i) == preds[i - 1], (f.name, f.eps, k, i)
                assert table.value(k, i) == vals[i - 1], (f.name, f.eps, k, i)
        return
    gt = increment_table(f)
    for k in range(4, n + 1):
        for i in (1, 2):
            a = table.value(k - 1, 1) + gt.step(1, i)
            b = table.value(k - 1, 2) + gt.step(2, i)
            expected = {1, 2} if values_equal(a, b, f.eps) else {1} if a > b else {2}
            assert table.predecessors(k, i) == expected, (f.name, f.eps, k, i)
            assert table.value(k, i) == max(a, b), (f.name, f.eps, k, i)


def boundary_float_tables(seed, count):
    """Float tables whose eps sits on either side of the exact ratio
    |a - b| / max(1, |a|, |b|) of the first step of one end, for the exact
    sums a and b: the largest float below it and the smallest at or above."""
    rng = random.Random(seed)
    out = []
    for t in range(count):
        values = {p: rng.uniform(-5, 5) for p in DEGREE_PAIRS}
        gt = increment_table(IndexFunction("raw", {p: Fraction(v) for p, v in values.items()}))
        i = 1 + t % 2
        a, b = gt.initial(1) + gt.step(1, i), gt.initial(2) + gt.step(2, i)
        ratio = abs(a - b) / max(1, abs(a), abs(b))
        above = float(ratio)
        if above < ratio:
            above = math.nextafter(above, math.inf)
        out += [IndexFunction(f"boundary{t}", values, mode=FLOAT, eps=e)
                for e in (math.nextafter(above, 0), above)]
    return out


class TestCandidateRule:
    """The forward pass decides each entry on its two candidate sums with
    `values_equal`'s formula and keeps the larger sum on a tie."""

    def test_probe_table(self):
        # end 1's sums at n = 4 differ by just over eps times the larger
        assert run_dp(PROBE, 4).predecessors(4, 1) == {1}
        ok, mismatches = cross_check_oracle(PROBE, 4)
        assert ok, mismatches

    def test_presets_forced_floats_and_small_tables(self):
        corpus = [
            *(preset(name) for name in PRESET_NAMES),
            *(force_float(f, eps) for f in RATIONAL_PRESETS for eps in (1e-12, 1e-9, 0.05, 1.45)),
            *seeded_small_tables(50, 12),
        ]
        for f in corpus:
            for g in (f, negate(f)):
                if g.mode != FLOAT:  # the rows past T are read from the periodic tail
                    assert run_dp(g, 60).period[0] < 50, g.name
                assert_candidate_rule(g, 60)

    def test_tolerance_boundary(self):
        for f in boundary_float_tables(51, 200):
            assert_candidate_rule(f, 12)


float_tables = st.builds(
    lambda entries, eps: IndexFunction("hyp-float", dict(zip(DEGREE_PAIRS, entries)),
                                       mode=FLOAT, eps=eps),
    st.lists(st.floats(-10, 10), min_size=6, max_size=6),
    st.floats(1e-12, 2.0),
)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(float_tables, st.integers(4, 40))
def test_candidate_rule_property(f, n):
    assert_candidate_rule(f, n)


def late_overtake_table(gap, eps):
    """`late_repeat_index` in floats with g22 = g11 - gap: d drifts by gap
    a row until near row 0.1 / gap, and at eps >= gap / 10**4 the
    tolerance, growing with the values, overtakes a gap near row 3350,
    so end 2's code changes twice between steady runs."""
    values = {(2, 2): 0.0, (2, 3): 0.0, (2, 4): -10.9, (3, 3): 1.0, (3, 4): -10.0,
              (4, 4): 24.8 - gap}
    return IndexFunction(f"overtake{gap}", values, mode=FLOAT, eps=eps)


# found by a seeded search: on some rows of its negation the tolerance is
# set by the candidate sum that loses, not by the value kept
CANDIDATE_SCALED = IndexFunction("cand-scaled", dict(zip(DEGREE_PAIRS, (
    19.129831207476975, -0.0006488433718010442, -7.136650245129513,
    32.85356910755177, 0.06477892644010062, 5771.106566529041))), mode=FLOAT, eps=0.05)

# its negation alternates rows (-4, -2) and (-6, 0) at eps 1.45, end 2
# tying on a margin of 4 against a threshold of 5.8 on every other row
PERIOD_TWO_TIES = IndexFunction("period-two-ties", dict(zip(DEGREE_PAIRS, (
    2.0, -2.0, 1.0, 3.0, 1.0, 0.0))), mode=FLOAT, eps=1.45)

FLOAT_RUN_CORPUS = [
    g for f in (
        *seeded_float_tables(52, 2),
        *near_integer_float_tables(53, 1, 1e-9),
        *near_integer_float_tables(54, 2, 0.05),
        *(force_float(AZI, eps) for eps in (1e-12, 1e-9, 0.05, 1.45)),
        *boundary_float_tables(55, 1),
        late_overtake_table(1e-4, 1e-8),
        late_overtake_table(1e-3, 1e-7),
        CANDIDATE_SCALED,
        PERIOD_TWO_TIES,
        preset("ga"),
    ) for g in (f, negate(f))
]


def assert_float_run_matches(g, n):
    """run_dp(g, n), kept and streaming, against `reference_pass` on every
    row: values by repr (so -0.0 and 0.0 differ), codes and tie counts;
    witnesses against the plain walk at each phase of the four-row block."""
    table, slim = run_dp(g, n), run_dp(g, n, keep_table=False)
    want = [(tuple(map(repr, m)), preds, ties) for m, preds, ties in reference_pass(g, n)]
    got = [(tuple(repr(table.value(k, i)) for i in (1, 2)),
            tuple(table.predecessors(k, i) for i in (1, 2)),
            tuple(table.labeled_count(k, i) - 1 for i in (1, 2))) for k in range(4, n + 1)]
    assert got == want, (g.name, next(k for k, (x, y) in enumerate(zip(got, want), 4) if x != y))
    assert (tuple(repr(slim.value(n, i)) for i in (1, 2)),
            tuple(slim.predecessors(n, i) for i in (1, 2)),
            tuple(slim.labeled_count(n, i) - 1 for i in (1, 2))) == want[-1], g.name
    for k in range(n - 3, n + 1):
        for e in (1, 2):
            assert table.witness(k, e) == plain_witness(table, k, e), (g.name, k, e)
    return table


class TestFloatRuns:
    """The float pass jumps each steady run to the row before its next
    change of decision; it must agree bit for bit with the plain loop on
    the exact sums."""

    def test_every_row_matches_the_reference(self):
        for g in FLOAT_RUN_CORPUS:
            table = assert_float_run_matches(g, 5000)
            assert table.steps < 1000, g.name  # the runs were jumped

    def test_two_runs(self):
        # end 2 takes link 2 to row 103, link 1 to row 3350 and then ties:
        # three jumped runs of codes with a few steps between
        table = run_dp(late_overtake_table(1e-3, 1e-7), 5000)
        assert [table.predecessors(k, 2) for k in (50, 1000, 4900)] == [{2}, {1}, {1, 2}]
        assert table.steps < 300
        for k in (4000, 4001, 4002, 4003, 3000, 3001, 3002, 3003):
            for e in (1, 2):
                assert table.witness(k, e) == plain_witness(table, k, e), (k, e)

    def test_tie_counts_take_few_steps(self):
        # ties at every row: the tie counts have n - 3 bits, so carrying
        # them row by row costs quadratic time; a jumped run powers its map
        f = force_float(negate(AZI), 0.05)
        slim = run_dp(f, 10**5, keep_table=False)
        assert slim.steps < 100
        assert run_dp(f, 2 * 10**5, keep_table=False).steps == slim.steps
        assert slim.labeled_count(10**5, 1).bit_length() > 10**5 - 10

    def test_overflow_past_row_3000(self):
        # every chain scores (3n + 1) * c, which leaves the float range near n = 3525
        f = IndexFunction("big", {p: 1.7e304 for p in DEGREE_PAIRS}, mode=FLOAT)
        for g in (f, negate(f)):
            assert_float_run_matches(g, 3500)
            for keep in (True, False):
                with pytest.raises(ValueError, match="float overflow: the optimum at n = 3600"):
                    run_dp(g, 3600, keep_table=keep)

    def test_memory_is_linear(self):
        # a table is its segments, a few stepped rows and runs, whatever n is
        ga = preset("ga")

        def peak(n):
            tracemalloc.start()
            try:
                run_dp(ga, n)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(2 * 10**5) - peak(10**5) <= 20 * 10**5


@settings(derandomize=True, deadline=None, max_examples=30)
@given(float_tables, st.integers(60, 3000))
def test_float_runs_property(f, n):
    assert_float_run_matches(f, n)


def case_b_index():
    # g11 = g2 = 3 with the dominance premise satisfied
    values = {
        (2, 2): Fraction(1),
        (2, 3): Fraction(1),
        (2, 4): Fraction(3, 2),
        (3, 3): Fraction(1),
        (3, 4): Fraction(1, 2),
        (4, 4): Fraction(-1),
    }
    return IndexFunction("case-b", values)


def case_c_index():
    # g = (10, 9, 0, 0), g2 = 19: zigzag wins only at n = 3
    values = {
        (2, 2): Fraction(0),
        (2, 3): Fraction(-107, 6),
        (2, 4): Fraction(0),
        (3, 3): Fraction(10, 3),
        (3, 4): Fraction(67, 6),
        (4, 4): Fraction(0),
    }
    return IndexFunction("case-c", values)


def near_tie_index(mode):
    # g11 = 3, g12 = 3 - 1e-12, g21 = 2 - 1e-12, g22 = 2: the premise
    # holds exactly, but g11 and g12 are equal within the float tolerance
    values = {
        (2, 2): Fraction(1),
        (2, 3): Fraction(1, 2) - Fraction(1, 10**12),
        (2, 4): Fraction(3, 2),
        (3, 3): Fraction(1),
        (3, 4): Fraction(1),
        (4, 4): Fraction(-1),
    }
    f = IndexFunction("near-tie", values)
    return f if mode == "rational" else force_float(f)


class TestClassifier:
    def test_near_tie_premise_follows_tolerance(self):
        assert classify(near_tie_index("rational")).premise_holds
        verdict = classify(near_tie_index("float"))
        assert not verdict.premise_holds
        assert verdict.case == CASE_NOT_APPLICABLE

    def test_azi_not_applicable(self):
        verdict = classify(AZI)
        assert not verdict.premise_holds
        assert verdict.case == CASE_NOT_APPLICABLE

    def test_negated_azi_case_c(self):
        verdict = classify(negate(AZI))
        assert verdict.premise_holds
        assert verdict.case == CASE_ZIGZAG_THEN_LINEAR
        assert verdict.n_star == 6
        assert verdict.tie_at_threshold is False

    def test_harmonic_case_a(self):
        verdict = classify(preset("harmonic"))
        assert verdict.case == CASE_LINEAR_ALWAYS
        assert verdict.n_star is None

    def test_case_a_presets_maximized_by_linear(self):
        for name in ("harmonic", "ga", "sum_connectivity", "randic"):
            f = preset(name)
            assert classify(f).case == CASE_LINEAR_ALWAYS
            for n in range(3, 30):
                res = maximize(f, n)
                assert res.witness == linear_chain(n)
                assert res.labeled_count == 1
            for n in range(3, 11):
                argmax = {c.links for c in exhaustive(f, n).argmax}
                assert argmax == {linear_chain(n).links}

    def test_case_b_synthetic(self):
        f = case_b_index()
        gt_check = classify(f)
        assert gt_check.case == CASE_LINEAR_FROM_4
        # n = 3: both one-link chains tie; n >= 4: linear alone
        assert evaluate_direct([1], f) == evaluate_direct([2], f)
        for n in range(4, 11):
            argmax = {c.links for c in exhaustive(f, n).argmax}
            assert argmax == {linear_chain(n).links}

    def test_case_c_synthetic(self):
        f = case_c_index()
        verdict = classify(f)
        assert verdict.case == CASE_ZIGZAG_THEN_LINEAR
        assert verdict.n_star == 4
        assert verdict.tie_at_threshold is False
        assert {c.links for c in exhaustive(f, 3).argmax} == {zigzag_chain(3).links}
        for n in range(4, 11):
            assert {c.links for c in exhaustive(f, n).argmax} == {linear_chain(n).links}

    def test_negated_azi_threshold_behavior(self):
        # zigzag uniquely below the threshold, linear from the threshold on
        neg = negate(AZI)
        for n in range(3, 6):
            assert maximize(neg, n).witness == zigzag_chain(n)
            assert maximize(neg, n).labeled_count == 1
        for n in range(6, 40):
            res = maximize(neg, n)
            assert res.witness == linear_chain(n)
            assert res.labeled_count == 1
