"""Exhaustive oracle: anchors, caps, and engine cross-checks."""

import hashlib
import math
import random
import time
import tracemalloc
from fractions import Fraction
from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import accumulate, islice, product

import pytest

import polychain.azi as azi_mod
import polychain.chains as chains_mod
import polychain.cli as cli_mod
import polychain.dp as dp_mod
import polychain.indices as indices_mod
import polychain.oracle as oracle_mod
from polychain.chains import (
    _automaton,
    _counts_width,
    _graph,
    _table,
    _unpack,
    edge_degree_multiset,
    linear_chain,
    realize,
)
from polychain.dp import DPTable, run_dp
from polychain.indices import (
    DEGREE_PAIRS,
    FLOAT,
    PRESET_NAMES,
    RATIONAL,
    IndexFunction,
    _increments,
    degree_pair_sum,
    evaluate_direct,
    force_float,
    negate,
    preset,
)
from polychain.oracle import _parts, _tying, census, cross_check, exhaustive
from reference_graph import (
    _cached_multiset,
    _cached_pair_counts,
    assert_checked_word,
    reference_graph,
    reference_multiset,
    reference_report,
)

AZI = preset("azi")


def pair_of(degree, edge):
    """An edge's degree pair, smaller degree first."""
    return tuple(sorted(degree[w] for w in edge))


def frontier_of(edges, degree, cell):
    """What `chains._graph` documents as a frontier: for the last square's
    sw, se and ne corners, each neighbour's offset from `cell`, the sw
    corner, and degree, sorted."""
    x, y = cell

    def near(corner):
        return tuple(sorted(((u - x, v - y), degree[u, v]) for edge in edges if corner in edge
                            for u, v in edge if (u, v) != corner))

    return near((x, y)), near((x + 1, y)), near((x + 1, y + 1))


def small_range_tables(seed, count):
    rng = random.Random(seed)
    return [
        IndexFunction(f"small{t}", {p: Fraction(rng.randint(0, 2)) for p in DEGREE_PAIRS})
        for t in range(count)
    ]


def near_tie_tables(seed, count):
    # {0,1,2} entries jittered well inside eps: float ties at many levels
    rng = random.Random(seed)
    return [
        IndexFunction(f"near{t}", {p: rng.randint(0, 2) + rng.uniform(-1e-7, 1e-7)
                                   for p in DEGREE_PAIRS}, mode=FLOAT, eps=1e-6)
        for t in range(count)
    ]


# mixed signs under eps > 1: a chain can tie the extreme without tying
# the values between the two, so a result set is every chain that ties
# the extreme, chosen once the extreme is known
WIDE_TOLERANCE = IndexFunction(
    "wide", dict(zip(DEGREE_PAIRS, (-0.67, 0.63, -2.8, -0.53, 2.85, 1.52))), mode=FLOAT, eps=1.45
)


def boundary_tables(seed):
    # one mixed-sign table at tolerances on both sides of eps = 1: below
    # it a chain that ties the extreme ties every value in between, above
    # it need not
    rng = random.Random(seed)
    values = {p: round(rng.uniform(-3, 3), 2) for p in DEGREE_PAIRS}
    return [IndexFunction(f"boundary{eps}", values, mode=FLOAT, eps=eps)
            for eps in (0.5, 1.0, 1.2, 1.9)]


def report_corpus():
    """All presets, the rational ones forced to float, seeded {0,1,2}
    tables, near-tie, wide-tolerance and eps-boundary float tables, and
    the negation of each."""
    tables = [preset(name) for name in PRESET_NAMES]
    tables += [force_float(f) for f in tables if f.mode == RATIONAL]
    tables += small_range_tables(5, 4) + near_tie_tables(6, 2) + [WIDE_TOLERANCE]
    tables += boundary_tables(0)
    return tables + [negate(f) for f in tables]


class TestExhaustive:
    def test_six_square_extrema(self):
        rep = exhaustive(AZI, 6)
        assert rep.max_value == Fraction(10790359, 54000)
        assert rep.min_value == Fraction(12549, 64)  # the 6-square linear chain
        assert [tuple(c) for c in rep.argmax] == [(1, 2, 2, 1)]
        assert [tuple(c) for c in rep.argmin] == [(1, 1, 1, 1)]

    def test_four_square_argmax_pair(self):
        rep = exhaustive(AZI, 4)
        assert [tuple(c) for c in rep.argmax] == [(1, 2), (2, 1)]
        assert rep.per_end_max[1] == rep.per_end_max[2] == Fraction(513013, 4000)

    def test_three_square_report(self):
        rep = exhaustive(AZI, 3)
        assert {tuple(c) for c in rep.argmax} | {tuple(c) for c in rep.argmin} == {(1,), (2,)}
        assert [tuple(c) for c in rep.per_end_argmax[1]] == [(1,)]
        assert [tuple(c) for c in rep.per_end_argmax[2]] == [(2,)]

    def test_argmax_in_lexicographic_order(self):
        rep = exhaustive(AZI, 12)
        words = [tuple(c) for c in rep.argmax]
        assert words == sorted(words)

    def test_cap_refusal(self):
        with pytest.raises(ValueError, match="exceeds the oracle cap"):
            exhaustive(AZI, 25)
        rep = exhaustive(AZI, 13, cap=13)  # explicit override on a small case
        assert rep.n == 13

    def test_cap_refusal_does_not_build_the_chain_count(self):
        start = time.perf_counter()
        refusal = r"exceeds the oracle cap 24: would evaluate 2\*\*999999998 chains"
        with pytest.raises(ValueError, match=refusal):
            exhaustive(AZI, 10**9)
        assert time.perf_counter() - start < 0.1

    def test_needs_three_squares(self):
        with pytest.raises(ValueError, match="n >= 3"):
            exhaustive(AZI, 2)

    def test_float_overflow_refused(self):
        huge = IndexFunction("huge", {p: 5e307 for p in DEGREE_PAIRS}, mode=FLOAT)
        with pytest.raises(ValueError, match="float overflow: index value is inf"):
            exhaustive(huge, 3)

    def test_min_is_linear_for_large_n(self):
        rep = exhaustive(AZI, 9)
        assert [c.links for c in rep.argmin] == [linear_chain(9).links]
        assert rep.min_value == evaluate_direct(linear_chain(9), AZI)

    def test_json_shape(self):
        doc = exhaustive(AZI, 5).to_json()
        assert doc["n"] == 5
        assert doc["index"] == "azi"
        assert doc["max"]["rational"] == "329717/2000"
        assert doc["argmax"] == [[1, 2, 1]]
        assert set(doc["per_end_max"]) == {"1", "2"}

    def test_set_words_are_checked_words(self):
        # a set's chains keep their translated digits without the input check
        for f in report_corpus():
            for n in range(3, 13):
                rep = exhaustive(f, n)
                for chains in (rep.argmax, rep.argmin, *rep.per_end_argmax.values()):
                    for c in chains:
                        assert_checked_word(c)
                        assert len(c) == n - 2, (f.name, n)


class TestCrossCheck:
    def test_azi_small_range(self):
        for n in range(3, 13):
            ok, mismatches = cross_check(AZI, n)
            assert ok, (n, mismatches)

    def test_harmonic(self):
        for n in range(3, 11):
            ok, mismatches = cross_check(preset("harmonic"), n)
            assert ok, (n, mismatches)

    def test_float_presets(self):
        for name in ("randic", "abc", "ga"):
            f = preset(name)
            for n in range(3, 11):
                ok, mismatches = cross_check(f, n)
                assert ok, (name, n, mismatches)

    def test_detects_engine_corruption(self, monkeypatch):
        # the max table's row values, which its row record reads, raised by 1
        real_read = dp_mod._read

        def corrupted(f, phases, k):
            (x, y), ends, codes = real_read(f, phases, k)
            return ((x, y) if f.name.endswith("_neg") else (x + f.den, y + f.den)), ends, codes

        monkeypatch.setattr(dp_mod, "_read", corrupted)
        ok, mismatches = cross_check(AZI, 6)
        assert not ok
        assert any("max value" in m for m in mismatches)

    @pytest.mark.parametrize("name", ["abc", "ga", "sum_connectivity", "randic:-1/2"])
    def test_float_values_compared_exactly(self, monkeypatch, name):
        # every chain raised by 2**-40 inside the engine: far inside eps, but
        # both sides are correctly rounded exact sums, so the values differ
        def raised(f):
            *increments, base = indices_mod._increments(f)
            return (*increments, base + (f.den >> 40))

        monkeypatch.setattr(dp_mod, "_increments", raised)
        f = preset(*name.split(":"))
        ok, mismatches = cross_check(f, 10)
        assert not ok
        labels = [m.split(":")[0] for m in mismatches]
        assert "max value" in labels and "min value" in labels, labels

    def test_detects_negated_table_corruption(self, monkeypatch):
        real_words = DPTable._words

        def dropping(table, k, end):
            words = real_words(table, k, end)
            return islice(words, 1, None) if table.f.name.endswith("_neg") else words

        monkeypatch.setattr(DPTable, "_words", dropping)
        ok, mismatches = cross_check(AZI, 6)
        assert not ok
        assert [m.split(":")[0] for m in mismatches] == ["argmin set"]

    def test_detects_per_end_count_corruption(self, monkeypatch):
        # every count of one end alone inflated, and its mirror pairs alike so
        # that its mirror classes stay right; AZI at 4 wins at both ends, so
        # the labeled count reads both ends at once
        def inflated(real):
            def read(table, rec, ends):
                return real(table, rec, ends) + (len(ends) == 1)

            return read

        monkeypatch.setattr(DPTable, "_count", inflated(DPTable._count))
        monkeypatch.setattr(DPTable, "_mirror_pairs", inflated(DPTable._mirror_pairs))
        ok, mismatches = cross_check(AZI, 4)
        assert not ok
        assert [m.split(":")[0] for m in mismatches] == ["end-1 maximal count", "end-2 maximal count"]

    def test_detects_mirror_class_corruption(self, monkeypatch):
        real_pairs = DPTable._mirror_pairs

        def deflated(table, rec, ends):  # one mirror class more
            return real_pairs(table, rec, ends) - 1

        monkeypatch.setattr(DPTable, "_mirror_pairs", deflated)
        ok, mismatches = cross_check(AZI, 6)
        assert not ok
        assert [m.split(":")[0] for m in mismatches] == [
            "mirror classes", "argmin mirror classes",
            "end-1 mirror classes", "end-2 mirror classes",
        ]

    def test_two_forward_passes(self, monkeypatch):
        real_run_dp = dp_mod.run_dp
        calls = []

        def counting(f, n, **kwargs):
            calls.append((f.name, n, kwargs))
            return real_run_dp(f, n, **kwargs)

        monkeypatch.setattr(dp_mod, "run_dp", counting)
        ok, mismatches = cross_check(AZI, 10)
        assert ok, mismatches
        assert len(calls) == 2, calls

    def test_each_end_descended_once(self, monkeypatch):
        # every end of the max table once, each winning end of the min table
        # once, and no other reader of words or of whole results
        descents = []
        real_words = DPTable._words

        def words(table, k, end):
            descents.append((table.f.name, k, end))
            return real_words(table, k, end)

        def refuse(*args, **kwargs):
            raise AssertionError("cross_check reads row n's record and words only")

        monkeypatch.setattr(DPTable, "_words", words)
        for name in ("witness", "chains", "labeled_count", "iso_count"):
            monkeypatch.setattr(DPTable, name, refuse)
        monkeypatch.setattr(dp_mod, "_extremal", refuse)
        const = IndexFunction("const", {p: Fraction(7, 3) for p in DEGREE_PAIRS})
        for f in (AZI, preset("randic", -1), preset("abc"), const, WIDE_TOLERANCE):
            for n in (3, 4, 7, 10, 11):
                descents.clear()
                ok, mismatches = cross_check(f, n)
                assert ok or f is WIDE_TOLERANCE, (f.name, n, mismatches)
                ends = run_dp(negate(f), n)._row(n)[1]
                want = [(f.name, n, 1), (f.name, n, 2)] + [(negate(f).name, n, e) for e in ends]
                assert descents == want, (f.name, n)

    def test_row_n_and_its_mirror_walk_once_per_table(self, monkeypatch):
        # each table makes one record, row n's, that every reader shares, and
        # walks its mirror pairs once for both ends and for each end alone
        records, walks = {}, []
        real_row, real_walk = DPTable._row, DPTable._walk

        def row(table, k, *args):
            rec, ends = real_row(table, k, *args)
            records.setdefault(id(rec), (table.f.name, rec[dp_mod._K], rec))
            return rec, ends

        def walk(table, k, *args):
            walks.append((table.f.name, k))
            return real_walk(table, k, *args)

        monkeypatch.setattr(DPTable, "_row", row)
        monkeypatch.setattr(DPTable, "_walk", walk)
        const = IndexFunction("const", {p: Fraction(7, 3) for p in DEGREE_PAIRS})
        for f in (AZI, preset("randic", -1), preset("abc"), const):
            for n in (3, 4, 7, 10, 11):
                records.clear()
                walks.clear()
                ok, mismatches = cross_check(f, n)
                assert ok, (f.name, n, mismatches)
                want = sorted([(f.name, n), (negate(f).name, n)])
                assert sorted((name, k) for name, k, _ in records.values()) == want, (f.name, n)
                assert sorted(walks) == want, (f.name, n)


def positions_by_vector(groups):
    """(vector id, position) for every chain, group by group."""
    for column in groups:
        for vid, group in enumerate(column):
            for pos in group:
                yield vid, pos


def census_peak(n, read=False):
    """The tracemalloc peak of building census(n) and, if `read`, then
    reading every one of its groups."""
    census(3)  # the module's own first-use allocations are not the census's
    census.cache_clear()
    tracemalloc.start()
    try:
        _, groups = census(n)
        if read:
            for column in groups:
                for vid in range(len(column)):
                    column[vid]
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        census.cache_clear()


def assert_reference_vector(n, vector, pos):
    """The chain at position pos has that vector on the reference graph."""
    links = [1 + (pos >> k & 1) for k in range(n - 3, -1, -1)]
    pairs = reference_multiset(links)
    assert vector == tuple(pairs[p] for p in DEGREE_PAIRS), (n, pos, links)


def assert_groups_partition(n, vectors, groups, code):
    """Each chain position once, under the end its parity gives, in
    ascending read-only groups of `code` items, one group per vector and
    end."""
    assert [len(column) for column in groups] == [len(vectors)] * 2
    seen = bytearray(2 ** (n - 2))
    for end, column in enumerate(groups, 1):
        for vid, group in enumerate(column):
            assert (group.format, group.readonly) == (code, True), (n, end, vid)
            assert all(a < b for a, b in zip(group, group[1:])), (n, end, vid)
            for pos in group:
                assert pos % 2 == end - 1, (n, end, vid, pos)
                seen[pos] += 1
    assert seen == bytearray([1]) * 2 ** (n - 2), n


class TestCensus:
    def test_vectors_match_edge_degree_multiset(self):
        for n in range(3, 15):
            vectors, groups = census(n)
            assert len(set(vectors)) == len(vectors)
            words = list(product((1, 2), repeat=n - 2))
            for vid, pos in positions_by_vector(groups):
                pairs = reference_multiset(words[pos])
                assert vectors[vid] == tuple(pairs[p] for p in DEGREE_PAIRS), (n, words[pos])

    def test_vector_ids_in_the_order_chains_first_meet_them(self):
        for n in range(3, 15):
            first_met = {}
            for links in product((1, 2), repeat=n - 2):
                pairs = _cached_multiset(links)
                first_met.setdefault(tuple(pairs[p] for p in DEGREE_PAIRS), None)
            assert census(n)[0] == tuple(first_met), n

    def test_two_square_chain(self):
        vectors, groups = census(2)
        pairs = reference_multiset(())
        assert vectors == (tuple(pairs[p] for p in DEGREE_PAIRS),)
        assert [list(column[0]) for column in groups] == [[0], []]

    def test_distinct_vector_counts(self):
        assert len(census(14)[0]) == 98
        assert len(census(16)[0]) == 135

    @pytest.mark.parametrize("f", report_corpus(), ids=lambda f: f"{f.name}-{f.mode}")
    def test_report_equals_per_chain_sweep(self, f):
        for n in range(3, 13):
            assert exhaustive(f, n).to_json() == reference_report(f, n).to_json(), n

    def test_sums_each_distinct_float_vector_once(self, monkeypatch):
        summed = []

        def summing(counts, f):
            summed.append(counts)
            return degree_pair_sum(counts, f)

        monkeypatch.setattr(indices_mod, "degree_pair_sum", summing)
        exhaustive(AZI, 12)
        exhaustive(preset("ga"), 12)
        assert summed == []  # both modes: scaled integers

    def test_float_values_agree_bit_for_bit(self, monkeypatch):
        monkeypatch.setattr(indices_mod, "_pair_counts", _cached_pair_counts)
        tables = [f for f in report_corpus() if f.mode == FLOAT]
        rng = random.Random(9)
        tables.append(IndexFunction("wide", {p: rng.uniform(-1e3, 1e3) for p in DEGREE_PAIRS},
                                    mode=FLOAT))
        for n in range(3, 13):
            vectors, groups = census(n)
            words = list(product((1, 2), repeat=n - 2))
            for f in tables:
                values = [degree_pair_sum(v, f) for v in vectors]
                for vid, pos in positions_by_vector(groups):
                    assert evaluate_direct(words[pos], f) == values[vid], (f.name, words[pos])

    def test_groups_are_the_positions_of_each_vector_and_end(self):
        for n in range(3, 15):
            vectors, groups = census(n)
            assert census(n) is census(n)
            assert_groups_partition(n, vectors, groups, "H")

    def test_four_byte_positions_past_n_18(self):
        n = 19
        vectors, groups = census(n)
        try:
            assert_groups_partition(n, vectors, groups, "I")
            rng = random.Random(19)
            for vid, pos in rng.sample(list(positions_by_vector(groups)), 300):
                assert_reference_vector(n, vectors[vid], pos)
        finally:
            census.cache_clear()  # 2**17 chains: not kept for the tests after this one

    @pytest.mark.parametrize("n", [22, 24])
    def test_seeded_chains_at_the_default_cap(self, n):
        # 300 chains drawn from the groups, and 300 positions each found in
        # the group of its reference vector, the groups holding 2**(n - 2) in all
        vectors, groups = census(n)
        try:
            sizes = [len(group) for column in groups for group in column]
            assert sum(sizes) == 2 ** (n - 2)
            starts = list(accumulate(sizes, initial=0))
            rng = random.Random(n)
            for i in rng.sample(range(2 ** (n - 2)), 300):
                g = bisect_right(starts, i) - 1
                column, vid = divmod(g, len(vectors))
                group = groups[column][vid]
                assert (group.format, group.readonly) == ("I", True)
                assert_reference_vector(n, vectors[vid], group[i - starts[g]])
            for pos in rng.sample(range(2 ** (n - 2)), 300):
                links = [1 + (pos >> k & 1) for k in range(n - 3, -1, -1)]
                pairs = reference_multiset(links)
                group = groups[pos & 1][vectors.index(tuple(pairs[p] for p in DEGREE_PAIRS))]
                assert group[bisect_left(group, pos)] == pos, (n, links)
        finally:
            census.cache_clear()  # 2**22 chains: not kept for the tests after this one

    @pytest.mark.parametrize("f", [AZI, preset("ga"), small_range_tables(5, 1)[0]],
                             ids=lambda f: f"{f.name}-{f.mode}")
    def test_report_equals_per_chain_sweep_past_the_default_corpus(self, f):
        for n in range(13, 16):
            assert exhaustive(f, n).to_json() == reference_report(f, n).to_json(), n

    def test_groups_fit_the_memory_bound(self):
        # the groups take 2 bytes a chain and their read-only views about
        # 320 bytes a non-empty group; the rest (vectors, the prefixes and
        # parts the last group is built from, the arrays' headers and spare
        # room) must stay small beside them
        assert census_peak(18, read=True) <= 5 * 2 ** 16

    def test_census_past_n_18_fits_a_mebibyte(self):
        # no group read: the census keeps a part per frontier and the
        # counts and part of each prefix, far below its groups' 2**22 bytes
        assert census_peak(22) <= 2 ** 20

    # sha256 prefixes of each census's vectors and present ids, and through
    # n = 20 of every group's positions: how the census is built may change,
    # what it holds may not
    DIGESTS = {
        2: "59feaeb534be5500", 3: "2875961cdbb6ac98", 4: "bafc2a015b5910a0",
        5: "7da78ad39b361c48", 6: "947977da1d9286a3", 7: "1e1a8285e2bb27cd",
        8: "96a7417c827c0156", 9: "553e241bf01ab64f", 10: "89e12c3754f07542",
        11: "f2ca990f43dc1d3e", 12: "f65d443e9cd4c15e", 13: "62925cf6a33c4a69",
        14: "56f9bc9334312509", 15: "b1d3379f1a9630b6", 16: "08628a00f03072b1",
        17: "ea54e0abd09c4457", 18: "5a531142db566654", 19: "b5c930039fd9837d",
        20: "2202f0256b064103", 22: "35c2103420898ad3", 24: "24023e8f74730fa2",
    }

    @pytest.mark.parametrize("n", sorted(DIGESTS))
    def test_digest(self, n):
        vectors, groups = census(n)
        try:
            digest = hashlib.sha256(repr((vectors, [column.present for column in groups])).encode())
            if n <= 20:
                for column in groups:
                    for vid in range(len(column)):
                        digest.update(repr(column[vid].tolist()).encode())
            assert digest.hexdigest()[:16] == self.DIGESTS[n]
        finally:
            if n > 18:
                census.cache_clear()  # not kept for the tests after this one

    def test_parts_built_once_per_width_and_b(self, monkeypatch):
        # the census meets n in any order, as a sweep over seeded requests
        # does; each (width, b) builds its state's parts once
        order = [13, 11, 10, 12, *range(5, 10), 14, 3, 4]
        built = []
        real = oracle_mod._part
        monkeypatch.setattr(oracle_mod, "_part", lambda table, state, links: (
            built.append((table, state, links)) or real(table, state, links)))
        census.cache_clear()
        _parts.cache_clear()
        try:
            for n in order:
                census(n)
        finally:
            census.cache_clear()
            _parts.cache_clear()
        pairs = {(_counts_width(n), n - 2 - (n - 2) // 2) for n in order}
        assert len(pairs) == 6
        assert len(built) == len(set(built)) == 5 * len(pairs)
        assert {(table, links) for table, _, links in built} == {
            (_table(width), b) for width, b in pairs}

    @pytest.mark.parametrize("n", range(2, 17))
    def test_each_prefix_replays_the_part_of_its_frontier(self, n):
        # the census replays one part per state of the corner graph's table
        # at every prefix in that state, so a state must stand for the graphs
        # of its words: at every word of n - 2 links (past 12 links, at 4096
        # of them), the state the table walk reaches has the word's frontier,
        # and the walk's counts are the reference graph's
        frontiers = _automaton()[0]
        width = _counts_width(n)
        start, nexts, changes = _table(width)
        level = [((), 0, start)]
        for _ in range(n - 2):
            level = [(word + (e + 1,), nexts[e][state], counts + changes[e][state])
                     for word, state, counts in level for e in (0, 1)]
        if n > 14:
            level = random.Random(n).sample(level, 4096)
        for word, state, counts in level:
            assert frontiers[state] == _graph(bytes(word))[1], word
            pairs = reference_multiset(word)
            assert _unpack(counts, width) == tuple(pairs[p] for p in DEGREE_PAIRS), word

    def test_each_step_reads_only_the_frontier(self):
        # every word of at most 6 links, grown by each link on a copy of its
        # graph where every corner but the last square's sw, se and ne and
        # their neighbours has a bogus degree, gives its state's step in the
        # table: the change and the child's frontier.  The frontier fixes
        # the last step's direction, and so where each link puts the next
        # square: the sw corner has a west neighbour exactly after a step
        # right.  A step reads the frontier alone, so equal frontiers have
        # equal steps, and by induction equal subtrees, for every n
        frontiers, _, steps = _automaton()
        assert len(frontiers) == len(set(frontiers)) == len(steps) == 5
        level, seen, bogus_seen = [((), 0)], set(), 0
        for _ in range(7):
            for word, state in level:
                seen.add(state)
                edges, degree = reference_graph(word)
                (px, _), (x, y) = realize(word)[-2:]
                assert frontier_of(edges, degree, (x, y)) == frontiers[state], word
                assert any(offset == (-1, 0) for offset, _ in frontiers[state][0]) == (x > px), word
                corners = {(x, y), (x + 1, y), (x + 1, y + 1)}
                read = {w for edge in edges if corners & set(edge) for w in edge}
                bogus = Counter({w: d if w in read else 99 for w, d in degree.items()})
                bogus_seen += len(degree) - len(read)
                for link, (child, change) in enumerate(steps[state], 1):
                    right = (x > px) == (link == 1)
                    cell = (x + 1, y) if right else (x, y - 1)
                    assert realize(word + (link,))[-1] == cell
                    new = reference_graph(word + (link,))[0] - edges
                    grown = bogus.copy()
                    grown.update(w for edge in new for w in edge)
                    moved = Counter(pair_of(grown, edge) for edge in edges | new)
                    moved.subtract(pair_of(bogus, edge) for edge in edges)
                    assert {p: m for p, m in moved.items() if m} == {
                        p: m for p, m in zip(DEGREE_PAIRS, change) if m}, (word, link)
                    assert frontier_of(edges | new, grown, cell) == frontiers[child], (word, link)
            level = [(word + (link,), steps[state][link - 1][0])
                     for word, state in level for link in (1, 2)]
        assert seen == set(range(5)) and bogus_seen > 1000

    def test_each_step_adds_the_increment_of_its_links(self):
        # the increments of `indices._increments` as count vectors, read off
        # the six unit tables: the start is the two-square chain's counts,
        # base; from it link 1 adds g11 and link 2 adds g2; every other state
        # is entered by one link type j only, and link e from it adds g(j, e).
        # With the frontier read alone (above), every chain's counts are base
        # plus its increments, so evaluate_direct equals evaluate_recursive
        # on every chain of every length
        units = [IndexFunction("unit", {p: int(p == q) for p in DEGREE_PAIRS})
                 for q in DEGREE_PAIRS]
        g11, g12, g21, g22, g2, base = zip(*map(_increments, units))
        g = {(1, 1): g11, (1, 2): g12, (2, 1): g21, (2, 2): g22}
        _, start, steps = _automaton()
        assert start == base
        assert [change for _, change in steps[0]] == [g11, g2]
        entered = {}  # per state, the links that enter it
        for step in steps:
            for link, (child, _) in enumerate(step, 1):
                entered.setdefault(child, set()).add(link)
        assert sorted(entered) == list(range(1, len(steps)))  # all but the start
        for state in entered:
            (j,) = entered[state]
            assert [change for _, change in steps[state]] == [g[j, 1], g[j, 2]], state

    def test_automaton_reads_each_graph_once(self, monkeypatch):
        # the start and each of the 5 states' 2 children: a child's counts
        # serve as its own when it becomes a state
        real, graphs = _automaton(), []
        monkeypatch.setattr(chains_mod, "_graph", lambda word: (
            graphs.append(word) or _graph(word)))
        _automaton.cache_clear()
        try:
            assert _automaton() == real
        finally:
            monkeypatch.undo()
            _automaton.cache_clear()
        assert len(graphs) == len(set(graphs)) == 11

    def test_a_graph_missing_a_side_changes_the_table_and_the_values(self, monkeypatch):
        # a mutant graph, each square without its east side: the table read
        # off it differs, and evaluate_direct, which walks that table, then
        # misvalues some chain
        real = _automaton()

        def mutant(word):
            edges, degree = reference_graph(word, ("south", "north", "west"))
            pairs = Counter(pair_of(degree, edge) for edge in edges)
            return (tuple(pairs[p] for p in DEGREE_PAIRS),
                    frontier_of(edges, degree, realize(word)[-1]))

        monkeypatch.setattr(chains_mod, "_graph", mutant)
        _automaton.cache_clear()
        _table.cache_clear()
        try:
            assert _automaton() != real
            words = [links for m in range(7) for links in product((1, 2), repeat=m)]
            assert any(evaluate_direct(links, AZI) != degree_pair_sum(_cached_pair_counts(links), AZI)
                       for links in words)
        finally:
            monkeypatch.undo()
            _automaton.cache_clear()
            _table.cache_clear()
        assert _automaton() == real

    @pytest.mark.parametrize("turn", [0.05, 0.5, 0.95])
    def test_edge_degree_multiset_equals_the_reference_graph(self, turn):
        # the forward walk steps the table; words with long straight runs,
        # with even turns and with long zigzags
        rng = random.Random(int(turn * 100))
        for length in (0, 1, 2, 3, 10, 100, 1000, 10**4):
            links = [2 if rng.random() < turn else 1 for _ in range(length)]
            assert dict(edge_degree_multiset(links)) == dict(reference_multiset(links)), length
        # the table's step itself: at every word of at most 9 links, walked
        # on the table, both children's counts are those of the word
        # extended by link 1 and by link 2
        width = _counts_width(12)
        start, nexts, changes = _table(width)
        level = [((), 0, start)]
        for _ in range(10):
            below = []
            for word, state, counts in level:
                assert _unpack(counts, width) == _cached_pair_counts(word), word
                for e in (0, 1):
                    child = (word + (e + 1,), nexts[e][state], counts + changes[e][state])
                    assert _unpack(child[2], width) == _cached_pair_counts(child[0]), child[0]
                    below.append(child)
            level = below

    def test_built_once_per_n(self):
        census.cache_clear()
        for n in range(3, 13):
            assert cross_check(AZI, n)[0]
        assert azi_mod.verify_azi_maximum(12, oracle_n_max=12).ok
        assert azi_mod.verify_azi_minimum(12, oracle_n_max=12).ok
        info = census.cache_info()
        assert (info.misses, info.currsize) == (10, 10)

    def test_independent_of_the_engine(self, monkeypatch):
        tables = (AZI, preset("ga"), small_range_tables(5, 1)[0])
        expected = {(f.name, n): exhaustive(f, n).to_json() for f in tables for n in (3, 9)}

        def refuse(*args, **kwargs):
            raise AssertionError("the oracle must not use the increment recurrence or the DP")

        for mod in (indices_mod, dp_mod, azi_mod, cli_mod):
            for name in ("increment_table", "_increments", "run_dp"):
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, refuse)
        census.cache_clear()
        for f in tables:
            for n in (3, 9):
                assert exhaustive(f, n).to_json() == expected[(f.name, n)]


def seeded_wide_table(seed):
    rng = random.Random(seed)
    return IndexFunction(f"wide{seed}", {p: Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
                                         for p in DEGREE_PAIRS})


COPRIME_PRIMES = (1000003, 1000033, 1000037, 1000039, 1000081, 1000099)
SCALING_TABLES = (
    IndexFunction("coprime", {p: Fraction((-1) ** j * (q // 7 + j), q)
                              for j, (p, q) in enumerate(zip(DEGREE_PAIRS, COPRIME_PRIMES))}),
    IndexFunction("signed", dict(zip(DEGREE_PAIRS, map(Fraction, ("-3/4", "0", "5/2", "-1", "0", "7/3"))))),
    IndexFunction("integer", dict(zip(DEGREE_PAIRS, map(Fraction, (3, -1, 4, 1, -5, 9))))),
    IndexFunction("constant", {p: Fraction(7, 3) for p in DEGREE_PAIRS}),
    seeded_wide_table(12),
    seeded_wide_table(13),
)


class TestScaledIntegers:
    def test_coprime_denominators_scale_past_64_bits(self):
        assert math.lcm(*(v.denominator for v in SCALING_TABLES[0].values.values())) > 2**64

    @pytest.mark.parametrize("f", SCALING_TABLES, ids=lambda f: f.name)
    def test_report_equals_per_chain_sweep(self, f):
        for n in range(3, 13):
            assert exhaustive(f, n).to_json() == reference_report(f, n).to_json(), n

    def test_constant_index_ties_every_chain(self):
        for n in range(3, 13):
            rep = exhaustive(SCALING_TABLES[3], n)
            words = [c.links for c in rep.argmax]
            assert words == list(product((1, 2), repeat=n - 2))
            assert [c.links for c in rep.argmin] == words
            assert rep.max_value == rep.min_value == Fraction(7, 3) * (3 * n + 1)
            for end in (1, 2):
                assert [c.links for c in rep.per_end_argmax[end]] == [w for w in words if w[-1] == end]


class TestTieWindow:
    """`exhaustive` tests `IndexFunction.ties` only on the values an exact
    bound leaves in a window around the extreme: each extreme's tie set
    must be the full scan's."""

    def test_window_equals_the_full_scan(self):
        rng = random.Random(27)
        tables = [IndexFunction("q", dict(zip(DEGREE_PAIRS, map(Fraction, (1, 2, 3, 4, 5, 6)))))]
        for eps in (1e-9, 0.01, 0.25, 0.5, 0.9, 1.0, 1.5, 3.0):
            tables.append(IndexFunction(f"eps{eps}", {p: rng.uniform(-5, 5) for p in DEGREE_PAIRS},
                                        mode=FLOAT, eps=eps))
        for f in tables:
            den = f.den
            for _ in range(40):
                best = rng.choice((-1, 1)) * rng.randrange(4 * den)
                spread = rng.choice((1, den, abs(best) + 1))
                values = [best + rng.randrange(-3 * spread, 3 * spread + 1) for _ in range(60)]
                values += [best, best + 1, best - 1, 2 * best, -best]
                order = sorted(range(len(values)), key=values.__getitem__)
                got = _tying(f, values, order, best)
                assert len(got) == len(set(got)), f.name
                want = {vid for vid, a in enumerate(values) if f.ties(a, best)}
                assert set(got) == want, (f.name, best)

    @pytest.mark.parametrize("eps, times", [(0.5, 1), (0.25, 3)])
    def test_value_on_the_window_edge(self, eps, times):
        # eps = 1/2 (1/4): a = 2b (4b/3) ties b exactly, |a - b| * q = p * |a|,
        # and sits on the window's edge p * max(den, |b|) // (q - p); a past it does not
        f = IndexFunction("edge", {p: 1.0 + j / 8 for j, p in enumerate(DEGREE_PAIRS)},
                          mode=FLOAT, eps=eps)
        (p, q), den = f.tol, f.den
        for sign in (1, -1):
            best = sign * times * 5 * den
            edge = best + sign * (p * max(den, abs(best)) // (q - p))
            assert abs(edge - best) * q == p * abs(edge) and f.ties(edge, best)
            past = edge + sign
            assert not f.ties(past, best)
            values = [past, edge, best, best - sign, edge - sign, 3 * best, -best]
            order = sorted(range(len(values)), key=values.__getitem__)
            got = _tying(f, values, order, best)
            assert sorted(got) == [vid for vid, a in enumerate(values) if f.ties(a, best)]
            assert 1 in got and 0 not in got, (eps, sign)

    @pytest.mark.parametrize("eps", [0.9, 1.0, 1.5, 3.0])
    def test_report_equals_per_chain_sweep(self, eps):
        rng = random.Random(28)
        for t in range(2):
            f = IndexFunction(f"mixed{t}", {p: rng.uniform(-3, 3) for p in DEGREE_PAIRS},
                              mode=FLOAT, eps=eps)
            for g in (f, negate(f)):
                for n in range(3, 12):
                    assert exhaustive(g, n).to_json() == reference_report(g, n).to_json(), (t, n)
