"""Structural tests for link vectors, realization, segments and families."""

import operator
import random
from itertools import product

import pytest

from polychain.chains import (
    LinkVector,
    az1_chain,
    az2_family,
    canonical_reversal,
    edge_degree_multiset,
    linear_chain,
    realize,
    segments,
    zigzag_chain,
)
from reference_graph import assert_checked_word, reference_multiset


def all_chains(n):
    return product((1, 2), repeat=n - 2)


class TestLinkVector:
    def test_validation(self):
        with pytest.raises(ValueError, match="invalid link"):
            LinkVector([1, 3])
        with pytest.raises(ValueError, match="invalid link"):
            LinkVector([0])

    def test_square_count(self):
        assert LinkVector().square_count == 2
        assert LinkVector([1, 2, 2, 1]).square_count == 6

    def test_link_at_uses_square_numbering(self):
        c = LinkVector([1, 2, 2, 1])
        assert c.link_at(3) == 1
        assert c.link_at(4) == 2
        assert c.link_at(6) == 1
        with pytest.raises(IndexError):
            c.link_at(2)
        with pytest.raises(IndexError):
            c.link_at(7)

    def test_string_round_trip(self):
        for text in ("", "1", "1,2,2,1", " 1 , 2 "):
            c = LinkVector.from_string(text)
            assert LinkVector.from_string(c.to_string()) == c
        assert LinkVector.from_string("1,2,2,1").links == (1, 2, 2, 1)
        # links equal to 1 or 2 but of another type still print as the word
        assert LinkVector([1.0, True, 2.0]).to_string() == "1,1,2"

    def test_from_string_rejects_garbage(self):
        for text in ("1,3", "a", "1,,2", "12"):
            with pytest.raises(ValueError, match="invalid link"):
                LinkVector.from_string(text)

    def test_from_string_follows_the_token_rule(self):
        def by_tokens(text):
            """Strip, split at commas, strip each token: "1" or "2" or an error."""
            text = text.strip()
            if not text:
                return ()
            out = []
            for tok in text.split(","):
                tok = tok.strip()
                if tok not in ("1", "2"):
                    raise ValueError(f"invalid link {tok!r}: links must be 1 or 2")
                out.append(int(tok))
            return tuple(out)

        def outcome(parse, text):
            try:
                return tuple(parse(text))
            except ValueError as exc:
                return str(exc)

        rng = random.Random(62)
        texts = ["1,,2", "1,3", " 1 , 2 ", "", "12", ",", "1,", "1 2", "1\t,\n2",
                 "\xa01,2", "\ud800"]
        for _ in range(3):
            tokens = [rng.choice("12") for _ in range(10**5)]
            texts.append(",".join(tokens))
            texts.append(" , ".join(tokens))
            tokens[rng.randrange(len(tokens))] = rng.choice(["3", "", "1 2", "x"])
            texts.append(",".join(tokens))
        for text in texts:
            want = outcome(by_tokens, text)
            assert outcome(lambda t: LinkVector.from_string(t).links, text) == want, text[:20]

    def test_equality_and_hash(self):
        assert LinkVector([1, 2]) == LinkVector((1, 2))
        assert len({LinkVector([1, 2]), LinkVector([1, 2]), LinkVector([2, 1])}) == 2

    def test_reverse(self):
        assert LinkVector([1, 2, 2]).reverse() == LinkVector([2, 2, 1])


class TestByteWord:
    """A LinkVector keeps its word as bytes and reads like a tuple of ints."""

    def test_every_source_gives_one_vector(self):
        word = (1, 2, 2, 1, 1)
        vectors = [
            LinkVector(b"\1\2\2\1\1"),
            LinkVector(bytearray(word)),
            LinkVector(word),
            LinkVector(list(word)),
            LinkVector(x for x in word),
            LinkVector(iter(word)),
            LinkVector.from_string("1,2,2,1,1"),
        ]
        for v in vectors:
            assert v == vectors[0] and hash(v) == hash(vectors[0])
            assert v.links == word

    def test_reads_as_tuples_of_ints(self):
        c = LinkVector(bytearray((1, 2, 2, 1)))
        assert type(c.links) is tuple and c.links == (1, 2, 2, 1)
        assert c[1:3] == (2, 2) and type(c[::-1]) is tuple
        assert c[0] == 1 and c[-1] == 1 and list(c) == [1, 2, 2, 1]
        assert LinkVector().links == () and LinkVector()[:] == ()

    def test_bytes_outside_the_alphabet_refused(self):
        for word in (b"\0", b"\3", b"12", b"\1\2\0", bytearray(b"\x02\xff")):
            with pytest.raises(ValueError, match="invalid link"):
                LinkVector(word)
        for links in ([1, 256], [2, -1], [1, "2"], [1, None], [[1]], "12"):
            with pytest.raises(ValueError, match="invalid link"):
                LinkVector(links)

    def test_links_of_another_type_become_ints(self):
        # announced change: these links read back as ints, not as the input objects
        links = LinkVector([1.0, True, 2.0]).links
        assert links == (1, 1, 2) and all(type(x) is int for x in links)
        assert LinkVector(x / 1 for x in (2, 1)).links == (2, 1)

    def test_order_against_another_type_refused(self):
        # like ==, each order leaves a non-LinkVector to Python, which raises TypeError
        v = LinkVector((1,))
        for other in (5, (1,), b"\1", None):
            for op in (operator.lt, operator.le, operator.gt, operator.ge):
                with pytest.raises(TypeError):
                    op(v, other)
                with pytest.raises(TypeError):
                    op(other, v)
        with pytest.raises(TypeError):
            LinkVector((1,)) <= 5

    def test_all_four_orders_follow_the_bytes_word(self):
        words = [bytes(w) for n in range(2, 7) for w in all_chains(n)]
        for a in words:
            for b in words:
                u, v = LinkVector(a), LinkVector(b)
                assert ((u < v), (u <= v), (u > v), (u >= v)) == (a < b, a <= b, a > b, a >= b)

    def test_order_and_mirror_match_tuples(self):
        words = [w for n in range(2, 13) for w in all_chains(n)]
        vectors = [LinkVector(w) for w in words]
        assert [v.links for v in sorted(vectors)] == sorted(words)
        for w, v in zip(words, vectors):
            assert canonical_reversal(v).links == min(w, w[::-1])
            assert v.reverse().links == w[::-1]


class TestUncheckedWords:
    """Reversals, families and parsed strings are kept without a second
    check: each must be what the checked constructor would build."""

    def test_reversals(self):
        for n in range(2, 13):
            for w in all_chains(n):
                v = LinkVector(w)
                for got, want in ((v.reverse(), w[::-1]), (canonical_reversal(v), min(w, w[::-1])),
                                  (canonical_reversal(w), min(w, w[::-1]))):
                    assert_checked_word(got)
                    assert got.links == want

    def test_families(self):
        for n in range(2, 41):
            for got, link in ((linear_chain(n), 1), (zigzag_chain(n), 2)):
                assert_checked_word(got)
                assert got.links == (link,) * (n - 2)
        for m in range(2, 21):
            assert_checked_word(az1_chain(m))
        for m in range(3, 21):
            for i, got in enumerate(az2_family(m), start=1):
                assert_checked_word(got)
                assert got.links == (1, 2) * i + (2, 1) * (m - 1 - i)

    def test_from_string_round_trips(self):
        rng = random.Random(63)
        words = [w for n in range(2, 10) for w in all_chains(n)]
        words += [tuple(rng.choice((1, 2)) for _ in range(10**5)) for _ in range(2)]
        for w in words:
            for text in (",".join(map(str, w)), " , ".join(map(str, w))):
                got = LinkVector.from_string(text)
                assert_checked_word(got)
                assert got.links == w and got.to_string() == ",".join(map(str, w))


class TestRealize:
    def test_two_square_base(self):
        assert realize([]) == ((0, 0), (1, 0))

    def test_straight_chain_stays_on_row(self):
        assert realize([1, 1]) == ((0, 0), (1, 0), (2, 0), (3, 0))

    def test_turns_alternate_right_and_down(self):
        assert realize([1, 2, 2, 1]) == ((0, 0), (1, 0), (2, 0), (2, -1), (3, -1), (4, -1))

    def test_cells_distinct_exhaustively(self):
        for n in range(2, 11):
            for links in all_chains(n):
                cells = realize(links)
                assert len(set(cells)) == len(cells) == n

    def test_steps_are_right_or_down(self):
        for links in all_chains(9):
            cells = realize(links)
            for (x0, y0), (x1, y1) in zip(cells, cells[1:]):
                assert (x1 - x0, y1 - y0) in ((1, 0), (0, -1))


class TestEdgeDegreeMultiset:
    def test_domino(self):
        assert dict(edge_degree_multiset([])) == {(2, 2): 2, (2, 3): 4, (3, 3): 1}

    def test_three_square_row(self):
        assert dict(edge_degree_multiset([1])) == {(2, 2): 2, (2, 3): 4, (3, 3): 4}

    def test_edge_count_and_degree_domain(self):
        for n in range(2, 10):
            for links in all_chains(n):
                counts = edge_degree_multiset(links)
                assert sum(counts.values()) == 3 * n + 1
                for a, b in counts:
                    assert a <= b and a in (2, 3, 4) and b in (2, 3, 4)

    def test_reversal_gives_same_multiset(self):
        rng = random.Random(7)
        for _ in range(50):
            links = [rng.choice((1, 2)) for _ in range(rng.randrange(0, 14))]
            assert edge_degree_multiset(links) == edge_degree_multiset(links[::-1])

    def test_equals_reference_on_every_small_chain(self):
        for n in range(2, 15):
            for links in all_chains(n):
                assert dict(edge_degree_multiset(links)) == dict(reference_multiset(links)), links

    @pytest.mark.parametrize("length", [10**2, 10**3, 10**4])
    def test_equals_reference_on_long_chains(self, length):
        rng = random.Random(length)
        for _ in range(5):
            links = [rng.choice((1, 2)) for _ in range(length)]
            assert dict(edge_degree_multiset(links)) == dict(reference_multiset(links))


class TestSegments:
    def test_single_segment(self):
        assert segments([1, 1]) == (4,)
        assert segments([]) == (2,)

    def test_known_decompositions(self):
        assert segments([1, 2, 1]) == (3, 3)
        assert segments([1, 2, 2, 1]) == (3, 2, 3)
        assert segments(zigzag_chain(6)) == (2, 2, 2, 2, 2)

    def test_length_sum_invariant(self):
        for n in range(2, 11):
            for links in all_chains(n):
                lengths = segments(links)
                m = len(lengths)
                assert m == 1 + sum(1 for x in links if x == 2)
                assert sum(lengths) == n + m - 1
                assert all(l >= 2 for l in lengths)


class TestFamilies:
    def test_linear_and_zigzag(self):
        assert linear_chain(5) == LinkVector([1, 1, 1])
        assert zigzag_chain(4) == LinkVector([2, 2])
        assert linear_chain(2) == zigzag_chain(2) == LinkVector()
        for bad in (1, 0, -2):
            with pytest.raises(ValueError):
                linear_chain(bad)
            with pytest.raises(ValueError):
                zigzag_chain(bad)

    def test_az1_words(self):
        assert az1_chain(2) == LinkVector([1, 2, 1])
        assert az1_chain(3) == LinkVector([1, 2, 1, 2, 1])
        with pytest.raises(ValueError):
            az1_chain(1)

    def test_az1_segments_all_three(self):
        for m in range(2, 12):
            c = az1_chain(m)
            assert c.square_count == 2 * m + 1
            assert segments(c) == (3,) * m

    def test_az2_known_families(self):
        assert [list(c) for c in az2_family(4)] == [[1, 2, 2, 1, 2, 1], [1, 2, 1, 2, 2, 1]]
        assert [list(c) for c in az2_family(3)] == [[1, 2, 2, 1]]
        with pytest.raises(ValueError):
            az2_family(2)

    def test_az2_segment_shape(self):
        for m in range(3, 12):
            family = az2_family(m)
            assert len(family) == m - 2
            for c in family:
                assert c.square_count == 2 * m
                lengths = segments(c)
                assert len(lengths) == m
                assert sorted(lengths) == [2] + [3] * (m - 1)
                short_at = lengths.index(2)
                assert 0 < short_at < m - 1  # internal segment


class TestCanonicalReversal:
    def test_picks_lexicographic_minimum(self):
        assert canonical_reversal([1, 2, 2, 1, 2, 1]) == LinkVector([1, 2, 1, 2, 2, 1])
        assert canonical_reversal([1, 2, 1]) == LinkVector([1, 2, 1])

    def test_idempotent_and_reversal_invariant(self):
        rng = random.Random(11)
        for _ in range(200):
            links = [rng.choice((1, 2)) for _ in range(rng.randrange(0, 16))]
            canon = canonical_reversal(links)
            assert canonical_reversal(canon) == canon
            assert canonical_reversal(links[::-1]) == canon

    def test_az2_mirror_class_count(self):
        for m in range(3, 14):
            classes = {canonical_reversal(c) for c in az2_family(m)}
            n = 2 * m
            assert len(classes) == (n - 1) // 4  # == ceil(n/4 - 1)
