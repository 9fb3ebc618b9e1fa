"""Transition counts against the corner graph and the oracle's census:
the affine formula in (n, e, R, N1) and the cells of `reference_runs`."""

import random
from collections import Counter
from itertools import product

import pytest

from polychain.chains import edge_degree_multiset
from polychain.indices import DEGREE_PAIRS
from polychain.oracle import census
from reference_runs import cells, formula, runs


def counts_of(links):
    pairs = edge_degree_multiset(links)
    return tuple(pairs[p] for p in DEGREE_PAIRS)


class TestFormula:
    def test_equals_edge_degree_multiset_on_every_small_word(self):
        for n in range(3, 15):
            for links in product((1, 2), repeat=n - 2):
                assert formula(*runs(links)) == counts_of(links), links

    @pytest.mark.parametrize("turn", [0.05, 0.5, 0.95])
    def test_equals_edge_degree_multiset_on_long_words(self, turn):
        # words with long straight runs, with even turns and with long zigzags
        rng = random.Random(int(turn * 100) + 1)
        for length in (1, 2, 3, 10, 100, 1000, 10**4):
            links = [2 if rng.random() < turn else 1 for _ in range(length)]
            assert formula(*runs(links)) == counts_of(links), length


class TestCells:
    def test_cells_hold_every_word_once(self):
        for n in range(3, 15):
            sizes = cells(n)
            assert sum(sizes.values()) == 2 ** (n - 2)
            assert sizes == Counter((links[0], links[-1], *runs(links)[2:])
                                    for links in product((1, 2), repeat=n - 2)), n

    def test_triples_map_one_to_one_onto_the_census_vectors(self):
        for n in range(3, 19):
            triples = {((a == 2) + (b == 2), R, N1) for a, b, R, N1 in cells(n)}
            vectors = {formula(n, *triple) for triple in triples}
            assert len(vectors) == len(triples), n
            assert vectors == set(census(n)[0]), n

    def test_cell_sizes_sum_to_the_group_sizes(self):
        # per vector and last link, the sizes of the cells with that vector
        # and last link; every group is read, so the census is let go after
        try:
            for n in range(3, 19):
                vectors, groups = census(n)
                want = Counter()
                for (a, b, R, N1), size in cells(n).items():
                    want[formula(n, (a == 2) + (b == 2), R, N1), b] += size
                got = {(vector, end): len(column[vid]) for end, column in enumerate(groups, 1)
                       for vid, vector in enumerate(vectors) if len(column[vid])}
                assert got == want, n
        finally:
            census.cache_clear()
