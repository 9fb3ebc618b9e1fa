"""Transition counts: a chain's degree-pair counts from four integers of
its word, and the words of one n grouped by those integers.

Take a chain of n >= 3 squares, a word of L = n - 2 links.  Let R be its
number of runs (maximal blocks of equal links), N1 its number of
1-links and e the number of its two end links that are 2-links.  A link
glued after another adds a change of counts that depends on the two
links alone, so the counts are the two-square chain's plus the first
link's change plus a sum over the word's transitions, and those
transitions are counted by n, e, R and N1: every count is affine in
them.  `formula` holds those six affine maps.  Their coefficients are
solved exactly from the counts `chains.edge_degree_multiset` gives a
few short words, never written by hand and never taken from the
increments of `indices`.

The words with first link a, last link b, R runs and N1 1-links form a
cell.  a and R fix the number of 1-runs r1 and of 2-runs r2, and the
cell holds C(N1 - 1, r1 - 1) * C(L - N1 - 1, r2 - 1) words, the
compositions of each link count into its runs (A. M. Mood, "The
distribution theory of runs", 1940; R. P. Stanley, Enumerative
Combinatorics 1, section 1.2).
"""

import functools
from fractions import Fraction
from math import comb

from polychain.chains import edge_degree_multiset
from polychain.indices import DEGREE_PAIRS

# words whose (1, n, e, R, N1) are linearly independent
_BASIS = ((1,), (2,), (1, 1), (1, 2), (2, 2))


def runs(links) -> tuple[int, int, int, int]:
    """(n, e, R, N1) of a word of at least one link."""
    word = bytes(links)
    e = (word[0] == 2) + (word[-1] == 2)
    return len(word) + 2, e, 1 + sum(a != b for a, b in zip(word, word[1:])), word.count(1)


def _solve(rows, rhs):
    """x with rows @ x == rhs, exactly, for a square invertible `rows`,
    each entry of x a row like those of `rhs`."""
    m = [[Fraction(v) for v in (*row, *out)] for row, out in zip(rows, rhs)]
    size = len(m)
    for i in range(size):
        pivot = next(r for r in range(i, size) if m[r][i])
        m[i], m[pivot] = m[pivot], m[i]
        m[i] = [v / m[i][i] for v in m[i]]
        for r in range(size):
            if r != i:
                m[r] = [v - m[r][i] * w for v, w in zip(m[r], m[i])]
    return [row[size:] for row in m]


@functools.cache
def coefficients() -> tuple[tuple[Fraction, ...], ...]:
    """Per count, in `DEGREE_PAIRS` order, its coefficients of 1, n, e, R
    and N1, solved from the graphs of the `_BASIS` words."""
    counts = [[edge_degree_multiset(w)[p] for p in DEGREE_PAIRS] for w in _BASIS]
    return tuple(zip(*_solve([(1, *runs(w)) for w in _BASIS], counts)))


def formula(n: int, e: int, R: int, N1: int) -> tuple[int, ...]:
    """The degree-pair counts, in `DEGREE_PAIRS` order, of every chain of
    n squares with e 2-links at its ends, R runs and N1 1-links."""
    counts = [c0 + cn * n + ce * e + cr * R + c1 * N1 for c0, cn, ce, cr, c1 in coefficients()]
    assert all(c.denominator == 1 for c in counts), (n, e, R, N1)
    return tuple(map(int, counts))


def _compositions(total: int, parts: int) -> int:
    """The ways to write total as an ordered sum of `parts` positive ints."""
    return comb(total - 1, parts - 1) if parts else int(total == 0)


def cells(n: int) -> dict[tuple[int, int, int, int], int]:
    """The nonempty cells of the words of n >= 3 squares: per (first link,
    last link, R, N1), its number of words."""
    links = n - 2
    sizes = {}
    for a in (1, 2):
        for R in range(1, links + 1):
            lead, other = (R + 1) // 2, R // 2  # runs of a's type and of the other
            r1, r2 = (lead, other) if a == 1 else (other, lead)
            b = a if R % 2 else 3 - a
            for N1 in range(r1, links - r2 + 1):
                size = _compositions(N1, r1) * _compositions(links - N1, r2)
                if size:
                    sizes[a, b, R, N1] = size
    return sizes
