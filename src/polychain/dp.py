"""Extremal polyomino chains by dynamic programming.

For an index f, let best(k, i) be the maximum index value over all
chains with k squares whose last link has type i.  Because each
attachment increment depends only on the previous link, best satisfies

    best(k, i) = max_j { best(k-1, j) + g(j, i) },    k >= 4,

with base best(3, i) fixed by the first attachment.  One forward pass
therefore yields the optimum for every square count up to n at O(1)
arithmetic per step; recording which predecessors attain each maximum
turns the table into a DAG whose source-to-sink paths are exactly the
optimal chains, so witnesses, chain counts and full enumeration all come
out of the same pass.  The count up to mirror symmetry, |S| - (B - P)/2
for the optimal words S, the words B of S whose reverse is in S and the
palindromes P of S, comes from one walk over the same DAG that moves
inward from both ends of the word, a powered map per stretch where both
ends stay in one segment of the table (below).  Minimization is
maximization of the negated index.

Both arithmetic modes run one forward loop on the ints of the index's
scaled form, and the number model lives in `indices`: the increments
are ints over `IndexFunction.den` (`indices._increments`), the two
candidates a = best(k-1, 1) + g(1, i) and b = best(k-1, 2) + g(2, i) of
end i tie by `IndexFunction.ties` (`values_equal`'s rule, decided on the
exact sums), and a value is read back by `IndexFunction.read`, a float
one as the exact optimum correctly rounded.  Without a tie the larger
candidate wins, and a tie stores the larger one.  Anything tie-derived
in float mode (counts, enumeration) is tolerance-dependent.

The loop jumps every steady run.  Once the last four rows repeat their
decisions (each end's code and the side a tie keeps) with period 1 or 2
and each end's rise over two rows has repeated, rows k - 2 + 2b and
k - 1 + 2b are affine in b for as long as the decisions repeat.  A
decision then compares two affine sums, and as max(|a|, |b|) is
|a + b| / 2 + |a - b| / 2, its tie test is an `or` of two linear
inequalities wherever a - b and a + b keep their signs.  So a decision
can change only where one of a few lines crosses zero, one ceiling
division each; the loop evaluates the decisions there, jumps to the row
before the first change, and steps that row.  Max-plus cyclicity makes
every rational table end in such a run with period 1 or 2 that reaches
n; its transient is a few runs, a drift run (codes (1, 2), d = m1 - m2
moving by a fixed step a row) being jumped like any other.  A float run
can also end where the tolerance, growing with the values, overtakes a
fixed margin.

The table is the list of these stepped rows and runs, one segment each
(`DPTable`): decisions and values only.  A run is read back from its two
base rows, their rises and its two rows' codes.  Chain counts are carried
only when read, and from the row before the first tie row, as each
count below it is 1, read in O(1).  A carry is the codes' linear map
c -> c1 / c2 / c1 + c2 of each end, a 2x2 integer matrix m raised to a
power by Cayley-Hamilton: m**e is a*m + b*I, so a doubling of e costs
three big products of the pair (a, b) and a set bit linear work.  The
mirror count's walk powers its maps alike.  So a table keeps every row
3..n at O(runs) Python steps, segments and small-int steps; a row's
values are read in O(log runs) steps, its counts and `iso_count` in
O(runs log k) big-int steps, or O(1) a row when rows are read in order
past the transient.  A chain of `witness` or `chains` takes O(runs +
ties) Python steps, whatever k is, and one k-byte write: a run is walked
six rows deep and its repeated stretch listed as pieces, which one join
writes into the word.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from collections.abc import Iterator
from typing import NamedTuple

from .chains import LinkVector
from .indices import FLOAT, IndexFunction, Value, _increments, check_finite, negate

__all__ = [
    "DPTable",
    "ExtremalResult",
    "ClassifierVerdict",
    "CASE_LINEAR_ALWAYS",
    "CASE_LINEAR_FROM_4",
    "CASE_ZIGZAG_THEN_LINEAR",
    "CASE_NOT_APPLICABLE",
    "run_dp",
    "maximize",
    "minimize",
    "enumerate_maximal",
    "classify",
]

MAX = "max"
MIN = "min"

_PRED_SETS = (frozenset(), frozenset((1,)), frozenset((2,)), frozenset((1, 2)))
# an end's chain count as a row over the counts (c1, c2) of the row before, by its
# code; row 3's code 0 is never carried, its counts (1, 1) being where carries start
_COUNT_ROWS = (None, (1, 0), (0, 1), (1, 1))
_FLAT = (0, 0)  # the rise of a one-row segment
_LINKS = (None, b"\1", b"\2")  # a link as a one-byte word piece
_CHUNK = 1024  # the blocks of 4 links one repeated piece of a long run holds


class DPTable:
    """Forward-pass results for square counts 3..n under one index.

    The table is one list of segments sorted by first row: each row the
    forward pass stepped, row 3 included, is a one-row segment, and each
    run it jumped is one segment.  A segment (lo, hi, phases) holds its
    first and last rows and phases[r % 2] = (row, values, rise, codes)
    for its rows r of one parity.  Row r's two optimum values, integers
    over one common denominator, are `values` (those of the base row
    `row`) plus (r - row) / 2 times `rise`, and codes[:2] are its two
    predecessor codes (1 or 2, 3 for a tie, 0 at row 3): the DAG that
    `witness` and `chains` walk backwards.  `_row` is the one read rule,
    checking its input, and the private readers it feeds check nothing.
    Only `_count` carries chain counts, a powered count map a segment,
    from the last row read when that lies below, else from the row
    before `_tie`, the first row with a tie code (n + 1 for none), so
    reading rows in order costs O(1) big-int steps a row.  A row below
    `_tie` has counts (1, 1).  `steps` counts the rows the forward pass
    stepped one at a time.
    """

    def __init__(self, f, n, segments, steps, period, tie):
        self.f = f
        self.n = n
        self.steps = steps  # rows the forward pass stepped one at a time
        self._segments = segments
        self._starts = [seg[0] for seg in segments]
        self._tie = tie  # the first row with a tie code at either end, n + 1 for none
        self._count_at = (tie - 1, (1, 1))  # the last row counts were carried to, and those
        self._mirror = [None, None]  # per parity of k: the last (k, ends, v) of `iso_count`
        self._period = period

    @property
    def period(self) -> tuple[int, int] | None:
        """(T, c): d = m1 - m2 at row T + 1 equals d at row T - 1, for
        the first such T below n - 1, and c is 1 when d at row T equals
        them too; None when d does not repeat that early.  In rational
        mode each row from T on then equals the row c before it with both
        values raised by the same amount and the same predecessor codes.
        In float mode that holds for as long as the tolerance decides
        each pair of sums as it did; a decision can still change later,
        where eps * max(1, |a|, |b|) grows past a fixed margin a - b."""
        return self._period

    def _check_k(self, k: int) -> None:
        if not 3 <= k <= self.n:
            raise ValueError(f"square count {k} outside table range 3..{self.n}")

    @staticmethod
    def _check_end(i: int) -> None:
        if i not in (1, 2):
            raise ValueError(f"end link must be 1 or 2, got {i!r}")

    def _phase(self, k: int) -> tuple:
        """Row k's phase (row, values, rise, codes) of its segment: one bisection."""
        return self._segments[bisect_right(self._starts, k) - 1][2][k % 2]

    def value(self, k: int, i: int) -> Value:
        """Optimum over k-square chains ending with link i."""
        return self.f.read(self._row(k, i)[2][i - 1])

    def _count(self, k: int, i: int) -> int:
        """Optimal k-square chains ending with link i: 1 below the first
        tie row, where each code names one predecessor, with no carry."""
        if k < self._tie:
            return 1
        row, counts = self._count_at
        if row > k:
            row, counts = self._tie - 1, (1, 1)
        if row < k:
            segs, at = self._segments, bisect_right(self._starts, k) - 1
            if row < segs[at][0]:
                for seg in segs[bisect_right(self._starts, row + 1) - 1:at]:
                    counts, row = _carry(seg, row, counts, seg[1]), seg[1]
            counts = _carry(segs[at], row, counts, k)
        self._count_at = (k, counts)
        return counts[i - 1]

    def predecessors(self, k: int, i: int) -> frozenset[int]:
        self._check_k(k)
        self._check_end(i)
        return _PRED_SETS[self._phase(k)[3][i - 1]]

    def _row(self, k: int | None, end: int | None = None) -> tuple[int, tuple[int, ...], tuple]:
        """k (n for None), checked; the ends a read takes, `end` checked, else
        the winning ends, both on a tie under f; and both ends' optima times
        the common denominator, read off one phase."""
        k = self.n if k is None else k
        self._check_k(k)
        row, vals, rise, _ = self._phase(k)
        b = (k - row) // 2
        raws = (vals[0] + b * rise[0], vals[1] + b * rise[1])
        if end is not None:
            self._check_end(end)
            return k, (end,), raws
        a, b = raws
        return k, ((1, 2) if self.f.ties(a, b) else (1,) if a > b else (2,)), raws

    def best_value(self, k: int | None = None) -> Value:
        _, ends, raws = self._row(k)
        return self.f.read(raws[ends[0] - 1])

    def labeled_count(self, k: int | None = None, end: int | None = None) -> int:
        """Number of distinct optimal chains (summed over the winning ends)."""
        k, ends, _ = self._row(k, end)
        return sum(self._count(k, e) for e in ends)

    def witness(self, k: int | None = None, end: int | None = None) -> LinkVector:
        """One optimal chain, built backwards preferring link 1 on ties: the first of `chains`."""
        k, ends, _ = self._row(k, end)
        return LinkVector._of(next(self._words(k, ends[0])))

    def _words(self, k: int, end: int) -> Iterator[bytes]:
        """The optimal words of k squares ending in link `end`, one byte
        per link, depth-first: link 1 first at each tie, the lowest tie
        reopened first.  A descent lists the word's pieces from square k
        down, segment by segment, taking link 1 at each tie and keeping
        its ties pending as (low, high, mask): the rows of low..high whose
        residue mod 4 is in mask.  Reopening the lowest pending row r
        keeps squares r..k of the word before as one view, gives square
        r - 1 link 2 and descends from there.  Each word is one join of
        its pieces, O(segments + ties) of them, whatever k is."""
        if k - 2 > sys.maxsize:
            raise ValueError(f"a chain of {k} squares is too long to build: "
                             f"its {k - 2} links exceed sys.maxsize = {sys.maxsize}")
        segs, starts = self._segments, self._starts
        pieces = [_LINKS[end]]  # squares j .. k, the top one first
        cur, j = end, k  # squares j .. k are fixed, cur the link of square j
        pending = []  # the lowest rows last
        while True:
            for lo, hi, phases in reversed(segs[1:bisect_right(starts, j)]):
                if lo == hi:  # one row
                    code = phases[lo & 1][3][cur - 1]
                    cur = 2 if code == 2 else 1
                    pieces.append(_LINKS[cur])  # square lo - 1
                    if code == 3:
                        pending.append((lo, lo, 15))
                    continue
                # In rows lo..top a row's codes depend on its parity alone, so the
                # walk's state (link, row parity) moves by one map that flips the
                # parity.  Two steps of it map {1, 2} into itself, so the states
                # repeat with a period dividing 4 from the second step on: after
                # six steps the last four links repeat down to square lo - 1, and
                # so do the ties of rows lo .. top - 2.
                top, mask = j if j < hi else hi, 0
                stop = top - 6 if top >= lo + 6 else lo - 1
                for j in range(top, stop, -1):
                    code = phases[j & 1][3][cur - 1]
                    cur = 2 if code == 2 else 1  # codes 1 and 3 take link 1
                    pieces.append(_LINKS[cur])  # square j - 1
                    if code == 3:
                        if j < top - 1:
                            mask |= 1 << (j & 3)
                        else:
                            pending.append((j, j, 15))
                if stop >= lo:
                    # squares top - 6 .. top - 3 repeat down to square lo - 1: the
                    # stretch below them, lo - 1 .. top - 7, is whole blocks of
                    # them ending at square top - 7 and a head of the block's tail
                    block = b"".join(pieces[-1:-5:-1])
                    blocks, head = divmod(top - lo - 5, 4)
                    reps, rest = divmod(blocks, _CHUNK)
                    pieces.append(block * rest)
                    if reps:
                        pieces += [block * _CHUNK] * reps
                    pieces.append(block[4 - head:])
                    cur = block[-head % 4]  # square lo - 1
                if mask:
                    pending.append((lo, top - 2, mask))
                j = lo - 1
            pieces.reverse()
            word = b"".join(pieces)
            yield word
            while pending:
                low, high, mask = pending.pop()
                m = (mask | mask << 4) >> (low & 3) & 15  # bit d: row low + d ties
                r = low + (m & -m).bit_length() - 1
                if r <= high:
                    if r < high:
                        pending.append((r + 1, high, mask))
                    # squares r .. k stay, square r - 1 takes link 2
                    pieces = [memoryview(word)[r - 3:], _LINKS[2]]
                    cur, j = 2, r - 1
                    break
            else:
                return

    def iso_count(self, k: int | None = None, end: int | None = None) -> int:
        """Optimal chains at k squares up to mirror symmetry: the number
        `chains(k, end, dedup=True)` yields, counted without enumerating,
        as `labeled_count` less the mirror pairs (`_mirror_pairs`)."""
        k, ends, _ = self._row(k, end)
        return sum(self._count(k, e) for e in ends) - self._mirror_pairs(k, ends)

    def _mirror_pairs(self, k: int, ends: tuple[int, ...]) -> int:
        """(B - P) / 2 for the optimal words S of row k that end in `ends`
        (from `_row`), B those whose reverse is also in S and P the
        palindromes of S.  One walk pairs square l with r = k + 3 - l and
        moves inward: v_x counts the half words w_3..w_l ending in link x
        whose every step is an edge of the DAG both forwards (squares l,
        l + 1) and mirrored (squares r - 1, r).  A word is in B exactly when
        both its halves, read from the outside in, are such half words, and
        in P when the two halves are one, so B and P follow from v where the
        halves meet.  A step is a linear map of v read from the codes of
        rows l + 1 and r, so while both rows stay in their segments the maps
        alternate by parity, and each such stretch is one powered map:
        O(runs log k) big-int steps in all.  The walk at k takes
        s = (k - 3) // 2 steps, and step t at k + 2 reads row k + 2 - t
        where that at k read row k - t.  So when rows k + 1 - s .. k + 2 lie
        in one segment, the walk at k + 2 is the one at k, kept per parity
        of k, with one step more: rows read in order cost O(1) big-int steps
        each.
        """
        v = (int(1 in ends), int(2 in ends))  # a word of B starts and ends in `ends`
        segs, s = self._segments, (k - 3) // 2  # s: steps while l + 1 < r
        # segment i holds row l + 1, rising from row 4, and segment j row r,
        # falling from row k; each pass takes the rows both stay in
        i, j, done = bisect_right(self._starts, 4) - 1, bisect_right(self._starts, k) - 1, 0
        last = self._mirror[k % 2]
        if last is not None and last[:2] == (k - 2, ends) and segs[j][0] <= k - s:
            # the walk at k - 2 took the first s - 1 steps: one step more
            i, v, done = bisect_right(self._starts, 3 + s) - 1, last[2], s - 1
        while done < s:
            row_l, row_r = 4 + done, k - done  # rows l + 1 and r
            (_, hi, left), (lo, _, right) = segs[i], segs[j]
            rows = min(hi - row_l, row_r - lo, s - 1 - done) + 1
            first = _mirror_map(left[row_l % 2][3], right[row_r % 2][3])
            second = (_mirror_map(left[(row_l + 1) % 2][3], right[(row_r - 1) % 2][3])
                      if rows > 1 else None)
            v = _steps(v, first, second, rows)
            done += rows
            i += row_l + rows > hi
            j -= row_r - rows < lo
        self._mirror[k % 2] = (k, ends, v)
        # the halves join by the map m of the middle: they share its square (odd
        # k), or the walk's step l + 1 = r = s + 4 reads its edge both ways (even k)
        if k % 2:
            m = ((1, 0), (0, 1))
        else:
            codes = self._phase(s + 4)[3]
            m = _mirror_map(codes, codes)
        (v1, v2), (w1, w2) = v, _apply(m, v)
        both, pal = v1 * w1 + v2 * w2, m[0][0] * v1 + m[1][1] * v2
        return (both - pal) // 2

    def chains(
        self,
        k: int | None = None,
        end: int | None = None,
        dedup: bool = False,
        limit: int | None = None,
    ) -> Iterator[LinkVector]:
        """All optimal chains at k squares, depth-first, each exactly once.

        The words of `_words` for each winning end in turn, so the first
        chain yielded equals `witness`, and each costs O(runs + ties)
        Python steps and one k-byte join: output-sensitive.  With ``dedup``
        the first-seen member of each mirror pair is kept, and one k-byte
        canonical key (the smaller of the word and its reverse) is held
        for each chain kept, so memory grows as k times the chains
        yielded; ``limit`` caps the number of chains yielded.
        """
        k, ends, _ = self._row(k, end)
        seen: set[bytes] = set()
        emitted = 0
        for e in ends:
            for word in self._words(k, e):
                if dedup:
                    key = min(word, word[::-1])  # the mirror class's canonical word
                    if key in seen:
                        continue
                    seen.add(key)
                if limit is not None and emitted >= limit:
                    return
                emitted += 1
                yield LinkVector._of(word)


def _compose(x: tuple, y: tuple) -> tuple:
    """The linear map x after y, each a 2x2 integer matrix."""
    (a, b), (c, d) = x
    (e, f), (g, h) = y
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def _apply(m: tuple, v: tuple) -> tuple:
    """The 2x2 integer matrix m times the vector v."""
    (a, b), (c, d) = m
    return (a * v[0] + b * v[1], c * v[0] + d * v[1])


def _power(m: tuple, e: int, v: tuple) -> tuple:
    """The linear map m applied e times to v, by Cayley-Hamilton: with
    t = trace(m) and d = det(m), m**2 = t*m - d*I, so m**e = a*m + b*I.
    The bits of e, from the top, move (a, b): a doubling to
    (a*(a*t + 2b), b*b - d*a*a), three big products, and a set bit to
    (a*t + b, -a*d), linear work; t and d are small ints for the count
    maps.  A singular m (d = 0) has m**e = t**(e - 1) * m: one pow, a
    shift when t is a power of two, as for every tie-everywhere map."""
    if not e:
        return v
    (p, q), (r, s) = m
    t, d = p + s, p * s - q * r
    mv = _apply(m, v)
    if not d:
        c = 1 << (t.bit_length() - 1) * (e - 1) if t > 0 and not t & (t - 1) else t ** (e - 1)
        return (c * mv[0], c * mv[1])
    a, b = 1, 0  # m**1
    for bit in bin(e)[3:]:
        a, b = a * (a * t + 2 * b), b * b - d * (a * a)
        if bit == "1":
            a, b = a * t + b, -a * d
    return (a * mv[0] + b * v[0], a * mv[1] + b * v[1])


def _steps(v: tuple, first: tuple, second: tuple, rows: int) -> tuple:
    """v carried over `rows` rows whose linear maps alternate first, second, first, ..."""
    half, odd = divmod(rows, 2)
    v = _power(_compose(second, first), half, v) if half else v
    return _apply(first, v) if odd else v


def _carry(seg: tuple, row: int, counts: tuple, k: int) -> tuple:
    """The chain counts of row k of segment `seg` from `counts`, those of
    row `row`, for lo - 1 <= row < k."""
    first, second = ((_COUNT_ROWS[codes[0]], _COUNT_ROWS[codes[1]])
                     for _, _, _, codes in (seg[2][(row + 1) % 2], seg[2][row % 2]))
    return _steps(counts, first, second, k - row)


def _mirror_map(a: tuple, z: tuple) -> tuple:
    """One step of `DPTable.iso_count`'s walk as a map over (v1, v2): x
    then y is kept at squares l, l + 1 when code a of row l + 1 at end y
    admits x and, mirrored, code z of row r at end x admits y."""
    a1, a2, z1, z2 = a[0], a[1], z[0], z[1]
    return ((a1 & z1 & 1, a1 >> 1 & z2 & 1), (a2 & z1 >> 1, (a2 & z2) >> 1))


def _build(f: IndexFunction, n: int) -> tuple:
    """The segments of rows 3..n, the number of rows stepped, the period
    and the first tie row (see `DPTable`): decisions and values only, no
    chain counts."""
    G11, G12, G21, G22, g2, base = _increments(f)
    den, (p, q), ties = f.den, f.tol, f.ties

    def step(x):
        """The next row's values from row values x, and its decisions: both
        codes (3 when a and b tie under f, a rational tie tested inline, else
        the side of the larger), then for each end whether it keeps its a,
        the sum over link 1."""
        x1, x2 = x
        a1, b1, a2, b2 = x1 + G11, x2 + G21, x1 + G12, x2 + G22
        return ((a1 if a1 >= b1 else b1, a2 if a2 >= b2 else b2),
                (3 if a1 == b1 or p and ties(a1, b1) else 1 if a1 > b1 else 2,
                 3 if a2 == b2 or p and ties(a2, b2) else 1 if a2 > b2 else 2, a1 >= b1, a2 >= b2))

    def run_end(row, x, rise, decided):
        """The last row row + 2b before n whose step still decides as
        `decided` does, for rows row + 2b with values x + b * rise, or n.
        Per end, a step is the sign of m = a - b and the tie test
        q|m| <= p * den or (2q - p)|m| <= p|s|, s = a + b: all linear in b
        between the zero crossings of m and s, so the step can change only
        where one of these lines crosses zero."""
        def cross(c, e):
            """Where c + e * b >= 0 changes for b >= 1, false from c // -e + 1
            or true from -(c // e); and the signs c + e * b takes."""
            if e < 0 <= c:
                cuts.append(c // -e + 1)
            elif c < 0 < e:
                cuts.append(-(c // e))
            else:
                return (1 if c >= 0 else -1,)
            return (1, -1)

        cuts = []
        dm, ds, r = rise[0] - rise[1], rise[0] + rise[1], 2 * q - p
        for ga, gb in ((G11, G21), (G12, G22)):
            a, b = x[0] + ga, x[1] + gb
            m = a - b
            cross(-m, -dm)  # with eps 0 the tie is m == 0
            signs_m = cross(m, dm)  # the signs m takes for b >= 0
            if p:
                s = a + b
                signs_s = cross(s, ds)
                for sm in signs_m:
                    if dm:
                        cross(p * den - q * sm * m, -q * sm * dm)
                    for ss in signs_s:
                        cross(p * ss * s - r * sm * m, p * ss * ds - r * sm * dm)
        cuts.sort()
        for b in cuts:
            if row + 2 * b >= n:
                break
            if step((x[0] + b * rise[0], x[1] + b * rise[1]))[1] != decided:
                return row + 2 * b
        return n

    x = (base + G11, base + g2)
    row3 = (3, x, _FLAT, (0, 0))
    segments = [(3, 3, (row3, row3))]
    # rows k - 4 .. k (row 3 for those before it): values and the decisions that made them
    hist = [(x, None)] * 5
    steady = 0  # rows in succession that decided as the row two before
    period, jumped, k, tie = None, 0, 3, n + 1
    while k < n:
        lo, phases = k + 1, None
        if steady > 1:  # so k >= 7
            (x4, _), (x3, _), (x2, _), (x1, pat1), (x0, pat2) = hist  # rows k - 4 .. k
            rise = (x0[0] - x2[0], x0[1] - x2[1])
            if rise == (x2[0] - x4[0], x2[1] - x4[1]):
                # rows k - 2 + 2b and k - 1 + 2b are affine in b while rows
                # k + 1, k + 2, ... decide as rows k - 1, k did
                rise1 = (x1[0] - x3[0], x1[1] - x3[1])
                top = min(run_end(k - 2, x2, rise, pat1), run_end(k - 1, x1, rise1, pat2))
                if top > k:  # rows k + 1 .. top decide as rows k - 1, k
                    phases = ((k - 2, x2, rise, pat2), (k - 1, x1, rise1, pat1))
                    if k % 2:
                        phases = phases[::-1]  # phases[r % 2] for row r
                    jumped += top - k
                    steady, k = 0, top  # row top + 1 decides otherwise
                    if top < n:  # rows top - 4 .. top, to step on from
                        hist = []
                        for r in range(top - 4, top + 1):
                            row, y, dy, decided = phases[r % 2]
                            b = (r - row) // 2
                            hist.append(((y[0] + b * dy[0], y[1] + b * dy[1]), decided))
                        x = hist[-1][0]
        if phases is None:
            x, decided = step(x)
            k += 1
            if tie > k and 3 in decided[:2]:  # a run repeats stepped rows' codes
                tie = k
            phases = ((k, x, _FLAT, decided),) * 2
            steady = steady + 1 if decided == hist[-2][1] else 0
            del hist[0]
            hist.append((x, decided))
            if period is None and 4 < k < n:
                d, y, z = x[0] - x[1], hist[-3][0], hist[-2][0]
                if d == y[0] - y[1]:  # the first repeat of d
                    period = (k - 1, 1 if d == z[0] - z[1] else 2)
        segments.append((lo, k, phases))
    return segments, k - 3 - jumped, period, tie


def run_dp(f: IndexFunction, n: int, *, keep_table: bool = True) -> DPTable:
    """Forward pass to n squares: O(runs) steps and memory even for
    tie-heavy indices.  The table is one segment per row the pass
    stepped and per run it jumped, with no per-row data or chain counts
    (`DPTable`), so keeping every row costs nothing more than keeping row
    n: ``keep_table`` is accepted and ignored, and every table answers
    every reader for rows 3..n.  Two candidates that are `values_equal`
    under ``f.eps`` as exact sums tie: the entry gets predecessor code 3
    and the larger of the two values.  A float optimum at n that
    overflows to inf is refused with ValueError.

    The pass steps row by row only through the rows where decisions
    change, and jumps each steady run to the row before its next change
    by exact division (see the module docstring).  A rational table ends
    in a run that reaches n, so the presets take at most eight steps;
    float tables behave alike, and report `DPTable.period` too."""
    if n < 3:
        raise ValueError(f"dynamic program needs n >= 3, got {n}")
    table = DPTable(f, n, *_build(f, n))
    if f.mode == FLOAT:
        for raw in table._row(n)[2]:
            check_finite(f.read(raw), f"the optimum at n = {n}")
    return table


class ExtremalResult(NamedTuple):
    """Outcome of one extremal query.

    `labeled_count` counts distinct optimal link vectors; `iso_count`
    additionally merges mirror pairs and is filled whenever ``count_iso``
    is set (`DPTable.iso_count`, which enumerates nothing).  Under a
    float-mode index every tie-derived quantity depends on the
    comparison tolerance, flagged by `tolerance_dependent`.
    """

    objective: str
    n: int
    value: Value
    per_end: dict[int, Value]
    witness: LinkVector
    labeled_count: int
    iso_count: int | None
    index_name: str
    mode: str
    tolerance_dependent: bool


def _extremal(
    f: IndexFunction, n: int, objective: str, end: int | None, count_iso: bool
) -> tuple[ExtremalResult, DPTable]:
    """One extremal result for index f at n squares, and its table:
    `run_dp` of f for MAX or of `negate(f)` for MIN.  The two share their
    common denominator, so a min is f's read of the negated scaled
    optimum, as CLI `table` reads its min column.  Row n is read once,
    `value` being the winning end's `per_end` entry, and the witness is
    built before any count, so a chain too long to build is refused
    first."""
    sign = 1 if objective == MAX else -1
    table = run_dp(f if sign == 1 else negate(f), n)
    _, ends, raws = table._row(n, end)
    witness = table.witness(n, ends[0])
    labeled = sum(table._count(n, e) for e in ends)
    per_end = {1: f.read(sign * raws[0]), 2: f.read(sign * raws[1])}
    return ExtremalResult(
        objective=objective,
        n=n,
        value=per_end[ends[0]],
        per_end=per_end,
        witness=witness,
        labeled_count=labeled,
        iso_count=labeled - table._mirror_pairs(n, ends) if count_iso else None,
        index_name=f.name,
        mode=f.mode,
        tolerance_dependent=f.mode == FLOAT,
    ), table


def maximize(
    f: IndexFunction, n: int, end: int | None = None, *, count_iso: bool = False
) -> ExtremalResult:
    """Maximum index value over n-square chains, with one witness chain.

    With `end` the search is restricted to chains whose last link has
    that type.  Witness ties are broken toward link 1 at every level
    (and toward ending link 1), making the result deterministic.
    """
    return _extremal(f, n, MAX, end, count_iso)[0]


def minimize(
    f: IndexFunction, n: int, end: int | None = None, *, count_iso: bool = False
) -> ExtremalResult:
    """Minimum index value over n-square chains: maximize the negation."""
    return _extremal(f, n, MIN, end, count_iso)[0]


def enumerate_maximal(
    f: IndexFunction,
    n: int,
    end: int | None = None,
    limit: int | None = None,
    dedup: bool = False,
) -> Iterator[LinkVector]:
    """Stream every maximal chain exactly once (see `DPTable.chains`):
    with ``dedup``, one n-byte canonical key is held per chain kept."""
    table = run_dp(f, n)
    yield from table.chains(end=end, dedup=dedup, limit=limit)


CASE_LINEAR_ALWAYS = "linear-always"
CASE_LINEAR_FROM_4 = "linear-from-4-tie-at-3"
CASE_ZIGZAG_THEN_LINEAR = "zigzag-then-linear"
CASE_NOT_APPLICABLE = "not-applicable"


class ClassifierVerdict(NamedTuple):
    """Sufficient-condition check for linear/zigzag extremality.

    When the increment table satisfies
    g11 > max(g12, g22, (g12 + g21) / 2), the maximizer is the linear
    chain for every n (case `linear-always`, g11 > g2), the linear chain
    from n = 4 with a two-chain tie at n = 3 (g11 == g2), or the zigzag
    chain up to a threshold square count `n_star` and the linear chain
    from there on (g11 < g2).  In the last case `tie_at_threshold`
    reports whether zigzag and linear are exactly tied at `n_star`
    (computed, never assumed).  Outside the premise the verdict is
    `not-applicable` and the general search must be used.
    """

    premise_holds: bool
    case: str
    n_star: int | None = None
    tie_at_threshold: bool | None = None


def classify(f: IndexFunction) -> ClassifierVerdict:
    """Classify an index under the linear/zigzag sufficient condition.

    Decides on the exact increments.  A strict premise inequality fails
    between increments that tie under f, so in float mode it needs a gap
    wider than the tolerance.
    """
    g11, g12, g21, g22, g2, base = _increments(f)
    # the half sum (g12 + g21) / 2 is compared as g12 + g21 against 2 * g11, over 2 * den
    premise = (all(g11 > x and not f.ties(g11, x) for x in (g12, g22))
               and 2 * g11 > g12 + g21 and not f.ties(2 * g11, g12 + g21, 2 * f.den))
    if not premise:
        return ClassifierVerdict(premise_holds=False, case=CASE_NOT_APPLICABLE)
    if f.ties(g11, g2):
        return ClassifierVerdict(premise_holds=True, case=CASE_LINEAR_FROM_4)
    if g11 > g2:
        return ClassifierVerdict(premise_holds=True, case=CASE_LINEAR_ALWAYS)
    dem = g11 - g22
    if dem <= 0:
        raise RuntimeError("classifier invariant violated: premise guarantees g11 > g22")
    n_star = 3 - (g11 - g2) // dem  # 3 + ceil((g2 - g11) / dem)
    linear_at = base + (n_star - 2) * g11
    zigzag_at = base + g2 + (n_star - 3) * g22
    return ClassifierVerdict(
        premise_holds=True,
        case=CASE_ZIGZAG_THEN_LINEAR,
        n_star=n_star,
        tie_at_threshold=f.ties(linear_at, zigzag_at),
    )
