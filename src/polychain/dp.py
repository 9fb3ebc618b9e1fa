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
base rows, their rises and its two rows' codes.  A row's first read makes
the record its readers share: values and winning ends, then counts and
mirror walk once read.  Counts are carried from a kept row below, else
from the row before the first tie row (each count below it is 1), by
the codes' map c -> c1 / c2 / c1 + c2 of each end, a 2x2 integer matrix
m raised to a power by Cayley-Hamilton: m**e is a*m + b*I, so a doubling
of e costs three big products of (a, b) and a set bit linear work.  The
mirror walk powers its maps alike.  So a table keeps every row 3..n at
O(runs) Python steps, segments and small-int steps; a row's values are
read in O(log runs) steps, its counts and `iso_count` in O(runs log k)
big-int steps, or one step of each when rows are read in order.  A range
of rows read in order, as CLI `table` reads it, is one pass over the
segments (`DPTable._pass`): a row costs its values' step, one code step
of the counts and one map step of the mirror walk, with no row record,
bisection for its own segment or search of the kept rows.  A chain
of `witness` or `chains` takes O(runs + ties) Python steps, whatever k
is, and one k-byte write: a run is walked six rows deep and its repeated
stretch listed as pieces, which one join writes into the word.
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
_END1, _END2, _BOTH = (1,), (2,), (1, 2)  # the ends a read takes
# an end's chain count as a row over the counts (c1, c2) of the row before, by its
# code; row 3's code 0 is never carried, its counts (1, 1) being where carries start
_COUNT_ROWS = (None, (1, 0), (0, 1), (1, 1))
_FLAT = (0, 0)  # the rise of a one-row segment
_LINKS = (None, b"\1", b"\2")  # a link as a one-byte word piece
_CHUNK = 1024  # the blocks of 4 links one repeated piece of a long run holds
# a row's record, a list: k, its segment's index, both raw optima, the winning ends and
# its codes, then its counts (c1, c2) and mirror walk, None until first read (`DPTable`)
_K, _AT, _RAWS, _WINS, _CODES, _COUNTS, _WALK = range(7)


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
    `witness` and `chains` walk backwards.  Every reader of row k answers
    from its record, made by `_row` on the first read of k, the
    last three kept: both optima and the winning ends, then once read the
    chain counts (`_count`), carried from the nearest kept record below,
    else from the row before `_tie`, the first tie row (n + 1 for none),
    below which each count is 1, and the mirror walk (`_walk`), one map
    for every end set.  So rows read in order cost one count step and
    one walk step each.  `steps` counts the rows the forward pass stepped.
    """

    def __init__(self, f, n, segments, steps, period, tie):
        self.f = f
        self.n = n
        self.steps = steps  # rows the forward pass stepped one at a time
        self._segments = segments
        self._starts = [seg[0] for seg in segments]
        self._tie = tie  # the first row with a tie code at either end, n + 1 for none
        self._rows: dict[int, list] = {}  # the records of the last three rows read, oldest first
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

    def _row(self, k: int | None, end: int | None = None) -> tuple[list, tuple[int, ...]]:
        """The record of row k (n for None), checked, and the ends a read
        takes: `end`, checked, else the winning ends, both on a tie under f."""
        k = self.n if k is None else k
        rec = self._rows.get(k)
        if rec is None:
            if not 3 <= k <= self.n:
                raise ValueError(f"square count {k} outside table range 3..{self.n}")
            at = bisect_right(self._starts, k) - 1
            rec = self._rows[k] = [k, at, *_read(self.f, self._segments[at][2], k), None, None]
            if len(self._rows) > 3:
                del self._rows[next(iter(self._rows))]
        if end is None:
            return rec, rec[_WINS]
        if end not in (1, 2):
            raise ValueError(f"end link must be 1 or 2, got {end!r}")
        return rec, (end,)

    def value(self, k: int, i: int) -> Value:
        """Optimum over k-square chains ending with link i."""
        return self.f.read(self._row(k, i)[0][_RAWS][i - 1])

    def _count(self, rec: list, ends: tuple[int, ...]) -> int:
        """The optimal chains of `rec`'s row that end in `ends`."""
        if rec[_COUNTS] is None:
            k, row, counts = rec[_K], self._tie - 1, (1, 1)
            for r, other in self._rows.items():  # the nearest kept counts below k
                if row < r < k and other[_COUNTS] is not None:
                    row, counts = r, other[_COUNTS]
            segs, at = self._segments, rec[_AT]
            if row < segs[at][0]:
                for seg in segs[bisect_right(self._starts, row + 1) - 1:at]:
                    counts, row = _carry(seg, row, counts, seg[1]), seg[1]
            rec[_COUNTS] = _carry(segs[at], row, counts, k) if row < k else counts
        return _total(rec[_COUNTS], ends)

    def predecessors(self, k: int, i: int) -> frozenset[int]:
        return _PRED_SETS[self._row(k, i)[0][_CODES][i - 1]]

    def best_value(self, k: int | None = None) -> Value:
        rec, ends = self._row(k)
        return self.f.read(rec[_RAWS][ends[0] - 1])

    def labeled_count(self, k: int | None = None, end: int | None = None) -> int:
        """Number of distinct optimal chains (summed over the winning ends)."""
        return self._count(*self._row(k, end))

    def witness(self, k: int | None = None, end: int | None = None) -> LinkVector:
        """One optimal chain, built backwards preferring link 1 on ties: the first of `chains`."""
        rec, ends = self._row(k, end)
        return LinkVector._of(next(self._words(rec[_K], ends[0])))

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
        rec, ends = self._row(k, end)
        return self._count(rec, ends) - self._mirror_pairs(rec, ends)

    def _mirror_pairs(self, rec: list, ends: tuple[int, ...]) -> int:
        """(B - P) / 2 for the optimal words S of `rec`'s row that end in
        `ends`, B those whose reverse is also in S and P the palindromes of
        S, from the row's mirror walk (`_walk`), carried from row k - 2's
        when that is kept."""
        if rec[_WALK] is None:
            last = self._rows.get(rec[_K] - 2)
            rec[_WALK] = self._walk(rec[_K], rec[_AT], last and last[_WALK])
        return _pairs(rec[_WALK], ends)

    def _walk(self, k: int, at: int, last: tuple | None = None) -> tuple:
        """Row k's mirror walk, row k in segment `at`: it pairs square l
        with r = k + 3 - l and moves inward, v_x counting the half words
        w_3..w_l ending in link x whose every step is a DAG edge both
        forwards (squares l, l + 1) and mirrored (squares r - 1, r).  A
        word is in B when both its halves, read from the outside in, are
        such words, and in P when they are one, so B and P follow where
        the halves meet, by the middle's map m.  The walk is the 2x2 map
        from v's start to v, and m, None for the identity.  When rows
        k - s .. k lie in one segment, s = (k - 3) // 2 steps, `last`, row
        k - 2's walk, takes one step more; else while rows l + 1 and r stay
        in their segments the step maps alternate, one powered map a
        stretch: O(runs log k) big-int steps."""
        segs, starts = self._segments, self._starts
        s = (k - 3) // 2
        if last is not None and segs[at][0] <= k - s:  # rows l + 1 = 3 + s and r = k - s + 1
            left = segs[bisect_right(starts, 3 + s) - 1][2][(3 + s) % 2][3]
            walk = _compose(_mirror_map(left, segs[at][2][(k - s + 1) % 2][3]), last[0])
        else:
            # segment i holds row l + 1, rising from row 4, and segment j row r,
            # falling from row k; each pass takes the rows both stay in
            i, j, done, walk = bisect_right(starts, 4) - 1, at, 0, ((1, 0), (0, 1))
            while done < s:
                row_l, row_r = 4 + done, k - done  # rows l + 1 and r
                (_, hi, left), (lo, _, right) = segs[i], segs[j]
                rows = min(hi - row_l, row_r - lo, s - 1 - done) + 1
                first = _mirror_map(left[row_l % 2][3], right[row_r % 2][3])
                second = (_mirror_map(left[(row_l + 1) % 2][3], right[(row_r - 1) % 2][3])
                          if rows > 1 else None)
                walk = _compose(_stretch(first, second, rows), walk)
                done += rows
                i += row_l + rows > hi
                j -= row_r - rows < lo
        # the halves join by the map m of the middle: they share its square (odd
        # k, the identity), or the walk's step l + 1 = r = s + 4 reads its edge
        # both ways (even k)
        codes = segs[bisect_right(starts, s + 4) - 1][2][s % 2][3]
        return walk, None if k % 2 else _mirror_map(codes, codes)

    def _pass(self, lo: int, hi: int, count: bool = False, iso: bool = False) -> Iterator[tuple]:
        """Rows lo..hi in order, 3 <= lo <= hi <= n, in one pass over the
        segments: for each row, the raw optimum of the winning ends (as
        `best_value`), and the `labeled_count` when `count` or `iso` is
        set and the `iso_count` when `iso` is, else None.  A row's values
        are read from its phase (`_read`), its counts take one code step
        from the row before's (`_step`) and its mirror walk carries row
        k - 2's (`_walk`), with no row record; the first row's counts come
        from its record."""
        f, segs, starts = self.f, self._segments, self._starts
        walks = [None, None]  # the walks of the last row read of each parity
        for at in range(bisect_right(starts, lo) - 1, bisect_right(starts, hi)):
            seg_lo, seg_hi, phases = segs[at]
            for k in range(max(lo, seg_lo), min(hi, seg_hi) + 1):
                (x, y), ends, codes = _read(f, phases, k)
                raw = y if ends is _END2 else x
                if not (count or iso):
                    yield raw, None, None
                    continue
                if k == lo:
                    rec = self._row(k)[0]
                    self._count(rec, ends)
                    counts = rec[_COUNTS]
                else:
                    counts = _step(codes, counts)
                labeled = _total(counts, ends)
                if not iso:
                    yield raw, labeled, None
                    continue
                walk = walks[k & 1] = self._walk(k, at, walks[k & 1])
                yield raw, labeled, labeled - _pairs(walk, ends)

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
        rec, ends = self._row(k, end)
        seen: set[bytes] = set()
        emitted = 0
        for e in ends:
            for word in self._words(rec[_K], e):
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


def _power(m: tuple, e: int) -> tuple:
    """The 2x2 integer matrix m raised to the power e >= 0, by
    Cayley-Hamilton: with t = trace(m) and d = det(m), m**2 = t*m - d*I,
    so m**e = a*m + b*I.  The bits of e, from the top, move (a, b): a
    doubling to (a*(a*t + 2b), b*b - d*a*a), three big products, and a
    set bit to (a*t + b, -a*d), linear work; t and d are small ints for
    the count maps.  A singular m (d = 0) has m**e = t**(e - 1) * m: one
    pow, a shift when t is a power of two, as for every tie-everywhere
    map."""
    (p, q), (r, s) = m
    if not e:
        return ((1, 0), (0, 1))
    t, d = p + s, p * s - q * r
    if not d:
        a, b = 1 << (t.bit_length() - 1) * (e - 1) if t > 0 and not t & (t - 1) else t ** (e - 1), 0
    else:
        a, b = 1, 0  # m**1
        for bit in bin(e)[3:]:
            a, b = a * (a * t + 2 * b), b * b - d * (a * a)
            if bit == "1":
                a, b = a * t + b, -a * d
    return ((a * p + b, a * q), (a * r, a * s + b))


def _stretch(first: tuple, second: tuple, rows: int) -> tuple:
    """The linear map of `rows` >= 1 rows whose maps alternate first, second, first, ..."""
    if rows == 1:
        return first
    pairs = _power(_compose(second, first), rows // 2)
    return _compose(first, pairs) if rows % 2 else pairs


def _carry(seg: tuple, row: int, counts: tuple, k: int) -> tuple:
    """The chain counts of row k of segment `seg` from `counts`, those of
    row `row`, for lo - 1 <= row < k."""
    c, d = seg[2][(row + 1) % 2][3], seg[2][row % 2][3]
    return _apply(_stretch((_COUNT_ROWS[c[0]], _COUNT_ROWS[c[1]]),
                           (_COUNT_ROWS[d[0]], _COUNT_ROWS[d[1]]), k - row), counts)


def _step(codes: tuple, counts: tuple) -> tuple:
    """A row's chain counts from those (c1, c2) of the row before, by its
    codes: `_COUNT_ROWS`' step, c1, c2 or c1 + c2 for each end."""
    c1, c2 = counts
    i, j = codes[0], codes[1]
    return (c1 if i == 1 else c2 if i == 2 else c1 + c2, c1 if j == 1 else c2 if j == 2 else c1 + c2)


def _total(counts: tuple, ends: tuple[int, ...]) -> int:
    """The chains of a row that end in `ends`, from its counts (c1, c2)."""
    return counts[ends[0] - 1] if len(ends) == 1 else counts[0] + counts[1]


def _read(f: IndexFunction, phases: tuple, k: int) -> tuple:
    """Row k's raw optima (x, y) from its phase in `phases`, those of its
    segment, the winning ends, both on a tie under f, and its codes."""
    row, (x, y), (dx, dy), codes = phases[k & 1]
    if k != row:
        b = (k - row) // 2
        x, y = x + b * dx, y + b * dy
    # rational values tie only when equal
    return (x, y), _BOTH if x == y or f.tol[0] and f.ties(x, y) else _END1 if x > y else _END2, codes


def _mirror_map(a: tuple, z: tuple) -> tuple:
    """One step of `DPTable.iso_count`'s walk as a map over (v1, v2): x
    then y is kept at squares l, l + 1 when code a of row l + 1 at end y
    admits x and, mirrored, code z of row r at end x admits y."""
    a1, a2, z1, z2 = a[0], a[1], z[0], z[1]
    return ((a1 & z1 & 1, a1 >> 1 & z2 & 1), (a2 & z1 >> 1, (a2 & z2) >> 1))


def _pairs(walk: tuple, ends: tuple[int, ...]) -> int:
    """`DPTable._mirror_pairs` from a row's mirror walk and middle map
    (`DPTable._walk`), the walk started at (1 in ends, 2 in ends).  An
    identity middle (None) squares each v_x, which CPython does faster
    than it multiplies two ints."""
    ((x1, x2), (y1, y2)), m = walk
    v1, v2 = (x1, y1) if ends == (1,) else (x2, y2) if ends == (2,) else (x1 + x2, y1 + y2)
    if m is None:
        return (v1 * v1 + v2 * v2 - v1 - v2) // 2
    w1, w2 = _apply(m, (v1, v2))
    return (v1 * w1 + v2 * w2 - m[0][0] * v1 - m[1][1] * v2) // 2


def _build(f: IndexFunction, n: int) -> tuple:
    """The segments of rows 3..n, the number of rows stepped, the period
    and the first tie row (see `DPTable`): decisions and values only, no
    chain counts."""
    G11, G12, G21, G22, g2, base = _increments(f)
    den, (p, q) = f.den, f.tol
    # a value of rows 3..n is at most a chain of largest steps: a float tie needs |a - b| <= w
    w = p and p * max(den, abs(base) + (n - 2) * max(map(abs, (G11, G12, G21, G22, g2)))) // q

    def step(x):
        """The next row's values from row values x, and its decisions: both
        codes (3 when a and b tie under f, tested inline within w, else the
        side of the larger), then for each end whether it keeps its a."""
        x1, x2 = x
        a1, b1, a2, b2 = x1 + G11, x2 + G21, x1 + G12, x2 + G22
        return ((a1 if a1 >= b1 else b1, a2 if a2 >= b2 else b2),
                (3 if a1 == b1 or p and -w <= a1 - b1 <= w
                 and abs(a1 - b1) * q <= p * max(den, abs(a1), abs(b1)) else 1 if a1 > b1 else 2,
                 3 if a2 == b2 or p and -w <= a2 - b2 <= w
                 and abs(a2 - b2) * q <= p * max(den, abs(a2), abs(b2)) else 1 if a2 > b2 else 2,
                 a1 >= b1, a2 >= b2))

    def run_end(row, x, rise, decided):
        """The last row row + 2b before n whose step still decides as
        `decided` does, for rows row + 2b with values x + b * rise, or n.
        Per end, a step is the sign of m = a - b and the tie test
        q|m| <= p * den or (2q - p)|m| <= p|s|, s = a + b: all linear in b
        between the zero crossings of m and s, so the step can change only
        where one of these lines crosses zero; the tie lines only if |m| <= w in a row."""
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
            m_last = p and m + (n - row) // 2 * dm  # m at the last b, rows row + 2b up to n
            if p and not (m > w < m_last or m < -w > m_last):  # a row may reach the tie band
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
                        hist = [_read(f, phases, r)[::2] for r in range(top - 4, top + 1)]
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
        for raw in table._row(n)[0][_RAWS]:
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
    optimum, as CLI `table` reads its min column.  Every field comes from
    row n's record, and the witness is built before any count, so a chain
    too long to build is refused first."""
    sign = 1 if objective == MAX else -1
    table = run_dp(f if sign == 1 else negate(f), n)
    rec, ends = table._row(n, end)
    witness = table.witness(n, ends[0])
    labeled = table._count(rec, ends)
    per_end = {1: f.read(sign * rec[_RAWS][0]), 2: f.read(sign * rec[_RAWS][1])}
    return ExtremalResult(
        objective=objective,
        n=n,
        value=per_end[ends[0]],
        per_end=per_end,
        witness=witness,
        labeled_count=labeled,
        iso_count=labeled - table._mirror_pairs(rec, ends) if count_iso else None,
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
