"""Extremal polyomino chains by dynamic programming.

For an index f, let best(k, i) be the maximum index value over all
chains with k squares whose last link has type i.  Because each
attachment increment depends only on the previous link, best satisfies

    best(k, i) = max_j { best(k-1, j) + g(j, i) },    k >= 4,

with base best(3, i) fixed by the first attachment.  One forward pass
therefore yields the optimum for every square count up to n at O(1)
arithmetic per step; recording which predecessors attain each maximum
turns the table into a DAG whose source-to-sink paths are exactly the
optimal chains, so witnesses, tie counts and full enumeration all come
out of the same pass.  The count up to mirror symmetry, |S| - (B - P)/2
for the optimal words S, the words B of S whose reverse is in S and the
palindromes P of S, comes from one O(n) walk over the same DAG that
moves inward from both ends of the word.  Minimization is maximization
of the negated index.

Both arithmetic modes run one forward loop.  Rational values are scaled
to integers by the least common multiple of the increment denominators,
so each step costs a few word operations; floats run as they are.  The
two candidates a = best(k-1, 1) + g(1, i) and b = best(k-1, 2) + g(2, i)
of end i tie when values_equal(a, b, eps) holds (exact equality for
rationals, |a - b| <= eps * max(1, |a|, |b|) for floats); otherwise the
larger one wins, and a tie stores the larger one.  The loop evaluates
that formula on the two sums themselves, so every entry is decided
exactly as `values_equal` decides it.  Anything tie-derived in float
mode (counts, enumeration) is tolerance-dependent.

In rational mode the loop stops early.  With d = m1 - m2 for the row's
values m1 = best(k, 1) and m2 = best(k, 2), end i's candidates differ by
a - b = d - (g(2, i) - g(1, i)), exactly on integers.  So the step out
of a row depends on d alone: each end's predecessor code, its value,
m1 + max(g(1, i), g(2, i) - d), and so the next d.  Once d at row k
equals d at row k - 2 (exact integers, so the equality is a proof, not a
guess), rows k + 1, k + 2, ... repeat rows k - 1 and k with both values
raised by vals[k] - vals[k - 2] per two rows.  The loop exits there.
The value lists stop at row k and a later row is read as the stored row
2b rows back plus b times that shift; the code bytearrays are filled to
n by repeating their two-byte pattern; and the final tie counts come
from the pattern's affine map t -> t1 / t2 / 1 + t1 + t2 of each end, a
3x3 integer matrix, raised to a power by squaring.  Max-plus cyclicity
makes every rational table repeat this way with period 1 or 2, after a
transient T that grows as the gap between the best cycle mean and the
next shrinks (the rational presets repeat by row 9).  A full table then
costs T Python steps, O(T) stored values and n bytes of codes per end; a
streaming one O(T + log n) steps.

Float mode stores every value, because rounding makes a step depend on
the size of m1 as well as on d, so an equal d proves nothing there.  It
takes the steady part in chunks instead.  Once the last four rows repeat
with period 1 or 2 (their codes and the side each tie keeps), the pass
computes the next chunk as if the pattern went on, with the loop's own
IEEE additions at C speed, and then proves every row's decision from its
two candidate sums (see `_chunk`).  A chunk with a decision it cannot
prove, or a value that is not finite, is dropped: the chunk size halves
and the loop steps one row.  An accepted chunk doubles it, from 64 rows
to 4096.  Values go to `array('d')`, codes by repeating the pattern's
bytes, and the tie counts of a run of chunks come from its powered map
as in the rational tail.  So a float table costs O(n) work at C speed
but only O(transient + runs) Python steps, and the witness walks each
run with the tail's four-row block.  Below 64 remaining rows the plain
loop runs.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, cycle, islice, repeat
from operator import add, sub

from .chains import LinkVector, canonical_reversal
from .indices import (
    FLOAT,
    RATIONAL,
    IncrementTable,
    IndexFunction,
    Value,
    check_finite,
    increment_table,
    negate,
    values_equal,
)

__all__ = [
    "DPState",
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
    "count_maximal",
    "classify",
]

MAX = "max"
MIN = "min"

_PRED_SETS = (frozenset(), frozenset((1,)), frozenset((2,)), frozenset((1, 2)))
_PRED_LINKS = ((), (1,), (2,), (1, 2))
# an end's tie count as a row over (t1, t2, 1) of the row before, by its code
_TIE_ROWS = (None, (1, 0, 0), (0, 1, 0), (1, 1, 1))
# float chunks: no chunk is shorter than _CHUNK_MIN rows, so tables below
# it run row by row, and none longer than _CHUNK_MAX, which bounds the
# chunk's temporary lists
_CHUNK_MIN, _CHUNK_MAX = 64, 1 << 12


@dataclass(frozen=True)
class DPState:
    """Optimum summary for one square count: values, predecessor sets and
    tie counts per ending link."""

    n: int
    values: tuple[Value, Value]
    preds: tuple[frozenset[int], frozenset[int]]
    ties: tuple[int, int]

    def value(self, end: int) -> Value:
        return self.values[end - 1]

    def predecessors(self, end: int) -> frozenset[int]:
        return self.preds[end - 1]

    def tie_count(self, end: int) -> int:
        return self.ties[end - 1]


class DPTable:
    """Forward-pass results for square counts 3..n under one index.

    Each row holds, for one square count, the two predecessor codes (1
    or 2, 3 for a tie, 0 at k = 3): the DAG that `witness` and `chains`
    walk backwards.  The two optimum values are stored up to row T + 1
    of `period` (to row n when there is none, in `array('d')` for
    floats); a later row is read as the stored row 2b rows back plus b
    times their rise over two rows.  Tie counts are carried for row n
    only; interior ones are derived from the codes on first use and
    cached.  A streaming build (``keep_table=False``) is the same table
    holding only the row for n.  Iterating yields one `DPState` per row.
    `steps` counts the rows the forward pass stepped one at a time.
    """

    def __init__(self, f, n, den, values, preds, final_ties, runs, steps, period=None, shift=0):
        self.f = f
        self.n = n
        self.mode = f.mode
        self.eps = f.eps
        self.steps = steps  # rows the forward pass stepped one at a time
        self._den = den
        self._first = n + 1 - len(preds[0])  # square count of the first stored row
        self._values = values
        self._preds = preds
        self._final_ties = final_ties
        self._ties = None
        self._runs = runs  # [lo, hi]: rows lo..hi repeat their codes with period 1 or 2
        self._period = period
        self._shift = shift  # both values' rise over two rows of the period

    @property
    def period(self) -> tuple[int, int] | None:
        """(T, c): from square count T on, each row equals the row c
        before it with both values raised by the same amount and the same
        predecessor codes.  The forward pass proves this when d = m1 - m2
        at row T + 1 equals d at row T - 1 (the first such row), and c is
        1 when d at row T equals them too.  None for float tables and
        when d does not repeat below row n."""
        return self._period

    def _check_k(self, k: int) -> None:
        if not 3 <= k <= self.n:
            raise ValueError(f"square count {k} outside table range 3..{self.n}")
        if k < self._first:
            raise ValueError("streaming table keeps only the final state (keep_table=False)")

    @staticmethod
    def _check_end(i: int) -> None:
        if i not in (1, 2):
            raise ValueError(f"end link must be 1 or 2, got {i!r}")

    def value(self, k: int, i: int) -> Value:
        """Optimum over k-square chains ending with link i."""
        self._check_k(k)
        self._check_end(i)
        vals = self._values[i - 1]
        j = k - self._first
        b = max(0, j - len(vals) + 2) // 2  # periods past the stored rows
        raw = vals[j - 2 * b] + b * self._shift if b else vals[j]
        return Fraction(raw, self._den) if self._den is not None else raw

    def tie_count(self, k: int, i: int) -> int:
        """Optimal k-square chains ending with link i, minus one."""
        self._check_k(k)
        self._check_end(i)
        if k == self.n:
            return self._final_ties[i - 1]
        if self._ties is None:
            self._ties = _derive_ties(*self._preds)
        return self._ties[i - 1][k - 3]

    def predecessors(self, k: int, i: int) -> frozenset[int]:
        self._check_k(k)
        self._check_end(i)
        return _PRED_SETS[self._preds[i - 1][k - self._first]]

    def state(self, k: int) -> DPState:
        self._check_k(k)
        return DPState(
            n=k,
            values=(self.value(k, 1), self.value(k, 2)),
            preds=(self.predecessors(k, 1), self.predecessors(k, 2)),
            ties=(self.tie_count(k, 1), self.tie_count(k, 2)),
        )

    def __len__(self) -> int:
        return self.n - self._first + 1

    def __iter__(self) -> Iterator[DPState]:
        return (self.state(k) for k in range(self._first, self.n + 1))

    def winning_ends(self, k: int | None = None) -> tuple[int, ...]:
        """Ending links attaining the overall optimum at k squares."""
        k = self.n if k is None else k
        self._check_k(k)
        v1, v2 = self.value(k, 1), self.value(k, 2)
        if values_equal(v1, v2, self.eps):
            return (1, 2)
        return (1,) if v1 > v2 else (2,)

    def best_value(self, k: int | None = None) -> Value:
        k = self.n if k is None else k
        return self.value(k, self.winning_ends(k)[0])

    def labeled_count(self, k: int | None = None, end: int | None = None) -> int:
        """Number of distinct optimal chains (tie count + 1 per winning end)."""
        k = self.n if k is None else k
        ends = (end,) if end is not None else self.winning_ends(k)
        return sum(self.tie_count(k, e) + 1 for e in ends)

    def witness(self, k: int | None = None, end: int | None = None) -> LinkVector:
        """One optimal chain, built backwards preferring link 1 on ties."""
        k = self.n if k is None else k
        self._check_k(k)
        if self._first > 3:
            raise ValueError("streaming table cannot reconstruct witnesses (keep_table=False)")
        if end is None:
            end = self.winning_ends(k)[0]
        else:
            self._check_end(end)
        codes = (None,) + self._preds  # indexed by link
        out = bytearray(k - 2)  # out[j - 3]: the link of square j
        out[-1] = cur = end
        j = k  # the link of square j is known
        for lo, hi in reversed(self._runs):
            top = min(hi, j)
            if top < lo + 6:
                continue
            # In rows lo..top a row's codes depend on its parity alone, so
            # the walk's state (link, row parity) moves by one map that
            # flips the parity.  Two steps of it map {1, 2} into itself, so
            # the states repeat with a period dividing 4 from the second
            # step on: after six steps the last four links repeat down to
            # square lo - 1, the last one whose link the run decides.
            for j in range(j, top - 6, -1):
                cur = 2 if codes[cur][j - 3] == 2 else 1
                out[j - 4] = cur
            block = out[top - 9:top - 5]  # squares top - 6 .. top - 3
            whole, rest = divmod(top - 5 - lo, 4)  # squares lo - 1 .. top - 7 still open
            out[lo - 4:top - 9] = block[4 - rest:] + block * whole
            j = lo - 1
            cur = out[j - 3]
        for j in range(j, 3, -1):
            cur = 2 if codes[cur][j - 3] == 2 else 1  # codes 1 and 3 take link 1
            out[j - 4] = cur
        return LinkVector(out)

    def iso_count(self, k: int | None = None, end: int | None = None) -> int:
        """Optimal chains at k squares up to mirror symmetry: the number
        `chains(k, end, dedup=True)` yields, counted without enumerating.

        With S the optimal words, B those whose reverse is also in S and
        P the palindromes of S, the count is |S| - (B - P) / 2.  One walk
        pairs square l with r = k + 3 - l and moves inward: v_x counts the
        half words w_3..w_l ending in link x whose every step is an edge
        of the DAG both forwards (squares l, l + 1) and mirrored (squares
        r - 1, r).  A word is in B exactly when both its halves, read
        from the outside in, are such half words, and in P when the two
        halves are one, so B and P follow from v where the halves meet.
        """
        k = self.n if k is None else k
        self._check_k(k)
        if self._first > 3:
            raise ValueError("streaming table cannot count mirror classes (keep_table=False)")
        if end is not None:
            self._check_end(end)
        ends = (end,) if end is not None else self.winning_ends(k)
        v1, v2 = int(1 in ends), int(2 in ends)  # a word of B starts and ends in `ends`
        c1, c2 = self._preds  # bit x - 1 of a code: link x may precede
        s = (k - 3) // 2  # steps while l + 1 < r
        rows_l = zip(c1[1:s + 1], c2[1:s + 1])  # row l + 1 = 4, 5, ...
        rows_r = zip(c1[k - 3:k - 3 - s:-1], c2[k - 3:k - 3 - s:-1])  # row r = k, k - 1, ...
        for (a1, a2), (z1, z2) in zip(rows_l, rows_r):
            v1, v2 = (
                (v1 if a1 & 1 and z1 & 1 else 0) + (v2 if a1 & 2 and z2 & 1 else 0),
                (v1 if a2 & 1 and z1 & 2 else 0) + (v2 if a2 & 2 and z2 & 2 else 0),
            )
        if k % 2:  # odd length: the halves share the middle square
            both, pal = v1 * v1 + v2 * v2, v1 + v2
        else:  # even length: one edge, read both ways, joins the middle squares
            a1, a2 = c1[s + 1], c2[s + 1]
            o11, o22 = a1 & 1, a2 >> 1  # links 1, 1 and 2, 2; links 1, 2 need 2 -> 1 and 1 -> 2
            both = v1 * v1 * o11 + v2 * v2 * o22 + (2 * v1 * v2 if a1 & 2 and a2 & 1 else 0)
            pal = v1 * o11 + v2 * o22
        return self.labeled_count(k, end) - (both - pal) // 2

    def chains(
        self,
        k: int | None = None,
        end: int | None = None,
        dedup: bool = False,
        limit: int | None = None,
    ) -> Iterator[LinkVector]:
        """All optimal chains at k squares, depth-first, each exactly once.

        Discovery walks the predecessor DAG backwards (link 1 explored
        first), so the first chain yielded equals `witness`.  The cost
        is proportional to (chains emitted) x k: output-sensitive.
        With ``dedup`` the first-seen member of each mirror pair is
        kept; ``limit`` caps the number of chains yielded.
        """
        k = self.n if k is None else k
        self._check_k(k)
        if self._first > 3:
            raise ValueError("streaming table cannot enumerate chains (keep_table=False)")
        if end is not None:
            self._check_end(end)
        ends = (end,) if end is not None else self.winning_ends(k)
        seen: set[tuple[int, ...]] = set()
        emitted = 0
        for e in ends:
            for links in self._chains_for_end(k, e):
                if dedup:
                    key = canonical_reversal(links).links
                    if key in seen:
                        continue
                    seen.add(key)
                if limit is not None and emitted >= limit:
                    return
                emitted += 1
                yield LinkVector(links)

    def _chains_for_end(self, k: int, end: int) -> Iterator[tuple[int, ...]]:
        if k == 3:
            yield (end,)
            return
        codes = (None,) + self._preds  # indexed by link
        buf = [0] * (k - 2)
        buf[-1] = end
        stack = [iter(_PRED_LINKS[codes[end][k - 3]])]
        while stack:
            nxt = next(stack[-1], None)
            if nxt is None:
                stack.pop()
                continue
            pos = k - len(stack)  # square whose link is being fixed
            buf[pos - 3] = nxt
            if pos == 3:
                yield tuple(buf)
            else:
                stack.append(iter(_PRED_LINKS[codes[nxt][pos - 3]]))


def _derive_ties(preds1: bytearray, preds2: bytearray) -> tuple[list[int], list[int]]:
    """Tie counts of every row of a full table, from its predecessor codes."""
    t1 = t2 = 0
    ties1, ties2 = [0], [0]
    for c1, c2 in zip(preds1[1:], preds2[1:]):
        t1, t2 = (
            t1 if c1 == 1 else t2 if c1 == 2 else 1 + t1 + t2,
            t1 if c2 == 1 else t2 if c2 == 2 else 1 + t1 + t2,
        )
        ties1.append(t1)
        ties2.append(t2)
    return ties1, ties2


def _compose(x: tuple, y: tuple) -> tuple:
    """The affine map x after y, each kept as the top two rows of its 3x3
    integer matrix over (t1, t2, 1), whose last row is (0, 0, 1)."""
    (a, b, c), (d, e, f) = x
    (g, h, i), (j, k, l) = y
    return ((a * g + b * j, a * h + b * k, a * i + b * l + c),
            (d * g + e * j, d * h + e * k, d * i + e * l + f))


def _power(m: tuple, e: int) -> tuple:
    """The affine map m applied e times, by squaring."""
    out = ((1, 0, 0), (0, 1, 0))
    while e:
        if e & 1:
            out = _compose(out, m)
        e >>= 1
        if e:  # no squaring past the top bit: the entries can be n bits wide
            m = _compose(m, m)
    return out


def _tie_steps(t: tuple, first: tuple, second: tuple, rows: int) -> tuple:
    """Tie counts t = (t1, t2) carried over `rows` rows whose pairs of
    tie maps alternate first, second, first, ..."""
    half, odd = divmod(rows, 2)
    step = _power(_compose(second, first), half)
    if odd:
        step = _compose(first, step)
    return tuple(a * t[0] + b * t[1] + c for a, b, c in step)


def _chunk(m1: float, m2: float, g: tuple, pattern: tuple, rows: int, eps: float):
    """The values (V1, V2) of a float table's rows k..k + rows, given
    row k's values m1, m2, when each later row repeats the decisions of
    the rows in `pattern` in turn; None unless every decision is proved.

    A pattern row is (code 1, code 2, end 1 keeps its a, end 2 keeps its
    a), so each end takes its value from one end of the row before:
    g[s][i] is the increment from end s to end i.  Values go with the
    same IEEE additions as the per-row loop: `accumulate` along the
    chain, the lineage that runs through every row, and `map(add)` for
    the other end, or a second `accumulate` when every row maps the two
    ends one-to-one.  Each decision is then checked on D = a - b, its
    two candidate sums' difference, against bounds on the loop's
    threshold eps * max(1, |a|, |b|).  One of a and b is the value kept,
    and the other, cand, is a value of end s plus g[s][i]: rounding is
    monotone, so cand lies between end s's least and greatest values
    plus g[s][i].
    """
    if not (math.isfinite(m1) and math.isfinite(m2)):
        return None
    p = len(pattern)
    src = [(0, 2 - s1, 2 - s2) for _, _, s1, s2 in pattern]  # end i's source end
    a1, a2 = 1, 2  # ancestors one period back of ends 1 and 2
    for r in reversed(range(p)):
        a1, a2 = src[r][a1], src[r][a2]
    # the chain's end c[t % span] at row k + t: a fixed end once a period,
    # or end 1 once two periods when each period swaps the ends
    span = 2 * p if (a1, a2) == (2, 1) else p
    c = [a1 if a1 == a2 else 1] * (span + 1)
    for j in reversed(range(span)):
        c[j] = src[j % p][c[j + 1]]
    incs, other_incs, fed = [], [], []  # per row of the span
    for j in range(span):
        o = 3 - c[j + 1]  # the other end, and its parent s
        s = src[j % p][o]
        incs.append(g[c[j]][c[j + 1]])
        other_incs.append(g[s][o])
        fed.append(s == c[j])  # by the chain, or else by the other end
    chain = list(accumulate(islice(cycle(incs), rows), initial=(0, m1, m2)[c[0]]))
    if not any(fed):  # two chains
        other = list(accumulate(islice(cycle(other_incs), rows), initial=(0, m2, m1)[c[0]]))
    else:  # rows fed by the chain first, then the rows fed by them
        other = [(0, m2, m1)[c[0]]] * (rows + 1)
        for by_chain in (True, False):
            for j in range(span):
                if fed[j] == by_chain:
                    other[j + 1::span] = map(add, (chain if by_chain else other)[j:rows:span],
                                             repeat(other_incs[j]))
    v1, v2 = (chain, other) if c[0] == 1 else (other, chain)
    for j in range(1, span):
        if c[j] != c[0]:
            v1[j::span], v2[j::span] = v2[j::span], v1[j::span]
    # with one increment a row each list is monotone from row k + 1 on,
    # as rounding is, so its least and greatest values sit at its ends
    w1, w2 = ((v[0], v[1], v[-1]) for v in (v1, v2)) if span == 1 else (v1, v2)
    lo1, hi1, lo2, hi2 = bounds = min(w1), max(w1), min(w2), max(w2)
    if not all(map(math.isfinite, bounds)):
        return None
    vals, lo, hi = (None, v1, v2), (0, lo1, lo2), (0, hi1, hi2)
    for r, row in enumerate(pattern):
        before = (None, v1[r:rows:p], v2[r:rows:p])  # rows k + r, k + r + p, ...
        for i in (1, 2):
            code, keeps_a = row[i - 1], row[i + 1]
            s = 1 + keeps_a  # the side the value did not come from
            cand = map(add, before[s], repeat(g[s][i]))
            mine = vals[i][r + 1::p]
            d = map(sub, mine, cand) if keeps_a else map(sub, cand, mine)  # D = a - b
            low, high = lo[s] + g[s][i], hi[s] + g[s][i]  # cand's range
            if code < 3:  # the threshold is at most eps * max(1, |mine|, |cand|)
                top = eps * max(1.0, hi[i], -lo[i], high, -low)
                ok = min(d) > top if code == 1 else max(d) < -top
            else:  # and at least eps * max(1, |mine|) and eps * max(1, |cand|)
                d, bottom = list(d), eps * max(1.0, lo[i], -hi[i], low, -high)
                if keeps_a:  # a tie keeping a needs a >= b: D = -0.0 means a == b
                    ok = min(d) >= 0 and max(d) <= bottom
                else:
                    ok = max(d) < 0 and min(d) >= -bottom
            if not ok:
                return None
    return v1, v2


def _build(f: IndexFunction, gt: IncrementTable, n: int, keep: bool) -> DPTable:
    G11, G12, G21, G22 = gt.g11, gt.g12, gt.g21, gt.g22
    m1, m2 = gt.initial(1), gt.initial(2)
    den, eps = None, f.eps
    if f.mode == RATIONAL:  # exact integers: values times the common denominator
        den = math.lcm(*(Fraction(v).denominator for v in (G11, G12, G21, G22, gt.g2, gt.base)))
        G11, G12, G21, G22, m1, m2 = (int(v * den) for v in (G11, G12, G21, G22, m1, m2))
        eps = 0
    g = (None, (None, G11, G12), (None, G21, G22))
    t1 = t2 = 0
    p1 = p2 = 0
    vals1, vals2 = (array("d", (m1,)), array("d", (m2,))) if eps else ([m1], [m2])
    preds1, preds2 = bytearray(1), bytearray(1)
    av1, av2 = vals1.append, vals2.append
    ap1, ap2 = preds1.append, preds2.append
    r1 = r2 = None  # rational mode: rows k - 1 and k - 2 as (m1, m2, p1, p2)
    period = None
    runs = []
    # float mode: rows k - 1 and k as (p1, p2, end 1 keeps a, end 2 keeps a),
    # how many rows in succession repeat the row two before, the tie maps
    # and row count of the chunks since the last step, and the chunk size
    h2 = h1 = None
    steady, pending, size, chunked = 0, None, _CHUNK_MIN, 0
    k = 3
    while k < n:  # row k -> row k + 1
        if steady > 1 and n - k >= _CHUNK_MIN:
            rows = min(size, n - k)
            chunk = _chunk(m1, m2, g, (h2,) if h1 == h2 else (h2, h1), rows, eps)
            if chunk is None:
                size = max(size // 2, _CHUNK_MIN)
            else:  # rows k + 1 .. k + rows repeat rows k - 1 and k
                v1, v2 = chunk
                m1, m2 = v1[-1], v2[-1]
                if keep:
                    vals1.fromlist(v1[1:])
                    vals2.fromlist(v2[1:])
                    preds1 += (bytes((h2[0], h1[0])) * (rows // 2 + 1))[:rows]
                    preds2 += (bytes((h2[1], h1[1])) * (rows // 2 + 1))[:rows]
                if pending:
                    pending[2] += rows
                    runs[-1][1] = k + rows
                else:
                    pending = [(_TIE_ROWS[h2[0]], _TIE_ROWS[h2[1]]),
                               (_TIE_ROWS[h1[0]], _TIE_ROWS[h1[1]]), rows]
                    runs.append([k - 1, k + rows])
                if rows % 2:
                    h2, h1 = h1, h2
                p1, p2 = h1[:2]
                k += rows
                chunked += rows
                size = min(2 * size, _CHUNK_MAX)
                continue
        if pending:
            t1, t2 = _tie_steps((t1, t2), *pending)
            pending = None
        if not eps:
            d = m1 - m2
            if r2 and d == r2[0] - r2[1]:
                period = (k - 1, 1 if d == r1[0] - r1[1] else 2)
                break
            r2, r1 = r1, (m1, m2, p1, p2)
        # each end's two candidates tie by values_equal's formula (exact
        # equality when eps is 0); a tie keeps the larger one
        a1, b1 = m1 + G11, m2 + G21
        if a1 == b1 or eps and abs(a1 - b1) <= eps * max(1.0, abs(a1), abs(b1)):
            w1, p1, nt1 = a1 if a1 >= b1 else b1, 3, 1 + t1 + t2
        elif a1 > b1:
            w1, p1, nt1 = a1, 1, t1
        else:
            w1, p1, nt1 = b1, 2, t2
        a2, b2 = m1 + G12, m2 + G22
        if a2 == b2 or eps and abs(a2 - b2) <= eps * max(1.0, abs(a2), abs(b2)):
            w2, p2, nt2 = a2 if a2 >= b2 else b2, 3, 1 + t1 + t2
        elif a2 > b2:
            w2, p2, nt2 = a2, 1, t1
        else:
            w2, p2, nt2 = b2, 2, t2
        m1, m2, t1, t2 = w1, w2, nt1, nt2
        if keep:
            av1(m1)
            av2(m2)
            ap1(p1)
            ap2(p2)
        if eps:
            row = (p1, p2, w1 is a1, w2 is a2)
            steady = steady + 1 if row == h2 else 0
            h2, h1 = h1, row
        k += 1
    if pending:
        t1, t2 = _tie_steps((t1, t2), *pending)
    shift = 0
    if period is not None:
        # Rows k - 1 and k repeat for ever, two rows on and `shift` higher:
        # d at row k equals d at row k - 2, and the step out of a row
        # depends on its d alone, so row k + 1 is row k - 1 (codes q1, q2)
        # raised by row k's rise over row k - 2.  The values stop at row
        # k; `DPTable.value` reads the later rows.
        (v1, v2, q1, q2), shift = r1, m1 - r2[0]
        half, odd = divmod(n - k, 2)  # rows k + 1 .. n: whole periods, then maybe one row
        t1, t2 = _tie_steps((t1, t2), (_TIE_ROWS[q1], _TIE_ROWS[q2]),
                            (_TIE_ROWS[p1], _TIE_ROWS[p2]), n - k)
        if keep:  # rows k + 1 .. n take the codes of rows k - 1 and k in turn
            preds1 += (bytes((q1, p1)) * (half + 1))[:n - k]
            preds2 += (bytes((q2, p2)) * (half + 1))[:n - k]
        if odd:  # row n repeats row k - 1
            m1, m2, p1, p2 = v1 + shift, v2 + shift, q1, q2
        m1, m2 = m1 + half * shift, m2 + half * shift
        runs.append([k - 1, n])
    if not keep:
        vals1, vals2, preds1, preds2 = [m1], [m2], bytearray((p1,)), bytearray((p2,))
    return DPTable(f, n, den, (vals1, vals2), (preds1, preds2), (t1, t2), runs,
                   k - 3 - chunked, period, shift)


def run_dp(f: IndexFunction, n: int, *, keep_table: bool = True) -> DPTable:
    """Forward pass to n squares: linear time and O(n) memory even for
    tie-heavy indices, 2n bytes of predecessor codes plus the values
    (O(1) when ``keep_table=False``, which keeps only the row for n and
    so disables witnesses and enumeration).  Two candidates that are
    `values_equal` under ``f.eps`` tie: the entry gets predecessor code
    3 and the larger of the two values.  A float optimum at n that
    overflows to inf or NaN is refused with ValueError.

    A rational pass exits at the first row k whose d = m1 - m2 equals
    d at row k - 2: every later row repeats one of rows k - 1 and k,
    shifted, so the values stop at row k and only the codes are written
    on (see the module docstring and `DPTable.period`).  That costs k
    Python steps and k values per end plus one n-byte fill per end, or
    O(k + log n) steps streaming, with k <= 9 for the rational presets.
    Rational passes whose d does not repeat below row n run the loop to
    n and store n values per end.  Float passes store n values per end
    too, in `array('d')`, but step row by row only through the transient
    and between steady runs, which they take in proved chunks."""
    if n < 3:
        raise ValueError(f"dynamic program needs n >= 3, got {n}")
    table = _build(f, increment_table(f), n, keep_table)
    if f.mode == FLOAT:
        for end in (1, 2):
            check_finite(table.value(n, end), f"the optimum at n = {n}")
    return table


@dataclass(frozen=True)
class ExtremalResult:
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
    f: IndexFunction, table: DPTable, objective: str, end: int | None, count_iso: bool
) -> ExtremalResult:
    """Read one extremal result for index f at `table.n` squares.

    `table` is a table of f for MAX or of `negate(f)` for MIN; the
    signs of the values are flipped here (CLI `table` flips its min
    column the same way).
    """
    n = table.n
    sign = 1 if objective == MAX else -1
    ends = (end,) if end is not None else table.winning_ends()
    return ExtremalResult(
        objective=objective,
        n=n,
        value=sign * table.value(n, ends[0]),
        per_end={e: sign * table.value(n, e) for e in (1, 2)},
        witness=table.witness(end=ends[0]),
        labeled_count=table.labeled_count(n, end),
        iso_count=table.iso_count(n, end) if count_iso else None,
        index_name=f.name,
        mode=f.mode,
        tolerance_dependent=f.mode == FLOAT,
    )


def maximize(
    f: IndexFunction, n: int, end: int | None = None, *, count_iso: bool = False
) -> ExtremalResult:
    """Maximum index value over n-square chains, with one witness chain.

    With `end` the search is restricted to chains whose last link has
    that type.  Witness ties are broken toward link 1 at every level
    (and toward ending link 1), making the result deterministic.
    """
    return _extremal(f, run_dp(f, n), MAX, end, count_iso)


def minimize(
    f: IndexFunction, n: int, end: int | None = None, *, count_iso: bool = False
) -> ExtremalResult:
    """Minimum index value over n-square chains: maximize the negation."""
    return _extremal(f, run_dp(negate(f), n), MIN, end, count_iso)


def enumerate_maximal(
    f: IndexFunction,
    n: int,
    end: int | None = None,
    limit: int | None = None,
    dedup: bool = False,
) -> Iterator[LinkVector]:
    """Stream every maximal chain exactly once (see `DPTable.chains`)."""
    table = run_dp(f, n)
    yield from table.chains(end=end, dedup=dedup, limit=limit)


def count_maximal(f: IndexFunction, n: int, end: int) -> int:
    """Number of distinct maximal chains ending with the given link."""
    if end not in (1, 2):
        raise ValueError(f"end link must be 1 or 2, got {end!r}")
    return run_dp(f, n, keep_table=False).labeled_count(n, end)


CASE_LINEAR_ALWAYS = "linear-always"
CASE_LINEAR_FROM_4 = "linear-from-4-tie-at-3"
CASE_ZIGZAG_THEN_LINEAR = "zigzag-then-linear"
CASE_NOT_APPLICABLE = "not-applicable"


@dataclass(frozen=True)
class ClassifierVerdict:
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

    A strict premise inequality fails between `values_equal` increments,
    so in float mode it needs a gap wider than the tolerance.
    """
    gt = increment_table(f)
    g11, g12, g21, g22, g2 = gt.g11, gt.g12, gt.g21, gt.g22, gt.g2
    half_sum = (g12 + g21) / 2
    premise = all(g11 > x and not values_equal(g11, x, f.eps) for x in (g12, g22, half_sum))
    if not premise:
        return ClassifierVerdict(premise_holds=False, case=CASE_NOT_APPLICABLE)
    if values_equal(g11, g2, f.eps):
        return ClassifierVerdict(premise_holds=True, case=CASE_LINEAR_FROM_4)
    if g11 > g2:
        return ClassifierVerdict(premise_holds=True, case=CASE_LINEAR_ALWAYS)
    # threshold via exact rational ceiling (floats convert exactly)
    num = Fraction(g2) - Fraction(g11)
    dem = Fraction(g11) - Fraction(g22)
    if dem <= 0:
        raise RuntimeError("classifier invariant violated: premise guarantees g11 > g22")
    n_star = math.ceil(num / dem + 3)
    linear_at = gt.base + (n_star - 2) * g11
    zigzag_at = gt.base + g2 + (n_star - 3) * g22
    return ClassifierVerdict(
        premise_holds=True,
        case=CASE_ZIGZAG_THEN_LINEAR,
        n_star=n_star,
        tie_at_threshold=values_equal(linear_at, zigzag_at, f.eps),
    )
