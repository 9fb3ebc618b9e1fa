"""Exhaustive ground truth for small square counts.

Evaluates every one of the 2**(n-2) link vectors from its chain graph
alone, never from the increment recurrence or the dynamic program, so
that agreement with the engine is meaningful evidence rather than
circular.

Cost model.  A chain's index value depends only on its degree-pair
vector: how many edges join corners of degrees (2,2), (2,3), ...,
(4,4), in `DEGREE_PAIRS` order.  That vector does not depend on the
index, so `census(n)` takes it once per n, by a depth-first walk of the
link tree on the same corner graph `evaluate_direct` reads
(`chains._CornerGraph`).  A node reads both children's vectors off its
last square's corners in O(1), with the graph's `up` and `join` tables
as local arithmetic: three sums over a corner's neighbours, the one at
the corner both sides share taken once.  It glues a child's square on
in place only to go deeper and takes it off on the way back.  A node
two links above the chains values its four grandchildren itself, so no
chain is glued and the walk makes about one frame per two chains.  The
census keeps the distinct vectors (98 at n = 14, 135 at n = 16) and,
per vector and last link, the lexicographic positions of its chains,
ascending, in the arrays the walk appends them to: 2 bytes a chain, 4
past n = 18, and nothing else per chain.  It is built on
first use and cached per n, so every index and every sweep at that n
shares it.  A sweep then values each distinct vector once, as an int:
its dot product with the index's scaled entries (`IndexFunction.scaled`,
exact in both modes).  Per result set, builtin max/min pick the extreme
over the vectors present, `IndexFunction.ties` marks the values that tie
it among those an exact bound leaves in a window around it (`_tying`, a
bisection of the values sorted once), and the tying groups merge into
the set in lexicographic order: after the census a sweep costs
O(distinct vectors) plus its output.  A chain in a set is its position's
binary digits translated to link bytes, which its `LinkVector` keeps.
The extreme is read back by `IndexFunction.read`, a float one as the
exact extreme correctly rounded.
`cross_check` compares the engine's and the oracle's sets of
`LinkVector`s and sorts their words only to describe a mismatch.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from functools import cache
from itertools import chain, compress
from operator import mul
from typing import NamedTuple

from .chains import LinkVector, _CornerGraph, canonical_reversal
from .indices import (
    IndexFunction,
    Value,
    _value_json,
    check_finite,
    evaluate_direct,
    values_equal,
)

__all__ = ["OracleReport", "DEFAULT_CAP", "census", "exhaustive", "cross_check"]

DEFAULT_CAP = 24


@cache
def census(n: int) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[memoryview, ...], ...]]:
    """Degree-pair vectors of every n-square chain (n >= 2), grouped.

    Returns the distinct vectors (counts in `DEGREE_PAIRS` order) and the
    chain groups: ``groups[e - 1][vid]`` is a read-only view of an
    ``array`` ('H', or 'I' past n = 18) holding, ascending, the positions
    of the chains with last link e and vector id vid, a chain's position
    being its rank in the lexicographic order of
    `itertools.product((1, 2), repeat=n - 2)`.  Vector ids follow that
    order too: vector vid is the vid-th distinct vector met reading the
    chains from position 0 up.  One corner graph walks the link tree
    depth first, link 1 before link 2, carrying a node's packed counts
    and position down as values.  The result is cached and shared by
    every caller.
    """
    if n < 2:
        raise ValueError(f"a chain needs at least 2 squares, got n={n}")
    graph = _CornerGraph(n)
    deg, nbrs, up, join = graph.deg, graph.nbrs, graph.up, graph.join
    seen: dict[int, int] = {}  # packed counts -> vector id
    code = "H" if n <= 18 else "I"  # the narrowest type for positions below 2**(n - 2)
    groups: tuple[list[array], list[array]] = ([], [])  # per last link, per vector id
    ends1, ends2 = groups

    def place(end: int, counts: int, pos: int) -> None:
        # off the walk's fast path: a vector's first chain, and the chains of n <= 3
        if counts not in seen:
            seen[counts] = len(seen)
            for column in groups:
                column.append(array(code))
        groups[end][seen[counts]].append(pos)

    def visit(depth: int, pos: int, counts: int, cell: int, right: bool) -> None:
        # pos: the node's links so far as binary digits, link 1 as 0.  Each
        # child's counts add `_CornerGraph.delta`, read inline, of the side
        # of the last square it is glued to: se-ne going east, sw-se going
        # south; the up terms at se are common to both
        ne = cell ^ 1
        se = ne + 2
        d = deg[se]
        u = up[d]
        shared = counts
        for w in nbrs[se]:
            shared += u[deg[w]]
        e = deg[ne]
        u = up[e]
        east = shared + join[d][e]
        for w in nbrs[ne]:
            east += u[deg[w]]
        e = deg[cell]
        u = up[e]
        south = shared + join[e][d]
        for w in nbrs[cell]:
            south += u[deg[w]]
        # per child: counts, side s1 s2, far corners t1 t2 (t1 joined to s1), cell, right
        below = cell + 2
        east = (east, se, ne, cell + 4, below, se, True)
        south = (south, cell, se, below, ne + 4, below, False)
        for link, (child, s1, s2, t1, t2, cell, right) in enumerate(
                (east, south) if right else (south, east), 2 * pos):
            deg[s1] += 1  # glue the child's square on, as `_CornerGraph.grow`
            deg[s2] += 1
            deg[t1] = deg[t2] = 2
            nbrs[s1].append(t1)
            nbrs[s2].append(t2)
            nbrs[t1] = [s1, t2]
            nbrs[t2] = [s2, t1]
            if depth < grandparents:
                visit(depth + 1, link, child, cell, right)
            else:  # the child's children are chains: value them as above, gluing none
                ne = cell ^ 1
                se = ne + 2
                d = deg[se]
                u = up[d]
                shared = child
                for w in nbrs[se]:
                    shared += u[deg[w]]
                e = deg[ne]
                u = up[e]
                east = shared + join[d][e]
                for w in nbrs[ne]:
                    east += u[deg[w]]
                e = deg[cell]
                u = up[e]
                south = shared + join[e][d]
                for w in nbrs[cell]:
                    south += u[deg[w]]
                first, second = (east, south) if right else (south, east)
                pos = 2 * link
                try:
                    ends1[seen[first]].append(pos)
                except KeyError:
                    place(0, first, pos)
                try:
                    ends2[seen[second]].append(pos + 1)
                except KeyError:
                    place(1, second, pos + 1)
            nbrs[s1].pop()  # take the square off again; its far corners go stale
            nbrs[s2].pop()
            deg[s1] -= 1
            deg[s2] -= 1

    counts, cell, right = graph.start
    grandparents = n - 4  # the depth whose grandchildren are chains
    if n == 2:
        place(0, counts, 0)
    elif n == 3:  # the two chains are the start's children
        for end, (s1, s2, *_) in enumerate(graph.sides(cell, right)):
            place(end, counts + graph.delta(s1, s2), end)
    else:
        visit(0, 0, counts, cell, right)
    empty = memoryview(array(code)).toreadonly()  # one for every empty group: a view is 320 bytes
    views = tuple(tuple(memoryview(group).toreadonly() if group else empty
                        for group in column) for column in groups)
    return tuple(map(graph.unpack, seen)), views


_LINK_DIGITS = bytes.maketrans(b"01", b"\1\2")


def _word(pos: int, m: int) -> bytes:
    """The m-link word at lexicographic position pos: its m binary digits, 0 as link 1."""
    return format(pos, f"0{m}b").encode().translate(_LINK_DIGITS)


class OracleReport(NamedTuple):
    """Extrema and argument sets from one exhaustive sweep."""

    n: int
    index_name: str
    mode: str
    max_value: Value
    min_value: Value
    argmax: tuple[LinkVector, ...]
    argmin: tuple[LinkVector, ...]
    per_end_max: dict[int, Value]
    per_end_argmax: dict[int, tuple[LinkVector, ...]]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "index": self.index_name,
            "mode": self.mode,
            "max": _value_json(self.max_value),
            "min": _value_json(self.min_value),
            "argmax": [list(c) for c in self.argmax],
            "argmin": [list(c) for c in self.argmin],
            "per_end_max": {str(e): _value_json(v) for e, v in self.per_end_max.items()},
            "per_end_argmax": {
                str(e): [list(c) for c in chains] for e, chains in self.per_end_argmax.items()
            },
        }


def exhaustive(f: IndexFunction, n: int, cap: int = DEFAULT_CAP) -> OracleReport:
    """Evaluate every n-square chain and report extrema and their chains.

    Chains are valued as ints over the index's scaled entries.  Each
    result set then holds every chain whose value ties the extreme under
    `IndexFunction.ties`: equal to it for rational tables, within
    `values_equal`'s tolerance ``f.eps`` of it, taken exactly, for float
    tables, whose extremes are the exact ones correctly rounded.  A
    float extreme past the float range is refused with ValueError.
    Refuses square counts above `cap` (default 24) because the census of
    n walks 2**(n-2) chains and keeps about 4 bytes per chain; raise the
    cap explicitly if you really mean it.
    """
    if n < 3:
        raise ValueError(f"exhaustive sweep needs n >= 3, got {n}")
    if n > cap:
        raise ValueError(
            f"n={n} exceeds the oracle cap {cap}: would evaluate 2**{n - 2} "
            "chains; pass a larger cap to override"
        )
    vectors, groups = census(n)
    m = n - 2
    values = [sum(map(mul, v, f.scaled)) for v in vectors]
    everyone = range(len(values))
    order = sorted(everyone, key=values.__getitem__)
    tied: dict[int, list[int]] = {}  # per extreme, the ids of the values that tie it

    def select(pick, ends):
        # every census vector occurs among all chains, not all in one end's half
        present = everyone if len(ends) == 2 else list(compress(everyone, groups[ends[0] - 1]))
        best = pick(map(values.__getitem__, present))
        if best not in tied:
            tied[best] = _tying(f, values, order, best)
        # a vector absent from an end has an empty group there; each group is
        # ascending, so the merge sorts a few sorted runs
        hits = sorted(chain.from_iterable(groups[e - 1][vid] for vid in tied[best] for e in ends))
        chains = tuple(LinkVector._of(_word(pos, m)) for pos in hits)
        return check_finite(f.read(best), "index value"), chains

    max_value, argmax = select(max, (1, 2))
    min_value, argmin = select(min, (1, 2))
    per_end = {end: select(max, (end,)) for end in (1, 2)}
    return OracleReport(
        n=n,
        index_name=f.name,
        mode=f.mode,
        max_value=max_value,
        min_value=min_value,
        argmax=argmax,
        argmin=argmin,
        per_end_max={e: value for e, (value, _) in per_end.items()},
        per_end_argmax={e: chains for e, (_, chains) in per_end.items()},
    )


def _tying(f: IndexFunction, values: list[int], order: list[int], best: int) -> list[int]:
    """The ids of the values that tie `best` under `IndexFunction.ties`,
    ``order`` being the ids sorted by value.  For eps = p / q < 1 a tie
    needs |a - best| * (q - p) <= p * max(den, |best|), as max(den, |a|,
    |best|) is at most max(den, |best|) + |a - best|, so only the values
    in that window are tested: the equal ones for a rational table
    (p = 0).  A larger tolerance tests every value."""
    p, q = f.tol
    if p < q:
        width, key = p * max(f.den, abs(best)) // (q - p), values.__getitem__
        order = order[bisect_left(order, best - width, key=key):
                      bisect_right(order, best + width, key=key)]
    return [vid for vid in order if f.ties(values[vid], best)]


def cross_check(f: IndexFunction, n: int, cap: int = DEFAULT_CAP) -> tuple[bool, list[str]]:
    """Compare the dynamic program against the exhaustive sweep.

    Checks global max/min values, per-end values, argmax sets, labeled
    counts, mirror-class counts and witness soundness.  `dp._extremal`
    gives the values, witness and labeled count of each objective and
    the kept `dp.run_dp` table it read them from, one of f for the max
    and one of the negated index for the min.  The tables give the
    argmax, per-end argmax and argmin sets through `DPTable.chains`, their
    mirror-class counts through `DPTable.iso_count` and the per-end
    counts through `DPTable.labeled_count`.  The oracle side counts
    mirror classes of its own sets with `canonical_reversal`.  Values are
    compared with ``==`` in both modes, since both sides are correctly
    rounded exact sums.  Returns (ok, mismatches); mismatches are
    descriptions, not exceptions.
    """
    from . import dp  # local import keeps the sweep itself engine-free

    report = exhaustive(f, n, cap)
    mismatches: list[str] = []

    def check(label: str, ok: bool, expected, actual) -> None:
        if not ok:
            mismatches.append(f"{label}: oracle {expected!r} vs engine {actual!r}")

    def check_set(label: str, oracle_chains, engine_chains) -> set[LinkVector]:
        # the words are sorted as tuples only to describe a mismatch
        want, got = set(oracle_chains), set(engine_chains)
        if want != got:
            check(label, False, sorted(c.links for c in want), sorted(c.links for c in got))
        return want

    def check_classes(label: str, chains: tuple[LinkVector, ...], actual: int) -> None:
        expected = len({canonical_reversal(c) for c in chains})
        check(label, expected == actual, expected, actual)

    res_max, max_table = dp._extremal(f, n, dp.MAX, None, False)
    res_min, min_table = dp._extremal(f, n, dp.MIN, None, False)
    check("max value", res_max.value == report.max_value, report.max_value, res_max.value)
    check("min value", res_min.value == report.min_value, report.min_value, res_min.value)
    witness_value = evaluate_direct(res_max.witness, f)
    # a witness may follow a tied edge, up to eps below the optimum
    check("witness attains max", values_equal(witness_value, report.max_value, f.eps),
          report.max_value, witness_value)
    argmax = check_set("argmax set", report.argmax, max_table.chains())
    check("labeled count", len(argmax) == res_max.labeled_count,
          len(argmax), res_max.labeled_count)
    check_classes("mirror classes", report.argmax, max_table.iso_count(n))
    check_set("argmin set", report.argmin, min_table.chains())
    check_classes("argmin mirror classes", report.argmin, min_table.iso_count(n))
    for end in (1, 2):
        value = res_max.per_end[end]
        check(f"end-{end} max value", value == report.per_end_max[end],
              report.per_end_max[end], value)
        oracle_set = check_set(f"end-{end} argmax set", report.per_end_argmax[end],
                               max_table.chains(end=end))
        check_classes(f"end-{end} mirror classes", report.per_end_argmax[end],
                      max_table.iso_count(n, end))
        count = max_table.labeled_count(n, end)
        check(f"end-{end} maximal count", count == len(oracle_set), len(oracle_set), count)
    return (not mismatches, mismatches)
