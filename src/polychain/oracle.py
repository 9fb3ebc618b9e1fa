"""Exhaustive ground truth for small square counts.

Evaluates every one of the 2**(n-2) link vectors from its chain graph
alone, never from the increment recurrence or the dynamic program, so
that agreement with the engine is meaningful evidence rather than
circular.

Cost model.  A chain's index value depends only on its degree-pair
vector: how many edges join corners of degrees (2,2), (2,3), ..., (4,4),
in `DEGREE_PAIRS` order.  That vector does not depend on the index, so
`census(n)` takes it once per n, over the table `evaluate_direct` walks
(`chains._table`), the corner graph as a 5-state automaton: a state and
a link fix the child's state and change of vector.  The census expands
the 2**a prefixes of a = (n - 2) // 2 links over the table a level at a
time, and the b = n - 2 - a links below each state they reach once, a
part, which every prefix in that state replays with its counts and
position: about 2**(n/2) table steps, and one pass over prefixes times
part entries that numbers the distinct vectors (98 at n = 14, 135 at
n = 16).  A part keeps its positions in one array, cut by count change
and last link.  A group, the ascending lexicographic positions of the
chains of one vector and last link (2 bytes a chain, 4 past n = 18), is
built when first read, at one dict lookup a prefix plus its chains, and
kept; once every group is built, the prefixes are let go.  The census
is built on first use and cached per n, so every index and every sweep
at that n shares it, and the parts, a pure function of b and the
packing width cached for the last pair (`_parts`), serve the next
census with the same b.  A sweep then values each distinct vector once,
as an int: its dot product with the index's scaled entries
(`IndexFunction.scaled`, exact in both modes).
Per result set, builtin max/min pick the extreme over the vectors
present, the values that tie it are scanned for, equal ones in a
rational table, else the ones an exact bound leaves in a window of the
values sorted once (`_tying`), and the tying groups merge into the set in
lexicographic order: after the census a sweep costs O(distinct vectors)
plus its output, and a lookup a prefix for each group it reads first.  A
chain in a set is its position's binary digits translated to link bytes,
which its `LinkVector` keeps.  The extreme is read back by
`IndexFunction.read`, a float one as the exact extreme correctly
rounded.
`cross_check` compares the byte words of the engine's and the oracle's
sets and sorts them only to describe a mismatch.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from functools import cache, lru_cache
from itertools import accumulate, chain, count
from operator import add
from typing import NamedTuple

from .chains import LinkVector, _counts_width, _table, _unpack
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
def census(n: int) -> tuple[tuple[tuple[int, ...], ...], tuple["_Groups", "_Groups"]]:
    """Degree-pair vectors of every n-square chain (n >= 2), grouped.

    Returns the distinct vectors (counts in `DEGREE_PAIRS` order) and the
    chain groups: ``groups[e - 1][vid]`` is a read-only view of an
    ``array`` ('H', or 'I' past n = 18) holding, ascending, the positions
    of the chains with last link e and vector id vid, built on its first
    read and then kept, a chain's position being its rank in the
    lexicographic order of `itertools.product((1, 2), repeat=n - 2)`.
    Vector ids follow that order too: vector vid is the vid-th distinct
    vector met reading the chains from position 0 up.
    ``groups[e - 1].present`` lists, ascending, the ids of the vectors
    some chain with last link e has.  The prefixes of a = (n - 2) // 2
    links are expanded over the corner graph's table, the b = n - 2 - a
    links below them by `_part` once per state, and every prefix adds its
    packed counts and ``prefix << b`` to the part of its state.  A part
    depends on its state, b and the packing width alone, so `_parts`
    keeps those of the last b and width asked for.
    The result is cached and shared by every caller.
    """
    if n < 2:
        raise ValueError(f"a chain needs at least 2 squares, got n={n}")
    width = _counts_width(n)
    table = _table(width)
    a = (n - 2) // 2
    b = n - 2 - a
    states, counts_at = _expand(table, [0], [table[0]], a)  # per prefix, in lexicographic order
    part_at = list(map(_parts(width, b).__getitem__, states))  # per prefix, the part of its state
    # ids in the order the chains first meet their vectors: prefix by prefix,
    # each part's changes in the order its own chains first meet them
    packed = list(dict.fromkeys(chain.from_iterable(
        map(counts.__add__, part[0]) for counts, part in zip(counts_at, part_at))))
    ids = {counts: vid for vid, counts in enumerate(packed)}
    present = [sorted(map(ids.__getitem__, set(chain.from_iterable(
        map(counts.__add__, part[3][end]) for counts, part in zip(counts_at, part_at)))))
        for end in (0, 1)]
    code = "H" if n <= 18 else "I"  # the narrowest type for positions below 2**(n - 2)
    prefixes = (1 << b, counts_at, part_at)
    groups = tuple(_Groups(code, end, packed, prefixes, present[end]) for end in (0, 1))
    return tuple(_unpack(counts, width) for counts in packed), groups


@lru_cache(maxsize=1)
def _parts(width: int, b: int) -> tuple[tuple, ...]:
    """Per state, its `_part` of b links with counts packed `width` bits
    a pair, for the last (width, b) asked for: census(2k + 1) and
    census(2k + 2) share them, as 6k + 4 and 6k + 7 have one bit length."""
    table = _table(width)
    states = len(table[1][0])  # link 1's next states, one a state
    return tuple(_part(table, state, b) for state in range(states))


class _Groups:
    """One last link's chain groups, indexed by vector id, each built
    from the prefixes on its first read and then kept: per prefix, one
    lookup of the vector's counts less the prefix's in its part, and
    the positions found, shifted by the prefix.  The vectors no chain
    with that last link has share one empty view.  Once every present
    group is built, the prefixes are let go."""

    __slots__ = ("_views", "_unread", "_end", "_code", "_packed", "_prefixes", "present")

    def __init__(self, code, end, packed, prefixes, present) -> None:
        self._views: list[memoryview | None] = [memoryview(array(code)).toreadonly()] * len(packed)
        for vid in present:
            self._views[vid] = None
        self._unread = len(present)
        self._code, self._end, self._packed, self._prefixes = code, end, packed, prefixes
        self.present = present

    def __len__(self) -> int:
        return len(self._views)

    def __getitem__(self, vid: int) -> memoryview:
        view = self._views[vid]
        if view is None:
            group = array(self._code)
            target, end = self._packed[vid], self._end
            step, counts_at, part_at = self._prefixes
            for base, counts, (slots, positions, bounds, _) in zip(
                    range(0, step * len(counts_at), step), counts_at, part_at):
                k = slots.get(target - counts)
                if k is not None:
                    k += end
                    group.extend(map(base.__or__, positions[bounds[k]:bounds[k + 1]]))
            view = self._views[vid] = memoryview(group).toreadonly()
            self._unread -= 1
            if not self._unread:
                self._packed = self._prefixes = None
        return view


def _part(table: tuple, state: int, links: int) -> tuple:
    """The chains `links` links below a node of state `state`, by change
    of packed counts from the node's: a dict from each change, in the
    order the chains first meet it, to its slot 2k; the positions below
    the node, those with the k-th change and last link e ascending in
    ``positions[bounds[2k + e]:bounds[2k + e + 1]]``; and per last link,
    the changes its chains meet."""
    changes = _expand(table, [state], [0], links)[1]  # per position below the node
    slots = {delta: k for k, delta in zip(count(0, 2), dict.fromkeys(changes))}
    keys = list(map(slots.__getitem__, changes))
    keys[1::2] = map((1).__add__, keys[1::2])  # slot 2k + 1 for last link 2
    sizes = Counter(keys)
    code = "H" if links <= 16 else "I"  # the narrowest type for positions below 2**links
    return (slots, array(code, sorted(range(len(keys)), key=keys.__getitem__)),
            array("I", accumulate(map(sizes.__getitem__, range(2 * len(slots))), initial=0)),
            tuple([delta for delta, k in slots.items() if sizes[k + end]] for end in (0, 1)))


def _expand(table: tuple, states: list[int], counts: list[int], links: int) -> tuple[list, list]:
    """The states and packed counts of the nodes `links` links below the nodes
    `states`, `counts`, in lexicographic order: whole lists a level, by map."""
    _, nexts, changes = table
    for _ in range(links):
        size = 2 * len(states)
        below, values = [0] * size, [0] * size
        for e in (0, 1):
            values[e::2] = map(add, counts, map(changes[e].__getitem__, states))
            below[e::2] = map(nexts[e].__getitem__, states)
        states, counts = below, values
    return states, counts


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
    Refuses square counts above `cap` (default 24) because a result set
    can hold all 2**(n-2) chains, as the constant index's argmax does, at
    about 4 bytes a chain in its groups and more as `LinkVector`s; the
    census itself costs about 2**(n/2).  Raise the cap explicitly if you
    really mean it.
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
    s0, s1, s2, s3, s4, s5 = f.scaled
    values = [a * s0 + b * s1 + c * s2 + d * s3 + e * s4 + g * s5 for a, b, c, d, e, g in vectors]
    everyone = range(len(values))
    order = sorted(everyone, key=values.__getitem__) if f.tol[0] else None
    tied: dict[int, list[int]] = {}  # per extreme, the ids of the values that tie it

    def select(pick, ends):
        # every census vector occurs among all chains, not all in one end's half
        present = everyone if len(ends) == 2 else groups[ends[0] - 1].present
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


def _tying(f: IndexFunction, values: list[int], order: list[int] | None, best: int) -> list[int]:
    """The ids of the values that tie `best` under `IndexFunction.ties`:
    the equal ones by one scan for a rational table (p = 0), else tested
    in ``order``, the ids sorted by value.  For eps = p / q < 1 a tie needs
    |a - best| * (q - p) <= p * max(den, |best|), as max(den, |a|, |best|)
    is at most max(den, |best|) + |a - best|, so only the values in that
    window are tested.  A larger tolerance tests every value."""
    p, q = f.tol
    if not p:
        return [vid for vid, value in enumerate(values) if value == best]
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
    counts through `DPTable.labeled_count`, all from one record of row n
    a table.  Sets, and the oracle side's mirror classes, are compared as
    byte words.  Values are
    compared with ``==`` in both modes, since both sides are correctly
    rounded exact sums.  Returns (ok, mismatches); mismatches are
    descriptions, not exceptions.
    """
    from . import dp  # local import keeps the sweep itself engine-free

    report = exhaustive(f, n, cap)
    mismatches: list[str] = []

    def check(label: str, expected, actual, ok=None) -> None:
        if not (expected == actual if ok is None else ok):
            mismatches.append(f"{label}: oracle {expected!r} vs engine {actual!r}")

    def check_set(label: str, oracle_chains, engine_chains) -> set[bytes]:
        # byte words, sorted as tuples only to describe a mismatch
        want, got = {c._word for c in oracle_chains}, {c._word for c in engine_chains}
        if want != got:
            check(label, sorted(map(tuple, want)), sorted(map(tuple, got)), False)
        return want

    def check_classes(label: str, chains: tuple[LinkVector, ...], actual: int) -> None:
        check(label, len({min(w, w[::-1]) for w in (c._word for c in chains)}), actual)

    res_max, max_table = dp._extremal(f, n, dp.MAX, None, False)
    res_min, min_table = dp._extremal(f, n, dp.MIN, None, False)
    check("max value", report.max_value, res_max.value)
    check("min value", report.min_value, res_min.value)
    witness_value = evaluate_direct(res_max.witness, f)
    # a witness may follow a tied edge, up to eps below the optimum
    check("witness attains max", report.max_value, witness_value,
          values_equal(witness_value, report.max_value, f.eps))
    check("labeled count", len(check_set("argmax set", report.argmax, max_table.chains())),
          res_max.labeled_count)
    check_classes("mirror classes", report.argmax, max_table.iso_count(n))
    check_set("argmin set", report.argmin, min_table.chains())
    check_classes("argmin mirror classes", report.argmin, min_table.iso_count(n))
    for end in (1, 2):
        check(f"end-{end} max value", report.per_end_max[end], res_max.per_end[end])
        oracle_set = check_set(f"end-{end} argmax set", report.per_end_argmax[end],
                               max_table.chains(end=end))
        check_classes(f"end-{end} mirror classes", report.per_end_argmax[end],
                      max_table.iso_count(n, end))
        check(f"end-{end} maximal count", len(oracle_set), max_table.labeled_count(n, end))
    return (not mismatches, mismatches)
