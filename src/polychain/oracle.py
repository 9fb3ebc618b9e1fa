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
position: about 2**(n/2) table steps, and one pass over the distinct
(state, counts) nodes of the prefixes (112 for 2048 prefixes at n = 24)
times part entries that numbers the distinct vectors (98 at n = 14, 135
at n = 16).  A part keeps its positions in one array, cut by count
change and last link.  A group, the ascending lexicographic positions of
the chains of one vector and last link (2 bytes a chain, 4 past n = 18),
is built when first read, at one dict lookup a node plus its chains, and
kept, as are the prefixes: with every group read, the census keeps 267
KiB at n = 18 and 17 157 KiB at n = 24 under tracemalloc, its parts
aside, 16 and 44 KiB of it the prefixes.  The census is built on first
use and cached per n, so every index and every sweep at that n shares
it, and the parts, a pure function of b and the packing width, are
cached per pair (`_parts`).  A sweep then values each distinct vector
once, as an int: its dot product with the index's scaled entries
(`IndexFunction.scaled`, exact in both modes).
Per result set, builtin max/min pick the extreme over the vectors
present, the values that tie it are scanned for, equal ones in a
rational table, else the ones an exact bound leaves in a window of the
values sorted once (`_tying`), and the tying groups merge into the set in
lexicographic order: after the census a sweep costs O(distinct vectors)
plus its output, and a lookup a node for each group it reads first.  A
chain in a set is its position's binary digits translated to link bytes,
which its `LinkVector` keeps.  The extreme is read back by
`IndexFunction.read`, a float one as the exact extreme correctly
rounded.
`cross_check` reads the sweep's byte words (`_sweep`) and each DP
table's row n once, and sorts words only to describe a mismatch.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from functools import cache
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
    negate,
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
    packed counts and ``prefix << b`` to the part of its state, each
    distinct (state, counts) node once for the vectors.  A part depends
    on its state, b and the packing width alone, so `_parts` keeps them
    per b and width.
    The result is cached and shared by every caller.
    """
    if n < 2:
        raise ValueError(f"a chain needs at least 2 squares, got n={n}")
    width = _counts_width(n)
    table = _table(width)
    a = (n - 2) // 2
    b = n - 2 - a
    states, counts_at = _expand(table, [0], [table[0]], a)  # per prefix, in lexicographic order
    parts, index = _parts(width, b), {}
    # per prefix, its (state, counts) node, numbered in the order the prefixes meet them
    node_at = [index.setdefault(node, len(index)) for node in zip(states, counts_at)]
    nodes = [(counts, parts[state]) for state, counts in index]
    # ids in the order the chains first meet their vectors: node by node (a
    # repeated node meets none first), each part's changes in the order its
    # own chains first meet them
    packed = list(dict.fromkeys(chain.from_iterable(
        map(counts.__add__, part[0]) for counts, part in nodes)))
    ids = {counts: vid for vid, counts in enumerate(packed)}
    present = [sorted(map(ids.__getitem__, set(chain.from_iterable(
        map(counts.__add__, part[3][end]) for counts, part in nodes))))
        for end in (0, 1)]
    code = "H" if n <= 18 else "I"  # the narrowest type for positions below 2**(n - 2)
    prefixes = (1 << b, node_at, nodes)
    groups = tuple(_Groups(code, end, packed, prefixes, present[end]) for end in (0, 1))
    return tuple(_unpack(counts, width) for counts in packed), groups


@cache
def _parts(width: int, b: int) -> tuple[tuple, ...]:
    """Per state, its `_part` of b links with counts packed `width` bits
    a pair, kept per (width, b): census(2k + 1) and census(2k + 2) share
    them, as 6k + 4 and 6k + 7 have one bit length."""
    table = _table(width)
    states = len(table[1][0])  # link 1's next states, one a state
    return tuple(_part(table, state, b) for state in range(states))


class _Groups:
    """One last link's chain groups, indexed by vector id, each built
    from the prefixes on its first read and then kept: per node, one
    lookup of the vector's counts less the node's in its part, and per
    prefix the positions found at its node, shifted by the prefix.  The
    vectors no chain with that last link has share one empty view."""

    __slots__ = ("_views", "_end", "_code", "_packed", "_prefixes", "present")

    def __init__(self, code, end, packed, prefixes, present) -> None:
        self._views: list[memoryview | None] = [memoryview(array(code)).toreadonly()] * len(packed)
        for vid in present:
            self._views[vid] = None
        self._code, self._end, self._packed, self._prefixes = code, end, packed, prefixes
        self.present = present

    def __len__(self) -> int:
        return len(self._views)

    def __getitem__(self, vid: int) -> memoryview:
        view = self._views[vid]
        if view is None:
            group = array(self._code)
            target, end = self._packed[vid], self._end
            step, node_at, nodes = self._prefixes
            runs = []  # per node, the positions below it with that vector and end
            for counts, (slots, positions, bounds, _) in nodes:
                k = slots.get(target - counts)
                runs.append(None if k is None else positions[bounds[k + end]:bounds[k + end + 1]])
            for base, run in zip(range(0, step * len(node_at), step), map(runs.__getitem__, node_at)):
                if run:
                    group.extend(map(base.__or__, run))
            view = self._views[vid] = memoryview(group).toreadonly()
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
    (max_value, argmax), (min_value, argmin), end1, end2 = [
        (value, tuple(map(LinkVector._of, words))) for value, words in _sweep(f, n, cap)]
    return OracleReport(n, f.name, f.mode, max_value, min_value, argmax, argmin,
                        {1: end1[0], 2: end2[0]}, {1: end1[1], 2: end2[1]})


_EVERY = ((max, (1, 2)), (min, (1, 2)), (max, (1,)), (max, (2,)))


def _sweep(f: IndexFunction, n: int, cap: int, picks: tuple = _EVERY) -> list:
    """The (value, set) pair of each (max or min, last links) in `picks`,
    each set as byte words in lexicographic order; by default
    `exhaustive`'s: the max, the min, end 1's and end 2's max."""
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
        return check_finite(f.read(best), "index value"), [_word(pos, m) for pos in hits]

    return [select(pick, ends) for pick, ends in picks]


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
    counts, mirror-class counts and witness soundness.  Each side is read
    once: the sweep's byte words (`_sweep`), and row n's record of
    `dp.run_dp` of f for the max and of the negated index for the min.
    Each end of the max table is descended once (`DPTable._words`): the
    argmax is the union over the winning ends, the witness their first
    word.  The min table's winning ends are descended once.  Values come
    from `best_value` and `value`, counts from `DPTable._count`, less
    `_mirror_pairs` for mirror classes, each off the record.  Sets
    are compared as byte words, values with ``==`` in both modes, since
    both sides are correctly rounded exact sums.  Returns (ok,
    mismatches); mismatches are descriptions, not exceptions.
    """
    from . import dp  # local import keeps the sweep itself engine-free

    (max_value, argmax), (min_value, argmin), *per_end = _sweep(f, n, cap)
    mismatches: list[str] = []

    def check(label: str, expected, actual, ok=None) -> None:
        if not (expected == actual if ok is None else ok):
            mismatches.append(f"{label}: oracle {expected!r} vs engine {actual!r}")

    def check_set(label, want, got):
        want, got = set(want), set(got)
        if want != got:
            check(label, sorted(map(tuple, want)), sorted(map(tuple, got)), False)
        return len(want)

    def classes(words):
        return len({min(w, w[::-1]) for w in words})

    max_table, min_table = dp.run_dp(f, n), dp.run_dp(negate(f), n)
    (top, ends), (low, low_ends) = max_table._row(n), min_table._row(n)
    words = {e: list(max_table._words(n, e)) for e in (1, 2)}
    check("max value", max_value, max_table.best_value(n))
    check("min value", min_value, -min_table.best_value(n))
    witness_value = evaluate_direct(LinkVector._of(words[ends[0]][0]), f)
    # a witness may follow a tied edge, up to eps below the optimum
    check("witness attains max", max_value, witness_value,
          values_equal(witness_value, max_value, f.eps))
    count = max_table._count(top, ends)
    check("labeled count", check_set("argmax set", argmax, chain(*map(words.get, ends))), count)
    check("mirror classes", classes(argmax), count - max_table._mirror_pairs(top, ends))
    check_set("argmin set", argmin, chain(*(min_table._words(n, e) for e in low_ends)))
    check("argmin mirror classes", classes(argmin),
          min_table._count(low, low_ends) - min_table._mirror_pairs(low, low_ends))
    for end, (value, want) in enumerate(per_end, 1):
        check(f"end-{end} max value", value, max_table.value(n, end))
        size = check_set(f"end-{end} argmax set", want, words[end])
        count = max_table._count(top, (end,))
        check(f"end-{end} mirror classes", classes(want),
              count - max_table._mirror_pairs(top, (end,)))
        check(f"end-{end} maximal count", size, count)
    return (not mismatches, mismatches)
