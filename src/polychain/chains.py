"""Polyomino chains encoded as link vectors.

A polyomino chain is a planar arrangement of unit squares in which every
square shares a side with at most two others.  Chains are grown one
square at a time, each new square glued to the right of or below the
previous one.  Starting from the two-square chain, the attachment of
square k (k >= 3) either keeps the current growth direction (link type
1) or turns it (link type 2), so a chain with n squares is fully
described by its word of n - 2 link types.

A `LinkVector` keeps that word as bytes, one byte per link: producers
(the DP's witness and enumeration, the oracle) write links 1 and 2 only
and hand their byte buffers over unchecked, a word from outside is
checked once, the structural functions here read the bytes, and the
tuple ``links`` is built only when asked for, O(n) on each call.  Bytes
hash with a per-process salt, so no output may iterate a set of words.

This module owns that encoding and the purely structural operations on
it: lattice realization, the corner graph and its degree-pair multiset,
segment decomposition, the named chain families, and mirror-symmetry
canonicalization.  A chain's frontier, the neighbours of the last
square's south-west, south-east and north-east corners, is all that
growth reads (`_graph`).  It takes 5 values, and a frontier and a link
fix the child's: `_table` is those 10 steps and their changes of the
degree-pair counts, read off the graph once.  `edge_degree_multiset`
walks it along one word, and the oracle's census expands it down the
link tree.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator
from functools import cache, total_ordering
from operator import sub

__all__ = [
    "LinkVector",
    "linear_chain",
    "zigzag_chain",
    "az1_chain",
    "az2_family",
    "realize",
    "edge_degree_multiset",
    "segments",
    "canonical_reversal",
]

_LINK_OF = {1: 1, 2: 2}  # links of another type equal to 1 or 2, such as 1.0
_DIGITS = bytes.maketrans(b"\1\2", b"12")
_LINKS = bytes.maketrans(b"12", b"\1\2")
_LINK_BITS = bytes.maketrans(b"\1\2", b"\0\1")
_RIGHT = (1, 0)
_DOWN = (0, -1)

DEGREE_PAIRS = ((2, 2), (2, 3), (2, 4), (3, 3), (3, 4), (4, 4))
_PAIR_OF = {pair: j for j, (a, b) in enumerate(DEGREE_PAIRS) for pair in ((a, b), (b, a))}
_RING = (((0, 0), (1, 0)), ((1, 0), (1, 1)), ((0, 1), (1, 1)), ((0, 0), (0, 1)))  # a square's sides


@total_ordering
class LinkVector:
    """Immutable word over {1, 2} recording how each square attaches.

    Entry j (0-based) is the link type of square j + 3, i.e. the link
    chosen when the (j+3)-th square was glued on; the empty vector is
    the two-square chain.  ``link_at(k)`` reads an entry by square
    number (3 <= k <= n) instead of by storage index.

    The word is stored as immutable bytes, one byte per link, so a
    million-link chain takes 1 MB.  The public constructor is where
    outside input enters: it checks every link, one C-level pass over
    bytes.  Words the engine builds (the DP's witness and chains, the
    oracle's sets, the families and reversals here) are valid by
    construction, so they go through `_of`, which keeps their bytes
    without that second pass.  ``links`` builds a fresh tuple on each
    call, O(n); iteration, indexing, comparison and hashing read the
    bytes, and a slice is a tuple.  The hash of bytes is salted per process,
    so no output may iterate a set of words: sort them first.
    """

    __slots__ = ("_word",)

    def __init__(self, links: Iterable[int] = ()) -> None:
        if iter(links) is links:  # an iterator can be read only once
            links = tuple(links)
        try:
            word = bytes(links)
        except (TypeError, ValueError):  # links such as 1.0, or ints past a byte
            try:
                word = bytes(map(_LINK_OF.__getitem__, links))
            except (KeyError, TypeError):  # a link equal to neither, or unhashable
                word = b"\0"  # fails the check below
        if word.translate(None, b"\1\2"):  # one C-level pass
            bad = next(x for x in links if x not in (1, 2))
            raise ValueError(f"invalid link {bad!r}: links must be 1 or 2")
        self._word = word

    @classmethod
    def _of(cls, word: bytes) -> "LinkVector":
        """The vector keeping `word`, an exact bytes object over {1, 2}, unchecked."""
        vector = object.__new__(cls)
        vector._word = word
        return vector

    @property
    def links(self) -> tuple[int, ...]:
        return tuple(self._word)

    @property
    def square_count(self) -> int:
        return len(self._word) + 2

    def link_at(self, position: int) -> int:
        """Link type of the square at absolute position 3..n."""
        if not 3 <= position <= self.square_count:
            raise IndexError(f"no link at square {position} (n = {self.square_count})")
        return self._word[position - 3]

    def reverse(self) -> "LinkVector":
        return LinkVector._of(self._word[::-1])

    @classmethod
    def from_string(cls, text: str) -> "LinkVector":
        """Parse a comma-separated word such as ``"1,2,2,1"`` ("" is allowed):
        each token, stripped of whitespace, is "1" or "2"."""
        text = text.strip()
        if not text:
            return cls()
        # that holds exactly when the text, whitespace removed, reads "d,d,...,d"
        bare = "".join(text.split()).encode("utf-8", "replace")
        digits = bare[::2]
        if (len(bare) % 2 and not digits.translate(None, b"12")
                and bare[1::2] == b"," * (len(bare) // 2)):
            return cls._of(digits.translate(_LINKS))
        bad = next(tok for tok in map(str.strip, text.split(",")) if tok not in ("1", "2"))
        raise ValueError(f"invalid link {bad!r}: links must be 1 or 2")

    def to_string(self) -> str:
        return _words_text((self._word,), b",")

    def __len__(self) -> int:
        return len(self._word)

    def __iter__(self) -> Iterator[int]:
        return iter(self._word)

    def __getitem__(self, idx):
        item = self._word[idx]
        return tuple(item) if isinstance(idx, slice) else item

    def __eq__(self, other) -> bool:
        if isinstance(other, LinkVector):
            return self._word == other._word
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._word)

    def __lt__(self, other: "LinkVector") -> bool:
        if isinstance(other, LinkVector):
            return self._word < other._word
        return NotImplemented

    def __repr__(self) -> str:
        return f"LinkVector([{self.to_string()}])"


def _as_word(chain) -> bytes:
    if isinstance(chain, LinkVector):
        return chain._word
    return LinkVector(chain)._word


def _words_text(words, sep: bytes, between: bytes = b"") -> str:
    """The digits of the byte words `words`, all of one length, `sep`
    between two links of a word and `between` between two words.

    One item, "0" + `sep` once a link with its last `sep` replaced by
    `between`, is repeated once a word.  The words' digits then fill
    every (len(sep) + 1)-th byte of the items in strided C-level passes:
    one in all when `between` is as long as `sep`, as in plain text,
    where every digit sits on one stride, else one a word."""
    if not words:
        return ""
    links, step = len(words[0]), len(sep) + 1
    out = bytearray(b"0" + sep) * links
    out[len(out) - len(sep):] = between  # one item
    size = len(out)
    out *= len(words)
    del out[len(out) - len(between):]
    if links and len(between) == len(sep):
        out[::step] = b"".join(words).translate(_DIGITS)
    else:
        for i, word in enumerate(words):
            out[i * size:i * size + links * step:step] = word.translate(_DIGITS)
    return out.decode()


def linear_chain(n: int) -> LinkVector:
    """All squares glued straight on: the n-square linear chain."""
    if n < 2:
        raise ValueError(f"a chain needs at least 2 squares, got n={n}")
    return LinkVector._of(b"\1" * (n - 2))


def zigzag_chain(n: int) -> LinkVector:
    """Every square turns: the n-square zigzag chain."""
    if n < 2:
        raise ValueError(f"a chain needs at least 2 squares, got n={n}")
    return LinkVector._of(b"\2" * (n - 2))


def az1_chain(m: int) -> LinkVector:
    """Chain with m segments, all of length 3 (augmented zigzag, type 1).

    The word is (1, 2,1, 2,1, ...): one leading straight link followed by
    m - 1 turn/straight pairs, giving n = 2m + 1 squares.
    """
    if m < 2:
        raise ValueError(f"augmented zigzag of type 1 needs m >= 2 segments, got {m}")
    return LinkVector._of(b"\1" + b"\2\1" * (m - 1))


def az2_family(m: int) -> list[LinkVector]:
    """All chains with m segments of length 3 except one internal segment of length 2.

    These are the augmented zigzags of type 2 with n = 2m squares.  The
    family has m - 2 labeled members, the i-th being (1,2)^i (2,1)^(m-1-i)
    for i = 1..m-2; consecutive turns at the junction produce the single
    short internal segment.
    """
    if m < 3:
        raise ValueError(f"augmented zigzag of type 2 needs m >= 3 segments, got {m}")
    return [
        LinkVector._of(b"\1\2" * i + b"\2\1" * (m - 1 - i))
        for i in range(1, m - 1)
    ]


def realize(chain) -> tuple[tuple[int, int], ...]:
    """Lattice cells of the chain, one (x, y) per square.

    The first two squares sit at (0,0) and (1,0); growth starts to the
    right, a type-1 link keeps the current direction and a type-2 link
    toggles between rightward and downward.
    """
    cells = [(0, 0), (1, 0)]
    x, y = 1, 0
    d = _RIGHT
    for link in _as_word(chain):
        if link == 2:
            d = _DOWN if d == _RIGHT else _RIGHT
        x += d[0]
        y += d[1]
        cells.append((x, y))
    assert len(set(cells)) == len(cells)  # right/below growth cannot collide
    return tuple(cells)


def _graph(word: bytes) -> tuple[tuple[int, ...], tuple]:
    """The chain graph of `word`, read off its cells: its edges per degree
    pair, in `DEGREE_PAIRS` order, and its frontier.  The frontier is, for
    the last square's south-west, south-east and north-east corners, each
    neighbour's offset from the square's south-west corner and degree,
    sorted.

    It is all that growth reads.  Growth goes only right or down, so no
    corner lies right of the last square (x, y) or below it, and its
    south-west corner has a neighbour at offset (-1, 0) exactly when the
    last step went right.  So a link fixes the next square, east at
    (x + 1, y) or south at (x, y - 1): two new corners, three new edges
    and one more edge at each corner of the side it shares, se-ne or
    sw-se.  Only the edges at those two corners change their degree pair,
    so the frontier gives the change of counts.  The child's three corners
    are its two new ones and the parent's se, whose neighbours and their
    degrees the frontier gives too.  A frontier and a link thus fix the
    change and the child's frontier, and equal frontiers have equal
    subtrees for every n.
    """
    cells = realize(word)
    sides = {((x + a, y + b), (x + c, y + d)) for x, y in cells for (a, b), (c, d) in _RING}
    degree = Counter(corner for side in sides for corner in side)
    counts = [0] * len(DEGREE_PAIRS)
    for p, q in sides:
        counts[_PAIR_OF[degree[p], degree[q]]] += 1
    x, y = cells[-1]

    def near(corner):
        return tuple(sorted(((u - x, v - y), degree[u, v]) for side in sides if corner in side
                            for u, v in side if (u, v) != corner))

    return tuple(counts), (near((x, y)), near((x + 1, y)), near((x + 1, y + 1)))


def _counts_width(n: int) -> int:
    return (3 * n + 1).bit_length()  # a chain of n squares has 3n + 1 edges


def _unpack(counts: int, width: int) -> tuple[int, ...]:
    """The edges per degree pair, in `DEGREE_PAIRS` order, of packed counts."""
    mask = (1 << width) - 1
    return tuple(counts >> width * j & mask for j in range(len(DEGREE_PAIRS)))


@cache
def _automaton() -> tuple[tuple[tuple, ...], tuple[int, ...], tuple[tuple[tuple, tuple], ...]]:
    """``(frontiers, start, steps)``: the corner graph as an automaton, read
    off the graph alone on first use.  State s has frontier ``frontiers[s]``,
    state 0 is the two-square chain's, of edges per degree pair `start`, and
    link e takes s to ``steps[s][e - 1]``: the child's state and change."""
    start, frontier = _graph(b"")
    states, words, steps = {frontier: 0}, [b""], []
    for word in words:  # a word is appended when it meets a new frontier
        counts = _graph(word)[0]
        step = []
        for child in (word + b"\1", word + b"\2"):
            after, frontier = _graph(child)
            if states.setdefault(frontier, len(words)) == len(words):
                words.append(child)
            step.append((states[frontier], tuple(map(sub, after, counts))))
        steps.append(tuple(step))
    return tuple(states), start, tuple(steps)


@cache
def _table(width: int) -> tuple[int, tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """`_automaton` packed `width` bits a pair: link e takes state s to
    ``nexts[e - 1][s]`` and adds the signed ``changes[e - 1][s]``."""
    _, start, steps = _automaton()

    def pack(counts: tuple[int, ...]) -> int:
        return sum(c << width * j for j, c in enumerate(counts))

    return (pack(start), tuple(tuple(step[e][0] for step in steps) for e in (0, 1)),
            tuple(tuple(pack(step[e][1]) for step in steps) for e in (0, 1)))


def edge_degree_multiset(chain) -> Counter:
    """Multiset of endpoint-degree pairs over the edges of the chain graph.

    The graph has a vertex at every corner of every unit square and an
    edge along every unit side.  Keys are unordered pairs (a, b) with
    a <= b; a chain of n squares always has 3n + 1 edges and degrees in
    {2, 3, 4}.  Pairs that do not occur are left out.  The counts are
    one walk along the word over the corner graph's table, `_table`.
    """
    return Counter({pair: m for pair, m in zip(DEGREE_PAIRS, _pair_counts(chain)) if m})


def _pair_counts(chain) -> tuple[int, ...]:
    """The chain graph's edges per degree pair, in `DEGREE_PAIRS` order."""
    word = _as_word(chain)
    width = _counts_width(len(word) + 2)
    counts, nexts, changes = _table(width)
    state = 0
    for bit in word.translate(_LINK_BITS):  # link e as bit e - 1
        counts += changes[bit][state]
        state = nexts[bit][state]
    return _unpack(counts, width)


def segments(chain) -> tuple[int, ...]:
    """Segment lengths l_1..l_m of the chain.

    A segment is a maximal straight run of squares together with the
    adjacent kink (or terminal square); kinks are shared by two
    segments, so the lengths satisfy sum(l_i) = n + m - 1.  With turns
    at absolute square positions p_1 < ... < p_k this is
    (p_1 - 1, p_2 - p_1 + 1, ..., p_k - p_{k-1} + 1, n - p_k + 2).
    """
    word = _as_word(chain)
    n = len(word) + 2
    turns = [k for k, link in enumerate(word, start=3) if link == 2]
    if not turns:
        return (n,)
    lengths = [turns[0] - 1]
    lengths.extend(b - a + 1 for a, b in zip(turns, turns[1:]))
    lengths.append(n - turns[-1] + 2)
    return tuple(lengths)


def canonical_reversal(chain) -> LinkVector:
    """Lexicographic minimum of a link word and its reverse.

    Reading a chain from the other end mirrors it, so two chains are
    congruent up to that symmetry exactly when their canonical forms
    coincide.
    """
    word = _as_word(chain)
    return LinkVector._of(min(word, word[::-1]))
