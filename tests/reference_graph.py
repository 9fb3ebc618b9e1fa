"""The corner graph built from scratch, and the oracle's sweep done
chain by chain, as references for the walker and for the oracle.

`chains.edge_degree_multiset` and the oracle's census both walk one
table, read off the graphs of a few short words (`chains._graph`) as an
automaton.  Checking them against each other would check that table
against itself, so the tests compare both with this construction from
the realized cells instead, which counts every edge of every chain.

`assert_checked_word` holds a word the engine built without the input
check to what the public `LinkVector` constructor would accept.
"""

import functools
from collections import Counter
from fractions import Fraction
from itertools import product

from polychain.chains import LinkVector, realize
from polychain.indices import DEGREE_PAIRS, FLOAT
from polychain.oracle import OracleReport


def reference_graph(chain, sides=("south", "north", "west", "east")) -> tuple[set, Counter]:
    """The chain graph's edge set, each edge a pair of corners, and each
    corner's degree; each square brings the named of its unit sides."""
    edges = set()
    for x, y in realize(chain):
        sw, se, ne, nw = (x, y), (x + 1, y), (x + 1, y + 1), (x, y + 1)
        ring = {"south": (sw, se), "north": (nw, ne), "west": (sw, nw), "east": (se, ne)}
        edges.update(ring[side] for side in sides)
    degree: Counter = Counter()
    for a, b in edges:
        degree[a] += 1
        degree[b] += 1
    return edges, degree


def reference_multiset(chain) -> Counter:
    """Degree pairs over the edges of the chain graph, from its edge set."""
    edges, degree = reference_graph(chain)
    pairs: Counter = Counter()
    for a, b in edges:
        da, db = degree[a], degree[b]
        pairs[(da, db) if da <= db else (db, da)] += 1
    return pairs


def assert_checked_word(vector) -> None:
    """The vector keeps an exact bytes object over {1, 2}, equal to the
    vector the checked constructor builds from its links."""
    word = vector._word
    assert type(word) is bytes and not word.translate(None, b"\1\2"), word[:40]
    assert LinkVector(bytes(vector.links)) == vector


_cached_multiset = functools.cache(reference_multiset)


# patched in for evaluate_direct's graph: each chain's reference graph is
# built once for the whole corpus, and evaluate_direct sums over it as usual
def _cached_pair_counts(chain) -> tuple:
    pairs = _cached_multiset(chain)
    return tuple(pairs[p] for p in DEGREE_PAIRS)


def reference_report(f, n):
    """The sweep evaluated chain by chain on the reference graph, each
    word's value the exact Fraction sum of the table's entries (a float
    table's IEEE entries) over its degree-pair multiset, in two passes:
    take the extreme, then keep every word within `values_equal`'s
    tolerance of it, taken exactly (eps 0 for rationals).  A float
    table's extremes are reported as the floats nearest them."""
    entries = {pair: Fraction(v) for pair, v in f.values.items()}
    eps = Fraction(f.eps) if f.mode == FLOAT else 0
    valued = [(links, sum(mult * entries[pair] for pair, mult in _cached_multiset(links).items()))
              for links in product((1, 2), repeat=n - 2)]

    def select(pick, end=None):
        kept = [(links, value) for links, value in valued if end in (None, links[-1])]
        best = pick(value for _, value in kept)
        chains = tuple(LinkVector(links) for links, value in kept
                       if abs(value - best) <= eps * max(1, abs(value), abs(best)))
        return (float(best) if f.mode == FLOAT else best), chains

    max_value, argmax = select(max)
    min_value, argmin = select(min)
    per_end = {end: select(max, end) for end in (1, 2)}
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
