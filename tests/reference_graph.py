"""The corner graph built from scratch, as the reference for the walker.

`chains.edge_degree_multiset` and the oracle's census both run on one
incremental corner graph.  Checking them against each other would check
that graph against itself, so the tests compare both with this
independent construction from the realized cells instead.
"""

from collections import Counter

from polychain.chains import realize


def reference_multiset(chain) -> Counter:
    """Degree pairs over the edges of the chain graph, from its edge set."""
    edges = set()
    for x, y in realize(chain):
        sw, se, ne, nw = (x, y), (x + 1, y), (x + 1, y + 1), (x, y + 1)
        edges.update(((sw, se), (nw, ne), (sw, nw), (se, ne)))
    degree: Counter = Counter()
    for a, b in edges:
        degree[a] += 1
        degree[b] += 1
    pairs: Counter = Counter()
    for a, b in edges:
        da, db = degree[a], degree[b]
        pairs[(da, db) if da <= db else (db, da)] += 1
    return pairs
