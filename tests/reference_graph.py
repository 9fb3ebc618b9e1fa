"""The corner graph built from scratch, and the oracle's sweep done
chain by chain, as references for the walker and for the oracle.

`chains.edge_degree_multiset` and the oracle's census both run on one
incremental corner graph.  Checking them against each other would check
that graph against itself, so the tests compare both with this
independent construction from the realized cells instead.
"""

import functools
from collections import Counter
from itertools import product

from polychain.chains import realize
from polychain.indices import FLOAT, evaluate_direct
from polychain.oracle import OracleReport, _Best


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


# patched in for evaluate_direct's graph: each chain's reference graph is
# built once for the whole corpus, and evaluate_direct sums over it as usual
_cached_multiset = functools.cache(reference_multiset)


def reference_report(f, n):
    """The sweep evaluated chain by chain with `evaluate_direct`, on the
    reference graph once `_cached_multiset` is patched in."""
    eps = f.eps if f.mode == FLOAT else None
    best_max = _Best(smallest=False, eps=eps)
    best_min = _Best(smallest=True, eps=eps)
    end_max = {1: _Best(smallest=False, eps=eps), 2: _Best(smallest=False, eps=eps)}
    for links in product((1, 2), repeat=n - 2):
        value = evaluate_direct(links, f)
        best_max.offer(value, links)
        best_min.offer(value, links)
        end_max[links[-1]].offer(value, links)
    return OracleReport(
        n=n,
        index_name=f.name,
        mode=f.mode,
        max_value=best_max.value,
        min_value=best_min.value,
        argmax=best_max.chains(),
        argmin=best_min.chains(),
        per_end_max={e: b.value for e, b in end_max.items()},
        per_end_argmax={e: b.chains() for e, b in end_max.items()},
    )
