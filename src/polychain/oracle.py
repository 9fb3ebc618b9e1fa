"""Exhaustive ground truth for small square counts.

Evaluates every one of the 2**(n-2) link vectors with the direct
edge-multiset evaluator only, never the increment recurrence or the
dynamic program, so that agreement with the engine is meaningful
evidence rather than circular.  Candidates stream in lexicographic
order and only the current best sets are retained, so memory stays
proportional to the answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .chains import LinkVector
from .indices import (
    FLOAT,
    IndexFunction,
    Value,
    as_decimal_string,
    as_exact_string,
    evaluate_direct,
    negate,
    values_equal,
)

__all__ = ["OracleReport", "DEFAULT_CAP", "exhaustive", "cross_check"]

DEFAULT_CAP = 24


class _Best:
    """Streaming argmax (or argmin) set with optional float tolerance.

    In float mode every candidate within the relative tolerance of the
    best value seen so far is kept, and the kept set is re-pruned
    whenever the best improves; insertion order (lexicographic here) is
    preserved.
    """

    def __init__(self, smallest: bool, eps: float | None):
        self.smallest = smallest
        self.eps = eps
        self.value: Value | None = None
        self._entries: list[tuple[Value, tuple[int, ...]]] = []

    def _better(self, a: Value, b: Value) -> bool:
        return a < b if self.smallest else a > b

    def offer(self, value: Value, links: tuple[int, ...]) -> None:
        if self.value is None:
            self.value = value
            self._entries = [(value, links)]
            return
        if self.eps is None:
            if self._better(value, self.value):
                self.value = value
                self._entries = [(value, links)]
            elif value == self.value:
                self._entries.append((value, links))
            return
        if values_equal(value, self.value, self.eps):
            self._entries.append((value, links))
            if self._better(value, self.value):
                self.value = value
                self._entries = [e for e in self._entries if values_equal(e[0], value, self.eps)]
        elif self._better(value, self.value):
            self.value = value
            self._entries = [e for e in self._entries if values_equal(e[0], value, self.eps)]
            self._entries.append((value, links))

    def chains(self) -> tuple[LinkVector, ...]:
        return tuple(LinkVector(links) for _, links in self._entries)


@dataclass(frozen=True)
class OracleReport:
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
        def val(v: Value) -> dict:
            return {"rational": as_exact_string(v), "decimal": as_decimal_string(v)}

        return {
            "n": self.n,
            "index": self.index_name,
            "mode": self.mode,
            "max": val(self.max_value),
            "min": val(self.min_value),
            "argmax": [list(c) for c in self.argmax],
            "argmin": [list(c) for c in self.argmin],
            "per_end_max": {str(e): val(v) for e, v in self.per_end_max.items()},
            "per_end_argmax": {
                str(e): [list(c) for c in chains] for e, chains in self.per_end_argmax.items()
            },
        }


def exhaustive(f: IndexFunction, n: int, cap: int = DEFAULT_CAP) -> OracleReport:
    """Evaluate every n-square chain and report extrema and their chains.

    Refuses square counts above `cap` (default 24) because the sweep
    costs 2**(n-2) evaluations of O(n) each; raise the cap explicitly
    if you really mean it.
    """
    if n < 3:
        raise ValueError(f"exhaustive sweep needs n >= 3, got {n}")
    if n > cap:
        raise ValueError(
            f"n={n} exceeds the oracle cap {cap}: would evaluate 2**{n - 2} "
            f"= {2 ** (n - 2)} chains; pass a larger cap to override"
        )
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


def cross_check(f: IndexFunction, n: int, cap: int = DEFAULT_CAP) -> tuple[bool, list[str]]:
    """Compare the dynamic program against the exhaustive sweep.

    Checks global max/min values, per-end values, argmax sets, labeled
    counts and witness soundness.  Values, witness and labeled count
    come from `dp.maximize` and `dp.minimize`; the argmax, per-end
    argmax and argmin sets from `DPTable.chains` on one kept `dp.run_dp`
    table of f and one of `negate(f)`; the per-end counts from one
    streaming run of f.  Returns (ok, mismatches); mismatches are
    descriptions, not exceptions.
    """
    from . import dp  # local import keeps the sweep itself engine-free

    report = exhaustive(f, n, cap)
    eps = f.eps if f.mode == FLOAT else None
    mismatches: list[str] = []

    def check(label: str, ok: bool, expected, actual) -> None:
        if not ok:
            mismatches.append(f"{label}: oracle {expected!r} vs engine {actual!r}")

    res_max = dp.maximize(f, n)
    res_min = dp.minimize(f, n)
    max_table = dp.run_dp(f, n)
    min_table = dp.run_dp(negate(f), n)
    streamed = dp.run_dp(f, n, keep_table=False)
    check("max value", values_equal(res_max.value, report.max_value, eps),
          report.max_value, res_max.value)
    check("min value", values_equal(res_min.value, report.min_value, eps),
          report.min_value, res_min.value)
    check(
        "witness attains max",
        values_equal(evaluate_direct(res_max.witness, f), report.max_value, eps),
        report.max_value,
        evaluate_direct(res_max.witness, f),
    )
    argmax = {c.links for c in report.argmax}
    enumerated = {c.links for c in max_table.chains()}
    check("argmax set", enumerated == argmax, sorted(argmax), sorted(enumerated))
    check("labeled count", len(argmax) == res_max.labeled_count,
          len(argmax), res_max.labeled_count)
    argmin = {c.links for c in report.argmin}
    enumerated_min = {c.links for c in min_table.chains()}
    check("argmin set", enumerated_min == argmin, sorted(argmin), sorted(enumerated_min))
    for end in (1, 2):
        value = res_max.per_end[end]
        check(f"end-{end} max value", values_equal(value, report.per_end_max[end], eps),
              report.per_end_max[end], value)
        oracle_set = {c.links for c in report.per_end_argmax[end]}
        engine_set = {c.links for c in max_table.chains(end=end)}
        check(f"end-{end} argmax set", engine_set == oracle_set,
              sorted(oracle_set), sorted(engine_set))
        count = streamed.labeled_count(n, end)
        check(f"end-{end} maximal count", count == len(oracle_set), len(oracle_set), count)
    return (not mismatches, mismatches)
