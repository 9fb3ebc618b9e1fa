"""Spans around the public functions of each polychain module.

`Tracer.install` replaces every wrapped function in each module
namespace that binds it (``polychain.dp.run_dp`` and
``polychain.cli.run_dp`` are the same function under two names), and
the two `DPTable` methods on the class.  Spans are kept in memory as
(id, parent, request, name, start, end, busy) and written out once at
the end.  ``busy`` is the time spent inside a generator's own frames,
which for `DPTable.chains` differs from its lifetime because the caller
runs between chains; it equals end - start for ordinary calls.

Counters are taken at the same boundaries, so ratios such as distinct
DP runs per call are measured where the work happens.
"""

from __future__ import annotations

import functools
import sys
import tracemalloc
from collections import defaultdict
from time import perf_counter

MODULES = ("chains", "indices", "dp", "oracle", "azi", "cli")

# (defining module, attribute) -> span name
FUNCTIONS = {
    ("chains", "edge_degree_multiset"): "chains.edge_degree_multiset",
    ("chains", "canonical_reversal"): "chains.canonical_reversal",
    ("indices", "evaluate_direct"): "indices.evaluate_direct",
    ("indices", "increment_table"): "indices.increment_table",
    ("dp", "run_dp"): "dp.run_dp",
    ("dp", "maximize"): "dp.maximize",
    ("dp", "minimize"): "dp.minimize",
    ("oracle", "exhaustive"): "oracle.exhaustive",
    ("oracle", "cross_check"): "oracle.cross_check",
    ("azi", "verify_azi_maximum"): "azi.verify_azi_maximum",
    ("azi", "verify_azi_minimum"): "azi.verify_azi_minimum",
    ("cli", "main"): "cli.main",
}

SELF_TIMES = (
    "dp.run_dp",
    "dp.witness",
    "dp.chains",
    "chains.canonical_reversal",
    "chains.edge_degree_multiset",
    "indices.evaluate_direct",
    "oracle.exhaustive",
    "oracle.cross_check",
    "azi.verify_azi_maximum",
    "azi.verify_azi_minimum",
    "cli.main",
)


def _table_key(f) -> tuple:
    return (f.mode, f.eps, tuple(sorted(f.values.items())))


class Tracer:
    """Span recorder.  With ``memory`` set, `run_dp` also runs under
    tracemalloc, which slows the allocation-heavy forward pass several
    times over, so memory is measured in a traced run of its own."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[tuple] = []
        self.request: int | None = None
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._dp_keys: set = set()
        self._oracle_keys: set = set()
        self.peak_mb = 0.0

    # -- request bracketing -------------------------------------------------
    def begin(self, request: int) -> None:
        self.request = request
        self._dp_keys = set()
        self._oracle_keys = set()

    def end(self) -> None:
        self.counts["dp.run_dp.distinct"] += len(self._dp_keys)
        self.counts["oracle.exhaustive.distinct"] += len(self._oracle_keys)
        self.request = None

    # -- span recording -----------------------------------------------------
    def _open(self) -> tuple[int, int | None]:
        sid = len(self.spans)
        self.spans.append(None)  # placeholder keeps ids in call order
        return sid, (self._stack[-1] if self._stack else None)

    def _call(self, name: str, fn, args, kwargs):
        sid, parent = self._open()
        self._stack.append(sid)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, parent, self.request, name, start, end, end - start)

    def _generator(self, name: str, gen):
        sid, parent = self._open()
        request = self.request
        start = perf_counter()
        busy = 0.0
        emitted = 0
        try:
            while True:
                self._stack.append(sid)
                t = perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    busy += perf_counter() - t
                    self._stack.pop()
                emitted += 1
                yield item
        finally:
            gen.close()
            self.counts[name + ".emitted"] += emitted
            self.spans[sid] = (sid, parent, request, name, start, perf_counter(), busy)

    def _run_dp(self, fn, f, n, *, keep_table=True):
        self.counts["dp.run_dp.squares"] += n
        self._dp_keys.add((_table_key(f), n, keep_table))
        if not self.memory:
            return self._call("dp.run_dp", fn, (f, n), {"keep_table": keep_table})
        tracemalloc.start()
        try:
            return self._call("dp.run_dp", fn, (f, n), {"keep_table": keep_table})
        finally:
            self.peak_mb = max(self.peak_mb, tracemalloc.get_traced_memory()[1] / 2**20)
            tracemalloc.stop()

    def _exhaustive(self, fn, f, n, *args, **kwargs):
        self.counts["oracle.exhaustive.chains"] += 2 ** (n - 2)
        self._oracle_keys.add((_table_key(f), n))
        return self._call("oracle.exhaustive", fn, (f, n) + args, kwargs)

    def _main(self, fn, argv=None):
        code = self._call("cli.main", fn, (argv,), {})
        if code == 2:
            self.counts["cli.main.exit2"] += 1
        return code

    def _chains(self, fn, table, k=None, end=None, dedup=False, limit=None):
        gen = self._generator("dp.chains", fn(table, k, end, dedup, limit))
        if dedup and limit is None:
            return self._dedup_chains(table.labeled_count(k, end), gen)
        return gen

    # -- installation -------------------------------------------------------
    def _wrap(self, name: str, fn):
        special = {
            "dp.run_dp": self._run_dp,
            "oracle.exhaustive": self._exhaustive,
            "cli.main": self._main,
            "dp.chains": self._chains,
        }.get(name)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.request is None:
                return fn(*args, **kwargs)
            counts[name + ".calls"] += 1
            if special is not None:
                return special(fn, *args, **kwargs)
            return self._call(name, fn, args, kwargs)

        return wrapper

    def _dedup_chains(self, labeled: int, gen):
        kept = 0
        try:
            for item in gen:
                kept += 1
                yield item
        finally:
            gen.close()
            self.counts["dp.chains.dedup_labeled"] += labeled
            self.counts["dp.chains.dedup_emitted"] += kept

    def install(self, package) -> None:
        """Wrap every traced function in every module that binds it."""
        modules = [package] + [sys.modules[f"{package.__name__}.{m}"] for m in MODULES]
        for (home, attr), name in FUNCTIONS.items():
            original = getattr(sys.modules[f"{package.__name__}.{home}"], attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        table_cls = sys.modules[f"{package.__name__}.dp"].DPTable
        for attr in ("witness", "chains"):
            original = table_cls.__dict__[attr]
            self._restore.append((table_cls, attr, original))
            setattr(table_cls, attr, self._wrap(f"dp.{attr}", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- reporting ----------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Per span name: busy time minus the busy time of direct children."""
        child_busy = defaultdict(float)
        for span in self.spans:
            if span is not None and span[1] is not None:
                child_busy[span[1]] += span[6]
        totals = defaultdict(float)
        for span in self.spans:
            if span is not None:
                totals[span[3]] += span[6] - child_busy[span[0]]
        return totals

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\trequest\tname\tstart\tend\tbusy\n")
            for span in self.spans:
                if span is not None:
                    fh.write("\t".join("" if v is None else str(v) for v in span) + "\n")

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        c = self.counts
        self_s = self.self_times()
        out = {f"{name}.self_s": (self_s.get(name, 0.0), "s") for name in SELF_TIMES}

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out.update({
            "dp.run_dp.calls": (c["dp.run_dp.calls"], "count"),
            "dp.run_dp.squares": (c["dp.run_dp.squares"], "count"),
            "dp.run_dp.distinct_ratio": (ratio(c["dp.run_dp.distinct"], c["dp.run_dp.calls"]), "ratio"),
            "dp.run_dp.peak_mb": (self.peak_mb, "MB"),
            "dp.chains.emitted": (c["dp.chains.emitted"], "count"),
            "dp.chains.kept_ratio": (ratio(c["dp.chains.dedup_emitted"], c["dp.chains.dedup_labeled"]), "ratio"),
            "oracle.exhaustive.calls": (c["oracle.exhaustive.calls"], "count"),
            "oracle.exhaustive.chains": (c["oracle.exhaustive.chains"], "count"),
            "oracle.exhaustive.distinct_ratio": (
                ratio(c["oracle.exhaustive.distinct"], c["oracle.exhaustive.calls"]), "ratio"),
            "cli.main.calls": (c["cli.main.calls"], "count"),
            "cli.main.output_bytes": (c["cli.main.output_bytes"], "bytes"),
            "cli.main.exit2": (c["cli.main.exit2"], "count"),
            "indices.increment_table.calls": (c["indices.increment_table.calls"], "count"),
        })
        return out
