"""Answer checks, run after each request and outside its timed interval.

Chain values are re-scored without the DP kernel: the four attachment
increments and the two three-square values are read off the graph
evaluator (`evaluate_direct`) on chains of at most four squares, and a
chain's value is the three-square value of its first link plus the
increments of its link transitions.  Every check returns None when the
answer holds and a one-line reason when it does not.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from fractions import Fraction
from itertools import pairwise

FLOAT_RTOL = 1e-9      # float DP over 10**6 steps drifts by about 1e-10 relative
DECIMAL_RTOL = 1e-8    # the CLI prints 10 significant digits


class Scorer:
    """Chain values under one index, from the graph evaluator only."""

    def __init__(self, f, evaluate_direct):
        self.exact = f.mode == "rational"
        self.v3 = {i: evaluate_direct((i,), f) for i in (1, 2)}
        self.g = {
            (j, i): evaluate_direct((j, i), f) - self.v3[j] for j in (1, 2) for i in (1, 2)
        }

    def score(self, links) -> Fraction | float:
        links = tuple(links)
        total = self.v3[links[0]]
        for pair, count in Counter(pairwise(links)).items():
            total += count * self.g[pair]
        return total

    def constant(self, link: int, n: int):
        """Value of the chain whose n - 2 links are all `link`."""
        return self.v3[link] + (n - 3) * self.g[(link, link)]

    def same(self, a, b, rtol: float = FLOAT_RTOL) -> bool:
        if self.exact:
            return Fraction(a) == Fraction(b)
        return abs(float(a) - float(b)) <= rtol * max(1.0, abs(float(a)), abs(float(b)))


def _ordered(sign: int, better, worse, scorer: Scorer) -> bool:
    if scorer.same(better, worse):
        return True
    return (better - worse) * sign > 0


def check_extremal(res, objective: str, n: int, end, scorer: Scorer, azi_max) -> str | None:
    """Witness re-scores to the value, respects `end`, beats the straight
    and zigzag chains; the AZI maximum equals its closed form."""
    links = res.witness.links
    if len(links) != n - 2:
        return f"witness has {len(links)} links for n={n}"
    if end is not None and links[-1] != end:
        return f"witness ends with {links[-1]}, requested end {end}"
    if not scorer.same(scorer.score(links), res.value):
        return f"witness scores {scorer.score(links)} but value is {res.value}"
    sign = 1 if objective == "max" else -1
    for link in (1, 2):
        if end in (None, link) and not _ordered(sign, res.value, scorer.constant(link, n), scorer):
            return f"value {res.value} loses to the all-{link} chain"
    if azi_max is not None and objective == "max" and end in (None, 1) and res.value != azi_max(n):
        return f"AZI maximum {res.value} differs from closed form {azi_max(n)}"
    return None


def _parse_value(cell: dict):
    return Fraction(cell["rational"]) if cell["rational"] is not None else float(cell["decimal"])


def _flag(argv: list[str], name: str) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else None


class Expect:
    """What is known about one index independently of the engine.

    ``kind`` is "const" (every chain ties, value (3n+1)c), "planted"
    (a * AZI + b: AZI maximizers, value a * azi_max(n) + b(3n+1)),
    "azi", or "free" (nothing beyond re-scoring).
    """

    def __init__(self, kind: str, scorer: Scorer, a=Fraction(1), b=Fraction(0), c=None):
        self.kind, self.scorer, self.a, self.b, self.c = kind, scorer, a, b, c

    def max_value(self, n: int, azi_max):
        if self.kind == "const":
            return (3 * n + 1) * self.c
        if self.kind in ("azi", "planted") and n >= 5:
            return self.a * azi_max(n) + self.b * (3 * n + 1)
        return None

    def max_count(self, n: int) -> int | None:
        if self.kind == "const":
            return 2 ** (n - 2)
        if self.kind in ("azi", "planted") and n >= 5:
            return 1 if n % 2 else (n - 6) // 2 + 1
        return None

    def max_iso(self, n: int) -> int | None:
        if self.kind in ("azi", "planted") and n >= 5:
            return 1 if n % 2 else (n - 1) // 4
        return None


def _parse_plain(text: str) -> dict:
    lines = text.splitlines()
    value = lines[0].partition(": ")[2]
    # exact values read "p/q (approx d)", float-mode values are bare decimals
    out = {"value": Fraction(value.split(" ")[0]) if " (approx" in value else float(value)}
    for line in lines[1:]:
        if line.startswith("witness: "):
            out["witness"] = [int(x) for x in line[9:].split(",") if x]
        elif line.startswith("labeled count: "):
            out["labeled_count"] = int(line[15:])
        elif line.startswith("mirror classes: "):
            out["iso_count"] = int(line[16:])
    return out


def check_cli_extremal(argv: list[str], text: str, expect: Expect, azi_max) -> str | None:
    objective, n = argv[0], int(_flag(argv, "--n"))
    end = _flag(argv, "--end")
    end = int(end) if end is not None else None
    scorer = expect.scorer
    if _flag(argv, "--format") == "plain":
        doc = _parse_plain(text)
        value = doc["value"]
    else:
        doc = json.loads(text)
        value = _parse_value(doc["value"])
        if doc["n"] != n or doc["objective"] != objective:
            return "JSON echoes the wrong request"
    witness = doc["witness"]
    if end is not None and witness[-1] != end:
        return f"witness ends with {witness[-1]}, requested end {end}"
    if not scorer.same(scorer.score(witness), value, DECIMAL_RTOL):
        return f"witness scores {scorer.score(witness)} but value is {value}"
    if objective == "max" and end is None:
        want = expect.max_value(n, azi_max)
        if want is not None and value != want:
            return f"maximum {value} differs from the known {want}"
        want = expect.max_count(n)
        if want is not None and doc["labeled_count"] != want:
            return f"labeled_count {doc['labeled_count']} differs from the known {want}"
        want = expect.max_iso(n)
        if want is not None and doc.get("iso_count") not in (None, want):
            return f"iso_count {doc['iso_count']} differs from the known {want}"
    if expect.kind == "const" and doc["labeled_count"] != 2 ** (n - 2):
        return "constant index must count every chain"
    chains = doc.get("chains")
    if "--enumerate" not in argv:
        return None
    if chains is None:
        return "--enumerate printed no chains"
    if len({tuple(c) for c in chains}) != len(chains):
        return "enumeration repeats a chain"
    for chain in chains:
        if (end is not None and chain[-1] != end) or not scorer.same(scorer.score(chain), value, DECIMAL_RTOL):
            return f"enumerated chain {chain[:8]}... is not optimal"
    limit = _flag(argv, "--limit")
    dedup = "--dedup" in argv
    if dedup and len({min(tuple(c), tuple(c)[::-1]) for c in chains}) != len(chains):
        return "--dedup kept two mirror images"
    if limit is None and not dedup and len(chains) != doc["labeled_count"]:
        return f"{len(chains)} chains enumerated but labeled_count is {doc['labeled_count']}"
    if limit is None and dedup and doc.get("iso_count") is not None and len(chains) != doc["iso_count"]:
        return f"{len(chains)} mirror classes enumerated but iso_count is {doc['iso_count']}"
    if limit is not None and not dedup and len(chains) != min(int(limit), doc["labeled_count"]):
        return f"--limit {limit} gave {len(chains)} chains"
    return None


def check_cli_table(argv: list[str], text: str, expect: Expect, azi_max) -> str | None:
    lo, hi = int(_flag(argv, "--from")), int(_flag(argv, "--to"))
    if _flag(argv, "--format") == "json":
        rows = [
            {"n": r["n"], "max": _parse_value(r["max"]), "min": _parse_value(r["min"]),
             "labeled_count": r["labeled_count"], "iso_count": r["iso_count"]}
            for r in json.loads(text)["rows"]
        ]
    else:
        rows = [
            {"n": int(r["n"]), "max": Fraction(r["max"]), "min": Fraction(r["min"]),
             "labeled_count": int(r["labeled_count"]),
             "iso_count": int(r["iso_count"]) if r["iso_count"] else None}
            for r in csv.DictReader(io.StringIO(text))
        ]
    if [r["n"] for r in rows] != list(range(lo, hi + 1)):
        return "table rows do not cover the requested range"
    for r in rows:
        n = r["n"]
        if r["max"] < r["min"]:
            return f"n={n}: max below min"
        for got, want in ((r["max"], expect.max_value(n, azi_max)),
                          (r["labeled_count"], expect.max_count(n)),
                          (r["iso_count"], expect.max_iso(n))):
            if want is not None and got != want:
                return f"n={n}: table shows {got}, known answer {want}"
        if not _ordered(1, r["max"], expect.scorer.constant(1, n), expect.scorer):
            return f"n={n}: max loses to the straight chain"
        if not _ordered(-1, r["min"], expect.scorer.constant(2, n), expect.scorer):
            return f"n={n}: min exceeds the zigzag chain"
    return None


def check_exhaustive(report, n: int, scorer: Scorer, dp_count: int) -> str | None:
    """Extremal sets are non-empty, re-score to their values, and the
    argmax set has as many members as the engine counts."""
    if not report.argmax or not report.argmin:
        return "empty extremal set"
    if report.max_value < report.min_value:
        return "oracle max below min"
    for chains, value in ((report.argmax, report.max_value), (report.argmin, report.min_value)):
        for chain in chains:
            if chain.square_count != n or not scorer.same(scorer.score(chain.links), value):
                return f"oracle chain {chain.to_string()} does not score {value}"
    best_end = max(report.per_end_max.values())
    if not scorer.same(best_end, report.max_value):
        return "per-end maxima disagree with the global maximum"
    if len(report.argmax) != dp_count:
        return f"oracle finds {len(report.argmax)} maximizers, engine counts {dp_count}"
    return None
