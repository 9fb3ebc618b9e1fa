"""Closed-form extremal results for the augmented Zagreb index (AZI).

The AZI is the degree-based index with f(x, y) = (xy / (x + y - 2))**3.
Over n-square polyomino chains its maximum is attained by the augmented
zigzag families: the all-length-3-segment chain AZ1 for odd n >= 5, and
the AZ2 family (one internal length-2 segment) for even n >= 6, with

    max = (4456/125) n - 26763/2000 - (2312/3375 if n even else 0).

The maximizer is unique for odd n; for even n there are (n - 6)/2 + 1
labeled maximizers and ceil(n/4 - 1) up to mirror symmetry.  The
minimum is attained by the zigzag chain for n in {3, 4, 5} and by the
linear chain for n >= 6.

Everything here runs in exact rational arithmetic only, and the verify
functions re-derive each claim from the generic engine (plus, for small
n, the exhaustive oracle) instead of trusting the formulas.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import NamedTuple

from .chains import LinkVector, az1_chain, az2_family, linear_chain, zigzag_chain
from .dp import CASE_ZIGZAG_THEN_LINEAR, classify, run_dp
from .indices import IndexFunction, evaluate_direct, negate, preset
from . import oracle

__all__ = [
    "ChainFamilyReport",
    "VerificationReport",
    "azi_max_closed_form",
    "azi_extremal_chains",
    "azi_extremal_report",
    "verify_azi_maximum",
    "verify_azi_minimum",
]

ORACLE_N_MAX = 16  # default reach of the exhaustive sweeps in the verify functions


@cache
def _azi() -> IndexFunction:
    return preset("azi")


def azi_max_closed_form(n: int) -> Fraction:
    """Exact maximum AZI over n-square chains (stated for n >= 5)."""
    if n < 5:
        raise ValueError(f"closed form stated for n >= 5, got {n}")
    value = Fraction(4456, 125) * n - Fraction(26763, 2000)
    if n % 2 == 0:
        value -= Fraction(2312, 3375)
    return value


def azi_extremal_chains(n: int) -> list[LinkVector]:
    """The AZI-maximizing chains with n squares, as labeled link vectors."""
    if n < 3:
        raise ValueError(f"extremal families start at n = 3, got {n}")
    if n == 3:
        return [linear_chain(3)]
    if n == 4:
        return [LinkVector((1, 2)), LinkVector((2, 1))]
    if n % 2 == 1:
        return [az1_chain((n - 1) // 2)]
    return az2_family(n // 2)


class ChainFamilyReport(NamedTuple):
    """Which family maximizes the AZI at a given n, with value and counts.

    `family` is one of "Li" (n = 3), "pair4" (the two mirror-image
    maximizers at n = 4), "AZ1" (odd n >= 5) or "AZ2" (even n >= 6);
    `family_m` is the segment count for the AZ families.  `iso_count`
    merges mirror pairs.
    """

    n: int
    family: str
    family_m: int | None
    closed_value: Fraction
    labeled_count: int
    iso_count: int


def _azi_family(n: int) -> tuple[str, int | None, int, int]:
    """The AZI-maximizing family at n >= 3 squares: its name, segment
    count m, labeled count and count up to mirror symmetry (see
    `ChainFamilyReport`)."""
    if n == 3:
        return "Li", None, 1, 1
    if n == 4:
        return "pair4", None, 2, 1
    if n % 2 == 1:
        return "AZ1", (n - 1) // 2, 1, 1
    return "AZ2", n // 2, (n - 6) // 2 + 1, (n - 1) // 4


def azi_extremal_report(n: int) -> ChainFamilyReport:
    """Family, maximum value and maximizer counts for n squares.

    For n in {3, 4} the value comes from the dynamic program (no closed
    form is claimed there); from n = 5 on it is the closed form.
    """
    if n < 3:
        raise ValueError(f"chains need n >= 3 squares here, got {n}")
    family, m, labeled, iso = _azi_family(n)
    value = run_dp(_azi(), n).best_value() if n < 5 else azi_max_closed_form(n)
    return ChainFamilyReport(n, family, m, value, labeled, iso)


class VerificationReport:
    """Outcome of one verification sweep.

    Stops at the first failing check; `failure` then carries a row
    {n, claim, expected, actual, status} and `ok` is False.  `info` is
    a fresh dict per report unless one is given.
    """

    def __init__(self, name: str, n_max: int, ok: bool, checks_run: int,
                 failure: dict | None = None, info: dict | None = None):
        self.name, self.n_max, self.ok, self.checks_run = name, n_max, ok, checks_run
        self.failure, self.info = failure, {} if info is None else info

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is VerificationReport else NotImplemented

    def __repr__(self) -> str:
        return f"VerificationReport({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "n_max": self.n_max,
            "status": "success" if self.ok else "failure",
            "checks_run": self.checks_run,
            "failure": self.failure,
            "info": self.info,
        }


def _run(name: str, n_max: int, claims) -> VerificationReport:
    """Count claim rows (n, claim, ok, detail) up to the first false `ok`, whose
    `detail()` gives (expected, actual) before the generator resumes.  A
    claim whose text costs to build is a function giving it, called only
    for the failing row."""
    checks = 0
    for n, claim, ok, detail in claims:
        checks += 1
        if not ok:
            expected, actual = detail()
            claim = claim if isinstance(claim, str) else claim()
            row = {"n": n, "claim": claim, "expected": str(expected), "actual": str(actual),
                   "status": "fail"}
            return VerificationReport(name, n_max, False, checks, row)
    return VerificationReport(name, n_max, True, checks)


def _equals(n: int, claim, expected, actual) -> tuple:
    """The claim row that `actual` equals `expected`."""
    return n, claim, actual == expected, lambda: (expected, actual)


def _same_chains(n: int, claim: str, expected, actual) -> tuple:
    """The claim row that two chain collections hold the same link words."""
    want, got = set(expected), set(actual)
    return n, claim, want == got, lambda: tuple(
        [c.to_string() for c in sorted(s)] for s in (want, got))


def _minimizer(n: int) -> LinkVector:
    return zigzag_chain(n) if n <= 5 else linear_chain(n)


def verify_azi_maximum(
    n_max: int,
    structure_n_max: int | None = None,
    oracle_n_max: int | None = None,
) -> VerificationReport:
    """Check the AZI maximum claims for every 5 <= n <= n_max.

    Values are checked against the closed form for the whole range; the
    enumerated maximizer sets, and the counts and value of
    `azi_extremal_report`, up to `structure_n_max` (default
    min(n_max, 200), since enumeration is output-sensitive); and
    everything against the exhaustive oracle up to `oracle_n_max`
    (default min(n_max, 16)).  The sweep stops at its first failing
    claim; `checks_run` counts the claims up to and including it.
    """
    if n_max < 5:
        raise ValueError(f"closed form stated for n >= 5, got n_max={n_max}")
    structure_n_max = min(n_max, 200) if structure_n_max is None else min(structure_n_max, n_max)
    oracle_n_max = min(n_max, ORACLE_N_MAX) if oracle_n_max is None else min(oracle_n_max, n_max)
    f = _azi()
    table = run_dp(f, n_max)

    def claims():
        # each n's closed form once: the reports of the n the later loops read, kept
        reports = [azi_extremal_report(n) for n in range(5, max(structure_n_max, oracle_n_max) + 1)]
        for n in range(5, n_max + 1):
            closed = reports[n - 5].closed_value if n - 5 < len(reports) else azi_max_closed_form(n)
            yield _equals(n, "maximum equals closed form", closed, table.best_value(n))
            v1, v2 = table.value(n, 1), table.value(n, 2)
            yield (n, "end-link-1 value strictly dominant", v1 > v2,
                   lambda: (f"{v2} < value(n,1)", v1))
        for n in range(5, structure_n_max + 1):
            want = reports[n - 5]  # its counts are those CLI `table` prints
            family = azi_extremal_chains(n)
            yield _same_chains(n, "maximizer set equals expected family", family, table.chains(n))
            yield _equals(n, "labeled maximizer count", want.labeled_count, table.labeled_count(n))
            yield _equals(n, "mirror-class maximizer count", want.iso_count, table.iso_count(n))
            for member in family:
                # the claim's text is built only if it fails
                claim = lambda: f"family member {member.to_string()} attains the closed form"
                yield _equals(n, claim, want.closed_value, evaluate_direct(member, f))
        for n in range(5, oracle_n_max + 1):
            rep = oracle.exhaustive(f, n)
            yield _equals(n, "oracle maximum equals closed form",
                          reports[n - 5].closed_value, rep.max_value)
            yield _same_chains(n, "oracle argmax equals expected family",
                               azi_extremal_chains(n), rep.argmax)

    return _run("azi-maximum", n_max, claims())


def verify_azi_minimum(n_max: int, oracle_n_max: int | None = None) -> VerificationReport:
    """Check the AZI minimum claims for every 3 <= n <= n_max.

    The minimizer must be uniquely the zigzag chain for n in {3, 4, 5}
    and uniquely the linear chain from n = 6 on; the classifier applied
    to the negated index must land in the zigzag-then-linear case with
    threshold 6.  The oracle confirms the sets up to `oracle_n_max`
    (default min(n_max, 16)).  The sweep stops at its first failing
    claim; `checks_run` counts the claims up to and including it, and
    only a successful report carries `info["tie_at_threshold"]`.
    """
    if n_max < 3:
        raise ValueError(f"chains need n >= 3 squares here, got n_max={n_max}")
    oracle_n_max = min(n_max, ORACLE_N_MAX) if oracle_n_max is None else min(oracle_n_max, n_max)
    f = _azi()
    neg = negate(f)
    verdict = classify(neg)

    def claims():
        yield (0, "negated-index classifier case",
               verdict.case == CASE_ZIGZAG_THEN_LINEAR and verdict.premise_holds,
               lambda: (CASE_ZIGZAG_THEN_LINEAR, verdict.case))
        yield _equals(0, "zigzag-to-linear threshold", 6, verdict.n_star)
        table = run_dp(neg, n_max)
        for n in range(3, n_max + 1):
            yield _same_chains(n, "minimizer set", [_minimizer(n)], table.chains(n))
            yield _equals(n, "unique minimizer", 1, table.labeled_count(n))
        for n in range(3, oracle_n_max + 1):
            yield _same_chains(n, "oracle argmin set", [_minimizer(n)],
                               oracle.exhaustive(f, n).argmin)

    report = _run("azi-minimum", n_max, claims())
    if report.ok:
        report.info["tie_at_threshold"] = verdict.tie_at_threshold
    return report
