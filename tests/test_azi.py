"""AZI closed forms, extremal families and the verification sweeps."""

from fractions import Fraction
from itertools import product

import pytest

import polychain.azi as azi_mod
import polychain.oracle as oracle_mod
from polychain.azi import (
    _azi_family,
    azi_extremal_chains,
    azi_extremal_report,
    azi_max_closed_form,
    verify_azi_maximum,
    verify_azi_minimum,
)
from polychain.chains import LinkVector, az1_chain, az2_family, linear_chain, zigzag_chain
from polychain.dp import CASE_LINEAR_ALWAYS, DPTable, maximize, minimize, run_dp
from polychain.indices import evaluate_direct, preset

AZI = preset("azi")


class TestClosedForm:
    def test_anchor_values(self):
        assert azi_max_closed_form(5) == Fraction(329717, 2000)
        assert azi_max_closed_form(6) == Fraction(10790359, 54000)
        assert azi_max_closed_form(7) == Fraction(4456, 125) * 7 - Fraction(26763, 2000)

    def test_against_brute_force(self):
        for n in (5, 6):
            expected = max(
                evaluate_direct(links, AZI) for links in product((1, 2), repeat=n - 2)
            )
            assert azi_max_closed_form(n) == expected

    def test_needs_five_squares(self):
        with pytest.raises(ValueError, match="n >= 5"):
            azi_max_closed_form(4)

    def test_parity_offset(self):
        for n in range(6, 30, 2):
            gap = (Fraction(4456, 125) * n - Fraction(26763, 2000)) - azi_max_closed_form(n)
            assert gap == Fraction(2312, 3375)


class TestExtremalChains:
    def test_small_cases(self):
        assert azi_extremal_chains(3) == [linear_chain(3)]
        assert {c.links for c in azi_extremal_chains(4)} == {(1, 2), (2, 1)}

    def test_odd_is_single_az1(self):
        assert azi_extremal_chains(9) == [az1_chain(4)]
        assert azi_extremal_chains(201) == [az1_chain(100)]

    def test_even_is_az2_family(self):
        assert azi_extremal_chains(12) == az2_family(6)

    def test_members_attain_closed_form_independently(self):
        # scored edge-by-edge, without the dynamic program
        for n in range(5, 31):
            cf = azi_max_closed_form(n)
            for member in azi_extremal_chains(n):
                assert evaluate_direct(member, AZI) == cf


class TestExtremalReport:
    def test_odd_case(self):
        rep = azi_extremal_report(9)
        assert (rep.family, rep.family_m) == ("AZ1", 4)
        assert rep.labeled_count == rep.iso_count == 1
        assert rep.closed_value == azi_max_closed_form(9)

    def test_even_case(self):
        rep = azi_extremal_report(12)
        assert (rep.family, rep.family_m) == ("AZ2", 6)
        assert rep.labeled_count == 4
        assert rep.iso_count == 2

    def test_n4_pair(self):
        rep = azi_extremal_report(4)
        assert rep.family == "pair4"
        assert rep.labeled_count == 2
        assert rep.iso_count == 1
        assert rep.closed_value == Fraction(513013, 4000)

    def test_n3_linear(self):
        rep = azi_extremal_report(3)
        assert rep.family == "Li"
        assert rep.labeled_count == rep.iso_count == 1
        assert rep.closed_value == Fraction(1497, 16)

    def test_needs_three_squares(self):
        with pytest.raises(ValueError):
            azi_extremal_report(2)

    def test_family_rule_is_the_reports(self):
        for n in range(3, 2001):
            rep = azi_extremal_report(n)
            assert _azi_family(n) == (rep.family, rep.family_m, rep.labeled_count, rep.iso_count)

    def test_counts_match_enumeration(self):
        table = run_dp(AZI, 40)
        for n in range(3, 41):
            rep = azi_extremal_report(n)
            assert rep.labeled_count == table.labeled_count(n)
            assert rep.iso_count == sum(1 for _ in table.chains(n, dedup=True))
            expected = {c.links for c in azi_extremal_chains(n)}
            assert {c.links for c in table.chains(n)} == expected


class TestEndDominance:
    def test_end1_strictly_wins_from_five(self):
        table = run_dp(AZI, 60)
        for n in range(5, 61):
            assert table.value(n, 1) > table.value(n, 2)


class TestVerifySweeps:
    def test_maximum_succeeds(self):
        report = verify_azi_maximum(16)
        assert report.ok
        assert report.failure is None
        assert report.checks_run > 50
        assert report.to_json()["status"] == "success"

    def test_maximum_large_value_only(self):
        report = verify_azi_maximum(400, oracle_n_max=8)
        assert report.ok

    def test_maximum_needs_five(self):
        with pytest.raises(ValueError, match="n >= 5"):
            verify_azi_maximum(4)

    def test_minimum_succeeds(self):
        report = verify_azi_minimum(16)
        assert report.ok
        assert report.info == {"tie_at_threshold": False}

    def test_minimum_needs_three(self):
        with pytest.raises(ValueError, match="n >= 3"):
            verify_azi_minimum(2)

    def test_minimum_boundary_witnesses(self):
        assert minimize(AZI, 5).witness == zigzag_chain(5)
        assert minimize(AZI, 5).labeled_count == 1
        assert minimize(AZI, 6).witness == linear_chain(6)
        assert minimize(AZI, 6).labeled_count == 1

    def test_passing_claims_build_no_chain_text(self, monkeypatch):
        # a claim naming a chain writes its text only for the failing row
        def refuse(self):
            raise AssertionError("a passing claim built chain text")

        monkeypatch.setattr(LinkVector, "to_string", refuse)
        assert verify_azi_maximum(30, oracle_n_max=12).ok

    def test_failure_report_shape(self, monkeypatch):
        # sabotage the closed form; the sweep must catch it on its first check
        monkeypatch.setattr(
            azi_mod, "azi_max_closed_form", lambda n: Fraction(1)
        )
        report = verify_azi_maximum(6, oracle_n_max=0)
        assert not report.ok
        assert report.to_json()["status"] == "failure"
        row = report.failure
        assert set(row) == {"n", "claim", "expected", "actual", "status"}
        assert row["n"] == 5
        assert row["status"] == "fail"
        assert row["expected"] == "1"

    def test_checks_the_report_counts(self, monkeypatch):
        # CLI `table` prints the report's counts, so a wrong one must fail
        real = azi_mod.azi_extremal_report
        monkeypatch.setattr(azi_mod, "azi_extremal_report",
                            lambda n: real(n)._replace(iso_count=real(n).iso_count + 1))
        report = verify_azi_maximum(8, oracle_n_max=0)
        assert not report.ok
        assert report.failure["claim"] == "mirror-class maximizer count"
        assert (report.failure["n"], report.failure["expected"], report.failure["actual"]) == (5, "2", "1")


def _wrap(monkeypatch, owner, name, wrapper):
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *a, **kw: wrapper(real, *a, **kw))


def _patch_oracle(monkeypatch, extreme, edit):
    # the verify sweeps read one extreme over both ends of the oracle's
    # sweep, as (value, byte words): edit(n, value, words) replaces that pair
    _wrap(monkeypatch, oracle_mod, "_sweep", lambda real, f, n, cap, picks: [
        edit(n, *found) if pick == (extreme, (1, 2)) else found
        for pick, found in zip(picks, real(f, n, cap, picks))])


# one sabotage per claim, each breaking it at one n, with the report row
# (checks_run, n, claim, expected, actual) the sweep must stop at
SABOTAGES = [
    pytest.param(
        lambda mp: _wrap(mp, azi_mod, "azi_max_closed_form", lambda real, n: real(n) + (n == 7)),
        "azi-maximum", 12,
        (5, 7, "maximum equals closed form", "474309/2000", "472309/2000"),
        id="closed-form"),
    pytest.param(  # a tie, not a drop: a drop would fail the closed form first
        lambda mp: _wrap(mp, DPTable, "value", lambda real, self, k, i: real(
            self, k, 1 if (self.f.name, k, i) == ("azi", 11, 2) else i)),
        "azi-maximum", 30,
        (14, 11, "end-link-1 value strictly dominant", "757493/2000 < value(n,1)", "757493/2000"),
        id="dominance"),
    pytest.param(
        lambda mp: _wrap(mp, azi_mod, "azi_extremal_chains",
                         lambda real, n: real(n)[:-1] if n == 10 else real(n)),
        "azi-maximum", 12,
        (38, 10, "maximizer set equals expected family",
         "['1,2,1,2,2,1,2,1', '1,2,2,1,2,1,2,1']",
         "['1,2,1,2,1,2,2,1', '1,2,1,2,2,1,2,1', '1,2,2,1,2,1,2,1']"),
        id="maximizer-set"),
    pytest.param(
        lambda mp: _wrap(mp, azi_mod, "azi_extremal_report", lambda real, n: real(n)._replace(
            labeled_count=real(n).labeled_count + (n == 9))),
        "azi-maximum", 12,
        (35, 9, "labeled maximizer count", "2", "1"),
        id="labeled-count"),
    pytest.param(
        lambda mp: _wrap(mp, azi_mod, "azi_extremal_report", lambda real, n: real(n)._replace(
            iso_count=real(n).iso_count + (n == 12))),
        "azi-maximum", 12,
        (50, 12, "mirror-class maximizer count", "3", "2"),
        id="mirror-class-count"),
    pytest.param(
        lambda mp: _wrap(mp, azi_mod, "evaluate_direct",
                         lambda real, c, f: real(c, f) + (c == az2_family(4)[-1])),
        "azi-maximum", 12,
        (33, 8, "family member 1,2,1,2,2,1 attains the closed form",
         "14640343/54000", "14694343/54000"),
        id="family-member"),
    pytest.param(
        lambda mp: _patch_oracle(mp, max, lambda n, v, words: (v - (n == 6), words)),
        "azi-maximum", 12,
        (57, 6, "oracle maximum equals closed form", "10790359/54000", "10736359/54000"),
        id="oracle-maximum"),
    pytest.param(
        lambda mp: _patch_oracle(mp, max, lambda n, v, words: (
            v, words + [bytes(linear_chain(n).links)] * (n == 7))),
        "azi-maximum", 12,
        (60, 7, "oracle argmax equals expected family",
         "['1,2,1,2,1']", "['1,1,1,1,1', '1,2,1,2,1']"),
        id="oracle-argmax"),
    pytest.param(
        lambda mp: _wrap(mp, azi_mod, "classify",
                         lambda real, f: real(f)._replace(case=CASE_LINEAR_ALWAYS)),
        "azi-minimum", 12,
        (1, 0, "negated-index classifier case", "zigzag-then-linear", "linear-always"),
        id="classifier-case"),
    pytest.param(
        lambda mp: _wrap(mp, azi_mod, "classify", lambda real, f: real(f)._replace(n_star=7)),
        "azi-minimum", 12,
        (2, 0, "zigzag-to-linear threshold", "6", "7"),
        id="threshold"),
    pytest.param(
        lambda mp: _wrap(mp, azi_mod, "zigzag_chain",
                         lambda real, n: linear_chain(n) if n == 4 else real(n)),
        "azi-minimum", 12,
        (5, 4, "minimizer set", "['1,1']", "['2,2']"),
        id="minimizer-set"),
    pytest.param(
        lambda mp: _wrap(mp, DPTable, "labeled_count", lambda real, self, k=None, end=None: real(
            self, k, end) + ((self.f.name, k) == ("azi_neg", 9))),
        "azi-minimum", 12,
        (16, 9, "unique minimizer", "1", "2"),
        id="unique-minimizer"),
    pytest.param(
        lambda mp: _patch_oracle(mp, min, lambda n, v, words: (
            v, words + [bytes(zigzag_chain(n).links)] * (n == 10))),
        "azi-minimum", 12,
        (30, 10, "oracle argmin set",
         "['1,1,1,1,1,1,1,1']", "['1,1,1,1,1,1,1,1', '2,2,2,2,2,2,2,2']"),
        id="oracle-argmin"),
]


class TestFailureRows:
    @pytest.mark.parametrize("sabotage, name, n_max, row", SABOTAGES)
    def test_first_failing_claim_is_reported(self, monkeypatch, sabotage, name, n_max, row):
        sabotage(monkeypatch)
        sweep = verify_azi_maximum if name == "azi-maximum" else verify_azi_minimum
        checks_run, n, claim, expected, actual = row
        assert sweep(n_max).to_json() == {
            "name": name,
            "n_max": n_max,
            "status": "failure",
            "checks_run": checks_run,
            "failure": {"n": n, "claim": claim, "expected": expected, "actual": actual,
                        "status": "fail"},
            "info": {},
        }


class TestConsistencyWithEngine:
    def test_dp_equals_closed_form_sample(self):
        for n in (5, 17, 64, 129, 500):
            assert maximize(AZI, n).value == azi_max_closed_form(n)
