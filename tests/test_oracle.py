"""Exhaustive oracle: anchors, caps, and engine cross-checks."""

from fractions import Fraction

import pytest

import polychain.dp as dp_mod
from polychain.chains import linear_chain
from polychain.dp import DPTable, ExtremalResult
from polychain.indices import evaluate_direct, preset
from polychain.oracle import cross_check, exhaustive

AZI = preset("azi")


class TestExhaustive:
    def test_six_square_extrema(self):
        rep = exhaustive(AZI, 6)
        assert rep.max_value == Fraction(10790359, 54000)
        assert rep.min_value == Fraction(12549, 64)  # the 6-square linear chain
        assert [tuple(c) for c in rep.argmax] == [(1, 2, 2, 1)]
        assert [tuple(c) for c in rep.argmin] == [(1, 1, 1, 1)]

    def test_four_square_argmax_pair(self):
        rep = exhaustive(AZI, 4)
        assert [tuple(c) for c in rep.argmax] == [(1, 2), (2, 1)]
        assert rep.per_end_max[1] == rep.per_end_max[2] == Fraction(513013, 4000)

    def test_three_square_report(self):
        rep = exhaustive(AZI, 3)
        assert {tuple(c) for c in rep.argmax} | {tuple(c) for c in rep.argmin} == {(1,), (2,)}
        assert [tuple(c) for c in rep.per_end_argmax[1]] == [(1,)]
        assert [tuple(c) for c in rep.per_end_argmax[2]] == [(2,)]

    def test_argmax_in_lexicographic_order(self):
        rep = exhaustive(AZI, 12)
        words = [tuple(c) for c in rep.argmax]
        assert words == sorted(words)

    def test_cap_refusal(self):
        with pytest.raises(ValueError, match="exceeds the oracle cap"):
            exhaustive(AZI, 25)
        rep = exhaustive(AZI, 13, cap=13)  # explicit override on a small case
        assert rep.n == 13

    def test_needs_three_squares(self):
        with pytest.raises(ValueError, match="n >= 3"):
            exhaustive(AZI, 2)

    def test_min_is_linear_for_large_n(self):
        rep = exhaustive(AZI, 9)
        assert [c.links for c in rep.argmin] == [linear_chain(9).links]
        assert rep.min_value == evaluate_direct(linear_chain(9), AZI)

    def test_json_shape(self):
        doc = exhaustive(AZI, 5).to_json()
        assert doc["n"] == 5
        assert doc["index"] == "azi"
        assert doc["max"]["rational"] == "329717/2000"
        assert doc["argmax"] == [[1, 2, 1]]
        assert set(doc["per_end_max"]) == {"1", "2"}


class TestCrossCheck:
    def test_azi_small_range(self):
        for n in range(3, 13):
            ok, mismatches = cross_check(AZI, n)
            assert ok, (n, mismatches)

    def test_harmonic(self):
        for n in range(3, 11):
            ok, mismatches = cross_check(preset("harmonic"), n)
            assert ok, (n, mismatches)

    def test_float_presets(self):
        for name in ("randic", "abc", "ga"):
            f = preset(name)
            for n in range(3, 11):
                ok, mismatches = cross_check(f, n)
                assert ok, (name, n, mismatches)

    def test_detects_engine_corruption(self, monkeypatch):
        real_maximize = dp_mod.maximize

        def corrupted(f, n, end=None, *, count_iso=False):
            res = real_maximize(f, n, end, count_iso=count_iso)
            return ExtremalResult(
                objective=res.objective,
                n=res.n,
                value=res.value + 1,
                per_end=res.per_end,
                witness=res.witness,
                labeled_count=res.labeled_count,
                iso_count=res.iso_count,
                index_name=res.index_name,
                mode=res.mode,
                tolerance_dependent=res.tolerance_dependent,
            )

        monkeypatch.setattr(dp_mod, "maximize", corrupted)
        ok, mismatches = cross_check(AZI, 6)
        assert not ok
        assert any("max value" in m for m in mismatches)

    def test_detects_negated_table_corruption(self, monkeypatch):
        real_chains = DPTable.chains

        def dropping(table, k=None, end=None, dedup=False, limit=None):
            chains = list(real_chains(table, k, end, dedup, limit))
            return iter(chains[1:] if table.f.name.endswith("_neg") else chains)

        monkeypatch.setattr(DPTable, "chains", dropping)
        ok, mismatches = cross_check(AZI, 6)
        assert not ok
        assert [m.split(":")[0] for m in mismatches] == ["argmin set"]

    def test_detects_streaming_count_corruption(self, monkeypatch):
        real_count = DPTable.labeled_count

        def inflated(table, k=None, end=None):
            count = real_count(table, k, end)
            return count + 1 if len(table) == 1 else count  # a streaming table holds one row

        monkeypatch.setattr(DPTable, "labeled_count", inflated)
        ok, mismatches = cross_check(AZI, 6)
        assert not ok
        assert [m.split(":")[0] for m in mismatches] == ["end-1 maximal count", "end-2 maximal count"]

    def test_five_forward_passes(self, monkeypatch):
        real_run_dp = dp_mod.run_dp
        calls = []

        def counting(f, n, **kwargs):
            calls.append((f.name, n, kwargs))
            return real_run_dp(f, n, **kwargs)

        monkeypatch.setattr(dp_mod, "run_dp", counting)
        ok, mismatches = cross_check(AZI, 10)
        assert ok, mismatches
        assert len(calls) <= 5, calls
