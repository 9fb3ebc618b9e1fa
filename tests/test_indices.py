"""Index tables, increments and the two evaluators."""

import copy
import json
import math
import pickle
import random
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest

from polychain.chains import LinkVector
from polychain.indices import (
    DEGREE_PAIRS,
    FLOAT,
    PRESET_NAMES,
    RATIONAL,
    IndexFunction,
    _texts,
    as_decimal_string,
    as_exact_string,
    degree_pair_sum,
    evaluate_direct,
    evaluate_recursive,
    force_float,
    increment_table,
    load_custom_index,
    negate,
    preset,
    values_equal,
)
from reference_graph import reference_multiset

RATIONAL_PRESETS = ["azi", "zagreb1", "zagreb2", "harmonic"]
FLOAT_PRESETS = ["abc", "ga", "sum_connectivity"]


def random_chain(rng, max_len=14):
    return [rng.choice((1, 2)) for _ in range(rng.randrange(0, max_len))]


def random_rational_table(rng):
    values = {
        pair: Fraction(rng.randrange(-1000, 1001), rng.randrange(1, 60))
        for pair in DEGREE_PAIRS
    }
    return IndexFunction("random", values)


class TestPresets:
    def test_azi_values(self):
        azi = preset("azi")
        assert azi.value(2, 2) == azi.value(2, 3) == azi.value(2, 4) == 8
        assert azi.value(3, 3) == Fraction(729, 64)
        assert azi.value(3, 4) == Fraction(1728, 125)
        assert azi.value(4, 4) == Fraction(512, 27)
        assert azi.mode == RATIONAL

    def test_value_is_symmetric(self):
        azi = preset("azi")
        assert azi.value(4, 3) == azi.value(3, 4)

    def test_value_rejects_foreign_degrees(self):
        azi = preset("azi")
        with pytest.raises(ValueError, match="outside the chain-graph domain"):
            azi.value(1, 2)
        with pytest.raises(ValueError, match="outside the chain-graph domain"):
            azi.value(3, 5)

    def test_simple_rational_presets(self):
        assert preset("zagreb1").value(3, 4) == 7
        assert preset("zagreb2").value(3, 4) == 12
        assert preset("harmonic").value(3, 4) == Fraction(2, 7)

    def test_float_presets(self):
        abc = preset("abc")
        assert abc.mode == FLOAT
        assert abc.value(3, 3) == pytest.approx(2 / 3)
        assert preset("ga").value(2, 3) == pytest.approx(2 * math.sqrt(6) / 5)
        assert preset("sum_connectivity").value(2, 2) == 0.5

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown index preset"):
            preset("wiener")

    def test_gamma_only_for_randic(self):
        with pytest.raises(ValueError, match="gamma only applies"):
            preset("azi", gamma=2)


class TestRandicGamma:
    def test_integer_gamma_is_rational(self):
        r1 = preset("randic", gamma=1)
        assert r1.mode == RATIONAL and r1.value(3, 4) == 12
        rm1 = preset("randic", gamma=-1)
        assert rm1.mode == RATIONAL and rm1.value(3, 4) == Fraction(1, 12)

    def test_default_gamma_is_minus_half_float(self):
        r = preset("randic")
        assert r.name == "randic(-1/2)"
        assert r.mode == FLOAT
        assert r.value(2, 2) == pytest.approx(0.5)
        assert r.value(3, 4) == pytest.approx(1 / math.sqrt(12))

    def test_half_integer_gamma_needs_square_products(self):
        # 6, 8 and 12 are not perfect squares, so gamma=1/2 falls back to floats
        r = preset("randic", gamma=Fraction(1, 2))
        assert r.mode == FLOAT
        assert r.value(2, 2) == pytest.approx(2.0)

    def test_tiny_exponent_builds_no_huge_power(self):
        # a root test of c**q with q = 10**9 would build a 2**(10**9) integer
        r = preset("randic", gamma=Fraction(1, 10**9))
        assert r.mode == FLOAT
        assert r.value(4, 4) == pytest.approx(1.0)

    def test_exponent_bound(self):
        assert preset("randic", gamma=64).value(4, 4) == 2**256
        assert preset("randic", gamma=-64).mode == RATIONAL
        for gamma in (65, -65, Fraction(2049, 2)):
            with pytest.raises(ValueError, match="randic exponent"):
                preset("randic", gamma=gamma)


class TestIncrementTable:
    def test_azi_increments(self):
        gt = increment_table(preset("azi"))
        assert gt.g11 == Fraction(2187, 64)
        assert gt.g12 == Fraction(138763, 4000)
        assert gt.g21 == Fraction(146421, 4000)
        assert gt.g22 == Fraction(944, 27)
        assert gt.g2 == Fraction(258059, 8000)
        assert gt.base == Fraction(3801, 64)

    def test_zagreb2_increments_against_direct_differences(self):
        # each increment is the index difference of the matching extension,
        # measured by the edge-multiset evaluator
        f = preset("zagreb2")
        gt = increment_table(f)
        pairs = {
            (1, 1): ([1], [1, 1]),
            (1, 2): ([1], [1, 2]),
            (2, 1): ([2], [2, 1]),
            (2, 2): ([2], [2, 2]),
        }
        for (j, i), (shorter, longer) in pairs.items():
            diff = evaluate_direct(longer, f) - evaluate_direct(shorter, f)
            assert gt.step(j, i) == diff
        assert gt.g2 == evaluate_direct([2], f) - evaluate_direct([], f)
        assert (gt.g11, gt.g12, gt.g21, gt.g22, gt.g2) == (27, 32, 28, 32, 31)

    def test_base_is_two_square_value(self):
        for name in RATIONAL_PRESETS:
            f = preset(name)
            assert increment_table(f).base == evaluate_direct([], f)
        for name in FLOAT_PRESETS:
            f = preset(name)
            assert values_equal(increment_table(f).base, evaluate_direct([], f), f.eps)

    def test_identity_g2_plus_g21(self):
        for name in RATIONAL_PRESETS:
            gt = increment_table(preset(name))
            assert gt.g2 + gt.g21 == gt.g11 + gt.g12
        for name in FLOAT_PRESETS:
            gt = increment_table(preset(name))
            assert values_equal(gt.g2 + gt.g21, gt.g11 + gt.g12)

    def test_identity_on_random_tables(self):
        rng = random.Random(123)
        for _ in range(200):
            gt = increment_table(random_rational_table(rng))
            assert gt.g2 + gt.g21 == gt.g11 + gt.g12

    def test_initial_values(self):
        gt = increment_table(preset("azi"))
        assert gt.initial(1) == Fraction(1497, 16)
        assert gt.initial(2) == Fraction(11456, 125)


class TestEvaluators:
    def test_direct_anchors(self):
        azi = preset("azi")
        assert evaluate_direct([], azi) == Fraction(3801, 64)
        assert evaluate_direct([1], azi) == Fraction(1497, 16)
        assert evaluate_direct([1, 2, 2, 1], azi) == Fraction(10790359, 54000)

    def test_recursive_anchors(self):
        azi = preset("azi")
        assert evaluate_recursive([], azi) == Fraction(3801, 64)
        assert evaluate_recursive([2], azi) == Fraction(11456, 125)
        assert evaluate_recursive([1, 2, 2, 1], azi) == Fraction(10790359, 54000)

    def test_recursive_equals_direct_exhaustively(self):
        for name in RATIONAL_PRESETS:
            f = preset(name)
            for n in range(2, 9):
                for links in product((1, 2), repeat=n - 2):
                    assert evaluate_recursive(links, f) == evaluate_direct(links, f)

    def test_recursive_equals_direct_float(self):
        for name in FLOAT_PRESETS + ["randic"]:
            f = preset(name)
            for links in product((1, 2), repeat=6):
                assert values_equal(evaluate_recursive(links, f), evaluate_direct(links, f), f.eps)

    def test_recursive_equals_direct_random_tables(self):
        rng = random.Random(3)
        for _ in range(30):
            f = random_rational_table(rng)
            links = random_chain(rng)
            assert evaluate_recursive(links, f) == evaluate_direct(links, f)

    def test_reversal_invariance(self):
        azi = preset("azi")
        rng = random.Random(5)
        for _ in range(60):
            links = random_chain(rng)
            assert evaluate_direct(links[::-1], azi) == evaluate_direct(links, azi)

    def test_accepts_link_vectors_and_raw_sequences(self):
        azi = preset("azi")
        assert evaluate_direct(LinkVector([1, 2]), azi) == evaluate_direct((1, 2), azi)
        assert evaluate_recursive(LinkVector([1, 2]), azi) == evaluate_recursive([1, 2], azi)

    def test_direct_runs_in_linear_memory(self):
        azi = preset("azi")
        rng = random.Random(17)
        links = LinkVector(rng.choice((1, 2)) for _ in range(10**5))
        tracemalloc.start()
        try:
            value = evaluate_direct(links, azi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a per-chain edge set and degree map took 89 MB, every corner's neighbour list 34 MB
        assert peak < 16 * 2**20
        assert value == evaluate_recursive(links, azi)


def float_tables():
    """The float presets, seeded random float tables, and their negations."""
    tables = [preset(name) for name in FLOAT_PRESETS + ["randic"]]
    rng = random.Random(11)
    for t, scale in enumerate((1.0, 1e-3, 1e3, 1e12)):
        values = {p: rng.uniform(-scale, scale) for p in DEGREE_PAIRS}
        tables.append(IndexFunction(f"uniform{t}", values, mode=FLOAT))
    return tables + [negate(f) for f in tables]


def exact_sum(links, f):
    """The exact Fraction sum of f's IEEE entries over the chain's degree pairs."""
    return sum(mult * Fraction(f.values[pair]) for pair, mult in reference_multiset(links).items())


class TestExactFloatSums:
    """Float values are the exact sums of the IEEE entries, correctly rounded."""

    @pytest.mark.parametrize("f", float_tables(), ids=lambda f: f.name)
    def test_evaluators_round_the_exact_sum(self, f):
        rng = random.Random(19)
        words = [links for n in range(2, 11) for links in product((1, 2), repeat=n - 2)]
        words += [[rng.choice((1, 2)) for _ in range(rng.randrange(9, 61))] for _ in range(100)]
        for links in words:
            pairs = reference_multiset(links)
            expected = float(exact_sum(links, f))
            assert evaluate_direct(links, f) == expected, (f.name, links)
            assert evaluate_recursive(links, f) == expected, (f.name, links)
            assert degree_pair_sum([pairs[p] for p in DEGREE_PAIRS], f) == expected, (f.name, links)

    @pytest.mark.parametrize("f", float_tables(), ids=lambda f: f.name)
    def test_increments_round_the_exact_increment(self, f):
        f22, f23, f24, f33, f34, f44 = (Fraction(f.values[p]) for p in DEGREE_PAIRS)
        gt = increment_table(f)
        exact = {
            "g11": 3 * f33,
            "g12": 3 * f34 + f24 + f23 - 2 * f33,
            "g21": f34 - f24 + f23 + 2 * f33,
            "g22": f44 + 2 * f24,
            "g2": 2 * f34 + 2 * f24 - f33,
            "base": 4 * f23 + 2 * f22 + f33,
        }
        for name, value in exact.items():
            assert getattr(gt, name) == float(value), (f.name, name)


class TestNegate:
    def test_values_and_name(self):
        neg = negate(preset("azi"))
        assert neg.value(3, 3) == Fraction(-729, 64)
        assert neg.name == "azi_neg"

    def test_increments_negate_entrywise(self):
        f = preset("zagreb2")
        gt, ng = increment_table(f), increment_table(negate(f))
        assert (ng.g11, ng.g12, ng.g21, ng.g22, ng.g2, ng.base) == (
            -gt.g11, -gt.g12, -gt.g21, -gt.g22, -gt.g2, -gt.base,
        )

    def test_evaluators_negate(self):
        f = preset("harmonic")
        links = [1, 2, 2, 1, 2]
        assert evaluate_direct(links, negate(f)) == -evaluate_direct(links, f)
        assert evaluate_recursive(links, negate(f)) == -evaluate_recursive(links, f)

    @staticmethod
    def derived_corpus():
        """The presets, 500 seeded rational tables with 6-digit denominators
        and 200 float tables, the first all 0.0, at varied eps."""
        rng = random.Random(34)
        tables = [preset(name) for name in PRESET_NAMES]
        tables += [IndexFunction(f"q{t}", {p: Fraction(rng.randrange(-10**7, 10**7),
                                                        rng.randrange(10**5, 10**6))
                                           for p in DEGREE_PAIRS}) for t in range(500)]
        tables.append(IndexFunction("zero", dict.fromkeys(DEGREE_PAIRS, 0.0), FLOAT))
        tables += [IndexFunction(f"x{t}", {p: rng.choice((0.0, rng.uniform(-5, 5), rng.random() * 1e-300,
                                                          rng.uniform(-1, 1) * 1e300))
                                           for p in DEGREE_PAIRS}, FLOAT, rng.choice((1e-9, 0.05, 2.0)))
                   for t in range(199)]
        return tables

    def test_derived_fields_equal_the_constructors(self):
        # negate derives its result from f's checked fields; each field must be
        # what the constructor builds from the negated values
        for f in self.derived_corpus():
            g = negate(f)
            built = IndexFunction(f.name + "_neg", {p: -v for p, v in f.values.items()}, f.mode, f.eps)
            assert type(g) is IndexFunction and g == built and repr(g) == repr(built), f.name
            for slot in IndexFunction.__slots__:
                got, want = getattr(g, slot), getattr(built, slot)
                assert got == want and type(got) is type(want), (f.name, slot)
            assert [type(v) for v in g.values.values()] == [type(v) for v in built.values.values()]
            assert list(g.values) == list(built.values)

    def test_twice_negated_and_pickled(self):
        for f in self.derived_corpus():
            g, twice = negate(f), negate(negate(f))
            # equality compares names too, and each negation appends "_neg"
            assert twice == IndexFunction(f.name + "_neg_neg", f.values, f.mode, f.eps), f.name
            assert (twice.values, twice.scaled, twice.den, twice.tol) == (f.values, f.scaled, f.den, f.tol)
            back = pickle.loads(pickle.dumps(g))
            assert back == g and repr(back) == repr(g)
            assert (back.scaled, back.den, back.tol) == (g.scaled, g.den, g.tol)
            with pytest.raises(AttributeError):
                g.eps = 1.0

    @staticmethod
    def eager(f):
        return IndexFunction(f.name + "_neg", {p: -v for p, v in f.values.items()}, f.mode, f.eps)

    @pytest.mark.parametrize("f", [*(preset(name) for name in PRESET_NAMES), preset("randic", -1)],
                             ids=lambda f: f.name)
    def test_lazy_values_are_the_eager_ones(self, f):
        # each observable is the first read of a fresh negation's values
        want = self.eager(f)
        if f.mode == RATIONAL:  # built on first read only
            with pytest.raises(AttributeError):
                IndexFunction.values.__get__(negate(f))
        assert negate(f) == want and want == negate(f)
        assert repr(negate(f)) == repr(want)
        got = negate(f).values
        assert got == want.values and list(got) == list(want.values)
        assert [type(v) for v in got.values()] == [type(v) for v in want.values.values()]
        g = negate(f)
        fields = ("scaled", "den", "tol", "mode", "eps")
        assert [getattr(g, x) for x in fields] == [getattr(want, x) for x in fields]
        for back in (pickle.loads(pickle.dumps(negate(f))), copy.copy(negate(f)),
                     copy.deepcopy(negate(f))):
            assert back == want and repr(back) == repr(want)
        twice = negate(negate(f))
        assert twice.name == f.name + "_neg_neg" and twice.values == f.values
        assert force_float(negate(f)) == force_float(want)
        assert repr(force_float(negate(f))) == repr(force_float(want))
        with pytest.raises(AttributeError):
            negate(f).den = 1
        with pytest.raises(AttributeError):
            negate(f).missing


class TestValuesEqual:
    def test_exact_mode(self):
        assert values_equal(Fraction(1, 3), Fraction(1, 3))
        assert not values_equal(Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**30))

    def test_float_mode_relative(self):
        assert values_equal(100.0, 100.0 + 5e-8, 1e-9)
        assert not values_equal(100.0, 100.0 + 5e-7, 1e-9)
        assert values_equal(0.0, 1e-10, 1e-9)

    def test_mixed_modes_refused(self):
        with pytest.raises(TypeError, match="mixed arithmetic modes"):
            values_equal(Fraction(1), 1.0)


class TestIndexFunctionValidation:
    def test_missing_pair(self):
        values = {p: Fraction(1) for p in DEGREE_PAIRS if p != (3, 4)}
        with pytest.raises(ValueError, match=r"pair \(3,4\) absent"):
            IndexFunction("partial", values)

    def test_float_in_rational_table(self):
        values = {p: Fraction(1) for p in DEGREE_PAIRS}
        values[(2, 2)] = 1.5
        with pytest.raises(ValueError, match="float value"):
            IndexFunction("mixed", values)

    def test_bad_eps(self):
        values = {p: 1.0 for p in DEGREE_PAIRS}
        with pytest.raises(ValueError, match="tolerance must be positive"):
            IndexFunction("bad", values, mode=FLOAT, eps=-1e-9)

    def test_non_finite_eps(self):
        values = {p: 1.0 for p in DEGREE_PAIRS}
        for eps in (float("inf"), float("nan"), 10**400):
            with pytest.raises(ValueError, match="tolerance must be positive and finite"):
                IndexFunction("bad", values, mode=FLOAT, eps=eps)

    def test_non_finite_float_entry(self):
        for bad in (float("inf"), float("-inf"), float("nan"), Fraction(10**400)):
            values = {p: 1.0 for p in DEGREE_PAIRS}
            values[(3, 4)] = bad
            with pytest.raises(ValueError, match=r"non-finite value for pair \(3,4\)"):
                IndexFunction("bad", values, mode=FLOAT)

    def test_force_float_refuses_overflow(self):
        values = {p: Fraction(1) for p in DEGREE_PAIRS}
        values[(2, 2)] = Fraction(10**400, 3)
        with pytest.raises(ValueError, match="non-finite"):
            force_float(IndexFunction("huge", values))

    def test_force_float(self):
        f = force_float(preset("azi"), eps=1e-6)
        assert f.mode == FLOAT and f.eps == 1e-6
        assert f.value(3, 3) == 729 / 64


class TestFloatOverflow:
    def huge(self, entry):
        return IndexFunction("huge", {p: entry for p in DEGREE_PAIRS}, mode=FLOAT)

    def test_increments_refused(self):
        with pytest.raises(ValueError, match="float overflow: increment g11 is inf"):
            increment_table(self.huge(1e308))

    def test_evaluators_refuse_overflowing_sums(self):
        f = self.huge(5e307)  # the 3-square chain has 10 edges
        with pytest.raises(ValueError, match="float overflow: index value is inf"):
            evaluate_direct([1], f)
        with pytest.raises(ValueError, match="float overflow: index value is inf"):
            evaluate_recursive([1], f)  # its exact g12 = 3 * 5e307 is finite
        f = self.huge(1e306)  # finite increments, 301 edges at n = 100
        assert math.isfinite(evaluate_recursive([1] * 48, f))
        for evaluate in (evaluate_direct, evaluate_recursive):
            with pytest.raises(ValueError, match="float overflow: index value is inf"):
                evaluate([1] * 98, f)
            with pytest.raises(ValueError, match="float overflow: index value is -inf"):
                evaluate([2] * 98, negate(f))

    def test_rational_mode_has_no_bound(self):
        f = IndexFunction("huge", {p: Fraction(10**400) for p in DEGREE_PAIRS})
        assert evaluate_direct([1, 2], f) == evaluate_recursive([1, 2], f) == 13 * 10**400


class TestCustomIndexDocuments:
    AZI_DOC = {
        "name": "azi",
        "mode": "rational",
        "values": {
            "2,2": "8",
            "2,3": "8",
            "2,4": "8",
            "3,3": "729/64",
            "3,4": "1728/125",
            "4,4": "512/27",
        },
    }

    def test_round_trip_matches_preset(self):
        f = load_custom_index(self.AZI_DOC)
        assert f.values == preset("azi").values
        assert f.mode == RATIONAL

    def test_json_text_accepted(self):
        f = load_custom_index(json.dumps(self.AZI_DOC))
        assert f.values == preset("azi").values

    def test_missing_pair(self):
        doc = {**self.AZI_DOC, "values": {k: v for k, v in self.AZI_DOC["values"].items() if k != "3,4"}}
        with pytest.raises(ValueError, match=r"pair \(3,4\) absent"):
            load_custom_index(doc)

    def test_zero_denominator(self):
        doc = {**self.AZI_DOC, "values": {**self.AZI_DOC["values"], "2,2": "1/0"}}
        with pytest.raises(ValueError, match="zero denominator"):
            load_custom_index(doc)

    def test_malformed_rational(self):
        for bad in ("1.5", "2/3/4", "x", "1/-2", ""):
            doc = {**self.AZI_DOC, "values": {**self.AZI_DOC["values"], "2,2": bad}}
            with pytest.raises(ValueError, match="malformed rational"):
                load_custom_index(doc)

    def test_signed_rationals_parse(self):
        doc = {**self.AZI_DOC, "name": "signed",
               "values": {**self.AZI_DOC["values"], "2,2": "-3/7", "2,3": "+2"}}
        f = load_custom_index(doc)
        assert f.value(2, 2) == Fraction(-3, 7)
        assert f.value(2, 3) == 2

    def test_float_document(self):
        doc = {
            "name": "custom",
            "mode": "float",
            "eps": 1e-8,
            "values": {"2,2": "1.0", "2,3": "0.5", "2,4": "2e-1",
                       "3,3": "-1.25", "3,4": ".5", "4,4": "3"},
        }
        f = load_custom_index(doc)
        assert f.mode == FLOAT and f.eps == 1e-8
        assert f.value(2, 4) == 0.2

    def test_float_document_rejects_garbage(self):
        doc = {"name": "c", "mode": "float",
               "values": {"2,2": "nan-ish", "2,3": "1", "2,4": "1",
                          "3,3": "1", "3,4": "1", "4,4": "1"}}
        with pytest.raises(ValueError, match="malformed decimal"):
            load_custom_index(doc)

    def test_negative_eps(self):
        doc = {**self.AZI_DOC, "mode": "float", "eps": -1.0,
               "values": {k: "1.0" for k in self.AZI_DOC["values"]}}
        with pytest.raises(ValueError, match="tolerance must be positive"):
            load_custom_index(doc)

    def test_non_finite_entry(self):
        doc = {"name": "c", "mode": "float",
               "values": {k: "1.0" for k in self.AZI_DOC["values"]}}
        doc["values"]["2,2"] = "1e400"
        with pytest.raises(ValueError, match="non-finite"):
            load_custom_index(doc)

    def test_non_finite_eps(self):
        doc = {"name": "c", "mode": "float",
               "values": {k: "1.0" for k in self.AZI_DOC["values"]}}
        with pytest.raises(ValueError, match="positive and finite"):
            load_custom_index({**doc, "eps": float("inf")})
        text = json.dumps(doc)[:-1] + ', "eps": 1e400}'  # JSON reads 1e400 as inf
        with pytest.raises(ValueError, match="positive and finite"):
            load_custom_index(text)

    def test_boolean_eps(self):
        doc = {"name": "c", "mode": "float", "eps": True,
               "values": {k: "1.0" for k in self.AZI_DOC["values"]}}
        with pytest.raises(ValueError, match="eps must be a number"):
            load_custom_index(doc)

    def test_bad_pair_key(self):
        doc = {**self.AZI_DOC, "values": {**self.AZI_DOC["values"], "5,6": "1"}}
        with pytest.raises(ValueError, match="unsupported degree pair"):
            load_custom_index(doc)

    def test_not_an_object(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            load_custom_index("{broken")
        with pytest.raises(ValueError, match="JSON object"):
            load_custom_index("[1,2]")


class TestRendering:
    def test_exact_string(self):
        assert as_exact_string(Fraction(10790359, 54000)) == "10790359/54000"
        assert as_exact_string(Fraction(8)) == "8"
        assert as_exact_string(1.5) is None

    def test_decimal_string_ten_significant_digits(self):
        assert as_decimal_string(Fraction(10790359, 54000)) == "199.8214630"
        assert as_decimal_string(Fraction(329717, 2000)) == "164.8585000"

    def test_decimal_string_below_the_float_range(self):
        # exact nonzero values under the smallest normal float keep ten digits
        assert as_decimal_string(Fraction(1, 10**400)) == "1.000000000e-400"
        assert as_decimal_string(Fraction(-1, 10**400)) == "-1.000000000e-400"
        assert as_decimal_string(Fraction(1, 10**320)) == "1.000000000e-320"
        assert as_decimal_string(Fraction(3, 10**310)) == "3.000000000e-310"
        assert as_decimal_string(Fraction(0)) == "0.000000000"
        assert as_decimal_string(5e-324) == "4.940656458e-324"
        assert as_decimal_string(-0.0) == "-0.000000000"
        assert as_decimal_string(Fraction(1, 10**300)) == "1.000000000e-300"

    @pytest.mark.parametrize("values", [
        "azi", "harmonic", "abc", "float-azi",
        {p: Fraction((-1) ** i, 10**400) for i, p in enumerate(DEGREE_PAIRS)},
        {p: Fraction(10**400 + i, 3) for i, p in enumerate(DEGREE_PAIRS)},
        {p: 5e-324 for p in DEGREE_PAIRS},
        {p: 1e307 * (i + 1) for i, p in enumerate(DEGREE_PAIRS)},
    ])
    def test_texts_of_raw_values(self, values):
        # the texts written straight from (raw, den) are those of the value read
        if isinstance(values, str):
            f = force_float(preset("azi")) if values == "float-azi" else preset(values)
        else:
            mode = FLOAT if isinstance(values[(2, 2)], float) else RATIONAL
            f = IndexFunction("t", values, mode=mode)
        rng = random.Random(17)
        den, top = f.den, 2**1100 * f.den  # top / den is past the float range
        raws = [0, 1, -1, den, -den, top, -top, den * 3 + 1]
        raws += [rng.choice((-1, 1)) * rng.getrandbits(rng.randrange(1, 4000)) for _ in range(300)]
        for raw in raws:
            v = f.read(raw)
            assert _texts(f, raw) == (as_exact_string(v), as_decimal_string(v)), raw

