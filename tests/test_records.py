"""The public record types: how they are built, that they do not change,
how they compare, and `IndexFunction`'s text, checks, copies and pickles."""

import copy
import os
import pickle
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import polychain
from polychain import (
    CASE_LINEAR_ALWAYS,
    DEFAULT_EPS,
    DEGREE_PAIRS,
    FLOAT,
    RATIONAL,
    ChainFamilyReport,
    ClassifierVerdict,
    ExtremalResult,
    IncrementTable,
    IndexFunction,
    LinkVector,
    OracleReport,
    VerificationReport,
)

WORD = LinkVector((1, 2, 2))

# (type, its fields without a default in declared order, the defaults of the rest)
RECORDS = [
    (ExtremalResult, {"objective": "max", "n": 5, "value": Fraction(7),
                      "per_end": {1: Fraction(7), 2: Fraction(5, 2)}, "witness": WORD,
                      "labeled_count": 1, "iso_count": None, "index_name": "azi",
                      "mode": RATIONAL, "tolerance_dependent": False}, {}),
    (ClassifierVerdict, {"premise_holds": True, "case": CASE_LINEAR_ALWAYS},
     {"n_star": None, "tie_at_threshold": None}),
    (IncrementTable, {"g11": Fraction(1), "g12": Fraction(2), "g21": Fraction(3),
                      "g22": Fraction(4), "g2": Fraction(0), "base": Fraction(5)},
     {"mode": RATIONAL, "eps": DEFAULT_EPS}),
    (OracleReport, {"n": 5, "index_name": "azi", "mode": RATIONAL, "max_value": Fraction(9),
                    "min_value": Fraction(1), "argmax": (WORD,), "argmin": (WORD,),
                    "per_end_max": {1: Fraction(9), 2: Fraction(8)},
                    "per_end_argmax": {1: (WORD,), 2: ()}}, {}),
    (ChainFamilyReport, {"n": 5, "family": "AZ1", "family_m": 2,
                         "closed_value": Fraction(7), "labeled_count": 1, "iso_count": 1}, {}),
    (VerificationReport, {"name": "azi-maximum", "n_max": 6, "ok": True, "checks_run": 3},
     {"failure": None, "info": {}}),
]
FROZEN = [spec for spec in RECORDS if spec[0] is not VerificationReport]


def _params(specs):
    return [pytest.param(*spec, id=spec[0].__name__) for spec in specs]


def _changed(v):
    """A value unequal to v, of a kind the field could hold."""
    if isinstance(v, bool):
        return not v
    if v is None:
        return 0
    if isinstance(v, (int, float, Fraction)):
        return v + 1
    if isinstance(v, str):
        return v + "'"
    if isinstance(v, dict):
        return {**v, 99: None}
    if isinstance(v, LinkVector):
        return LinkVector((*v, 1))
    return (*v, *v)


def _table(mode=RATIONAL, extra=()):
    """A full table, j/3 at the j-th pair, with the entries of `extra` put over it."""
    kind = Fraction if mode == RATIONAL else float
    return {**{p: kind(j + 1) / 3 for j, p in enumerate(DEGREE_PAIRS)}, **dict(extra)}


@pytest.mark.parametrize("cls, required, defaults", _params(RECORDS))
def test_built_by_position_and_by_keyword_with_the_defaults(cls, required, defaults):
    by_keyword = cls(**required)
    assert cls(*required.values()) == by_keyword
    assert cls(*required.values(), *defaults.values()) == by_keyword
    for name, value in {**required, **defaults}.items():
        assert getattr(by_keyword, name) == value, name


@pytest.mark.parametrize("cls, required, defaults", _params(FROZEN))
def test_frozen(cls, required, defaults):
    record = cls(**required)
    for name in (*required, *defaults, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record == cls(**required)


@pytest.mark.parametrize("cls, required, defaults", _params(RECORDS))
def test_equal_fields_compare_equal(cls, required, defaults):
    fields = {**required, **defaults}
    assert cls(**fields) == cls(**copy.deepcopy(fields))
    for name, value in fields.items():
        other = cls(**{**fields, name: _changed(value)})
        assert other != cls(**fields) and not other == cls(**fields), name


def test_verification_reports_built_without_info_do_not_share_it():
    a, b = (VerificationReport("azi-minimum", 6, True, 3) for _ in range(2))
    a.info["tie_at_threshold"] = False
    assert b.info == {} and a.info is not b.info
    assert a != b
    a.ok = False  # a report stays mutable
    assert a.to_json()["status"] == "failure"


class TestIndexFunction:
    def test_fields(self):
        f = IndexFunction("t", _table())
        assert (f.name, f.values, f.mode, f.eps) == ("t", _table(), RATIONAL, DEFAULT_EPS)
        assert f.scaled == (1, 2, 3, 4, 5, 6) and f.den == 3 and f.tol == (0, 1)
        g = IndexFunction("t", _table(FLOAT), FLOAT, 1)
        assert type(g.eps) is float and g.eps == 1.0 and g.tol == (1, 1)
        assert g == IndexFunction(name="t", values=_table(FLOAT), mode=FLOAT, eps=1.0)

    def test_frozen(self):
        f = IndexFunction("t", _table())
        for name in ("name", "values", "mode", "eps", "scaled", "den", "tol", "extra"):
            with pytest.raises(AttributeError):
                setattr(f, name, 0)
            with pytest.raises(AttributeError):
                delattr(f, name)
        assert f == IndexFunction("t", _table()) and f.den == 3

    def test_equality_and_hash(self):
        f = IndexFunction("t", _table())
        assert f == IndexFunction("t", {p: Fraction(v) for p, v in _table().items()})
        for other in (IndexFunction("u", _table()), IndexFunction("t", _table(extra={(4, 4): 3})),
                      IndexFunction("t", _table(), eps=1e-6),
                      IndexFunction("t", _table(FLOAT), FLOAT)):
            assert f != other and not f == other
        assert f != ("t", _table(), RATIONAL, DEFAULT_EPS) and f != object()
        with pytest.raises(TypeError):
            hash(f)

    def test_repr(self):
        f = IndexFunction("t", _table())
        assert repr(f) == f"IndexFunction(name='t', values={f.values!r}, mode='rational', eps=1e-09)"
        assert repr(f).startswith("IndexFunction(name='t', values={(2, 2): Fraction(1, 3), ")
        g = IndexFunction("g", _table(FLOAT), FLOAT, 1e-6)
        assert repr(g) == f"IndexFunction(name='g', values={g.values!r}, mode='float', eps=1e-06)"

    # each input breaks the check named and every check after it
    @pytest.mark.parametrize("args, message", [
        (("t", {(1, 2): 1.5}, "exact", -1.0), "unknown arithmetic mode 'exact'"),
        (("t", {(1, 2): 1.5}, RATIONAL, -1.0),
         "invalid eps: tolerance must be positive and finite, got -1.0"),
        (("t", {(1, 2): 1.5}, RATIONAL, 0), "invalid eps: tolerance must be positive and finite, got 0"),
        (("t", {(1, 2): 1.5}), "pair (2,2) absent from index table"),
        (("t", _table(extra={(1, 2): 1.5, (3, 4): 1.5})), "unsupported degree pair (1, 2) in index table"),
        (("t", _table(extra={(2, 3): 1.5, (3, 4): 2.5})), "float value 1.5 in rational-mode table"),
        (("t", _table(FLOAT, {(2, 4): float("nan"), (4, 4): float("inf")}), FLOAT),
         "non-finite value for pair (2,4) in float-mode table"),
    ])
    def test_validation_messages_in_order(self, args, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            IndexFunction(*args)

    @pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
    def test_copies_and_pickles(self, mode):
        f = IndexFunction("t", _table(mode), mode, 1e-6)
        for g in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
            assert type(g) is IndexFunction and g == f and repr(g) == repr(f)
            assert (g.scaled, g.den, g.tol) == (f.scaled, f.den, f.tol)


def test_import_loads_neither_dataclasses_nor_inspect():
    """The CLI's start-up imports none of the stdlib's heavier modules, nor
    `csv`, and CLI `table`, which writes its CSV rows by a `%` template,
    run in the same process, leaves `csv` unloaded."""
    src = str(Path(polychain.__file__).resolve().parent.parent)
    code = ("import os, sys; before = set(sys.modules); import polychain.cli; "
            "print(sorted({'dataclasses', 'inspect', 'csv'} & (set(sys.modules) - before))); "
            "argv = ['table', '--index', 'azi', '--from', '3', '--to', '40', '--out', os.devnull]; "
            "print(polychain.cli.main(argv), 'csv' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n0 False\n"


def test_names_the_benchmark_tracer_reads():
    """`perfbench/tracing.py` wraps these after importing the package and
    the CLI, so cutting one fails here and not only in a traced run: the
    eager `oracle` and `azi` imports, `run_dp`'s `keep_table`,
    `increment_table`, the `DPTable` methods it hooks, and every name in
    the package's and each module's `__all__`."""
    src = str(Path(polychain.__file__).resolve().parent.parent)
    code = (
        "import importlib, pkgutil, sys\n"
        "import polychain, polychain.cli\n"
        "bad = [m for m in ('polychain.oracle', 'polychain.azi') if m not in sys.modules]\n"
        "polychain.run_dp(polychain.preset('azi'), 5, keep_table=False)\n"
        "bad += [n for n in ('increment_table',) if not hasattr(polychain.indices, n)]\n"
        "bad += [n for n in ('witness', 'chains') if n not in polychain.DPTable.__dict__]\n"
        "mods = [polychain] + [importlib.import_module('polychain.' + m.name)\n"
        "                      for m in pkgutil.iter_modules(polychain.__path__)]\n"
        "bad += [m.__name__ + '.' + n for m in mods for n in m.__all__ if not hasattr(m, n)]\n"
        "print(bad)\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"
