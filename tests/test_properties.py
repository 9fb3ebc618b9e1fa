"""Property tests for the two text parsers that take outside input, for
the mirror-class count against enumeration, for the exact oracle against
its chain-by-chain reference, and for the exit codes of the command
line."""

import contextlib
import io
import json
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polychain.cli as cli_mod
from polychain.chains import LinkVector
from polychain.cli import _render_json, _unlimited_int_digits, main
from polychain.dp import run_dp
from polychain.indices import DEGREE_PAIRS, FLOAT, IndexFunction, load_custom_index, negate
from polychain.oracle import exhaustive
from reference_graph import reference_report

# derandomized: the same examples on every run, so the suite stays deterministic
PROPERTY = settings(derandomize=True, deadline=None, max_examples=300)

PAIR_KEYS = [f"{a},{b}" for a, b in DEGREE_PAIRS]

words = st.lists(st.sampled_from((1, 2)), max_size=40)


@PROPERTY
@given(words)
def test_link_word_round_trips(links):
    word = LinkVector(links)
    assert LinkVector.from_string(word.to_string()) == word


@PROPERTY
@given(st.text(alphabet=st.sampled_from("12, 3x-\t"), max_size=20) | st.text(max_size=20))
def test_link_text_parses_or_raises_value_error(text):
    try:
        word = LinkVector.from_string(text)
    except ValueError:
        return
    assert set(word) <= {1, 2}
    assert LinkVector.from_string(word.to_string()) == word


numbers = st.one_of(
    st.integers(-(10**6), 10**6),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.fractions(max_denominator=10**6),
)
entry_text = st.one_of(
    numbers.map(str),
    st.sampled_from(["1e400", "-1e400", "1e308", "nan", "inf", "1/0", ".5", "1/", "", " 7 "]),
    st.text(max_size=8),
)
json_scalar = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6))
entry = st.one_of(entry_text, json_scalar)
values = st.one_of(
    st.fixed_dictionaries({k: entry for k in PAIR_KEYS}),
    st.dictionaries(st.sampled_from(PAIR_KEYS + ["5,6", "3,2", "a", "2,2,2"]), entry, max_size=8),
    json_scalar,
)
documents = st.fixed_dictionaries(
    {"name": st.one_of(st.just("t"), json_scalar), "values": values},
    optional={
        "mode": st.sampled_from(["rational", "float", "int", 1]),
        "eps": st.one_of(json_scalar, st.sampled_from([1e-9, 1e400, -1.0, 0, True, 10**400])),
    },
)


@PROPERTY
@given(documents, st.booleans())
def test_index_document_loads_finite_or_raises_value_error(doc, as_text):
    try:
        f = load_custom_index(json.dumps(doc) if as_text else doc)
    except ValueError:
        return
    assert set(f.values) == set(DEGREE_PAIRS)
    assert 0 < f.eps < math.inf
    if f.mode == FLOAT:
        assert all(math.isfinite(v) for v in f.values.values())


# few distinct entries make ties; float entries a few eps off them make
# ties that are not transitive, whose optimal sets need not be closed
# under reversal
table_entries = st.lists(st.integers(0, 3), min_size=6, max_size=6)
float_offsets = st.lists(st.floats(-5, 5), min_size=6, max_size=6)


@PROPERTY
@given(table_entries, st.none() | st.sampled_from([1e-9, 0.05]), float_offsets,
       st.booleans(), st.integers(3, 12), st.sampled_from([None, 1, 2]))
def test_iso_count_equals_dedup_enumeration(entries, eps, offsets, negated, k, end):
    if eps is None:
        f = IndexFunction("t", dict(zip(DEGREE_PAIRS, entries)))
    else:
        values = {p: v + d * eps for p, v, d in zip(DEGREE_PAIRS, entries, offsets)}
        f = IndexFunction("t", values, mode=FLOAT, eps=eps)
    table = run_dp(negate(f) if negated else f, k)
    assert table.iso_count(k, end) == sum(1 for _ in table.chains(k, end=end, dedup=True))


# small numerators and denominators make ties, wide ones make large lcms
rational_entries = st.lists(
    st.builds(Fraction, st.integers(-50, 50) | st.integers(-(10**6), 10**6),
              st.integers(1, 12) | st.integers(1, 10**6)),
    min_size=6, max_size=6)


@PROPERTY
@given(rational_entries, st.integers(3, 9))
def test_exhaustive_equals_per_chain_reference(entries, n):
    f = IndexFunction("q", dict(zip(DEGREE_PAIRS, entries)))
    assert exhaustive(f, n).to_json() == reference_report(f, n).to_json()


# the CLI argument surface: only argv that argparse accepts, so every run
# reaches main's own checks
PRESET_NAMES = ["azi", "zagreb1", "zagreb2", "harmonic", "abc", "ga", "sum_connectivity",
                "randic", "randic:-1", "randic:1/3", "randic:100", "randic:x"]
INDEX_FILES = {
    "rational": json.dumps({"name": "q", "values": {k: f"{i + 1}/{i + 2}"
                                                    for i, k in enumerate(PAIR_KEYS)}}),
    "constant": json.dumps({"name": "const", "values": {k: "1" for k in PAIR_KEYS}}),
    "float": json.dumps({"name": "fl", "mode": "float", "eps": 1e-6,
                         "values": {k: str(0.1 * i + 1) for i, k in enumerate(PAIR_KEYS)}}),
    "malformed": '{"name": "bad", "values": {',
    "zero-denominator": json.dumps({"name": "z", "values": {k: "1/0" for k in PAIR_KEYS}}),
    "huge": json.dumps({"name": "h", "values": {k: str(10**400) for k in PAIR_KEYS}}),
    "missing": None,
}
FORMATS = {"value": ["plain", "json"], "max": ["plain", "json"], "min": ["plain", "json"],
           "classify": ["plain", "json"], "table": ["csv", "json"]}


def _flag(draw, argv, name, values, unset=1):
    # `unset` weights leaving the option out against each of its values
    value = draw(st.sampled_from([None] * unset + list(values)))
    if value is not None:
        argv += [name, str(value)]


def _switches(draw, *names):
    return [name for name in names if draw(st.booleans())]


def _cli_argv(draw, paths):
    command = draw(st.sampled_from(["value", "max", "min", "classify", "table", "verify"]))
    argv = [command, *draw(st.sampled_from(
        [("--index", name) for name in PRESET_NAMES]
        + [("--index-file", paths[key]) for key in sorted(INDEX_FILES)]))]
    _flag(draw, argv, "--mode", ["rational", "float"], unset=2)
    _flag(draw, argv, "--eps", ["1e-9", "0.05", "0", "-1", "nan", "inf"], unset=12)
    _flag(draw, argv, "--format", FORMATS.get(command, []))
    _flag(draw, argv, "--out", [paths["out"], paths["out-missing-dir"]], unset=8)
    if command == "value":
        argv += ["--links", draw(st.sampled_from(["", "1,2,2,1", "1,3", "2"]) | st.lists(
            st.sampled_from("12"), max_size=30).map(",".join))]
    elif command in ("max", "min"):
        n, limit = draw(st.integers(-1, 40)), draw(st.none() | st.integers(-1, 20))
        argv += ["--n", str(n)] + ([] if limit is None else ["--limit", str(limit)])
        _flag(draw, argv, "--end", [1, 2])
        argv += _switches(draw, "--dedup", "--iso")
        if limit is not None or n <= 16:  # a constant table has 2**(n - 2) optimal chains
            argv += _switches(draw, "--enumerate")
    elif command == "classify":
        argv += _switches(draw, "--minimize")
    elif command == "table":
        lo = draw(st.integers(-1, 60))
        argv += ["--from", str(lo), "--to", str(draw(st.integers(lo - 1, 60)))]
        argv += _switches(draw, "--exact")
    else:
        _flag(draw, argv, "--n-max", range(-1, 9), unset=0)
        _flag(draw, argv, "--cap", range(-1, 9), unset=0)
    return argv


@pytest.fixture(scope="module")
def cli_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    paths = {"out": str(root / "out.txt"), "out-missing-dir": str(root / "no-dir" / "out.txt")}
    for key, text in INDEX_FILES.items():
        paths[key] = str(root / f"{key}.json")
        if text is not None:
            (root / f"{key}.json").write_text(text, encoding="utf-8")
    return paths


@settings(derandomize=True, deadline=None, max_examples=250)
@given(st.data())
def test_cli_exits_0_1_or_2_with_one_error_line(cli_paths, data):
    argv = data.draw(st.composite(_cli_argv)(cli_paths), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines


json_scalars = (
    st.none() | st.booleans() | st.floats() | st.integers()
    | st.integers(4301, 4400).map(lambda digits: -(10**digits) + 7)
    | st.text() | st.sampled_from(['"\\/\n\t\x00', "\u00e9\u2028", "\U0001f600", "\ud800"])
)
json_docs = st.recursive(
    json_scalars | st.lists(st.integers()) | st.lists(st.lists(st.sampled_from((1, 2)))),
    lambda children: st.lists(children) | st.lists(children).map(tuple)
    | st.dictionaries(st.text(), children),
    max_leaves=40,
)


@PROPERTY
@given(json_docs)
def test_json_renderer_equals_json_dumps(doc):
    with _unlimited_int_digits():
        assert "".join(_render_json(doc)) == json.dumps(doc, indent=2)


def _words_as_lists(doc):
    if isinstance(doc, LinkVector):
        return list(doc)
    if isinstance(doc, dict):
        return {k: _words_as_lists(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_words_as_lists(v) for v in doc]
    return doc


def _word_docs(per):
    # words one link short of a part, at it, one past it and three parts long
    sizes = st.sampled_from([per - 1, per, per + 1, 3 * per])
    near = sizes.flatmap(lambda k: st.lists(st.sampled_from((1, 2)), min_size=k, max_size=k))
    words = (st.lists(st.sampled_from((1, 2)), max_size=3) | near).map(LinkVector)
    return st.tuples(st.just(per), st.recursive(
        json_scalars | words,
        lambda children: st.lists(children) | st.dictionaries(st.text(), children),
        max_leaves=20,
    ))


@PROPERTY
@given(st.sampled_from([_word_docs(per) for per in range(1, 7)]).flatmap(lambda docs: docs))
def test_json_renderer_writes_link_words_as_lists(case):
    # a part of per * 7 characters holds per links of a word at depth 1 (",\n    "
    # between two links), fewer deeper
    per, doc = case
    with _unlimited_int_digits(), mock.patch.object(cli_mod, "_CHUNK", 7 * per):
        assert "".join(_render_json(doc)) == json.dumps(_words_as_lists(doc), indent=2)
