"""Property tests for the two text parsers that take outside input, and
for the mirror-class count against enumeration."""

import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from polychain.chains import LinkVector
from polychain.dp import run_dp
from polychain.indices import DEGREE_PAIRS, FLOAT, IndexFunction, load_custom_index, negate

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
