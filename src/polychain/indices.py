"""Degree-based index functions and the two chain evaluators.

A degree-based index assigns a graph the sum of f(d_u, d_v) over its
edges, for a symmetric function f of the endpoint degrees.  On polyomino
chains only the six unordered degree pairs over {2, 3, 4} ever occur, so
an index is fully specified by a six-entry table.

Entries are given either as exact rationals (`fractions.Fraction`) or as
64-bit floats with a relative comparison tolerance; a single computation
never mixes the two modes.  Either way there is one number model: every
finite float is a dyadic rational, so `IndexFunction` scales its six
entries once to ints over their least common denominator, and every
index value is an int sum of those.  Sums are added and compared only on
these ints, with one tie rule (`IndexFunction.ties`), and read back only
by `IndexFunction.read`: as a `Fraction`, or as the exact sum correctly
rounded to a float, independent of summation order.

Two evaluators are provided: `evaluate_direct` sums over the edges of
the chain's corner graph by degree pair (as `chains.edge_degree_multiset`
counts them, on the corner graph's table the oracle's census expands), while
`evaluate_recursive` accumulates the per-square attachment increments.
Both return the same value on every chain, which the test suite exploits
heavily.

Float mode refuses, with ValueError, any value whose exact sum overflows
the float range where it leaves this module: an increment, or an
evaluated chain.
"""

from __future__ import annotations

import decimal
import json
import math
import re
import sys
from collections.abc import Mapping
from fractions import Fraction
from operator import mul, neg
from typing import NamedTuple, Union

from .chains import DEGREE_PAIRS, _as_word, _pair_counts

__all__ = [
    "Value",
    "RATIONAL",
    "FLOAT",
    "DEFAULT_EPS",
    "DEGREE_PAIRS",
    "PRESET_NAMES",
    "IndexFunction",
    "IncrementTable",
    "increment_table",
    "degree_pair_sum",
    "check_finite",
    "evaluate_direct",
    "evaluate_recursive",
    "preset",
    "negate",
    "force_float",
    "load_custom_index",
    "values_equal",
    "as_exact_string",
    "as_decimal_string",
]

Value = Union[Fraction, float]

RATIONAL = "rational"
FLOAT = "float"
DEFAULT_EPS = 1e-9

PRESET_NAMES = (
    "azi",
    "zagreb1",
    "zagreb2",
    "randic",
    "abc",
    "ga",
    "harmonic",
    "sum_connectivity",
)


def values_equal(a: Value, b: Value, eps: float | None = None) -> bool:
    """Mode-aware equality: exact for rationals, relative-eps for floats.

    Float equality means |a - b| <= eps * max(1, |a|, |b|).  Comparing a
    rational against a float is refused: mixing arithmetic modes inside
    one computation is an error, not a coercion.
    """
    a_rat = isinstance(a, (Fraction, int))
    b_rat = isinstance(b, (Fraction, int))
    if a_rat != b_rat:
        raise TypeError(f"mixed arithmetic modes: {type(a).__name__} vs {type(b).__name__}")
    if a_rat:
        return a == b
    if eps is None:
        eps = DEFAULT_EPS
    return abs(a - b) <= eps * max(1.0, abs(a), abs(b))


def check_finite(v: Value, what: str) -> Value:
    """Return v, or refuse a float that overflowed to inf or NaN."""
    if isinstance(v, float) and not math.isfinite(v):
        raise ValueError(f"float overflow: {what} is {v} (table entries too large for float mode)")
    return v


def as_exact_string(v: Value) -> str | None:
    """"p/q" rendering of a rational value; None for float-mode values."""
    if isinstance(v, (Fraction, int)):
        return _exact_text(*v.as_integer_ratio())
    return None


def as_decimal_string(v: Value) -> str:
    """Approximate 10-significant-digit decimal rendering."""
    if isinstance(v, float) and not (v and abs(v) < sys.float_info.min):
        return format(v, "#.10g")  # a float's own text, nonfinite and signed zeros included
    return _decimal_text(*v.as_integer_ratio())


def _value_json(v: Value) -> dict:
    """A value's JSON object: its `as_exact_string` and `as_decimal_string`."""
    return {"rational": as_exact_string(v), "decimal": as_decimal_string(v)}


def _exact_text(num: int, den: int) -> str:
    """"p/q" text of num / den (den > 0) in lowest terms, "p" for a whole number."""
    g = math.gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def _decimal_text(num: int, den: int) -> str:
    """10-significant-digit text of num / den (den > 0): "#.10g" of the
    correctly rounded float, and the same shape at large exponents where
    the value is nonzero but past or below the normal float range."""
    try:
        x = num / den
    except OverflowError:
        x = None
    if x is not None and not (num and abs(x) < sys.float_info.min):
        return format(x, "#.10g")
    ctx = decimal.Context(prec=10, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
    return format(ctx.divide(decimal.Decimal(num), den), ".9e")


def _texts(f: IndexFunction, raw: int) -> tuple[str | None, str]:
    """`as_exact_string` and `as_decimal_string` of f.read(raw), without
    building the value: a rational is written from raw and f.den."""
    if f.mode == RATIONAL:
        return _exact_text(raw, f.den), _decimal_text(raw, f.den)
    return None, as_decimal_string(f.read(raw))


class IndexFunction:
    """Six-entry degree-pair table defining one index.

    `values` maps each unordered pair (a, b), a <= b, over {2, 3, 4} to
    its f(a, b).  Rational mode stores Fractions; float mode stores
    finite floats compared with relative tolerance `eps` (finite, > 0).

    Construction also derives the table's scaled form, the one number
    model of the package: `scaled` holds the six entries, exact in
    either mode, as ints over their least common denominator `den`, in
    `DEGREE_PAIRS` order, and `tol` is eps as an integer ratio (p, q),
    (0, 1) for rationals.  A value is an int over `den`; `ties` compares
    two of them and `read` returns one.  The derived fields take no part
    in equality.  An IndexFunction is immutable and unhashable; copies
    and pickles are rebuilt through the constructor.
    """

    __slots__ = ("name", "values", "mode", "eps", "scaled", "den", "tol")

    def __init__(self, name: str, values: Mapping[tuple[int, int], Value],
                 mode: str = RATIONAL, eps: float = DEFAULT_EPS):
        if mode not in (RATIONAL, FLOAT):
            raise ValueError(f"unknown arithmetic mode {mode!r}")
        if not 0 < eps <= sys.float_info.max:
            raise ValueError(f"invalid eps: tolerance must be positive and finite, got {eps}")
        missing = [p for p in DEGREE_PAIRS if p not in values]
        if missing:
            a, b = missing[0]
            raise ValueError(f"pair ({a},{b}) absent from index table")
        extra = [p for p in values if p not in DEGREE_PAIRS]
        if extra:
            raise ValueError(f"unsupported degree pair {extra[0]} in index table")
        norm = {}
        for pair in DEGREE_PAIRS:
            v = values[pair]
            if mode == RATIONAL:
                if isinstance(v, float):
                    raise ValueError(f"float value {v!r} in rational-mode table")
                norm[pair] = Fraction(v)
            elif not abs(v) <= sys.float_info.max:  # inf, nan, or an exact value past the range
                raise ValueError("non-finite value for pair ({},{}) in float-mode table".format(*pair))
            else:
                norm[pair] = float(v)
        ratios = [v.as_integer_ratio() for v in norm.values()]
        den = math.lcm(*(d for _, d in ratios))
        eps = float(eps)
        fields = (name, norm, mode, eps, tuple(num * (den // d) for num, d in ratios), den,
                  eps.as_integer_ratio() if mode == FLOAT else (0, 1))
        for slot, value in zip(self.__slots__, fields):
            object.__setattr__(self, slot, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"field {name!r} is read-only")

    __delattr__ = __setattr__

    def __getattr__(self, name):
        if name != "values":  # only a rational `negate` leaves a slot unset
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        values = {pair: Fraction(s, self.den) for pair, s in zip(DEGREE_PAIRS, self.scaled)}
        object.__setattr__(self, "values", values)
        return values

    def __reduce__(self):
        return IndexFunction, (self.name, self.values, self.mode, self.eps)

    def __eq__(self, other):
        return self.__reduce__() == other.__reduce__() if type(other) is IndexFunction else NotImplemented

    def __repr__(self) -> str:
        return "IndexFunction(name={!r}, values={!r}, mode={!r}, eps={!r})".format(*self.__reduce__()[1])

    def value(self, a: int, b: int) -> Value:
        """f(a, b) for degrees a, b in {2, 3, 4} (order irrelevant)."""
        if a > b:
            a, b = b, a
        try:
            return self.values[(a, b)]
        except KeyError:
            raise ValueError(
                f"degrees ({a},{b}) outside the chain-graph domain {{2,3,4}}"
            ) from None

    def read(self, raw: int) -> Value:
        """The value raw / den: a Fraction, or in float mode the correctly
        rounded float, an infinity of raw's sign past the float range."""
        if self.mode == RATIONAL:
            return Fraction(raw, self.den)
        try:
            return raw / self.den
        except OverflowError:
            return math.inf if raw > 0 else -math.inf

    def ties(self, a: int, b: int, den: int | None = None) -> bool:
        """Whether values a / den and b / den are `values_equal` under eps,
        decided exactly: |a - b| * q <= p * max(den, |a|, |b|) for
        eps = p / q, plain equality for rationals.  `den` defaults to
        the table's."""
        p, q = self.tol
        return a == b or p > 0 and abs(a - b) * q <= p * max(den or self.den, abs(a), abs(b))


class IncrementTable(NamedTuple):
    """Per-attachment index increments and the two-square base value.

    g(j, i) is the gain in index value when a square is attached with
    link i after a link j; g2 is the gain of the very first attachment
    when it turns, g11 doubling as the straight first attachment.  The
    base value is that of the two-square chain.  The identity
    g2 + g21 == g11 + g12 holds for every index table.
    """

    g11: Value
    g12: Value
    g21: Value
    g22: Value
    g2: Value
    base: Value
    mode: str = RATIONAL
    eps: float = DEFAULT_EPS

    def step(self, j: int, i: int) -> Value:
        if j == 1:
            return self.g11 if i == 1 else self.g12
        return self.g21 if i == 1 else self.g22

    def initial(self, i: int) -> Value:
        """Index value of the three-square chain ending with link i."""
        return self.base + (self.g11 if i == 1 else self.g2)


def _increments(f: IndexFunction) -> tuple[int, ...]:
    """(g11, g12, g21, g22, g2, base) of `IncrementTable`, as ints over f.den."""
    f22, f23, f24, f33, f34, f44 = f.scaled
    return (3 * f33, 3 * f34 + f24 + f23 - 2 * f33, f34 - f24 + f23 + 2 * f33,
            f44 + 2 * f24, 2 * f34 + 2 * f24 - f33, 4 * f23 + 2 * f22 + f33)


def increment_table(f: IndexFunction) -> IncrementTable:
    """Attachment increments of an index, from its six table entries."""
    values = [check_finite(f.read(g), f"increment {name}")
              for name, g in zip(IncrementTable._fields, _increments(f))]
    return IncrementTable(*values, mode=f.mode, eps=f.eps)


def degree_pair_sum(counts, f: IndexFunction) -> Value:
    """Index value of a graph with counts[j] edges of degree pair DEGREE_PAIRS[j]."""
    return check_finite(f.read(sum(map(mul, counts, f.scaled))), "index value")


def evaluate_direct(chain, f: IndexFunction) -> Value:
    """Index value summed over the edges of the chain's corner graph."""
    return degree_pair_sum(_pair_counts(chain), f)


def evaluate_recursive(chain, f: IndexFunction) -> Value:
    """Index value accumulated square-by-square via the attachment increments.

    Returns the same value as `evaluate_direct` on every chain; this
    form costs O(n) arithmetic operations instead of building the graph.
    """
    word = _as_word(chain)
    g11, g12, g21, g22, g2, total = _increments(f)
    if word:
        total += (g11 if word[0] == 1 else g2) + sum(
            (g11 if i == 1 else g12) if j == 1 else (g21 if i == 1 else g22)
            for j, i in zip(word, word[1:])
        )
    return check_finite(f.read(total), "index value")


def negate(f: IndexFunction) -> IndexFunction:
    """Entrywise negation; maximizing the result minimizes the original.

    Derived from f's checked fields, not rebuilt by the constructor: the
    negated scaled entries over the same den, tol, mode and eps.  A
    rational negation builds its `values` from them on first read; a
    float one's are negated here, keeping the sign of a float zero.
    """
    g = object.__new__(IndexFunction)
    put = object.__setattr__
    put(g, "name", f.name + "_neg")
    put(g, "mode", f.mode)
    put(g, "eps", f.eps)
    put(g, "scaled", tuple(map(neg, f.scaled)))
    put(g, "den", f.den)
    put(g, "tol", f.tol)
    if f.mode == FLOAT:
        put(g, "values", {pair: -v for pair, v in f.values.items()})
    return g


def force_float(f: IndexFunction, eps: float = DEFAULT_EPS) -> IndexFunction:
    """Float-mode copy of an index (for tolerance experiments)."""
    return IndexFunction(f.name, f.values, FLOAT, eps)


def _integer_root(x: int, q: int) -> int | None:
    if x < 0:
        return None
    if q > x.bit_length():  # c**q > x for every c >= 2
        return x if x <= 1 else None
    r = round(x ** (1.0 / q)) if x > 0 else 0
    for c in (r - 1, r, r + 1):
        if c >= 0 and c**q == x:
            return c
    return None


def _exact_pow(base: Fraction, exponent: Fraction) -> Fraction | None:
    """base**exponent as an exact Fraction, or None when irrational."""
    if exponent == 0:
        return Fraction(1)
    p, q = exponent.numerator, exponent.denominator
    num = _integer_root(base.numerator, q)
    den = _integer_root(base.denominator, q)
    if num is None or den is None:
        return None
    root = Fraction(num, den)
    return root**p if p >= 0 else 1 / root ** (-p)


def _table(fn) -> dict:
    return {(a, b): fn(a, b) for a, b in DEGREE_PAIRS}


def preset(name: str, gamma: Fraction | int | str | None = None, eps: float = DEFAULT_EPS) -> IndexFunction:
    """Built-in index by name.

    Rational presets: azi with f(x,y) = (xy/(x+y-2))**3, zagreb1 (x+y),
    zagreb2 (xy), harmonic (2/(x+y)).  Float presets (relative tolerance
    `eps`): abc sqrt((x+y-2)/(xy)), ga 2*sqrt(xy)/(x+y), sum_connectivity
    (x+y)**-0.5.  randic((xy)**gamma, default gamma -1/2) is rational
    exactly when gamma makes all six entries rational, float otherwise;
    exponents with |gamma| > 64 are refused with ValueError.
    """
    if name != "randic" and gamma is not None:
        raise ValueError(f"gamma only applies to the randic preset, not {name!r}")
    if name == "azi":
        return IndexFunction(
            "azi", _table(lambda x, y: Fraction(x * y, x + y - 2) ** 3)
        )
    if name == "zagreb1":
        return IndexFunction("zagreb1", _table(lambda x, y: Fraction(x + y)))
    if name == "zagreb2":
        return IndexFunction("zagreb2", _table(lambda x, y: Fraction(x * y)))
    if name == "harmonic":
        return IndexFunction("harmonic", _table(lambda x, y: Fraction(2, x + y)))
    if name == "randic":
        if gamma is None:
            gamma = Fraction(-1, 2)
        g = Fraction(gamma)
        if abs(g) > 64:  # keeps exact entries ((xy)**g, xy <= 16) within 257 bits, floats finite
            raise ValueError(f"randic exponent {g} outside [-64, 64]")
        label = f"randic({g})"
        exact = {(a, b): _exact_pow(Fraction(a * b), g) for a, b in DEGREE_PAIRS}
        if all(v is not None for v in exact.values()):
            return IndexFunction(label, exact)
        return IndexFunction(
            label, _table(lambda x, y: float(x * y) ** float(g)), mode=FLOAT, eps=eps
        )
    if name == "abc":
        return IndexFunction(
            "abc", _table(lambda x, y: math.sqrt((x + y - 2) / (x * y))), mode=FLOAT, eps=eps
        )
    if name == "ga":
        return IndexFunction(
            "ga", _table(lambda x, y: 2.0 * math.sqrt(x * y) / (x + y)), mode=FLOAT, eps=eps
        )
    if name == "sum_connectivity":
        return IndexFunction(
            "sum_connectivity", _table(lambda x, y: (x + y) ** -0.5), mode=FLOAT, eps=eps
        )
    raise ValueError(f"unknown index preset {name!r} (choose from {', '.join(PRESET_NAMES)})")


_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")
_DECIMAL_RE = re.compile(r"^[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?$")


def _parse_rational(text: str, where: str) -> Fraction:
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise ValueError(f"malformed rational {text!r} for {where}")
    if "/" in text:
        num, den = text.split("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator in value for {where}")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def _parse_decimal(text: str, where: str) -> float:
    text = text.strip()
    if not _DECIMAL_RE.match(text):
        raise ValueError(f"malformed decimal {text!r} for {where}")
    return float(text)


def load_custom_index(document: Mapping | str) -> IndexFunction:
    """Build an IndexFunction from a JSON-compatible document.

    Expected shape::

        {"name": "azi", "mode": "rational",        # or "float"
         "eps": 1e-9,                               # optional, float mode
         "values": {"2,2": "8", ..., "4,4": "512/27"}}

    Rational-mode values are strict "p/q" strings (optional sign,
    integer, optional "/" integer); float-mode values are decimal
    literals.  Every one of the six pairs must be present.
    """
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ValueError(f"index document is not valid JSON: {exc}") from None
    if not isinstance(document, Mapping):
        raise ValueError("index document must be a JSON object")
    name = document.get("name")
    if not isinstance(name, str) or not name:
        raise ValueError("index document needs a non-empty 'name'")
    mode = document.get("mode", RATIONAL)
    if mode not in (RATIONAL, FLOAT):
        raise ValueError(f"unknown arithmetic mode {mode!r}")
    eps = document.get("eps", DEFAULT_EPS)
    if isinstance(eps, bool) or not isinstance(eps, (int, float)):
        raise ValueError(f"eps must be a number, got {eps!r}")
    raw = document.get("values")
    if not isinstance(raw, Mapping):
        raise ValueError("index document needs a 'values' object")
    values: dict[tuple[int, int], Value] = {}
    for key, text in raw.items():
        parts = [p.strip() for p in str(key).split(",")]
        if len(parts) != 2 or not all(p.isdigit() for p in parts):
            raise ValueError(f"malformed pair key {key!r} (expected 'a,b')")
        a, b = int(parts[0]), int(parts[1])
        if (a, b) not in DEGREE_PAIRS:
            raise ValueError(f"unsupported degree pair ({a},{b}) (need a<=b over {{2,3,4}})")
        if not isinstance(text, str):
            text = str(text)
        where = f"pair ({a},{b})"
        if mode == RATIONAL:
            values[(a, b)] = _parse_rational(text, where)
        else:
            values[(a, b)] = _parse_decimal(text, where)
    missing = [p for p in DEGREE_PAIRS if p not in values]
    if missing:
        a, b = missing[0]
        raise ValueError(f"pair ({a},{b}) absent from index document")
    return IndexFunction(name, values, mode=mode, eps=eps)
