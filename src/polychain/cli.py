"""Command-line frontend.

Subcommands expose the full engine: ``value`` (evaluate one chain both
ways), ``max`` / ``min`` (extremal search with optional enumeration),
``classify`` (linear/zigzag sufficient condition), ``table`` (per-n
summary rows) and ``verify`` (oracle cross-checks plus the AZI claims).

Exact values are always printed as "p/q" with a 10-significant-digit
decimal marked approximate.  JSON documents come from one renderer,
`_render_json`, whose text equals ``json.dumps(doc, indent=2)`` byte for
byte; a long list of same-shape items (a chain's cells, a table's rows)
is written by one row template, `_json_rows`.  Output is deterministic:
equal invocations produce byte-identical output.  Exit codes: 0 success,
1 verification mismatch, 2 usage or parse error.  A reader that closes
the pipe early ends the output quietly.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import sys
from fractions import Fraction

from .azi import ORACLE_N_MAX, _azi, _azi_family, verify_azi_maximum, verify_azi_minimum
from .chains import LinkVector, _words_text, realize
from .dp import _extremal, classify, run_dp
from .indices import (
    FLOAT,
    RATIONAL,
    IndexFunction,
    _texts,
    _value_json,
    as_decimal_string,
    as_exact_string,
    evaluate_direct,
    evaluate_recursive,
    force_float,
    load_custom_index,
    negate,
    preset,
)
from .oracle import DEFAULT_CAP, cross_check

__all__ = ["main", "OUTPUT_SCHEMAS"]

_VALUE_SCHEMA = {
    "type": "object",
    "required": ["rational", "decimal"],
    "properties": {
        "rational": {"type": ["string", "null"]},
        "decimal": {"type": "string"},
    },
}

_CHAIN_SCHEMA = {"type": "array", "items": {"type": "integer", "enum": [1, 2]}}

_EXTREMAL_SCHEMA = {
    "type": "object",
    "required": [
        "command", "index", "mode", "n", "objective", "value", "per_end",
        "witness", "labeled_count", "iso_count", "tolerance_dependent",
    ],
    "properties": {
        "command": {"enum": ["max", "min"]},
        "index": {"type": "string"},
        "mode": {"enum": [RATIONAL, FLOAT]},
        "n": {"type": "integer"},
        "objective": {"enum": ["max", "min"]},
        "value": _VALUE_SCHEMA,
        "per_end": {
            "type": "object",
            "required": ["1", "2"],
            "properties": {"1": _VALUE_SCHEMA, "2": _VALUE_SCHEMA},
        },
        "witness": _CHAIN_SCHEMA,
        "labeled_count": {"type": "integer"},
        "iso_count": {"type": ["integer", "null"]},
        "tolerance_dependent": {"type": "boolean"},
        "chains": {"type": "array", "items": _CHAIN_SCHEMA},
    },
}

OUTPUT_SCHEMAS = {
    "value": {
        "type": "object",
        "required": ["command", "index", "mode", "links", "n", "cells",
                     "direct", "recursive", "equal"],
        "properties": {
            "command": {"const": "value"},
            "index": {"type": "string"},
            "mode": {"enum": [RATIONAL, FLOAT]},
            "links": _CHAIN_SCHEMA,
            "n": {"type": "integer"},
            "cells": {
                "type": "array",
                "items": {
                    "type": "array",
                    "items": {"type": "integer"},
                    "minItems": 2,
                    "maxItems": 2,
                },
            },
            "direct": _VALUE_SCHEMA,
            "recursive": _VALUE_SCHEMA,
            "equal": {"type": "boolean"},
        },
    },
    "max": _EXTREMAL_SCHEMA,
    "min": _EXTREMAL_SCHEMA,
    "classify": {
        "type": "object",
        "required": ["command", "index", "minimize", "premise_holds", "case",
                     "n_star", "tie_at_threshold"],
        "properties": {
            "command": {"const": "classify"},
            "index": {"type": "string"},
            "minimize": {"type": "boolean"},
            "premise_holds": {"type": "boolean"},
            "case": {
                "enum": [
                    "linear-always",
                    "linear-from-4-tie-at-3",
                    "zigzag-then-linear",
                    "not-applicable",
                ]
            },
            "n_star": {"type": ["integer", "null"]},
            "tie_at_threshold": {"type": ["boolean", "null"]},
        },
    },
    "table": {
        "type": "object",
        "required": ["command", "index", "rows"],
        "properties": {
            "command": {"const": "table"},
            "index": {"type": "string"},
            "rows": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["n", "max", "min", "labeled_count", "iso_count", "family"],
                    "properties": {
                        "n": {"type": "integer"},
                        "max": _VALUE_SCHEMA,
                        "min": _VALUE_SCHEMA,
                        "labeled_count": {"type": "integer"},
                        "iso_count": {"type": "integer"},
                        "family": {"type": ["string", "null"]},
                    },
                },
            },
        },
    },
    "verify": {
        "type": "object",
        "required": ["command", "index", "n_max", "oracle", "azi_maximum",
                     "azi_minimum", "ok"],
        "properties": {
            "command": {"const": "verify"},
            "index": {"type": "string"},
            "n_max": {"type": "integer"},
            "oracle": {
                "type": "object",
                "required": ["cap", "checked", "ok", "mismatches"],
                "properties": {
                    "cap": {"type": "integer"},
                    "checked": {"type": "array", "items": {"type": "integer"}},
                    "ok": {"type": "boolean"},
                    "mismatches": {"type": "object"},
                },
            },
            "azi_maximum": {"type": ["object", "null"]},
            "azi_minimum": {"type": ["object", "null"]},
            "ok": {"type": "boolean"},
        },
    },
}


# json's text for each exact scalar type, without a json.dumps call per scalar
_SCALAR_JSON = {
    str: json.encoder.encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _render_json(doc, pad: str = "\n") -> str:
    """Return ``json.dumps(doc, indent=2)`` for a document with string keys,
    a `LinkVector` in it standing for the list of its links.

    The stdlib drops its C encoder whenever ``indent`` is set.  Here a
    scalar is written by its type's entry in `_SCALAR_JSON`, a container
    is its items' texts joined by the newline and indent, and a link word
    is its digits spaced alike in one strided pass (`chains._words_text`).
    A long list of same-shape items comes as a `_Rendered` part
    (`_json_rows`, `_json_words`), written as it is.
    """
    scalar = _SCALAR_JSON.get(type(doc))
    if scalar is not None:
        return scalar(doc)
    if type(doc) is _Rendered:
        return doc
    if not isinstance(doc, (dict, list, tuple, LinkVector)) or not doc:
        return "[]" if isinstance(doc, LinkVector) else json.dumps(doc)
    inner = pad + "  "
    sep = "," + inner
    if isinstance(doc, LinkVector):
        return f"[{inner}{_words_text((doc._word,), sep.encode())}{pad}]"
    is_dict = isinstance(doc, dict)
    parts = []  # joined once: an item's text is copied once a level
    for item in doc.items() if is_dict else doc:
        parts.append(sep)
        if is_dict:
            key, item = item
            parts.append(_SCALAR_JSON.get(type(key), json.dumps)(key) + ": ")
        parts.append(_render_json(item, inner))
    parts[0] = ("{" if is_dict else "[") + inner
    parts.append(pad + ("}" if is_dict else "]"))
    return "".join(parts)


class _Rendered(str):
    """JSON text that `_render_json` writes as it is, already indented for
    its place in the document."""


def _json_rows(template: str, rows: list | tuple) -> _Rendered:
    """The text of a list of same-shape items at a top-level key of a
    document, as ``json.dumps(doc, indent=2)`` writes it: item i is
    ``template % rows[i]``, one format call an item."""
    if not rows:
        return _Rendered("[]")
    return _Rendered("[\n    " + ",\n    ".join(map(template.__mod__, rows)) + "\n  ]")


def _json_words(words: list) -> _Rendered:
    """The text of a list of nonempty link words at a top-level key of a
    document, as ``json.dumps(doc, indent=2)`` writes their lists of links."""
    if not words:
        return _Rendered("[]")
    text = _words_text(words, b",\n      ", b"\n    ],\n    [\n      ")
    return _Rendered(f"[\n    [\n      {text}\n    ]\n  ]")


# an (x, y) cell, and a table row from its JSON-ready fields, in those lists
_CELL_JSON = "[\n      %s,\n      %s\n    ]"
_ROW_JSON = """{
      "n": %s,
      "max": {
        "rational": %s,
        "decimal": "%s"
      },
      "min": {
        "rational": %s,
        "decimal": "%s"
      },
      "labeled_count": %s,
      "iso_count": %s,
      "family": %s
    }"""


def _value_plain(v) -> str:
    exact = as_exact_string(v)
    if exact is None:
        return as_decimal_string(v)
    return f"{exact} (approx {as_decimal_string(v)})"


def _add_index_options(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--index",
        help="preset name: azi, zagreb1, zagreb2, harmonic, abc, ga, "
        "sum_connectivity, randic (optionally randic:GAMMA, e.g. randic:-1/2)",
    )
    group.add_argument("--index-file", help="path to a custom index JSON document")
    p.add_argument("--mode", choices=[RATIONAL, FLOAT], help="force arithmetic mode")
    p.add_argument("--eps", type=float, help="relative comparison tolerance (float mode)")
    p.add_argument("--out", help="write output to this path instead of stdout")


def _resolve_index(args) -> IndexFunction:
    if args.index_file:
        with open(args.index_file, "r", encoding="utf-8") as fh:
            f = load_custom_index(fh.read())
    else:
        name = args.index
        gamma = None
        if ":" in name:
            name, _, gamma_text = name.partition(":")
            if name != "randic":
                raise ValueError(f"only the randic preset takes a parameter, not {name!r}")
            try:
                gamma = Fraction(gamma_text)
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"malformed randic exponent {gamma_text!r}") from None
        f = preset(name, gamma)
    if args.mode == RATIONAL and f.mode == FLOAT:
        raise ValueError("cannot promote a float-mode index table to exact rationals")
    floating = args.mode == FLOAT or f.mode == FLOAT
    if args.eps is not None and not floating:
        raise ValueError("--eps applies to float-mode indices only")
    if floating and (args.eps is not None or f.mode == RATIONAL):
        f = force_float(f, f.eps if args.eps is None else args.eps)
    return f


def _cmd_value(args, f: IndexFunction) -> tuple[str, int]:
    links = LinkVector.from_string(args.links)
    direct = evaluate_direct(links, f)
    recursive = evaluate_recursive(links, f)
    equal = direct == recursive
    if args.format == "json":
        doc = {
            "command": "value",
            "index": f.name,
            "mode": f.mode,
            "links": links,
            "n": links.square_count,
            "cells": _json_rows(_CELL_JSON, realize(links)),
            "direct": _value_json(direct),
            "recursive": _value_json(recursive),
            "equal": equal,
        }
        return _render_json(doc), 0 if equal else 1
    if equal:
        return _value_plain(direct), 0
    print(
        f"evaluator mismatch: direct {_value_plain(direct)} vs recursive "
        f"{_value_plain(recursive)}",
        file=sys.stderr,
    )
    return "", 1


def _cmd_extremal(args, f: IndexFunction) -> tuple[str, int]:
    if args.n < 3:
        raise ValueError(f"extremal search needs --n >= 3, got {args.n}")
    if args.limit is not None and args.limit < 0:
        raise ValueError(f"--limit must be >= 0, got {args.limit}")
    result, table = _extremal(f, args.n, args.command, args.end, args.iso)
    words = None
    if args.enumerate:  # words of n - 2 >= 1 links
        words = [c._word for c in table.chains(end=args.end, dedup=args.dedup, limit=args.limit)]
    if args.format == "json":
        doc = {
            "command": args.command,
            "index": f.name,
            "mode": f.mode,
            "n": args.n,
            "objective": result.objective,
            "value": _value_json(result.value),
            "per_end": {"1": _value_json(result.per_end[1]), "2": _value_json(result.per_end[2])},
            "witness": result.witness,
            "labeled_count": result.labeled_count,
            "iso_count": result.iso_count,
            "tolerance_dependent": result.tolerance_dependent,
        }
        if words is not None:
            doc["chains"] = _json_words(words)
        return _render_json(doc), 0
    lines = [
        f"{args.command} {f.name} n={args.n}: {_value_plain(result.value)}",
        f"witness: {result.witness.to_string()}",
        f"labeled count: {result.labeled_count}",
    ]
    if result.iso_count is not None:
        lines.append(f"mirror classes: {result.iso_count}")
    if words is not None:
        lines.append("chains:")
        if words:
            lines.append(_words_text(words, b",", b"\n"))
    return "\n".join(lines), 0


def _cmd_classify(args, f: IndexFunction) -> tuple[str, int]:
    target = negate(f) if args.minimize else f
    verdict = classify(target)
    if args.format == "json":
        doc = {
            "command": "classify",
            "index": f.name,
            "minimize": args.minimize,
            **verdict._asdict(),
        }
        return _render_json(doc), 0
    lines = [f"case: {verdict.case} (premise {'holds' if verdict.premise_holds else 'fails'})"]
    if verdict.n_star is not None:
        lines.append(f"threshold n*: {verdict.n_star}")
        lines.append(f"tie at threshold: {verdict.tie_at_threshold}")
    return "\n".join(lines), 0


def _is_azi(f: IndexFunction) -> bool:
    return f.mode == RATIONAL and f.values == _azi().values  # the cached preset


def _cmd_table(args, f: IndexFunction) -> tuple[str, int]:
    lo, hi = args.from_n, args.to_n
    if lo > hi:
        raise ValueError(f"empty range: --from {lo} > --to {hi}")
    if lo < 3:
        raise ValueError(f"table rows need n >= 3, got --from {lo}")
    family = _azi_family if _is_azi(f) else None
    max_table, min_table = run_dp(f, hi), run_dp(negate(f), hi)
    rows = []
    for n in range(lo, hi + 1):
        # one read of each table's row n; the min is f's read of the negated optimum
        _, ends, top = max_table._row(n)
        _, low_ends, low = min_table._row(n)
        count = sum(max_table._count(n, e) for e in ends)
        name, _, _, iso = (family(n) if family else
                           (None, None, None, count - max_table._mirror_pairs(n, ends)))
        top, low = top[ends[0] - 1], -low[low_ends[0] - 1]
        rows.append((n, _texts(f, top), _texts(f, low), count, iso, name))
    if args.format == "json":
        json_text = _SCALAR_JSON  # str and None fields as their JSON text
        rows = [(n, json_text[type(e1)](e1), d1, json_text[type(e2)](e2), d2, count, iso,
                 json_text[type(name)](name)) for n, (e1, d1), (e2, d2), count, iso, name in rows]
        return _render_json({"command": "table", "index": f.name,
                             "rows": _json_rows(_ROW_JSON, rows)}), 0
    import csv  # imported here: no other command writes CSV

    cell = 0 if args.exact and f.mode == RATIONAL else 1  # p/q or the decimal
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["n", "max", "min", "labeled_count", "iso_count", "family"])
    writer.writerows((n, top[cell], low[cell], count, iso, name or "")
                     for n, top, low, count, iso, name in rows)
    return buf.getvalue().rstrip("\n"), 0


def _cmd_verify(args, f: IndexFunction) -> tuple[str, int]:
    if args.n_max < 3:
        raise ValueError(f"verification needs --n-max >= 3, got {args.n_max}")
    oracle_hi = min(args.n_max, args.cap)
    checked = []
    mismatches = {}
    for n in range(3, oracle_hi + 1):
        ok, details = cross_check(f, n, cap=args.cap)
        checked.append(n)
        if not ok:
            mismatches[str(n)] = details
    azi_max_report = None
    azi_min_report = None
    if _is_azi(f):
        azi_oracle_hi = min(args.cap, ORACLE_N_MAX)
        if args.n_max >= 5:
            azi_max_report = verify_azi_maximum(args.n_max, oracle_n_max=azi_oracle_hi).to_json()
        azi_min_report = verify_azi_minimum(args.n_max, oracle_n_max=azi_oracle_hi).to_json()
    ok = not mismatches
    for rep in (azi_max_report, azi_min_report):
        if rep is not None and rep["status"] != "success":
            ok = False
    doc = {
        "command": "verify",
        "index": f.name,
        "n_max": args.n_max,
        "oracle": {
            "cap": args.cap,
            "checked": checked,
            "ok": not mismatches,
            "mismatches": mismatches,
        },
        "azi_maximum": azi_max_report,
        "azi_minimum": azi_min_report,
        "ok": ok,
    }
    return _render_json(doc), 0 if ok else 1


@functools.cache  # built on the first main() call, not at import
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polychain",
        description="Extremal degree-based indices over polyomino chains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("value", help="evaluate one chain with both evaluators")
    _add_index_options(p)
    p.add_argument("--links", required=True,
                   help='comma-separated link word, e.g. "1,2,2,1" ("" is the 2-square chain)')
    p.add_argument("--format", choices=["plain", "json"], default="plain")

    for name, title in (("max", "maximum"), ("min", "minimum")):
        p = sub.add_parser(name, help=f"{title} index value over n-square chains")
        _add_index_options(p)
        p.add_argument("--n", type=int, required=True, help="number of squares (>= 3)")
        p.add_argument("--end", type=int, choices=[1, 2], help="restrict the final link type")
        p.add_argument("--enumerate", action="store_true", help="list every extremal chain")
        p.add_argument("--dedup", action="store_true", help="merge mirror-image chains")
        p.add_argument("--limit", type=int, help="stop enumeration after this many chains")
        p.add_argument("--iso", action="store_true",
                       help="also count extremal chains up to mirror symmetry")
        p.add_argument("--format", choices=["plain", "json"], default="json")

    p = sub.add_parser("classify", help="linear/zigzag sufficient-condition verdict")
    _add_index_options(p)
    p.add_argument("--minimize", action="store_true", help="classify the negated index")
    p.add_argument("--format", choices=["plain", "json"], default="json")

    p = sub.add_parser("table", help="per-n extremal summary rows")
    _add_index_options(p)
    p.add_argument("--from", dest="from_n", type=int, required=True, help="first n")
    p.add_argument("--to", dest="to_n", type=int, required=True, help="last n")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--exact", action="store_true", help='CSV cells as exact "p/q"')

    p = sub.add_parser("verify", help="oracle cross-checks (and AZI claims for --index azi)")
    _add_index_options(p)
    p.add_argument("--n-max", type=int, default=12, help="verify square counts up to this")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP,
                   help="exhaustive-oracle cap on n (cost 2**(n-2))")

    return parser


_DISPATCH = {
    "value": _cmd_value,
    "max": _cmd_extremal,
    "min": _cmd_extremal,
    "classify": _cmd_classify,
    "table": _cmd_table,
    "verify": _cmd_verify,
}


@contextlib.contextmanager
def _unlimited_int_digits():
    """Lift the int-to-str digit limit, which exact counts such as
    2**14285 exceed, then restore it."""
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:  # Pythons before 3.10.7 have no limit
        yield
        return
    previous = sys.get_int_max_str_digits()
    set_limit(0)
    try:
        yield
    finally:
        set_limit(previous)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        f = _resolve_index(args)
        # parsing above keeps the default digit guard; only rendering lifts it
        with _unlimited_int_digits():
            text, code = _DISPATCH[args.command](args, f)
        if text and args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # exit 1 means a verification mismatch
        print("error: out of memory: the answer does not fit in this process", file=sys.stderr)
        return 2
    if text and not args.out:
        try:
            print(text)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader has gone; devnull keeps the final flush at exit quiet
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
