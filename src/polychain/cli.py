"""Command-line frontend.

Subcommands expose the full engine: ``value`` (evaluate one chain both
ways), ``max`` / ``min`` (extremal search with optional enumeration),
``classify`` (linear/zigzag sufficient condition), ``table`` (per-n
summary rows) and ``verify`` (oracle cross-checks plus the AZI claims).

Exact values are always printed as "p/q" with a 10-significant-digit
decimal marked approximate.  Output goes out in chunks (`_write`): JSON
documents come from one renderer, `_render_json`, whose parts join to
``json.dumps(doc, indent=2)`` byte for byte, and a long list (links,
chains, cells, rows) is rendered a part of about `_CHUNK` characters at
a time, its chains drawn as they are written.  Every refusal is raised
before the first byte.  Output is
deterministic: equal invocations produce byte-identical output.  Exit
codes: 0 success, 1 verification mismatch, 2 usage or parse error.  A
reader that closes the pipe early ends the output quietly.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import os
import sys
from fractions import Fraction
from types import GeneratorType

from .azi import ORACLE_N_MAX, _azi, _azi_family, verify_azi_maximum, verify_azi_minimum
from .chains import LinkVector, _words_text, realize
from .dp import _extremal, classify, run_dp
from .indices import (
    FLOAT,
    RATIONAL,
    IndexFunction,
    _decimal_text,
    _exact_text,
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

def _object(**properties) -> dict:
    """The JSON schema of an object that has each of `properties`."""
    return {"type": "object", "required": list(properties), "properties": properties}


_STR, _INT, _BOOL = ({"type": name} for name in ("string", "integer", "boolean"))
_MODE = {"enum": [RATIONAL, FLOAT]}
_VALUE_SCHEMA = _object(rational={"type": ["string", "null"]}, decimal=_STR)
_CHAIN_SCHEMA = {"type": "array", "items": {"type": "integer", "enum": [1, 2]}}
_EXTREMAL_SCHEMA = _object(
    command={"enum": ["max", "min"]}, index=_STR, mode=_MODE, n=_INT,
    objective={"enum": ["max", "min"]}, value=_VALUE_SCHEMA,
    per_end=_object(**{"1": _VALUE_SCHEMA, "2": _VALUE_SCHEMA}), witness=_CHAIN_SCHEMA,
    labeled_count=_INT, iso_count={"type": ["integer", "null"]}, tolerance_dependent=_BOOL,
)
_EXTREMAL_SCHEMA["properties"]["chains"] = {"type": "array", "items": _CHAIN_SCHEMA}  # optional

OUTPUT_SCHEMAS = {
    "value": _object(
        command={"const": "value"}, index=_STR, mode=_MODE, links=_CHAIN_SCHEMA, n=_INT,
        cells={"type": "array",
               "items": {"type": "array", "items": _INT, "minItems": 2, "maxItems": 2}},
        direct=_VALUE_SCHEMA, recursive=_VALUE_SCHEMA, equal=_BOOL,
    ),
    "max": _EXTREMAL_SCHEMA,
    "min": _EXTREMAL_SCHEMA,
    "classify": _object(
        command={"const": "classify"}, index=_STR, minimize=_BOOL, premise_holds=_BOOL,
        case={"enum": ["linear-always", "linear-from-4-tie-at-3", "zigzag-then-linear",
                       "not-applicable"]},
        n_star={"type": ["integer", "null"]}, tie_at_threshold={"type": ["boolean", "null"]},
    ),
    "table": _object(command={"const": "table"}, index=_STR, rows={"type": "array", "items": _object(
        n=_INT, max=_VALUE_SCHEMA, min=_VALUE_SCHEMA, labeled_count=_INT, iso_count=_INT,
        family={"type": ["string", "null"]},
    )}),
    "verify": _object(
        command={"const": "verify"}, index=_STR, n_max=_INT,
        oracle=_object(cap=_INT, checked={"type": "array", "items": _INT}, ok=_BOOL,
                       mismatches={"type": "object"}),
        azi_maximum={"type": ["object", "null"]}, azi_minimum={"type": ["object", "null"]},
        ok=_BOOL,
    ),
}


# json's text for each exact scalar type, without a json.dumps call per scalar
_SCALAR_JSON = {
    str: json.encoder.encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}

# characters in a part of a long list's text, about: a part stays under glibc's
# 128 KB mmap threshold, and writing one neither maps nor unmaps memory
_CHUNK = 1 << 16


def _render_json(doc, pad: str = "\n"):
    """Yield the text of ``json.dumps(doc, indent=2)`` in parts, for a
    document with string keys, a `LinkVector` in it standing for the list
    of its links and a generator for a list whose items' indented text it
    yields (`_json_rows`, `_words_parts`).

    The stdlib drops its C encoder whenever ``indent`` is set.  Here a
    scalar is written by its type's entry in `_SCALAR_JSON`, a container
    item by item.
    """
    scalar = _SCALAR_JSON.get(type(doc))
    if scalar is not None:
        yield scalar(doc)
        return
    inner = pad + "  "
    if isinstance(doc, LinkVector) and doc:
        doc = _words_parts((doc._word,), f",{inner}".encode())
    if type(doc) is GeneratorType:
        first = next(doc, None)
        if first is not None:
            yield "[" + inner
            yield first
            yield from doc
            yield pad + "]"
            return
    if not isinstance(doc, (dict, list, tuple)) or not doc:
        yield "[]" if isinstance(doc, (LinkVector, GeneratorType)) else json.dumps(doc)
        return
    is_dict = isinstance(doc, dict)
    lead = ("{" if is_dict else "[") + inner
    for item in doc.items() if is_dict else doc:
        if is_dict:
            key, item = item
            lead += _SCALAR_JSON.get(type(key), json.dumps)(key) + ": "
        scalar = _SCALAR_JSON.get(type(item))
        if scalar is not None:  # a scalar item costs no generator
            yield lead + scalar(item)
        else:
            yield lead
            yield from _render_json(item, inner)
        lead = "," + inner
    yield pad + ("}" if is_dict else "]")


def _json_text(doc):
    """A JSON document's output: its text's parts and a newline."""
    return itertools.chain(_render_json(doc), ("\n",))


def _joined(texts, sep: str = ""):
    """Yield ``sep.join(texts)`` in parts of about `_CHUNK` characters."""
    batch, size = [], 0
    for text in texts:
        batch.append(text)
        size += len(sep) + len(text)
        if size >= _CHUNK:
            yield sep.join(batch)
            batch, size = [""], 0  # the next part leads with sep
    if batch:
        yield sep.join(batch)


def _json_rows(template: str, rows):
    """The items of a list at a top-level key of a document, as
    ``json.dumps(doc, indent=2)`` writes them: ``template % row`` each."""
    return _joined(map(template.__mod__, rows), ",\n    ")


def _words_parts(words, sep: bytes, between: bytes = b"", head: str = "", tail: str = ""):
    """Yield `head`, `chains._words_text` of the byte words `words` (of
    one length, drawn a batch at a time) and `tail` in parts of at most
    about `_CHUNK` characters: whole words, or pieces of a longer one."""
    step = len(sep) + 1
    per = max(_CHUNK // step, 1)  # links a part
    cut, glue, lead, drawn = sep.decode(), between.decode(), head, False
    words = iter(words)
    for word in words:
        if len(word) > per:
            for i in range(0, len(word), per):
                yield lead
                yield _words_text((word[i:i + per],), sep)
                lead = cut
        else:  # as many words as fit, each with the `between` after it
            more = max(_CHUNK // (len(word) * step + len(between) or 1) - 1, 0)
            yield lead
            yield _words_text([word, *itertools.islice(words, more)], sep, between)
        lead, drawn = glue, True
    if drawn:
        yield tail


# an (x, y) cell, and a table row from its JSON-ready fields, in those lists
_CELL_JSON = "[\n      %s,\n      %s\n    ]"
# chains at a top-level key, lists of links: `_words_parts`' separators, head and tail
_CHAINS_JSON = (b",\n      ", b"\n    ],\n    [\n      ", "[\n      ", "\n    ]")
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
# a CSV table row: no cell holds a comma, a quote or a line break
_ROW_CSV = "%s,%s,%s,%s,%s,%s\n"


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


def _cmd_value(args, f: IndexFunction):
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
        return _json_text(doc), 0 if equal else 1
    if equal:
        return (_value_plain(direct) + "\n",), 0
    print(
        f"evaluator mismatch: direct {_value_plain(direct)} vs recursive "
        f"{_value_plain(recursive)}",
        file=sys.stderr,
    )
    return (), 1


def _cmd_extremal(args, f: IndexFunction):
    if args.n < 3:
        raise ValueError(f"extremal search needs --n >= 3, got {args.n}")
    if args.limit is not None and args.limit < 0:
        raise ValueError(f"--limit must be >= 0, got {args.limit}")
    result, table = _extremal(f, args.n, args.command, args.end, args.iso)
    words = None
    if args.enumerate:  # words of n - 2 >= 1 links, drawn as they are written
        chains = table.chains(end=args.end, dedup=args.dedup, limit=args.limit)
        words = (c._word for c in chains)
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
            doc["chains"] = _words_parts(words, *_CHAINS_JSON)
        return _json_text(doc), 0
    return _extremal_plain(args, f, result, words), 0


def _extremal_plain(args, f: IndexFunction, result, words):
    yield f"{args.command} {f.name} n={args.n}: {_value_plain(result.value)}\nwitness: "
    yield from _words_parts((result.witness._word,), b",")
    yield f"\nlabeled count: {result.labeled_count}"
    if result.iso_count is not None:
        yield f"\nmirror classes: {result.iso_count}"
    if words is not None:
        yield "\nchains:"
        yield from _words_parts(words, b",", b"\n", "\n")
    yield "\n"


def _cmd_classify(args, f: IndexFunction):
    target = negate(f) if args.minimize else f
    verdict = classify(target)
    if args.format == "json":
        doc = {
            "command": "classify",
            "index": f.name,
            "minimize": args.minimize,
            **verdict._asdict(),
        }
        return _json_text(doc), 0
    lines = [f"case: {verdict.case} (premise {'holds' if verdict.premise_holds else 'fails'})"]
    if verdict.n_star is not None:
        lines.append(f"threshold n*: {verdict.n_star}")
        lines.append(f"tie at threshold: {verdict.tie_at_threshold}")
    return ("\n".join(lines) + "\n",), 0


def _is_azi(f: IndexFunction) -> bool:
    return f.mode == RATIONAL and f.values == _azi().values  # the cached preset


def _cmd_table(args, f: IndexFunction):
    lo, hi = args.from_n, args.to_n
    if lo > hi:
        raise ValueError(f"empty range: --from {lo} > --to {hi}")
    if lo < 3:
        raise ValueError(f"table rows need n >= 3, got --from {lo}")
    family = _azi_family if _is_azi(f) else None
    # one in-order pass of each table, each row's text made as it is written; the
    # min is f's read of the negated optimum
    rows = zip(range(lo, hi + 1), run_dp(f, hi)._pass(lo, hi, count=True, iso=not family),
               run_dp(negate(f), hi)._pass(lo, hi))
    as_json = args.format == "json"

    def text(raw):  # a CSV cell: p/q with --exact, else the decimal
        if f.mode == FLOAT:
            return as_decimal_string(f.read(raw))
        return (_exact_text if args.exact else _decimal_text)(raw, f.den)

    def lines():
        for n, (top, count, iso), (low, _, _) in rows:
            name = None
            if family:
                name, _, _, iso = family(n)
            if as_json:  # str and None fields as their JSON text
                e1, d1 = _texts(f, top)
                e2, d2 = _texts(f, -low)
                yield _ROW_JSON % (n, _SCALAR_JSON[type(e1)](e1), d1, _SCALAR_JSON[type(e2)](e2),
                                   d2, count, iso,
                                   _SCALAR_JSON[type(name)](name))
            else:
                yield _ROW_CSV % (n, text(top), text(-low), count, iso, name or "")

    if as_json:
        return _json_text({"command": "table", "index": f.name,
                           "rows": _joined(lines(), ",\n    ")}), 0
    return _joined(itertools.chain(("n,max,min,labeled_count,iso_count,family\n",), lines())), 0


def _cmd_verify(args, f: IndexFunction):
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
    return _json_text(doc), 0 if ok else 1


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


def _write(chunks, path: str | None) -> None:
    """Write the chunks to the file at `path`, or to stdout; open nothing
    for no chunks.  A reader that closes stdout stops them quietly."""
    chunks = iter(chunks)
    first = next(chunks, None)
    if first is None:
        return
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(first)
            fh.writelines(chunks)
        return
    try:
        sys.stdout.write(first)
        sys.stdout.writelines(chunks)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone; devnull keeps the final flush at exit quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        f = _resolve_index(args)
        # parsing above keeps the default digit guard; only the answer lifts it.
        # Every refusal is raised by the command, before its first chunk.
        with _unlimited_int_digits():
            chunks, code = _DISPATCH[args.command](args, f)
            _write(chunks, args.out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # exit 1 means a verification mismatch
        print("error: out of memory: the answer does not fit in this process", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
