"""Command-line frontend: formats, exit codes, schemas."""

import csv
import io
import json
import random
from itertools import product
import resource
import subprocess
import sys

import jsonschema
import pytest

import polychain.azi as azi_mod
import polychain.cli as cli_mod
import polychain.dp as dp_mod
import polychain.oracle as oracle_mod
from polychain.azi import azi_extremal_report
from polychain.chains import LinkVector, _words_text, realize
from polychain.cli import OUTPUT_SCHEMAS, _unlimited_int_digits, main
from polychain.dp import minimize, run_dp
from polychain.indices import (
    PRESET_NAMES,
    RATIONAL,
    _increments,
    as_decimal_string,
    as_exact_string,
    force_float,
    load_custom_index,
    negate,
    preset,
)
from test_properties import INDEX_FILES


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def const_index_file(tmp_path):
    """An index file that scores every chain alike: all 2**(n - 2) tie."""
    values = {p: "1" for p in ("2,2", "2,3", "2,4", "3,3", "3,4", "4,4")}
    path = tmp_path / "const.json"
    path.write_text(json.dumps({"name": "const", "mode": "rational", "values": values}))
    return path


class TestValue:
    def test_plain_anchor(self, capsys):
        code, out, _ = run_cli(capsys, "value", "--index", "azi", "--links", "1,2,2,1")
        assert code == 0
        assert out.strip() == "10790359/54000 (approx 199.8214630)"

    def test_empty_links_is_two_square_chain(self, capsys):
        code, out, _ = run_cli(capsys, "value", "--index", "azi", "--links", "")
        assert code == 0
        assert out.strip().startswith("3801/64")

    def test_invalid_link_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "value", "--index", "azi", "--links", "1,3")
        assert code == 2
        assert "invalid link '3'" in err

    def test_json_document(self, capsys):
        doc = run_json(capsys, "value", "--index", "azi", "--links", "1,2", "--format", "json")
        jsonschema.validate(doc, OUTPUT_SCHEMAS["value"])
        assert doc["equal"] is True
        assert doc["direct"] == doc["recursive"]
        assert doc["n"] == 4
        assert doc["cells"] == [[0, 0], [1, 0], [2, 0], [2, -1]]

    @pytest.mark.parametrize("links", ["", "1", "1,2,2,1",
                                       ",".join(random.Random(7).choice("12") for _ in range(300))])
    def test_json_text_is_json_dumps(self, capsys, links):
        code, out, _ = run_cli(capsys, "value", "--index", "azi", "--links", links, "--format", "json")
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    def test_float_index_value(self, capsys):
        doc = run_json(capsys, "value", "--index", "randic:-1/2", "--links", "1,1",
                       "--format", "json")
        assert doc["mode"] == "float"
        assert doc["direct"]["rational"] is None


class TestExtremalCommands:
    def test_max_nine_enumerate(self, capsys):
        doc = run_json(capsys, "max", "--index", "azi", "--n", "9", "--enumerate")
        jsonschema.validate(doc, OUTPUT_SCHEMAS["max"])
        assert doc["chains"] == [[1, 2, 1, 2, 1, 2, 1]]
        assert doc["witness"] == [1, 2, 1, 2, 1, 2, 1]
        assert doc["labeled_count"] == 1

    def test_min_ten_linear_witness(self, capsys):
        doc = run_json(capsys, "min", "--index", "azi", "--n", "10")
        jsonschema.validate(doc, OUTPUT_SCHEMAS["min"])
        assert doc["witness"] == [1] * 8
        assert doc["objective"] == "min"

    def test_max_eight_dedup_single_representative(self, capsys):
        doc = run_json(capsys, "max", "--index", "azi", "--n", "8",
                       "--enumerate", "--dedup")
        assert len(doc["chains"]) == 1
        assert doc["labeled_count"] == 2

    def test_max_with_limit(self, capsys):
        doc = run_json(capsys, "max", "--index", "azi", "--n", "20",
                       "--enumerate", "--limit", "2")
        assert len(doc["chains"]) == 2

    def test_end_restriction(self, capsys):
        doc = run_json(capsys, "max", "--index", "azi", "--n", "7", "--end", "2",
                       "--enumerate")
        assert all(c[-1] == 2 for c in doc["chains"])
        assert doc["value"] == doc["per_end"]["2"]

    def test_iso_count(self, capsys):
        doc = run_json(capsys, "max", "--index", "azi", "--n", "12", "--iso")
        assert doc["labeled_count"] == 4
        assert doc["iso_count"] == 2

    def test_iso_counted_without_enumeration(self, capsys, tmp_path, monkeypatch):
        # 2**18 chains tie under a constant index at n = 20, 2**9 of them palindromes
        path = const_index_file(tmp_path)

        def refuse(*args, **kwargs):
            raise AssertionError("no chain may be enumerated")

        monkeypatch.setattr(dp_mod.DPTable, "chains", refuse)
        doc = run_json(capsys, "max", "--index-file", str(path), "--n", "20", "--iso")
        assert (doc["labeled_count"], doc["iso_count"]) == (2**18, 131328)

    def test_negative_limit_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "max", "--index", "azi", "--n", "12",
                                 "--enumerate", "--limit", "-1")
        assert code == 2
        assert out == ""
        assert err == "error: --limit must be >= 0, got -1\n"
        doc = run_json(capsys, "max", "--index", "azi", "--n", "12",
                       "--enumerate", "--limit", "0")
        assert doc["chains"] == []

    @pytest.mark.parametrize("argv", [
        ("max", "--index", "azi", "--n", "12", "--enumerate"),
        ("min", "--index", "azi", "--n", "12", "--enumerate", "--iso"),
    ])
    def test_one_forward_pass(self, capsys, monkeypatch, argv):
        real_run_dp = dp_mod.run_dp
        calls = []

        def counting(f, n, **kwargs):
            calls.append((f.name, n, kwargs))
            return real_run_dp(f, n, **kwargs)

        for mod in (dp_mod, cli_mod):
            monkeypatch.setattr(mod, "run_dp", counting)
        doc = run_json(capsys, *argv)
        assert doc["chains"]
        assert len(calls) == 1, calls

    def test_n_too_small_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "max", "--index", "azi", "--n", "2")
        assert code == 2
        assert "n >= 3" in err

    def test_chain_past_sys_maxsize_exits_2(self, capsys):
        # values and counts still answer, but no word of n - 2 links fits a buffer
        n = str(10**23)
        for argv in (["max", "--n", n], ["min", "--n", n],
                     ["max", "--n", n, "--enumerate", "--limit", "1"]):
            code, out, err = run_cli(capsys, *argv, "--index", "azi")
            assert (code, out) == (2, ""), argv
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert "sys.maxsize" in err
        code, out, _ = run_cli(capsys, "table", "--index", "azi", "--from", n, "--to", n)
        assert code == 0 and out.startswith("n,max,min,labeled_count,iso_count,family\n" + n)

    def test_float_zero_minimum_is_plus_zero(self, capsys, tmp_path):
        # the min flips the negated table's optimum, 0 at every end: +0.0, never -0.0
        doc = {"name": "zero", "mode": "float", "values": {k: 0 for k in PAIRS}}
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(doc))
        f = load_custom_index(path.read_text())
        for end in (None, 1, 2):
            res = minimize(f, 9, end, count_iso=True)
            assert [repr(v) for v in (res.value, *res.per_end.values())] == ["0.0"] * 3, end
            argv = ["min", "--index-file", str(path), "--n", "9", "--format", "plain"]
            code, out, _ = run_cli(capsys, *argv, *(["--end", str(end)] if end else []))
            assert code == 0 and out.startswith("min zero n=9: 0.000000000\n"), out
        code, out, _ = run_cli(capsys, "table", "--index-file", str(path), "--from", "3", "--to", "9")
        assert code == 0
        assert [line.split(",")[2] for line in out.splitlines()[1:]] == ["0.000000000"] * 7

    def test_plain_format(self, capsys):
        code, out, _ = run_cli(capsys, "max", "--index", "azi", "--n", "6",
                               "--format", "plain")
        assert code == 0
        assert "10790359/54000" in out
        assert "witness: 1,2,2,1" in out


    def test_exact_count_beyond_digit_limit(self, capsys, tmp_path):
        # every chain ties under a constant index: 2**14285 has 4301 digits
        values = {p: "5/3" for p in ("2,2", "2,3", "2,4", "3,3", "3,4", "4,4")}
        path = tmp_path / "const.json"
        path.write_text(json.dumps({"name": "const", "mode": "rational", "values": values}))
        set_limit = getattr(sys, "set_int_max_str_digits", None)
        before = sys.get_int_max_str_digits() if set_limit else None
        code, out, err = run_cli(capsys, "max", "--index-file", str(path), "--n", "14287")
        assert code == 0, err
        if set_limit is None:
            doc = json.loads(out)
        else:
            assert sys.get_int_max_str_digits() == before
            set_limit(0)
            try:
                doc = json.loads(out)
            finally:
                set_limit(before)
        assert doc["labeled_count"] == 2**14285


def render(doc) -> str:
    return "".join(cli_mod._render_json(doc))


def near(size: int) -> list[int]:
    """Sizes about a part's boundary: one short of it, at it, one past it, and three parts."""
    return [size - 1, size, size + 1, 3 * size]


# links a part: a witness in JSON (",\n    " between two links), a chain list in JSON
# (",\n      ") and in plain text (",")
WITNESS, CHAINS, PLAIN = (cli_mod._CHUNK // step for step in (7, 9, 2))


def words_a_part(links, sep, between):
    """Whole words of `links` links in a part, each counted with the `between` after it."""
    return cli_mod._CHUNK // (links * (len(sep) + 1) + len(between))


class TestWordText:
    """A word's text is written in strided passes (`chains._words_text`),
    a part of at most `cli._CHUNK` characters at a time: byte for byte the
    text of ``",".join`` and ``json.dumps(doc, indent=2)``."""

    @staticmethod
    def words(count, links, seed=0):
        rng = random.Random(seed)
        return [LinkVector._of(bytes(rng.choices((1, 2), k=links))) for _ in range(count)]

    @staticmethod
    def parts(parts) -> str:
        parts = list(parts)
        assert max(map(len, parts), default=0) <= cli_mod._CHUNK
        return "".join(parts)

    @pytest.mark.parametrize("links", [0, 1, 2, 17, 18, 40, 300, 10**4, *near(WITNESS), *near(PLAIN)])
    def test_one_word(self, links):
        (word,) = self.words(1, links, seed=links)
        text = ",".join(map(str, word.links))
        assert word.to_string() == text
        assert self.parts(cli_mod._words_parts([word._word], b",")) == text
        if links > 3 * WITNESS:  # past the JSON parts' boundaries
            return
        for doc in ({"witness": word}, {"a": {"b": [word, 1]}}, [word]):
            want = json.loads(json.dumps(doc, default=lambda w: list(w.links)))
            assert render(doc) == json.dumps(want, indent=2)

    def test_empty_word(self):
        assert LinkVector().to_string() == ""
        assert _words_text([b""] * 3, b",", b"\n") == "\n\n"
        assert render({"witness": LinkVector()}) == '{\n  "witness": []\n}'

    @pytest.mark.parametrize("count, links", [pytest.param(count, links, id=f"{links}-{count}")
                                              for count, links in (
        *((count, links) for count in (0, 1, 2, 1024) for links in (1, 18)),
        *((count, links) for links, seps in ((1, cli_mod._CHAINS_JSON[:2]),
                                             (18, cli_mod._CHAINS_JSON[:2]), (18, (b",", b"\n")))
          for count in near(words_a_part(links, *seps))),
        *((3, links) for links in near(CHAINS) + near(PLAIN)),
    )])
    def test_chain_list(self, count, links):
        words = self.words(count, links, seed=count)
        raw = [w._word for w in words]
        plain = "\n".join(",".join(map(str, w.links)) for w in words)
        assert _words_text(raw, b",", b"\n") == plain
        assert self.parts(cli_mod._words_parts(iter(raw), b",", b"\n")) == plain
        if count * links > 9 * CHAINS:  # past the JSON parts' boundaries
            return
        chains = list(cli_mod._words_parts(iter(raw), *cli_mod._CHAINS_JSON))
        assert max(map(len, chains), default=0) <= cli_mod._CHUNK
        doc = {"command": "max", "chains": (part for part in chains)}
        assert render(doc) == json.dumps(
            {"command": "max", "chains": [list(w.links) for w in words]}, indent=2)

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_joined_rows(self, monkeypatch, chunk):
        # rows are gathered until a part reaches `_CHUNK` characters
        monkeypatch.setattr(cli_mod, "_CHUNK", chunk)
        for count in range(40):
            texts = ["x" * (i % 5) for i in range(count)]
            parts = list(cli_mod._joined(texts, ", "))
            assert "".join(parts) == ", ".join(texts)
            assert all(len(part) < chunk + len(", ") + 4 for part in parts)
            cells = LinkVector._of(bytes(i % 3 % 2 + 1 for i in range(count)))
            doc = {"cells": cli_mod._json_rows(cli_mod._CELL_JSON, realize(cells)), "n": count}
            assert render(doc) == json.dumps(
                {"cells": [list(c) for c in realize(cells)], "n": count}, indent=2)

    @pytest.mark.parametrize("limit", ["0", "1", "2", "1024"])
    def test_enumerated_chains(self, capsys, tmp_path, limit):
        path = const_index_file(tmp_path)  # 2**12 chains tie at n = 14
        argv = ["max", "--index-file", str(path), "--n", "14", "--enumerate", "--limit", limit]
        want = [list(c.links) for c in run_dp(load_custom_index(path.read_text()), 14).chains()]
        want = want[:int(limit)]
        code, out, _ = run_cli(capsys, *argv, "--format", "plain")
        assert code == 0
        assert out.split("chains:\n")[1] == "".join(",".join(map(str, w)) + "\n" for w in want)
        code, out, _ = run_cli(capsys, *argv)
        doc = json.loads(out)
        assert doc["chains"] == want and out == json.dumps(doc, indent=2) + "\n"


class TestClassify:
    def test_minimize_azi(self, capsys):
        doc = run_json(capsys, "classify", "--index", "azi", "--minimize")
        jsonschema.validate(doc, OUTPUT_SCHEMAS["classify"])
        assert doc["case"] == "zigzag-then-linear"
        assert doc["n_star"] == 6
        assert doc["tie_at_threshold"] is False

    def test_harmonic(self, capsys):
        doc = run_json(capsys, "classify", "--index", "harmonic")
        assert doc["case"] == "linear-always"
        assert doc["premise_holds"] is True

    def test_azi_not_applicable(self, capsys):
        doc = run_json(capsys, "classify", "--index", "azi")
        assert doc["case"] == "not-applicable"
        assert doc["premise_holds"] is False


class TestTable:
    def test_csv_matches_closed_form(self, capsys):
        from polychain.azi import azi_max_closed_form
        from polychain.indices import as_decimal_string

        code, out, _ = run_cli(capsys, "table", "--index", "azi",
                               "--from", "5", "--to", "20")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,max,min,labeled_count,iso_count,family"
        assert len(lines) == 17
        for line in lines[1:]:
            cells = line.split(",")
            n = int(cells[0])
            assert cells[1] == as_decimal_string(azi_max_closed_form(n))
            assert cells[5] == ("AZ1" if n % 2 else "AZ2")

    def test_exact_flag(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--index", "azi",
                               "--from", "6", "--to", "6", "--exact")
        assert "10790359/54000" in out

    def test_single_row_other_index(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--index", "zagreb2",
                               "--from", "3", "--to", "3")
        assert code == 0
        assert len(out.strip().splitlines()) == 2

    def test_empty_range_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "table", "--index", "azi",
                               "--from", "9", "--to", "5")
        assert code == 2
        assert "empty range" in err

    def test_json_format(self, capsys):
        doc = run_json(capsys, "table", "--index", "azi", "--from", "5", "--to", "8",
                       "--format", "json")
        jsonschema.validate(doc, OUTPUT_SCHEMAS["table"])
        assert [r["n"] for r in doc["rows"]] == [5, 6, 7, 8]

    def test_every_row_counts_mirror_classes(self, capsys, tmp_path):
        # rows of 2**15 .. 2**20 tied chains, 2**ceil((n - 2) / 2) of them
        # palindromes, with no option to cap the count: --iso-limit is refused
        argv = ("table", "--index-file", str(const_index_file(tmp_path)),
                "--from", "17", "--to", "22", "--format", "json")
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        doc = json.loads(out)
        jsonschema.validate(doc, OUTPUT_SCHEMAS["table"])
        assert [r["iso_count"] for r in doc["rows"]] == [
            (2 ** (n - 2) + 2 ** ((n - 1) // 2)) // 2 for n in range(17, 23)]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--iso-limit", "0"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and "unrecognized arguments: --iso-limit 0" in err

    def test_each_row_read_once(self, capsys, tmp_path, monkeypatch):
        # one in-order pass of each table; in the max table's, row 20 takes its
        # counts from its record, rows 20 and 21 walk afresh, and every row from
        # 22 on takes one count step and one walk step (one map composed) and no
        # other read: no record, count carry or stretch
        path = tmp_path / "const.json"
        path.write_text(json.dumps({"name": "const", "values": {k: "7/3" for k in PAIRS}}))
        events, passes = [], []
        real_pass = dp_mod.DPTable._pass

        def traced(name, real):
            def call(*args):
                events.append((name,))
                return real(*args)
            return call

        def counted_pass(table, lo, hi, *args, **kwargs):
            passes.append((table.f.name, lo, hi, kwargs))
            for k, row in enumerate(real_pass(table, lo, hi, *args, **kwargs), lo):
                events.append(("yield", table.f.name, k))
                yield row

        monkeypatch.setattr(dp_mod.DPTable, "_pass", counted_pass)
        for name in ("_row", "_count", "_walk"):
            monkeypatch.setattr(dp_mod.DPTable, name, traced(name, getattr(dp_mod.DPTable, name)))
        for name in ("_step", "_carry", "_stretch", "_compose"):
            monkeypatch.setattr(dp_mod, name, traced(name, getattr(dp_mod, name)))
        code, _, err = run_cli(capsys, "table", "--index-file", str(path),
                               "--from", "20", "--to", "150", "--exact")
        assert (code, err) == (0, "")
        assert passes == [("const", 20, 150, {"iso": True, "count": True}),
                          ("const_neg", 20, 150, {})]
        rows = range(20, 151)
        assert [e for e in events if e[0] == "yield"] == [
            ("yield", name, n) for n in rows for name in ("const", "const_neg")]
        reads, k = {}, None  # the calls made to read each row of the max table
        for event in events:
            if event[0] == "yield":
                k = event[2] + 1  # the max table's next row: the min table reads nothing
            else:
                reads.setdefault(k or 20, []).append(event[0])
        assert reads[20][:2] == ["_row", "_count"] and reads[20].count("_walk") == 1
        assert reads[21][:2] == ["_step", "_walk"] and "_count" not in reads[21]
        assert all(reads[n] == ["_step", "_walk", "_compose"] for n in range(22, 151)), reads

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_rows_are_read_as_they_are_written(self, monkeypatch, fmt):
        # the first part of about _CHUNK characters goes out after a few
        # thousand of 20 000 rows are read, not all of them
        reads, real = [], dp_mod.DPTable._pass

        def counted(table, *args, **kwargs):
            for row in real(table, *args, **kwargs):
                reads.append(table.f.name)
                yield row

        monkeypatch.setattr(dp_mod.DPTable, "_pass", counted)
        args = cli_mod.build_parser().parse_args(
            ["table", "--index", "azi", "--from", "3", "--to", "20002", "--format", fmt])
        chunks, code = cli_mod._cmd_table(args, preset("azi"))
        drawn = 0
        for chunk in chunks:
            drawn += len(chunk)
            if drawn >= cli_mod._CHUNK:
                break
        assert code == 0 and 0 < len(reads) < 20000 // 4
        assert reads.count("azi_neg") == reads.count("azi")


def reference_table(f, lo, hi, fmt, exact):
    """CLI `table`'s text for rows lo..hi, row by row from the public API:
    each row's values, counts and AZI report read as objects, and the
    document written by json.dumps(indent=2) or csv.writer."""
    azi_like = f.mode == RATIONAL and f.values == preset("azi").values
    max_table, min_table = run_dp(f, hi), run_dp(negate(f), hi)
    rows = []
    for n in range(lo, hi + 1):
        if azi_like:
            report = azi_extremal_report(n)
            family, iso = report.family, report.iso_count
        else:
            # a fresh table per row: its one read walks the whole DAG, never
            # the mirror walk `iso_count` carries from row n - 2 of the same table
            family, iso = None, run_dp(f, n).iso_count(n)
        rows.append({"n": n, "max": max_table.best_value(n),
                     "min": 0 - min_table.best_value(n),  # a float zero stays +0.0
                     "labeled_count": max_table.labeled_count(n),
                     "iso_count": iso, "family": family})
    if fmt == "json":
        for r in rows:
            for key in ("max", "min"):
                r[key] = {"rational": as_exact_string(r[key]), "decimal": as_decimal_string(r[key])}
        return json.dumps({"command": "table", "index": f.name, "rows": rows}, indent=2)

    def cell(v):
        text = as_exact_string(v) if exact else None
        return as_decimal_string(v) if text is None else text

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["n", "max", "min", "labeled_count", "iso_count", "family"])
    for r in rows:
        writer.writerow([r["n"], cell(r["max"]), cell(r["min"]), r["labeled_count"],
                         r["iso_count"], r["family"] or ""])
    return buf.getvalue().rstrip("\n")


PAIRS = ("2,2", "2,3", "2,4", "3,3", "3,4", "4,4")
# index documents for the reference test: (document, last row)
TABLE_FILES = {
    **{f"properties-{key}": (json.loads(INDEX_FILES[key]), 40)
       for key in ("rational", "constant", "float", "huge")},
    # float values near the top of the range: row 6 would overflow and is refused
    "float-1e307": ({"name": "f307", "mode": "float", "values": {k: "1e307" for k in PAIRS}}, 5),
    "float-subnormal": ({"name": "sub", "mode": "float",
                         "values": {k: f"{(-1) ** i * 5e-324}" for i, k in enumerate(PAIRS)}}, 40),
    "tiny": ({"name": "tiny", "values": {k: f"{(-1) ** i}/{10**400}" for i, k in enumerate(PAIRS)}}, 40),
    "escaped-name": ({"name": 'q"\\\u00e9\u2028', "values": {k: f"{i}/7" for i, k in enumerate(PAIRS)}}, 40),
    # every chain ties: counts 2**(n - 2) past 4300 digits
    "const-7/3": ({"name": "const", "values": {k: "7/3" for k in PAIRS}}, 14290),
}
TABLE_FORMATS = [("--format", "json"), ("--format", "csv"), ("--format", "csv", "--exact")]


class TestTableReference:
    """CLI `table` against `reference_table`, byte for byte."""

    @staticmethod
    def check(capsys, f, source, hi):
        """Rows lo..hi for lo in 3, 4, 5 and hi (the last 11 rows past 1000), in each format."""
        starts = (hi - 10, hi) if hi > 1000 else sorted({lo for lo in (3, 4, 5, hi) if lo <= hi})
        for lo, fmt in product(starts, TABLE_FORMATS):
            code, out, err = run_cli(capsys, "table", *source, "--from", str(lo), "--to", str(hi), *fmt)
            assert (code, err) == (0, ""), (lo, fmt)
            with _unlimited_int_digits():
                want = reference_table(f, lo, hi, fmt[1], "--exact" in fmt)
            assert out == want + "\n", (lo, fmt)

    @pytest.mark.parametrize("name", PRESET_NAMES)
    @pytest.mark.parametrize("mode", [None, "float"])
    def test_presets(self, capsys, name, mode):
        f = preset(name)
        source = ("--index", name)
        if mode is not None:
            f, source = (force_float(f) if f.mode == RATIONAL else f), (*source, "--mode", mode)
        self.check(capsys, f, source, 40)

    @pytest.mark.parametrize("key", sorted(TABLE_FILES))
    def test_index_files(self, capsys, tmp_path, key):
        doc, hi = TABLE_FILES[key]
        path = tmp_path / "index.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        self.check(capsys, load_custom_index(doc), ("--index-file", str(path)), hi)


class TestVerify:
    def test_azi_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--index", "azi", "--n-max", "10")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, OUTPUT_SCHEMAS["verify"])
        assert doc["ok"] is True
        assert doc["oracle"]["checked"] == list(range(3, 11))
        assert doc["azi_maximum"]["status"] == "success"
        assert doc["azi_minimum"]["status"] == "success"

    def test_tolerance_boundary_table_passes(self, capsys, tmp_path):
        # at n = 4 end 1's candidates (1, 1) and (2, 1) differ by just over
        # eps times the larger: one maximizer, not a tie
        doc = {"name": "probe", "mode": "float", "eps": 0.6002183446019408,
               "values": {"2,2": "-5.240707458162173", "2,3": "0.8845845059190367",
                          "2,4": "-2.6008966690384145", "3,3": "2.0784007719238886",
                          "3,4": "2.5144060821610807", "4,4": "-8.689422815203738"}}
        path = tmp_path / "probe.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "verify", "--index-file", str(path), "--n-max", "4")
        assert code == 0, out
        assert json.loads(out)["oracle"]["mismatches"] == {}
        doc = run_json(capsys, "max", "--index-file", str(path), "--n", "4")
        assert doc["labeled_count"] == 1
        assert doc["witness"] == [1, 1]

    def test_cap_bounds_azi_sweeps(self, capsys, monkeypatch):
        real_sweep = oracle_mod._sweep
        swept = []

        def recording(f, n, cap, *picks):
            if picks:  # an AZI sweep, which picks the one extreme it checks
                swept.append(n)
            return real_sweep(f, n, cap, *picks)

        monkeypatch.setattr(oracle_mod, "_sweep", recording)
        code, out, err = run_cli(capsys, "verify", "--index", "azi", "--n-max", "12",
                                 "--cap", "10")
        assert code == 0, err
        assert json.loads(out)["azi_maximum"]["status"] == "success"
        assert swept and max(swept) <= 10, swept

    def test_non_azi_skips_azi_reports(self, capsys):
        doc_code, out, _ = run_cli(capsys, "verify", "--index", "zagreb2", "--n-max", "8")
        doc = json.loads(out)
        assert doc_code == 0
        assert doc["azi_maximum"] is None
        assert doc["azi_minimum"] is None

    def test_failed_azi_claim_alone_exits_1(self, capsys, monkeypatch):
        # the oracle agrees with the engine; only the family's labeled count is off
        real = azi_mod._azi_family

        def off_by_one(n):
            name, m, labeled, iso = real(n)
            return name, m, labeled + (n == 8), iso

        monkeypatch.setattr(azi_mod, "_azi_family", off_by_one)
        code, out, _ = run_cli(capsys, "verify", "--index", "azi", "--n-max", "10")
        assert code == 1
        doc = json.loads(out)
        assert doc["ok"] is False
        assert doc["oracle"]["ok"] is True
        assert doc["azi_maximum"]["status"] == "failure"
        assert doc["azi_maximum"]["failure"]["claim"] == "labeled maximizer count"

    def test_corrupted_increments_exit_1(self, capsys, monkeypatch):
        # fault injection: raise g22 by one unit inside the engine only
        def broken(f):
            g11, g12, g21, g22, g2, base = _increments(f)
            return g11, g12, g21, g22 + f.den, g2, base

        monkeypatch.setattr(dp_mod, "_increments", broken)
        code, out, _ = run_cli(capsys, "verify", "--index", "zagreb1", "--n-max", "6")
        assert code == 1
        doc = json.loads(out)
        assert doc["ok"] is False
        assert doc["oracle"]["mismatches"]


class TestIndexResolution:
    def test_index_file(self, capsys, tmp_path):
        doc = {
            "name": "azi-copy",
            "mode": "rational",
            "values": {"2,2": "8", "2,3": "8", "2,4": "8",
                       "3,3": "729/64", "3,4": "1728/125", "4,4": "512/27"},
        }
        path = tmp_path / "azi.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "value", "--index-file", str(path),
                               "--links", "1,2,2,1")
        assert code == 0
        assert out.strip().startswith("10790359/54000")

    def test_missing_index_file_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "value", "--index-file",
                               str(tmp_path / "nope.json"), "--links", "1")
        assert code == 2

    def test_requires_exactly_one_source(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["value", "--links", "1"])
        assert exc.value.code == 2

    def test_unknown_preset_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "value", "--index", "wiener", "--links", "1")
        assert code == 2
        assert "unknown index preset" in err

    def test_randic_exponent_overflow_exits_2(self, capsys):
        # 6.0 ** 1024.5 overflows a float: refused before any table is built
        code, _, err = run_cli(capsys, "max", "--index", "randic:2049/2", "--n", "6")
        assert code == 2
        assert err.startswith("error: randic exponent 2049/2 outside")
        assert err.count("\n") == 1

    def test_randic_gamma_parse_error(self, capsys):
        code, _, err = run_cli(capsys, "value", "--index", "randic:one", "--links", "1")
        assert code == 2
        assert "malformed randic exponent" in err

    def test_non_finite_input_exits_2(self, capsys, tmp_path):
        doc = {"name": "inf", "mode": "float",
               "values": {"2,2": "1e400", "2,3": "0", "2,4": "1",
                          "3,3": "1", "3,4": "2", "4,4": "1"}}
        path = tmp_path / "inf.json"
        path.write_text(json.dumps(doc))
        for argv in (["--index-file", str(path)], ["--index", "ga", "--eps", "inf"]):
            code, out, err = run_cli(capsys, "max", *argv, "--n", "8")
            assert code == 2, argv
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1

    def test_float_overflow_exits_2(self, capsys, tmp_path):
        # finite entries whose sums overflow: refused, not printed as inf
        doc = {"name": "huge", "mode": "float",
               "values": {p: "1e308" for p in ("2,2", "2,3", "2,4", "3,3", "3,4", "4,4")}}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        for argv in (["max", "--n", "6"], ["value", "--links", "1,2"]):
            code, out, err = run_cli(capsys, *argv, "--index-file", str(path))
            assert code == 2, argv
            assert out == ""
            assert err.startswith("error: float overflow: ") and err.count("\n") == 1

    def test_exact_values_past_the_float_range(self, capsys, tmp_path):
        # every chain of k squares has 3k + 1 edges, each worth 10**400
        doc = {"name": "vast", "mode": "rational",
               "values": {p: str(10**400) for p in ("2,2", "2,3", "2,4", "3,3", "3,4", "4,4")}}
        path = tmp_path / "vast.json"
        path.write_text(json.dumps(doc))
        src = ("--index-file", str(path), "--format", "json")

        def rendered(edges, decimal):
            return {"rational": str(edges * 10**400), "decimal": decimal}

        doc = run_json(capsys, "max", "--n", "5", *src)
        assert doc["value"] == rendered(16, "1.600000000e+401")
        doc = run_json(capsys, "value", "--links", "1,2", *src)
        assert doc["direct"] == doc["recursive"] == rendered(13, "1.300000000e+401")
        doc = run_json(capsys, "table", "--from", "3", "--to", "4", *src)
        assert [(r["max"], r["min"]) for r in doc["rows"]] == [
            (rendered(10, "1.000000000e+401"),) * 2,
            (rendered(13, "1.300000000e+401"),) * 2,
        ]

    def test_exact_values_below_the_float_range(self, capsys, tmp_path):
        # a 4-square chain has 13 edges; 13 / 10**320 is a float subnormal
        for den, sign, decimal in ((10**400, "", "1.300000000e-399"),
                                   (10**400, "-", "-1.300000000e-399"),
                                   (10**320, "", "1.300000000e-319")):
            doc = {"name": "tiny", "mode": "rational",
                   "values": {p: f"{sign}1/{den}" for p in ("2,2", "2,3", "2,4", "3,3", "3,4", "4,4")}}
            path = tmp_path / "tiny.json"
            path.write_text(json.dumps(doc))
            doc = run_json(capsys, "value", "--links", "1,2", "--index-file", str(path),
                           "--format", "json")
            assert doc["direct"] == doc["recursive"] == {"rational": f"{sign}13/{den}",
                                                         "decimal": decimal}

    def test_mode_float_override(self, capsys):
        doc = run_json(capsys, "value", "--index", "azi", "--mode", "float",
                       "--links", "1,1", "--format", "json")
        assert doc["mode"] == "float"

    def test_mode_rational_promotion_refused(self, capsys):
        code, _, err = run_cli(capsys, "value", "--index", "abc",
                               "--mode", "rational", "--links", "1")
        assert code == 2
        assert "cannot promote" in err

    def test_eps_on_rational_refused(self, capsys):
        code, _, err = run_cli(capsys, "value", "--index", "azi",
                               "--eps", "1e-6", "--links", "1")
        assert code == 2
        assert "float-mode" in err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "result.txt"
        code, out, _ = run_cli(capsys, "value", "--index", "azi",
                               "--links", "1,2,2,1", "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().strip() == "10790359/54000 (approx 199.8214630)"


def run_fresh(*argv):
    proc = subprocess.run([sys.executable, "-m", "polychain.cli", *argv],
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


class TestWrites:
    """A command's text goes out in chunks: a refusal writes nothing, and
    ``--out`` receives what stdout would."""

    @pytest.mark.parametrize("argv", [
        ["max", "--index", "azi", "--n", "2"],
        ["max", "--index", "azi", "--n", "12", "--enumerate", "--limit", "-1"],
        ["max", "--index", "azi", "--n", str(10**23)],
        ["max", "--index", "azi", "--n", str(10**23), "--enumerate", "--format", "plain"],
        ["table", "--index", "azi", "--from", "9", "--to", "8"],
    ])
    def test_refusal_writes_nothing(self, capsys, tmp_path, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "") and err.startswith("error: ") and err.count("\n") == 1
        target = tmp_path / "kept.txt"
        target.write_bytes(b"an earlier answer\n")
        assert run_cli(capsys, *argv, "--out", str(target)) == (2, "", err)
        assert target.read_bytes() == b"an earlier answer\n"

    @pytest.mark.parametrize("argv", [
        ["max", "--n", "16", "--enumerate"],  # 2**14 chains, about 2 MB in many parts
        ["max", "--n", "16", "--enumerate", "--format", "plain"],
        ["table", "--from", "3", "--to", "1000", "--format", "json"],
        ["table", "--from", "3", "--to", "1000"],
    ])
    def test_out_file_holds_stdout(self, capsys, tmp_path, argv):
        argv = [*argv, "--index-file", str(const_index_file(tmp_path))]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and len(out) > 2 * cli_mod._CHUNK
        target = tmp_path / "out.txt"
        target.write_text("an earlier, longer answer\n" * 10**5)
        assert run_cli(capsys, *argv, "--out", str(target)) == (0, "", "")
        assert target.read_text(encoding="utf-8") == out


class TestProcess:
    def test_one_parser_serves_every_call(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal width
        const = str(const_index_file(tmp_path))
        sequence = [
            ["max", "--index", "azi", "--n", "12", "--enumerate", "--dedup", "--limit", "3"],
            ["max", "--index", "azi", "--n", "12"],
            ["max", "--index", "azi", "--n", "twelve"],
            ["table", "--index", "azi", "--from", "3", "--to", "8", "--format", "json"],
            # a count of 4303 digits, past the int-to-str limit, rendered while written
            ["max", "--index-file", const, "--n", "14300", "--format", "plain"],
            ["max", "--index-file", const, "--n", "14", "--enumerate"],
        ]
        digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
        before = digit_limit()
        for argv in sequence:
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refusal
                code = exc.code
            assert (code, *capsys.readouterr()) == run_fresh(*argv), argv
            assert code == (2 if "twelve" in argv else 0), argv
            assert digit_limit() == before, argv
        assert cli_mod.build_parser.cache_info().currsize == 1
        probe = "import polychain.cli as c; print(c.build_parser.cache_info().currsize)"
        fresh = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert fresh.stdout == "0\n", "the parser is built at import"

    def test_out_of_memory_exits_2(self, tmp_path):
        # the 10**10-byte witness cannot be allocated under a 1 GiB address
        # space, set on the child alone; exit 1 would mean a mismatch
        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

        argv = [sys.executable, "-m", "polychain.cli", "max", "--index", "azi", "--n", "10000000000"]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120,
                              preexec_fn=limit_memory)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: out of memory")
        assert proc.stderr.count("\n") == 1
        # nor does it touch an --out file
        target = tmp_path / "kept.txt"
        target.write_bytes(b"an earlier answer\n")
        again = subprocess.run([*argv, "--out", str(target)], capture_output=True, text=True,
                               timeout=120, preexec_fn=limit_memory)
        assert (again.returncode, again.stdout, again.stderr) == (2, "", proc.stderr)
        assert target.read_bytes() == b"an earlier answer\n"

    def test_closed_pipe_ends_quietly(self):
        # a 200 KB witness overfills the 64 KB pipe buffer, so the write meets EPIPE
        proc = subprocess.Popen(
            [sys.executable, "-m", "polychain.cli", "max", "--index", "azi", "--n", "100000",
             "--format", "plain"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        head = proc.stdout.read(200)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
        assert head.startswith(b"max azi n=100000: ")
        assert err == b""
