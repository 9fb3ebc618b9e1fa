"""Seeded request generators for the three benchmark workloads.

Everything here is plain data built from ``random.Random`` streams keyed
by (workload, seed), so the same seed always yields the same table pool
and the same request sequence, whatever the timing of the run.  The
program under test only ever sees the generated tables and arguments.

Requests come in fixed-size blocks.  Inside a block the request kinds
are a fixed multiset and the sizes are stratified, so that every block
carries the same mix of work; the seed only moves values inside their
strata, picks tables and shuffles the order.  That keeps work per second
and the latency percentiles comparable across seeds.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

PAIRS = ((2, 2), (2, 3), (2, 4), (3, 3), (3, 4), (4, 4))
PAIR_KEYS = tuple(f"{a},{b}" for a, b in PAIRS)

def _rng(workload: str, seed: int, stream: str) -> random.Random:
    return random.Random(f"{workload}:{seed}:{stream}")


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _stratified(block: int, lo: float, hi: float, k: int) -> list[int]:
    """k integers, one from each of k equal log-strata of [lo, hi).

    The offset inside the strata is a golden-ratio sequence over the
    blocks, so the sizes of any few consecutive blocks cover each
    stratum evenly.  It does not depend on the seed: a run's latency
    percentiles then measure the program, not which sizes were drawn.
    """
    u = (0.5 + block * 0.6180339887498949) % 1.0
    a, b = math.log(lo), math.log(hi)
    return [round(math.exp(a + (b - a) * (s + u) / k)) for s in range(k)]


def _rational_text(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _wide_rational_table(rng: random.Random, fixed: random.Random,
                         den_max: int = 10**6) -> dict[str, str]:
    """Entries in about [-5, 20) with denominators in [den_max / 2, den_max].

    The denominators and the entries come from ``fixed``, a stream the
    seed does not touch, and ``rng`` moves each entry by up to 1%: the
    seed changes the table but not the width of the DP's integers, which
    sets its cost and its memory."""
    out = {}
    for key in PAIR_KEYS:
        den = fixed.randrange(max(1, den_max // 2), den_max + 1)
        value = fixed.uniform(-5, 20) * (1 + rng.uniform(-0.01, 0.01))
        out[key] = _rational_text(Fraction(round(value * den), den))
    return out


def _small_range_table(rng: random.Random) -> dict[str, str]:
    """Integer entries in {0, 1, 2}: accidental ties are frequent."""
    return {key: str(rng.randrange(0, 3)) for key in PAIR_KEYS}


def _preset_values(name: str) -> dict[tuple[int, int], Fraction]:
    formula = {
        "azi": lambda x, y: Fraction(x * y, x + y - 2) ** 3,
        "harmonic": lambda x, y: Fraction(2, x + y),
        "zagreb2": lambda x, y: Fraction(x * y),
    }[name]
    return {(x, y): formula(x, y) for x, y in PAIRS}


def _shifted_table(rng: random.Random, base: str) -> tuple[dict[str, str], Fraction, Fraction]:
    """a * base + b with a > 0, for a rational preset ``base``.

    Every chain has 3n + 1 edges, so the constant b shifts all chains
    alike and the optimal chains are exactly those of the preset, hidden
    in a table with unrelated-looking entries.  With base AZI the value
    of the maximum is a * azi_max(n) + b * (3n + 1).
    """
    a = Fraction(rng.randrange(1, 2000), rng.randrange(1, 1000))
    b = Fraction(rng.randrange(-5000, 5000), rng.randrange(1, 1000))
    values = {f"{x},{y}": _rational_text(a * v + b) for (x, y), v in _preset_values(base).items()}
    return values, a, b


# ---------------------------------------------------------------- extremal-large

# The rational presets.  randic:-1 is left out: its maximizers number about
# 1.6**n, and tie counts that wide hold Θ(n²) bits in the DP table, which
# at n = 10**6 is tens of GB; ties-cli measures that growth at n <= 2*10**4.
EXTREMAL_PRESETS = ("azi", "zagreb1", "zagreb2", "harmonic")
EXTREMAL_FLOATS = ("abc", "ga", "randic:-1/2", "float:azi")
EXTREMAL_N_MIN, EXTREMAL_N_MAX = 10**4, 10**6
# One kind per slot of a block: a quarter of the requests use float mode.
EXTREMAL_KINDS = ("preset", "rational", "rational", "float")


def extremal_pool(seed: int) -> list[dict]:
    """Index specs: rational presets, seeded wide rationals, float tables.

    The eight wide tables have denominators of about 10**0.75 up to
    10**6, so the DP's integer widths span a fixed range whatever the
    seed."""
    rng = _rng("extremal-large", seed, "pool")
    fixed = _rng("extremal-large", 0, "tables")
    pool = [{"kind": "preset", "name": name} for name in EXTREMAL_PRESETS]
    pool += [{"kind": "rational", "values": _wide_rational_table(rng, fixed, round(10 ** (0.75 * i)))}
             for i in range(1, 9)]
    pool += [{"kind": "float", "name": name} for name in EXTREMAL_FLOATS]
    return pool


def extremal_block(block: int, pool: list[dict]) -> list[dict]:
    """Eight maximize/minimize requests.

    The square counts are stratified log-uniform over [10**4, 10**6).
    Table kinds rotate over the eight slots from block to block, and the
    tables of a kind rotate too, each used once per two blocks.  Max or
    min, the fixed ends and the order come from a stream the seed does
    not touch: the order decides which freed tables the allocator can
    reuse, and with it the peak RSS and the latency of the mid-sized
    requests.  The seed acts through the table entries of the pool.
    """
    mix = _rng("extremal-large", 0, f"mix{block}")
    sizes = _stratified(block, EXTREMAL_N_MIN, EXTREMAL_N_MAX, 8)
    slot_kinds = EXTREMAL_KINDS * 2
    ops = ["max", "min"] * 4
    ends = [None] * 5 + [1, 2, mix.choice((1, 2))]
    mix.shuffle(ops)
    mix.shuffle(ends)
    out = []
    used = {kind: 0 for kind in EXTREMAL_KINDS}
    for slot, (n, op, end) in enumerate(zip(sizes, ops, ends)):
        kind = slot_kinds[(slot + block) % len(slot_kinds)]
        choices = [i for i, spec in enumerate(pool) if spec["kind"] == kind]
        per_block = 2 * EXTREMAL_KINDS.count(kind)
        table = choices[(block * per_block + used[kind]) % len(choices)]
        used[kind] += 1
        out.append({"op": op, "table": table, "n": n, "end": end})
    mix.shuffle(out)
    return out


# ---------------------------------------------------------------------- ties-cli

TIES_COUNT_MIN, TIES_COUNT_MAX = 10**3, 2 * 10**4
TIES_TIE_FREE_PRESETS = ("harmonic", "zagreb2", "ga")


def ties_files(seed: int) -> dict[str, tuple[dict, tuple[str, str] | None]]:
    """Index documents written to disk during set-up, by file name, each
    with the (a, b) of a planted table or None.

    ``const`` scores every chain alike (2**(n-2) maximizers), the
    ``planted`` tables carry the AZI ties (the AZ2 family at even n),
    and the ``free`` tables are shifted harmonic and zagreb2 tables,
    whose optimal chains are unique.  Seeded wide random tables are not
    used here: many of them have about n/2 tied maximizers, and the
    mirror-class count of --iso would then cost Θ(n²) at the count-only
    sizes.
    """
    rng = _rng("ties-cli", seed, "pool")
    c = Fraction(rng.randrange(1, 100), rng.randrange(1, 30))
    docs = {"const": ({"name": "const", "mode": "rational",
                       "values": {key: _rational_text(c) for key in PAIR_KEYS}}, None)}
    for i in range(3):
        values, a, b = _shifted_table(rng, "azi")
        docs[f"planted{i}"] = ({"name": f"planted{i}", "mode": "rational", "values": values},
                               (_rational_text(a), _rational_text(b)))
    for i, base in enumerate(("harmonic", "zagreb2")):
        docs[f"free{i}"] = ({"name": f"free{i}", "mode": "rational",
                             "values": _shifted_table(rng, base)[0]}, None)
    return docs


def _even(rng: random.Random, lo: int, hi: int) -> int:
    return 2 * rng.randrange(lo // 2, hi // 2 + 1)


def ties_block(seed: int, block: int) -> list[dict]:
    """Twelve CLI invocations; ``@name`` in ``argv`` stands for
    ``--index-file`` and the path of that set-up document.

    Count-only sizes on the constant index run to 2*10**4, and one
    request per block sits at that end of the range.  From n = 14287 on
    the CLI cannot print the labeled count 2**(n-2) (Python's 4300-digit
    limit on int-to-str) and exits 2; those requests stay in the mix and
    count as failed.
    """
    rng = _rng("ties-cli", seed, f"block{block}")
    # Sizes, min or max and the flags come from a stream that the seed does
    # not touch, so every seed runs the same mix; the seed picks the tables.
    size = _rng("ties-cli", 0, f"sizes{block}")
    counts = _stratified(block, TIES_COUNT_MIN, TIES_COUNT_MAX, 3)
    planted = f"planted{rng.randrange(3)}"
    free = f"free{rng.randrange(2)}"
    lo = size.randrange(3, 900)
    reqs = [
        {"argv": ["max", "@const", "--n", counts[0]]},
        {"argv": ["min", "@const", "--n", counts[1], "--format", "plain"]},
        {"argv": ["max", "@const", "--n", counts[2]]},
        {"argv": ["max", "@const", "--n", TIES_COUNT_MAX]},
        {"argv": ["max", "--index", "azi", "--n", _even(size, 6, 300), "--enumerate"]},
        {"argv": ["max", "--index", "azi", "--n", _even(size, 6, 300),
                  "--enumerate", "--dedup", "--iso"]},
        {"argv": ["max", f"@{planted}", "--n", size.randrange(10, 3000),
                  "--enumerate", "--limit", size.randrange(1, 50)]},
        {"argv": ["max", f"@{planted}", "--n", _even(size, 6, 600), "--iso", "--format", "plain"]},
        {"argv": ["min", "@const", "--n", size.randrange(10, 3000),
                  "--enumerate", "--dedup", "--limit", size.randrange(1, 50)]},
        {"argv": ["table", "--index", "azi", "--from", lo, "--to", lo + size.randrange(10, 200),
                  "--format", "json"]},
        {"argv": ["table", f"@{size.choice((planted, 'const'))}", "--from", size.randrange(20, 60),
                  "--to", size.randrange(60, 150), "--exact"]},
        {"argv": [size.choice(("max", "min")),
                  *size.choice((["--index", size.choice(TIES_TIE_FREE_PRESETS)], [f"@{free}"])),
                  "--n", round(_log_uniform(size, TIES_COUNT_MIN, TIES_COUNT_MAX)),
                  *size.choice(([], ["--end", "1"], ["--end", "2"], ["--iso"]))]},
    ]
    for req in reqs:
        req["argv"] = [str(a) for a in req["argv"]]
    rng.shuffle(reqs)
    return reqs


# ----------------------------------------------------------------- oracle-verify

# Oracle calls per block at each n; a call costs about 2**n.  Most calls
# are small, so the latency percentiles rest on many samples, and the
# median and the 90th percentile fall inside the n = 11 and n = 13 groups
# rather than between two groups.
ORACLE_COUNTS = ((10, 8), (11, 8), (12, 4), (13, 4), (14, 1))
ORACLE_LIMITS = (12, 13, 14)
ORACLE_FLOATS = ("abc", "ga", "sum_connectivity", "randic:-1/2", "float:harmonic")
ORACLE_OPS = ("cross_check", "exhaustive")
ORACLE_KINDS = ("rational", "small", "float")


def oracle_pool(seed: int) -> list[dict]:
    """Seeded wide rationals, small-range tie tables and float presets.

    The small-range tables come from a stream the seed does not touch:
    their maximizer counts range from 1 to thousands, and the engine side
    of cross_check enumerates all of them, so a seeded draw would make
    the cost of a run depend on the seed more than on the program.
    """
    rng = _rng("oracle-verify", seed, "pool")
    fixed = _rng("oracle-verify", 0, "small")
    pool = [{"kind": "rational", "values": _wide_rational_table(rng, fixed)} for _ in range(5)]
    pool += [{"kind": "small", "values": _small_range_table(fixed)} for _ in range(5)]
    pool += [{"kind": "float", "name": name} for name in ORACLE_FLOATS]
    return pool


def oracle_block(seed: int, block: int, pool: list[dict]) -> list[dict]:
    """Twenty-five oracle calls at n = 10..14 and one AZI sweep.

    Calls alternate between cross_check and exhaustive and rotate over
    the table kinds and tables; the seed orders the calls.  The sweep
    alternates between the maximum and the minimum claims, and its
    oracle limit cycles over 12..14.  Every block thus covers the same
    sizes and about the same number of chains.
    """
    rng = _rng("oracle-verify", seed, f"block{block}")
    sizes = [n for n, count in ORACLE_COUNTS for _ in range(count)]
    out = []
    for i, n in enumerate(sizes):
        kind = ORACLE_KINDS[(block + i) % len(ORACLE_KINDS)]
        choices = [j for j, spec in enumerate(pool) if spec["kind"] == kind]
        # tables of a kind rotate over the blocks and the sizes
        table = choices[(block * len(sizes) + i) // len(ORACLE_KINDS) % len(choices)]
        out.append({"op": ORACLE_OPS[(block + i) % 2], "table": table, "n": n})
    op = ("verify_azi_maximum", "verify_azi_minimum")[block % 2]
    out.append({"op": op, "n": ORACLE_LIMITS[block % len(ORACLE_LIMITS)]})
    rng.shuffle(out)
    return out


def oracle_chains(req: dict) -> int:
    """Chains the request's exhaustive sweeps must cover: 2**(n-2) per sweep."""
    n = req["n"]
    if req["op"] == "verify_azi_maximum":
        return sum(2 ** (k - 2) for k in range(5, n + 1))
    if req["op"] == "verify_azi_minimum":
        return sum(2 ** (k - 2) for k in range(3, n + 1))
    return 2 ** (n - 2)
