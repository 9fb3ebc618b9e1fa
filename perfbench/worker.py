"""One workload in one fresh interpreter: set up, run the closed loop, check.

    python3 perfbench/worker.py --workload NAME --seed N [--blocks B]
                                [--trace spans|memory] [--setup-only]

Set-up time runs from before ``import polychain`` to the last index
object (and, for ties-cli, the last index file) being built.  The loop
has one client: each request starts when the previous one has returned
and been checked.  Only the call itself is timed; the check runs after
the clock stops.  The result, with one latency, outcome and amount of
work per request, is one JSON object on the last line of standard output.

A shared host's speed drifts by up to 1.6x over minutes.  Between
requests, about every PROBE_EVERY_S seconds, the worker times a fixed
pure-Python loop (`reference`) that does not touch the program.  Every
time it reports is scaled to a host on which that loop takes
REF_NOMINAL_S: a latency measured while the loop took 1.2 times that is
divided by 1.2.  A change to the program moves its own times and not
the loop's, so the scaled times still show it; the raw times are
reported next to them.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
# Address-space cap for this process: a table whose tie counts explode
# fails its request with MemoryError instead of exhausting the host.
ADDRESS_SPACE_LIMIT = 2 * 2**30
# The reference loop's usual time on the baseline host (Python 3.11.7,
# 2 shared cores), and how often it is timed between requests.
REF_NOMINAL_S = 0.015
PROBE_EVERY_S = 0.2


def reference(iters: int = 60_000) -> float:
    """Seconds taken by a fixed loop of integer compares, adds and list and
    dict stores, the operations the DP kernel spends its time on."""
    t = perf_counter()
    a, b, out, seen = 1 << 70, 3 << 69, [], {}
    for i in range(iters):
        d = a - b
        if d > i:
            a, b = b + i, a
        else:
            a, b = a + 7, b + d % 5
        out.append(a & 255)
        seen[i & 1023] = b
    return perf_counter() - t


def scales(probes: list[float]) -> list[float]:
    """Scale factor for each interval between consecutive probes: the
    nominal time of the reference loop over the mean of the two probes."""
    return [2 * REF_NOMINAL_S / (a + b) for a, b in zip(probes, probes[1:])]


def _build(pc, spec: dict, label: str):
    """IndexFunction for a pool spec."""
    if spec["kind"] in ("rational", "small"):
        return pc.IndexFunction(label, {tuple(map(int, k.split(","))): Fraction(v)
                                        for k, v in spec["values"].items()})
    name = spec["name"]
    if name.startswith("float:"):
        return pc.force_float(pc.preset(name[6:]))
    if ":" in name:
        name, _, gamma = name.partition(":")
        return pc.preset(name, Fraction(gamma))
    return pc.preset(name)


class Extremal:
    """maximize/minimize at n in 10**4..10**6: the DP forward pass and witness."""

    def __init__(self, pc, seed: int, workdir: Path, tracer):
        self.pc, self.seed = pc, seed
        self.pool = workloads.extremal_pool(seed)
        self.tables = [_build(pc, spec, f"rand{i}") for i, spec in enumerate(self.pool)]
        self.azi_values = pc.preset("azi").values
        self.scorers = {}

    def block(self, b: int) -> list[dict]:
        return workloads.extremal_block(b, self.pool)

    def call(self, req):
        search = self.pc.maximize if req["op"] == "max" else self.pc.minimize
        return search(self.tables[req["table"]], req["n"], req["end"])

    def check(self, req, res) -> str | None:
        f = self.tables[req["table"]]
        if req["table"] not in self.scorers:
            self.scorers[req["table"]] = checks.Scorer(f, self.pc.evaluate_direct)
        is_azi = f.mode == "rational" and f.values == self.azi_values
        azi_max = self.pc.azi_max_closed_form if is_azi else None
        return checks.check_extremal(res, req["op"], req["n"], req["end"],
                                     self.scorers[req["table"]], azi_max)

    @staticmethod
    def work(req) -> int:
        return req["n"]


class TiesCli:
    """CLI invocations in-process on tie-heavy and tie-free tables."""

    def __init__(self, pc, seed: int, workdir: Path, tracer):
        self.pc, self.seed, self.tracer = pc, seed, tracer
        self.paths, self.expect = {}, {}
        workdir.mkdir(parents=True, exist_ok=True)
        for name, (doc, planted) in workloads.ties_files(seed).items():
            path = workdir / f"{name}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            self.paths[name] = str(path)
            f = pc.load_custom_index(doc)
            scorer = checks.Scorer(f, pc.evaluate_direct)
            if name == "const":
                self.expect[name] = checks.Expect("const", scorer, c=f.values[(2, 2)])
            elif planted is not None:
                self.expect[name] = checks.Expect("planted", scorer, *map(Fraction, planted))
            else:
                self.expect[name] = checks.Expect("free", scorer)
        for name in ("azi",) + workloads.TIES_TIE_FREE_PRESETS:
            scorer = checks.Scorer(pc.preset(name), pc.evaluate_direct)
            self.expect[name] = checks.Expect("azi" if name == "azi" else "free", scorer)

    def block(self, b: int) -> list[dict]:
        return workloads.ties_block(self.seed, b)

    def _argv(self, req) -> list[str]:
        argv = []
        for a in req["argv"]:
            argv += ["--index-file", self.paths[a[1:]]] if a.startswith("@") else [a]
        return argv

    def call(self, req):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.pc.cli.main(self._argv(req))
            except SystemExit as exc:  # argparse refusal
                code = exc.code
        text = out.getvalue()
        if self.tracer is not None:
            self.tracer.counts["cli.main.output_bytes"] += len(text.encode())
        if code != 0:
            raise RuntimeError(f"exit {code}: {err.getvalue().strip()}")
        return text

    def check(self, req, text) -> str | None:
        argv = req["argv"]
        table = next(a[1:] for a in argv if a.startswith("@")) if "--index" not in argv \
            else argv[argv.index("--index") + 1]
        azi_max = self.pc.azi_max_closed_form
        if argv[0] == "table":
            return checks.check_cli_table(argv, text, self.expect[table], azi_max)
        return checks.check_cli_extremal(argv, text, self.expect[table], azi_max)

    @staticmethod
    def work(req) -> int:
        return 1


class OracleVerify:
    """Exhaustive sweeps at n = 10..14 and the AZI verification sweeps."""

    def __init__(self, pc, seed: int, workdir: Path, tracer):
        self.pc, self.seed = pc, seed
        self.pool = workloads.oracle_pool(seed)
        self.tables = [_build(pc, spec, f"{spec['kind']}{i}") for i, spec in enumerate(self.pool)]
        self.scorers = {}

    def block(self, b: int) -> list[dict]:
        return workloads.oracle_block(self.seed, b, self.pool)

    def call(self, req):
        op, n = req["op"], req["n"]
        if op == "cross_check":
            return self.pc.cross_check(self.tables[req["table"]], n)
        if op == "exhaustive":
            return self.pc.exhaustive(self.tables[req["table"]], n)
        verify = self.pc.verify_azi_maximum if op == "verify_azi_maximum" else self.pc.verify_azi_minimum
        return verify(n, oracle_n_max=n)

    def check(self, req, out) -> str | None:
        op = req["op"]
        if op == "cross_check":
            ok, mismatches = out
            return None if ok else f"cross_check mismatches: {mismatches[:2]}"
        if op == "exhaustive":
            f = self.tables[req["table"]]
            if req["table"] not in self.scorers:
                self.scorers[req["table"]] = checks.Scorer(f, self.pc.evaluate_direct)
            count = self.pc.run_dp(f, req["n"]).labeled_count()
            return checks.check_exhaustive(out, req["n"], self.scorers[req["table"]], count)
        return None if out.ok else f"{op} failed: {out.failure}"

    @staticmethod
    def work(req) -> int:
        return workloads.oracle_chains(req)


BENCHES = {"extremal-large": Extremal, "ties-cli": TiesCli, "oracle-verify": OracleVerify}


def attempt(bench, i: int, req, tracer) -> tuple[float, str | None, bool]:
    """Time one request, then check it: (seconds, failure or None, wrong answer)."""
    if tracer is not None:
        tracer.begin(i)
    t = perf_counter()
    try:
        out, error = bench.call(req), None
    except Exception as exc:  # a failed request is counted, not fatal
        out, error = None, f"{type(exc).__name__}: {exc}"
    dt = perf_counter() - t
    if tracer is not None:
        tracer.end()
    if error is not None:
        return dt, error, False
    try:
        reason = bench.check(req, out)
    except Exception as exc:  # the program's output broke the check
        return dt, f"{type(exc).__name__}: {exc}", False
    if reason is not None:
        return dt, f"wrong answer: {reason}", True
    return dt, None, False


def serve(bench, blocks: int, tracer) -> dict:
    """Run the first `blocks` blocks once, one request at a time, timing
    the reference loop before the first request, after the last, and
    after any request that ends PROBE_EVERY_S or more after the last probe."""
    plan = [req for b in range(blocks) for req in bench.block(b)]
    raw, ok, interval = [], [], []
    reasons = Counter()
    wrong = 0
    probes = [reference()]
    last = perf_counter()
    for i, req in enumerate(plan):
        dt, error, is_wrong = attempt(bench, i, req, tracer)
        raw.append(dt * 1e3)
        ok.append(error is None)
        interval.append(len(probes) - 1)
        wrong += is_wrong
        if error is not None:
            reasons[error[:160]] += 1
        if perf_counter() - last >= PROBE_EVERY_S or i == len(plan) - 1:
            probes.append(reference())
            last = perf_counter()
    scale = scales(probes)
    return {
        "blocks": blocks,
        "latencies_ms": [ms * scale[k] for ms, k in zip(raw, interval)],
        "raw_latencies_ms": raw,
        "ok": ok,
        "work": [bench.work(req) for req in plan],
        "wrong": wrong,
        "reasons": reasons.most_common(5),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(BENCHES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--blocks", type=int, default=1)
    parser.add_argument("--trace", choices=("spans", "memory"),
                        help="record spans; 'memory' also runs run_dp under tracemalloc")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))

    try:
        before = reference()
        t0 = perf_counter()
        sys.path.insert(0, str(ROOT / "src"))
        import polychain
        import polychain.cli  # noqa: F401

        tracer = tracing.Tracer(memory=args.trace == "memory") if args.trace else None
        bench = BENCHES[args.workload](polychain, args.seed, workdir, tracer)
        setup_s = perf_counter() - t0
        result = {"setup_s": setup_s * scales([before, reference()])[0], "raw_setup_s": setup_s}
        if not args.setup_only:
            if tracer is not None:
                tracer.install(polychain)
            result.update(serve(bench, args.blocks, tracer))
            if tracer is not None:
                tracer.uninstall()
                result["layers"] = tracer.layer_metrics()
                OUT.mkdir(exist_ok=True)
                tracer.write(OUT / f"spans-{args.workload}-{args.seed}-{args.trace}.tsv")
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
