"""Seeded, layered benchmark of the polychain engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout; the program is imported from ``src``.
Every workload runs in fresh child interpreters (perfbench/worker.py),
so set-up time includes the import and the peak RSS belongs to that
workload alone.

``--trace 0`` measures the end-to-end metrics: set-up time (median of
several fresh interpreters), work per second of request time, p50 and
p90 request latency, and peak RSS.  Times are scaled to reference speed
(see worker.py) and printed raw beside it.  ``--trace 1`` runs the same
blocks once untraced and once traced and reports the per-layer metrics
of the traced pass with the tracing overhead.  ``--workload all`` prints
both for every workload as a table.  The last line of standard output
is always one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("extremal-large", "ties-cli", "oracle-verify")

# Each request runs once per round, each round in a fresh child.  Its
# latency is the median of its rounds, each scaled to reference speed by
# the worker (see worker.py), which takes out the host's drift.
ROUNDS = 3
SETUP_PROBES = 4            # set-up-only children, besides the rounds' own set-ups
CHILD_TIMEOUT_S = 120
# What one unit of work_per_s counts, per workload.
WORK_UNITS = {"extremal-large": "squares", "ties-cli": "requests", "oracle-verify": "chains"}
# Blocks per round per second of --seconds.  At the baseline commit
# (Python 3.11.7, 2 shared cores) a block takes 1.2-2 s on extremal-large,
# 0.35-0.6 s on ties-cli and 3-4.5 s on oracle-verify, so at 30 s a round
# takes about 6-13 s.  The work of a run is fixed by its arguments and is
# the same on every commit; a faster program finishes it sooner.
BLOCKS_PER_SECOND = {"extremal-large": 6 / 30, "ties-cli": 16 / 30, "oracle-verify": 3 / 30}


def blocks_for(workload: str, seconds: float) -> str:
    return str(max(1, round(seconds * BLOCKS_PER_SECOND[workload])))


def child(workload: str, seed: int, *extra: str) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with {proc.returncode}: {' '.join(cmd[1:])}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated as statistics.quantiles does."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def setup_probes(workload: str, seed: int, count: int) -> list[dict]:
    return [child(workload, seed, "--setup-only") for _ in range(count)]


def summary(runs: list[dict]) -> dict:
    """Combine passes over the same requests: median latency per request;
    a request does its work only if it succeeded in every pass."""
    ok = [all(flags) for flags in zip(*(r["ok"] for r in runs))]
    reasons = {}
    for r in runs:
        for reason, count in r["reasons"]:
            reasons[reason] = reasons.get(reason, 0) + count
    return {
        "blocks": runs[0]["blocks"],
        "requests": len(ok),
        "attempts": len(ok) * len(runs),
        "failed": sum(not flag for r in runs for flag in r["ok"]),
        "wrong": sum(r["wrong"] for r in runs),
        "reasons": sorted(reasons.items(), key=lambda kv: -kv[1])[:5],
        "latencies_ms": [statistics.median(v) for v in zip(*(r["latencies_ms"] for r in runs))],
        "raw_latencies_ms": [statistics.median(v) for v in zip(*(r["raw_latencies_ms"] for r in runs))],
        "work": sum(w for w, good in zip(runs[0]["work"], ok) if good),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
    }


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    blocks = blocks_for(workload, seconds)
    setup_probes(workload, seed, 1)  # warm-up: byte-compiles a fresh checkout
    setups, runs = [], []
    for r in range(ROUNDS):
        runs.append(child(workload, seed, "--blocks", blocks))
        setups.append(runs[-1])
        if r < ROUNDS - 1:  # set-up samples between the rounds see the same host
            setups += setup_probes(workload, seed, SETUP_PROBES // (ROUNDS - 1))
    res = summary(runs)
    lat = res["latencies_ms"]
    res["busy_s"] = sum(lat) / 1e3
    raw = res["raw_latencies_ms"]
    res["raw"] = {
        "setup_s": statistics.median(s["raw_setup_s"] for s in setups),
        "work_per_s": res["work"] / sum(raw) * 1e3,
        "query_p50_ms": quantile(raw, 50),
        "query_p90_ms": quantile(raw, 90),
    }
    metrics = {
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s", len(setups)),
        "work_per_s": (res["work"] / res["busy_s"], "1/s", res["requests"]),
        "query_p50_ms": (quantile(lat, 50), "ms", len(lat)),
        "query_p90_ms": (quantile(lat, 90), "ms", len(lat)),
        "peak_rss_mb": (res["peak_rss_mb"], "MB", ROUNDS),
        "failed_frac": (res["failed"] / res["attempts"], "ratio", res["attempts"]),
    }
    return metrics, res


def per_layer(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    blocks = blocks_for(workload, seconds)
    plain = [child(workload, seed, "--blocks", blocks)]
    traced = [child(workload, seed, "--blocks", blocks, "--trace", "spans")]
    # tracemalloc slows run_dp several times over: its peak comes from a
    # separate one-block run, so that it does not distort the self times.
    memory = child(workload, seed, "--blocks", "1", "--trace", "memory")
    layers = traced[0]["layers"]  # raw times: no scaling to reference speed
    layers["dp.run_dp.peak_mb"] = memory["layers"]["dp.run_dp.peak_mb"]
    plain, res = summary(plain), summary(traced)
    res["busy_s"] = sum(res["latencies_ms"]) / 1e3
    metrics = {name: (value, unit, res["requests"]) for name, (value, unit) in layers.items()}
    plain_rate = plain["work"] / sum(plain["latencies_ms"])
    traced_rate = res["work"] / sum(res["latencies_ms"])
    metrics["trace.overhead_frac"] = (plain_rate / traced_rate - 1, "ratio", res["requests"])
    return metrics, res


def show(workload: str, metrics: dict, res: dict) -> None:
    print(f"== {workload}: {res['requests']} requests in {res['blocks']} blocks, "
          f"{res['attempts']} attempts, {res['failed']} failed ({res['wrong']} wrong answers), "
          f"{res['busy_s']:.2f} s of request time at reference speed")
    for reason, count in res["reasons"]:
        print(f"   failed x{count}: {reason}")
    for name, (value, unit, samples) in metrics.items():
        if name == "work_per_s":
            unit = f"{WORK_UNITS[workload]}/s"
        raw = res.get("raw", {}).get(name)
        raw = f"  (raw {raw:.6g})" if raw is not None else ""
        print(f"   {name:40s} {value:14.6g} {unit:12s} n={samples}{raw}")


def main() -> int:
    parser = argparse.ArgumentParser(description="polychain benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "polychain" / "__init__.py").is_file():
        print(f"error: no polychain sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.workload == "all":
        for workload in WORKLOADS:
            for measure in (lambda: end_to_end(workload, args.seed, args.seconds),
                            lambda: per_layer(workload, args.seed, args.seconds)):
                metrics, res = measure()
                show(workload, metrics, res)
        return 0

    if args.trace:
        metrics, res = per_layer(args.workload, args.seed, args.seconds)
    else:
        metrics, res = end_to_end(args.workload, args.seed, args.seconds)
    show(args.workload, metrics, res)
    # failed_frac stays out of the metrics: it is 0 on two workloads, and
    # the attempted/failed fields carry it.
    metrics.pop("failed_frac", None)
    print(json.dumps({
        "correct": res["wrong"] == 0,
        "attempted": res["attempts"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
