"""Solver benchmark for incentive_games: three workloads, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload persuasion-fresh --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each exists): persuasion-fresh,
acquisition-sweep, cli-tour. The workload runs in a child process with the
BLAS pool pinned to one thread, as one closed-loop client. With --trace 0 the
last stdout line holds the end-to-end metrics; with --trace 1 it holds the
per-layer metrics of a separate traced run. Lines before it record the
environment and the sample counts behind each percentile.

End-to-end metrics, per workload (an op is one public solver call, or one
cli.main command in cli-tour):

- ops_per_s: ops that completed and passed their output check, per second
  of timed op time. A failed op adds time and no work.
- op_ms_p50, op_ms_p90: per-op latency percentiles; a failed op counts as
  +inf, so failing fast never looks fast.
- ok_ratio: ops that completed and passed their check over ops attempted,
  that is 1 - fail ratio (a metric must never read 0).
- setup_s: from just before the workload process starts to its first timed
  op, the median of several set-ups.
- peak_rss_mb: peak resident memory of the workload process.

The package must be importable from src/ of the checkout; without it the
benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 7                 # set-ups per run behind the setup_s median
DEADLINE_S = 170.0         # the whole run must end within 180 s
PINNED = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


# ---------------------------------------------------------------------------
# accounting
# ---------------------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 1]; +inf entries sort last
    and make any percentile that reaches them +inf."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    frac = pos - lo
    if frac == 0.0 or xs[lo] == xs[hi]:
        return xs[lo]
    if math.isinf(xs[hi]):
        return math.inf
    return xs[lo] + frac * (xs[hi] - xs[lo])


def summarize(records: list[list]) -> dict:
    """records: [seconds, ok, round] per op. Failed ops add their time to
    the timed phase, no work to the throughput, and +inf to the latency
    sample."""
    timed_s = sum(r[0] for r in records)
    ok = sum(1 for r in records if r[1])
    latencies_ms = [r[0] * 1e3 if r[1] else math.inf for r in records]
    return {
        "attempted": len(records),
        "failed": len(records) - ok,
        "ops_per_s": ok / timed_s,
        "op_ms_p50": percentile(latencies_ms, 0.50),
        "op_ms_p90": percentile(latencies_ms, 0.90),
        "ok_ratio": ok / len(records),
        "timed_s": timed_s,
        "rounds": len({r[2] for r in records}),
    }


def self_check() -> None:
    """The accounting rules, checked on a fixed sample before every run."""
    ok = [[0.001 * k, True, 0] for k in range(1, 20)]        # 1..19 ms
    failure = [[1e-6, False, 0]]
    s = summarize(ok + failure)
    checks = {
        "counts": s["attempted"] == 20 and s["failed"] == 1 and s["ok_ratio"] == 19 / 20,
        "a failed op adds time, not work": math.isclose(s["ops_per_s"], 19 / (0.190 + 1e-6)),
        "failing fast never looks fast": s["op_ms_p50"] > summarize(ok)["op_ms_p50"],
        "p50 of 20 samples": math.isclose(s["op_ms_p50"], 10.5),
        "p90 of 20 samples": math.isclose(s["op_ms_p90"], 18.1),   # rank 17.1 of 0..19
        "p90 reaching a failure": summarize(ok + failure * 3)["op_ms_p90"] == math.inf,
        "one sample": percentile([3.0], 0.9) == 3.0,
    }
    for what, passed in checks.items():
        if not passed:
            raise SystemExit(f"error: accounting self-check failed: {what}")


# ---------------------------------------------------------------------------
# driving the workload process
# ---------------------------------------------------------------------------


def spawn(args, extra: list[str], timeout: float) -> dict:
    env = {**os.environ, **PINNED}
    t0 = time.monotonic()
    try:
        # On timeout, run() kills the workload process and waits for it.
        proc = subprocess.run(
            [sys.executable, str(HERE / "client.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--t0", repr(t0), *extra],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"error: workload process still running after {timeout:.0f} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: workload process exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    start = time.monotonic()

    if not (ROOT / "src" / "incentive_games" / "__init__.py").is_file():
        sys.stderr.write(f"error: no package at {ROOT / 'src' / 'incentive_games'}; "
                         "run from the root of an incentive_games checkout\n")
        return 2
    self_check()

    doc = spawn(args, [], DEADLINE_S)
    env = {
        **doc["env"],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
    }
    print(json.dumps({"env": env}))
    s = summarize(doc["records"])
    if doc["wrong"]:
        for line in doc["wrong"][:20]:
            sys.stderr.write(f"wrong output: {line}\n")

    if args.trace:
        for line in doc["problems"] + doc["notes"]:
            print(f"# {line}")
        if doc["problems"]:
            sys.stderr.write("error: traced run failed its layer checks\n")
            return 1
        values = defaultdict(float, doc["per_layer"])     # layers never called read 0
        wanted = bench["per_layer"]
        print(f"# traced {doc['rounds']} rounds ({s['attempted']} ops) untraced, then the same traced")
    else:
        setups = [doc["setup_s"]]
        for _ in range(SETUPS - 1):
            left = DEADLINE_S - (time.monotonic() - start)
            if left < 10.0:
                break
            setups.append(spawn(args, ["--setup-only"], min(30.0, left))["setup_s"])
        print(f"# ops: {s['attempted']} attempted in {s['rounds']} rounds, {s['failed']} failed "
              f"{doc['failures']}, timed {s['timed_s']:.3f} s; "
              f"p50 and p90 over {s['attempted']} samples, failed ops as +inf")
        print(f"# setup_s samples: {[round(x, 4) for x in setups]}")
        values = {**s, "setup_s": statistics.median(setups), "peak_rss_mb": doc["peak_rss_mb"]}
        wanted = bench["end_to_end"]
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({
        "correct": not doc["wrong"],
        "attempted": s["attempted"],
        "failed": s["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
