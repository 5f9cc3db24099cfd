"""Workload process of the benchmark: one closed-loop client, one thread.

Started by run.py, which passes --t0, its monotonic clock reading taken just
before starting this process, so set-up time covers the interpreter, numpy,
the package import and the input generation. Each op is sent only after the
previous one returns. The process prints one JSON object on its last stdout
line and nothing else on stdout.

Untraced (--trace 0) it runs whole rounds until --seconds of wall time have
passed since the first op. Traced (--trace 1) it runs a number of rounds
fixed by --seconds, so that its counters repeat exactly for one seed: each
round once untraced and once, on fresh objects drawn from the same seed,
traced. The two copies must give identical outputs, and the ratio of their
op times is the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import incentive_games  # noqa: E402

if Path(incentive_games.__file__).resolve().parent != ROOT / "src" / "incentive_games":
    sys.exit(f"error: imported incentive_games from {incentive_games.__file__}, not from {ROOT / 'src'}")

from tracer import MODULES, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# An op or check still running after this long is stopped and counts as a
# failed op. The slowest op that completes today takes about 1 s on a 2-core
# host; some g3 inputs never return (the simplex cycles).
OP_LIMIT_S = 5.0


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout(f"stopped after {OP_LIMIT_S:g} s")


def limited(fn, *args):
    signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


class Pass:
    """Outcomes of a sequence of rounds. A record is [seconds, ok, round]."""

    def __init__(self):
        self.records: list[list] = []
        self.prints: list[object] = []
        self.wrong: list[str] = []
        self.failures: dict[str, int] = {}
        self.rounds = 0

    def run_round(self, ops, tracer=None) -> None:
        """Time each op, then check every output outside the timed region."""
        gc.collect()
        results = []
        for op in ops:
            if tracer:
                tracer.enabled = True
            start = time.perf_counter()
            try:
                out, error = limited(op.call), None
            except Exception as exc:  # a raising op is a failed op, not a crash
                out, error = None, type(exc).__name__
            elapsed = time.perf_counter() - start
            if tracer:
                tracer.enabled = False
            results.append((op, elapsed, out, error))
        for op, elapsed, out, error in results:
            if error is None:
                try:
                    problem = limited(op.check, out)
                except AssertionError as exc:   # EquilibriumReport.check
                    problem = f"check failed: {exc}"
                except OpTimeout:
                    problem, error = None, "OpTimeout in check"
                if problem is not None:
                    self.wrong.append(f"{op.label}: {problem}")
                    error = "wrong output"
            if error is not None:
                self.failures[error] = self.failures.get(error, 0) + 1
            self.records.append([elapsed, error is None, self.rounds])
            self.prints.append(error if out is None else op.fingerprint(out))
        self.rounds += 1


def untraced(workload, seconds: float, t0: float, setup_only: bool) -> dict:
    ops = workload.next_round()
    setup_s = time.monotonic() - t0
    if setup_only:
        return {"setup_s": setup_s}
    run = Pass()
    start = time.monotonic()
    while True:
        run.run_round(ops)
        if time.monotonic() - start >= seconds:
            break
        ops = workload.next_round()
    return {"setup_s": setup_s, "records": run.records, "wrong": run.wrong, "failures": run.failures}


def traced(name: str, seed: int, seconds: float) -> dict:
    """Run each round untraced and, on fresh copies of its inputs, traced;
    report per-layer metrics from the traced copies."""
    cls = WORKLOADS[name]
    rounds = max(1, round(seconds / 2 / cls.round_s))
    tracer = Tracer()
    base = cls(seed)
    with tracer.installed():
        tracer.enabled = True
        work = cls(seed)               # the same inputs as fresh objects, loaded traced
        tracer.enabled = False
    plain, traced_pass = Pass(), Pass()
    for i in range(rounds):
        # Alternate which copy goes first so warm-up and drift cancel out of
        # the overhead ratio.
        for trace_this in ((False, True) if i % 2 else (True, False)):
            if trace_this:
                with tracer.installed():
                    traced_pass.run_round(work.next_round(), tracer)
            else:
                plain.run_round(base.next_round())
    wrong = plain.wrong + traced_pass.wrong
    if traced_pass.prints != plain.prints:
        diff = sum(a != b for a, b in zip(traced_pass.prints, plain.prints))
        wrong.append(f"outputs differ with tracing on: {diff} of {len(plain.prints)} ops")

    layers = tracer.layer_metrics()
    layers.update(work.counts)
    layers["trace.overhead_ratio"] = (
        sum(r[0] for r in traced_pass.records) / sum(r[0] for r in plain.records)
    )
    problems = [f"{m} is exercised by {name} but recorded no call (stale binding?)"
                for m in cls.exercised if tracer.module_calls(m) == 0]
    notes = [f"{m} is documented as idle on {name} but recorded {tracer.module_calls(m):g} calls"
             for m in cls.idle if tracer.module_calls(m)]
    ranked = sorted(MODULES, key=tracer.module_self_s, reverse=True)
    notes.append("self time by module: " + ", ".join(
        f"{m} {tracer.module_self_s(m):.3f} s" for m in ranked))
    if cls.dominant and ranked[0] != cls.dominant:
        notes.append(f"{cls.dominant} is documented as dominant on {name}, "
                     f"but {ranked[0]} has the largest self time")
    return {
        "records": plain.records,
        "wrong": wrong,
        "failures": plain.failures,
        "rounds": rounds,
        "per_layer": layers,
        "problems": problems,
        "notes": notes,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    signal.signal(signal.SIGALRM, _on_alarm)

    if args.trace:
        doc = traced(args.workload, args.seed, args.seconds)
    else:
        doc = untraced(WORKLOADS[args.workload](args.seed), args.seconds, args.t0, args.setup_only)
    doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    doc["env"] = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
