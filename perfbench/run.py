"""Benchmark of tropsplit, end to end and per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

The library is imported from ``src/`` of the checkout.  All load comes from
this one process and thread, as a closed loop with a single caller.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  See README.md in
this directory for the workloads and metrics.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_ROUNDS = 5
TRACE_DIR = HERE / "out"


def set_up(workload_cls, seed: int, gauge):
    """Import the library and build the workload SETUP_ROUNDS times, each time
    dropping the previous round's ``tropsplit`` modules; returns the last
    round's library and workload and the median round time, raw and scaled
    by the speed gauge.

    The standard-library and third-party modules that ``tropsplit`` pulls in
    stay loaded after the first round: importing them again leaks memory
    (``click`` leaves state in modules loaded before it), which would show in
    ``peak_rss_mb``.
    """
    raw, scaled = [], []
    gauge.sample()
    for _ in range(SETUP_ROUNDS):
        # Free the previous round's library and workload before the next is
        # built, so that peak memory counts one copy of them.
        lib = workload = None
        for name in [n for n in sys.modules if n.split(".")[0] == "tropsplit"]:
            del sys.modules[name]
        gc.collect()
        start = time.perf_counter()
        lib = workloads.import_library()
        workload = workload_cls(lib, seed)
        end = time.perf_counter()
        gauge.sample()
        raw.append(end - start)
        scaled.append((end - start) * gauge.scale(start, end))
    origin = Path(lib["tropsplit"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"tropsplit was imported from {origin}, not from {SRC}")
    return lib, workload, statistics.median(raw), statistics.median(scaled)


class Run:
    """Passes over one workload's op list, with results checked after each
    pass and failures counted by kind.  Op latencies and pass times are
    kept raw and scaled by the speed gauge; a pass time is the sum of its
    op latencies, so gauge samples taken between ops do not count."""

    def __init__(self, workload, gauge):
        self.workload = workload
        self.gauge = gauge
        self.latencies: list[float] = []  # scaled, untraced ops
        self.raw_latencies: list[float] = []
        self.pass_times = {False: [], True: []}  # traced -> scaled pass times
        self.raw_pass_times = {False: [], True: []}
        self.cycle_times = {False: [], True: []}  # raw wall time, checks included
        self.digests: set[str] = set()
        self.verdicts: dict[tuple, str | None] = {}  # (label, output digest) -> problem
        self.failures: Counter = Counter()
        self.attempted = 0
        self.failed = 0

    def one_pass(self, tracer=None) -> None:
        traced = tracer is not None
        gc.collect()
        results, spans = [], []
        clock = time.perf_counter
        cycle_start = clock()
        for op_id, (label, op) in enumerate(self.workload.ops()):
            self.gauge.sample_if_due()
            if traced:
                tracer.op = op_id
            start = clock()
            try:
                results.append((label, op()))
            except Exception as exc:  # a crash is a failed op, never a slow one
                results.append((label, exc))
            spans.append((start, clock()))
            if traced:
                tracer.op = None
        self.gauge.sample()
        raw = [end - start for start, end in spans]
        scaled = [t * self.gauge.scale(*span) for t, span in zip(raw, spans)]
        if not traced:
            self.raw_latencies += raw
            self.latencies += scaled
        self.raw_pass_times[traced].append(sum(raw))
        self.pass_times[traced].append(sum(scaled))
        digest = hashlib.sha256()
        for label, result in results:
            self.attempted += 1
            if isinstance(result, Exception):
                kind = type(result).__name__
                if kind not in self.failures:
                    traceback.print_exception(result, file=sys.stderr)
                self.failed += 1
                self.failures[kind] += 1
                continue
            data = self.workload.output(label, result)
            digest.update(data)
            key = (label, hashlib.sha256(data).digest())
            if key not in self.verdicts:
                self.verdicts[key] = self.workload.check(label, result)
            problem = self.verdicts[key]
            if problem is not None:
                self.failed += 1
                self.failures[problem] += 1
        self.digests.add(digest.hexdigest())
        self.cycle_times[traced].append(clock() - cycle_start)

    def next_fits(self, traced: bool, deadline: float) -> bool:
        cycles = self.cycle_times[traced] or self.cycle_times[not traced]
        return time.perf_counter() + statistics.median(cycles) <= deadline


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(setup_s: float, latencies: list, pass_times: list) -> dict:
    ms = [x * 1000 for x in latencies]
    return {
        "setup_s": (setup_s, "s"),
        "pass_s": (statistics.median(pass_times), "s"),
        "op_ms.p50": (statistics.median(ms), "ms"),
        "op_ms.p90": (percentile(ms, 0.9), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tropsplit" / "__init__.py").is_file():
        print(f"error: no tropsplit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    gauge = speed.Gauge()
    lib, workload, raw_setup_s, setup_s = set_up(
        workloads.WORKLOADS[args.workload], args.seed, gauge)
    run = Run(workload, gauge)
    deadline = time.perf_counter() + args.seconds

    if args.trace:
        tracer = tracing.Tracer(lib)
        traced = False
        while True:
            if traced:
                tracer.install()
                try:
                    run.one_pass(tracer)
                finally:
                    tracer.uninstall()
            else:
                run.one_pass()
            traced = not traced
            if run.pass_times[True] and not run.next_fits(traced, deadline):
                break
        passes = len(run.pass_times[True])
        untraced = statistics.median(run.pass_times[False])
        overhead = statistics.median(run.pass_times[True]) - untraced
        scale = sum(run.pass_times[True]) / sum(run.raw_pass_times[True])
        metrics = tracing.layer_metrics(tracer, passes, scale)
        metrics["trace.overhead_s"] = (overhead, "s")
        metrics["trace.overhead_share"] = (overhead / untraced, "ratio")
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.write(TRACE_DIR / f"spans-{args.workload}-seed{args.seed}.tsv.gz")
    else:
        while True:
            run.one_pass()
            if not run.next_fits(False, deadline):
                break
        metrics = end_to_end(setup_s, run.latencies, run.pass_times[False])
        raw = end_to_end(raw_setup_s, run.raw_latencies, run.raw_pass_times[False])

    problems = run.failures + workload.setup_problems
    same_bytes = len(run.digests) == 1
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": {"untraced": len(run.pass_times[False]), "traced": len(run.pass_times[True])},
        "op_samples": len(run.latencies),
        "spans": len(tracer.spans) if args.trace else 0,
        "failures": dict(problems),
        "report_digest": sorted(run.digests),
        "raw": {k: v for k, (v, _) in raw.items()} if not args.trace else {},
        "raw_pass_s": [round(t, 4) for t in run.raw_pass_times[False]],
        "gauge_samples": len(gauge.starts),
        "wall_s": time.perf_counter() - PROCESS_START,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }
    print(json.dumps(summary, sort_keys=True))
    print(json.dumps({
        "correct": not problems and same_bytes,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
