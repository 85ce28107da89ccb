"""One workload in one fresh interpreter; ``run.py`` starts this process.

Stdout carries exactly three lines: ``ready`` once ``nbzagreb`` is
imported and the seeded inputs exist (the parent times set-up up to that
line), ``reference S`` with the wall seconds of one ``reference()`` run
right after (the parent converts set-up time to reference time with it),
then one JSON object with the measurements.  Diagnostics go to stderr.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only
    python3 perfbench/worker.py --workload NAME --seed N --describe
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Failures whose traceback or label is echoed to stderr, per run.
REPORTED_FAILURES = 5


class Tally:
    """Outcomes and costs of the operations of one phase."""

    def __init__(self):
        #: id(item) -> [seconds, reference seconds around it] of each repetition
        self.per_item: dict[int, list[list[float]]] = {}
        #: id(item) -> work units of one completed repetition
        self.work_of: dict[int, int] = {}
        #: pass index modulo the distinct passes -> ``end_pass`` repetitions
        self.per_pass: dict[int, list[list[float]]] = {}
        #: wall time of every ``reference()`` run between operations
        self.references: list[float] = []
        #: repetitions timed since the last ``reference()`` run
        self.pending: list[list[float]] = []
        self.pending_s = 0.0
        self.attempted = self.completed = self.failed = self.refused = 0
        self.malformed = self.rejected = 0
        self.work = 0
        self.busy = 0.0
        self.traced = 0.0
        self.pass_failures = 0

    def timed_step(self, reps: list, seconds: float):
        """Record one timed repetition in ``reps``; time ``reference()`` when due."""
        entry = [seconds, 0.0]
        reps.append(entry)
        self.pending.append(entry)
        self.busy += seconds
        self.pending_s += seconds
        if self.pending_s >= REFERENCE_EVERY_S:
            self.reference()

    def reference(self):
        """Run ``reference()``; the steps since its last run get the mean of both."""
        seconds = reference_s()
        mean = (self.references[-1] + seconds) / 2 if self.references else seconds
        for entry in self.pending:
            entry[1] = mean
        self.pending.clear()
        self.pending_s = 0.0
        self.references.append(seconds)

    def add(self, item, result, verdict, seconds, work):
        """Count one op; ``verdict`` is "ok", "refused" or "failed"."""
        self.attempted += 1
        self.timed_step(self.per_item.setdefault(id(item), []), seconds)
        if item.kind == "malformed":
            self.malformed += 1
            self.rejected += verdict == "ok"
        if verdict == "ok":
            self.completed += 1
            self.work += work
            self.work_of[id(item)] = work
        elif verdict == "refused":
            self.refused += 1
        else:
            self.failed += 1
            if self.failed <= REPORTED_FAILURES:
                print(f"FAILED {item.kind} {item.label}: {result!r}"[:300], file=sys.stderr)
                if isinstance(result, BaseException):
                    traceback.print_exception(result, file=sys.stderr)

    def costs(self) -> dict:
        """End-to-end figures in reference seconds (see ``reference``).

        An input's cost is the median over its repetitions of its wall time
        over that of ``reference()`` around it: the mean of the runs just
        before and just after the group of steps it was timed in.
        Throughput is one cycle of the distinct inputs, pass-level steps
        included, over the summed costs; percentiles cover the inputs that
        completed.
        """
        def cost(reps):
            return statistics.median(t / ref for t, ref in reps) * REFERENCE_S

        per_item = {key: cost(reps) for key, reps in self.per_item.items()}
        cycle = sum(per_item.values()) + sum(map(cost, self.per_pass.values()))
        done = [per_item[key] for key in self.work_of]
        value, pct, beyond = tail(done) if done else (0.0, 0.0, 0)
        return dict(
            inputs=len(done),
            repetitions=min(map(len, self.per_item.values())) if self.per_item else 0,
            cycle_s=cycle,
            work_per_s=sum(self.work_of.values()) / cycle if cycle else 0.0,
            ops_per_s=len(done) / cycle if cycle else 0.0,
            p50_s=statistics.median(done) if done else 0.0,
            tail_s=value,
            tail_pct=pct,
            tail_beyond=beyond,
        )


#: One run of ``reference()`` lasts this many reference seconds by definition.
REFERENCE_S = 1e-3
#: Operation time between two runs of ``reference()``, seconds: short
#: operations run back to back as in a caller's loop, and the host's speed
#: changes far more slowly than this.
REFERENCE_EVERY_S = 0.02
#: Runs of ``reference()`` that time the host's speed right after set-up.
SETUP_REFERENCES = 5
#: Loop rounds of ``reference()``: about 1 ms on an uncontended core of the
#: 2.0 GHz x86-64 host it was sized on.
REFERENCE_ROUNDS = 2500


def reference() -> int:
    """A fixed pure-Python computation, the yardstick of the host's speed.

    On a shared host the speed of a core can change by half within a
    second, and stay low for minutes, as other tenants come and go; the
    cost of an operation is its wall time relative to this computation run
    shortly before and after it, which moves with the host much as the
    library's own code does: dict updates, small tuples and a sort.  It runs
    with the cycle collector off, so the size of the workload's heap does
    not slow it.
    """
    counts = {}
    rows = []
    for i in range(REFERENCE_ROUNDS):
        key = (i * 7919) % 211
        counts[key] = counts.get(key, 0) + 1
        rows.append((key, i, str(i)))
    rows.sort()
    return sum(counts.values()) + len(rows)


def reference_s() -> float:
    collecting = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    reference()
    seconds = time.perf_counter() - start
    if collecting:
        gc.enable()
    return seconds


def timed(fn, arg):
    start = time.perf_counter()
    try:
        result = fn(arg)
    except Exception as exc:  # judged by the workload: a refusal or a failure
        result = exc
    return result, time.perf_counter() - start


def run_passes(workload, tally, *, budget_s=None, passes=None, tracer=None):
    """Run whole passes until op time reaches ``budget_s``, or ``passes`` of them.

    Only ``run(item)`` and the pass-level ``end_pass`` are timed; checks run
    between operations, outside the timed interval, and so does
    ``reference()``, once before the first step and then after every
    ``REFERENCE_EVERY_S`` of step time.  With a tracer, each step runs once
    to warm up, then untraced and traced, the order alternating, so that
    drift in machine speed cancels out of the overhead ratio.
    """
    index = 0
    traced_first = False
    tally.reference()

    def measure(fn, arg, op):
        nonlocal traced_first
        if tracer is None:
            return timed(fn, arg)
        tracer.op = op
        timed(fn, arg)
        runs = {}
        traced_first = not traced_first
        for traced in (traced_first, not traced_first):
            if traced:
                tracer.install()
            try:
                runs[traced] = timed(fn, arg)
            finally:
                if traced:
                    tracer.uninstall()
        tally.traced += runs[True][1]
        return runs[True][0], runs[False][1]

    while (index < passes) if passes is not None else (
            tally.busy < budget_s or index < len(workload.passes)):
        results = []
        for k, item in enumerate(workload.pass_items(index)):
            result, seconds = measure(workload.run, item, f"{index}.{k}")
            verdict = workload.check(item, result)
            work = workload.work_done(item, result) if verdict == "ok" else 0
            tally.add(item, result, verdict, seconds, work)
            if workload.collects_results:
                results.append(result)
            del result
        output, seconds = measure(workload.end_pass, results, f"{index}.end")
        tally.timed_step(tally.per_pass.setdefault(index % len(workload.passes), []), seconds)
        if not workload.check_pass(results, output):
            tally.pass_failures += 1
            print(f"FAILED pass {index} check", file=sys.stderr)
        index += 1
    tally.reference()
    return index


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond).  With ten samples or
    fewer there is no such percentile and the maximum is returned.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-file")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--describe", action="store_true")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import nbzagreb

    import_s = time.perf_counter() - start
    if Path(nbzagreb.__file__).resolve().parent != SRC / "nbzagreb":
        print(f"nbzagreb imported from {nbzagreb.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    workload = WORKLOADS[args.workload](args.seed)
    if args.describe:
        print(json.dumps(workload.describe(), indent=1))
        return 0
    gc.collect()
    print("ready", flush=True)
    runs = [reference_s() for _ in range(SETUP_REFERENCES)]
    print(f"reference {statistics.median(runs)!r}", flush=True)
    if args.setup_only:
        return 0

    result = {"unit": workload.unit}
    tally = Tally()
    if tracer is None:
        result["passes"] = run_passes(workload, tally, budget_s=args.seconds)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        from tracing import layer_metrics

        tracer.uninstall()
        # one cycle of the distinct inputs, so that every count repeats exactly
        result["passes"] = run_passes(workload, tally, passes=len(workload.passes), tracer=tracer)
        metrics = layer_metrics(tracer.spans)
        metrics["graphs.reject_ratio"] = (
            tally.rejected / tally.malformed if tally.malformed else 0.0, "ratio")
        metrics["nbzagreb.import_s"] = (import_s, "s")
        metrics["trace.overhead_ratio"] = (tally.traced / tally.busy, "ratio")
        metrics["trace.spans"] = (len(tracer.spans), "count")
        result["layers"] = metrics
        if args.trace_file:
            tracer.write(args.trace_file)
    final_ok = workload.final_check()
    if not final_ok:
        print("FAILED final check", file=sys.stderr)
    result.update(tally.costs())
    result.update(
        attempted=tally.attempted,
        failed=tally.failed,
        refused=tally.refused,
        completed=tally.completed,
        busy_s=tally.busy,
        wall_work_per_s=tally.work / tally.busy if tally.busy else 0.0,
        reference_ms=statistics.median(tally.references) * 1e3,
        correct=final_ok and tally.failed == 0 and tally.pass_failures == 0,
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
