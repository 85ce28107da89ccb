"""nbzagreb benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  The harness is closed-loop and single-threaded: one client runs
one operation after the other.  Each workload runs in fresh child
processes (``worker.py``), one at a time:

* ``--trace 0``: ``SETUP_PROBES`` processes only import ``nbzagreb`` and
  generate the seeded inputs, then one more does that and runs whole passes
  until the operations have taken ``--seconds`` of time.  ``peak_rss_mb``
  is the measuring worker's own ``ru_maxrss``.  Every time metric is in
  reference time: wall time over that of a fixed pure-Python computation
  timed shortly before and after, one run of which counts as 1 ref-ms
  (about a wall-clock millisecond on an uncontended core; see
  ``worker.reference``).  A shared host's speed drifts too much from run to
  run for wall-clock figures to be comparable, so they are printed for
  information only.  An input's cost is the median of its repetitions.
  ``setup_s`` is the median over all the processes of the time from
  process start to the first timed operation, in reference seconds, with
  ``reference()`` timed before the start and right after set-up.
* ``--trace 1``: a fixed number of passes, each op run untraced and traced
  (see ``tracing.py``); self times per layer give the per-layer metrics and
  the time ratio of the two the tracing overhead.  Spans are written to
  ``.perfbench/trace-<workload>-s<seed>.json``.

Outputs are checked outside the timed interval.  The last stdout line is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Documented refusals (the order guard on countable inputs) are not in
``failed``; they are reported in ``error_rate`` on the summary lines.
``design.json`` records why each workload exists and what it should move.
"""

from __future__ import annotations

import argparse
import json
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import REFERENCE_S, SETUP_REFERENCES, reference_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
# the names are repeated from workloads.py, whose import would load nbzagreb into this process
WORKLOAD_NAMES = ("verify-catalog", "product-index", "counting-distance", "edge-list-io")

#: Set-up-only processes per untraced run, besides the measuring worker.
SETUP_PROBES = 2
#: Wall-clock limit of one invocation, seconds.
DEADLINE_S = 170.0


class WorkerError(RuntimeError):
    pass


def run_worker(args, deadline):
    """Start ``worker.py``; return (seconds until ``ready``, reference seconds, last stdout line).

    The reference seconds are the mean wall time of ``reference()`` timed
    here before the start and in the worker right after ``ready``.
    """
    before = statistics.median(reference_s() for _ in range(SETUP_REFERENCES))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    ready, reference, last = None, None, None
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise WorkerError(f"worker {args} passed the deadline")
                if not sel.select(remaining):
                    continue
                line = proc.stdout.readline()
                if not line:
                    break
                if ready is None and line.strip() == "ready":
                    ready = time.perf_counter() - start
                elif reference is None and line.startswith("reference "):
                    reference = (before + float(line.split()[1])) / 2
                else:
                    last = line
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or ready is None or reference is None:
        raise WorkerError(f"worker {args} exited with {proc.returncode}")
    return ready, reference, last


def end_to_end(result, setup_samples):
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "work_per_s": (result["work_per_s"], "units/ref-s"),
        "ops_per_s": (result["ops_per_s"], "1/ref-s"),
        "op_p50_ms": (result["p50_s"] * 1e3, "ref-ms"),
        "op_tail_ms": (result["tail_s"] * 1e3, "ref-ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "nbzagreb" / "__init__.py").is_file():
        print(f"no nbzagreb sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setup_wall, setup_samples = [], []
    try:
        if args.trace:
            out_dir = ROOT / ".perfbench"
            out_dir.mkdir(exist_ok=True)
            trace_file = out_dir / f"trace-{args.workload}-s{args.seed}.json"
            *_, line = run_worker([*common, "--trace", "1", "--trace-file", str(trace_file)],
                                  deadline)
        else:
            for probe in range(SETUP_PROBES + 1):
                measuring = probe == SETUP_PROBES
                flags = ["--seconds", str(args.seconds)] if measuring else ["--setup-only"]
                ready, reference, line = run_worker([*common, *flags], deadline)
                setup_wall.append(ready)
                setup_samples.append(ready * REFERENCE_S / reference)
        result = json.loads(line)
    except (WorkerError, TypeError, ValueError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 3

    attempted = result["attempted"]
    errors = result["failed"] + result["refused"]
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {attempted} ops attempted, "
          f"{result['completed']} completed, {result['failed']} failed, "
          f"{result['refused']} refused; {result['passes']} passes, "
          f"{result['busy_s']:.3f} s timed; work unit: {result['unit']}; checks {'passed' if result['correct'] else 'FAILED'}")
    if args.trace:
        metrics = result["layers"]
    else:
        metrics = end_to_end(result, setup_samples)
        print(f"  setup samples: {' '.join(f'{s:.4f}' for s in setup_samples)} reference s; "
              f"{' '.join(f'{s:.4f}' for s in setup_wall)} wall s")
        print(f"  costs are in reference time: {result['inputs']} inputs, each the median of "
              f"at least {result['repetitions']} repetitions; reference() took "
              f"{result['reference_ms']:.4f} ms of wall time (median); wall-clock "
              f"throughput {result['wall_work_per_s']:.6g} {result['unit']}/s")
        print(f"  op_tail_ms is p{result['tail_pct']:.2f} of {result['inputs']} samples, "
              f"{result['tail_beyond']} beyond it")
        print(f"  error_rate {errors / attempted:.6f} "
              f"({result['failed']} failed + {result['refused']} refused of {attempted})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": attempted,
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
