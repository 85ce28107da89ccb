"""Compare a parent and a change on the benchmark, one row per workload.

    python3 perfbench/compare.py run PARENT_DIR CHANGE_DIR --out RESULTS
    python3 perfbench/compare.py report RESULTS

``run`` executes ``perfbench/run.py`` in each of two source checkouts,
``PAIRS`` pairs for every workload on seeds ``FIRST_SEED`` onwards, the
same seed on both sides, alternating which side runs first, and stores
each run's result line as ``RESULTS/<side>/<workload>/seed-<n>.json``.
``report`` reads those files and applies the rules below, with each
metric's direction and bound taken from ``BENCHMARK.json``:

* gain: the change is better in at least nine tenths of the pairs (ties
  count for neither side) and the medians differ by more than the
  parent's interquartile range;
* void-gain: a gain, but the change failed more operations, so it does not
  count;
* regression: the change's median is worse than the parent's by more
  than the bound;
* unresolved: either side's interquartile range is wider than the bound,
  unless every change run is better than every parent run;
* same: none of these.

A workload with fewer than ``PAIRS`` seed-matched pairs gets no verdict.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SIDES = ("parent", "change")
#: Seed-matched pairs per workload; fewer give no verdict.
PAIRS = 10
FIRST_SEED = 1000


def load_benchmark() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_pairs(args) -> int:
    bench = load_benchmark()
    checkouts = {"parent": Path(args.parent_dir), "change": Path(args.change_dir)}
    out = Path(args.out)
    for workload in (w["name"] for w in bench["workloads"]):
        for i in range(PAIRS):
            seed = FIRST_SEED + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
                       "--seconds", str(bench["run_seconds"]), "--trace", "0"]
                proc = subprocess.run(cmd, cwd=checkouts[side], capture_output=True,
                                      text=True, timeout=900)
                if proc.returncode != 0:
                    print(f"{side} {workload} seed {seed} failed:\n{proc.stderr}", file=sys.stderr)
                    return 1
                target = out / side / workload / f"seed-{seed}.json"
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_text(proc.stdout.strip().splitlines()[-1] + "\n", encoding="utf-8")
                print(f"{workload} seed {seed} {side} done", flush=True)
    return 0


def verdict(metric: dict, parent: dict, change: dict, more_failures: bool):
    """Verdict for one metric over seed-matched runs; returns (verdict, detail)."""
    name, bound = metric["name"], metric["bound"]
    sign = 1 if metric["better"] == "higher" else -1
    seeds = sorted(parent.keys() & change.keys())
    p = [parent[s]["metrics"][name]["value"] for s in seeds]
    c = [change[s]["metrics"][name]["value"] for s in seeds]
    p1, pm, p3 = statistics.quantiles(p, n=4)
    c1, cm, c3 = statistics.quantiles(c, n=4)
    wins = sum(1 for a, b in zip(p, c) if sign * (b - a) > 0)
    worse_share = sign * (pm - cm) / pm
    all_better = min(sign * v for v in c) > max(sign * v for v in p)
    if wins >= 0.9 * len(seeds) and sign * (cm - pm) > p3 - p1:
        result = "void-gain" if more_failures else "gain"
    elif worse_share > bound:
        result = "regression"
    elif max((p3 - p1) / pm, (c3 - c1) / cm) > bound and not all_better:
        result = "unresolved"
    else:
        result = "same"
    detail = (f"{name:12s} parent {pm:.6g} [{p1:.6g}, {p3:.6g}]  change {cm:.6g} "
              f"[{c1:.6g}, {c3:.6g}]  change/parent {cm / pm:.4f}  "
              f"wins {wins}/{len(seeds)}  bound {bound}  -> {result}")
    return result, detail


def report(args) -> int:
    bench = load_benchmark()
    root = Path(args.results)
    metrics = bench["end_to_end"]
    print(f"{'workload':20s} {'pairs':>5s}  " + "  ".join(f"{m['name']:>12s}" for m in metrics))
    details = []
    for w in bench["workloads"]:
        runs = {}
        for side in SIDES:
            runs[side] = {
                int(f.stem.split("-", 1)[1]): json.loads(f.read_text(encoding="utf-8"))
                for f in sorted((root / side / w["name"]).glob("seed-*.json"))
            }
        seeds = runs["parent"].keys() & runs["change"].keys()
        if not seeds:
            continue
        if len(seeds) < PAIRS:
            print(f"{w['name']:20s} {len(seeds):5d}  no verdict: fewer than {PAIRS} pairs")
            continue
        failures = {side: sum(runs[side][s]["failed"] for s in seeds) for side in SIDES}
        incorrect = [side for side in SIDES if not all(runs[side][s]["correct"] for s in seeds)]
        row = []
        for m in metrics:
            result, detail = verdict(m, runs["parent"], runs["change"],
                                     failures["change"] > failures["parent"])
            row.append(result)
            details.append(f"{w['name']:20s} {detail}")
        print(f"{w['name']:20s} {len(seeds):5d}  " + "  ".join(f"{r:>12s}" for r in row)
              + (f"  INCORRECT: {', '.join(incorrect)}" if incorrect else ""))
    print()
    print("\n".join(details))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    run = sub.add_parser("run", help="run seed-matched pairs on two checkouts")
    run.add_argument("parent_dir")
    run.add_argument("change_dir")
    run.add_argument("--out", required=True)
    rep = sub.add_parser("report", help="print verdicts from stored runs")
    rep.add_argument("results")
    args = parser.parse_args(argv)
    return run_pairs(args) if args.mode == "run" else report(args)


if __name__ == "__main__":
    sys.exit(main())
