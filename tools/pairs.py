"""Paired A/B runs of two checkouts' benchmark.

Usage, from anywhere:

    python3 tools/pairs.py PARENT CHANGE --workload paper-grid --seed 1 \
        --pairs 10 [--seconds 30]

PARENT and CHANGE are the roots of two source checkouts.  Each pair runs
each checkout's own benchmark command (``command`` in its BENCHMARK.json,
``python3 perfbench/run.py``) from its root with ``--trace 0``, one after
the other: the parent first in odd pairs, the change first in even pairs,
so neither side always runs on a warmer machine.  A run counts only if its
last output line is a JSON record with ``correct`` true and ``failed`` 0;
any other run stops the comparison with exit 1.

For every ``end_to_end`` metric of the parent's BENCHMARK.json it then
prints one line: each side's median and quartiles, the median of the
per-pair ratios change / parent, and the pairs the change won.  Whether
lower or higher wins comes from the metric's ``better``; a tie counts for
neither side.  ``--seconds`` defaults to the file's ``run_seconds``.  Only
the standard library is used, and nothing in either checkout is changed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def benchmark_file(root: Path) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text())


def run_once(root: Path, args) -> dict:
    """The metric values of one untraced run in checkout ``root``."""
    argv = [*benchmark_file(root)["command"], "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
            "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
        ok = record["correct"] is True and record["failed"] == 0
    except (IndexError, ValueError, TypeError, KeyError):
        ok = False
    if not ok:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"pairs: a run in {root} failed "
                         f"(exit {proc.returncode}): {' '.join(argv)}")
    return {name: m["value"] for name, m in record["metrics"].items()}


def quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summary(metric: dict, parent: list, change: list) -> str:
    name, better = metric["name"], metric["better"]
    ratios = [c / p for p, c in zip(parent, change) if p != 0]
    ratio = f"{statistics.median(ratios):.4f}" if ratios else "n/a"
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    sides = []
    for values in (parent, change):
        q1, q3 = quartiles(values)
        sides.append(f"{statistics.median(values):.6g} "
                     f"[{q1:.6g}, {q3:.6g}]")
    return (f"{name} {metric['unit']}: parent {sides[0]}, change {sides[1]}, "
            f"ratio {ratio}, change wins {wins}/{len(parent)} "
            f"({better} is better)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    listed = benchmark_file(args.parent)
    if args.seconds is None:
        args.seconds = listed["run_seconds"]

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    values = {"parent": [], "change": []}
    for pair in range(1, args.pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for side in order:
            metrics = run_once(sides[side], args)
            values[side].append(metrics)
            shown = " ".join(f"{k}={v:.6g}" for k, v in sorted(metrics.items()))
            print(f"pair {pair} {side}: {shown}", flush=True)
    for metric in listed["end_to_end"]:
        name = metric["name"]
        print(summary(metric, [m[name] for m in values["parent"]],
                      [m[name] for m in values["change"]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
