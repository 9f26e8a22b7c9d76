#!/usr/bin/env python
"""Alternated A/B pairs of the wall-clock benchmark's one-workload form.

Runs ``benchmarks/perf/run.py --workload W --seed S --seconds T --trace M``
in two checkouts, ``A_DIR`` (the parent) and ``B_DIR`` (the change), one
run at a time and in alternating order — pair 1 runs A then B, pair 2
runs B then A, and so on — so a drift of the machine's speed during the
comparison lands on both sides.  ``T`` is ``run_seconds`` from A's
``BENCHMARK.json``.  Prints every run's end-to-end metrics, then per
metric the median of each side, B/A, and in how many pairs B was better
(the direction is the metric's ``better`` in A's ``BENCHMARK.json``),
and the median, least and greatest of the per-pair B/A ratios: a ratio
taken within one pair cancels a drift of the machine between pairs that
the ratio of the medians keeps.  ``--trace 0`` (the default) compares
the end-to-end metrics; ``--trace 1`` compares the per-layer ones (self
time and calls per unit of each layer), listing only those that read
nonzero in some run, so a change's per-layer evidence comes from
alternated pairs too.  Exits 1 when a run fails its own checks or
reports a failed operation.

Usage: ``python scripts/bench_pairs.py A_DIR B_DIR --workload W
--pairs N --seed S [--trace 0|1]``.  Uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
from statistics import median


def run_once(checkout: pathlib.Path, workload: str, seed: int,
             seconds: float, trace: int) -> dict:
    """One run in ``checkout``: its result object (the last stdout line),
    with the exit code under ``"exit"``."""
    done = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=checkout, stdout=subprocess.PIPE, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{checkout}: run.py printed nothing "
                         f"(exit {done.returncode})")
    result = json.loads(lines[-1])
    result["exit"] = done.returncode
    return result


def order(pairs: int) -> list[tuple[int, str]]:
    """``(pair, side)`` in run order: A first in odd pairs, B first in even."""
    runs = []
    for pair in range(1, pairs + 1):
        sides = ("A", "B") if pair % 2 else ("B", "A")
        runs += [(pair, side) for side in sides]
    return runs


def summarize(metrics: list[dict], results: dict[str, list[dict]]
              ) -> list[str]:
    """One line per metric of ``metrics`` (``BENCHMARK.json`` entries):
    medians, B/A, the per-pair B/A ratios' median, min and max, and the
    pairs B won."""
    width = max([18] + [len(metric["name"]) + 2 for metric in metrics])
    lines = [f"{'metric':<{width}s}{'A median':>12s}{'B median':>12s}"
             f"{'B/A':>8s}{'pair B/A median':>17s}{'min':>7s}{'max':>7s}"
             f"  B better in"]
    for metric in metrics:
        name = metric["name"]
        a = [run["metrics"][name]["value"] for run in results["A"]]
        b = [run["metrics"][name]["value"] for run in results["B"]]
        lower = metric["better"] == "lower"
        wins = sum((one < two) if lower else (one > two)
                   for two, one in zip(a, b))
        a_median, b_median = median(a), median(b)
        ratio = b_median / a_median if a_median else float("nan")
        pair_ratios = [two / one if one else float("nan")
                       for one, two in zip(a, b)]
        lines.append(f"{name:<{width}s}{a_median:>12.4f}{b_median:>12.4f}"
                     f"{ratio:>8.3f}{median(pair_ratios):>17.3f}"
                     f"{min(pair_ratios):>7.3f}{max(pair_ratios):>7.3f}"
                     f"  {wins}/{len(a)} pairs")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a_dir", type=pathlib.Path)
    parser.add_argument("b_dir", type=pathlib.Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec = json.loads((args.a_dir / "BENCHMARK.json").read_text())
    checkouts = {"A": args.a_dir, "B": args.b_dir}
    results: dict[str, list[dict]] = {"A": [], "B": []}
    bad = 0
    for pair, side in order(args.pairs):
        result = run_once(checkouts[side], args.workload, args.seed,
                          spec["run_seconds"], args.trace)
        results[side].append(result)
        values = "  ".join(f"{name}={entry['value']:.4f}"
                           for name, entry in result["metrics"].items()
                           if entry["value"] or not args.trace)
        print(f"pair {pair} {side}: failed={result['failed']} {values}",
              flush=True)
        bad += result["exit"] != 0 or result["failed"] != 0
    if args.trace:
        metrics = [metric for metric in spec["per_layer"]
                   if any(run["metrics"][metric["name"]]["value"]
                          for side in results.values() for run in side)]
    else:
        metrics = spec["end_to_end"]
    print("\n".join(summarize(metrics, results)))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
