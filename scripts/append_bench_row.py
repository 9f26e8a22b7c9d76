#!/usr/bin/env python
"""Fold one wall-clock benchmark result into the committed trajectory.

``python3 benchmarks/perf/run.py --seed N --out result.json`` measures;
this appends that file to ``BENCH_wallclock.json`` at the repo root as
one row: sequence number, the caller's note, the seed, and per workload
every end-to-end metric plus the per-layer metrics that read non-zero.
No timestamps or host names, sorted keys — a row is what was measured,
not where or when — so a reader sees the curve across PRs.

A row that claims a gain names it: each ``--claim WORKLOAD/METRIC`` (an
end-to-end metric of a workload in the result) goes into the row's
``claims`` list, and ``scripts/check_perf_baseline.py`` then holds every
later row to the best value claimed.

Usage: ``python scripts/append_bench_row.py result.json --note "what changed"
[--claim serve_hot/ref_us_per_unit ...]``
"""

from __future__ import annotations

import argparse
import json
import pathlib
from typing import Sequence

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
FORMAT = "bench-wallclock"


def _values(section: dict, keep_zero: bool) -> dict:
    return {name: round(entry["value"], 4)
            for name, entry in section["metrics"].items()
            if keep_zero or entry["value"]}


def append_row(history_path: pathlib.Path, result: dict, note: str,
               claims: Sequence[str] = ()) -> dict:
    history = (json.loads(history_path.read_text()) if history_path.exists()
               else {"format": FORMAT, "version": 1, "runs": []})
    if history.get("format") != FORMAT:
        raise ValueError(f"{history_path}: not a {FORMAT} file")
    for claim in claims:
        workload, _, metric = claim.partition("/")
        if metric not in result["workloads"].get(workload, {}).get(
                "end_to_end", {}).get("metrics", {}):
            raise ValueError(f"claim {claim!r}: the result has no end-to-end "
                             f"metric {metric!r} for workload {workload!r}")
    row = {"sequence": len(history["runs"]), "note": note,
           "seed": result["seed"], "smoke": result["smoke"], "workloads": {}}
    if claims:
        row["claims"] = list(claims)
    for name, modes in result["workloads"].items():
        row["workloads"][name] = {
            "failed": sum(mode["failed"] for mode in modes.values()),
            "end_to_end": _values(modes["end_to_end"], keep_zero=True),
            "per_layer": _values(modes["per_layer"], keep_zero=False),
        }
    history["runs"].append(row)
    history_path.write_text(json.dumps(history, sort_keys=True, indent=1) + "\n")
    return row


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("result", type=pathlib.Path)
    parser.add_argument("--note", required=True)
    parser.add_argument("--claim", action="append", default=[],
                        metavar="WORKLOAD/METRIC",
                        help="an end-to-end metric this row claims a gain on "
                             "(repeatable)")
    parser.add_argument("--history", type=pathlib.Path,
                        default=REPO_ROOT / "BENCH_wallclock.json")
    args = parser.parse_args()
    row = append_row(args.history, json.loads(args.result.read_text()),
                     args.note, args.claim)
    print(f"appended row #{row['sequence']} ({len(row['workloads'])} "
          f"workload(s)) to {args.history}")
