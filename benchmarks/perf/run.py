"""Wall-clock benchmark for the serving path and the knowledge plane.

Three ways in:

* ``run.py --workload W --seed N --seconds S --trace 0|1`` — one
  workload, one mode; the last stdout line is the result object
  ``BENCHMARK.json``'s contract describes (``--trace 0``: the end-to-end
  metrics, ``--trace 1``: the per-layer metrics).
* ``run.py --seed N [--workload W] [--smoke] [--out FILE]`` — every
  workload (or one), untraced then traced, as a table of every metric by
  name with unit and sample count; the result file is written to
  ``--out`` (default ``out/result-seed<N>.json`` beside this file).
* ``run.py --compare A.json B.json`` — one row per workload × end-to-end
  metric with both values, the ratio and its base, the bound, and a
  verdict; exits non-zero on any ``worse``.

Each measurement runs in a fresh worker process (``perf_worker.py``,
``PYTHONHASHSEED=0``), one after another — the box has two cores and the
system under test is single-threaded, so nothing else is kept busy.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
SPEC_PATH = REPO_ROOT / "BENCHMARK.json"


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def run_worker(workload: str, seed: int, seconds: float, trace: bool,
               smoke: bool) -> dict:
    """Measure one workload in a fresh interpreter; its result object."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(
        [sys.executable, str(HERE / "perf_worker.py"), workload, str(seed),
         str(seconds), str(int(trace)), str(int(smoke))],
        stdout=subprocess.PIPE, env=env, text=True, check=False)
    if done.returncode != 0:
        raise SystemExit(f"worker for {workload} exited with {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def declared_metrics(spec: dict, result: dict) -> dict:
    """The result's metrics under the names and units ``BENCHMARK.json``
    declares for its mode; a name the worker did not produce is an error."""
    declared = spec["per_layer" if result["trace"] else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in result["metrics"]]
    if missing:
        raise SystemExit(f"{result['workload']}: no value for {missing}")
    return {m["name"]: dict(result["metrics"][m["name"]], unit=m["unit"])
            for m in declared}


def contract_line(spec: dict, result: dict) -> str:
    metrics = {name: {"value": entry["value"], "unit": entry["unit"]}
               for name, entry in declared_metrics(spec, result).items()}
    return json.dumps({"correct": result["correct"],
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def print_table(result: dict, metrics: dict) -> None:
    mode = "per-layer (traced run)" if result["trace"] else "end-to-end (tracing off)"
    print(f"\n== {result['workload']} · {mode} · seed {result['seed']} · "
          f"{result['repetitions']} repetitions · unit of work: "
          f"{result['unit_of_work']} · failed {result['failed']}"
          f"/{result['attempted']}")
    for name, entry in metrics.items():
        samples = f"  [{entry['n']}]" if "n" in entry else ""
        print(f"  {name:<52s} {entry['value']:>14.4f} {entry['unit']}{samples}")


def run_suite(args, spec: dict, seconds: float) -> int:
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    document = {"seed": args.seed, "smoke": args.smoke, "workloads": {}}
    failed = 0
    for name in names:
        for trace in (False, True):
            result = run_worker(name, args.seed, seconds, trace, args.smoke)
            metrics = declared_metrics(spec, result)
            print_table(result, metrics)
            failed += result["failed"]
            entry = document["workloads"].setdefault(name, {})
            entry["per_layer" if trace else "end_to_end"] = {
                "attempted": result["attempted"], "failed": result["failed"],
                "repetitions": result["repetitions"], "metrics": metrics}
    out = pathlib.Path(args.out) if args.out else (
        HERE / "out" / f"result-seed{args.seed}{'-smoke' if args.smoke else ''}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, sort_keys=True, indent=1) + "\n")
    print(f"\nwrote {out}")
    return 1 if failed else 0


def _jackknife_share(entry: dict) -> float:
    """Two jackknife standard errors of the estimate, as a share of it —
    the repetitions' spread carried through the estimator (0 when the
    metric has no repetitions)."""
    held_out = entry.get("leave_one_out", [])
    if len(held_out) < 2 or not entry["value"]:
        return 0.0
    mean = sum(held_out) / len(held_out)
    variance = ((len(held_out) - 1) / len(held_out)
                * sum((value - mean) ** 2 for value in held_out))
    return 2.0 * math.sqrt(variance) / entry["value"]


def compare(path_a: str, path_b: str, spec: dict) -> int:
    a = json.loads(pathlib.Path(path_a).read_text())
    b = json.loads(pathlib.Path(path_b).read_text())
    print(f"A = {path_a} (seed {a['seed']})   B = {path_b} (seed {b['seed']})")
    print(f"{'workload':<20s}{'metric':<18s}{'A':>12s}{'B':>12s}"
          f"{'B/A':>8s}{'bound':>7s}{'spread':>8s}  verdict")
    worse = 0
    for name in sorted(set(a["workloads"]) & set(b["workloads"])):
        for metric in spec["end_to_end"]:
            one = a["workloads"][name]["end_to_end"]["metrics"][metric["name"]]
            two = b["workloads"][name]["end_to_end"]["metrics"][metric["name"]]
            ratio = two["value"] / one["value"]
            change = ratio - 1.0 if metric["better"] == "lower" else 1.0 - ratio
            spread = max(_jackknife_share(one), _jackknife_share(two))
            if change > metric["bound"]:
                verdict = "worse"
                worse += 1
            elif spread > metric["bound"]:
                verdict = "unresolved"
            elif change < -metric["bound"]:
                verdict = "better"
            else:
                verdict = "same"
            print(f"{name:<20s}{metric['name']:<18s}{one['value']:>12.4f}"
                  f"{two['value']:>12.4f}{ratio:>8.3f}{metric['bound']:>7.2f}"
                  f"{spread:>8.3f}  {verdict}")
    return 1 if worse else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="1/20 sizes, two repetitions, same paths and checks")
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args()
    spec = load_spec()
    if args.compare:
        return compare(*args.compare, spec)
    known = [w["name"] for w in spec["workloads"]]
    if args.workload and args.workload not in known:
        parser.error(f"--workload must be one of {known}")
    seconds = args.seconds if args.seconds is not None else (
        0.0 if args.smoke else float(spec["run_seconds"]))
    if args.trace is None:
        return run_suite(args, spec, seconds)
    if not args.workload:
        parser.error("--trace needs --workload")
    result = run_worker(args.workload, args.seed, seconds, bool(args.trace),
                        args.smoke)
    print(contract_line(spec, result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
