"""``scripts/check_perf_baseline.py --wallclock``: the committed
trajectory's last row against the one before, on ``BENCHMARK.json``'s
bounds."""

import importlib.util
import json
import pathlib

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _script():
    spec = importlib.util.spec_from_file_location(
        "check_perf_baseline", REPO_ROOT / "scripts" / "check_perf_baseline.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _spec(tmp_path):
    path = tmp_path / "BENCHMARK.json"
    path.write_text(json.dumps({"end_to_end": [
        {"name": "ref_us_per_unit", "better": "lower", "bound": 0.15},
        {"name": "hit_rate", "better": "higher", "bound": 0.10},
    ]}))
    return path


def _history(tmp_path, *rows, seeds=None, claims=None):
    seeds = seeds or [7] * len(rows)
    runs = [
        {"sequence": i, "note": f"row {i}", "seed": seed, "smoke": False,
         "workloads": {name: {"failed": 0, "per_layer": {},
                              "end_to_end": {"ref_us_per_unit": cost,
                                             "hit_rate": hits}}
                       for name, (cost, hits) in row.items()}}
        for i, (row, seed) in enumerate(zip(rows, seeds))]
    for i, claimed in (claims or {}).items():
        runs[i]["claims"] = claimed
    path = tmp_path / "BENCH_wallclock.json"
    path.write_text(json.dumps({"format": "bench-wallclock", "version": 1,
                                "runs": runs}))
    return path


@pytest.mark.parametrize("last, code, flagged", [
    ({"serve_hot": (40.0, 0.9), "kg_refresh": (30.0, 0.9)}, 0, []),
    ({"serve_hot": (45.9, 0.82), "kg_refresh": (48.0, 0.9)}, 0, []),   # inside
    ({"serve_hot": (46.1, 0.9), "kg_refresh": (48.0, 0.9)}, 1,
     [["serve_hot", "ref_us_per_unit"]]),
    ({"serve_hot": (40.0, 0.80), "kg_refresh": (48.0, 0.9)}, 1,
     [["serve_hot", "hit_rate"]]),                         # higher is better
    ({"serve_hot": (40.0, 0.9)}, 0, []),         # a workload not re-measured
])
def test_last_row_is_checked_against_the_one_before(tmp_path, capsys, last,
                                                    code, flagged):
    # Row 0 is far worse than row 1: only the last two rows are compared.
    history = _history(tmp_path,
                       {"serve_hot": (400.0, 0.1), "kg_refresh": (480.0, 0.1)},
                       {"serve_hot": (40.0, 0.9), "kg_refresh": (48.0, 0.9)},
                       last)
    assert _script().check_wallclock(history, _spec(tmp_path)) == code
    assert [line.split()[:2] for line in capsys.readouterr().out.splitlines()
            if "REGRESSION" in line] == flagged


def test_rows_that_cannot_be_compared_fail(tmp_path, capsys):
    script, spec = _script(), _spec(tmp_path)
    one = {"serve_hot": (40.0, 0.9)}
    assert script.check_wallclock(_history(tmp_path, one), spec) == 1
    assert script.check_wallclock(
        _history(tmp_path, one, one, seeds=[7, 11]), spec) == 1
    foreign = tmp_path / "other.json"
    foreign.write_text('{"format": "bench-trajectory", "runs": []}')
    assert script.check_wallclock(foreign, spec) == 1
    assert capsys.readouterr().out.count("FAIL") == 3


def test_the_command_line_reads_the_repo_spec(tmp_path):
    history = _history(tmp_path, {"serve_hot": (40.0, 0.9)},
                       {"serve_hot": (60.0, 0.9)})
    # BENCHMARK.json bounds ref_us_per_unit at 15 %; hit_rate is not one
    # of its end-to-end metrics, so only the cost is judged.
    row = json.loads(history.read_text())
    for run in row["runs"]:
        for workload in run["workloads"].values():
            workload["end_to_end"].update(
                ref_us_call_p50=1.0, ref_us_call_p99=1.0, peak_rss_mb=1.0,
                setup_s=1.0)
    history.write_text(json.dumps(row))
    assert _script().main(["--wallclock", str(history)]) == 1


def _flagged(capsys):
    return [line.split()[:2] for line in capsys.readouterr().out.splitlines()
            if "REGRESSION" in line]


def test_drift_past_a_claim_in_steps_inside_the_bound_fails(tmp_path, capsys):
    # +12.5 % then +12.4 %: each step is inside the 15 % bound, the two
    # together are 26.5 % past what row 0 claimed.
    rows = ({"serve_hot": (40.0, 0.9)}, {"serve_hot": (45.0, 0.9)},
            {"serve_hot": (50.6, 0.9)})
    script, spec = _script(), _spec(tmp_path)
    assert script.check_wallclock(_history(tmp_path, *rows), spec) == 0
    assert _flagged(capsys) == []
    claimed = _history(tmp_path, *rows,
                       claims={0: ["serve_hot/ref_us_per_unit"]})
    assert script.check_wallclock(claimed, spec) == 1
    out = capsys.readouterr().out
    assert [line.split()[:2] for line in out.splitlines()
            if "REGRESSION" in line] == [["serve_hot", "ref_us_per_unit"]]
    assert "vs row #0's claim" in out


@pytest.mark.parametrize("claims, seeds, code", [
    # The best claim is the floor, whichever row made it.
    ({0: ["serve_hot/ref_us_per_unit"], 1: ["serve_hot/ref_us_per_unit"]},
     None, 1),
    ({1: ["serve_hot/ref_us_per_unit"]}, None, 0),
    # A claim measured with another seed is not comparable.
    ({0: ["serve_hot/ref_us_per_unit"]}, [11, 7, 7], 0),
    # Higher is better: the claim on hit_rate holds the last row to it.
    ({0: ["serve_hot/hit_rate"]}, None, 1),
    # A claimed workload the last row did not measure is not judged.
    ({0: ["kg_refresh/ref_us_per_unit"]}, None, 0),
])
def test_the_floor_is_the_best_comparable_claim(tmp_path, capsys, claims,
                                               seeds, code):
    # Row 2 is inside every bound of row 1, not of row 0.
    history = _history(tmp_path,
                       {"serve_hot": (34.0, 0.99), "kg_refresh": (10.0, 0.9)},
                       {"serve_hot": (38.0, 0.92), "kg_refresh": (10.0, 0.9)},
                       {"serve_hot": (40.0, 0.88)},
                       seeds=seeds, claims=claims)
    assert _script().check_wallclock(history, _spec(tmp_path)) == code
    assert len(_flagged(capsys)) == code
