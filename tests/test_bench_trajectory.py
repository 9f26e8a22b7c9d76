"""``scripts/append_bench_row.py``: the committed wall-clock trajectory."""

import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _script(name="append_bench_row"):
    spec = importlib.util.spec_from_file_location(
        name, REPO_ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result(per_unit: float) -> dict:
    def section(metrics):
        return {"attempted": 10, "failed": 0, "repetitions": 2,
                "metrics": {name: {"value": value, "unit": "ref-us"}
                            for name, value in metrics.items()}}
    return {"seed": 7, "smoke": False, "workloads": {"serve_hot": {
        "end_to_end": section({"ref_us_per_unit": per_unit, "setup_s": 0.0}),
        "per_layer": section({"serving.router.preference.self_ref_us_per_unit":
                              per_unit / 2,
                              "serving.cluster.handle.self_ref_us_per_unit": 0.0}),
    }}}


def test_rows_append_in_sequence_with_sorted_keys_and_no_clock(tmp_path):
    script = _script()
    history = tmp_path / "BENCH_wallclock.json"
    script.append_row(history, _result(138.123456), "parent")
    first = history.read_text()
    script.append_row(history, _result(40.0), "change")
    document = json.loads(history.read_text())
    assert document["format"] == "bench-wallclock"
    assert [(run["sequence"], run["note"]) for run in document["runs"]] == [
        (0, "parent"), (1, "change")]
    row = document["runs"][0]["workloads"]["serve_hot"]
    # End-to-end metrics are all kept; per-layer zeros (layers the
    # workload never enters) are dropped; values are rounded.
    assert row["end_to_end"] == {"ref_us_per_unit": 138.1235, "setup_s": 0.0}
    assert row["per_layer"] == {
        "serving.router.preference.self_ref_us_per_unit": 69.0617}
    assert row["failed"] == 0
    # Same inputs, same bytes: nothing in a row names a time or a host.
    again = tmp_path / "again.json"
    script.append_row(again, _result(138.123456), "parent")
    assert again.read_text() == first
    assert history.read_text() == json.dumps(document, sort_keys=True,
                                             indent=1) + "\n"


def test_a_foreign_file_is_not_overwritten(tmp_path):
    history = tmp_path / "other.json"
    history.write_text('{"format": "bench-trajectory", "runs": []}')
    with pytest.raises(ValueError):
        _script().append_row(history, _result(1.0), "x")


def test_committed_trajectory_has_a_parent_and_a_change_row():
    document = json.loads((REPO_ROOT / "BENCH_wallclock.json").read_text())
    runs = document["runs"]
    assert [run["sequence"] for run in runs] == list(range(len(runs)))
    assert len(runs) >= 2
    for run in runs:
        assert all(w["failed"] == 0 for w in run["workloads"].values())


def test_claims_are_written_on_the_command_line_and_checked(tmp_path):
    result = tmp_path / "result.json"
    result.write_text(json.dumps(_result(40.0)))
    history = tmp_path / "BENCH_wallclock.json"

    def append(*claims):
        return subprocess.run(
            [sys.executable, str(REPO_ROOT / "scripts" / "append_bench_row.py"),
             str(result), "--note", "change", "--history", str(history),
             *(arg for claim in claims for arg in ("--claim", claim))],
            capture_output=True, text=True)

    assert append("serve_hot/ref_us_per_unit").returncode == 0
    assert append().returncode == 0
    runs = json.loads(history.read_text())["runs"]
    assert runs[0]["claims"] == ["serve_hot/ref_us_per_unit"]
    assert "claims" not in runs[1]
    # A workload or an end-to-end metric the result does not have is
    # refused, and nothing is appended.
    for claim in ("serve_miss/ref_us_per_unit", "serve_hot/ref_us_call_p50",
                  "serve_hot/serving.router.preference.self_ref_us_per_unit"):
        refused = append(claim)
        assert refused.returncode != 0 and "claim" in refused.stderr
    assert len(json.loads(history.read_text())["runs"]) == 2


def test_a_claimed_row_holds_later_drift_to_its_bound(tmp_path, capsys):
    spec = tmp_path / "BENCHMARK.json"
    spec.write_text(json.dumps({"end_to_end": [
        {"name": "ref_us_per_unit", "better": "lower", "bound": 0.15}]}))
    history = tmp_path / "BENCH_wallclock.json"
    script, check = _script(), _script("check_perf_baseline").check_wallclock
    script.append_row(history, _result(40.0), "claimed gain",
                      ["serve_hot/ref_us_per_unit"])
    script.append_row(history, _result(45.0), "drift, +12.5 %")
    assert check(history, spec) == 0
    script.append_row(history, _result(50.6), "drift, +12.4 %")
    # Each step is inside the 15 % bound; the two add up to 26.5 %.
    assert check(history, spec) == 1
    assert "REGRESSION" in capsys.readouterr().out
