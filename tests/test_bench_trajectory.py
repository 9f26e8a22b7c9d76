"""``scripts/append_bench_row.py``: the committed wall-clock trajectory."""

import importlib.util
import json
import pathlib

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _script():
    spec = importlib.util.spec_from_file_location(
        "append_bench_row", REPO_ROOT / "scripts" / "append_bench_row.py")
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
