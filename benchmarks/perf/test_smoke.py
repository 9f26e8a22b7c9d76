"""Smoke test of the perf benchmark (``--smoke``: 1/20 sizes, same paths).

Not part of tier-1 (``testpaths`` stays ``tests``); run it with
``PYTHONPATH=src python -m pytest benchmarks/perf``.  It checks what a
timing cannot go wrong on: ``BENCHMARK.json`` keeps its schema, one
command prints every declared metric with its unit, every check inside
the command passes, and the exact (count and simulated-model) metrics
are bit-identical across two runs of one seed while another seed changes
the inputs and not the shape.
"""

import json
import pathlib
import re
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
RUN = [sys.executable, str(HERE / "run.py")]
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def _is_exact(name: str) -> bool:
    """Counts and simulated-model outputs; everything timed is not."""
    return not (name.endswith(".self_ref_us_per_unit")
                or (name.startswith("bench.") and name != "bench.failed_share")
                or name == "refresh.snapshot.tracked_objects_per_edge")


def _suite(tmp_path_factory, seed: int) -> tuple[dict, str]:
    out = tmp_path_factory.mktemp("perf") / f"seed{seed}.json"
    done = subprocess.run(RUN + ["--smoke", "--seed", str(seed), "--out", str(out)],
                          capture_output=True, text=True, check=False)
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(out.read_text()), done.stdout


@pytest.fixture(scope="module")
def suites(tmp_path_factory):
    return [_suite(tmp_path_factory, seed) for seed in (1, 1, 2)]


def test_benchmark_json_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/perf"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_one_command_prints_every_declared_metric(suites):
    document, stdout = suites[0]
    assert set(document["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    for name, modes in document["workloads"].items():
        for mode in ("end_to_end", "per_layer"):
            section = modes[mode]
            assert section["failed"] == 0 and section["attempted"] >= 1, name
            assert ({m["name"]: m["unit"] for m in SPEC[mode]}
                    == {key: entry["unit"]
                        for key, entry in section["metrics"].items()})
        for entry in modes["end_to_end"]["metrics"].values():
            assert entry["value"] > 0 and entry["n"]
    for metric in SPEC["end_to_end"]:
        assert f"{metric['name']} " in stdout


def test_exact_metrics_repeat_and_follow_the_seed(suites):
    (first, _), (again, _), (other, _) = suites
    differs = False
    for name, modes in first["workloads"].items():
        for mode in ("end_to_end", "per_layer"):
            assert (modes[mode]["attempted"]
                    == again["workloads"][name][mode]["attempted"])
        exact = {key: entry["value"]
                 for key, entry in modes["per_layer"]["metrics"].items()
                 if _is_exact(key)}
        for key, value in exact.items():
            assert again["workloads"][name]["per_layer"]["metrics"][key]["value"] == value, key
        other_metrics = other["workloads"][name]["per_layer"]["metrics"]
        assert set(other_metrics) == set(modes["per_layer"]["metrics"])
        differs = differs or any(other_metrics[key]["value"] != value
                                 for key, value in exact.items())
    assert differs, "another seed must change the inputs"


def test_driver_contract_line():
    done = subprocess.run(
        RUN + ["--workload", "serve_miss", "--seed", "5", "--seconds", "0",
               "--trace", "0", "--smoke"],
        capture_output=True, text=True, check=False)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for entry in result["metrics"].values():
        assert set(entry) == {"value", "unit"} and entry["value"] > 0
