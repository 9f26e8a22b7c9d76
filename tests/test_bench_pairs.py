"""``scripts/bench_pairs.py``: alternated A/B one-workload runs, against two
stub checkouts whose ``run.py`` prints a canned result line."""

import importlib.util
import json
import pathlib

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

_STUB = '''\
import json, os, sys
args = sys.argv[1:]
side = os.path.basename(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))))
with open(os.environ["BENCH_PAIRS_LOG"], "a") as log:
    log.write(side + " " + " ".join(args) + "\\n")
runs = sum(1 for line in open(os.environ["BENCH_PAIRS_LOG"])
           if line.startswith(side + " "))
cost = {cost!r}[runs - 1]
print("a table line the script must skip")
print(json.dumps({{"correct": True, "attempted": 10, "failed": {failed},
                  "metrics": {{"ref_us_per_unit": {{"value": cost, "unit": "ref-us"}},
                              "peak_rss_mb": {{"value": 50.0, "unit": "MB"}}}}}}))
'''


def _script():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", REPO_ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _checkout(root: pathlib.Path, side: str, costs, failed=0) -> pathlib.Path:
    checkout = root / side
    (checkout / "benchmarks" / "perf").mkdir(parents=True)
    (checkout / "benchmarks" / "perf" / "run.py").write_text(
        _STUB.format(cost=list(costs), failed=failed))
    (checkout / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 3,
        "end_to_end": [{"name": "ref_us_per_unit", "better": "lower"},
                       {"name": "peak_rss_mb", "better": "lower"}]}))
    return checkout


def test_pairs_alternate_and_the_summary_counts_b_wins(tmp_path, monkeypatch, capsys):
    log = tmp_path / "calls.log"
    monkeypatch.setenv("BENCH_PAIRS_LOG", str(log))
    a = _checkout(tmp_path, "A", [10.0, 12.0, 11.0])
    b = _checkout(tmp_path, "B", [9.0, 12.5, 8.0])
    status = _script().main([str(a), str(b), "--workload", "serve_hot",
                             "--pairs", "3", "--seed", "11"])
    assert status == 0
    calls = log.read_text().splitlines()
    assert [call.split()[0] for call in calls] == ["A", "B", "B", "A", "A", "B"]
    assert calls[0].split()[1:] == ["--workload", "serve_hot", "--seed", "11",
                                    "--seconds", "3", "--trace", "0"]
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("pair 1 A: failed=0 ref_us_per_unit=10.0000")
    rows = {line.split()[0]: line.split() for line in out[-2:]}
    # Medians 11.0 vs 9.0; B was cheaper in pairs 1 and 3, dearer in 2.
    assert rows["ref_us_per_unit"][1:4] == ["11.0000", "9.0000", "0.818"]
    assert rows["ref_us_per_unit"][-2:] == ["2/3", "pairs"]
    assert rows["peak_rss_mb"][-2:] == ["0/3", "pairs"]  # ties are no win


def test_a_failed_operation_makes_the_exit_code_one(tmp_path, monkeypatch):
    monkeypatch.setenv("BENCH_PAIRS_LOG", str(tmp_path / "calls.log"))
    a = _checkout(tmp_path, "A", [10.0])
    b = _checkout(tmp_path, "B", [9.0], failed=1)
    assert _script().main([str(a), str(b), "--workload", "serve_hot",
                           "--pairs", "1", "--seed", "11"]) == 1


def test_per_pair_ratios_cancel_a_drift_the_medians_keep(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("BENCH_PAIRS_LOG", str(tmp_path / "calls.log"))
    # B is 0.9x A within pairs 1 and 3; the machine ran 3x slower from
    # pair 2's first run (B) to pair 3's first run (A), so the medians
    # read B/A 2.7 while the median pair reads 0.9.
    a = _checkout(tmp_path, "A", [10.0, 10.0, 30.0])
    b = _checkout(tmp_path, "B", [9.0, 27.0, 27.0])
    assert _script().main([str(a), str(b), "--workload", "kg_refresh",
                           "--pairs", "3", "--seed", "7"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-3].split()[6:11] == ["pair", "B/A", "median", "min", "max"]
    rows = {line.split()[0]: line.split() for line in out[-2:]}
    # A median, B median, B/A, then the pair ratios 0.9, 2.7, 0.9.
    assert rows["ref_us_per_unit"][1:7] == [
        "10.0000", "27.0000", "2.700", "0.900", "0.900", "2.700"]
    assert rows["ref_us_per_unit"][-2:] == ["2/3", "pairs"]
    assert rows["peak_rss_mb"][3:7] == ["1.000"] * 4


_TRACED_STUB = '''\
import json, os, sys
args = sys.argv[1:]
side = os.path.basename(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))))
with open(os.environ["BENCH_PAIRS_LOG"], "a") as log:
    log.write(side + " " + " ".join(args) + "\\n")
runs = sum(1 for line in open(os.environ["BENCH_PAIRS_LOG"])
           if line.startswith(side + " "))
cost, calls, share = {rows!r}[runs - 1]
print(json.dumps({{"correct": True, "attempted": 10, "failed": 0, "metrics": {{
    "core.kg.extend.self_ref_us_per_unit": {{"value": cost, "unit": "ref-us/unit"}},
    "core.kg.extend.calls_per_unit": {{"value": calls, "unit": "1/unit"}},
    "serving.cache.fetch.self_ref_us_per_unit": {{"value": 0.0, "unit": "ref-us/unit"}},
    "serving.cache.hit_rate": {{"value": share, "unit": "share"}}}}}}))
'''


def _traced_checkout(root: pathlib.Path, side: str, rows) -> pathlib.Path:
    checkout = root / side
    (checkout / "benchmarks" / "perf").mkdir(parents=True)
    (checkout / "benchmarks" / "perf" / "run.py").write_text(
        _TRACED_STUB.format(rows=list(rows)))
    (checkout / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 3,
        "end_to_end": [{"name": "ref_us_per_unit", "better": "lower"}],
        "per_layer": [
            {"name": "core.kg.extend.self_ref_us_per_unit", "better": "lower"},
            {"name": "core.kg.extend.calls_per_unit", "better": "lower"},
            {"name": "serving.cache.fetch.self_ref_us_per_unit", "better": "lower"},
            {"name": "serving.cache.hit_rate", "better": "higher"}]}))
    return checkout


def test_traced_pairs_summarise_the_nonzero_per_layer_metrics(tmp_path, monkeypatch,
                                                              capsys):
    log = tmp_path / "calls.log"
    monkeypatch.setenv("BENCH_PAIRS_LOG", str(log))
    a = _traced_checkout(tmp_path, "A", [(6.0, 2.0, 0.5), (6.4, 2.0, 0.5)])
    b = _traced_checkout(tmp_path, "B", [(5.0, 2.0, 0.6), (5.6, 2.0, 0.4)])
    assert _script().main([str(a), str(b), "--workload", "kg_refresh",
                           "--pairs", "2", "--seed", "7", "--trace", "1"]) == 0
    calls = log.read_text().splitlines()
    assert [call.split()[0] for call in calls] == ["A", "B", "B", "A"]
    assert all(call.split()[-2:] == ["--trace", "1"] for call in calls)
    out = capsys.readouterr().out.splitlines()
    # A run's line lists what it measured; the layer that read 0 is left out.
    assert out[0] == ("pair 1 A: failed=0 core.kg.extend.self_ref_us_per_unit=6.0000"
                      "  core.kg.extend.calls_per_unit=2.0000"
                      "  serving.cache.hit_rate=0.5000")
    assert out[-4].split()[0] == "metric"
    rows = {line.split()[0]: line.split() for line in out[-3:]}
    assert list(rows) == ["core.kg.extend.self_ref_us_per_unit",
                          "core.kg.extend.calls_per_unit", "serving.cache.hit_rate"]
    # Medians 6.2 vs 5.3, pair ratios 5.0/6.0 and 5.6/6.4; lower is better.
    assert rows["core.kg.extend.self_ref_us_per_unit"][1:7] == [
        "6.2000", "5.3000", "0.855", "0.854", "0.833", "0.875"]
    assert rows["core.kg.extend.self_ref_us_per_unit"][-2:] == ["2/2", "pairs"]
    assert rows["core.kg.extend.calls_per_unit"][-2:] == ["0/2", "pairs"]
    # A higher hit rate is better: B won pair 1 (0.6) and lost pair 2 (0.4).
    assert rows["serving.cache.hit_rate"][-2:] == ["1/2", "pairs"]
