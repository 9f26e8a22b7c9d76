"""CLI: argument parsing and the KG build/inspect flow."""

import pytest

from repro.cli import build_parser, main
from repro.core.kg_io import load_kg_columnar


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_build_kg_writes_file(tmp_path, capsys):
    out = tmp_path / "kg.npz"
    code = main([
        "build-kg", "--seed", "3", "--scale", "0.12",
        "--lm-epochs", "1", "--out", str(out),
    ])
    assert code == 0
    assert out.exists()
    kg = load_kg_columnar(out)
    assert len(kg) > 0
    captured = capsys.readouterr().out
    assert "nodes" in captured and "Annotated quality" in captured


def test_inspect_kg(tmp_path, capsys):
    out = tmp_path / "kg.npz"
    main(["build-kg", "--seed", "3", "--scale", "0.12", "--lm-epochs", "1",
          "--out", str(out)])
    capsys.readouterr()
    code = main(["inspect-kg", str(out), "--sample", "2"])
    assert code == 0
    first, rest = capsys.readouterr().out.split("\n", 1)
    per_edge = out.stat().st_size / len(load_kg_columnar(out))
    assert first.startswith(f"{out}: columnar version 2, {per_edge:.1f} bytes "
                            "per edge, ")
    assert "Edges per domain" in rest


def test_generate_requires_arguments():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["generate", "--query", "x"])  # missing required


def _drive(tmp_path, tag, argv, expect_exit, **artifacts):
    """Run one CLI drive; return the bytes of each ``--out-<key>`` artifact.

    ``artifacts`` maps the flag's key (``trace`` for ``--out-trace``) to a
    file suffix; every flag is pointed at a fresh path under ``tmp_path``.
    """
    paths = {key: tmp_path / f"{key}-{tag}{suffix}"
             for key, suffix in artifacts.items()}
    out_flags = [part for key, path in paths.items()
                 for part in (f"--out-{key}", str(path))]
    assert main(argv + out_flags) == expect_exit
    return tuple(path.read_bytes() for path in paths.values())


def _drive_twice(tmp_path, capsys, argv, expect_exit, **artifacts):
    """Two same-seed runs must write byte-identical artifacts and print the
    same stdout, ``--out-*`` paths aside (simulated clocks end to end);
    returns the first run's artifacts and leaves its stdout captured."""
    runs = []
    for tag in ("a", "b"):
        written = _drive(tmp_path, tag, argv, expect_exit, **artifacts)
        out = capsys.readouterr().out
        for key, suffix in artifacts.items():
            out = out.replace(str(tmp_path / f"{key}-{tag}{suffix}"), f"<out-{key}>")
        runs.append((written, out))
    assert runs[0] == runs[1]
    print(runs[0][1], end="")
    return runs[0][0]


def test_obs_artifacts_valid_nested_and_deterministic(tmp_path, capsys):
    import json

    from repro.obs import CHROME_TRACE_SCHEMA, SNAPSHOT_SCHEMA, validate

    trace_bytes, metrics_bytes = _drive_twice(
        tmp_path, capsys,
        ["obs", "--seed", "3", "--scale", "0.12", "--lm-epochs", "1",
         "--requests", "120"],
        0, trace=".json", metrics=".json")

    trace = json.loads(trace_bytes)
    validate(CHROME_TRACE_SCHEMA, trace)
    events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    by_name = {e["name"]: e for e in events}
    root = by_name["pipeline.run"]
    assert root["args"]["parent_id"] == -1
    # Stage spans nest under the pipeline root.
    stage = by_name["pipeline.teacher_generation"]
    assert stage["args"]["parent_id"] == root["args"]["span_id"]
    assert "serving.run_batch" in by_name

    validate(SNAPSHOT_SCHEMA, json.loads(metrics_bytes))
    out = capsys.readouterr().out
    assert "request accounting" in out and "OK" in out


def test_cluster_artifacts_valid_and_deterministic(tmp_path, capsys):
    import json

    from repro.obs import CHROME_TRACE_SCHEMA, SNAPSHOT_SCHEMA, validate

    trace_bytes, metrics_bytes = _drive_twice(
        tmp_path, capsys,
        ["cluster", "--seed", "3", "--replicas", "3", "--requests", "400",
         "--n-queries", "60", "--fault-rate", "0.1"],
        0, trace=".json", metrics=".json")

    trace = json.loads(trace_bytes)
    validate(CHROME_TRACE_SCHEMA, trace)
    # Cluster spans and every replica's serving spans share the merged
    # timeline, split by process name.
    processes = {e["args"]["name"] for e in trace["traceEvents"]
                 if e["ph"] == "M"}
    assert {"cluster", "cluster-r0", "cluster-r1", "cluster-r2"} <= processes

    snap = json.loads(metrics_bytes)
    validate(SNAPSHOT_SCHEMA, snap)
    families = {metric["name"] for metric in snap["metrics"]}
    assert "cluster_requests_total" in families
    assert "cluster_batch_flushes_total" in families
    out = capsys.readouterr().out
    assert "request accounting" in out and "OK" in out


def test_chaos_table_prints_the_report_pending_evictions(capsys):
    from tests.test_scenarios import _played

    assert main(["chaos", "--seed", "0", "--scenario", "baseline"]) == 0
    rows = {}
    for line in capsys.readouterr().out.splitlines():
        if "|" in line:
            metric, *values = (cell.strip() for cell in line.split("|"))
            rows[metric] = values
    drive = _played("chaos", "--seed", "0", "--scenario", "baseline")
    assert rows["Pending evictions"] == [
        str(counts["pending_evictions"]) for _, counts in drive.phase_rows]


def test_cluster_rejects_bad_fault_rate(capsys):
    assert main(["cluster", "--fault-rate", "1.5", "--requests", "1"]) == 2
    assert "--fault-rate" in capsys.readouterr().out


def test_trace_artifacts_valid_and_deterministic(tmp_path, capsys):
    import json

    from repro.obs import CHROME_TRACE_SCHEMA, EVENTS_SCHEMA, TRACES_SCHEMA, validate

    first = _drive_twice(
        tmp_path, capsys,
        ["trace", "--seed", "5", "--replicas", "2", "--requests", "200",
         "--n-queries", "60", "--fault-rate", "0.2"],
        0, trace=".json", summary=".json", events=".jsonl")

    trace = json.loads(first[0])
    validate(CHROME_TRACE_SCHEMA, trace)
    flows = [e for e in trace["traceEvents"] if e["ph"] in ("s", "f")]
    assert flows, "expected cross-tracer flow links in the Chrome trace"

    summary = json.loads(first[1])
    validate(TRACES_SCHEMA, summary)
    assert summary["traces"], "expected retained traces in the summary"
    assert all(t["connected"] for t in summary["traces"])
    # Fault injection on: at least one degraded/fallback trace survives
    # tail sampling (flagged traces are always retained).
    assert any(t["outcome"] in ("degraded", "fallback")
               for t in summary["traces"])

    events_text = first[2].decode()
    validate(EVENTS_SCHEMA, events_text)
    assert '"trace_id"' in events_text

    out = capsys.readouterr().out
    assert "tracing invariants: OK" in out
    assert "slowest retained trace" in out


def test_trace_rejects_bad_fault_rate(capsys):
    assert main(["trace", "--fault-rate", "-0.1", "--requests", "1"]) == 2
    assert "--fault-rate" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["cluster", "--replicas", "0"],
    ["cluster", "--n-queries", "0"],
    ["trace", "--requests", "-3"],
    ["monitor", "--requests-per-phase", "0"],
    ["build-kg", "--scale", "0"],
    ["obs", "--lm-epochs", "0"],
])
def test_out_of_range_sizes_are_one_error_line_and_exit_2(argv, capsys):
    assert main(argv) == 2
    out = capsys.readouterr().out
    assert out.startswith("error: " + argv[1]) and out.count("\n") == 1


def test_a_command_that_dies_exits_2_never_1(monkeypatch, capsys):
    """1 means the scenario's signal fired; CI accepts exactly 1 from
    ``monitor --scenario chaos``, so a crash must not produce it."""
    from repro import scenarios

    def boom(scenario, args):
        raise ValueError("simulated crash inside the drive")

    monkeypatch.setattr(scenarios, "run_scenario", boom)
    with pytest.raises(SystemExit) as exit_info:
        main(["monitor", "--scenario", "chaos"])
    assert exit_info.value.code == 2
    assert "simulated crash inside the drive" in capsys.readouterr().err


_MONITOR_CHAOS = ["monitor", "--seed", "0", "--scenario", "chaos"]


def test_monitor_chaos_fires_and_correlates_alerts(tmp_path, capsys):
    import json

    from repro.obs import ALERTS_SCHEMA, EVENTS_SCHEMA, validate

    # Fired alerts make the run exit 1 even though they resolved.
    first = _drive_twice(tmp_path, capsys, _MONITOR_CHAOS, 1,
                         alerts=".json", events=".jsonl")

    report = json.loads(first[0])
    validate(ALERTS_SCHEMA, report)
    assert report["fired"] is True
    availability = next(o for o in report["objectives"]
                        if o["name"] == "availability")
    (alert,) = availability["alerts"]
    assert alert["state"] == "resolved"
    assert alert["pending_ts"] < alert["firing_ts"] < alert["resolved_ts"]

    events = validate(EVENTS_SCHEMA, first[1].decode())["events"]
    kinds = {e["kind"] for e in events}
    assert {"breaker.open", "router.drain", "router.restore",
            "service.degraded_entry", "service.degraded_exit"} <= kinds
    # The resolved alert cross-references the operational transitions
    # that explain it.
    by_id = {e["event_id"]: e for e in events}
    correlated = {by_id[i]["kind"] for i in alert["event_ids"] if i in by_id}
    assert "breaker.open" in correlated and "router.drain" in correlated
    out = capsys.readouterr().out
    assert "request accounting" in out and "OK" in out


def test_monitor_clean_scenario_stays_quiet(tmp_path, capsys):
    import json

    alerts, _ = _drive(
        tmp_path, "clean",
        ["monitor", "--seed", "0", "--scenario", "clean",
         "--requests-per-phase", "200"],
        0, alerts=".json", events=".jsonl")
    report = json.loads(alerts)
    assert report["fired"] is False
    assert all(not o["alerts"] for o in report["objectives"])
    capsys.readouterr()


def test_rollout_healthy_completes_and_is_deterministic(tmp_path, capsys):
    import json

    from repro.obs import ALERTS_SCHEMA, EVENTS_SCHEMA, validate

    first = _drive_twice(
        tmp_path, capsys, ["rollout", "--seed", "0", "--scenario", "healthy"], 0,
        alerts=".json", events=".jsonl")

    report = json.loads(first[0])
    validate(ALERTS_SCHEMA, report)
    assert report["fired"] is False

    events = validate(EVENTS_SCHEMA, first[1].decode())["events"]
    kinds = [e["kind"] for e in events]
    assert "rollout.start" in kinds
    assert "rollout.complete" in kinds
    assert "rollout.rollback_start" not in kinds
    # One atomic swap per replica (default --replicas 3).
    assert kinds.count("rollout.swap") == 3
    out = capsys.readouterr().out
    assert "Rollout state" in out and "complete" in out
    assert "request accounting" in out and "OK" in out
    assert "no alerts fired" in out


def test_rollout_poisoned_rolls_back_and_redrives(tmp_path, capsys):
    import json

    from repro.obs import EVENTS_SCHEMA, validate

    # Accounting holds and nothing mixed-version leaked, so the exit is
    # clean even though the rollout aborted: the guard doing its job is
    # not an operator error.
    alerts, events_bytes = _drive(
        tmp_path, "poisoned", ["rollout", "--seed", "0", "--scenario", "poisoned"],
        0, alerts=".json", events=".jsonl")

    events = validate(EVENTS_SCHEMA, events_bytes.decode())["events"]
    kinds = [e["kind"] for e in events]
    assert "rollout.rollback_start" in kinds
    assert "rollout.rollback_complete" in kinds
    assert "rollout.complete" not in kinds
    assert "service.redrive" in kinds
    start = next(e for e in events if e["kind"] == "rollout.rollback_start")
    assert start["attrs"]["objective"] in ("availability", "latency-p99")

    # The rollback lands while the alert is still pending, so nothing
    # ever fires: the guard acted before the page would have gone out.
    report = json.loads(alerts)
    assert report["fired"] is False
    out = capsys.readouterr().out
    assert "rolled_back" in out
    assert "rollback: objective" in out
    assert "request accounting" in out and "OK" in out


# -- kghealth drive --------------------------------------------------------
_KGHEALTH_ARGS = [
    "kghealth", "--seed", "0", "--replicas", "2", "--n-queries", "48",
    "--requests-per-phase", "400",
]


def test_kghealth_healthy_promotes_and_is_deterministic(tmp_path, capsys):
    import json

    from repro.obs import EVENTS_SCHEMA, KG_HEALTH_SCHEMA, validate

    # Simulated clocks and arithmetic triples: artifacts are byte-stable.
    first = _drive_twice(tmp_path, capsys, _KGHEALTH_ARGS + ["--scenario", "healthy"], 0,
                         health=".json", events=".jsonl")

    doc = json.loads(first[0])
    validate(KG_HEALTH_SCHEMA, doc)
    assert len(doc["snapshots"]) == 2       # parent + candidate lineage
    assert len(doc["drift"]) == 1
    (gate,) = doc["gates"]
    assert gate["promote"] is True and gate["breaches"] == []
    assert doc["drift"][0]["breaches"] == []

    events = validate(EVENTS_SCHEMA, first[1].decode())["events"]
    kinds = [e["kind"] for e in events]
    assert "rollout.gate_pass" in kinds
    assert "rollout.gate_block" not in kinds
    assert "rollout.start" in kinds and "rollout.complete" in kinds

    out = capsys.readouterr().out
    assert "gate verdict: PROMOTE" in out
    assert "no alerts fired" in out
    assert "request accounting" in out and "OK" in out


def test_kghealth_poisoned_blocks_before_first_swap(tmp_path, capsys):
    import json

    from repro.obs import EVENTS_SCHEMA, KG_HEALTH_SCHEMA, validate

    # Exit 1 distinguishes "gate tripped" from exit 2 "an invariant broke".
    health, events_bytes = _drive(
        tmp_path, "poisoned", _KGHEALTH_ARGS + ["--scenario", "poisoned"], 1,
        health=".json", events=".jsonl")

    doc = json.loads(health)
    validate(KG_HEALTH_SCHEMA, doc)
    (gate,) = doc["gates"]
    assert gate["promote"] is False
    assert gate["breaches"]
    assert any(b.startswith("relation-mix-shift") for b in gate["breaches"])

    events = validate(EVENTS_SCHEMA, events_bytes.decode())["events"]
    kinds = [e["kind"] for e in events]
    assert "rollout.gate_block" in kinds
    assert "rollout.blocked" in kinds
    assert "rollout.start" not in kinds     # never touched a replica
    assert "rollout.swap" not in kinds

    out = capsys.readouterr().out
    assert "gate verdict: BLOCK" in out
    assert "drift breach: " in out
    # The poisoned snapshot serves perfectly — the SLO guard sees nothing.
    assert "no alerts fired" in out
    assert "blocked" in out


# -- the exit-code rule: a breach (2) wins over a signal (1) ---------------
def test_monitor_chaos_with_broken_accounting_exits_2(monkeypatch, capsys):
    from repro.serving import CosmoCluster

    honest = CosmoCluster.metrics_totals

    def doctored(self):
        totals = honest(self)
        totals["handled"] += 1      # one request the replicas never counted
        return totals

    monkeypatch.setattr(CosmoCluster, "metrics_totals", doctored)
    # Alerts still fire (the signal, exit 1 on its own) — the breach wins.
    assert main(_MONITOR_CHAOS) == 2
    out = capsys.readouterr().out
    assert "ALERTS FIRED" in out
    assert "request accounting" in out and "VIOLATED" in out


def test_kghealth_poisoned_with_mixed_version_answer_exits_2(monkeypatch, capsys):
    from repro import refresh

    served = iter([True])           # flag exactly one answer as a leak
    monkeypatch.setattr(refresh, "mixed_version_violation",
                        lambda store, result: next(served, False))
    assert main(_KGHEALTH_ARGS + ["--scenario", "poisoned"]) == 2
    out = capsys.readouterr().out
    assert "gate verdict: BLOCK" in out     # the signal alone would exit 1
    assert "mixed-version answers: 1 (VIOLATED)" in out


# -- the parser: the never-set flags are gone, every kept flag parses ------
_DRIVES = ("cluster", "trace", "monitor", "rollout", "kghealth")
_REMOVED_FLAGS = [
    ("obs", "--chunk", "100"),
    ("chaos", "--no-resilience", None),
    ("chaos", "--outage-demo", None),
    *[(drive, flag, "1") for drive in _DRIVES
      for flag in ("--inter-arrival-ms", "--max-batch-size",
                   "--max-batch-delay-s", "--max-queue-depth")],
    ("cluster", "--verbose-metrics", None),
    ("trace", "--warm-queries", "10"),
    ("trace", "--slowest-k", "2"),
    ("trace", "--window-s", "30"),
    ("trace", "--head-every", "10"),
    *[(drive, flag, "0.5") for drive in ("monitor", "rollout", "kghealth")
      for flag in ("--scrape-interval-s", "--latency-slo-s")],
]


@pytest.mark.parametrize("command,flag,value", _REMOVED_FLAGS)
def test_removed_flags_are_rejected(command, flag, value, capsys):
    argv = [command, flag] + ([value] if value is not None else [])
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv)
    assert flag in capsys.readouterr().err


def test_removed_flags_cover_all_fourteen_names():
    assert len({flag for _, flag, _ in _REMOVED_FLAGS}) == 14


@pytest.mark.parametrize("argv,dest,value", [
    (["obs", "--seed", "3", "--scale", "0.2", "--lm-epochs", "2", "--requests", "9",
      "--out-trace", "t", "--out-metrics", "m"], "out_metrics", "m"),
    (["cluster", "--seed", "3", "--replicas", "2", "--requests", "9",
      "--n-queries", "5", "--fault-rate", "0.1", "--out-trace", "t",
      "--out-metrics", "m"], "fault_rate", 0.1),
    (["trace", "--seed", "3", "--replicas", "2", "--requests", "9",
      "--n-queries", "5", "--fault-rate", "0.1", "--out-trace", "t",
      "--out-summary", "s", "--out-events", "e"], "out_summary", "s"),
    (["monitor", "--seed", "3", "--scenario", "clean", "--replicas", "2",
      "--requests-per-phase", "9", "--n-queries", "5",
      "--out-alerts", "a", "--out-events", "e"], "scenario", "clean"),
    (["rollout", "--seed", "3", "--scenario", "poisoned", "--replicas", "2",
      "--requests-per-phase", "9", "--n-queries", "5",
      "--out-alerts", "a", "--out-events", "e"], "requests_per_phase", 9),
    (["kghealth", "--seed", "3", "--scenario", "poisoned", "--replicas", "2",
      "--requests-per-phase", "9", "--n-queries", "5", "--out-health", "h",
      "--out-events", "e"], "out_health", "h"),
    (["chaos", "--seed", "3", "--scenario", "outage", "--fault-rate", "0.2"],
     "scenario", "outage"),
])
def test_kept_flags_still_parse(argv, dest, value):
    args = build_parser().parse_args(argv)
    assert getattr(args, dest) == value
    assert args.seed == 3


def test_scenario_defaults_are_unchanged():
    parse = build_parser().parse_args
    assert (parse(["chaos"]).scenario, parse(["chaos"]).fault_rate) == ("resilient", 0.1)
    assert parse(["monitor"]).scenario == "chaos"
    assert parse(["rollout"]).scenario == "healthy"
    assert parse(["kghealth"]).scenario == "healthy"
    assert (parse(["cluster"]).requests, parse(["cluster"]).n_queries) == (2000, 150)
    assert parse(["trace"]).fault_rate == 0.15
    assert [parse([drive]).requests_per_phase
            for drive in ("monitor", "rollout", "kghealth")] == [600, 700, 500]
