"""Command-line interface: run the pipeline and archive the KG.

Usage::

    python -m repro.cli build-kg --seed 7 --scale 0.5 --out kg.npz
    python -m repro.cli inspect-kg kg.npz
    python -m repro.cli generate --seed 7 --query "winter camping essentials" \
        --product-type "camping tent" --domain "Sports & Outdoors"
    python -m repro.cli chaos --seed 7 --scenario baseline --fault-rate 0.1
    python -m repro.cli chaos --seed 7 --scenario outage
    python -m repro.cli obs --seed 7 --out-trace trace.json --out-metrics metrics.json
    python -m repro.cli cluster --seed 7 --replicas 3 --requests 2000
    python -m repro.cli monitor --seed 0 --scenario chaos \
        --out-alerts alerts.json --out-events events.jsonl
    python -m repro.cli rollout --seed 0 --scenario poisoned \
        --out-alerts alerts.json --out-events events.jsonl
    python -m repro.cli kghealth --seed 0 --scenario poisoned \
        --out-health kg_health.json --out-events events.jsonl
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import traceback

from repro import scenarios
from repro.core import CosmoPipeline, PipelineConfig
from repro.core.kg_io import (columnar_version, load_kg_columnar,
                              save_kg_columnar)
from repro.reporting import Table, format_percent

__all__ = ["build_parser", "main"]


def cmd_build_kg(args: argparse.Namespace) -> int:
    config = PipelineConfig.at_scale(args.seed, args.scale, args.lm_epochs)
    print(f"Building the COSMO KG (seed={args.seed}, scale={args.scale})...")
    result = CosmoPipeline(config).run()
    stats = result.kg.stats()
    print(f"KG: {stats.nodes} nodes, {stats.edges} edges, "
          f"{stats.relations} relations, {stats.domains} domains")
    table = Table("Annotated quality", ["Behavior", "Plausibility", "Typicality"])
    for behavior, ratios in sorted(result.quality_ratios.items()):
        table.add_row(behavior, format_percent(ratios["plausibility"]),
                      format_percent(ratios["typicality"]))
    print(table.render())
    if args.out:
        written = save_kg_columnar(result.kg, args.out)
        print(f"Wrote {written} edges to {args.out}")
    return 0


def cmd_inspect_kg(args: argparse.Namespace) -> int:
    kg = load_kg_columnar(args.path)
    stats = kg.stats()
    per_edge = os.path.getsize(args.path) / max(1, stats.edges)
    print(f"{args.path}: columnar version {columnar_version(args.path)}, "
          f"{per_edge:.1f} bytes per edge, {stats.nodes} nodes, "
          f"{stats.edges} edges, {stats.relations} relations, "
          f"{stats.domains} domains")
    table = Table("Edges per domain", ["Domain", "co-buy", "search-buy"])
    for domain in sorted(kg.domains()):
        table.add_row(domain, kg.edges_for(domain, "co-buy"),
                      kg.edges_for(domain, "search-buy"))
    print(table.render())
    for triple in kg.triples()[: args.sample]:
        print(f"  {triple.head.split(' ||| ')[0]!r} --{triple.relation.value}--> {triple.tail!r}")
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    config = PipelineConfig.at_scale(args.seed, args.scale, args.lm_epochs)
    print("Training COSMO-LM (one pipeline run)...")
    result = CosmoPipeline(config).run()
    lm = result.cosmo_lm
    prompt = lm.searchbuy_prompt(args.query, args.domain, args.product_type)
    generation = lm.generate_batch([prompt]).require()[0]
    print(f"query:     {args.query!r}")
    print(f"product:   {args.product_type!r} ({args.domain})")
    print(f"knowledge: {generation.text!r}")
    return 0


def _add_artifact_flags(parser: argparse.ArgumentParser, keys: tuple[str, ...]) -> None:
    for key in keys:
        parser.add_argument(f"--out-{key}", type=str, default="",
                            help=f"write the {scenarios.ARTIFACTS[key].label} here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build-kg", help="run the pipeline and archive the KG")
    build.add_argument("--seed", type=int, default=7)
    build.add_argument("--scale", type=float, default=0.5,
                       help="world/sampling scale factor (1.0 = default sizes)")
    build.add_argument("--lm-epochs", type=int, default=10)
    build.add_argument("--out", type=str, default="",
                       help="write the KG's columnar archive (.npz) to this path")
    build.set_defaults(func=cmd_build_kg)

    inspect = sub.add_parser("inspect-kg", help="summarize an archived KG")
    inspect.add_argument("path")
    inspect.add_argument("--sample", type=int, default=5)
    inspect.set_defaults(func=cmd_inspect_kg)

    generate = sub.add_parser("generate", help="generate knowledge for one behavior")
    generate.add_argument("--seed", type=int, default=7)
    generate.add_argument("--scale", type=float, default=0.4)
    generate.add_argument("--lm-epochs", type=int, default=10)
    generate.add_argument("--query", required=True)
    generate.add_argument("--product-type", required=True)
    generate.add_argument("--domain", required=True)
    generate.set_defaults(func=cmd_generate)

    for command, scenario in scenarios.SCENARIOS.items():
        drive = sub.add_parser(command, help=scenario.help)
        drive.add_argument("--seed", type=int, default=7)
        variants = tuple(scenario.expectations)
        if len(variants) > 1:
            drive.add_argument("--scenario", choices=variants, default=variants[0])
        for flag, default in scenario.flags.items():
            drive.add_argument("--" + flag.replace("_", "-"), type=type(default),
                               default=default, help="(default: %(default)s)")
        _add_artifact_flags(drive, scenario.artifacts)
        drive.set_defaults(func=functools.partial(scenarios.run_scenario, scenario))
    return parser


#: Sizes a command cannot run with at zero or below.
_POSITIVE_SIZES = ("replicas", "requests", "n_queries", "requests_per_phase",
                   "scale", "lm_epochs")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    fault_rate = getattr(args, "fault_rate", 0.0)
    if not 0.0 <= fault_rate <= 1.0:
        print(f"error: --fault-rate must be in [0, 1], got {fault_rate}")
        return 2
    for size in _POSITIVE_SIZES:
        value = getattr(args, size, 1)
        if value <= 0:
            print(f"error: --{size.replace('_', '-')} must be positive, got {value}")
            return 2
    try:
        return args.func(args)
    except Exception as error:
        # Exit 1 means "the scenario's signal fired" (CI accepts exactly 1
        # from ``monitor --scenario chaos`` and ``kghealth --scenario
        # poisoned``): a command that dies must not be mistaken for one,
        # so it leaves the way an argparse usage error does.
        traceback.print_exc()
        raise SystemExit(2) from error


if __name__ == "__main__":
    sys.exit(main())
