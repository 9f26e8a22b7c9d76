"""Figure 4: the instruction-data scale-up.

COSMO scales instruction data to 18 product domains, 15 relation types
and 5 task types from ~30k annotations (paper) / the bench-scale budget
(here).  The bench regenerates the dataset and verifies the coverage.
"""

from conftest import publish

from repro.core import build_instruction_dataset
from repro.reporting import Table


def test_fig4_instruction_scaleup(bench_pipeline):
    dataset = build_instruction_dataset(
        bench_pipeline.world,
        bench_pipeline.annotated_candidates,
        bench_pipeline.annotations,
    )
    coverage = dataset.coverage()
    distribution = dataset.task_distribution()

    table = Table("Figure 4 — instruction-data scale-up",
                  ["Axis", "Paper", "Measured"])
    table.add_row("Product domains", 18, coverage["domains"])
    table.add_row("Relation types", 15, coverage["relations"])
    table.add_row("Task types", 5, coverage["tasks"])
    table.add_row("Annotations", "30k", len(bench_pipeline.annotated_candidates))
    table.add_row("Instruction examples", "(scaled)", coverage["examples"])
    lines = [table.render(), "", "Per-task distribution:"]
    for task, count in sorted(distribution.items()):
        lines.append(f"  {task}: {count}")
    publish("fig4_instruction_scaleup", "\n".join(lines))

    assert coverage["domains"] == 18
    assert coverage["relations"] >= 13
    assert coverage["tasks"] == 5
    assert all(count > 0 for count in distribution.values())
