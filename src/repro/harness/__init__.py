"""Experiment harness: one entry point per paper figure/table."""

from repro.harness.experiments import (
    CreationTrace,
    ablation_cleaner_policy,
    ablation_disk_array,
    ablation_segment_size,
    fig1_fig2_creation_traces,
    fig3_small_file,
    fig4_large_file,
    fig5_cleaning_rate,
    recovery_comparison,
    sec31_cpu_scaling,
    write_cost_comparison,
)
from repro.harness.parallel import (
    export_telemetry_totals,
    merge_metric_samples,
    run_tasks,
)
from repro.rig import Rig, new_rig

__all__ = [
    "Rig",
    "new_rig",
    "CreationTrace",
    "fig1_fig2_creation_traces",
    "fig3_small_file",
    "fig4_large_file",
    "fig5_cleaning_rate",
    "sec31_cpu_scaling",
    "recovery_comparison",
    "ablation_segment_size",
    "ablation_cleaner_policy",
    "ablation_disk_array",
    "write_cost_comparison",
    "export_telemetry_totals",
    "merge_metric_samples",
    "run_tasks",
]
