"""Table III reproduction: compute throughput (CT%) and arithmetic
intensity (AI) for ConvStencil vs LoRAStencil."""

from __future__ import annotations

from repro.experiments.paper import PAPER
from repro.experiments.report import format_table
from repro.experiments.table3 import run_table3


def test_table3_compute_comparison(benchmark, write_result):
    result = benchmark.pedantic(run_table3, rounds=1, iterations=1)

    lines = [
        format_table(result.table_rows(),
                     "Table III — CT% and AI (paper in parentheses)"),
        "",
        f"AI ratio LoRA/Conv, Box-2D49P: {result.ai_ratio('Box-2D49P'):.2f}"
        f"  (paper {PAPER['table3']['Box-2D49P']['LoRAStencil']['ai'] / PAPER['table3']['Box-2D49P']['ConvStencil']['ai']:.2f})",
        "",
        "Note: the 3D rows inherit our per-plane ConvStencil-3D substitute,",
        "which overstates ConvStencil's tensor-core work share relative to",
        "the authors' native 3D kernels; the 2D directions and ratios hold.",
    ]
    write_result("table3_compute", "\n".join(lines))

    # shape assertions for the 2D kernel
    lora = result.row("Box-2D49P", "LoRAStencil")
    conv = result.row("Box-2D49P", "ConvStencil")
    assert lora.ct_pct > conv.ct_pct
    assert lora.ai > conv.ai


def test_footprint_measurement_cost(benchmark):
    """Wall-clock of the footprint measurement behind Table III."""
    from repro.baselines.lorastencil import LoRAStencilMethod
    from repro.stencil.kernels import get_kernel

    method = LoRAStencilMethod(get_kernel("Box-2D49P"))
    fp = benchmark(method.footprint, (64, 64))
    assert fp.points == 64 * 64
