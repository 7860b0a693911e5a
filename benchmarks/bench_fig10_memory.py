"""Fig. 10 reproduction: shared-memory requests, ConvStencil vs
LoRAStencil, measured by the simulator's counters (our Nsight Compute).
"""

from __future__ import annotations

import pytest

from repro.experiments.fig10 import FIG10_KERNELS, run_fig10
from repro.experiments.paper import PAPER
from repro.experiments.report import format_table


def test_fig10_shared_memory_requests(benchmark, write_result):
    result = benchmark.pedantic(run_fig10, rounds=1, iterations=1)

    lines = [
        format_table(result.table_rows(),
                     "Fig. 10 — shared-memory requests per million points"),
        "",
        "LoRAStencil / ConvStencil ratios (paper-reported in parentheses):",
    ]
    for kernel in FIG10_KERNELS:
        lines.append(
            f"  {kernel:12s} loads {result.ratio(kernel, 'loads'):.3f}  "
            f"stores {result.ratio(kernel, 'stores'):.3f}  "
            f"total {result.ratio(kernel, 'total'):.3f}"
        )
    lines += [
        f"  mean loads  ratio: {result.mean_ratio('loads'):.3f}"
        f"  (paper {PAPER['fig10_load_ratio']})",
        f"  mean stores ratio: {result.mean_ratio('stores'):.3f}"
        f"  (paper {PAPER['fig10_store_ratio']})",
        f"  mean total  ratio: {result.mean_ratio('total'):.3f}"
        f"  (paper {1 - PAPER['fig10_total_reduction']:.3f})",
    ]
    write_result("fig10_memory", "\n".join(lines))

    # shape: LoRAStencil issues fewer requests of every kind, everywhere
    for kernel in FIG10_KERNELS:
        assert result.ratio(kernel, "loads") < 1.0
        assert result.ratio(kernel, "stores") < 1.0
        assert result.ratio(kernel, "total") < 1.0
    # store ratio lands close to the paper's 47.0%
    assert result.mean_ratio("stores") == pytest.approx(
        PAPER["fig10_store_ratio"], rel=0.35
    )


def test_counter_measurement_cost(benchmark):
    """Wall-clock of one counter-measured ConvStencil sweep (2D)."""
    import numpy as np

    from repro.baselines.convstencil import ConvStencil2D
    from repro.stencil.kernels import get_kernel

    eng = ConvStencil2D(get_kernel("Star-2D13P").weights.as_matrix())
    rng = np.random.default_rng(0)
    x = rng.normal(size=(64 + 6, 64 + 6))
    out, counters = benchmark(eng.apply_simulated, x)
    assert counters.shared_load_requests > 0
