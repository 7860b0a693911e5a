"""Fig. 9 reproduction: optimization breakdown on Box-2D9P over sizes."""

from __future__ import annotations

import pytest

from repro.experiments.fig9 import DEFAULT_SIZES, run_fig9
from repro.experiments.paper import PAPER
from repro.experiments.report import format_table


def test_fig9_breakdown(benchmark, write_result):
    result = benchmark.pedantic(
        run_fig9, kwargs={"sizes": DEFAULT_SIZES}, rounds=1, iterations=1
    )

    configs = result.configs()
    big = max(result.sizes())
    lines = [
        format_table(result.table_rows(), "Fig. 9 — Box-2D9P breakdown (GStencil/s)"),
        "",
        f"TensorCore gain: {result.gain(configs[1], configs[0], big):.2f}x"
        f"   (paper {PAPER['fig9_tcu_gain']}x)",
        f"BVS gain:        {result.gain(configs[2], configs[1], big):.2f}x"
        f"   (paper {PAPER['fig9_bvs_gain']}x)",
        f"AsyncCopy gain:  {result.gain(configs[3], configs[2], big):.3f}x"
        f"   (paper {PAPER['fig9_async_copy_gain']}x)",
    ]
    write_result("fig9_breakdown", "\n".join(lines))

    from repro.experiments.svg import line_chart

    svg = line_chart(
        [float(s) for s in result.sizes()],
        {c: [result.perf(c, s) for s in result.sizes()] for c in configs},
        title="Fig. 9 — Box-2D9P optimization breakdown",
        xlabel="grid side", ylabel="GStencil/s", log_x=True,
    )
    write_result("fig9_breakdown_chart", svg)

    # shape assertions
    assert result.gain(configs[1], configs[0], big) == pytest.approx(
        PAPER["fig9_tcu_gain"], rel=0.15
    )
    assert result.gain(configs[2], configs[1], big) == pytest.approx(
        PAPER["fig9_bvs_gain"], rel=0.15
    )
    assert result.gain(configs[3], configs[2], big) == pytest.approx(
        PAPER["fig9_async_copy_gain"], rel=0.15
    )
    # contributions stabilize with input size (the paper's observation)
    for cfg in configs:
        perfs = [result.perf(cfg, s) for s in result.sizes()]
        assert perfs == sorted(perfs)


@pytest.mark.parametrize(
    "config_index,label",
    [(0, "rdg_cuda"), (1, "tcu_no_bvs"), (2, "tcu_bvs"), (3, "full")],
)
def test_breakdown_sweep_cost(benchmark, config_index, label):
    """Wall-clock of the simulated sweep at each optimization level."""
    from repro.baselines.lorastencil import LoRAStencilMethod
    from repro.core.config import OptimizationConfig
    from repro.stencil.kernels import get_kernel

    config = OptimizationConfig.breakdown_levels()[config_index]
    method = LoRAStencilMethod(get_kernel("Box-2D9P"), config=config)
    out, _ = benchmark(method.simulated_sweep, (48, 48))
    assert out.shape == (48, 48)
