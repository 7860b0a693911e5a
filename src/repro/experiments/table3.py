"""Table III: compute throughput and arithmetic intensity.

CT (Compute/SM Throughput %) and AI (FLOP per DRAM byte) for
ConvStencil and LoRAStencil on Box-2D49P and Box-3D27P, from the same
footprints the other figures use.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines.convstencil import ConvStencilMethod
from repro.baselines.lorastencil import LoRAStencilMethod
from repro.experiments.footprints import cached_footprint
from repro.experiments.paper import PAPER
from repro.perf.machine import A100, MachineSpec
from repro.perf.metrics import arithmetic_intensity, compute_throughput_pct
from repro.stencil.kernels import get_kernel

__all__ = ["Table3Row", "Table3Result", "run_table3", "TABLE3_KERNELS"]

TABLE3_KERNELS = ("Box-2D49P", "Box-3D27P")


@dataclass(frozen=True)
class Table3Row:
    kernel: str
    method: str
    ct_pct: float
    ai: float


@dataclass
class Table3Result:
    rows: list[Table3Row] = field(default_factory=list)

    def row(self, kernel: str, method: str) -> Table3Row:
        """The CT/AI entry of one (kernel, method) pair."""
        for r in self.rows:
            if r.kernel == kernel and r.method == method:
                return r
        raise KeyError(f"no row for ({kernel}, {method})")

    def ai_ratio(self, kernel: str) -> float:
        """LoRAStencil AI over ConvStencil AI (the shape claim)."""
        return self.row(kernel, "LoRAStencil").ai / self.row(kernel, "ConvStencil").ai

    def table_rows(self) -> list[list[str]]:
        """Per-(kernel, method) CT% and AI rows, the paper's value in
        parentheses, for table rendering."""
        out = [["kernel", "method", "CT%", "AI"]]
        for r in self.rows:
            paper = PAPER["table3"][r.kernel][r.method]
            out.append([r.kernel, r.method, f"{r.ct_pct:.2f} ({paper['ct_pct']})",
                        f"{r.ai:.2f} ({paper['ai']})"])
        return out


def run_table3(
    kernels: tuple[str, ...] = TABLE3_KERNELS,
    machine: MachineSpec = A100,
) -> Table3Result:
    """Compute CT% and AI for ConvStencil and LoRAStencil."""
    result = Table3Result()
    for kname in kernels:
        kernel = get_kernel(kname)
        for cls in (ConvStencilMethod, LoRAStencilMethod):
            method = cls(kernel)
            fp = cached_footprint(method)
            result.rows.append(
                Table3Row(
                    kernel=kname,
                    method=method.name,
                    ct_pct=compute_throughput_pct(
                        fp, method.traits(), machine, tensor_cores=True
                    ),
                    ai=arithmetic_intensity(fp),
                )
            )
    return result
