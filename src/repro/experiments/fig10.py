"""Fig. 10: shared-memory requests, ConvStencil vs LoRAStencil.

Both methods run their full simulated sweeps on the four kernels the
paper profiles (Star-2D13P, Box-2D49P, Heat-3D, Box-3D27P); the
simulator's request counters play the role of Nsight Compute.  Counts
are normalized per million point-updates so kernels of different
measurement grids are comparable on one axis, exactly like the paper's
log-scale bars.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines.convstencil import ConvStencilMethod
from repro.baselines.lorastencil import LoRAStencilMethod
from repro.experiments.footprints import cached_footprint
from repro.stencil.kernels import get_kernel

__all__ = ["Fig10Row", "Fig10Result", "run_fig10", "FIG10_KERNELS"]

FIG10_KERNELS = ("Star-2D13P", "Box-2D49P", "Heat-3D", "Box-3D27P")


@dataclass(frozen=True)
class Fig10Row:
    kernel: str
    method: str
    #: shared-memory requests per million point-updates
    loads: float
    stores: float

    @property
    def total(self) -> float:
        return self.loads + self.stores


@dataclass
class Fig10Result:
    rows: list[Fig10Row] = field(default_factory=list)

    def row(self, kernel: str, method: str) -> Fig10Row:
        """The request counts of one (kernel, method) pair."""
        for r in self.rows:
            if r.kernel == kernel and r.method == method:
                return r
        raise KeyError(f"no row for ({kernel}, {method})")

    def ratio(self, kernel: str, what: str = "loads") -> float:
        """LoRAStencil / ConvStencil request ratio for one kernel."""
        lora = self.row(kernel, "LoRAStencil")
        conv = self.row(kernel, "ConvStencil")
        return getattr(lora, what) / getattr(conv, what)

    def mean_ratio(self, what: str = "loads") -> float:
        """Mean LoRA/Conv ratio across the profiled kernels."""
        kernels = sorted({r.kernel for r in self.rows})
        vals = [self.ratio(k, what) for k in kernels]
        return sum(vals) / len(vals)

    def table_rows(self) -> list[list[str]]:
        """Per-(kernel, method) request rows for table rendering."""
        return [["kernel", "method", "loads/Mpt", "stores/Mpt", "total/Mpt"]] + [
            [r.kernel, r.method, f"{r.loads:.0f}", f"{r.stores:.0f}", f"{r.total:.0f}"]
            for r in self.rows
        ]


def run_fig10(kernels: tuple[str, ...] = FIG10_KERNELS) -> Fig10Result:
    """Measure shared-memory request counts for both methods."""
    result = Fig10Result()
    for kname in kernels:
        kernel = get_kernel(kname)
        for cls in (ConvStencilMethod, LoRAStencilMethod):
            method = cls(kernel)
            fp = cached_footprint(method)
            per_pt = fp.per_point()
            result.rows.append(
                Fig10Row(
                    kernel=kname,
                    method=method.name,
                    loads=per_pt["shared_load_requests"] * 1e6,
                    stores=per_pt["shared_store_requests"] * 1e6,
                )
            )
    return result
