"""Optimization toggles (the levels of the Fig. 9 breakdown)."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["OptimizationConfig"]


@dataclass(frozen=True)
class OptimizationConfig:
    """Which LoRAStencil optimizations are active.

    The four Fig. 9 configurations are::

        RDG (CUDA cores)   OptimizationConfig(use_tensor_cores=False)
        + TensorCore       OptimizationConfig(use_bvs=False, use_async_copy=False)
        + BVS              OptimizationConfig(use_async_copy=False)
        + AsyncCopy        OptimizationConfig()            # everything on

    ``schedule`` selects the tile-program instruction schedule
    :func:`repro.core.lowering.lower_engine` emits:
    ``"eager"`` keeps the canonical emission order, ``"prefetch"``
    hoists every fragment load to the front of the tile; additional
    schedules can be registered via
    :func:`repro.core.lowering.register_schedule`.  Every valid
    schedule is numerically identical — the knob only moves the
    load->use distance the simulator would hide latency with.
    """

    use_tensor_cores: bool = True
    use_bvs: bool = True
    use_async_copy: bool = True
    schedule: str = "eager"

    def label(self) -> str:
        """Short display name used by Fig. 9 and the footprint cache."""
        if not self.use_tensor_cores:
            return "RDG(CUDA)"
        parts = ["RDG+TCU"]
        if self.use_bvs:
            parts.append("BVS")
        if self.use_async_copy:
            parts.append("AC")
        if self.schedule != "eager":
            parts.append(f"sched:{self.schedule}")
        return "+".join(parts)

    @classmethod
    def breakdown_levels(cls) -> list["OptimizationConfig"]:
        """The cumulative optimization ladder of Fig. 9."""
        return [
            cls(use_tensor_cores=False, use_bvs=False, use_async_copy=False),
            cls(use_tensor_cores=True, use_bvs=False, use_async_copy=False),
            cls(use_tensor_cores=True, use_bvs=True, use_async_copy=False),
            cls(use_tensor_cores=True, use_bvs=True, use_async_copy=True),
        ]
