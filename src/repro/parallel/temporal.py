"""Communication-avoiding temporal tiling for the cluster.

Instead of exchanging an ``h``-deep halo every timestep, each device
receives a deeper halo once per *round* and advances several steps
locally on a shrinking window.  The round structure comes from the
plan's :class:`~repro.parallel.plan.HaloSchedule`:

* ``trapezoid`` — one ``k*h``-deep exchange then ``k`` local steps (the
  classic overlapped trapezoid);
* ``diamond`` — two half-depth exchanges per round (shallower halos,
  one extra message) — every half-round is itself an exact trapezoid;
* a step count that does not divide ``block_steps`` simply ends with a
  ragged final round advancing the remainder.

For a linear stencil this is *exact*: interior dependencies over ``k``
steps reach at most ``k*h`` cells, and boundary windows re-impose the
global boundary condition between local steps, reproducing the
step-by-step trajectory bit for bit.  The payoff is fewer, larger
messages: total halo traffic drops roughly by ``k`` and message *count*
— the latency term — drops exactly ``k``×.

Execution happens through :meth:`~repro.parallel.cluster.
ClusterRuntime.run` (``block_steps=`` / ``tiling=``), so temporal rounds
compose with ``overlap=``, ``executor="process"``,
``simulate=``/``backend=`` and the fault ladder.  This module holds the
byte model; measured accounting comes from the halo exchanger's
ledger — the single source of truth — never re-summed here.
"""

from __future__ import annotations

from dataclasses import replace

from repro.parallel.cluster import ClusterRuntime

__all__ = ["temporal_halo_bytes"]


def temporal_halo_bytes(
    runtime: ClusterRuntime,
    steps: int,
    block_steps: int,
    *,
    tiling: str = "trapezoid",
) -> tuple[int, int]:
    """(per-step bytes, temporal-blocked bytes) for ``steps`` timesteps.

    The model mirrors the execution exactly — one term per scheduled
    phase at that phase's halo depth — so it matches the measured
    exchanger ledger byte for byte, including ragged final rounds and
    diamond half-rounds.
    """
    plan = runtime.plan
    schedule = replace(
        plan.schedule, block_steps=block_steps, tiling=tiling
    )
    per_step = (
        runtime.exchanger(plan.radius).total_bytes_per_exchange() * steps
    )
    blocked = sum(
        runtime.exchanger(schedule.depth(k)).total_bytes_per_exchange()
        for k in schedule.phases(steps)
    )
    return per_step, blocked
