"""Run-record regression gate against a committed baseline.

Run-records (``repro.telemetry.run-record/v6``) are stamped next to
every benchmark artifact; two pieces compare them across commits:

* :func:`compare_records` — event-counter deltas between two records
  at the :data:`DEFAULT_THRESHOLD` relative tolerance.  Counters are
  **deterministic** on the simulator, so the tolerance is tight and any
  growth is a real algorithmic regression, not noise.  Wall time is
  never gated here: ``repro perf check --min-speedup`` gates it as a
  ratio;
* :func:`measure_reference` — runs the reference workload (256x256
  Box-2D9P by default) and produces the joinable run-record that
  ``repro perf check --baseline BENCH_baseline.json`` gates on, exiting
  non-zero on regression.  It is the only measuring code path;
  ``perf check --record PATH`` writes the measured record to one file.
"""

from __future__ import annotations

import json
import pathlib
import time
from dataclasses import dataclass
from typing import Any

from repro.telemetry.validate import TelemetryError, validate_run_record

__all__ = [
    "DEFAULT_BASELINE",
    "DEFAULT_THRESHOLD",
    "CounterDelta",
    "RecordComparison",
    "compare_records",
    "load_record",
    "measure_reference",
]

#: repo-root baseline the ``repro perf check`` gate compares against
DEFAULT_BASELINE = "BENCH_baseline.json"

#: relative growth tolerated before a counter counts as regressed
#: (counters are deterministic; 1% headroom absorbs benign re-blocking)
DEFAULT_THRESHOLD = 0.01

#: reference workload of the committed baseline (paper Fig. 9 kernel)
REFERENCE_WORKLOAD = {"kernel": "Box-2D9P", "size": 256, "seed": 0}


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class CounterDelta:
    """One compared quantity (an event counter or a timing)."""

    name: str
    baseline: float
    current: float
    regressed: bool

    @property
    def rel_change(self) -> float | None:
        """Relative growth vs. baseline (None when baseline is zero)."""
        if self.baseline:
            return (self.current - self.baseline) / self.baseline
        return None if self.current else 0.0


@dataclass(frozen=True)
class RecordComparison:
    """Outcome of comparing two run-records."""

    baseline_name: str
    current_name: str
    deltas: tuple[CounterDelta, ...]

    @property
    def regressions(self) -> tuple[CounterDelta, ...]:
        return tuple(d for d in self.deltas if d.regressed)

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render(self) -> str:
        """Aligned delta table, regressions flagged."""
        lines = [
            f"baseline {self.baseline_name!r} vs current "
            f"{self.current_name!r} (threshold {DEFAULT_THRESHOLD:.1%})",
            f"  {'counter':<30} {'baseline':>14} {'current':>14} "
            f"{'change':>9}",
        ]
        for d in self.deltas:
            rel = d.rel_change
            change = "new" if rel is None else f"{rel:+.2%}"
            flag = "  << REGRESSED" if d.regressed else ""
            lines.append(
                f"  {d.name:<30} {d.baseline:>14,.6g} {d.current:>14,.6g} "
                f"{change:>9}{flag}"
            )
        verdict = (
            "OK — no regressions"
            if self.ok
            else f"{len(self.regressions)} counter(s) regressed"
        )
        lines.append(f"  -> {verdict}")
        return "\n".join(lines)

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready form (``repro perf check/diff --json``)."""
        return {
            "ok": self.ok,
            "threshold": DEFAULT_THRESHOLD,
            "deltas": [
                {
                    "name": d.name,
                    "baseline": d.baseline,
                    "current": d.current,
                    "rel_change": d.rel_change,
                    "regressed": d.regressed,
                }
                for d in self.deltas
            ],
        }


def compare_records(
    baseline: dict[str, Any], current: dict[str, Any]
) -> RecordComparison:
    """Compare two run-records' event counters.

    Every counter is cost-like — more MMAs, more shared traffic, more
    DRAM bytes are all worse — so a regression is growth beyond
    ``baseline * (1 + DEFAULT_THRESHOLD)``, or any appearance of a
    counter the baseline did not have.  Wall time (``extra.timing_s``)
    is noisy on shared machines and is not compared.
    """
    base_events = baseline.get("events") or {}
    cur_events = current.get("events") or {}
    deltas: list[CounterDelta] = []
    for name in sorted(set(base_events) | set(cur_events)):
        b = float(base_events.get(name, 0))
        c = float(cur_events.get(name, 0))
        regressed = c > b * (1.0 + DEFAULT_THRESHOLD) if b else c > 0
        deltas.append(
            CounterDelta(name=name, baseline=b, current=c, regressed=regressed)
        )
    return RecordComparison(
        baseline_name=str(baseline.get("name", "?")),
        current_name=str(current.get("name", "?")),
        deltas=tuple(deltas),
    )


def load_record(path: str | pathlib.Path) -> dict[str, Any]:
    """Load one run-record from a ``.json`` file and validate it; a
    malformed or invalid record raises :class:`TelemetryError`."""
    path = pathlib.Path(path)
    try:
        record = json.loads(path.read_text())
        validate_run_record(record)
    except (json.JSONDecodeError, TelemetryError) as exc:
        raise TelemetryError(f"{path}: {exc}") from exc
    return record


# ---------------------------------------------------------------------------
# the reference workload behind `repro perf check`
# ---------------------------------------------------------------------------
def measure_reference(
    kernel: str = REFERENCE_WORKLOAD["kernel"],
    size: int = REFERENCE_WORKLOAD["size"],
    seed: int = REFERENCE_WORKLOAD["seed"],
    backend: str | None = None,
) -> dict[str, Any]:
    """Run the reference workload; returns its joinable run-record.

    The record's ``extra`` carries the workload parameters (so a future
    check can re-run the *same* workload the baseline measured), the
    plan hash, schedule name and execution backend (joinable with
    plan-cache entries), and the wall time of the sweep.  ``backend``
    selects the execution backend; event counters are bit-identical
    across backends, so a vectorized measurement stays comparable to an
    interpreter baseline — only ``timing_s`` moves.

    The compile + sweep runs under :func:`repro.telemetry.capture`, so
    the record's ``spans``/``tracer`` sections carry the measured
    trace (``finished_spans > 0``) instead of an empty forest.
    """
    import numpy as np

    from repro import telemetry
    from repro.runtime import compile as compile_stencil
    from repro.stencil.kernels import get_kernel
    from repro.telemetry.export import run_record
    from repro.telemetry.perf.profile import profile_shape

    k = get_kernel(kernel)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=profile_shape(k.weights.ndim, size))
    padded = np.pad(x, k.weights.radius)

    with telemetry.capture():
        compiled = compile_stencil(k.weights, backend=backend)
        t0 = time.perf_counter()
        _, events = compiled.apply_simulated(padded)
        timing = time.perf_counter() - t0

    extra = {
        "command": "perf-check",
        "kernel": k.name,
        "size": size,
        "seed": seed,
        "plan_key": compiled.key,
        "schedule": compiled.schedule,
        "backend": compiled.plan.backend,
        "timing_s": timing,
    }
    return run_record(f"perf-check-{k.name}", counters=events, extra=extra)
