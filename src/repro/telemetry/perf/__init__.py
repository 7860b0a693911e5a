"""Performance observatory: per-instruction IR profiling, model-fidelity
attribution, and run-record history with regression gating.

Three modules, one pipeline:

* :mod:`repro.telemetry.perf.profile` — attribute a sweep's wall-time
  and event counters per TileProgram opcode, per rank-1 PMA term, and
  per lowering pass (``compiled.profile()`` / ``repro profile --per-instr``);
* :mod:`repro.telemetry.perf.fidelity` — compare the paper's analytical
  predictions (Eq. 12/14/16, Sec. III-B/III-C) against measured events
  (``repro perf fidelity``);
* :mod:`repro.telemetry.perf.history` — measure the reference workload,
  append run-records to a JSONL history and gate counters on a
  committed baseline (``repro perf check/diff``);
* :mod:`repro.telemetry.perf.trend` — statistical gating of wall
  timings against the rolling median/MAD of that history
  (``repro perf trend``; it reads the history and never measures).

This package is imported lazily by the runtime (``CompiledStencil.profile``)
and never eagerly from :mod:`repro.telemetry` — its history module
reaches back into the runtime, and an eager import would cycle.
"""

from repro.telemetry.perf.fidelity import (
    FIDELITY_REPORT_SCHEMA,
    fidelity_components,
    fidelity_report,
    predicted_components,
)
from repro.telemetry.perf.history import (
    DEFAULT_BASELINE,
    DEFAULT_THRESHOLD,
    CounterDelta,
    RecordComparison,
    RunRecordStore,
    compare_records,
    load_record,
    measure_reference,
)
from repro.telemetry.perf.profile import (
    PLAN_PROFILE_SCHEMA,
    SHARED_BUCKET,
    InstrProfiler,
    OpStats,
    PlanProfile,
    profile_plan,
    profile_shape,
)
from repro.telemetry.perf.trend import (
    DEFAULT_MAD_SCALE,
    DEFAULT_REL_FLOOR,
    DEFAULT_WINDOW,
    MIN_HISTORY,
    TrendStats,
    trend_gate,
)

__all__ = [
    "PLAN_PROFILE_SCHEMA",
    "SHARED_BUCKET",
    "InstrProfiler",
    "OpStats",
    "PlanProfile",
    "profile_plan",
    "profile_shape",
    "FIDELITY_REPORT_SCHEMA",
    "predicted_components",
    "fidelity_components",
    "fidelity_report",
    "DEFAULT_BASELINE",
    "DEFAULT_THRESHOLD",
    "RunRecordStore",
    "CounterDelta",
    "RecordComparison",
    "compare_records",
    "load_record",
    "measure_reference",
    "DEFAULT_WINDOW",
    "DEFAULT_MAD_SCALE",
    "DEFAULT_REL_FLOOR",
    "MIN_HISTORY",
    "TrendStats",
    "trend_gate",
]
