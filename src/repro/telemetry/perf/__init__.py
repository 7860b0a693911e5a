"""Performance observatory: per-instruction IR profiling, model-fidelity
attribution, and a counter regression gate on a committed baseline.

Three modules, one pipeline:

* :mod:`repro.telemetry.perf.profile` — attribute a sweep's wall-time
  and event counters per TileProgram opcode, per rank-1 PMA term, and
  per lowering pass (``compiled.profile()`` / ``repro profile --per-instr``);
* :mod:`repro.telemetry.perf.fidelity` — compare the paper's analytical
  predictions (Eq. 12/14/16, Sec. III-B/III-C) against measured events
  (``repro perf fidelity``);
* :mod:`repro.telemetry.perf.baseline` — measure the reference
  workload and gate its event counters on a committed baseline, or
  compare two run-record files (``repro perf check/diff``).

This package is imported lazily by the runtime (``CompiledStencil.profile``)
and never eagerly from :mod:`repro.telemetry` — its baseline module
reaches back into the runtime, and an eager import would cycle.
"""

from repro.telemetry.perf.fidelity import (
    FIDELITY_REPORT_SCHEMA,
    fidelity_components,
    fidelity_report,
    predicted_components,
)
from repro.telemetry.perf.baseline import (
    DEFAULT_BASELINE,
    DEFAULT_THRESHOLD,
    CounterDelta,
    RecordComparison,
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
    "CounterDelta",
    "RecordComparison",
    "compare_records",
    "load_record",
    "measure_reference",
]
