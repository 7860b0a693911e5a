"""Shared infrastructure for the benchmark harness.

Every ``bench_*`` module regenerates one of the paper's tables/figures:
the benchmark timing measures our simulator/driver cost, and the
reproduced rows are written to ``benchmarks/results/<name>.txt`` (and
echoed into the pytest-benchmark ``extra_info``) so a run of

    pytest benchmarks/ --benchmark-only

leaves the full set of paper artifacts on disk.

Alongside each artifact, :func:`write_result` stamps a structured
telemetry **run-record** (``benchmarks/results/records/<name>.json``,
schema ``repro.telemetry.run-record/v6``) carrying the plan-cache
stats at write time — the machine-readable sibling of the printed
figure.  Benchmarks may pass
``extra={...}`` to fold measured headline numbers (e.g. the cluster
observatory's ``overlap_efficiency``) into the record, where the
rolling ``repro perf trend`` gates pick them up from the history
store.  The structured event log
(``repro.telemetry.event/v1``) folds in automatically whenever the
benchmark produced events (see
:func:`repro.telemetry.export.run_record`).  Records are
schema-validated on write; ``tests/telemetry/test_run_records.py``
holds the contract.

Each record is *also* appended to the run-record history store
(``benchmarks/results/records/history/<name>.jsonl``), which is what
``repro perf history`` lists, ``repro perf diff`` compares (a ``.jsonl``
path reads its newest record) and ``repro perf trend`` gates: the
per-run snapshot is overwritten each run, the history accumulates.
Histories hold v6 records only; an older or malformed line makes those
commands exit 2.
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture()
def write_result(results_dir):
    """Persist one reproduced artifact and echo its location."""

    def _write(name: str, text: str, extra: dict | None = None) -> pathlib.Path:
        suffix = "svg" if text.lstrip().startswith("<svg") else "txt"
        path = results_dir / f"{name}.{suffix}"
        path.write_text(text + "\n")
        _stamp_run_record(results_dir, name, path, extra=extra)
        if suffix == "svg":
            print(f"\n[{name}] written to {path}")
        else:
            print(f"\n[{name}] written to {path}\n{text}")
        return path

    return _write


def _stamp_run_record(
    results_dir: pathlib.Path,
    name: str,
    artifact: pathlib.Path,
    extra: dict | None = None,
) -> pathlib.Path:
    """Write the schema-validated run-record next to one artifact."""
    from repro import telemetry
    from repro.runtime import DEFAULT_PLAN_CACHE

    from repro.telemetry.perf import RunRecordStore

    record = telemetry.run_record(
        name,
        cache_stats=DEFAULT_PLAN_CACHE.stats(),
        extra={
            "benchmark": name,
            "artifact": str(artifact),
            **(extra or {}),
        },
    )
    RunRecordStore(results_dir / "records" / "history").append(record)
    return telemetry.write_run_record(
        results_dir / "records" / f"{name}.json", record
    )
