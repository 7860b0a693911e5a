#!/usr/bin/env python3
"""Self-test of the benchmark, at a short run length.

Run from the repository root::

    python3 perfbench/selftest.py

It checks that

* every workload runs correctly in both modes and prints every metric
  ``BENCHMARK.json`` names, with that metric's unit;
* the traced per-layer self times sum to no more than the op wall time;
* the exact counts repeat bit for bit across two traced runs;
* a deliberately corrupted output (one ulp off) is counted as a failed
  op on every workload.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SHORT_S = 1.0
SEED = 7
#: per-layer metrics that are exact counts and must repeat across runs
EXACT = (
    "tcu.mma_ops",
    "tcu.global_load_bytes",
    "tcu.global_store_bytes",
    "tcu.shared_load_requests",
    "tcu.tiles",
    "core.engine_apply_calls",
    "faults.tiles_verified",
    "faults.detections",
    "parallel.rounds",
    "parallel.halo_bytes",
)


def bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", str(SEED),
            "--seconds", str(SHORT_S),
            "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=180,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0, result
    assert result["attempted"] >= 1, result
    got = result["metrics"]
    assert set(got) == {m["name"] for m in declared}, sorted(
        set(got) ^ {m["name"] for m in declared}
    )
    for m in declared:
        entry = got[m["name"]]
        assert entry["unit"] == m["unit"], (m["name"], entry)
        assert isinstance(entry["value"], (int, float)), (m["name"], entry)


def check_workload(name: str, spec: dict) -> None:
    from run import SELF_METRICS

    check_result(bench(name, 0), spec["end_to_end"])
    first, second = bench(name, 1), bench(name, 1)
    check_result(first, spec["per_layer"])
    layers = first["metrics"]
    self_ms = sum(layers[m]["value"] for m in set(SELF_METRICS.values()))
    wall_ms = layers["trace.op_wall_ms"]["value"]
    assert self_ms <= wall_ms * (1 + 1e-9), (self_ms, wall_ms)
    for metric in EXACT:
        a, b = layers[metric]["value"], second["metrics"][metric]["value"]
        assert a == b, (metric, a, b)
    assert layers["faults.detections"]["value"] == 0


def check_corruption() -> None:
    """A one-ulp error in any op's output must count as a failed op."""
    import numpy as np

    import run

    run.import_repro()
    from workloads import WORKLOADS

    for name, cls in WORKLOADS.items():
        wl = cls(SEED, 1)
        wl.reference()
        wl.cold_setup()
        output, extra = wl.op()
        assert wl.check(output, extra), name
        bad = output.copy()
        bad.flat[bad.size // 2] = np.nextafter(bad.flat[bad.size // 2], np.inf)
        assert not wl.check(bad, extra), name

    # and the loop counts it: corrupt the second of the timed ops
    wl = WORKLOADS["functional-steps"](SEED, 1)
    wl.reference()
    wl.cold_setup()
    real_op, calls = wl.op, []

    def sometimes_wrong():
        output, extra = real_op()
        calls.append(None)
        if len(calls) == 2:
            output = output.copy()
            output[0, 0] += 1.0
        return output, extra

    wl.op = sometimes_wrong
    tally, win = run.Tally(), run.Window()
    run.timed_window(wl, 0.3, tally, win, min_samples=3)
    assert win.ops >= 3 and tally.attempted == win.ops, (win.ops, tally.attempted)
    assert tally.failed == 1, tally.failed


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    checks = [(f"workload {w['name']}", check_workload, (w["name"], spec))
              for w in spec["workloads"]]
    checks.append(("corrupted outputs fail", check_corruption, ()))
    failed = 0
    for label, fn, args in checks:
        try:
            fn(*args)
        except (AssertionError, subprocess.SubprocessError) as exc:
            failed += 1
            print(f"FAIL {label}: {exc!r}")
        else:
            print(f"ok   {label}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
