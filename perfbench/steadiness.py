#!/usr/bin/env python3
"""Steadiness report: end-to-end spread over many seeds, beside the bounds.

Run from the repository root::

    python3 perfbench/steadiness.py --runs 10 --json /tmp/set1.json
    python3 perfbench/steadiness.py --runs 10 --first-seed 101 \\
        --baseline /tmp/set1.json

Each workload of ``BENCHMARK.json`` runs ``--runs`` times at the
declared ``run_seconds``, one seed per run.  For every end-to-end metric
the report gives the median and the spread -- the distance between the
first and third quartiles (``statistics.quantiles(values, n=4)``) as a
share of the median -- next to the metric's bound and the steadiness
target of a third of the bound.  With ``--baseline`` (the ``--json``
output of an earlier set) it also gives each median's drift against the
earlier set, signed so that positive is worse.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "0",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=180,
        check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect run {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", help="default: all")
    parser.add_argument("--json", type=Path, help="write the raw values here")
    parser.add_argument("--baseline", type=Path, help="an earlier --json set")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workload or [w["name"] for w in spec["workloads"]]
    baseline = json.loads(args.baseline.read_text()) if args.baseline else {}
    raw: dict[str, dict[str, list[float]]] = {}
    ok = True
    print("| workload | metric | median | spread | bound/3 | bound | drift |")
    print("|---|---|---|---|---|---|---|")
    for name in names:
        runs = [
            one_run(name, seed, spec["run_seconds"])
            for seed in range(args.first_seed, args.first_seed + args.runs)
        ]
        raw[name] = {m["name"]: [r[m["name"]] for r in runs] for m in spec["end_to_end"]}
        for m in spec["end_to_end"]:
            values = raw[name][m["name"]]
            med, spr = statistics.median(values), spread(values)
            drift = ""
            earlier = baseline.get(name, {}).get(m["name"])
            if earlier:
                ref = statistics.median(earlier)
                worse = (med - ref) / ref * (1 if m["better"] == "lower" else -1)
                drift = f"{worse:+.3f}"
                ok &= worse <= m["bound"]
            if m["name"] != "setup_s":
                ok &= spr <= m["bound"]
            print(
                f"| {name} | {m['name']} | {med:.4g} | {spr:.3f} | "
                f"{m['bound'] / 3:.3f} | {m['bound']:.2f} | {drift} |",
                flush=True,
            )
    if args.json:
        args.json.write_text(json.dumps(raw, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
