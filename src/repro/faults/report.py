"""The fault ledger: every injection, detection, and recovery counted.

One :class:`FaultReport` accompanies a guarded run.  The injector
records what it broke, the sweep guard and the sharded executor record
what they caught and how it was repaired, and run-records stamp the
result as their ``faults`` section.  All mutation is lock-protected
— shard workers on a thread pool share one report.
"""

from __future__ import annotations

import threading
from typing import Any

__all__ = ["FaultReport", "RECOVERY_KEYS"]

#: Counter keys a report tracks besides the per-kind injection tallies.
RECOVERY_KEYS = (
    "tile_detections",
    "tile_retries",
    "tile_recoveries",
    "oracle_fallbacks",
    "stage_detections",
    "restages",
    "stage_recoveries",
    "shard_crashes",
    "shard_timeouts",
    "shard_retries",
    "shard_recoveries",
    "shard_inline_recoveries",
    "halo_detections",
    "halo_retransmits",
    "halo_recoveries",
    "rank_reassignments",
    "unrecovered",
)


class FaultReport:
    """Thread-safe counters for one fault-injection/verification run."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.injected: dict[str, int] = {}
        self.counts: dict[str, int] = {key: 0 for key in RECOVERY_KEYS}

    # -- recording ---------------------------------------------------------
    def record_injection(self, kind: str) -> None:
        """Count one fired fault of ``kind`` (called by the injector)."""
        with self._lock:
            self.injected[kind] = self.injected.get(kind, 0) + 1

    def bump(self, key: str, n: int = 1) -> None:
        """Increment one recovery counter (a key of ``RECOVERY_KEYS``)."""
        if key not in self.counts:
            raise KeyError(f"unknown fault counter {key!r}")
        with self._lock:
            self.counts[key] += n

    # -- reading -----------------------------------------------------------
    @property
    def total_injected(self) -> int:
        with self._lock:
            return sum(self.injected.values())

    @property
    def total_detected(self) -> int:
        with self._lock:
            return (
                self.counts["tile_detections"]
                + self.counts["stage_detections"]
                + self.counts["halo_detections"]
            )

    @property
    def total_recovered(self) -> int:
        with self._lock:
            return (
                self.counts["tile_recoveries"]
                + self.counts["oracle_fallbacks"]
                + self.counts["stage_recoveries"]
                + self.counts["shard_recoveries"]
                + self.counts["shard_inline_recoveries"]
                + self.counts["halo_recoveries"]
            )

    def as_dict(self) -> dict[str, Any]:
        """The run-record ``faults`` section (JSON-ready, all ints)."""
        with self._lock:
            injected = dict(sorted(self.injected.items()))
            counts = dict(self.counts)
        return {
            "injected": injected,
            "injected_total": sum(injected.values()),
            "detected": {
                "tile": counts["tile_detections"],
                "stage": counts["stage_detections"],
                "halo": counts["halo_detections"],
            },
            "recovered": {
                "tile_retry": counts["tile_recoveries"],
                "oracle_fallback": counts["oracle_fallbacks"],
                "restage": counts["stage_recoveries"],
                "shard_retry": counts["shard_recoveries"],
                "shard_inline": counts["shard_inline_recoveries"],
                "halo_retransmit": counts["halo_recoveries"],
            },
            "retries": {
                "tile": counts["tile_retries"],
                "stage": counts["restages"],
                "shard": counts["shard_retries"],
                "halo": counts["halo_retransmits"],
            },
            "shard": {
                "crashes": counts["shard_crashes"],
                "timeouts": counts["shard_timeouts"],
            },
            "rank": {
                "reassignments": counts["rank_reassignments"],
            },
            "unrecovered": counts["unrecovered"],
        }

    def merge(self, other: "FaultReport") -> None:
        """Fold another report's tallies into this one."""
        with other._lock:
            injected = dict(other.injected)
            counts = dict(other.counts)
        with self._lock:
            for kind, n in injected.items():
                self.injected[kind] = self.injected.get(kind, 0) + n
            for key, n in counts.items():
                self.counts[key] += n

    def describe(self) -> str:
        """Human-readable multi-line ledger (what ``chaos run`` prints)."""
        d = self.as_dict()
        lines = [
            f"injected   : {d['injected_total']} "
            + " ".join(f"{k}={v}" for k, v in d["injected"].items()),
            f"detected   : tile={d['detected']['tile']} "
            f"stage={d['detected']['stage']} halo={d['detected']['halo']}",
            "recovered  : "
            + " ".join(f"{k}={v}" for k, v in d["recovered"].items()),
            f"retries    : tile={d['retries']['tile']} "
            f"stage={d['retries']['stage']} shard={d['retries']['shard']} "
            f"halo={d['retries']['halo']}",
            f"shard      : crashes={d['shard']['crashes']} "
            f"timeouts={d['shard']['timeouts']}",
            f"rank       : reassignments={d['rank']['reassignments']}",
            f"unrecovered: {d['unrecovered']}",
        ]
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultReport(injected={self.total_injected}, "
            f"detected={self.total_detected}, recovered={self.total_recovered})"
        )
