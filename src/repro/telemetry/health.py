"""Live health registry: per-shard heartbeat and progress gauges.

A sharded sweep under the fault supervisor can legitimately take many
backoff rounds; from the outside it is a silent process.  This module
gives every shard a heartbeat the rest of the system can watch:

* the executor registers a :class:`SweepHealth` per sharded call and
  binds one :class:`ShardHealth` to each worker thread
  (:meth:`HealthRegistry.bind`);
* the block-sweep driver beats once per staged block
  (:func:`current_beat` — one thread-local read and one ``is not
  None`` check on the unmonitored path), advancing ``tiles_done`` /
  ``tiles_total`` and the last-beat timestamp;
* the supervisor bumps ``retries`` on every resubmission, and the bind
  context marks the terminal state (``done`` / ``failed``);
* run-records stamp the snapshot as their ``health`` section;
* when ``REPRO_HEALTH_FILE`` is set (or
  :meth:`HealthRegistry.configure_file` is called), every beat
  throttle-publishes a JSON snapshot atomically to that path — the
  file ``repro monitor`` tails to render a live progress table of a
  sweep running in another process.

Everything is bounded: finished sweeps are kept on a short ring so a
long-lived process does not accumulate history without limit.
"""

from __future__ import annotations

import itertools
import json
import os
import pathlib
import threading
import time
from typing import Any

__all__ = [
    "ENV_HEALTH_FILE",
    "ShardHealth",
    "SweepHealth",
    "HealthRegistry",
    "HEALTH",
    "current_beat",
    "render_snapshot",
]

#: environment variable naming the live snapshot file to publish
ENV_HEALTH_FILE = "REPRO_HEALTH_FILE"

#: terminal shard states (anything else counts as in-flight)
_TERMINAL = ("done", "failed")

_SWEEP_IDS = itertools.count(1)


class ShardHealth:
    """One shard's progress gauges; mutated by its worker thread."""

    __slots__ = (
        "shard",
        "rows",
        "state",
        "tiles_done",
        "tiles_total",
        "retries",
        "beats",
        "started",
        "last_beat",
        "started_mono",
        "last_beat_mono",
        "_sweep",
    )

    def __init__(self, shard: int, rows: str, sweep: "SweepHealth") -> None:
        self.shard = shard
        self.rows = rows
        self.state = "pending"
        self.tiles_done = 0
        self.tiles_total = 0
        self.retries = 0
        self.beats = 0
        # staleness is judged on the monotonic clock (immune to wall-
        # clock adjustments — no negative or false-stale beat ages);
        # the wall timestamps are kept as display anchors only
        self.started = time.time()
        self.last_beat = self.started
        self.started_mono = time.monotonic()
        self.last_beat_mono = self.started_mono
        self._sweep = sweep

    def _touch(self) -> None:
        self.last_beat = time.time()
        self.last_beat_mono = time.monotonic()

    def beat(self, tiles_done: int = 0, tiles_total: int | None = None) -> None:
        """One heartbeat: advance progress and the last-beat clock.

        ``tiles_done`` is a delta; ``tiles_total`` (when given) sets
        the denominator — the driver knows it, the executor does not.
        """
        self.tiles_done += tiles_done
        if tiles_total is not None:
            self.tiles_total = tiles_total
        self.beats += 1
        self._touch()
        self._sweep.registry._maybe_write()

    def restart(self) -> None:
        """A retry is starting: progress restarts, history is kept."""
        self.state = "running"
        self.tiles_done = 0
        self.beats += 1
        self._touch()

    def bump_retries(self) -> None:
        """Count one supervisor resubmission of this shard."""
        self.retries += 1
        self.state = "retrying"
        self._sweep.registry._maybe_write()

    def age(self) -> float:
        """Monotonic seconds since this shard registered."""
        return time.monotonic() - self.started_mono

    def last_beat_age(self) -> float:
        """Monotonic seconds since the last heartbeat (never negative)."""
        return time.monotonic() - self.last_beat_mono

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready gauges; ages computed at snapshot time."""
        return {
            "shard": self.shard,
            "rows": self.rows,
            "state": self.state,
            "tiles_done": self.tiles_done,
            "tiles_total": self.tiles_total,
            "retries": self.retries,
            "beats": self.beats,
            "age_s": self.age(),
            "last_beat_age_s": self.last_beat_age(),
            "last_beat": self.last_beat,
        }


class SweepHealth:
    """One sharded sweep's shard table, registered until replaced."""

    def __init__(
        self, sweep_id: str, name: str, registry: "HealthRegistry"
    ) -> None:
        self.sweep_id = sweep_id
        self.name = name
        self.registry = registry
        self.started = time.time()
        self.shards: dict[int, ShardHealth] = {}
        self._lock = threading.Lock()

    def shard(self, shard: int, rows: str = "") -> ShardHealth:
        """The shard's health row, created on first use."""
        with self._lock:
            health = self.shards.get(shard)
            if health is None:
                health = ShardHealth(shard, rows, self)
                self.shards[shard] = health
            return health

    @property
    def done(self) -> bool:
        """True when every registered shard reached a terminal state."""
        with self._lock:
            shards = list(self.shards.values())
        return bool(shards) and all(s.state in _TERMINAL for s in shards)

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready sweep snapshot with its shards in shard order."""
        with self._lock:
            shards = sorted(self.shards.values(), key=lambda s: s.shard)
        return {
            "sweep_id": self.sweep_id,
            "name": self.name,
            "started": self.started,
            "done": self.done,
            "shards": [s.as_dict() for s in shards],
        }


class HealthRegistry:
    """Process-wide table of live (and recently finished) sweeps."""

    def __init__(self, max_finished: int = 8) -> None:
        self.max_finished = max_finished
        self._sweeps: dict[str, SweepHealth] = {}
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._path: pathlib.Path | None = None
        self._min_interval_s = 0.2
        self._last_write = 0.0
        self._write_lock = threading.Lock()

    # -- lifecycle ---------------------------------------------------------
    def start_sweep(self, name: str) -> SweepHealth:
        """Register a new sweep; evicts the oldest finished sweeps.

        Also picks up :data:`ENV_HEALTH_FILE` so a sweep launched with
        the variable set publishes snapshots without any code opting in.
        """
        path = os.environ.get(ENV_HEALTH_FILE, "").strip()
        if path and self._path is None:
            self.configure_file(path)
        sweep = SweepHealth(f"sweep-{next(_SWEEP_IDS)}", name, self)
        with self._lock:
            self._sweeps[sweep.sweep_id] = sweep
            finished = [
                sid for sid, s in self._sweeps.items() if s.done
            ]
            while len(self._sweeps) > self.max_finished and finished:
                del self._sweeps[finished.pop(0)]
        return sweep

    def bind(self, shard: ShardHealth) -> "_BoundShard":
        """Context manager binding ``shard`` to the calling thread.

        Inside the block, :func:`current_beat` returns the shard's
        :meth:`~ShardHealth.beat`; on exit the shard is marked ``done``
        (or ``failed`` when the block raised) and a final snapshot is
        flushed.
        """
        return _BoundShard(self, shard)

    # -- reading -----------------------------------------------------------
    def sweeps(self) -> list[SweepHealth]:
        """Registered sweeps, registration order."""
        with self._lock:
            return list(self._sweeps.values())

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready view of every registered sweep (the file shape)."""
        return {
            "generated": time.time(),
            "sweeps": [s.as_dict() for s in self.sweeps()],
        }

    def render(self) -> str:
        """Human-readable progress table (the ``repro monitor`` view)."""
        return render_snapshot(self.snapshot())

    def configure_file(
        self, path: str | pathlib.Path, min_interval_s: float = 0.2
    ) -> None:
        """Publish throttled JSON snapshots to ``path`` on every beat."""
        self._path = pathlib.Path(path)
        self._min_interval_s = min_interval_s
        self.write_file()

    def write_file(self) -> pathlib.Path | None:
        """Write one snapshot now (atomic rename); None when unconfigured."""
        path = self._path
        if path is None:
            return None
        with self._write_lock:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(path.suffix + ".tmp")
            tmp.write_text(json.dumps(self.snapshot(), sort_keys=True))
            tmp.replace(path)
            self._last_write = time.monotonic()
        return path

    def _maybe_write(self) -> None:
        if self._path is None:
            return
        if time.monotonic() - self._last_write >= self._min_interval_s:
            self.write_file()

    def clear(self) -> None:
        """Forget every sweep and the publish target (tests)."""
        with self._lock:
            self._sweeps.clear()
        self._path = None
        self._last_write = 0.0

    # -- thread binding ----------------------------------------------------
    def _current(self) -> ShardHealth | None:
        return getattr(self._tls, "shard", None)


class _BoundShard:
    """The context manager :meth:`HealthRegistry.bind` returns."""

    __slots__ = ("registry", "shard", "_previous")

    def __init__(self, registry: HealthRegistry, shard: ShardHealth) -> None:
        self.registry = registry
        self.shard = shard
        self._previous = None

    def __enter__(self) -> ShardHealth:
        self._previous = self.registry._current()
        self.registry._tls.shard = self.shard
        if self.shard.state in ("retrying", "failed"):
            self.shard.restart()
        else:
            self.shard.state = "running"
            self.shard._touch()
        return self.shard

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.registry._tls.shard = self._previous
        self.shard.state = "failed" if exc_type is not None else "done"
        self.shard._touch()
        self.registry._maybe_write()
        return False


def render_snapshot(snapshot: dict[str, Any]) -> str:
    """Progress table from a snapshot dict (in-process or file-loaded).

    Shared by :meth:`HealthRegistry.render` and ``repro monitor`` —
    the monitor reads the same shape from :data:`ENV_HEALTH_FILE`.
    """
    lines: list[str] = []
    for sweep in snapshot.get("sweeps", []):
        state = "done" if sweep.get("done") else "running"
        lines.append(f"{sweep['sweep_id']}  {sweep['name']}  [{state}]")
        lines.append(
            f"  {'shard':>5} {'rows':>12} {'state':>9} "
            f"{'tiles':>13} {'retries':>7} {'last beat':>10}"
        )
        for shard in sweep.get("shards", []):
            tiles = f"{shard['tiles_done']}/{shard['tiles_total']}"
            lines.append(
                f"  {shard['shard']:>5} {shard['rows']:>12} "
                f"{shard['state']:>9} {tiles:>13} "
                f"{shard['retries']:>7} "
                f"{shard['last_beat_age_s']:>9.1f}s"
            )
    return "\n".join(lines) if lines else "(no sweeps registered)"


#: The process-wide registry sharded sweeps report into.
HEALTH = HealthRegistry()


def current_beat():
    """The bound shard's ``beat`` callable, or None off the hot path.

    The block-sweep driver calls this once per sweep and then beats per
    block; an unmonitored thread pays one thread-local read.
    """
    shard = HEALTH._current()
    return shard.beat if shard is not None else None
