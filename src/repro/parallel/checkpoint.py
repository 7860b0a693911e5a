"""Deterministic checkpoint/restart for cluster runs.

A :class:`ClusterCheckpoint` freezes a :class:`~repro.parallel.cluster.
ClusterRuntime` run at a temporal-round barrier — the only points where
every rank's block is globally consistent (the fold after a round's
compute+exchange completes).  The snapshot carries everything needed to
continue *bit-identically*:

* every rank's block (the full distributed state — FP64, lossless);
* the halo ledger (per-round byte log plus the running total), so the
  per-round log still sums to the run total across a resume;
* the round index and phase schedule;
* the fault injector's firing clocks (one-shot faults already spent
  before the checkpoint must not re-fire after a resume);
* the run's ``trace_id`` (a resumed run continues the same trace).

The manifest is content-hashed over the plan key, round index, block
bytes, and ledger — :func:`load_checkpoint` refuses a tampered or
truncated snapshot rather than resuming from silently wrong state.
Files are written atomically (tmp + rename) so a kill *during* a save
leaves the previous checkpoint intact.

On-disk layout (``ckpt-000003`` = the checkpoint taken after round 3)::

    <dir>/ckpt-000003.npz    per-rank blocks (rank_0, rank_1, ...)
    <dir>/ckpt-000003.json   manifest (schema repro.parallel.checkpoint/v1)
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.errors import ReproError
from repro.telemetry.log import emit as emit_event

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CheckpointError",
    "CheckpointHalt",
    "CheckpointConfig",
    "ClusterCheckpoint",
    "save_checkpoint",
    "load_checkpoint",
    "list_checkpoints",
]

#: Schema identifier stamped into every checkpoint manifest.
CHECKPOINT_SCHEMA = "repro.parallel.checkpoint/v1"


class CheckpointError(ReproError):
    """A checkpoint could not be saved, found, or verified."""


class CheckpointHalt(ReproError):
    """Deliberate halt after saving the requested checkpoint.

    Raised by the cluster runtime when ``CheckpointConfig.halt_after``
    names the round just completed — the deterministic "kill" the
    chaos suite and the CI smoke use to exercise resume.  Carries the
    saved checkpoint's path and round index.
    """

    def __init__(self, path: str, round_index: int) -> None:
        super().__init__(
            f"halted after checkpoint at round {round_index} ({path})"
        )
        self.path = path
        self.round_index = round_index


@dataclass(frozen=True)
class CheckpointConfig:
    """How a cluster run checkpoints.

    ``dir`` receives the snapshots; ``every`` saves at each N-th
    temporal-round barrier (1 = every round); ``halt_after`` stops the
    run (with :class:`CheckpointHalt`) right after saving at that round
    — the deterministic mid-run kill; ``keep`` bounds retained
    snapshots (oldest pruned first; ``None`` keeps all).
    """

    dir: str
    every: int = 1
    halt_after: int | None = None
    keep: int | None = None

    def __post_init__(self) -> None:
        if self.every < 1:
            raise CheckpointError(
                f"checkpoint interval must be >= 1, got {self.every}"
            )
        if self.keep is not None and self.keep < 1:
            raise CheckpointError(
                f"checkpoint keep must be >= 1, got {self.keep}"
            )


@dataclass
class ClusterCheckpoint:
    """One frozen cluster-run barrier (see the module docstring)."""

    plan_key: str
    round_index: int
    phases: list[int]
    steps: int
    exchanged_bytes: int
    round_log: list[dict[str, Any]]
    blocks: dict[int, np.ndarray]
    mesh: tuple[int, ...]
    global_shape: tuple[int, ...]
    trace_id: str | None = None
    fault_state: dict[str, Any] | None = None
    meta: dict[str, Any] = field(default_factory=dict)
    content_hash: str = ""
    path: str = ""


def _content_hash(
    plan_key: str,
    round_index: int,
    blocks: dict[int, np.ndarray],
    exchanged_bytes: int,
    round_log: list[dict[str, Any]],
) -> str:
    """SHA-256 binding the snapshot's state to its plan and ledger."""
    digest = hashlib.sha256()
    digest.update(plan_key.encode())
    digest.update(str(round_index).encode())
    digest.update(str(exchanged_bytes).encode())
    digest.update(
        json.dumps(round_log, sort_keys=True, separators=(",", ":")).encode()
    )
    for rank in sorted(blocks):
        arr = np.ascontiguousarray(blocks[rank], dtype=np.float64)
        digest.update(str(rank).encode())
        digest.update(str(arr.shape).encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()


def _paths(directory: str, round_index: int) -> tuple[str, str]:
    stem = os.path.join(directory, f"ckpt-{round_index:06d}")
    return stem + ".npz", stem + ".json"


def save_checkpoint(
    directory: str,
    *,
    plan_key: str,
    round_index: int,
    phases: list[int],
    steps: int,
    exchanged_bytes: int,
    round_log: list[dict[str, Any]],
    blocks: dict[int, np.ndarray],
    mesh: tuple[int, ...],
    global_shape: tuple[int, ...],
    trace_id: str | None = None,
    fault_state: dict[str, Any] | None = None,
    meta: dict[str, Any] | None = None,
    keep: int | None = None,
) -> ClusterCheckpoint:
    """Write one barrier snapshot atomically; returns the checkpoint."""
    os.makedirs(directory, exist_ok=True)
    npz_path, json_path = _paths(directory, round_index)
    arrays = {
        f"rank_{rank}": np.ascontiguousarray(block, dtype=np.float64)
        for rank, block in blocks.items()
    }
    block_bytes = sum(a.nbytes for a in arrays.values())
    content_hash = _content_hash(
        plan_key, round_index, blocks, exchanged_bytes, round_log
    )
    manifest = {
        "schema": CHECKPOINT_SCHEMA,
        "plan_key": plan_key,
        "round_index": round_index,
        "phases": [int(p) for p in phases],
        "steps": int(steps),
        "exchanged_bytes": int(exchanged_bytes),
        "round_log": round_log,
        "ranks": sorted(int(r) for r in blocks),
        "mesh": [int(m) for m in mesh],
        "global_shape": [int(n) for n in global_shape],
        "trace_id": trace_id,
        "fault_state": fault_state,
        "meta": meta or {},
        "content_hash": content_hash,
    }
    tmp_npz = npz_path + ".tmp"
    tmp_json = json_path + ".tmp"
    try:
        with open(tmp_npz, "wb") as fh:
            np.savez(fh, **arrays)
        with open(tmp_json, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        # blocks land before the manifest: a manifest on disk always
        # points at a complete npz
        os.replace(tmp_npz, npz_path)
        os.replace(tmp_json, json_path)
    except OSError as exc:
        for tmp in (tmp_npz, tmp_json):
            if os.path.exists(tmp):
                os.remove(tmp)
        raise CheckpointError(
            f"could not write checkpoint at round {round_index}: {exc}"
        ) from exc
    emit_event(
        "checkpoint.saved",
        message=f"checkpoint saved at round barrier {round_index}",
        round=round_index,
        path=json_path,
        block_bytes=block_bytes,
        ranks=len(blocks),
    )
    if keep is not None:
        for stale in list_checkpoints(directory)[:-keep]:
            for path in _paths(directory, stale):
                if os.path.exists(path):
                    os.remove(path)
    return ClusterCheckpoint(
        plan_key=plan_key,
        round_index=round_index,
        phases=[int(p) for p in phases],
        steps=int(steps),
        exchanged_bytes=int(exchanged_bytes),
        round_log=round_log,
        blocks=dict(blocks),
        mesh=tuple(mesh),
        global_shape=tuple(global_shape),
        trace_id=trace_id,
        fault_state=fault_state,
        meta=meta or {},
        content_hash=content_hash,
        path=json_path,
    )


def list_checkpoints(directory: str) -> list[int]:
    """Round indices with a complete snapshot, oldest first."""
    if not os.path.isdir(directory):
        return []
    rounds = []
    for name in os.listdir(directory):
        if name.startswith("ckpt-") and name.endswith(".json"):
            stem = name[len("ckpt-") : -len(".json")]
            if stem.isdigit():
                round_index = int(stem)
                npz_path, _ = _paths(directory, round_index)
                if os.path.exists(npz_path):
                    rounds.append(round_index)
    return sorted(rounds)


def load_checkpoint(
    directory: str, round_index: int | None = None
) -> ClusterCheckpoint:
    """Load (and verify) a snapshot; latest barrier by default."""
    rounds = list_checkpoints(directory)
    if not rounds:
        raise CheckpointError(f"no checkpoints found in {directory!r}")
    if round_index is None:
        round_index = rounds[-1]
    elif round_index not in rounds:
        raise CheckpointError(
            f"no checkpoint for round {round_index} in {directory!r}; "
            f"available: {rounds}"
        )
    npz_path, json_path = _paths(directory, round_index)
    try:
        with open(json_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(
            f"unreadable checkpoint manifest {json_path!r}: {exc}"
        ) from exc
    if manifest.get("schema") != CHECKPOINT_SCHEMA:
        raise CheckpointError(
            f"unsupported checkpoint schema {manifest.get('schema')!r} "
            f"(expected {CHECKPOINT_SCHEMA!r})"
        )
    try:
        with np.load(npz_path) as npz:
            blocks = {
                int(name[len("rank_") :]): np.array(
                    npz[name], dtype=np.float64
                )
                for name in npz.files
            }
    except (OSError, ValueError) as exc:
        raise CheckpointError(
            f"unreadable checkpoint blocks {npz_path!r}: {exc}"
        ) from exc
    expected = _content_hash(
        manifest["plan_key"],
        int(manifest["round_index"]),
        blocks,
        int(manifest["exchanged_bytes"]),
        manifest["round_log"],
    )
    if expected != manifest.get("content_hash"):
        raise CheckpointError(
            f"checkpoint {json_path!r} failed content verification — "
            "the snapshot was modified or truncated after it was saved"
        )
    emit_event(
        "checkpoint.restored",
        message=f"checkpoint restored from round barrier {round_index}",
        round=round_index,
        path=json_path,
        ranks=len(blocks),
    )
    return ClusterCheckpoint(
        plan_key=manifest["plan_key"],
        round_index=int(manifest["round_index"]),
        phases=[int(p) for p in manifest["phases"]],
        steps=int(manifest["steps"]),
        exchanged_bytes=int(manifest["exchanged_bytes"]),
        round_log=manifest["round_log"],
        blocks=blocks,
        mesh=tuple(int(m) for m in manifest["mesh"]),
        global_shape=tuple(int(n) for n in manifest["global_shape"]),
        trace_id=manifest.get("trace_id"),
        fault_state=manifest.get("fault_state"),
        meta=manifest.get("meta", {}),
        content_hash=manifest["content_hash"],
        path=json_path,
    )
