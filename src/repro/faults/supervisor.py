"""The reusable recovery-ladder supervisor for fanned-out workers.

Extracted from ``Runtime.apply_simulated_sharded`` so every fan-out in
the repository — sharded sweeps, cluster ranks, multi-process temporal
rounds — runs under the *same* PR 5 ladder with the same structured
events and ledger semantics:

    timeout / crash → capped exponential-backoff resubmission
    (``policy.shard_retries`` rounds) → inline recomputation in the
    calling thread → typed :class:`~repro.errors.FaultError`.

Every decision the supervisor takes — a timeout, a crash, a backoff
delay, a recovery — lands in the structured event log under the
``shard.*`` kinds the chaos suite consumes; resubmissions count into
the :class:`~repro.faults.FaultReport`'s ``shard_retries``.

Workers are callables ``worker(i, *args)`` over ``tasks`` (a mapping of
index → argument tuple); the supervisor is agnostic to what a task *is*
— a shard's row range, a cluster rank, a grid of a batch — callers pass
``describe`` to label events (defaults to the sharded executor's
``s0:s1`` row range) and ``title`` to name a failed task in errors.

With ``policy=None`` there is no ladder: it is the plain fan-out every
unsupervised path shares (simulated batches, unsupervised sharded
sweeps, non-fault cluster ranks).  Each task runs once on the pool and
nothing is retried, logged or counted; the first failure in task order
propagates, a :class:`~repro.errors.ReproError` as is and anything else
wrapped in a typed :class:`~repro.errors.ExecutionError` naming the
task.

Every call runs on one process-wide thread pool, built on first use
and kept for the life of the process (a forked child builds its own).
A call's tasks queue in call order and at most ``max_workers`` of them
run at once, as on a private pool of that size.  A call made from
inside a pool task runs its tasks in the calling thread instead, one
at a time, so a nested fan-out never waits on workers its caller
occupies; such a call's timeouts cannot fire, since a task it runs
itself has finished by the time it is awaited.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures import wait as futures_wait
from typing import Any, Callable, Mapping

from repro.errors import ExecutionError, FaultError, ReproError
from repro.telemetry.log import emit as emit_event

__all__ = ["supervise_tasks", "backoff_delay"]


#: workers of the process's one pool: one per core.  Every worker that
#: runs a task keeps its own malloc arena, so a larger pool that rotates
#: a call's few tasks over more threads only holds more memory.
_POOL_SIZE = os.cpu_count() or 1
_POOL: ThreadPoolExecutor | None = None
_POOL_LOCK = threading.Lock()
_IN_POOL = threading.local()


def _mark_worker() -> None:
    _IN_POOL.worker = True


def _pool() -> ThreadPoolExecutor:
    """The process-wide worker pool every fan-out shares.

    Built on first use with all :data:`_POOL_SIZE` workers started at
    once, so the worker set is fixed from the first call on: a later
    submit never finds every worker busy-but-finishing and starts
    another.
    """
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            pool = ThreadPoolExecutor(
                _POOL_SIZE, thread_name_prefix="repro-worker",
                initializer=_mark_worker,
            )
            gate = threading.Barrier(_POOL_SIZE + 1)
            for _ in range(_POOL_SIZE):
                pool.submit(gate.wait)
            gate.wait()
            _POOL = pool
        return _POOL


def _forget_pool() -> None:
    """A forked child has none of the parent's worker threads."""
    global _POOL, _POOL_LOCK, _IN_POOL
    _POOL = None
    _POOL_LOCK = threading.Lock()
    _IN_POOL = threading.local()


if hasattr(os, "register_at_fork"):  # POSIX only
    os.register_at_fork(after_in_child=_forget_pool)


def _call(gate: threading.Semaphore, fn: Callable, args: tuple):
    """One task, run once its call's ``gate`` admits it."""
    with gate:
        return fn(*args)


def _fan_out(gate: threading.Semaphore, fn: Callable, *args) -> Future:
    """Submit one task to the pool, or run it here on a pool worker."""
    if not getattr(_IN_POOL, "worker", False):
        return _pool().submit(_call, gate, fn, args)
    future: Future = Future()
    try:
        future.set_result(_call(gate, fn, args))
    except Exception as exc:
        future.set_exception(exc)
    return future


def _default_describe(args: tuple) -> str:
    if len(args) == 2:
        return f"{args[0]}:{args[1]}"
    return ":".join(str(a) for a in args)


def _failed(title: str, i: int, n: int, label: str, exc) -> ExecutionError:
    """The typed error for task ``i`` of ``n`` failing with ``exc``."""
    return ExecutionError(
        f"{title.format(i=i, n=n, label=label)} failed: {exc}"
    )


def backoff_delay(policy, attempt: int, task: int) -> float:
    """The jittered capped-exponential delay for one resubmission.

    The base delay doubles per attempt up to ``policy.backoff_cap_s``;
    jitter scales it by ``1 + backoff_jitter * u`` with ``u ∈ [0, 1)``
    hashed from ``(backoff_seed, attempt, task)``, so two tasks failing
    in the same round back off by *different* amounts (no lockstep
    resubmission thundering into the pool) while any given
    ``(seed, attempt, task)`` triple always yields the same delay —
    chaos campaigns stay bit-reproducible.
    """
    base = min(policy.backoff_cap_s, policy.backoff_base_s * (2.0**attempt))
    jitter = getattr(policy, "backoff_jitter", 0.0)
    if base <= 0 or jitter <= 0:
        return base
    seed = getattr(policy, "backoff_seed", 0)
    digest = hashlib.sha256(
        f"{seed}:{attempt}:{task}".encode("ascii")
    ).digest()
    u = int.from_bytes(digest[:8], "big") / 2.0**64
    return base * (1.0 + jitter * u)


def supervise_tasks(
    tasks: Mapping[int, tuple],
    worker: Callable[..., Any],
    policy=None,
    report=None,
    max_workers: int | None = None,
    describe: Callable[[tuple], str] | None = None,
    title: str = "shard {i} of {n} (rows {label})",
) -> dict[int, Any]:
    """Run ``worker(i, *tasks[i])`` for every task on the shared pool.

    Returns ``{i: result}`` for every task or raises — never a partial
    result set; under a ladder, a typed
    :class:`~repro.errors.FaultError` once it is exhausted.  ``policy`` is a
    :class:`repro.faults.RecoveryPolicy`, or ``None`` for the plain
    fan-out without a ladder (see the module docstring); ``report`` a
    :class:`repro.faults.FaultReport` the ladder's counters fold into.
    A worker failing with anything but a
    :class:`~repro.errors.ReproError` raises an
    :class:`~repro.errors.ExecutionError` whose message starts with
    ``title`` formatted with the task index ``i``, the task count ``n``
    and the ``describe`` label.

    At most ``max_workers`` (default: the pool's size) of the call's
    tasks run at once, and the call returns only once every task it
    submitted has finished — a timed-out task included.
    """
    describe = describe or _default_describe
    if max_workers is not None and max_workers <= 0:
        raise ValueError("max_workers must be greater than 0")
    gate = threading.Semaphore(max_workers or _POOL_SIZE)
    submitted: list[Future] = []

    def submit(i: int, args: tuple) -> Future:
        submitted.append(_fan_out(gate, worker, i, *args))
        return submitted[-1]

    results: dict[int, Any] = {}
    pending = dict(tasks)
    failed_ever: set[int] = set()
    stagger: dict[int, float] = {}
    attempt = 0
    try:
        if policy is None:
            futures = {i: submit(i, tasks[i]) for i in tasks}
            for i in sorted(futures):
                try:
                    results[i] = futures[i].result()
                except ReproError:
                    raise
                except Exception as exc:
                    label = describe(tasks[i])
                    raise _failed(title, i, len(tasks), label, exc) from exc
            return results
        while pending:
            # resubmissions are staggered: each task waits out its own
            # jittered delay before entering the pool, so retries fan
            # back in spread over time instead of in lockstep
            futures = {}
            waited = 0.0
            for i in sorted(
                pending, key=lambda j: (stagger.get(j, 0.0), j)
            ):
                delay = stagger.get(i, 0.0)
                if delay > waited:
                    time.sleep(delay - waited)
                    waited = delay
                futures[i] = submit(i, pending[i])
            stagger = {}
            failed: dict[int, tuple] = {}
            for i, future in sorted(futures.items()):
                label = describe(pending[i])
                try:
                    results[i] = future.result(
                        timeout=policy.shard_timeout_s
                    )
                    if i in failed_ever:
                        report.bump("shard_recoveries")
                        emit_event(
                            "shard.recovered",
                            message=f"shard {i} recovered on resubmission",
                            shard=i,
                            rows=label,
                            attempt=attempt,
                        )
                except FutureTimeoutError:
                    report.bump("shard_timeouts")
                    emit_event(
                        "shard.timeout",
                        level="warning",
                        message=(
                            f"shard {i} exceeded the "
                            f"{policy.shard_timeout_s}s policy timeout"
                        ),
                        shard=i,
                        rows=label,
                        timeout_s=policy.shard_timeout_s,
                        attempt=attempt,
                    )
                    failed[i] = pending[i]
                except FaultError as exc:
                    # injected crash, or a task whose own recovery
                    # ladder was exhausted — worth a fresh attempt
                    report.bump("shard_crashes")
                    emit_event(
                        "shard.crash",
                        level="warning",
                        message=f"shard {i} crashed: {exc}",
                        shard=i,
                        rows=label,
                        attempt=attempt,
                    )
                    failed[i] = pending[i]
                except ReproError:
                    raise
                except Exception as exc:
                    raise _failed(title, i, len(tasks), label, exc) from exc
            failed_ever.update(failed)
            pending = failed
            if not pending or attempt >= policy.shard_retries:
                break
            stagger = {
                i: backoff_delay(policy, attempt, i) for i in pending
            }
            max_delay = max(stagger.values(), default=0.0)
            emit_event(
                "shard.backoff",
                message=(
                    f"backing off up to {max_delay:.3f}s before "
                    f"resubmitting {len(pending)} shard(s)"
                ),
                delay_s=max_delay,
                delays={str(i): round(d, 6) for i, d in sorted(stagger.items())},
                attempt=attempt,
                shards=sorted(pending),
            )
            report.bump("shard_retries", len(pending))
            attempt += 1
    finally:
        futures_wait(submitted)
    for i in sorted(pending):
        label = describe(pending[i])
        how, cause = "(inline fallback disabled)", None
        if policy.inline_fallback:
            emit_event(
                "shard.inline_recovery",
                level="warning",
                message=(
                    f"recomputing shard {i} inline after "
                    f"{policy.shard_retries} backoff retries"
                ),
                shard=i,
                rows=label,
            )
            try:
                results[i] = worker(i, *pending[i])
                report.bump("shard_inline_recoveries")
                continue
            except Exception as exc:
                how, cause = f"and inline recomputation: {exc}", exc
        report.bump("unrecovered")
        emit_event(
            "shard.unrecovered",
            level="error",
            message=f"shard {i} exhausted the recovery ladder",
            shard=i,
            rows=label,
        )
        error = FaultError(
            f"shard {i} ({label}) failed after "
            f"{policy.shard_retries} backoff retries {how}"
        )
        error.failed_task = i
        raise error from cause
    return results
