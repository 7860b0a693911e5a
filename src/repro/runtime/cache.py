"""LRU plan cache.

Compiling a :class:`~repro.runtime.plan.StencilPlan` runs the PMA/SVD
decomposition and builds every banded gather matrix and register
fragment — work that is identical for identical inputs.  The
:class:`PlanCache` memoizes plans under their content hash
(:func:`repro.runtime.plan.plan_key`), so a service compiling the same
kernels over and over pays the derivation once per distinct kernel, not
once per request.

The cache is a plain LRU: bounded size, least-recently-*used* eviction,
thread-safe (one lock around the ordered map — plan builds themselves
run outside the lock so concurrent compilations of *different* keys do
not serialize).  :meth:`PlanCache.stats` exposes hit/miss/eviction
counts for the CLI ``plan`` subcommand and capacity tuning.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

from repro.runtime.plan import StencilPlan
from repro.telemetry.spans import TRACER

__all__ = ["CacheStats", "PlanCache"]


@dataclass(frozen=True)
class CacheStats:
    """Counters describing one cache's lifetime behaviour."""

    hits: int
    misses: int
    evictions: int
    size: int
    maxsize: int

    @property
    def lookups(self) -> int:
        """Total keyed lookups (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def summary(self) -> str:
        """One-line rendering for CLI output."""
        return (
            f"{self.size}/{self.maxsize} plans, {self.hits} hits, "
            f"{self.misses} misses, {self.evictions} evictions "
            f"(hit rate {self.hit_rate:.0%})"
        )


class PlanCache:
    """Bounded LRU mapping plan keys to compiled plans."""

    def __init__(self, maxsize: int = 128) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._plans: OrderedDict[str, StencilPlan] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # -- mapping ----------------------------------------------------------
    def get(self, key: str) -> StencilPlan | None:
        """Return the cached plan for ``key`` (marking it recently used),
        or None.  Counts as a hit or miss."""
        with self._lock:
            plan = self._plans.get(key)
            if plan is None:
                self._misses += 1
                return None
            self._plans.move_to_end(key)
            self._hits += 1
            return plan

    def put(self, plan: StencilPlan) -> None:
        """Insert ``plan`` under its own key, evicting the LRU entry if
        the cache is full."""
        evicted: list[str] = []
        with self._lock:
            if plan.key in self._plans:
                self._plans.move_to_end(plan.key)
                self._plans[plan.key] = plan
                return
            while len(self._plans) >= self.maxsize:
                key, _ = self._plans.popitem(last=False)
                self._evictions += 1
                evicted.append(key)
            self._plans[plan.key] = plan
        for key in evicted:
            from repro.telemetry.log import emit

            emit(
                "plan_cache.evict",
                message="LRU eviction of a compiled plan",
                evicted_key=key,
                inserted_key=plan.key,
                maxsize=self.maxsize,
            )

    def get_or_build(
        self, key: str, builder: Callable[[], StencilPlan]
    ) -> StencilPlan:
        """Cached plan for ``key``, or ``builder()``'s result, cached.

        The build runs outside the lock; if two threads race on the same
        missing key both build, and the last insert wins — plans for
        equal keys are interchangeable, so this is benign.
        """
        with TRACER.span(
            "runtime.plan_cache.get_or_build", category="runtime"
        ) as sp:
            plan = self.get(key)
            if plan is not None:
                sp.annotate(key=key[:16], outcome="hit")
                return plan
            with TRACER.span("runtime.plan_cache.build", category="runtime"):
                plan = builder()
            if plan.key != key:
                raise ValueError(
                    f"builder produced plan {plan.key[:12]}… for key {key[:12]}…"
                )
            self.put(plan)
            sp.annotate(key=key[:16], outcome="miss")
            return plan

    # -- introspection ----------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._plans

    def keys(self) -> list[str]:
        """Cached plan keys, least- to most-recently used."""
        with self._lock:
            return list(self._plans)

    def stats(self) -> CacheStats:
        """Snapshot of the cache's hit/miss/eviction counters."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._plans),
                maxsize=self.maxsize,
            )

    def clear(self) -> None:
        """Drop every cached plan and zero the statistics."""
        with self._lock:
            self._plans.clear()
            self._hits = self._misses = self._evictions = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PlanCache({self.stats().summary()})"
