"""Statistical trend gating over run-record history.

:func:`repro.telemetry.perf.history.compare_records` gates event
counters against one committed baseline — correct for deterministic
counters, but wall timings are noisy, and a single-point comparison
either cries wolf (tight threshold) or sleeps through slow drift
(loose threshold).  This module gates timings *statistically* against
the :class:`~repro.telemetry.perf.history.RunRecordStore` history:

* the reference is the rolling **median** of the last
  :data:`DEFAULT_WINDOW` historical timings (robust to a few outlier
  runs);
* the allowance is the **MAD** (median absolute deviation) of that
  window, scaled to a consistent-estimator sigma and multiplied by
  :data:`DEFAULT_MAD_SCALE` — machines with noisy clocks automatically
  get wider gates, quiet CI runners get tight ones;
* a relative floor (:data:`DEFAULT_REL_FLOOR`) keeps the gate
  meaningful when the history is suspiciously quiet (MAD near zero
  would otherwise flag sub-millisecond jitter).

``repro perf trend`` drives :func:`trend_gate` (exit 0 ok / 1
regressed / 2 insufficient history) over whatever the history holds;
it never measures.  ``repro perf check --repeats N --record DIR``
appends a fresh N-repeat-median measurement of the reference workload.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Any, Sequence

from repro.telemetry.perf.history import RunRecordStore

__all__ = [
    "DEFAULT_WINDOW",
    "DEFAULT_MAD_SCALE",
    "DEFAULT_REL_FLOOR",
    "MIN_HISTORY",
    "TrendStats",
    "mad",
    "timing_history",
    "trend_gate",
]

#: rolling window of historical timings the gate is computed over
DEFAULT_WINDOW = 8

#: MAD multiplier: latest > median + DEFAULT_MAD_SCALE * sigma(MAD) regresses
DEFAULT_MAD_SCALE = 4.0

#: minimum relative allowance even when the history's MAD is ~zero
DEFAULT_REL_FLOOR = 0.05

#: historical points (excluding the gated one) required to gate at all
MIN_HISTORY = 3

#: consistency constant: sigma ≈ 1.4826 * MAD for normal noise
MAD_TO_SIGMA = 1.4826


def mad(values: Sequence[float], center: float | None = None) -> float:
    """Median absolute deviation around ``center`` (default: median)."""
    if center is None:
        center = statistics.median(values)
    return statistics.median([abs(float(v) - center) for v in values])


@dataclass(frozen=True)
class TrendStats:
    """One gated metric: rolling stats, the gated value, the verdict.

    ``ok`` is ``None`` (not a verdict) when the history is too short;
    callers map that to the distinct exit code 2, so a freshly created
    history never masquerades as a pass.
    """

    name: str
    metric: str
    n_history: int
    center: float | None
    spread: float | None
    threshold: float | None
    latest: float | None
    ok: bool | None
    #: ``"above"`` gates values that must not rise (timings, imbalance);
    #: ``"below"`` gates values that must not fall (overlap efficiency)
    direction: str = "above"

    @property
    def insufficient(self) -> bool:
        """True when there was not enough history to gate."""
        return self.ok is None

    def render(self) -> str:
        """Multi-line human-readable verdict for the CLI."""
        lines = [
            f"trend gate for {self.name!r} ({self.metric}, "
            f"window {DEFAULT_WINDOW})"
        ]
        if self.insufficient:
            lines.append(
                f"  insufficient history: {self.n_history} prior point(s), "
                f"need >= {MIN_HISTORY}"
            )
            return "\n".join(lines)
        bound = "max" if self.direction == "above" else "min"
        verdict = "  -> OK — within the rolling gate"
        if not self.ok:
            verdict = (
                "  -> REGRESSED — latest exceeds the rolling gate"
                if self.direction == "above"
                else "  -> REGRESSED — latest falls below the rolling gate"
            )
        lines += [
            f"  history   {self.n_history} point(s) in window",
            f"  median    {self.center:.6g}",
            f"  MAD       {self.spread:.6g}",
            f"  threshold {self.threshold:.6g} ({bound} allowed)",
            f"  latest    {self.latest:.6g}",
            verdict,
        ]
        return "\n".join(lines)

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready form (stamped into run-records / CI artifacts)."""
        return {
            "name": self.name,
            "metric": self.metric,
            "n_history": self.n_history,
            "window": DEFAULT_WINDOW,
            "center": self.center,
            "spread": self.spread,
            "threshold": self.threshold,
            "latest": self.latest,
            "ok": self.ok,
            "direction": self.direction,
        }


def timing_history(
    records: Sequence[dict[str, Any]], metric: str = "timing_s"
) -> list[float]:
    """Extract ``extra.<metric>`` from run-records, oldest first.

    Records without the metric (e.g. counter-only stamps) are skipped —
    histories mix producers and the gate only cares about timed ones.
    """
    out: list[float] = []
    for record in records:
        value = (record.get("extra") or {}).get(metric)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            out.append(float(value))
    return out


def trend_gate(
    store: RunRecordStore,
    name: str,
    metric: str = "timing_s",
    direction: str = "above",
) -> TrendStats:
    """Gate the newest stored value against the rolling median/MAD window.

    The newest stored point is the *gated* value; the reference window
    is the up-to-:data:`DEFAULT_WINDOW` points before it.  With
    ``direction="above"`` (the default: timings, imbalance — smaller is
    better) the threshold is ``median + max(DEFAULT_MAD_SCALE * 1.4826 *
    MAD, DEFAULT_REL_FLOOR * |median|)`` and a latest above it
    regresses; with ``direction="below"`` (overlap efficiency — larger
    is better) the threshold is the median *minus* the same allowance
    and a latest below it regresses.  Noise-adaptive either way, with a
    relative floor.  Fewer than :data:`MIN_HISTORY` prior points yield
    ``ok=None`` (see :class:`TrendStats`).
    """
    if direction not in ("above", "below"):
        raise ValueError(
            f"direction must be 'above' or 'below', got {direction!r}"
        )
    timings = timing_history(store.load(name), metric=metric)
    latest = timings[-1] if timings else None
    history = timings[:-1][-DEFAULT_WINDOW:]
    if len(history) < MIN_HISTORY:
        return TrendStats(
            name=name,
            metric=metric,
            n_history=len(history),
            center=None,
            spread=None,
            threshold=None,
            latest=latest,
            ok=None,
            direction=direction,
        )
    center = statistics.median(history)
    spread = mad(history, center)
    allowance = max(
        DEFAULT_MAD_SCALE * MAD_TO_SIGMA * spread,
        DEFAULT_REL_FLOOR * abs(center),
    )
    if direction == "above":
        threshold = center + allowance
        ok = latest <= threshold
    else:
        threshold = center - allowance
        ok = latest >= threshold
    return TrendStats(
        name=name,
        metric=metric,
        n_history=len(history),
        center=center,
        spread=spread,
        threshold=threshold,
        latest=latest,
        ok=ok,
        direction=direction,
    )

