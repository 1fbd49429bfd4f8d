"""Honest finite-evidence classification of analytic conditions.

The analytic statements this package checks (a series converges, a
supremum is finite, a tail limit is zero) cannot be decided from a finite
window.  Every checker therefore returns a :class:`Verdict`: either the
quantity is finitely determined and the status is ``holds-exactly``, or the
sweep of partial quantities is classified as bounded / diverging /
inconclusive with the classification thresholds pinned here.

Thresholds:

* a fitted log-log slope above ``SLOPE_DIVERGING`` over the last half of
  the sweep marks divergence;
* exact stabilization, a relative increment below ``REL_INCREMENT_BOUNDED``
  over the last quarter, or increments decaying faster than
  ``N ** INCREMENT_DECAY_BOUNDED`` (summable-increment evidence; needed for
  slowly converging p-series tails) mark boundedness;
* anything else is inconclusive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

SLOPE_DIVERGING = 0.05
REL_INCREMENT_BOUNDED = 1e-6
INCREMENT_DECAY_BOUNDED = -1.1
DECAY_SLOPE = -0.05
ZERO_TOL = 1e-9


class Status(str, Enum):
    HOLDS_EXACTLY = "holds-exactly"
    EVIDENCE_BOUNDED = "evidence-bounded"
    EVIDENCE_DIVERGING = "evidence-diverging"
    INCONCLUSIVE = "inconclusive"


@dataclass
class Verdict:
    status: Status
    sweep: tuple = ()
    growth: float | None = None
    value: object | None = None
    label: str | None = None
    detail: dict = field(default_factory=dict)

    @property
    def is_exact(self) -> bool:
        return self.status is Status.HOLDS_EXACTLY

    def to_json(self) -> dict:
        out = {
            "status": self.status.value,
            "sweep": [[float(a), float(b)] for a, b in self.sweep],
        }
        if self.growth is not None:
            out["growth"] = self.growth
        if self.value is not None:
            out["value"] = str(self.value)
        if self.label is not None:
            out["label"] = self.label
        if self.detail:
            out["detail"] = {k: str(v) for k, v in self.detail.items()}
        return out


def sweep_points(window: int) -> list[int]:
    """The deepening depths at which an evidence sweep evaluates its
    quantity: 4, then steps of about 1.5x, ending at ``window``."""
    pts, w = [], 4
    while w < window:
        pts.append(w)
        w = max(w + 2, int(w * 1.5))
    pts.append(window)
    return sorted(set(pts))


def _fit_slope(points: list[tuple[float, float]]) -> float | None:
    """Least-squares slope of log(value) against log(index), over the
    points whose index and value are finite and positive."""
    pts = [(x, v) for x, v in points if 0 < x < math.inf and 0 < v < math.inf]
    if len(pts) < 2:
        return None
    xs = [math.log(x) for x, _ in pts]
    ys = [math.log(v) for _, v in pts]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    denom = sum((x - mx) ** 2 for x in xs)
    if denom == 0:
        return None
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / denom


def _tail(points, frac: float):
    cut = max(2, int(len(points) * frac))
    return points[-cut:]


def classify_growth(points, *, stabilized_exactly: bool = False) -> Verdict:
    """Classify a nonnegative quantity evaluated over a deepening sweep.

    ``points`` are (depth, value) pairs with increasing depth; the question
    is whether the quantity stays bounded as the depth grows.
    """
    pts = [(float(x), float(v)) for x, v in points]
    sweep = tuple(pts)
    if stabilized_exactly:
        return Verdict(Status.HOLDS_EXACTLY, sweep, growth=0.0)
    if len(pts) < 2:
        return Verdict(Status.INCONCLUSIVE, sweep)
    if all(v == 0 for _, v in pts):
        return Verdict(Status.EVIDENCE_BOUNDED, sweep, growth=0.0)

    slope = _fit_slope(_tail(pts, 0.5))
    if slope is not None and slope > SLOPE_DIVERGING:
        return Verdict(Status.EVIDENCE_DIVERGING, sweep, growth=slope)

    quarter = _tail(pts, 0.25)
    v_last = quarter[-1][1]
    v_first = quarter[0][1]
    if v_last > 0 and abs(v_last - v_first) / abs(v_last) < REL_INCREMENT_BOUNDED:
        return Verdict(Status.EVIDENCE_BOUNDED, sweep, growth=slope)
    if v_last == 0 and v_first == 0:
        return Verdict(Status.EVIDENCE_BOUNDED, sweep, growth=slope)

    increments = [
        (
            pts[i + 1][0],
            abs(pts[i + 1][1] - pts[i][1]) / (pts[i + 1][0] - pts[i][0]),
        )
        for i in range(len(pts) - 1)
        if pts[i + 1][0] > pts[i][0]
    ]
    inc_slope = _fit_slope([p for p in increments if p[1] > 0])
    if inc_slope is not None and inc_slope < INCREMENT_DECAY_BOUNDED:
        return Verdict(
            Status.EVIDENCE_BOUNDED, sweep, growth=slope,
            detail={"increment-decay": inc_slope},
        )
    return Verdict(Status.INCONCLUSIVE, sweep, growth=slope)


def classify_to_zero(points, *, stabilized_exactly: bool = False) -> Verdict:
    """Classify evidence that a nonnegative quantity tends to zero."""
    pts = [(float(x), float(v)) for x, v in points]
    sweep = tuple(pts)
    if stabilized_exactly:
        return Verdict(Status.HOLDS_EXACTLY, sweep, growth=0.0)
    if len(pts) < 2:
        return Verdict(Status.INCONCLUSIVE, sweep)
    tail = _tail(pts, 0.25)
    if all(v <= ZERO_TOL for _, v in tail):
        return Verdict(Status.EVIDENCE_BOUNDED, sweep, growth=None)
    slope = _fit_slope(_tail(pts, 0.5))
    if slope is not None and slope < DECAY_SLOPE:
        return Verdict(Status.EVIDENCE_BOUNDED, sweep, growth=slope)
    if slope is not None and slope > -1e-12 and tail[-1][1] > ZERO_TOL:
        return Verdict(Status.EVIDENCE_DIVERGING, sweep, growth=slope)
    return Verdict(Status.INCONCLUSIVE, sweep, growth=slope)


def conjunction(verdicts: list[Verdict], label: str | None = None) -> Verdict:
    """Combine per-condition verdicts into one: divergence dominates, then
    inconclusiveness; the conjunction is exact only if every part is."""
    statuses = [v.status for v in verdicts]
    if any(s is Status.EVIDENCE_DIVERGING for s in statuses):
        status = Status.EVIDENCE_DIVERGING
    elif any(s is Status.INCONCLUSIVE for s in statuses):
        status = Status.INCONCLUSIVE
    elif all(s is Status.HOLDS_EXACTLY for s in statuses):
        status = Status.HOLDS_EXACTLY
    else:
        status = Status.EVIDENCE_BOUNDED
    return Verdict(status, label=label, detail={"parts": [s.value for s in statuses]})
