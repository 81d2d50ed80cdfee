"""Coupon decision engine.

Sweep a discrete grid of candidate intensities, score each by expected net
gain (click value times predicted uplift, minus the coupon cost) and by
uplift-to-cost ratio, then issue at the best intensity when both the ratio
threshold and positive-net-gain conditions hold.

predict_batch reports eta_hat as a click-probability gain per unit of
intensity, so the uplifted click probability at intensity q is the additive
min(p0_hat + q * eta_hat, 1 - PROB_EPS), nondecreasing in q. ``additive`` is
the one mode ``decide`` accepts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import PROB_EPS
from .errors import ConfigError, NumericError

MODES = ("additive",)
# the most candidate intensities a grid may hold, checked before any is built
# (the bench grid has 8)
MAX_GRID_POINTS = 1_000_000


@dataclass(frozen=True)
class AllocationGrid:
    q_min: float
    q_max: float
    step: float
    _values: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("q_min", "q_max", "step"):
            _require_finite(name, getattr(self, name))
        if not (0.0 < self.q_min <= self.q_max):
            raise ConfigError("need 0 < q_min <= q_max")
        if self.step <= 0.0:
            raise ConfigError("grid step must be positive")
        # counted in floats (inf for a step too small to divide by) before any value is built
        count = np.floor(float(self.q_max - self.q_min) / float(self.step) + 1e-9) + 1
        if count > MAX_GRID_POINTS:
            raise ConfigError(f"grid q_min={self.q_min}, q_max={self.q_max}, step={self.step} "
                              f"has {count:.7g} points, more than MAX_GRID_POINTS = "
                              f"{MAX_GRID_POINTS}")
        values = self.q_min + self.step * np.arange(int(count))
        values.flags.writeable = False
        object.__setattr__(self, "_values", values)

    def values(self) -> np.ndarray:
        """The candidate intensities q_min + step * i, built once, read-only."""
        return self._values


@dataclass
class AllocationDecision:
    issue: bool
    q_star: float            # 0 when withheld
    expected_uplift: float   # uplift at the best candidate intensity
    ratio: float             # value * uplift / cost at the best candidate
    net_gain: float          # value * uplift - cost at the best candidate


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value}")


def _click_prob(p0: float, eta: float, q, mode: str):
    if mode not in MODES:
        raise ConfigError(f"unknown decision mode {mode!r}")
    return np.minimum(p0 + eta * q, 1.0 - PROB_EPS)


def decide(prediction, grid: AllocationGrid, value_per_click: float,
           threshold: float, mode: str = "additive") -> AllocationDecision:
    """Pick q* = argmax net gain over the grid (ties go to the cheapest q);
    issue iff ratio(q*) >= threshold and net_gain(q*) > 0. A NaN or infinite
    knob raises ConfigError, a NaN or infinite prediction NumericError."""
    _require_finite("value_per_click", value_per_click)
    _require_finite("threshold", threshold)
    if value_per_click <= 0:
        raise ConfigError("value_per_click must be positive")
    qs = grid.values()
    if qs.size == 0:
        raise ConfigError("allocation grid is empty")
    p0, eta = float(prediction.p0_hat), float(prediction.eta_hat)
    if not (math.isfinite(p0) and math.isfinite(eta)):
        raise NumericError(f"prediction is not finite: p0_hat={p0}, eta_hat={eta}")
    uplift = _click_prob(p0, eta, qs, mode) - p0
    net_gain = value_per_click * uplift - qs
    best = int(net_gain.argmax())  # the first maximum, so ties go to the cheapest q
    q_star, uplift, net_gain = qs.item(best), uplift.item(best), net_gain.item(best)
    ratio = value_per_click * uplift / q_star
    issue = ratio >= threshold and net_gain > 0
    return AllocationDecision(issue, q_star if issue else 0.0, uplift, ratio, net_gain)
