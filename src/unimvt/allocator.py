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
import numbers
from dataclasses import dataclass, field

import numpy as np

from .autodiff import PROB_EPS
from .config import _real
from .errors import ConfigError, DataFormatError, NumericError

# the most candidate intensities a grid may hold, checked before any is built
# (the bench grid has 8)
MAX_GRID_POINTS = 1_000_000


@dataclass(frozen=True)
class AllocationGrid:
    """Candidate intensities q_min + step * i up to q_max: at least one point,
    q_min itself. ConfigError names a field that is not a finite number (a
    bool or str is not one), breaks 0 < q_min <= q_max or step > 0, or gives
    over MAX_GRID_POINTS points."""

    q_min: float
    q_max: float
    step: float
    _values: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _real(self.q_min, "q_min", 0.0, above=True)
        _real(self.q_max, "q_max")
        _real(self.step, "step", 0.0, above=True)
        if self.q_min > self.q_max:
            raise ConfigError(f"need q_min <= q_max, got {self.q_min} > {self.q_max}")
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


def _prediction_field(value, name: str) -> float:
    """value as a float; DataFormatError names the field unless value is a
    real number within the float range (a bool, str, bytes, array, list or
    complex is not one). A float, what ``predict`` returns, costs a type test."""
    if type(value) is float:
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DataFormatError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise DataFormatError(f"{name} must lie in the float range, got "
                              f"{type(value).__name__} beyond it") from None


def decide(prediction, grid: AllocationGrid, value_per_click: float,
           threshold: float, mode: str = "additive") -> AllocationDecision:
    """Pick q* = argmax net gain over the grid (ties go to the cheapest q);
    issue iff ratio(q*) >= threshold and net_gain(q*) > 0. ConfigError names
    value_per_click unless it is a finite number above 0, threshold unless it
    is a finite number (a bool, a string or NaN is not one), and any mode but
    ``additive``. DataFormatError names p0_hat or eta_hat when it is not a
    real number, and a NaN or infinite one raises NumericError."""
    if mode != "additive":
        raise ConfigError(f"unknown decision mode {mode!r}")
    _real(value_per_click, "value_per_click", 0.0, above=True)
    _real(threshold, "threshold")
    qs = grid.values()
    p0 = _prediction_field(prediction.p0_hat, "p0_hat")
    eta = _prediction_field(prediction.eta_hat, "eta_hat")
    if not (math.isfinite(p0) and math.isfinite(eta)):
        raise NumericError(f"prediction is not finite: p0_hat={p0}, eta_hat={eta}")
    uplift = np.minimum(p0 + eta * qs, 1.0 - PROB_EPS) - p0
    net_gain = value_per_click * uplift - qs
    best = int(net_gain.argmax())  # the first maximum, so ties go to the cheapest q
    q_star, uplift, net_gain = qs.item(best), uplift.item(best), net_gain.item(best)
    ratio = value_per_click * uplift / q_star
    issue = ratio >= threshold and net_gain > 0
    return AllocationDecision(issue, q_star if issue else 0.0, uplift, ratio, net_gain)
