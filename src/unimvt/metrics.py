"""Evaluation suite: AUC, LogLoss, calibration ratios, and the cumulative-slope
uplift metrics for multi-valued treatments.

The cumulative-slope curve sorts samples by predicted unit uplift (descending,
stable ties), then measures, for each prefix of the ranking whose doses
differ, the OLS slope of outcome on dose within that prefix; the whole
ranking, the last prefix, gives the global slope. Area under phi -> slope(phi)
* (phi * n) gives the rank-ordered sensitivity score; subtracting the
global-slope baseline gives the gain over random targeting.

Every input must hold numbers, bools reading as 0 or 1: a string or complex
one raises DataFormatError. Scores and probabilities must be finite, one per
row, and labels 0 or 1; the dose, treatment and outcome columns must be finite
and of one length. A NaN or infinite entry, a label other than 0 or 1, or a
count that differs from the labels or rows raises MetricUndefinedError naming
the column.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.stats import rankdata

from .autodiff import PROB_EPS
from .config import _integer
from .datagen import Dataset, dataset_arrays, float_array
from .errors import ConfigError, MetricUndefinedError

DEFAULT_GRID = 100


def _finite_vector(values, n: int, what: str) -> np.ndarray:
    """values as a float64 vector of n entries; another length, or a NaN or
    infinite entry, raises MetricUndefinedError, and values that are not
    numbers DataFormatError (``datagen.float_array``)."""
    v = float_array(values, f"{what} values").reshape(-1)
    if v.size != n:
        raise MetricUndefinedError(f"{v.size} {what} values for {n} rows")
    if not np.isfinite(v).all():
        i = int(np.flatnonzero(~np.isfinite(v))[0])
        raise MetricUndefinedError(f"{what} at index {i} is {v[i]}, not finite")
    return v


def _binary_labels(labels) -> np.ndarray:
    """labels as a float64 vector; an entry other than 0 or 1 raises
    MetricUndefinedError."""
    y = float_array(labels, "labels").reshape(-1)
    bad = np.flatnonzero((y != 0.0) & (y != 1.0))
    if bad.size:
        raise MetricUndefinedError(f"label at index {bad[0]} is {y[bad[0]]}, not 0 or 1")
    return y


def _columns(cols, names) -> tuple[np.ndarray, ...]:
    """The columns, named by ``names``, as float64 vectors of one length; a
    column of another length than the first, or a NaN or infinite entry,
    raises MetricUndefinedError naming the column."""
    cols = [float_array(c, f"column {name}").reshape(-1) for c, name in zip(cols, names)]
    for c, name in zip(cols, names):
        if c.size != cols[0].size:
            raise MetricUndefinedError(f"column {name} has {c.size} values, "
                                       f"column {names[0]} has {cols[0].size}")
    return tuple(_finite_vector(c, c.size, name) for c, name in zip(cols, names))


def auc(labels, scores) -> float:
    """Probability that a random positive outranks a random negative; ties count 1/2."""
    y = _binary_labels(labels)
    s = _finite_vector(scores, y.size, "score")
    pos = y == 1
    n_pos, n_neg = int(pos.sum()), int((~pos).sum())
    if n_pos == 0 or n_neg == 0:
        raise MetricUndefinedError("AUC needs both classes present")
    ranks = rankdata(s)  # average ranks handle ties as 1/2
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def logloss(labels, probs) -> float:
    """Mean negative log-likelihood with probabilities clamped into (0, 1);
    no rows raise MetricUndefinedError."""
    y = _binary_labels(labels)
    if y.size == 0:
        raise MetricUndefinedError("LogLoss needs at least one row")
    p = np.clip(_finite_vector(probs, y.size, "probability"), PROB_EPS, 1.0 - PROB_EPS)
    return float(-(y * np.log(p) + (1.0 - y) * np.log1p(-p)).mean())


def _dose_outcome(data) -> tuple[np.ndarray, np.ndarray]:
    """(t, y) as float vectors from a Dataset or from a (t, y) array pair."""
    if isinstance(data, Dataset):
        _, _, t, y, _, _ = dataset_arrays(data)
    else:
        t, y = data
    return _columns((t, y), ("t", "y"))


@dataclass
class CumulativeSlopeCurve:
    """Prefix-slope curve on a k/K grid, with the trapezoid areas derived from it."""

    phis: np.ndarray            # defined grid points, strictly increasing
    betas: np.ndarray           # slope at each defined point
    beta_global: float
    n: int
    include_origin: bool        # anchor (0, 0) participates iff the first grid point is defined

    def _integrate(self, values: np.ndarray) -> float:
        phis = self.phis
        if self.include_origin:
            phis = np.concatenate([[0.0], phis])
            values = np.concatenate([[0.0], values])
        if phis.size < 2:
            return 0.0
        return float(np.trapezoid(values, phis))

    def auuc(self) -> float:
        return self._integrate(self.betas * self.phis * self.n)

    def baseline_area(self) -> float:
        return self._integrate(self.beta_global * self.phis * self.n)

    def qini(self) -> float:
        return self._integrate((self.betas - self.beta_global) * self.phis * self.n)


def cumulative_slope_curve(scores, data, k: int = DEFAULT_GRID) -> CumulativeSlopeCurve:
    """Build the curve: sort by score descending (stable) and take, from one
    pass over prefix sums, the slope of every prefix of ceil(j*n/K) rows,
    j = 1..K. A prefix counts only when its doses differ; the last one, all
    n rows, gives the global slope, and MetricUndefinedError says so when
    the whole ranking has one dose."""
    t, y = _dose_outcome(data)
    n = t.shape[0]
    if n == 0:
        raise MetricUndefinedError("empty dataset")
    _integer(k, "grid size k")
    order = np.argsort(-_finite_vector(scores, n, "score"), kind="stable")
    ts, ys = t[order], y[order]
    j = np.arange(1, k + 1)
    m = (j * n + k - 1) // k  # integer ceil of j*n/k, so m = n at j = K
    ct, cy = np.cumsum(ts)[m - 1], np.cumsum(ys)[m - 1]
    var = np.cumsum(ts * ts)[m - 1] - ct ** 2 / m
    cov = np.cumsum(ts * ys)[m - 1] - ct * cy / m
    # exact: var alone reads the rounding of a one-dose prefix such as 0.7s as variance
    defined = (np.maximum.accumulate(ts)[m - 1] > np.minimum.accumulate(ts)[m - 1]) & (var > 0.0)
    if not defined[-1]:
        raise MetricUndefinedError("dataset has no dose variance (needs treated and control rows)")
    betas = cov[defined] / var[defined]
    return CumulativeSlopeCurve(phis=j[defined] / k, betas=betas, beta_global=float(betas[-1]),
                                n=n, include_origin=bool(defined[0]))


def cs_auuc(scores, data, k: int = DEFAULT_GRID) -> float:
    return cumulative_slope_curve(scores, data, k).auuc()


def cs_qini(scores, data, k: int = DEFAULT_GRID) -> float:
    return cumulative_slope_curve(scores, data, k).qini()


def pcoc(pred_probs, data, edges: Sequence[float]) -> list[tuple[str, float, int]]:
    """Predicted-over-observed click ratio per intensity bin, on a Dataset or
    on a (w, t, y) array triple.

    Control rows (w == 0) form their own bin; treated rows are grouped into
    [edges[i], edges[i+1]) intervals, an infinite edge giving an open-ended
    bin. Bins without rows or without a positive observation are omitted. A
    NaN edge raises ConfigError naming its index.
    """
    if isinstance(data, Dataset):
        _, w, t, y, _, _ = dataset_arrays(data)
    else:
        w, t, y = data
    w, t, y = _columns((w, t, y), ("w", "t", "y"))
    p = _finite_vector(pred_probs, len(w), "probability")
    edges = float_array(edges, "pcoc edges").reshape(-1)
    nan = np.flatnonzero(np.isnan(edges))
    if nan.size:
        raise ConfigError(f"pcoc edge {nan[0]} is NaN")
    edges = np.sort(edges).tolist()
    out = []

    def emit(label, mask):
        count = int(mask.sum())
        if count == 0:
            return
        observed = float(y[mask].mean())
        if observed <= 0.0:
            return
        out.append((label, float(p[mask].mean()) / observed, count))

    emit("control", w == 0)
    for lo, hi in zip(edges, edges[1:]):
        emit(f"[{lo:g},{hi:g})", (w == 1) & (t >= lo) & (t < hi))
    return out
