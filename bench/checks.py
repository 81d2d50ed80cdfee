"""Reference computations made apart from the program.

Each function recomputes one output of the library by another route (scipy,
``np.polyfit``, a numpy brute force) or tests a property the method must
have. They return a list of failure messages; an empty list means the check
passed.
"""
from __future__ import annotations

import numpy as np
from scipy.stats import mannwhitneyu

from unimvt.autodiff import PROB_EPS


def brute_force_decisions(p0, eta, qs, value, threshold):
    """The documented additive rule over a (users x grid) matrix.

    uplift(q) = min(p0 + eta q, 1 - PROB_EPS) - p0, net(q) = value uplift(q) - q;
    q* is the first (cheapest) q of maximal net gain; issue iff
    value uplift(q*) / q* >= threshold and net(q*) > 0.
    """
    p0 = np.asarray(p0, dtype=np.float64)[:, None]
    eta = np.asarray(eta, dtype=np.float64)[:, None]
    uplift = np.minimum(p0 + eta * qs[None, :], 1.0 - PROB_EPS) - p0
    net = value * uplift - qs[None, :]
    best = np.argmax(net, axis=1)
    rows = np.arange(net.shape[0])
    ratio = value * uplift[rows, best] / qs[best]
    issue = (ratio >= threshold) & (net[rows, best] > 0)
    return issue, np.where(issue, qs[best], 0.0)


def check_decisions(issue, q_star, p0, eta, qs, value, threshold, label) -> list[str]:
    ref_issue, ref_q = brute_force_decisions(p0, eta, qs, value, threshold)
    bad = np.flatnonzero((ref_issue != issue) | (ref_q != q_star))
    if bad.size:
        i = bad[0]
        return [f"{label}: {bad.size} decisions differ from the brute force, first at "
                f"user {i}: issue {issue[i]} q* {q_star[i]} against {ref_issue[i]} {ref_q[i]}"]
    return []


def check_auc(labels, scores, auc, label) -> list[str]:
    labels = np.asarray(labels)
    pos, neg = scores[labels == 1], scores[labels == 0]
    ref = mannwhitneyu(pos, neg).statistic / (pos.size * neg.size)
    if abs(ref - auc) > 1e-12:
        return [f"{label}: AUC {auc!r} differs from Mann-Whitney U/(n+ n-) {ref!r}"]
    return []


def cs_qini_reference(scores, t, y, k: int = 100) -> float:
    """CS-Qini by a per-prefix OLS fit and the trapezoid rule.

    Rows are ranked by score, descending with stable ties. For each prefix of
    ceil(j n / k) rows that has dose variance, the slope of y on t comes from
    ``np.polyfit``; the area is taken under (phi, (slope - global slope) phi n),
    anchored at the origin when the first prefix is defined.
    """
    order = np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")
    ts = np.asarray(t, dtype=np.float64)[order]
    ys = np.asarray(y, dtype=np.float64)[order]
    n = ts.size
    global_slope = np.polyfit(ts, ys, 1)[0]
    phis, gains = [], []
    for j in range(1, k + 1):
        m = -(-j * n // k)
        if np.ptp(ts[:m]) == 0.0:
            continue
        phi = j / k
        phis.append(phi)
        gains.append((np.polyfit(ts[:m], ys[:m], 1)[0] - global_slope) * phi * n)
    if phis and phis[0] == 1 / k:
        phis, gains = [0.0] + phis, [0.0] + gains
    return float(np.trapezoid(gains, phis)) if len(phis) > 1 else 0.0


def check_cs_qini(scores, t, y, qini, label) -> list[str]:
    ref = cs_qini_reference(scores, t, y)
    if abs(ref - qini) > 1e-6 * max(1.0, abs(ref)):
        return [f"{label}: CS-Qini {qini!r} differs from the per-prefix OLS figure {ref!r}"]
    return []


def check_prediction_ranges(pred, t_min, t_max, label) -> list[str]:
    """Properties every UniMVT prediction has by construction."""
    failures = []
    for key in ("p0_hat", "pt_hat"):
        p = pred[key]
        if not np.all((p > 0.0) & (p < 1.0)):
            failures.append(f"{label}: {key} leaves (0, 1)")
    if not np.all((pred["t_hat"] >= t_min) & (pred["t_hat"] <= t_max)):
        failures.append(f"{label}: t_hat leaves [t_min, t_max] = [{t_min}, {t_max}]")
    if not np.all(pred["eta_hat"] >= 0.0):
        failures.append(f"{label}: eta_hat is negative")
    if not np.array_equal(pred["tau_hat"], pred["t_hat"] * pred["eta_hat"]):
        failures.append(f"{label}: tau_hat is not t_hat * eta_hat")
    return failures
