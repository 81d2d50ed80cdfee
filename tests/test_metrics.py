"""Metric correctness against hand counts and a brute-force prefix-OLS oracle."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from unimvt import metrics as mt
from unimvt.errors import ConfigError, DataFormatError, MetricUndefinedError


# ---------------------------------------------------------------------------
# brute-force oracle: recompute every prefix slope independently, integrate
# with an explicit trapezoid loop. Shares nothing with the production path
# except the grid/anchoring contract.
# ---------------------------------------------------------------------------

def oracle_curve(scores, t, y, k):
    order = np.argsort(-np.asarray(scores, float), kind="stable")
    ts, ys = np.asarray(t, float)[order], np.asarray(y, float)[order]
    n = len(ts)
    pts = []
    for j in range(1, k + 1):
        m = int(np.ceil(j * n / k - 1e-9))
        tp, yp = ts[:m], ys[:m]
        if np.ptp(tp) == 0:  # np.var([0.7] * 3) is 1.2e-32, not 0
            continue
        beta = np.cov(tp, yp, bias=True)[0, 1] / np.var(tp)
        pts.append((j / k, beta, j))
    g = np.cov(ts, ys, bias=True)[0, 1] / np.var(ts)
    return pts, g, n


def oracle_trapz(xs, vs):
    total = 0.0
    for i in range(1, len(xs)):
        total += 0.5 * (vs[i] + vs[i - 1]) * (xs[i] - xs[i - 1])
    return total


def oracle_areas(scores, t, y, k):
    pts, g, n = oracle_curve(scores, t, y, k)
    xs = [p for p, _, _ in pts]
    auuc_vs = [b * p * n for p, b, _ in pts]
    qini_vs = [(b - g) * p * n for p, b, _ in pts]
    if pts and pts[0][2] == 1:
        xs = [0.0] + xs
        auuc_vs = [0.0] + auuc_vs
        qini_vs = [0.0] + qini_vs
    return oracle_trapz(xs, auuc_vs), oracle_trapz(xs, qini_vs), g


def random_dataset(rng, n):
    t = np.where(rng.uniform(size=n) < 0.5, 0.0, rng.choice([0.7, 1.0, 2.0, 3.0], size=n))
    if np.ptp(t) == 0:  # force mixed doses
        t[0], t[1] = 0.0, 2.0
    y = rng.integers(0, 2, size=n).astype(float)
    scores = rng.normal(size=n)
    return scores, t, y


# ---------------------------------------------------------------------------
# auc / logloss
# ---------------------------------------------------------------------------

def test_auc_perfect_and_inverted():
    assert mt.auc([0, 1], [0.1, 0.9]) == 1.0
    assert mt.auc([0, 1], [0.9, 0.1]) == 0.0


def test_auc_handles_ties_as_half():
    # pairs: 4 total, 3 concordant, 1 tied -> (3 + 0.5) / 4
    assert mt.auc([0, 1, 1, 0], [0.2, 0.3, 0.2, 0.1]) == pytest.approx(0.875, abs=1e-12)


def test_auc_single_class_is_undefined():
    with pytest.raises(MetricUndefinedError):
        mt.auc([1, 1], [0.2, 0.3])


def test_logloss_of_no_rows_is_undefined():
    with pytest.raises(MetricUndefinedError, match="LogLoss needs at least one row"):
        mt.logloss([], [])


@given(st.lists(st.tuples(st.integers(0, 1), st.floats(-5, 5)), min_size=4, max_size=40))
def test_auc_invariant_under_monotone_transform(pairs):
    y = np.array([a for a, _ in pairs])
    # coarsen scores so the transform stays injective in float64
    s = np.round(np.array([b for _, b in pairs]), 3)
    if y.min() == y.max():
        return
    a = mt.auc(y, s)
    b = mt.auc(y, np.exp(0.5 * s) + 3.0)
    assert a == pytest.approx(b, abs=1e-12)


def test_logloss_at_half_is_ln2():
    assert mt.logloss([0, 1, 1, 0], [0.5] * 4) == pytest.approx(np.log(2.0), abs=1e-12)


def test_logloss_perfect_predictions_hit_clamp():
    val = mt.logloss([1, 0], [1.0, 0.0])
    assert 0 < val < 2e-7


def test_logloss_matches_scalar_recomputation():
    y = [1, 0, 1]
    p = [0.8, 0.3, 0.6]
    expected = -(np.log(0.8) + np.log(0.7) + np.log(0.6)) / 3.0
    assert mt.logloss(y, p) == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# global slope: the curve's last prefix, all n rows
# ---------------------------------------------------------------------------

def global_slope(t, y):
    return mt.cumulative_slope_curve(np.zeros(len(t)), (t, y), k=1).beta_global


def test_global_slope_two_point_line():
    assert global_slope(np.array([0.0, 1.0]), np.array([0.0, 1.0])) == 1.0


def test_global_slope_constant_outcome_is_zero():
    assert global_slope(np.array([0.0, 1.0, 2.0]), np.ones(3)) == 0.0


def test_global_slope_no_dose_variance_is_undefined():
    with pytest.raises(MetricUndefinedError, match="no dose variance"):
        global_slope(np.zeros(4), np.ones(4))


def test_global_slope_matches_cov_var_oracle():
    rng = np.random.default_rng(5)
    t = rng.choice([0.0, 1.0, 2.5], size=20)
    y = rng.uniform(size=20)
    want = np.cov(t, y, bias=True)[0, 1] / np.var(t)
    assert global_slope(t, y) == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# cumulative slope areas
# ---------------------------------------------------------------------------

def test_cs_auuc_linear_outcome_integrates_to_half_cn():
    rng = np.random.default_rng(0)
    n, c = 400, 0.1
    t = rng.choice([0.0, 1.0, 2.0, 3.0], size=n)
    y = c * t
    scores = rng.normal(size=n)
    got = mt.cs_auuc(scores, (t, y), k=100)
    assert got == pytest.approx(c * n / 2.0, rel=1e-9)


def test_cs_qini_zero_when_slope_constant():
    rng = np.random.default_rng(1)
    t = rng.choice([0.0, 1.0, 2.0], size=300)
    y = 0.25 * t
    assert mt.cs_qini(rng.normal(size=300), (t, y), k=100) == pytest.approx(0.0, abs=1e-9)


def test_equal_scores_match_original_order():
    rng = np.random.default_rng(2)
    scores, t, y = random_dataset(rng, 120)
    flat = np.zeros_like(scores)
    identity = np.arange(len(scores), 0, -1).astype(float)  # descending: keeps original order
    assert mt.cs_auuc(flat, (t, y)) == pytest.approx(mt.cs_auuc(identity, (t, y)), abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(10, 200), st.integers(3, 120))
def test_cs_areas_match_brute_force_oracle(seed, n, k):
    rng = np.random.default_rng(seed)
    scores, t, y = random_dataset(rng, n)
    want_auuc, want_qini, _ = oracle_areas(scores, t, y, k)
    assert mt.cs_auuc(scores, (t, y), k) == pytest.approx(want_auuc, abs=1e-9)
    assert mt.cs_qini(scores, (t, y), k) == pytest.approx(want_qini, abs=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(10, 200))
def test_qini_identity(seed, n):
    rng = np.random.default_rng(seed)
    scores, t, y = random_dataset(rng, n)
    curve = mt.cumulative_slope_curve(scores, (t, y), k=100)
    assert curve.qini() == pytest.approx(curve.auuc() - curve.baseline_area(), abs=1e-9)


@given(st.integers(0, 1000))
def test_cs_invariant_under_monotone_score_transform(seed):
    rng = np.random.default_rng(seed)
    scores, t, y = random_dataset(rng, 80)
    a = mt.cs_qini(scores, (t, y))
    b = mt.cs_qini(np.tanh(scores) * 7.0, (t, y))
    assert a == pytest.approx(b, abs=1e-9)


def test_all_control_prefix_is_skipped():
    # top-ranked rows all have t=0: early grid points undefined, area still finite
    t = np.array([0.0] * 50 + [1.0, 2.0] * 25)
    y = np.zeros(100)
    scores = -np.arange(100, dtype=float)  # keeps original order
    curve = mt.cumulative_slope_curve(scores, (t, y), k=20)
    assert not curve.include_origin
    assert curve.phis[0] > 0.5
    assert np.isfinite(curve.auuc())


def polyfit_qini(scores, t, y, k):
    """CS-Qini from an np.polyfit slope per prefix whose doses differ."""
    order = np.argsort(-np.asarray(scores, float), kind="stable")
    ts, ys = t[order], y[order]
    n = len(ts)
    g = np.polyfit(ts, ys, 1)[0]
    xs, vs = [], []
    for j in range(1, k + 1):
        m = -(-j * n // k)
        if np.ptp(ts[:m]) > 0:
            xs.append(j / k)
            vs.append((np.polyfit(ts[:m], ys[:m], 1)[0] - g) * j / k * n)
    if xs[0] == 1 / k:
        xs, vs = [0.0] + xs, [0.0] + vs
    return oracle_trapz(xs, vs)


@pytest.mark.parametrize("dose", [0.1, 0.7, 1.3, 2.2, 2.9])
def test_a_prefix_of_one_non_dyadic_dose_has_no_slope(dose):
    # 7 treated rows at one dose ranked above 7 controls: the first 7 of 14
    # prefixes hold one dose, whose prefix-sum variance is rounding, not 0
    t = np.array([dose] * 7 + [0.0] * 7)
    y = np.array([1, 1, 0, 1, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0], float)
    scores = np.arange(14, 0, -1.0)
    curve = mt.cumulative_slope_curve(scores, (t, y), k=14)
    assert curve.phis.tolist() == [j / 14 for j in range(8, 15)]
    assert mt.cs_qini(scores, (t, y), k=14) == pytest.approx(polyfit_qini(scores, t, y, 14),
                                                             abs=1e-12)


def test_no_dose_variance_raises():
    with pytest.raises(MetricUndefinedError):
        mt.cumulative_slope_curve(np.zeros(5), (np.zeros(5), np.ones(5)), k=10)


@pytest.mark.parametrize("k", [2.5, True, False, 5.0, "5", None, 0, -3])
def test_a_grid_size_that_is_not_a_positive_integer_is_config_error(k):
    t, y = np.array([0.0, 1.0, 2.0, 0.0]), np.array([0.0, 1.0, 1.0, 1.0])
    with pytest.raises(ConfigError, match="grid size"):
        mt.cs_qini(np.arange(4.0), (t, y), k=k)
    with pytest.raises(ConfigError, match="grid size"):
        mt.cs_auuc(np.arange(4.0), (t, y), k=k)


def test_a_numpy_integer_grid_size_works():
    t, y = np.array([0.0, 1.0, 2.0, 0.0]), np.array([0.0, 1.0, 1.0, 1.0])
    assert mt.cs_qini(np.arange(4.0), (t, y), k=np.int64(5)) == mt.cs_qini(np.arange(4.0), (t, y), k=5)


def test_oracle_ranking_beats_random_on_synthetic_truth():
    from dataclasses import replace
    from unimvt import datagen as dg

    spec = replace(dg.PRESETS["syn1"], n_train=1000, n_test=4000, seed=3)
    _, test = dg.generate(spec)
    _, w, t, y, p0, eta = dg.dataset_arrays(test)
    assert mt.cs_qini(eta, (t, y.astype(float))) > 0
    assert mt.cs_qini(-eta, (t, y.astype(float))) < 0


# ---------------------------------------------------------------------------
# pcoc
# ---------------------------------------------------------------------------

def test_pcoc_perfectly_calibrated_is_one():
    w = np.array([0, 0, 1, 1, 1, 1])
    t = np.array([0.0, 0.0, 1.0, 1.0, 2.0, 2.0])
    y = np.array([1, 0, 1, 0, 1, 1])
    # per-bin means: control 0.5, [0.5,1.5) 0.5, [1.5,2.5) 1.0
    preds = np.array([0.5, 0.5, 0.5, 0.5, 1.0, 1.0])
    bins = mt.pcoc(preds, (w, t, y), edges=[0.5, 1.5, 2.5])
    assert [round(r, 12) for _, r, _ in bins] == [1.0, 1.0, 1.0]
    assert [c for _, _, c in bins] == [2, 2, 2]


def test_pcoc_scales_with_predictions():
    w = np.array([0, 0, 1, 1])
    t = np.array([0.0, 0.0, 1.0, 1.0])
    y = np.array([1, 0, 1, 0])
    bins = mt.pcoc(np.array([1.0, 1.0, 1.0, 1.0]), (w, t, y), edges=[0.5, 1.5])
    assert all(r == pytest.approx(2.0) for _, r, _ in bins)


def test_pcoc_omits_empty_and_clickless_bins():
    w = np.array([1, 1])
    t = np.array([1.0, 1.0])
    y = np.array([0, 0])  # no clicks anywhere
    assert mt.pcoc(np.array([0.5, 0.5]), (w, t, y), edges=[0.5, 1.5, 2.5]) == []


def test_pcoc_names_a_nan_edge_and_keeps_infinite_ones():
    w, t, y = np.array([0, 1, 1, 1]), np.array([0.0, 1.0, 2.0, 3.0]), np.array([1, 1, 1, 1])
    with pytest.raises(ConfigError, match="edge 1 is NaN"):
        mt.pcoc(np.full(4, 0.5), (w, t, y), edges=[1.0, np.nan, 2.5])
    bins = mt.pcoc(np.full(4, 0.5), (w, t, y), edges=[-np.inf, 2.0, np.inf])
    assert [(label, count) for label, _, count in bins] == [("control", 1), ("[-inf,2)", 1),
                                                            ("[2,inf)", 2)]


def test_pcoc_matches_hand_aggregation():
    rng = np.random.default_rng(8)
    n = 200
    w = rng.integers(0, 2, size=n)
    t = np.where(w == 1, rng.choice([1.0, 2.0], size=n), 0.0)
    y = rng.integers(0, 2, size=n)
    p = rng.uniform(0.1, 0.9, size=n)
    bins = dict((label, ratio) for label, ratio, _ in mt.pcoc(p, (w, t, y), edges=[0.5, 1.5, 2.5]))
    mask = (w == 1) & (t >= 0.5) & (t < 1.5)
    assert bins["[0.5,1.5)"] == pytest.approx(p[mask].mean() / y[mask].mean(), abs=1e-12)


# ---------------------------------------------------------------------------
# malformed scores
# ---------------------------------------------------------------------------

LABELS = np.array([0, 1, 1, 0, 1, 0, 0, 1])
DOSES = np.array([0.0, 1.0, 2.0, 0.0, 1.0, 2.0, 0.0, 1.0])

# each metric, as a function of its 8 scores or probabilities
SCORED = {
    "auc": lambda s: mt.auc(LABELS, s),
    "logloss": lambda s: mt.logloss(LABELS, s),
    "cs_qini": lambda s: mt.cs_qini(s, (DOSES, LABELS)),
    "pcoc": lambda s: mt.pcoc(s, ((DOSES > 0).astype(int), DOSES, LABELS), edges=[0.5, 2.5]),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("metric", SCORED)
def test_metric_rejects_a_nonfinite_score(metric, bad):
    scores = np.linspace(0.1, 0.9, 8)
    SCORED[metric](scores)
    scores[5] = bad
    with pytest.raises(MetricUndefinedError, match="index 5 is"):
        SCORED[metric](scores)


@pytest.mark.parametrize("n", [7, 9])
@pytest.mark.parametrize("metric", SCORED)
def test_metric_rejects_scores_of_another_length(metric, n):
    with pytest.raises(MetricUndefinedError, match=f"{n} .* values for 8 rows"):
        SCORED[metric](np.linspace(0.1, 0.9, n))


def pcoc_of(probs=np.full(8, 0.5), w=DOSES > 0, edges=(0.5, 2.5)):
    return mt.pcoc(probs, (w, DOSES, LABELS), edges=edges)


# each metric fed one input that is not numbers: (what the message names, call)
NOT_NUMBERS = {
    "auc string labels": ("labels", lambda: mt.auc(["1", "0", "1", "0"],
                                                   ["0.9", "0.1", "0.8", "0.3"])),
    "auc string scores": ("score values", lambda: mt.auc(LABELS, LABELS.astype(str))),
    "auc complex scores": ("score values", lambda: mt.auc(LABELS, LABELS + 0.5j)),
    "logloss string labels": ("labels", lambda: mt.logloss(["1", "0"], [0.5, 0.2])),
    "logloss string probabilities": ("probability values",
                                     lambda: mt.logloss([1, 0], ["0.5", "0.2"])),
    "logloss complex probabilities": ("probability values",
                                      lambda: mt.logloss([1, 0], [0.5j, 0.2])),
    "cs_auuc string scores": ("score values",
                              lambda: mt.cs_auuc(DOSES.astype(str), (DOSES, LABELS))),
    "cs_auuc complex dose": ("column t", lambda: mt.cs_auuc(DOSES, (DOSES + 1j, LABELS))),
    "cs_qini string scores": ("score values",
                              lambda: mt.cs_qini(list("87654321"), (DOSES, LABELS))),
    "cs_qini string outcome": ("column y",
                               lambda: mt.cs_qini(DOSES, (DOSES, LABELS.astype(str)))),
    "cs_qini complex scores": ("score values", lambda: mt.cs_qini(DOSES * 1j, (DOSES, LABELS))),
    "pcoc string edges": ("pcoc edges", lambda: pcoc_of(edges=["0", "5"])),
    "pcoc complex edge": ("pcoc edges", lambda: pcoc_of(edges=[0.5, 2.5 + 1j])),
    "pcoc complex probabilities": ("probability values", lambda: pcoc_of(probs=np.full(8, 0.5j))),
    "pcoc string treatment": ("column w", lambda: pcoc_of(w=(DOSES > 0).astype(str))),
}


@pytest.mark.parametrize("case", NOT_NUMBERS)
def test_metric_names_an_input_that_is_not_numbers(case):
    what, call = NOT_NUMBERS[case]
    with pytest.raises(DataFormatError, match=f"^{what} must be numbers: got (strings|complex)"):
        call()


def test_metric_reads_bools_as_0_and_1():
    y = LABELS.astype(bool)
    assert mt.auc(y, np.linspace(0.1, 0.9, 8)) == mt.auc(LABELS, np.linspace(0.1, 0.9, 8))
    assert mt.logloss(y, np.full(8, 0.3)) == mt.logloss(LABELS, np.full(8, 0.3))
    assert mt.cs_qini(DOSES, (DOSES, y)) == mt.cs_qini(DOSES, (DOSES, LABELS))
    assert mt.pcoc(np.full(8, 0.5), (DOSES > 0, DOSES, y), edges=[0.5, 2.5]) == pcoc_of()
    assert pcoc_of(w=DOSES > 0) == pcoc_of(w=(DOSES > 0).astype(int))


# ---------------------------------------------------------------------------
# malformed labels and columns
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bad", [2.0, -1.0, 0.5, np.nan])
@pytest.mark.parametrize("metric", ["auc", "logloss"])
def test_metric_rejects_a_label_other_than_0_or_1(metric, bad):
    labels = LABELS.astype(float)
    labels[3] = bad
    with pytest.raises(MetricUndefinedError, match=f"label at index 3 is {bad}, not 0 or 1"):
        getattr(mt, metric)(labels, np.linspace(0.1, 0.9, 8))


# each metric of dose columns, as a function of its 8 scores and its columns
# named in order: cs_qini reads (t, y), pcoc (w, t, y)
COLUMNS = {
    "cs_qini": (lambda s, w, t, y: mt.cs_qini(s, (t, y)), "ty"),
    "pcoc": (lambda s, w, t, y: mt.pcoc(s, (w, t, y), edges=[0.5, 2.5]), "wty"),
}


def base_columns():
    return {"w": (DOSES > 0).astype(float), "t": DOSES.copy(), "y": LABELS.astype(float)}


def call_with_columns(metric, **edited):
    fn, _ = COLUMNS[metric]
    return fn(np.linspace(0.1, 0.9, 8), **{**base_columns(), **edited})


@pytest.mark.parametrize("n", [6, 10])
@pytest.mark.parametrize("metric, name", [("cs_qini", "y"), ("pcoc", "t"), ("pcoc", "y")])
def test_metric_rejects_a_column_of_another_length(metric, name, n):
    call_with_columns(metric)
    first = COLUMNS[metric][1][0]
    column = np.resize(base_columns()[name], n)
    with pytest.raises(MetricUndefinedError,
                       match=f"column {name} has {n} values, column {first} has 8"):
        call_with_columns(metric, **{name: column})


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("metric, name", [(m, c) for m, (_, cols) in COLUMNS.items() for c in cols])
def test_metric_rejects_a_nonfinite_column_entry(metric, name, bad):
    column = base_columns()[name]
    column[2] = bad
    with pytest.raises(MetricUndefinedError, match=f"{name} at index 2 is {bad}, not finite"):
        call_with_columns(metric, **{name: column})
