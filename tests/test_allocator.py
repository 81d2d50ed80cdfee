"""Allocation engine: the additive decision rule vs brute force, monotonicity."""

import re
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from unimvt import allocator as al
from unimvt.errors import ConfigError, DataFormatError, NumericError

# an integer no float holds, which a float operation would raise OverflowError on
BEYOND_FLOATS = pytest.param(10**400, id="10**400")
# real numbers float() raises OverflowError on, an int and a Fraction
OVERFLOWING = [BEYOND_FLOATS, pytest.param(Fraction(10**400), id="Fraction(10**400)")]
NEGATIVE_FRACTION = pytest.param(Fraction(-10**400), id="Fraction(-10**400)")


def pred(p0, eta):
    return SimpleNamespace(p0_hat=p0, eta_hat=eta)


# ---------------------------------------------------------------------------
# decide
# ---------------------------------------------------------------------------

def brute_force_decision(p, grid, value, threshold):
    """The documented additive rule, one candidate intensity at a time."""
    qs = grid.values()
    rows = []
    for q in qs:
        uplift = min(p.p0_hat + p.eta_hat * float(q), 1.0 - 1e-7) - p.p0_hat
        rows.append((value * uplift - q, float(q), uplift, value * uplift / q))
    best = max(rows, key=lambda r: (r[0], -r[1]))  # ties -> smallest q
    net, q, uplift, ratio = best
    issue = ratio >= threshold and net > 0
    return issue, (q if issue else 0.0), uplift, ratio, net


def test_decide_zero_eta_withholds():
    decision = al.decide(pred(0.4, 0.0), al.AllocationGrid(1, 3, 1), 100.0, 0.1)
    assert not decision.issue
    assert decision.q_star == 0.0


def test_decide_worked_example_additive():
    decision = al.decide(pred(0.1, 0.05), al.AllocationGrid(1, 3, 1), 100.0, 1.0, "additive")
    # net gains are 4, 8, 12 -> q* = 3 and the constant ratio is 5
    assert decision.issue
    assert decision.q_star == 3.0
    assert decision.net_gain == pytest.approx(12.0, abs=1e-9)
    assert decision.ratio == pytest.approx(5.0, abs=1e-9)


def test_decide_default_reads_eta_as_probability_gain_per_unit():
    # eta_hat is a click-probability gain per unit (predict_batch): uplift 0.03 q,
    # net gain 60 * 0.03 q - q = 0.8 q peaks at the top of the grid, ratio 1.8
    decision = al.decide(pred(0.2, 0.03), al.AllocationGrid(0.5, 4.0, 0.5), 60.0, 1.5)
    assert decision.issue
    assert decision.q_star == 4.0
    assert decision.expected_uplift == pytest.approx(0.12, abs=1e-12)
    assert decision.net_gain == pytest.approx(3.2, abs=1e-9)
    assert decision.ratio == pytest.approx(1.8, abs=1e-9)


def test_decide_threshold_dominates():
    decision = al.decide(pred(0.1, 0.05), al.AllocationGrid(1, 3, 1), 100.0, 1000.0, "additive")
    assert not decision.issue and decision.q_star == 0.0


def test_additive_ratio_constant_before_cap():
    p = pred(0.2, 0.04)
    grid = al.AllocationGrid(0.5, 3.0, 0.5)
    ratios = [al.decide(p, al.AllocationGrid(q, q, 1.0), 100.0, 0.0).ratio for q in grid.values()]
    assert max(ratios) - min(ratios) < 1e-9


@settings(max_examples=200, deadline=None)
@given(
    st.floats(0.02, 0.95),
    st.floats(0.0, 0.4),
    st.floats(0.2, 2.0),
    st.integers(1, 9),
    st.floats(0.1, 1.5),
    st.floats(1.0, 200.0),
    st.floats(0.0, 10.0),
    st.just("additive"),
)
def test_decide_matches_brute_force(p0, eta, q_min, n_steps, step, value, threshold, mode):
    p = pred(p0, eta)
    grid = al.AllocationGrid(q_min, q_min + n_steps * step, step)
    got = al.decide(p, grid, value, threshold, mode)
    issue, q_star, uplift, ratio, net = brute_force_decision(p, grid, value, threshold)
    assert got.issue == issue
    assert got.q_star == pytest.approx(q_star, abs=1e-12)
    assert got.expected_uplift == pytest.approx(uplift, abs=1e-12)
    assert got.ratio == pytest.approx(ratio, abs=1e-12)
    assert got.net_gain == pytest.approx(net, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(0.02, 0.95),
    st.floats(0.0, 0.3),
    st.floats(0.01, 0.3),
    st.floats(1.0, 200.0),
    st.floats(0.0, 5.0),
    st.just("additive"),
)
def test_issue_never_flips_to_withhold_as_eta_grows(p0, eta, bump, value, threshold, mode):
    grid = al.AllocationGrid(0.5, 4.0, 0.5)
    before = al.decide(pred(p0, eta), grid, value, threshold, mode)
    after = al.decide(pred(p0, eta + bump), grid, value, threshold, mode)
    if before.issue:
        assert after.issue


def test_decide_tie_breaks_to_cheapest_q():
    # eta = 0 gives net gain -q everywhere: the max is the smallest q
    decision = al.decide(pred(0.5, 0.0), al.AllocationGrid(1, 3, 1), 10.0, 0.0)
    assert decision.net_gain == pytest.approx(-1.0)
    assert not decision.issue


@pytest.mark.parametrize("eta, issue", [(0.05, True), (0.0, False)])
def test_a_one_point_grid_issues_at_its_point_or_withholds(eta, issue):
    # q_min = q_max gives one point, so decide always has a candidate
    grid = al.AllocationGrid(2.0, 2.0, 0.5)
    np.testing.assert_array_equal(grid.values(), [2.0])
    decision = al.decide(pred(0.1, eta), grid, 100.0, 1.0)
    assert (decision.issue, decision.q_star) == (issue, 2.0 if issue else 0.0)
    assert (decision.issue, decision.q_star, decision.expected_uplift, decision.ratio,
            decision.net_gain) == brute_force_decision(pred(0.1, eta), grid, 100.0, 1.0)


def test_grid_validation():
    with pytest.raises(ConfigError):
        al.AllocationGrid(0.0, 1.0, 0.5)
    with pytest.raises(ConfigError):
        al.AllocationGrid(2.0, 1.0, 0.5)
    with pytest.raises(ConfigError):
        al.AllocationGrid(1.0, 2.0, 0.0)
    grid = al.AllocationGrid(1.0, 3.0, 0.5)
    np.testing.assert_allclose(grid.values(), [1.0, 1.5, 2.0, 2.5, 3.0])


# counts above the cap only: the check runs before any value is built
@pytest.mark.parametrize("q_min, q_max, step, count", [
    (1.0, 2.0, 1e-6, "1000001"),      # the first count over the cap
    (0.5, 4.0, 1e-12, "3.5e+12"),     # 25.5 TiB of values
    (0.5, 4.0, 5e-324, "inf"),        # a step too small to divide by
])
def test_grid_names_a_point_count_above_the_cap(q_min, q_max, step, count):
    with pytest.raises(ConfigError, match=re.escape(
            f"q_min={q_min}, q_max={q_max}, step={step} has {count} points, "
            f"more than MAX_GRID_POINTS = {al.MAX_GRID_POINTS}")):
        al.AllocationGrid(q_min, q_max, step)


@pytest.mark.parametrize("q_min, q_max, step", [(1.0, 3.0, 0.5), (0.5, 4.0, 0.5), (0.3, 1.0, 0.1),
                                                (2.0, 2.0, 1.0)])
def test_grid_values_are_built_once_and_read_only(q_min, q_max, step):
    grid = al.AllocationGrid(q_min, q_max, step)
    qs = grid.values()
    assert qs is grid.values()
    assert not qs.flags.writeable
    with pytest.raises(ValueError):
        qs[0] = 0.0
    np.testing.assert_array_equal(qs, q_min + step * np.arange(qs.size))


def test_decide_rejects_unknown_mode():
    for mode in ("nonsense", "logit"):
        with pytest.raises(ConfigError):
            al.decide(pred(0.5, 0.1), al.AllocationGrid(1, 2, 1), 10.0, 0.5, mode)


def test_decide_rejects_nonpositive_value():
    with pytest.raises(ConfigError):
        al.decide(pred(0.5, 0.1), al.AllocationGrid(1, 2, 1), 0.0, 0.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, True, "0.5", *OVERFLOWING,
                                 NEGATIVE_FRACTION])
@pytest.mark.parametrize("field", ["q_min", "q_max", "step"])
def test_grid_rejects_a_nonfinite_field(field, bad):
    fields = {"q_min": 0.5, "q_max": 2.0, "step": 0.5, field: bad}
    with pytest.raises(ConfigError, match=field):
        al.AllocationGrid(**fields)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, True, "60", *OVERFLOWING,
                                 NEGATIVE_FRACTION])
@pytest.mark.parametrize("knob", ["value_per_click", "threshold"])
def test_decide_rejects_a_nonfinite_knob(knob, bad):
    knobs = {"value_per_click": 100.0, "threshold": 1.0, knob: bad}
    with pytest.raises(ConfigError, match=knob):
        al.decide(pred(0.1, 0.05), al.AllocationGrid(1, 3, 1), **knobs)


# prediction fields that are not real numbers: float() would parse a numeric
# string or bytes, read a bool as 0.0 or 1.0, and raise a bare TypeError on an
# array of one value, a list or a complex
NOT_A_PREDICTION = ["0.2", b"0.2", np.str_("0.2"), True, np.True_, np.False_, np.array([0.2]),
                    np.array(0.2), [0.2], 0.2 + 0j, None, *OVERFLOWING]


@pytest.mark.parametrize("field", ["p0_hat", "eta_hat"])
@pytest.mark.parametrize("bad", NOT_A_PREDICTION)
def test_decide_names_a_prediction_field_that_is_not_a_number(field, bad):
    fields = {"p0_hat": 0.2, "eta_hat": 0.05, field: bad}
    with pytest.raises(DataFormatError, match=f"^{field} must (be a number|lie in the float range)"):
        al.decide(SimpleNamespace(**fields), al.AllocationGrid(1, 4, 1), 60.0, 1.5)


@pytest.mark.parametrize("field", ["p0_hat", "eta_hat"])
@pytest.mark.parametrize("big", OVERFLOWING)
def test_decide_names_the_type_of_a_prediction_field_beyond_the_float_range(field, big):
    fields = {"p0_hat": 0.2, "eta_hat": 0.05, field: big}
    message = f"{field} must lie in the float range, got {type(big).__name__} beyond it"
    with pytest.raises(DataFormatError, match=f"^{re.escape(message)}$"):
        al.decide(SimpleNamespace(**fields), al.AllocationGrid(1, 4, 1), 60.0, 1.5)


@pytest.mark.parametrize("p0, eta", [(np.float64(0.2), np.float64(0.05)),
                                     (np.float32(0.2), np.float32(0.05)), (0, 1)],
                         ids=["float64", "float32", "int"])
def test_decide_reads_a_real_prediction_field_as_its_float(p0, eta):
    grid = al.AllocationGrid(0.5, 4.0, 0.5)
    assert (al.decide(pred(p0, eta), grid, 60.0, 1.5)
            == al.decide(pred(float(p0), float(eta)), grid, 60.0, 1.5))


@pytest.mark.parametrize("p0, eta", [(np.nan, 0.05), (np.inf, 0.05), (0.1, np.nan), (0.1, np.inf)])
def test_decide_rejects_a_nonfinite_prediction(p0, eta):
    with pytest.raises(NumericError, match="prediction is not finite"):
        al.decide(pred(p0, eta), al.AllocationGrid(1, 3, 1), 100.0, 1.0)
