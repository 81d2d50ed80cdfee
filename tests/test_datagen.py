"""Generator marginals, ground-truth construction, determinism, the column
invariants and CSV round-trips."""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gradcheck import GUARD_CASES, GUARD_ROWS
from unimvt import datagen as dg
from unimvt import kvfile
from unimvt.errors import ConfigError, DataFormatError

SMALL = replace(dg.PRESETS["syn1"], n_train=6000, n_test=1500, seed=9)
SMALL_MULTI = replace(dg.PRESETS["syn3"], n_train=6000, n_test=1500, seed=9)


@pytest.fixture(scope="module")
def small_pair():
    return dg.generate(SMALL)


@pytest.fixture(scope="module")
def multi_pair():
    return dg.generate(SMALL_MULTI)


def test_syn1_marginals_at_full_size():
    train, _ = dg.generate(dg.PRESETS["syn1"])
    _, w, t, y, p0, eta = dg.dataset_arrays(train)
    assert abs(w.mean() - 0.3478) < 0.005
    assert abs(y.mean() - 0.208) < 0.01


def test_same_seed_gives_identical_datasets(tmp_path):
    a_train, a_test = dg.generate(SMALL)
    b_train, b_test = dg.generate(SMALL)
    for a, b in ((a_train, b_train), (a_test, b_test)):
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        dg.save_csv(a, pa)
        dg.save_csv(b, pb)
        assert pa.read_bytes() == pb.read_bytes()


def test_larger_test_split_leaves_the_train_split_unchanged(small_pair):
    # generate draws the test split last
    train, _ = small_pair
    larger, _ = dg.generate(replace(SMALL, n_test=4 * SMALL.n_test))
    for a, b in zip(dg.dataset_arrays(train), dg.dataset_arrays(larger)):
        np.testing.assert_array_equal(a, b)
    assert larger.meta == train.meta


def test_pooled_ols_slope_recovers_mean_sensitivity():
    # low-noise oracle run: big RCT split, slope of (y - truth_p0) on t through
    # the origin over treated rows should estimate the average unit sensitivity
    spec = replace(dg.PRESETS["syn1"], n_train=2000, n_test=150_000, seed=7)
    _, test = dg.generate(spec)
    _, w, t, y, p0, eta = dg.dataset_arrays(test)
    tr = w == 1
    slope = ((y[tr] - p0[tr]) * t[tr]).sum() / (t[tr] ** 2).sum()
    assert abs(slope - eta.mean()) / eta.mean() < 0.10


def test_truth_fields_and_response_shape(small_pair):
    train, test = small_pair
    for ds in small_pair:
        _, w, t, y, p0, eta = dg.dataset_arrays(ds)
        assert np.all((p0 > 0) & (p0 < 1))
        assert np.all(eta >= 0)
        # treated doses stay positive and within the jittered mode support
        lo = min(SMALL.modes) - 3 * SMALL.mode_jitter_sd
        assert np.all(t[w == 1] >= lo)
        assert np.all(t[w == 1] > 0)
        assert np.all(t[w == 0] == 0)


def test_dose_confounding_present_in_train_absent_in_test(multi_pair):
    train, test = multi_pair
    d = np.array(train.meta["coef_propensity"])
    for ds, check in ((train, "pos"), (test, "null")):
        X, w, t, _, _, _ = dg.dataset_arrays(ds)
        score = X @ d
        corr = np.corrcoef(score[w == 1], t[w == 1])[0, 1]
        if check == "pos":
            assert corr > 0.2
        else:
            assert abs(corr) < 3.0 / np.sqrt((w == 1).sum())


def test_test_split_is_rct(small_pair):
    _, test = small_pair
    assert test.rct and test.split == "test"


def test_csv_round_trip(tmp_path, small_pair):
    train, _ = small_pair
    path = tmp_path / "ds.csv"
    dg.save_csv(train, path)
    loaded = dg.load_csv(path)
    assert loaded.split == "train" and not loaded.rct
    assert len(loaded) == len(train)
    for a, b in zip(dg.dataset_arrays(train), dg.dataset_arrays(loaded)):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("truth", [False, True])
def test_csv_round_trip_of_no_rows(tmp_path, truth):
    # the file holds only the header, which np.loadtxt would warn of
    columns = [np.zeros(0)] * 2 if truth else [None, None]
    ds = dg.Dataset(np.zeros((0, dg.N_FEATURES)), np.zeros(0, int), np.zeros(0),
                    np.zeros(0, int), *columns)
    path = tmp_path / "empty.csv"
    dg.save_csv(ds, path)
    loaded = dg.load_csv(path)
    assert len(loaded) == 0 and loaded.has_truth == truth
    for a, b in zip(dg.dataset_arrays(ds), dg.dataset_arrays(loaded)):
        if a is None:
            assert b is None
        else:
            assert a.dtype == b.dtype and a.shape == b.shape


def test_csv_round_trip_preserves_split_flags(tmp_path, small_pair):
    _, test = small_pair
    path = tmp_path / "test.csv"
    dg.save_csv(test, path)
    loaded = dg.load_csv(path)
    assert loaded.split == "test" and loaded.rct


def test_load_rejects_invariant_violation(tmp_path):
    path = tmp_path / "bad.csv"
    header = ",".join([f"x{i}" for i in range(1, 9)] + ["w", "t", "y"])
    row = ",".join(["0.0"] * 8 + ["0", "1.0", "0"])
    path.write_text(header + "\n" + row + "\n")
    with pytest.raises(DataFormatError, match=":2"):
        dg.load_csv(path)


def test_load_without_truth_columns(tmp_path):
    path = tmp_path / "plain.csv"
    header = ",".join([f"x{i}" for i in range(1, 9)] + ["w", "t", "y"])
    rows = [
        ",".join(["0.1"] * 8 + ["1", "2.5", "1"]),
        ",".join(["-0.3"] * 8 + ["0", "0.0", "0"]),
    ]
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    ds = dg.load_csv(path)
    assert len(ds) == 2
    assert ds.truth_p0 is None and ds.truth_eta is None and not ds.has_truth


def test_load_csv_returns_the_sidecar_as_meta(tmp_path, small_pair, multi_pair):
    # the keys, values and types generate gave, for both splits of syn1 and syn3
    for ds in (*small_pair, *multi_pair):
        path = tmp_path / f"{ds.meta['name']}-{ds.split}.csv"
        dg.save_csv(ds, path)
        loaded = dg.load_csv(path)
        assert loaded.meta == ds.meta
        for key, value in ds.meta.items():
            assert type(loaded.meta[key]) is type(value), key
    assert dg.load_csv(tmp_path / "syn1-train.csv").meta["modes"] == [2.5]  # one mode, a list


def test_bad_metadata_value_is_named(tmp_path, small_pair):
    train, _ = small_pair
    path = tmp_path / "ds.csv"
    dg.save_csv(train, path)
    sidecar = dg.meta_path(path)
    sidecar.write_text(sidecar.read_text().replace("rct=False", "rct=maybe"))
    with pytest.raises(DataFormatError, match="'rct'"):
        dg.load_csv(path)


@pytest.mark.parametrize("edited, reason", [("split=\x00rain", "unknown split"),
                                            ("split=test", "test split must be RCT")])
def test_bad_split_flag_is_a_data_format_error(tmp_path, small_pair, edited, reason):
    train, _ = small_pair
    path = tmp_path / "ds.csv"
    dg.save_csv(train, path)
    sidecar = dg.meta_path(path)
    sidecar.write_text(sidecar.read_text().replace("split=train", edited))
    with pytest.raises(DataFormatError, match=reason):
        dg.load_csv(path)


@pytest.mark.parametrize("damage, reason", [(b"garbage line\n", r"\.meta:\d+: expected key=value"),
                                            (b"name=\xff\n", "cannot decode"),
                                            (b"rct=True\n", r"\.meta:\d+: repeated key 'rct'")])
def test_bad_sidecar_line_is_a_data_format_error(tmp_path, small_pair, damage, reason):
    train, _ = small_pair
    path = tmp_path / "ds.csv"
    dg.save_csv(train, path)
    sidecar = dg.meta_path(path)
    sidecar.write_bytes(sidecar.read_bytes() + damage)
    with pytest.raises(DataFormatError, match=reason):
        dg.load_csv(path)


def test_meta_sidecar_round_trip(tmp_path, small_pair):
    train, _ = small_pair
    path = tmp_path / "ds.csv"
    dg.save_csv(train, path)
    meta = kvfile.read(dg.meta_path(path))  # the strings written
    assert meta["seed"] == str(SMALL.seed)
    assert "coef_propensity" in meta and "intercept_ctr" in meta
    d = np.array([float(v) for v in meta["coef_propensity"].split()])
    np.testing.assert_allclose(d, np.asarray(train.meta["coef_propensity"]), atol=0)
    assert dg.load_meta(dg.meta_path(path)) == train.meta


def test_spec_validation_errors():
    with pytest.raises(ConfigError):
        replace(SMALL, modes=(), mode_weights=()).validate()
    with pytest.raises(ConfigError):
        replace(SMALL, mode_weights=(0.5,)).validate()
    with pytest.raises(ConfigError):
        replace(SMALL, mode_jitter_sd=2.0).validate()  # doses could hit zero
    with pytest.raises(ConfigError):
        replace(SMALL, coupon_ratio=1.2).validate()


@pytest.mark.parametrize("field", ["n_train", "n_test"])
@pytest.mark.parametrize("value", [500.5, 500.0, True, "500", 0, -3])
def test_spec_names_a_split_size_that_is_not_a_positive_integer(field, value):
    with pytest.raises(ConfigError, match=field):
        dg.generate(replace(SMALL, **{field: value}))


@pytest.mark.parametrize("field, bad", [
    ("seed", True), ("seed", -1), ("seed", 1.5), ("seed", "9"),
    ("confounding_strength", np.nan), ("confounding_strength", np.inf),
    ("confounding_strength", True), ("mode_weights", (np.nan, 0.25, 0.25, 0.25)),
    ("mode_weights", (True, 0.0, 0.0, 0.0)), ("modes", (np.nan, 1.6, 2.4, 4.0)),
    ("modes", (1.0, 1.6, 2.4, np.inf)), ("modes", ("1.0", 1.6, 2.4, 4.0)),
    ("coupon_ratio", np.nan), ("target_avg_ctr", "0.2"), ("mode_jitter_sd", np.nan)])
def test_spec_names_a_field_that_is_not_a_finite_number(field, bad):
    with pytest.raises(ConfigError, match=field):
        dg.generate(replace(SMALL_MULTI, n_train=200, n_test=50, **{field: bad}))


def test_array_modes_generate_what_tuple_modes_do(tmp_path):
    spec = replace(SMALL_MULTI, n_train=2000, n_test=200)
    arrays = replace(spec, modes=np.array(spec.modes), mode_weights=np.array(spec.mode_weights))
    for want, got in zip(dg.generate(spec), dg.generate(arrays)):
        for column in ("X", "w", "t", "y", "truth_p0", "truth_eta"):
            np.testing.assert_array_equal(getattr(got, column), getattr(want, column))
        assert got.meta == want.meta
        dg.save_csv(got, tmp_path / "arrays.csv")
        assert dg.load_csv(tmp_path / "arrays.csv").meta == want.meta


def test_unreachable_ctr_target_fails_bracketing():
    with pytest.raises(ConfigError, match="bracket"):
        dg.generate(replace(SMALL, n_train=500, n_test=100, target_avg_ctr=0.005))


@pytest.mark.parametrize("seed", [1, 18, 23, 29, 33])
def test_a_train_split_with_no_treated_row_is_named(seed):
    # at these seeds the four syn1 train rows draw no coupon; the sensitivity
    # scale would divide by the mean of no dose
    spec = replace(dg.PRESETS["syn1"], n_train=4, n_test=4, seed=seed)
    with pytest.raises(ConfigError, match=r"syn1: .*no treated row at n_train=4, "
                                          r"coupon_ratio=0\.3"):
        dg.generate(spec)


# ---------------------------------------------------------------------------
# column invariants
# ---------------------------------------------------------------------------

def columns(d=4):
    return dict(X=np.arange(3.0 * d).reshape(3, d), w=np.array([0, 1, 1]),
                t=np.array([0.0, 1.5, 2.0]), y=np.array([1, 0, 1]))


@pytest.mark.parametrize("column,row,value,reason", [
    ("X", 1, np.nan, "features must be finite"),
    ("X", 2, np.inf, "features must be finite"),
    ("t", 1, np.inf, "intensity must be finite"),
    ("w", 2, 2, "w must be 0 or 1"),
    ("y", 0, -1, "y must be 0 or 1"),
    ("t", 0, 0.5, "control row must have zero intensity"),
    ("t", 2, 0.0, "treated row must have positive intensity"),
])
def test_dataset_rejects_the_first_invalid_row(column, row, value, reason):
    cols = columns()
    cols[column] = cols[column].astype(float)
    if column == "X":
        cols["X"][row, 1] = value
    else:
        cols[column][row] = value
    with pytest.raises(DataFormatError, match=f"row {row}: {reason}"):
        dg.Dataset(**cols)


def test_dataset_checks_truth_and_shapes():
    cols = columns()
    with pytest.raises(DataFormatError, match="together"):
        dg.Dataset(**cols, truth_p0=np.full(3, 0.2))
    with pytest.raises(DataFormatError, match="finite"):
        dg.Dataset(**cols, truth_p0=np.full(3, 0.2), truth_eta=np.array([0.1, np.nan, 0.1]))
    for bad in (dict(y=np.array([0, 1])), dict(X=np.zeros(3))):
        with pytest.raises(DataFormatError, match="one entry per row"):
            dg.Dataset(**dict(cols, **bad))


def test_dataset_columns_are_read_only_copies():
    cols = columns(d=5)
    ds = dg.Dataset(**cols)
    cols["t"][0] = 7.0  # the caller's array stays the caller's
    assert ds.t[0] == 0.0
    assert ds.X.shape == (3, 5) and ds.X.flags.c_contiguous
    assert (ds.w.dtype, ds.y.dtype, ds.t.dtype) == (np.int64, np.int64, np.float64)
    for column in dg.dataset_arrays(ds)[:4]:
        with pytest.raises(ValueError):
            column[0] = 1


# ---------------------------------------------------------------------------
# CSV format
# ---------------------------------------------------------------------------

HEADER = ",".join([f"x{i}" for i in range(1, 9)] + ["w", "t", "y"])
GOOD_ROW = ",".join(["0.5"] * 8 + ["1", "2.5", "0"])


@pytest.mark.parametrize("bad_row,reason", [
    (",".join(["0.5"] * 7 + ["1", "2.5", "0"]), "requires 11 columns but 10 were found"),
    (",".join(["abc"] + ["0.5"] * 7 + ["1", "2.5", "0"]), "'abc'"),
    (",".join(["0.5"] * 7 + ["nan", "1", "2.5", "0"]), "features must be finite"),
    (",".join(["0.5"] * 8 + ["2", "2.5", "0"]), "w must be 0 or 1"),
    (",".join(["0.5"] * 8 + ["0", "0.5", "0"]), "control row must have zero intensity"),
    (",".join(["0.5"] * 8 + ["1", "0.0", "0"]), "treated row must have positive intensity"),
])
@pytest.mark.parametrize("blank_before", [False, True])
def test_load_names_the_bad_line(tmp_path, bad_row, reason, blank_before):
    lines = [HEADER, GOOD_ROW] + ([""] if blank_before else []) + [bad_row, GOOD_ROW]
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n")
    lineno = 4 if blank_before else 3
    with pytest.raises(DataFormatError, match=re.escape(f":{lineno}: ") + ".*" + re.escape(reason)):
        dg.load_csv(path)


def test_load_names_the_undecodable_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(f"{HEADER}\n{GOOD_ROW}\n".encode() + b"0.5\xff" + f"{GOOD_ROW}\n".encode())
    with pytest.raises(DataFormatError, match=re.escape(f"{path}:3: ")):
        dg.load_csv(path)


def test_save_csv_bytes(tmp_path):
    ds = dg.Dataset(
        X=[[0.1, -2.0, 0.0, 1e-05, 1e16, 3.0, -0.5, 123.456],
           [-0.0, 5e-324, 1e308, 0.0001, 2.0, -7.25, 1 / 3, 1e-07]],
        w=[1, 0], t=[2.5, 0.0], y=[0, 1], truth_p0=[0.2, 0.75], truth_eta=[0.01, 0.0])
    path = tmp_path / "two.csv"
    dg.save_csv(ds, path)
    assert path.read_text() == (
        "x1,x2,x3,x4,x5,x6,x7,x8,w,t,y,truth_p0,truth_eta\n"
        "0.1,-2.0,0.0,1e-05,1e+16,3.0,-0.5,123.456,1,2.5,0,0.2,0.01\n"
        "-0.0,5e-324,1e+308,0.0001,2.0,-7.25,0.3333333333333333,1e-07,0,0.0,1,0.75,0.0\n"
    )
    assert dg.meta_path(path).read_text() == "rct=False\nsplit=train\n"


EDGE_FLOATS = st.sampled_from([-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                               3.0, -2.0, 2.0 ** 53, 1e16])
FINITE = st.floats(allow_nan=False, allow_infinity=False) | EDGE_FLOATS
POSITIVE = st.floats(min_value=5e-324, max_value=1e308) | st.sampled_from([5e-324, 1e308, 3.0])


@settings(max_examples=25, deadline=None)
@given(data=st.data(), n=st.integers(1, 6), truth=st.booleans())
def test_csv_round_trip_is_bit_exact(tmp_path_factory, data, n, truth):
    X = np.array(data.draw(st.lists(FINITE, min_size=8 * n, max_size=8 * n))).reshape(n, 8)
    w = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    t = np.array([data.draw(POSITIVE if wi else st.sampled_from([0.0, -0.0])) for wi in w])
    y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    truth_columns = [np.array(data.draw(st.lists(FINITE, min_size=n, max_size=n)))
                     for _ in range(2)] if truth else [None, None]
    ds = dg.Dataset(X, w, t, y, *truth_columns)
    path = tmp_path_factory.mktemp("csv") / "ds.csv"
    dg.save_csv(ds, path)
    loaded = dg.load_csv(path)
    assert loaded.has_truth == truth
    for a, b in zip(dg.dataset_arrays(ds), dg.dataset_arrays(loaded)):
        if a is None:
            assert b is None
        else:
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("case", GUARD_CASES)
def test_feature_check_refuses_exactly_the_nonfinite_features(case):
    # the entry scan decides, not the guard's vdot or a sum: features of
    # 1e200, whose vdot overflows, and of 1e308, whose sum overflows, pass
    first, second, _ = GUARD_CASES[case]
    X = np.array([first + second] * GUARD_ROWS)
    bad = np.argwhere(~np.isfinite(X))
    if bad.size == 0:
        np.testing.assert_array_equal(dg.feature_matrix(X, 6), X)
        return
    row, feature = bad[0]
    said = f"row {row}: feature {feature} is {X[row, feature]}, not finite"
    with pytest.raises(DataFormatError, match=re.escape(said) + "$"):
        dg.feature_matrix(X, 6)
