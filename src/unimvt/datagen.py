"""Synthetic coupon benchmarks with known ground truth.

Three presets (syn1/syn2/syn3) mimic a promotional environment: correlated
8-dim covariates, a logistic base click probability, a logistic per-unit
sensitivity, and a multimodal coupon-intensity mixture whose mode choice is
confounded by the same score that drives treatment propensity. The test
split is always an RCT. Generation is fully determined by the spec seed;
calibration intercepts are found by bisection and recorded in a metadata
sidecar next to each CSV.

A Dataset holds whole columns, not rows, checked once at construction. Any
feature width works in memory; the CSV format holds eight feature columns.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np
from scipy.linalg import cholesky, toeplitz
from scipy.special import expit
from scipy.stats import norm

from . import kvfile
from .config import _integer, _real
from .errors import ConfigError, DataFormatError

N_FEATURES = 8
FEATURE_CORR = 0.5          # Toeplitz covariance: Sigma_ij = FEATURE_CORR ** |i-j|
CLICK_PROB_CAP = 0.99       # keeps logits finite
MEAN_UPLIFT_TARGET = 0.05   # mean uplift at the mean treated dose
JITTER_TRUNC = 3.0          # dose jitter truncated to +-3 sd
CTR_SCORE_SD = 1.0          # sd of the base-CTR logit score a.x
SENS_SCORE_SD = 2.0         # sd of the sensitivity score c.x; wide spread keeps
                            # per-unit uplift strongly heterogeneous across users


@dataclass(eq=False)
class Dataset:
    """Observations as columns: covariates X (rows, features), treatment flag
    w, intensity t, click label y, and the latent ground truth when the rows
    are synthetic. The row invariants are checked once, on copies of the given
    columns, which are stored read-only so that the dataset stays valid."""

    X: np.ndarray
    w: np.ndarray
    t: np.ndarray
    y: np.ndarray
    truth_p0: np.ndarray | None = None
    truth_eta: np.ndarray | None = None
    split: str = "train"      # train | test
    rct: bool = False
    meta: dict | None = None  # generator sidecar content, when known

    def __post_init__(self) -> None:
        if self.split not in ("train", "test"):
            raise ConfigError(f"unknown split {self.split!r}")
        if self.split == "test" and not self.rct:
            raise ConfigError("test split must be RCT")
        if (self.truth_p0 is None) != (self.truth_eta is None):
            raise DataFormatError("truth columns must be present together")
        X = np.array(self.X, dtype=np.float64, order="C")
        # w and y keep their given dtype until they are known to be binary
        w, t, y = np.array(self.w), np.array(self.t, dtype=np.float64), np.array(self.y)
        truth = [None if c is None else np.array(c, dtype=np.float64)
                 for c in (self.truth_p0, self.truth_eta)]
        if X.ndim != 2 or any(c.shape != X.shape[:1] for c in (w, t, y, *truth) if c is not None):
            raise DataFormatError(f"need X of shape (rows, features), got {X.shape}, and "
                                  "one entry per row in every other column")
        bad = _first_invalid_row(X, w, t, y, *truth)
        if bad is not None:
            raise DataFormatError(f"row {bad[0]}: {bad[1]}")
        self.X, self.w, self.t, self.y = X, w.astype(np.int64), t, y.astype(np.int64)
        self.truth_p0, self.truth_eta = truth
        for column in (self.X, self.w, self.t, self.y, *truth):
            if column is not None:
                column.flags.writeable = False

    def __len__(self) -> int:
        return self.X.shape[0]

    @property
    def has_truth(self) -> bool:
        return self.truth_p0 is not None


def _first_invalid_row(X, w, t, y, truth_p0, truth_eta) -> tuple[int, str] | None:
    """Index and reason of the first row that breaks a row invariant, or None."""
    rules = [
        (~np.isfinite(X).all(axis=1), "features must be finite"),
        (~np.isfinite(t), "intensity must be finite"),
        ((w != 0) & (w != 1), "w must be 0 or 1"),
        ((y != 0) & (y != 1), "y must be 0 or 1"),
        ((w == 0) & (t != 0.0), "control row must have zero intensity"),
        ((w == 1) & ~(t > 0.0), "treated row must have positive intensity"),
    ]
    if truth_p0 is not None:
        rules.append((~(np.isfinite(truth_p0) & np.isfinite(truth_eta)),
                      "truth columns must be finite"))
    # min keeps the first rule on ties, so each row reports its first broken rule
    return min(((int(np.argmax(mask)), reason) for mask, reason in rules if mask.any()),
               key=lambda bad: bad[0], default=None)


def dataset_arrays(ds: Dataset):
    """The columns (X, w, t, y, truth_p0, truth_eta) of a dataset.

    The truth pair is None when the dataset carries no ground truth.
    """
    return ds.X, ds.w, ds.t, ds.y, ds.truth_p0, ds.truth_eta


def float_array(values, what: str) -> np.ndarray:
    """values as a float64 array; DataFormatError says that ``what`` must be
    numbers when they are strings (a str or bytes scalar, an array of them
    or an object array holding one), complex, or do not convert to floats.
    A float ndarray, the per-decision input, costs a dtype test and its cast."""
    if type(values) is np.ndarray and values.dtype.kind == "f":
        return np.asarray(values, dtype=np.float64)
    if isinstance(values, (str, bytes)):  # a float64 cast would parse '2.0' as a number
        raise DataFormatError(f"{what} must be numbers: got strings")
    try:
        array = np.asarray(values)
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"{what} must be numbers: {exc}") from exc
    kind = array.dtype.kind
    if kind in "US" or (kind == "O" and any(isinstance(v, (str, bytes)) for v in array.flat)):
        raise DataFormatError(f"{what} must be numbers: got strings")
    if kind == "c":  # a float64 cast drops imaginary parts with only a warning
        raise DataFormatError(f"{what} must be numbers: got complex values")
    try:
        return array.astype(np.float64)
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"{what} must be numbers: {exc}") from exc


def feature_matrix(X, n_features: int) -> np.ndarray:
    """X as a 2-D float64 matrix for a model of n_features features. DataFormatError
    says that features must be numbers when X is complex or does not convert
    to floats (``float_array``), and names the shape of an input of more than
    2 dimensions, the feature count of one not n_features wide, and the row
    and index of a non-finite feature."""
    X = np.atleast_2d(float_array(X, "features"))
    if X.ndim > 2:
        raise DataFormatError(f"features have shape {X.shape}; expected one row or a 2-D matrix")
    if X.shape[1] != n_features:
        raise DataFormatError(f"got {X.shape[1]} features; the model takes {n_features}")
    if not np.logical_and.reduce(np.isfinite(X), None):  # ndarray.all without its wrapper
        row, feature = np.argwhere(~np.isfinite(X))[0]
        raise DataFormatError(f"row {row}: feature {feature} is {X[row, feature]}, not finite")
    return X


def dose_vector(values, n: int, what: str) -> np.ndarray:
    """values as n float64 doses, a scalar repeated on every row. DataFormatError
    says that ``what`` must be numbers when ``float_array`` refuses values or
    they are or hold a bool, names their shape and n when they are neither a
    scalar nor n values, and names the row of a NaN, infinite or negative dose."""
    doses = float_array(values, what)
    # True would read as the dose 1.0, in a list that mixes it with floats too
    if (type(values) is not np.ndarray or values.dtype.kind in "bO") and any(
            isinstance(v, (bool, np.bool_)) for v in np.asarray(values, dtype=object).flat):
        raise DataFormatError(f"{what} must be numbers: got booleans")
    if doses.ndim > 1 or doses.size not in (1, n):
        raise DataFormatError(f"{what} has shape {doses.shape} for {n} rows; "
                              "expected a scalar or one value per row")
    doses = np.broadcast_to(doses, (n,)).copy()
    if not np.isfinite(doses).all():
        row = int(np.flatnonzero(~np.isfinite(doses))[0])
        raise DataFormatError(f"row {row}: {what} is {doses[row]}, not finite")
    if (doses < 0.0).any():  # 0 is the control dose; -0.0 reads as it
        row = int(np.flatnonzero(doses < 0.0)[0])
        raise DataFormatError(f"row {row}: {what} is {doses[row]}, below 0")
    return doses


@dataclass(frozen=True)
class SynSpec:
    """Recipe for one synthetic benchmark."""

    name: str
    n_train: int
    n_test: int
    coupon_ratio: float
    modes: tuple[float, ...]
    mode_weights: tuple[float, ...]
    mode_jitter_sd: float
    target_avg_ctr: float
    confounding_strength: float
    seed: int

    def validate(self) -> None:
        """ConfigError naming the field unless the split sizes are integers of
        at least 1, seed one of at least 0, and every other number, each mode
        and mode weight included, a finite number (not a bool) in its range."""
        for name in ("n_train", "n_test"):
            _integer(getattr(self, name), name)
        _integer(self.seed, "seed", least=0)
        if len(self.modes) == 0:
            raise ConfigError("modes must be nonempty")
        if len(self.mode_weights) != len(self.modes):
            raise ConfigError("one weight per mode required")
        for mode in self.modes:
            _real(mode, "modes", 0.0, above=True)
        for weight in self.mode_weights:
            _real(weight, "mode_weights", 0.0)
        if abs(sum(self.mode_weights) - 1.0) > 1e-9:
            raise ConfigError("mode_weights must sum to 1")
        for name in ("coupon_ratio", "target_avg_ctr"):
            _real(getattr(self, name), name, 0.0, above=True)
            if not getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must lie in (0, 1)")
        _real(self.mode_jitter_sd, "mode_jitter_sd", 0.0, above=True)
        if min(self.modes) - JITTER_TRUNC * self.mode_jitter_sd <= 0:
            raise ConfigError("jitter too wide: doses could reach zero")
        _real(self.confounding_strength, "confounding_strength", 0.0)


PRESETS = {
    "syn1": SynSpec("syn1", 80_000, 8_000, 0.3478, (2.5,), (1.0,), 0.1, 0.208, 1.0, 101),
    "syn2": SynSpec("syn2", 80_000, 8_000, 0.3517, (1.5,), (1.0,), 0.1, 0.183, 1.0, 102),
    "syn3": SynSpec(
        "syn3", 80_000, 8_000, 0.3523, (1.0, 1.6, 2.4, 4.0), (0.25, 0.25, 0.25, 0.25),
        0.1, 0.209, 1.0, 103,
    ),
}


@dataclass
class GeneratorCoefficients:
    """Frozen draw of the latent functions behind one benchmark."""

    coef_ctr: np.ndarray        # a: logistic base-CTR direction
    coef_sensitivity: np.ndarray  # c: per-unit-uplift direction
    coef_propensity: np.ndarray   # d: treatment-assignment direction
    intercept_ctr: float = 0.0
    intercept_propensity: float = 0.0
    eta_max: float = 0.0

    def base_ctr(self, X: np.ndarray) -> np.ndarray:
        return expit(X @ self.coef_ctr + self.intercept_ctr)

    def sensitivity(self, X: np.ndarray) -> np.ndarray:
        return self.eta_max * expit(X @ self.coef_sensitivity)

    def click_prob(self, X: np.ndarray, t: np.ndarray) -> np.ndarray:
        return np.minimum(self.base_ctr(X) + self.sensitivity(X) * t, CLICK_PROB_CAP)


def _bisect(f, lo: float = -20.0, hi: float = 20.0, tol: float = 1e-12, iters: int = 200) -> float:
    """Root of a monotone-increasing f on [lo, hi]."""
    flo, fhi = f(lo), f(hi)
    if flo > 0 or fhi < 0:
        raise ConfigError("calibration target cannot be bracketed")
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def _scaled_direction(rng: np.random.Generator, L: np.ndarray, sd: float = 1.0) -> np.ndarray:
    """Random direction scaled so the projected covariate score has the given sd."""
    v = rng.standard_normal(N_FEATURES)
    return sd * v / np.linalg.norm(L.T @ v)


def _draw_doses(
    rng: np.random.Generator,
    spec: SynSpec,
    score: np.ndarray,
    confounded: bool,
) -> np.ndarray:
    """Dose per treated row: confounded (or uniform) mode choice plus truncated jitter."""
    n = score.shape[0]
    modes = np.asarray(spec.modes)
    logits = np.log(np.asarray(spec.mode_weights) + 1e-300)[None, :].repeat(n, axis=0)
    if confounded and len(modes) > 1 and spec.confounding_strength > 0:
        mode_rank = (modes - modes.mean()) / modes.std()
        logits = logits + spec.confounding_strength * score[:, None] * mode_rank[None, :]
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    cdf = np.cumsum(probs, axis=1)
    pick = np.minimum((rng.uniform(size=(n, 1)) > cdf).sum(axis=1), len(modes) - 1)
    # inverse-CDF truncated normal jitter: no rejection loop, one uniform per row
    lo, hi = norm.cdf(-JITTER_TRUNC), norm.cdf(JITTER_TRUNC)
    jitter = norm.ppf(lo + rng.uniform(size=n) * (hi - lo)) * spec.mode_jitter_sd
    return modes[pick] + jitter


def generate(spec: SynSpec) -> tuple[Dataset, Dataset]:
    """Generate the (train, test) pair for one benchmark spec.

    Draw order is fixed so a seed fully determines both splits. The latent
    functions are calibrated once against the train split (propensity
    intercept to the coupon ratio, sensitivity scale to the mean-uplift
    target, CTR intercept to the observed-CTR target) and then reused
    verbatim for the RCT test split. A train split that draws no treated
    row raises ConfigError naming the spec, n_train and coupon_ratio.
    """
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    cov = toeplitz(FEATURE_CORR ** np.arange(N_FEATURES))
    L = cholesky(cov, lower=True)

    coefs = GeneratorCoefficients(
        coef_ctr=_scaled_direction(rng, L, CTR_SCORE_SD),
        coef_sensitivity=_scaled_direction(rng, L, SENS_SCORE_SD),
        coef_propensity=_scaled_direction(rng, L),
    )

    X_train = rng.standard_normal((spec.n_train, N_FEATURES)) @ L.T
    score = X_train @ coefs.coef_propensity

    coefs.intercept_propensity = _bisect(
        lambda e: expit(score + e).mean() - spec.coupon_ratio
    )
    w_train = (rng.uniform(size=spec.n_train) < expit(score + coefs.intercept_propensity)).astype(int)
    treated = w_train == 1
    if not treated.any():  # the sensitivity scale below divides by the treated mean dose
        raise ConfigError(f"{spec.name}: the train split drew no treated row at "
                          f"n_train={spec.n_train}, coupon_ratio={spec.coupon_ratio}")

    t_train = np.zeros(spec.n_train)
    t_train[treated] = _draw_doses(rng, spec, score[treated], confounded=True)

    mean_sens = expit(X_train @ coefs.coef_sensitivity).mean()
    coefs.eta_max = MEAN_UPLIFT_TARGET / (mean_sens * t_train[treated].mean())

    eta_t = coefs.eta_max * expit(X_train @ coefs.coef_sensitivity) * t_train
    coefs.intercept_ctr = _bisect(
        lambda b: np.minimum(expit(X_train @ coefs.coef_ctr + b) + eta_t, CLICK_PROB_CAP).mean()
        - spec.target_avg_ctr
    )
    y_train = (rng.uniform(size=spec.n_train) < coefs.click_prob(X_train, t_train)).astype(int)

    X_test = rng.standard_normal((spec.n_test, N_FEATURES)) @ L.T
    w_test = (rng.uniform(size=spec.n_test) < spec.coupon_ratio).astype(int)
    t_test = np.zeros(spec.n_test)
    treated_test = w_test == 1
    t_test[treated_test] = _draw_doses(
        rng, spec, np.zeros(int(treated_test.sum())), confounded=False
    )
    y_test = (rng.uniform(size=spec.n_test) < coefs.click_prob(X_test, t_test)).astype(int)

    def build(X, w, t, y, split, rct):
        return Dataset(X, w, t, y, coefs.base_ctr(X), coefs.sensitivity(X),
                       split=split, rct=rct, meta=_metadata(spec, coefs, split, rct))

    train = build(X_train, w_train, t_train, y_train, "train", rct=False)
    test = build(X_test, w_test, t_test, y_test, "test", rct=True)
    return train, test


def _metadata(spec: SynSpec, coefs: GeneratorCoefficients, split: str, rct: bool) -> dict:
    return {
        "name": spec.name,
        "split": split,
        "rct": rct,
        "seed": spec.seed,
        "coupon_ratio": spec.coupon_ratio,
        "target_avg_ctr": spec.target_avg_ctr,
        "modes": list(spec.modes),
        "mode_weights": list(spec.mode_weights),
        "mode_jitter_sd": spec.mode_jitter_sd,
        "confounding_strength": spec.confounding_strength,
        "coef_ctr": coefs.coef_ctr.tolist(),
        "coef_sensitivity": coefs.coef_sensitivity.tolist(),
        "coef_propensity": coefs.coef_propensity.tolist(),
        "intercept_ctr": coefs.intercept_ctr,
        "intercept_propensity": coefs.intercept_propensity,
        "eta_max": float(coefs.eta_max),
    }


# ---------------------------------------------------------------------------
# CSV and metadata IO
# ---------------------------------------------------------------------------

_BASE_COLUMNS = [f"x{i}" for i in range(1, N_FEATURES + 1)] + ["w", "t", "y"]
_TRUTH_COLUMNS = ["truth_p0", "truth_eta"]
_WRITE_ROWS = 4096  # rows formatted by one string operation in save_csv


def meta_path(csv_path) -> Path:
    return Path(csv_path).with_suffix(".meta")


def save_csv(dataset: Dataset, path) -> None:
    """Write a dataset with full-precision decimals; metadata goes to a
    key=value sidecar with the same basename and a .meta suffix."""
    path = Path(path)
    if dataset.X.shape[1] != N_FEATURES:
        raise DataFormatError(f"the CSV format holds {N_FEATURES} features, "
                              f"the dataset has {dataset.X.shape[1]}")
    columns = [dataset.X, dataset.w, dataset.t, dataset.y]
    names = list(_BASE_COLUMNS)
    if dataset.has_truth:
        columns += [dataset.truth_p0, dataset.truth_eta]
        names += _TRUTH_COLUMNS
    # floats as their shortest round-trip repr, w and y as integers
    row = ",".join(["%r"] * N_FEATURES + ["%d", "%r", "%d"] + ["%r"] * (len(columns) - 4)) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(names) + "\n")
        for start in range(0, len(dataset), _WRITE_ROWS):
            block = np.column_stack([c[start : start + _WRITE_ROWS] for c in columns])
            fh.write((row * block.shape[0]) % tuple(block.ravel().tolist()))
    save_meta(meta_path(path), {**(dataset.meta or {}), "split": dataset.split, "rct": dataset.rct})


def save_meta(path, meta: dict) -> None:
    def text(value):
        if isinstance(value, (list, tuple, np.ndarray)):
            return " ".join(repr(float(v)) for v in value)
        return value

    kvfile.write(path, (f"{key}={text(meta[key])}" for key in sorted(meta)))


def _floats(raw: str) -> list:
    return [float(v) for v in raw.split()]


# parsers giving each metadata value that save_meta writes the type generate gave it
_META_PARSERS = {"name": str, "split": str, "rct": {"True": True, "False": False}.__getitem__,
                 "seed": int, "coupon_ratio": float, "target_avg_ctr": float, "modes": _floats,
                 "mode_weights": _floats, "mode_jitter_sd": float,
                 "confounding_strength": float, "coef_ctr": _floats,
                 "coef_sensitivity": _floats, "coef_propensity": _floats,
                 "intercept_ctr": float, "intercept_propensity": float, "eta_max": float}


def load_meta(path) -> dict:
    """A sidecar's metadata, each value of the type generate gives it (other
    keys as strings); a line that is not key=value, bytes that do not decode
    or a value that does not parse raise DataFormatError."""
    try:
        kv = kvfile.read(path)
    except ConfigError as exc:
        raise DataFormatError(str(exc)) from exc
    meta = {}
    for key, raw in kv.items():
        try:
            meta[key] = _META_PARSERS.get(key, str)(raw)
        except (ValueError, KeyError) as exc:
            raise DataFormatError(f"{path}: bad {key!r}: {raw!r}") from exc
    return meta


def load_csv(path) -> Dataset:
    """Read a dataset CSV and, as the dataset's meta, its sidecar if there is
    one; split and rct come from the sidecar (train and not RCT without one),
    and a split other than train or test, or a test split that is not RCT,
    raises a DataFormatError naming the sidecar. Empty lines are skipped but
    counted: a malformed row, one with bytes that do not decode included,
    raises a DataFormatError naming ``path:line``."""
    path = Path(path)
    with open(path, errors="replace") as fh:
        first = fh.readline()
        has_rows = any(line.rstrip("\r\n") for line in fh)  # as _data_lines counts rows
    if not first:
        raise DataFormatError(f"{path}: empty file")
    header = first.rstrip("\r\n").split(",")
    if header[: len(_BASE_COLUMNS)] != _BASE_COLUMNS:
        raise DataFormatError(f"{path}: unexpected header {first.rstrip()!r}")
    extra = header[len(_BASE_COLUMNS):]
    if extra not in ([], _TRUTH_COLUMNS):
        raise DataFormatError(f"{path}: unexpected trailing columns {extra}")

    dtype = np.dtype([("X", np.float64, (N_FEATURES,)), ("w", np.int64), ("t", np.float64),
                      ("y", np.int64)] + [(name, np.float64) for name in extra])
    try:
        # a header alone is a dataset of no rows, which np.loadtxt warns of
        rows = (np.loadtxt(path, dtype=dtype, delimiter=",", skiprows=1, comments=None, ndmin=1)
                if has_rows else np.empty(0, dtype))
    except ValueError as exc:  # a UnicodeDecodeError too
        raise _parse_error(path, dtype, exc) from exc
    truth = (rows["truth_p0"], rows["truth_eta"]) if extra else (None, None)
    columns = (rows["X"], rows["w"], rows["t"], rows["y"], *truth)
    bad = _first_invalid_row(*columns)
    if bad is not None:
        lineno, _ = next(islice(_data_lines(path), bad[0], None))
        raise DataFormatError(f"{path}:{lineno}: {bad[1]}")

    meta = load_meta(meta_path(path)) if meta_path(path).exists() else None
    flags = {key: meta[key] for key in ("split", "rct") if key in (meta or {})}
    try:
        return Dataset(*columns, **flags, meta=meta)
    except ConfigError as exc:  # the only ConfigErrors: a bad split or rct flag
        raise DataFormatError(f"{meta_path(path)}: {exc}") from exc


def _data_lines(path):
    """(line number, text) of each line np.loadtxt reads as a row; a byte
    that does not decode reads as U+FFFD, which no numeric field parses."""
    with open(path, errors="replace") as fh:
        next(fh)
        for lineno, line in enumerate(fh, start=2):
            if line.rstrip("\r\n"):
                yield lineno, line


def _parse_error(path, dtype, exc: ValueError) -> DataFormatError:
    """np.loadtxt does not number the failing line consistently, so parse
    the file again one line at a time to find it."""
    for lineno, line in _data_lines(path):
        try:
            np.loadtxt([line], dtype=dtype, delimiter=",", comments=None)
        except ValueError as line_exc:
            return DataFormatError(f"{path}:{lineno}: {str(line_exc).split(' at row ')[0]}")
    return DataFormatError(f"{path}: {exc}")
