"""S-Learner and T-Learner reference models for multi-valued treatments.

Both reuse the tower sizes and optimizer of the main model so comparisons
isolate architecture rather than capacity. Intensity enters as an extra
input feature, min-max normalized by the same treated-support bounds the
main model uses; unit uplift is read off by contrasting normalized intensity
1 (the raw treated maximum t_max) against no treatment.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .config import ExperimentConfig, check_network
from .datagen import Dataset, dataset_arrays, feature_matrix
from .errors import ConfigError, UsageError


def _normalize_t(t, t_min: float, t_max: float):
    return (np.asarray(t, dtype=np.float64) - t_min) / (t_max - t_min)


def _mlp_predict(layers, X: np.ndarray, tn=None) -> np.ndarray:
    """The net's output on the rows of X, with the per-row normalized dose tn
    as its last input when given, scored in ``autodiff.row_blocks``: each
    block's inputs are built and recorded on a fresh tape."""
    out = []
    for rows in ad.row_blocks(X.shape[0]):
        inputs = X[rows] if tn is None else np.column_stack([X[rows], tn[rows]])
        tape = ad.Tape()
        out.append(ad.mlp_forward(layers, tape.constant(inputs), tape).value.reshape(-1))
    return out[0] if len(out) == 1 else np.concatenate(out)


def _fit_binary_mlp(layers, inputs, labels, cfg: ExperimentConfig, rng) -> None:
    """Cross-entropy minimization with the shared minibatch-Adam loop."""
    y_col = np.asarray(labels, dtype=np.float64).reshape(-1, 1)

    def batch_loss(rows, tape):
        p = ad.mlp_forward(layers, tape.constant(inputs[rows]), tape)
        return tape.sum_all(tape.binary_cross_entropy(y_col[rows], p)), None

    ad.minibatch_adam(ad.mlp_params(layers), inputs.shape[0], batch_loss, cfg.train, rng)


@dataclass
class SLearnerModel:
    """Single net over (x, normalized t); control rows enter with t = 0."""

    net: list
    t_min: float
    t_max: float

    def outcome_prob(self, X, t) -> np.ndarray:
        X = feature_matrix(X, self.net[0].W.shape[0] - 1)  # the net's last input is the dose
        tn = np.broadcast_to(_normalize_t(t, self.t_min, self.t_max), (X.shape[0],))
        return _mlp_predict(self.net, X, tn)

    def base_ctr(self, X) -> np.ndarray:
        return self.outcome_prob(X, 0.0)

    def unit_uplift_scores(self, X) -> np.ndarray:
        return self.outcome_prob(X, self.t_max) - self.outcome_prob(X, 0.0)


@dataclass
class TLearnerModel:
    """Independent control net f_C(x) and treated net f_T(x, normalized t)."""

    control_net: list
    treated_net: list
    t_min: float
    t_max: float

    def _features(self, X) -> np.ndarray:
        return feature_matrix(X, self.control_net[0].W.shape[0])

    def base_ctr(self, X) -> np.ndarray:
        return _mlp_predict(self.control_net, self._features(X))

    def treated_prob(self, X, t) -> np.ndarray:
        X = self._features(X)
        tn = np.broadcast_to(_normalize_t(t, self.t_min, self.t_max), (X.shape[0],))
        return _mlp_predict(self.treated_net, X, tn)

    def outcome_prob(self, X, t) -> np.ndarray:
        X = self._features(X)
        t = np.broadcast_to(np.asarray(t, dtype=np.float64), (X.shape[0],))
        return np.where(t > 0, self.treated_prob(X, t), self.base_ctr(X))

    def unit_uplift_scores(self, X) -> np.ndarray:
        return self.treated_prob(X, self.t_max) - self.base_ctr(X)


def _t_bounds(w, t) -> tuple[float, float]:
    treated = w == 1
    if treated.any():
        lo, hi = float(t[treated].min()), float(t[treated].max())
        if lo < hi:
            return lo, hi
        return lo - 0.5, lo + 0.5  # degenerate single-dose support
    return 0.0, 1.0  # all-control data: raw intensity passes through


def train_slearner(dataset: Dataset, cfg: ExperimentConfig) -> SLearnerModel:
    X, w, t, y, _, _ = dataset_arrays(dataset)
    if X.shape[0] == 0:
        raise UsageError("training needs a nonempty dataset")
    t_min, t_max = _t_bounds(w, t)
    check_network(cfg, X.shape[1])
    rng = np.random.default_rng(cfg.train.checked_seed())
    dims = (X.shape[1] + 1, *cfg.net.tower_hidden, 1)
    net = ad.init_mlp(rng, "slearner", dims, out_activation="sigmoid")
    inputs = np.column_stack([X, _normalize_t(t, t_min, t_max)])
    _fit_binary_mlp(net, inputs, y, cfg, rng)
    return SLearnerModel(net, t_min, t_max)


def train_tlearner(dataset: Dataset, cfg: ExperimentConfig) -> TLearnerModel:
    X, w, t, y, _, _ = dataset_arrays(dataset)
    ctrl, trt = w == 0, w == 1
    if not ctrl.any() or not trt.any():
        raise ConfigError("T-Learner needs both control and treated rows")
    t_min, t_max = _t_bounds(w, t)
    check_network(cfg, X.shape[1])
    rng = np.random.default_rng(cfg.train.checked_seed())
    control_net = ad.init_mlp(rng, "tlearner.control", (X.shape[1], *cfg.net.tower_hidden, 1),
                              out_activation="sigmoid")
    treated_net = ad.init_mlp(rng, "tlearner.treated", (X.shape[1] + 1, *cfg.net.tower_hidden, 1),
                              out_activation="sigmoid")
    _fit_binary_mlp(control_net, X[ctrl], y[ctrl], cfg, rng)
    treated_inputs = np.column_stack([X[trt], _normalize_t(t[trt], t_min, t_max)])
    _fit_binary_mlp(treated_net, treated_inputs, y[trt], cfg, rng)
    return TLearnerModel(control_net, treated_net, t_min, t_max)
