"""S-Learner and T-Learner reference models for multi-valued treatments.

Both reuse the tower sizes and optimizer of the main model so comparisons
isolate architecture rather than capacity, and both take the treated support
(t_min, t_max) of their training split from ``datagen.treated_support``, as the
main model does. Intensity enters as an extra input feature, min-max normalized
by that support; unit uplift is read off by contrasting normalized intensity 1
(the raw treated maximum t_max) against no treatment, so ``unit_uplift_scores``
is f(x, t_max) - f(x, 0), a gain over the whole dose that reads per unit of
dose, as the main model's eta_hat does, only after dividing by t_max. A dose is
checked as the main model's q is, by ``datagen.dose_vector``; its errors call
it t. Each public scoring entry checks X and its dose once, then hands the
checked arrays to private scorers, which check nothing. The nets output logits,
read through ``expit`` in ``_mlp_predict`` and in the one loss node.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from . import autodiff as ad
from .config import ExperimentConfig, validate
from .datagen import Dataset, dataset_arrays, dose_vector, feature_matrix, treated_support
from .errors import ConfigError


def _normalize_t(t: np.ndarray, t_min: float, t_max: float) -> np.ndarray:
    """Checked doses t min-max normalized by [t_min, t_max]."""
    return (t - t_min) / (t_max - t_min)


def _mlp_predict(layers, X: np.ndarray, tn=None) -> np.ndarray:
    """expit of the net's logits on the rows of X, with the per-row normalized
    dose tn as its last input when given, scored in ``autodiff.row_blocks``:
    each block's inputs are built and run through ``autodiff.mlp`` in turn."""
    out = []
    for rows in ad.row_blocks(X.shape[0]):
        inputs = X[rows] if tn is None else np.column_stack([X[rows], tn[rows]])
        out.append(expit(ad.mlp(layers, inputs)[0].reshape(-1)))
    return out[0] if len(out) == 1 else np.concatenate(out)


def _fit_binary_mlp(layers, inputs, labels, cfg: ExperimentConfig, rng) -> None:
    """Cross-entropy minimization with the shared minibatch-Adam loop, one loss
    node a batch whose parents are the net's weights: on the logits z of
    ``autodiff.mlp``, p = expit(z), and the cross-entropy's vjp times
    p (1 - p) goes back through the net's vjp."""
    y_col = np.asarray(labels, dtype=np.float64).reshape(-1, 1)
    params = ad.mlp_params(layers)

    def batch_loss(rows, tape):
        z, net_vjp = ad.mlp(layers, inputs[rows])
        p = expit(z)
        value, vjp = ad.cross_entropy(y_col[rows], p)

        def loss_vjp(g):  # the cross-entropy's vjp through the sigmoid, then the net's
            return net_vjp(vjp(float(g)) * p * (1.0 - p))

        return tape.record(value.sum(), params, loss_vjp), None

    ad.minibatch_adam(params, inputs.shape[0], batch_loss, cfg.train, rng)


@dataclass
class SLearnerModel:
    """Single net over (x, normalized t); control rows enter with t = 0."""

    net: list
    t_min: float
    t_max: float

    def _features(self, X) -> np.ndarray:
        return feature_matrix(X, self.net[0].W.shape[0] - 1)  # the net's last input is the dose

    def _prob(self, X: np.ndarray, t: np.ndarray) -> np.ndarray:
        return _mlp_predict(self.net, X, _normalize_t(t, self.t_min, self.t_max))

    def outcome_prob(self, X, t) -> np.ndarray:
        X = self._features(X)
        return self._prob(X, dose_vector(t, len(X), "t"))

    def base_ctr(self, X) -> np.ndarray:
        X = self._features(X)
        return self._prob(X, np.zeros(len(X)))

    def unit_uplift_scores(self, X) -> np.ndarray:
        X = self._features(X)
        return self._prob(X, np.full(len(X), self.t_max)) - self._prob(X, np.zeros(len(X)))


@dataclass
class TLearnerModel:
    """Independent control net f_C(x) and treated net f_T(x, normalized t)."""

    control_net: list
    treated_net: list
    t_min: float
    t_max: float

    def _features(self, X) -> np.ndarray:
        return feature_matrix(X, self.control_net[0].W.shape[0])

    def _treated(self, X: np.ndarray, t: np.ndarray) -> np.ndarray:
        return _mlp_predict(self.treated_net, X, _normalize_t(t, self.t_min, self.t_max))

    def base_ctr(self, X) -> np.ndarray:
        return _mlp_predict(self.control_net, self._features(X))

    def treated_prob(self, X, t) -> np.ndarray:
        X = self._features(X)
        return self._treated(X, dose_vector(t, len(X), "t"))

    def outcome_prob(self, X, t) -> np.ndarray:
        X = self._features(X)
        t = dose_vector(t, len(X), "t")
        return np.where(t > 0, self._treated(X, t), _mlp_predict(self.control_net, X))

    def unit_uplift_scores(self, X) -> np.ndarray:
        X = self._features(X)
        return self._treated(X, np.full(len(X), self.t_max)) - _mlp_predict(self.control_net, X)


def train_slearner(dataset: Dataset, cfg: ExperimentConfig) -> SLearnerModel:
    X, w, t, y, _, _ = dataset_arrays(dataset)
    t_min, t_max = treated_support(w, t)
    validate(cfg, X.shape[1])
    rng = np.random.default_rng(cfg.train.seed)
    dims = (X.shape[1] + 1, *cfg.net.tower_hidden, 1)
    net = ad.init_mlp(rng, "slearner", dims)
    inputs = np.column_stack([X, _normalize_t(t, t_min, t_max)])
    _fit_binary_mlp(net, inputs, y, cfg, rng)
    return SLearnerModel(net, t_min, t_max)


def train_tlearner(dataset: Dataset, cfg: ExperimentConfig) -> TLearnerModel:
    X, w, t, y, _, _ = dataset_arrays(dataset)
    t_min, t_max = treated_support(w, t)
    ctrl, trt = w == 0, w == 1
    if not ctrl.any():
        raise ConfigError("T-Learner needs control rows to fit its control net")
    validate(cfg, X.shape[1])
    rng = np.random.default_rng(cfg.train.seed)
    control_net = ad.init_mlp(rng, "tlearner.control", (X.shape[1], *cfg.net.tower_hidden, 1))
    treated_net = ad.init_mlp(rng, "tlearner.treated", (X.shape[1] + 1, *cfg.net.tower_hidden, 1))
    _fit_binary_mlp(control_net, X[ctrl], y[ctrl], cfg, rng)
    treated_inputs = np.column_stack([X[trt], _normalize_t(t[trt], t_min, t_max)])
    _fit_binary_mlp(treated_net, treated_inputs, y[trt], cfg, rng)
    return TLearnerModel(control_net, treated_net, t_min, t_max)
