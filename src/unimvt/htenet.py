"""Heterogeneous treatment effect network.

Two decoupled sigmoid towers sit on the disentangled representations: the
base tower estimates the no-intervention click probability from u0, the
treatment tower estimates the intervened probability from ut, with every
hidden layer modulated by a treatment-aware gate 2*sigmoid(W e_t + b). An
intensity head (behind stop-gradient) imputes the dose a unit would have
received; a ReLU uplift head outputs the nonnegative per-unit sensitivity.
Counterfactual estimators bridge the two towers in logit space by shifting
with t_hat * eta_hat, and the joint loss combines factual cross-entropies,
the intensity regression, the counterfactual MSE terms and the expert
orthogonality penalty.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.special import expit

from . import autodiff as ad
from . import kvfile
from .autodiff import PROB_EPS
from .config import (ExperimentConfig, LossWeights, apply_overrides, config_to_flat,
                     default_config)
from .datagen import Dataset, dataset_arrays, feature_matrix
from .dcr import DcrParams, dcr_forward, init_dcr, orth_penalty
from .errors import ConfigError, NumericError, UsageError

TREAT_ENC_DIM = 2        # normalized intensity and its square
UPLIFT_HEAD_INIT = 0.02  # initial uniform eta_hat, calibrated downstream by the X losses


@dataclass
class HteParams:
    """Towers, gates and heads; t bounds are fixed from the treated training
    split before any optimization happens."""

    base_tower: list
    treat_tower: list | None      # None when the treatment tower is ablated
    ta_gates: list                # one gate per treatment-tower hidden layer
    intensity_head: list
    uplift_head: list
    t_min: float
    t_max: float

    def __post_init__(self) -> None:
        if not (0.0 < self.t_min < self.t_max < np.inf):
            raise ConfigError(f"need 0 < t_min < t_max < inf, got [{self.t_min}, {self.t_max}]")
        if self.treat_tower is not None and len(self.ta_gates) != len(self.treat_tower) - 1:
            raise ConfigError("one TA-gate per treatment-tower hidden layer required")

    def parameters(self) -> list[ad.ParamTensor]:
        out = list(ad.mlp_params(self.base_tower))
        if self.treat_tower is not None:
            out.extend(ad.mlp_params(self.treat_tower))
            out.extend(ad.mlp_params(self.ta_gates))
        out.extend(ad.mlp_params(self.intensity_head))
        out.extend(ad.mlp_params(self.uplift_head))
        return out


@dataclass
class UniMvtModel:
    cfg: ExperimentConfig
    dcr: DcrParams
    hte: HteParams
    input_dim: int

    def parameters(self) -> list[ad.ParamTensor]:
        return self.dcr.parameters() + self.hte.parameters()


@dataclass
class Prediction:
    """Per-sample outputs; tau_hat is exactly (q or t_hat) * eta_hat."""

    p0_hat: float
    pt_hat: float
    t_hat: float
    eta_hat: float
    tau_hat: float
    extrapolated: bool = False


def build_model(cfg: ExperimentConfig, input_dim: int, t_min: float, t_max: float,
                seed: int = 0) -> UniMvtModel:
    widths = {"input_dim": input_dim, "dcr.experts_per_group": cfg.dcr.experts_per_group,
              "dcr.hidden": cfg.dcr.hidden, "dcr.out_dim": cfg.dcr.out_dim,
              "net.tower_hidden": min(cfg.net.tower_hidden, default=1),
              "net.head_hidden": cfg.net.head_hidden}
    for key, width in widths.items():
        if width < 1:
            raise ConfigError(f"{key} must be positive, got {width}")
    rng = np.random.default_rng(seed)
    dcr_params = init_dcr(rng, input_dim, cfg.dcr, cfg.ablate.dcr)
    rep = dcr_params.output_dim
    tower_dims = (rep, *cfg.net.tower_hidden, 1)
    base_tower = ad.init_mlp(rng, "base_tower", tower_dims, out_activation="sigmoid")
    if cfg.ablate.treat_tower:
        treat_tower, ta_gates = None, []
    else:
        treat_tower = ad.init_mlp(rng, "treat_tower", tower_dims, out_activation="sigmoid")
        ta_gates = [
            ad.Layer(
                ad.ParamTensor(f"ta_gate{i}.W", ad.glorot_uniform(rng, TREAT_ENC_DIM, width)),
                ad.ParamTensor(f"ta_gate{i}.b", np.zeros(width)),
            )
            for i, width in enumerate(cfg.net.tower_hidden)
        ]
    head_dims = (rep, cfg.net.head_hidden, 1)
    intensity_head = ad.init_mlp(rng, "intensity_head", head_dims)
    uplift_head = ad.init_mlp(rng, "uplift_head", head_dims)
    # zero output weights with a small positive bias start the ReLU head alive
    # and uniform; a symmetric random start risks dying for good while the base
    # tower is still miscalibrated early in training
    uplift_head[-1].W.values[:] = 0.0
    uplift_head[-1].b.values[:] = UPLIFT_HEAD_INIT
    hte = HteParams(base_tower, treat_tower, ta_gates, intensity_head, uplift_head,
                    float(t_min), float(t_max))
    return UniMvtModel(cfg=cfg, dcr=dcr_params, hte=hte, input_dim=input_dim)


# ---------------------------------------------------------------------------
# forward pieces
# ---------------------------------------------------------------------------

def treatment_encoding(t_raw: ad.Node, t_min: float, t_max: float, tape: ad.Tape) -> ad.Node:
    """e_t: intensity min-max normalized by the model's t bounds, plus its square."""
    tn = tape.scale(tape.add(t_raw, -t_min), 1.0 / (t_max - t_min))
    return tape.concat([tn, tape.square(tn)], axis=1)


def ta_gate(gate: ad.Layer, e_t: ad.Node, h: ad.Node, tape: ad.Tape) -> ad.Node:
    """Scale hidden activations by a = 2*sigmoid(W e_t + b), elementwise in (0, 2)."""
    a = tape.scale(tape.sigmoid(tape.affine(e_t, tape.param(gate.W), tape.param(gate.b))), 2.0)
    return tape.mul(a, h)


def treat_tower_forward(hte: HteParams, ut: ad.Node, e_t: ad.Node, tape: ad.Tape) -> ad.Node:
    """Treatment tower with a TA-gate after every hidden layer (never the output)."""
    h = ut
    for i, layer in enumerate(hte.treat_tower[:-1]):
        h = tape.affine(h, tape.param(layer.W), tape.param(layer.b))
        h = tape.relu(h)
        h = ta_gate(hte.ta_gates[i], e_t, h, tape)
    last = hte.treat_tower[-1]
    return tape.sigmoid(tape.affine(h, tape.param(last.W), tape.param(last.b)))


def intensity_head_forward(hte: HteParams, ut: ad.Node, tape: ad.Tape) -> ad.Node:
    """t_hat = sigmoid(MLP(SG(ut))) scaled into (t_min, t_max); no gradient
    reaches the representation layer from this head."""
    z = ad.mlp_forward(hte.intensity_head, tape.stop_gradient(ut), tape)
    return tape.add(tape.scale(tape.sigmoid(z), hte.t_max - hte.t_min), hte.t_min)


def uplift_head_forward(hte: HteParams, ut: ad.Node, tape: ad.Tape) -> ad.Node:
    """eta_hat = ReLU(MLP(ut)) >= 0; nonnegativity is structural."""
    return tape.relu(ad.mlp_forward(hte.uplift_head, ut, tape))


# the treated counterfactual in plain numpy (inference path); the tape route in
# joint_loss_arrays applies the same formula with autodiff primitives

def logit_np(p):
    p = np.clip(np.asarray(p, dtype=np.float64), PROB_EPS, 1.0 - PROB_EPS)
    return np.log(p) - np.log1p(-p)


def counterfactual_treat(p0_hat, t_hat, eta_hat):
    """Treated probability imputed from the base estimate: sigmoid(logit(p0) + t*eta)."""
    return expit(logit_np(p0_hat) + np.asarray(t_hat) * np.asarray(eta_hat))


# ---------------------------------------------------------------------------
# joint loss
# ---------------------------------------------------------------------------

# loss component -> the LossWeights field that weighs it
LOSS_COMPONENTS = {"l_base": "lambda_base", "l_treat": "lambda_treat", "l_t": "lambda_t",
                   "l_x": "lambda_x", "r_orth": "lambda_o"}


def joint_loss_arrays(X, w, t, y, dcr_params: DcrParams, hte: HteParams,
                      weights: LossWeights, tape: ad.Tape):
    """Joint loss over a batch: lambda-weighted sum of the factual
    cross-entropies, intensity regression, counterfactual MSE and the
    orthogonality penalty. Returns (total node, per-term unweighted sums)."""
    n = X.shape[0]
    if n == 0:
        raise UsageError("joint_loss needs a nonempty batch")
    w_col = np.asarray(w, dtype=np.float64).reshape(-1, 1)
    y_col = np.asarray(y, dtype=np.float64).reshape(-1, 1)
    t_col = np.asarray(t, dtype=np.float64).reshape(-1, 1)
    ctrl_mask = 1.0 - w_col

    x_node = tape.constant(np.asarray(X, dtype=np.float64))
    rep = dcr_forward(dcr_params, x_node, tape)
    p0 = ad.mlp_forward(hte.base_tower, rep.u0, tape)
    t_hat = intensity_head_forward(hte, rep.ut, tape)
    eta = uplift_head_forward(hte, rep.ut, tape)
    tau = tape.mul(t_hat, eta)

    # observed dose drives the gate on treated rows; the imputed dose on controls
    t_mix = tape.add(tape.mul(ctrl_mask, t_hat), t_col)
    if hte.treat_tower is not None:
        e_t = treatment_encoding(t_mix, hte.t_min, hte.t_max, tape)
        pt = treat_tower_forward(hte, rep.ut, e_t, tape)
    else:
        pt = tape.sigmoid(tape.add(tape.logit(p0), tau))

    components = dict.fromkeys(LOSS_COMPONENTS, 0.0)
    total = None

    def accumulate(name, node, lam):
        nonlocal total
        components[name] = float(node.value)
        weighted = tape.scale(node, lam)
        total = weighted if total is None else tape.add(total, weighted)

    if weights.lambda_base > 0:
        accumulate("l_base",
                   tape.sum_all(tape.mul(ctrl_mask, tape.binary_cross_entropy(y_col, p0))),
                   weights.lambda_base)
    if weights.lambda_treat > 0 and hte.treat_tower is not None:
        accumulate("l_treat", tape.sum_all(tape.mul(w_col, tape.binary_cross_entropy(y_col, pt))),
                   weights.lambda_treat)
    if weights.lambda_t > 0:
        err = tape.sub(t_col, t_hat)
        per_row = tape.add(tape.scale(tape.square(err), weights.l2),
                           tape.scale(tape.absolute(err), weights.l1))
        accumulate("l_t", tape.sum_all(tape.mul(w_col, per_row)), weights.lambda_t)
    if weights.lambda_x > 0:
        p_treat_cf = tape.sigmoid(tape.add(tape.logit(p0), tau))
        p_base_cf = tape.sigmoid(tape.sub(tape.logit(pt), tau))
        x_treat = tape.sum_all(tape.mul(w_col, tape.square(tape.sub(y_col, p_treat_cf))))
        x_base = tape.sum_all(tape.mul(ctrl_mask, tape.square(tape.sub(y_col, p_base_cf))))
        accumulate("l_x", tape.add(x_treat, x_base), weights.lambda_x)
    if weights.lambda_o > 0 and dcr_params.enabled:
        accumulate("r_orth", orth_penalty(dcr_params, tape), weights.lambda_o)

    if total is None:
        total = tape.constant(0.0)
    return total, components


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def train(dataset: Dataset, cfg: ExperimentConfig):
    """Train on one dataset; returns (model, per-epoch history of loss components).

    Each history record holds the per-row means of the loss terms (r_orth,
    which does not grow with the batch, is a per-batch mean) and their total
    under the loss weights in effect.

    Deterministic in (cfg, seed): parameter init, batch shuffling and every
    update derive from one seeded generator.
    """
    X, w, t, y, _, _ = dataset_arrays(dataset)
    if X.shape[0] == 0:
        raise UsageError("training needs a nonempty dataset")
    treated = w == 1
    if not treated.any():
        raise ConfigError("training data has no treated rows; t bounds undefined")
    t_min, t_max = float(t[treated].min()), float(t[treated].max())

    seed = cfg.train.seed
    model = build_model(cfg, X.shape[1], t_min, t_max, seed=seed)
    weights = replace(cfg.loss)
    if cfg.ablate.xnet:
        weights = replace(weights, lambda_x=0.0)
    weights.validate()

    params = model.parameters()
    state = ad.OptimizerState.for_params(params, lr=cfg.train.lr)
    rng = np.random.default_rng(seed + 1)  # shuffle stream separate from init
    n = X.shape[0]
    history = []
    for epoch in range(cfg.train.epochs):
        perm = rng.permutation(n)
        sums = dict.fromkeys(LOSS_COMPONENTS, 0.0)
        n_batches = 0
        for start in range(0, n, cfg.train.batch):
            idx = perm[start : start + cfg.train.batch]
            tape = ad.Tape()
            total, comps = joint_loss_arrays(
                X[idx], w[idx], t[idx], y[idx], model.dcr, model.hte, weights, tape
            )
            if not np.isfinite(total.value):
                raise NumericError(
                    f"non-finite loss at epoch {epoch} batch {start // cfg.train.batch}"
                )
            ad.backward(tape)
            ad.optimizer_step(params, state)
            for k in LOSS_COMPONENTS:
                sums[k] += comps[k]
            n_batches += 1
        means = {k: sums[k] / (n_batches if k == "r_orth" else n) for k in LOSS_COMPONENTS}
        total = sum(getattr(weights, lam) * means[k] for k, lam in LOSS_COMPONENTS.items())
        history.append({"epoch": epoch, "total": total, **means})
    return model, history


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------

def predict_batch(model: UniMvtModel, X: np.ndarray, q=None) -> dict:
    """Vectorized prediction. When q (scalar or per-row array) is given, the
    treated probability and tau_hat are evaluated at that intensity instead of
    the imputed t_hat; values outside [t_min, t_max] set the extrapolated flag.

    The uplift head learns a per-unit logit shift (that is how the
    counterfactual losses calibrate it); the reported unit uplift eta_hat is
    the implied click-probability gain per unit of intensity, read off the
    counterfactual at the imputed dose:

        eta_hat = (sigmoid(logit(p0_hat) + t_hat * head) - p0_hat) / t_hat

    which puts it in the same units as the ground-truth sensitivity and the
    meta-learner baselines, and is what allocator.decide reads: the click
    probability at intensity q is p0_hat + q * eta_hat there. The raw head
    output is returned as eta_head.

    A NaN or infinite feature raises DataFormatError naming its row and
    feature index.
    """
    X = feature_matrix(X)
    n = X.shape[0]
    hte = model.hte
    tape = ad.Tape()
    rep = dcr_forward(model.dcr, tape.constant(X), tape)
    p0 = ad.mlp_forward(hte.base_tower, rep.u0, tape).value.reshape(-1)
    t_hat = intensity_head_forward(hte, rep.ut, tape).value.reshape(-1)
    eta_head = uplift_head_forward(hte, rep.ut, tape).value.reshape(-1)

    def clip(p):
        return np.clip(p, PROB_EPS, 1.0 - PROB_EPS)

    p0 = clip(p0)
    eta = np.maximum((counterfactual_treat(p0, t_hat, eta_head) - p0) / t_hat, 0.0)

    if q is None:
        t_eff = t_hat
        extrapolated = np.zeros(n, dtype=bool)
    else:
        t_eff = np.broadcast_to(np.asarray(q, dtype=np.float64), (n,)).copy()
        extrapolated = (t_eff < hte.t_min) | (t_eff > hte.t_max)
    tau = t_eff * eta

    if hte.treat_tower is not None:
        e_t = treatment_encoding(tape.constant(t_eff.reshape(-1, 1)), hte.t_min, hte.t_max, tape)
        pt = treat_tower_forward(hte, rep.ut, e_t, tape).value.reshape(-1)
    else:
        pt = counterfactual_treat(p0, t_eff, eta_head)

    return {
        "p0_hat": p0,
        "pt_hat": clip(pt),
        "t_hat": t_hat,
        "eta_hat": eta,
        "eta_head": eta_head,
        "tau_hat": tau,
        "extrapolated": extrapolated,
    }


def predict(model: UniMvtModel, x, q: float | None = None) -> Prediction:
    out = predict_batch(model, np.atleast_2d(x), q=q)
    return Prediction(
        p0_hat=float(out["p0_hat"][0]),
        pt_hat=float(out["pt_hat"][0]),
        t_hat=float(out["t_hat"][0]),
        eta_hat=float(out["eta_hat"][0]),
        tau_hat=float(out["tau_hat"][0]),
        extrapolated=bool(out["extrapolated"][0]),
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

# the config keys a model file records: those that shape the network
_CONFIG_KEYS = ("dcr.experts_per_group", "dcr.hidden", "dcr.out_dim",
                "net.tower_hidden", "net.head_hidden",
                "ablate.dcr", "ablate.xnet", "ablate.treat_tower")


def save_model(model: UniMvtModel, path) -> None:
    flat = config_to_flat(model.cfg)
    lines = ["kind=unimvt", f"input_dim={model.input_dim}",
             f"t_min={model.hte.t_min!r}", f"t_max={model.hte.t_max!r}"]
    lines.extend(f"{key}={flat[key]}" for key in _CONFIG_KEYS)
    lines.extend(kvfile.param_line(p) for p in model.parameters())
    kvfile.write(path, lines)


def load_model(path) -> UniMvtModel:
    kv = kvfile.read(path)
    if kv.get("kind") != "unimvt":
        raise ConfigError(f"not a unimvt model file: kind={kv.get('kind')!r}")
    cfg = default_config()
    for key in _CONFIG_KEYS:
        kvfile.field(kv, key, lambda raw: apply_overrides(cfg, {key: raw}))
    model = build_model(cfg, kvfile.field(kv, "input_dim", int),
                        kvfile.field(kv, "t_min", float), kvfile.field(kv, "t_max", float))
    kvfile.restore_params(kv, model.parameters())
    return model
