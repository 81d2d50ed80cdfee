"""Heterogeneous treatment effect network.

Two decoupled sigmoid towers sit on the disentangled representations: the
base tower estimates the no-intervention click probability from u0, the
treatment tower estimates the intervened probability from ut, with every
hidden layer modulated by a treatment-aware gate 2*sigmoid(W e_t + b). The
TA gates are one gate bank, a (2, sum of tower widths) weight and its bias,
in which hidden layer i's gate is the block of columns its width gives. Each
tower is one tape node: the base tower through ``autodiff.mlp_forward``, the
TA-gated treatment tower, dose encoding included, through its own vjp, with
the logits of all its TA gates computed by one GEMM of the bank and their
gradients by one GEMM back. An intensity head, which reads the
representation as a constant, imputes the dose a unit would have received,
t_hat, its sigmoid output rescaled into [t_min, t_max] by one more node; a
ReLU uplift head outputs the nonnegative per-unit sensitivity.
The counterfactual bridge ``Tape.bridge`` links the towers in logit space by
shifting with t_hat * eta, one node over p, t_hat and eta: up from p0 to the
treated counterfactual, and in training down from pt to the untreated one.
One ``forward`` records the network for training and prediction alike,
which differ only in two arrays of data, imputed and dose, that gate the
treatment tower at imputed * t_hat + dose: training passes (1 - w, t), scoring
(1, 0) to gate at t_hat or (0, q) to gate at q. Prediction records it in
blocks of ``autodiff.SCORE_ROWS`` rows, each on a fresh tape, so scoring
holds one block's tape whatever the row count.
The joint loss is one closed-form node (``loss_terms``) over the factual
cross-entropies, the intensity regression, the counterfactual MSE terms and
the expert orthogonality penalty, which enters it as an operand;
``train`` runs it in the shared loop ``autodiff.minibatch_adam``.
The uplift head reaches the joint loss only through the counterfactual
terms, so ``loss.lambda_x = 0`` leaves it untrained at its initialization.
"""
from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import expit

from . import autodiff as ad
from . import kvfile
from .autodiff import PROB_EPS
from .config import (ExperimentConfig, LossWeights, _integer, apply_overrides,
                     config_to_flat, default_config, validate)
from .datagen import Dataset, dataset_arrays, dose_vector, feature_matrix
from .dcr import DcrParams, dcr_forward, init_dcr, orth_penalty
from .errors import ConfigError, DataFormatError, NumericError, UsageError

TREAT_ENC_DIM = 2        # normalized intensity and its square
UPLIFT_HEAD_INIT = 0.02  # initial uniform eta_hat, calibrated downstream by the X losses


@dataclass
class HteParams:
    """Towers, gates and heads; t bounds are fixed from the treated training
    split before any optimization happens."""

    base_tower: list
    treat_tower: list
    ta_gates: ad.Layer            # the TA gate bank: one block of columns per hidden layer
    intensity_head: list
    uplift_head: list
    t_min: float
    t_max: float

    def __post_init__(self) -> None:
        if not (0.0 < self.t_min < self.t_max < np.inf):
            raise ConfigError(f"need 0 < t_min < t_max < inf, got [{self.t_min}, {self.t_max}]")
        width = sum(layer.W.shape[1] for layer in self.treat_tower[:-1])
        if self.ta_gates.W.shape != (TREAT_ENC_DIM, width) or self.ta_gates.b.shape != (width,):
            raise ConfigError("the TA gate bank needs one column per treatment-tower hidden unit")

    @cached_property
    def ta_cols(self) -> tuple[slice, ...]:
        """Hidden layer i's columns of the TA gate bank, from the tower widths."""
        cols, start = [], 0
        for layer in self.treat_tower[:-1]:
            cols.append(slice(start, start + layer.W.shape[1]))
            start = cols[-1].stop
        return tuple(cols)

    def parameters(self) -> list[ad.ParamTensor]:
        return [*ad.mlp_params(self.base_tower), *ad.mlp_params(self.treat_tower),
                self.ta_gates.W, self.ta_gates.b, *ad.mlp_params(self.intensity_head),
                *ad.mlp_params(self.uplift_head)]


@dataclass
class UniMvtModel:
    cfg: ExperimentConfig
    dcr: DcrParams
    hte: HteParams

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
    validate(cfg, input_dim)
    _integer(seed, "seed", least=0)
    rng = np.random.default_rng(seed)
    dcr_params = init_dcr(rng, input_dim, cfg.dcr, cfg.ablate.dcr)
    rep = dcr_params.output_dim
    tower_dims = (rep, *cfg.net.tower_hidden, 1)
    base_tower = ad.init_mlp(rng, "base_tower", tower_dims, out_activation="sigmoid")
    treat_tower = ad.init_mlp(rng, "treat_tower", tower_dims, out_activation="sigmoid")
    # drawn gate by gate: the order of one linear layer per hidden layer
    draws = [ad.glorot_uniform(rng, TREAT_ENC_DIM, width) for width in cfg.net.tower_hidden]
    gate_w = np.concatenate(draws, axis=1) if draws else np.zeros((TREAT_ENC_DIM, 0))
    ta_gates = ad.Layer(ad.ParamTensor("ta_gates.W", gate_w),
                        ad.ParamTensor("ta_gates.b", np.zeros(gate_w.shape[1])))
    head_dims = (rep, cfg.net.head_hidden, 1)
    intensity_head = ad.init_mlp(rng, "intensity_head", head_dims, out_activation="sigmoid")
    uplift_head = ad.init_mlp(rng, "uplift_head", head_dims, out_activation="relu")
    # zero output weights with a small positive bias start the ReLU head alive
    # and uniform; a symmetric random start risks dying for good while the base
    # tower is still miscalibrated early in training
    uplift_head[-1].W.values[:] = 0.0
    uplift_head[-1].b.values[:] = UPLIFT_HEAD_INIT
    hte = HteParams(base_tower, treat_tower, ta_gates, intensity_head, uplift_head,
                    float(t_min), float(t_max))
    return UniMvtModel(cfg=cfg, dcr=dcr_params, hte=hte)


# ---------------------------------------------------------------------------
# forward pieces
# ---------------------------------------------------------------------------

def treat_tower_forward(hte: HteParams, ut: ad.Node, t_hat: ad.Node, imputed, dose,
                        tape: ad.Tape) -> ad.Node:
    """pt, the treatment tower on ut at the gate dose imputed * t_hat + dose
    (imputed and dose are arrays), recorded as one node with its own vjp, which
    gives t_hat the dose's gradient times imputed. The dose, min-max normalized
    by the t bounds to tn, is encoded as e_t = [tn, tn^2]; hidden layer i gives
    h = a_i * relu(h W_i + b_i) with the TA gate a_i = 2*sigmoid(e_t G_i + g_i)
    elementwise in (0, 2), and the output is sigmoid(h W + b). G_i and g_i
    are layer i's columns of the TA gate bank (``HteParams.ta_cols``), so
    every gate's logits come from one GEMM, e_t @ G + g, and the vjp gives
    the bank's whole gradients from one GEMM back. A non-finite affine
    output raises NumericError naming the layer (its index and weight); gate
    i counts as layer i, named by the bank's weight and its index."""
    c = 1.0 / (hte.t_max - hte.t_min)
    tn = (imputed * t_hat.value + dose + -hte.t_min) * c
    e_t = np.concatenate([tn, tn * tn], axis=1)
    *layers, out = hte.treat_tower
    bank, cols = hte.ta_gates, hte.ta_cols
    z = ad.affine_value(e_t, bank.W.values, bank.b.values)
    if not math.isfinite(np.add.reduce(z, None)):  # as checked_affine checks a layer
        bad = next((i for i, col in enumerate(cols)  # the last if only the total overflowed
                    if not math.isfinite(np.add.reduce(z[:, col], None))), len(cols) - 1)
        raise NumericError(f"non-finite activation after layer {bad} ({bank.W.name}, gate {bad})")
    s = expit(z)
    a = s * 2.0  # every gate a_i, in its columns
    parents = [ut, t_hat, out.W, out.b, bank.W, bank.b]
    hs, relus = [ut.value], []  # each hidden layer's input; its relu output
    for i, layer in enumerate(layers):
        relus.append(np.fmax(ad.checked_affine(layer, hs[-1], i), 0.0))
        hs.append(a[:, cols[i]] * relus[-1])
        parents += (layer.W, layer.b)
    pt = expit(ad.checked_affine(out, hs[-1], len(layers)))
    lu, ld = ut.live, t_hat.live

    def vjp(g):
        g, gw, gb = ad.affine_grads(g * pt * (1.0 - pt), hs[-1], out.W.values,
                                    lx=bool(layers) or lu)
        if not layers:
            return g, None, gw, gb, None, None
        gz = np.empty(z.shape)  # every gate's logit gradient, g * r * 2 s (1 - s)
        grads = []  # the hidden layers' (b, W) gradients, last layer first
        for i in reversed(range(len(layers))):
            r = relus[i]
            gz[:, cols[i]] = g * r
            # r > 0 exactly where the affine output is
            g, gw_i, gb_i = ad.affine_grads(g * a[:, cols[i]] * (r > 0.0), hs[i],
                                            layers[i].W.values, lx=i > 0 or lu)
            grads += (gb_i, gw_i)
        gz *= 2.0
        gz *= s
        gz *= 1.0 - s
        ge, gg, ggb = ad.affine_grads(gz, e_t, bank.W.values, lx=ld)
        gd = (ge[:, 0:1] + 2.0 * ge[:, 1:2] * tn) * c * imputed if ld else None
        return (g, gd, gw, gb, gg, ggb, *grads[::-1])

    return tape.record(pt, parents, vjp)


def intensity_head_forward(hte: HteParams, ut: ad.Node, tape: ad.Tape) -> ad.Node:
    """t_hat = sigmoid(MLP(ut)) scaled into (t_min, t_max), the affine
    rescale recorded as one node; the head reads ut's value as a constant,
    so no gradient reaches the representation layer from it."""
    s = ad.mlp_forward(hte.intensity_head, tape.constant(ut.value), tape)  # sigmoid output
    span = hte.t_max - hte.t_min
    return tape.record(s.value * span + hte.t_min, (s,), lambda g: (g * span,))


Forward = namedtuple("Forward", "p0 t_hat eta p_cf pt")


def forward(model: UniMvtModel, X: np.ndarray, tape: ad.Tape, imputed, dose) -> Forward:
    """Record the network once on tape for the feature matrix X: the nodes p0,
    t_hat, the uplift head eta (a per-unit logit shift), p_cf =
    bridge(p0, t_hat, eta) and pt, the treatment tower gated at
    imputed * t_hat + dose (``treat_tower_forward``)."""
    hte = model.hte
    rep = dcr_forward(model.dcr, tape.constant(X), tape)
    p0 = ad.mlp_forward(hte.base_tower, rep.u0, tape)
    t_hat = intensity_head_forward(hte, rep.ut, tape)
    eta = ad.mlp_forward(hte.uplift_head, rep.ut, tape)  # a ReLU output: eta >= 0
    p_cf = tape.bridge(p0, t_hat, eta)
    pt = treat_tower_forward(hte, rep.ut, t_hat, imputed, dose, tape)
    return Forward(p0, t_hat, eta, p_cf, pt)


# ---------------------------------------------------------------------------
# joint loss
# ---------------------------------------------------------------------------

# loss component -> the LossWeights field that weighs it
LOSS_COMPONENTS = {"l_base": "lambda_base", "l_treat": "lambda_treat", "l_t": "lambda_t",
                   "l_x": "lambda_x", "r_orth": "lambda_o"}


def loss_terms(weights: LossWeights, y_col, w_col, t_col, p0, pt, t_hat, p_cf, p_base_cf,
               r_orth, tape: ad.Tape):
    """The weighted sum of l_base (p0's cross-entropy, control rows), l_treat
    (pt's, treated rows), l_t ((t - t_hat)^2 + |t - t_hat|, treated rows),
    l_x (squared errors of p_cf, treated rows, and p_base_cf, control rows)
    and r_orth (the scalar penalty node, as it is) as one node with a
    closed-form vjp. A zero weight drops its term: no value, no parent, a
    component of 0.0. Returns (the node, None if every term is dropped; the
    unweighted terms under every LOSS_COMPONENTS key)."""
    ctrl_mask = 1.0 - w_col
    parts = {}  # term -> its (operand, row mask, per-row loss, that loss's vjp in the operand)
    if weights.lambda_base > 0:
        parts["l_base"] = [(p0, ctrl_mask, *ad.cross_entropy(y_col, p0.value))]
    if weights.lambda_treat > 0:
        parts["l_treat"] = [(pt, w_col, *ad.cross_entropy(y_col, pt.value))]
    if weights.lambda_t > 0:
        err = t_col - t_hat.value
        parts["l_t"] = [(t_hat, w_col, err * err + np.abs(err),
                         lambda g: -(g * np.sign(err) + 2.0 * g * err))]
    if weights.lambda_x > 0:
        parts["l_x"] = [(p, mask, d * d, lambda g, d=d: -(2.0 * g * d))
                        for p, mask, d in ((p_cf, w_col, y_col - p_cf.value),
                                           (p_base_cf, ctrl_mask, y_col - p_base_cf.value))]
    if weights.lambda_o > 0:
        parts["r_orth"] = [(r_orth, np.ones(()), r_orth.value, lambda g: g)]
    components = dict.fromkeys(LOSS_COMPONENTS, 0.0)
    total, flat = None, []
    for name, term in parts.items():
        lam = getattr(weights, LOSS_COMPONENTS[name])
        value = sum((mask * rows).sum() for _, mask, rows, _ in term)
        components[name] = float(value)
        total = value * lam if total is None else total + value * lam
        flat += [(part, lam) for part in term]

    def vjp(g):  # full(g lambda) * mask is a masked sum's gradient in its per-row loss
        return [rows_vjp(np.full(mask.shape, float(g) * lam) * mask) if p.live else None
                for (p, mask, _, rows_vjp), lam in flat]

    return (tape.record(total, [part[0] for part, _ in flat], vjp) if flat else None), components


def joint_loss_arrays(X, w, t, y, model: UniMvtModel, weights: LossWeights, tape: ad.Tape):
    """Joint loss over a batch, ``loss_terms`` on the forward nodes and the
    orthogonality penalty: (total node, per-term unweighted sums)."""
    if X.shape[0] == 0:
        raise UsageError("joint_loss needs a nonempty batch")
    w_col, y_col, t_col = (np.asarray(a, dtype=np.float64).reshape(-1, 1) for a in (w, y, t))

    # the observed dose gates the treatment tower on treated rows, the imputed one on controls
    fw = forward(model, np.asarray(X, dtype=np.float64), tape, 1.0 - w_col, t_col)
    p_base_cf = tape.bridge(fw.pt, fw.t_hat, fw.eta, -1.0) if weights.lambda_x > 0 else None
    # recorded after the forward nodes: backward adds its gradient into the expert weights first
    r_orth = orth_penalty(model.dcr, tape) if weights.lambda_o > 0 else None
    total, components = loss_terms(weights, y_col, w_col, t_col, fw.p0, fw.pt, fw.t_hat,
                                   fw.p_cf, p_base_cf, r_orth, tape)
    return (tape.constant(0.0) if total is None else total), components


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
    doses = np.unique(t[w == 1])
    if doses.size < 2:  # no treated row, or one dose on every one
        raise ConfigError("training needs treated rows at two distinct doses to fix the t "
                          f"bounds; its treated rows have the doses {doses.tolist()}")
    t_min, t_max = float(doses[0]), float(doses[-1])

    model = build_model(cfg, X.shape[1], t_min, t_max, seed=cfg.train.seed)
    weights = cfg.loss

    def batch_loss(rows, tape):
        return joint_loss_arrays(X[rows], w[rows], t[rows], y[rows], model, weights, tape)

    n = X.shape[0]
    rng = np.random.default_rng(cfg.train.seed + 1)  # shuffle stream separate from init
    epochs = ad.minibatch_adam(model.parameters(), n, batch_loss, cfg.train, rng)
    history = []
    for epoch, batches in enumerate(epochs):
        means = {k: sum(comps[k] for comps in batches) / (len(batches) if k == "r_orth" else n)
                 for k in LOSS_COMPONENTS}
        total = sum(getattr(weights, lam) * means[k] for k, lam in LOSS_COMPONENTS.items())
        history.append({"epoch": epoch, "total": total, **means})
    return model, history


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------

def _score_block(model: UniMvtModel, X: np.ndarray, q) -> tuple:
    """p0, t_hat, the uplift head, p_cf and pt on the rows of X, as 1-D
    arrays read off one ``forward`` on a fresh tape, which is freed on
    return; the treatment tower is gated at q (one dose per row) or, when q
    is None, at t_hat."""
    tape = ad.Tape()
    fw = forward(model, X, tape, *((1.0, 0.0) if q is None else (0.0, q.reshape(-1, 1))))
    return tuple(node.value.reshape(-1) for node in (fw.p0, fw.t_hat, fw.eta, fw.p_cf, fw.pt))


def predict_batch(model: UniMvtModel, X: np.ndarray, q=None) -> dict:
    """Vectorized prediction, read off ``forward`` in blocks of
    ``autodiff.SCORE_ROWS`` rows, each recorded on its own tape: a call holds
    one block's tape at a time, so its memory does not grow with the row
    count beyond the outputs themselves. When q (scalar or per-row array) is
    given, the treated probability and tau_hat are evaluated at that
    intensity instead of the imputed t_hat; values outside [t_min, t_max]
    set the extrapolated flag.

    The uplift head learns a per-unit logit shift (that is how the
    counterfactual losses calibrate it); the reported unit uplift eta_hat is
    the implied click-probability gain per unit of intensity, read off the
    counterfactual node p_cf = bridge(p0, t_hat, head) that the X loss trains:

        eta_hat = (sigmoid(logit(p0_hat) + t_hat * head) - p0_hat) / t_hat

    in the units of the ground-truth sensitivity (the meta-learners' scores
    are a gain over the dose t_max, per unit only once divided by it), and is
    what allocator.decide reads: the click probability at intensity q is
    p0_hat + q * eta_hat there. The raw head output is returned as eta_head.

    A NaN or infinite feature raises DataFormatError naming its row and
    feature index; q is refused as ``datagen.dose_vector`` says.
    """
    X = feature_matrix(X, model.dcr.input_dim)
    n = X.shape[0]
    if q is None:
        extrapolated = np.zeros(n, dtype=bool)
    else:
        q = dose_vector(q, n, "q")
        extrapolated = (q < model.hte.t_min) | (q > model.hte.t_max)
    blocks = [_score_block(model, X[rows], None if q is None else q[rows])
              for rows in ad.row_blocks(n)]
    p0, t_hat, eta_head, p_cf, pt = (blocks[0] if len(blocks) == 1 else
                                     (np.concatenate(field) for field in zip(*blocks)))
    # np.clip's values, NaN included, at half its per-call cost on one row
    p0 = np.minimum(np.maximum(p0, PROB_EPS), 1.0 - PROB_EPS)
    eta = np.maximum((p_cf - p0) / t_hat, 0.0)
    return {
        "p0_hat": p0,
        "pt_hat": np.minimum(np.maximum(pt, PROB_EPS), 1.0 - PROB_EPS),
        "t_hat": t_hat,
        "eta_hat": eta,
        "eta_head": eta_head,
        "tau_hat": (t_hat if q is None else q) * eta,
        "extrapolated": extrapolated,
    }


def predict(model: UniMvtModel, x, q: float | None = None) -> Prediction:
    """``predict_batch`` for one row x, a feature vector or a 1-row matrix;
    any other row count raises DataFormatError naming it."""
    X = np.atleast_2d(x)
    if X.shape[0] != 1:
        raise DataFormatError(f"predict scores one row, got {X.shape[0]} rows; "
                              "use predict_batch for several")
    out = predict_batch(model, X, q=q)
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

def save_model(model: UniMvtModel, path) -> None:
    lines = ["kind=unimvt", f"input_dim={model.dcr.input_dim}",
             f"t_min={model.hte.t_min!r}", f"t_max={model.hte.t_max!r}"]
    lines.extend(f"{key}={text}" for key, text in config_to_flat(model.cfg).items())
    lines.extend(kvfile.param_line(p) for p in model.parameters())
    kvfile.write(path, lines)


def load_model(path) -> UniMvtModel:
    """The saved model, whole config included; a ConfigError names a missing,
    bad or stray line."""
    kv = kvfile.read(path)
    if kv.get("kind") != "unimvt":
        raise ConfigError(f"not a unimvt model file: kind={kv.get('kind')!r}")
    header = ["kind", "input_dim", "t_min", "t_max", *config_to_flat(default_config())]
    cfg = apply_overrides(default_config(), {key: kvfile.field(kv, key) for key in header[4:]})
    model = build_model(cfg, kvfile.field(kv, "input_dim", int),
                        kvfile.field(kv, "t_min", float), kvfile.field(kv, "t_max", float))
    kvfile.restore_params(kv, model.parameters(), header)
    return model
