"""Heterogeneous treatment effect network.

Two decoupled sigmoid towers sit on the disentangled representations: the
base tower estimates the no-intervention click probability from u0, the
treatment tower the intervened probability from ut, with every hidden layer
modulated by a treatment-aware gate 2*sigmoid(W e_t + b). An intensity head,
which reads the representation as a constant, imputes the dose a unit would
have received, t_hat, its sigmoid output rescaled into [t_min, t_max]; a
ReLU uplift head outputs the nonnegative per-unit sensitivity eta. The
counterfactual bridge (``autodiff.bridge``) links the towers in logit space
by shifting with t_hat * eta: up from p0 to the treated counterfactual p_cf,
and in training down from pt to the untreated one.

The two towers are same-shaped MLPs, and so are the two heads, so each pair
is one stack of layers, a (2, in, out) weight and a (2, 1, out) bias per
layer: slice 0 holds the base tower and the intensity head, slice 1 the
treatment tower and the uplift head. The TA gates are one gate bank, a
(2, sum of tower widths) weight and its bias, in which hidden layer i's gate
is the block of columns its width gives; they multiply slice 1 alone. The
whole net is one tape node, ``hte_forward``: its value is the (rows, 5)
matrix of columns p0, t_hat, eta, p_cf and pt, its hand-written vjp takes
one (rows, 5) gradient, and a forward runs one stacked GEMM per tower layer
(3 by default), 2 for the heads and 1 for the gates. The towers' first
layer reads no dose and runs before any gate.

One ``forward`` records the representation and that node for training and
prediction alike, which differ only in two arrays of data, imputed and dose,
that gate the treatment tower at imputed * t_hat + dose: training passes
(1 - w, t), scoring (0, q) to gate at q, or no dose to gate at t_hat
itself.
Prediction records it in blocks of ``autodiff.SCORE_ROWS`` rows, each on a
fresh tape, so scoring holds one block's tape whatever the row count.
The joint loss is one closed-form node (``loss_terms``) over the HTE node
and the expert orthogonality penalty: the factual cross-entropies, the
intensity regression, the counterfactual MSE terms (the downward bridge
among them) and the penalty; ``train`` runs it in the shared loop
``autodiff.minibatch_adam``. The uplift head reaches the joint loss only
through the counterfactual terms, so ``loss.lambda_x = 0`` leaves it
untrained at its initialization. A model file holds the stacked tensors, and
one that holds a tensor per tower and head is refused by name.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import expit

from . import autodiff as ad
from . import kvfile
from .config import (ExperimentConfig, LossWeights, _integer, apply_overrides,
                     config_to_flat, default_config, validate)
from .datagen import Dataset, dataset_arrays, dose_vector, feature_matrix
from .dcr import DcrParams, dcr_forward, init_dcr, orth_penalty
from .errors import ConfigError, DataFormatError, NumericError, UsageError

TREAT_ENC_DIM = 2        # normalized intensity and its square
UPLIFT_HEAD_INIT = 0.02  # initial uniform eta_hat, calibrated downstream by the X losses
TOWER_SLICES = ("base tower", "treatment tower")  # the stacked towers' slices, in order
HEAD_SLICES = ("intensity head", "uplift head")   # the stacked heads' slices, in order
P0, T_HAT, ETA, P_CF, PT = range(5)  # the columns of hte_forward's node


@dataclass
class HteParams:
    """Towers, gates and heads; t bounds are fixed from the treated training
    split before any optimization happens. ``towers`` stacks the base tower
    (slice 0) and the treatment tower (slice 1), ``heads`` the intensity head
    (slice 0) and the uplift head (slice 1): each layer is one (2, in, out)
    weight with a (2, 1, out) bias."""

    towers: list
    ta_gates: ad.Layer            # the TA gate bank: one block of columns per hidden layer
    heads: list
    t_min: float
    t_max: float

    def __post_init__(self) -> None:
        if not (0.0 < self.t_min < self.t_max < np.inf):
            raise ConfigError(f"need 0 < t_min < t_max < inf, got [{self.t_min}, {self.t_max}]")
        width = sum(layer.W.shape[-1] for layer in self.towers[:-1])
        if self.ta_gates.W.shape != (TREAT_ENC_DIM, width) or self.ta_gates.b.shape != (width,):
            raise ConfigError("the TA gate bank needs one column per treatment-tower hidden unit")

    @cached_property
    def ta_cols(self) -> tuple[slice, ...]:
        """Hidden layer i's columns of the TA gate bank, from the tower widths."""
        cols, start = [], 0
        for layer in self.towers[:-1]:
            cols.append(slice(start, start + layer.W.shape[-1]))
            start = cols[-1].stop
        return tuple(cols)

    @cached_property
    def params(self) -> tuple[ad.ParamTensor, ...]:
        """The parameters, built once: every forward lists them as its node's parents."""
        return (*ad.mlp_params(self.towers), self.ta_gates.W, self.ta_gates.b,
                *ad.mlp_params(self.heads))

    @cached_property
    def t_bounds(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(t_max - t_min, t_min, 1 / (t_max - t_min)) as 0-d float64 arrays, the
        rescale's and the dose normalization's operands, built once."""
        span = self.t_max - self.t_min
        return ad.const(span), ad.const(self.t_min), ad.const(1.0 / span)

    def parameters(self) -> list[ad.ParamTensor]:
        return list(self.params)


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
    # drawn base tower, treatment tower, TA gates, intensity head, uplift head:
    # the order of one MLP per tower and head and one linear layer per gate
    towers = ad.init_stacked_mlp(rng, "towers", (rep, *cfg.net.tower_hidden, 1), 2,
                                 out_activation="sigmoid")
    draws = [ad.glorot_uniform(rng, TREAT_ENC_DIM, width) for width in cfg.net.tower_hidden]
    gate_w = np.concatenate(draws, axis=1) if draws else np.zeros((TREAT_ENC_DIM, 0))
    ta_gates = ad.Layer(ad.ParamTensor("ta_gates.W", gate_w),
                        ad.ParamTensor("ta_gates.b", np.zeros(gate_w.shape[1])))
    # the last layer's activation is per slice: a sigmoid, then a ReLU
    heads = ad.init_stacked_mlp(rng, "heads", (rep, cfg.net.head_hidden, 1), 2)
    # zero output weights with a small positive bias start the ReLU head alive
    # and uniform; a symmetric random start risks dying for good while the base
    # tower is still miscalibrated early in training
    heads[-1].W.values[1] = 0.0
    heads[-1].b.values[1] = UPLIFT_HEAD_INIT
    hte = HteParams(towers, ta_gates, heads, float(t_min), float(t_max))
    return UniMvtModel(cfg=cfg, dcr=dcr_params, hte=hte)


# ---------------------------------------------------------------------------
# the HTE net, one tape node
# ---------------------------------------------------------------------------

def hte_forward(hte: HteParams, reps: ad.Node, imputed, dose, tape: ad.Tape) -> ad.Node:
    """The whole HTE net on the representation node reps, recorded as one
    node with its own vjp. Its value is the (rows, 5) matrix of columns P0,
    T_HAT, ETA, P_CF and PT:
    - p0 and pt, the base and treatment towers (sigmoid MLPs) on u0 and ut,
      run as one stack; every hidden layer of the treatment tower is gated,
      h = a_i * relu(h W_i + b_i), by the TA gate a_i = 2*sigmoid(e_t G_i +
      g_i), elementwise in (0, 2), at the dose imputed * t_hat + dose
      (imputed and dose are arrays), or at t_hat itself when dose is None
      (imputed is then not read), min-max normalized by the t bounds to
      tn and encoded as e_t = [tn, tn^2];
    - t_hat, the intensity head's sigmoid rescaled into (t_min, t_max), and
      eta, the uplift head's ReLU output, run as one stack on ut; the
      intensity head reads ut as a constant, so no gradient reaches the
      representation from it;
    - p_cf, the counterfactual bridge(p0, t_hat, eta) (``autodiff.bridge``).
    reps is the (2, rows, d) stack [u0, ut] of ``dcr_forward``, or under
    ``ablate.dcr`` one (rows, d) representation that stands for both. The
    towers' first layer does not read the dose and runs before any gate.
    G_i and g_i are layer i's columns of the TA gate bank
    (``HteParams.ta_cols``), so every gate's logits come from one GEMM and
    the bank's gradients from one GEMM back. The vjp gives t_hat the gate
    dose's gradient times imputed, and adds each shared operand's gradients
    in a fixed order: ut's treatment tower then uplift head (then, under
    ``ablate.dcr``, the base tower), t_hat's node gradient then treatment
    tower then bridge, p0's and eta's node gradient then bridge. A width
    the layer does not take raises ConfigError, a non-finite affine output
    NumericError naming the layer (its index, weight and slice); gate i
    counts as layer i, named by the bank's weight and its index."""
    rv = reps.value
    ut = rv[1] if rv.ndim == 3 else rv
    towers, heads, bank, cols = hte.towers, hte.heads, hte.ta_gates, hte.ta_cols
    span, t_min, c = hte.t_bounds
    out = ad.checked_affine(towers[0], rv, 0, TOWER_SLICES)  # reads no dose
    ux = tape.detach(ut)  # the intensity head's input, ut read as a constant
    # the heads' input: ut for both, unless a gradient checker replays the detached one
    hx = ut if ux is ut else np.stack([ux, ut])
    hh = np.fmax(ad.checked_affine(heads[0], hx, 0, HEAD_SLICES), ad.ZERO)
    ho = ad.checked_affine(heads[1], hh, 1, HEAD_SLICES)
    si = expit(ho[0])
    eta = np.fmax(ho[1], ad.ZERO)
    t_hat = si * span + t_min
    tn = ((t_hat if dose is None else imputed * t_hat + dose) - t_min) * c
    e_t = np.concatenate([tn, tn * tn], axis=1)
    z = ad.affine_value(e_t, bank.W.values, bank.b.values)
    if ad.nonfinite(z):  # as checked_affine checks a layer
        bad = next((i for i, col in enumerate(cols)  # the last if only the total overflowed
                    if not math.isfinite(np.add.reduce(z[:, col], None))), len(cols) - 1)
        raise NumericError(f"non-finite activation after layer {bad} ({bank.W.name}, gate {bad})")
    s = expit(z)
    a = s * ad.TWO  # every gate a_i, in its columns
    hs, relus = [rv], []  # each tower layer's input; each hidden layer's relu output
    for i, col in enumerate(cols):
        relus.append(np.fmax(out, ad.ZERO))
        h = relus[i].copy()
        h[1] *= a[:, col]  # the gates multiply the treatment tower alone
        hs.append(h)
        out = ad.checked_affine(towers[i + 1], h, i + 1, TOWER_SLICES)
    p = expit(out)  # p0 and pt
    p_cf, bridge_vjp = ad.bridge(p[0], t_hat, eta)
    live = reps.live

    def vjp(g):
        gp, gt, ge = bridge_vjp(g[:, P_CF:P_CF + 1])
        gy = np.empty(p.shape)  # the towers' sigmoid outputs, p0's gradient then pt's
        np.add(g[:, P0:P0 + 1], gp, out=gy[0])
        gy[1] = g[:, PT:PT + 1]
        gy *= p
        gy *= 1.0 - p
        grads = [None] * (2 * len(towers))  # every tower layer's W and b gradients
        gz = np.empty(z.shape)  # every gate's logit gradient, g * r * 2 s (1 - s)
        for i in reversed(range(len(cols))):
            gy, grads[2 * i + 2], grads[2 * i + 3] = ad.affine_grads(gy, hs[i + 1],
                                                                     towers[i + 1].W.values)
            r = relus[i]
            gz[:, cols[i]] = gy[1] * r[1]
            gy[1] *= a[:, cols[i]]
            gy *= r > ad.ZERO  # r > 0 exactly where the affine output is
        _, grads[0], grads[1] = ad.affine_grads(gy, rv, towers[0].W.values, lx=False)
        gz *= ad.TWO
        gz *= s
        gz *= 1.0 - s
        ge_t, gg, ggb = ad.affine_grads(gz, e_t, bank.W.values)
        gd = (ge_t[:, 0:1] + ad.TWO * ge_t[:, 1:2] * tn) * c
        if dose is not None:  # at t_hat itself, imputed is 1
            gd = gd * imputed
        gh = np.empty(ho.shape)  # the heads' outputs: t_hat's gradient through its
        np.multiply(g[:, T_HAT:T_HAT + 1] + gd + gt, span, out=gh[0])  # rescale
        gh[0] *= si
        gh[0] *= 1.0 - si
        np.add(g[:, ETA:ETA + 1], ge, out=gh[1])
        gh[1] *= eta > ad.ZERO
        gh, gw1, gb1 = ad.affine_grads(gh, hh, heads[1].W.values)
        gh *= hh > ad.ZERO
        _, gw0, gb0 = ad.affine_grads(gh, hx, heads[0].W.values, lx=False)
        gx = None
        if live:  # the towers' x gradient, then the uplift head's into ut
            gx = gy @ np.ascontiguousarray(towers[0].W.values.swapaxes(-1, -2))
            gu = gh[1] @ np.ascontiguousarray(heads[0].W.values[1].T)
            if rv.ndim == 3:
                gx[1] += gu
            else:
                gx = gx[1] + gu + gx[0]
        return (gx, *grads, gg, ggb, gw0, gb0, gw1, gb1)

    return tape.record(np.concatenate([p[0], t_hat, eta, p_cf, p[1]], axis=1),
                       (reps, *hte.params), vjp)


def forward(model: UniMvtModel, X: np.ndarray, tape: ad.Tape, imputed, dose) -> ad.Node:
    """Record the network once on tape for the feature matrix X: the
    representation (``dcr_forward``), then the HTE node (``hte_forward``),
    which is returned, its treatment tower gated at imputed * t_hat + dose,
    or at t_hat when dose is None."""
    return hte_forward(model.hte, dcr_forward(model.dcr, tape.constant(X), tape), imputed, dose,
                       tape)


# ---------------------------------------------------------------------------
# joint loss
# ---------------------------------------------------------------------------

# loss component -> the LossWeights field that weighs it
LOSS_COMPONENTS = {"l_base": "lambda_base", "l_treat": "lambda_treat", "l_t": "lambda_t",
                   "l_x": "lambda_x", "r_orth": "lambda_o"}


def loss_terms(weights: LossWeights, y_col, w_col, t_col, hte: ad.Node, r_orth, tape: ad.Tape):
    """The weighted sum of l_base (p0's cross-entropy, control rows), l_treat
    (pt's, treated rows), l_t ((t - t_hat)^2 + |t - t_hat|, treated rows),
    l_x (squared errors of p_cf, treated rows, and of p_base_cf =
    bridge(pt, t_hat, eta, -1), control rows) and r_orth (the scalar penalty
    node, as it is) as one node over the HTE node's columns and r_orth, with
    a closed-form vjp that gives the HTE node one (rows, 5) gradient, the
    bridge's after the terms' own. A zero weight drops its term: no value,
    a component of 0.0, and r_orth's no parent. Returns (the node, None if
    every term is dropped; the unweighted terms under every
    LOSS_COMPONENTS key)."""
    hv = hte.value
    p0, t_hat, eta, p_cf, pt = (hv[:, j:j + 1] for j in range(5))
    ctrl_mask = 1.0 - w_col

    def into(col, rows_vjp):  # a per-row loss's vjp, as [(column, its gradient)]
        return lambda g: [(col, rows_vjp(g))]

    parts = {}  # term -> its [(row mask, per-row loss, vjp: row gradient -> [(column, gradient)])]
    if weights.lambda_base > 0:
        value, rows_vjp = ad.cross_entropy(y_col, p0)
        parts["l_base"] = [(ctrl_mask, value, into(P0, rows_vjp))]
    if weights.lambda_treat > 0:
        value, rows_vjp = ad.cross_entropy(y_col, pt)
        parts["l_treat"] = [(w_col, value, into(PT, rows_vjp))]
    if weights.lambda_t > 0:
        err = t_col - t_hat
        parts["l_t"] = [(w_col, err * err + np.abs(err),
                         into(T_HAT, lambda g: -(g * np.sign(err) + ad.TWO * g * err)))]
    if weights.lambda_x > 0:
        p_base_cf, bridge_vjp = ad.bridge(pt, t_hat, eta, -1.0)
        d_cf, d_base = y_col - p_cf, y_col - p_base_cf
        parts["l_x"] = [(w_col, d_cf * d_cf, into(P_CF, lambda g: -(ad.TWO * g * d_cf))),
                        (ctrl_mask, d_base * d_base,
                         lambda g: zip((PT, T_HAT, ETA), bridge_vjp(-(ad.TWO * g * d_base))))]
    if weights.lambda_o > 0:
        parts["r_orth"] = [(np.ones(()), r_orth.value, into(None, lambda g: g))]
    components = dict.fromkeys(LOSS_COMPONENTS, 0.0)
    total, flat = None, []
    for name, term in parts.items():
        lam = getattr(weights, LOSS_COMPONENTS[name])
        value = sum((mask * rows).sum() for mask, rows, _ in term)
        components[name] = float(value)
        total = value * lam if total is None else total + value * lam
        flat += [(part, lam) for part in term]
    parents = [hte] * (len(parts) > ("r_orth" in parts)) + [r_orth] * ("r_orth" in parts)
    lh = hte.live

    def vjp(g):  # full(g lambda) * mask is a masked sum's gradient in its per-row loss
        gh, go = np.zeros(hv.shape) if lh else None, None
        for (mask, _, rows_vjp), lam in flat:
            for col, grad in rows_vjp(np.full(mask.shape, float(g) * lam) * mask):
                if col is None:
                    go = grad
                elif lh:
                    gh[:, col:col + 1] += grad
        return [gh if parent is hte else go for parent in parents]

    return (tape.record(total, parents, vjp) if flat else None), components


def joint_loss_arrays(X, w, t, y, model: UniMvtModel, weights: LossWeights, tape: ad.Tape):
    """Joint loss over a batch, ``loss_terms`` on the HTE node and the
    orthogonality penalty: (total node, per-term unweighted sums)."""
    if X.shape[0] == 0:
        raise UsageError("joint_loss needs a nonempty batch")
    w_col, y_col, t_col = (np.asarray(a, dtype=np.float64).reshape(-1, 1) for a in (w, y, t))

    # the observed dose gates the treatment tower on treated rows, the imputed one on controls
    hte = forward(model, np.asarray(X, dtype=np.float64), tape, 1.0 - w_col, t_col)
    # recorded after the forward nodes: backward adds its gradient into the expert weights first
    r_orth = orth_penalty(model.dcr, tape) if weights.lambda_o > 0 else None
    total, components = loss_terms(weights, y_col, w_col, t_col, hte, r_orth, tape)
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

def _score_block(model: UniMvtModel, X: np.ndarray, q) -> np.ndarray:
    """The HTE node's (rows, 5) value on the rows of X, read off one
    ``forward`` on a fresh tape, which is freed on return; the treatment
    tower is gated at q (one dose per row) or, when q is None, at t_hat."""
    tape = ad.Tape()
    return forward(model, X, tape, *((None, None) if q is None else (0.0, q.reshape(-1, 1)))).value


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
    # hte_forward's columns, each as one contiguous array
    cols = np.ascontiguousarray((blocks[0] if len(blocks) == 1 else np.concatenate(blocks)).T)
    _, t_hat, eta_head, p_cf, _ = cols
    # p0 and pt, rows P0 and PT read as one strided view, clamped in one pair
    # of calls: np.clip's values, NaN included, at half its per-call cost on one row
    p0, pt = np.minimum(np.maximum(cols[P0::PT - P0], ad.PROB_LO), ad.PROB_HI)
    eta = np.maximum((p_cf - p0) / t_hat, ad.ZERO)
    return {
        "p0_hat": p0,
        "pt_hat": pt,
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
        p0_hat=out["p0_hat"].item(0),
        pt_hat=out["pt_hat"].item(0),
        t_hat=out["t_hat"].item(0),
        eta_hat=out["eta_hat"].item(0),
        tau_hat=out["tau_hat"].item(0),
        extrapolated=out["extrapolated"].item(0),
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def save_model(model: UniMvtModel, path) -> None:
    """Write the model file; a config that ``load_model`` would refuse raises
    ConfigError naming its key, and a non-finite parameter NumericError
    naming its line, before any file is written."""
    validate(model.cfg, model.dcr.input_dim)
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
