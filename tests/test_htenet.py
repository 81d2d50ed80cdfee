"""HTE network: gate algebra, head contracts, counterfactual estimators,
joint-loss oracle checks, stop-gradient blocking, training and serialization."""

import gc
import re
import tracemalloc
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from scipy.special import expit, logit

from gradcheck import finite_diff_check, mul
from unimvt import autodiff as ad
from unimvt import baselines
from unimvt import datagen as dg
from unimvt import dcr
from unimvt import htenet as ht
from unimvt.config import AblationConfig, ExperimentConfig, LossWeights, TrainConfig
from unimvt.dcr import DcrConfig
from unimvt.errors import ConfigError, DataFormatError, NumericError, UsageError


def tiny_config(**kw):
    cfg = ExperimentConfig(
        dcr=DcrConfig(experts_per_group=1, hidden=6, out_dim=4),
        train=TrainConfig(epochs=2, batch=64, seed=0),
    )
    cfg.net.tower_hidden = (8, 8)
    cfg.net.head_hidden = 4
    for key, value in kw.items():
        setattr(cfg, key, value)
    return cfg


def tiny_model(seed=0, **kw):
    return ht.build_model(tiny_config(**kw), input_dim=5, t_min=1.0, t_max=3.0, seed=seed)


def tiny_batch(seed=0, n=16, input_dim=5):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, input_dim))
    w = rng.integers(0, 2, size=n)
    if w.sum() == 0:
        w[0] = 1
    if w.sum() == n:
        w[0] = 0
    t = np.where(w == 1, rng.uniform(1.0, 3.0, size=n), 0.0)
    y = rng.integers(0, 2, size=n)
    return X, w, t, y


def test_build_model_draws_dcr_experts_one_mlp_at_a_time():
    # the stacked DCR weights hold the draws of one MLP per expert in slot
    # order, and the rest of the init stream follows them unchanged
    cfg = ExperimentConfig()
    model = ht.build_model(cfg, input_dim=5, t_min=1.0, t_max=3.0, seed=4)
    rng = np.random.default_rng(4)
    n_slots = 3 * cfg.dcr.experts_per_group
    experts = [ad.init_mlp(rng, f"expert{k}", (5, cfg.dcr.hidden, cfg.dcr.out_dim))
               for k in range(n_slots)]
    for i, layer in enumerate(model.dcr.experts):
        np.testing.assert_array_equal(layer.W.values, np.stack([e[i].W.values for e in experts]))
        assert np.all(layer.b.values == 0.0)
    for gate in (model.dcr.gate0, model.dcr.gate_t):
        np.testing.assert_array_equal(gate[0].W.values, ad.glorot_uniform(rng, 5, n_slots))
    tower = ad.init_mlp(rng, "base_tower", (model.dcr.output_dim, *cfg.net.tower_hidden, 1))
    for got, want in zip(model.hte.base_tower, tower):
        np.testing.assert_array_equal(got.W.values, want.W.values)


# ---------------------------------------------------------------------------
# treatment tower and its TA gates
# ---------------------------------------------------------------------------

def one_gate_tower(gate_W, gate_b):
    """HteParams with only a one-hidden-layer treatment tower of width 3 on a
    width-4 representation, t bounds [1, 3]."""
    rng = np.random.default_rng(0)
    tower = [ad.Layer(ad.ParamTensor("tw0.W", rng.standard_normal((4, 3))),
                      ad.ParamTensor("tw0.b", rng.standard_normal(3)), "relu"),
             ad.Layer(ad.ParamTensor("tw1.W", rng.standard_normal((3, 1))),
                      ad.ParamTensor("tw1.b", rng.standard_normal(1)), "sigmoid")]
    gate = ad.Layer(ad.ParamTensor("g.W", gate_W), ad.ParamTensor("g.b", gate_b))
    return ht.HteParams([], tower, [gate], [], [], 1.0, 3.0)


def tower_value(hte, ut, dose):
    tape = ad.Tape()
    return ht.treat_tower_forward(hte, tape.constant(ut), tape.constant(dose), tape).value


UT = np.random.default_rng(9).standard_normal((5, 4))
DOSES = np.array([[1.0], [1.7], [2.2], [3.0], [3.6]])


def test_ta_gate_neutral_at_zero_params():
    # a = 2*sigmoid(0) is exactly 1: the tower is its plain sigmoid MLP
    hte = one_gate_tower(np.zeros((2, 3)), np.zeros(3))
    tape = ad.Tape()
    plain = ad.mlp_forward(hte.treat_tower, tape.constant(UT), tape).value
    np.testing.assert_array_equal(tower_value(hte, UT, DOSES), plain)


def test_ta_gate_saturates_to_two():
    hte = one_gate_tower(np.zeros((2, 3)), np.full(3, 20.0))
    hidden, out = hte.treat_tower
    h = 2.0 * np.maximum(UT @ hidden.W.values + hidden.b.values, 0.0)
    np.testing.assert_allclose(tower_value(hte, UT, DOSES),
                               expit(h @ out.W.values + out.b.values), rtol=0, atol=1e-8)


def test_ta_gate_matches_direct_scalar_evaluation():
    rng = np.random.default_rng(4)
    hte = one_gate_tower(rng.standard_normal((2, 3)), rng.standard_normal(3))
    hidden, out = hte.treat_tower
    gate = hte.ta_gates[0]
    tn = (DOSES - 1.0) / 2.0
    a = 2.0 * expit(np.hstack([tn, tn**2]) @ gate.W.values + gate.b.values)
    h = a * np.maximum(UT @ hidden.W.values + hidden.b.values, 0.0)
    np.testing.assert_allclose(tower_value(hte, UT, DOSES),
                               expit(h @ out.W.values + out.b.values), rtol=0, atol=1e-14)


@pytest.mark.parametrize("live_dose", [True, False], ids=["live dose", "dead dose"])
def test_treat_tower_gradients_against_finite_differences(live_dose):
    model = tiny_model(seed=14)
    hte = model.hte
    rng = np.random.default_rng(14)
    ut = ad.ParamTensor("ut", rng.standard_normal((6, model.dcr.output_dim)))
    dose = ad.ParamTensor("dose", rng.uniform(0.8, 3.2, size=(6, 1)))
    weights = rng.uniform(0.5, 1.5, size=(6, 1))
    nodes = []

    def loss_fn(tape):
        d = mul(tape, dose, 1.0) if live_dose else tape.constant(dose.values)
        nodes.append(ht.treat_tower_forward(hte, mul(tape, ut, 1.0), d, tape))
        return tape.sum_all(mul(tape, nodes[-1], weights))

    params = [ut, *ad.mlp_params(hte.treat_tower), *ad.mlp_params(hte.ta_gates)]
    if live_dose:
        params.append(dose)
    assert finite_diff_check(loss_fn, params, eps=1e-6) < 1e-6
    assert (nodes[0].vjp(np.ones((6, 1)))[1] is None) == (not live_dose)


# ---------------------------------------------------------------------------
# intensity and uplift heads
# ---------------------------------------------------------------------------

def zeroed_head_model(**kw):
    model = tiny_model(**kw)
    for head in (model.hte.intensity_head, model.hte.uplift_head):
        head[-1].W.values[:] = 0.0
        head[-1].b.values[:] = 0.0
    return model


def test_intensity_head_midpoint_at_zero_logit():
    model = zeroed_head_model()
    tape = ad.Tape()
    ut = tape.constant(np.random.default_rng(0).standard_normal((3, model.dcr.output_dim)))
    t_hat = ht.intensity_head_forward(model.hte, ut, tape)
    np.testing.assert_allclose(t_hat.value, 2.0, atol=1e-12)  # midpoint of [1, 3]


def test_intensity_head_saturation():
    model = zeroed_head_model()
    model.hte.intensity_head[-1].b.values[:] = 30.0
    tape = ad.Tape()
    ut = tape.constant(np.zeros((1, model.dcr.output_dim)))
    t_hat = ht.intensity_head_forward(model.hte, ut, tape)
    assert abs(t_hat.value[0, 0] - 3.0) < 1e-8
    assert t_hat.value[0, 0] < 3.0  # strictly inside


def test_intensity_head_blocks_gradients_to_dcr():
    model = tiny_model(seed=3)
    X, w, t, y = tiny_batch(3)
    tape = ad.Tape()
    rep_in = tape.constant(X)
    from unimvt.dcr import dcr_forward

    rep = dcr_forward(model.dcr, rep_in, tape)
    t_hat = ht.intensity_head_forward(model.hte, rep.ut, tape)
    tape.sum_all(t_hat)
    ad.backward(tape)
    for p in model.dcr.parameters():
        assert np.all(p.grad == 0.0)
    assert any(np.any(p.grad != 0.0) for p in ad.mlp_params(model.hte.intensity_head))


def test_intensity_head_against_finite_differences():
    # the rescale into [t_min, t_max] is one node; ut is live, but the
    # stop-gradient in front of the head passes it exactly nothing
    model = tiny_model(seed=6)
    rng = np.random.default_rng(6)
    ut = ad.ParamTensor("ut", rng.standard_normal((6, model.dcr.output_dim)))
    weights = rng.uniform(0.5, 1.5, size=(6, 1))

    def loss_fn(tape):
        t_hat = ht.intensity_head_forward(model.hte, mul(tape, ut, 1.0), tape)
        return tape.sum_all(mul(tape, t_hat, weights))

    head = ad.mlp_params(model.hte.intensity_head)
    assert finite_diff_check(loss_fn, [ut, *head], eps=1e-6) < 1e-6
    tape = ad.Tape()
    loss_fn(tape)
    ad.backward(tape)
    assert np.all(ut.grad == 0.0)
    assert all(np.any(p.grad != 0.0) for p in head)


def test_bad_t_bounds_rejected():
    with pytest.raises(ConfigError):
        ht.build_model(tiny_config(), input_dim=5, t_min=3.0, t_max=3.0)


def test_uplift_head_clamps_negative_output():
    model = zeroed_head_model()
    model.hte.uplift_head[-1].b.values[:] = -0.7
    tape = ad.Tape()
    ut = tape.constant(np.zeros((2, model.dcr.output_dim)))
    eta = ad.mlp_forward(model.hte.uplift_head, ut, tape)
    np.testing.assert_array_equal(eta.value, 0.0)

    model.hte.uplift_head[-1].b.values[:] = 0.03
    tape = ad.Tape()
    eta = ad.mlp_forward(model.hte.uplift_head, tape.constant(np.zeros((2, model.dcr.output_dim))),
                         tape)
    np.testing.assert_allclose(eta.value, 0.03, atol=1e-15)


def test_tau_is_product_of_intensity_and_unit_uplift():
    assert 2.5 * 0.02 == pytest.approx(0.05)
    model = tiny_model(seed=9)
    pred = ht.predict(model, np.zeros(5))
    assert pred.tau_hat == pred.t_hat * pred.eta_hat


# ---------------------------------------------------------------------------
# joint loss
# ---------------------------------------------------------------------------

def test_joint_loss_all_zero_weights():
    model = tiny_model()
    X, w, t, y = tiny_batch()
    zero = LossWeights(0, 0, 0, 0, 0)
    tape = ad.Tape()
    total, comps = ht.joint_loss_arrays(X, w, t, y, model, zero, tape)
    assert float(total.value) == 0.0
    assert all(v == 0.0 for v in comps.values())


def test_joint_loss_single_control_row_is_ln2():
    model = tiny_model()
    model.hte.base_tower[-1].W.values[:] = 0.0
    model.hte.base_tower[-1].b.values[:] = 0.0  # p0 = sigmoid(0) = 0.5
    weights = LossWeights(1.0, 0, 0, 0, 0)
    tape = ad.Tape()
    total, comps = ht.joint_loss_arrays(np.zeros((1, 5)), np.array([0]), np.array([0.0]),
                                        np.array([1]), model, weights, tape)
    assert float(total.value) == pytest.approx(np.log(2.0), abs=1e-12)
    assert comps["l_base"] == pytest.approx(np.log(2.0), abs=1e-12)


def test_joint_loss_empty_batch_is_usage_error():
    model = tiny_model()
    with pytest.raises(UsageError):
        ht.joint_loss_arrays(np.zeros((0, 5)), np.zeros(0), np.zeros(0), np.zeros(0),
                             model, LossWeights(), ad.Tape())


def scalar_oracle_loss(model, X, w, t, y, weights):
    """Independent recomputation of every loss term with plain numpy forward math."""
    def mlp_np(layers, h):
        for layer in layers:
            h = h @ layer.W.values + layer.b.values
            if layer.activation == "relu":
                h = np.maximum(h, 0.0)
            elif layer.activation == "sigmoid":
                h = expit(h)
        return h

    hte, dcrp = model.hte, model.dcr
    n_slots = dcrp.experts[0].W.shape[0]
    # slot k of the stacked DCR layers, read back as one expert's MLP
    experts = [[ad.Layer(ad.ParamTensor("W", layer.W.values[k]),
                         ad.ParamTensor("b", layer.b.values[k, 0]), layer.activation)
                for layer in dcrp.experts] for k in range(n_slots)]
    outs = [mlp_np(e, X) for e in experts]
    def gated(gate_layers):
        logits = mlp_np(gate_layers, X)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        gw = e / e.sum(axis=1, keepdims=True)
        blocks = []
        for slot, out in enumerate(outs):
            blocks.append(gw[:, slot : slot + 1] * out)
        return np.concatenate(blocks, axis=1)

    u0, ut = gated(dcrp.gate0), gated(dcrp.gate_t)
    p0 = mlp_np(hte.base_tower, u0).reshape(-1)
    # the heads end in their sigmoid and ReLU, which mlp_np applies
    t_hat = mlp_np(hte.intensity_head, ut).reshape(-1) * (hte.t_max - hte.t_min) + hte.t_min
    eta = mlp_np(hte.uplift_head, ut).reshape(-1)
    tau = t_hat * eta

    t_mix = np.where(w == 1, t, t_hat)
    tn = (t_mix - hte.t_min) / (hte.t_max - hte.t_min)
    e_t = np.stack([tn, tn**2], axis=1)
    h = ut
    for i, layer in enumerate(hte.treat_tower[:-1]):
        h = np.maximum(h @ layer.W.values + layer.b.values, 0.0)
        a = 2.0 * expit(e_t @ hte.ta_gates[i].W.values + hte.ta_gates[i].b.values)
        h = a * h
    pt = expit(h @ hte.treat_tower[-1].W.values + hte.treat_tower[-1].b.values).reshape(-1)

    def bce(yv, pv):
        pv = np.clip(pv, 1e-7, 1 - 1e-7)
        return -(yv * np.log(pv) + (1 - yv) * np.log(1 - pv))

    def lg(p):
        p = np.clip(p, 1e-7, 1 - 1e-7)
        return np.log(p / (1 - p))

    ctrl, trt = w == 0, w == 1
    l_base = bce(y[ctrl], p0[ctrl]).sum()
    l_treat = bce(y[trt], pt[trt]).sum()
    l_t = ((t[trt] - t_hat[trt]) ** 2 + np.abs(t[trt] - t_hat[trt])).sum()
    p_treat_cf = expit(lg(p0) + tau)
    p_base_cf = expit(lg(pt) - tau)
    l_x = ((y[trt] - p_treat_cf[trt]) ** 2).sum() + ((y[ctrl] - p_base_cf[ctrl]) ** 2).sum()
    r_orth = 0.0
    per_group = n_slots // 3
    groups = [experts[g * per_group : (g + 1) * per_group] for g in range(3)]
    for gi in range(3):
        for gj in range(gi + 1, 3):
            for ei in groups[gi]:
                for ej in groups[gj]:
                    for li, lj in zip(ei, ej):
                        r_orth += ((li.W.values.T @ lj.W.values) ** 2).sum()
    total = (weights.lambda_base * l_base + weights.lambda_treat * l_treat
             + weights.lambda_t * l_t + weights.lambda_x * l_x + weights.lambda_o * r_orth)
    return total, dict(l_base=l_base, l_treat=l_treat, l_t=l_t, l_x=l_x, r_orth=r_orth)


def test_joint_loss_matches_scalar_oracle_on_mixed_batch():
    model = tiny_model(seed=11)
    X, w, t, y = tiny_batch(seed=11, n=8)
    weights = LossWeights(1.0, 1.0, 1.0, 1.0, 1.0)
    tape = ad.Tape()
    total, comps = ht.joint_loss_arrays(X, w, t, y, model, weights, tape)
    want_total, want_comps = scalar_oracle_loss(model, X, w, t, y, weights)
    assert float(total.value) == pytest.approx(want_total, rel=1e-12)
    for key, want in want_comps.items():
        assert comps[key] == pytest.approx(want, rel=1e-12), key


def test_joint_loss_total_is_weighted_component_sum():
    model = tiny_model(seed=2)
    X, w, t, y = tiny_batch(seed=2, n=24)
    weights = LossWeights(0.7, 1.3, 0.2, 0.9, 1e-3)
    tape = ad.Tape()
    total, comps = ht.joint_loss_arrays(X, w, t, y, model, weights, tape)
    want = (weights.lambda_base * comps["l_base"] + weights.lambda_treat * comps["l_treat"]
            + weights.lambda_t * comps["l_t"] + weights.lambda_x * comps["l_x"]
            + weights.lambda_o * comps["r_orth"])
    assert float(total.value) == pytest.approx(want, abs=1e-12)


# the weights of the loss_terms node: each term alone, then all five at once
LOSS_TERM_WEIGHTS = {"l_base": LossWeights(1.3, 0, 0, 0, 0),
                     "l_treat": LossWeights(0, 0.7, 0, 0, 0),
                     "l_t": LossWeights(0, 0, 0.4, 0, 0),
                     "l_x": LossWeights(0, 0, 0, 0.9, 0),
                     "r_orth": LossWeights(0, 0, 0, 0, 0.6),
                     "all": LossWeights(1.3, 0.7, 0.4, 0.9, 0.6)}


@pytest.mark.parametrize("terms", LOSS_TERM_WEIGHTS)
def test_loss_terms_node_against_finite_differences(terms):
    rng = np.random.default_rng(16)
    n = 10
    w_col = (np.arange(n) % 2).reshape(-1, 1).astype(float)
    y_col = rng.integers(0, 2, size=(n, 1)).astype(float)
    t_col = np.where(w_col == 1, rng.uniform(1.0, 3.0, size=(n, 1)), 0.0)
    p0, pt, p_cf, p_base_cf = (ad.ParamTensor(name, rng.uniform(0.05, 0.95, size=(n, 1)))
                               for name in ("p0", "pt", "p_cf", "p_base_cf"))
    t_hat = ad.ParamTensor("t_hat", rng.uniform(1.0, 3.0, size=(n, 1)))
    r_orth = ad.ParamTensor("r_orth", rng.uniform(0.5, 2.0))  # the penalty, a scalar
    weights = LOSS_TERM_WEIGHTS[terms]
    tapes = []

    def loss_fn(tape):
        tapes.append(tape)
        node, _ = ht.loss_terms(weights, y_col, w_col, t_col, p0, pt, t_hat, p_cf, p_base_cf,
                                r_orth, tape)
        return node

    params = [p0, pt, t_hat, p_cf, p_base_cf, r_orth]
    assert finite_diff_check(loss_fn, params, eps=1e-6) < 1e-6
    # one node, whose parents are the operands of the terms its weights keep
    kept = {"l_base": [p0], "l_treat": [pt], "l_t": [t_hat], "l_x": [p_cf, p_base_cf],
            "r_orth": [r_orth], "all": params}[terms]
    assert len(tapes[0].nodes) == 1
    assert list(tapes[0].nodes[0].parents) == kept


# ---------------------------------------------------------------------------
# stop-gradient blocking through the full loss
# ---------------------------------------------------------------------------

def slot_grads(params, group):
    """The gradient blocks of one expert group's slots, every stacked tensor."""
    e = params.experts_per_group
    return [p.grad[k] for p in ad.mlp_params(params.experts)
            for k in range(group * e, (group + 1) * e)]


@pytest.mark.parametrize("seed", range(3))
def test_base_loss_never_trains_treated_experts(seed):
    model = tiny_model(seed=seed)
    X, w, t, y = tiny_batch(seed=seed + 50)
    tape = ad.Tape()
    ht.joint_loss_arrays(X, w, t, y, model,
                         LossWeights(1.0, 0, 0, 0, 0), tape)
    ad.backward(tape)
    assert all(np.all(g == 0.0) for g in slot_grads(model.dcr, dcr.TREATED))
    for group in (dcr.BASE, dcr.SHARED):
        assert all(np.any(g != 0.0) for g in slot_grads(model.dcr, group))


@pytest.mark.parametrize("seed", range(3))
def test_treat_loss_never_trains_base_experts(seed):
    model = tiny_model(seed=seed)
    X, w, t, y = tiny_batch(seed=seed + 60)
    tape = ad.Tape()
    ht.joint_loss_arrays(X, w, t, y, model,
                         LossWeights(0, 1.0, 0, 0, 0), tape)
    ad.backward(tape)
    assert all(np.all(g == 0.0) for g in slot_grads(model.dcr, dcr.BASE))
    for group in (dcr.SHARED, dcr.TREATED):
        assert all(np.any(g != 0.0) for g in slot_grads(model.dcr, group))


@pytest.mark.parametrize("seed", range(3))
def test_intensity_loss_never_trains_dcr_or_uplift_head(seed):
    model = tiny_model(seed=seed)
    X, w, t, y = tiny_batch(seed=seed + 70)
    tape = ad.Tape()
    ht.joint_loss_arrays(X, w, t, y, model,
                         LossWeights(0, 0, 1.0, 0, 0), tape)
    ad.backward(tape)
    for p in model.dcr.parameters():
        assert np.all(p.grad == 0.0)
    for p in ad.mlp_params(model.hte.uplift_head):
        assert np.all(p.grad == 0.0)
    assert any(np.any(p.grad != 0.0) for p in ad.mlp_params(model.hte.intensity_head))


def test_full_joint_loss_passes_gradient_check():
    model = tiny_model(seed=13)
    X, w, t, y = tiny_batch(seed=13, n=12)
    weights = LossWeights(1.0, 1.0, 0.1, 0.5, 1e-2)
    params = model.parameters()

    def loss_fn(tape):
        total, _ = ht.joint_loss_arrays(X, w, t, y, model, weights, tape)
        return total

    assert finite_diff_check(loss_fn, params, eps=1e-5) < 1e-4


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_syn():
    spec = replace(dg.PRESETS["syn1"], n_train=1000, n_test=400, seed=21)
    return dg.generate(spec)


def test_training_history_is_bit_identical_across_runs(small_syn):
    train_ds, _ = small_syn
    cfg = ExperimentConfig(train=TrainConfig(epochs=2, batch=128, seed=5))
    _, hist_a = ht.train(train_ds, cfg)
    cfg2 = ExperimentConfig(train=TrainConfig(epochs=2, batch=128, seed=5))
    _, hist_b = ht.train(train_ds, cfg2)
    assert hist_a == hist_b


@pytest.mark.parametrize("lam", [LossWeights(), LossWeights(lambda_x=0.0)])
def test_history_total_is_weighted_sum_of_its_components(small_syn, lam):
    train_ds, _ = small_syn
    cfg = ExperimentConfig(train=TrainConfig(epochs=2, batch=128, seed=3), loss=lam)
    _, hist = ht.train(train_ds, cfg)
    if lam.lambda_x == 0.0:
        assert all(rec["l_x"] == 0.0 for rec in hist)
    for rec in hist:
        want = (lam.lambda_base * rec["l_base"] + lam.lambda_treat * rec["l_treat"]
                + lam.lambda_t * rec["l_t"] + lam.lambda_x * rec["l_x"]
                + lam.lambda_o * rec["r_orth"])
        assert rec["total"] == pytest.approx(want, rel=1e-12, abs=0)


def test_training_descends(small_syn):
    train_ds, _ = small_syn
    cfg = ExperimentConfig(train=TrainConfig(epochs=4, batch=128, seed=1))
    model, hist = ht.train(train_ds, cfg)
    assert hist[-1]["total"] < hist[0]["total"]
    assert hist[-1]["l_base"] < hist[0]["l_base"]


@pytest.fixture(scope="module")
def syn600():
    return dg.generate(replace(dg.PRESETS["syn1"], n_train=600, n_test=10, seed=1))[0]


@pytest.mark.parametrize("fit", [ht.train, baselines.train_slearner, baselines.train_tlearner],
                         ids=["unimvt", "slearner", "tlearner"])
@pytest.mark.parametrize("key, value", [("train.batch", 0), ("train.batch", -5),
                                        ("train.epochs", 0), ("train.epochs", -1),
                                        ("train.lr", 0.0), ("train.lr", -1e-3),
                                        ("train.lr", np.nan), ("train.lr", np.inf),
                                        ("train.lr", True), ("train.lr", "0.1"),
                                        ("train.lr", None), ("train.seed", -1)])
def test_training_names_a_bad_setting(syn600, fit, key, value):
    cfg = ExperimentConfig()  # set as it is: a config file's parser would refuse a str
    setattr(cfg.train, key.removeprefix("train."), value)
    with pytest.raises(ConfigError, match=re.escape(key)):
        fit(syn600, cfg)


@pytest.mark.parametrize("fit", [ht.train, baselines.train_slearner, baselines.train_tlearner],
                         ids=["unimvt", "slearner", "tlearner"])
@pytest.mark.parametrize("seed", [1.5, True, np.float64(2.0)])
def test_training_names_a_seed_that_is_not_an_integer(syn600, fit, seed):
    cfg = ExperimentConfig()
    cfg.train.seed = seed
    with pytest.raises(ConfigError, match=re.escape("train.seed")):
        fit(syn600, cfg)


# each network width, and the trainers that read it
WIDTH_READERS = {"dcr.experts_per_group": ["unimvt"], "dcr.hidden": ["unimvt"],
                 "dcr.out_dim": ["unimvt"], "net.head_hidden": ["unimvt"],
                 "net.tower_hidden": ["unimvt", "slearner", "tlearner"]}
TRAINERS = {"unimvt": ht.train, "slearner": baselines.train_slearner,
            "tlearner": baselines.train_tlearner}


@pytest.mark.parametrize("value", [0, -1, True, 2.5])
@pytest.mark.parametrize("key, fit", [(key, fit) for key, fits in WIDTH_READERS.items()
                                      for fit in fits])
def test_training_names_a_width_that_is_not_a_positive_integer(syn600, key, fit, value):
    cfg = ExperimentConfig()
    section, name = key.split(".")
    setattr(getattr(cfg, section), name, (8, value) if name == "tower_hidden" else value)
    with pytest.raises(ConfigError, match=re.escape(key)):
        TRAINERS[fit](syn600, cfg)


@pytest.mark.parametrize("fit", TRAINERS)
def test_training_names_tower_widths_that_are_not_a_tuple(syn600, fit):
    cfg = ExperimentConfig()
    cfg.net.tower_hidden = 32
    with pytest.raises(ConfigError, match=re.escape("net.tower_hidden")):
        TRAINERS[fit](syn600, cfg)


@pytest.mark.parametrize("value", ["no", 0, 1, None])
def test_training_names_an_ablation_switch_that_is_not_a_bool(syn600, value):
    cfg = ExperimentConfig(ablate=AblationConfig(dcr=value))
    with pytest.raises(ConfigError, match=re.escape("ablate.dcr")):
        ht.train(syn600, cfg)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0, True, "0.1", None])
def test_training_names_a_bad_loss_weight(syn600, bad):
    with pytest.raises(ConfigError, match="loss weight lambda_t"):
        ht.train(syn600, ExperimentConfig(loss=LossWeights(lambda_t=bad)))


def test_training_without_treated_rows_fails():
    ds = dg.Dataset(np.zeros((10, 5)), np.zeros(10, dtype=int), np.zeros(10), np.zeros(10, dtype=int))
    with pytest.raises(ConfigError):
        ht.train(ds, ExperimentConfig())


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------

def test_predict_untrained_zeroed_final_layers():
    model = tiny_model(seed=1)
    model.hte.base_tower[-1].W.values[:] = 0.0
    model.hte.base_tower[-1].b.values[:] = 0.0
    model.hte.uplift_head[-1].W.values[:] = 0.0
    model.hte.uplift_head[-1].b.values[:] = 0.0
    pred = ht.predict(model, np.ones(5))
    assert pred.p0_hat == 0.5
    assert pred.eta_hat == 0.0


def test_predict_with_zero_q_gives_zero_tau():
    model = tiny_model(seed=1)
    pred = ht.predict(model, np.ones(5), q=0.0)
    assert pred.tau_hat == 0.0
    assert pred.extrapolated  # q=0 sits below t_min=1


def test_uplifted_probability_monotone_in_q():
    # the uplift-path probability bridge(p0, q, eta) = sigmoid(logit(p0) + q*eta)
    # is nondecreasing in q because eta >= 0 structurally; equality holds iff eta == 0
    model = tiny_model(seed=6)
    rng = np.random.default_rng(6)
    X = rng.standard_normal((40, 5))
    out = ht.predict_batch(model, X)
    tape = ad.Tape()
    p0 = tape.constant(out["p0_hat"])
    eta = tape.constant(out["eta_hat"])
    lo = tape.bridge(p0, tape.constant(1.2), eta).value
    hi = tape.bridge(p0, tape.constant(2.8), eta).value
    assert np.all(lo <= hi)
    positive = out["eta_hat"] > 0
    assert np.all(lo[positive] < hi[positive])
    assert np.all(lo[~positive] == hi[~positive])


def test_predict_with_q_drives_gate_encoding():
    model = tiny_model(seed=6)
    x = np.ones(5)
    lo = ht.predict(model, x, q=1.2)
    hi = ht.predict(model, x, q=2.8)
    assert lo.pt_hat != hi.pt_hat  # tower responds to the requested intensity
    assert not lo.extrapolated and not hi.extrapolated
    assert hi.tau_hat == 2.8 * hi.eta_hat


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_predict_batch_names_the_nonfinite_feature(bad):
    X = np.ones((4, 5))
    X[2, 3] = bad
    with pytest.raises(DataFormatError, match="row 2: feature 3"):
        ht.predict_batch(tiny_model(), X)


def test_predict_names_the_nonfinite_feature():
    x = np.ones(5)
    x[1] = np.nan
    with pytest.raises(DataFormatError, match="row 0: feature 1"):
        ht.predict(tiny_model(), x)


@pytest.mark.parametrize("rows", [0, 3])
def test_predict_names_a_row_count_other_than_one(rows):
    with pytest.raises(DataFormatError, match=f"one row, got {rows} rows"):
        ht.predict(tiny_model(), np.ones((rows, 5)))


@pytest.mark.parametrize("score", [ht.predict, ht.predict_batch])
def test_scoring_names_the_shape_of_features_with_more_than_two_dimensions(score):
    with pytest.raises(DataFormatError, match=re.escape("shape (1, 4, 5)")):
        score(tiny_model(), np.ones((1, 4, 5)))


def learners_on_five_features():
    rng = np.random.default_rng(0)

    def net(name, n_inputs):
        return ad.init_mlp(rng, name, (n_inputs, 4, 1), out_activation="sigmoid")

    # each learner's net that reads the dose takes it as one more input
    return (baselines.SLearnerModel(net("s", 6), 1.0, 3.0),
            baselines.TLearnerModel(net("c", 5), net("t", 6), 1.0, 3.0))


# every scoring entry point, on a model that takes 5 features
SCORE_FIVE_FEATURES = {
    "predict_batch": lambda X: ht.predict_batch(tiny_model(), X),
    "predict": lambda X: ht.predict(tiny_model(), X[0]),
    "slearner.outcome_prob": lambda X: learners_on_five_features()[0].outcome_prob(X, 2.0),
    "slearner.unit_uplift_scores": lambda X: learners_on_five_features()[0].unit_uplift_scores(X),
    "tlearner.base_ctr": lambda X: learners_on_five_features()[1].base_ctr(X),
    "tlearner.treated_prob": lambda X: learners_on_five_features()[1].treated_prob(X, 2.0),
    "tlearner.unit_uplift_scores": lambda X: learners_on_five_features()[1].unit_uplift_scores(X),
}


@pytest.mark.parametrize("width", [4, 6])
@pytest.mark.parametrize("entry", SCORE_FIVE_FEATURES)
def test_scoring_names_the_feature_count_it_got_and_the_one_the_model_takes(entry, width):
    with pytest.raises(DataFormatError, match=f"got {width} features; the model takes 5"):
        SCORE_FIVE_FEATURES[entry](np.ones((3, width)))


@pytest.mark.parametrize("bad", [[["a"] * 5] * 3, [[{}] * 5] * 3, [[1j] * 5] * 3],
                         ids=["string", "dict", "complex"])
@pytest.mark.parametrize("entry", SCORE_FIVE_FEATURES)
def test_scoring_says_features_must_be_numbers(entry, bad):
    with pytest.raises(DataFormatError, match="features must be numbers"):
        SCORE_FIVE_FEATURES[entry](bad)


@pytest.mark.parametrize("ablate_dcr", [False, True])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_predict_batch_names_the_row_of_a_nonfinite_q(bad, ablate_dcr):
    model = tiny_model(ablate=AblationConfig(dcr=ablate_dcr))
    q = np.full(4, 2.0)
    q[2] = bad
    with pytest.raises(DataFormatError, match="row 2: q"):
        ht.predict_batch(model, np.ones((4, 5)), q=q)
    with pytest.raises(DataFormatError, match="row 0: q"):
        ht.predict(model, np.ones(5), q=bad)


@pytest.mark.parametrize("q", [["a"] * 4, "x", [1j] * 4, np.full(4, 2.0 + 1.0j),
                               True, np.bool_(False), [True, False, True, True], np.ones(4, bool)],
                         ids=["strings", "string", "complex list", "complex array",
                              "bool", "numpy bool", "bool list", "bool array"])
def test_predict_batch_says_q_must_be_numbers(q):
    # a complex array would otherwise lose its imaginary part with only a
    # warning, and a bool would read as the dose 0.0 or 1.0
    with pytest.raises(DataFormatError, match="q must be numbers"):
        ht.predict_batch(tiny_model(), np.ones((4, 5)), q=q)
    if np.ndim(q) == 0:
        with pytest.raises(DataFormatError, match="q must be numbers"):
            ht.predict(tiny_model(), np.ones(5), q=q)


@pytest.mark.parametrize("ablate_dcr", [False, True])
@pytest.mark.parametrize("q", [np.full(3, 2.0), np.full((4, 1), 2.0)])
def test_predict_batch_names_both_lengths_of_a_misshapen_q(q, ablate_dcr):
    model = tiny_model(ablate=AblationConfig(dcr=ablate_dcr))
    with pytest.raises(DataFormatError, match=re.escape(f"q has shape {q.shape} for 4 rows")):
        ht.predict_batch(model, np.ones((4, 5)), q=q)


def test_predict_names_the_layer_of_a_nan_weight():
    # relu maps NaN to 0, so only a check before the activation sees this weight
    model = tiny_model()
    model.hte.base_tower[0].W.values[0, 0] = np.nan
    with pytest.raises(NumericError, match="layer 0"):
        ht.predict(model, np.ones(5))


@pytest.mark.parametrize("part, name", [("treat_tower", "treat_tower.l0.W"),
                                        ("ta_gates", "ta_gate0.W"),
                                        ("ta_gates", "ta_gate1.W")])
def test_predict_names_a_nan_weight_of_the_treatment_tower(part, name):
    # both gates' logits come from one GEMM; the error still names the gate
    layer = int(re.search(r"\d", name).group())
    model = tiny_model()
    getattr(model.hte, part)[layer].W.values[0, 0] = np.nan
    with pytest.raises(NumericError, match=f"layer {layer} \\({name}\\)"):
        ht.predict(model, np.ones(5))


@pytest.mark.parametrize("name", ["dcr.gate0.l0.W", "dcr.gate_t.l0.W", "dcr.l0.W"])
def test_predict_names_a_nan_weight_of_the_representation_layer(name):
    model = tiny_model()
    weight = next(p for p in model.dcr.parameters() if p.name == name)
    weight.values.reshape(-1)[0] = np.nan
    with pytest.raises(NumericError, match=f"layer 0 \\({name}\\)"):
        ht.predict(model, np.ones(5))


def test_eta_hat_is_the_counterfactual_gain_per_unit_of_imputed_dose():
    # eta_hat is read off the node p_cf the X loss trains; scipy's logit and
    # the bridge's log difference differ in the last bits
    model = tiny_model(seed=5)
    rng = np.random.default_rng(5)
    head = model.hte.uplift_head[-1]
    head.W.values[:] = rng.normal(0.0, 0.5, size=head.W.shape)  # ReLU zeros some rows
    out = ht.predict_batch(model, rng.standard_normal((200, 5)))
    p0, t_hat = out["p0_hat"], out["t_hat"]
    want = (expit(logit(p0) + t_hat * out["eta_head"]) - p0) / t_hat
    assert np.any(out["eta_head"] == 0.0) and np.any(out["eta_head"] > 0.0)
    np.testing.assert_allclose(out["eta_hat"], want, rtol=0, atol=1e-15)


def test_t_hat_strictly_inside_bounds():
    model = tiny_model(seed=8)
    rng = np.random.default_rng(0)
    out = ht.predict_batch(model, rng.standard_normal((50, 5)))
    assert np.all(out["t_hat"] > model.hte.t_min)
    assert np.all(out["t_hat"] < model.hte.t_max)


def test_eta_nonnegative_everywhere():
    model = tiny_model(seed=12)
    rng = np.random.default_rng(1)
    out = ht.predict_batch(model, rng.standard_normal((100, 5)) * 3.0)
    assert np.all(out["eta_hat"] >= 0.0)


# ---------------------------------------------------------------------------
# tape-node budget: node growth shows up here, not only as benchmark time
# ---------------------------------------------------------------------------

def training_batch_nodes(ablate):
    model = ht.build_model(ExperimentConfig(ablate=ablate), input_dim=8, t_min=1.0, t_max=3.0)
    X, w, t, y = tiny_batch(seed=1, n=256, input_dim=8)
    tape = ad.Tape()
    ht.joint_loss_arrays(X, w, t, y, model, LossWeights(), tape)
    return len(tape.nodes)


def test_default_training_batch_records_at_most_16_nodes():
    assert training_batch_nodes(AblationConfig()) <= 16


def test_ablate_dcr_training_batch_records_at_most_13_nodes():
    assert training_batch_nodes(AblationConfig(dcr=True)) <= 13


def test_predict_records_at_most_12_nodes(monkeypatch):
    model = ht.build_model(ExperimentConfig(), input_dim=8, t_min=1.0, t_max=3.0)
    tapes = []

    class CountingTape(ad.Tape):
        def __init__(self):
            super().__init__()
            tapes.append(self)

    monkeypatch.setattr(ad, "Tape", CountingTape)
    ht.predict(model, np.ones(8))
    assert len(tapes) == 1
    assert len(tapes[0].nodes) <= 12


# ---------------------------------------------------------------------------
# scoring in blocks of SCORE_ROWS rows
# ---------------------------------------------------------------------------

BLOCKED_ROWS = 2 * ad.SCORE_ROWS + 17  # two full blocks and a partial one
PREDICT_BATCH_KEYS = {"p0_hat", "pt_hat", "t_hat", "eta_hat", "eta_head", "tau_hat",
                      "extrapolated"}


@pytest.mark.parametrize("ablate_dcr", [False, True])
@pytest.mark.parametrize("per_row_q", [False, True], ids=["imputed dose", "per-row q"])
def test_predict_batch_across_blocks_equals_predict_row_by_row(ablate_dcr, per_row_q):
    model = tiny_model(ablate=AblationConfig(dcr=ablate_dcr))
    X = np.random.default_rng(3).standard_normal((BLOCKED_ROWS, 5))
    # a different q on every row, outside [t_min, t_max] = [1, 3] at both ends
    # and across the second block boundary, so a q or a flag on the wrong row shows
    q = np.linspace(0.5, 4.0, BLOCKED_ROWS) if per_row_q else None
    out = ht.predict_batch(model, X, q=q)
    assert set(out) == PREDICT_BATCH_KEYS
    assert all(v.shape == (BLOCKED_ROWS,) for v in out.values())
    for i in range(BLOCKED_ROWS):
        qi = None if q is None else q[i]
        row = ht.predict(model, X[i], q=qi)
        for key in ("p0_hat", "pt_hat", "t_hat", "eta_hat", "tau_hat"):
            assert abs(getattr(row, key) - out[key][i]) <= 1e-12, (i, key)
        assert row.extrapolated == out["extrapolated"][i], i
        eta_head = ht.predict_batch(model, X[i], q=qi)["eta_head"][0]
        assert abs(eta_head - out["eta_head"][i]) <= 1e-12, i
    if per_row_q:
        np.testing.assert_array_equal(out["extrapolated"], (q < 1.0) | (q > 3.0))


@pytest.mark.parametrize("q", [None, 2.0, np.zeros(0)], ids=["imputed dose", "scalar q", "no q"])
def test_predict_batch_on_no_rows_returns_seven_empty_arrays(q):
    out = ht.predict_batch(tiny_model(), np.zeros((0, 5)), q=q)
    assert set(out) == PREDICT_BATCH_KEYS
    assert all(v.shape == (0,) for v in out.values())


def traced_peak(score, X) -> int:
    """The tracemalloc peak of score(X), in bytes above what was allocated
    before the call; a first call warms numpy's caches untraced."""
    score(X)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        score(X)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def default_width_tlearner():
    rng = np.random.default_rng(0)
    hidden = ExperimentConfig().net.tower_hidden
    return baselines.TLearnerModel(
        ad.init_mlp(rng, "c", (8, *hidden, 1), out_activation="sigmoid"),
        ad.init_mlp(rng, "t", (9, *hidden, 1), out_activation="sigmoid"), 1.0, 3.0)


@pytest.mark.parametrize("entry", ["predict_batch", "tlearner.unit_uplift_scores"])
def test_scoring_memory_does_not_grow_with_the_row_count(entry):
    # a scoring call holds one block's tape: 16 blocks of rows peak under
    # twice what one block does (a single tape for every row peaks ~15x)
    if entry == "predict_batch":
        model = ht.build_model(ExperimentConfig(), input_dim=8, t_min=1.0, t_max=3.0)
        score = partial(ht.predict_batch, model)
    else:
        score = default_width_tlearner().unit_uplift_scores
    X = np.random.default_rng(4).standard_normal((16 * ad.SCORE_ROWS, 8))
    assert traced_peak(score, X) < 2 * traced_peak(score, X[:ad.SCORE_ROWS])


class _Captured(Exception):
    pass


def first_batch_tape(monkeypatch, fit):
    """The tape of the first batch ``fit()`` trains on, caught at backward."""
    tapes = []

    def capture(tape):
        tapes.append(tape)
        raise _Captured

    monkeypatch.setattr(ad, "backward", capture)
    with pytest.raises(_Captured):
        fit()
    monkeypatch.undo()
    return tapes[0]


def dead_gradients(tape) -> int:
    """Run backward with every vjp wrapped, counting the gradients it computes
    into parents that reach no parameter (a parameter is one; a node reaches
    one through a vjp and a parent that reaches one)."""
    reaches = set()

    def reaches_one(parent):
        return isinstance(parent, ad.ParamTensor) or id(parent) in reaches

    for node in tape.nodes:  # creation order is topological
        if node.vjp is not None and any(reaches_one(p) for p in node.parents):
            reaches.add(id(node))
    count = 0

    def counted(vjp, parents):
        def wrapped(g):
            nonlocal count
            out = vjp(g)
            count += sum(pg is not None and not reaches_one(p) for p, pg in zip(parents, out))
            return out
        return wrapped

    for node in tape.nodes:
        if node.vjp is not None:
            node.vjp = counted(node.vjp, node.parents)
    ad.backward(tape)
    return count


def test_training_batches_compute_no_dead_gradient(monkeypatch):
    train_ds, _ = dg.generate(replace(dg.PRESETS["syn3"], n_train=300, n_test=10, seed=2))
    cfg = ExperimentConfig()
    unimvt = first_batch_tape(monkeypatch, lambda: ht.train(train_ds, cfg))
    slearner = first_batch_tape(monkeypatch, lambda: baselines.train_slearner(train_ds, cfg))
    assert dead_gradients(unimvt) == 0
    assert dead_gradients(slearner) == 0


# ---------------------------------------------------------------------------
# memory: a spent tape is freed by reference counting
# ---------------------------------------------------------------------------

def test_batch_and_predict_leave_no_cyclic_garbage():
    model = ht.build_model(ExperimentConfig(), input_dim=5, t_min=1.0, t_max=3.0)
    params = model.parameters()
    state = ad.OptimizerState(params)
    X, w, t, y = tiny_batch(seed=5, n=64)

    def batch():
        tape = ad.Tape()
        ht.joint_loss_arrays(X, w, t, y, model, LossWeights(), tape)
        ad.backward(tape)
        ad.optimizer_step(state)

    gc.collect()
    gc.disable()
    try:
        batch()
        assert gc.collect() == 0
        ht.predict(model, X[0])
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# ablations in the loss path
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("ablate", [AblationConfig(), AblationConfig(dcr=True)],
                         ids=["default", "ablate.dcr"])
def test_every_parameter_trains_and_the_uplift_head_lives(ablate):
    # a switch that leaves some parameter without gradient, or the uplift head
    # constant, removes more than its component
    train_ds, test_ds = dg.generate(replace(dg.PRESETS["syn3"], n_train=2000, n_test=500, seed=4))
    cfg = ExperimentConfig(train=TrainConfig(epochs=1, seed=0), ablate=ablate)
    model, _ = ht.train(train_ds, cfg)
    X, w, t, y, _, _ = dg.dataset_arrays(train_ds)
    tape = ad.Tape()
    ht.joint_loss_arrays(X[:256], w[:256], t[:256], y[:256], model, cfg.loss, tape)
    ad.backward(tape)
    assert [p.name for p in model.parameters() if not np.any(p.grad)] == []
    eta_head = ht.predict_batch(model, dg.dataset_arrays(test_ds)[0])["eta_head"]
    assert eta_head.min() < eta_head.max()


def test_dcr_ablation_trains(small_syn):
    train_ds, _ = small_syn
    cfg = ExperimentConfig(train=TrainConfig(epochs=1, batch=128, seed=2),
                           ablate=AblationConfig(dcr=True))
    model, hist = ht.train(train_ds, cfg)
    assert not model.dcr.enabled
    assert all(rec["r_orth"] == 0.0 for rec in hist)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_save_model_refuses_a_nonfinite_parameter_and_writes_no_file(tmp_path, bad):
    model = tiny_model()
    kept = tmp_path / "kept.txt"
    ht.save_model(model, kept)
    before = kept.read_bytes()
    model.hte.base_tower[0].W.values[1, 2] = bad
    path = tmp_path / "model.txt"
    for target in (path, kept):
        with pytest.raises(NumericError, match=re.escape("param.base_tower.l0.W")):
            ht.save_model(model, target)
    assert not path.exists()
    assert kept.read_bytes() == before


def test_model_save_load_round_trip(tmp_path, small_syn):
    train_ds, test_ds = small_syn
    cfg = ExperimentConfig(train=TrainConfig(epochs=1, batch=128, seed=7))
    model, _ = ht.train(train_ds, cfg)
    path = tmp_path / "model.txt"
    ht.save_model(model, path)
    loaded = ht.load_model(path)
    X = dg.dataset_arrays(test_ds)[0][:32]
    a = ht.predict_batch(model, X)
    b = ht.predict_batch(loaded, X)
    for key in ("p0_hat", "pt_hat", "t_hat", "eta_hat"):
        np.testing.assert_array_equal(a[key], b[key])
    assert loaded.hte.t_min == model.hte.t_min
    assert loaded.hte.t_max == model.hte.t_max
