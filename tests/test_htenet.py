"""HTE network: gate algebra, head contracts, counterfactual estimators,
joint-loss oracle checks, stop-gradient blocking, training and serialization."""

import gc
import os
import re
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from scipy.special import expit, logit

from gradcheck import GUARD_CASES, GUARD_ROWS, finite_diff_check, hte_reference, mul, total
from unimvt import autodiff as ad
from unimvt import baselines
from unimvt import datagen as dg
from unimvt import dcr
from unimvt import htenet as ht
from unimvt.allocator import AllocationGrid, decide
from unimvt.config import (AblationConfig, ExperimentConfig, LossWeights, TrainConfig,
                           config_to_flat)
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
    # the gate bank holds gate0's draw, then gate_t's, side by side
    bank = model.dcr.gates
    assert bank.W.shape == (5, 2 * n_slots) and bank.b.shape == (2 * n_slots,)
    for cols in (slice(0, n_slots), slice(n_slots, 2 * n_slots)):
        np.testing.assert_array_equal(bank.W.values[:, cols], ad.glorot_uniform(rng, 5, n_slots))
    assert np.all(bank.b.values == 0.0)
    tower = ad.init_mlp(rng, "base_tower", (model.dcr.output_dim, *cfg.net.tower_hidden, 1))
    for got, want in zip(model.hte.towers, tower):  # the base tower is slice 0
        np.testing.assert_array_equal(got.W.values[0], want.W.values)


@pytest.mark.parametrize("tower_hidden", [(32, 32), (8, 5, 3)], ids=["32-32", "8-5-3"])
def test_build_model_draws_the_ta_gate_bank_one_gate_at_a_time(tower_hidden):
    # the bank holds the draws of one (2, width) gate per hidden layer in
    # layer order, and the intensity head's draws follow them unchanged
    cfg = ExperimentConfig()
    cfg.net.tower_hidden = tower_hidden
    model = ht.build_model(cfg, input_dim=5, t_min=1.0, t_max=3.0, seed=6)
    rng = np.random.default_rng(6)
    rep = dcr.init_dcr(rng, 5, cfg.dcr, False).output_dim
    for name in ("base_tower", "treat_tower"):
        ad.init_mlp(rng, name, (rep, *tower_hidden, 1))
    bank, cols = model.hte.ta_gates, model.hte.ta_cols
    assert bank.W.shape == (2, sum(tower_hidden)) and bank.b.shape == (sum(tower_hidden),)
    assert [col.stop - col.start for col in cols] == list(tower_hidden)
    for col, width in zip(cols, tower_hidden):
        np.testing.assert_array_equal(bank.W.values[:, col], ad.glorot_uniform(rng, 2, width))
    assert np.all(bank.b.values == 0.0)
    head = ad.init_mlp(rng, "intensity_head", (rep, cfg.net.head_hidden, 1))
    for got, want in zip(model.hte.heads, head):  # the intensity head is slice 0
        np.testing.assert_array_equal(got.W.values[0], want.W.values)


@pytest.mark.parametrize("ablate_dcr", [False, True], ids=["default", "ablate.dcr"])
def test_build_model_stacks_one_mlp_per_tower_and_head_in_their_draw_order(ablate_dcr):
    # slice 0 of the towers holds the base tower's draws and slice 1 the
    # treatment tower's; the heads hold the intensity head's, then the uplift
    # head's with its zero output weights and 0.02 output bias
    cfg = ExperimentConfig(ablate=AblationConfig(dcr=ablate_dcr))
    model = ht.build_model(cfg, input_dim=5, t_min=1.0, t_max=3.0, seed=7)
    rng = np.random.default_rng(7)
    rep = dcr.init_dcr(rng, 5, cfg.dcr, ablate_dcr).output_dim
    towers = [ad.init_mlp(rng, name, (rep, *cfg.net.tower_hidden, 1), out_activation="sigmoid")
              for name in ("base_tower", "treat_tower")]
    ad.init_mlp(rng, "ta_gates", (2, sum(cfg.net.tower_hidden)))  # draws the bank's share
    heads = [ad.init_mlp(rng, name, (rep, cfg.net.head_hidden, 1))
             for name in ("intensity_head", "uplift_head")]
    heads[1][-1].W.values[:] = 0.0
    heads[1][-1].b.values[:] = ht.UPLIFT_HEAD_INIT
    for stacked, mlps in ((model.hte.towers, towers), (model.hte.heads, heads)):
        assert len(stacked) == len(mlps[0])
        for i, layer in enumerate(stacked):
            for k, mlp in enumerate(mlps):
                np.testing.assert_array_equal(layer.W.values[k], mlp[i].W.values, strict=True)
                np.testing.assert_array_equal(layer.b.values[k, 0], mlp[i].b.values, strict=True)
    assert [p.name for p in model.hte.parameters()] == [
        "towers.l0.W", "towers.l0.b", "towers.l1.W", "towers.l1.b", "towers.l2.W", "towers.l2.b",
        "ta_gates.W", "ta_gates.b", "heads.l0.W", "heads.l0.b", "heads.l1.W", "heads.l1.b"]
    assert len(model.parameters()) == 12 + len(model.dcr.parameters())


# ---------------------------------------------------------------------------
# treatment tower and its TA gates
# ---------------------------------------------------------------------------

def stacked(name, rng, *dims):
    """Two random same-shaped layer stacks as one: a (2, in, out) weight and
    (2, 1, out) bias per layer, every hidden layer a relu."""
    return [ad.Layer(ad.ParamTensor(f"{name}.l{i}.W", rng.standard_normal((2, fan_in, fan_out))),
                     ad.ParamTensor(f"{name}.l{i}.b", rng.standard_normal((2, 1, fan_out))),
                     "relu" if i < len(dims) - 2 else "linear")
            for i, (fan_in, fan_out) in enumerate(zip(dims, dims[1:]))]


def one_gate_tower(gate_W, gate_b):
    """HteParams whose towers have one hidden layer of width 3 on a width-4
    representation, with heads of width 2, t bounds [1, 3]."""
    rng = np.random.default_rng(0)
    gate = ad.Layer(ad.ParamTensor("g.W", gate_W), ad.ParamTensor("g.b", gate_b))
    return ht.HteParams(stacked("tw", rng, 4, 3, 1), gate, stacked("hd", rng, 4, 2, 1), 1.0, 3.0)


def node_value(hte, reps, imputed, dose):
    """The HTE node's (rows, 5) value on the representation reps."""
    tape = ad.Tape()
    return ht.hte_forward(hte, tape.constant(reps), imputed, dose, tape).value


def tower_value(hte, ut, dose):
    """pt, the treatment tower's column, on ut gated at dose."""
    return node_value(hte, np.stack([np.zeros_like(ut), ut]), 0.0, dose)[:, ht.PT:]


def treat_slice(layer):
    """The treatment tower's (in, out) weight and (out,) bias of a stacked layer."""
    return layer.W.values[1], layer.b.values[1, 0]


UT = np.random.default_rng(9).standard_normal((5, 4))
DOSES = np.array([[1.0], [1.7], [2.2], [3.0], [3.6]])


def test_ta_gate_neutral_at_zero_params():
    # a = 2*sigmoid(0) is exactly 1: the tower is its plain sigmoid MLP
    hte = one_gate_tower(np.zeros((2, 3)), np.zeros(3))
    tape = ad.Tape()
    plain_tower = [ad.Layer(ad.ParamTensor(f"t{i}.W", layer.W.values[1]),
                            ad.ParamTensor(f"t{i}.b", layer.b.values[1, 0]), act)
                   for i, (layer, act) in enumerate(zip(hte.towers, ("relu", "sigmoid")))]
    plain = ad.mlp_forward(plain_tower, tape.constant(UT), tape).value
    np.testing.assert_array_equal(tower_value(hte, UT, DOSES), plain)


def test_ta_gate_saturates_to_two():
    hte = one_gate_tower(np.zeros((2, 3)), np.full(3, 20.0))
    (w0, b0), (w1, b1) = map(treat_slice, hte.towers)
    h = 2.0 * np.maximum(UT @ w0 + b0, 0.0)
    np.testing.assert_allclose(tower_value(hte, UT, DOSES), expit(h @ w1 + b1), rtol=0, atol=1e-8)


def test_ta_gate_matches_direct_scalar_evaluation():
    rng = np.random.default_rng(4)
    hte = one_gate_tower(rng.standard_normal((2, 3)), rng.standard_normal(3))
    (w0, b0), (w1, b1) = map(treat_slice, hte.towers)
    gate = hte.ta_gates
    tn = (DOSES - 1.0) / 2.0
    a = 2.0 * expit(np.hstack([tn, tn**2]) @ gate.W.values + gate.b.values)
    h = a * np.maximum(UT @ w0 + b0, 0.0)
    np.testing.assert_allclose(tower_value(hte, UT, DOSES), expit(h @ w1 + b1), rtol=0, atol=1e-14)


def test_the_gates_multiply_the_treatment_tower_alone():
    # the base tower's column does not move with the dose; the treatment
    # tower's does, and under ablate.dcr both read the one representation
    rng = np.random.default_rng(5)
    hte = one_gate_tower(rng.standard_normal((2, 3)), rng.standard_normal(3))
    for reps in (np.stack([rng.standard_normal((5, 4)), UT]), UT):
        lo, hi = node_value(hte, reps, 0.0, np.full((5, 1), 1.2)), node_value(hte, reps, 0.0, 2.8)
        np.testing.assert_array_equal(lo[:, :ht.PT], hi[:, :ht.PT])
        assert np.any(lo[:, ht.PT] != hi[:, ht.PT])


# the treatment tower's gating, (imputed, dose): as training passes it,
# (1 - w, t), rows 1 and 4 treated; as scoring passes it, no dose at t_hat
# and (0, q) at q
GATINGS = ["training", "scoring at t_hat", "scoring at q"]


def gating(name, rng, n):
    treated = np.isin(np.arange(n), [1, 4]).reshape(-1, 1).astype(float)
    return {"training": (1.0 - treated, treated * rng.uniform(0.8, 3.2, size=(n, 1))),
            "scoring at t_hat": (None, None),
            "scoring at q": (0.0, rng.uniform(0.8, 3.2, size=(n, 1)))}[name]


def hte_node_case(ablate_dcr, seed=14, n=6):
    """A tiny model whose HTE biases, TA gate biases and uplift output weights
    are off their starts, and a representation parameter for it: (2, n, d)
    [u0, ut], or (n, d) under ablate.dcr."""
    model = tiny_model(seed=seed, ablate=AblationConfig(dcr=ablate_dcr))
    hte = model.hte
    rng = np.random.default_rng(seed)
    for layer in (*hte.towers, *hte.heads, hte.ta_gates):
        layer.b.values[:] = rng.normal(0.0, 0.3, size=layer.b.shape)
    hte.heads[-1].W.values[1] = rng.normal(0.0, 0.5, size=hte.heads[-1].W.shape[1:])
    rep = model.dcr.output_dim
    reps = ad.ParamTensor("reps", rng.standard_normal((n, rep) if ablate_dcr else (2, n, rep)))
    return hte, reps, rng


@pytest.mark.parametrize("gating_name", GATINGS)
@pytest.mark.parametrize("ablate_dcr", [False, True], ids=["default", "ablate.dcr"])
def test_hte_node_against_finite_differences(ablate_dcr, gating_name):
    # every column weighted; the checker replays the intensity head's
    # detached ut, so a gradient leaking into ut from that head fails it
    hte, reps, rng = hte_node_case(ablate_dcr)
    imputed, dose = gating(gating_name, rng, 6)
    weights = rng.uniform(0.5, 1.5, size=(6, 5))

    def loss_fn(tape):
        node = ht.hte_forward(hte, mul(tape, reps, 1.0), imputed, dose, tape)
        return total(tape, mul(tape, node, weights))

    assert finite_diff_check(loss_fn, [reps, *hte.parameters()], eps=1e-6) < 1e-6


@pytest.mark.parametrize("ablate_dcr", [False, True], ids=["default", "ablate.dcr"])
def test_no_gradient_reaches_the_representation_from_the_intensity_head(ablate_dcr):
    # t_hat alone, with the tower gated at q: only the intensity head trains
    hte, reps, rng = hte_node_case(ablate_dcr)
    dose = rng.uniform(0.8, 3.2, size=(6, 1))
    weights = np.zeros((6, 5))
    weights[:, ht.T_HAT] = rng.uniform(0.5, 1.5, size=6)

    def loss_fn(tape):
        node = ht.hte_forward(hte, mul(tape, reps, 1.0), 0.0, dose, tape)
        return total(tape, mul(tape, node, weights))

    assert finite_diff_check(loss_fn, [reps, *ad.mlp_params(hte.heads)], eps=1e-6) < 1e-6
    tape = ad.Tape()
    loss_fn(tape)
    ad.backward(tape)
    assert np.all(reps.grad == 0.0)
    for p in ad.mlp_params(hte.heads):
        assert np.any(p.grad[0] != 0.0) and np.all(p.grad[1] == 0.0)
    assert all(np.all(p.grad == 0.0) for p in (*ad.mlp_params(hte.towers), hte.ta_gates.W))


@pytest.mark.parametrize("gating_name", GATINGS)
@pytest.mark.parametrize("ablate_dcr", [False, True], ids=["default", "ablate.dcr"])
def test_hte_node_equals_the_per_layer_reference_on_every_column(ablate_dcr, gating_name):
    # the reference runs each tower and head on its own unstacked slice, so a
    # base tower reading ut, or a gate on the base tower, shows here
    hte, reps, rng = hte_node_case(ablate_dcr, seed=21, n=64)
    imputed, dose = gating(gating_name, rng, 64)
    got = node_value(hte, reps.values, imputed, dose)
    # the reference gates at imputed * t_hat + dose, so no dose is 1 * t_hat + 0
    want = hte_reference(hte, reps.values, *((1.0, 0.0) if dose is None else (imputed, dose)))
    assert got.shape == want.shape == (64, 5)
    for col in range(5):
        np.testing.assert_allclose(got[:, col], want[:, col], rtol=0, atol=1e-15, err_msg=str(col))


@pytest.mark.parametrize("ablate_dcr", [False, True], ids=["default", "ablate.dcr"])
def test_no_dose_gates_at_exactly_1_times_t_hat_plus_0(ablate_dcr):
    hte, reps, _ = hte_node_case(ablate_dcr, seed=22, n=64)
    assert np.array_equal(node_value(hte, reps.values, None, None),
                          node_value(hte, reps.values, 1.0, 0.0))


# ---------------------------------------------------------------------------
# intensity and uplift heads
# ---------------------------------------------------------------------------

def zeroed_head_model(**kw):
    model = tiny_model(**kw)
    model.hte.heads[-1].W.values[:] = 0.0  # both heads' output layers
    model.hte.heads[-1].b.values[:] = 0.0
    return model


def head_value(model, column, rows=3, seed=0):
    """One column of the HTE node on a random (2, rows, d) representation."""
    reps = np.random.default_rng(seed).standard_normal((2, rows, model.dcr.output_dim))
    return node_value(model.hte, reps, 1.0, 0.0)[:, column]


def test_intensity_head_midpoint_at_zero_logit():
    model = zeroed_head_model()
    np.testing.assert_allclose(head_value(model, ht.T_HAT), 2.0, atol=1e-12)  # midpoint of [1, 3]


def test_intensity_head_saturation():
    model = zeroed_head_model()
    model.hte.heads[-1].b.values[0] = 30.0
    t_hat = head_value(model, ht.T_HAT, rows=1)
    assert abs(t_hat[0] - 3.0) < 1e-8
    assert t_hat[0] < 3.0  # strictly inside


def test_intensity_head_blocks_gradients_to_dcr():
    model = tiny_model(seed=3)
    X, w, t, y = tiny_batch(3)
    tape = ad.Tape()
    rep = dcr.dcr_forward(model.dcr, tape.constant(X), tape)
    t_hat_only = np.arange(5) == ht.T_HAT
    total(tape, mul(tape, t_hat_only, ht.hte_forward(model.hte, rep, 1.0, 0.0, tape)))
    ad.backward(tape)
    for p in model.dcr.parameters():
        assert np.all(p.grad == 0.0)
    assert all(np.any(p.grad[0] != 0.0) for p in ad.mlp_params(model.hte.heads))


def test_bad_t_bounds_rejected():
    with pytest.raises(ConfigError):
        ht.build_model(tiny_config(), input_dim=5, t_min=3.0, t_max=3.0)


@pytest.mark.parametrize("seed", [True, -1, 1.5, "3"])
def test_build_model_names_a_seed_that_is_not_an_integer_of_at_least_0(seed):
    # True would otherwise build the network of seed 1
    with pytest.raises(ConfigError, match="seed"):
        tiny_model(seed=seed)


def test_uplift_head_clamps_negative_output():
    model = zeroed_head_model()
    model.hte.heads[-1].b.values[1] = -0.7
    np.testing.assert_array_equal(head_value(model, ht.ETA, rows=2), 0.0)
    model.hte.heads[-1].b.values[1] = 0.03
    np.testing.assert_allclose(head_value(model, ht.ETA, rows=2), 0.03, atol=1e-15)


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
    model.hte.towers[-1].W.values[0] = 0.0  # the base tower's output layer
    model.hte.towers[-1].b.values[0] = 0.0  # p0 = sigmoid(0) = 0.5
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
    def mlp_np(layers, h, k=None, out=lambda h: h):
        """The stack's slice k (every slice of a DCR layer when k is None);
        a relu after each hidden layer, ``out`` after the last."""
        for i, layer in enumerate(layers):
            w, b = (layer.W.values, layer.b.values) if k is None else (layer.W.values[k],
                                                                       layer.b.values[k, 0])
            h = h @ w + b
            h = np.maximum(h, 0.0) if i < len(layers) - 1 else out(h)
        return h

    hte, dcrp = model.hte, model.dcr
    n_slots = dcrp.experts[0].W.shape[0]
    # slot k of the stacked DCR layers, read back as one expert's MLP
    experts = [[ad.Layer(ad.ParamTensor("W", layer.W.values[k]),
                         ad.ParamTensor("b", layer.b.values[k, 0]))
                for layer in dcrp.experts] for k in range(n_slots)]
    outs = [mlp_np(e, X) for e in experts]
    def gated(cols):  # one gate's columns of the DCR gate bank
        logits = X @ dcrp.gates.W.values[:, cols] + dcrp.gates.b.values[cols]
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        gw = e / e.sum(axis=1, keepdims=True)
        blocks = []
        for slot, out in enumerate(outs):
            blocks.append(gw[:, slot : slot + 1] * out)
        return np.concatenate(blocks, axis=1)

    u0, ut = gated(slice(0, n_slots)), gated(slice(n_slots, 2 * n_slots))
    p0 = mlp_np(hte.towers, u0, 0, expit).reshape(-1)  # the base tower
    # the intensity head ends in a sigmoid, the uplift head in a ReLU
    t_hat = (mlp_np(hte.heads, ut, 0, expit).reshape(-1) * (hte.t_max - hte.t_min)
             + hte.t_min)
    eta = mlp_np(hte.heads, ut, 1, lambda h: np.maximum(h, 0.0)).reshape(-1)
    tau = t_hat * eta

    t_mix = np.where(w == 1, t, t_hat)
    tn = (t_mix - hte.t_min) / (hte.t_max - hte.t_min)
    e_t = np.stack([tn, tn**2], axis=1)
    h = ut
    for i, layer in enumerate(hte.towers[:-1]):  # the treatment tower
        h = np.maximum(h @ layer.W.values[1] + layer.b.values[1, 0], 0.0)
        col = hte.ta_cols[i]
        a = 2.0 * expit(e_t @ hte.ta_gates.W.values[:, col] + hte.ta_gates.b.values[col])
        h = a * h
    pt = expit(h @ hte.towers[-1].W.values[1] + hte.towers[-1].b.values[1, 0]).reshape(-1)

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


# the columns of the HTE node that each term's gradient reaches
TERM_COLUMNS = {"l_base": [ht.P0], "l_treat": [ht.PT], "l_t": [ht.T_HAT],
                "l_x": [ht.P_CF, ht.PT, ht.T_HAT, ht.ETA], "r_orth": []}


@pytest.mark.parametrize("terms", LOSS_TERM_WEIGHTS)
def test_loss_terms_node_against_finite_differences(terms):
    # the HTE node's columns p0, t_hat, eta, p_cf and pt as one parameter;
    # l_x reaches pt, t_hat and eta through the bridge to p_base_cf
    rng = np.random.default_rng(16)
    n = 10
    w_col = (np.arange(n) % 2).reshape(-1, 1).astype(float)
    y_col = rng.integers(0, 2, size=(n, 1)).astype(float)
    t_col = np.where(w_col == 1, rng.uniform(1.0, 3.0, size=(n, 1)), 0.0)
    columns = rng.uniform(0.05, 0.95, size=(n, 5))
    columns[:, ht.T_HAT] = rng.uniform(1.0, 3.0, size=n)
    columns[:, ht.ETA] = rng.uniform(0.0, 0.5, size=n)
    hte = ad.ParamTensor("hte", columns)
    r_orth = ad.ParamTensor("r_orth", rng.uniform(0.5, 2.0))  # the penalty, a scalar
    weights = LOSS_TERM_WEIGHTS[terms]
    tapes = []

    def loss_fn(tape):
        tapes.append(tape)
        node, _ = ht.loss_terms(weights, y_col, w_col, t_col, hte, r_orth, tape)
        return node

    assert finite_diff_check(loss_fn, [hte, r_orth], eps=1e-6) < 1e-6
    # one node, whose parents are the HTE node, unless only r_orth is kept, and r_orth if it is
    kept = {"r_orth": [r_orth], "all": [hte, r_orth]}.get(terms, [hte])
    assert len(tapes[0].nodes) == 1
    assert list(tapes[0].nodes[0].parents) == kept
    ad.backward(tapes[0])
    reached = set().union(*TERM_COLUMNS.values()) if terms == "all" else set(TERM_COLUMNS[terms])
    assert {col for col in range(5) if np.any(hte.grad[:, col])} == reached


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
    for p in ad.mlp_params(model.hte.heads):  # the intensity head, then the uplift head
        assert np.any(p.grad[0] != 0.0) and np.all(p.grad[1] == 0.0)


FULL_LOSS_WEIGHTS = LossWeights(1.0, 1.0, 0.1, 0.5, 1e-2)


@pytest.mark.parametrize("dropped", [None, *ht.LOSS_COMPONENTS.values()],
                         ids=["every weight", *ht.LOSS_COMPONENTS.values()])
def test_full_joint_loss_passes_gradient_check(dropped):
    # every weight on, then each set to 0 in turn: the term-drop path
    model = tiny_model(seed=13)
    X, w, t, y = tiny_batch(seed=13, n=12)
    weights = replace(FULL_LOSS_WEIGHTS, **({dropped: 0.0} if dropped else {}))
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
                                        ("train.lr", None), ("train.seed", -1),
                                        ("train.epochs", 1.5), ("train.batch", 2.0),
                                        ("train.epochs", "2"), ("train.batch", True)])
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
    with pytest.raises(ConfigError, match=re.escape("loss.lambda_t")):
        ht.train(syn600, ExperimentConfig(loss=LossWeights(lambda_t=bad)))


def test_training_without_treated_rows_fails():
    ds = dg.Dataset(np.zeros((10, 5)), np.zeros(10, dtype=int), np.zeros(10), np.zeros(10, dtype=int))
    with pytest.raises(ConfigError):
        ht.train(ds, ExperimentConfig())


def test_training_names_the_one_dose_of_its_treated_rows(syn600):
    # HteParams would blame the bounds it was given, [2.0, 2.0]
    X, w, t, y, _, _ = dg.dataset_arrays(syn600)
    one_dose = dg.Dataset(X, w, np.where(w == 1, 2.0, t), y)
    with pytest.raises(ConfigError, match=re.escape("two distinct doses to fix the t bounds; "
                                                    "its treated rows have the doses [2.0]")):
        ht.train(one_dose, ExperimentConfig())


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------

def test_predict_untrained_zeroed_final_layers():
    model = tiny_model(seed=1)
    model.hte.towers[-1].W.values[0] = 0.0  # the base tower's output layer
    model.hte.towers[-1].b.values[0] = 0.0
    model.hte.heads[-1].W.values[1] = 0.0  # the uplift head's
    model.hte.heads[-1].b.values[1] = 0.0
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
    p0, eta = out["p0_hat"], out["eta_hat"]
    lo, _ = ad.bridge(p0, 1.2, eta)
    hi, _ = ad.bridge(p0, 2.8, eta)
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


@pytest.mark.parametrize("bad, said", [([["a"] * 5] * 3, ": got strings"), ([[{}] * 5] * 3, ""),
                                       ([[1j] * 5] * 3, ": got complex values"),
                                       ([["1"] * 5] * 3, ": got strings"), ("1.0", ": got strings"),
                                       (np.full((3, 5), b"1.0"), ": got strings"),
                                       (np.array([[1.0] * 4 + ["1"]] * 3, dtype=object),
                                        ": got strings")],
                         ids=["string", "dict", "complex", "numeric strings", "string scalar",
                              "bytes array", "object array holding a string"])
@pytest.mark.parametrize("entry", SCORE_FIVE_FEATURES)
def test_scoring_says_features_must_be_numbers(entry, bad, said):
    # a string that numpy would parse as a float is still not a number
    with pytest.raises(DataFormatError, match="features must be numbers" + said):
        SCORE_FIVE_FEATURES[entry](bad)


# every S-/T-Learner entry point that takes a dose, scoring 4 rows on a model
# that takes 5 features
DOSE_ENTRIES = {
    "slearner.outcome_prob": lambda t: learners_on_five_features()[0].outcome_prob(
        np.ones((4, 5)), t),
    "tlearner.treated_prob": lambda t: learners_on_five_features()[1].treated_prob(
        np.ones((4, 5)), t),
    "tlearner.outcome_prob": lambda t: learners_on_five_features()[1].outcome_prob(
        np.ones((4, 5)), t),
}


def dose_scorers(model):
    """(the name its errors give the dose, a scorer of 4 rows) for every
    batch entry point that takes a dose: predict_batch on model, which calls
    it q, and each of DOSE_ENTRIES, which call it t."""
    return [("q", lambda q: ht.predict_batch(model, np.ones((4, 5)), q=q)),
            *(("t", score) for score in DOSE_ENTRIES.values())]


@pytest.mark.parametrize("t", ["2.0", b"2.0", ["2.0"] * 4, np.full(4, b"2"),
                               np.array([2.0, "2.0", 2.0], dtype=object)],
                         ids=["string", "bytes", "string list", "bytes array",
                              "object array holding a string"])
@pytest.mark.parametrize("entry", DOSE_ENTRIES)
def test_learners_say_the_dose_must_be_numbers(entry, t):
    with pytest.raises(DataFormatError, match="t must be numbers: got strings"):
        DOSE_ENTRIES[entry](t)
    assert DOSE_ENTRIES[entry](2.0).shape == (4,)


@pytest.mark.parametrize("ablate_dcr", [False, True])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_predict_batch_names_the_row_of_a_nonfinite_q(bad, ablate_dcr):
    # every entry that takes a dose says the same
    model = tiny_model(ablate=AblationConfig(dcr=ablate_dcr))
    q = np.full(4, 2.0)
    q[2] = bad
    for name, score in dose_scorers(model):
        with pytest.raises(DataFormatError, match=f"row 2: {name} is {bad}, not finite"):
            score(q)
    with pytest.raises(DataFormatError, match="row 0: q"):
        ht.predict(model, np.ones(5), q=bad)


@pytest.mark.parametrize("q", [["a"] * 4, "x", [1j] * 4, np.full(4, 2.0 + 1.0j),
                               True, np.bool_(False), [True, False, True, True], np.ones(4, bool),
                               "2.0", b"2.0", np.str_("2.0"), ["2.0"] * 4, np.full(4, "2.0"),
                               np.full(4, b"2.0"), np.array([2.0, "2.0", 2.0, 2.0], dtype=object),
                               [True, 2.0, 2.0, 2.0], np.array([2.0, True, 2.0, 2.0], dtype=object)],
                         ids=["strings", "string", "complex list", "complex array",
                              "bool", "numpy bool", "bool list", "bool array",
                              "numeric string", "bytes", "numpy string", "numeric strings",
                              "string array", "bytes array", "object array holding a string",
                              "list mixing a bool", "object array holding a bool"])
def test_predict_batch_says_q_must_be_numbers(q):
    # in every entry that takes a dose, a complex array would otherwise lose
    # its imaginary part with only a warning, a bool would read as the dose
    # 0.0 or 1.0 and a numeric string as the number it spells
    for name, score in dose_scorers(tiny_model()):
        with pytest.raises(DataFormatError, match=f"{name} must be numbers"):
            score(q)
    if np.ndim(q) == 0:
        with pytest.raises(DataFormatError, match="q must be numbers"):
            ht.predict(tiny_model(), np.ones(5), q=q)


@pytest.mark.parametrize("ablate_dcr", [False, True])
@pytest.mark.parametrize("q", [np.full(3, 2.0), np.full((4, 1), 2.0)])
def test_predict_batch_names_both_lengths_of_a_misshapen_q(q, ablate_dcr):
    # every entry that takes a dose says the same
    model = tiny_model(ablate=AblationConfig(dcr=ablate_dcr))
    for name, score in dose_scorers(model):
        shape = re.escape(f"{name} has shape {q.shape} for 4 rows")
        with pytest.raises(DataFormatError, match=shape):
            score(q)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, np.float64(np.nan), np.float32(-np.inf)],
                         ids=["nan", "inf", "-inf", "float64 nan", "float32 -inf"])
def test_every_dose_entry_names_row_0_for_a_nonfinite_scalar_dose(bad):
    # a scalar dose is broadcast to every row, and its error still names row 0
    for name, score in dose_scorers(tiny_model()):
        with pytest.raises(DataFormatError, match=f"^row 0: {name} is {bad}, not finite$"):
            score(bad)


@pytest.mark.parametrize("dose, row", [(-3.0, 0), (np.array([2.0, 0.0, -1e-300, 2.0]), 2)],
                         ids=["scalar", "per-row array"])
def test_every_dose_entry_names_the_row_of_a_negative_dose(dose, row):
    # a negative dose would otherwise be scored as an extrapolation
    for name, score in dose_scorers(tiny_model()):
        with pytest.raises(DataFormatError, match=f"^row {row}: {name} is {np.min(dose)}, below 0$"):
            score(dose)
    with pytest.raises(DataFormatError, match="^row 0: q is -3.0, below 0$"):
        ht.predict(tiny_model(), np.ones(5), q=-3.0)


@pytest.mark.parametrize("dose", [0.0, -0.0, 0, np.full(4, -0.0)],
                         ids=["0.0", "-0.0", "int 0", "per-row -0.0"])
def test_every_dose_entry_scores_the_control_dose(dose):
    # 0 is the T-Learner's control dose, and -0.0 equals it
    for _, score in dose_scorers(tiny_model()):
        want, got = score(0.0), score(dose)
        if isinstance(want, dict):
            want, got = list(want.values()), list(got.values())
        np.testing.assert_array_equal(got, want, strict=True)


@pytest.mark.parametrize("dose", [np.float64(2.0), np.float32(2.0), 2, np.array(2.0), np.full(4, 2.0)],
                         ids=["float64", "float32", "int", "0-d array", "per-row array"])
def test_every_dose_entry_scores_a_scalar_dose_of_any_type_alike(dose):
    for _, score in dose_scorers(tiny_model()):
        want, got = score(2.0), score(dose)
        if isinstance(want, dict):
            assert want.keys() == got.keys()
            want, got = list(want.values()), list(got.values())
        np.testing.assert_array_equal(got, want, strict=True)


@pytest.mark.parametrize("dose", [np.nan, np.float64(np.inf), 2.0, np.float32(np.nan), np.array(2.0)],
                         ids=["nan", "float64 inf", "float", "float32 nan", "0-d array"])
def test_dose_vector_of_no_rows_is_empty_whatever_the_scalar(dose):
    doses = dg.dose_vector(dose, 0, "q")
    assert doses.shape == (0,) and doses.dtype == np.float64


@pytest.mark.parametrize("q", [np.array([1.0, 2.0, 3.0]), np.array([2.0]), [1.0, 2.0, 3.0]],
                         ids=["per-row array", "one-element array", "list"])
def test_dose_vector_never_aliases_its_input(q):
    doses = dg.dose_vector(q, 3, "q")
    doses += 1.0
    assert not np.shares_memory(doses, q) and np.all(np.asarray(q) <= 3.0)


# every public scoring entry, on 4 rows of 5 features
SCORING_ENTRIES = {
    "slearner.base_ctr": lambda X: learners_on_five_features()[0].base_ctr(X),
    "slearner.outcome_prob": lambda X: learners_on_five_features()[0].outcome_prob(X, 2.0),
    "slearner.unit_uplift_scores": lambda X: learners_on_five_features()[0].unit_uplift_scores(X),
    "tlearner.base_ctr": lambda X: learners_on_five_features()[1].base_ctr(X),
    "tlearner.treated_prob": lambda X: learners_on_five_features()[1].treated_prob(X, 2.0),
    "tlearner.outcome_prob": lambda X: learners_on_five_features()[1].outcome_prob(X, 2.0),
    "tlearner.unit_uplift_scores": lambda X: learners_on_five_features()[1].unit_uplift_scores(X),
    "predict": lambda X: ht.predict(tiny_model(), X[0], q=2.0),
    "predict_batch": lambda X: ht.predict_batch(tiny_model(), X, q=2.0),
    "predict_batch without q": lambda X: ht.predict_batch(tiny_model(), X),
}


@pytest.mark.parametrize("entry", SCORING_ENTRIES)
def test_every_scoring_entry_checks_its_features_once_and_its_dose_at_most_once(entry,
                                                                             monkeypatch):
    calls = {"X": 0, "dose": 0}

    def counting(check, kind):
        def counted(*args):
            calls[kind] += 1
            return check(*args)
        return counted

    for module in (baselines, ht):
        monkeypatch.setattr(module, "feature_matrix", counting(dg.feature_matrix, "X"))
        monkeypatch.setattr(module, "dose_vector", counting(dg.dose_vector, "dose"))
    SCORING_ENTRIES[entry](np.ones((4, 5)))
    assert calls["X"] == 1 and calls["dose"] <= 1, calls


def test_predict_names_the_layer_of_a_nan_weight():
    # relu maps NaN to 0, so only a check before the activation sees this weight
    model = tiny_model()
    model.hte.towers[0].W.values[0, 0, 0] = np.nan
    with pytest.raises(NumericError, match=re.escape("layer 0 (towers.l0.W, base tower)")):
        ht.predict(model, np.ones(5))


@pytest.mark.parametrize("stack, layer, part", [
    ("towers", 0, "treatment tower"), ("towers", 1, "base tower"), ("towers", 2, "treatment tower"),
    ("heads", 0, "intensity head"), ("heads", 0, "uplift head"), ("heads", 1, "intensity head"),
    ("heads", 1, "uplift head")])
@pytest.mark.parametrize("tensor", ["W", "b"])
def test_predict_names_the_layer_and_the_slice_of_a_nan_tower_or_head_parameter(stack, layer,
                                                                                 part, tensor):
    model = tiny_model()
    slices = ht.TOWER_SLICES if stack == "towers" else ht.HEAD_SLICES
    getattr(getattr(model.hte, stack)[layer], tensor).values[slices.index(part)].flat[0] = np.nan
    # a NaN bias reaches the check as the NaN weight does; the error names the weight
    with pytest.raises(NumericError, match=re.escape(f"layer {layer} ({stack}.l{layer}.W, {part})")):
        ht.predict(model, np.ones(5))


@pytest.mark.parametrize("gate", [0, 1])
def test_predict_names_the_fused_tensor_and_the_gate_of_a_nan_ta_gate_weight(gate):
    # every gate's logits come from one GEMM of the bank; the error names the
    # bank's weight and the gate, whose index is its hidden layer's
    model = tiny_model()
    model.hte.ta_gates.W.values[1, model.hte.ta_cols[gate].start] = np.nan
    with pytest.raises(NumericError, match=re.escape(f"layer {gate} (ta_gates.W, gate {gate})")):
        ht.predict(model, np.ones(5))


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("q", [None, 2.0], ids=["at t_hat", "at q"])
@pytest.mark.parametrize("case", GUARD_CASES)
def test_ta_gate_bank_guard_raises_exactly_where_the_plain_sum_is_not_finite(case, q):
    # zero weights: every row's gate logits are the bank's bias; gate i's
    # first three columns hold the case's row i, its other columns 0
    model = tiny_model()
    bank = model.hte.ta_gates
    bank.W.values[:] = 0.0
    bank.b.values[:] = 0.0
    named = GUARD_CASES[case][2]
    for col, row in zip(model.hte.ta_cols, GUARD_CASES[case][:2]):
        bank.b.values[col.start:col.start + 3] = row
    X = np.ones((GUARD_ROWS, 5))
    if named is None:
        assert np.all(np.isfinite(ht.predict_batch(model, X, q=q)["pt_hat"]))
        return
    with pytest.raises(NumericError,
                       match=re.escape(f"after layer {named} (ta_gates.W, gate {named})") + "$"):
        ht.predict_batch(model, X, q=q)


@pytest.mark.parametrize("column, name", [(0, "dcr.gates.W, gate0"), (5, "dcr.gates.W, gate_t"),
                                          (None, "dcr.l0.W")], ids=["gate0", "gate_t", "expert"])
def test_predict_names_a_nan_weight_of_the_representation_layer(column, name):
    # the tiny DCR has 3 slots: gate0's columns are 0..2 of the bank, gate_t's 3..5
    model = tiny_model()
    if column is None:
        model.dcr.experts[0].W.values.reshape(-1)[0] = np.nan
    else:
        model.dcr.gates.W.values[2, column] = np.nan
    with pytest.raises(NumericError, match=re.escape(f"layer 0 ({name})")):
        ht.predict(model, np.ones(5))


def test_eta_hat_is_the_counterfactual_gain_per_unit_of_imputed_dose():
    # eta_hat is read off the node p_cf the X loss trains; scipy's logit and
    # the bridge's log difference differ in the last bits
    model = tiny_model(seed=5)
    rng = np.random.default_rng(5)
    head = model.hte.heads[-1]  # the uplift head is slice 1
    head.W.values[1] = rng.normal(0.0, 0.5, size=head.W.shape[1:])  # ReLU zeros some rows
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


def test_default_training_batch_records_at_most_7_nodes():
    # the features, the experts, the gates, the merge, the HTE node, r_orth and the loss
    assert training_batch_nodes(AblationConfig()) <= 7


def test_ablate_dcr_training_batch_records_at_most_5_nodes():
    assert training_batch_nodes(AblationConfig(dcr=True)) <= 5


def test_a_default_model_has_18_parameter_tensors():
    model = ht.build_model(ExperimentConfig(), input_dim=8, t_min=1.0, t_max=3.0)
    assert len(model.parameters()) == 18


def predict_nodes(monkeypatch, ablate, q=None):
    """The nodes one ``predict`` records, on the one tape it builds."""
    model = ht.build_model(ExperimentConfig(ablate=ablate), input_dim=8, t_min=1.0, t_max=3.0)
    tapes = []

    class CountingTape(ad.Tape):
        def __init__(self):
            super().__init__()
            tapes.append(self)

    monkeypatch.setattr(ad, "Tape", CountingTape)
    ht.predict(model, np.ones(8), q=q)
    assert len(tapes) == 1
    return len(tapes[0].nodes)


def test_predict_records_at_most_5_nodes(monkeypatch):
    assert predict_nodes(monkeypatch, AblationConfig()) <= 5


def test_ablate_dcr_predict_records_at_most_3_nodes(monkeypatch):
    # the features, the shared MLP and the HTE node
    assert predict_nodes(monkeypatch, AblationConfig(dcr=True)) <= 3


@pytest.mark.parametrize("ablate, budget", [(AblationConfig(), 5), (AblationConfig(dcr=True), 3)],
                         ids=["default", "ablate.dcr"])
def test_predict_at_a_dose_records_no_more_nodes_than_without(monkeypatch, ablate, budget):
    # the dose is data: gating at q adds no node to the tape
    assert predict_nodes(monkeypatch, ablate, q=2.0) <= budget


def library_calls(fn) -> Counter:
    """The Python-level calls that fn() makes into the files of the unimvt
    package, by function name, as ``sys.setprofile`` sees them: C functions,
    numpy's included, do not count."""
    package = os.path.dirname(ht.__file__) + os.sep
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(package):
            calls[frame.f_code.co_name] += 1

    old = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(old)
    return calls


@pytest.mark.parametrize("q, budget", [(None, 58), (2.0, 62)], ids=["at t_hat", "at q"])
def test_one_decision_keeps_its_budget_of_calls_into_the_library(q, budget):
    # one predict and one decide on a model with 3 tower layers; a per-call
    # rebuild of per-model state, such as its parameter list, shows here
    model = tiny_model()
    grid = AllocationGrid(0.5, 4.0, 0.5)

    def decision():
        return decide(ht.predict(model, np.ones(5), q=q), grid, 60.0, 1.5)

    decision()  # per-model state is built on first use
    calls = library_calls(decision)
    assert sum(calls.values()) <= budget, calls


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


@pytest.mark.parametrize("ablate_dcr", [False, True], ids=["default", "ablate.dcr"])
def test_predict_batch_at_q_equal_to_t_hat_equals_predict_batch_without_q(ablate_dcr):
    # without q the tower is gated at t_hat itself, with q at 0 * t_hat + q:
    # the same dose, so the same bits on every key
    model = tiny_model(seed=14, ablate=AblationConfig(dcr=ablate_dcr))
    rng = np.random.default_rng(14)
    for layer in (*model.hte.towers, *model.hte.heads, model.hte.ta_gates):
        layer.b.values[:] = rng.normal(0.0, 0.3, size=layer.b.shape)
    X = rng.standard_normal((BLOCKED_ROWS, 5))
    want = ht.predict_batch(model, X)
    got = ht.predict_batch(model, X, q=want["t_hat"])
    assert np.ptp(want["t_hat"]) > 0.1 and got.keys() == want.keys()
    for key, value in want.items():
        assert np.array_equal(got[key], value), key


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
    model.hte.towers[0].W.values[0, 1, 2] = bad
    path = tmp_path / "model.txt"
    for target in (path, kept):
        with pytest.raises(NumericError, match=re.escape("param.towers.l0.W")):
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


@pytest.mark.parametrize("overrides", [{}, {"net.tower_hidden": [8, 8], "dcr.hidden": 8},
                                       {"train.epochs": 1, "train.batch": 100, "train.lr": 0.002,
                                        "train.seed": 7, "loss.lambda_t": 0.3, "loss.lambda_o": 0,
                                        "ablate.dcr": True}],
                         ids=["default", "list widths", "train and loss keys"])
def test_a_saved_model_reloads_with_its_whole_config(tmp_path, small_syn, overrides):
    train_ds, test_ds = small_syn
    cfg = ExperimentConfig(train=TrainConfig(epochs=1))
    for key, value in overrides.items():
        section, name = key.split(".")
        setattr(getattr(cfg, section), name, value)
    model, _ = ht.train(train_ds, cfg)
    path = tmp_path / "model.txt"
    ht.save_model(model, path)
    loaded = ht.load_model(path)
    assert config_to_flat(loaded.cfg) == config_to_flat(model.cfg)
    X = dg.dataset_arrays(test_ds)[0][:32]
    for q in (None, 2.0, np.linspace(0.0, 4.0, 32)):
        want, got = ht.predict_batch(model, X, q=q), ht.predict_batch(loaded, X, q=q)
        assert want.keys() == got.keys()
        for key in want:
            np.testing.assert_array_equal(got[key], want[key], strict=True)
