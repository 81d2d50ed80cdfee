"""Representation layer: gating algebra, the one DCR node and its stop-gradient wiring,
orthogonality penalty."""

import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gradcheck import GUARD_CASES, GUARD_ROWS, finite_diff_check, mul, total
from unimvt import autodiff as ad
from unimvt import dcr
from unimvt.errors import ConfigError, NumericError


def zero_gates(in_dim, n_experts):
    """A gate bank of zeros: gate0's n_experts columns, then gate_t's."""
    return ad.Layer(ad.ParamTensor("dcr.gates.W", np.zeros((in_dim, 2 * n_experts))),
                    ad.ParamTensor("dcr.gates.b", np.zeros(2 * n_experts)))


def single_layer_params(Wb, Ws, Wt):
    """One linear expert per group, stacked in slot order base, shared, treated."""
    W = np.stack([Wb, Ws, Wt])
    layer = ad.Layer(ad.ParamTensor("dcr.l0.W", W),
                     ad.ParamTensor("dcr.l0.b", np.zeros((3, 1, W.shape[2]))))
    return dcr.DcrParams(input_dim=W.shape[1], experts=[layer], gates=zero_gates(W.shape[1], 3))


def one_expert_identity_params(dim=2):
    return single_layer_params(np.eye(dim), np.eye(dim), np.eye(dim))


def test_uniform_gate_with_identity_experts():
    params = one_expert_identity_params()
    x = np.array([[1.5, -0.6]])
    out = dcr.dcr_forward(params, x, ad.Tape())
    expected = np.concatenate([x, x, x], axis=1) / 3.0
    assert out.value.shape == (2, 1, 6)  # [u0, ut]
    np.testing.assert_allclose(out.value[0], expected, atol=1e-15)
    np.testing.assert_allclose(out.value[1], expected, atol=1e-15)


def seeded_params(seed=0, input_dim=4):
    rng = np.random.default_rng(seed)
    return dcr.init_dcr(rng, input_dim, dcr.DcrConfig(experts_per_group=2, hidden=8, out_dim=5),
                        False)


def slot_grads(params, group):
    """The gradient blocks of one expert group's slots, every stacked tensor."""
    e = params.experts_per_group
    return [p.grad[k] for p in ad.mlp_params(params.experts)
            for k in range(group * e, (group + 1) * e)]


def backward_of(task, seed, data_seed):
    """Backward through the sum of one task's representation, u0 or ut."""
    params = seeded_params(seed)
    rng = np.random.default_rng(data_seed)
    tape = ad.Tape()
    out = dcr.dcr_forward(params, rng.standard_normal((6, 4)), tape)
    total(tape, mul(tape, np.array(["u0", "ut"]).reshape(2, 1, 1) == task, out))
    ad.backward(tape)
    return params


@pytest.mark.parametrize("seed", range(4))
def test_gradient_blocking_u0_vs_treated(seed):
    params = backward_of("u0", seed, 100 + seed)
    assert all(np.all(g == 0.0) for g in slot_grads(params, dcr.TREATED))
    for group in (dcr.BASE, dcr.SHARED):
        assert all(np.any(g != 0.0) for g in slot_grads(params, group))


@pytest.mark.parametrize("seed", range(4))
def test_gradient_blocking_ut_vs_base_but_shared_open(seed):
    params = backward_of("ut", seed, 200 + seed)
    assert all(np.all(g == 0.0) for g in slot_grads(params, dcr.BASE))
    for group in (dcr.SHARED, dcr.TREATED):
        assert all(np.any(g != 0.0) for g in slot_grads(params, group))


def byte_equal(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def test_dcr_node_equals_the_per_task_transpose_form():
    # each task's block of the value is a merge of that task alone; the
    # experts' gradient adds the tasks' parts last task first, a closed slot
    # getting an exact 0 from its task; the features are data, so the
    # parents are the parameters alone
    params = seeded_params(5)
    rng = np.random.default_rng(5)
    k, n, d = 6, 7, 5
    x = rng.standard_normal((n, 4))
    node = dcr.dcr_forward(params, x, ad.Tape())
    ev, experts_vjp = ad.mlp(params.experts, x)
    s, gates_vjp = dcr.gates(params, x)
    g = rng.standard_normal((2, n, k * d))
    gg, parts = np.empty(s.shape), []
    for task in range(2):
        weights = s[task][:, :, None]
        assert byte_equal(node.value[task], (weights * ev).transpose(1, 0, 2).reshape(n, k * d))
        blocks = g[task].reshape(n, k, d).transpose(1, 0, 2)
        gg[task] = np.einsum("knd,knd->kn", blocks, ev)
        np.testing.assert_allclose(gg[task], (blocks * ev).sum(axis=2), rtol=1e-13, atol=1e-13)
        parts.append(blocks * (weights * params.slot_open[task][:, None, None]))
        np.testing.assert_array_equal(parts[-1][~params.slot_open[task]], 0.0)
    want = [*experts_vjp(parts[1] + parts[0]), *gates_vjp(gg)]
    got = node.vjp(g)
    assert node.parents == tuple(params.parameters()) and len(got) == len(want)
    assert all(byte_equal(a, b) for a, b in zip(got, want))


def test_gate_weights_sum_to_one():
    params = seeded_params(3)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((5, 4))
    g, _ = dcr.gates(params, x)
    assert g.shape == (2, 6, 5)
    assert np.all(g > 0)
    np.testing.assert_allclose(g.sum(axis=1), 1.0, atol=1e-12)
    bank = params.gates
    for row in range(2):  # row-wise softmax of each gate, on its block of the bank's columns
        cols = slice(6 * row, 6 * (row + 1))
        logits = x @ bank.W.values[:, cols] + bank.b.values[cols]
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        np.testing.assert_allclose(g[row].T, e / e.sum(axis=1, keepdims=True),
                                   rtol=1e-13, atol=0)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("case", GUARD_CASES)
def test_gate_bank_guard_raises_exactly_where_the_plain_sum_is_not_finite(case):
    # zero weights: every row's logits are the bank's bias, gate0's then gate_t's
    gate0, gate_t, named = GUARD_CASES[case]
    params = dcr.DcrParams(input_dim=1, gates=zero_gates(1, 3))
    params.gates.b.values[:] = gate0 + gate_t
    x = np.zeros((GUARD_ROWS, 1))
    if named is None:
        g, _ = dcr.gates(params, x)
        np.testing.assert_allclose(g.sum(axis=1), 1.0, rtol=0, atol=1e-15)
        return
    gate = ("gate0", "gate_t")[named]
    with pytest.raises(NumericError,
                       match=re.escape(f"after layer 0 (dcr.gates.W, {gate})") + "$"):
        dcr.gates(params, x)


@given(st.lists(st.floats(-30, 30), min_size=2, max_size=8))
def test_gates_positive_and_normalized(logits):
    k = len(logits)
    params = dcr.DcrParams(input_dim=1, gates=zero_gates(1, k))
    params.gates.W.values[0, k:] = logits  # gate_t's columns
    g, _ = dcr.gates(params, np.ones((1, 1)))
    assert np.all(g > 0)
    assert abs(g[0].sum() - 1.0) < 1e-12 and abs(g[1].sum() - 1.0) < 1e-12


def test_gate_bank_against_finite_differences():
    # the fused bank's W and b, each gate's columns with a bias of its own,
    # through a node of the gates kernel on the array x
    params = seeded_params(4)
    rng = np.random.default_rng(4)
    x, mask = rng.standard_normal((5, 4)), rng.uniform(0.5, 1.5, size=(2, 6, 5))
    params.gates.b.values[:] = rng.normal(0.0, 0.5, size=12)

    def loss_fn(tape):
        s, vjp = dcr.gates(params, x)
        gates = tape.record(s, (params.gates.W, params.gates.b), vjp)
        return total(tape, mul(tape, mask, gates))

    assert params.parameters()[-2:] == [params.gates.W, params.gates.b]
    assert params.gates.W.shape == (4, 12) and params.gates.b.shape == (12,)
    assert finite_diff_check(loss_fn, [params.gates.W, params.gates.b], eps=1e-6) < 1e-6


def test_both_representations_against_finite_differences():
    # the closed slots read the experts through Tape.detach, which the checker
    # pins, so the check validates the blocked gradient the tape defines
    params = seeded_params(5)
    rng = np.random.default_rng(5)
    x = rng.standard_normal((4, 4))
    mask = rng.uniform(0.5, 1.5, size=(2, 4, 30))  # u0's weights, then ut's

    def loss_fn(tape):
        return total(tape, mul(tape, mask, dcr.dcr_forward(params, x, tape)))

    assert finite_diff_check(loss_fn, params.parameters(), eps=1e-6) < 1e-6


def test_dimension_mismatch_is_config_error():
    params = seeded_params(0, input_dim=4)
    with pytest.raises(ConfigError):
        dcr.dcr_forward(params, np.ones((2, 3)), ad.Tape())


# ---------------------------------------------------------------------------
# orthogonality penalty
# ---------------------------------------------------------------------------

def test_orth_penalty_zero_for_orthogonal_columns():
    params = single_layer_params(
        np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]]), np.array([[0.0], [0.0]])
    )
    tape = ad.Tape()
    assert float(dcr.orth_penalty(params, tape).value) == 0.0


def test_orth_penalty_identity_matrices():
    eye = np.eye(2)
    params = single_layer_params(eye, eye.copy(), eye.copy())
    tape = ad.Tape()
    assert float(dcr.orth_penalty(params, tape).value) == pytest.approx(6.0, abs=1e-14)


def test_orth_penalty_matches_naive_triple_loop():
    rng = np.random.default_rng(12)
    mats = [rng.standard_normal((4, 3)) for _ in range(3)]
    params = single_layer_params(*mats)
    tape = ad.Tape()
    got = float(dcr.orth_penalty(params, tape).value)

    want = 0.0
    for i in range(3):
        for j in range(i + 1, 3):
            cross = np.zeros((3, 3))
            for r in range(3):
                for c in range(3):
                    for k in range(4):
                        cross[r, c] += mats[i][k, r] * mats[j][k, c]
            want += (cross**2).sum()
    assert got == pytest.approx(want, abs=1e-12)


def per_expert_pair_penalty(weights, experts_per_group):
    """The penalty and its gradient, one cross-group expert pair at a time:
    ||W_p^T W_q||_F^2 has gradient 2 W_q W_q^T W_p for W_p."""
    value, grads = 0.0, []
    for W in weights:
        group = np.arange(W.shape[0]) // experts_per_group
        grad = np.zeros_like(W)
        for p in range(W.shape[0]):
            for q in range(W.shape[0]):
                if group[p] < group[q]:
                    value += ((W[p].T @ W[q]) ** 2).sum()
                if group[p] != group[q]:
                    grad[p] += 2.0 * W[q] @ W[q].T @ W[p]
        grads.append(grad)
    return value, grads


@pytest.mark.parametrize("seed", range(3))
def test_orth_penalty_value_and_gradient_match_a_per_expert_pair_reference(seed):
    params = seeded_params(seed)
    tape = ad.Tape()
    penalty = dcr.orth_penalty(params, tape)
    ad.backward(tape)
    want, want_grads = per_expert_pair_penalty([layer.W.values for layer in params.experts],
                                               params.experts_per_group)
    assert float(penalty.value) == pytest.approx(want, rel=1e-12)
    for layer, grad in zip(params.experts, want_grads):
        np.testing.assert_allclose(layer.W.grad, grad, rtol=0, atol=1e-12 * np.abs(grad).max())


def test_orth_penalty_nonnegative_and_differentiable():
    params = seeded_params(7)

    def loss_fn(tape):
        return dcr.orth_penalty(params, tape)

    assert float(loss_fn(ad.Tape()).value) >= 0.0
    weights = [layer.W for layer in params.experts]
    assert finite_diff_check(loss_fn, weights, eps=1e-6) < 1e-6


# ---------------------------------------------------------------------------
# ablation path
# ---------------------------------------------------------------------------

def test_disabled_dcr_collapses_to_shared_mlp():
    rng = np.random.default_rng(5)
    cfg = dcr.DcrConfig(experts_per_group=2, hidden=8, out_dim=5)
    params = dcr.init_dcr(rng, 4, cfg, True)
    x = rng.standard_normal((3, 4))
    tape = ad.Tape()
    out = dcr.dcr_forward(params, x, tape)  # one representation for both tasks
    expected = ad.mlp_forward(params.shared_mlp, x, ad.Tape())
    np.testing.assert_array_equal(out.value, expected.value)
    assert out.value.shape == (3, params.output_dim) and params.output_dim == 2 * 3 * 5
    assert out.parents == tuple(params.parameters())
    # no expert groups, so no penalty: nothing is recorded
    assert dcr.orth_penalty(params, tape) is None and tape.nodes == [out]
