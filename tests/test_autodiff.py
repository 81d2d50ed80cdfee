"""Tests for the reverse-mode tape: forward identities, gradient oracles,
stop-gradient semantics, optimizer behaviour and the finite-difference checker."""

import inspect
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import expit, logit

import gradcheck
from gradcheck import (GUARD_CASES, GUARD_ROWS, add, affine, binary_cross_entropy, bridge,
                       finite_diff_check, mul, relu, sigmoid, total)
from unimvt import autodiff as ad
from unimvt.baselines import _mlp_predict
from unimvt.config import TrainConfig
from unimvt.errors import ConfigError, NumericError, UsageError


def make_layer(name, W, b):
    return ad.Layer(ad.ParamTensor(f"{name}.W", W), ad.ParamTensor(f"{name}.b", b))


# ---------------------------------------------------------------------------
# mlp_forward
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [0, 1, ad.SCORE_ROWS, ad.SCORE_ROWS + 1, 3 * ad.SCORE_ROWS + 5])
def test_row_blocks_cover_every_row_once_in_order(n):
    blocks = ad.row_blocks(n)
    rows = np.arange(n)
    np.testing.assert_array_equal(np.concatenate([rows[b] for b in blocks]), rows)
    assert len(blocks) == max(1, -(-n // ad.SCORE_ROWS))  # one block, empty ones included
    assert all(rows[b].size <= ad.SCORE_ROWS for b in blocks)


def test_mlp_identity_layer():
    layer = make_layer("l0", np.eye(2), np.zeros(2))
    out = ad.mlp_forward([layer], np.array([[3.0, -1.0]]), ad.Tape())
    np.testing.assert_array_equal(out.value, [[3.0, -1.0]])


def test_mlp_sigmoid_at_zero():
    layer = make_layer("l0", np.array([[1.0], [1.0]]), np.zeros(1))
    assert _mlp_predict([layer], np.array([[0.0, 0.0]]))[0] == 0.5


def test_mlp_matches_straight_line_matrix_eval():
    rng = np.random.default_rng(7)
    W1, b1 = rng.standard_normal((4, 5)), rng.standard_normal(5)
    W2, b2 = rng.standard_normal((5, 3)), rng.standard_normal(3)
    layers = [make_layer("l0", W1, b1), make_layer("l1", W2, b2)]
    x = rng.standard_normal((6, 4))

    out = ad.mlp_forward(layers, x, ad.Tape())

    # oracle: plain matrix arithmetic, no tape involved
    h = np.maximum(x @ W1 + b1, 0.0)
    expected = h @ W2 + b2
    np.testing.assert_allclose(out.value, expected, rtol=0, atol=1e-12)


def test_mlp_dimension_mismatch():
    layer = make_layer("l0", np.eye(3), np.zeros(3))
    with pytest.raises(ConfigError):
        ad.mlp_forward([layer], np.ones((1, 2)), ad.Tape())


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_mlp_nonfinite_activation_names_layer():
    layer = make_layer("l0", np.array([[1e308], [1e308]]), np.array([1e308]))
    with pytest.raises(NumericError, match="layer 0"):
        ad.mlp_forward([layer], np.array([[1e9, 1e9]]), ad.Tape())


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("case", GUARD_CASES)
@pytest.mark.parametrize("stacked", [False, True], ids=["plain", "stacked"])
def test_layer_guard_raises_exactly_where_the_plain_sum_is_not_finite(stacked, case):
    # zero weights on zero inputs: the output is the bias, row for row
    first, second, named = GUARD_CASES[case]
    x = np.zeros((GUARD_ROWS, 4))
    if stacked:
        layer = make_layer("l0", np.zeros((2, 4, 3)), np.array([[first], [second]]))
        parts = ("a", "b")
        want = np.repeat(layer.b.values, GUARD_ROWS, axis=1)
    else:  # the two slices' entries side by side in one row
        layer = make_layer("l0", np.zeros((4, 6)), np.array(first + second))
        parts = ()
        want = np.repeat(layer.b.values[None], GUARD_ROWS, axis=0)
    if named is None:
        np.testing.assert_array_equal(ad.checked_affine(layer, x, 3, parts), want)
        return
    where = f"l0.W, {parts[named]}" if parts else "l0.W"
    with pytest.raises(NumericError, match=re.escape(f"after layer 3 ({where})") + "$"):
        ad.checked_affine(layer, x, 3, parts)


def fused_mlp_case(stacked, depth, seed=0):
    """depth layers from a (5, 4) input to 2 outputs: plain weights, or a
    stack of 3 same-shaped MLPs, the first layer reading the unstacked input."""
    rng = np.random.default_rng(seed)
    lead = (3,) if stacked else ()
    dims = (4, *(6, 5)[:depth - 1], 2)
    return [make_layer(f"l{i}", rng.standard_normal((*lead, fan_in, fan_out)),
                       rng.standard_normal((*lead, 1, fan_out) if stacked else fan_out))
            for i, (fan_in, fan_out) in enumerate(zip(dims, dims[1:]))]


def chain_of_primitives(layers, xv, tape):
    """The layer stack on the array xv, a constant, as one reference node per
    affine and per relu, a relu between layers only."""
    x = tape.constant(xv)
    for i, layer in enumerate(layers):
        x = affine(tape, x if i == 0 else relu(tape, x), layer.W, layer.b)
    return x


@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("stacked", [False, True], ids=["plain", "stacked"])
def test_mlp_is_one_node_equal_to_the_chain_of_primitives(stacked, depth):
    layers = fused_mlp_case(stacked, depth)
    x = np.random.default_rng(1).standard_normal((5, 4))
    params = ad.mlp_params(layers)
    results = []
    for record in (ad.mlp_forward, chain_of_primitives):
        tape = ad.Tape()
        out = record(layers, x, tape)
        recorded = len(tape.nodes)
        total(tape, mul(tape, out, np.linspace(-1.0, 2.0, out.value.size).reshape(out.shape)))
        ad.backward(tape)
        results.append((out.value, [p.grad.copy() for p in params], recorded))
        for p in params:
            p.grad.fill(0.0)
    (fused, fused_grads, fused_nodes), (chain, chain_grads, _) = results
    assert fused_nodes == 1
    assert np.array_equal(fused, chain)
    for got, want in zip(fused_grads, chain_grads):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("stacked", [False, True], ids=["plain", "stacked"])
def test_mlp_gradients_against_finite_differences(stacked, depth):
    layers = fused_mlp_case(stacked, depth, seed=2)
    x = np.random.default_rng(3).standard_normal((5, 4))
    weights = np.random.default_rng(4).uniform(0.5, 1.5, size=(3, 5, 2) if stacked else (5, 2))
    nodes = []

    def loss_fn(tape):
        nodes.append(ad.mlp_forward(layers, x, tape))
        return total(tape, mul(tape, nodes[-1], weights))

    params = ad.mlp_params(layers)
    assert finite_diff_check(loss_fn, params, eps=1e-6) < 1e-6
    # one gradient per parent, every layer's W and b: the input is data
    assert nodes[0].parents == tuple(params)
    assert len(nodes[0].vjp(np.ones_like(nodes[0].value))) == len(params)


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

def test_backward_square():
    w = ad.ParamTensor("w", np.array([[3.0]]))
    tape = ad.Tape()
    loss = total(tape, mul(tape, w, w))
    ad.backward(tape)
    assert w.grad[0, 0] == 6.0


def test_backward_stop_gradient_kills_one_path():
    w = ad.ParamTensor("w", np.array([[3.0]]))
    tape = ad.Tape()
    loss = total(tape, mul(tape, tape.constant(w.value), w))
    ad.backward(tape)
    assert w.grad[0, 0] == 3.0  # not 6


def test_backward_before_forward_is_usage_error():
    with pytest.raises(UsageError):
        ad.backward(ad.Tape())


def test_backward_requires_scalar_tail():
    w = ad.ParamTensor("w", np.ones((2, 2)))
    tape = ad.Tape()
    mul(tape, w, w)
    with pytest.raises(UsageError):
        ad.backward(tape)


def test_operand_from_another_tape_is_usage_error():
    w = ad.ParamTensor("w", np.ones((1, 1)))
    tape, other = ad.Tape(), ad.Tape()
    foreign = mul(other, w, w)
    with pytest.raises(UsageError):
        add(tape, w, foreign)
    with pytest.raises(UsageError):
        total(tape, foreign)


def test_a_parameter_is_a_leaf_of_every_tape():
    w = ad.ParamTensor("w", np.array([[3.0]]))
    for tape in (ad.Tape(), ad.Tape()):
        total(tape, mul(tape, w, w))
        assert len(tape.nodes) == 2
        ad.backward(tape)
    assert w.grad[0, 0] == 12.0  # 2 * 2w, added into the one grad by both tapes


def test_backward_two_layer_net_matches_finite_differences():
    rng = np.random.default_rng(11)
    layers = [
        make_layer("l0", ad.glorot_uniform(rng, 3, 4), np.zeros(4)),
        make_layer("l1", ad.glorot_uniform(rng, 4, 1), np.zeros(1)),
    ]
    x = rng.standard_normal((8, 3))
    y = rng.integers(0, 2, size=(8, 1)).astype(float)
    params = ad.mlp_params(layers)

    def loss_fn(tape):
        p = sigmoid(tape, ad.mlp_forward(layers, x, tape))
        return total(tape, binary_cross_entropy(tape, y, p))

    assert finite_diff_check(loss_fn, params, eps=1e-5) < 1e-4


# ---------------------------------------------------------------------------
# stop-gradient: a constant read off a value passes that value no gradient
# ---------------------------------------------------------------------------

def test_stop_gradient_forward_identity():
    tape = ad.Tape()
    x = tape.constant(np.array([[1.5, -2.0]]))
    out = tape.constant(x.value)
    np.testing.assert_array_equal(out.value, [[1.5, -2.0]])


def test_stop_gradient_zero_grad():
    x = ad.ParamTensor("x", np.array([[1.0, 2.0, 3.0]]))
    tape = ad.Tape()
    loss = total(tape, tape.constant(x.value))
    ad.backward(tape)
    np.testing.assert_array_equal(x.grad, np.zeros((1, 3)))


def test_stop_gradient_additive_path_stays_open():
    x = ad.ParamTensor("x", np.array([[1.0, 2.0, 3.0]]))
    tape = ad.Tape()
    total(tape, add(tape, x, tape.constant(x.value)))
    ad.backward(tape)
    np.testing.assert_array_equal(x.grad, np.ones((1, 3)))


# ---------------------------------------------------------------------------
# elementwise primitives
# ---------------------------------------------------------------------------


def identity_layer(name):
    """A (1, 1) layer whose affine part, x @ [[1]] + [0], passes every finite
    entry through."""
    return make_layer(name, np.ones((1, 1)), np.zeros(1))


def relu_net(column):
    """mlp_forward on a fresh tape over an (n, 1) column through two identity
    layers, so through the relu between them."""
    return ad.mlp_forward([identity_layer("l0"), identity_layer("l1")], column, ad.Tape())


def relu_gradient(a, g):
    """The gradient that the relu of ``mlp`` passes back for the output
    gradient g at the entries a: read off the first layer's bias gradient of
    a net on a as one row, through two (n, n) identity layers, so that each
    entry is its own unit and the row sum is the entry itself."""
    eye = make_layer("l0", np.eye(a.size), np.zeros(a.size))
    _, vjp = ad.mlp([eye, eye], a.reshape(1, -1))
    return vjp(g.reshape(1, -1))[1].reshape(a.shape)


def sigmoid_net(column):
    """The S-/T-Learners' probability, ``baselines._mlp_predict``, of a
    one-layer identity net on an (n, 1) column, as a column."""
    return _mlp_predict([identity_layer("l0")], column).reshape(-1, 1)


@given(st.floats(-30, 30))
def test_sigmoid_strictly_inside_unit_interval(z):
    s = sigmoid_net(np.array([[z]]))
    assert 0.0 < s[0, 0] < 1.0


# ---------------------------------------------------------------------------
# the hot kernels against the select and copy forms they replaced
# ---------------------------------------------------------------------------

EDGES = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e-300, -1e-300, 0.3, -0.3,
                  1e308, -1e308, np.inf, -np.inf, np.nan])
# |x| > 708 underflows exp(-|x|); the sigmoid must stay silent at every one
SIGMOID_EDGES = np.concatenate([EDGES, [36.0, -36.0, 709.5, -709.5, 711.0, -711.0,
                                        745.2, -745.2, 800.0, -800.0]])
# what a relu or a learner's expit can see: mlp_forward raises on a non-finite affine output
FINITE_EDGES = EDGES[np.isfinite(EDGES)]
FINITE_SIGMOID_EDGES = SIGMOID_EDGES[np.isfinite(SIGMOID_EDGES)]


def select_relu(a):
    return np.where(a > 0, a, 0.0)


def select_sigmoid(x):
    ex = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + ex), ex / (1.0 + ex))


def same_bits(got, want):
    """Same dtype, shape, values, NaNs and signs of zero (longdouble pads its
    storage with unset bytes, so raw bytes cannot be compared)."""
    return (got.dtype == want.dtype and got.shape == want.shape
            and np.array_equal(got, want, equal_nan=True)
            and np.array_equal(np.signbit(got), np.signbit(want)))


def assert_within_2_ulp_where_normal(got, want):
    """got is within 2 ulp of want wherever want is a normal float: below
    x = -709.78 expit gives 0 where the select form still gives a subnormal."""
    normal = np.abs(want) >= np.finfo(want.dtype).tiny  # False at NaN
    assert normal.any()
    err = np.abs(got[normal] - want[normal])
    assert (err <= 2 * np.spacing(np.abs(want[normal]))).all()


def test_mlp_relu_equals_the_select_form():
    a = np.concatenate([FINITE_EDGES, np.random.default_rng(0).standard_normal(54)]).reshape(-1, 1)
    # |g| < 1 keeps the weight gradients a g^T finite at a = +-1e308
    g = np.random.default_rng(1).uniform(-1.0, 1.0, a.shape)
    node = relu_net(a)
    assert same_bits(node.value, select_relu(a)) and not np.signbit(node.value).any()
    assert np.array_equal(relu_gradient(a, g), g * (a > 0))


def test_sigmoid_equals_the_select_form_without_overflow():
    """The learners' sigmoid of a logit is scipy's expit bit for bit, silent
    at every edge, and agrees with the select form to 2 ulp wherever that
    form is normal."""
    x = FINITE_SIGMOID_EDGES.reshape(-1, 1)
    with np.errstate(all="raise"):
        got = sigmoid_net(x)
    assert same_bits(got, expit(x))
    assert got[x == 800.0] == 1.0 and got[x == -800.0] == 0.0
    dense = np.concatenate([x.reshape(-1), np.linspace(-720.0, 720.0, 14401),
                            np.random.default_rng(7).standard_normal(1000) * 10.0])
    with np.errstate(all="raise", under="ignore"):
        want = select_sigmoid(dense)
    assert_within_2_ulp_where_normal(sigmoid_net(dense.reshape(-1, 1)), want.reshape(-1, 1))


def test_bridge_equals_the_select_form():
    """The bridge is expit of the clamped logit plus the shift, bit for bit,
    and agrees with the select form to 2 ulp wherever that form is normal."""
    rng = np.random.default_rng(2)
    p = np.concatenate([[0.0, 1e-9, ad.PROB_EPS, 0.5, 1.0 - ad.PROB_EPS, 1.0], rng.uniform(0, 1, 30)])
    shift = np.concatenate([[0.0, -0.0, 800.0, -800.0, 1e308, -1e308], rng.standard_normal(30) * 20.0])
    pc = np.clip(p, ad.PROB_EPS, 1.0 - ad.PROB_EPS)
    with np.errstate(all="raise"):
        got, _ = ad.bridge(p, shift, 1.0)
        z = np.log(pc) - np.log1p(-pc) + shift
    assert same_bits(got, expit(z))
    with np.errstate(all="raise", under="ignore"):
        assert_within_2_ulp_where_normal(got, select_sigmoid(z))


@pytest.mark.parametrize("shapes", [[(5, 4), (4, 3), (3,)], [(5, 4), (2, 4, 3), (2, 1, 3)]],
                         ids=["plain", "stacked"])
def test_affine_adds_the_bias_as_before(shapes):
    rng = np.random.default_rng(3)
    x, w, b = (rng.standard_normal(s) for s in shapes)
    assert same_bits(ad.affine_value(x, w, b), x @ w + b)


@pytest.mark.parametrize("shape", [(256, 32), (6, 256, 16), (1, 8), (3, 1, 4)])
def test_affine_bias_gradient_is_the_row_sum(shape):
    rng = np.random.default_rng(9)
    g = rng.standard_normal(shape)
    _, _, gb = ad.affine_grads(g, np.ones(shape[:-1] + (2,)), np.ones(shape[:-2] + (2, shape[-1])))
    want = g.sum(axis=-2, keepdims=g.ndim > 2)  # (K, 1, out) for a stack, (out,) otherwise
    assert gb.shape == want.shape
    np.testing.assert_allclose(gb, want, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("shapes", [[(5, 4), (4, 3)], [(2, 5, 4), (2, 4, 3)], [(5, 4), (2, 4, 3)]],
                         ids=["plain", "stacked", "stacked on a shared x"])
def test_affine_grads_gives_x_its_gradient_only_on_request(shapes):
    # the weight gradients are the same bits either way; x's, when asked for,
    # is g W^T, which a stack on a shared x gives per slice
    rng = np.random.default_rng(10)
    x, w = (rng.standard_normal(s) for s in shapes)
    g = rng.standard_normal((x @ w).shape)
    gx, gw, gb = ad.affine_grads(g, x, w)
    none, gw_only, gb_only = ad.affine_grads(g, x, w, lx=False)
    assert none is None and gw.shape == w.shape
    assert gw.tobytes() == gw_only.tobytes() and gb.tobytes() == gb_only.tobytes()
    np.testing.assert_allclose(gx, g @ w.swapaxes(-1, -2), rtol=1e-13, atol=1e-13)


def test_kernels_keep_extended_precision():
    """finite_diff_check re-evaluates in longdouble; no kernel may drop it."""
    rng = np.random.default_rng(6)
    x = rng.standard_normal((3, 4))
    w, b = rng.standard_normal((4, 2)), rng.standard_normal(2)
    ld = np.longdouble
    for wv, bv in [(w.astype(ld), b.astype(ld)), (w, b.astype(ld))]:
        # an in-place add would round b to float64
        assert same_bits(ad.affine_value(x, wv, bv), x @ wv + bv)
    xl = x.reshape(-1, 1).astype(ld)
    assert relu_net(xl).value.dtype == ld
    got = sigmoid_net(xl)
    assert same_bits(got, expit(xl))  # longdouble in, longdouble out
    assert_within_2_ulp_where_normal(got, select_sigmoid(xl))  # in longdouble's ulp


_rng = np.random.default_rng(4)
FD_MASK = _rng.uniform(0.5, 1.5, size=(3, 4))
FD_LABELS = _rng.integers(0, 2, size=(3, 4)).astype(float)
# 0.4 w lies in [0.04, 0.8]; the offsets move some entries past 1 or below 0,
# where the bridge's clamp binds
FD_OFFSETS = np.zeros((3, 4))
FD_OFFSETS[0, :2], FD_OFFSETS[1, 2:] = 1.0, -1.0


def square(tape, a):
    return mul(tape, a, a)


def bridge_term(tape, wn, sign):
    """The bridge at ``sign`` with all three operands read off wn: p = 0.4 w +
    FD_OFFSETS, t_hat = 1 + 0.3 w and eta = 0.2 w - 12 sign FD_OFFSETS. Where
    the clamp binds, the shift, about -12 (1 + 0.3 w) FD_OFFSETS, brings the
    output back inside (0.02, 0.98), where central differences resolve it."""
    return bridge(tape, add(tape, mul(tape, wn, 0.4), FD_OFFSETS),
                  add(tape, mul(tape, wn, 0.3), 1.0),
                  add(tape, mul(tape, wn, 0.2), -12.0 * sign * FD_OFFSETS), sign)


def detached_square(tape, wn):
    """wn * wn with its left factor read through ``Tape.detach``: the tape's
    gradient is that factor, which only a checker that replays detached
    values at their unperturbed value reads as the derivative."""
    frozen = tape.detach(wn.value)
    return tape.record(frozen * wn.value, (wn,), lambda g: (g * frozen,))


# one finite-difference term per Tape method but record and constant and per
# gradcheck reference, keyed by its name; each records it on wn (3, 4) or on
# stacked = affine(wn, ws, bs) (2, 3, 3)
PRIMITIVE_TERMS = {
    "add": lambda tape, wn, stacked: add(tape, square(tape, wn), mul(tape, wn, 0.5)),
    "mul": lambda tape, wn, stacked: mul(tape, sigmoid(tape, wn), wn),
    "affine": lambda tape, wn, stacked: square(tape, stacked),
    "relu": lambda tape, wn, stacked: square(tape, relu(tape, stacked)),
    "sigmoid": lambda tape, wn, stacked: mul(tape, FD_MASK, sigmoid(tape, wn)),
    "bridge": lambda tape, wn, stacked: add(tape, square(tape, bridge_term(tape, wn, 1.0)),
                                            bridge_term(tape, wn, -1.0)),
    "detach": lambda tape, wn, stacked: detached_square(tape, wn),
    "total": lambda tape, wn, stacked: total(tape, square(tape, wn)),
    "binary_cross_entropy": lambda tape, wn, stacked: binary_cross_entropy(
        tape, FD_LABELS, sigmoid(tape, add(tape, wn, -1.0))),
}


def test_primitive_gradients_against_finite_differences():
    rng = np.random.default_rng(3)
    w = ad.ParamTensor("w", rng.uniform(0.1, 2.0, size=(3, 4)))
    ws = ad.ParamTensor("ws", rng.standard_normal((2, 4, 3)))
    bs = ad.ParamTensor("bs", rng.standard_normal((2, 1, 3)))

    def check(term):
        def loss_fn(tape):
            return total(tape, term(tape, w, affine(tape, w, ws, bs)))

        return finite_diff_check(loss_fn, [w, ws, bs], eps=1e-6)

    errors = {name: check(term) for name, term in PRIMITIVE_TERMS.items()}
    assert max(errors.values()) < 1e-6, errors


def test_every_primitive_has_a_finite_difference_term():
    methods = {name for name, attr in vars(ad.Tape).items()
               if callable(attr) and not name.startswith("_")}
    references = {name for name, attr in vars(gradcheck).items()
                  if inspect.isfunction(attr) and attr.__module__ == gradcheck.__name__
                  and not name.startswith("_")} - {"finite_diff_check", "hte_reference"}
    assert methods == {"record", "constant", "detach"}
    assert set(PRIMITIVE_TERMS) == (methods - {"record", "constant"}) | references


# every primitive with more than one operand: (record, operand shapes)
MULTI_OPERAND = {
    "add": (add, [(3, 4), (1, 4)]),
    "mul": (mul, [(3, 4), (3, 1)]),
    "affine": (affine, [(3, 4), (4, 2), (2,)]),
    "stacked affine": (affine, [(3, 4), (2, 4, 5), (2, 1, 5)]),
    "bridge": (lambda tape, p, t_hat, eta: bridge(tape, p, t_hat, eta, -1.0),
               [(3, 1), (3, 1), (3, 1)]),
}


def operand_gradients(name, constant):
    """Record the primitive on ParamTensor operands, operand ``constant``
    (an index or None) as a tape.constant instead; run backward through a
    weighted sum. Returns (output node, the gradients of every operand)."""
    record, shapes = MULTI_OPERAND[name]
    rng = np.random.default_rng(len(name))
    params = [ad.ParamTensor(f"x{i}", rng.uniform(0.1, 0.9, size=s)) for i, s in enumerate(shapes)]
    tape = ad.Tape()
    out = record(tape, *(tape.constant(p.values) if i == constant else p
                         for i, p in enumerate(params)))
    total(tape, mul(tape, out, rng.standard_normal(out.value.shape)))
    ad.backward(tape)
    return out, [p.grad for p in params]


@pytest.mark.parametrize("name, k", [(name, k) for name, (_, shapes) in MULTI_OPERAND.items()
                                     for k in range(len(shapes))])
def test_a_constant_operand_stops_its_gradient(name, k):
    # the vjp gives every operand, the constant too, a gradient of its shape;
    # the constant, which has no vjp, passes it nowhere
    out, got = operand_gradients(name, constant=k)
    parts = out.vjp(np.ones_like(out.value))
    assert [np.shape(part) for part in parts] == [np.shape(x.value) for x in out.parents]
    assert out.parents[k].vjp is None
    _, want = operand_gradients(name, constant=None)
    for i, (g, w) in enumerate(zip(got, want)):
        if i == k:
            assert not np.any(g)
        else:
            np.testing.assert_array_equal(g, w)


def test_a_constant_stops_whatever_reaches_it():
    # a node on constants keeps its vjp and passes its gradient back to them,
    # and they, without a vjp, pass it nowhere: w's gradient is its own path's
    w = ad.ParamTensor("w", np.full((2, 2), 3.0))
    tape = ad.Tape()
    ones = tape.constant(np.ones((2, 2)))
    on_constants = mul(tape, ones, 2.0)
    frozen = tape.constant(w.value)
    mixed = add(tape, mul(tape, frozen, on_constants), w)  # 2 w0 + w, w0 held at 3
    total(tape, mul(tape, mixed, w))
    assert on_constants.vjp is not None and ones.vjp is None and frozen.vjp is None
    ad.backward(tape)
    np.testing.assert_array_equal(w.grad, np.full((2, 2), 12.0))  # 2 w0 + 2 w
    np.testing.assert_array_equal(ones.value, np.ones((2, 2)))


@pytest.mark.parametrize("stacked", [False, True], ids=["plain", "stacked"])
def test_mlp_kernel_is_the_node_mlp_forward_records(stacked):
    # the same value and vjp, bit for bit: every layer's W and b gradients,
    # none for the input, which is data
    rng = np.random.default_rng(9)
    k = (2,) if stacked else ()
    layers = [make_layer(f"l{i}", rng.standard_normal((*k, fan_in, fan_out)),
                         rng.standard_normal((*k, 1, fan_out) if stacked else (fan_out,)))
              for i, (fan_in, fan_out) in enumerate([(4, 3), (3, 2)])]
    x = rng.standard_normal((5, 4))
    g = rng.standard_normal((*k, 5, 2))
    node = ad.mlp_forward(layers, x, ad.Tape())
    assert node.parents == tuple(ad.mlp_params(layers))
    value, vjp = ad.mlp(layers, x)
    assert value.tobytes() == node.value.tobytes() and value.shape == node.value.shape
    got, want = vjp(g), node.vjp(g)
    assert len(got) == len(want) == 4
    for a, b, p in zip(got, want, node.parents):
        assert a.shape == b.shape == p.shape and a.tobytes() == b.tobytes()


def test_cross_entropy_passes_no_gradient_where_the_clamp_binds():
    p = np.array([[0.0, 1e-9, 0.3, 1.0 - 1e-9, 1.0]])
    value, vjp = ad.cross_entropy(np.ones((1, 5)), p)
    assert np.all(np.isfinite(value))
    g = vjp(np.ones((1, 5)))
    np.testing.assert_array_equal(g[0, [0, 1, 3, 4]], 0.0)
    assert g[0, 2] == pytest.approx(-1.0 / 0.3, rel=1e-12)  # (p - y) / (p (1 - p)) at y = 1


def test_cross_entropy_vjp_broadcasts_a_scalar_gradient_bit_for_bit():
    # the S-/T-Learners' loss passes its scalar g as it is: the same bits as
    # g spread over every element, clamped entries included
    rng = np.random.default_rng(12)
    p = np.concatenate([[[0.0], [1e-9], [1.0]], rng.uniform(0.0, 1.0, (20, 1))])
    y = rng.integers(0, 2, size=p.shape).astype(float)
    value, vjp = ad.cross_entropy(y, p)
    g = 0.37
    assert vjp(g).tobytes() == vjp(np.full(value.shape, g)).tobytes()


def bridge_value(p, shift):
    return float(ad.bridge(np.float64(p), np.float64(shift), 1.0)[0])


def test_bridge_known_values():
    assert bridge_value(0.5, 0.0) == pytest.approx(0.5, abs=1e-15)
    assert bridge_value(0.5, np.log(3.0)) == pytest.approx(0.75, abs=1e-12)
    assert bridge_value(0.2, 2.0 * 0.3) == pytest.approx(expit(logit(0.2) + 0.6), abs=1e-15)
    assert bridge_value(0.0, 0.0) == pytest.approx(ad.PROB_EPS, rel=1e-9)  # the clamp


@given(st.floats(0.05, 0.95), st.floats(0.0, 2.0))
def test_bridge_matches_scalar_oracle(p, delta):
    want = 1.0 / (1.0 + np.exp(-(np.log(p / (1 - p)) + delta)))
    assert bridge_value(p, delta) == pytest.approx(want, abs=1e-12)


def test_a_bridge_at_sign_minus_one_is_the_bridge_of_the_negated_eta():
    rng = np.random.default_rng(8)
    p, t_hat, eta = (rng.uniform(0.1, 0.9, size=(4, 1)) for _ in range(3))
    g = rng.standard_normal((4, 1))
    parts = []
    for e, sign in ((eta, -1.0), (-eta, 1.0)):
        value, vjp = ad.bridge(p, t_hat, e, sign)
        parts.append((value, *vjp(g)))
    (value, gp, gt, ge), (value_neg, gp_neg, gt_neg, ge_neg) = parts
    for got, want in ((value, value_neg), (gp, gp_neg), (gt, gt_neg), (ge, -ge_neg)):
        assert same_bits(got, want)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def test_optimizer_zero_gradient_leaves_params_unchanged():
    p = ad.ParamTensor("p", np.array([[1.0, -2.0]]))
    state = ad.OptimizerState([p])
    before = p.values.copy()
    ad.optimizer_step(state)
    np.testing.assert_array_equal(p.values, before)


def test_optimizer_constant_gradient_descends_monotonically():
    p = ad.ParamTensor("p", np.array([[5.0]]))
    state = ad.OptimizerState([p], lr=0.01)
    values = [p.values[0, 0]]
    for _ in range(50):
        p.grad[:] = 2.0
        ad.optimizer_step(state)
        values.append(p.values[0, 0])
    assert all(b < a for a, b in zip(values, values[1:]))


def test_optimizer_converges_on_quadratic_bowl():
    w = ad.ParamTensor("w", np.array([[0.0]]))
    state = ad.OptimizerState([w], lr=0.05)
    for _ in range(500):
        tape = ad.Tape()
        total(tape, square(tape, add(tape, w, -2.0)))
        ad.backward(tape)
        ad.optimizer_step(state)
    assert abs(w.values[0, 0] - 2.0) < 0.01


def test_optimizer_nonfinite_gradient_names_parameter():
    p = ad.ParamTensor("tower.l0.W", np.ones((1, 1)))
    p.grad[:] = np.nan
    with pytest.raises(NumericError, match="tower.l0.W"):
        ad.optimizer_step(ad.OptimizerState([p]))


def reference_adam(values, grad_steps, lr):
    """Adam one tensor at a time: the update before the parameters shared
    one flat buffer."""
    values = [v.copy() for v in values]
    m = [np.zeros_like(v) for v in values]
    v2 = [np.zeros_like(v) for v in values]
    for t, grads in enumerate(grad_steps, start=1):
        bc1 = 1.0 - ad.ADAM_BETA1**t
        bc2 = 1.0 - ad.ADAM_BETA2**t
        for i, g in enumerate(grads):
            m[i] = ad.ADAM_BETA1 * m[i] + (1.0 - ad.ADAM_BETA1) * g
            v2[i] = ad.ADAM_BETA2 * v2[i] + (1.0 - ad.ADAM_BETA2) * g * g
            values[i] -= lr * (m[i] / bc1) / (np.sqrt(v2[i] / bc2) + ad.ADAM_EPS)
    return values


def three_params(rng):
    return [ad.ParamTensor("a", rng.standard_normal((3, 4))),
            ad.ParamTensor("b", rng.standard_normal(5)),
            ad.ParamTensor("c", rng.standard_normal((2, 3, 2)))]


def test_flat_adam_matches_the_per_tensor_update():
    rng = np.random.default_rng(21)
    params = three_params(rng)
    start = [p.values.copy() for p in params]
    grad_steps = [[rng.standard_normal(p.shape) * 10.0**rng.integers(-4, 3) for p in params]
                  for _ in range(5)]
    state = ad.OptimizerState(params, lr=0.01)
    for grads in grad_steps:
        for p, g in zip(params, grads):
            p.grad[...] = g
        ad.optimizer_step(state)
    for p, want in zip(params, reference_adam(start, grad_steps, lr=0.01)):
        assert np.array_equal(p.values, want)
        assert not np.any(p.grad)


def test_nonfinite_gradient_names_the_parameter_before_any_value_moves():
    params = three_params(np.random.default_rng(22))
    state = ad.OptimizerState(params)
    for p in params:
        p.grad[...] = 1.0
    params[1].grad[2] = np.nan
    before = [p.values.copy() for p in params]
    with pytest.raises(NumericError, match="'b'"):
        ad.optimizer_step(state)
    for p, values in zip(params, before):
        np.testing.assert_array_equal(p.values, values)


def test_optimizer_state_refuses_duplicate_parameter_names():
    a, b, _ = three_params(np.random.default_rng(23))
    with pytest.raises(ConfigError, match="unique"):
        ad.OptimizerState([a, b, ad.ParamTensor("a", a.values)])


def test_optimizer_step_zeroes_gradients():
    p = ad.ParamTensor("p", np.ones((2, 2)))
    p.grad[:] = 1.0
    ad.optimizer_step(ad.OptimizerState([p]))
    np.testing.assert_array_equal(p.grad, np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# minibatch_adam
# ---------------------------------------------------------------------------

def test_minibatch_adam_visits_every_row_once_per_epoch():
    w = ad.ParamTensor("w", np.array([[5.0]]))

    def batch_loss(rows, tape):
        return total(tape, mul(tape, w, w)), rows

    epochs = ad.minibatch_adam([w], 10, batch_loss, TrainConfig(epochs=2, batch=4, lr=0.1),
                               np.random.default_rng(0))
    assert len(epochs) == 2
    for batches in epochs:
        assert [len(rows) for rows in batches] == [4, 4, 2]
        np.testing.assert_array_equal(np.sort(np.concatenate(batches)), np.arange(10))
    assert 0.0 < w.values[0, 0] < 5.0  # six Adam steps downhill


def test_minibatch_adam_nonfinite_loss_names_epoch_and_batch():
    w = ad.ParamTensor("w", np.ones((1, 1)))

    def batch_loss(rows, tape):
        return total(tape, mul(tape, w, np.nan)), None

    with pytest.raises(NumericError, match="non-finite loss at epoch 0 batch 0"):
        ad.minibatch_adam([w], 10, batch_loss, TrainConfig(epochs=2, batch=4),
                          np.random.default_rng(0))
    assert w.values[0, 0] == 1.0  # no step was taken


# ---------------------------------------------------------------------------
# finite_diff_check
# ---------------------------------------------------------------------------

def test_finite_diff_exact_for_linear_loss():
    w = ad.ParamTensor("w", np.arange(6.0).reshape(2, 3))

    def loss_fn(tape):
        return total(tape, w)

    assert finite_diff_check(loss_fn, [w], eps=1e-5) < 1e-8


def test_finite_diff_detects_corrupted_gradient():
    w = ad.ParamTensor("w", np.array([[3.0]]))

    def loss_fn(tape):
        # deliberately wrong vjp: doubles the true gradient of w**2
        return tape.record(w.values**2, (w,), lambda g: (4.0 * g * w.values,))

    err = finite_diff_check(lambda tape: total(tape, loss_fn(tape)), [w], eps=1e-5)
    assert err > 0.3


def test_finite_diff_rejects_nonpositive_eps():
    w = ad.ParamTensor("w", np.ones((1, 1)))
    with pytest.raises(ConfigError):
        finite_diff_check(lambda: None, [w], eps=0.0)


@pytest.mark.parametrize("eps", [np.nan, np.inf, -np.inf])
def test_finite_diff_rejects_a_nonfinite_eps(eps):
    w = ad.ParamTensor("w", np.ones((1, 1)))
    with pytest.raises(ConfigError, match="finite and positive"):
        finite_diff_check(lambda tape: total(tape, w), [w], eps=eps)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_finite_diff_counts_a_nonfinite_gradient_as_infinitely_wrong(bad):
    w = ad.ParamTensor("w", np.array([[3.0, 1.0]]))

    def loss_fn(tape):
        # the vjp is right on entry 1 and non-finite on entry 0
        square = tape.record(w.values**2, (w,), lambda g: (g * 2.0 * w.values * [[bad, 1.0]],))
        return total(tape, square)

    assert finite_diff_check(loss_fn, [w], eps=1e-5) == np.inf


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_seeded_init_and_steps_are_bit_reproducible():
    def run():
        rng = np.random.default_rng(42)
        layers = [
            make_layer("l0", ad.glorot_uniform(rng, 3, 4), np.zeros(4)),
            make_layer("l1", ad.glorot_uniform(rng, 4, 1), np.zeros(1)),
        ]
        params = ad.mlp_params(layers)
        state = ad.OptimizerState(params, lr=1e-3)
        x = rng.standard_normal((16, 3))
        y = rng.integers(0, 2, size=(16, 1)).astype(float)
        for _ in range(5):
            tape = ad.Tape()
            p = sigmoid(tape, ad.mlp_forward(layers, x, tape))
            total(tape, binary_cross_entropy(tape, y, p))
            ad.backward(tape)
            ad.optimizer_step(state)
        return np.concatenate([p.values.reshape(-1) for p in params])

    a, b = run(), run()
    assert np.array_equal(a, b)
