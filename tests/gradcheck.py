"""Gradient checking for the tape, kept with the tests that use it: a
central-difference checker, per-primitive references for the fused nodes and
the arithmetic that tests use as glue.

``affine``, ``relu`` and ``sigmoid`` record one layer step each through
``Tape.record`` on the library's own kernels (``affine_value`` and
``affine_grads``, ``np.fmax``, ``expit``). Chained, they are the reference
that ``mlp_forward``'s one node must equal bit for bit. ``add`` and ``mul``
record elementwise arithmetic with numpy broadcasting; an operand that is
neither a node nor a parameter enters as a constant. ``total`` sums a node
to a scalar loss, and ``binary_cross_entropy`` records ``cross_entropy``
per element, so ``total(binary_cross_entropy(...))`` is the two-node loss
that the S-/T-Learners' one loss node must equal. ``bridge`` records the
``autodiff.bridge`` kernel as a node of its own, so the kernel can be
checked alone. Every reference gives each operand its gradient, summed back
to the operand's shape where numpy broadcast it (``_unbroadcast``), and a
constant operand stops it. ``hte_reference`` is the HTE net layer by layer
in plain numpy, from the unstacked slices, that ``htenet.hte_forward``'s
one node must equal.

``finite_diff_check`` compares a tape's gradients with central differences
of the forward pass. A constant or a ``Tape.detach`` read off a
parameter's value, such as the closed slots of the DCR node's experts,
makes the tape's gradient differ on purpose from the true derivative of the
forward function: the tape treats the value as fixed, while a perturbed
re-evaluation moves it too. So the checker pins constants and detached
values, and only those: it records them on the unperturbed pass and reads
them back on every perturbed one, and the finite difference becomes the
derivative the tape actually defines.

``GUARD_CASES`` are the outputs that the tests of the layers' finiteness
guards feed to each guard.
"""
from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np
from scipy.special import expit

from unimvt import autodiff as ad
from unimvt.errors import ConfigError, UsageError


# name -> (first slice's row, second slice's row, the slice whose non-finite
# sum the guard names, or None when it passes): a guard sees GUARD_ROWS such
# rows. It names the first slice whose sum is not finite, or the last when
# only the total overflows. Entries of 1e200 are finite but overflow the
# guard's vdot; entries of 1e308 overflow the plain sum, which raises though
# every entry is finite.
GUARD_ROWS = 2
GUARD_CASES = {
    "1e200": ([1e200, -1e200, 1e200], [1e200, 1e200, 1e200], None),
    "nan": ([0.0, 0.0, 0.0], [1.0, np.nan, 1.0], 1),
    "inf": ([np.inf, 0.0, 0.0], [0.0, 0.0, 0.0], 0),
    "-inf": ([0.0, 0.0, 0.0], [0.0, -np.inf, 0.0], 1),
    "1e308": ([0.0, 0.0, 0.0], [1e308, 1e308, 1e308], 1),
    "only the total overflows": ([3e307, 3e307, 0.0], [3e307, 3e307, 0.0], 1),
}


def _operand(tape: ad.Tape, x):
    """x as an operand of tape: a node or parameter as it is, else a constant."""
    return x if isinstance(x, (ad.Node, ad.ParamTensor)) else tape.constant(x)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcasted gradient back down to the original operand shape;
    a gradient that already has it is returned as it is."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def add(tape: ad.Tape, a, b) -> ad.Node:
    a, b = _operand(tape, a), _operand(tape, b)
    sa, sb = np.shape(a.value), np.shape(b.value)
    return tape.record(a.value + b.value, (a, b),
                       lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)))


def mul(tape: ad.Tape, a, b) -> ad.Node:
    a, b = _operand(tape, a), _operand(tape, b)
    av, bv = a.value, b.value
    return tape.record(av * bv, (a, b),
                       lambda g: (_unbroadcast(g * bv, np.shape(av)),
                                  _unbroadcast(g * av, np.shape(bv))))


def total(tape: ad.Tape, a) -> ad.Node:
    """The sum of every entry of a, as a 0-D node."""
    shape = a.value.shape
    return tape.record(a.value.sum(), (a,), lambda g: (np.full(shape, float(g)),))


def binary_cross_entropy(tape: ad.Tape, y, p) -> ad.Node:
    """``cross_entropy(y, p)`` per element of the node p."""
    value, vjp = ad.cross_entropy(y, p.value)
    return tape.record(value, (p,), lambda g: (vjp(g),))


def bridge(tape: ad.Tape, p, t_hat, eta, sign: float = 1.0) -> ad.Node:
    """``autodiff.bridge`` on the nodes p, t_hat and eta, broadcast, each
    operand's gradient summed back to its shape."""
    value, vjp = ad.bridge(p.value, t_hat.value, eta.value, sign)
    operands = (p, t_hat, eta)

    def node_vjp(g):
        return [_unbroadcast(grad, np.shape(x.value)) for x, grad in zip(operands, vjp(g))]

    return tape.record(value, operands, node_vjp)


def affine(tape: ad.Tape, x, w, b) -> ad.Node:
    """x @ W + b with b broadcast over rows; a (K, in, out) weight with bias
    (K, 1, out) applies K layers at once, as in ``mlp_forward``."""
    xv, wv, bv = x.value, w.value, b.value

    def vjp(g):
        return [_unbroadcast(grad, np.shape(v)) for v, grad in zip((xv, wv, bv),
                                                                   ad.affine_grads(g, xv, wv))]

    return tape.record(ad.affine_value(xv, wv, bv), (x, w, b), vjp)


def relu(tape: ad.Tape, a) -> ad.Node:
    """max(a, 0), with NaN mapped to 0."""
    av = a.value
    return tape.record(np.fmax(av, 0.0), (a,), lambda g: (g * (av > 0.0),))


def sigmoid(tape: ad.Tape, a) -> ad.Node:
    s = expit(a.value)
    return tape.record(s, (a,), lambda g: (g * s * (1.0 - s),))


class _PinnedTape(ad.Tape):
    """A tape whose constants are pinned for the gradient checker.

    Built on an empty list, the tape appends a copy of every constant and
    every value read through ``detach`` to it; built on the filled list, it
    reads the recorded values back in order, in their place.
    """

    def __init__(self, pinned: list) -> None:
        super().__init__()
        self._pinned = pinned
        self._replaying = bool(pinned)
        self._used = 0

    def _pin(self, value: np.ndarray) -> np.ndarray:
        if not self._replaying:
            self._pinned.append(np.array(value, copy=True))
        elif self._used == len(self._pinned):
            raise UsageError("replay saw more pinned values than were recorded")
        self._used += 1
        return self._pinned[self._used - 1]

    def constant(self, values) -> ad.Node:
        node = super().constant(values)
        node.value = self._pin(node.value)
        return node

    def detach(self, values):
        return self._pin(values)


def _relative_error(analytic, cd) -> float:
    """The checker's relative error of one entry; inf where it is not finite."""
    a, cd = float(analytic), float(cd)
    rel = abs(a - cd) / max(abs(a), abs(cd), 1e-8)
    return rel if math.isfinite(rel) else math.inf


def finite_diff_check(
    loss_fn: Callable[[ad.Tape], ad.Node],
    params: Sequence[ad.ParamTensor],
    eps: float = 1e-5,
) -> float:
    """Max relative error between analytic gradients and central differences.

    ``loss_fn(tape)`` must build the loss on the tape it is given, through
    that tape's methods, and return the scalar loss node; the checker calls
    it once per evaluation, each time with a fresh tape it builds itself.
    The relative error for one parameter entry is
    |analytic - cd| / max(|analytic|, |cd|, 1e-8), and inf where that is not
    finite (a NaN or infinite gradient or loss); the max over all entries of
    all params is returned. This routine never trusts the tape for the
    reference values: it only re-evaluates the forward pass. An ``eps`` that
    is not finite and positive raises ConfigError.

    Constants and detached values, and only those, are replayed at their
    unperturbed values during the +-eps evaluations, so the check validates
    the derivative the tape defines, in which a constant read off a
    parameter's value stays fixed.

    Entries that disagree by more than 1e-7 may be quantization-limited in
    float64 (the +-eps loss change sits within a few ulp of the loss
    magnitude, which caps the attainable agreement for tiny gradients) and
    are re-evaluated with the parameters cast to extended precision: same
    definition, same eps, just enough arithmetic headroom to resolve the
    difference. Genuine gradient bugs survive the re-evaluation unchanged.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ConfigError(f"finite difference step must be finite and positive, got {eps}")
    pinned: list[np.ndarray] = []
    for p in params:
        p.grad.fill(0.0)
    tape = _PinnedTape(pinned)
    loss_fn(tape)
    ad.backward(tape)
    analytic = {p.name: p.grad.copy() for p in params}
    for p in params:
        p.grad.fill(0.0)

    def loss_at(flat, i, value):
        flat[i] = value
        return loss_fn(_PinnedTape(pinned)).value

    recheck: list = []
    worst = 0.0
    for p in params:
        flat = p.values.reshape(-1)
        ref = analytic[p.name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            lp = float(loss_at(flat, i, orig + eps))
            lm = float(loss_at(flat, i, orig - eps))
            flat[i] = orig
            rel = _relative_error(ref[i], (lp - lm) / (2.0 * eps))
            if rel > 1e-7 and np.finfo(np.longdouble).eps < np.finfo(np.float64).eps:
                recheck.append((p, i, ref[i]))
            else:
                worst = max(worst, rel)

    if recheck:
        originals = {id(p): p.values for p in params}
        for p in params:
            p.values = p.values.astype(np.longdouble)
        try:
            for p, i, a in recheck:
                flat = p.values.reshape(-1)
                orig = flat[i]
                lp = loss_at(flat, i, orig + eps)
                lm = loss_at(flat, i, orig - eps)
                flat[i] = orig
                worst = max(worst, _relative_error(a, float((lp - lm) / np.longdouble(2.0 * eps))))
        finally:
            for p in params:
                p.values = originals[id(p)]
    return worst


def hte_reference(hte, reps: np.ndarray, imputed, dose) -> np.ndarray:
    """``htenet.hte_forward``'s (rows, 5) value, P0, T_HAT, ETA, P_CF and PT,
    computed layer by layer from the unstacked slices on a tape of its own:
    each tower and head a chain of ``affine``, ``relu`` and ``sigmoid`` steps
    on its own (in, out) weight and (out,) bias, each TA gate one ``affine``
    on its columns of the bank, the bridge ``autodiff.bridge``. reps is the
    (2, rows, d) array [u0, ut], or one (rows, d) array that stands for both."""
    tape = ad.Tape()
    u0, ut = (reps[0], reps[1]) if reps.ndim == 3 else (reps, reps)

    def layer(x, stacked, k):  # slice k of a stacked layer
        return affine(tape, x, tape.constant(stacked.W.values[k]),
                      tape.constant(stacked.b.values[k, 0]))

    def hidden(x, stacked, k):
        return relu(tape, layer(x, stacked, k))

    towers, heads, bank = hte.towers, hte.heads, hte.ta_gates
    h = tape.constant(u0)
    for stacked in towers[:-1]:
        h = hidden(h, stacked, 0)
    p0 = sigmoid(tape, layer(h, towers[-1], 0)).value
    ut_node = tape.constant(ut)
    intensity = sigmoid(tape, layer(hidden(ut_node, heads[0], 0), heads[1], 0)).value
    eta = relu(tape, layer(hidden(ut_node, heads[0], 1), heads[1], 1)).value
    t_hat = intensity * (hte.t_max - hte.t_min) + hte.t_min
    tn = (imputed * t_hat + dose + -hte.t_min) * (1.0 / (hte.t_max - hte.t_min))
    e_t = tape.constant(np.concatenate([tn, tn * tn], axis=1))
    h = ut_node
    for stacked, col in zip(towers[:-1], hte.ta_cols):
        gate = sigmoid(tape, affine(tape, e_t, tape.constant(bank.W.values[:, col]),
                                    tape.constant(bank.b.values[col])))
        h = mul(tape, mul(tape, gate, 2.0), hidden(h, stacked, 1))
    pt = sigmoid(tape, layer(h, towers[-1], 1)).value
    p_cf, _ = ad.bridge(p0, t_hat, eta)
    return np.concatenate([p0, t_hat, eta, p_cf, pt], axis=1)
