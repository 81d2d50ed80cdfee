"""Gradient checking for the tape, kept with the tests that use it: a
central-difference checker, per-primitive references for the fused nodes and
the arithmetic that tests use as glue.

``affine``, ``relu`` and ``sigmoid`` record one layer step each through
``Tape.record`` on the library's own kernels (``affine_value`` and
``affine_grads``, ``np.fmax``, ``expit``). Chained, they are the reference
that ``mlp_forward``'s one node must equal bit for bit. ``add`` and ``mul``
record elementwise arithmetic with numpy broadcasting; an operand that is
neither a node nor a parameter enters as a constant.

``finite_diff_check`` compares a tape's gradients with central differences
of the forward pass. A stop-gradient, and a closed slot of ``gate_merge``'s
experts, make the tape's gradient differ on purpose from the true derivative
of the forward function: the tape treats the stopped value as a constant,
while a perturbed re-evaluation moves it too. So the checker pins stopped
values: it records them on the unperturbed pass and reads them back on every
perturbed one, and the finite difference becomes the derivative the tape
actually defines.
"""
from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np
from scipy.special import expit

from unimvt import autodiff as ad
from unimvt.errors import ConfigError, UsageError


def _operand(tape: ad.Tape, x):
    """x as an operand of tape: a node or parameter as it is, else a constant."""
    return x if isinstance(x, (ad.Node, ad.ParamTensor)) else tape.constant(x)


def add(tape: ad.Tape, a, b) -> ad.Node:
    a, b = _operand(tape, a), _operand(tape, b)
    sa, sb = np.shape(a.value), np.shape(b.value)
    la, lb = a.live, b.live
    return tape.record(a.value + b.value, (a, b),
                       lambda g: (ad._unbroadcast(g, sa) if la else None,
                                  ad._unbroadcast(g, sb) if lb else None))


def mul(tape: ad.Tape, a, b) -> ad.Node:
    a, b = _operand(tape, a), _operand(tape, b)
    av, bv = a.value, b.value
    la, lb = a.live, b.live
    return tape.record(av * bv, (a, b),
                       lambda g: (ad._unbroadcast(g * bv, np.shape(av)) if la else None,
                                  ad._unbroadcast(g * av, np.shape(bv)) if lb else None))


def affine(tape: ad.Tape, x, w, b) -> ad.Node:
    """x @ W + b with b broadcast over rows; a (K, in, out) weight with bias
    (K, 1, out) applies K layers at once, as in ``mlp_forward``."""
    xv, wv = x.value, w.value
    lx, lw, lb = x.live, w.live, b.live
    return tape.record(ad.affine_value(xv, wv, b.value), (x, w, b),
                       lambda g: ad.affine_grads(g, xv, wv, lx, lw, lb))


def relu(tape: ad.Tape, a) -> ad.Node:
    """max(a, 0), with NaN mapped to 0."""
    av = a.value
    return tape.record(np.fmax(av, 0.0), (a,), lambda g: (g * (av > 0.0),))


def sigmoid(tape: ad.Tape, a) -> ad.Node:
    s = expit(a.value)
    return tape.record(s, (a,), lambda g: (g * s * (1.0 - s),))


class _PinnedTape(ad.Tape):
    """A tape whose stopped values are pinned for the gradient checker.

    Built on an empty list, the tape appends a copy of every stop-gradient
    output and every merge's expert operand to it; built on the filled list,
    it reads the recorded values back in order: in place of a stop-gradient's
    output, and in the closed slots of a merge's experts.
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

    def stop_gradient(self, a: ad.Node) -> ad.Node:
        node = super().stop_gradient(a)
        node.value = self._pin(a.value)
        return node

    def gate_merge(self, gates, task: int, experts, open) -> ad.Node:
        node = super().gate_merge(gates, task, experts, open)
        ev = np.where(np.asarray(open)[:, None, None], experts.value, self._pin(experts.value))
        k, n, d = ev.shape
        # gate_merge's layout: slot k's block in columns k*d .. (k+1)*d - 1
        node.value = (gates.value[task][:, :, None] * ev).transpose(1, 0, 2).reshape(n, k * d)
        return node


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

    Stop-gradient outputs, and the closed slots of ``gate_merge``'s experts,
    are replayed at their unperturbed values during the +-eps evaluations, so
    the check validates the derivative the tape defines: stopped values are
    constants.

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
