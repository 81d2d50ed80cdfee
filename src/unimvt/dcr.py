"""Deconfounded causal representation layer.

Three expert groups encode the covariates: base experts (intrinsic
preference), shared experts (confounders common to both outcomes) and
treated experts (intervention sensitivity). All K = 3E experts (E per group)
have the same shape, so each layer holds them as one stacked weight
(K, fan_in, fan_out) and bias (K, 1, fan_out), and one pass of the stack
gives every expert's output as a (K, rows, out_dim) tensor. Slots run
``base0.., shared0.., treated0..``.

Two softmax gates over the K slots weight every expert's output block
side by side, producing one representation per downstream task. Both gates
are one tape node: one GEMM gives their logits slot-major, (2, K, rows),
and the softmax runs along the slot axis. Each task merges the stacked
output through ``Tape.gate_merge``, whose slot mask closes the off-task
group to the experts' gradient (u0 closes the treated slots, ut the base
slots), so the base loss never trains treated experts and vice versa, while
the shared slots stay open in both directions. A Frobenius cross-product
penalty pushes the three groups' weight matrices toward mutually orthogonal
subspaces.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, NumericError

BASE, SHARED, TREATED = range(3)  # expert groups, in slot order


@dataclass
class DcrConfig:
    experts_per_group: int = 2
    hidden: int = 32
    out_dim: int = 16


@dataclass
class DcrParams:
    """Parameter bundle for the representation layer.

    ``experts`` holds one stacked layer per depth. Under the ``ablate.dcr``
    ablation only ``shared_mlp`` is populated and both task representations
    collapse to its output.
    """

    input_dim: int
    experts: list = field(default_factory=list)
    gate0: list = field(default_factory=list)
    gate_t: list = field(default_factory=list)
    shared_mlp: list | None = None

    @property
    def enabled(self) -> bool:
        return self.shared_mlp is None

    @property
    def experts_per_group(self) -> int:
        return self.experts[0].W.shape[0] // 3

    @property
    def output_dim(self) -> int:
        if not self.enabled:
            return self.shared_mlp[-1].W.shape[1]
        n_slots, _, per_expert = self.experts[-1].W.shape
        return n_slots * per_expert

    @cached_property
    def slot_open(self) -> tuple[np.ndarray, np.ndarray]:
        """Per task, the slots whose experts its representation trains: u0
        all but the treated ones, ut all but the base ones."""
        group = np.arange(3 * self.experts_per_group) // self.experts_per_group
        return group != TREATED, group != BASE

    def parameters(self) -> list[ad.ParamTensor]:
        if not self.enabled:
            return ad.mlp_params(self.shared_mlp)
        return ad.mlp_params(self.experts) + ad.mlp_params(self.gate0) + ad.mlp_params(self.gate_t)


@dataclass
class DcrOutput:
    u0: ad.Node
    ut: ad.Node


def init_dcr(rng: np.random.Generator, input_dim: int, cfg: DcrConfig,
             ablate: bool) -> DcrParams:
    n_slots = 3 * cfg.experts_per_group
    if ablate:
        # degenerate path keeps the downstream tower width unchanged
        shared = ad.init_mlp(rng, "dcr.shared_mlp", (input_dim, cfg.hidden, n_slots * cfg.out_dim))
        return DcrParams(input_dim=input_dim, shared_mlp=shared)
    dims = (input_dim, cfg.hidden, cfg.out_dim)
    # drawn expert by expert, layer by layer: the order of one MLP per expert
    draws = [[ad.glorot_uniform(rng, fan_in, fan_out) for fan_in, fan_out in zip(dims, dims[1:])]
             for _ in range(n_slots)]
    experts = [
        ad.Layer(ad.ParamTensor(f"dcr.l{i}.W", np.stack(weights)),
                 ad.ParamTensor(f"dcr.l{i}.b", np.zeros((n_slots, 1, dims[i + 1]))),
                 "relu" if i < len(dims) - 2 else "linear")
        for i, weights in enumerate(zip(*draws))
    ]
    return DcrParams(input_dim=input_dim, experts=experts,
                     gate0=ad.init_mlp(rng, "dcr.gate0", (input_dim, n_slots)),
                     gate_t=ad.init_mlp(rng, "dcr.gate_t", (input_dim, n_slots)))


def gates_forward(params: DcrParams, x: ad.Node, tape: ad.Tape) -> ad.Node:
    """Both gates on x, a node of tape, as one node: the slot-major
    (2, K, rows) softmax weights, gate0's in row 0 and gate_t's in row 1.
    One GEMM gives every logit and the softmax runs along the slot axis. In
    ``autodiff.checked_affine``'s words, an input width the gates do not take
    raises ConfigError, and a non-finite logit NumericError naming its
    gate's weight."""
    (g0,), (gt,) = params.gate0, params.gate_t
    xv = x.value
    wt = np.concatenate([g0.W.values.T, gt.W.values.T])  # (2K, in)
    if xv.shape[-1] != wt.shape[1]:
        raise ConfigError(f"layer 0 expects input width {wt.shape[1]}, got {xv.shape[-1]}")
    k = g0.W.shape[1]
    z = wt @ xv.T
    z += np.concatenate([g0.b.values, gt.b.values])[:, None]
    if not math.isfinite(np.add.reduce(z, None)):  # as checked_affine checks a layer
        bad = g0 if not math.isfinite(np.add.reduce(z[:k], None)) else gt
        raise NumericError(f"non-finite activation after layer 0 ({bad.W.name})")
    z = z.reshape(2, k, -1)
    z -= z.max(axis=1, keepdims=True)
    s = np.exp(z, out=z)
    s /= s.sum(axis=1, keepdims=True)
    lx = x.live

    def vjp(g):  # the softmax vjp along the slot axis, then one affine vjp for both gates
        gz = (s * (g - (g * s).sum(axis=1, keepdims=True))).reshape(2 * k, -1)
        gw = gz @ xv
        gb = gz @ np.ones(gz.shape[1])
        return gz.T @ wt if lx else None, gw[:k].T, gb[:k], gw[k:].T, gb[k:]

    return tape.record(s, (x, g0.W, g0.b, gt.W, gt.b), vjp)


def dcr_forward(params: DcrParams, x: ad.Node, tape: ad.Tape) -> DcrOutput:
    """Produce the per-task representations for a batch of embedded features,
    x, a node of tape.

    u0 weights CONCAT(base, shared, SG(treated)); ut weights
    CONCAT(SG(base), shared, treated). Gate weights are softmax outputs over
    expert slots, applied as per-expert scalars on each output block.
    """
    if not params.enabled:
        shared_out = ad.mlp_forward(params.shared_mlp, x, tape)
        return DcrOutput(u0=shared_out, ut=shared_out)

    experts = ad.mlp_forward(params.experts, x, tape)
    gates = gates_forward(params, x, tape)
    open0, open_t = params.slot_open
    return DcrOutput(u0=tape.gate_merge(gates, 0, experts, open0),
                     ut=tape.gate_merge(gates, 1, experts, open_t))


def orth_penalty(params: DcrParams, tape: ad.Tape) -> ad.Node:
    """Sum over layers and cross-group pairs i < j of ||A_i^T A_j||_F^2, where
    A_g is group g's weight matrices of the layer side by side (biases
    excluded), so every cross-group expert pair is covered.

    With the Gram matrices G_g = A_g A_g^T, ||A_i^T A_j||_F^2 =
    tr(A_j^T A_i A_i^T A_j) = <G_i, G_j>_F, so a layer's penalty is
    sum_{i<j} <G_i, G_j>_F and its gradient for A_g is
    2 (sum_h G_h - G_g) A_g. Each layer records one node with that vjp.
    """
    if not params.enabled:
        return tape.constant(0.0)
    total = None
    for layer in params.experts:
        w = layer.W
        a = w.values.reshape(3, -1, *w.shape[1:])  # (group, expert, fan_in, fan_out)
        gram = (a @ a.swapaxes(-1, -2)).sum(axis=1)  # G_g: the sum of W W^T over group g
        others = gram.sum(axis=0) - gram
        value = sum(np.vdot(gram[i], gram[j])
                    for i, j in ((BASE, SHARED), (BASE, TREATED), (SHARED, TREATED)))
        grad = 2.0 * (others[:, None] @ a).reshape(w.shape)
        term = tape.record(value, (w,), lambda g, grad=grad: (g * grad,))
        total = term if total is None else tape.add(total, term)
    return total
