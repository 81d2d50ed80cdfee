"""Deconfounded causal representation layer.

Three expert groups encode the covariates: base experts (intrinsic
preference), shared experts (confounders common to both outcomes) and
treated experts (intervention sensitivity). All K = 3E experts (E per group)
have the same shape, so each layer holds them as one stacked weight
(K, fan_in, fan_out) and bias (K, 1, fan_out), and one pass of the stack
gives every expert's output as a (K, rows, out_dim) tensor. Slots run
``base0.., shared0.., treated0..``.

Two softmax gates over the K slots weight every expert's output block
side by side, producing one representation per downstream task. The two
gates are one gate bank, one parameter tensor each for the weights
(input_dim, 2K) and the biases (2K,), gate0's columns first and gate_t's
after them, and one tape node: one GEMM of the bank gives their logits
slot-major, (2, K, rows), and the softmax runs along the slot axis. One
``Tape.gate_merge`` node merges the stacked output for both tasks into the
(2, rows, K * out_dim) stack [u0, ut], the representation node the HTE net
reads. Its (2, K) slot mask, fixed once per parameter bundle, closes the
off-task group to the experts' gradient (u0 closes the treated slots, ut
the base slots), so the base loss never trains treated experts and vice
versa, while the shared slots stay open in both directions. Under
``ablate.dcr`` one shared MLP's (rows, K * out_dim) output stands for both.
A Frobenius cross-product penalty, one tape node over every layer, pushes
the three groups' weight matrices toward mutually orthogonal subspaces.
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

    ``experts`` holds one stacked layer per depth and ``gates`` the gate
    bank, one linear layer of 2K outputs: gate0's logits in columns 0..K-1,
    gate_t's in K..2K-1. Under the ``ablate.dcr`` ablation only
    ``shared_mlp`` is populated and both task representations collapse to
    its output.
    """

    input_dim: int
    experts: list = field(default_factory=list)
    gates: ad.Layer | None = None
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
    def slot_open(self) -> np.ndarray:
        """Per task, the slots whose experts its representation trains, as
        the (2, K) mask of ``Tape.gate_merge``: u0 (row 0) all but the treated
        ones, ut (row 1) all but the base ones. Both open the shared slots."""
        group = np.arange(3 * self.experts_per_group) // self.experts_per_group
        return np.stack([group != TREATED, group != BASE])

    def parameters(self) -> list[ad.ParamTensor]:
        if not self.enabled:
            return ad.mlp_params(self.shared_mlp)
        return [*ad.mlp_params(self.experts), self.gates.W, self.gates.b]


def init_dcr(rng: np.random.Generator, input_dim: int, cfg: DcrConfig,
             ablate: bool) -> DcrParams:
    n_slots = 3 * cfg.experts_per_group
    if ablate:
        # degenerate path keeps the downstream tower width unchanged
        shared = ad.init_mlp(rng, "dcr.shared_mlp", (input_dim, cfg.hidden, n_slots * cfg.out_dim))
        return DcrParams(input_dim=input_dim, shared_mlp=shared)
    # drawn expert by expert, layer by layer: the order of one MLP per expert
    experts = ad.init_stacked_mlp(rng, "dcr", (input_dim, cfg.hidden, cfg.out_dim), n_slots)
    # drawn gate by gate, gate0 then gate_t: the order of one linear layer per gate
    gate_w = np.concatenate([ad.glorot_uniform(rng, input_dim, n_slots) for _ in range(2)], axis=1)
    gates = ad.Layer(ad.ParamTensor("dcr.gates.W", gate_w),
                     ad.ParamTensor("dcr.gates.b", np.zeros(2 * n_slots)))
    return DcrParams(input_dim=input_dim, experts=experts, gates=gates)


def gates_forward(params: DcrParams, x: ad.Node, tape: ad.Tape) -> ad.Node:
    """Both gates on x, a node of tape, as one node: the slot-major
    (2, K, rows) softmax weights, gate0's in row 0 and gate_t's in row 1.
    One GEMM of the gate bank gives every logit and the softmax runs along
    the slot axis; the vjp gives the bank's whole gradients. In
    ``autodiff.checked_affine``'s words, an input width the gates do not take
    raises ConfigError, and a non-finite logit NumericError naming the
    bank's weight and the gate."""
    bank = params.gates
    xv = x.value
    wt = bank.W.values.T  # (2K, in), a view the GEMM reads transposed: logits come out slot-major
    if xv.shape[-1] != wt.shape[1]:
        raise ConfigError(f"layer 0 expects input width {wt.shape[1]}, got {xv.shape[-1]}")
    k = wt.shape[0] // 2
    z = wt @ xv.T
    z += bank.b.values[:, None]
    if not math.isfinite(np.add.reduce(z, None)):  # as checked_affine checks a layer
        gate = "gate0" if not math.isfinite(np.add.reduce(z[:k], None)) else "gate_t"
        raise NumericError(f"non-finite activation after layer 0 ({bank.W.name}, {gate})")
    z = z.reshape(2, k, -1)
    z -= np.maximum.reduce(z, axis=1, keepdims=True)  # ndarray.max and .sum without wrappers
    s = np.exp(z, out=z)
    s /= np.add.reduce(s, axis=1, keepdims=True)
    lx = x.live

    def vjp(g):  # the softmax vjp along the slot axis, then one affine vjp for the bank
        gz = (s * (g - (g * s).sum(axis=1, keepdims=True))).reshape(2 * k, -1)
        return gz.T @ wt if lx else None, (gz @ xv).T, gz @ np.ones(gz.shape[1])

    return tape.record(s, (x, bank.W, bank.b), vjp)


def dcr_forward(params: DcrParams, x: ad.Node, tape: ad.Tape) -> ad.Node:
    """Both task representations of a batch of embedded features x, a node
    of tape, as one node: the (2, rows, K * out_dim) stack [u0, ut] of one
    ``Tape.gate_merge``. u0 weights CONCAT(base, shared, SG(treated)); ut
    weights CONCAT(SG(base), shared, treated). Gate weights are softmax
    outputs over expert slots, applied as per-expert scalars on each output
    block. Under ``ablate.dcr`` the node is the shared MLP's (rows, out)
    output, which stands for both.
    """
    if not params.enabled:
        return ad.mlp_forward(params.shared_mlp, x, tape)
    experts = ad.mlp_forward(params.experts, x, tape)
    gates = gates_forward(params, x, tape)
    return tape.gate_merge(gates, experts, params.slot_open)


def orth_penalty(params: DcrParams, tape: ad.Tape) -> ad.Node:
    """Sum over layers and cross-group pairs i < j of ||A_i^T A_j||_F^2, where
    A_g is group g's weight matrices of the layer side by side (biases
    excluded), so every cross-group expert pair is covered.

    With the Gram matrices G_g = A_g A_g^T, ||A_i^T A_j||_F^2 =
    tr(A_j^T A_i A_i^T A_j) = <G_i, G_j>_F, so a layer's penalty is
    sum_{i<j} <G_i, G_j>_F and its gradient for A_g is
    2 (sum_h G_h - G_g) A_g. Every layer's term and gradient go into one
    node, whose parents are the layers' stacked weights.
    """
    if not params.enabled:
        return tape.constant(0.0)
    values, grads = [], []
    for layer in params.experts:
        w = layer.W
        a = w.values.reshape(3, -1, *w.shape[1:])  # (group, expert, fan_in, fan_out)
        gram = (a @ a.swapaxes(-1, -2)).sum(axis=1)  # G_g: the sum of W W^T over group g
        others = gram.sum(axis=0) - gram
        values.append(sum(np.vdot(gram[i], gram[j])
                          for i, j in ((BASE, SHARED), (BASE, TREATED), (SHARED, TREATED))))
        grads.append(2.0 * (others[:, None] @ a).reshape(w.shape))
    return tape.record(sum(values), [layer.W for layer in params.experts],
                       lambda g: [g * grad for grad in grads])
