"""Deconfounded causal representation layer.

Three expert groups encode the covariates: base experts (intrinsic
preference), shared experts (confounders common to both outcomes) and
treated experts (intervention sensitivity). All K = 3E experts (E per group)
have the same shape, so each layer holds them as one stacked weight
(K, fan_in, fan_out) and bias (K, 1, fan_out), and one pass of the stack
gives every expert's output as a (K, rows, out_dim) tensor. Slots run
``base0.., shared0.., treated0..``.

Two softmax gates over the K slots weight every expert's output block
side by side, producing one representation per downstream task. One
stop-gradient on the stacked output gives a frozen copy; each task reads
its off-task group's slots from that copy through a constant 0/1 slot mask
(u0 stops the treated slots, ut the base slots), so the base loss never
trains treated experts and vice versa, while the shared slots stay open in
both directions. A Frobenius cross-product penalty pushes the three
groups' weight matrices toward mutually orthogonal subspaces.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import ConfigError

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


def dcr_forward(params: DcrParams, x: ad.Node, tape: ad.Tape) -> DcrOutput:
    """Produce the per-task representations for a batch of embedded features,
    x, a node of tape.

    u0 weights CONCAT(base, shared, SG(treated)); ut weights
    CONCAT(SG(base), shared, treated). Gate weights are softmax outputs over
    expert slots, applied as per-expert scalars on each output block.
    """
    if x.value.shape[1] != params.input_dim:
        raise ConfigError(
            f"dcr input width {x.value.shape[1]} does not match configured {params.input_dim}"
        )

    if not params.enabled:
        shared_out = ad.mlp_forward(params.shared_mlp, x, tape)
        return DcrOutput(u0=shared_out, ut=shared_out)

    experts = ad.mlp_forward(params.experts, x, tape)
    frozen = tape.stop_gradient(experts)
    group = np.repeat([BASE, SHARED, TREATED], params.experts_per_group)

    def task(gate, stopped_group):
        keep = (group != stopped_group).astype(np.float64).reshape(-1, 1, 1)
        h = tape.add(tape.mul(experts, keep), tape.mul(frozen, 1.0 - keep))
        return tape.gate_merge(gate, h)

    g0 = tape.softmax(ad.mlp_forward(params.gate0, x, tape))
    gt = tape.softmax(ad.mlp_forward(params.gate_t, x, tape))
    return DcrOutput(u0=task(g0, TREATED), ut=task(gt, BASE))


def orth_penalty(params: DcrParams, tape: ad.Tape) -> ad.Node:
    """Sum over layers and cross-group pairs of ||W_i^T W_j||_F^2.

    Computed on weight matrices only (biases excluded). Each group's slots
    are read side by side per layer, so one matrix product per (group pair,
    layer) covers every cross-group expert pair: the Frobenius norm of the
    blocked product equals the sum over expert-pair blocks.
    """
    if not params.enabled:
        return tape.constant(0.0)
    e = params.experts_per_group
    blocks = [[tape.slot_columns(tape.param(layer.W), g * e, (g + 1) * e)
               for layer in params.experts] for g in (BASE, SHARED, TREATED)]
    total = None
    for gi, gj in ((BASE, SHARED), (BASE, TREATED), (SHARED, TREATED)):
        for a, b in zip(blocks[gi], blocks[gj]):
            term = tape.sum_all(tape.square(tape.matmul(tape.transpose(a), b)))
            total = term if total is None else tape.add(total, term)
    return total
