"""Tape-based reverse-mode autodiff over float64 numpy arrays.

This is the substrate everything else is built on. The primitives are the
``Tape`` methods ``add``, ``mul``, ``scale``, ``affine`` (also over a stack
of layers), ``relu``, ``sigmoid``, ``bridge`` (the fused counterfactual
bridge), ``gate_merge`` (one task's gate-weighted experts, open to the
experts' gradient on a slot mask), ``stop_gradient``, ``sum_all`` and
``binary_cross_entropy``, plus ``mlp_forward``, which records a whole layer
stack (also a stack of K same-shaped stacks) as one node with a hand-written
vjp; ``Tape.record`` adds a node with the caller's vjp, built on the kernels
``affine_value``, ``affine_grads`` and ``cross_entropy``. The library
records no ``affine``, ``relu`` or ``sigmoid`` node: they are the
per-primitive reference for ``mlp_forward``. Around them: dense layers, an
Adam optimizer with the one minibatch training loop, ``row_blocks`` (the
``SCORE_ROWS``-row blocks that every scoring call records on fresh tapes)
and a central-difference gradient checker.

Values are numpy float64 arrays, either 2-D ``(rows, cols)`` matrices
(row = sample), 1-D bias vectors, 0-D scalars (loss values), or 3-D
``(K, ...)`` stacks of K same-shaped layers' weights and outputs. A ``Tape``
records every primitive in creation order through its methods
(``tape.mul(a, b)``, ``tape.relu(h)``); ``backward`` replays it once in
reverse, so creation order doubles as the topological order.

Who owns what: a ``ParamTensor`` holds its values and its accumulated
gradient and outlives every tape; once an ``OptimizerState`` has packed it,
both are views of that state's flat buffers, which own the memory. A
parameter is a leaf of every tape, not a node of one: primitives take the
``ParamTensor`` itself as an operand, and ``backward`` adds each gradient
that reaches it into ``ParamTensor.grad`` as it arrives. A ``Tape`` owns its
nodes. A ``Node`` holds its value, its parents (nodes of its tape and
parameters), the vjp that maps its gradient to theirs and its tape's mark (a
token, not the tape); it holds no gradient. The gradients of one
``backward`` call live in that call. References thus run one way, from a
tape to its nodes and from a node to its parents, so a spent tape is freed
by reference counting as soon as its last reference goes. The module holds
no mutable state.

Liveness is decided as the tape records: a parameter is live, and a node is
live when it has a vjp and at least one live parent. A node that is not live
keeps no vjp, and a live node's vjp gives None for a dead operand, so
``backward`` computes gradients only along paths that reach a parameter.

The hot kernels give the same values as the textbook forms without
data-dependent selects, which are slow on random signs: ``relu`` is
``np.fmax(a, 0)`` and the sigmoid's numerator is one ``np.maximum``; ``affine``
adds its bias in place onto the fresh product unless that would downcast it,
and its bias gradient is the BLAS product ``ones(rows) @ g``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, NumericError, UsageError

PROB_EPS = 1e-7  # probabilities are clamped to [PROB_EPS, 1 - PROB_EPS] before logs/logits
SCORE_ROWS = 256  # rows a scoring call records on one tape: the default train.batch


def row_blocks(n: int) -> list[slice]:
    """Rows 0..n-1 in blocks of SCORE_ROWS, each scored on a fresh tape so
    that a scoring call holds one block's tape; one block when n <= SCORE_ROWS,
    n = 0 included."""
    if n <= SCORE_ROWS:
        return [slice(0, n)]
    return [slice(start, start + SCORE_ROWS) for start in range(0, n, SCORE_ROWS)]


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    # dtype-preserving (works in extended precision), no overflow either side;
    # ex <= 1, so the maximum is exactly the numerator 1 (x >= 0) or ex
    ex = np.exp(-np.abs(x))
    return np.maximum(ex, x >= 0) / (1.0 + ex)


def affine_value(xv: np.ndarray, wv: np.ndarray, bv: np.ndarray) -> np.ndarray:
    """x @ W + b, the bias added in place onto the fresh product unless that
    would downcast it (a longdouble b on a float64 product)."""
    out = xv @ wv
    if bv.dtype is out.dtype or np.can_cast(bv.dtype, out.dtype):
        out += bv
    else:
        out = out + bv
    return out


def affine_grads(g, xv, wv, lx=True, lw=True, lb=True) -> tuple:
    """The vjp of x @ W + b for the output gradient g: the gradients of x, W
    and b, each None where its flag says the operand is dead. The bias
    gradient sums g over its rows as one BLAS product, (K, 1, out) for a
    stack."""
    ones = np.ones((1, g.shape[-2]) if g.ndim > 2 else g.shape[-2])
    return (_unbroadcast(g @ wv.swapaxes(-1, -2), xv.shape) if lx else None,
            _unbroadcast(xv.swapaxes(-1, -2) @ g, wv.shape) if lw else None,
            ones @ g if lb else None)


def cross_entropy(y, pv: np.ndarray) -> tuple:
    """-[y log p + (1-y) log(1-p)] per element of pv clamped into [PROB_EPS, 1 - PROB_EPS],
    and its vjp in p: g (p - y) / (p (1 - p)) where the clamp does not bind, 0 where it does."""
    yv = np.asarray(y, dtype=np.float64)
    pc = np.clip(pv, PROB_EPS, 1.0 - PROB_EPS)
    inside = (pv > PROB_EPS) & (pv < 1.0 - PROB_EPS)
    value = -(yv * np.log(pc) + (1.0 - yv) * np.log1p(-pc))
    return value, lambda g: g * inside * (pc - yv) / (pc * (1.0 - pc))


class ParamTensor:
    """Trainable tensor with a persistent accumulated gradient; an
    OptimizerState that packs it rebinds both as views of its buffers. It is
    an operand of any tape's primitives, always live and recorded on none."""

    __slots__ = ("name", "values", "grad")
    live = True
    mark = None

    def __init__(self, name: str, values) -> None:
        self.name = name
        self.values = np.array(values, dtype=np.float64)
        self.grad = np.zeros_like(self.values)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def value(self) -> np.ndarray:
        """The values, read as an operand's value."""
        return self.values

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    def __repr__(self) -> str:
        return f"ParamTensor({self.name!r}, shape={self.values.shape})"


class Node:
    """One tape entry: a value plus the recipe for pushing gradients to parents.

    A node is live when a gradient through it can reach a ParamTensor: when
    it has a vjp and a live parent. Only a live node keeps its vjp; backward
    passes nothing through a node without one, such as a closed
    stop-gradient.
    """

    __slots__ = ("value", "parents", "vjp", "live", "mark")

    def __init__(self, value, parents, vjp, live, mark):
        self.value = value
        self.parents = parents
        self.vjp = vjp
        self.live = live
        self.mark = mark  # the recording tape's mark, which is not the tape

    @property
    def shape(self) -> tuple[int, ...]:
        return np.shape(self.value)


def _merged(weights: np.ndarray, ev: np.ndarray) -> np.ndarray:
    """Per-slot weights (K, rows, 1) times experts (K, rows, d), laid out as
    (rows, K * d) with slot k's block in columns k*d .. (k+1)*d - 1."""
    k, n, d = ev.shape
    return (weights * ev).transpose(1, 0, 2).reshape(n, k * d)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcasted gradient back down to the original operand shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tape:
    """Ordered record of forward primitives, replayed in reverse by backward().

    The primitives are its methods. Each records one node whose parents must
    be ParamTensors or nodes recorded on this tape (UsageError otherwise);
    the binary arithmetic primitives also take arrays and scalars, recorded
    as constants.
    A primitive with more than one operand reads their ``live`` flags when it
    records, and its vjp gives None, which backward skips, for a dead one.
    No vjp closes over the tape, so references run one way.
    """

    def __init__(self) -> None:
        self.nodes: list[Node] = []
        self._mark = object()  # stamped on every node recorded here

    def record(self, value, parents=(), vjp=None) -> Node:
        mark = self._mark
        live = False
        for parent in parents:
            if parent.mark is not mark and type(parent) is not ParamTensor:
                raise UsageError("operand is neither a parameter nor a node recorded on this tape")
            if parent.live:
                live = True
        value = np.asarray(value)
        if value.dtype.kind != "f":
            value = value.astype(np.float64)
        live = live and vjp is not None
        node = Node(value, tuple(parents), vjp if live else None, live, mark)
        self.nodes.append(node)
        return node

    def constant(self, values) -> Node:
        """A leaf that receives no gradient."""
        return self.record(values)

    def _lift(self, x):
        return x if isinstance(x, (Node, ParamTensor)) else self.constant(x)

    # -- primitives ---------------------------------------------------------

    def add(self, a, b) -> Node:
        a, b = self._lift(a), self._lift(b)
        sa, sb = np.shape(a.value), np.shape(b.value)
        la, lb = a.live, b.live
        return self.record(
            a.value + b.value, (a, b),
            lambda g: (_unbroadcast(g, sa) if la else None, _unbroadcast(g, sb) if lb else None),
        )

    def mul(self, a, b) -> Node:
        """Elementwise product with numpy broadcasting."""
        a, b = self._lift(a), self._lift(b)
        sa, sb = np.shape(a.value), np.shape(b.value)
        av, bv = a.value, b.value
        la, lb = a.live, b.live
        return self.record(
            av * bv, (a, b),
            lambda g: (_unbroadcast(g * bv, sa) if la else None,
                       _unbroadcast(g * av, sb) if lb else None),
        )

    def scale(self, a: Node, c: float) -> Node:
        c = float(c)
        return self.record(a.value * c, (a,), lambda g: (g * c,))

    def affine(self, x, w, b) -> Node:
        """x @ W + b with b broadcast over rows. A weight with a leading stack
        axis, (K, in, out) with bias (K, 1, out), applies K layers at once and
        gives (K, rows, out); x is then (rows, in) or already stacked."""
        xv, wv = x.value, w.value
        if xv.shape[-1] != wv.shape[-2]:
            raise ConfigError(
                f"affine input width {xv.shape[-1]} does not match weight rows {wv.shape[-2]}"
            )
        lx, lw, lb = x.live, w.live, b.live
        return self.record(affine_value(xv, wv, b.value), (x, w, b),
                           lambda g: affine_grads(g, xv, wv, lx, lw, lb))

    def relu(self, a: Node) -> Node:
        """max(a, 0), with NaN mapped to 0."""
        av = a.value
        return self.record(np.fmax(av, 0.0), (a,), lambda g: (g * (av > 0.0),))

    def sigmoid(self, a: Node) -> Node:
        s = stable_sigmoid(a.value)
        return self.record(s, (a,), lambda g: (g * s * (1.0 - s),))

    def bridge(self, p, shift) -> Node:
        """The counterfactual bridge sigmoid(logit(p) + shift), p clamped into
        [PROB_EPS, 1 - PROB_EPS]. Fused primitive: one tape node; no gradient
        reaches p where the clamp binds."""
        p, shift = self._lift(p), self._lift(shift)
        pv, sv = p.value, shift.value
        pc = np.clip(pv, PROB_EPS, 1.0 - PROB_EPS)
        s = stable_sigmoid(np.log(pc) - np.log1p(-pc) + sv)
        lp, ls = p.live, shift.live

        def vjp(g):  # the clamp mask is built here: prediction never needs it
            gz = g * s * (1.0 - s)
            gp = None
            if lp:
                inside = (pv > PROB_EPS) & (pv < 1.0 - PROB_EPS)
                gp = _unbroadcast(gz * inside / (pc * (1.0 - pc)), np.shape(pv))
            return gp, _unbroadcast(gz, np.shape(sv)) if ls else None

        return self.record(s, (p, shift), vjp)

    def gate_merge(self, gates, task: int, experts, open) -> Node:
        """Task ``task``'s gate-weighted experts side by side: the slot-major
        gates (tasks, K, rows) and stacked expert outputs (K, rows, d) give the
        (rows, K * d) matrix whose block k is gates[task, k][:, None] *
        experts[k]. ``open``, one boolean per slot, is where the experts get a
        gradient: a closed slot's is exactly 0, as if its block were read
        through a stop-gradient."""
        ev = experts.value
        k, n, d = ev.shape
        shape = gates.value.shape
        weights = gates.value[task][:, :, None]
        open = np.asarray(open)
        lg, le = gates.live, experts.live and bool(open.any())
        factor = weights * open[:, None, None] if le else None

        def vjp(g):
            blocks = g.reshape(n, k, d).transpose(1, 0, 2)
            gg = None
            if lg:
                gg = np.zeros(shape)
                np.einsum("knd,knd->kn", blocks, ev, out=gg[task])
            return gg, blocks * factor if le else None

        return self.record(_merged(weights, ev), (gates, experts), vjp if lg or le else None)

    def stop_gradient(self, a: Node) -> Node:
        """Forward identity that passes no gradient."""
        return self.record(a.value, (a,))

    def sum_all(self, a: Node) -> Node:
        shape = a.value.shape
        return self.record(a.value.sum(), (a,), lambda g: (np.full(shape, float(g)),))

    def binary_cross_entropy(self, y, p: Node) -> Node:
        """Per-element ``cross_entropy(y, p)``, fused into one tape node."""
        value, vjp = cross_entropy(y, p.value)
        return self.record(value, (p,), lambda g: (vjp(g),))


def backward(tape: Tape) -> None:
    """Replay the tape in reverse, accumulating d(loss)/d(param) into ParamTensor.grad.

    The tape must end in a scalar node (the loss). Each node is visited
    exactly once; a node without a vjp propagates nothing upstream, and a
    vjp output of None (a dead operand) is skipped. A vjp output for a
    parameter is added into its ``grad`` at once, so a parameter's
    contributions are summed in the order they arrive. The other gradients
    live in this call alone, each dropped once it has reached the node's
    parents; a stored gradient is never changed in place, so vjp outputs are
    stored uncopied.
    """
    if not tape.nodes:
        raise UsageError("backward called before any forward computation")
    last = tape.nodes[-1]
    if np.size(last.value) != 1:
        raise UsageError(f"tape must end in a scalar node, got shape {last.shape}")
    grads = {id(last): np.full_like(last.value, 1.0)}
    for node in reversed(tape.nodes):
        g = grads.pop(id(node), None)
        if g is None or node.vjp is None:
            continue
        for parent, pg in zip(node.parents, node.vjp(g)):
            if pg is None:
                continue
            if type(parent) is ParamTensor:
                parent.grad += pg
                continue
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + pg
            else:
                grads[key] = pg


# ---------------------------------------------------------------------------
# dense layers
# ---------------------------------------------------------------------------

_ACTIVATIONS = ("linear", "relu", "sigmoid")


@dataclass
class Layer:
    """One affine layer with an optional activation."""

    W: ParamTensor
    b: ParamTensor
    activation: str = "linear"

    def __post_init__(self) -> None:
        if self.activation not in _ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def init_mlp(rng: np.random.Generator, name: str, dims: Sequence[int],
             out_activation: str = "linear") -> list[Layer]:
    """Stack of affine layers with glorot-uniform weights and zero biases;
    every hidden layer is a relu."""
    layers = []
    for i in range(len(dims) - 1):
        act = out_activation if i == len(dims) - 2 else "relu"
        layers.append(
            Layer(
                ParamTensor(f"{name}.l{i}.W", glorot_uniform(rng, dims[i], dims[i + 1])),
                ParamTensor(f"{name}.l{i}.b", np.zeros(dims[i + 1])),
                act,
            )
        )
    return layers


def mlp_params(layers: Sequence[Layer]) -> list[ParamTensor]:
    out = []
    for layer in layers:
        out.extend((layer.W, layer.b))
    return out


def checked_affine(layer: Layer, xv: np.ndarray, index: int) -> np.ndarray:
    """The affine part of one layer, xv @ W + b, on the array xv; raises
    ConfigError naming the layer when the input width does not match W, and
    NumericError naming the layer (its index and weight) when the output is
    non-finite. It checks the affine output because relu maps NaN to 0."""
    wv = layer.W.values
    if xv.shape[-1] != wv.shape[-2]:
        raise ConfigError(f"layer {index} expects input width {wv.shape[-2]}, got {xv.shape[-1]}")
    out = affine_value(xv, wv, layer.b.values)
    # a non-finite entry poisons the sum, so one reduction guards the layer;
    # np.add.reduce is ndarray.sum without its Python wrapper
    if not math.isfinite(np.add.reduce(out, None)):
        raise NumericError(f"non-finite activation after layer {index} ({layer.W.name})")
    return out


def mlp_forward(layers: Sequence[Layer], x: Node, tape: Tape) -> Node:
    """Run a layer stack on x, a node of tape, recorded as one node whose
    parents are x and every layer's W and b. Stacked layers, weights
    (K, in, out), run K stacks at once as ``Tape.affine`` does. Raises
    ConfigError or NumericError naming the layer, as ``checked_affine``."""
    hs = [x.value]  # the input, then every layer's output
    for i, layer in enumerate(layers):
        h = checked_affine(layer, hs[-1], i)
        if layer.activation == "relu":
            h = np.fmax(h, 0.0)
        elif layer.activation == "sigmoid":
            h = stable_sigmoid(h)
        hs.append(h)
    weights = [layer.W.values for layer in layers]
    acts = [layer.activation for layer in layers]
    lx = x.live

    def vjp(g):
        grads = []
        for i in reversed(range(len(weights))):
            out = hs[i + 1]
            if acts[i] == "relu":
                g = g * (out > 0.0)  # out > 0 exactly where the affine output is
            elif acts[i] == "sigmoid":
                g = g * out * (1.0 - out)
            g, gw, gb = affine_grads(g, hs[i], weights[i], lx=i > 0 or lx)
            grads += (gb, gw)
        grads.append(g)
        return grads[::-1]

    return tape.record(hs[-1], (x, *mlp_params(layers)), vjp)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class OptimizerState:
    """Adam over the parameters it packs: ``for_params`` copies their values
    and gradients into one flat float64 buffer each, in parameter order, and
    rebinds every ``ParamTensor.values`` and ``.grad`` as a view of its block.
    The moments ``m`` and ``v`` are flat too, so one step is one vectorized
    update."""

    def __init__(self, params: Sequence[ParamTensor], lr: float) -> None:
        self.lr = lr
        self.step_count = 0
        self.params = tuple(params)
        self.ends = np.cumsum([p.values.size for p in self.params], dtype=np.int64)
        size = int(self.ends[-1]) if self.params else 0
        self.values, self.grad = np.empty(size), np.empty(size)
        self.m, self.v = np.zeros(size), np.zeros(size)
        self._work = np.empty(size), np.empty(size)  # step and temporary
        for p, end in zip(self.params, self.ends.tolist()):
            start, shape = end - p.values.size, p.values.shape
            self.values[start:end] = p.values.reshape(-1)
            self.grad[start:end] = p.grad.reshape(-1)
            p.values = self.values[start:end].reshape(shape)
            p.grad = self.grad[start:end].reshape(shape)

    @classmethod
    def for_params(cls, params: Sequence[ParamTensor], lr: float = 1e-3) -> "OptimizerState":
        names = [p.name for p in params]
        if len(set(names)) != len(names):
            raise ConfigError("parameter names must be unique for optimizer state")
        return cls(params, lr)


def optimizer_step(params: Sequence[ParamTensor], state: OptimizerState) -> None:
    """One Adam update (bias-corrected) of the parameters ``state`` packed,
    which ``params`` must be, in order (UsageError otherwise); gradients are
    zeroed afterwards. A NaN or infinite gradient raises NumericError naming
    the first such parameter before any value moves."""
    if tuple(params) != state.params:
        raise UsageError("optimizer_step needs the parameters its state packed, in order")
    g = state.grad
    # a non-finite entry poisons the sum; a finite overflow is sorted out below
    if not math.isfinite(np.add.reduce(g, None)):
        bad = np.flatnonzero(~np.isfinite(g))
        if bad.size:
            p = state.params[int(np.searchsorted(state.ends, bad[0], side="right"))]
            raise NumericError(f"non-finite gradient for parameter {p.name!r}")
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    # in place, in the operation order of
    #   m = B1 m + (1 - B1) g;  v = B2 v + (1 - B2) g g
    #   values -= lr (m / bc1) / (sqrt(v / bc2) + eps)
    m, v = state.m, state.v
    step, tmp = state._work
    m *= ADAM_BETA1
    m += np.multiply(g, 1.0 - ADAM_BETA1, out=tmp)
    np.multiply(g, 1.0 - ADAM_BETA2, out=tmp)
    tmp *= g
    v *= ADAM_BETA2
    v += tmp
    np.divide(v, bc2, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += ADAM_EPS
    np.divide(m, bc1, out=step)
    step *= state.lr
    step /= tmp
    state.values -= step
    g.fill(0.0)


def minibatch_adam(params: Sequence[ParamTensor], n_rows: int, batch_loss, train, rng) -> list:
    """The training loop: ``train.epochs`` passes of Adam at rate ``train.lr``
    over rows 0..n_rows-1, each in a fresh ``rng`` permutation cut into
    batches of ``train.batch`` rows. ``batch_loss(rows, tape)`` records a
    batch's loss on a fresh tape and returns (scalar loss node, record); a
    NaN or infinite loss raises NumericError naming its epoch and batch, and
    an epoch or batch count that is not an integer of at least 1, or a rate
    that is not finite and positive, raises ConfigError naming the key.
    Returns each epoch's list of batch records."""
    for key in ("epochs", "batch"):
        value = getattr(train, key)
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ConfigError(f"train.{key} must be an integer, got {value!r}")
        if value < 1:
            raise ConfigError(f"train.{key} must be at least 1, got {value}")
    if not (math.isfinite(train.lr) and train.lr > 0):
        raise ConfigError(f"train.lr must be finite and positive, got {train.lr}")
    state = OptimizerState.for_params(params, lr=train.lr)
    records = []
    for epoch in range(train.epochs):
        perm = rng.permutation(n_rows)
        records.append([])
        for start in range(0, n_rows, train.batch):
            tape = Tape()
            loss, record = batch_loss(perm[start : start + train.batch], tape)
            if not np.isfinite(loss.value):
                raise NumericError(f"non-finite loss at epoch {epoch} batch {start // train.batch}")
            backward(tape)
            optimizer_step(params, state)
            records[-1].append(record)
    return records


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

class _PinnedTape(Tape):
    """A tape whose stopped values are pinned for the gradient checker.

    A stop-gradient, and a closed slot of ``gate_merge``'s experts, make the
    tape's gradient intentionally differ from the true derivative of the
    forward function, so central differences of the raw loss cannot match
    it. Built on an empty list, the tape appends a copy of every
    stop-gradient output and every merge's expert operand to it; built on
    the filled list, it reads the recorded values back in order: in place of
    a stop-gradient's output, and in the closed slots of a merge's experts.
    Pinning them during the perturbed evaluations turns the finite
    difference into the derivative the tape actually defines.
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

    def stop_gradient(self, a: Node) -> Node:
        node = super().stop_gradient(a)
        node.value = self._pin(a.value)
        return node

    def gate_merge(self, gates, task: int, experts, open) -> Node:
        node = super().gate_merge(gates, task, experts, open)
        ev = np.where(np.asarray(open)[:, None, None], experts.value, self._pin(experts.value))
        node.value = _merged(gates.value[task][:, :, None], ev)
        return node


def _relative_error(analytic, cd) -> float:
    """The checker's relative error of one entry; inf where it is not finite."""
    a, cd = float(analytic), float(cd)
    rel = abs(a - cd) / max(abs(a), abs(cd), 1e-8)
    return rel if math.isfinite(rel) else math.inf


def finite_diff_check(
    loss_fn: Callable[[Tape], Node],
    params: Sequence[ParamTensor],
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
        p.zero_grad()
    tape = _PinnedTape(pinned)
    loss_fn(tape)
    backward(tape)
    analytic = {p.name: p.grad.copy() for p in params}
    for p in params:
        p.zero_grad()

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
