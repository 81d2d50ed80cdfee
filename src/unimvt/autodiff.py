"""Tape-based reverse-mode autodiff over float64 numpy arrays.

This is the substrate everything else is built on. A ``Tape`` has three
methods, ``record``, ``constant`` and ``detach``, and no arithmetic of its
own: every step, a fused network or a loss, is one ``Tape.record`` node
with the caller's vjp, built on kernels that return a value and its vjp:
``mlp`` (a whole layer stack, also a stack of K same-shaped stacks, which
``mlp_forward`` records as one node), ``cross_entropy`` and ``bridge`` (the
counterfactual bridge over p, t_hat and eta), around the affine pair
``affine_value`` and ``affine_grads``. Data, such as the features, is an
array that a node reads and not a node of the tape; a value read off a
parameter that passes no gradient goes through ``Tape.detach`` inside the
fused node, which records nothing but lets a gradient checker replay it,
and ``Tape.constant`` makes an array a leaf node. Around them: dense
layers, weights alone, which ``mlp`` runs with a relu between them and the
last left linear (``init_stacked_mlp`` draws K same-shaped stacks as one),
an Adam optimizer with the one minibatch training loop and ``row_blocks``
(the ``SCORE_ROWS``-row blocks that every scoring call scores in turn).

``Tape.record(value, parents, vjp)`` keeps a float ndarray value as it is,
uncopied, so its caller hands it over and does not change it afterwards;
any other value becomes a float array (float64 unless it already has a
float dtype). A vjp may read its layers' weights when it runs: ``backward``
runs before the optimizer moves them.

Values are numpy float64 arrays, either 2-D ``(rows, cols)`` matrices
(row = sample), 1-D bias vectors, 0-D scalars (loss values), or 3-D
``(K, ...)`` stacks of K same-shaped layers' weights and outputs. A ``Tape``
records every node in creation order (``tape.record(value, parents,
vjp)``); ``backward`` replays it once in reverse, so creation order doubles
as the topological order.

Who owns what: a ``ParamTensor`` holds its values and its accumulated
gradient and outlives every tape; once an ``OptimizerState`` has packed it,
both are views of that state's flat buffers, which own the memory. A
parameter is a leaf of every tape, not a node of one: a node takes the
``ParamTensor`` itself as a parent, and ``backward`` adds each gradient
that reaches it into ``ParamTensor.grad`` as it arrives. A ``Tape`` owns its
nodes. A ``Node`` holds its value, its parents (nodes of its tape and
parameters), the vjp that maps its gradient to theirs and its tape's mark (a
token, not the tape); it holds no gradient. The gradients of one
``backward`` call live in that call. References thus run one way, from a
tape to its nodes and from a node to its parents, so a spent tape is freed
by reference counting as soon as its last reference goes. The module holds
no mutable state.

Every node the model records reaches a parameter, so there is no liveness
to track: a vjp gives one gradient per parent, and a constant, a node
without a vjp, stops whatever reaches it.

The hot kernels avoid data-dependent selects, which are slow on random
signs, and per-call dispatch, which dominates one-row prediction: the relu
is ``np.fmax(a, ZERO)``; the sigmoid is one ufunc, ``scipy.special.expit``,
which keeps extended precision and stays silent at any input;
``affine_value`` adds the bias in place onto the fresh product unless that
would downcast it; in ``affine_grads`` the bias gradient is the BLAS product
``ones(rows) @ g`` and the x gradient reads a contiguous copy of W^T.
Their constant operands are the read-only 0-d float64 arrays ``ZERO``,
``TWO``, ``PROB_LO`` and ``PROB_HI`` (and a model's own, such as
``htenet.HteParams.t_bounds``), because a ufunc converts a Python float
operand on every call; a 0-d float64 array promotes as that float does, so
float64 stays float64 and a longdouble operand stays longdouble. Each
layer's finiteness guard, ``nonfinite``, is one ``np.vdot(out, out)``: a
finite sum of squares means that every entry and their plain sum are
finite, and only when it is not does the plain sum decide, so a guard
raises on exactly the outputs whose sum is not finite.
``datagen.feature_matrix`` runs the same vdot before its entry scan.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import expit

from .errors import ConfigError, NumericError, UsageError

PROB_EPS = 1e-7  # probabilities are clamped to [PROB_EPS, 1 - PROB_EPS] before logs/logits
SCORE_ROWS = 256  # rows a scoring call records on one tape: the default train.batch


def const(value: float) -> np.ndarray:
    """value as a read-only 0-d float64 array, a hot kernel's constant operand."""
    array = np.array(value, dtype=np.float64)
    array.flags.writeable = False
    return array


ZERO, TWO = const(0.0), const(2.0)
PROB_LO, PROB_HI = const(PROB_EPS), const(1.0 - PROB_EPS)  # the probability clamp's bounds


def nonfinite(out: np.ndarray) -> bool:
    """Whether the plain sum of out is not finite, the test of every layer's
    guard: true when an entry is NaN or infinite, or when only the total
    overflows. One vdot decides when it is finite, since a finite sum of
    squares means that every entry and their sum are finite; only when it is
    not does the sum itself decide (np.add.reduce is ndarray.sum without its
    Python wrapper)."""
    return not math.isfinite(np.vdot(out, out)) and not math.isfinite(np.add.reduce(out, None))


def row_blocks(n: int) -> list[slice]:
    """Rows 0..n-1 in blocks of SCORE_ROWS, each scored on a fresh tape so
    that a scoring call holds one block's tape; one block when n <= SCORE_ROWS,
    n = 0 included."""
    if n <= SCORE_ROWS:
        return [slice(0, n)]
    return [slice(start, start + SCORE_ROWS) for start in range(0, n, SCORE_ROWS)]


def affine_value(xv: np.ndarray, wv: np.ndarray, bv: np.ndarray) -> np.ndarray:
    """x @ W + b, the bias added in place onto the fresh product unless that
    would downcast it (a longdouble b on a float64 product)."""
    out = xv @ wv
    if bv.dtype is out.dtype or np.can_cast(bv.dtype, out.dtype):
        out += bv
    else:
        out = out + bv
    return out


def affine_grads(g, xv, wv, lx=True) -> tuple:
    """The vjp of x @ W + b for the output gradient g: the gradients of x
    (None unless lx), W and b. The bias gradient sums g over its rows as one
    BLAS product, (K, 1, out) for a stack; the x gradient reads W^T as a
    contiguous copy."""
    ones = np.ones((1, g.shape[-2]) if g.ndim > 2 else g.shape[-2])
    # a contiguous W^T: numpy's stacked matmul on a transposed view skips BLAS
    return (g @ np.ascontiguousarray(wv.swapaxes(-1, -2)) if lx else None,
            xv.swapaxes(-1, -2) @ g, ones @ g)


def cross_entropy(y, pv: np.ndarray) -> tuple:
    """-[y log p + (1-y) log(1-p)] per element of pv clamped into [PROB_EPS, 1 - PROB_EPS],
    and its vjp in p: g (p - y) / (p (1 - p)) where the clamp does not bind, 0 where it does."""
    yv = np.asarray(y, dtype=np.float64)
    pc = np.clip(pv, PROB_LO, PROB_HI)
    inside = (pv > PROB_LO) & (pv < PROB_HI)
    value = -(yv * np.log(pc) + (1.0 - yv) * np.log1p(-pc))
    return value, lambda g: g * inside * (pc - yv) / (pc * (1.0 - pc))


def bridge(pv, tv, ev, sign: float = 1.0) -> tuple:
    """The counterfactual bridge sigmoid(logit(p) + sign * t_hat * eta) on the
    arrays pv, tv and ev, p clamped into [PROB_EPS, 1 - PROB_EPS], and its
    vjp: the gradients of p, t_hat and eta, each in the broadcast shape; no
    gradient reaches p where the clamp binds. The shift is (t_hat * eta) *
    sign and its gradient (gz * sign) * eta, so a bridge at sign -1 negates
    both exactly."""
    pc = np.minimum(np.maximum(pv, PROB_LO), PROB_HI)  # np.clip without its wrapper
    s = expit(np.log(pc) - np.log1p(-pc) + tv * ev * sign)

    def vjp(g):  # the clamp mask is built here: prediction never needs it
        gz = g * s * (1.0 - s)
        inside = (pv > PROB_LO) & (pv < PROB_HI)
        gs = gz * sign
        return gz * inside / (pc * (1.0 - pc)), gs * ev, gs * tv

    return s, vjp


class ParamTensor:
    """Trainable tensor with a persistent accumulated gradient; an
    OptimizerState that packs it rebinds both as views of its buffers. It is
    an operand of any tape's nodes and recorded on none."""

    __slots__ = ("name", "values", "grad")
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

    def __repr__(self) -> str:
        return f"ParamTensor({self.name!r}, shape={self.values.shape})"


class Node:
    """One tape entry: a value plus the recipe for pushing gradients to parents.

    The vjp maps the node's gradient to one gradient per parent; a node
    without one, such as a constant, passes nothing upstream.
    """

    __slots__ = ("value", "parents", "vjp", "mark")

    def __init__(self, value, parents, vjp, mark):
        self.value = value
        self.parents = parents
        self.vjp = vjp
        self.mark = mark  # the recording tape's mark, which is not the tape

    @property
    def shape(self) -> tuple[int, ...]:
        return np.shape(self.value)


class Tape:
    """Ordered record of fused nodes, replayed in reverse by backward().

    ``record`` appends one node whose parents must be ParamTensors or nodes
    recorded on this tape (UsageError otherwise). A node reads data, such as
    the features, as an array and not as a parent; an array that must be a
    node enters as ``constant``. No vjp closes over the tape, so references
    run one way.
    """

    def __init__(self) -> None:
        self.nodes: list[Node] = []
        self._mark = object()  # stamped on every node recorded here

    def record(self, value, parents=(), vjp=None) -> Node:
        mark = self._mark
        for parent in parents:
            if parent.mark is not mark and type(parent) is not ParamTensor:
                raise UsageError("operand is neither a parameter nor a node recorded on this tape")
        if type(value) is not np.ndarray or value.dtype.kind != "f":
            value = np.asarray(value)
            if value.dtype.kind != "f":
                value = value.astype(np.float64)
        node = Node(value, tuple(parents), vjp, mark)
        self.nodes.append(node)
        return node

    def constant(self, values) -> Node:
        """A leaf without a vjp: it passes on no gradient that reaches it."""
        return self.record(values)

    def detach(self, values):
        """values as read through a stop-gradient inside the node about to be
        recorded: the values themselves, recording nothing. A fused node
        reads such an input this way so that a gradient checker's tape, which
        replays every constant at its unperturbed value, can replay it too."""
        return values


def backward(tape: Tape) -> None:
    """Replay the tape in reverse, accumulating d(loss)/d(param) into ParamTensor.grad.

    The tape must end in a scalar node (the loss). Each node is visited
    exactly once; a node that no gradient reached, or that has no vjp (a
    constant), propagates nothing upstream. A vjp output for a
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

@dataclass
class Layer:
    """One affine layer, x @ W + b: its weights alone, with no activation."""

    W: ParamTensor
    b: ParamTensor


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def init_mlp(rng: np.random.Generator, name: str, dims: Sequence[int]) -> list[Layer]:
    """Stack of affine layers with glorot-uniform weights, drawn layer by
    layer, and zero biases, for ``mlp_forward``."""
    return [Layer(ParamTensor(f"{name}.l{i}.W", glorot_uniform(rng, fan_in, fan_out)),
                  ParamTensor(f"{name}.l{i}.b", np.zeros(fan_out)))
            for i, (fan_in, fan_out) in enumerate(zip(dims, dims[1:]))]


def init_stacked_mlp(rng: np.random.Generator, name: str, dims: Sequence[int],
                     k: int) -> list[Layer]:
    """k same-shaped ``init_mlp`` stacks as one stack of layers, weights (k,
    in, out) and biases (k, 1, out): stack j's slice holds the draws the j-th
    of k ``init_mlp`` calls in a row would take, layer by layer."""
    draws = [[glorot_uniform(rng, fan_in, fan_out) for fan_in, fan_out in zip(dims, dims[1:])]
             for _ in range(k)]
    return [Layer(ParamTensor(f"{name}.l{i}.W", np.stack(weights)),
                  ParamTensor(f"{name}.l{i}.b", np.zeros((k, 1, dims[i + 1]))))
            for i, weights in enumerate(zip(*draws))]


def mlp_params(layers: Sequence[Layer]) -> list[ParamTensor]:
    out = []
    for layer in layers:
        out.extend((layer.W, layer.b))
    return out


def checked_affine(layer: Layer, xv: np.ndarray, index: int,
                   parts: Sequence[str] = ()) -> np.ndarray:
    """The affine part of one layer, xv @ W + b, on the array xv; raises
    ConfigError naming the layer when the input width does not match W, and
    NumericError naming the layer (its index and weight) when the output is
    non-finite, and for a stacked layer whose slices ``parts`` names, the
    first slice with a non-finite output (the last if only the total
    overflowed). It checks the affine output because relu maps NaN to 0."""
    wv = layer.W.values
    if xv.shape[-1] != wv.shape[-2]:
        raise ConfigError(f"layer {index} expects input width {wv.shape[-2]}, got {xv.shape[-1]}")
    out = affine_value(xv, wv, layer.b.values)
    if nonfinite(out):  # a non-finite entry poisons the sum
        where = layer.W.name
        if parts:
            where += ", " + next((part for part, o in zip(parts, out)
                                  if not math.isfinite(np.add.reduce(o, None))), parts[-1])
        raise NumericError(f"non-finite activation after layer {index} ({where})")
    return out


def mlp(layers: Sequence[Layer], xv: np.ndarray) -> tuple:
    """A layer stack on the array xv, with a relu between layers and the last
    linear, and its vjp: every layer's W and b gradients (xv is data and
    gets none). Stacked layers, weights (K, in, out) with biases (K, 1,
    out), run K stacks at once and give (K, rows, out); xv is then (rows, in)
    or already stacked. Raises ConfigError or NumericError naming the layer,
    as ``checked_affine``."""
    hs = [xv]  # the input, then every layer's output
    for i, layer in enumerate(layers):
        h = checked_affine(layer, hs[-1], i)
        hs.append(np.fmax(h, ZERO) if i < len(layers) - 1 else h)

    def vjp(g):
        grads = []
        for i in reversed(range(len(layers))):
            if i < len(layers) - 1:
                g = g * (hs[i + 1] > ZERO)  # out > 0 exactly where the affine output is
            g, gw, gb = affine_grads(g, hs[i], layers[i].W.values, lx=i > 0)
            grads += (gb, gw)
        return grads[::-1]

    return hs[-1], vjp


def mlp_forward(layers: Sequence[Layer], xv: np.ndarray, tape: Tape) -> Node:
    """``mlp`` on the array xv as one node of tape whose parents are every
    layer's W and b."""
    value, vjp = mlp(layers, xv)
    return tape.record(value, mlp_params(layers), vjp)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class OptimizerState:
    """Adam over the parameters it packs: it copies their values and
    gradients into one flat float64 buffer each, in parameter order, and
    rebinds every ``ParamTensor.values`` and ``.grad`` as a view of its block.
    The moments ``m`` and ``v`` are flat too, so one step is one vectorized
    update. Parameter names must be unique (ConfigError otherwise)."""

    def __init__(self, params: Sequence[ParamTensor], lr: float = 1e-3) -> None:
        names = [p.name for p in params]
        if len(set(names)) != len(names):
            raise ConfigError("parameter names must be unique for optimizer state")
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


def optimizer_step(state: OptimizerState) -> None:
    """One Adam update (bias-corrected) of the parameters ``state`` packed;
    gradients are zeroed afterwards. A NaN or infinite gradient raises
    NumericError naming the first such parameter before any value moves."""
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
    NaN or infinite loss raises NumericError naming its epoch and batch.
    Returns each epoch's list of batch records."""
    state = OptimizerState(params, lr=train.lr)
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
            optimizer_step(state)  # the module global, which a tracer may rebind
            records[-1].append(record)
    return records
