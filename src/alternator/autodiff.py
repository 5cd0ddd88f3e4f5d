"""Dense float64 tensors with reverse-mode automatic differentiation.

A :class:`Tensor` wraps a ``numpy`` array. While a :class:`Tape` is active,
every operation appends a node holding the inputs it needs to propagate
gradients; the node list is in topological order by construction, so
:func:`backward` is a single reverse sweep with deterministic, sequential
float64 accumulation. With no active tape the same operations run
record-free, which is what the sampling and evaluation paths use. A VJP
returns one gradient per input, full-shape, except that :func:`select`
returns only its slice, which :func:`backward` adds in place.

Every operation checks its output for NaN/Inf and raises
:class:`~alternator.errors.NumericError` instead of letting non-finite
values propagate silently. The fused :func:`mlp` op checks every affine
output it computes, each hidden pre-activation and the final output, and
names the layer in its error; tanh and GELU map finite input to finite
output, so no activation output needs a check of its own, and an overflow
that tanh would squash still raises.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ConfigError, NumericError, ShapeError

__all__ = [
    "Tensor",
    "Tape",
    "backward",
    "finite_difference_check",
    "add",
    "sub",
    "mul",
    "neg",
    "scale",
    "shift",
    "matmul",
    "transpose",
    "tanh",
    "gelu",
    "softmax",
    "square",
    "total_sum",
    "concat",
    "stack",
    "reshape",
    "mean_rows",
    "select",
    "mlp",
]

_TAPE_STACK: list["Tape"] = []


def _active_tape() -> "Tape | None":
    return _TAPE_STACK[-1] if _TAPE_STACK else None


class _Node:
    """One recorded operation: parent nodes plus a vector-Jacobian product."""

    __slots__ = ("parents", "vjp", "idx")

    def __init__(self, parents, vjp, idx):
        self.parents = parents
        self.vjp = vjp
        self.idx = idx


class Tape:
    """Ordered operation records for one forward pass.

    Tapes nest via ``with`` but are never shared across threads; forward and
    backward over a single tape are single-threaded by contract.
    """

    def __init__(self):
        self.nodes: list[_Node] = []
        self._leaves: dict[int, _Node] = {}
        self._leaf_refs: list["Tensor"] = []

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPE_STACK.pop()
        assert popped is self

    def _new_node(self, parents, vjp) -> _Node:
        node = _Node(parents, vjp, len(self.nodes))
        self.nodes.append(node)
        return node

    def leaf(self, tensor: "Tensor") -> _Node:
        """Return (creating on first use) the leaf node for ``tensor``."""
        node = self._leaves.get(id(tensor))
        if node is None:
            node = self._new_node((), None)
            self._leaves[id(tensor)] = node
            self._leaf_refs.append(tensor)  # pin so id() stays unambiguous
        return node

    def leaf_node_of(self, tensor: "Tensor") -> "_Node | None":
        return self._leaves.get(id(tensor))


def _check_finite(data: np.ndarray, op: str) -> np.ndarray:
    if not np.all(np.isfinite(data)):
        raise NumericError(f"{op} produced non-finite values")
    return data


class Tensor:
    """A dense float64 array plus an optional tape node."""

    __slots__ = ("data", "node")

    def __init__(self, data, node: "_Node | None" = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.node = node

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor({self.data!r})"


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _node_of(tape: Tape, t: Tensor) -> _Node:
    return t.node if t.node is not None else tape.leaf(t)


def _emit(op: str, out_data: np.ndarray, inputs: Sequence[Tensor], vjp) -> Tensor:
    """Finish an operation: finiteness check, then record if taping."""
    _check_finite(out_data, op)
    return _record(out_data, inputs, vjp)


def _record(out_data: np.ndarray, inputs: Sequence[Tensor], vjp) -> Tensor:
    """Wrap an already checked result, recording it if a tape is active."""
    tape = _active_tape()
    if tape is None:
        return Tensor(out_data)
    parents = tuple(_node_of(tape, t) for t in inputs)
    return Tensor(out_data, tape._new_node(parents, vjp))


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` to undo numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def add(a: Tensor, b: Tensor) -> Tensor:
    a_shape, b_shape = a.data.shape, b.data.shape  # shapes only, so the inputs can be freed

    def vjp(g):
        return _unbroadcast(g, a_shape), _unbroadcast(g, b_shape)

    return _emit("add", a.data + b.data, (a, b), vjp)


def sub(a: Tensor, b: Tensor) -> Tensor:
    a_shape, b_shape = a.data.shape, b.data.shape

    def vjp(g):
        return _unbroadcast(g, a_shape), _unbroadcast(-g, b_shape)

    return _emit("sub", a.data - b.data, (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data
    a_data, b_data = a.data, b.data

    def vjp(g):
        return _unbroadcast(g * b_data, a_data.shape), _unbroadcast(g * a_data, b_data.shape)

    return _emit("mul", out, (a, b), vjp)


def neg(a: Tensor) -> Tensor:
    return _emit("neg", -a.data, (a,), lambda g: (-g,))


def scale(a: Tensor, c) -> Tensor:
    """Multiply by a constant scalar or an array broadcastable to ``a``; ``c`` gets no gradient."""
    return _emit("scale", a.data * c, (a,), lambda g: (g * c,))


def shift(a: Tensor, c) -> Tensor:
    """Add a constant array or scalar; ``c`` receives no gradient."""
    c = np.asarray(c, dtype=np.float64)
    shape = a.data.shape

    def vjp(g):
        return (_unbroadcast(g, shape),)

    return _emit("shift", a.data + c, (a,), vjp)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched ``(..., n, k) @ (..., k, m)``; leading axes broadcast as in numpy."""
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul expects operands of at least 2-D, got {a.shape} @ {b.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} @ {b.shape}")
    out = a.data @ b.data
    a_data, b_data = a.data, b.data

    def vjp(g):
        return (_unbroadcast(g @ b_data.swapaxes(-1, -2), a_data.shape),
                _unbroadcast(a_data.swapaxes(-1, -2) @ g, b_data.shape))

    return _emit("matmul", out, (a, b), vjp)


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes."""
    if a.data.ndim < 2:
        raise ShapeError(f"transpose expects an operand of at least 2-D, got {a.shape}")
    return _emit("transpose", a.data.swapaxes(-1, -2).copy(), (a,),
                 lambda g: (g.swapaxes(-1, -2),))


# Each activation returns its output and a thunk for its elementwise
# derivative; tanh, gelu and the fused mlp op all take both from here.
def _tanh_parts(x: np.ndarray):
    out = np.tanh(x)
    return out, lambda: 1.0 - out * out


_GELU_C = float(np.sqrt(2.0 / np.pi))
_GELU_A = 0.044715


def _gelu_parts(x: np.ndarray):
    t = np.tanh(_GELU_C * (x + _GELU_A * x**3))

    def derivative():
        sech2 = 1.0 - t * t
        return 0.5 * (1.0 + t) + 0.5 * x * sech2 * _GELU_C * (1.0 + 3.0 * _GELU_A * x * x)

    return 0.5 * x * (1.0 + t), derivative


_ACTIVATIONS = {"tanh": _tanh_parts, "gelu": _gelu_parts}


def tanh(a: Tensor) -> Tensor:
    out, derivative = _tanh_parts(a.data)
    return _emit("tanh", out, (a,), lambda g: (g * derivative(),))


def gelu(a: Tensor) -> Tensor:
    """GELU via the tanh approximation ``0.5*x*(1 + tanh(c*(x + a*x^3)))``."""
    out, derivative = _gelu_parts(a.data)
    return _emit("gelu", out, (a,), lambda g: (g * derivative(),))


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    x = a.data
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return ((g - dot) * out,)

    return _emit("softmax", out, (a,), vjp)


def square(a: Tensor) -> Tensor:
    a_data = a.data

    def vjp(g):
        return (2.0 * g * a_data,)

    return _emit("square", a_data * a_data, (a,), vjp)


def total_sum(a: Tensor) -> Tensor:
    """Sum of all elements, as a 0-d tensor."""
    shape = a.data.shape

    def vjp(g):
        return (np.broadcast_to(g, shape).copy(),)

    return _emit("total_sum", np.asarray(a.data.sum()), (a,), vjp)


def concat(parts: Sequence[Tensor], axis: int = -1) -> Tensor:
    arrays = [p.data for p in parts]
    out = np.concatenate(arrays, axis=axis)
    sizes = [arr.shape[axis] for arr in arrays]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return _emit("concat", out, tuple(parts), vjp)


def stack(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack equal-shape tensors along a new ``axis``; the VJP returns the slices."""
    out = np.stack([p.data for p in parts], axis=axis)
    return _emit("stack", out, tuple(parts), lambda g: tuple(np.moveaxis(g, axis, 0)))


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    old = a.data.shape

    def vjp(g):
        return (g.reshape(old),)

    return _emit("reshape", a.data.reshape(shape), (a,), vjp)


def mean_rows(a: Tensor) -> Tensor:
    """Mean over axis -2: (..., n, d) -> (..., d)."""
    if a.data.ndim < 2:
        raise ShapeError(f"mean_rows expects an operand of at least 2-D, got {a.shape}")
    shape = a.data.shape

    def vjp(g):
        return (np.broadcast_to(np.expand_dims(g / shape[-2], -2), shape).copy(),)

    return _emit("mean_rows", a.data.mean(axis=-2), (a,), vjp)


class _SliceGrad:
    """A VJP result that is zero outside one slice; backward adds ``g`` there in place."""

    __slots__ = ("shape", "axis", "index", "g")

    def __init__(self, shape, axis, index, g):
        self.shape, self.axis, self.index, self.g = shape, axis, index, g


def select(a: Tensor, index: int, axis: int = 0) -> Tensor:
    """The slice at ``index`` along ``axis``, without that axis.

    Its gradient is zero outside that slice, so the VJP hands backward only
    the slice: T selects from a (B, T, d) tensor cost O(B*T*d) in backward,
    not O(B*T^2*d).
    """
    shape = a.data.shape

    def vjp(g):
        return (_SliceGrad(shape, axis, index, g),)

    return _emit("select", np.take(a.data, index, axis=axis), (a,), vjp)


def mlp(x: Tensor, layers: Sequence[tuple[Tensor, Tensor]], activation: str) -> Tensor:
    """Fused MLP, one tape node: ``h = act(h @ W + b)`` per hidden layer, then ``h @ W + b``.

    ``x`` is (batch, in_dim) and ``layers`` the (weight, bias) pairs, the
    output layer last. Forward and VJP do the arithmetic of the
    matmul/add/activation chain in the same order, so values and gradients
    are bitwise equal to it. Each affine output is checked for finiteness.
    """
    act = _ACTIVATIONS.get(activation)
    if act is None:
        raise ConfigError(f"unknown activation: {activation!r}")
    last = len(layers) - 1
    h = x.data
    hs, derivatives = [], []      # each layer's input, each hidden layer's derivative
    for k, (w, b) in enumerate(layers):
        if h.ndim != 2 or h.shape[1] != w.data.shape[0] or w.data.shape[1:] != b.data.shape:
            raise ShapeError(f"mlp layer {k}: input {h.shape}, weights {w.shape}, bias {b.shape}")
        hs.append(h)
        h = h @ w.data
        h += b.data
        _check_finite(h, "mlp output" if k == last else f"mlp layer {k}")
        if k < last:
            h, derivative = act(h)
            derivatives.append(derivative)
    weights = [w.data for w, _ in layers]
    bias_shapes = [b.data.shape for _, b in layers]

    def vjp(g):
        grads = []
        for k in range(last, -1, -1):
            if k < last:
                g = g * derivatives[k]()
            grads += (_unbroadcast(g, bias_shapes[k]), hs[k].swapaxes(-1, -2) @ g)
            g = g @ weights[k].swapaxes(-1, -2)
        grads.append(g)
        return tuple(reversed(grads))

    inputs = [x] + [t for pair in layers for t in pair]
    return _record(h, inputs, vjp)


class Gradients:
    """Gradients from one backward sweep, queryable per tensor."""

    def __init__(self, tape: Tape, grads: list):
        self._tape = tape
        self._grads = grads

    def of(self, tensor: Tensor) -> np.ndarray:
        """Gradient of the loss w.r.t. ``tensor`` (zeros if unreachable)."""
        node = tensor.node if tensor.node is not None else self._tape.leaf_node_of(tensor)
        if (
            node is None
            or node.idx >= len(self._tape.nodes)
            or self._tape.nodes[node.idx] is not node  # recorded on another tape
            or self._grads[node.idx] is None
        ):
            return np.zeros_like(tensor.data)
        return self._grads[node.idx]


def backward(tape: Tape, loss: Tensor) -> Gradients:
    """Reverse sweep from ``loss`` over ``tape``.

    ``loss`` must be a scalar recorded on ``tape``. Accumulation is ordinary
    float64 addition in a fixed sequential order, so results are bitwise
    reproducible. A slice gradient from :func:`select` is added into its
    slice of the input's gradient, which starts as zeros.
    """
    if loss.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.shape}")
    if (
        loss.node is None
        or loss.node.idx >= len(tape.nodes)
        or tape.nodes[loss.node.idx] is not loss.node
    ):
        raise ValueError("loss was not recorded on this tape")
    grads: list = [None] * len(tape.nodes)
    grads[loss.node.idx] = np.ones_like(loss.data)
    for node in reversed(tape.nodes):
        g = grads[node.idx]
        if g is None or node.vjp is None:
            continue
        for parent, contrib in zip(node.parents, node.vjp(g)):
            if isinstance(contrib, _SliceGrad):
                if grads[parent.idx] is None:
                    grads[parent.idx] = np.zeros(contrib.shape)
                np.moveaxis(grads[parent.idx], contrib.axis, 0)[contrib.index] += contrib.g
            elif grads[parent.idx] is None:
                grads[parent.idx] = np.array(contrib, dtype=np.float64, copy=True)
            else:
                grads[parent.idx] += contrib
    return Gradients(tape, grads)


def finite_difference_check(
    loss_fn: Callable[[], Tensor],
    params: Iterable[Tensor],
    h: float = 1e-5,
) -> float:
    """Worst relative error between analytic and central-difference gradients.

    ``loss_fn`` rebuilds the scalar loss from the current parameter values;
    the parameters are perturbed one coordinate at a time. The relative error
    denominator is ``max(|analytic|, |numeric|, 1e-8)``.
    """
    if h <= 0:
        raise ValueError("finite difference step must be positive")
    params = list(params)
    with Tape() as tape:
        loss = loss_fn()
    grads = backward(tape, loss)
    analytic = [grads.of(p) for p in params]

    worst = 0.0
    for p, ana in zip(params, analytic):
        flat = p.data.reshape(-1)
        ana_flat = ana.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            f_plus = loss_fn().item()
            flat[i] = orig - h
            f_minus = loss_fn().item()
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            denom = max(abs(ana_flat[i]), abs(numeric), 1e-8)
            worst = max(worst, abs(ana_flat[i] - numeric) / denom)
    return worst
