"""Dense float64 tensors with reverse-mode automatic differentiation.

A :class:`Tensor` wraps a ``numpy`` array. While a :class:`Tape` is active,
every operation appends a node holding the inputs it needs to propagate
gradients; the node list is in topological order by construction, so
:func:`backward` is a single reverse sweep with deterministic, sequential
float64 accumulation. With no active tape the same operations run
record-free, which is what the sampling and evaluation paths use.

Every operation checks its output for NaN/Inf and raises
:class:`~alternator.errors.NumericError` instead of letting non-finite
values propagate silently.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import NumericError, ShapeError

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
    "take_rows",
    "mean_rows",
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

    # Operator sugar; constants may be floats or arrays.
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __radd__(self, other):
        return add(_as_tensor(other), self)

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __rsub__(self, other):
        return sub(_as_tensor(other), self)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, _as_tensor(other))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, _as_tensor(other))


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _node_of(tape: Tape, t: Tensor) -> _Node:
    return t.node if t.node is not None else tape.leaf(t)


def _emit(op: str, out_data: np.ndarray, inputs: Sequence[Tensor], vjp) -> Tensor:
    """Finish an operation: finiteness check, then record if taping."""
    _check_finite(out_data, op)
    tape = _active_tape()
    if tape is None:
        return Tensor(out_data)
    parents = tuple(_node_of(tape, t) for t in inputs)
    return Tensor(out_data, tape._new_node(parents, vjp))


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` to undo numpy broadcasting."""
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
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.shape} @ {b.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} @ {b.shape}")
    out = a.data @ b.data
    a_data, b_data = a.data, b.data

    def vjp(g):
        return g @ b_data.T, a_data.T @ g

    return _emit("matmul", out, (a, b), vjp)


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose expects a 2-D operand, got {a.shape}")
    return _emit("transpose", a.data.T.copy(), (a,), lambda g: (g.T,))


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)

    def vjp(g):
        return (g * (1.0 - out * out),)

    return _emit("tanh", out, (a,), vjp)


_GELU_C = float(np.sqrt(2.0 / np.pi))
_GELU_A = 0.044715


def gelu(a: Tensor) -> Tensor:
    """GELU via the tanh approximation ``0.5*x*(1 + tanh(c*(x + a*x^3)))``."""
    x = a.data
    inner = _GELU_C * (x + _GELU_A * x**3)
    t = np.tanh(inner)
    out = 0.5 * x * (1.0 + t)

    def vjp(g):
        sech2 = 1.0 - t * t
        d = 0.5 * (1.0 + t) + 0.5 * x * sech2 * _GELU_C * (1.0 + 3.0 * _GELU_A * x * x)
        return (g * d,)

    return _emit("gelu", out, (a,), vjp)


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


def take_rows(a: Tensor, start: int, stop: int) -> Tensor:
    """Contiguous row slice ``a[start:stop]`` of a 2-D tensor."""
    if a.data.ndim != 2:
        raise ShapeError(f"take_rows expects a 2-D operand, got {a.shape}")
    full_shape = a.data.shape

    def vjp(g):
        out = np.zeros(full_shape)
        out[start:stop] = g
        return (out,)

    return _emit("take_rows", a.data[start:stop].copy(), (a,), vjp)


def mean_rows(a: Tensor) -> Tensor:
    """Mean over axis 0 of a 2-D tensor."""
    if a.data.ndim != 2:
        raise ShapeError(f"mean_rows expects a 2-D operand, got {a.shape}")
    n, _ = a.data.shape

    def vjp(g):
        return (np.broadcast_to(g / n, a.data.shape).copy(),)

    return _emit("mean_rows", a.data.mean(axis=0), (a,), vjp)


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
    reproducible.
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
            if grads[parent.idx] is None:
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
