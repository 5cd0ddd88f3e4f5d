"""Dense float64 tensors with reverse-mode automatic differentiation.

A :class:`Tensor` wraps a ``numpy`` array. While a :class:`Tape` is active,
every operation appends a node holding the inputs it needs to propagate
gradients; the node list is in topological order by construction, so
:func:`backward` is a single reverse sweep with deterministic, sequential
float64 accumulation. With no active tape the same operations run
record-free, which is what the sampling and evaluation paths use. A VJP
returns one gradient per input, full-shape, except that :func:`select`
returns only its slice, which :func:`backward` adds in place.

Two ops fuse what would otherwise be many nodes. :func:`mlp` runs a whole
MLP as one node. :func:`latent_recursion` runs the teacher-forced latent
recursion, T steps of one MLP and a few elementwise terms, as one node:
its forward and VJP loop over the steps in plain numpy; it is the one
training recursion. Both share the MLP's forward and VJP code, so the
arithmetic lives in one place; every hidden layer is tanh. The schedule's
coefficient rule is written once, in :func:`_mix`: the recursion calls it
at each step, and both means of :mod:`alternator.core` call :func:`mix`,
the rule as one node. :func:`matmul`, :func:`tanh`, :func:`neg`,
:func:`mul` and :func:`stack` are on no path of the library: the tests
build the fused ops' reference op chains and the finite-difference
properties from them.

The sweep allocates only where the arithmetic needs a new array. The fused
MLP applies tanh in place on its own pre-activation buffer, and its VJP
turns each saved hidden activation into that layer's gradient in the same
buffer. A node's VJP may therefore consume what its forward saved, so
a tape can be swept once: a second :func:`backward` over it raises
``ValueError``. The sweep drops each node's VJP once it has run, and with
it the buffers its forward saved, and then the node's gradient too unless
the caller asked for it in ``wrt``: a graph's activations and intermediate
gradients are freed while the sweep runs, and only the wanted gradients
outlive it. :func:`backward` keeps a node's first gradient contribution as
the VJP returned it (borrowed: it may be another node's gradient, or a
view of one) and never writes into it. A second contribution makes a new
array that backward owns, and later ones are added to that in place, so
the float64 additions are the same as when every first contribution was
copied. Each result is a copy of its own, so no two results share storage
with each other or with the sweep.

Every operation checks its output for NaN/Inf and raises
:class:`~alternator.errors.NumericError` instead of letting non-finite
values propagate silently. The fused MLP checks every affine output it
computes, each hidden pre-activation and the final output, and names the
layer in its error (:func:`latent_recursion` also names the step); tanh
maps finite input to finite output, so no activation output needs a check
of its own, and an overflow that tanh would squash still raises.
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
    "mix",
    "matmul",
    "tanh",
    "square",
    "total_sum",
    "concat",
    "stack",
    "reshape",
    "select",
    "mlp",
    "latent_recursion",
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
        self._swept = False           # set by backward, whose VJPs may consume saved buffers

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


def _check_finite(data: np.ndarray, op: str) -> np.ndarray:
    if not np.isfinite(data).all():
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


def _mix(first: np.ndarray, a, second: "np.ndarray | None", c) -> np.ndarray:
    """``first * a + second * c``, a mean network's output mixed with a noise model's.

    Where ``c`` is exactly 0 everywhere the second term is skipped and
    ``second`` may be None, so the schedule boundary stays bitwise exact.
    """
    out = first * a
    if np.any(c != 0.0):
        out += second * c
    return out


def mix(first: Tensor, a, second: "Tensor | None", c) -> Tensor:
    """:func:`_mix` as one node: constant ``a`` and ``c``, ``second`` a parent only if used."""
    used = bool(np.any(c != 0.0))
    out = _mix(first.data, a, second.data if used else None, c)

    def vjp(g):
        return (g * a, g * c) if used else (g * a,)

    return _emit("mix", out, (first, second) if used else (first,), vjp)


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


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)   # the output is the caller's, so its VJP must not consume it
    return _emit("tanh", out, (a,), lambda g: (g * (1.0 - out * out),))


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


def _mlp_forward(x: np.ndarray, layers, where: str):
    """The fused MLP's forward on arrays: (output, what :func:`_mlp_vjp` needs).

    ``layers`` are (weight, bias) array pairs, the output layer last. Each
    affine output is checked for finiteness, and an error names ``where``
    and the layer. tanh is applied in place on each hidden pre-activation.
    ``x`` is never written.
    """
    last = len(layers) - 1
    h = x
    hs = []                          # each layer's input: x, then the hidden activations
    for k, (w, b) in enumerate(layers):
        if h.ndim != 2 or h.shape[1] != w.shape[0] or w.shape[1:] != b.shape:
            raise ShapeError(f"{where} layer {k}: input {h.shape}, weights {w.shape}, "
                             f"bias {b.shape}")
        hs.append(h)
        h = h @ w
        h += b
        _check_finite(h, f"{where} output" if k == last else f"{where} layer {k}")
        if k < last:
            np.tanh(h, out=h)
    return h, hs


def _mlp_vjp(g: np.ndarray, layers, hs: list) -> tuple:
    """Gradients (input, w_0, b_0, w_1, ...) of the MLP whose forward saved ``hs``.

    Overwrites each saved hidden activation with that layer's gradient once
    the layer above has used it, so ``hs`` serves one call.
    """
    last = len(layers) - 1
    grads = []
    for k in range(last, -1, -1):
        w, b = layers[k]
        if k < last:
            d = hs[k + 1]       # g * (1.0 - h*h) in h's buffer, which layer k + 1 has used
            d *= d
            np.subtract(1.0, d, out=d)
            d *= g
            g = d
        grads += (_unbroadcast(g, b.shape), hs[k].swapaxes(-1, -2) @ g)
        g = g @ w.swapaxes(-1, -2)
    grads.append(g)
    return tuple(reversed(grads))


def mlp(x: Tensor, layers: Sequence[tuple[Tensor, Tensor]]) -> Tensor:
    """Fused MLP, one tape node: ``h = tanh(h @ W + b)`` per hidden layer, then ``h @ W + b``.

    ``x`` is (batch, in_dim) and ``layers`` the (weight, bias) pairs, the
    output layer last. Forward and VJP do the arithmetic of the
    matmul/add/tanh chain in the same order, so values and gradients
    are bitwise equal to it. Each affine output is checked for finiteness.
    The hidden activations live in buffers that only this op sees: tanh is
    applied in place on the pre-activation, and the VJP overwrites each
    saved activation with that layer's gradient once the layer above has
    used it. ``x.data`` and the output are never written.
    """
    arrays = [(w.data, b.data) for w, b in layers]
    out, saved = _mlp_forward(x.data, arrays, "mlp")
    inputs = [x] + [t for pair in layers for t in pair]
    return _record(out, inputs, lambda g: _mlp_vjp(g, arrays, saved))


def latent_recursion(
    lat_out: Tensor,
    layers: Sequence[tuple[Tensor, Tensor]],
    z0: np.ndarray,
    data: np.ndarray,
    z_noise: np.ndarray,
    coef: tuple[np.ndarray, np.ndarray],
    vanilla: bool,
    want_pred: bool,
) -> Tensor:
    """The teacher-forced latent recursion over T steps as one tape node.

    With x_t = ``data[:, t-1]`` and (a_t, c_t) = ``coef`` at t-1, step t is

        pred_t = net([z_{t-1}; x_t])                       (the fused MLP ``layers``)
        mu_t   = a_t * lat_out[:, t-1] + c_t * (z_{t-1} if vanilla else pred_t)
        z_t    = mu_t + z_noise[:, t-1]

    ``lat_out`` is (B, T, d_z), lat_net over the data; ``z0`` is (B, d_z).
    Where c_t is exactly 0 the second term is skipped, so the boundary
    degeneration stays bitwise exact. The network runs at a step when its
    prediction enters mu_t or ``want_pred`` asks for it. Returns the fields
    stacked on a new leading axis, (K, B, T, d_z): z_{t-1}, z_t, mu_t, and
    pred_t when ``want_pred``.

    Each mu_t is :func:`_mix`. Forward and VJP do the arithmetic of the
    per-step chain of select/scale/concat/mlp/add ops in the same order,
    and the VJP adds each array's contributions in that chain's reverse
    node order, so values and gradients are bitwise equal to it. Every
    affine output and every z_t is checked for finiteness; an error names
    the step.
    """
    lat = lat_out.data
    B, T, d_z = lat.shape
    a, c = coef
    weights = [(w.data, b.data) for w, b in layers]
    runs = [want_pred or (c[i] != 0.0 and not vanilla) for i in range(T)]
    out = np.empty((4 if want_pred else 3, B, T, d_z))
    saved = [None] * T
    z = z0
    for i in range(T):
        where = f"latent recursion at t={i + 1}"
        out[0, :, i] = z
        pred = None
        if runs[i]:
            pred, saved[i] = _mlp_forward(np.concatenate([z, data[:, i]], axis=-1), weights,
                                          f"{where}: lat_noise_net")
            if want_pred:
                out[3, :, i] = pred
        mu = _mix(lat[:, i], a[i], z if vanilla else pred, c[i])
        z = _check_finite(mu + z_noise[:, i], f"{where}: z")
        out[1, :, i] = z
        out[2, :, i] = mu

    def vjp(g):
        g_lat = np.empty_like(lat)
        g_weights = None
        to_prev = []        # step t+1's contributions to z_t, in the chain's order
        for i in range(T - 1, -1, -1):
            g_z = g[1, :, i]
            if i + 1 < T:
                g_z = g_z + g[0, :, i + 1]
                for contrib in to_prev:
                    g_z += contrib
            g_mu = g[2, :, i] + g_z
            g_lat[:, i] = g_mu * a[i]
            to_prev = []
            if vanilla and c[i] != 0.0:
                to_prev.append(g_mu * c[i])
            if not runs[i]:
                continue
            g_pred = g[3, :, i] if want_pred else None
            if c[i] != 0.0 and not vanilla:
                g_pred = g_mu * c[i] if g_pred is None else g_pred + g_mu * c[i]
            g_in, *step_grads = _mlp_vjp(g_pred, weights, saved[i])
            saved[i] = None
            to_prev.append(g_in[:, :d_z])
            if g_weights is None:
                g_weights = step_grads
            else:
                for acc, contrib in zip(g_weights, step_grads):
                    acc += contrib
        return (g_lat, *(g_weights or ()))

    inputs = [lat_out] + ([t for pair in layers for t in pair] if any(runs) else [])
    return _record(out, inputs, vjp)


def _on_tape(tape: Tape, node: "_Node | None") -> bool:
    return node is not None and node.idx < len(tape.nodes) and tape.nodes[node.idx] is node


def backward(tape: Tape, loss: Tensor, wrt: Sequence[Tensor]) -> list[np.ndarray]:
    """Gradients of ``loss`` w.r.t. each tensor in ``wrt``, by one reverse sweep of ``tape``.

    Each result is a fresh array; a tensor the loss does not reach, or one
    not recorded on ``tape``, gets zeros. A tape can be swept once. Each
    node's VJP is dropped once it has run (or skipped, for a node the loss
    does not reach), which frees the buffers its forward saved; its
    gradient goes with it unless the node is one of ``wrt``'s.
    ``loss`` must be a scalar recorded on ``tape``. Accumulation is ordinary
    float64 addition in a fixed sequential order, so results are bitwise
    reproducible. A node's first contribution is kept as the VJP returned
    it, borrowed and never written; the second makes ``first + second`` in
    a new array that backward owns, and later ones are added to it in place.
    A slice gradient from :func:`select` is added into its slice of an owned
    gradient: zeros if it is the first, a copy if the first was borrowed.
    """
    if loss.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not _on_tape(tape, loss.node):
        raise ValueError("loss was not recorded on this tape")
    if tape._swept:
        raise ValueError("this tape was already swept; its VJPs consumed their saved buffers")
    tape._swept = True
    wanted = [t.node if t.node is not None else tape._leaves.get(id(t)) for t in wrt]
    wanted = [node if _on_tape(tape, node) else None for node in wanted]
    keep = {node.idx for node in wanted if node is not None}
    grads: list = [None] * len(tape.nodes)
    owned = [False] * len(tape.nodes)
    grads[loss.node.idx] = np.ones_like(loss.data)
    owned[loss.node.idx] = True
    for node in reversed(tape.nodes):
        vjp, node.vjp = node.vjp, None    # with it go the buffers its forward saved
        g = grads[node.idx]
        if node.idx not in keep:
            grads[node.idx] = None        # no later node contributes to it
        if g is None or vjp is None:
            continue
        for parent, contrib in zip(node.parents, vjp(g)):
            i = parent.idx
            if isinstance(contrib, _SliceGrad):
                if grads[i] is None:
                    grads[i] = np.zeros(contrib.shape)
                elif not owned[i]:
                    grads[i] = grads[i].copy()
                owned[i] = True
                np.moveaxis(grads[i], contrib.axis, 0)[contrib.index] += contrib.g
            elif grads[i] is None:
                grads[i] = contrib
            elif owned[i]:
                grads[i] += contrib
            else:
                grads[i] = grads[i] + contrib
                owned[i] = True
    return [np.zeros_like(t.data) if node is None or grads[node.idx] is None
            else np.array(grads[node.idx], dtype=np.float64, copy=True)
            for t, node in zip(wrt, wanted)]


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
    analytic = backward(tape, loss, params)

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
