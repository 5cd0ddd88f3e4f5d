"""Network primitives: layer ops, parameter initialization, forward passes.

Two network kinds are supported. The default is a tanh MLP with ``depth``
hidden layers followed by a linear output projection, run as one fused
autodiff op (:func:`alternator.autodiff.mlp`), so one call is one tape
node at any depth. The opt-in
self-attention kind treats each input coordinate as a token, embeds tokens
with a shared linear map, applies ``depth`` single-head attention layers
with residual connections, then mean-pools tokens into a linear head. Both
kinds run a whole (batch, input_dim) input at once: attention works on a
(batch, tokens, hidden) tensor through the batched autodiff ops, so one
forward records the same tape nodes at any batch size.

Of the model's four networks, training under teacher forcing runs lat_net,
obs_net and obs_noise_net once per batch over all (batch * steps) rows;
only lat_noise_net runs once per step (see :func:`alternator.training.rollout`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ShapeError

MLP = "mlp"
SELF_ATTENTION = "self_attention"

ACTIVATIONS = ("tanh", "gelu")


@dataclass(frozen=True)
class NetworkSpec:
    """Architecture description for one network."""

    input_dim: int
    output_dim: int
    hidden_dim: int = 64
    depth: int = 2
    kind: str = MLP
    activation: str = "tanh"

    def __post_init__(self):
        if self.kind not in (MLP, SELF_ATTENTION):
            raise ConfigError(f"unknown network kind: {self.kind!r}")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation: {self.activation!r}")
        if min(self.input_dim, self.output_dim, self.hidden_dim) < 1:
            raise ConfigError("network dimensions must be >= 1")
        if self.depth < 1:
            raise ConfigError("network depth must be >= 1")


class ParameterSet:
    """Ordered name -> Tensor mapping holding one network's parameters."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, value: np.ndarray) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name: {name}")
        t = Tensor(np.array(value, dtype=np.float64))
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __iter__(self):
        return iter(self._params.values())

    def names(self) -> list[str]:
        return list(self._params.keys())

    def items(self):
        return self._params.items()


def init_parameters(spec: NetworkSpec, seed: int) -> ParameterSet:
    """Fan-in initialization: weights ~ N(0, 1/in_dim), biases zero."""
    rng = np.random.default_rng(seed)
    params = ParameterSet()

    def w(name, fan_in, fan_out):
        params.add(name, rng.normal(0.0, np.sqrt(1.0 / fan_in), size=(fan_in, fan_out)))

    def b(name, dim):
        params.add(name, np.zeros(dim))

    if spec.kind == MLP:
        in_dim = spec.input_dim
        for i in range(spec.depth):
            w(f"layer{i}.weight", in_dim, spec.hidden_dim)
            b(f"layer{i}.bias", spec.hidden_dim)
            in_dim = spec.hidden_dim
        w("out.weight", in_dim, spec.output_dim)
        b("out.bias", spec.output_dim)
    else:
        w("embed.weight", 1, spec.hidden_dim)
        b("embed.bias", spec.hidden_dim)
        for i in range(spec.depth):
            w(f"attn{i}.wq", spec.hidden_dim, spec.hidden_dim)
            w(f"attn{i}.wk", spec.hidden_dim, spec.hidden_dim)
            w(f"attn{i}.wv", spec.hidden_dim, spec.hidden_dim)
        w("out.weight", spec.hidden_dim, spec.output_dim)
        b("out.bias", spec.output_dim)
    return params


def linear_forward(x: Tensor, weights: Tensor, bias: Tensor) -> Tensor:
    """Affine map ``x @ weights + bias`` for ``x`` of shape (batch, in_dim)."""
    if x.data.ndim != 2:
        raise ShapeError(f"linear_forward expects (batch, in_dim) input, got {x.shape}")
    if x.data.shape[1] != weights.data.shape[0]:
        raise ShapeError(
            f"linear_forward dimension mismatch: input {x.shape} vs weights {weights.shape}"
        )
    if weights.data.shape[1] != bias.data.shape[0]:
        raise ShapeError(
            f"linear_forward bias mismatch: weights {weights.shape} vs bias {bias.shape}"
        )
    return ad.add(ad.matmul(x, weights), bias)


def activation_forward(x: Tensor, kind: str) -> Tensor:
    if kind == "tanh":
        return ad.tanh(x)
    if kind == "gelu":
        return ad.gelu(x)
    raise ConfigError(f"unknown activation: {kind!r}")


def self_attention_forward(x: Tensor, wq: Tensor, wk: Tensor, wv: Tensor) -> Tensor:
    """Single-head self-attention with residual: softmax(QK^T/sqrt(d)) V + x.

    ``x`` has shape (tokens, d) or (batch, tokens, d); the three projections
    are square in d.
    """
    if x.data.ndim < 2:
        raise ShapeError(f"self_attention_forward expects (..., tokens, d) input, got {x.shape}")
    d = x.data.shape[-1]
    if d == 0:
        raise ShapeError("self_attention_forward needs d >= 1")
    for name, w in (("wq", wq), ("wk", wk), ("wv", wv)):
        if w.data.shape != (d, d):
            raise ShapeError(f"{name} must be square of size {d}, got {w.shape}")
    attn = _attention_weights(x, wq, wk)
    return ad.add(ad.matmul(attn, ad.matmul(x, wv)), x)


def _attention_weights(x: Tensor, wq: Tensor, wk: Tensor) -> Tensor:
    scores = ad.matmul(ad.matmul(x, wq), ad.transpose(ad.matmul(x, wk)))
    return ad.softmax(ad.scale(scores, 1.0 / np.sqrt(x.data.shape[-1])), axis=-1)


def attention_matrix(x: Tensor, wq: Tensor, wk: Tensor) -> np.ndarray:
    """Row-stochastic attention weights for inspection/testing."""
    return _attention_weights(x, wq, wk).data


def _mlp_forward(spec: NetworkSpec, params: ParameterSet, x: Tensor) -> Tensor:
    layers = [(params[f"layer{i}.weight"], params[f"layer{i}.bias"]) for i in range(spec.depth)]
    layers.append((params["out.weight"], params["out.bias"]))
    return ad.mlp(x, layers, spec.activation)


def _attention_forward(spec: NetworkSpec, params: ParameterSet, x: Tensor) -> Tensor:
    # x: (B, input_dim) -> tokens (B*input_dim, 1) -> embedded (B, input_dim, hidden)
    B = x.data.shape[0]
    tokens = ad.reshape(x, (B * spec.input_dim, 1))
    h = linear_forward(tokens, params["embed.weight"], params["embed.bias"])
    h = ad.reshape(h, (B, spec.input_dim, spec.hidden_dim))
    for i in range(spec.depth):
        h = self_attention_forward(
            h, params[f"attn{i}.wq"], params[f"attn{i}.wk"], params[f"attn{i}.wv"]
        )
    return linear_forward(ad.mean_rows(h), params["out.weight"], params["out.bias"])


def network_forward(spec: NetworkSpec, params: ParameterSet, x: Tensor) -> Tensor:
    """Apply a network to ``x`` of shape (batch, input_dim) or (input_dim,)."""
    squeeze = x.data.ndim == 1
    if squeeze:
        x = ad.reshape(x, (1, x.data.shape[0]))
    if x.data.ndim != 2 or x.data.shape[1] != spec.input_dim:
        raise ShapeError(
            f"network_forward expects input with last dim {spec.input_dim}, got {x.shape}"
        )
    out = (_mlp_forward if spec.kind == MLP else _attention_forward)(spec, params, x)
    if squeeze:
        out = ad.reshape(out, (spec.output_dim,))
    return out


@dataclass
class Network:
    """A spec bundled with its parameters; callable on tensors or arrays."""

    spec: NetworkSpec
    params: ParameterSet = field(repr=False)

    @classmethod
    def build(cls, spec: NetworkSpec, seed: int) -> "Network":
        return cls(spec=spec, params=init_parameters(spec, seed))

    def __call__(self, x) -> Tensor:
        if not isinstance(x, Tensor):
            x = Tensor(x)
        return network_forward(self.spec, self.params, x)
