"""Network primitives: parameter initialization and the forward pass.

Every network is a tanh (or GELU) MLP with ``depth`` hidden layers followed
by a linear output projection, run as one fused autodiff op
(:func:`alternator.autodiff.mlp`), so one call on a whole
(batch, input_dim) input is one tape node at any depth and batch size.

Of the model's four networks, training under teacher forcing runs lat_net,
obs_net and obs_noise_net once per batch over all (batch * steps) rows.
lat_noise_net runs on its :func:`mlp_layers` inside the one-node
:func:`alternator.autodiff.latent_recursion`, not through this module
(see :func:`alternator.training.rollout`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, _as_tensor
from .errors import ConfigError, ShapeError

ACTIVATIONS = ("tanh", "gelu")


@dataclass(frozen=True)
class NetworkSpec:
    """Architecture description for one network."""

    input_dim: int
    output_dim: int
    hidden_dim: int = 64
    depth: int = 2
    activation: str = "tanh"

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation: {self.activation!r}")
        if min(self.input_dim, self.output_dim, self.hidden_dim) < 1:
            raise ConfigError("network dimensions must be >= 1")
        if self.depth < 1:
            raise ConfigError("network depth must be >= 1")


def parameter_shapes(spec: NetworkSpec) -> Iterator[tuple[str, tuple[int, ...]]]:
    """(name, shape) of each parameter of ``spec``, in initialization order.

    Weights are 2-D (fan_in, fan_out) and biases 1-D. The pairs are made one
    at a time and allocate nothing, so a checkpoint can be checked against
    them as it is read, whatever sizes its header claims.
    """
    h = spec.hidden_dim
    for i in range(spec.depth):
        yield f"layer{i}.weight", (spec.input_dim if i == 0 else h, h)
        yield f"layer{i}.bias", (h,)
    yield "out.weight", (h, spec.output_dim)
    yield "out.bias", (spec.output_dim,)


def init_parameters(spec: NetworkSpec, seed: int) -> dict[str, Tensor]:
    """Fan-in initialization: weights ~ N(0, 1/fan_in), biases zero.

    The dict holds one Tensor per parameter, in :func:`parameter_shapes` order.
    """
    rng = np.random.default_rng(seed)
    return {name: Tensor(rng.normal(0.0, np.sqrt(1.0 / shape[0]), size=shape)
                         if len(shape) == 2 else np.zeros(shape))
            for name, shape in parameter_shapes(spec)}


def mlp_layers(spec: NetworkSpec, params: dict[str, Tensor]) -> list[tuple[Tensor, Tensor]]:
    """The (weight, bias) pairs of a network, the output layer last."""
    layers = [(params[f"layer{i}.weight"], params[f"layer{i}.bias"]) for i in range(spec.depth)]
    layers.append((params["out.weight"], params["out.bias"]))
    return layers


def network_forward(spec: NetworkSpec, params: dict[str, Tensor], x: Tensor) -> Tensor:
    """Apply a network to ``x`` of shape (batch, input_dim) or (input_dim,)."""
    squeeze = x.data.ndim == 1
    if squeeze:
        x = ad.reshape(x, (1, x.data.shape[0]))
    if x.data.ndim != 2 or x.data.shape[1] != spec.input_dim:
        raise ShapeError(
            f"network_forward expects input with last dim {spec.input_dim}, got {x.shape}"
        )
    out = ad.mlp(x, mlp_layers(spec, params), spec.activation)
    if squeeze:
        out = ad.reshape(out, (spec.output_dim,))
    return out


@dataclass
class Network:
    """A spec bundled with its parameters; callable on tensors or arrays."""

    spec: NetworkSpec
    params: dict[str, Tensor] = field(repr=False)

    @classmethod
    def build(cls, spec: NetworkSpec, seed: int) -> "Network":
        return cls(spec=spec, params=init_parameters(spec, seed))

    def __call__(self, x) -> Tensor:
        return network_forward(self.spec, self.params, _as_tensor(x))
