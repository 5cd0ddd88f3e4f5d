import numpy as np
import pytest

from alternator.core import (
    AlternatorModel,
    build_model,
    default_schedule,
    vanilla_schedule,
)
from alternator.networks import Network


def make_model(
    d_x=2,
    d_z=2,
    T=4,
    sigma_x=0.3,
    sigma_z=0.15,
    hidden_dim=6,
    depth=2,
    seed=0,
    schedule="default",
    dynamics="noise_models",
) -> AlternatorModel:
    if schedule == "default":
        sched = default_schedule(T, sigma_x, sigma_z)
    elif schedule == "vanilla":
        sched = vanilla_schedule(T, sigma_x, sigma_z)
    else:
        sched = schedule
    return build_model(
        d_x=d_x, d_z=d_z, schedule=sched, hidden_dim=hidden_dim, depth=depth,
        seed=seed, dynamics=dynamics,
    )


def zero_network(net: Network) -> Network:
    for t in net.params.values():
        t.data[:] = 0.0
    return net


def constant_network(net: Network, value) -> Network:
    """Zero all weights and set the output bias, so the net is constant."""
    zero_network(net)
    net.params["out.bias"].data[:] = np.asarray(value, dtype=np.float64)
    return net


@pytest.fixture
def tiny_model():
    return make_model()
