"""Layer primitives, initialization, and network forward contracts."""

import numpy as np
import pytest

from alternator import autodiff as ad
from alternator.autodiff import Tape, Tensor, finite_difference_check
from alternator.errors import ConfigError, NumericError, ShapeError
from alternator.networks import Network, NetworkSpec, init_parameters, network_forward


def test_one_layer_mlp_identity_weights():
    out = ad.mlp(Tensor([[1.0, 2.0]]), [(Tensor(np.eye(2)), Tensor(np.zeros(2)))])
    assert np.array_equal(out.data, [[1.0, 2.0]])


def test_one_layer_mlp_hand_matrix_multiply():
    # [[1,1]] @ [[2,0],[0,3]] + [1,1] = [[3,4]]; one layer is affine, no activation
    out = ad.mlp(Tensor([[1.0, 1.0]]), [(Tensor([[2.0, 0.0], [0.0, 3.0]]), Tensor([1.0, 1.0]))])
    assert np.array_equal(out.data, [[3.0, 4.0]])


def test_one_layer_mlp_dimension_mismatch():
    with pytest.raises(ShapeError, match="mlp layer 0"):
        ad.mlp(Tensor(np.ones((1, 2))), [(Tensor(np.ones((3, 2))), Tensor(np.ones(2)))])


def test_activation_values():
    assert ad.tanh(Tensor([0.0])).data[0] == 0.0
    # large inputs stay inside (-1, 1); beyond ~19 float64 tanh saturates to 1.0 exactly
    big = ad.tanh(Tensor([15.0, -15.0])).data
    assert np.all(np.abs(big) < 1.0)


def test_init_same_seed_is_bitwise_identical():
    spec = NetworkSpec(input_dim=3, output_dim=2, hidden_dim=5, depth=2)
    p1 = init_parameters(spec, seed=42)
    p2 = init_parameters(spec, seed=42)
    assert list(p1) == list(p2)
    for name in p1:
        assert np.array_equal(p1[name].data, p2[name].data)


def test_init_biases_zero():
    spec = NetworkSpec(input_dim=3, output_dim=2, hidden_dim=5, depth=3)
    params = init_parameters(spec, seed=0)
    for name, t in params.items():
        if name.endswith("bias"):
            assert np.array_equal(t.data, np.zeros_like(t.data))


def test_init_weight_variance_tracks_fan_in():
    # 10^4-ish samples from the in_dim=64 layer; variance should be ~1/64
    spec = NetworkSpec(input_dim=64, output_dim=160, hidden_dim=64, depth=1)
    params = init_parameters(spec, seed=7)
    w = params["layer0.weight"].data  # (64, 64) = 4096 draws
    w2 = params["out.weight"].data    # (64, 160) = 10240 draws
    samples = np.concatenate([w.ravel(), w2.ravel()])
    assert samples.size >= 10_000
    var = samples.var()
    assert abs(var - 1.0 / 64) <= 0.2 * (1.0 / 64)


def test_network_forward_zero_params_gives_zero_output():
    spec = NetworkSpec(input_dim=3, output_dim=2, hidden_dim=4, depth=2)
    params = init_parameters(spec, seed=0)
    for t in params.values():
        t.data[:] = 0.0
    out = network_forward(spec, params, Tensor(np.ones((2, 3))))
    assert np.array_equal(out.data, np.zeros((2, 2)))


def test_network_forward_shape_contract():
    spec = NetworkSpec(input_dim=3, output_dim=2, hidden_dim=4, depth=2)
    net = Network.build(spec, seed=1)
    assert net(np.ones((5, 3))).data.shape == (5, 2)
    assert net(np.ones(3)).data.shape == (2,)


def test_network_forward_rejects_wrong_input_dim():
    spec = NetworkSpec(input_dim=3, output_dim=2)
    net = Network.build(spec, seed=1)
    with pytest.raises(ShapeError):
        net(np.ones((5, 4)))


def test_mlp_depth_one_is_single_hidden_block_plus_projection():
    spec = NetworkSpec(input_dim=2, output_dim=2, hidden_dim=3, depth=1)
    params = init_parameters(spec, seed=9)
    x = np.array([[0.4, -0.7]])
    manual = np.tanh(x @ params["layer0.weight"].data + params["layer0.bias"].data)
    manual = manual @ params["out.weight"].data + params["out.bias"].data
    out = network_forward(spec, params, Tensor(x))
    assert np.allclose(out.data, manual, atol=1e-15)


def test_mlp_gradients_flow_through_network_forward():
    spec = NetworkSpec(input_dim=3, output_dim=2, hidden_dim=4, depth=2)
    net = Network.build(spec, seed=2)
    x = Tensor(np.random.default_rng(0).uniform(-1, 1, (4, 3)))

    def loss():
        return ad.total_sum(ad.square(net(x)))

    assert finite_difference_check(loss, net.params.values(), h=1e-5) <= 1e-4


def test_spec_validation():
    with pytest.raises(ConfigError):
        NetworkSpec(input_dim=0, output_dim=2)
    with pytest.raises(ConfigError):
        NetworkSpec(input_dim=1, output_dim=1, depth=0)


def _affine(h, params, name):
    return ad.add(ad.matmul(h, params[f"{name}.weight"]), params[f"{name}.bias"])


def _layer_chain(spec, params, x):
    """The MLP as separate matmul/add/tanh ops: the reference for the fused op."""
    h = x
    for i in range(spec.depth):
        h = ad.tanh(_affine(h, params, f"layer{i}"))
    return _affine(h, params, "out")


def _values_and_grads(forward, spec, params, x_data, weight):
    """The output, the input gradient and every parameter gradient of a weighted sum."""
    x = Tensor(x_data.copy())
    with Tape() as tape:
        out = forward(spec, params, x)
        loss = ad.total_sum(ad.mul(out, weight))
    return [out.data] + ad.backward(tape, loss, [x, *params.values()])


@pytest.mark.parametrize("depth", [1, 2])
def test_fused_mlp_matches_layer_chain_bitwise(depth):
    spec = NetworkSpec(input_dim=5, output_dim=3, hidden_dim=7, depth=depth)
    params = init_parameters(spec, seed=1)
    rng = np.random.default_rng(2)
    for t in params.values():
        t.data += 0.1 * rng.normal(size=t.data.shape)  # nonzero biases
    x_data = rng.normal(size=(11, 5))
    weight = Tensor(rng.normal(size=(11, 3)))
    fused = _values_and_grads(network_forward, spec, params, x_data, weight)
    chain = _values_and_grads(_layer_chain, spec, params, x_data, weight)
    for a, b in zip(fused, chain):
        assert np.array_equal(a, b)


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.parametrize("layer", [0, 1])
def test_fused_mlp_hidden_overflow_raises_naming_the_layer(layer):
    # tanh squashes the overflow to +-1, so a check on the output alone would pass
    spec = NetworkSpec(input_dim=2, output_dim=2, hidden_dim=3, depth=2)
    params = init_parameters(spec, seed=4)
    params["layer0.weight"].data[:] = 1.0     # hidden units all tanh(20) = 1.0
    params[f"layer{layer}.weight"].data[:] = 1e308
    with pytest.raises(NumericError, match=f"mlp layer {layer}"):
        network_forward(spec, params, Tensor(np.full((2, 2), 10.0)))


@pytest.mark.parametrize("depth", [1, 2, 4])
def test_mlp_call_records_one_tape_node(depth):
    spec = NetworkSpec(input_dim=3, output_dim=2, hidden_dim=4, depth=depth)
    net = Network.build(spec, seed=0)
    with Tape() as tape:
        net(np.ones((5, 3)))
    assert sum(node.vjp is not None for node in tape.nodes) == 1
