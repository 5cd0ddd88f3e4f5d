"""Layer primitives, initialization, and network forward contracts."""

import numpy as np
import pytest

from alternator import autodiff as ad
from alternator.autodiff import Tape, Tensor, finite_difference_check
from alternator.errors import ConfigError, NumericError, ShapeError
from alternator.networks import (
    MLP,
    SELF_ATTENTION,
    Network,
    NetworkSpec,
    _attention_weights,
    init_parameters,
    linear_forward,
    network_forward,
    self_attention_forward,
)


def test_linear_forward_identity_weights():
    out = linear_forward(Tensor([[1.0, 2.0]]), Tensor(np.eye(2)), Tensor(np.zeros(2)))
    assert np.array_equal(out.data, [[1.0, 2.0]])


def test_linear_forward_hand_matrix_multiply():
    # [[1,1]] @ [[2,0],[0,3]] + [1,1] = [[3,4]]
    out = linear_forward(
        Tensor([[1.0, 1.0]]), Tensor([[2.0, 0.0], [0.0, 3.0]]), Tensor([1.0, 1.0])
    )
    assert np.array_equal(out.data, [[3.0, 4.0]])


def test_linear_forward_dimension_mismatch():
    with pytest.raises(ShapeError):
        linear_forward(Tensor(np.ones((1, 2))), Tensor(np.ones((3, 2))), Tensor(np.ones(2)))


def test_activation_values():
    assert ad.tanh(Tensor([0.0])).data[0] == 0.0
    assert ad.gelu(Tensor([0.0])).data[0] == 0.0
    # large inputs stay inside (-1, 1); beyond ~19 float64 tanh saturates to 1.0 exactly
    big = ad.tanh(Tensor([15.0, -15.0])).data
    assert np.all(np.abs(big) < 1.0)


def _attention_params(d, seed=0):
    rng = np.random.default_rng(seed)
    return (Tensor(rng.normal(0, 0.5, (d, d))) for _ in range(3))


def test_attention_single_token_is_value_plus_residual():
    d = 3
    wq, wk, wv = _attention_params(d)
    x = Tensor(np.array([[0.3, -0.2, 0.5]]))
    out = self_attention_forward(x, wq, wk, wv)
    assert out.data.shape == (1, d)
    assert np.allclose(out.data, x.data @ wv.data + x.data, atol=1e-12)
    assert np.array_equal(_attention_weights(x, wq, wk).data, [[1.0]])


def test_attention_rows_sum_to_one():
    rng = np.random.default_rng(2)
    d, T = 4, 6
    wq, wk, wv = _attention_params(d, seed=3)
    x = Tensor(rng.normal(size=(T, d)))
    A = _attention_weights(x, wq, wk).data
    assert np.allclose(A.sum(axis=1), 1.0, atol=1e-12)


def test_attention_zero_projections_is_identity():
    d, T = 3, 5
    zeros = Tensor(np.zeros((d, d)))
    x = Tensor(np.random.default_rng(4).normal(size=(T, d)))
    out = self_attention_forward(x, zeros, zeros, zeros)
    assert np.array_equal(out.data, x.data)


def test_attention_gradients_match_finite_differences():
    rng = np.random.default_rng(5)
    d, T = 3, 4
    wq = Tensor(rng.normal(0, 0.5, (d, d)))
    wk = Tensor(rng.normal(0, 0.5, (d, d)))
    wv = Tensor(rng.normal(0, 0.5, (d, d)))
    x = Tensor(rng.normal(size=(T, d)))

    def loss():
        return ad.total_sum(ad.square(self_attention_forward(x, wq, wk, wv)))

    assert finite_difference_check(loss, [wq, wk, wv, x], h=1e-5) <= 1e-4


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
    for kind in (MLP, SELF_ATTENTION):
        spec = NetworkSpec(input_dim=3, output_dim=2, hidden_dim=4, depth=2, kind=kind)
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


def test_attention_network_batched_matches_per_row():
    spec = NetworkSpec(input_dim=3, output_dim=2, hidden_dim=4, depth=2,
                       kind=SELF_ATTENTION)
    net = Network.build(spec, seed=3)
    x = np.random.default_rng(8).normal(size=(4, 3))
    batched = net(x).data
    rows = np.stack([net(x[i]).data for i in range(4)])
    assert np.allclose(batched, rows, atol=1e-12)


def test_attention_network_gradients_match_finite_differences_batched():
    spec = NetworkSpec(input_dim=3, output_dim=2, hidden_dim=4, depth=2,
                       kind=SELF_ATTENTION)
    net = Network.build(spec, seed=6)
    x = Tensor(np.random.default_rng(1).uniform(-1, 1, (3, 3)))

    def loss():
        return ad.total_sum(ad.square(net(x)))

    assert finite_difference_check(loss, list(net.params.values()) + [x], h=1e-5) <= 1e-4


def test_attention_forward_tape_size_does_not_depend_on_batch():
    spec = NetworkSpec(input_dim=9, output_dim=2, hidden_dim=16, depth=2,
                       kind=SELF_ATTENTION)
    net = Network.build(spec, seed=0)
    sizes = []
    for batch in (1, 32):
        with Tape() as tape:
            net(np.ones((batch, 9)))
        sizes.append(len(tape.nodes))
    assert sizes[0] == sizes[1]


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
    with pytest.raises(ConfigError):
        NetworkSpec(input_dim=1, output_dim=1, kind="transformer")
    with pytest.raises(ConfigError, match="unknown activation"):
        NetworkSpec(input_dim=1, output_dim=1, activation="relu")


def _layer_chain(spec, params, x):
    """The MLP as separate linear/activation ops: the reference for the fused op."""
    act = ad.tanh if spec.activation == "tanh" else ad.gelu
    h = x
    for i in range(spec.depth):
        h = act(linear_forward(h, params[f"layer{i}.weight"], params[f"layer{i}.bias"]))
    return linear_forward(h, params["out.weight"], params["out.bias"])


@pytest.mark.parametrize("activation", ["tanh", "gelu"])
@pytest.mark.parametrize("depth", [1, 2])
def test_fused_mlp_matches_layer_chain_bitwise(depth, activation):
    spec = NetworkSpec(input_dim=5, output_dim=3, hidden_dim=7, depth=depth,
                       activation=activation)
    params = init_parameters(spec, seed=1)
    rng = np.random.default_rng(2)
    for t in params.values():
        t.data += 0.1 * rng.normal(size=t.data.shape)  # nonzero biases
    x_data = rng.normal(size=(11, 5))
    weight = Tensor(rng.normal(size=(11, 3)))
    results = []
    for forward in (_layer_chain, network_forward):
        x = Tensor(x_data.copy())
        with Tape() as tape:
            out = forward(spec, params, x)
            loss = ad.total_sum(ad.mul(out, weight))
        grads = ad.backward(tape, loss)
        results.append([out.data, grads.of(x)] + [grads.of(t) for t in params.values()])
    for fused, chain in zip(*results):
        assert np.array_equal(fused, chain)


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
