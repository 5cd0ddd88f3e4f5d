"""Gradient and contract tests for the autodiff substrate."""

import numpy as np
import pytest

from alternator import autodiff as ad
from alternator.autodiff import Tape, Tensor, backward, finite_difference_check
from alternator.errors import ConfigError, NumericError, ShapeError


def numeric_grad(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Independent central-difference oracle over a flat parameter array."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f()
        flat[i] = orig - h
        fm = f()
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * h)
    return g


def rel_err(a, b):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return np.max(np.abs(a - b) / denom)


def test_square_gradient_polynomial():
    w = Tensor(np.array(3.0))
    with Tape() as tape:
        loss = ad.square(w)
    grads = backward(tape, loss)
    assert grads.of(w) == pytest.approx(6.0, abs=1e-12)


def test_tanh_chain_matches_central_differences():
    rng = np.random.default_rng(7)
    w = Tensor(rng.uniform(-1, 1, size=(3, 4)))
    x = Tensor(rng.uniform(-1, 1, size=(5, 3)))

    def loss_value():
        return float(np.tanh(x.data @ w.data).sum())

    with Tape() as tape:
        loss = ad.total_sum(ad.tanh(ad.matmul(x, w)))
    grads = backward(tape, loss)
    oracle = numeric_grad(loss_value, w.data)
    assert rel_err(grads.of(w), oracle) <= 1e-4


def test_unreachable_parameter_gets_zero_gradient():
    w = Tensor(np.ones(3))
    other = Tensor(np.ones(2))
    with Tape() as tape:
        loss = ad.total_sum(ad.square(w))
    grads = backward(tape, loss)
    assert np.array_equal(grads.of(other), np.zeros(2))


def test_backward_rejects_non_scalar_loss():
    w = Tensor(np.ones(3))
    with Tape() as tape:
        y = ad.square(w)
    with pytest.raises(ValueError):
        backward(tape, y)


def test_gradient_of_loss_wrt_itself_is_one():
    w = Tensor(np.array(2.0))
    with Tape() as tape:
        loss = ad.square(w)
    grads = backward(tape, loss)
    assert grads._grads[loss.node.idx] == pytest.approx(1.0)


@pytest.mark.parametrize("op,dfn", [
    (ad.tanh, lambda x: 1 - np.tanh(x) ** 2),
    (ad.square, lambda x: 2 * x),
    (ad.neg, lambda x: -np.ones_like(x)),
])
def test_elementwise_vjps_randomized(op, dfn):
    rng = np.random.default_rng(11)
    for trial in range(5):
        x = Tensor(rng.uniform(-1, 1, size=7))
        with Tape() as tape:
            loss = ad.total_sum(op(x))
        grads = backward(tape, loss)
        assert np.allclose(grads.of(x), dfn(x.data), atol=1e-12)


def test_all_ops_match_finite_differences_on_random_inputs():
    rng = np.random.default_rng(3)
    a = Tensor(rng.uniform(-1, 1, size=(4, 3)))
    b = Tensor(rng.uniform(-1, 1, size=(3, 4)))
    c = Tensor(rng.uniform(-1, 1, size=(4,)))
    weights = rng.uniform(0.5, 2.0, size=(2, 1))
    d = Tensor(rng.uniform(-1, 1, size=(8, 8)))
    mlp_params = [Tensor(rng.uniform(-1, 1, size=shape))
                  for shape in ((8, 5), (5,), (5, 5), (5,), (5, 3), (3,))]
    layers = list(zip(mlp_params[::2], mlp_params[1::2]))

    def build():
        h = ad.matmul(a, b)                     # (4, 4)
        h = ad.add(h, c)                        # bias broadcast
        h = ad.gelu(h)
        h = ad.mul(h, ad.softmax(h, axis=-1))
        h = ad.sub(h, ad.scale(ad.transpose(h), 0.5))
        h = ad.concat([h, ad.square(h)], axis=1)      # (4, 8)
        h = ad.matmul(ad.reshape(h, (2, 2, 8)), d)    # 3-D @ 2-D: (2, 2, 8)
        h = ad.matmul(ad.transpose(h), h)             # 3-D @ 3-D: (2, 8, 8)
        h = ad.mean_rows(h)                           # (2, 8)
        h = ad.stack([h, ad.tanh(h)], axis=1)   # (2, 2, 8)
        h = ad.scale(h, weights)                # array constant, broadcast over the last axis
        h = ad.stack([ad.select(h, 1, axis=1), ad.select(h, 0, axis=1),
                      ad.select(h, 1, axis=1)], axis=1)            # (2, 3, 8), a slice reused
        rows = ad.reshape(h, (6, 8))
        h = ad.concat([ad.mlp(rows, layers[:2] + layers[2:], "tanh"),
                       ad.mlp(rows, [layers[0], layers[2]], "gelu")], axis=1)   # (6, 6)
        return ad.total_sum(ad.mul(h, h))

    err = finite_difference_check(build, [a, b, c, d] + mlp_params, h=1e-5)
    assert err <= 1e-4


def test_finite_difference_check_quadratic_is_tight():
    w = Tensor(np.array([1.5, -0.5, 2.0]))

    def loss():
        return ad.total_sum(ad.square(w))

    assert finite_difference_check(loss, [w], h=1e-5) <= 1e-8


def test_finite_difference_check_constant_function_zero():
    w = Tensor(np.ones(3))
    const = Tensor(np.array(4.0))

    def loss():
        return ad.square(const)

    assert finite_difference_check(loss, [w], h=1e-5) == 0.0


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(6, 9)))
    s = ad.softmax(x, axis=-1)
    assert np.allclose(s.data.sum(axis=-1), 1.0, atol=1e-12)


def test_forward_is_deterministic_bitwise():
    rng = np.random.default_rng(9)
    x = Tensor(rng.normal(size=(8, 8)))
    w = Tensor(rng.normal(size=(8, 8)))
    r1 = ad.tanh(ad.matmul(x, w)).data
    r2 = ad.tanh(ad.matmul(x, w)).data
    assert np.array_equal(r1, r2)


def test_gelu_zero_and_value_against_exact_gaussian_cdf():
    x = Tensor(np.array([0.0, 1.0, -1.0]))
    out = ad.gelu(x).data
    assert out[0] == 0.0
    # exact GELU x * Phi(x); tanh approximation is good to ~1e-3
    from math import erf, sqrt
    exact = np.array([v * 0.5 * (1 + erf(v / sqrt(2))) for v in x.data])
    assert np.max(np.abs(out - exact)) <= 1e-3


def test_matmul_shape_mismatch_raises():
    a = Tensor(np.ones((1, 2)))
    b = Tensor(np.ones((3, 2)))
    with pytest.raises(ShapeError):
        ad.matmul(a, b)


@pytest.mark.filterwarnings("ignore:overflow")
def test_non_finite_result_raises_not_propagates():
    big = Tensor(np.array([1e308]))
    with pytest.raises(NumericError):
        ad.mul(big, big)


def test_no_nan_for_moderate_inputs():
    rng = np.random.default_rng(13)
    x = Tensor(rng.uniform(-1e3, 1e3, size=(5, 5)))
    for op in (ad.tanh, ad.gelu, lambda t: ad.softmax(t, axis=-1), ad.square):
        assert np.all(np.isfinite(op(x).data))


def test_gradient_accumulates_across_reuse():
    w = Tensor(np.array(2.0))
    with Tape() as tape:
        # loss = w*w + 3w -> dL/dw = 2w + 3 = 7
        loss = ad.add(ad.square(w), ad.scale(w, 3.0))
    grads = backward(tape, loss)
    assert grads.of(w) == pytest.approx(7.0, abs=1e-12)


def test_untaped_ops_record_nothing():
    x = Tensor(np.ones(3))
    y = ad.square(x)
    assert y.node is None


def test_cross_tape_queries_are_safe():
    w = Tensor(np.array(3.0))
    with Tape() as t1:
        loss1 = ad.square(w)
    with Tape() as t2:
        loss2 = ad.square(Tensor(np.array(2.0)))
    grads2 = backward(t2, loss2)
    assert grads2.of(loss1) == 0.0          # foreign node -> zeros, never aliased
    with pytest.raises(ValueError):
        backward(t1, loss2)


def test_select_takes_one_slice_and_scatters_its_gradient():
    rng = np.random.default_rng(4)
    x = Tensor(rng.normal(size=(3, 4, 2)))
    g = rng.normal(size=(3, 2))
    with Tape() as tape:
        y = ad.select(x, 2, axis=1)
        loss = ad.total_sum(ad.mul(y, Tensor(g)))
    assert np.array_equal(y.data, x.data[:, 2])
    want = np.zeros_like(x.data)
    want[:, 2] = g
    assert np.array_equal(backward(tape, loss).of(x), want)


def test_mlp_rejects_unknown_activation_and_bad_shapes():
    x = Tensor(np.ones((2, 3)))
    w, b = Tensor(np.ones((3, 4))), Tensor(np.ones(4))
    with pytest.raises(ConfigError):
        ad.mlp(x, [(w, b)], "relu")
    with pytest.raises(ShapeError):
        ad.mlp(x, [(Tensor(np.ones((2, 4))), b)], "tanh")
    with pytest.raises(ShapeError):
        ad.mlp(x, [(w, Tensor(np.ones(3)))], "tanh")
