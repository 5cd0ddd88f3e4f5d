"""Gradient and contract tests for the autodiff substrate."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alternator import autodiff as ad
from alternator.autodiff import Tape, Tensor, backward, finite_difference_check
from alternator.errors import NumericError, ShapeError


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


def test_every_exported_name_is_defined_and_callable():
    # bench/tracing.py wraps each op named here and skips a missing name
    # silently, so a stale entry would make its op counts read low.
    assert len(set(ad.__all__)) == len(ad.__all__)
    for name in ad.__all__:
        assert callable(getattr(ad, name, None)), name


def test_square_gradient_polynomial():
    w = Tensor(np.array(3.0))
    with Tape() as tape:
        loss = ad.square(w)
    [g_w] = backward(tape, loss, [w])
    assert g_w == pytest.approx(6.0, abs=1e-12)


def test_tanh_chain_matches_central_differences():
    rng = np.random.default_rng(7)
    w = Tensor(rng.uniform(-1, 1, size=(3, 4)))
    x = Tensor(rng.uniform(-1, 1, size=(5, 3)))

    def loss_value():
        return float(np.tanh(x.data @ w.data).sum())

    with Tape() as tape:
        loss = ad.total_sum(ad.tanh(ad.matmul(x, w)))
    [g_w] = backward(tape, loss, [w])
    oracle = numeric_grad(loss_value, w.data)
    assert rel_err(g_w, oracle) <= 1e-4


def test_unreachable_parameter_gets_zero_gradient():
    w = Tensor(np.ones(3))
    other = Tensor(np.ones(2))              # never recorded
    dead = Tensor(np.ones(4))               # recorded, but the loss does not reach it
    with Tape() as tape:
        ad.square(dead)
        loss = ad.total_sum(ad.square(w))
    g_other, g_w, g_dead = backward(tape, loss, [other, w, dead])
    assert np.array_equal(g_other, np.zeros(2))
    assert np.array_equal(g_dead, np.zeros(4))
    assert np.array_equal(g_w, 2 * w.data)


def test_backward_rejects_non_scalar_loss():
    w = Tensor(np.ones(3))
    with Tape() as tape:
        y = ad.square(w)
    with pytest.raises(ValueError):
        backward(tape, y, [w])


def test_gradient_of_loss_wrt_itself_is_one():
    w = Tensor(np.array(2.0))
    with Tape() as tape:
        loss = ad.square(w)
    [g_loss] = backward(tape, loss, [loss])
    assert g_loss == 1.0


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
        [g_x] = backward(tape, loss, [x])
        assert np.allclose(g_x, dfn(x.data), atol=1e-12)


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
        h = ad.tanh(h)
        h = ad.concat([h, ad.square(h)], axis=1)      # (4, 8)
        h = ad.matmul(ad.reshape(h, (2, 2, 8)), d)    # 3-D @ 2-D: (2, 2, 8)
        h = ad.matmul(ad.reshape(h, (2, 8, 2)), h)    # 3-D @ 3-D: (2, 8, 8)
        h = ad.select(h, 0, axis=1)                   # (2, 8)
        h = ad.stack([h, ad.tanh(h)], axis=1)   # (2, 2, 8)
        h = ad.scale(h, weights)                # array constant, broadcast over the last axis
        h = ad.stack([ad.select(h, 1, axis=1), ad.select(h, 0, axis=1),
                      ad.select(h, 1, axis=1)], axis=1)            # (2, 3, 8), a slice reused
        rows = ad.reshape(h, (6, 8))
        h = ad.concat([ad.mlp(rows, layers[:2] + layers[2:]),
                       ad.mlp(rows, [layers[0], layers[2]])], axis=1)   # (6, 6)
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


def test_forward_is_deterministic_bitwise():
    rng = np.random.default_rng(9)
    x = Tensor(rng.normal(size=(8, 8)))
    w = Tensor(rng.normal(size=(8, 8)))
    r1 = ad.tanh(ad.matmul(x, w)).data
    r2 = ad.tanh(ad.matmul(x, w)).data
    assert np.array_equal(r1, r2)


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
    for op in (ad.tanh, ad.square):
        assert np.all(np.isfinite(op(x).data))


def test_gradient_accumulates_across_reuse():
    w = Tensor(np.array(2.0))
    with Tape() as tape:
        # loss = w*w + 3w -> dL/dw = 2w + 3 = 7
        loss = ad.add(ad.square(w), ad.scale(w, 3.0))
    [g_w] = backward(tape, loss, [w])
    assert g_w == pytest.approx(7.0, abs=1e-12)


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
    g_loss1, g_w = backward(t2, loss2, [loss1, w])
    assert g_loss1 == 0.0                   # foreign node -> zeros, never aliased
    assert g_w == 0.0                       # a leaf of another tape only
    with pytest.raises(ValueError):
        backward(t1, loss2, [w])


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
    assert np.array_equal(backward(tape, loss, [x])[0], want)


def test_mlp_rejects_bad_shapes():
    x = Tensor(np.ones((2, 3)))
    w, b = Tensor(np.ones((3, 4))), Tensor(np.ones(4))
    with pytest.raises(ShapeError):
        ad.mlp(x, [(Tensor(np.ones((2, 4))), b)])
    with pytest.raises(ShapeError):
        ad.mlp(x, [(w, Tensor(np.ones(3)))])


# --- one-sweep tapes and borrowed gradients ---------------------------------

def test_second_backward_on_one_tape_raises():
    # the mlp VJP consumes its saved activations, so a second sweep would be wrong
    rng = np.random.default_rng(6)
    x = Tensor(rng.normal(size=(4, 3)))
    layers = [(Tensor(rng.normal(size=(3, 5))), Tensor(rng.normal(size=5))),
              (Tensor(rng.normal(size=(5, 2))), Tensor(rng.normal(size=2)))]
    with Tape() as tape:
        loss = ad.total_sum(ad.mlp(x, layers))
    backward(tape, loss, [x])
    with pytest.raises(ValueError, match="already swept"):
        backward(tape, loss, [x])


def test_backward_frees_what_the_forward_saved():
    rng = np.random.default_rng(8)
    x = Tensor(rng.normal(size=(4096, 3)))
    dims = (3, 64, 64, 2)
    layers = [(Tensor(rng.normal(size=(n_in, n_out)) / np.sqrt(n_in)),
               Tensor(rng.normal(size=n_out))) for n_in, n_out in zip(dims[:-1], dims[1:])]
    hidden = 2 * 4096 * 64 * 8               # the two (4096, 64) activations the forward saves
    tracemalloc.start()
    try:
        with Tape() as tape:
            loss = ad.total_sum(ad.mlp(x, layers))
        before = tracemalloc.get_traced_memory()[0]
        [g_w0] = backward(tape, loss, [layers[0][0]])
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # tape, loss and the one (3, 64) result are alive; the gradients nobody
    # asked for, 0.2 MiB ((4096, 2) for the output, (4096, 3) for x, the
    # other weights'), are gone with the hidden activations
    assert before - after > hidden - 2**12, (before, after)
    assert g_w0.shape == (3, 64)


def test_gradients_of_results_do_not_share_storage():
    rng = np.random.default_rng(7)
    a, b, c = (Tensor(rng.normal(size=3)) for _ in range(3))
    w, v = rng.normal(size=3), rng.normal(size=3)
    with Tape() as tape:
        a_term = ad.total_sum(ad.mul(a, Tensor(w)))   # swept last: a's second contribution
        ab = ad.add(a, b)                  # its VJP returns the same g for a and b
        u = ad.add(ab, c)                  # two contributions below: backward owns u's gradient
        loss = ad.add(ad.add(a_term, ad.total_sum(ad.mul(u, Tensor(w)))),
                      ad.total_sum(ad.mul(u, Tensor(v))))
    got = backward(tape, loss, [a, b, c, ab, u, a_term, loss, a])   # a twice
    want = [g.copy() for g in got]
    assert np.array_equal(want[0], (v + w) + w)
    assert np.array_equal(want[7], want[0])
    for k in (1, 2, 3, 4):
        assert np.array_equal(want[k], v + w)
    for k, g in enumerate(got):
        g[...] = np.nan
        for j in range(k + 1, len(got)):
            assert np.array_equal(got[j], want[j]), (k, j)


def test_standalone_tanh_keeps_its_output_through_backward():
    rng = np.random.default_rng(9)
    x = Tensor(rng.normal(size=(5, 4)))
    x_before = x.data.copy()
    with Tape() as tape:
        y = ad.tanh(x)
        loss = ad.total_sum(ad.mul(y, Tensor(rng.normal(size=(5, 4)))))
    y_before = y.data.copy()
    backward(tape, loss, [x])
    assert np.array_equal(y.data, y_before)
    assert np.array_equal(x.data, x_before)


def test_select_gradient_lands_in_its_slice_after_a_borrowed_first_contribution():
    rng = np.random.default_rng(8)
    x, c = Tensor(rng.normal(size=(3, 4, 2))), Tensor(rng.normal(size=(3, 4, 2)))
    g_sel, w = rng.normal(size=(3, 2)), rng.normal(size=(3, 4, 2))
    with Tape() as tape:
        y = ad.select(x, 2, axis=1)        # recorded first, so swept after the add below
        z = ad.add(x, c)                   # x's first contribution is c's gradient array too
        loss = ad.add(ad.total_sum(ad.mul(y, Tensor(g_sel))),
                      ad.total_sum(ad.mul(z, Tensor(w))))
    g_x, g_c = backward(tape, loss, [x, c])
    want = w * 1.0
    want[:, 2] += g_sel
    assert np.array_equal(g_x, want)
    assert np.array_equal(g_c, w * 1.0)


# --- properties of the fused mlp and of the VJPs ----------------------------

def _chain(x, layers):
    h = x
    for k, (w, b) in enumerate(layers):
        h = ad.add(ad.matmul(h, w), b)
        if k < len(layers) - 1:
            h = ad.tanh(h)
    return h


@settings(max_examples=150, deadline=None)
@given(rows=st.integers(1, 40), widths=st.lists(st.integers(1, 9), min_size=3, max_size=5),
       seed=st.integers(0, 2**32 - 1))
def test_fused_mlp_equals_layer_chain_bitwise(rows, widths, seed):
    # widths: input, 1-3 hidden widths, output; the output layer is the last pair
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(rows, widths[0])))
    layers = [(Tensor(rng.normal(size=(n_in, n_out))), Tensor(rng.normal(size=n_out)))
              for n_in, n_out in zip(widths[:-1], widths[1:])]
    weight = Tensor(rng.normal(size=(rows, widths[-1])))
    params = [x] + [t for pair in layers for t in pair]
    x_before = x.data.copy()
    results = []
    for forward in (_chain, ad.mlp):
        with Tape() as tape:
            out = forward(x, layers)
            loss = ad.total_sum(ad.mul(out, weight))
        out_before = out.data.copy()
        grads = backward(tape, loss, params)
        assert np.array_equal(x.data, x_before)
        assert np.array_equal(out.data, out_before)
        results.append([out.data] + grads)
    for fused, chain in zip(results[1], results[0]):
        assert np.array_equal(fused, chain)


_UNARY = {"tanh": ad.tanh, "square": ad.square, "neg": ad.neg}
_BINARY = {"add": ad.add, "sub": ad.sub, "mul": ad.mul, "matmul": ad.matmul}


@settings(max_examples=150, deadline=None)
@given(op=st.sampled_from(sorted(_UNARY) + sorted(_BINARY)),
       n=st.integers(1, 4), k=st.integers(1, 4), m=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_random_vjps_match_finite_differences(op, n, k, m, seed):
    rng = np.random.default_rng(seed)
    a = Tensor(rng.uniform(-1.5, 1.5, size=(n, k)))
    b = Tensor(rng.uniform(-1.5, 1.5, size=(k, m) if op == "matmul" else (n, k)))
    out_shape = (n, m) if op == "matmul" else (n, k)
    weight = Tensor(rng.uniform(0.5, 2.0, size=out_shape))
    if op in _UNARY:
        params, build = [a], lambda: _UNARY[op](a)
    else:
        params, build = [a, b], lambda: _BINARY[op](a, b)
    err = finite_difference_check(lambda: ad.total_sum(ad.mul(build(), weight)), params, h=1e-5)
    assert err <= 1e-4
