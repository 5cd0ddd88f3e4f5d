"""Masking, imputation, and ensemble forecasting contracts."""

import tracemalloc

import numpy as np
import pytest

from conftest import make_model

from alternator import tasks
from alternator.core import mean_x_components, mean_z_components
from alternator.errors import ConfigError, ShapeError
from alternator.tasks import (
    MARMask,
    apply_mar_mask,
    climatology_forecast,
    forecast_ensemble,
    impute,
    mean_fill,
)


def _series(T=6, d=2, seed=0):
    return np.random.default_rng(seed).normal(size=(T, d))


# --- masking -----------------------------------------------------------------

def test_mask_rate_zero_all_observed():
    xs = _series()
    masked, mask = apply_mar_mask(xs, 0.0, seed=1)
    assert mask.observed.all()
    assert np.array_equal(masked, xs)


def test_mask_rate_one_all_missing():
    masked, mask = apply_mar_mask(_series(), 1.0, seed=1)
    assert not mask.observed.any()
    assert np.isnan(masked).all()


def test_mask_fraction_concentrates():
    xs = np.zeros((1000, 1))
    _, mask = apply_mar_mask(xs, 0.5, seed=2)
    assert 0.45 <= 1.0 - mask.observed.mean() <= 0.55


def test_mask_fraction_binomial_bound():
    # 10^5 Bernoulli draws: |fraction - r| <= 4 * sqrt(r(1-r)/n)
    n, r = 100_000, 0.3
    xs = np.zeros((n, 1))
    _, mask = apply_mar_mask(xs, r, seed=3)
    assert abs(1.0 - mask.observed.mean() - r) <= 4.0 * np.sqrt(r * (1 - r) / n)


def test_mask_sentinel_is_nan_and_per_channel_variant():
    xs = _series()
    masked, mask = apply_mar_mask(xs, 0.5, seed=4, per_channel=True)
    assert mask.observed.shape == xs.shape
    assert np.isnan(masked[~mask.observed]).all()
    assert np.array_equal(masked[mask.observed], xs[mask.observed])


def test_mask_rejects_bad_rate():
    with pytest.raises(ConfigError):
        apply_mar_mask(_series(), 1.5, seed=0)


# --- imputation ------------------------------------------------------------

def test_impute_all_observed_passthrough(tiny_model):
    xs = _series(T=4, d=2)
    masked, mask = apply_mar_mask(xs, 0.0, seed=5)
    out = impute(tiny_model, masked, mask, seed=0)
    assert np.array_equal(out, xs)


def test_impute_all_missing_is_allowed(tiny_model):
    xs = _series(T=4, d=2)
    masked, mask = apply_mar_mask(xs, 1.0, seed=6)
    out = impute(tiny_model, masked, mask, seed=0)
    assert np.all(np.isfinite(out))


def test_impute_preserves_observed_exactly(tiny_model):
    xs = _series(T=4, d=2, seed=7)
    masked, mask = apply_mar_mask(xs, 0.5, seed=8)
    out = impute(tiny_model, masked, mask, seed=1, n_samples=3)
    obs = mask.observed
    assert np.array_equal(out[obs], xs[obs])


def test_impute_missing_value_is_step_mean(tiny_model):
    # replicate the recursion by hand and compare the imputed entry
    xs = _series(T=3, d=2, seed=9)
    observed = np.array([True, False, True])
    masked = xs.copy()
    masked[1] = np.nan
    mask = MARMask(observed=observed)
    out = impute(tiny_model, masked, mask, seed=2, mean_propagation=True)

    z = np.random.default_rng(
        np.random.SeedSequence(entropy=2, spawn_key=(0,))
    ).standard_normal(tiny_model.d_z)
    z = z.copy()
    expected = None
    cur = z
    for t in range(1, 4):
        mu_x = mean_x_components(tiny_model, cur, t)[0].data
        x_in = xs[t - 1] if observed[t - 1] else mu_x
        if t == 2:
            expected = mu_x
        cur = mean_z_components(tiny_model, cur, x_in, t).data
    assert np.allclose(out[1], expected, atol=1e-12)
    assert np.array_equal(out[0], xs[0])


def _reference_impute(model, masked, observed, seed, n_samples, mean_propagation):
    """The imputation recursion written out, one rollout and one step at a time."""
    obs = observed if observed.ndim == 2 else np.broadcast_to(observed[:, None], masked.shape)
    data = np.where(obs, masked, 0.0)
    acc = np.zeros_like(data)
    for k in range(n_samples):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(k,)))
        z = rng.standard_normal(model.d_z)
        for t in range(1, len(masked) + 1):
            x_in = np.where(obs[t - 1], data[t - 1], mean_x_components(model, z, t)[0].data)
            acc[t - 1] += x_in
            z = mean_z_components(model, z, x_in, t).data
            if not mean_propagation:
                z = z + model.schedule.sigma_z * rng.standard_normal(model.d_z)
    out = acc / n_samples
    out[obs] = masked[obs]
    return out


@pytest.mark.parametrize("per_channel", [False, True])
@pytest.mark.parametrize("mean_propagation", [False, True])
def test_impute_single_sample_matches_reference_loop_bitwise(per_channel, mean_propagation):
    model = make_model(d_x=3, d_z=2, T=8, seed=41)
    masked, mask = apply_mar_mask(_series(T=8, d=3, seed=10), 0.5, seed=11,
                                  per_channel=per_channel)
    got = impute(model, masked, mask, seed=3, mean_propagation=mean_propagation)
    want = _reference_impute(model, masked, mask.observed, 3, 1, mean_propagation)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("per_channel", [False, True])
def test_impute_many_samples_matches_reference_loop(per_channel):
    model = make_model(d_x=3, d_z=2, T=8, seed=42)
    masked, mask = apply_mar_mask(_series(T=8, d=3, seed=12), 0.5, seed=13,
                                  per_channel=per_channel)
    got = impute(model, masked, mask, seed=4, n_samples=5)
    want = _reference_impute(model, masked, mask.observed, 4, 5, False)
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)


def _mask_stack(rates, n_series, T, d, per_channel):
    """Masked series for every (rate, series) pair, each masked with its own seed."""
    pairs = [apply_mar_mask(_series(T=T, d=d, seed=20 + i), rate, seed=30 + 10 * r + i,
                            per_channel=per_channel)
             for r, rate in enumerate(rates) for i in range(n_series)]
    return [m for m, _ in pairs], [mask for _, mask in pairs]


@pytest.mark.parametrize("n_samples", [1, 3])
@pytest.mark.parametrize("per_channel", [False, True])
@pytest.mark.parametrize("mean_propagation", [False, True])
def test_impute_stack_matches_per_series_calls(n_samples, per_channel, mean_propagation):
    model = make_model(d_x=3, d_z=2, T=8, seed=44)
    masked, masks = _mask_stack([0.2, 0.5, 0.9], 3, 8, 3, per_channel)
    seeds = list(range(100, 100 + len(masked)))
    got = impute(model, np.stack(masked), MARMask.stack(masks), seeds,
                 n_samples=n_samples, mean_propagation=mean_propagation)
    want = np.stack([impute(model, m, mask, s, n_samples=n_samples,
                            mean_propagation=mean_propagation)
                     for m, mask, s in zip(masked, masks, seeds)])
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)
    # a stack of one is the single-series call
    one = impute(model, masked[4][None], MARMask.stack(masks[4:5]), seeds[4:5],
                 n_samples=n_samples, mean_propagation=mean_propagation)
    assert np.array_equal(one[0], want[4])


@pytest.mark.parametrize("row_block", [1, 7, 10])
@pytest.mark.parametrize("mean_propagation", [False, True])
def test_impute_row_blocks_match_one_batch(monkeypatch, row_block, mean_propagation):
    # 9 series x 3 samples: 1 and 7 rows a block hold one and two series (the
    # last block partial), 10 rows three; a series never splits. A block is
    # a smaller matmul, which BLAS may round differently: at default sizes
    # blocks of 512 or 4096 rows moved last digits, 1024 did not.
    model = make_model(d_x=3, d_z=2, T=8, seed=46)
    masked, masks = _mask_stack([0.2, 0.5, 0.9], 3, 8, 3, False)
    args = (model, np.stack(masked), MARMask.stack(masks), list(range(200, 209)))
    kwargs = {"n_samples": 3, "mean_propagation": mean_propagation}
    one_batch = impute(*args, **kwargs)
    monkeypatch.setattr(tasks, "_ROW_BLOCK", row_block)
    np.testing.assert_allclose(impute(*args, **kwargs), one_batch, rtol=1e-12, atol=1e-15)


def test_impute_memory_does_not_grow_with_rows():
    # 500 series x 10 samples: one batch would draw (5000, 50, 8) latent noise
    # up front (16 MB) and peak at about 37 MiB; blocks hold ~1000 rows.
    model = make_model(d_x=1, d_z=8, T=50, hidden_dim=16, seed=3)
    rng = np.random.default_rng(0)
    mask = MARMask(rng.random((500, 50)) >= 0.5)
    masked = np.where(mask.observed[..., None], rng.normal(size=(500, 50, 1)), np.nan)
    tracemalloc.start()
    try:
        impute(model, masked, mask, list(range(500)), n_samples=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_impute_stack_needs_one_seed_and_mask_per_series(tiny_model):
    masked, masks = _mask_stack([0.5], 2, 4, 2, False)
    with pytest.raises(ShapeError):
        impute(tiny_model, np.stack(masked), MARMask.stack(masks), [1])
    with pytest.raises(ShapeError):
        impute(tiny_model, np.stack(masked), masks[0], [1, 2])


def test_impute_dimension_mismatch(tiny_model):
    with pytest.raises(ShapeError):
        impute(tiny_model, np.zeros((4, 3)), MARMask(np.ones(4, bool)), seed=0)


def test_impute_zero_length_series_is_config_error():
    model = make_model(d_x=1)
    with pytest.raises(ConfigError, match="sequence length must be >= 1"):
        impute(model, np.zeros((0, 1)), MARMask(np.zeros(0, bool)), seed=0)
    with pytest.raises(ConfigError, match="sequence length must be >= 1"):
        impute(model, np.zeros((2, 0, 1)), MARMask(np.zeros((2, 0), bool)), seed=[0, 1])


def test_mean_fill_uses_observed_mean():
    xs = np.array([[1.0], [2.0], [3.0], [4.0]])
    mask = MARMask(observed=np.array([True, False, False, True]))
    masked = xs.copy()
    masked[1:3] = np.nan
    out = mean_fill(masked, mask)
    assert np.array_equal(out[:, 0], [1.0, 2.5, 2.5, 4.0])


@pytest.mark.parametrize("caller", ["impute", "mean_fill"])
def test_non_boolean_mask_is_shape_error_naming_its_dtype(caller):
    # an int mask indexes where it should mask: mean_fill returned
    # [1, nan, nan, nan] and impute raised IndexError
    model = make_model(d_x=1)
    masked = np.array([[1.0], [np.nan], [3.0], [4.0]])
    run = {"impute": lambda mask: impute(model, masked, mask, seed=0),
           "mean_fill": lambda mask: mean_fill(masked, mask)}[caller]
    with pytest.raises(ShapeError, match="int64"):
        run(MARMask(np.array([1, 0, 1, 1], dtype=np.int64)))
    assert not np.isnan(run(MARMask(np.array([True, False, True, True])))).any()


# --- forecasting -----------------------------------------------------------

def test_forecast_shapes_and_default_members(tiny_model):
    model = make_model(T=12)
    ens = forecast_ensemble(model, _series(T=4, d=2), horizon=5, members=50, seed=0)
    assert ens.members.shape == (50, 5, 2)
    assert np.all(np.isfinite(ens.members))


def test_forecast_deterministic(tiny_model):
    model = make_model(T=10)
    ctx = _series(T=3, d=2, seed=1)
    a = forecast_ensemble(model, ctx, horizon=4, members=3, seed=5)
    b = forecast_ensemble(model, ctx, horizon=4, members=3, seed=5)
    assert np.array_equal(a.members, b.members)


def test_forecast_identical_noise_identical_members():
    model = make_model(T=10)
    ctx = _series(T=3, d=2, seed=2)
    ens = forecast_ensemble(model, ctx, horizon=4, member_seeds=[7, 7, 9], seed=0)
    assert np.array_equal(ens.members[0], ens.members[1])
    assert not np.array_equal(ens.members[0], ens.members[2])


def test_forecast_member_seed_permutation_permutes_members():
    model = make_model(T=10)
    ctx = _series(T=3, d=2, seed=3)
    seeds = [11, 22, 33]
    a = forecast_ensemble(model, ctx, horizon=4, member_seeds=seeds, seed=0)
    b = forecast_ensemble(model, ctx, horizon=4, member_seeds=seeds[::-1], seed=0)
    assert np.array_equal(a.members[0], b.members[2])
    assert np.array_equal(a.members[1], b.members[1])
    assert np.allclose(a.members.mean(axis=0), b.members.mean(axis=0), atol=1e-15)


def test_forecast_matches_reference_loop():
    # each member rolled out alone, drawing observation then latent noise per step
    model = make_model(d_x=2, d_z=3, T=10, seed=43)
    ctx = _series(T=4, d=2, seed=4)
    seeds = [5, 6, 7, 8]
    ens = forecast_ensemble(model, ctx, horizon=5, member_seeds=seeds, seed=9)
    encode_seed = int(np.random.SeedSequence(entropy=9, spawn_key=(0,)).generate_state(1)[0])
    z = np.random.default_rng(encode_seed).standard_normal(model.d_z)
    for t in range(1, 5):
        z = mean_z_components(model, z, ctx[t - 1], t).data
    s = model.schedule
    for m, mseed in enumerate(seeds):
        rng, zm = np.random.default_rng(mseed), z
        for h in range(5):
            t = 5 + h
            x = (mean_x_components(model, zm, t)[0].data
                 + s.sigma_x * rng.standard_normal(model.d_x))
            zm = (mean_z_components(model, zm, x, t).data
                  + s.sigma_z * rng.standard_normal(model.d_z))
            np.testing.assert_allclose(ens.members[m, h], x, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("explicit_member_seeds", [False, True])
def test_forecast_stack_matches_per_series_calls(explicit_member_seeds):
    model = make_model(d_x=2, d_z=3, T=10, seed=45)
    contexts = np.stack([_series(T=4, d=2, seed=40 + i) for i in range(3)])
    seeds = [7, 8, 9]
    member_seeds = [[50 + 4 * i + k for k in range(4)] for i in range(3)]
    def members(rows):
        return {"member_seeds": rows} if explicit_member_seeds else {"members": 4}

    got = forecast_ensemble(model, contexts, horizon=5, seed=seeds, **members(member_seeds))
    want = [forecast_ensemble(model, c, horizon=5, seed=s, **members(ms))
            for c, s, ms in zip(contexts, seeds, member_seeds)]
    assert got.members.shape == (3, 4, 5, 2)
    np.testing.assert_allclose(got.members, np.stack([w.members for w in want]),
                               rtol=1e-12, atol=1e-15)
    one = forecast_ensemble(model, contexts[1:2], horizon=5, seed=seeds[1:2],
                            **members(member_seeds[1:2]))
    assert np.array_equal(one.members[0], want[1].members)


@pytest.mark.parametrize("row_block", [1, 9, 12])
def test_forecast_row_blocks_match_one_batch(monkeypatch, row_block):
    # 5 contexts x 4 members: blocks of one, two (the last partial) and three
    # series; BLAS may round a smaller block differently, as for impute
    model = make_model(d_x=2, d_z=3, T=10, seed=47)
    contexts = np.stack([_series(T=4, d=2, seed=60 + i) for i in range(5)])
    one_batch = forecast_ensemble(model, contexts, horizon=5, members=4, seed=list(range(5)))
    monkeypatch.setattr(tasks, "_ROW_BLOCK", row_block)
    got = forecast_ensemble(model, contexts, horizon=5, members=4, seed=list(range(5)))
    np.testing.assert_allclose(got.members, one_batch.members, rtol=1e-12, atol=1e-15)


def test_forecast_stack_rejects_ragged_member_seeds():
    model = make_model(T=10)
    contexts = np.stack([_series(T=3, d=2), _series(T=3, d=2, seed=1)])
    for member_seeds in ([[1, 2], [3]], [[1, 2]]):
        with pytest.raises(ConfigError):
            forecast_ensemble(model, contexts, horizon=2, seed=[0, 1], member_seeds=member_seeds)


def test_forecast_rejects_empty_member_list():
    with pytest.raises(ConfigError):
        forecast_ensemble(make_model(T=10), _series(T=3, d=2), horizon=2, member_seeds=[])


def test_forecast_respects_schedule_budget():
    model = make_model(T=6)
    with pytest.raises(ConfigError):
        forecast_ensemble(model, _series(T=4, d=2), horizon=4, members=2, seed=0)


def test_climatology_forecast_values():
    data = np.stack([np.full((5, 1), 1.0), np.full((5, 1), 3.0)])
    clim = climatology_forecast(data, t_start=2, horizon=3)
    assert np.array_equal(clim, np.full((3, 1), 2.0))
    with pytest.raises(ConfigError):
        climatology_forecast(data, t_start=4, horizon=3)
