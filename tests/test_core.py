"""Schedules, the generative process, encoding, and checkpoint round trips."""

import dataclasses
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from conftest import constant_network, make_model, zero_network

from alternator.core import (
    NoiseSchedule,
    alternate,
    encode_states,
    generate_batch,
    linear_schedule,
    load_model,
    mean_x_components,
    mean_z_components,
    save_model,
    vanilla_schedule,
)
from alternator.errors import CheckpointError, ConfigError, ShapeError


# --- schedules ---------------------------------------------------------------

def test_linear_schedule_endpoints():
    assert np.array_equal(linear_schedule(2, 0.1, 0.9), [0.1, 0.9])


def test_linear_schedule_even_spacing():
    got = linear_schedule(4, 0.1, 0.91)
    assert np.allclose(got, [0.1, 0.37, 0.64, 0.91], atol=1e-12)


def test_linear_schedule_length_one():
    assert np.array_equal(linear_schedule(1, 0.3, 0.5), [0.3])


def test_linear_schedule_rejects_reversed_endpoints():
    with pytest.raises(ConfigError):
        linear_schedule(3, 0.5, 0.1)


def test_validate_schedule_beta_over_budget():
    with pytest.raises(ConfigError, match=r"schedule out of bounds: beta at t=1 is 0.5"):
        NoiseSchedule(beta=np.array([0.5]), alpha=np.array([0.1]), sigma_x=0.8, sigma_z=0.1)


def test_validate_schedule_boundary_admitted():
    sx = 0.3
    s = NoiseSchedule(beta=np.array([1.0 - sx**2]), alpha=np.array([0.5]),
                      sigma_x=sx, sigma_z=0.1)
    assert s.coef_x(1)[1] == 0.0


def test_validate_schedule_negative_alpha():
    with pytest.raises(ConfigError, match=r"schedule out of bounds: alpha at t=2 is -0.1"):
        NoiseSchedule(beta=np.array([0.1, 0.1]), alpha=np.array([0.2, -0.1]),
                      sigma_x=0.3, sigma_z=0.1)


def test_validate_schedule_reports_nan_coefficients():
    with pytest.raises(ConfigError, match=r"schedule out of bounds: beta at t=2 is nan"):
        NoiseSchedule(beta=np.array([0.1, np.nan]), alpha=np.array([0.1, 0.1]),
                      sigma_x=0.3, sigma_z=0.1)
    with pytest.raises(ConfigError, match=r"schedule out of bounds: alpha at t=1 is nan"):
        NoiseSchedule(beta=np.array([0.1, 0.1]), alpha=np.array([np.nan, 0.1]),
                      sigma_x=0.3, sigma_z=0.1)


def test_schedule_is_immutable_and_copies_its_input():
    beta = np.array([0.1, 0.2])
    s = NoiseSchedule(beta=beta, alpha=np.array([0.1, 0.2]), sigma_x=0.3, sigma_z=0.1)
    with pytest.raises(ValueError, match="read-only"):
        s.beta[0] = 0.95
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.sigma_x = 0.99
    beta[0] = 0.95                          # the caller's array stays writable
    assert s.beta[0] == 0.1


def test_coefficients_of_a_step_vector_equal_the_per_step_ones():
    s = NoiseSchedule(beta=np.array([0.0, 0.4, 0.91]), alpha=np.array([0.3, 0.5, 0.2]),
                      sigma_x=0.3, sigma_z=0.15)
    t = np.array([3, 1, 2, 3])
    for coef in (s.coef_x, s.coef_z):
        got = coef(t)
        for k, step in enumerate(t):
            assert (got[0][k], got[1][k]) == coef(int(step))


def test_vanilla_schedule_values_and_zero_coefficient():
    s = vanilla_schedule(3, sigma_x=0.3, sigma_z=0.15)
    assert np.allclose(s.beta, 0.91, atol=1e-12)
    for t in range(1, 4):
        assert s.coef_x(t)[1] == 0.0      # exactly zero, not approximately
        assert s.coef_z(t)[1] == 0.0


def test_default_schedule_is_valid_and_hits_boundary():
    s = __import__("alternator").default_schedule(5, 0.3, 0.15)
    assert s.beta[-1] == s.beta_limit and s.alpha[-1] == s.alpha_limit
    assert s.coef_x(5)[1] == 0.0          # final step degenerates exactly


def test_constructed_schedules_always_validate():
    from alternator.core import default_schedule
    rng = np.random.default_rng(17)
    for _ in range(25):
        sx, sz = rng.uniform(0.05, 0.9, size=2)
        T = int(rng.integers(1, 12))
        lo = rng.uniform(0.0, 1.0)
        hi = rng.uniform(lo, 1.0)
        vanilla_schedule(T, sx, sz)        # construction checks every bound
        default_schedule(T, sx, sz, (lo, hi), (lo, hi))


# --- means and sampling -------------------------------------------------------

def test_mean_x_boundary_uses_only_main_network():
    model = make_model(schedule="vanilla", seed=3)
    z = np.array([0.4, -0.2])
    expected = np.sqrt(1.0 - model.schedule.sigma_x**2) * model.obs_net(z).data
    got = mean_x_components(model, z, t=1)[0].data
    assert np.array_equal(got, expected)  # bitwise


def test_mean_x_zero_noise_coefficient_case():
    # beta=0.75, sigma_x=0.5 -> 1 - 0.75 - 0.25 = 0 exactly
    sched = NoiseSchedule(beta=np.array([0.75]), alpha=np.array([0.5]),
                          sigma_x=0.5, sigma_z=0.15)
    model = make_model(T=1, sigma_x=0.5, schedule=sched)
    constant_network(model.obs_net, [1.0, 1.0])
    got = mean_x_components(model, np.zeros(2), t=1)[0].data
    assert sched.coef_x(1)[1] == 0.0
    assert np.allclose(got, [np.sqrt(0.75), np.sqrt(0.75)], atol=1e-15)


def test_mean_x_zero_networks_gives_zero():
    model = make_model(seed=1)
    zero_network(model.obs_net)
    zero_network(model.obs_noise_net)
    assert np.array_equal(mean_x_components(model, np.ones(2), t=2)[0].data, np.zeros(2))


def test_mean_z_boundary_independent_of_z_prev():
    model = make_model(schedule="vanilla", seed=5)
    x = np.array([0.7, 0.1])
    a = mean_z_components(model, np.zeros(2), x, t=1).data
    b = mean_z_components(model, np.full(2, 9.0), x, t=1).data
    expected = np.sqrt(1.0 - model.schedule.sigma_z**2) * model.lat_net(x).data
    assert np.array_equal(a, b)
    assert np.array_equal(a, expected)


def test_mean_z_alpha_zero_uses_only_noise_network():
    sched = NoiseSchedule(beta=np.array([0.5]), alpha=np.array([0.0]),
                          sigma_x=0.3, sigma_z=0.15)
    model = make_model(T=1, schedule=sched, seed=6)
    z, x = np.array([0.2, -0.3]), np.array([0.5, 0.5])
    got = mean_z_components(model, z, x, t=1).data
    c = np.sqrt(1.0 - 0.0 - 0.15**2)
    pred = model.lat_noise_net(np.concatenate([z, x])).data
    assert np.allclose(got, c * pred, atol=1e-15)


def test_mean_z_zero_networks_gives_zero():
    model = make_model(seed=7)
    zero_network(model.lat_net)
    zero_network(model.lat_noise_net)
    mu_z = mean_z_components(model, np.ones(2), np.ones(2), t=1)
    assert np.array_equal(mu_z.data, np.zeros(2))


def test_mean_ops_reject_invalid_schedule():
    with pytest.raises(ConfigError, match="schedule out of bounds"):  # 0.95 > 1 - 0.09
        NoiseSchedule(beta=np.array([0.95]), alpha=np.array([0.5]), sigma_x=0.3, sigma_z=0.15)
    model = make_model(T=1)
    with pytest.raises(ValueError, match="read-only"):
        model.schedule.beta[0] = 0.95       # nor can a model's schedule be made inadmissible


def test_vanilla_dynamics_interpolates_previous_latent():
    model = make_model(seed=8, dynamics="vanilla")
    z, x = np.array([0.3, -0.6]), np.array([0.2, 0.9])
    sqrt_a, c = model.schedule.coef_z(1)
    expected = sqrt_a * model.lat_net(x).data + c * z
    assert np.allclose(mean_z_components(model, z, x, t=1).data, expected, atol=1e-15)
    expected_x = np.sqrt(1 - model.schedule.sigma_x**2) * model.obs_net(z).data
    assert np.array_equal(mean_x_components(model, z, t=1)[0].data, expected_x)


def _sample_step(model, z, t, noise_x, noise_z):
    """One kernel step for one row: (x_t, z_t, mu_x, mu_z) as 1-D arrays."""
    (s,) = alternate(model, np.atleast_2d(z), 1, t0=t - 1,
                     eps_x=np.reshape(noise_x, (1, 1, -1)), eps_z=np.reshape(noise_z, (1, 1, -1)))
    return s.x.data[0], s.z.data[0], s.mu_x.data[0], s.mu_z.data[0]


def test_sample_step_zero_noise_returns_means(tiny_model):
    z = np.array([0.1, 0.2])
    x_t, z_t, mu_x, mu_z = _sample_step(tiny_model, z, 1, np.zeros(2), np.zeros(2))
    assert np.array_equal(x_t, mu_x)
    assert np.array_equal(z_t, mu_z)


def test_sample_step_noise_linearity_exact():
    # zero networks pin mu_x at exactly 0; dyadic sigma and noise keep the
    # float subtraction exact, so the shift equals sigma_x * delta bitwise
    model = make_model(sigma_x=0.5, sigma_z=0.25, seed=9)
    zero_network(model.obs_net)
    zero_network(model.obs_noise_net)
    z = np.array([0.5, -0.25])
    n1 = np.array([1.0, -2.0])
    x1, _, _, _ = _sample_step(model, z, 1, n1, np.zeros(2))
    x2, _, _, _ = _sample_step(model, z, 1, 2.0 * n1, np.zeros(2))
    assert np.array_equal(x2 - x1, 0.5 * n1)


def test_sample_step_noise_linearity_general():
    model = make_model(seed=9)
    z = np.random.default_rng(0).normal(size=2)
    n1 = np.array([0.37, -1.21])
    delta = np.array([0.53, 0.11])
    x1, _, _, _ = _sample_step(model, z, 1, n1, np.zeros(2))
    x2, _, _, _ = _sample_step(model, z, 1, n1 + delta, np.zeros(2))
    assert np.allclose(x2 - x1, model.schedule.sigma_x * delta, atol=1e-14)


def test_sample_step_deterministic(tiny_model):
    z = np.array([0.1, 0.2])
    nx, nz = np.array([0.3, -0.1]), np.array([0.2, 0.8])
    a = _sample_step(tiny_model, z, 2, nx, nz)
    b = _sample_step(tiny_model, z, 2, nx, nz)
    for u, v in zip(a, b):
        assert np.array_equal(u, v)


# --- the kernel against hand-written per-step loops -----------------------------

def _reference_generate(model, n, T, seed):
    """The recursion written out, drawing noise step by step; the (n, T, d_x) samples."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, model.d_z))
    xs = []
    for t in range(1, T + 1):
        noise_x = rng.standard_normal((n, model.d_x))
        noise_z = rng.standard_normal((n, model.d_z))
        x = mean_x_components(model, z, t)[0].data + model.schedule.sigma_x * noise_x
        z = mean_z_components(model, z, x, t).data + model.schedule.sigma_z * noise_z
        xs.append(x)
    return np.stack(xs, axis=1)


def _reference_encode(model, xs, seed, mean_propagation):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(model.d_z)
    mu_zs = []
    for t in range(1, len(xs) + 1):
        mu_z = mean_z_components(model, z, xs[t - 1], t).data
        mu_zs.append(mu_z)
        z = mu_z if mean_propagation else (
            mu_z + model.schedule.sigma_z * rng.standard_normal(model.d_z))
    return np.stack(mu_zs), z


@pytest.mark.parametrize("dynamics", ["noise_models", "vanilla"])
def test_generate_batch_matches_reference_loop_bitwise(dynamics):
    model = make_model(d_x=3, d_z=2, T=5, seed=31, dynamics=dynamics)
    got = generate_batch(model, 7, T=5, seed=4)
    assert np.array_equal(got, _reference_generate(model, 7, 5, seed=4))


@pytest.mark.parametrize("mean_propagation", [False, True])
def test_encode_states_matches_reference_loop_bitwise(mean_propagation):
    model = make_model(d_x=3, d_z=2, T=6, seed=32)
    xs = np.random.default_rng(5).normal(size=(6, 3))
    mu_zs, z_last = encode_states(model, xs, seed=8, mean_propagation=mean_propagation)
    ref_mu, ref_z = _reference_encode(model, xs, 8, mean_propagation)
    assert np.array_equal(mu_zs, ref_mu)
    assert np.array_equal(z_last, ref_z)


@pytest.mark.parametrize("mean_propagation", [False, True])
def test_encode_states_stack_matches_per_series_calls(mean_propagation):
    model = make_model(d_x=3, d_z=2, T=6, seed=33)
    xs = np.random.default_rng(6).normal(size=(5, 6, 3))
    seeds = [3, 1, 4, 1, 5]
    mu_zs, z_last = encode_states(model, xs, seeds, mean_propagation=mean_propagation)
    want = [encode_states(model, x, s, mean_propagation=mean_propagation)
            for x, s in zip(xs, seeds)]
    assert mu_zs.shape == (5, 6, 2) and z_last.shape == (5, 2)
    np.testing.assert_allclose(mu_zs, np.stack([w[0] for w in want]), rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(z_last, np.stack([w[1] for w in want]), rtol=1e-12, atol=1e-15)
    one_mu, one_z = encode_states(model, xs[2:3], seeds[2:3], mean_propagation=mean_propagation)
    assert np.array_equal(one_mu[0], want[2][0]) and np.array_equal(one_z[0], want[2][1])
    with pytest.raises(ShapeError):
        encode_states(model, xs, seeds[:4])
    with pytest.raises(ShapeError):
        encode_states(model, xs[..., :2], seeds)


def test_alternate_skips_observation_mean_where_data_is_used(tiny_model):
    xs = np.ones((1, 3, 2))
    observed = np.zeros((1, 3, 2), dtype=bool)
    observed[:, 0] = True                     # step 1 observed
    observed[:, 1, 0] = True                  # step 2 partly observed
    s1, s2, s3 = alternate(tiny_model, np.zeros((1, 2)), 3, data=xs, observed=observed)
    assert s1.mu_x is None
    assert np.array_equal(s1.x.data, xs[:, 0])
    assert np.array_equal(s2.x.data, [[1.0, s2.mu_x.data[0, 1]]])
    assert s3.x is s3.mu_x                    # no eps_x: the fill is the mean


# --- trajectory generation ----------------------------------------------------

def test_generate_shapes(tiny_model):
    assert generate_batch(tiny_model, 3, T=4, seed=0).shape == (3, 4, 2)


def test_generate_same_seed_identical(tiny_model):
    a = generate_batch(tiny_model, 2, T=4, seed=11)
    b = generate_batch(tiny_model, 2, T=4, seed=11)
    assert np.array_equal(a, b)


def test_generate_rejects_horizon_beyond_schedule(tiny_model):
    with pytest.raises(ConfigError):
        generate_batch(tiny_model, 1, T=10, seed=0)


def test_alternate_rejects_steps_past_schedule(tiny_model):
    z0 = np.zeros((1, tiny_model.d_z))
    T = tiny_model.schedule.T
    assert len(list(alternate(tiny_model, z0, T))) == T
    for steps, t0 in ((T + 1, 0), (1, T)):
        with pytest.raises(ConfigError, match="exceed schedule length"):
            list(alternate(tiny_model, z0, steps, t0=t0))


def test_generate_monte_carlo_pure_noise_mean():
    # vanilla schedule + zero networks -> x is exactly sigma_x * noise;
    # mean of 10^4 samples stays within 5 standard errors of zero.
    model = make_model(d_x=1, d_z=2, T=3, schedule="vanilla", seed=13)
    for net in model.networks().values():
        zero_network(net)
    samples = generate_batch(model, 10_000, T=3, seed=123)
    tol = 5.0 * model.schedule.sigma_x / np.sqrt(10_000)
    assert np.all(np.abs(samples.mean(axis=0)) <= tol)


# --- encoding -------------------------------------------------------------

def test_encode_deterministic(tiny_model):
    xs = np.random.default_rng(1).normal(size=(4, 2))
    a = encode_states(tiny_model, xs, seed=5)[0]
    b = encode_states(tiny_model, xs, seed=5)[0]
    assert np.array_equal(a, b)


def test_encode_shape(tiny_model):
    xs = np.zeros((3, 2))
    assert encode_states(tiny_model, xs, seed=0)[0].shape == (3, 2)


def test_encode_boundary_schedule_ignores_seed():
    model = make_model(schedule="vanilla", seed=15)
    xs = np.random.default_rng(2).normal(size=(4, 2))
    a = encode_states(model, xs, seed=1)[0]
    b = encode_states(model, xs, seed=2)[0]
    expected = np.sqrt(1 - model.schedule.sigma_z**2) * np.stack(
        [model.lat_net(x).data for x in xs]
    )
    assert np.array_equal(a, b)
    assert np.allclose(a, expected, atol=1e-15)


def test_encode_mean_propagation_deterministic_without_seed_effect(tiny_model):
    xs = np.random.default_rng(3).normal(size=(4, 2))
    a = encode_states(tiny_model, xs, seed=1, mean_propagation=True)[0]
    b = encode_states(tiny_model, xs, seed=1, mean_propagation=True)[0]
    assert np.array_equal(a, b)


# --- checkpoints ---------------------------------------------------------

# payload header: version, d_x, d_z, T (u32), dynamics (u8), sigma_x, sigma_z (f64)
_SIGMA_X_AT, _BETA_AT = 17, 33


def _rewrite_checkpoint(path, edit):
    """Replace the payload with ``edit(payload)`` and recompute the CRC, so the file passes it."""
    blob = path.read_bytes()
    payload = bytes(edit(bytearray(blob[8:-4])))
    path.write_bytes(blob[:8] + payload + struct.pack("<I", zlib.crc32(payload)))


def _patch_checkpoint(path, offset, raw):
    """Overwrite payload bytes at ``offset``, with a recomputed CRC."""
    def edit(payload):
        payload[offset:offset + len(raw)] = raw
        return payload

    _rewrite_checkpoint(path, edit)


def test_checkpoint_round_trip_bitwise(tmp_path, tiny_model):
    path = tmp_path / "model.alt"
    save_model(tiny_model, path)
    loaded = load_model(path)
    assert loaded.d_x == tiny_model.d_x and loaded.d_z == tiny_model.d_z
    assert np.array_equal(loaded.schedule.beta, tiny_model.schedule.beta)
    assert loaded.schedule.sigma_x == tiny_model.schedule.sigma_x
    assert loaded.dynamics == tiny_model.dynamics
    for name, net in tiny_model.networks().items():
        other = loaded.networks()[name]
        assert other.spec == net.spec
        assert list(other.params) == list(net.params)
        for pname in net.params:
            assert np.array_equal(other.params[pname].data, net.params[pname].data)
            assert other.params[pname].data.flags.writeable  # Adam updates in place


def test_checkpoint_truncated_file(tmp_path, tiny_model):
    path = tmp_path / "model.alt"
    save_model(tiny_model, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-10])
    with pytest.raises(CheckpointError):
        load_model(path)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "model.alt"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(CheckpointError):
        load_model(path)


def test_checkpoint_corrupted_payload(tmp_path, tiny_model):
    path = tmp_path / "model.alt"
    save_model(tiny_model, path)
    blob = bytearray(path.read_bytes())
    blob[40] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError):
        load_model(path)


def test_every_truncation_and_bit_flip_is_checkpoint_error(tmp_path):
    path = tmp_path / "model.alt"
    save_model(make_model(hidden_dim=2, depth=1), path)
    blob = path.read_bytes()
    flips = []
    for i in range(len(blob)):
        flipped = bytearray(blob)
        flipped[i] ^= 1 << (i % 8)
        flips.append(bytes(flipped))
    for bad in [blob[:n] for n in range(len(blob))] + flips:
        path.write_bytes(bad)
        with pytest.raises(CheckpointError):
            load_model(path)


def test_checkpoint_header_dim_mismatch(tmp_path, tiny_model):
    path = tmp_path / "model.alt"
    save_model(tiny_model, path)
    _patch_checkpoint(path, 4, struct.pack("<I", tiny_model.d_x + 1))
    with pytest.raises(CheckpointError):
        load_model(path)


def test_checkpoint_with_inadmissible_sigma_is_checkpoint_error(tmp_path, tiny_model):
    path = tmp_path / "model.alt"
    save_model(tiny_model, path)
    _patch_checkpoint(path, _SIGMA_X_AT, struct.pack("<d", 1.5))
    with pytest.raises(CheckpointError, match="sigma_x"):
        load_model(path)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_checkpoint_with_non_finite_weight_is_checkpoint_error(tmp_path, tiny_model, value):
    path = tmp_path / "model.alt"
    tiny_model.lat_net.params["out.weight"].data[0, 0] = value
    save_model(tiny_model, path)
    with pytest.raises(CheckpointError, match="out.weight"):
        load_model(path)


def test_checkpoint_with_beta_over_bound_is_checkpoint_error(tmp_path, tiny_model):
    path = tmp_path / "model.alt"
    save_model(tiny_model, path)
    _patch_checkpoint(path, _BETA_AT + 8, struct.pack("<d", tiny_model.schedule.beta_limit + 1e-9))
    with pytest.raises(CheckpointError, match="schedule out of bounds: beta at t=2"):
        load_model(path)


def test_checkpoint_with_non_utf8_parameter_name_is_checkpoint_error(tmp_path, tiny_model):
    path = tmp_path / "model.alt"
    save_model(tiny_model, path)
    at = path.read_bytes()[8:-4].index(b"layer0.weight")
    _patch_checkpoint(path, at, b"\xff")
    with pytest.raises(CheckpointError, match="not UTF-8"):
        load_model(path)


def test_schedule_rejects_zero_length():
    with pytest.raises(ConfigError, match="non-empty"):
        NoiseSchedule(beta=[], alpha=[], sigma_x=0.3, sigma_z=0.15)
    with pytest.raises(ConfigError, match="length must be >= 1"):
        vanilla_schedule(0, 0.3, 0.15)


def test_checkpoint_with_zero_length_schedule_is_checkpoint_error(tmp_path, tiny_model):
    path = tmp_path / "model.alt"
    save_model(tiny_model, path)
    T = tiny_model.schedule.T

    def drop_schedule(payload):
        payload[12:16] = struct.pack("<I", 0)
        del payload[_BETA_AT:_BETA_AT + 16 * T]
        return payload

    _rewrite_checkpoint(path, drop_schedule)
    with pytest.raises(CheckpointError, match="header inconsistent with contents"):
        load_model(path)


@pytest.mark.parametrize("edit, match", [
    (lambda payload: payload[:-8], "checkpoint truncated"),
    (lambda payload: payload + b"\x00", "trailing bytes"),
    (lambda payload: payload[:16] + b"\x07" + payload[17:], "unknown dynamics flag"),
])
def test_checkpoint_with_consistent_crc_but_bad_layout_is_checkpoint_error(tmp_path, tiny_model,
                                                                          edit, match):
    path = tmp_path / "model.alt"
    save_model(tiny_model, path)
    _rewrite_checkpoint(path, edit)
    with pytest.raises(CheckpointError, match=match):
        load_model(path)


@pytest.mark.parametrize("field, offset, value, match", [
    ("hidden_dim", 9, 2**20, "does not match its network spec"),
    ("hidden_dim", 9, 2**32 - 1, "does not match its network spec"),
    ("depth", 13, 2**32 - 1, "does not match its network spec"),
    ("depth", 13, 0, "network depth must be >= 1"),
    # a u8 code patched as a u32 zeroes the next three bytes; the codes are checked first
    ("kind", 0, 7, "unknown network kind/activation"),
    ("activation", 17, 7, "unknown network kind/activation"),
    ("activation", 17, 1, "unknown network kind/activation"),   # 1 marked a GELU network
    ("n_params", 18, 5, "fewer parameters than its network spec"),   # the spec has 6
])
def test_checkpoint_with_patched_network_header_allocates_nothing(tmp_path, tiny_model,
                                                                  field, offset, value, match):
    # network header: kind (u8), input_dim, output_dim, hidden_dim, depth (u32), activation (u8),
    # then the parameter count (u32)
    path = tmp_path / "model.alt"
    save_model(tiny_model, path)
    first_net = _BETA_AT + 16 * tiny_model.schedule.T
    _patch_checkpoint(path, first_net + offset, struct.pack("<I", value))
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointError, match=match):
            load_model(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, f"{field}={value}: {peak} bytes"


def test_checkpoint_with_the_retired_attention_kind_byte_is_checkpoint_error(tmp_path,
                                                                             tiny_model):
    # kind byte 1 marked a self-attention network; every network is an MLP (byte 0) now
    path = tmp_path / "model.alt"
    save_model(tiny_model, path)
    first_net = _BETA_AT + 16 * tiny_model.schedule.T
    assert path.read_bytes()[8 + first_net] == 0
    _patch_checkpoint(path, first_net, struct.pack("<B", 1))
    with pytest.raises(CheckpointError, match="unknown network kind"):
        load_model(path)


def test_schedule_rejects_sigma_outside_unit_interval():
    for sx, sz in ((1.5, 0.1), (0.3, 0.0), (0.3, float("nan"))):
        with pytest.raises(ConfigError, match="must lie in"):
            NoiseSchedule(beta=np.zeros(1), alpha=np.zeros(1), sigma_x=sx, sigma_z=sz)
        with pytest.raises(ConfigError, match="must lie in"):
            vanilla_schedule(2, sx, sz)


def test_checkpoint_version_mismatch(tmp_path, tiny_model):
    path = tmp_path / "model.alt"
    save_model(tiny_model, path)
    _patch_checkpoint(path, 0, struct.pack("<I", 99))  # future format version
    with pytest.raises(CheckpointError, match="version"):
        load_model(path)


def test_checkpoint_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_model(tmp_path / "nope.alt")
