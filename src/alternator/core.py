"""Noise schedules, the alternating generative process, encoding, checkpoints.

The model alternates between producing an observation from the previous
latent state and updating the latent state from that observation:

    x_t = sqrt(beta_t) * obs_net(z_{t-1})
          + sqrt(1 - beta_t - sigma_x^2) * obs_noise_net(z_{t-1})
          + sigma_x * eps_x
    z_t = sqrt(alpha_t) * lat_net(x_t)
          + sqrt(1 - alpha_t - sigma_z^2) * lat_noise_net([z_{t-1}; x_t])
          + sigma_z * eps_z

The schedule coefficients interpolate between mean-driven dynamics and the
learned noise models. At the boundary beta_t = 1 - sigma_x^2 (and alpha_t
analogously) the noise-model coefficient is exactly zero -- its square is
computed as ``(1 - sigma^2) - beta_t`` so the cancellation is bitwise exact
-- and the dynamics degenerate to the classic two-network alternation.
"""

from __future__ import annotations

import io
import math
import struct
import zlib
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, _as_tensor, _check_finite
from .data import atomic_write
from .errors import CheckpointError, ConfigError, ShapeError
from .networks import Network, NetworkSpec, parameter_shapes

NOISE_MODEL_DYNAMICS = "noise_models"
VANILLA_DYNAMICS = "vanilla"
DYNAMICS = (NOISE_MODEL_DYNAMICS, VANILLA_DYNAMICS)

_NET_ORDER = ("obs_net", "lat_net", "obs_noise_net", "lat_noise_net")


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-timestep coefficients plus base noise scales, checked at construction.

    Admissible iff it has at least one step, 0 <= beta_t <= 1 - sigma_x^2
    and 0 <= alpha_t <= 1 - sigma_z^2 for every t (so every square root in
    the sampling rules is real), with both sigmas in (0, 1). The upper boundary is admitted: there
    the noise-model coefficient is exactly zero. An inadmissible schedule
    raises ConfigError; ``beta`` and ``alpha`` are read-only copies, so an
    admissible one stays admissible.
    """

    beta: np.ndarray
    alpha: np.ndarray
    sigma_x: float
    sigma_z: float

    def __post_init__(self):
        _check_sigmas(self.sigma_x, self.sigma_z)
        for name in ("beta", "alpha"):
            coefs = np.array(getattr(self, name), dtype=np.float64)
            coefs.flags.writeable = False
            object.__setattr__(self, name, coefs)
        if self.beta.shape != self.alpha.shape or self.beta.ndim != 1 or not self.beta.size:
            raise ConfigError("beta and alpha must be 1-D, non-empty and of equal length")
        for name, coefs, limit in (("beta", self.beta, self.beta_limit),
                                   ("alpha", self.alpha, self.alpha_limit)):
            bad = np.flatnonzero(~((0.0 <= coefs) & (coefs <= limit)))  # NaN fails too
            if bad.size:
                i = bad[0]
                raise ConfigError(f"schedule out of bounds: {name} at t={i + 1} is "
                                  f"{coefs[i]}, outside [0, {limit}]")

    @property
    def T(self) -> int:
        return len(self.beta)

    @property
    def beta_limit(self) -> float:
        return 1.0 - self.sigma_x**2

    @property
    def alpha_limit(self) -> float:
        return 1.0 - self.sigma_z**2

    def coef_x(self, t: "int | np.ndarray"):
        """(sqrt(beta_t), sqrt(1 - beta_t - sigma_x^2)) for 1-based t, an int or an int array."""
        c = self.beta[t - 1]
        return np.sqrt(c), np.sqrt(self.beta_limit - c)

    def coef_z(self, t: "int | np.ndarray"):
        """(sqrt(alpha_t), sqrt(1 - alpha_t - sigma_z^2)) for 1-based t; see coef_x."""
        c = self.alpha[t - 1]
        return np.sqrt(c), np.sqrt(self.alpha_limit - c)


def _check_sigmas(sigma_x: float, sigma_z: float) -> None:
    for name, value in (("sigma_x", sigma_x), ("sigma_z", sigma_z)):
        if not 0.0 < value < 1.0:
            raise ConfigError(f"{name} must lie in (0, 1), got {value}")


def linear_schedule(T: int, lo: float, hi: float) -> np.ndarray:
    """T evenly spaced coefficients from lo to hi inclusive; T=1 gives [lo]."""
    if T < 1:
        raise ConfigError("schedule length must be >= 1")
    if lo > hi:
        raise ConfigError(f"schedule endpoints out of order: lo={lo} > hi={hi}")
    if lo < 0.0:
        raise ConfigError("schedule coefficients must be non-negative")
    if T == 1:
        return np.array([lo], dtype=np.float64)
    return np.linspace(lo, hi, T)


def default_schedule(
    T: int,
    sigma_x: float,
    sigma_z: float,
    beta_span: tuple[float, float] = (0.1, 1.0),
    alpha_span: tuple[float, float] = (0.1, 1.0),
) -> NoiseSchedule:
    """Linearly spaced schedules spanning fractions of the admissible range.

    The default runs from 0.1 * (1 - sigma^2) up to the boundary
    1 - sigma^2 itself, so the final step degenerates to the classic
    alternation.
    """
    _check_sigmas(sigma_x, sigma_z)  # before the spans, which assume both limits positive
    for name, span in (("beta_span", beta_span), ("alpha_span", alpha_span)):
        if len(span) != 2:
            raise ConfigError(f"{name} must be two numbers [lo, hi], got {list(span)}")
    bmax = 1.0 - sigma_x**2
    amax = 1.0 - sigma_z**2
    beta = linear_schedule(T, beta_span[0] * bmax, beta_span[1] * bmax)
    alpha = linear_schedule(T, alpha_span[0] * amax, alpha_span[1] * amax)
    return NoiseSchedule(beta=beta, alpha=alpha, sigma_x=sigma_x, sigma_z=sigma_z)


def vanilla_schedule(T: int, sigma_x: float, sigma_z: float) -> NoiseSchedule:
    """Boundary schedule: both noise-model coefficients are exactly zero."""
    return default_schedule(T, sigma_x, sigma_z, (1.0, 1.0), (1.0, 1.0))


@dataclass
class AlternatorModel:
    """The four networks plus the schedule; immutable after construction.

    obs_net       maps latent -> observation-space mean driver
    lat_net       maps observation -> latent-space mean driver
    obs_noise_net predicts structured observation noise from the latent
    lat_noise_net predicts structured latent noise from [latent; observation]

    ``dynamics`` selects the sampling rules: ``noise_models`` (above) or
    ``vanilla``, the classic alternation where the observation mean is
    sqrt(1 - sigma_x^2) * obs_net(z) and the latent update interpolates
    z_{t-1} directly instead of a learned noise term.
    """

    d_x: int
    d_z: int
    obs_net: Network
    lat_net: Network
    obs_noise_net: Network
    lat_noise_net: Network
    schedule: NoiseSchedule
    dynamics: str = NOISE_MODEL_DYNAMICS

    def __post_init__(self):
        if self.dynamics not in DYNAMICS:
            raise ConfigError(f"unknown dynamics: {self.dynamics!r}")
        checks = (
            (self.obs_net, self.d_z, self.d_x),
            (self.lat_net, self.d_x, self.d_z),
            (self.obs_noise_net, self.d_z, self.d_x),
            (self.lat_noise_net, self.d_z + self.d_x, self.d_z),
        )
        for net, want_in, want_out in checks:
            if net.spec.input_dim != want_in or net.spec.output_dim != want_out:
                raise ConfigError(
                    f"network dims {net.spec.input_dim}->{net.spec.output_dim} "
                    f"inconsistent with model dims (want {want_in}->{want_out})"
                )

    def networks(self) -> dict[str, Network]:
        return {name: getattr(self, name) for name in _NET_ORDER}

    def named_parameters(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for name in _NET_ORDER:
            for pname, tensor in getattr(self, name).params.items():
                out[f"{name}.{pname}"] = tensor
        return out


def spawn_seed(seed: int, *key: int) -> int:
    """A seed for the child stream ``key`` of ``seed``; equal keys give equal seeds."""
    return int(np.random.SeedSequence(entropy=seed, spawn_key=key).generate_state(1)[0])


def build_model(
    d_x: int,
    d_z: int,
    schedule: NoiseSchedule,
    hidden_dim: int = 64,
    depth: int = 2,
    seed: int = 0,
    dynamics: str = NOISE_MODEL_DYNAMICS,
) -> AlternatorModel:
    """Construct a model with freshly initialized networks."""
    net_seeds = [spawn_seed(seed, k) for k in range(4)]

    def spec(i, o):
        return NetworkSpec(input_dim=i, output_dim=o, hidden_dim=hidden_dim, depth=depth)

    return AlternatorModel(
        d_x=d_x,
        d_z=d_z,
        obs_net=Network.build(spec(d_z, d_x), net_seeds[0]),
        lat_net=Network.build(spec(d_x, d_z), net_seeds[1]),
        obs_noise_net=Network.build(spec(d_z, d_x), net_seeds[2]),
        lat_noise_net=Network.build(spec(d_z + d_x, d_z), net_seeds[3]),
        schedule=schedule,
        dynamics=dynamics,
    )


def mean_x_components(
    model: AlternatorModel, z_prev, t: "int | np.ndarray", want_noise_pred: bool = False
) -> tuple[Tensor, "Tensor | None"]:
    """(mu_x, obs-noise prediction) at step t.

    ``t`` is an int, or an int array giving the step of each row of a
    (n, d_z) ``z_prev``, so the steps of a whole rollout run in one call.
    The noise network is evaluated only when a coefficient is nonzero or
    the caller asks for the prediction (the noise-matching loss does); when
    the coefficient is exactly zero it never enters the mean, keeping the
    boundary degeneration bitwise exact. Vanilla dynamics use the
    coefficients (sqrt(1 - sigma_x^2), 0) at every step.
    """
    z_prev = _as_tensor(z_prev)
    if model.dynamics == VANILLA_DYNAMICS:
        sqrt_b, c = np.sqrt(model.schedule.beta_limit), 0.0
    else:
        sqrt_b, c = model.schedule.coef_x(t)
        if isinstance(t, np.ndarray):  # one coefficient per row
            sqrt_b, c = sqrt_b[:, None], c[:, None]
    first = model.obs_net(z_prev)  # before obs_noise_net, fixing the tape's node order
    pred = None
    if want_noise_pred or np.any(c != 0.0):
        pred = model.obs_noise_net(z_prev)
    return ad.mix(first, sqrt_b, pred, c), pred


def mean_z_components(model: AlternatorModel, z_prev, x_t, t: int) -> Tensor:
    """mu_z at step t; see mean_x_components.

    Under vanilla dynamics the second coefficient multiplies z_{t-1}. The
    noise network's input [z_{t-1}; x_t] is a plain array, so this is a
    sampling path: no gradient reaches z_{t-1} or x_t through that network
    (training runs :func:`alternator.autodiff.latent_recursion`).
    """
    z_prev = _as_tensor(z_prev)
    x_t = _as_tensor(x_t)
    sqrt_a, c = model.schedule.coef_z(t)
    drive = z_prev
    if model.dynamics != VANILLA_DYNAMICS:
        drive = None if c == 0.0 else model.lat_noise_net(
            np.concatenate([z_prev.data, x_t.data], axis=-1))
    return ad.mix(model.lat_net(x_t), sqrt_a, drive, c)


@dataclass
class AlternationStep:
    """The arrays of one alternation step."""

    x: np.ndarray                        # observation fed to the latent update
    z: np.ndarray                        # carried latent z_t
    mu_x: "np.ndarray | None"            # None where mu_x was not evaluated
    mu_z: np.ndarray


def alternate(
    model: AlternatorModel,
    z0,
    steps: int,
    t0: int = 0,
    data: "np.ndarray | None" = None,
    observed: "np.ndarray | None" = None,
    eps_x: "np.ndarray | None" = None,
    eps_z: "np.ndarray | None" = None,
) -> Iterator[AlternationStep]:
    """Run steps t0+1 .. t0+steps of the alternation over a batch of latents.

    The one sampling recursion, run on arrays (training runs
    :func:`alternator.autodiff.latent_recursion`). Yields each step's
    arrays as it is computed. ``z0`` is (B, d_z); ``data``, ``observed``,
    ``eps_x`` and ``eps_z`` are indexed (B, step, channel), step 0 being
    t0+1. The arrays passed select the policy. The
    observation is ``data`` where ``observed`` (everywhere without a mask:
    encoding), elsewhere ``mu_x + sigma_x*eps_x`` (generation, forecasting), or
    ``mu_x`` when ``eps_x`` is None (the imputation fill). The carried latent
    is ``mu_z + sigma_z*eps_z``, or ``mu_z`` when ``eps_z`` is None (mean
    propagation). mu_x is evaluated only where the observation uses it.
    A non-finite x_t or z_t raises NumericError naming the step.
    Raises ConfigError, when iteration starts, if the steps run past the
    schedule.
    """
    s = model.schedule
    if t0 + steps > s.T:
        raise ConfigError(f"steps {t0 + 1}..{t0 + steps} exceed schedule length {s.T}")
    z = np.asarray(z0, dtype=np.float64)
    for i in range(steps):
        t = t0 + i + 1
        obs = data is not None and (observed is None or observed[:, i])
        mu_x = None
        if np.all(obs):
            x = data[:, i]
        else:
            mu_x = mean_x_components(model, z, t)[0].data
            x = mu_x if eps_x is None else _check_finite(
                mu_x + s.sigma_x * eps_x[:, i], f"alternation at t={t}: x")
            if np.any(obs):
                x = np.where(obs, data[:, i], x)
        mu_z = mean_z_components(model, z, x, t).data
        z = mu_z if eps_z is None else _check_finite(
            mu_z + s.sigma_z * eps_z[:, i], f"alternation at t={t}: z")
        yield AlternationStep(x, z, mu_x, mu_z)


def stack_steps(steps: Iterable[AlternationStep], n: int, *fields: str) -> list[np.ndarray]:
    """Copy the named fields of n steps into (B, n, d) arrays as the steps run."""
    # Copying each step as it comes, rather than keeping every step's small
    # arrays to the end, keeps them from fragmenting the heap (about 6 MB of
    # peak RSS on the downstream benchmark).
    out: list[np.ndarray] = []
    for i, step in enumerate(steps):
        values = [getattr(step, name) for name in fields]
        if not out:
            out = [np.empty((v.shape[0], n) + v.shape[1:]) for v in values]
        for o, v in zip(out, values):
            o[:, i] = v
    return out


def generate_batch(model: AlternatorModel, n: int, T: int, seed: int) -> np.ndarray:
    """Sample n independent trajectories of length T in one vectorized sweep.

    Returns the (n, T, d_x) observations. Draw order (fixed for
    reproducibility): z_0 first, then for each t the n observation noises
    followed by the n latent noises.
    """
    if T < 1:
        raise ConfigError("horizon must be >= 1")
    rng = np.random.default_rng(seed)
    z0 = rng.standard_normal((n, model.d_z))
    eps = rng.standard_normal((T, n * (model.d_x + model.d_z)))
    split = n * model.d_x
    eps_x = eps[:, :split].reshape(T, n, model.d_x).swapaxes(0, 1)
    eps_z = eps[:, split:].reshape(T, n, model.d_z).swapaxes(0, 1)
    (xs,) = stack_steps(alternate(model, z0, T, eps_x=eps_x, eps_z=eps_z), T, "x")
    return xs


def series_stack(xs, seed, d_x: int, what: str) -> tuple[np.ndarray, list, bool]:
    """(S, T, d_x) stack, its S seeds, and whether ``xs`` was one series.

    A (T, d_x) series is a stack of one and takes an int seed; an (S, T,
    d_x) stack takes a sequence of S seeds, one per series.
    """
    xs = np.asarray(xs, dtype=np.float64)
    single = xs.ndim == 2
    if single:
        xs = xs[None]
    if xs.ndim != 3 or xs.shape[0] < 1 or xs.shape[2] != d_x:
        shape = xs.shape[1:] if single else xs.shape
        raise ShapeError(f"expected (T, {d_x}) or (S, T, {d_x}) {what}, got {shape}")
    seeds = np.ravel(seed).tolist()
    if len(seeds) != xs.shape[0]:
        raise ShapeError(f"expected one seed per series ({xs.shape[0]}), got {len(seeds)}")
    return xs, seeds, single


def encode_states(
    model: AlternatorModel,
    xs: np.ndarray,
    seed: "int | Sequence[int]",
    mean_propagation: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Latent means for clamped observation sequences, plus the final states.

    The recursion follows the generative process but feeds the given x_t to
    the latent update at every step. By default the carried latent is
    sampled (mu_z + sigma_z * noise); with ``mean_propagation`` the mean is
    carried directly, giving a fully deterministic embedding. One (T, d_x)
    sequence and an int seed give (T, d_z) means and a (d_z,) state; an
    (S, T, d_x) stack and S seeds give (S, T, d_z) and (S, d_z), all rows
    run as one batch. Each sequence draws from its own seed as it would
    alone: z_0, then its T latent noises.
    """
    xs, seeds, single = series_stack(xs, seed, model.d_x, "observations")
    T = xs.shape[1]
    if T < 1:
        raise ConfigError("sequence length must be >= 1")
    rngs = [np.random.default_rng(s) for s in seeds]
    z0 = np.stack([rng.standard_normal(model.d_z) for rng in rngs])
    eps_z = None if mean_propagation else np.stack(
        [rng.standard_normal((T, model.d_z)) for rng in rngs])
    mu_zs, zs = stack_steps(alternate(model, z0, T, data=xs, eps_z=eps_z), T, "mu_z", "z")
    return (mu_zs[0], zs[0, -1]) if single else (mu_zs, zs[:, -1])


# --- checkpoint serialization ------------------------------------------------

_MAGIC = b"ALTNCKP1"
_VERSION = 1
_MLP_KIND = 0     # a network header's kind byte: every network is an MLP
_TANH = 0         # its activation byte: every hidden layer is tanh
_DYN_CODE = {NOISE_MODEL_DYNAMICS: 0, VANILLA_DYNAMICS: 1}
_DYN_NAME = {v: k for k, v in _DYN_CODE.items()}


def _pack_network(buf: io.BytesIO, net: Network) -> None:
    s = net.spec
    buf.write(struct.pack(
        "<BIIIIB", _MLP_KIND, s.input_dim, s.output_dim,
        s.hidden_dim, s.depth, _TANH,
    ))
    buf.write(struct.pack("<I", len(net.params)))
    for name, param in net.params.items():
        raw = name.encode("utf-8")
        arr = param.data
        buf.write(struct.pack("<H", len(raw)))
        buf.write(raw)
        buf.write(struct.pack("<B", arr.ndim))
        for d in arr.shape:
            buf.write(struct.pack("<I", d))
        buf.write(np.ascontiguousarray(arr).tobytes())


def save_model(model: AlternatorModel, path) -> None:
    """Write a single-file binary checkpoint with a trailing CRC32, atomically."""
    buf = io.BytesIO()
    s = model.schedule
    buf.write(struct.pack(
        "<IIIIB dd", _VERSION, model.d_x, model.d_z, s.T, _DYN_CODE[model.dynamics],
        s.sigma_x, s.sigma_z,
    ))
    buf.write(s.beta.tobytes())
    buf.write(s.alpha.tobytes())
    for name in _NET_ORDER:
        _pack_network(buf, getattr(model, name))
    payload = buf.getvalue()
    with atomic_write(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(payload)
        fh.write(struct.pack("<I", zlib.crc32(payload)))


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise CheckpointError("checkpoint truncated")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def _unpack_network(r: _Reader) -> Network:
    kind_code, in_dim, out_dim, hidden, depth, act_code = r.unpack("<BIIIIB")
    if kind_code != _MLP_KIND or act_code != _TANH:
        raise CheckpointError("checkpoint contains an unknown network kind/activation")
    spec = NetworkSpec(input_dim=in_dim, output_dim=out_dim, hidden_dim=hidden, depth=depth)
    layout = parameter_shapes(spec)
    (n_params,) = r.unpack("<I")
    params: dict[str, Tensor] = {}
    for _ in range(n_params):
        (name_len,) = r.unpack("<H")
        raw = r.take(name_len)
        try:
            name = raw.decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError("checkpoint parameter name is not UTF-8") from None
        (ndim,) = r.unpack("<B")
        shape = tuple(r.unpack("<I")[0] for _ in range(ndim))
        if (name, shape) != next(layout, None):  # before the array is read
            raise CheckpointError(f"checkpoint parameter {name} {shape} does not match "
                                  "its network spec")
        arr = np.frombuffer(r.take(8 * math.prod(shape)), dtype=np.float64).reshape(shape)
        if not np.all(np.isfinite(arr)):
            raise CheckpointError(f"checkpoint parameter {name} has non-finite values")
        params[name] = Tensor(arr.copy())  # frombuffer is a read-only view; Adam writes in place
    if next(layout, None) is not None:
        raise CheckpointError("checkpoint has fewer parameters than its network spec")
    return Network(spec=spec, params=params)


def load_model(path) -> AlternatorModel:
    """Read a checkpoint written by :func:`save_model`; bitwise round trip."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(_MAGIC) + 4 or blob[: len(_MAGIC)] != _MAGIC:
        raise CheckpointError("not a model checkpoint (bad magic)")
    payload, (crc,) = blob[len(_MAGIC):-4], struct.unpack("<I", blob[-4:])
    if zlib.crc32(payload) != crc:
        raise CheckpointError("checksum mismatch: checkpoint corrupted")
    r = _Reader(payload)
    version, d_x, d_z, T, dyn_code, sigma_x, sigma_z = r.unpack("<IIIIB dd")
    if version != _VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    if dyn_code not in _DYN_NAME:
        raise CheckpointError("checkpoint contains unknown dynamics flag")
    beta = np.frombuffer(r.take(8 * T), dtype=np.float64)
    alpha = np.frombuffer(r.take(8 * T), dtype=np.float64)
    try:
        nets = {name: _unpack_network(r) for name in _NET_ORDER}
        if r.pos != len(payload):
            raise CheckpointError("checkpoint has trailing bytes")
        schedule = NoiseSchedule(beta=beta, alpha=alpha, sigma_x=sigma_x, sigma_z=sigma_z)
        return AlternatorModel(
            d_x=d_x, d_z=d_z, schedule=schedule, dynamics=_DYN_NAME[dyn_code], **nets
        )
    except ConfigError as exc:
        raise CheckpointError(f"checkpoint header inconsistent with contents: {exc}") from exc
