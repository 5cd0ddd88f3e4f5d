"""Alternating latent sequence models with learned noise models.

The package provides a small float64 autodiff substrate, the alternating
generative process with per-timestep noise schedules, the composite
training objective, downstream imputation/forecasting procedures, and the
evaluation metrics used to verify them, plus an experiment CLI.
"""

from .autodiff import Tape, Tensor, backward, finite_difference_check
from .core import (
    AlternationStep,
    AlternatorModel,
    NoiseSchedule,
    alternate,
    build_model,
    default_schedule,
    generate_batch,
    linear_schedule,
    load_model,
    save_model,
    vanilla_schedule,
)
from .data import (
    SeriesDataset,
    denormalize,
    load_csv,
    normalize_minmax,
    synth_ar1,
    synth_bimodal,
)
from .errors import CheckpointError, ConfigError, DataError, NumericError, ShapeError
from .metrics import (
    crps_ensemble,
    median_bandwidth,
    mmd_rbf,
    pointwise_metrics,
    sequence_mmd,
)
from .networks import (
    Network,
    NetworkSpec,
    init_parameters,
    network_forward,
)
from .tasks import (
    EnsembleForecast,
    MARMask,
    apply_mar_mask,
    forecast_ensemble,
    impute,
    mean_fill,
)
from .training import (
    AdamState,
    EpochStats,
    LossBreakdown,
    TrainConfig,
    adam_step,
    alternator_loss,
    cosine_lr,
    draw_rollout_noise,
    gamma_weight,
    noise_matching_loss,
    rollout,
    total_loss,
    train,
)

__version__ = "0.1.0"
