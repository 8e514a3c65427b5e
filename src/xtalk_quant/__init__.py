"""Rate-loss analysis of finite-word-length zero-forcing crosstalk precoders."""

__version__ = "1.0.0"

from .channel_model import (
    ChannelEnsemble,
    ChannelSnapshot,
    RowDominanceFit,
    ToneGrid,
    WernerParams,
    calibrate_k_mean_slope,
    fit_alpha,
    fit_row_dominance,
    load_channel,
    row_dominance,
    save_channel,
    synthesize_channel,
)
from .precoding import (
    PerturbationSpec,
    PrecoderBundle,
    build_delta,
    delta_entry_bound,
    ideal_precoder,
    make_bundle,
    quantize_precoder,
)
from .rate_analysis import (
    BandLoss,
    LinkBudget,
    LossReport,
    ToneLoss,
    build_report,
    loss_exact,
    rate_ideal,
)
from .analytic_bounds import (
    WernerBoundParams,
    bound_asymptotic_coefficient,
    bound_general_per_tone,
    bound_main_band,
    bound_main_per_tone,
    bound_relative,
    bound_simplified_per_tone,
    bound_werner_decay,
    j_integral_bound,
    spectral_efficiency_floor,
    min_admissible_bits,
    werner_snr_profile,
)
from .design import (
    BitsResult,
    QuadraticBudget,
    bits_for_relative_loss,
    bits_for_tone_loss,
    solve_quadratic_budget,
    sweep_bits_vs_loop_length,
)
from .monte_carlo import (
    CsiErrorModel,
    TrialConfig,
    TrialReport,
    min_bits_empirical,
    run_trials,
    run_trials_sweep,
    run_trials_with_csi_error,
)
from .scenario import Scenario
