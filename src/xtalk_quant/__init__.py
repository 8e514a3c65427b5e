"""Rate-loss analysis of finite-word-length zero-forcing crosstalk precoders.

Each import group below says why its names are public: a paper quantity
(with the acceptance criterion that pins it), a CLI need, or a benchmark need.
"""

__version__ = "1.0.0"

# CLI: the channel behind every subcommand, its files and fits;
# calibrate_k_mean_slope is where DEFAULT_K_MEAN_SLOPE comes from
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
# CLI (analyze): precoders, quantizers and Delta
from .precoding import (
    PerturbationSpec,
    build_delta,
    ideal_precoder,
    make_bundle,
    quantize_precoder,
)
# paper: the exact loss (criterion 1); CLI: analyze's per-tone and band report
from .rate_analysis import (
    LinkBudget,
    LossReport,
    ToneLoss,
    build_report,
    loss_exact,
)
# paper: the bound chain and Delta's entry ceiling t (criteria 2, 6, 7, 8, 9);
# CLI: bound's columns
from .analytic_bounds import (
    WernerBoundParams,
    bound_asymptotic_coefficient,
    bound_general_per_tone,
    bound_main_band,
    bound_main_per_tone,
    bound_relative,
    bound_simplified_per_tone,
    bound_werner_decay,
    delta_entry_bound,
    j_integral_bound,
    spectral_efficiency_floor,
    min_admissible_bits,
    werner_snr_profile,
)
# paper: the quadratic lemma and bit counts (criteria 3, 4, 5); CLI: design-bits, sweep
from .design import (
    BitsResult,
    QuadraticBudget,
    bits_for_relative_loss,
    bits_for_tone_loss,
    solve_quadratic_budget,
    sweep_bits_vs_loop_length,
)
# paper: trial worst cases, with estimation error when spec.e1_samples is set
# (criteria 2, 3, 10); CLI: simulate; benchmark: run_trials
from .monte_carlo import (
    TrialConfig,
    TrialReport,
    min_bits_empirical,
    run_trials,
    run_trials_sweep,
)
# CLI: --config files; benchmark: writes and reads its scenario
from .scenario import Scenario
