"""Joint power-split and placement optimisation for a UAV amplify-and-forward
relay carrying short-packet traffic.

The package exposes finite-blocklength reliability metrics, two channel
models (inverse-square and elevation-angle air-to-ground), analytic and
line-search solvers for the relay placement problem, an exhaustive-search
oracle with baseline schemes, and a config-driven experiment harness.
"""

from ._record import replace
from .atg3d import Atg3dScenario, bcd_solve_3d, hop_gains_3d, optimize_height, optimize_x
from .channels import (
    ATG_PRESETS,
    AtgEnvironment,
    FreeSpaceScenario,
    db_to_linear,
    freespace_gains,
)
from .config import (
    ConfigError,
    ExperimentConfig,
    ProfileSpec,
    load_config,
    parse_config,
)
from .cubic import cubic_real_roots, depressed_real_roots
from .fbl import (
    BlocklengthParams,
    PowerSplit,
    af_snr,
    channel_dispersion,
    decoding_error_probability,
    q_function,
    rate_gap,
    rate_gap_derivative,
)
from .freespace import (
    SolveResult,
    bcd_solve,
    cubic_location_candidates,
    optimal_location_given_power,
    optimal_power_for_gains,
    snr_at,
)
from .harness import (
    ResultRow,
    RunOutcome,
    profile_curves,
    run_experiment,
    write_profile_csv,
    write_rows_csv,
    write_rows_json,
    write_traces_json,
)
from .highsnr import (
    HighSnrCaseReport,
    gamma_tilde,
    high_snr_solve,
    solve_condition1,
    solve_condition2,
    solve_condition3,
    unconstrained_location,
)
from .oracle import (
    GridSpec,
    exhaustive_search,
    fixed_height_baseline,
    fixed_location_baseline,
    fixed_power_baseline,
)
from .search import golden_section_max, interior_local_maxima, line_search_max

__version__ = "0.1.0"

__all__ = [
    "ATG_PRESETS",
    "Atg3dScenario",
    "AtgEnvironment",
    "BlocklengthParams",
    "ConfigError",
    "ExperimentConfig",
    "FreeSpaceScenario",
    "GridSpec",
    "HighSnrCaseReport",
    "PowerSplit",
    "ProfileSpec",
    "ResultRow",
    "RunOutcome",
    "SolveResult",
    "af_snr",
    "bcd_solve",
    "bcd_solve_3d",
    "channel_dispersion",
    "cubic_location_candidates",
    "cubic_real_roots",
    "db_to_linear",
    "decoding_error_probability",
    "depressed_real_roots",
    "exhaustive_search",
    "fixed_height_baseline",
    "fixed_location_baseline",
    "fixed_power_baseline",
    "freespace_gains",
    "gamma_tilde",
    "golden_section_max",
    "high_snr_solve",
    "hop_gains_3d",
    "interior_local_maxima",
    "line_search_max",
    "load_config",
    "optimal_location_given_power",
    "optimal_power_for_gains",
    "optimize_height",
    "optimize_x",
    "parse_config",
    "profile_curves",
    "q_function",
    "rate_gap",
    "rate_gap_derivative",
    "replace",
    "run_experiment",
    "snr_at",
    "solve_condition1",
    "solve_condition2",
    "solve_condition3",
    "unconstrained_location",
    "write_profile_csv",
    "write_rows_csv",
    "write_rows_json",
    "write_traces_json",
]
